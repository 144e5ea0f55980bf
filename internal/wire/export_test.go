package wire

import "bytes"

// ReadFrames runs Recv over a byte stream and returns the envelopes it
// delivers before it fails, for the external fuzz test.
func ReadFrames(data []byte) []Envelope {
	conn := NewConn(&byteConn{r: bytes.NewReader(data)})
	var envs []Envelope
	for {
		env, err := conn.Recv()
		if err != nil {
			return envs
		}
		envs = append(envs, env)
	}
}

// WriteFrame is the frame Send writes for env.
func WriteFrame(env Envelope) ([]byte, error) {
	sink := &byteConn{r: bytes.NewReader(nil)}
	err := NewConn(sink).Send(env)
	return sink.w.Bytes(), err
}
