package wire

import "bytes"

// ReadFrames runs Recv over a byte stream and returns the envelopes it
// delivers and the error that ends them, for the external fuzz test.
// A nil chunk serves the stream whole; otherwise the i-th Read (from 1)
// returns at most chunk(i) ≥ 1 bytes.
func ReadFrames(data []byte, chunk func(i int) int) ([]Envelope, error) {
	conn := NewConn(&byteConn{r: bytes.NewReader(data), chunk: chunk})
	var envs []Envelope
	for {
		env, err := conn.Recv()
		if err != nil {
			return envs, err
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
