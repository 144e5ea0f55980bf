package wire

import (
	"fmt"

	"condor/internal/codec"
)

// Message is a value that can travel in an Envelope. Its tag names its
// type on the wire, and AppendWire appends its body in internal/codec's
// encoding; the read function registered for the tag reads that body
// back.
type Message interface {
	WireTag() byte
	AppendWire(b []byte) []byte
}

// maxTag bounds message tags, so a tag is one byte in codec's number
// encoding. Tag 0 is an envelope with no message.
const maxTag = 127

// registry maps a tag to its message type's zero value and read function.
var registry [maxTag + 1]struct {
	zero Message
	read func(*codec.Reader) Message
}

// Register makes zero's type a wire message: read reads the body that
// zero's type appends. Call it from an init function; a tag out of
// range, or one already registered, panics.
func Register(zero Message, read func(*codec.Reader) Message) {
	tag := zero.WireTag()
	if tag == 0 || tag > maxTag || registry[tag].read != nil {
		panic(fmt.Sprintf("wire: cannot register %T under tag %d", zero, tag))
	}
	registry[tag].zero, registry[tag].read = zero, read
}

// Registered lists the zero value of every registered message type, in
// tag order.
func Registered() []Message {
	var out []Message
	for _, e := range registry {
		if e.zero != nil {
			out = append(out, e.zero)
		}
	}
	return out
}

// appendEnvelope appends env's payload: ID, Kind, Err, Trace, the
// message tag (0 for none), then the message body.
func appendEnvelope(b []byte, env *Envelope) ([]byte, error) {
	b = codec.AppendUint(b, env.ID)
	b = codec.AppendUint(b, uint64(env.Kind))
	b = codec.AppendString(b, env.Err)
	b = codec.AppendString(b, env.Trace)
	if env.Msg == nil {
		return append(b, 0), nil
	}
	m, ok := env.Msg.(Message)
	if !ok {
		return b, fmt.Errorf("wire: encode: %T is not a wire.Message", env.Msg)
	}
	tag := m.WireTag()
	if tag > maxTag || registry[tag].read == nil {
		return b, fmt.Errorf("wire: encode: %T has unregistered tag %d", env.Msg, tag)
	}
	return m.AppendWire(append(b, tag)), nil
}

// readEnvelope reads one payload. An unknown Kind or tag, a malformed
// field, or a byte past the message fails it.
func readEnvelope(r *codec.Reader) (Envelope, error) {
	env := Envelope{ID: r.ReadUint()}
	if k := r.ReadUint(); k >= uint64(KindRequest) && k <= uint64(KindPong) {
		env.Kind = Kind(k)
	} else {
		r.Fail("unknown envelope kind")
	}
	env.Err = r.ReadString()
	env.Trace = r.ReadString()
	if tag := r.ReadUint(); tag != 0 {
		if tag > maxTag || registry[tag].read == nil {
			r.Fail(fmt.Sprintf("unknown message tag %d", tag))
		} else {
			env.Msg = registry[tag].read(r)
		}
	}
	if err := r.End(); err != nil {
		return Envelope{}, err
	}
	return env, nil
}
