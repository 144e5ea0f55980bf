package wire

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// pipePair returns two Conns joined by an in-memory pipe, with the
// writes pumped on a goroutine so Send/Recv do not deadlock.
func pipePair() (*Conn, *Conn, func()) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b), func() { a.Close(); b.Close() }
}

// TestPropertyFrameRoundTrip: arbitrary payload bytes survive framing.
func TestPropertyFrameRoundTrip(t *testing.T) {
	property := func(data []byte, id uint64, kind uint8) bool {
		ca, cb, closeAll := pipePair()
		defer closeAll()
		env := Envelope{
			ID:   id,
			Kind: Kind(kind%3) + KindRequest,
			Msg:  blobMsg{Data: data},
		}
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(env) }()
		got, err := cb.Recv()
		if err != nil {
			return false
		}
		if sendErr := <-errCh; sendErr != nil {
			return false
		}
		if got.ID != env.ID || got.Kind != env.Kind {
			return false
		}
		msg, ok := got.Msg.(blobMsg)
		if !ok {
			return false
		}
		return bytes.Equal(msg.Data, data)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTruncatedFramesNeverPanic: cutting a valid frame at any
// point yields an error, never a panic or a phantom message.
func TestPropertyTruncatedFramesNeverPanic(t *testing.T) {
	// Build one valid frame by capturing what Send writes.
	ca, cb, closeAll := pipePair()
	var frame []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		deadline := time.Now().Add(2 * time.Second)
		for {
			n, err := cbRead(cb, buf)
			if n > 0 {
				frame = append(frame, buf[:n]...)
			}
			if err != nil || len(frame) > 16 || time.Now().After(deadline) {
				return
			}
		}
	}()
	if err := ca.Send(Envelope{ID: 9, Kind: KindRequest, Msg: blobMsg{Data: []byte("payload")}}); err != nil {
		t.Fatal(err)
	}
	closeAll()
	<-done
	if len(frame) < 5 {
		t.Fatalf("captured only %d bytes", len(frame))
	}

	property := func(cutAt uint16) bool {
		cut := int(cutAt) % len(frame)
		a, b := net.Pipe()
		conn := NewConn(b)
		go func() {
			a.Write(frame[:cut])
			a.Close()
		}()
		_, err := conn.Recv()
		b.Close()
		return err != nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// cbRead reads raw bytes from the Conn's underlying pipe side.
func cbRead(c *Conn, buf []byte) (int, error) {
	return c.raw.Read(buf)
}
