package wire

import (
	"context"
	"testing"
	"time"
)

// BenchmarkFrameRoundTrip measures one complete RPC over a real TCP
// loopback connection: encode, frame write, server decode, handler
// dispatch, reply frame, and client decode.
func BenchmarkFrameRoundTrip(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) { return msg, nil }
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	peer, err := Dial(srv.Addr(), 5*time.Second, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()

	ctx := context.Background()
	msg := ping{} // a registered message, minimal payload
	if _, err := peer.Call(ctx, msg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := peer.Call(ctx, msg); err != nil {
			b.Fatal(err)
		}
	}
}
