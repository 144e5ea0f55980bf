package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/wire"
)

// FuzzFrameDecode feeds arbitrary byte streams to the frame decoder, with
// every internal/proto message registered. It must never panic and never
// allocate eagerly on the strength of a hostile length prefix alone; any
// malformed input is just an error. Every frame it accepts must re-encode
// to exactly its own bytes: each hand-written message decoder is
// canonical. The four JSON-bodied tooling replies are exempt, since
// encoding/json accepts many spellings of one value.
func FuzzFrameDecode(f *testing.F) {
	frame := func(env wire.Envelope) []byte {
		b, err := wire.WriteFrame(env)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// One frame per registered tag, then a few with real content.
	for i, m := range wire.Registered() {
		f.Add(frame(wire.Envelope{ID: uint64(i), Kind: wire.KindRequest, Msg: m}))
	}
	syscall := frame(wire.Envelope{ID: 9, Kind: wire.KindRequest, Msg: proto.SyscallMsg{JobID: "ws1/2",
		Req: cvm.SyscallRequest{Num: cvm.SysWrite, Args: [4]int64{3, -4096, 64}, Data: []byte("out"), Name: "f"}}})
	f.Add(syscall)
	f.Add(frame(wire.Envelope{ID: 1 << 40, Kind: wire.KindReply, Msg: proto.PollReply{Name: "ws1",
		State: proto.StationIdle, DiskFreeBytes: 1 << 62, AvgIdleMillis: -1}}))
	f.Add(frame(wire.Envelope{ID: 3, Kind: wire.KindReply, Msg: proto.QueueReply{Station: "ws1",
		Jobs: []proto.JobStatus{{ID: "ws1/1", State: proto.JobRunning}}}}))
	f.Add(frame(wire.Envelope{ID: 4, Kind: wire.KindReply, Msg: proto.WaitReply{Found: true,
		Status: proto.JobStatus{ID: "ws1/1", State: proto.JobCompleted, Stdout: "\xff\xfe\n"}}}))
	f.Add(frame(wire.Envelope{ID: 7, Kind: wire.KindReply, Err: "boom"}))
	f.Add(frame(wire.Envelope{ID: 8, Kind: wire.KindPing}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// A 64 MB announcement with no payload behind it, and an over-limit one.
	f.Add(binary.BigEndian.AppendUint32(nil, wire.MaxFrameBytes))
	f.Add(binary.BigEndian.AppendUint32(nil, wire.MaxFrameBytes+1))
	// Trace-context seeds: a well-formed traceparent, the same frame
	// truncated inside it, hostile junk where it belongs and an oversized
	// one. The decoder must treat Trace as opaque bytes — never parse,
	// never trust.
	traced := frame(wire.Envelope{ID: 2, Kind: wire.KindRequest, Msg: proto.PollRequest{},
		Trace: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"})
	f.Add(traced)
	f.Add(traced[:len(traced)-7])
	f.Add(frame(wire.Envelope{ID: 3, Kind: wire.KindOneWay, Msg: proto.Ack{},
		Trace: "\x00\xff not a traceparent \xde\xad"}))
	f.Add(frame(wire.Envelope{ID: 4, Kind: wire.KindRequest, Msg: proto.Ack{},
		Trace: string(bytes.Repeat([]byte{'a'}, 4096))}))
	// Several frames from one connection, whole and cut.
	stream := append(append(append([]byte(nil), syscall...), traced...), syscall...)
	f.Add(stream)
	f.Add(stream[:len(stream)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for i, env := range wire.ReadFrames(data) {
			n := 4 + int(binary.BigEndian.Uint32(rest))
			again, err := wire.WriteFrame(env)
			if err != nil {
				t.Fatalf("frame %d decoded but does not encode: %v", i, err)
			}
			switch env.Msg.(type) {
			case proto.HistoryReply, proto.PoolStatusReply, proto.AccountingReply, proto.DecisionsReply:
			default:
				if !bytes.Equal(again, rest[:n]) {
					t.Fatalf("frame %d re-encodes differently:\n got %x\nwant %x", i, again, rest[:n])
				}
			}
			rest = rest[n:]
		}
	})
}
