// Package wire is the transport layer shared by every Condor daemon:
// length-prefixed, self-contained message frames over a net.Conn, each
// one Envelope in internal/codec's encoding with a registered Message
// inside, plus a small request/response client and a per-connection
// server loop.
//
// The design is deliberately symmetric at the frame level — an Envelope
// is either a request, a reply, or a one-way notification — because the
// Remote Unix protocol needs both directions on one connection: the
// submitting machine's shadow dials the execution machine to place a job,
// and from then on the executor sends system-call requests *back* over
// the same connection.
//
// Connections are opened in one place (Dial, which ClientPool uses too)
// and accepted in one (NewServer), and none carries timeout settings.
// Deadlines come from the call: a frame write must finish by the
// caller's context deadline or within one package-wide frame timeout,
// whichever is earlier, and an inbound frame must complete within that
// timeout once its first byte has arrived. Idle connections never time
// out; heartbeats (Peer.StartHeartbeat) detect a peer that has gone.
package wire
