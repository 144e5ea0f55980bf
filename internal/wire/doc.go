// Package wire is the transport layer shared by every Condor daemon:
// length-prefixed message frames over a net.Conn, the payloads of each
// direction forming one gob stream per connection, plus a small
// request/response client and a per-connection server loop.
//
// The design is deliberately symmetric at the frame level — an Envelope
// is either a request, a reply, or a one-way notification — because the
// Remote Unix protocol needs both directions on one connection: the
// submitting machine's shadow dials the execution machine to place a job,
// and from then on the executor sends system-call requests *back* over
// the same connection.
package wire
