package wire

import (
	"time"
)

// Heartbeats detect half-open connections: a powered-off peer whose TCP
// endpoint never RSTs would otherwise leave a shadow waiting forever for
// a JobDone that cannot come. Ping/pong frames are handled entirely
// inside the Peer — application handlers never see them. They carry no
// message: a ping's sequence number is its envelope ID, and its pong
// echoes it.

// StartHeartbeat begins liveness probing on a peer: it pings the remote
// side every interval and closes (failing pending calls, firing Done)
// once nothing has been heard from it for three intervals. A
// non-positive interval is a no-op.
func (p *Peer) StartHeartbeat(interval time.Duration) {
	if interval <= 0 {
		return
	}
	p.markHeard() // grace: measure staleness from heartbeat start
	go p.heartbeatLoop(interval)
}

func (p *Peer) heartbeatLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-p.done:
			return
		case <-ticker.C:
			seq++
			if err := p.conn.Send(Envelope{
				ID:   seq,
				Kind: KindPing,
			}); err != nil {
				p.conn.Close()
				return
			}
			// The reader loop records lastPong; check staleness.
			p.mu.Lock()
			last := p.lastHeard
			p.mu.Unlock()
			if time.Since(last) > 3*interval {
				// Remote unresponsive: tear the connection down so the
				// reader loop fails everything and Done fires.
				p.conn.Close()
				return
			}
		}
	}
}

// markHeard stamps receipt of any frame (all traffic proves liveness).
func (p *Peer) markHeard() {
	p.mu.Lock()
	p.lastHeard = time.Now()
	p.mu.Unlock()
}

// handleHeartbeat processes ping/pong frames inside the reader loop; it
// reports whether the envelope was a heartbeat frame.
func (p *Peer) handleHeartbeat(env Envelope) bool {
	switch env.Kind {
	case KindPing:
		// Answer immediately; failure will surface in the reader loop.
		_ = p.conn.Send(Envelope{ID: env.ID, Kind: KindPong})
		return true
	case KindPong:
		return true
	default:
		return false
	}
}
