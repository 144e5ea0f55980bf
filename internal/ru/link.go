package ru

import (
	"context"
	"fmt"
	"sync"
	"time"

	"condor/internal/proto"
	"condor/internal/wire"
)

// A link is one home→exec placement connection. It carries at most one
// placement at a time (an execution machine hosts one foreign job), and
// between placements it waits in an idle pool, so a station that places
// on the same machine again skips the dial.
type link struct {
	key  linkKey
	peer *wire.Peer

	mu     sync.Mutex
	shadow *Shadow // the placement the link carries; nil while idle
}

// linkKey is what two placements must share to ride one link: the
// execution machine and the heartbeat PlaceConfig fixes at dial.
type linkKey struct {
	addr      string
	heartbeat time.Duration
}

// idleLinks holds at most one idle link per key, like net/http's
// Transport. A link leaves it the moment its reader loop ends.
var idleLinks = struct {
	sync.Mutex
	m map[linkKey]*link
}{m: make(map[linkKey]*link)}

// dialLink opens a link, retrying only the TCP connect under the default
// policy. The heartbeat starts here, once per link: it keeps probing
// while the link is idle, so a half-open idle link dies within three
// intervals, as a busy one does.
func dialLink(ctx context.Context, key linkKey, dialTimeout time.Duration) (*link, error) {
	l := &link{key: key}
	err := wire.Retry{}.Do(ctx, func() (err error) {
		l.peer, err = wire.Dial(key.addr, dialTimeout, l.handle)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.peer.StartHeartbeat(key.heartbeat)
	go func() {
		<-l.peer.Done()
		idleLinks.Lock()
		if idleLinks.m[l.key] == l {
			delete(idleLinks.m, l.key)
		}
		idleLinks.Unlock()
	}()
	return l, nil
}

// takeIdle removes and returns the idle link for key, if there is one.
// It may have died since it was parked; a handshake on it then fails
// with wire.ErrNotSent.
func takeIdle(key linkKey) *link {
	idleLinks.Lock()
	defer idleLinks.Unlock()
	l := idleLinks.m[key]
	delete(idleLinks.m, key)
	return l
}

// putIdle returns an unbound link to the pool, closing it when it is dead
// or its key already has a live idle link.
func (l *link) putIdle() {
	idleLinks.Lock()
	cur := idleLinks.m[l.key]
	keep := !l.peer.Dead() && (cur == nil || cur.peer.Dead())
	if keep {
		idleLinks.m[l.key] = l
	}
	idleLinks.Unlock()
	if !keep {
		l.peer.Close()
	}
}

func (l *link) bind(s *Shadow) {
	s.link = l
	l.mu.Lock()
	l.shadow = s
	l.mu.Unlock()
}

// unbind detaches s and reports whether it was still the link's
// placement; exactly one caller wins for each binding.
func (l *link) unbind(s *Shadow) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.shadow != s {
		return false
	}
	l.shadow = nil
	return true
}

// closeIfBound closes the link only while it still carries s, holding
// the binding so the link cannot pass to another job first.
func (l *link) closeIfBound(s *Shadow) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.shadow == s {
		l.peer.Close()
	}
}

// handle delivers the execution side's messages to the bound shadow, and
// only those naming its job. Wire runs one-way notices on goroutines of
// their own, so a late notice of the link's previous job can arrive after
// the link was rebound: it is refused (a request) or dropped (one-way),
// and counted.
func (l *link) handle(ctx context.Context, msg any) (any, error) {
	l.mu.Lock()
	s := l.shadow
	l.mu.Unlock()
	if s == nil || jobOf(msg) != s.jobID {
		mLinkStale.Inc()
		return nil, fmt.Errorf("ru: %T for a job this link does not carry", msg)
	}
	return s.handle(ctx, msg)
}

// jobOf names the job an execution-side message is about.
func jobOf(msg any) string {
	switch m := msg.(type) {
	case proto.SyscallMsg:
		return m.JobID
	case proto.JobDoneMsg:
		return m.JobID
	case proto.JobVacatedMsg:
		return m.JobID
	case proto.JobCheckpointMsg:
		return m.JobID
	case proto.JobSuspendedMsg:
		return m.JobID
	case proto.JobResumedMsg:
		return m.JobID
	}
	return ""
}
