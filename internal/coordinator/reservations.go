package coordinator

import (
	"fmt"
	"time"

	"condor/internal/eventlog"
	"condor/internal/proto"
)

// reservation is one §5.3 machine reservation.
type reservation struct {
	holder string
	until  time.Time
}

// Reserve grants holder exclusive remote use of station until now+d. A
// live reservation by a different holder is refused; the same holder may
// extend. The workstation owner's priority is unaffected — reservations
// only arbitrate among remote users. A granted reservation is saved
// before Reserve returns.
func (c *Coordinator) Reserve(station, holder string, d time.Duration) (time.Time, error) {
	until, err := c.reserve(station, holder, d)
	if err == nil {
		c.saveState()
	}
	return until, err
}

func (c *Coordinator) reserve(station, holder string, d time.Duration) (time.Time, error) {
	if d <= 0 {
		return time.Time{}, fmt.Errorf("coordinator: non-positive reservation duration %v", d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.stations[station]; !ok {
		return time.Time{}, fmt.Errorf("coordinator: unknown station %q", station)
	}
	if _, ok := c.stations[holder]; !ok {
		return time.Time{}, fmt.Errorf("coordinator: unknown holder %q", holder)
	}
	now := time.Now()
	if r, ok := c.reservations[station]; ok && r.until.After(now) && r.holder != holder {
		return time.Time{}, fmt.Errorf("coordinator: %s reserved for %s until %s",
			station, r.holder, r.until.Format(time.RFC3339))
	}
	until := now.Add(d)
	c.reservations[station] = reservation{holder: holder, until: until}
	c.events.Append(eventlog.Event{
		Kind: eventlog.KindReserve, Station: station,
		Detail: fmt.Sprintf("for %s until %s", holder, until.Format(time.RFC3339)),
	})
	return until, nil
}

// CancelReservation releases a station's reservation; it reports
// whether a live one existed. Cancelling an already-expired reservation
// prunes the stale entry but reports false — the reservation had
// already ended on its own. A release is saved before it returns.
func (c *Coordinator) CancelReservation(station string) bool {
	c.mu.Lock()
	r, ok := c.reservations[station]
	delete(c.reservations, station)
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.saveState()
	return r.until.After(time.Now())
}

// reservationFor returns the live reservation holder for a station
// (empty when none), pruning expired entries. Caller holds c.mu.
func (c *Coordinator) reservationForLocked(station string, now time.Time) string {
	r, ok := c.reservations[station]
	if !ok {
		return ""
	}
	if !r.until.After(now) {
		delete(c.reservations, station)
		return ""
	}
	return r.holder
}

// enforceReservations emits preemptions for reserved machines that are
// running some other station's job, so a reservation takes effect even
// against already-placed work. Caller must NOT hold c.mu.
func (c *Coordinator) enforceReservations(addrs map[string]string) {
	now := time.Now()
	type evict struct {
		addr  string
		jobID string
		hold  string
	}
	var evictions []evict
	c.mu.Lock()
	for name, s := range c.stations {
		holder := c.reservationForLocked(name, now)
		if holder == "" || !s.reachable {
			continue
		}
		if s.lastReply.State == proto.StationClaimed &&
			s.lastReply.ForeignOwnerStation != holder &&
			s.lastReply.ForeignJob != "" {
			evictions = append(evictions, evict{
				addr:  addrs[name],
				jobID: s.lastReply.ForeignJob,
				hold:  holder,
			})
		}
	}
	c.mu.Unlock()
	for _, e := range evictions {
		c.bump(func(st *Stats) { st.Preempts++ })
		_, _ = c.callStationRetry(e.addr, proto.PreemptRequest{
			JobID:  e.jobID,
			Reason: fmt.Sprintf("machine reserved for %s", e.hold),
		})
	}
}
