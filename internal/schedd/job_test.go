package schedd

import (
	"testing"

	"condor/internal/proto"
)

// Value is the refused-event total over every event label.
func (c *staleCounters) Value() uint64 {
	var n uint64
	for _, ctr := range c {
		n += ctr.Value()
	}
	return n
}

// TestTransitionTable walks every (state, event, epoch matches?) triple
// through stepLocked and checks the table's rules: an event from another
// placement or an edge the table does not list changes nothing and is
// counted under its own event; terminal states are absorbing; only place
// bumps the epoch; a job returns to idle only when its placement failed,
// was vacated or was lost; and the races PlaceNext's tail loses are
// legal edges.
func TestTransitionTable(t *testing.T) {
	st := &Station{gQueue: mQueueDepth.With("table"), gWaiting: mWaitingJobs.With("table")}
	states := []proto.JobState{0, proto.JobIdle, proto.JobPlacing, proto.JobRunning,
		proto.JobSuspendedState, proto.JobCompleted, proto.JobFaulted, proto.JobRemoved}
	requeues := map[jobEvent]bool{evPlaceFailed: true, evVacated: true, evLost: true}
	const epoch = 5
	taken := map[proto.JobState]map[jobEvent]bool{}
	for _, from := range states {
		taken[from] = map[jobEvent]bool{}
		for ev := jobEvent(0); ev < numJobEvents; ev++ {
			for _, current := range []bool{true, false} {
				j := &job{status: proto.JobStatus{State: from}, epoch: epoch}
				sent := uint64(epoch)
				if !current {
					sent--
				}
				stale := mStaleEvents[ev].Value()
				st.mu.Lock()
				took := st.stepLocked(j, ev, sent)
				st.mu.Unlock()
				to, name := j.status.State, jobEventNames[ev]
				wantStale := uint64(1)
				if took {
					wantStale = 0
				}
				if got := mStaleEvents[ev].Value() - stale; got != wantStale {
					t.Errorf("%v --%s--> took=%v counted %d stale, want %d", from, name, took, got, wantStale)
				}
				switch {
				case !current && took:
					t.Errorf("%v --%s--> taken from another placement's epoch", from, name)
				case !took && to != from:
					t.Errorf("%v --%s--> refused but moved to %v", from, name, to)
				case from.Terminal() && to != from:
					t.Errorf("terminal %v --%s--> %v", from, name, to)
				case to == 0 && took:
					t.Errorf("%v --%s--> unqueued the job", from, name)
				case to == proto.JobIdle && from != proto.JobIdle && !requeues[ev] && from != 0:
					t.Errorf("%v --%s--> idle", from, name)
				}
				if want := uint64(epoch); took && ev == evPlace {
					if j.epoch != want+1 {
						t.Errorf("%v --place--> epoch %d, want %d", from, j.epoch, want+1)
					}
				} else if j.epoch != want {
					t.Errorf("%v --%s--> epoch %d, want %d", from, name, j.epoch, want)
				}
				if current {
					taken[from][ev] = took
				}
			}
		}
	}
	for ev := jobEvent(0); ev < numJobEvents; ev++ {
		if taken[0][ev] != (ev == evSubmit || ev == evRecover) {
			t.Errorf("an unqueued job takes %s: %v", jobEventNames[ev], taken[0][ev])
		}
	}
	// The shadow's events may beat PlaceNext's tail, and the tail may then
	// land on whatever they left.
	for _, ev := range []jobEvent{evSuspended, evResumed, evCheckpointed, evVacated, evDone, evFaulted, evLost, evRemove} {
		if !taken[proto.JobPlacing][ev] {
			t.Errorf("placing does not take %s", jobEventNames[ev])
		}
	}
	for _, s := range []proto.JobState{proto.JobPlacing, proto.JobRunning, proto.JobSuspendedState, proto.JobIdle, proto.JobCompleted, proto.JobFaulted} {
		if !taken[s][evPlaced] {
			t.Errorf("PlaceNext's tail is refused on %v", s)
		}
	}
	if taken[proto.JobRemoved][evPlaced] {
		t.Error("PlaceNext's tail is taken on a removed job")
	}
	seen := map[string]bool{}
	for _, name := range jobEventNames {
		if name == "" || seen[name] {
			t.Errorf("event label %q missing or repeated", name)
		}
		seen[name] = true
	}
}
