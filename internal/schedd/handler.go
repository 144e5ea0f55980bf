package schedd

import (
	"context"
	"fmt"
	"time"

	"condor/internal/accounting"
	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/trace"
	"condor/internal/wire"
)

// handlerFor routes one inbound connection's messages. Placement
// connections (from shadows) are handed to the starter; everything else
// is station RPC.
func (st *Station) handlerFor(peer *wire.Peer) wire.Handler {
	starterHandler := st.starter.Handler(peer)
	return func(ctx context.Context, msg any) (any, error) {
		switch m := msg.(type) {
		case proto.PlaceRequest:
			return starterHandler(ctx, m)
		case proto.SubmitRequest:
			return st.handleSubmit(m)
		case proto.QueueRequest:
			return proto.QueueReply{Station: st.cfg.Name, Jobs: st.Queue()}, nil
		case proto.RemoveRequest:
			return proto.RemoveReply{Removed: st.Remove(m.JobID)}, nil
		case proto.WaitRequest:
			status, err := st.Wait(m.JobID, st.cfg.WaitTimeout)
			if err != nil {
				return proto.WaitReply{Found: false}, nil //nolint:nilerr // absence is data
			}
			return proto.WaitReply{Found: true, Status: status}, nil
		case proto.PollRequest:
			return st.handlePoll(), nil
		case proto.GrantRequest:
			return st.handleGrant(m), nil
		case proto.HistoryRequest:
			return proto.HistoryReply{Events: st.events.Query(m.JobID, m.TraceID, m.Limit)}, nil
		case proto.AccountingRequest:
			// Stations answer with the process ledger (their jobs' meters
			// live in accounting.Default); only the coordinator has an
			// allocation view.
			return proto.AccountingReply{Process: accounting.Default.Snapshot()}, nil
		case proto.TracesRequest:
			return proto.TracesReply{Page: trace.Default.PageFor(m.TraceID, m.JobID)}, nil
		case proto.PreemptRequest:
			return proto.PreemptReply{
				Vacating: st.starter.Vacate(m.JobID, "preempted: "+m.Reason),
			}, nil
		default:
			return nil, fmt.Errorf("schedd: station %s got unexpected %T", st.cfg.Name, msg)
		}
	}
}

func (st *Station) handleSubmit(m proto.SubmitRequest) (proto.SubmitReply, error) {
	var prog *cvm.Program
	var err error
	switch {
	case len(m.ProgramBlob) > 0:
		prog, err = proto.DecodeProgram(m.ProgramBlob)
	case m.Source != "":
		name := m.Name
		if name == "" {
			name = "job"
		}
		prog, err = cvm.Assemble(name, m.Source)
	default:
		err = fmt.Errorf("schedd: submit carries neither source nor program")
	}
	if err != nil {
		return proto.SubmitReply{}, err
	}
	owner := m.Owner
	if owner == "" {
		owner = "unknown"
	}
	jobID, err := st.SubmitJob(owner, prog, SubmitOptions{
		StackWords: m.StackWords,
		Priority:   m.Priority,
	})
	if err != nil {
		return proto.SubmitReply{}, err
	}
	return proto.SubmitReply{JobID: jobID}, nil
}

func (st *Station) handlePoll() proto.PollReply {
	st.mu.Lock()
	st.lastPolled = time.Now()
	st.mu.Unlock()
	reply := proto.PollReply{
		Name:             st.cfg.Name,
		State:            st.State(),
		WaitingJobs:      st.WaitingJobs(),
		DiskFreeBytes:    st.diskFree(),
		IdleStreakMillis: st.tracker.IdleStreak(time.Now()).Milliseconds(),
		AvgIdleMillis:    st.tracker.AvgIdleLen().Milliseconds(),
	}
	if jobID, _, ok := st.starter.Running(); ok {
		reply.ForeignJob = jobID
		// By convention job ids are "<station>/<n>"; the starter also
		// knows the user, but Up-Down accounting is per-station, so report
		// the home station parsed from the job id.
		reply.ForeignOwnerStation = homeStationOf(jobID)
	}
	return reply
}

// homeStationOf extracts the home station from a "<station>/<n>" job id.
func homeStationOf(jobID string) string {
	for i := len(jobID) - 1; i >= 0; i-- {
		if jobID[i] == '/' {
			return jobID[:i]
		}
	}
	return jobID
}

func (st *Station) handleGrant(m proto.GrantRequest) proto.GrantReply {
	// Answer while the coordinator still waits: a placement the machine
	// has not taken at three quarters of its wait is declined, so a
	// stuck execution machine is not booked as this station's silence.
	ctx := context.Background()
	if m.ReplyWithinMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(m.ReplyWithinMillis)*time.Millisecond*3/4)
		defer cancel()
	}
	jobID, err := st.PlaceNext(ctx, m.ExecName, m.ExecAddr)
	if err != nil {
		return proto.GrantReply{Used: false, Reason: err.Error()}
	}
	reply := proto.GrantReply{Used: true, JobID: jobID}
	// Hand the coordinator the placed job's trace identity so it can
	// record its own grant span inside the job's trace.
	if sc := st.traceCtxOf(jobID); sc.Valid() {
		reply.Trace = sc.Traceparent()
	}
	return reply
}

// LastPolled returns when the coordinator last polled this station.
func (st *Station) LastPolled() time.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastPolled
}

// StartRegistrar keeps the station registered: it registers immediately
// and re-registers whenever the coordinator has not polled for three
// poll intervals — so a restarted coordinator (§2.1: "its recovery at
// another site is simplified") rediscovers the pool without manual
// action. The interval is the one the coordinator sent in its latest
// RegisterReply. While the coordinator stays silent, re-registration
// backs off exponentially with jitter (up to 16× the interval), so a
// pool of stations does not hammer a restarting coordinator in lockstep;
// the first poll that arrives resets the cadence. Returns a stop
// function.
func (st *Station) StartRegistrar(coordAddr string) (stop func(), err error) {
	interval, err := st.register(coordAddr)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.lastPolled = time.Now() // grace: assume healthy at start
	st.mu.Unlock()
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		attempts := 0
		timer := time.NewTimer(interval)
		defer timer.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-timer.C:
				wait := interval
				if time.Since(st.LastPolled()) > 3*interval {
					// Best effort; the coordinator may still be down.
					if iv, err := st.register(coordAddr); err == nil {
						interval = iv
					}
					attempts++
					wait = wire.Retry{BaseDelay: interval, MaxDelay: 16 * interval, Jitter: 0.25}.Backoff(attempts)
				} else {
					attempts = 0
				}
				timer.Reset(wait)
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}, nil
}

// Register announces the station to the coordinator at coordAddr. The
// call rides the station's pooled connection and is retried on
// transient transport faults — registering twice is harmless, so it is
// safely idempotent.
func (st *Station) Register(coordAddr string) error {
	_, err := st.register(coordAddr)
	return err
}

// register is Register returning the coordinator's poll interval (the
// paper's 2 minutes if the reply carries none).
func (st *Station) register(coordAddr string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), st.cfg.DialTimeout+5*time.Second)
	defer cancel()
	addr := st.cfg.AdvertiseAddr
	if addr == "" {
		addr = st.Addr()
	}
	reply, err := st.pool.CallRetry(ctx, coordAddr, proto.RegisterRequest{Name: st.cfg.Name, Addr: addr})
	if err != nil {
		return 0, fmt.Errorf("schedd: register %s with %s: %w", st.cfg.Name, coordAddr, err)
	}
	r, ok := reply.(proto.RegisterReply)
	if !ok || !r.OK {
		return 0, fmt.Errorf("schedd: coordinator refused registration of %s", st.cfg.Name)
	}
	if r.PollIntervalMillis <= 0 {
		return 2 * time.Minute, nil
	}
	return time.Duration(r.PollIntervalMillis) * time.Millisecond, nil
}
