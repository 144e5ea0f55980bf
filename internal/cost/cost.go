// Package cost holds the local-support cost model of §3.1 and the
// leverage metric it motivates.
//
// The paper measured, on VAXstation II hardware:
//
//   - placing or checkpointing a job costs ≈5 seconds of local capacity
//     per megabyte of checkpoint file, with an average checkpoint file of
//     ½ MB (≈2.5 s per move);
//   - a remote system call costs ≈10 ms of local capacity on the
//     submitting machine, 20× a local call;
//   - the local scheduler and the coordinator each consume <1% of a
//     machine.
//
// These are inputs to the reproduction, not outputs: the simulator
// charges them to compute the derived quantities the paper reports —
// above all leverage, the ratio of remote capacity consumed to local
// capacity spent supporting it (≈1300 overall, ≈600 for short jobs).
package cost

import "time"

// Model is the local-support cost model.
type Model struct {
	// PlacePerMB is local CPU consumed per megabyte transferred when
	// placing or checkpointing a job.
	PlacePerMB time.Duration
	// RemoteSyscall is local CPU per system call executed on behalf of a
	// remote job.
	RemoteSyscall time.Duration
}

// Paper returns the cost model with the paper's measured constants.
func Paper() Model {
	return Model{
		PlacePerMB:    5 * time.Second,
		RemoteSyscall: 10 * time.Millisecond,
	}
}

// TransferCost returns the local capacity consumed to place or checkpoint
// a file of the given size.
func (m Model) TransferCost(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	mb := float64(bytes) / (1 << 20)
	return time.Duration(mb * float64(m.PlacePerMB))
}

// SyscallCost returns the local capacity consumed supporting n remote
// system calls.
func (m Model) SyscallCost(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(n) * m.RemoteSyscall
}

// Leverage computes the paper's §3.1 metric: remote capacity obtained per
// unit of local capacity spent. A leverage below 1 means the job should
// have run locally. Returns 0 when nothing ran remotely; when local
// support is zero, the remote capacity was free and leverage is +Inf —
// callers render that case as the configured cap.
func Leverage(remote, localSupport time.Duration) float64 {
	if remote <= 0 {
		return 0
	}
	if localSupport <= 0 {
		return inf
	}
	return float64(remote) / float64(localSupport)
}

const inf = 1e18
