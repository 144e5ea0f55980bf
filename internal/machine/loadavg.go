package machine

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// NewLoadMonitor returns a Monitor that reports the owner active while
// the host's 1-minute load average per CPU (Linux /proc/loadavg) exceeds
// maxBusy — the closest stdlib-only analogue to the paper's "CPU
// consumption by other users" signal. Keyboard and mouse idle time is not
// portably observable, so activity rests on the load alone.
//
// Where the file is missing or unreadable the load counts as zero
// (always idle); deployments there should use the marker-file monitor
// instead.
func NewLoadMonitor(maxBusy float64) Monitor {
	return loadMonitor{path: "/proc/loadavg", maxBusy: maxBusy}
}

type loadMonitor struct {
	path    string
	maxBusy float64
}

// OwnerActive implements Monitor.
func (m loadMonitor) OwnerActive() bool {
	data, err := os.ReadFile(m.path)
	if err != nil {
		return false
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return false
	}
	load, err := strconv.ParseFloat(fields[0], 64)
	return err == nil && load/float64(runtime.NumCPU()) > m.maxBusy
}
