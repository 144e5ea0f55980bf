// Command condor-stationd runs one workstation's Condor daemon: the
// local scheduler with its background queue, the starter that hosts
// foreign jobs while the owner is away, and the shadows serving this
// station's own remote jobs.
//
// Owner activity is signalled by the existence of a marker file
// (-owner-file): touch it to "sit down" at the workstation, remove it to
// leave. Real deployments would plug a keyboard/load monitor in instead;
// the marker keeps the daemon scriptable.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/machine"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/telemetry"
)

// fileMonitor reports the owner active while the marker file exists.
type fileMonitor struct{ path string }

// OwnerActive implements machine.Monitor.
func (m fileMonitor) OwnerActive() bool {
	if m.path == "" {
		return false
	}
	_, err := os.Stat(m.path)
	return err == nil
}

var _ machine.Monitor = fileMonitor{}

func main() {
	var (
		name      = flag.String("name", hostnameDefault(), "station name")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		coordAddr = flag.String("coordinator", "", "coordinator address to register with")
		ownerFile = flag.String("owner-file", "", "marker file signalling owner presence")
		monitor   = flag.String("monitor", "file", "owner monitor: file (marker file), load (/proc/loadavg), never (always idle)")
		maxBusy   = flag.Float64("max-cpu-busy", 0.25, "load monitor: normalized CPU above this means owner active")
		scan      = flag.Duration("scan", 30*time.Second, "owner-activity scan interval")
		grace     = flag.Duration("grace", 5*time.Minute, "suspend grace before vacate (§4)")
		pacing    = flag.Duration("pacing", 2*time.Minute, "min gap between placements (§4)")
		spoolDir  = flag.String("spool", "", "directory for durable checkpoints (default: in-memory)")
		diskCap   = flag.Int64("disk", 0, "checkpoint store capacity in bytes (0 = unlimited): each checkpoint costs its decoded image, its program text once per distinct program; the same with or without -spool")
		kill      = flag.Bool("kill-immediately", false, "kill on owner return instead of suspending")
		periodic  = flag.Duration("periodic-checkpoint", 0, "periodic checkpoint interval (0 = off)")
		jobDir    = flag.String("jobdir", "", "directory for jobs' real file I/O (default: per-job in-memory)")
		httpAddr  = flag.String("http", "", "serve /metrics, /healthz, /events and /debug/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	if err := run(stationOpts{
		name: *name, listen: *listen, coord: *coordAddr, ownerFile: *ownerFile,
		scan: *scan, grace: *grace, pacing: *pacing, spool: *spoolDir,
		disk: *diskCap, kill: *kill, periodic: *periodic, jobDir: *jobDir,
		monitor: *monitor, maxBusy: *maxBusy, httpAddr: *httpAddr,
	}); err != nil {
		log.Fatal(err)
	}
}

type stationOpts struct {
	name, listen, coord, ownerFile, spool string
	jobDir, monitor, httpAddr             string
	maxBusy                               float64
	scan, grace, pacing, periodic         time.Duration
	disk                                  int64
	kill                                  bool
}

// buildMonitor selects the owner-activity source.
func buildMonitor(o stationOpts) (machine.Monitor, error) {
	switch o.monitor {
	case "", "file":
		return fileMonitor{path: o.ownerFile}, nil
	case "load":
		return machine.NewLoadMonitor(o.maxBusy), nil
	case "never":
		return machine.NewScriptedMonitor(false), nil
	default:
		return nil, fmt.Errorf("unknown monitor %q (want file, load, never)", o.monitor)
	}
}

func hostnameDefault() string {
	if h, err := os.Hostname(); err == nil {
		return h
	}
	return "station"
}

func run(o stationOpts) error {
	var store ckpt.Store
	if o.spool != "" {
		var err error
		if store, err = ckpt.NewDirStore(o.spool, o.disk); err != nil {
			return err
		}
	} else if o.disk > 0 {
		store = ckpt.NewMemStore(o.disk, true)
	}
	policy := ru.VacateSuspendFirst
	if o.kill {
		policy = ru.VacateKillImmediately
	}
	var hosts schedd.HostFactory
	if o.jobDir != "" {
		// Jobs share one sandbox rooted at jobDir: their reads and
		// writes hit the submitting machine's real files via the shadow.
		// Creating the root here fails startup rather than a job.
		if _, err := cvm.NewOSHost(o.jobDir); err != nil {
			return err
		}
		hosts = func(jobID, owner string) cvm.SyscallHandler {
			h, err := cvm.NewOSHost(o.jobDir)
			if err != nil {
				// The root went away after startup: fail the job's calls
				// as a host error instead of dropping its writes.
				return cvm.SyscallHandlerFunc(func(cvm.SyscallRequest) (cvm.SyscallReply, error) {
					return cvm.SyscallReply{}, err
				})
			}
			return h
		}
	}
	mon, err := buildMonitor(o)
	if err != nil {
		return err
	}
	st, err := schedd.New(schedd.Config{
		Name:       o.name,
		ListenAddr: o.listen,
		Monitor:    mon,
		Store:      store,
		Hosts:      hosts,
		Starter: ru.StarterConfig{
			ScanInterval:       o.scan,
			SuspendGrace:       o.grace,
			Policy:             policy,
			PeriodicCheckpoint: o.periodic,
		},
		PlacementPacing: o.pacing,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("condor-stationd %q listening on %s\n", st.Name(), st.Addr())
	if o.httpAddr != "" {
		srv, err := telemetry.Serve(o.httpAddr, telemetry.Default, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	if o.coord != "" {
		// The registrar re-registers whenever polls stop, so a restarted
		// coordinator finds this station again.
		stop, err := st.StartRegistrar(o.coord)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Println("registered with coordinator at", o.coord)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}
