// Command condor-coordinator runs the central coordinator daemon: it
// polls registered stations every poll interval, maintains Up-Down
// schedule indexes, and hands out capacity grants. Stations register
// themselves via condor-stationd -coordinator.
//
// With -state-dir the coordinator journals its up-down indexes,
// reservations, and station table to disk and replays them on startup,
// so a crash or restart loses neither the pool's fairness memory nor
// its reservation promises. Without it the coordinator is pure
// in-memory, as in the original paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"condor/internal/coordinator"
	"condor/internal/policy"
	"condor/internal/telemetry"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9618", "listen address")
		poll    = flag.Duration("poll", 2*time.Minute, "station poll interval")
		grants  = flag.Int("grants-per-cycle", 1, "max placements per cycle (§4 pacing)")
		history = flag.Bool("history-placement", false,
			"prefer machines with long availability history (§5.1)")
		policyName = flag.String("policy", "",
			"scheduling policy ("+strings.Join(policy.Names(), ", ")+"; empty = journaled policy or updown)")
		rpcTimeout = flag.Duration("rpc-timeout", 0,
			"end-to-end bound on one station RPC (0 = dial timeout + 10s)")
		stateDir = flag.String("state-dir", "",
			"journal up-down and reservation state here and replay it on restart (empty = in-memory)")
		snapshotEvery = flag.Int("snapshot-every", 0,
			"cycles between journal snapshots (0 = default 16; only with -state-dir)")
		httpAddr = flag.String("http", "",
			"serve /metrics, /healthz, /events and /debug/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	if err := run(*listen, *poll, *grants, *history, *policyName, *rpcTimeout, *stateDir, *snapshotEvery, *httpAddr); err != nil {
		log.Fatal(err)
	}
}

func run(listen string, poll time.Duration, grants int, history bool, policyName string,
	rpcTimeout time.Duration, stateDir string, snapshotEvery int, httpAddr string) error {
	cfg := coordinator.Config{
		ListenAddr:    listen,
		PollInterval:  poll,
		RPCTimeout:    rpcTimeout,
		StateDir:      stateDir,
		SnapshotEvery: snapshotEvery,
	}
	cfg.Policy = policy.DefaultConfig()
	cfg.Policy.MaxGrantsPerCycle = grants
	if history {
		cfg.Policy.Placement = policy.PlaceHistory
	}
	cfg.Policy.Name = policyName
	coord, err := coordinator.New(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	if httpAddr != "" {
		srv, err := telemetry.Serve(httpAddr, telemetry.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	if stateDir != "" {
		s := coord.Stats()
		fmt.Printf("condor-coordinator listening on %s (poll every %v, policy %s, state in %s, incarnation %d",
			coord.Addr(), poll, coord.PolicyName(), stateDir, s.Incarnation)
		if s.JournalReplayed > 0 || s.JournalTruncated > 0 {
			fmt.Printf(", replayed %d records, truncated %d torn bytes", s.JournalReplayed, s.JournalTruncated)
		}
		fmt.Println(")")
	} else {
		fmt.Printf("condor-coordinator listening on %s (poll every %v, policy %s, in-memory)\n",
			coord.Addr(), poll, coord.PolicyName())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down; running jobs are unaffected (§2.1)")
	return nil
}
