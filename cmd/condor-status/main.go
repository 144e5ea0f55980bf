// Command condor-status prints the coordinator's pool table: every
// registered workstation with its state, queue depth, Up-Down schedule
// index, reservation, and how long ago the coordinator last heard from
// it — plus the coordinator's own incarnation, uptime, and journal
// health, so a recovery is visible at a glance.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"condor/internal/figures"
	"condor/internal/proto"
	"condor/internal/web"
)

func main() {
	coordAddr := flag.String("coordinator", "127.0.0.1:9618", "coordinator address")
	metricsAddr := flag.String("metrics", "",
		"scrape this daemon's /metrics endpoint (host:port or URL of a -http listener) instead of querying the coordinator")
	watch := flag.Duration("watch", 0,
		"re-render every interval (e.g. -watch 2s) over one pooled connection; ctrl-c to stop")
	flag.Parse()
	if *metricsAddr != "" {
		if err := runMetrics(*metricsAddr); err != nil {
			log.Fatal(err)
		}
		return
	}
	client := web.NewClient(*coordAddr)
	defer client.Close()
	if *watch > 0 {
		// Watch mode: clear and re-render; a transient RPC failure is a
		// frame, not a fatal error.
		for {
			fmt.Print("\033[H\033[2J")
			if err := run(client); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			fmt.Printf("\nevery %s — ctrl-c to stop\n", *watch)
			time.Sleep(*watch)
		}
	}
	if err := run(client); err != nil {
		log.Fatal(err)
	}
}

func run(client *web.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sr, err := client.PoolStatus(ctx)
	if err != nil {
		return err
	}
	printCoordinator(sr.Coordinator)
	rows := make([][]string, 0, len(sr.Stations))
	now := time.Now()
	for _, s := range sr.Stations {
		lastSeen := "never"
		if !s.LastPoll.IsZero() {
			lastSeen = now.Sub(s.LastPoll).Round(time.Second).String() + " ago"
		}
		reserved := "-"
		if s.ReservedFor != "" {
			reserved = fmt.Sprintf("%s (%s left)",
				s.ReservedFor, time.Until(s.ReservedUntil).Round(time.Second))
		}
		rows = append(rows, []string{
			s.Name, s.State.String(),
			healthCell(s, now),
			fmt.Sprintf("%d", s.WaitingJobs),
			fmt.Sprintf("%d", s.RunningJobs),
			s.ForeignJob,
			fmt.Sprintf("%.1f", s.ScheduleIndex),
			figures.Sparkline(s.IndexHistory, 16),
			reserved,
			lastSeen,
		})
	}
	fmt.Print(figures.Table(
		[]string{"Station", "State", "Health", "Waiting", "Running", "ForeignJob", "Index", "Trend", "Reserved", "LastSeen"},
		rows))
	w := sr.Wire
	fmt.Printf("\nwire: %d dials, %d reuses, %d reconnects, %d evictions, %d retries\n",
		w.Dials, w.Reuses, w.Reconnects, w.Evictions, w.Retries)
	return nil
}

// healthCell renders a station's graded health as e.g.
// "suspect 12s (slow)" — state, time-in-state, and the coarse reason
// behind a non-healthy grade. Healthy stations render as a bare "ok"
// so trouble stands out in the column.
func healthCell(s proto.StationInfo, now time.Time) string {
	switch s.Health {
	case 0:
		return "-" // pre-health coordinator
	case proto.HealthHealthy:
		return "ok"
	}
	cell := fmt.Sprintf("%s %s", s.Health, now.Sub(s.HealthSince).Round(time.Second))
	if s.HealthReason != "" {
		reason := s.HealthReason
		if i := strings.IndexByte(reason, ':'); i > 0 {
			reason = reason[:i]
		}
		cell += " (" + reason + ")"
	}
	return cell
}

// printReady surfaces the coordinator's failing readiness checks — the
// same "name: reason" lines its /healthz serves in a 503 body — so an
// unready daemon explains itself without a second scrape.
func printReady(ci proto.CoordinatorInfo) {
	if len(ci.ReadyFailures) == 0 {
		return
	}
	fmt.Println("NOT READY:")
	for _, f := range ci.ReadyFailures {
		fmt.Printf("  %s\n", f)
	}
}

// printCoordinator summarizes the daemon itself: restart lineage,
// uptime, and journal/recovery health.
func printCoordinator(ci proto.CoordinatorInfo) {
	uptime := "?"
	if ci.StartedUnixMillis != 0 {
		uptime = time.Since(time.UnixMilli(ci.StartedUnixMillis)).Round(time.Second).String()
	}
	if !ci.Persistent {
		fmt.Printf("coordinator: in-memory, up %s, %d cycles, policy %s\n", uptime, ci.Cycles, ci.PolicyName)
		printReady(ci)
		printAllocation(ci)
		printHealth(ci)
		fmt.Println()
		return
	}
	j := ci.Journal
	fmt.Printf("coordinator: incarnation %d, up %s, %d cycles, policy %s\n",
		ci.Incarnation, uptime, ci.Cycles, ci.PolicyName)
	printReady(ci)
	printAllocation(ci)
	printHealth(ci)
	fmt.Printf("journal: %d appends, %d snapshots, %d B log", j.Appends, j.Snapshots, j.LogBytes)
	if j.Replayed > 0 || j.TruncatedBytes > 0 {
		fmt.Printf("; recovered %d records (%d torn bytes truncated)", j.Replayed, j.TruncatedBytes)
	}
	if j.Errors > 0 {
		fmt.Printf("; %d ERRORS", j.Errors)
	}
	fmt.Println()
	fmt.Println()
}

// printHealth summarizes the pool's graded-health activity and flags
// degraded mode (Up-Down penalties frozen) loudly.
func printHealth(ci proto.CoordinatorInfo) {
	if ci.Degraded {
		fmt.Println("health: DEGRADED — too much of the pool is non-healthy; Up-Down index penalties frozen")
	}
	if ci.Suspects == 0 && ci.Quarantines == 0 && ci.ByzantineReplies == 0 {
		return
	}
	fmt.Printf("health: %d suspects, %d quarantines, %d readmissions, %d byzantine replies\n",
		ci.Suspects, ci.Quarantines, ci.Readmissions, ci.ByzantineReplies)
}

// printAllocation summarizes grant and preemption activity.
func printAllocation(ci proto.CoordinatorInfo) {
	if ci.Grants == 0 && ci.Preempts == 0 {
		return
	}
	fmt.Printf("allocation: %d grants (%d used, %d denied), %d preempts\n",
		ci.Grants, ci.GrantsUsed, ci.GrantsDenied, ci.Preempts)
}
