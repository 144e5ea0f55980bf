// Command condor-q lists a station's background job queue, and can
// remove jobs from it (a running job is vacated from its execution
// machine when removed). With -why it answers the first question a
// waiting job's owner asks — which predicate is keeping it off every
// machine — in one line, from the coordinator's /decisions audit ring.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"condor/internal/decision"
	"condor/internal/figures"
	"condor/internal/proto"
	"condor/internal/wire"
)

func main() {
	var (
		station   = flag.String("station", "127.0.0.1:9620", "station (schedd) address")
		remove    = flag.String("rm", "", "remove the given job id instead of listing")
		why       = flag.String("why", "", "one-line denial summary for the given job id")
		decisions = flag.String("decisions", "http://127.0.0.1:9100",
			"the coordinator's -http base, whose /decisions page -why reads")
	)
	flag.Parse()
	if *why != "" {
		if err := runWhy(*decisions, *why); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*station, *remove); err != nil {
		log.Fatal(err)
	}
}

// runWhy prints the top rejecting predicate for the job's home station
// (job IDs are "station/N") across the coordinator's retained audits.
func runWhy(base, jobID string) error {
	home := jobID
	if i := strings.LastIndex(jobID, "/"); i > 0 {
		home = jobID[:i]
	}
	u, err := url.Parse(strings.TrimSuffix(base, "/") + "/decisions")
	if err != nil {
		return fmt.Errorf("bad -decisions base: %w", err)
	}
	q := u.Query()
	q.Set("station", home)
	u.RawQuery = q.Encode()
	resp, err := http.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", u, resp.Status)
	}
	var page decision.Page
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&page); err != nil {
		return fmt.Errorf("decode %s: %w", u, err)
	}
	if len(page.Cycles) == 0 {
		fmt.Printf("%s: no decision audits mention station %s yet\n", jobID, home)
		return nil
	}
	if pred, n, ok := decision.TopRejection(page.Cycles, home); ok {
		fmt.Printf("%s: station %s rejected by %q %d time(s) over the last %d cycle(s) — condor-explain -job %s for detail\n",
			jobID, home, pred, n, len(page.Cycles), jobID)
	} else {
		fmt.Printf("%s: no rejections recorded for station %s over the last %d cycle(s) — it is waiting on capacity, not predicates\n",
			jobID, home, len(page.Cycles))
	}
	return nil
}

func run(station, remove string) error {
	peer, err := wire.Dial(station, 5*time.Second, nil)
	if err != nil {
		return err
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if remove != "" {
		reply, err := peer.Call(ctx, proto.RemoveRequest{JobID: remove})
		if err != nil {
			return err
		}
		rr, ok := reply.(proto.RemoveReply)
		if !ok {
			return fmt.Errorf("unexpected reply %T", reply)
		}
		if !rr.Removed {
			return fmt.Errorf("no such job %q", remove)
		}
		fmt.Println("removed", remove)
		return nil
	}

	reply, err := peer.Call(ctx, proto.QueueRequest{})
	if err != nil {
		return err
	}
	qr, ok := reply.(proto.QueueReply)
	if !ok {
		return fmt.Errorf("unexpected reply %T", reply)
	}
	fmt.Printf("queue of %s (%d jobs)\n", qr.Station, len(qr.Jobs))
	now := time.Now()
	rows := make([][]string, 0, len(qr.Jobs))
	states := make(map[string]int)
	for _, j := range qr.Jobs {
		states[j.State.String()]++
		wait := "-"
		if !j.WaitingSince.IsZero() {
			// How long the job has been waiting for capacity in its
			// current idle episode.
			wait = now.Sub(j.WaitingSince).Round(time.Second).String()
		}
		rows = append(rows, []string{
			j.ID, j.Owner, j.Program, j.State.String(),
			fmt.Sprintf("%d", j.Priority),
			j.ExecHost,
			wait,
			fmt.Sprintf("%d", j.CPUSteps),
			fmt.Sprintf("%d", j.Checkpoints),
		})
	}
	fmt.Print(figures.Table(
		[]string{"Job", "Owner", "Program", "State", "Pri", "Exec", "Wait", "CPU", "Ckpts"},
		rows))
	if len(qr.Jobs) > 0 {
		names := make([]string, 0, len(states))
		for name := range states {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%d %s", states[name], name))
		}
		fmt.Println(strings.Join(parts, ", "))
	}
	return nil
}
