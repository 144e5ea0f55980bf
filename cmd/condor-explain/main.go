// Command condor-explain answers "why did the scheduler do that" from
// the coordinator's decision-audit ring (internal/decision). Three
// views over the same audits:
//
//	condor-explain -job pulsar/3      why isn't my job running — the
//	                                  home station's rank, score, and
//	                                  every predicate that stood
//	                                  between it and a machine
//	condor-explain -station pulsar    the inverse: how one machine was
//	                                  filtered, granted, or weighed as
//	                                  a preemption victim
//	condor-explain -cycle -1          the full audit of the most recent
//	                                  cycle (negative counts from the
//	                                  newest; positive is an absolute
//	                                  cycle number)
//
// The coordinator keeps the last few hundred audited cycles in memory;
// this tool reads them over the wire protocol (a DecisionsRequest), so
// it works wherever condor-status does.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"condor/internal/decision"
	"condor/internal/proto"
	"condor/internal/wire"
)

func main() {
	var (
		coord   = flag.String("coordinator", "127.0.0.1:9618", "coordinator wire address")
		jobID   = flag.String("job", "", "explain this job's treatment (ID form station/N)")
		station = flag.String("station", "", "explain this station's treatment")
		cycle   = flag.Int64("cycle", 0, "one cycle: >0 absolute, <0 from the newest (-1 = last)")
		last    = flag.Int("last", 0, "only the most recent N audited cycles (0 = all retained)")
	)
	flag.Parse()
	if err := run(*coord, *jobID, *station, *cycle, *last); err != nil {
		log.Fatal(err)
	}
}

func run(coord, jobID, station string, cycle int64, last int) error {
	// A waiting job never appears in grants, so "why isn't my job
	// running" means "how was its home station treated as a requester".
	// Job IDs encode the home station as the prefix before the last "/".
	requester := ""
	if jobID != "" {
		requester = homeStation(jobID)
		if station == "" {
			station = requester
		}
	}

	peer, err := wire.Dial(coord, 5*time.Second, nil)
	if err != nil {
		return err
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.DecisionsRequest{
		Station: station, Cycle: cycle, Last: last,
	})
	if err != nil {
		return err
	}
	dr, ok := reply.(proto.DecisionsReply)
	if !ok {
		return fmt.Errorf("unexpected reply %T", reply)
	}
	if len(dr.Cycles) == 0 {
		fmt.Println("(no matching decision audits — has the coordinator completed a cycle?)")
		return nil
	}

	switch {
	case jobID != "":
		// Summary line first, then the newest cycle's detailed treatment.
		if pred, n, ok := decision.TopRejection(dr.Cycles, requester); ok {
			fmt.Printf("job %s (home station %s): blocked by %q in %d rejection(s) across %d audited cycle(s)\n\n",
				jobID, requester, pred, n, len(dr.Cycles))
		} else {
			fmt.Printf("job %s (home station %s): no rejections recorded across %d audited cycle(s)\n\n",
				jobID, requester, len(dr.Cycles))
		}
		latest := &dr.Cycles[len(dr.Cycles)-1]
		os.Stdout.WriteString(decision.RenderRequester(latest, requester))
	case station != "":
		for i := range dr.Cycles {
			os.Stdout.WriteString(decision.RenderStation(&dr.Cycles[i], station))
			fmt.Println()
		}
	default:
		for i := range dr.Cycles {
			os.Stdout.WriteString(decision.RenderCycle(&dr.Cycles[i]))
			fmt.Println()
		}
	}
	if dr.Dropped > 0 {
		fmt.Printf("(%d older audits evicted from the coordinator's ring)\n", dr.Dropped)
	}
	return nil
}

// homeStation extracts the station prefix from a "station/N" job ID;
// IDs without a slash are returned whole.
func homeStation(jobID string) string {
	if i := strings.LastIndex(jobID, "/"); i > 0 {
		return jobID[:i]
	}
	return jobID
}
