// Command condor-q lists a station's background job queue, and can
// remove jobs from it (a running job is vacated from its execution
// machine when removed). Why a waiting job is not running is
// condor-explain -job's question.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"condor/internal/figures"
	"condor/internal/proto"
	"condor/internal/wire"
)

func main() {
	var (
		station = flag.String("station", "127.0.0.1:9620", "station (schedd) address")
		remove  = flag.String("rm", "", "remove the given job id instead of listing")
	)
	flag.Parse()
	if err := run(*station, *remove); err != nil {
		log.Fatal(err)
	}
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
