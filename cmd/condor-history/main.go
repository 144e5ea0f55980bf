// Command condor-history prints a daemon's recent event log: the
// submit/place/suspend/vacate/complete trail of jobs from a station, or
// the grant/preempt/reservation decisions from the coordinator. With
// -job it shows one job's full lifecycle; with -trace it shows every
// event stitched to one distributed trace. With -waterfall it switches
// from events to spans: it asks the daemon for the spans its process
// recorded and renders the ConGUSTo-style "where did the time go"
// timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"condor/internal/proto"
	"condor/internal/trace"
	"condor/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9620", "station or coordinator address")
		jobID     = flag.String("job", "", "show only this job's trail")
		traceID   = flag.String("trace", "", "show only events of this trace (32 hex chars)")
		limit     = flag.Int("limit", 50, "max events (0 = all retained)")
		waterfall = flag.Bool("waterfall", false, "render the daemon's span waterfalls instead of events")
	)
	flag.Parse()
	var err error
	if *waterfall {
		err = runWaterfall(*addr, *traceID, *jobID)
	} else {
		err = runEvents(*addr, *jobID, *traceID, *limit)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func runEvents(addr, jobID, traceID string, limit int) error {
	reply, err := call(addr, proto.HistoryRequest{JobID: jobID, Limit: limit, TraceID: traceID})
	if err != nil {
		return err
	}
	hr, ok := reply.(proto.HistoryReply)
	if !ok {
		return fmt.Errorf("unexpected reply %T", reply)
	}
	if len(hr.Events) == 0 {
		fmt.Println("(no events)")
		return nil
	}
	for _, e := range hr.Events {
		fmt.Println(e.String())
	}
	return nil
}

// runWaterfall asks the daemon at addr for the spans its process
// recorded (optionally filtered) and prints each trace as an indented
// timeline.
func runWaterfall(addr, traceID, jobID string) error {
	reply, err := call(addr, proto.TracesRequest{TraceID: traceID, JobID: jobID})
	if err != nil {
		return err
	}
	tr, ok := reply.(proto.TracesReply)
	if !ok {
		return fmt.Errorf("unexpected reply %T", reply)
	}
	fmt.Print(trace.RenderWaterfall(tr.Page))
	return nil
}

// call sends one request to addr and returns its reply.
func call(addr string, msg any) (any, error) {
	peer, err := wire.Dial(addr, 5*time.Second, nil)
	if err != nil {
		return nil, err
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return peer.Call(ctx, msg)
}
