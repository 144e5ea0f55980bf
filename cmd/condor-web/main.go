// Command condor-web serves the pool's live dashboard: one embedded
// HTML page backed by a JSON API, an SSE event stream, and a
// server-side alert-rules engine, all aggregated from the coordinator
// and its stations on a short refresh interval. It is an observer —
// it holds no scheduling state and can be restarted freely.
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

	"condor/internal/telemetry"
	"condor/internal/web"
)

// repeatable collects a repeatable string flag.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	listen := flag.String("listen", "127.0.0.1:9620", "dashboard listen address")
	coordAddr := flag.String("coordinator", "127.0.0.1:9618", "coordinator wire address")
	refresh := flag.Duration("refresh", 2*time.Second, "aggregation interval")
	var relays, rules repeatable
	flag.Var(&relays, "relay",
		"operational listener whose /events stream is relayed onto this dashboard; repeatable (for multi-process pools)")
	flag.Var(&rules, "rule",
		`alert rule "name: field op value [for dur]"; repeatable (default: the built-in rule set)`)
	flag.Parse()

	var parsed []web.Rule
	if len(rules) > 0 {
		var err error
		parsed, err = web.ParseRules(rules)
		if err != nil {
			log.Fatal(err)
		}
	}
	srv, err := web.NewServer(web.Config{
		CoordinatorAddr: *coordAddr,
		Refresh:         *refresh,
		Rules:           parsed,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, base := range relays {
		r := web.NewRelay(base, telemetry.Events)
		r.Start()
		defer r.Close()
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	fmt.Printf("condor-web: dashboard on http://%s (coordinator %s, refresh %s)\n",
		addr, *coordAddr, *refresh)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
}
