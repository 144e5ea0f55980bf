package web

import (
	"testing"
	"time"

	"condor/internal/telemetry"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("stale-cycle: cycle_lag > 3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "stale-cycle" || r.Field != "cycle_lag" || r.Op != ">" || r.Value != 3 || r.For != 0 {
		t.Fatalf("parsed %+v", r)
	}
	r, err = ParseRule("flaky: journal_errors >= 1 for 10s")
	if err != nil {
		t.Fatal(err)
	}
	if r.For != 10*time.Second {
		t.Fatalf("for = %v, want 10s", r.For)
	}
	if got := r.Expr(); got != "journal_errors >= 1 for 10s" {
		t.Fatalf("Expr = %q", got)
	}

	for _, bad := range []string{
		"",                      // empty
		"no colon here",         // no name separator
		": degraded > 0",        // empty name
		"x: degraded >> 0",      // unknown op
		"x: degraded > banana",  // non-numeric value
		"x: degraded > 0 for",   // truncated for clause
		"x: degraded > 0 in 5s", // wrong keyword
		"x: degraded > 0 for x", // bad duration
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted, want error", bad)
		}
	}

	if _, err := ParseRules([]string{"a: x > 1", "a: y > 2"}); err == nil {
		t.Error("duplicate rule names accepted")
	}
	if rules, err := ParseRules(DefaultRules); err != nil || len(rules) != len(DefaultRules) {
		t.Errorf("DefaultRules must parse: %v", err)
	}
}

func TestAlertsFiringAndResolved(t *testing.T) {
	bus := telemetry.NewBus()
	sub := bus.Subscribe(16)
	defer sub.Close()

	rules, err := ParseRules([]string{"degraded-mode: degraded > 0"})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAlerts(rules, bus)
	now := time.Now()

	st := a.Eval(now, map[string]float64{"degraded": 0})
	if st[0].Firing {
		t.Fatal("rule firing on a healthy snapshot")
	}
	st = a.Eval(now.Add(time.Second), map[string]float64{"degraded": 1})
	if !st[0].Firing {
		t.Fatal("rule not firing on degraded=1")
	}
	ev, ok := sub.TryNext()
	if !ok || ev.Kind != "alert-firing" {
		t.Fatalf("bus event = %+v, want alert-firing", ev)
	}
	// Still firing: no duplicate transition event.
	a.Eval(now.Add(2*time.Second), map[string]float64{"degraded": 1})
	if ev, ok := sub.TryNext(); ok {
		t.Fatalf("unexpected event while steadily firing: %+v", ev)
	}
	st = a.Eval(now.Add(3*time.Second), map[string]float64{"degraded": 0})
	if st[0].Firing {
		t.Fatal("rule still firing after recovery")
	}
	ev, ok = sub.TryNext()
	if !ok || ev.Kind != "alert-resolved" {
		t.Fatalf("bus event = %+v, want alert-resolved", ev)
	}
}

func TestAlertsForDebounce(t *testing.T) {
	rules, err := ParseRules([]string{"slow: waiting > 5 for 10s"})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAlerts(rules, telemetry.NewBus())
	t0 := time.Now()

	if st := a.Eval(t0, map[string]float64{"waiting": 9}); st[0].Firing {
		t.Fatal("fired immediately despite for-clause")
	}
	if st := a.Eval(t0.Add(5*time.Second), map[string]float64{"waiting": 9}); st[0].Firing {
		t.Fatal("fired at 5s, for-clause is 10s")
	}
	// A dip resets the debounce clock.
	a.Eval(t0.Add(7*time.Second), map[string]float64{"waiting": 0})
	if st := a.Eval(t0.Add(16*time.Second), map[string]float64{"waiting": 9}); st[0].Firing {
		t.Fatal("fired 9s after the dip; clock should have reset")
	}
	if st := a.Eval(t0.Add(27*time.Second), map[string]float64{"waiting": 9}); !st[0].Firing {
		t.Fatal("not firing after holding past the for-clause")
	}
}

func TestAlertsMissingFieldIsZero(t *testing.T) {
	rules, err := ParseRules([]string{"unseen: no_such_field == 0"})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAlerts(rules, telemetry.NewBus())
	if st := a.Eval(time.Now(), map[string]float64{}); !st[0].Firing {
		t.Fatal("absent fields must evaluate as 0")
	}
}

func TestHTTPURL(t *testing.T) {
	for _, tc := range []struct{ base, path, want string }{
		{"127.0.0.1:9100", "/metrics", "http://127.0.0.1:9100/metrics"},
		{"http://host:1/", "/healthz", "http://host:1/healthz"},
		{"https://host", "/events", "https://host/events"},
	} {
		if got := httpURL(tc.base, tc.path); got != tc.want {
			t.Errorf("httpURL(%q, %q) = %q, want %q", tc.base, tc.path, got, tc.want)
		}
	}
}
