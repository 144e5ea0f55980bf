package coordinator

import (
	"strings"
	"testing"
	"time"
)

// TestPolicyNameJournaled: the active scheduling policy is part of the
// coordinator's durable identity — a restart without an explicit policy
// keeps scheduling the way the previous incarnation did, an explicit
// policy wins and becomes the new journaled choice, and an operator
// typo fails startup instead of silently scheduling differently.
func TestPolicyNameJournaled(t *testing.T) {
	dir := t.TempDir()
	base := Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second}

	cfg := base
	cfg.Policy.Name = "busiest-first"
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.PolicyName(); got != "busiest-first" {
		t.Fatalf("explicit policy = %q, want busiest-first", got)
	}
	c1.Close() // crash: no farewell state write beyond the journal

	// Restart with no policy configured: the journaled name rules.
	c2, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.PolicyName(); got != "busiest-first" {
		t.Fatalf("policy after restart = %q, want the journaled busiest-first", got)
	}
	c2.Close()

	// An explicit policy overrides the journaled one and is journaled
	// in turn.
	cfg = base
	cfg.Policy.Name = "fifo"
	c3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c3.PolicyName(); got != "fifo" {
		t.Fatalf("explicit override = %q, want fifo", got)
	}
	c3.Close()
	c4, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := c4.PolicyName(); got != "fifo" {
		t.Fatalf("policy after second restart = %q, want fifo", got)
	}
	c4.Close()
}

// TestPolicyNameUnknownFailsStartup: a typo in the configured policy
// must fail fast with the registered alternatives in the error.
func TestPolicyNameUnknownFailsStartup(t *testing.T) {
	cfg := Config{PollInterval: time.Hour, DialTimeout: time.Second}
	cfg.Policy.Name = "no-such-policy"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("unknown policy: got err %v, want a naming error", err)
	}
	cfg.StateDir = t.TempDir()
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("unknown policy with state dir: got err %v, want a naming error", err)
	}
}

// TestSimulatedOnlyPolicyRefused: backfill ranks by
// StationView.ShortestJob, which no poll reply carries, so a live
// coordinator asked for it must say so at startup instead of quietly
// scheduling as Up-Down. A state directory that names it (written by a
// binary that still accepted it) degrades to the default like any other
// journaled name this binary cannot run.
func TestSimulatedOnlyPolicyRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second}
	cfg.Policy.Name = "backfill"
	_, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "backfill") || !strings.Contains(err.Error(), "ShortestJob") {
		t.Fatalf("backfill on a live coordinator: err = %v, want a refusal naming the policy and the field", err)
	}

	cfg.Policy.Name = ""
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1.mu.Lock()
	c1.appendJournalLocked(persistRecord{Kind: recPolicy, Name: "backfill"})
	c1.mu.Unlock()
	c1.Close()
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("journaled backfill must degrade, not fail startup: %v", err)
	}
	defer c2.Close()
	if got := c2.PolicyName(); got != "updown" {
		t.Fatalf("policy after journaled backfill = %q, want updown", got)
	}
	if c2.Stats().JournalErrors == 0 {
		t.Fatal("degrading a journaled policy must count as a journal error")
	}
}

// TestPolicyNameDefault: with nothing configured and nothing journaled,
// the coordinator schedules with the paper's Up-Down policy and says so
// over the status RPC.
func TestPolicyNameDefault(t *testing.T) {
	c, err := New(Config{PollInterval: time.Hour, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.PolicyName(); got != "updown" {
		t.Fatalf("default policy = %q, want updown", got)
	}
}
