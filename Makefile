# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all verify build lint vet test bench-test race chaos conformance smoke bench bench-baseline bench-drift fuzz sim examples clean

# The benchmarks tracked in BENCH_baseline.json: telemetry and
# accounting hot paths (the per-syscall meter must stay 0 allocs/op,
# and so must an event-bus publish with no subscribers), wire round
# trips (a reflective codec on the frame path fails here as allocs
# growth), the forwarded-syscall round trip through the full RU path
# (root package), a placement's fixed cost (root package: sequential
# placements on one starter ride one link, so a dial per placement
# fails here as allocs growth), checkpoint encode+decode per MB, of one
# small compressed image (its fixed cost, 14 allocs/op with format
# Version 3: a per-call deflate writer, or a fallback to reflection,
# fails here as allocs growth) and of a compressed 1 MiB image of random
# words (the ckpt-migrate shape: a deflate that runs past its probe, or
# a buffer grown per chunk, fails here), and guest instruction
# throughput on a spin loop and on ckpt-migrate's memory fold (root
# package too), journal appends, coordinator cycles, tracing, and the
# decision audit ring (record is lock-free and the nil-builder path 0
# allocs/op).
BASELINE_BENCH = 'BenchmarkTelemetryObserve$$|BenchmarkTelemetryCounter$$|BenchmarkFrameRoundTrip$$|BenchmarkSyscallRoundTrip$$|BenchmarkPlaceSequential$$|BenchmarkCheckpointPerMB$$|BenchmarkCheckpointSmallCompressed$$|BenchmarkCheckpointIncompressible$$|BenchmarkVMExecution$$|BenchmarkVMFold$$|BenchmarkJournalAppend|BenchmarkCycle100$$|BenchmarkCycle1000$$|BenchmarkPipelineCycle100$$|BenchmarkPipelineCycle1000$$|BenchmarkPipelineCycleAudited1000$$|BenchmarkTraceSpan$$|BenchmarkTraceSampledOut$$|BenchmarkTraceparentParse$$|BenchmarkAccountingSyscall$$|BenchmarkAccountingSyscallParallel$$|BenchmarkLedgerSnapshot$$|BenchmarkHealthObserve$$|BenchmarkBusPublish$$|BenchmarkBusPublishSubscribed$$|BenchmarkDecisionRecord$$|BenchmarkBuilderNil$$'
BASELINE_PKGS = . ./internal/telemetry/ ./internal/wire/ ./internal/journal/ ./internal/coordinator/ ./internal/trace/ ./internal/accounting/ ./internal/decision/

all: verify

# Full pre-merge gate: compile, lint, plain tests, the race detector,
# the end-to-end benchmark's own tests, the crash-recovery chaos suite,
# the scheduling-policy conformance suite, and the headless dashboard
# smoke.
verify: build vet test bench-test race chaos conformance smoke

build:
	$(GO) build ./...

# Static gate: go vet, a gofmt diff check that fails on any unformatted
# file (gofmt -l lists but exits 0, so test the output), and a check that
# no package or test links encoding/gob: every byte the system writes
# goes through internal/codec.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if $(GO) list -deps -test ./... | grep -qx encoding/gob; then \
		echo "encoding/gob is linked; encode with internal/codec instead"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench/ is a module of its own, so `go test ./...` from the root does
# not reach it: every workload at ~1/50 scale, a few seconds.
bench-test:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# Crash-recovery and fault-injection suite: journal torn-tail fuzz,
# coordinator replay fuzz, crash/restart recovery, the graded-health
# state machine (quarantine, flap, byzantine), the cluster-level chaos
# harness (partitions, slow links, scenario runner), the RU failure
# paths (executor or shadow dying mid-job, on fresh and reused links),
# the schedd job-state table (stale events, removal races), the wire's
# frame deadlines (a Call's deadline bounds its write; a stalled peer
# fails a frame within the frame timeout), and the codec round trips
# (every message through a connection, journal records and snapshots,
# gob-era journals refused). Set CONDOR_CHAOS_LONG=1 for the nightly
# multi-seed soak.
chaos:
	$(GO) test -race -count=2 -run 'Crash|Chaos|Replay|Torn|Truncat|Recovery|Scenario|Partition|Quarantine|Flap|Byzantine|Failure|Lost|Hangup|Wedging|Stale|Remove|Transition|Stall|Deadline|Codec|RoundTrip|Rebuild|PreChange' \
		./internal/journal/... ./internal/coordinator/... ./internal/schedd/... ./internal/chaos/... ./internal/ru/... ./internal/wire/... ./internal/proto/...

# Scheduling-policy gate: every registered policy must satisfy the
# shared invariant harness, and the pipelined Up-Down must reproduce
# the seed algorithm byte-for-byte on the committed golden fixtures.
conformance:
	$(GO) test -count=1 -run 'TestConformance|TestGoldenEquivalence' ./internal/policy/

# Headless dashboard smoke: boot a live pool plus condor-web in one
# process and walk the whole surface — embedded page, JSON API, 50
# concurrent SSE subscribers observing identical event sequences,
# alerts, /metrics, /healthz — under the race detector.
smoke:
	$(GO) test -race -count=1 -run 'TestDashboardSmoke|TestSSEFanout' .

# Regenerate every table and figure of the paper (tee'd outputs land in
# test_output.txt / bench_output.txt).
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Re-measure the committed benchmark baseline (BENCH_baseline.json).
bench-baseline:
	$(GO) test -run NONE -bench $(BASELINE_BENCH) -benchmem $(BASELINE_PKGS) \
		| $(GO) run ./cmd/bench2json > BENCH_baseline.json
	@cat BENCH_baseline.json

# Gating drift check: re-run the baseline benchmarks and compare
# against the committed JSON. Timing drift beyond 30% or allocs/op
# growth beyond 5% (any allocation at all on a 0 allocs/op path) fails
# the exit code (and the CI job). Benchmarks too noisy for shared
# runners are excused by name in BENCH_allowlist.txt — timing only;
# allocation regressions always fail.
bench-drift:
	$(GO) test -run NONE -bench $(BASELINE_BENCH) -benchmem $(BASELINE_PKGS) \
		| $(GO) run ./cmd/bench2json -compare BENCH_baseline.json -tolerance 0.3 -allowlist BENCH_allowlist.txt

# Short fuzz budget over each byte-level reader of peer or disk input:
# the wire frame decoder (with every message decoder behind it), the
# checkpoint decoder and the stores' PutBlob behind it, a guest program
# run in checkpointed slices against the same program run once (the
# interpreter's exits and the codec under it), journal replay,
# the coordinator's journal record and snapshot decoders, the /metrics
# text parser (condor-web and condor-status scrape peers), the
# traceparent parser and the submitted program decoder.
# Hostile length prefixes, truncated or corrupted input and garbage must
# never panic or over-allocate. CI runs this on every push.
fuzz:
	$(GO) test -run NONE -fuzz '^FuzzFrameDecode$$' -fuzztime 20s ./internal/wire/
	$(GO) test -run NONE -fuzz '^FuzzDecode$$' -fuzztime 20s ./internal/ckpt/
	$(GO) test -run NONE -fuzz '^FuzzPutBlob$$' -fuzztime 20s ./internal/ckpt/
	$(GO) test -run NONE -fuzz '^FuzzRunSlices$$' -fuzztime 20s ./internal/ckpt/
	$(GO) test -run NONE -fuzz '^FuzzReplay$$' -fuzztime 20s ./internal/journal/
	$(GO) test -run NONE -fuzz '^FuzzRebuildState$$' -fuzztime 20s ./internal/coordinator/
	$(GO) test -run NONE -fuzz '^FuzzParseText$$' -fuzztime 20s ./internal/telemetry/
	$(GO) test -run NONE -fuzz '^FuzzParseTraceparent$$' -fuzztime 20s ./internal/trace/
	$(GO) test -run NONE -fuzz '^FuzzDecodeProgram$$' -fuzztime 20s ./internal/proto/

sim:
	$(GO) run ./cmd/condor-sim

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/migration
	$(GO) run ./examples/fairshare
	$(GO) run ./examples/paramsweep
	$(GO) run ./examples/reservation

clean:
	rm -f test_output.txt bench_output.txt
