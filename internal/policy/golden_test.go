package policy

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/updown"
)

// The golden equivalence fixtures: ~50 randomized pool snapshots plus
// the decisions the pre-pipeline (seed) Decide produced for them,
// committed under testdata/. The pipelined Up-Down policy must
// reproduce every one of them byte-for-byte — that is the proof that
// the predicates → ranker → placement → preemption pipeline is a pure
// refactor of the paper's hard-wired algorithm, not a behaviour change.
//
// Regenerate (only when a deliberate, documented behaviour change is
// intended) with:
//
//	CONDOR_REGEN_GOLDEN=1 go test -run TestGenerateGoldenFixtures ./internal/policy/
const goldenPath = "testdata/golden_decide.json"

// goldenFixture is one recorded snapshot → decision pair.
type goldenFixture struct {
	// Seed identifies the fixture (the RNG seed that generated it).
	Seed int64 `json:"seed"`
	// Cfg is the decision-cycle configuration in force.
	Cfg Config `json:"config"`
	// Indexes is the up-down table state, restored via Table.Restore so
	// tie-break arrival order is deterministic (sorted names).
	Indexes map[string]float64 `json:"indexes"`
	// Views is the pool snapshot handed to Decide.
	Views []StationView `json:"views"`
	// Decision is what the seed Decide returned.
	Decision Decision `json:"decision"`
}

type goldenFile struct {
	// Note documents provenance for readers of the raw JSON.
	Note     string          `json:"note"`
	Fixtures []goldenFixture `json:"fixtures"`
}

// goldenPool builds one randomized-but-reproducible pool snapshot and
// matching up-down table. It is richer than randomPool: it exercises
// disk limits, reservations, idle history, and waiting queues so the
// fixtures cover every branch of the decision cycle.
func goldenPool(r *rand.Rand) ([]StationView, map[string]float64) {
	n := 3 + r.Intn(25)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("ws%02d", i)
	}
	views := make([]StationView, 0, n)
	indexes := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		v := StationView{Name: names[i]}
		switch r.Intn(4) {
		case 0:
			v.State = proto.StationIdle
		case 1:
			v.State = proto.StationOwner
		case 2:
			v.State = proto.StationClaimed
			v.ForeignOwner = names[r.Intn(n)]
			v.ForeignJob = v.ForeignOwner + "/1"
		case 3:
			v.State = proto.StationSuspended
			v.ForeignOwner = names[r.Intn(n)]
			v.ForeignJob = v.ForeignOwner + "/1"
		}
		v.WaitingJobs = r.Intn(5)
		v.HeldMachines = r.Intn(3)
		v.DiskFree = int64(r.Intn(4)) * 512 // 0, 512, 1024, 1536
		v.IdleStreak = time.Duration(r.Intn(120)) * time.Minute
		v.AvgIdleLen = time.Duration(r.Intn(600)) * time.Minute
		if r.Intn(4) == 0 {
			v.ReservedFor = names[r.Intn(n)]
		}
		// Quantized indexes: reproducible float formatting in JSON.
		indexes[v.Name] = float64(r.Intn(41)-20) / 2.0
		views = append(views, v)
	}
	return views, indexes
}

// goldenConfig draws a decision config covering both placements, both
// pacing modes, disabled preemption, and disk limits.
func goldenConfig(r *rand.Rand) Config {
	cfg := Config{
		MaxGrantsPerCycle:    1 + r.Intn(8),
		MaxPreemptsPerCycle:  r.Intn(4),
		AllowBurstPerStation: r.Intn(3) == 0,
	}
	if r.Intn(2) == 0 {
		cfg.Placement = PlaceHistory
	} else {
		cfg.Placement = PlaceFirstFit
	}
	if r.Intn(3) == 0 {
		cfg.MinDiskBytes = 1024
	}
	return cfg
}

// TestGenerateGoldenFixtures regenerates the committed fixtures. It is
// a no-op unless CONDOR_REGEN_GOLDEN=1 — the fixtures are the contract,
// so regeneration must be a deliberate act.
func TestGenerateGoldenFixtures(t *testing.T) {
	if os.Getenv("CONDOR_REGEN_GOLDEN") == "" {
		t.Skip("set CONDOR_REGEN_GOLDEN=1 to regenerate golden fixtures")
	}
	gf := goldenFile{
		Note: "Recorded outputs of the pre-pipeline policy.Decide (seed algorithm). " +
			"The pipelined updown policy must reproduce these exactly. " +
			"Regenerate only for a deliberate behaviour change.",
	}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		views, indexes := goldenPool(r)
		cfg := goldenConfig(r)
		tab := updown.NewTable(updown.DefaultConfig())
		tab.Restore(indexes)
		gf.Fixtures = append(gf.Fixtures, goldenFixture{
			Seed:     seed,
			Cfg:      cfg,
			Indexes:  indexes,
			Views:    views,
			Decision: decide(views, tab, cfg),
		})
	}
	b, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d fixtures to %s (%d bytes)", len(gf.Fixtures), goldenPath, len(b))
}

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixtures missing (run the generator): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(b, &gf); err != nil {
		t.Fatalf("golden fixtures corrupt: %v", err)
	}
	if len(gf.Fixtures) < 50 {
		t.Fatalf("only %d fixtures; want ≥ 50", len(gf.Fixtures))
	}
	return gf
}

// TestGoldenEquivalence: the updown policy reproduces the seed algorithm's recorded decisions
// byte-for-byte on every committed fixture.
func TestGoldenEquivalence(t *testing.T) {
	gf := loadGolden(t)
	for _, fx := range gf.Fixtures {
		tab := updown.NewTable(updown.DefaultConfig())
		tab.Restore(fx.Indexes)
		got := decide(fx.Views, tab, fx.Cfg)
		if !reflect.DeepEqual(got, fx.Decision) {
			t.Errorf("fixture seed=%d: decision diverged\n got: %+v\nwant: %+v",
				fx.Seed, got, fx.Decision)
			continue
		}
		// Byte-for-byte: the JSON encodings must match too, so field
		// renames or type changes cannot hide behind DeepEqual.
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(fx.Decision)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("fixture seed=%d: JSON diverged\n got: %s\nwant: %s",
				fx.Seed, gotJSON, wantJSON)
		}
	}
}
