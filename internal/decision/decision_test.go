package decision

import (
	"strings"
	"testing"
	"time"
)

func sampleAudit(cycle uint64, at time.Time) *CycleAudit {
	b := NewBuilder(cycle, at)
	b.Begin("updown", 3)
	b.Requester(RankEntry{Requester: "pulsar", Position: 0, Score: -2, HasScore: true,
		Features: []Feature{{Key: "waiting", Value: "2"}}})
	b.Requester(RankEntry{Requester: "quasar", Position: 1, Score: 5, HasScore: true})
	b.Reject(Rejection{Station: "vega", Predicate: "min-disk",
		Threshold: "disk >= 1048576 bytes", Observed: "524288 bytes free"})
	b.Idle([]string{"altair"})
	b.Grant("pulsar", "altair")
	b.AnnotateGrantJob(0, "pulsar/7")
	b.Unserved("quasar", "all admitted machines already granted")
	b.BeginPreempt("quasar")
	b.PreemptCompared("deneb", "mizar", true)
	b.PreemptOutcome("deneb", "mizar", "mizar/1")
	return b.Done()
}

func TestBuilderNilSafe(t *testing.T) {
	var b *Builder
	b.Begin("updown", 3)
	b.Requester(RankEntry{})
	b.Reject(Rejection{})
	b.Idle([]string{"x"})
	b.Grant("a", "b")
	b.Unserved("a", "r")
	b.BeginPreempt("a")
	b.PreemptCompared("e", "o", true)
	b.PreemptOutcome("e", "v", "j")
	b.AnnotateGrantJob(0, "j")
	if b.Done() != nil {
		t.Fatal("nil builder's Done must be nil")
	}
	// And the recorder must swallow the resulting nil without recording.
	r := NewRecorder(4)
	r.Record(b.Done())
	if r.Total() != 0 {
		t.Fatalf("Total = %d after recording nil", r.Total())
	}
	var nilRec *Recorder
	nilRec.Record(sampleAudit(1, time.Now())) // must not panic
}

func TestBuilderAssemblesAudit(t *testing.T) {
	a := sampleAudit(42, time.Unix(1000, 0))
	if a.Cycle != 42 || a.Policy != "updown" || a.Stations != 3 {
		t.Fatalf("header %+v", a)
	}
	if len(a.Requesters) != 2 || a.Requesters[0].Requester != "pulsar" {
		t.Fatalf("requesters %+v", a.Requesters)
	}
	if len(a.Grants) != 1 || a.Grants[0].JobID != "pulsar/7" {
		t.Fatalf("grants %+v", a.Grants)
	}
	p := a.Preempts[0]
	if p.Victim != "mizar" || !p.Compared[0].Chosen {
		t.Fatalf("preempt %+v", p)
	}
	if !a.Mentions("vega") || !a.Mentions("mizar") || a.Mentions("nowhere") {
		t.Fatal("Mentions misses a role")
	}
	if !a.MentionsJob("pulsar/7") || a.MentionsJob("pulsar/8") {
		t.Fatal("MentionsJob wrong")
	}
}

func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(4)
	base := time.Unix(2000, 0)
	for c := uint64(1); c <= 10; c++ {
		r.Record(sampleAudit(c, base.Add(time.Duration(c)*time.Minute)))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d, want 4", len(snap))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if snap[i].Cycle != want {
			t.Fatalf("snapshot[%d].Cycle = %d, want %d", i, snap[i].Cycle, want)
		}
	}
}

func TestFilter(t *testing.T) {
	base := time.Unix(3000, 0)
	audits := []CycleAudit{
		*sampleAudit(1, base),
		*sampleAudit(2, base.Add(time.Minute)),
		{Cycle: 3, At: base.Add(2 * time.Minute), Policy: "updown", Stations: 3},
	}
	if got := Filter(audits, "", "pulsar", 0, 0); len(got) != 2 {
		t.Fatalf("station filter kept %d, want 2", len(got))
	}
	if got := Filter(audits, "pulsar/7", "", 0, 0); len(got) != 2 {
		t.Fatalf("job filter kept %d, want 2", len(got))
	}
	if got := Filter(audits, "", "", 2, 0); len(got) != 1 || got[0].Cycle != 2 {
		t.Fatalf("cycle=2 got %+v", got)
	}
	if got := Filter(audits, "", "", -1, 0); len(got) != 1 || got[0].Cycle != 3 {
		t.Fatalf("cycle=-1 got %+v", got)
	}
	if got := Filter(audits, "", "", -10, 0); got != nil {
		t.Fatalf("cycle=-10 got %+v, want nil", got)
	}
	if got := Filter(audits, "", "", 0, 2); len(got) != 2 || got[0].Cycle != 2 {
		t.Fatalf("last=2 got %+v", got)
	}
}

// TestPageFor: a page applies Filter and carries the ring's totals; an
// empty ring gives an empty list, not null, so /api/decisions serves [].
func TestPageFor(t *testing.T) {
	r := NewRecorder(8)
	base := time.Unix(4000, 0)
	for c := uint64(1); c <= 3; c++ {
		r.Record(sampleAudit(c, base.Add(time.Duration(c)*time.Minute)))
	}
	page := r.PageFor("", "pulsar", 0, 2)
	if len(page.Cycles) != 2 || page.Total != 3 {
		t.Fatalf("page %+v", page)
	}
	if page.Cycles[1].Cycle != 3 {
		t.Fatalf("newest cycle %d, want 3", page.Cycles[1].Cycle)
	}
	if empty := NewRecorder(4).PageFor("", "", 0, 0); empty.Cycles == nil {
		t.Fatal("empty ring gave null cycles")
	}
}

func TestRender(t *testing.T) {
	a := sampleAudit(42, time.Unix(5000, 0))

	full := RenderCycle(a)
	for _, want := range []string{"cycle 42", "policy=updown", "min-disk", "pulsar -> altair"} {
		if !strings.Contains(full, want) {
			t.Errorf("RenderCycle missing %q in:\n%s", want, full)
		}
	}

	why := RenderRequester(a, "quasar")
	for _, want := range []string{"rank 2 of 2", "all admitted machines already granted", "min-disk"} {
		if !strings.Contains(why, want) {
			t.Errorf("RenderRequester missing %q in:\n%s", want, why)
		}
	}

	st := RenderStation(a, "vega")
	if !strings.Contains(st, "min-disk") || !strings.Contains(st, "1048576") {
		t.Errorf("RenderStation missing the predicate detail:\n%s", st)
	}

	pred, n, ok := TopRejection([]CycleAudit{*a, *a}, "quasar")
	if !ok || pred != "min-disk" || n != 2 {
		t.Fatalf("TopRejection = %q %d %v", pred, n, ok)
	}
	if _, _, ok := TopRejection(nil, "quasar"); ok {
		t.Fatal("TopRejection on no audits must report !ok")
	}
}

// BenchmarkDecisionRecord measures the publish path: one atomic add and
// one pointer swap per finished cycle.
func BenchmarkDecisionRecord(b *testing.B) {
	r := NewRecorder(DefaultCapacity)
	a := sampleAudit(1, time.Unix(1, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(a)
	}
}

// BenchmarkBuilderNil pins the recorder-off contract: the full set of
// per-cycle hooks on a nil builder must not allocate.
func BenchmarkBuilderNil(b *testing.B) {
	var bd *Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Begin("updown", 23)
		bd.Reject(Rejection{})
		bd.Grant("a", "b")
		bd.BeginPreempt("a")
		bd.PreemptOutcome("", "", "")
		if bd.Done() != nil {
			b.Fatal("nil builder produced an audit")
		}
	}
}
