package web

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"condor/internal/coordinator"
	"condor/internal/decision"
)

// TestAPIDecisionsJSONShape pins the /api/decisions JSON: lowercase
// cycles/total/dropped keys, decodable as a decision.Page — the
// dashboard JS reads those keys, so a capitalized proto-struct leak here
// renders the drill-down permanently empty.
func TestAPIDecisionsJSONShape(t *testing.T) {
	rec := decision.NewRecorder(8)
	coord, err := coordinator.New(coordinator.Config{
		PollInterval: time.Hour,
		Decisions:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	b := decision.NewBuilder(1, time.Unix(0, 0))
	b.Begin("updown", 1)
	b.Reject(decision.Rejection{Station: "ws0", Predicate: "min-disk",
		Threshold: "disk >= 1048576 bytes", Observed: "512 bytes free"})
	rec.Record(b.Done())

	s, err := NewServer(Config{CoordinatorAddr: coord.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/decisions?station=ws0", nil))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	body := w.Body.String()
	for _, key := range []string{`"cycles"`, `"total"`} {
		if !strings.Contains(body, key) {
			t.Errorf("reply missing lowercase %s key:\n%s", key, body)
		}
	}
	var page decision.Page
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || len(page.Cycles) != 1 {
		t.Fatalf("page = %+v, want the one recorded cycle", page)
	}
	if r := page.Cycles[0].Rejections; len(r) != 1 || r[0].Predicate != "min-disk" {
		t.Fatalf("rejections %+v did not survive the round trip", page.Cycles[0].Rejections)
	}

	// The empty-filter miss must serve "cycles": [], not null — the JS
	// maps over it unconditionally.
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, httptest.NewRequest("GET", "/api/decisions?station=nosuch", nil))
	if !strings.Contains(w2.Body.String(), `"cycles":[]`) {
		t.Fatalf("no-match reply serves null cycles:\n%s", w2.Body.String())
	}
}

// TestCycleLagInCoordinatorIntervals: cycle_lag is cycle age over the
// poll interval the coordinator reports, not over a setting of the
// dashboard's own.
func TestCycleLagInCoordinatorIntervals(t *testing.T) {
	const interval = 40 * time.Minute
	coord, err := coordinator.New(coordinator.Config{PollInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s, err := NewServer(Config{CoordinatorAddr: coord.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	time.Sleep(20 * time.Millisecond) // let the cycle age grow past 0
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	age, lag := s.lastFields["cycle_age"], s.lastFields["cycle_lag"]
	s.mu.Unlock()
	if age <= 0 {
		t.Fatalf("cycle_age = %v, want it positive", age)
	}
	if want := age / interval.Seconds(); lag != want {
		t.Errorf("cycle_lag = %v, want cycle_age/%v = %v", lag, interval, want)
	}
}
