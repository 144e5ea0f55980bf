// Concurrency coverage for the operational HTTP surface: listeners
// starting and stopping while others serve, and a ready check whose
// answer flips under concurrent /healthz readers. This test carries its
// weight under -race (the Makefile's race and chaos targets); without it
// it is still a smoke test that nothing deadlocks or panics.
package telemetry_test

import (
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/telemetry"
)

// TestServeConcurrentListeners flips a long-lived listener's ready check
// from many goroutines while other goroutines start and stop Serve
// listeners and hammer the long-lived one's /metrics and /healthz. Any
// missing lock shows up under -race; afterwards /healthz still answers
// the check's current state.
func TestServeConcurrentListeners(t *testing.T) {
	var down atomic.Bool
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.Default, func() error {
		if down.Load() {
			return errors.New("down")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readiness churn: the check's answer flips while /healthz reads it.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				down.Store(!down.Load())
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Listener churn: listeners start and stop while the long-lived one
	// serves.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := telemetry.Serve("127.0.0.1:0", telemetry.Default, nil)
				if err != nil {
					t.Error(err)
					return
				}
				s.Close()
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Scrapers against the long-lived listener.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz"} {
					resp, err := http.Get("http://" + srv.Addr() + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// /healthz must still answer the check after the churn.
	for _, c := range []struct {
		down bool
		want int
	}{{true, http.StatusServiceUnavailable}, {false, http.StatusOK}} {
		down.Store(c.down)
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("/healthz with the check down=%v: %d, want %d", c.down, resp.StatusCode, c.want)
		}
	}
}
