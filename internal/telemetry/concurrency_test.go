// Concurrency coverage for the operational HTTP surface: readiness
// registration racing active Serve listeners and their readers. This
// test carries its weight under -race (the Makefile's race and chaos
// targets); without it it is still a smoke test that nothing deadlocks
// or panics.
package telemetry_test

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"condor/internal/telemetry"
)

// TestServeConcurrentRegistration churns RegisterReadiness and
// UnregisterReadiness from many goroutines while other goroutines start
// and stop Serve listeners and hammer a long-lived listener's /metrics
// and /healthz. The registry is process-global; any missing lock shows
// up under -race.
func TestServeConcurrentRegistration(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readiness churn: register, evaluate, unregister.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("conc-check-%d", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				telemetry.RegisterReadiness(name, func() error { return fmt.Errorf("busy") })
				_ = telemetry.ReadinessFailures()
				telemetry.UnregisterReadiness(name)
				time.Sleep(time.Millisecond)
			}
		}(i)
	}

	// Listener churn: listeners start and stop while /healthz on the
	// long-lived one evaluates the registry.
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
				s, err := telemetry.Serve("127.0.0.1:0", telemetry.Default)
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

	// The registry must still work after the churn.
	telemetry.RegisterReadiness("conc-final", func() error { return fmt.Errorf("down") })
	if f := telemetry.ReadinessFailures(); len(f) == 0 {
		t.Error("readiness registry lost registrations after concurrent churn")
	}
	telemetry.UnregisterReadiness("conc-final")
}
