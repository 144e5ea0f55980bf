package schedd

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/wire"
)

// TestVacateRefusesAnotherJobsCheckpoint: a buggy or hostile execution
// machine vacates job A's placement with job B's blob. The store must
// not file it under B (which it names) or under A: B keeps its
// checkpoint, A is requeued from its own last good one with its progress
// counters untouched, and the refusal is counted. A corrupt periodic
// checkpoint is refused the same way.
func TestVacateRefusesAnotherJobsCheckpoint(t *testing.T) {
	home := newStation(t, "home", nil, nil)
	idA, err := home.Submit("alice", cvm.SumProgram(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := home.Submit("bob", cvm.SumProgram(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, blobA, err := home.Store().GetBlob(idA)
	if err != nil {
		t.Fatal(err)
	}
	metaB, blobB, err := home.Store().GetBlob(idB)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible later generation of B: its image, 50 steps on.
	_, imgB, err := ckpt.DecodeBytes(blobB)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := cvm.Restore(imgB, cvm.NewMemHost())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(50); err != nil {
		t.Fatal(err)
	}
	metaB.Sequence, metaB.CPUSteps = 1, 50
	forged, err := ckpt.EncodeBytesWith(metaB, vm.Snapshot(), ckpt.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}

	refused := mRefusedCheckpoints.Value()
	placement := &jobEvents{station: home, jobID: idA, epoch: 1}
	placement.JobCheckpointed(proto.JobCheckpointMsg{JobID: idA, Checkpoint: []byte("garbage"), Steps: 40})
	// Put A on the machine as placement 1, through the table's own edges.
	home.mu.Lock()
	a := home.jobs[idA]
	placed := home.stepLocked(a, evPlace, a.epoch) && home.stepLocked(a, evPlaced, placement.epoch)
	home.mu.Unlock()
	if !placed {
		t.Fatal("job A not placed through the table")
	}
	placement.JobVacated(proto.JobVacatedMsg{JobID: idA, Checkpoint: forged, Reason: "owner returned", Steps: 50})

	if _, got, _ := home.Store().GetBlob(idB); !bytes.Equal(got, blobB) {
		t.Fatal("job B's checkpoint was overwritten by a blob shipped on job A's placement")
	}
	if _, got, _ := home.Store().GetBlob(idA); !bytes.Equal(got, blobA) {
		t.Fatal("job A's checkpoint changed although every blob it was sent was refused")
	}
	status, err := home.Job(idA)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != proto.JobIdle || status.CPUSteps != 0 || status.Checkpoints != 0 {
		t.Fatalf("job A = state %v, %d steps, %d checkpoints; want idle, 0, 0", status.State, status.CPUSteps, status.Checkpoints)
	}
	if got := mRefusedCheckpoints.Value() - refused; got != 2 {
		t.Fatalf("refused checkpoints counted = %d, want 2", got)
	}
	// A runs to its own answer from the checkpoint it kept.
	exec := newStation(t, "exec", nil, nil)
	if _, err := home.PlaceNext(context.Background(), "exec", exec.Addr()); err != nil {
		t.Fatal(err)
	}
	final, err := home.Wait(idA, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != proto.JobCompleted || strings.TrimSpace(final.Stdout) != "5050" {
		t.Fatalf("job A = %v, stdout %q; want completed, 5050", final.State, final.Stdout)
	}
}

// recordingStore remembers every blob its store accepted.
type recordingStore struct {
	ckpt.Store
	mu   sync.Mutex
	puts [][]byte
}

func (s *recordingStore) PutBlob(jobID string, blob []byte) (ckpt.Meta, error) {
	meta, err := s.Store.PutBlob(jobID, blob)
	if err == nil {
		s.mu.Lock()
		s.puts = append(s.puts, blob)
		s.mu.Unlock()
	}
	return meta, err
}

// TestPlacementShipsVacatedBlob: the bytes an execution machine receives
// on placement N+1 are exactly the blob vacate N shipped home. The home
// station stores and forwards checkpoints; it never encodes them again.
func TestPlacementShipsVacatedBlob(t *testing.T) {
	store := &recordingStore{Store: ckpt.NewMemStore(0, true)}
	home := newStation(t, "home", nil, store)
	starter, err := ru.NewStarter(ru.StarterConfig{
		Name:          "exec",
		Monitor:       machine.NewScriptedMonitor(false),
		ScanInterval:  time.Hour,
		StepsPerSlice: 2_000,
		SliceDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(starter.Close)
	var mu sync.Mutex
	var received [][]byte
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) wire.Handler {
		starterHandler := starter.Handler(p)
		return func(ctx context.Context, msg any) (any, error) {
			if req, ok := msg.(proto.PlaceRequest); ok {
				mu.Lock()
				received = append(received, req.Checkpoint)
				mu.Unlock()
			}
			return starterHandler(ctx, msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	jobID, err := home.Submit("alice", cvm.SumProgram(3_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	const vacates = 2
	for n := 0; n <= vacates; n++ {
		if _, err := home.PlaceNext(context.Background(), "exec", srv.Addr()); err != nil {
			t.Fatalf("placement %d: %v", n, err)
		}
		if n == vacates {
			break
		}
		time.Sleep(10 * time.Millisecond) // make progress
		if !starter.Vacate(jobID, "test") {
			t.Fatalf("placement %d: nothing to vacate", n)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if s, _ := home.Job(jobID); s.State == proto.JobIdle && s.Checkpoints == n+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("vacate %d never came home", n)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	store.mu.Lock()
	defer store.mu.Unlock()
	// puts[0] is the submit's initial checkpoint, puts[n+1] vacate n's.
	if len(received) != vacates+1 || len(store.puts) != vacates+1 {
		t.Fatalf("%d placements received, %d blobs stored; want %d each", len(received), len(store.puts), vacates+1)
	}
	for n := range received {
		if !bytes.Equal(received[n], store.puts[n]) {
			t.Fatalf("placement %d shipped %d bytes that differ from the %d-byte blob stored before it",
				n, len(received[n]), len(store.puts[n]))
		}
		if n > 0 && bytes.Equal(store.puts[n], store.puts[n-1]) {
			t.Fatalf("vacate %d shipped the previous generation back", n-1)
		}
	}
}
