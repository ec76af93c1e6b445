package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// reopenStore opens a second Store on a cache directory, as the next
// process would.
func reopenStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireStored fails unless st holds key's Result, equal to want, and
// a checkpoint blob equal to blob.
func requireStored(t *testing.T, st *Store, key string, want *Result, blob []byte) {
	t.Helper()
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("entry %.12s not on disk (ok=%v, err=%v)", key, ok, err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("entry %.12s on disk is\n%s\nwant\n%s", key, gj, wj)
	}
	b, ok, err := st.GetBlob(key)
	if err != nil || !ok {
		t.Fatalf("blob %.12s not on disk (ok=%v, err=%v)", key, ok, err)
	}
	if !bytes.Equal(b, blob) {
		t.Fatalf("blob %.12s on disk differs from the trained model's (%d vs %d bytes)", key, len(b), len(blob))
	}
}

// TestDoneMeansPersisted: on a disk-backed engine, once Wait returns a
// Done job, a second Store opened on the same directory returns its
// Result and a blob byte-identical to the model the same Spec trains on
// a memory-only engine. Two jobs on one slot put the first job's persist
// behind the second's training.
func TestDoneMeansPersisted(t *testing.T) {
	dir := t.TempDir()
	disk := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	mem := newTestEngine(t, Options{Workers: 1})
	specs := []Spec{tinySpec("FedAvg"), tinySpec("FedAvg")}
	specs[1].Seed = 2
	var jobs []*Job
	for _, sp := range specs {
		j, err := disk.Submit(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := mem.Submit(specs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		blob, ok, err := mem.ModelBlob(ref.Key)
		if err != nil || !ok {
			t.Fatalf("memory-only engine kept no blob (ok=%v, err=%v)", ok, err)
		}
		requireStored(t, reopenStore(t, dir), j.Key, res, blob)
	}
}

// TestCloseDrainsPersist: Engine.Close with a job mid-persist waits for
// the persist, so the job settles Done and every done record in the
// journal has its entry and blob on disk.
func TestCloseDrainsPersist(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	persisting, release := make(chan struct{}), make(chan struct{})
	e.sched.run = func(ctx context.Context, j *Job) (func() error, error) {
		persist, err := e.run(ctx, j)
		if err != nil {
			return nil, err
		}
		return func() error {
			close(persisting)
			<-release
			return persist()
		}, nil
	}
	j, err := e.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-persisting
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	for !e.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a persist in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if got := j.State(); got != StateRunning {
		t.Fatalf("persisting job is %s, want %s", got, StateRunning)
	}
	close(release)
	<-closed
	if got := j.State(); got != StateDone {
		t.Fatalf("drained job ended %s, want %s", got, StateDone)
	}
	st := reopenStore(t, dir)
	done := 0
	for _, l := range journalLines(t, dir) {
		var rec journalRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op != journalOpDone {
			continue
		}
		done++
		if _, ok, _ := st.Get(rec.Key); !ok {
			t.Fatalf("journal settled %.12s, but its entry is not on disk", rec.Key)
		}
		if _, ok, _ := st.GetBlob(rec.Key); !ok {
			t.Fatalf("journal settled %.12s, but its blob is not on disk", rec.Key)
		}
	}
	if done != 1 {
		t.Fatalf("journal holds %d done records, want 1", done)
	}
}

// TestOnePersistPerSlot: a pool slot trains its next job while the
// last one persists, but never holds more than one persist in flight,
// and a persisting job stays Running in sched_running_jobs.
func TestOnePersistPerSlot(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			const n = 6
			e := newTestEngine(t, Options{Workers: workers})
			var mu sync.Mutex
			inflight, peak := 0, 0
			trained := make([]chan struct{}, n)
			for i := range trained {
				trained[i] = make(chan struct{})
			}
			e.sched.run = func(_ context.Context, j *Job) (func() error, error) {
				var i int
				fmt.Sscanf(j.Spec.Tag, "slot-%d", &i)
				close(trained[i])
				return func() error {
					if err := e.store.Put(j.Key, &Result{}); err != nil {
						return err
					}
					mu.Lock()
					inflight++
					peak = max(peak, inflight)
					mu.Unlock()
					defer func() {
						mu.Lock()
						inflight--
						mu.Unlock()
					}()
					if workers > 1 {
						time.Sleep(5 * time.Millisecond)
						return nil
					}
					if i+1 == n {
						return nil
					}
					// One slot: the next job trains while this one
					// persists, and both count as running.
					select {
					case <-trained[i+1]:
					case <-time.After(10 * time.Second):
						t.Errorf("slot-%d did not train while slot-%d persisted", i+1, i)
						return nil
					}
					if got := j.State(); got != StateRunning {
						t.Errorf("persisting slot-%d is %s, want %s", i, got, StateRunning)
					}
					if got := e.RunningJobs(); got != 2 {
						t.Errorf("sched_running_jobs = %d while slot-%d persists and slot-%d trains, want 2", got, i, i+1)
					}
					return nil
				}, nil
			}
			var jobs []*Job
			for i := 0; i < n; i++ {
				j, err := e.Submit(stubSpec(fmt.Sprintf("slot-%d", i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			for _, j := range jobs {
				if _, err := j.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if peak > workers {
				t.Fatalf("%d persists in flight on %d slots, want at most one per slot", peak, workers)
			}
		})
	}
}

// TestStorePutFailureLeavesNoEntry: an entry whose disk write fails is
// not memoized, so the next lookup misses instead of answering from
// memory a Result the disk never got.
func TestStorePutFailureLeavesNoEntry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	st := reopenStore(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", &Result{Method: "FedAvg"}); err == nil {
		t.Fatal("Put into a removed directory succeeded")
	}
	if _, ok, err := st.Get("k"); ok || err != nil {
		t.Fatalf("Get after a failed Put: ok=%v err=%v, want a miss", ok, err)
	}
}

// TestWritePathInstruments: a disk-backed run observes one entry and
// one blob write and one journal append per record; a blob write that
// fails is counted, and the run still stores its Result and ends Done.
func TestWritePathInstruments(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	sp := tinySpec("FedAvg")
	key, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the blob goes makes its rename fail.
	if err := os.Mkdir(filepath.Join(dir, key+".model.bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := e.Submit(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sm := e.store.metrics
	if got := sm.blobFailures.Value(); got != 1 {
		t.Fatalf("store_blob_write_failures_total = %d, want 1", got)
	}
	if got, _, _ := reopenStore(t, dir).Get(key); got == nil {
		t.Fatal("a failed blob write lost the run's Result")
	}
	sp.Seed = 2
	j, err = e.Submit(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sm.entryWrite.Count(); got != 2 {
		t.Fatalf("store_write_seconds{kind=entry} count = %d, want 2", got)
	}
	if got := sm.blobWrite.Count(); got != 1 {
		t.Fatalf("store_write_seconds{kind=blob} count = %d, want 1", got)
	}
	// The done record lands after Wait wakes; wait for both.
	for deadline := time.Now().Add(10 * time.Second); e.journal.liveCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("done records never journaled")
		}
	}
	jm := e.journal.metrics
	if appends, records := jm.append.Count(), jm.records.Value(); appends != records || records != 4 {
		t.Fatalf("journal_append_seconds count %d, journal_records_total %d, want 4 each", appends, records)
	}
}
