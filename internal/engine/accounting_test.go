package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// accountedJobs is how many jobs each accounting test settles. Woken
// waiters used to race the bookkeeping that followed the wake-up, a
// window of microseconds, so the checks repeat enough for that race to
// show on every run.
const accountedJobs = 300

// accounted reads, right after Wait returned for the n-th job, the
// instruments the scheduler records when a job that ran ends — run
// time, the completion counter for the state it ended in, and the job's
// run (or lease) and root spans — and describes the first one that does
// not include the job yet.
func accounted(e *Engine, j *Job, method, runSpan string, n int) error {
	if got := e.sched.metrics.runSeconds.With(method).Count(); got != int64(n) {
		return fmt.Errorf("job %d: sched_run_seconds count = %d when Wait returned, want %d", n, got, n)
	}
	return counted(e, j, j.State(), runSpan, n)
}

// counted is accounted without the run time, which a job that never
// ran does not have.
func counted(e *Engine, j *Job, state State, runSpan string, n int) error {
	if got := e.sched.metrics.jobsCompleted.With(string(state), AnonymousTenant).Value(); got != int64(n) {
		return fmt.Errorf("job %d: engine_jobs_completed_total{state=%q} = %d when Wait returned, want %d", n, state, got, n)
	}
	names := map[string]bool{}
	for _, sp := range e.Traces().Trace(j.TraceID) {
		names[sp.Name] = true
	}
	if !names[runSpan] || !names["job"] {
		return fmt.Errorf("job %d: spans %v when Wait returned, want %q and \"job\"", n, names, runSpan)
	}
	return nil
}

// TestLocalJobAccountedBeforeWaitReturns: a job the local worker pool
// runs is fully accounted for by the time Wait returns, with no sleep
// or poll in between.
func TestLocalJobAccountedBeforeWaitReturns(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	stubRuns(e, map[string]stubRun{"noop": func(context.Context, *Job) (*Result, error) { return &Result{}, nil }})
	for n := 1; n <= accountedJobs; n++ {
		spec := stubSpec("noop")
		spec.Seed = uint64(n)
		j, err := e.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := accounted(e, j, "FedAvg", "run", n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteJobAccountedBeforeWaitReturns is the same check for a job a
// remote worker leases and completes: the waiter runs on its own
// goroutine and reads the instruments the moment Wait returns.
func TestRemoteJobAccountedBeforeWaitReturns(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	for n := 1; n <= accountedJobs; n++ {
		spec := tinySpec("FedAvg")
		spec.Seed = uint64(n)
		j, err := e.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		leased, ok := e.ClaimRemote(context.Background(), "w1", nil)
		if !ok || leased != j {
			t.Fatalf("job %d: lease = %v, %v; want the submitted job", n, leased, ok)
		}
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			if _, err := j.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			if err := accounted(e, j, "FedAvg", "lease", n); err != nil {
				t.Error(err)
			}
		}()
		res := &Result{SpecHash: j.Key, Method: "FedAvg",
			Stats: []RoundStat{{Round: 1, ValAcc: 0.5, TestAcc: 0.5}}, ElapsedSec: 0.01}
		if err := e.CompleteRemote(leased, res, nil); err != nil {
			t.Fatal(err)
		}
		<-waited
		if t.Failed() {
			return
		}
	}
}

// TestCancelledJobAccountedBeforeWaitReturns is the same check for a job
// cancelled while queued: its completion count and its queue and root
// spans are recorded before the cancel wakes the waiter.
func TestCancelledJobAccountedBeforeWaitReturns(t *testing.T) {
	// Workers: -1 keeps every job queued until it is cancelled.
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	for n := 1; n <= accountedJobs; n++ {
		spec := tinySpec("FedAvg")
		spec.Seed = uint64(n)
		j, err := e.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			if _, err := j.Wait(context.Background()); err == nil {
				t.Error("Wait on a cancelled job returned no error")
			}
			if err := counted(e, j, StateCancelled, "queue", n); err != nil {
				t.Error(err)
			}
		}()
		if err := e.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		<-waited
		if t.Failed() {
			return
		}
	}
}

// TestDrainedLeaseAccountedBeforeWaitReturns is the same check for a
// lease that ends while the scheduler drains: the requeue cannot put
// the job back, so the job ends as cancelled, with its run time, lease
// and root spans recorded like any other end. Each job needs its own
// engine, since a drained scheduler takes no more work.
func TestDrainedLeaseAccountedBeforeWaitReturns(t *testing.T) {
	for n := 1; n <= accountedJobs; n++ {
		e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
		j, err := e.Submit(tinySpec("FedAvg"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if leased, ok := e.ClaimRemote(context.Background(), "w1", nil); !ok || leased != j {
			t.Fatalf("job %d: lease = %v, %v; want the submitted job", n, leased, ok)
		}
		e.sched.close()
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			if _, err := j.Wait(context.Background()); err == nil {
				t.Error("Wait on a lease ended by draining returned no error")
			}
			if got := j.State(); got != StateCancelled {
				t.Errorf("engine %d: drained lease ended %s, want cancelled", n, got)
			}
			if err := accounted(e, j, "FedAvg", "lease", 1); err != nil {
				t.Errorf("engine %d: %v", n, err)
			}
		}()
		if e.RequeueRemote(j) {
			t.Fatalf("job %d: a draining scheduler requeued the lease", n)
		}
		<-waited
		if t.Failed() {
			return
		}
		e.Close()
	}
}

// TestDrainedLeaseReplaysOnNextBoot is the journal half of a lease
// ended by draining: the job journals no done record, so the next boot
// re-enqueues it.
func TestDrainedLeaseReplaysOnNextBoot(t *testing.T) {
	dir := t.TempDir()
	e1 := newTestEngine(t, Options{Workers: -1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	j, err := e1.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if leased, ok := e1.ClaimRemote(context.Background(), "w1", nil); !ok || leased != j {
		t.Fatalf("lease = %v, %v; want the submitted job", leased, ok)
	}
	e1.sched.close()
	if e1.RequeueRemote(j) {
		t.Fatal("a draining scheduler requeued the lease")
	}
	if got := j.State(); got != StateCancelled {
		t.Fatalf("drained lease ended %s, want cancelled", got)
	}
	e1.Close()

	e2 := newTestEngine(t, Options{Workers: -1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if got := e2.journal.metrics.replayed.With("job").Value(); got != 1 {
		t.Fatalf("journal_replayed_total{kind=job} = %d, want 1 (the drained job re-enqueued)", got)
	}
}
