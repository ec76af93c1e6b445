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
// instruments the scheduler records when a job ends — run time, the
// completion counter, and the job's run (or lease) and root spans — and
// describes the first one that does not include the job yet.
func accounted(e *Engine, j *Job, method, runSpan string, n int) error {
	if got := e.sched.metrics.runSeconds.With(method).Count(); got != int64(n) {
		return fmt.Errorf("job %d: sched_run_seconds count = %d when Wait returned, want %d", n, got, n)
	}
	return counted(e, j, StateDone, runSpan, n)
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
	noop := func(context.Context) (*Result, error) { return &Result{}, nil }
	for n := 1; n <= accountedJobs; n++ {
		j, err := e.SubmitFunc(fmt.Sprintf("accounted-%d", n), 0, noop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := accounted(e, j, "func", "run", n); err != nil {
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
		leased, ok := e.ClaimRemote("w1", nil, nil)
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
		if err := e.CompleteRemote(leased, res, nil, nil); err != nil {
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
