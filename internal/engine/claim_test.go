package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// The claim tests drive Scheduler.claimRemote's scenario affinity on a
// dispatch-only engine, whose jobs only ever leave the queue through
// remote claims. They wait on no clock: a held claim is synchronized
// on sched_claims_waiting, which counts a claim only once it is parked
// on the wake signal under the scheduler's lock.

// claimSweep is a 2-scenario × 7-method sweep: the two seed blocks
// differ in GenSeed, so each block is its own scenario, and its cells
// queue block by block.
func claimSweep() Sweep {
	return Sweep{
		Base:    tinySpec("FedAvg"),
		Methods: append([]string{"FedAvg"}, MethodNames()...),
		Seeds:   []SeedSpec{{Seed: 1, GenSeed: 12}, {Seed: 2, GenSeed: 13}},
	}
}

// scenarioOf is the scenario key of a claimed job's Spec.
func scenarioOf(t *testing.T, j *Job) string {
	t.Helper()
	k, err := j.Spec.scenarioKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// awaitWaiting spins until n remote claims are parked on the wake
// signal. It yields instead of sleeping; the deadline only bounds a
// broken run.
func awaitWaiting(t *testing.T, e *Engine, n int64) {
	t.Helper()
	g := e.Metrics().Gauge("sched_claims_waiting", "")
	for deadline := time.Now().Add(30 * time.Second); g.Value() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("sched_claims_waiting = %d, want %d", g.Value(), n)
		}
	}
}

// holdClaim parks a claim for worker on the empty queue and returns the
// channel its lease arrives on.
func holdClaim(t *testing.T, e *Engine, ctx context.Context, worker string, waiting int64) <-chan *Job {
	t.Helper()
	out := make(chan *Job, 1)
	go func() {
		j, _ := e.ClaimRemote(ctx, worker, nil)
		out <- j
	}()
	awaitWaiting(t, e, waiting)
	return out
}

// queuedCount is how many jobs wait in the scheduler's queues.
func (s *Scheduler) queuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// claim takes the next job for worker from a non-empty queue.
func claim(t *testing.T, e *Engine, worker string) *Job {
	t.Helper()
	j, ok := e.ClaimRemote(context.Background(), worker, nil)
	if !ok {
		t.Fatalf("%s claimed nothing from a non-empty queue", worker)
	}
	return j
}

// splitSweep holds a claim for alpha and one for beta, enqueues
// claimSweep as one batch, and returns each worker's first lease.
func splitSweep(t *testing.T, e *Engine) (alpha, beta *Job) {
	t.Helper()
	a := holdClaim(t, e, context.Background(), "alpha", 1)
	b := holdClaim(t, e, context.Background(), "beta", 2)
	if _, err := e.SubmitSweep(claimSweep(), 0); err != nil {
		t.Fatal(err)
	}
	return <-a, <-b
}

// TestHeldClaimsSplitOneSweepsScenarios: two held pulls woken by one
// sweep enqueue claim cells on different scenarios, so each worker
// builds one scenario instead of both building the first.
func TestHeldClaimsSplitOneSweepsScenarios(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	alpha, beta := splitSweep(t, e)
	if alpha == nil || beta == nil {
		t.Fatalf("held claims answered %v, %v; want a lease each", alpha, beta)
	}
	if scenarioOf(t, alpha) == scenarioOf(t, beta) {
		t.Fatalf("alpha (%s) and beta (%s) both claimed cells of one scenario", alpha.Spec.Method, beta.Spec.Method)
	}
}

// TestClaimsStayOnTheirScenario: after the split, every later claim of
// a worker lands on the scenario of its first lease until that
// scenario's cells run out — and then the worker still takes the other
// worker's scenario rather than idle.
func TestClaimsStayOnTheirScenario(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	alpha, beta := splitSweep(t, e)
	own := map[string]string{"alpha": scenarioOf(t, alpha), "beta": scenarioOf(t, beta)}
	perScenario := len(claimSweep().Methods)
	for i := 1; i < perScenario; i++ {
		for _, w := range []string{"alpha", "beta"} {
			if sc := scenarioOf(t, claim(t, e, w)); sc != own[w] {
				t.Fatalf("claim %d of %s left its scenario with cells of it still queued", i+1, w)
			}
		}
	}
	if n := e.sched.queuedCount(); n != 0 {
		t.Fatalf("%d jobs still queued after %d claims", n, 2*perScenario)
	}

	// Drain beta's scenario early: with only beta's scenario left in a
	// fresh sweep, alpha takes it anyway.
	sw := claimSweep()
	sw.Seeds = sw.Seeds[1:]
	sw.Base.Tag = "steal"
	if _, err := e.SubmitSweep(sw, 0); err != nil {
		t.Fatal(err)
	}
	first := claim(t, e, "beta")
	if j := claim(t, e, "alpha"); scenarioOf(t, j) != scenarioOf(t, first) {
		t.Fatal("alpha's claim did not take the only queued scenario")
	}
}

// TestClaimStaysWarmOnASharedScenario: a worker keeps to the scenario
// of its latest lease even when another worker shares it and a cold
// scenario is queued — the cold one waits for a worker with nothing
// warm to do.
func TestClaimStaysWarmOnASharedScenario(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	one := claimSweep()
	one.Seeds = one.Seeds[:1]
	if _, err := e.SubmitSweep(one, 0); err != nil {
		t.Fatal(err)
	}
	warm := scenarioOf(t, claim(t, e, "alpha"))
	if scenarioOf(t, claim(t, e, "beta")) != warm {
		t.Fatal("beta did not take the only queued scenario")
	}
	cold := claimSweep()
	cold.Seeds = cold.Seeds[1:]
	if _, err := e.SubmitSweep(cold, 0); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"alpha", "beta"} {
		if scenarioOf(t, claim(t, e, w)) != warm {
			t.Fatalf("%s left its warm scenario for a cold one", w)
		}
	}
}

// TestClaimPriorityBeatsWarmScenario: affinity only orders jobs within
// the top priority level — an urgent job on a cold scenario is claimed
// before queued cells of the worker's warm one.
func TestClaimPriorityBeatsWarmScenario(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	if _, err := e.SubmitSweep(claimSweep(), 0); err != nil {
		t.Fatal(err)
	}
	warm := scenarioOf(t, claim(t, e, "alpha"))
	urgent := tinySpec("FedAvg")
	urgent.GenSeed = 99
	u, err := e.Submit(urgent, 5)
	if err != nil {
		t.Fatal(err)
	}
	if scenarioOf(t, u) == warm {
		t.Fatal("the urgent job shares alpha's warm scenario; the test needs a cold one")
	}
	if j := claim(t, e, "alpha"); j != u {
		t.Fatalf("alpha claimed %s (priority %d), want the priority-5 job", j.Spec.Method, j.Priority())
	}
}

// TestScenarioKeyHashedOnClaim: a job pays for its scenario key only
// when a remote claim or a scenario-cache eviction considers it — a
// submit computes none, a claim computes and caches one.
func TestScenarioKeyHashedOnClaim(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	j, err := e.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.scenario != "" {
		t.Fatal("submit computed a scenario key")
	}
	if got := claim(t, e, "alpha"); got != j {
		t.Fatalf("claim took %s, want the submitted job", got.Key)
	}
	if want := scenarioOf(t, j); j.scenario != want || want == "" {
		t.Fatalf("claimed job's scenario key = %q, want %q", j.scenario, want)
	}
}

// TestRemoteClaimsShareFairly is TestFairShareScheduling for remote
// claims: with tenant A's 2-scenario sweep queued ahead of tenant B's
// single job, B's job is claimed within one round-robin turn — by a
// lone worker, to which every scenario is cold, and by two workers
// that each keep to a scenario of A's.
func TestRemoteClaimsShareFairly(t *testing.T) {
	for _, workers := range [][]string{{"alpha"}, {"alpha", "beta"}} {
		t.Run(fmt.Sprintf("%d-workers", len(workers)), func(t *testing.T) {
			e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
			if _, err := e.SubmitSweepAs(claimSweep(), 0, "", "alice"); err != nil {
				t.Fatal(err)
			}
			single := tinySpec("FedAvg")
			single.GenSeed = 77
			bob, err := e.SubmitAs(single, 0, "", "bob")
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; ; n++ {
				if j := claim(t, e, workers[(n-1)%len(workers)]); j == bob {
					break
				}
				if n == 2 {
					t.Fatalf("tenant B's job not claimed within %d claims behind tenant A's sweep", n)
				}
			}
		})
	}
}

// TestPushOutsideABatchWakesAtOnce: an open enqueue batch defers only
// its own pushes' wake. A submit from outside it — here made while the
// batch is open — releases a held claim at once.
func TestPushOutsideABatchWakesAtOnce(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	got := holdClaim(t, e, context.Background(), "alpha", 1)
	e.sched.batch(func(*enqueueBatch) {
		j, err := e.Submit(tinySpec("FedAvg"), 0)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case c := <-got:
			if c != j {
				t.Fatalf("held claim took %v, want the submitted job", c)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a submit outside the open batch left the held claim parked")
		}
	})
}

// TestCancelledJobLeavesWarmScenario: a claim that pops a job cancelled
// while queued does not lease it, and the worker keeps the scenario of
// its latest actual lease.
func TestCancelledJobLeavesWarmScenario(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	if _, err := e.Submit(tinySpec("FedAvg"), 0); err != nil {
		t.Fatal(err)
	}
	warm := scenarioOf(t, claim(t, e, "alpha"))
	other := tinySpec("FedAvg")
	other.GenSeed = 77
	j, err := e.Submit(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := holdClaim(t, e, ctx, "alpha", 1)
	cancel()
	if c := <-got; c != nil {
		t.Fatalf("claim leased %s from a queue of one cancelled job", c.Key)
	}
	e.sched.mu.Lock()
	defer e.sched.mu.Unlock()
	if e.sched.warm["alpha"] != warm {
		t.Fatal("a cancelled job it never leased moved alpha's warm scenario")
	}
}
