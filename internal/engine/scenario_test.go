package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// TestScenarioCacheInstruments sweeps two methods over one scenario: the
// first lookup builds it (one miss, one build observed) and the other
// reuses it (a hit), and each cell's trace carries a scenario span under
// its run span labeled with that outcome.
func TestScenarioCacheInstruments(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	b, err := e.SubmitSweep(Sweep{Base: tinySpec("FedAvg"), Methods: []string{"FedAvg", "FedSR"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := e.metrics
	if miss, hit := m.scenarioLookup.With("miss").Value(), m.scenarioLookup.With("hit").Value(); miss != 1 || hit != 1 {
		t.Fatalf("scenario cache lookups: %d miss, %d hit; want 1 and 1", miss, hit)
	}
	if n := m.scenarioBuild.Count(); n != 1 {
		t.Fatalf("engine_scenario_build_seconds observed %d builds, want 1", n)
	}

	caches := map[string]int{}
	for _, j := range b.Jobs() {
		var found bool
		for _, sp := range e.Traces().Trace(j.TraceID) {
			if sp.Name != "scenario" {
				continue
			}
			if found {
				t.Fatalf("job %s has two scenario spans", j.ID)
			}
			found = true
			if sp.ParentID != j.RunSpanID() {
				t.Fatalf("job %s scenario span parent %q, want run span %q", j.ID, sp.ParentID, j.RunSpanID())
			}
			caches[sp.Attrs["cache"]]++
		}
		if !found {
			t.Fatalf("job %s has no scenario span", j.ID)
		}
	}
	if caches["miss"] != 1 || caches["hit"] != 1 {
		t.Fatalf("scenario span cache attrs = %v, want one miss and one hit", caches)
	}

	// A further lookup of the resident scenario is a hit and builds nothing.
	if _, err := e.BuildScenario(tinySpec("PARDON")); err != nil {
		t.Fatal(err)
	}
	if hit, n := m.scenarioLookup.With("hit").Value(), m.scenarioBuild.Count(); hit != 2 || n != 1 {
		t.Fatalf("after a resident lookup: %d hits, %d builds; want 2 and 1", hit, n)
	}
}

// residencySweep is a 1-round sweep of methods over the scenario of
// seed: every cell shares that one scenario, and sweeps on different
// seeds share none.
func residencySweep(seed uint64, methods ...string) Sweep {
	base := tinySpec("")
	base.Rounds = 1
	return Sweep{Base: base, Methods: methods, Seeds: []SeedSpec{{Seed: seed}}}
}

// waitSweep waits for every cell of a sweep.
func waitSweep(t *testing.T, b *Batch) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioResidentOnePerSlot: a single-slot engine runs six sweeps
// one after another, each on a scenario of its own. Each sweep builds
// its scenario once, and once it is done no queued work needs it, so
// the next sweep's build evicts it: at most one scenario is resident
// after every sweep, where a fixed cap would keep the dead ones.
func TestScenarioResidentOnePerSlot(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	m := e.metrics
	for seed := uint64(1); seed <= 6; seed++ {
		b, err := e.SubmitSweep(residencySweep(seed, "FedAvg", "FedSR"), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitSweep(t, b)
		if n := m.scenariosResident.Value(); n > 1 {
			t.Fatalf("after sweep %d: %d scenarios resident, want at most 1", seed, n)
		}
	}
	if n := m.scenarioBuild.Count(); n != 6 {
		t.Fatalf("6 sweeps on 6 scenarios built %d, want 6", n)
	}
}

// TestInterleavedTenantsKeepBothScenarios: two tenants queue a 3-cell
// sweep each, on two scenarios, behind a single worker. The tenant ring
// alternates them, so every cell switches scenario; a cache of one
// scenario would rebuild on each of the six. Both scenarios stay
// resident while queued cells need them, so each is built once.
func TestInterleavedTenantsKeepBothScenarios(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	gate, started := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var order []uint64 // the seed, and so the scenario, of each run
	e.sched.run = func(ctx context.Context, j *Job) (func() error, error) {
		if j.Spec.Tag == "gate" {
			close(started)
			select {
			case <-gate:
				return func() error { return e.store.Put(j.Key, &Result{}) }, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		mu.Lock()
		order = append(order, j.Spec.Seed)
		mu.Unlock()
		return e.run(ctx, j)
	}
	// The gate holds the worker until both sweeps are queued.
	if _, err := e.SubmitAs(stubSpec("gate"), 0, "", "alice"); err != nil {
		t.Fatal(err)
	}
	<-started
	var sweeps []*Batch
	for i, tenant := range []string{"alice", "bob"} {
		b, err := e.SubmitSweepAs(residencySweep(uint64(i+1), "FedAvg", "FedSR", "FPL"), 0, "", tenant)
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, b)
	}
	close(gate)
	for _, b := range sweeps {
		waitSweep(t, b)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("run order by seed %v: the tenant ring did not alternate the scenarios", order)
		}
	}
	if n := e.metrics.scenarioBuild.Count(); n != 2 {
		t.Fatalf("two interleaved 3-cell sweeps on 2 scenarios built %d, want 2", n)
	}
}

// TestTableGridBuildsEachScenarioOnce: a Table-I-shaped grid, every
// method over three seeds, builds each of its three scenarios exactly
// once at one and at two pool slots, and leaves no more scenarios
// resident than slots.
func TestTableGridBuildsEachScenarioOnce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			e := newTestEngine(t, Options{Workers: workers})
			sw := residencySweep(1, append([]string{"FedAvg"}, MethodNames()...)...)
			sw.Seeds = []SeedSpec{{Seed: 1}, {Seed: 2}, {Seed: 3}}
			b, err := e.SubmitSweep(sw, 0)
			if err != nil {
				t.Fatal(err)
			}
			waitSweep(t, b)
			if n := e.metrics.scenarioBuild.Count(); n != 3 {
				t.Fatalf("grid over 3 scenarios built %d, want 3", n)
			}
			if n := e.metrics.scenariosResident.Value(); n > int64(workers) {
				t.Fatalf("%d scenarios resident after the grid, want at most %d", n, workers)
			}
		})
	}
}

// TestScenarioResidentCeiling: a single-slot engine runs one sweep of
// two precisions over six seeds. Precision is not part of the scenario
// key and seeds nest inside precisions, so every one of the six
// scenarios stays wanted until the f32 cells run; the cache still
// holds at most maxResidentScenarios of them at any time.
func TestScenarioResidentCeiling(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	c := e.scenarios
	var peak int
	wanted := c.wanted
	c.wanted = func() map[string]bool {
		// Entries are added only under the lock that evicts, so the
		// count before each insert and at the end covers every state.
		c.mu.Lock()
		peak = max(peak, len(c.m))
		c.mu.Unlock()
		return wanted()
	}
	sw := residencySweep(1, "FedAvg")
	sw.Precisions = []string{"f64", "f32"}
	sw.Seeds = nil
	for seed := uint64(1); seed <= 6; seed++ {
		sw.Seeds = append(sw.Seeds, SeedSpec{Seed: seed})
	}
	b, err := e.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, b)
	c.mu.Lock()
	peak = max(peak, len(c.m))
	c.mu.Unlock()
	if peak > maxResidentScenarios {
		t.Fatalf("%d scenarios resident at peak, want at most %d", peak, maxResidentScenarios)
	}
	if n := e.metrics.scenarioBuild.Count(); n < 6 {
		t.Fatalf("a sweep over 6 scenarios built %d, want at least 6", n)
	}
}

// TestScenarioBuildParallelismInvariant builds one scenario at
// Parallelism 1 and at 3, which splits its fan-outs unevenly (four
// corpora, five clients): corpus generation, calibration, client
// encoding and the eval sets must all come out bit-identical. The
// parallel build runs three times, as one run's schedule may happen to
// hand every index to the calling goroutine.
func TestScenarioBuildParallelismInvariant(t *testing.T) {
	spec := tinySpec("FedAvg")
	spec.Split.Val = []int{2}
	spec.Clients, spec.SampleK = 5, 2
	a, err := buildScenario(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		b, err := buildScenario(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		sameScenario(t, a, b)
	}
}

// sameScenario fails t unless a (built at Parallelism 1) and b (at 3)
// hold the same bits.
func sameScenario(t *testing.T, a, b *Scenario) {
	t.Helper()
	sameBits := func(what string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: length %d at parallelism 1, %d at 3", what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s[%d]: %v at parallelism 1, %v at 3", what, i, x[i], y[i])
			}
		}
	}
	sameInts := func(what string, x, y []int) {
		t.Helper()
		if !slices.Equal(x, y) {
			t.Fatalf("%s differ: %v at parallelism 1, %v at 3", what, x, y)
		}
	}
	sameBits("FeatShift, FeatScale", []float64{a.Env.FeatShift, a.Env.FeatScale}, []float64{b.Env.FeatShift, b.Env.FeatScale})
	if len(a.Clients) != len(b.Clients) {
		t.Fatalf("%d clients at parallelism 1, %d at 3", len(a.Clients), len(b.Clients))
	}
	for k, ca := range a.Clients {
		cb := b.Clients[k]
		if len(ca.Features) != len(cb.Features) {
			t.Fatalf("client %d: %d samples at parallelism 1, %d at 3", k, len(ca.Features), len(cb.Features))
		}
		for i := range ca.Features {
			what := fmt.Sprintf("client %d sample %d", k, i)
			sameBits(what+" features", ca.Features[i].Data(), cb.Features[i].Data())
			sameBits(what+" style mu", ca.Styles[i].Mu, cb.Styles[i].Mu)
			sameBits(what+" style sigma", ca.Styles[i].Sigma, cb.Styles[i].Sigma)
		}
		sameInts(fmt.Sprintf("client %d labels", k), ca.Labels, cb.Labels)
	}
	for _, set := range []struct {
		name string
		a, b *fl.EvalSet
	}{{"val", a.Val, b.Val}, {"test", a.Test, b.Test}} {
		if set.a == nil || set.b == nil {
			t.Fatalf("%s set missing", set.name)
		}
		sameBits(set.name+" X", set.a.X.Data(), set.b.X.Data())
		sameInts(set.name+" labels", set.a.Labels, set.b.Labels)
		sameInts(set.name+" domains", set.a.Domains, set.b.Domains)
	}
}
