package engine

import (
	"context"
	"testing"

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
