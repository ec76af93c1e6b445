package engine

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// tinySweep is a methods × seeds grid over the tinySpec base.
func tinySweep(methods []string, seeds ...uint64) Sweep {
	base := tinySpec("FedAvg")
	base.Method = ""
	base.Seed = 0
	axis := make([]SeedSpec, len(seeds))
	for i, s := range seeds {
		axis[i] = SeedSpec{Seed: s}
	}
	return Sweep{Base: base, Methods: methods, Seeds: axis}
}

func TestSweepExpandOrder(t *testing.T) {
	sw := tinySweep([]string{"FedAvg", "PARDON"}, 1, 2)
	if got := sw.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Fixed nesting: seeds outer, methods inner.
	want := []struct {
		seed   uint64
		method string
	}{{1, "FedAvg"}, {1, "PARDON"}, {2, "FedAvg"}, {2, "PARDON"}}
	if len(specs) != len(want) {
		t.Fatalf("expanded %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		if specs[i].Seed != w.seed || specs[i].Method != w.method {
			t.Errorf("cell %d = (%d, %s), want (%d, %s)",
				i, specs[i].Seed, specs[i].Method, w.seed, w.method)
		}
	}
}

func TestSweepExpandAxesOverrideBase(t *testing.T) {
	base := tinySpec("FedAvg")
	sw := Sweep{
		Base:    base,
		Lambdas: []float64{0.0, 0.5},
		Hiddens: [][]int{nil, {32, 16}},
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d specs, want 4", len(specs))
	}
	// Lambda is outer of Hidden; base fields carry through unchanged.
	if specs[0].Lambda != 0.0 || specs[3].Lambda != 0.5 {
		t.Fatalf("lambda order wrong: %+v", specs)
	}
	if len(specs[1].Hidden) != 2 || specs[1].Hidden[0] != 32 {
		t.Fatalf("hidden axis not applied: %+v", specs[1].Hidden)
	}
	for _, sp := range specs {
		if sp.Method != base.Method || sp.Clients != base.Clients {
			t.Fatalf("base field lost in expansion: %+v", sp)
		}
	}
}

func TestSweepExpandValidatesCells(t *testing.T) {
	sw := tinySweep([]string{"FedAvg", "NoSuchMethod"}, 1)
	if _, err := sw.Expand(); err == nil {
		t.Fatal("invalid grid cell accepted")
	}
	// A grid over the cap is rejected before any expansion work.
	big := tinySweep([]string{"FedAvg"}, 1)
	big.Seeds = make([]SeedSpec, MaxSweepSpecs+1)
	if _, err := big.Expand(); err == nil {
		t.Fatal("oversized sweep accepted")
	}
	// Many huge axes must clamp, not overflow the size product back
	// under the cap (a remote submission could otherwise DoS expansion).
	huge := Sweep{
		Base:    tinySpec("FedAvg"),
		Methods: make([]string, 1<<17),
		Lambdas: make([]float64, 1<<17),
		Clients: make([]int, 1<<17),
		Seeds:   make([]SeedSpec, 1<<17),
	}
	if n := huge.Size(); n <= MaxSweepSpecs {
		t.Fatalf("overflowing grid reported size %d", n)
	}
	if _, err := huge.Expand(); err == nil {
		t.Fatal("overflowing sweep accepted")
	}
}

func TestSeedSpecJSONForms(t *testing.T) {
	var sw Sweep
	raw := []byte(`{"base":{},"seeds":[7,{"seed":8,"gen_seed":99}]}`)
	if err := json.Unmarshal(raw, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Seeds) != 2 || sw.Seeds[0] != (SeedSpec{Seed: 7}) || sw.Seeds[1] != (SeedSpec{Seed: 8, GenSeed: 99}) {
		t.Fatalf("seeds = %+v", sw.Seeds)
	}
}

// TestSubmitSweepDedupAndGridOrder: duplicate grid cells (spellings of
// the same content-address) share one job, while per-cell results keep
// grid order.
func TestSubmitSweepDedupAndGridOrder(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	base := tinySpec("FedAvg")
	base.Hidden = nil
	sw := Sweep{
		Base: base,
		// nil and the explicit default width normalize to one address.
		Hiddens: [][]int{nil, {64}},
	}
	b, err := e.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 2 || len(b.Unique()) != 1 {
		t.Fatalf("size=%d unique=%d, want 2 cells sharing 1 job", b.Size(), len(b.Unique()))
	}
	if b.Jobs()[0] != b.Jobs()[1] {
		t.Fatal("duplicate cells did not alias one job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	results, err := b.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0] != results[1] {
		t.Fatalf("per-cell results = %v", results)
	}
	counts := b.Counts()
	if counts.Total != 2 || counts.Unique != 1 || counts.Done != 1 || !counts.Terminal() {
		t.Fatalf("counts = %+v", counts)
	}
}

// TestSubmitSweepCachedResubmitZeroRounds is the sweep acceptance
// check: re-submitting an identical grid must be answered entirely from
// the result store without training a single federated round.
func TestSubmitSweepCachedResubmitZeroRounds(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	sw := tinySweep([]string{"FedAvg", "PARDON"}, 1)
	b1, err := e.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	r1, err := b1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rounds := e.Stats().RoundsExecuted
	if rounds == 0 {
		t.Fatal("first sweep trained no rounds")
	}

	b2, err := e.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RoundsExecuted; got != rounds {
		t.Fatalf("cached sweep trained %d extra rounds", got-rounds)
	}
	if c := b2.Counts(); c.Cached != c.Unique {
		t.Fatalf("counts = %+v, want every job cached", c)
	}
	for i := range r1 {
		if r1[i].Final() != r2[i].Final() {
			t.Fatalf("cell %d differs across resubmission", i)
		}
	}
	if b1.ID == b2.ID || b1.ID == "" {
		t.Fatalf("batch IDs = %q, %q", b1.ID, b2.ID)
	}
	if got, ok := e.Batch(b1.ID); !ok || got != b1 {
		t.Fatal("batch registry lookup failed")
	}
}

// TestBatchEventsMerged: the merged stream carries events from every
// sweep job and closes once all are terminal.
func TestBatchEventsMerged(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	sw := tinySweep([]string{"FedAvg", "PARDON"}, 1)
	b, err := e.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	events := b.Events(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	seen := map[string]State{}
	for ev := range events {
		seen[ev.JobID] = ev.State
	}
	if len(seen) != len(b.Unique()) {
		t.Fatalf("events from %d jobs, want %d", len(seen), len(b.Unique()))
	}
	for id, st := range seen {
		if st != StateDone {
			t.Fatalf("job %s last event state = %s, want done", id, st)
		}
	}
}

// TestBatchCancel: cancelling a batch aborts its queued and running
// solely-owned jobs.
func TestBatchCancel(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	gate := make(chan struct{})
	stubRuns(e, map[string]stubRun{"batch-cancel-gate": func(ctx context.Context, _ *Job) (*Result, error) {
		select {
		case <-gate:
			return &Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if _, err := e.Submit(stubSpec("batch-cancel-gate"), 10); err != nil {
		t.Fatal(err)
	}
	sw := tinySweep([]string{"FedAvg", "PARDON"}, 1)
	b, err := e.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Cancel()
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := b.Wait(ctx); err == nil {
		t.Fatal("cancelled batch returned results")
	}
	counts := b.Counts()
	if counts.Cancelled != counts.Unique {
		t.Fatalf("counts = %+v, want all jobs cancelled", counts)
	}
}
