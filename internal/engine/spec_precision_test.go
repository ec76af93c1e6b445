package engine

import (
	"context"
	"testing"
	"time"
)

// TestPrecisionHashSemantics pins the content-address rules of the
// precision knob: "f64" and "" are one address, "f32" is another, and
// the scenario key — which addresses only the data — ignores all of it.
func TestPrecisionHashSemantics(t *testing.T) {
	def := tinySpec("FedAvg")
	f64 := tinySpec("FedAvg")
	f64.Precision = "f64"
	f32 := tinySpec("FedAvg")
	f32.Precision = "f32"

	hDef, err := def.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hF64, _ := f64.Hash()
	hF32, _ := f32.Hash()
	if hDef != hF64 {
		t.Errorf("explicit f64 hashes differently from the default: %q vs %q", hF64, hDef)
	}
	if hF32 == hDef {
		t.Error("f32 shares the default's hash; precision must split the cache")
	}

	kDef, err := def.scenarioKey()
	if err != nil {
		t.Fatal(err)
	}
	kF32, _ := f32.scenarioKey()
	if kDef != kF32 {
		t.Error("precision leaked into the scenario key; the data is dtype-independent")
	}

	bad := tinySpec("FedAvg")
	bad.Precision = "f16"
	if err := bad.Validate(); err == nil {
		t.Error("unknown precision spelling accepted")
	}
}

// TestSweepPrecisionAxis checks expansion of the Precisions axis and its
// place in the nesting order (outside Seeds, inside Hiddens).
func TestSweepPrecisionAxis(t *testing.T) {
	sw := Sweep{
		Base:       tinySpec("FedAvg"),
		Precisions: []string{"f64", "f32"},
		Seeds:      []SeedSpec{{Seed: 1}, {Seed: 2}},
	}
	if got := sw.Size(); got != 4 {
		t.Fatalf("Size() = %d, want 4", got)
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		prec string
		seed uint64
	}{{"f64", 1}, {"f64", 2}, {"f32", 1}, {"f32", 2}}
	for i, w := range want {
		if specs[i].Precision != w.prec || specs[i].Seed != w.seed {
			t.Errorf("cell %d = (%q, %d), want (%q, %d)",
				i, specs[i].Precision, specs[i].Seed, w.prec, w.seed)
		}
	}
	bad := Sweep{Base: tinySpec("FedAvg"), Precisions: []string{"f31"}}
	if _, err := bad.Expand(); err == nil {
		t.Error("invalid precision cell accepted")
	}
}

// TestPrecisionPerturbsButTracksF64 compares a full f64 run against the
// identical f32 run at the Result level: the accuracies must be close
// (the tolerance contract) but the Specs memoize under different keys.
func TestPrecisionPerturbsButTracksF64(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	run := func(prec string) *Result {
		sp := tinySpec("FedAvg")
		sp.Precision = prec
		j, err := e.Submit(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r64 := run("")
	r32 := run("f32")
	diff := r64.Final().TestAcc - r32.Final().TestAcc
	if diff < 0 {
		diff = -diff
	}
	// Two rounds on a tiny corpus: float32 rounding may flip a few
	// borderline predictions, but the trajectories must stay close.
	if diff > 0.15 {
		t.Errorf("f32 accuracy %g diverges from f64 %g by %g",
			r32.Final().TestAcc, r64.Final().TestAcc, diff)
	}
}
