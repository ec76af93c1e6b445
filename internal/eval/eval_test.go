package eval_test

import (
	"testing"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/eval"
)

func TestParseScale(t *testing.T) {
	if s, err := eval.ParseScale("small"); err != nil || s != eval.Small {
		t.Fatalf("small: %v %v", s, err)
	}
	if s, err := eval.ParseScale(""); err != nil || s != eval.Small {
		t.Fatalf("default: %v %v", s, err)
	}
	if s, err := eval.ParseScale("paper"); err != nil || s != eval.Paper {
		t.Fatalf("paper: %v %v", s, err)
	}
	if _, err := eval.ParseScale("huge"); err == nil {
		t.Fatal("unknown scale should error")
	}
}

func TestNewAlgorithmRegistry(t *testing.T) {
	names := append(eval.MethodNames(), "FedAvg", "CCST-sample",
		"PARDON-v1", "PARDON-v2", "PARDON-v3", "PARDON-v4", "PARDON-v5")
	for _, n := range names {
		alg, err := engine.NewAlgorithm(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if alg.Name() == "" {
			t.Fatalf("%s has empty name", n)
		}
	}
	if _, err := engine.NewAlgorithm("Unknown"); err == nil {
		t.Fatal("unknown method should error")
	}
	if _, err := engine.NewAlgorithm("PARDON-v9"); err == nil {
		t.Fatal("unknown variant should error")
	}
}

func TestMethodNamesOrder(t *testing.T) {
	names := eval.MethodNames()
	if len(names) != 6 || names[0] != "FedSR" || names[5] != "PARDON" {
		t.Fatalf("method order = %v", names)
	}
}

// TestRunAblationSmoke exercises the Table V runner end to end at reduced
// scale; among other things it verifies every PARDON variant trains under
// the shared scenario builder.
func TestRunAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run is not short")
	}
	res, err := eval.RunAblation(eval.Config{Scale: eval.Small, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("variants = %v", res.Variants)
	}
	for _, v := range res.Variants {
		if res.Test[v] <= 0 || res.Test[v] > 1 {
			t.Fatalf("%s test acc = %g", v, res.Test[v])
		}
	}
	if res.Table().Render() == "" {
		t.Fatal("empty table")
	}
}

// TestRunOverheadSmoke checks the Fig. 4 shape: PARDON pays a one-time
// setup cost and keeps aggregation as cheap as FedAvg's, while FedDG-GA's
// aggregation is the most expensive (extra server-side evaluations).
func TestRunOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead run is not short")
	}
	res, err := eval.RunOverhead(eval.Config{Scale: eval.Small, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.OneTime["PARDON"] <= 0 {
		t.Errorf("PARDON one-time cost = %g, want > 0", res.OneTime["PARDON"])
	}
	if res.OneTime["FedGMA"] > 1e-3 {
		t.Errorf("FedGMA should have a negligible one-time cost, got %gs", res.OneTime["FedGMA"])
	}
	if res.OneTime["PARDON"] < 10*res.OneTime["FedGMA"] {
		t.Errorf("PARDON's one-time cost (%gs) should dominate FedGMA's no-op setup (%gs)",
			res.OneTime["PARDON"], res.OneTime["FedGMA"])
	}
	if res.AvgAggregate["FedDG-GA"] <= res.AvgAggregate["PARDON"] {
		t.Errorf("FedDG-GA aggregation (%g) should exceed PARDON's (%g)",
			res.AvgAggregate["FedDG-GA"], res.AvgAggregate["PARDON"])
	}
}

// TestStyleTransferComparisonSmoke checks the Fig. 8 shape: CCST's
// transfers are distinguishable across targets and leak target styles;
// PARDON's are not and do not.
func TestStyleTransferComparisonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 run is not short")
	}
	res, err := eval.RunStyleTransferComparison(eval.Config{Scale: eval.Small, Seed: 7}, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.PARDONCrossTarget != 0 {
		t.Errorf("PARDON cross-target distance = %g, want 0 (single fused target)", res.PARDONCrossTarget)
	}
	if res.CCSTCrossTarget <= res.PARDONCrossTarget {
		t.Errorf("CCST cross-target %g should exceed PARDON's %g", res.CCSTCrossTarget, res.PARDONCrossTarget)
	}
	if res.CCSTTargetLeakage >= res.PARDONTargetLeakage {
		t.Errorf("CCST leakage %g should be below PARDON's %g (CCST outputs match target styles)",
			res.CCSTTargetLeakage, res.PARDONTargetLeakage)
	}
}
