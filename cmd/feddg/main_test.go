package main

import (
	"context"
	"os"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// TestSaveModelsCountsMissingCheckpoints: a done job whose checkpoint
// the store no longer holds is counted, not skipped in silence.
func TestSaveModelsCountsMissingCheckpoints(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var keys []string
	for _, seed := range []uint64{1, 2} {
		j, err := eng.Submit(engine.Spec{
			Method: "FedAvg", Dataset: "PACS", GenSeed: 12,
			Split:  engine.SplitSpec{Name: "save", Train: []int{0, 1}, Test: []int{3}},
			Lambda: 0.1, Clients: 2, SampleK: 2, Rounds: 1, PerDomain: 24, EvalPer: 12,
			Seed: seed,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, j.Key)
	}
	eng.Store().DropBlob(keys[0]) // as if evicted over the memory budget

	dir := t.TempDir()
	written, missing, err := saveModels(eng, dir)
	if err != nil {
		t.Fatal(err)
	}
	if written != 1 || missing != 1 {
		t.Fatalf("saveModels wrote %d and found %d missing, want 1 and 1", written, missing)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Fatalf("%d files exported, want 1", len(files))
	}
}
