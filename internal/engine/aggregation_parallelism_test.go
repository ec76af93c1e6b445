package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestAggregationParallelismInvariant pins the server steps that fan
// out over fl.Env.ForEach — FedGMA, FedDG-GA and FPL — to one result
// whatever the engine's per-job Parallelism. Each method trains at both
// precisions with K = 4 sampled participants, once on an engine built
// with Parallelism 1 and once on one built with 2 (the bound is outside
// the content-address, so one engine would serve the second run from its
// cache). The checkpoint blobs must match each other and the digests
// recorded before the fan-out existed. TestCheckpointBlobsGolden samples
// only K = 2.
func TestAggregationParallelismInvariant(t *testing.T) {
	want := map[string]string{
		"FedGMA/f64":   "53e5e1aafb5b2bf8e65864510d9d1d3165da52d348eb806402a40a9f52cbadbc",
		"FedGMA/f32":   "31c64b2b7822e9d6c34e97e1d651ef757bcac07fe9335519355fe62fd6d5f847",
		"FPL/f64":      "6ce5ab73756bf8d4065c68f8e270150544f67f1e49a018367b9329d56f3a3e4e",
		"FPL/f32":      "f3e08dbae4dfe11eb1b073064ab0321be0cc1c7102759d75920bce5fbcaf6eae",
		"FedDG-GA/f64": "99be3778fb81d0032c43ff29f857dd561fef18e006789fbe6c9f8ded52d057df",
		"FedDG-GA/f32": "36653e4dfb56f58a13ee958cdbf53905200bb95540a0584f400abde0ff999669",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for _, par := range []int{1, 2} {
		e := newTestEngine(t, Options{Workers: 1, Parallelism: par})
		for _, method := range []string{"FedGMA", "FPL", "FedDG-GA"} {
			for _, prec := range []string{"f64", "f32"} {
				spec := tinySpec(method)
				spec.Clients, spec.SampleK = 4, 4
				spec.Precision = prec
				spec.Tag = "aggregation-parallelism"
				j, err := e.Submit(spec, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := j.Wait(ctx); err != nil {
					t.Fatalf("%s/%s at parallelism %d: %v", method, prec, par, err)
				}
				blob, ok, err := e.ModelBlob(j.Key)
				if err != nil || !ok {
					t.Fatalf("%s/%s at parallelism %d: checkpoint blob missing: ok=%v err=%v", method, prec, par, ok, err)
				}
				sum := sha256.Sum256(blob)
				name := method + "/" + prec
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s at parallelism %d: checkpoint digest = %s, want %s", name, par, got, want[name])
				}
			}
		}
	}
}
