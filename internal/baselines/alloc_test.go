package baselines_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/synth"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop puts at random, so recycled buffers reallocate by design there.
var raceEnabled bool

// localTrainByteBound is the most a warm FedAvg LocalTrain call may
// allocate. With the train-grid model (1024 → 64 → 32 → 7) one batch of
// inputs is 256 KiB, a 16-row hidden activation 8 KiB and the model
// 543 KB, so any of them reallocated per call breaks the bound. What
// remains, about 13 KiB, is the call's RNG stream (8 KiB), the loss
// layer's softmax and logit gradients (5 KiB), the shuffled batch
// indices and the kernel dispatches' closures.
const localTrainByteBound = 16 << 10

// TestLocalTrainReusesBuffers is the allocation guard of the local
// training step: after one warm-up call, FedAvg's LocalTrain on a
// 48-sample client (a 32-row batch, then a 16-row one) recycles its
// model clone, gradients, optimizer state, activations and batch rows,
// at both precisions. The collector is off and the test runs on one P
// while it measures, so the recycling pools (sync.Pool hands an item
// back only on the P that released it, or after a steal) keep and
// return what the previous call released.
func TestLocalTrainReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts")
	}
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.New(synth.PACSConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.GenerateDomain(0, 48, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	c, h, w := enc.OutShape()
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		t.Run(prec.String(), func(t *testing.T) {
			env := &fl.Env{
				Enc:      enc,
				ModelCfg: nn.Config{In: c * h * w, Hidden: 64, ZDim: 32, Classes: 7, Precision: prec},
				Hyper:    fl.DefaultHyper(),
				RNG:      rng.New(3),
			}
			if err := env.Calibrate(32, ds); err != nil {
				t.Fatal(err)
			}
			client, err := fl.NewClient(env, 0, ds)
			if err != nil {
				t.Fatal(err)
			}
			global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			alg := &baselines.FedAvg{}
			train := func(round int) {
				m, err := alg.LocalTrain(env, client, global, round)
				if err != nil {
					t.Fatal(err)
				}
				m.Release()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			train(0)
			const calls = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for round := 1; round <= calls; round++ {
				train(round)
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("%s LocalTrain: %d B/call", prec, perCall)
			if perCall > localTrainByteBound {
				t.Fatalf("%s LocalTrain allocated %d B/call after warm-up, want ≤ %d", prec, perCall, localTrainByteBound)
			}
		})
	}
}
