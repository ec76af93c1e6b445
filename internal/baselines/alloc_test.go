package baselines_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/synth"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop puts at random, so recycled buffers reallocate by design there.
var raceEnabled bool

// localTrainByteBound is the most a warm LocalTrain call may allocate.
// With the train-grid model (1024 → 64 → 32 → 7) one batch of inputs
// is 256 KiB, a 16-row hidden activation 8 KiB, an embedding gradient
// 8 KiB and the model 543 KB, so any of them reallocated per call
// breaks the bound. What remains is the call's RNG stream (8 KiB), the
// shuffled batch indices, the kernel dispatches' closures and, for
// FedSR, its class means.
const localTrainByteBound = 16 << 10

// TestLocalTrainReusesBuffers is the allocation guard of the local
// training step: after one warm-up call, LocalTrain of FedAvg, FedSR,
// FPL (with prototypes set by an aggregation), CCST and PARDON on a
// 48-sample client (a 32-row batch, then a 16-row one) recycles its
// model arena, gradients, optimizer state, activations, batch rows and
// loss-head buffers, at both precisions. The collector is off and the
// test runs on one P while it measures, so the recycling pools
// (sync.Pool hands an item back only on the P that released it, or
// after a steal) keep and return what the previous call released.
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
	var dss []*dataset.Dataset
	for d := 0; d < 2; d++ {
		ds, err := gen.GenerateDomain(d, 48, "alloc")
		if err != nil {
			t.Fatal(err)
		}
		dss = append(dss, ds)
	}
	c, h, w := enc.OutShape()
	methods := []struct {
		name string
		alg  func() fl.Algorithm
	}{
		{"FedAvg", func() fl.Algorithm { return &baselines.FedAvg{} }},
		{"FedSR", func() fl.Algorithm { return baselines.NewFedSR() }},
		{"FPL", func() fl.Algorithm { return baselines.NewFPL() }},
		{"CCST", func() fl.Algorithm { return baselines.NewCCST() }},
		{"PARDON", func() fl.Algorithm { return core.New(core.DefaultOptions()) }},
	}
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		t.Run(prec.String(), func(t *testing.T) {
			env := &fl.Env{
				Enc:      enc,
				ModelCfg: nn.Config{In: c * h * w, Hidden: 64, ZDim: 32, Classes: 7, Precision: prec},
				Hyper:    fl.DefaultHyper(),
				RNG:      rng.New(3),
			}
			if err := env.Calibrate(32, dss...); err != nil {
				t.Fatal(err)
			}
			clients, err := fl.NewClients(env, dss)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				t.Run(m.name, func(t *testing.T) {
					alg := m.alg()
					if err := alg.Setup(env, clients); err != nil {
						t.Fatal(err)
					}
					global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(1)))
					if err != nil {
						t.Fatal(err)
					}
					// One aggregated round first, so FPL trains against
					// prototypes; the global is its output.
					updates := make([]*nn.Model, len(clients))
					for i, cl := range clients {
						if updates[i], err = alg.LocalTrain(env, cl, global, 0); err != nil {
							t.Fatal(err)
						}
					}
					next, err := alg.Aggregate(env, global, clients, updates, 0)
					if err != nil {
						t.Fatal(err)
					}
					global = next.Clone()
					for _, u := range updates {
						u.Release()
					}
					train := func(round int) {
						m, err := alg.LocalTrain(env, clients[0], global, round)
						if err != nil {
							t.Fatal(err)
						}
						m.Release()
					}
					defer debug.SetGCPercent(debug.SetGCPercent(-1))
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					train(1)
					const calls = 20
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for round := 2; round < 2+calls; round++ {
						train(round)
					}
					runtime.ReadMemStats(&after)
					perCall := (after.TotalAlloc - before.TotalAlloc) / calls
					t.Logf("%s %s LocalTrain: %d B/call", prec, m.name, perCall)
					if perCall > localTrainByteBound {
						t.Fatalf("%s %s LocalTrain allocated %d B/call after warm-up, want ≤ %d", prec, m.name, perCall, localTrainByteBound)
					}
				})
			}
		})
	}
}

// TestFedGMAAggregateBytesConstant bounds a warm FedGMA server step at
// Parallelism 2, where its sweep splits into column ranges: the ranges
// share the recycled scratch and output arena, so a call allocates only
// the fan-out's closure and goroutine state, under a kilobyte at any
// parameter count (the bound leaves room for the runtime's own). One
// parameter vector of the wider model below is over 2 MB.
func TestFedGMAAggregateBytesConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the fan-out's goroutines")
	}
	env, clients := buildClients(t, 4)
	env.Parallelism = 2
	for _, hidden := range []int{16, 256} {
		cfg := env.ModelCfg
		cfg.Hidden = hidden
		global, err := nn.New(cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		updates := make([]*nn.Model, len(clients))
		for i := range updates {
			updates[i] = global.Clone()
			r := rand.New(rand.NewSource(int64(2 + i)))
			uv := updates[i].Vector()
			for j := range uv {
				uv[j] += r.NormFloat64() * 0.01
			}
		}
		g := baselines.NewFedGMA()
		aggregate := func() {
			if _, err := g.Aggregate(env, global, clients, updates, 0); err != nil {
				t.Fatal(err)
			}
		}
		aggregate()
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			aggregate()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("hidden %d (%d params): %d B/call", hidden, global.NumParams(), perCall)
		if perCall > 4<<10 {
			t.Fatalf("hidden %d: FedGMA Aggregate allocated %d B/call after warm-up, want ≤ 4096", hidden, perCall)
		}
	}
}
