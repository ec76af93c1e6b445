package fl_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// oracleMethods are the seven Table-I methods and the PARDON ablation
// rows v1…v5 of Table V.
var oracleMethods = []string{"FedAvg", "FedSR", "FedGMA", "FPL", "FedDG-GA", "CCST", "PARDON",
	"PARDON-v1", "PARDON-v2", "PARDON-v3", "PARDON-v4", "PARDON-v5"}

func newOracleMethod(t *testing.T, name string) fl.Algorithm {
	t.Helper()
	switch name {
	case "FedAvg":
		return &baselines.FedAvg{}
	case "FedSR":
		return baselines.NewFedSR()
	case "FedGMA":
		return baselines.NewFedGMA()
	case "FPL":
		return baselines.NewFPL()
	case "FedDG-GA":
		return baselines.NewFedDGGA()
	case "CCST":
		return baselines.NewCCST()
	case "PARDON":
		return core.New(core.DefaultOptions())
	}
	opts, err := core.VariantOptions(name[len("PARDON-"):])
	if err != nil {
		t.Fatal(err)
	}
	return core.New(opts)
}

// withClip returns body with its clip threshold replaced: "own" keeps
// the method's (FedSR clips at 5, the rest not at all), "off" is 0 and
// "on" a threshold every batch's gradient exceeds.
func withClip(body fl.LocalSGDBody, mode string) fl.LocalSGDBody {
	return func(env *fl.Env, c *fl.Client, global *nn.Model, r *rand.Rand, clip float64,
		step func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error) (*nn.Model, error) {
		switch mode {
		case "off":
			clip = 0
		case "on":
			clip = 1e-3
		}
		return body(env, c, global, r, clip, step)
	}
}

// TestLocalSGDMatchesLegacyLoop trains every method through the fused
// local loop and through the historical one (fl.LegacyLocalSGD: clone,
// per-batch gradient zeroing, two-pass clipped step) and requires the
// returned parameter arenas to be equal bit for bit, at both
// precisions, with clipping as the method sets it, off and on. Two
// rounds run, with an aggregation between them, so the second meets
// recycled (dirty) arenas, velocities and gradients and the methods'
// round state (FPL's prototypes, FedDG-GA's weights). The global model
// must come back unchanged from the fused loop, which reads it in
// place of a clone.
func TestLocalSGDMatchesLegacyLoop(t *testing.T) {
	base, clients := makeClients(t, 3, 40)
	base.Hyper.BatchSize = 16
	base.Hyper.LocalEpochs = 2
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		for _, name := range oracleMethods {
			for _, mode := range []string{"own", "off", "on"} {
				t.Run(fmt.Sprintf("%s/%s/clip=%s", prec, name, mode), func(t *testing.T) {
					env := *base
					env.ModelCfg.Precision = prec
					alg := newOracleMethod(t, name)
					if err := alg.Setup(&env, clients); err != nil {
						t.Fatal(err)
					}
					global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(5)))
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 2; round++ {
						before := append([]float64(nil), global.Vector()...)
						global.SyncShadow()
						train := func(body fl.LocalSGDBody) []*nn.Model {
							defer fl.SetLocalSGD(withClip(body, mode))()
							out := make([]*nn.Model, len(clients))
							for i, c := range clients {
								if out[i], err = alg.LocalTrain(&env, c, global, round); err != nil {
									t.Fatal(err)
								}
							}
							return out
						}
						want := train(fl.LegacyLocalSGD)
						got := train(fl.SweepLocalSGD)
						for i := range got {
							gv, wv := got[i].Vector(), want[i].Vector()
							for j := range wv {
								if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
									t.Fatalf("round %d client %d: param %d is %g, the legacy loop's %g", round, i, j, gv[j], wv[j])
								}
							}
						}
						for j, v := range global.Vector() {
							if math.Float64bits(v) != math.Float64bits(before[j]) {
								t.Fatalf("round %d: the fused loop wrote the global model at param %d", round, j)
							}
						}
						next, err := alg.Aggregate(&env, global, clients, got, round)
						if err != nil {
							t.Fatal(err)
						}
						global = next.Clone()
						for i := range got {
							got[i].Release()
							want[i].Release()
						}
					}
				})
			}
		}
	}
}

// makeClients builds n single-domain clients of per samples each (domain
// i mod 4 of the PACS preset) over testEnv's encoder and model, with the
// feature standardization calibrated on them.
func makeClients(t *testing.T, n, per int) (*fl.Env, []*fl.Client) {
	t.Helper()
	env, gen := testEnv(t)
	var dss []*dataset.Dataset
	for i := 0; i < n; i++ {
		ds, err := gen.GenerateDomain(i%4, per, fmt.Sprintf("oracle-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		dss = append(dss, ds)
	}
	if err := env.Calibrate(32, dss...); err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, n)
	for i, ds := range dss {
		var err error
		if clients[i], err = fl.NewClient(env, i, ds); err != nil {
			t.Fatal(err)
		}
	}
	return env, clients
}
