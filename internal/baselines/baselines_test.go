package baselines_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/partition"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/synth"
)

func buildClients(t *testing.T, n int) (*fl.Env, []*fl.Client) {
	t.Helper()
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.New(synth.PACSConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	c, h, w := enc.OutShape()
	env := &fl.Env{
		Enc:      enc,
		ModelCfg: nn.Config{In: c * h * w, Hidden: 16, ZDim: 8, Classes: 7},
		Hyper:    fl.DefaultHyper(),
		RNG:      rng.New(55),
	}
	var doms []*dataset.Dataset
	for _, d := range []int{0, 1} {
		ds, err := gen.GenerateDomain(d, 60, "bl")
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, ds)
	}
	if err := env.Calibrate(32, doms...); err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionByDomain(doms, partition.Options{NumClients: n, Lambda: 0.2}, env.RNG.Stream("part"))
	if err != nil {
		t.Fatal(err)
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		t.Fatal(err)
	}
	return env, clients
}

// Every baseline must complete a short federated run with finite weights.
func TestAllBaselinesRun(t *testing.T) {
	env, clients := buildClients(t, 6)
	algs := []fl.Algorithm{
		&baselines.FedAvg{},
		baselines.NewFedSR(),
		baselines.NewFedGMA(),
		baselines.NewFPL(),
		baselines.NewFedDGGA(),
		baselines.NewCCST(),
		baselines.NewCCSTSample(),
	}
	for _, alg := range algs {
		model, hist, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 3, SampleK: 3})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, v := range model.Vector() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite weights", alg.Name())
			}
		}
		if hist.Timing.AggregateCount != 3 {
			t.Fatalf("%s aggregated %d times", alg.Name(), hist.Timing.AggregateCount)
		}
	}
}

func TestNames(t *testing.T) {
	want := map[fl.Algorithm]string{
		&baselines.FedAvg{}:       "FedAvg",
		baselines.NewFedSR():      "FedSR",
		baselines.NewFedGMA():     "FedGMA",
		baselines.NewFPL():        "FPL",
		baselines.NewFedDGGA():    "FedDG-GA",
		baselines.NewCCST():       "CCST",
		baselines.NewCCSTSample(): "CCST-sample",
	}
	for alg, name := range want {
		if alg.Name() != name {
			t.Fatalf("name %q, want %q", alg.Name(), name)
		}
	}
}

// FedGMA: coordinates with full sign agreement keep the averaged update;
// coordinates with disagreement are hard-masked.
func TestFedGMAMasking(t *testing.T) {
	env, clients := buildClients(t, 2)
	g := baselines.NewFedGMA()
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Two updates: coord 0 agrees (+1,+1), coord 1 disagrees (+1,−1).
	u1, u2 := global.Clone(), global.Clone()
	u1.Vector()[0] += 1
	u2.Vector()[0] += 1
	u1.Vector()[1] += 1
	u2.Vector()[1] -= 1
	// Equal data sizes: use the same client twice.
	out, err := g.Aggregate(env, global, []*fl.Client{clients[0], clients[0]}, []*nn.Model{u1, u2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Vector()[0]-(global.Vector()[0]+1)) > 1e-9 {
		t.Fatalf("agreed coordinate not updated: %g", out.Vector()[0]-global.Vector()[0])
	}
	if math.Abs(out.Vector()[1]-global.Vector()[1]) > 1e-9 {
		t.Fatalf("disagreed coordinate not masked: moved %g", out.Vector()[1]-global.Vector()[1])
	}
}

// FedGMA pairs parts[i] with updates[i], so a count mismatch is an
// error, as it is for every FedAvg-based Aggregate: fewer parts than
// updates used to panic on an index out of range, and extra parts were
// silently ignored.
func TestFedGMARejectsMismatchedInputs(t *testing.T) {
	env, clients := buildClients(t, 3)
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	updates := []*nn.Model{global.Clone(), global.Clone()}
	for _, parts := range [][]*fl.Client{clients[:1], clients[:3]} {
		_, err := baselines.NewFedGMA().Aggregate(env, global, parts, updates, 0)
		want := fmt.Sprintf("fl: %d participants vs %d updates", len(parts), len(updates))
		if err == nil || err.Error() != want {
			t.Fatalf("%d parts, %d updates: error %v, want %q", len(parts), len(updates), err, want)
		}
	}
}

// FPL: aggregation publishes prototypes for observed classes only.
func TestFPLPrototypes(t *testing.T) {
	env, clients := buildClients(t, 4)
	f := baselines.NewFPL()
	if f.Prototypes() != nil {
		t.Fatal("prototypes before any round should be nil")
	}
	if _, _, err := fl.Run(env, f, clients, nil, nil, fl.RunConfig{Rounds: 2, SampleK: 3}); err != nil {
		t.Fatal(err)
	}
	protos := f.Prototypes()
	if protos == nil {
		t.Fatal("prototypes missing after training")
	}
	if protos.Dim(0) != 7 || protos.Dim(1) != 8 {
		t.Fatalf("prototype shape %v", protos.Shape())
	}
	live := 0
	for y := 0; y < 7; y++ {
		if protos.MustRow(y).Norm() > 0 {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no live prototypes")
	}
}

// FedDG-GA: clients with larger generalization gaps gain weight.
func TestFedDGGAWeightAdjustment(t *testing.T) {
	env, clients := buildClients(t, 2)
	g := baselines.NewFedDGGA()
	global, _ := nn.New(env.ModelCfg, rand.New(rand.NewSource(2)))
	// Train each client locally so their updates genuinely differ.
	u1, err := g.LocalTrain(env, clients[0], global, 0)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := g.LocalTrain(env, clients[1], global, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Aggregate(env, global, []*fl.Client{clients[0], clients[1]}, []*nn.Model{u1, u2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The adjusted aggregate differs from plain FedAvg.
	plain, err := new(fl.Averager).FedAvg([]*fl.Client{clients[0], clients[1]}, []*nn.Model{u1, u2})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	ov, pv := out.Vector(), plain.Vector()
	for i := range ov {
		d := ov[i] - pv[i]
		diff += d * d
	}
	if diff == 0 {
		t.Fatal("generalization adjustment had no effect")
	}
}

// CCST bank: overall mode shares one style per client; sample mode shares
// SamplesPerClient each; training must use only foreign styles.
func TestCCSTBankModes(t *testing.T) {
	env, clients := buildClients(t, 4)
	overall := baselines.NewCCST()
	if err := overall.Setup(env, clients); err != nil {
		t.Fatal(err)
	}
	bank := overall.Bank()
	if len(bank) != 4 {
		t.Fatalf("overall bank size %d, want 4", len(bank))
	}
	owners := map[int]int{}
	for _, e := range bank {
		owners[e.Owner]++
		if e.S.Channels() != 16 {
			t.Fatalf("style channels %d", e.S.Channels())
		}
	}
	for id, n := range owners {
		if n != 1 {
			t.Fatalf("client %d contributed %d overall styles", id, n)
		}
	}

	sample := baselines.NewCCSTSample()
	sample.SamplesPerClient = 3
	if err := sample.Setup(env, clients); err != nil {
		t.Fatal(err)
	}
	if got := len(sample.Bank()); got != 12 {
		t.Fatalf("sample bank size %d, want 12", got)
	}

	// Bank copies are defensive.
	bank[0].S.Mu[0] = 1e9
	if overall.Bank()[0].S.Mu[0] == 1e9 {
		t.Fatal("Bank leaks internal state")
	}
}

// FedSR's strong representation regularization shrinks embeddings
// relative to FedAvg — the mechanism behind its collapse at scale.
func TestFedSRShrinksEmbeddings(t *testing.T) {
	env, clients := buildClients(t, 4)
	run := func(alg fl.Algorithm) float64 {
		model, _, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 6, SampleK: 4})
		if err != nil {
			t.Fatal(err)
		}
		z, err := model.Embed(clients[0].RowsInto(nil, clients[0].Len()))
		if err != nil {
			t.Fatal(err)
		}
		return z.Norm()
	}
	avgNorm := run(&baselines.FedAvg{})
	srNorm := run(baselines.NewFedSR())
	if srNorm >= avgNorm {
		t.Fatalf("FedSR embedding norm %g should be below FedAvg's %g", srNorm, avgNorm)
	}
}
