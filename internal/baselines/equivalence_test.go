package baselines_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/testref"
)

// The tests below are the old-vs-new aggregation equivalence suite of
// the parameter-arena refactor: every method's Aggregate now runs fused
// whole-arena sweeps, and each is pinned bit-identical to a reference
// implementation of the historical per-tensor/ParamVector path.

// perturbedUpdates builds deterministic client updates around a shared
// global model (what LocalTrain would hand the server, minus the cost of
// actually training).
func perturbedUpdates(t *testing.T, global *nn.Model, k int) []*nn.Model {
	t.Helper()
	updates := make([]*nn.Model, k)
	for i := range updates {
		u := global.Clone()
		r := rand.New(rand.NewSource(int64(1000 + i)))
		uv := u.Vector()
		for j := range uv {
			uv[j] += r.NormFloat64() * 0.01
		}
		// A few exact zero deltas so FedGMA's sign walk sees all cases.
		uv[i] = global.Vector()[i]
		updates[i] = u
	}
	return updates
}

// legacyAverage is the pre-refactor reference: clone, zero, per-tensor
// AddScaled accumulation (shared with the other equivalence suites).
func legacyAverage(t *testing.T, models []*nn.Model, weights []float64) *nn.Model {
	t.Helper()
	out, err := testref.LegacyWeightedAverage(models, weights)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sizeWeights(parts []*fl.Client) []float64 {
	w := make([]float64, len(parts))
	for i, c := range parts {
		w[i] = float64(c.Len())
	}
	return w
}

func assertBitIdentical(t *testing.T, name string, got, want *nn.Model) {
	t.Helper()
	gv, wv := got.Vector(), want.Vector()
	if len(gv) != len(wv) {
		t.Fatalf("%s: param counts differ: %d vs %d", name, len(gv), len(wv))
	}
	for j := range gv {
		if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
			t.Fatalf("%s: aggregation diverges from the legacy path at param %d: %g vs %g", name, j, gv[j], wv[j])
		}
	}
}

// TestFedAvgFamilyAggregationMatchesLegacy covers the five methods whose
// server step is the size-weighted average — FedAvg, FedSR, FPL, CCST,
// and PARDON — against the per-tensor reference, bit for bit.
func TestFedAvgFamilyAggregationMatchesLegacy(t *testing.T) {
	env, clients := buildClients(t, 4)
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	updates := perturbedUpdates(t, global, len(clients))
	want := legacyAverage(t, updates, sizeWeights(clients))

	algs := []fl.Algorithm{
		&baselines.FedAvg{},
		baselines.NewFedSR(),
		baselines.NewFPL(),
		baselines.NewCCST(),
		core.New(core.DefaultOptions()),
	}
	for _, alg := range algs {
		got, err := alg.Aggregate(env, global, clients, updates, 0)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		assertBitIdentical(t, alg.Name(), got, want)
	}
}

// legacyFedGMA is the pre-refactor FedGMA server step: flat parameter
// vectors, materialized per-client delta vectors, coordinate-outer loop.
func legacyFedGMA(g *baselines.FedGMA, global *nn.Model, parts []*fl.Client, updates []*nn.Model) *nn.Model {
	gv := global.Vector()
	n := len(gv)
	deltas := make([][]float64, len(updates))
	weights := make([]float64, len(updates))
	totalW := 0.0
	for i, u := range updates {
		uv := u.Vector()
		d := make([]float64, n)
		for j := range d {
			d[j] = uv[j] - gv[j]
		}
		deltas[i] = d
		weights[i] = float64(parts[i].Len())
		totalW += weights[i]
	}
	for i := range weights {
		weights[i] /= totalW
	}
	out := global.Clone()
	ov := out.Vector()
	for j := 0; j < n; j++ {
		avg := 0.0
		signSum := 0.0
		for i := range deltas {
			dj := deltas[i][j]
			avg += weights[i] * dj
			switch {
			case dj > 0:
				signSum += weights[i]
			case dj < 0:
				signSum -= weights[i]
			}
		}
		agreement := math.Abs(signSum)
		scale := g.ServerLR
		if agreement < g.Tau {
			scale *= g.MaskedScale
		}
		ov[j] = gv[j] + scale*avg
	}
	return out
}

func TestFedGMAAggregationMatchesLegacy(t *testing.T) {
	env, clients := buildClients(t, 5)
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	updates := perturbedUpdates(t, global, len(clients))
	g := baselines.NewFedGMA()
	want := legacyFedGMA(g, global, clients, updates)
	got, err := g.Aggregate(env, global, clients, updates, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, g.Name(), got, want)

	// A second round through the same instance (scratch now warm, and
	// the previous output is this round's global) must stay identical.
	global2 := got.Clone()
	updates2 := perturbedUpdates(t, global2, len(clients))
	want2 := legacyFedGMA(g, global2, clients, updates2)
	got2, err := g.Aggregate(env, global2, clients, updates2, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, g.Name()+"/round2", got2, want2)
}

// TestFedGMAEdgesMatchLegacy drives the bit selects of the fused sweep
// through their edges: deltas of ±0, ±Inf and NaN, thresholds that are
// zero, negative, NaN, infinite or met exactly, and a soft mask.
func TestFedGMAEdgesMatchLegacy(t *testing.T) {
	env, clients := buildClients(t, 4)
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	updates := perturbedUpdates(t, global, len(clients))
	gv := global.Vector()
	for i, u := range updates {
		uv := u.Vector()
		uv[10+i] = math.Inf(1)
		uv[20+i] = math.Inf(-1)
		uv[30] = math.NaN()
		gv[40+i], uv[40+i] = 0, math.Copysign(0, -1) // a −0 delta
		uv[50] = gv[50]                              // only participant 0 moves: agreement w0
	}
	updates[0].Vector()[50] += 1
	total := 0.0
	for _, c := range clients {
		total += float64(c.Len())
	}
	w0 := float64(clients[0].Len()) / total // a threshold coordinate 50 meets exactly
	for _, tau := range []float64{0.4, 0, math.Copysign(0, -1), -0.5, math.NaN(), math.Inf(1), w0, 1} {
		g := baselines.NewFedGMA()
		g.Tau, g.MaskedScale = tau, 0.3
		want := legacyFedGMA(g, global, clients, updates)
		got, err := g.Aggregate(env, global, clients, updates, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("FedGMA tau=%g", tau), got, want)
	}
}

// legacyCELoss mirrors the pre-refactor ceLossOn helper.
func legacyCELoss(t *testing.T, m *nn.Model, c *fl.Client, cap int) float64 {
	t.Helper()
	n := c.Len()
	if cap > 0 && n > cap {
		n = cap
	}
	acts, err := m.Forward(c.RowsInto(nil, n))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := loss.CrossEntropy(acts.Logits, c.Labels[:n])
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// legacyFedDGGA replays the pre-refactor FedDG-GA server step, reading
// and updating the per-client weight state (empty on the first round).
func legacyFedDGGA(t *testing.T, g *baselines.FedDGGA, state map[int]float64, parts []*fl.Client, updates []*nn.Model) *nn.Model {
	t.Helper()
	provisional := legacyAverage(t, updates, sizeWeights(parts))
	gaps := make([]float64, len(parts))
	for i, c := range parts {
		gaps[i] = legacyCELoss(t, provisional, c, g.EvalCap) - legacyCELoss(t, updates[i], c, g.EvalCap)
	}
	meanGap := 0.0
	for _, gp := range gaps {
		meanGap += gp
	}
	meanGap /= float64(len(gaps))
	maxDev := 0.0
	for _, gp := range gaps {
		if d := math.Abs(gp - meanGap); d > maxDev {
			maxDev = d
		}
	}
	ws := make([]float64, len(parts))
	for i, c := range parts {
		w, ok := state[c.ID]
		if !ok {
			w = 1.0 / float64(len(parts))
		}
		if maxDev > 1e-12 {
			w += g.StepSize * (gaps[i] - meanGap) / maxDev
		}
		if w < g.MinWeight {
			w = g.MinWeight
		}
		state[c.ID] = w
		ws[i] = w
	}
	return legacyAverage(t, updates, ws)
}

func TestFedDGGAAggregationMatchesLegacy(t *testing.T) {
	env, clients := buildClients(t, 3)
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	updates := perturbedUpdates(t, global, len(clients))
	g := baselines.NewFedDGGA()
	state := map[int]float64{}
	want := legacyFedDGGA(t, baselines.NewFedDGGA(), state, clients, updates)
	got, err := g.Aggregate(env, global, clients, updates, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, g.Name(), got, want)

	// A second round through the same instance (scratch now warm, the
	// weights adjusted, and the previous output this round's global)
	// must stay identical.
	global2 := got.Clone()
	updates2 := perturbedUpdates(t, global2, len(clients))
	want2 := legacyFedDGGA(t, baselines.NewFedDGGA(), state, clients, updates2)
	got2, err := g.Aggregate(env, got, clients, updates2, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, g.Name()+"/round2", got2, want2)
}

// TestFedDGGAAggregateSteadyStateAllocs guards the reuse of the
// activations, buffers and output model: once warm, a round allocates
// no model arena, no activation tensors and no weight buffers — only the
// per-evaluation input view and the loss's softmax scratch.
func TestFedDGGAAggregateSteadyStateAllocs(t *testing.T) {
	env, clients := buildClients(t, 3)
	global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	updates := perturbedUpdates(t, global, len(clients))
	g := baselines.NewFedDGGA()
	if _, err := g.Aggregate(env, global, clients, updates, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := g.Aggregate(env, global, clients, updates, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Per loss evaluation: the input view (2) and CrossEntropy's softmax
	// and gradient tensors; a fresh Forward or output model costs
	// several times that (185 allocs/round here before the reuse).
	if limit := float64(2 * len(clients) * 12); allocs > limit {
		t.Fatalf("steady-state Aggregate allocated %.0f objects/round, want ≤ %.0f", allocs, limit)
	}
}
