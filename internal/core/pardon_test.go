package core_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func TestVariantOptions(t *testing.T) {
	cases := map[string]func(core.Options) bool{
		"v1": func(o core.Options) bool { return !o.LocalClustering && o.GlobalClustering && o.Contrastive },
		"v2": func(o core.Options) bool { return o.LocalClustering && !o.GlobalClustering && o.Contrastive },
		"v3": func(o core.Options) bool { return o.LocalClustering && o.GlobalClustering && !o.Contrastive },
		"v4": func(o core.Options) bool { return !o.LocalClustering && !o.GlobalClustering && !o.StyleTransfer },
		"v5": func(o core.Options) bool {
			return o.LocalClustering && o.GlobalClustering && o.Contrastive && o.StyleTransfer
		},
	}
	for v, check := range cases {
		o, err := core.VariantOptions(v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !check(o) {
			t.Fatalf("%s flags wrong: %+v", v, o)
		}
	}
	if _, err := core.VariantOptions("v9"); err == nil {
		t.Fatal("unknown variant should error")
	}
	if o, _ := core.VariantOptions(""); o.Variant != "v5" {
		t.Fatal("empty variant should default to v5")
	}
}

func TestName(t *testing.T) {
	if core.New(core.DefaultOptions()).Name() != "PARDON" {
		t.Fatal("default name")
	}
	o, _ := core.VariantOptions("v2")
	if core.New(o).Name() != "PARDON-v2" {
		t.Fatal("variant name")
	}
}

func randFeatures(r *rand.Rand, n int, shift float64) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		f := tensor.Randn(r, 1, 4, 4, 4)
		d := f.Data()
		for j := range d {
			d[j] += shift
		}
		out[i] = f
	}
	return out
}

func TestClientStyleShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	feats := randFeatures(r, 10, 0)
	sv, err := core.ClientStyle(feats, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != 8 { // 2×4 channels
		t.Fatalf("style dim = %d", len(sv))
	}
	svNoClust, err := core.ClientStyle(feats, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(svNoClust) != 8 {
		t.Fatal("no-clustering style dim wrong")
	}
	if _, err := core.ClientStyle(nil, true); err == nil {
		t.Fatal("empty features should error")
	}
}

// With local clustering, a client whose data mixes two very different
// styles reports a style closer to the minority cluster than plain
// concatenation does — the anti-dominance property of §III-B.
func TestClientStyleClusteringReducesDominance(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// Two cleanly separated style groups: 30 near-constant maps at level
	// ~1 (dominant domain) and 4 at level ~6 (minority domain).
	mkGroup := func(n int, level float64) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for i := range out {
			f := tensor.Full(level, 4, 4, 4)
			d := f.Data()
			for j := range d {
				d[j] += r.NormFloat64() * 0.05
			}
			out[i] = f
		}
		return out
	}
	feats := append(mkGroup(30, 1), mkGroup(4, 6)...)

	clustered, err := core.ClientStyle(feats, true)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := core.ClientStyle(feats, false)
	if err != nil {
		t.Fatal(err)
	}
	// Pooled mean ≈ (30·1+4·6)/34 ≈ 1.6; per-cluster averaging weighs the
	// minority cluster equally with each dominant cluster, landing above
	// the size-weighted pool.
	if clustered[0] <= pooled[0]+0.1 {
		t.Fatalf("clustered style %g should exceed pooled %g (minority upweighted)", clustered[0], pooled[0])
	}
}

func TestInterpolationStyleMedianRobust(t *testing.T) {
	// Three ordinary style groups plus one extreme group. (FINCH links
	// every point to its first neighbor, so a *single* outlier can never
	// be isolated — robustness comes from the median over cluster
	// styles, which needs the groups to form separate clusters.)
	styles := [][]float64{
		{1, 1, 1, 1}, {1.02, 0.98, 1, 1},
		{1, -1, 1, 1}, {1.01, -0.99, 1, 1},
		{-1, 1, 1, 1}, {-0.99, 1.02, 1, 1},
		{500, 500, -500, 1}, {501, 499, -500, 1},
	}
	sg, err := core.InterpolationStyle(styles, true)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Mu[0] > 10 || sg.Mu[0] < -10 {
		t.Fatalf("interpolation style hijacked by outlier group: %g", sg.Mu[0])
	}
	// Plain averaging (ablation) is pulled far toward the extreme group.
	mean, err := core.InterpolationStyle(styles, false)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Mu[0] < 50 {
		t.Fatalf("sanity: mean should be dominated by the extreme group, got %g", mean.Mu[0])
	}
	if _, err := core.InterpolationStyle(nil, true); err == nil {
		t.Fatal("empty styles should error")
	}
}

func TestConcatStyleMatchesOfConcat(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	feats := randFeatures(r, 5, 0.5)
	a, err := core.ConcatStyle(feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := style.OfConcat(feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mu {
		if a.Mu[i] != b.Mu[i] || a.Sigma[i] != b.Sigma[i] {
			t.Fatal("ConcatStyle must delegate to style.OfConcat")
		}
	}
}

func TestTransferAllAppliesStyle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	feats := randFeatures(r, 3, 0)
	sg := &style.Style{Mu: []float64{1, 2, 3, 4}, Sigma: []float64{1, 1, 1, 1}}
	env := &fl.Env{} // zero normalization
	out, err := core.TransferAll(env, feats, sg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 3 || out.Dim(1) != 64 {
		t.Fatalf("shape = %v", out.Shape())
	}
	// Row 0 reshaped must carry Sg's channel means.
	row, err := out.MustRow(0).Reshape(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := style.Of(row)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sg.Mu {
		if math.Abs(got.Mu[c]-sg.Mu[c]) > 1e-6 {
			t.Fatalf("channel %d mean %g, want %g", c, got.Mu[c], sg.Mu[c])
		}
	}
	if _, err := core.TransferAll(env, nil, sg); err == nil {
		t.Fatal("empty transfer should error")
	}
}

// Setup must expose the interpolation style and the uploaded client
// styles; LocalTrain must fail loudly without Setup.
func TestSetupExposesState(t *testing.T) {
	env, clients, _, _ := buildPACSScenario(t, 3, []int{0, 1}, 3, 6, 0.1)
	p := core.New(core.DefaultOptions())
	if p.InterpolationStyle() != nil {
		t.Fatal("interpolation style before Setup should be nil")
	}
	if err := p.Setup(env, clients); err != nil {
		t.Fatal(err)
	}
	if p.InterpolationStyle() == nil {
		t.Fatal("interpolation style missing after Setup")
	}
	cs := p.ClientStyles()
	if len(cs) != len(clients) {
		t.Fatalf("client styles = %d, want %d", len(cs), len(clients))
	}
	// Mutating the returned copies must not affect internal state.
	cs[0][0] = 1e9
	if p.ClientStyles()[0][0] == 1e9 {
		t.Fatal("ClientStyles leaks internal state")
	}
}

func TestLocalTrainRequiresSetup(t *testing.T) {
	env, clients, _, _ := buildPACSScenario(t, 4, []int{0, 1}, 3, 4, 0.1)
	p := core.New(core.DefaultOptions())
	model := mustModel(t, env)
	if _, err := p.LocalTrain(env, clients[0], model, 0); err == nil {
		t.Fatal("LocalTrain without Setup should error")
	}
}

func TestLocalTrainChangesModel(t *testing.T) {
	env, clients, _, _ := buildPACSScenario(t, 5, []int{0, 1}, 3, 4, 0.1)
	for _, variant := range []string{"v1", "v2", "v3", "v4", "v5"} {
		o, err := core.VariantOptions(variant)
		if err != nil {
			t.Fatal(err)
		}
		p := core.New(o)
		if err := p.Setup(env, clients); err != nil {
			t.Fatalf("%s setup: %v", variant, err)
		}
		model := mustModel(t, env)
		out, err := p.LocalTrain(env, clients[0], model, 0)
		if err != nil {
			t.Fatalf("%s train: %v", variant, err)
		}
		if out == model {
			t.Fatalf("%s returned the input model", variant)
		}
		diff := 0.0
		ov, mv := out.Vector(), model.Vector()
		for i := range ov {
			d := ov[i] - mv[i]
			diff += d * d
		}
		if diff == 0 {
			t.Fatalf("%s did not train", variant)
		}
		for _, v := range ov {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite weights", variant)
			}
		}
	}
}

func mustModel(t *testing.T, env *fl.Env) *nn.Model {
	t.Helper()
	m, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
