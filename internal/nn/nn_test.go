package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
	"github.com/pardon-feddg/pardon/internal/testref"
)

// Canonical Params() indices for a single-hidden-layer model (the
// historical W1,B1,W2,B2,WC,BC order).
const (
	idxW1 = iota
	idxB1
	idxW2
	idxB2
	idxWC
	idxBC
)

func smallModel(t *testing.T, seed int64) *nn.Model {
	t.Helper()
	m, err := nn.New(nn.Config{In: 6, Hidden: 5, ZDim: 4, Classes: 3}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if _, err := nn.New(nn.Config{In: 0, Hidden: 1, ZDim: 1, Classes: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid config should error")
	}
	if _, err := nn.New(nn.Config{In: 1, ZDim: 1, Classes: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero hidden width should error")
	}
	if _, err := nn.New(nn.Config{In: 1, Hidden: 1, ZDim: 1, Classes: 1, HiddenDims: []int{4, 0}}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("non-positive HiddenDims entry should error")
	}
}

func TestConfigEqual(t *testing.T) {
	a := nn.Config{In: 4, Hidden: 8, ZDim: 2, Classes: 3}
	b := nn.Config{In: 4, ZDim: 2, Classes: 3, HiddenDims: []int{8}}
	if !a.Equal(b) {
		t.Fatal("Hidden and HiddenDims spellings of the same stack must compare equal")
	}
	c := nn.Config{In: 4, ZDim: 2, Classes: 3, HiddenDims: []int{8, 8}}
	if a.Equal(c) {
		t.Fatal("different depths must not compare equal")
	}
}

// HiddenDims must map onto the stack exactly as Hidden does for a single
// layer: same parameter count, same draws, same forward output.
func TestHiddenDimsBackwardCompatible(t *testing.T) {
	cfgA := nn.Config{In: 6, Hidden: 5, ZDim: 4, Classes: 3}
	cfgB := nn.Config{In: 6, ZDim: 4, Classes: 3, HiddenDims: []int{5}}
	a, err := nn.New(cfgA, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := nn.New(cfgB, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Vector(), b.Vector()
	if len(av) != len(bv) {
		t.Fatalf("param counts differ: %d vs %d", len(av), len(bv))
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("param %d differs: %g vs %g", i, av[i], bv[i])
		}
	}
}

func TestForwardShapes(t *testing.T) {
	m := smallModel(t, 1)
	x := tensor.Randn(rand.New(rand.NewSource(2)), 1, 7, 6)
	acts, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if acts.Z.Dim(0) != 7 || acts.Z.Dim(1) != 4 {
		t.Fatalf("Z shape %v", acts.Z.Shape())
	}
	if acts.Logits.Dim(1) != 3 {
		t.Fatalf("logits shape %v", acts.Logits.Shape())
	}
	if _, err := m.Forward(tensor.New(2, 9)); err == nil {
		t.Fatal("wrong input width should error")
	}
}

// TestDeepStackForward checks a multi-hidden-layer model end to end:
// layer count, shapes, and a finite forward pass.
func TestDeepStackForward(t *testing.T) {
	cfg := nn.Config{In: 6, ZDim: 4, Classes: 3, HiddenDims: []int{10, 7, 5}}
	m, err := nn.New(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	layers := m.Layers()
	if len(layers) != 5 { // 3 hidden + embedding + classifier
		t.Fatalf("layer count %d, want 5", len(layers))
	}
	wantW := [][2]int{{6, 10}, {10, 7}, {7, 5}, {5, 4}, {4, 3}}
	for i, ly := range layers {
		if ly.W.Dim(0) != wantW[i][0] || ly.W.Dim(1) != wantW[i][1] {
			t.Fatalf("layer %d weight shape %v, want %v", i, ly.W.Shape(), wantW[i])
		}
		wantReLU := i < 3
		if ly.ReLU != wantReLU {
			t.Fatalf("layer %d ReLU = %v", i, ly.ReLU)
		}
	}
	x := tensor.Randn(rand.New(rand.NewSource(4)), 1, 9, 6)
	acts, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if acts.Z.Dim(1) != 4 || acts.Logits.Dim(1) != 3 {
		t.Fatalf("Z %v logits %v", acts.Z.Shape(), acts.Logits.Shape())
	}
	for _, v := range acts.Logits.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite logits")
		}
	}
}

// checkBackwardFiniteDifferences compares analytic CE gradients against
// central finite differences for every parameter tensor of m.
func checkBackwardFiniteDifferences(t *testing.T, m *nn.Model, batch int) {
	t.Helper()
	r := rand.New(rand.NewSource(4))
	x := tensor.Randn(r, 1, batch, m.Cfg.In)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(m.Cfg.Classes)
	}

	lossAt := func() float64 {
		acts, err := m.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := loss.CrossEntropy(acts.Logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	acts, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, dLogits, err := loss.CrossEntropy(acts.Logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	grads := m.NewGrads()
	if err := m.Backward(acts, dLogits, nil, grads); err != nil {
		t.Fatal(err)
	}

	const eps = 1e-6
	params := m.Params()
	gparams := grads.Params()
	for pi, p := range params {
		pd := p.Data()
		gd := gparams[pi].Data()
		// Probe a handful of coordinates per tensor.
		stride := len(pd)/7 + 1
		for i := 0; i < len(pd); i += stride {
			orig := pd[i]
			pd[i] = orig + eps
			lPlus := lossAt()
			pd[i] = orig - eps
			lMinus := lossAt()
			pd[i] = orig
			numeric := (lPlus - lMinus) / (2 * eps)
			if math.Abs(numeric-gd[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %d coord %d: analytic %g vs numeric %g", pi, i, gd[i], numeric)
			}
		}
	}
}

// The decisive test of the training stack: analytic gradients of the full
// CE loss must match central finite differences for every parameter.
func TestBackwardMatchesFiniteDifferences(t *testing.T) {
	checkBackwardFiniteDifferences(t, smallModel(t, 3), 5)
}

// The same check through a three-hidden-layer stack exercises the
// generalized backprop walk (multiple ReLU gates).
func TestBackwardDeepStackFiniteDifferences(t *testing.T) {
	m, err := nn.New(nn.Config{In: 6, ZDim: 4, Classes: 3, HiddenDims: []int{8, 6, 5}}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	checkBackwardFiniteDifferences(t, m, 4)
}

// Gradients injected at the embedding (dZExtra) must flow correctly too.
func TestBackwardDZExtraFiniteDifferences(t *testing.T) {
	m := smallModel(t, 5)
	r := rand.New(rand.NewSource(6))
	x := tensor.Randn(r, 1, 4, 6)

	// Loss = sum of embeddings squared (so dL/dZ = 2Z).
	lossAt := func() float64 {
		z, err := m.Embed(x)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range z.Data() {
			s += v * v
		}
		return s
	}
	acts, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dz := acts.Z.Clone().Scale(2)
	grads := m.NewGrads()
	if err := m.Backward(acts, nil, dz, grads); err != nil {
		t.Fatal(err)
	}
	// Classifier params receive no gradient on this loss.
	if grads.Params()[idxWC].Norm() != 0 || grads.Params()[idxBC].Norm() != 0 {
		t.Fatal("embedding-only loss leaked into classifier grads")
	}
	const eps = 1e-6
	pd := m.Params()[idxW1].Data()
	gd := grads.Params()[idxW1].Data()
	for i := 0; i < len(pd); i += 7 {
		orig := pd[i]
		pd[i] = orig + eps
		lPlus := lossAt()
		pd[i] = orig - eps
		lMinus := lossAt()
		pd[i] = orig
		numeric := (lPlus - lMinus) / (2 * eps)
		if math.Abs(numeric-gd[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("W1 coord %d: analytic %g vs numeric %g", i, gd[i], numeric)
		}
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	m := smallModel(t, 7)
	v := m.Vector()
	if len(v) != m.NumParams() {
		t.Fatalf("vector len %d vs NumParams %d", len(v), m.NumParams())
	}
	m2 := smallModel(t, 8)
	if err := m2.SetParamVector(v); err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		q := m2.Params()[i]
		for j := range p.Data() {
			if p.Data()[j] != q.Data()[j] {
				t.Fatal("roundtrip mismatch")
			}
		}
	}
	if err := m2.SetParamVector(v[:3]); err == nil {
		t.Fatal("short vector should error")
	}
}

// Vector must be a live view of the arena, and Params zero-copy views
// into it.
func TestVectorAliasing(t *testing.T) {
	m := smallModel(t, 70)
	live := m.Vector()
	m.Params()[idxW1].Data()[0] += 42
	if live[0] != m.Vector()[0] {
		t.Fatal("Vector must alias the arena")
	}
	if m.Params()[idxW1].Data()[0] != live[0] {
		t.Fatal("Params views must alias the arena")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := smallModel(t, 9)
	cp := m.Clone()
	cp.Params()[idxW1].Data()[0] += 100
	if m.Params()[idxW1].Data()[0] == cp.Params()[idxW1].Data()[0] {
		t.Fatal("clone aliases weights")
	}
}

func TestWeightedAverage(t *testing.T) {
	a := smallModel(t, 10)
	b := smallModel(t, 11)
	avg := nn.NewLike(a)
	if err := nn.WeightedAverageInto(avg, []*nn.Model{a, b}, []float64{3, 1}); err != nil {
		t.Fatal(err)
	}
	for pi := range avg.Params() {
		ad, bd, vd := a.Params()[pi].Data(), b.Params()[pi].Data(), avg.Params()[pi].Data()
		for j := range vd {
			want := 0.75*ad[j] + 0.25*bd[j]
			if math.Abs(vd[j]-want) > 1e-12 {
				t.Fatalf("avg[%d][%d] = %g, want %g", pi, j, vd[j], want)
			}
		}
	}
	if err := nn.WeightedAverageInto(avg, nil, nil); err == nil {
		t.Fatal("empty average should error")
	}
	if err := nn.WeightedAverageInto(avg, []*nn.Model{a}, []float64{0}); err == nil {
		t.Fatal("zero total weight should error")
	}
	if err := nn.WeightedAverageInto(avg, []*nn.Model{a}, []float64{-1}); err == nil {
		t.Fatal("negative weight should error")
	}
}

// TestWeightedAverageMatchesLegacyBitwise pins the refactor's core
// equivalence claim: the fused whole-arena axpy accumulates in exactly
// the order the historical per-tensor loop did, so results agree to the
// last bit.
func TestWeightedAverageMatchesLegacyBitwise(t *testing.T) {
	var models []*nn.Model
	var weights []float64
	for i := 0; i < 7; i++ {
		models = append(models, smallModel(t, int64(20+i)))
		weights = append(weights, float64(1+i*3))
	}
	got := nn.NewLike(models[0])
	if err := nn.WeightedAverageInto(got, models, weights); err != nil {
		t.Fatal(err)
	}
	want, err := testref.LegacyWeightedAverage(models, weights)
	if err != nil {
		t.Fatal(err)
	}
	gv, wv := got.Vector(), want.Vector()
	for j := range gv {
		if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
			t.Fatalf("param %d: fused %g vs legacy %g", j, gv[j], wv[j])
		}
	}
}

// TestWeightedAverageIntoZeroAlloc is the steady-state guard: with a
// reused destination, aggregating K client models heap-allocates nothing.
func TestWeightedAverageIntoZeroAlloc(t *testing.T) {
	var models []*nn.Model
	var weights []float64
	for i := 0; i < 8; i++ {
		models = append(models, smallModel(t, int64(40+i)))
		weights = append(weights, float64(i+1))
	}
	dst := nn.NewLike(models[0])
	if err := nn.WeightedAverageInto(dst, models, weights); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := nn.WeightedAverageInto(dst, models, weights); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state aggregation allocated %.1f objects/op, want 0", allocs)
	}
}

func TestWeightedAverageIntoRejectsAliasedDst(t *testing.T) {
	a, b := smallModel(t, 50), smallModel(t, 51)
	if err := nn.WeightedAverageInto(a, []*nn.Model{a, b}, []float64{1, 1}); err == nil {
		t.Fatal("aliased destination should error")
	}
}

func TestSGDStep(t *testing.T) {
	m := smallModel(t, 12)
	before := m.Params()[idxW1].Data()[0]
	g := m.NewGrads()
	g.Params()[idxW1].Data()[0] = 1
	opt := nn.NewSGD(0.1, 0, 0)
	if err := opt.Step(m, g); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Params()[idxW1].Data()[0]-(before-0.1)) > 1e-12 {
		t.Fatalf("sgd step: %g, want %g", m.Params()[idxW1].Data()[0], before-0.1)
	}
	// Momentum accumulates: second identical step moves farther.
	m2 := smallModel(t, 12)
	opt2 := nn.NewSGD(0.1, 0.9, 0)
	g2 := m2.NewGrads()
	g2.Params()[idxW1].Data()[0] = 1
	_ = opt2.Step(m2, g2)
	afterOne := m2.Params()[idxW1].Data()[0]
	g2.Params()[idxW1].Data()[0] = 1
	_ = opt2.Step(m2, g2)
	stepTwo := afterOne - m2.Params()[idxW1].Data()[0]
	if stepTwo <= 0.1 {
		t.Fatalf("momentum should enlarge the second step, got %g", stepTwo)
	}
}

func TestSGDClip(t *testing.T) {
	m := smallModel(t, 13)
	g := m.NewGrads()
	for _, p := range g.Params() {
		for i := range p.Data() {
			p.Data()[i] = 10
		}
	}
	opt := nn.NewSGD(1, 0, 0)
	opt.Clip = 1
	before := append([]float64(nil), m.Vector()...)
	if err := opt.Step(m, g); err != nil {
		t.Fatal(err)
	}
	after := m.Vector()
	moved := 0.0
	for i := range before {
		d := after[i] - before[i]
		moved += d * d
	}
	if math.Sqrt(moved) > 1.001 {
		t.Fatalf("clipped update norm = %g, want ≤1", math.Sqrt(moved))
	}
}

func TestGradsZero(t *testing.T) {
	m := smallModel(t, 14)
	g := m.NewGrads()
	g.Params()[idxW2].Data()[0] = 5
	g.Zero()
	if g.Params()[idxW2].Data()[0] != 0 {
		t.Fatal("Zero failed")
	}
}

// TestForwardIntoReusesBuffers checks that ForwardInto keeps the
// activation tensors across same-size batches (no steady-state
// allocation), reallocates on batch-size change, and matches Forward.
func TestForwardIntoReusesBuffers(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m, err := nn.New(nn.Config{In: 12, Hidden: 8, ZDim: 6, Classes: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	x1 := tensor.Randn(r, 1, 5, 12)
	x2 := tensor.Randn(r, 1, 5, 12)

	acts := &nn.Activations{}
	if err := m.ForwardInto(acts, x1); err != nil {
		t.Fatal(err)
	}
	z, logits := acts.Z, acts.Logits
	if err := m.ForwardInto(acts, x2); err != nil {
		t.Fatal(err)
	}
	if acts.Z != z || acts.Logits != logits {
		t.Fatal("ForwardInto reallocated buffers for a same-size batch")
	}
	want, err := m.Forward(x2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range acts.Logits.Data() {
		if v != want.Logits.Data()[i] {
			t.Fatalf("ForwardInto logits[%d] = %g, want %g", i, v, want.Logits.Data()[i])
		}
	}
	x3 := tensor.Randn(r, 1, 3, 12)
	if err := m.ForwardInto(acts, x3); err != nil {
		t.Fatal(err)
	}
	if acts.Logits == logits || acts.Logits.Dim(0) != 3 {
		t.Fatal("ForwardInto did not reshape for a different batch size")
	}
}

// RecomputeLogits must agree with a fresh classifier pass over acts.Z.
func TestRecomputeLogits(t *testing.T) {
	m := smallModel(t, 15)
	x := tensor.Randn(rand.New(rand.NewSource(16)), 1, 4, 6)
	acts, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the embedding, then refresh the logits in place.
	zd := acts.Z.Data()
	for i := range zd {
		zd[i] += 0.25
	}
	if err := m.RecomputeLogits(acts); err != nil {
		t.Fatal(err)
	}
	cls := m.Classifier()
	want, err := tensor.MatMul(acts.Z, cls.W)
	if err != nil {
		t.Fatal(err)
	}
	wd, bd := want.Data(), cls.B.Data()
	c := want.Dim(1)
	for i := 0; i < want.Dim(0); i++ {
		for j := 0; j < c; j++ {
			wd[i*c+j] += bd[j]
		}
	}
	for i, v := range acts.Logits.Data() {
		if math.Abs(v-wd[i]) > 1e-12 {
			t.Fatalf("logits[%d] = %g, want %g", i, v, wd[i])
		}
	}
	if err := m.RecomputeLogits(&nn.Activations{}); err == nil {
		t.Fatal("RecomputeLogits without a forward pass should error")
	}
}
