package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", F64, true},
		{"f64", F64, true},
		{"float64", F64, true},
		{"f32", F32, true},
		{"float32", F32, true},
		{"f16", F64, false},
		{"double", F64, false},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Errorf("String() = %q, %q", F64.String(), F32.String())
	}
}

func TestPrecisionConfigValidateEqual(t *testing.T) {
	cfg := Config{In: 8, Hidden: 4, ZDim: 3, Classes: 2, Precision: F32}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid f32 config rejected: %v", err)
	}
	bad := cfg
	bad.Precision = 7
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown precision accepted")
	}
	other := cfg
	other.Precision = F64
	if cfg.Equal(other) {
		t.Fatal("configs differing only in precision compare equal")
	}
}

// pairedModels returns an f64 model and an f32 model with identical
// master weights, plus a deterministic input batch.
func pairedModels(t *testing.T, b int) (m64, m32 *Model, x *tensor.Tensor, y []int) {
	t.Helper()
	cfg := Config{In: 12, HiddenDims: []int{10, 9}, ZDim: 6, Classes: 4}
	r := rand.New(rand.NewSource(11))
	var err error
	m64, err = New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := cfg
	cfg32.Precision = F32
	m32 = &Model{}
	*m32 = *m64
	m32.Cfg = cfg32
	// Deep-copy the arena so SGD steps do not couple the two models.
	m32.arena = append([]float64(nil), m64.arena...)
	m32.all = tensor.MustFromSlice(m32.arena, len(m32.arena))
	m32.layers = bindLayers(cfg32, m32.arena)
	m32.shadow.arena = nil
	x = tensor.New(b, cfg.In)
	xd := x.Data()
	for i := range xd {
		xd[i] = r.NormFloat64()
	}
	y = make([]int, b)
	for i := range y {
		y[i] = r.Intn(cfg.Classes)
	}
	return m64, m32, x, y
}

// TestF32ForwardWithinTolerance runs the same batch through the f64 and
// f32 paths and bounds the divergence of Z and the logits.
func TestF32ForwardWithinTolerance(t *testing.T) {
	m64, m32, x, _ := pairedModels(t, 7)
	a64, err := m64.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	a32, err := m32.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-4 // shallow stack: a few ulps of float32 per layer
	maxDiff := func(p, q *tensor.Tensor) float64 {
		pd, qd := p.Data(), q.Data()
		worst := 0.0
		for i := range pd {
			d := math.Abs(pd[i] - qd[i])
			if s := math.Abs(pd[i]); s > 1 {
				d /= s
			}
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	if d := maxDiff(a64.Z, a32.Z); d > tol {
		t.Errorf("Z diverges by %g (tol %g)", d, tol)
	}
	if d := maxDiff(a64.Logits, a32.Logits); d > tol {
		t.Errorf("logits diverge by %g (tol %g)", d, tol)
	}
}

// TestF32TrainStepWithinTolerance drives several full forward/backward/
// step iterations in both precisions and checks the parameter
// trajectories stay close — the end-to-end contract the engine's
// precision knob relies on.
func TestF32TrainStepWithinTolerance(t *testing.T) {
	m64, m32, x, y := pairedModels(t, 7)
	step := func(m *Model, opt *SGD, g *Grads, acts *Activations) {
		t.Helper()
		if err := m.ForwardInto(acts, x); err != nil {
			t.Fatal(err)
		}
		dLogits := softmaxGrad(acts.Logits, y)
		g.Zero()
		if err := m.Backward(acts, dLogits, nil, g); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(m, g); err != nil {
			t.Fatal(err)
		}
	}
	o64, o32 := NewSGD(0.05, 0.9, 1e-4), NewSGD(0.05, 0.9, 1e-4)
	g64, g32 := m64.NewGrads(), m32.NewGrads()
	a64, a32 := &Activations{}, &Activations{}
	for it := 0; it < 5; it++ {
		step(m64, o64, g64, a64)
		step(m32, o32, g32, a32)
	}
	const tol = 5e-4
	v64, v32 := m64.Vector(), m32.Vector()
	for i := range v64 {
		d := math.Abs(v64[i] - v32[i])
		if s := math.Abs(v64[i]); s > 1 {
			d /= s
		}
		if d > tol {
			t.Fatalf("param %d diverges after 5 steps: %g vs %g", i, v64[i], v32[i])
		}
	}
}

// softmaxGrad is a minimal cross-entropy gradient for the tests (the
// real one lives in the loss package, which nn cannot import).
func softmaxGrad(logits *tensor.Tensor, y []int) *tensor.Tensor {
	b, c := logits.Dim(0), logits.Dim(1)
	out := tensor.New(b, c)
	ld, od := logits.Data(), out.Data()
	for i := 0; i < b; i++ {
		row, orow := ld[i*c:(i+1)*c], od[i*c:(i+1)*c]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			orow[j] = math.Exp(v - max)
			sum += orow[j]
		}
		inv := 1.0 / (sum * float64(b))
		for j := range orow {
			orow[j] *= inv
		}
		orow[y[i]] -= 1.0 / float64(b)
	}
	return out
}

// TestF32RecomputeLogits checks the FedSR path: perturb Z after an f32
// forward pass and recompute logits through the shadow classifier.
func TestF32RecomputeLogits(t *testing.T) {
	_, m32, x, _ := pairedModels(t, 5)
	acts, err := m32.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), acts.Logits.Data()...)
	zd := acts.Z.Data()
	for i := range zd {
		zd[i] += 0.25
	}
	if err := m32.RecomputeLogits(acts); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i, v := range acts.Logits.Data() {
		if v != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("logits unchanged after Z perturbation")
	}
	// The recomputed logits must match a fresh classifier pass over the
	// perturbed Z within f32 tolerance.
	cls := m32.Classifier()
	wd := make([]float64, x.Dim(0)*m32.Cfg.Classes)
	tensor.MatMulF64(wd, acts.Z.Data(), cls.W.Data(), x.Dim(0), m32.Cfg.ZDim, m32.Cfg.Classes)
	addRowVector(wd, cls.B.Data())
	gd := acts.Logits.Data()
	for i := range wd {
		if math.Abs(wd[i]-gd[i]) > 1e-4 {
			t.Fatalf("recomputed logit %d: %g vs f64 reference %g", i, gd[i], wd[i])
		}
	}
}

// TestF32SteadyStateAllocs proves the f32 train step allocates nothing
// once activation/gradient scratch is warm, matching the f64 guarantee.
func TestF32SteadyStateAllocs(t *testing.T) {
	_, m32, x, y := pairedModels(t, 7)
	opt := NewSGD(0.05, 0.9, 1e-4)
	grads := m32.NewGrads()
	acts := &Activations{}
	dLogits := tensor.New(x.Dim(0), m32.Cfg.Classes)
	run := func() {
		if err := m32.ForwardInto(acts, x); err != nil {
			t.Fatal(err)
		}
		g := softmaxGrad(acts.Logits, y)
		copy(dLogits.Data(), g.Data())
		grads.Zero()
		if err := m32.Backward(acts, dLogits, nil, grads); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(m32, grads); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm scratch
	allocs := testing.AllocsPerRun(20, func() {
		if err := m32.ForwardInto(acts, x); err != nil {
			t.Fatal(err)
		}
		grads.Zero()
		if err := m32.Backward(acts, dLogits, nil, grads); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(m32, grads); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("f32 train step allocates %.0f times steady-state, want 0", allocs)
	}
}

// TestF32SerializeRoundTrip checks the v2 dtype byte: an F32 model's
// blob is half the parameter payload and round-trips to exactly the
// narrowed parameters.
func TestF32SerializeRoundTrip(t *testing.T) {
	_, m32, _, _ := pairedModels(t, 2)
	blob32, err := m32.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(blob32)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cfg.Equal(m32.Cfg) || got.Cfg.Precision != F32 {
		t.Fatalf("round-trip config %+v, want %+v", got.Cfg, m32.Cfg)
	}
	gv, mv := got.Vector(), m32.Vector()
	for i := range gv {
		if gv[i] != float64(float32(mv[i])) {
			t.Fatalf("param %d: %g, want narrowed %g", i, gv[i], float64(float32(mv[i])))
		}
	}
	// The f32 payload must be smaller than the f64 one by ~4 bytes per
	// parameter (header sizes are equal).
	cfg64 := m32.Cfg
	cfg64.Precision = F64
	m64 := newEmpty(cfg64)
	copy(m64.arena, m32.arena)
	blob64, err := m64.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(blob64) - 4*len(mv); len(blob32) != want {
		t.Errorf("f32 blob %d bytes, want %d", len(blob32), want)
	}
}

// TestV1CheckpointStillLoads pins backward compatibility: a payload in
// the version-1 layout (no dtype byte, float64 values) must decode.
func TestV1CheckpointStillLoads(t *testing.T) {
	cfg := Config{In: 3, Hidden: 2, ZDim: 2, Classes: 2}
	m, err := New(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite as version 1: patch the version word and splice out the
	// dtype byte at offset 8.
	v1 := append([]byte(nil), blob[:4]...)
	v1 = append(v1, 1, 0, 0, 0) // version 1, little-endian
	v1 = append(v1, blob[9:]...)
	got, err := LoadModel(v1)
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	gv, mv := got.Vector(), m.Vector()
	for i := range gv {
		if gv[i] != mv[i] {
			t.Fatalf("param %d: %g, want %g", i, gv[i], mv[i])
		}
	}
}

// TestShadowWrittenByStepAndResyncedWhenStale pins the freshness rule of
// the float32 shadow: an SGD step (in place or from a source model)
// leaves the shadow equal to the narrowed master arena and fresh, so the
// next forward reads it as it is; a write through Vector marks it
// stale, and the next forward narrows it again.
func TestShadowWrittenByStepAndResyncedWhenStale(t *testing.T) {
	_, m, x, y := pairedModels(t, 5)
	narrowed := func(m *Model) []float32 {
		out := make([]float32, len(m.arena))
		tensor.NarrowInto(out, m.arena)
		return out
	}
	requireShadow := func(name string, m *Model) {
		t.Helper()
		if !m.shadow.fresh {
			t.Fatalf("%s: shadow is stale", name)
		}
		want := narrowed(m)
		for i, v := range m.shadow.arena {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("%s: shadow[%d] = %g, want %g", name, i, v, want[i])
			}
		}
	}
	grads := m.NewGrads()
	opt := NewSGD(0.1, 0.9, 1e-3)
	backward := func(m *Model) {
		t.Helper()
		acts, err := m.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Backward(acts, softmaxGrad(acts.Logits, y), nil, grads); err != nil {
			t.Fatal(err)
		}
	}
	backward(m)
	requireShadow("first forward", m)
	src := append([]float64(nil), m.arena...)
	next, err := opt.StepFrom(m, grads)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.arena {
		if math.Float64bits(v) != math.Float64bits(src[i]) {
			t.Fatalf("StepFrom wrote its source at %d", i)
		}
	}
	requireShadow("after StepFrom", next)
	if !grads.clean {
		t.Fatal("the step left the gradients dirty")
	}
	backward(next)
	if err := opt.Step(next, grads); err != nil {
		t.Fatal(err)
	}
	requireShadow("after Step", next)
	next.Vector()[0] += 1
	if next.shadow.fresh {
		t.Fatal("a write through Vector left the shadow fresh")
	}
	backward(next)
	requireShadow("forward after a write", next)
}

// TestActivationsReuseAcrossPrecisions alternates one pooled
// Activations between an F64 and an F32 model and between batches of 32
// and 17 rows. Z, the logits, the logits recomputed from a perturbed Z,
// and the gradients must stay bit-equal to those of fresh activations,
// a model of the other precision must refuse the pass, and Release must
// drop every reference to the caller's batch.
func TestActivationsReuseAcrossPrecisions(t *testing.T) {
	m64, m32, x, y := pairedModels(t, 32)
	x17 := tensor.MustFromSlice(x.Data()[:17*m64.Cfg.In], 17, m64.Cfg.In)
	r := rand.New(rand.NewSource(12))
	bits := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
	}
	// run makes one forward/recompute/backward cycle, returning the
	// gradient arena.
	run := func(m *Model, acts *Activations, x, dZ *tensor.Tensor, y []int) (z, logits, recomputed, grad []float64) {
		t.Helper()
		if err := m.ForwardInto(acts, x); err != nil {
			t.Fatal(err)
		}
		z = append([]float64(nil), acts.Z.Data()...)
		logits = append([]float64(nil), acts.Logits.Data()...)
		g := m.NewGrads()
		defer g.Release()
		if err := m.Backward(acts, softmaxGrad(acts.Logits, y), dZ, g); err != nil {
			t.Fatal(err)
		}
		for i := range acts.Z.Data() {
			acts.Z.Data()[i] *= 1.5
		}
		if err := m.RecomputeLogits(acts); err != nil {
			t.Fatal(err)
		}
		recomputed = append([]float64(nil), acts.Logits.Data()...)
		return z, logits, recomputed, append([]float64(nil), g.arena...)
	}
	acts := AcquireActivations()
	for step, c := range []struct {
		m *Model
		x *tensor.Tensor
	}{{m64, x}, {m32, x17}, {m32, x}, {m64, x17}, {m64, x}, {m32, x}, {m64, x17}, {m32, x17}} {
		b := c.x.Dim(0)
		dZ := tensor.Randn(r, 1, b, c.m.Cfg.ZDim)
		name := fmt.Sprintf("step %d (%v, %d rows)", step, c.m.Cfg.Precision, b)
		z, logits, recomputed, grad := run(c.m, acts, c.x, dZ, y[:b])
		wz, wl, wr, wg := run(c.m, &Activations{}, c.x, dZ, y[:b])
		bits(name+" Z", z, wz)
		bits(name+" logits", logits, wl)
		bits(name+" recomputed logits", recomputed, wr)
		bits(name+" grads", grad, wg)
		other := m32
		if c.m == m32 {
			other = m64
		}
		if err := other.Backward(acts, nil, dZ, other.NewGrads()); err == nil {
			t.Fatalf("%s: a %v model ran Backward on a %v pass", name, other.Cfg.Precision, c.m.Cfg.Precision)
		}
		if step == 3 {
			acts.Release()
			if acts.X != nil || acts.f64.x != nil {
				t.Fatal("Release kept a reference to the caller's batch")
			}
			acts = AcquireActivations()
		}
	}
	acts.Release()
}
