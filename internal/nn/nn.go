// Package nn implements the trainable model shared by every FedDG method
// in the reproduction: a feature-extractor stack f: X → Z over
// frozen-encoder features (one or more ReLU hidden layers followed by a
// linear embedding projection), plus a linear unified classifier
// g: Z → logits — the f/g decomposition of the paper's §III-B. Training
// is manual backprop with SGD (momentum + weight decay).
//
// Every parameter of a Model lives in one contiguous []float64 arena; the
// per-layer weight and bias tensors are zero-copy views into it. That
// makes the whole-model operations federated learning leans on —
// cloning, broadcast, SGD steps, FedAvg/weighted aggregation, FedGMA's
// flat sign-mask walks, serialization — single-slice sweeps instead of
// per-tensor loops, with no per-round allocation (see WeightedAverageInto
// and DESIGN.md §6).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Config describes the model architecture.
type Config struct {
	In      int // flattened encoder-feature dimension
	Hidden  int // hidden width of the feature extractor (single layer)
	ZDim    int // embedding dimension (the space losses operate in)
	Classes int // output classes
	// HiddenDims, when non-empty, overrides Hidden with a stack of ReLU
	// hidden layers of the given widths, so scenarios can sweep model
	// depth/capacity. {In, Hidden} and {In, HiddenDims: []int{Hidden}}
	// describe the same model.
	HiddenDims []int
	// Precision selects the compute dtype of the forward/backward hot
	// path (see precision.go). The zero value is F64; F32 runs the
	// matmul-heavy passes through the float32 micro-kernels at half the
	// memory bandwidth while keeping float64 master weights.
	Precision Precision
}

// hiddenDims returns the effective hidden-layer widths.
func (c Config) hiddenDims() []int {
	if len(c.HiddenDims) > 0 {
		return c.HiddenDims
	}
	return []int{c.Hidden}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.In <= 0 || c.ZDim <= 0 || c.Classes <= 0 {
		return fmt.Errorf("nn: invalid config %+v", c)
	}
	if len(c.HiddenDims) == 0 && c.Hidden <= 0 {
		return fmt.Errorf("nn: invalid config %+v", c)
	}
	for _, h := range c.HiddenDims {
		if h <= 0 {
			return fmt.Errorf("nn: non-positive hidden width in %v", c.HiddenDims)
		}
	}
	if c.Precision > F32 {
		return fmt.Errorf("nn: unknown precision %d", c.Precision)
	}
	return nil
}

// Equal reports whether two configs describe the same architecture and
// compute precision ({Hidden: 64} and {HiddenDims: []int{64}} are
// equal).
func (c Config) Equal(o Config) bool {
	if c.In != o.In || c.ZDim != o.ZDim || c.Classes != o.Classes || c.Precision != o.Precision {
		return false
	}
	ch, oh := c.hiddenDims(), o.hiddenDims()
	if len(ch) != len(oh) {
		return false
	}
	for i := range ch {
		if ch[i] != oh[i] {
			return false
		}
	}
	return true
}

// layerShape is the static description of one affine layer of the stack.
type layerShape struct {
	in, out int
	relu    bool
}

// layerShapes expands a config into the full stack: the hidden ReLU
// layers, the linear embedding projection (output Z), and the linear
// classifier (output logits).
func (c Config) layerShapes() []layerShape {
	hs := c.hiddenDims()
	shapes := make([]layerShape, 0, len(hs)+2)
	prev := c.In
	for _, h := range hs {
		shapes = append(shapes, layerShape{in: prev, out: h, relu: true})
		prev = h
	}
	shapes = append(shapes, layerShape{in: prev, out: c.ZDim})
	shapes = append(shapes, layerShape{in: c.ZDim, out: c.Classes})
	return shapes
}

// arenaLen returns the total scalar parameter count of the stack.
func (c Config) arenaLen() int {
	n := 0
	for _, s := range c.layerShapes() {
		n += s.in*s.out + s.out
	}
	return n
}

// Layer is one affine layer of a model (or its gradient mirror): weight
// and bias tensors that are zero-copy views into the owning arena.
type Layer struct {
	W *tensor.Tensor // (in, out)
	B *tensor.Tensor // (out)
	// ReLU reports whether the layer output passes through ReLU (hidden
	// layers: yes; the embedding projection and classifier: no).
	ReLU bool
}

// bindLayers carves an arena into per-layer W/B views in canonical order
// (W then B, layer by layer). The views alias the arena: a single sweep
// over it touches every parameter.
func bindLayers(cfg Config, arena []float64) []Layer {
	shapes := cfg.layerShapes()
	layers := make([]Layer, len(shapes))
	off := 0
	for i, s := range shapes {
		w := arena[off : off+s.in*s.out]
		off += s.in * s.out
		b := arena[off : off+s.out]
		off += s.out
		layers[i] = Layer{
			W:    tensor.MustFromSlice(w, s.in, s.out),
			B:    tensor.MustFromSlice(b, s.out),
			ReLU: s.relu,
		}
	}
	return layers
}

// Model is the feature-extractor stack plus classifier, backed by one
// contiguous parameter arena.
type Model struct {
	Cfg    Config
	arena  []float64
	all    *tensor.Tensor // 1-D view over the whole arena
	layers []Layer
	// shadow is the float32 mirror the F32 compute path multiplies
	// against: a derived cache of the master arena, never authoritative
	// (see precision.go). The SGD step that changes the master writes
	// it and marks it fresh; every other way the arena can change marks
	// it stale, and a forward narrows only a stale shadow.
	shadow struct {
		arena []float32
		fresh bool
	}
	// sum is WeightedAverageInto's scratch when m is its destination:
	// the normalized weights and the inputs' arenas.
	sum struct {
		ws   []float64
		srcs [][]float64
	}
}

// newEmpty allocates — or recycles, see recycle.go — a zero-parameter
// model for a validated config.
func newEmpty(cfg Config) *Model {
	if m := acquireModel(cfg); m != nil {
		for i := range m.arena {
			m.arena[i] = 0
		}
		m.shadow.fresh = false
		return m
	}
	arena := make([]float64, cfg.arenaLen())
	return &Model{
		Cfg:    cfg,
		arena:  arena,
		all:    tensor.MustFromSlice(arena, len(arena)),
		layers: bindLayers(cfg, arena),
	}
}

// New initializes a model with He-scaled weights drawn from r. Draws
// happen in canonical layer order, so for a single-hidden-layer config
// the parameters are identical to the historical fixed-field model.
func New(cfg Config, r *rand.Rand) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newEmpty(cfg)
	last := len(m.layers) - 1
	for i, ly := range m.layers {
		// The classifier starts near zero so initial logits are ~uniform
		// and the first cross-entropy step is well-conditioned (loss ≈
		// ln C); every other layer is He-scaled on its fan-in.
		std := math.Sqrt(2.0 / float64(ly.W.Dim(0)))
		if i == last {
			std = 0.01
		}
		wd := ly.W.Data()
		for j := range wd {
			wd[j] = r.NormFloat64() * std
		}
	}
	return m, nil
}

// FromVector returns a model of cfg whose parameters are a copy of v,
// the Vector of a model with cfg's shapes (of either precision).
func FromVector(cfg Config, v []float64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := acquireModel(cfg)
	if m == nil {
		m = newEmpty(cfg)
	}
	if err := m.SetParamVector(v); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// NewLike returns a zero-parameter model with m's configuration — the
// reusable destination for WeightedAverageInto.
func NewLike(m *Model) *Model {
	return newEmpty(m.Cfg)
}

// Layers returns the layer stack (views into the arena; mutations are
// visible to the model, so the float32 shadow is marked stale). The
// returned slice must not be modified.
func (m *Model) Layers() []Layer {
	m.shadow.fresh = false
	return m.layers
}

// Classifier returns the unified-classifier layer g (the last of the
// stack): views into the arena, so the shadow is marked stale.
func (m *Model) Classifier() Layer {
	m.shadow.fresh = false
	return m.layers[len(m.layers)-1]
}

// Params returns the parameter tensors in canonical order (W then B,
// layer by layer — for the single-hidden-layer config this is the
// historical W1,B1,W2,B2,WC,BC order).
func (m *Model) Params() []*tensor.Tensor {
	m.shadow.fresh = false
	out := make([]*tensor.Tensor, 0, 2*len(m.layers))
	for _, ly := range m.layers {
		out = append(out, ly.W, ly.B)
	}
	return out
}

// Clone deep-copies the model: one arena allocation plus view headers,
// or a pooled arena when a released same-config model is available (the
// copy overwrites every element, so no zeroing pass is needed).
func (m *Model) Clone() *Model {
	cp := acquireModel(m.Cfg)
	if cp == nil {
		cp = newEmpty(m.Cfg)
	}
	copy(cp.arena, m.arena)
	cp.shadow.fresh = false
	return cp
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int { return len(m.arena) }

// Vector returns the live flat parameter vector — a zero-copy view of
// the arena in canonical order. Mutations are visible to the model, so
// the float32 shadow is marked stale; callers that need a snapshot copy
// it.
func (m *Model) Vector() []float64 {
	m.shadow.fresh = false
	return m.arena
}

// SetParamVector writes a flat vector (from Vector of a same-config
// model) back into the arena. It copies into the existing
// storage and never allocates.
func (m *Model) SetParamVector(v []float64) error {
	if len(v) != len(m.arena) {
		return fmt.Errorf("nn: param vector length %d, want %d", len(v), len(m.arena))
	}
	copy(m.arena, v)
	m.shadow.fresh = false
	return nil
}

// Activations caches a forward pass for backprop. The per-layer buffers
// are reused across batches by ForwardInto, one set per precision
// (walk.go), so one Activations serves models of either precision.
type Activations struct {
	X *tensor.Tensor // (B, In)
	// Z is the embedding (the output of the second-to-last layer) and
	// Logits the classifier output, in float64 for either precision.
	Z      *tensor.Tensor // (B, ZDim)
	Logits *tensor.Tensor // (B, Classes)
	f64    pass[float64]
	f32    pass[float32]
}

// Forward runs the full model on a batch X of shape (B, In), allocating
// fresh activations. Hot loops that can reuse buffers across batches
// should call ForwardInto instead.
func (m *Model) Forward(x *tensor.Tensor) (*Activations, error) {
	acts := &Activations{}
	if err := m.ForwardInto(acts, x); err != nil {
		return nil, err
	}
	return acts, nil
}

// ForwardInto runs the full model on a batch X of shape (B, In), writing
// into acts. Activation buffers are reused in place whenever they have
// room (tensor.Fit), so alternating batch sizes allocate only at the
// largest size and steady state allocates nothing.
// The caller must not reuse acts while a previous batch's activations are
// still needed.
func (m *Model) ForwardInto(acts *Activations, x *tensor.Tensor) error {
	if x.Dims() != 2 || x.Dim(1) != m.Cfg.In {
		return fmt.Errorf("nn: input shape %v, want (B,%d)", x.Shape(), m.Cfg.In)
	}
	b, nL := x.Dim(0), len(m.layers)
	acts.X = x
	if m.Cfg.Precision == F32 {
		m.SyncShadow()
		p := &acts.f32
		p.x = tensor.Fit(p.x, x.Len())
		tensor.NarrowInto(p.x, x.Data())
		forward(f32Kernels, m.layers, m.shadow.arena, p, b)
		p.z = widen(p.z, p.out[nL-2], b, m.Cfg.ZDim)
		p.logits = widen(p.logits, p.out[nL-1], b, m.Cfg.Classes)
		acts.Z, acts.Logits = p.z, p.logits
		return nil
	}
	p := &acts.f64
	p.x = x.Data()
	forward(f64Kernels, m.layers, m.arena, p, b)
	p.z = view(p.z, p.out[nL-2], b, m.Cfg.ZDim)
	p.logits = view(p.logits, p.out[nL-1], b, m.Cfg.Classes)
	acts.Z, acts.Logits = p.z, p.logits
	return nil
}

// view returns t when it already views s as an (r, c) tensor, else a
// new header over s.
func view(t *tensor.Tensor, s []float64, r, c int) *tensor.Tensor {
	if t != nil && t.Dim(0) == r && t.Dim(1) == c && (len(s) == 0 || &t.Data()[0] == &s[0]) {
		return t
	}
	return tensor.MustFromSlice(s, r, c)
}

// widen returns src widened into t's storage, refitted to (r, c).
func widen(t *tensor.Tensor, src []float32, r, c int) *tensor.Tensor {
	t = tensor.Fit2D(t, r, c)
	tensor.WidenInto(t.Data(), src)
	return t
}

// RecomputeLogits refreshes acts.Logits from acts.Z in place — for
// methods that perturb the embedding after a forward pass (FedSR's
// probabilistic representation) and need logits of the perturbed Z
// without reallocating. An F32 pass narrows the perturbed Z first and
// widens the new logits.
func (m *Model) RecomputeLogits(acts *Activations) error {
	if !acts.ranBy(m) {
		return fmt.Errorf("nn: RecomputeLogits before a forward pass")
	}
	b, nL := acts.X.Dim(0), len(m.layers)
	if m.Cfg.Precision == F32 {
		p := &acts.f32
		tensor.NarrowInto(p.out[nL-2], acts.Z.Data())
		logits(f32Kernels, m.layers, m.shadow.arena, p, b)
		tensor.WidenInto(acts.Logits.Data(), p.out[nL-1])
		return nil
	}
	logits(f64Kernels, m.layers, m.arena, &acts.f64, b)
	return nil
}

// ranBy reports whether a holds a forward pass of m's precision and
// shape that a.Z still points at.
func (a *Activations) ranBy(m *Model) bool {
	if m.Cfg.Precision == F32 {
		return a.f32.ran(a, m.layers)
	}
	return a.f64.ran(a, m.layers)
}

// Embed returns only the embedding Z for a batch (no classifier).
func (m *Model) Embed(x *tensor.Tensor) (*tensor.Tensor, error) {
	acts, err := m.Forward(x)
	if err != nil {
		return nil, err
	}
	return acts.Z, nil
}

// Grads accumulates parameter gradients in an arena mirroring the
// model's layout, so zeroing and SGD stepping are single-slice sweeps.
// It also carries the backprop scratch buffers, which Backward reuses
// across batches so a local-training loop allocates no temporaries
// steady-state. Grads must not be shared across goroutines.
type Grads struct {
	cfg    Config
	arena  []float64
	all    *tensor.Tensor
	layers []Layer

	// clean reports that the arena is all +0: set by Zero and by the SGD
	// step, which clears the gradients it consumes, and cleared by
	// Backward. A recycled Grads that is clean needs no zeroing pass.
	clean bool
	// s64/s32 are Backward's scratch for each precision (walk.go). An F64
	// pass adds weight gradients straight into the arena.
	s64 backprop[float64]
	s32 backprop[float32]
}

// NewGrads allocates zeroed gradients for m, recycling a released
// same-config Grads (arena plus backprop scratch) when one is pooled.
func (m *Model) NewGrads() *Grads {
	if g := acquireGrads(m.Cfg, len(m.arena)); g != nil {
		if !g.clean {
			g.Zero()
		}
		return g
	}
	arena := make([]float64, len(m.arena))
	return &Grads{
		cfg:    m.Cfg,
		arena:  arena,
		all:    tensor.MustFromSlice(arena, len(arena)),
		layers: bindLayers(m.Cfg, arena),
		clean:  true,
	}
}

// Zero resets all gradient accumulators in one arena sweep.
func (g *Grads) Zero() {
	g.all.Zero()
	g.clean = true
}

// Params returns gradient tensors in the same canonical order as
// Model.Params: views into the arena, which may then be written, so
// the arena is no longer known to be clean.
func (g *Grads) Params() []*tensor.Tensor {
	g.clean = false
	out := make([]*tensor.Tensor, 0, 2*len(g.layers))
	for _, ly := range g.layers {
		out = append(out, ly.W, ly.B)
	}
	return out
}

// Backward accumulates gradients for a cached forward pass into grads.
// dLogits is the loss gradient at the logits (may be nil when the pass
// contributes only embedding-space losses); dZExtra is an additional
// gradient injected directly at the embedding (triplet, regularizer,
// prototype losses), also optional. An F32 pass narrows dLogits and
// dZExtra and widens its gradients into the float64 arena.
func (m *Model) Backward(acts *Activations, dLogits, dZExtra *tensor.Tensor, grads *Grads) error {
	if !acts.ranBy(m) {
		return fmt.Errorf("nn: Backward before a forward pass of this model")
	}
	if !grads.cfg.Equal(m.Cfg) {
		return fmt.Errorf("nn: grads built for config %+v, model has %+v", grads.cfg, m.Cfg)
	}
	b := acts.X.Dim(0)
	if dLogits != nil && !is2D(dLogits, b, m.Cfg.Classes) {
		return fmt.Errorf("nn: dLogits shape %v, want (%d,%d)", dLogits.Shape(), b, m.Cfg.Classes)
	}
	if dZExtra != nil && !is2D(dZExtra, b, m.Cfg.ZDim) {
		return fmt.Errorf("nn: dZExtra: shape %v, want (%d,%d)", dZExtra.Shape(), b, m.Cfg.ZDim)
	}
	grads.clean = false
	if m.Cfg.Precision == F32 {
		s := &grads.s32
		var dl []float32
		if dLogits != nil {
			s.dl = tensor.Fit(s.dl, dLogits.Len())
			tensor.NarrowInto(s.dl, dLogits.Data())
			dl = s.dl
		}
		backward(f32Kernels, m.layers, m.shadow.arena, &acts.f32, dl, dLogits != nil, dZExtra, grads.arena, s, b)
		return nil
	}
	var dl []float64
	if dLogits != nil {
		dl = dLogits.Data()
	}
	backward(f64Kernels, m.layers, m.arena, &acts.f64, dl, dLogits != nil, dZExtra, grads.arena, &grads.s64, b)
	return nil
}

// is2D reports whether t has shape (r, c).
func is2D(t *tensor.Tensor, r, c int) bool {
	return t.Dims() == 2 && t.Dim(0) == r && t.Dim(1) == c
}

// SGD is a momentum SGD optimizer with decoupled weight decay and
// optional global-norm gradient clipping. The velocity is one flat
// vector mirroring the parameter arena, so a step is a single sweep.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Clip bounds the global gradient norm before the update (0 = off).
	Clip float64
	vel  []float64
	// rest reports that vel holds no velocity yet (a recycled vector
	// with stale contents): the next step reads it as +0.
	rest bool
}

// NewSGD constructs an optimizer for one model instance. Clipping is off
// by default; set Clip explicitly.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update in place: v ← m·v − lr·(g + wd·θ); θ ← θ + v.
// It clears g for the next batch and, for an F32 model, narrows the new
// parameters into the float32 shadow in the same sweep.
func (s *SGD) Step(m *Model, g *Grads) error {
	return s.step(m, nil, g)
}

// StepFrom applies one update to src's parameters like Step, but writes
// the result into a model drawn from the recycling pool and returns it;
// src is only read. It is the first step of a local pass: the pass
// starts from the global model without cloning it.
func (s *SGD) StepFrom(src *Model, g *Grads) (*Model, error) {
	dst := acquireModel(src.Cfg)
	if dst == nil {
		dst = newEmpty(src.Cfg)
	}
	if err := s.step(dst, src.arena, g); err != nil {
		dst.Release()
		return nil, err
	}
	return dst, nil
}

// step is one sweep of tensor.SGDStep over the arena: src (nil: m's own
// parameters) stepped into m, the clip factor applied to the gradients
// as they are read. The clip norm stays a scalar sum in ascending
// order.
func (s *SGD) step(m *Model, src []float64, g *Grads) error {
	pd, gd := m.arena, g.arena
	if len(pd) != len(gd) {
		return fmt.Errorf("nn: sgd param count %d vs grad count %d", len(pd), len(gd))
	}
	if len(s.vel) != len(pd) {
		s.vel = acquireVel(len(pd))
		s.rest = true
	}
	scale := 1.0
	if s.Clip > 0 {
		total := 0.0
		for _, v := range gd {
			total += v * v
		}
		if norm := math.Sqrt(total); norm > s.Clip {
			scale = s.Clip / norm
		}
	}
	var shadow []float32
	if m.Cfg.Precision == F32 {
		shadow = m.shadowArena()
	}
	tensor.SGDStep{Momentum: s.Momentum, LR: s.LR, WeightDecay: s.WeightDecay, GradScale: scale, FromRest: s.rest}.Apply(pd, src, s.vel, gd, shadow)
	s.rest = false
	m.shadow.fresh = shadow != nil
	g.clean = true
	return nil
}

// WeightedAverageInto computes the normalized weighted average of the
// models into dst, reusing dst's arena: zero steady-state allocations.
// dst must not alias any of the models.
func WeightedAverageInto(dst *Model, models []*Model, weights []float64) error {
	if len(models) == 0 {
		return fmt.Errorf("nn: average of zero models")
	}
	if len(weights) != len(models) {
		return fmt.Errorf("nn: %d weights for %d models", len(weights), len(models))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("nn: negative weight %g", w)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("nn: zero total weight")
	}
	for i, m := range models {
		if !m.Cfg.Equal(dst.Cfg) {
			return fmt.Errorf("nn: model %d config %+v differs from %+v", i, m.Cfg, dst.Cfg)
		}
		if &m.arena[0] == &dst.arena[0] {
			return fmt.Errorf("nn: average destination aliases model %d", i)
		}
	}
	ws, srcs := dst.sum.ws[:0], dst.sum.srcs[:0]
	for i, m := range models {
		ws = append(ws, weights[i]/total)
		srcs = append(srcs, m.arena)
	}
	tensor.WeightedSumInto(dst.arena, srcs, ws)
	clear(srcs) // hold no reference to the inputs' arenas
	dst.sum.ws, dst.sum.srcs = ws, srcs
	dst.shadow.fresh = false
	return nil
}
