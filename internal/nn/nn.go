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
	// against; a derived cache re-narrowed from the master arena at each
	// forward pass, never authoritative (see precision.go).
	shadow struct {
		arena []float32
		w, b  [][]float32
	}
}

// newEmpty allocates — or recycles, see recycle.go — a zero-parameter
// model for a validated config.
func newEmpty(cfg Config) *Model {
	if m := acquireModel(cfg); m != nil {
		for i := range m.arena {
			m.arena[i] = 0
		}
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

// NewLike returns a zero-parameter model with m's configuration — the
// reusable destination for WeightedAverageInto.
func NewLike(m *Model) *Model {
	return newEmpty(m.Cfg)
}

// Layers returns the layer stack (views into the arena; mutations are
// visible to the model). The returned slice must not be modified.
func (m *Model) Layers() []Layer { return m.layers }

// Classifier returns the unified-classifier layer g (the last of the
// stack): views into the arena.
func (m *Model) Classifier() Layer { return m.layers[len(m.layers)-1] }

// Params returns the parameter tensors in canonical order (W then B,
// layer by layer — for the single-hidden-layer config this is the
// historical W1,B1,W2,B2,WC,BC order).
func (m *Model) Params() []*tensor.Tensor {
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
	return cp
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int { return len(m.arena) }

// Vector returns the live flat parameter vector — a zero-copy view of
// the arena in canonical order. Mutations are visible to the model;
// callers that need a snapshot copy it.
func (m *Model) Vector() []float64 { return m.arena }

// SetParamVector writes a flat vector (from Vector of a same-config
// model) back into the arena. It copies into the existing
// storage and never allocates.
func (m *Model) SetParamVector(v []float64) error {
	if len(v) != len(m.arena) {
		return fmt.Errorf("nn: param vector length %d, want %d", len(v), len(m.arena))
	}
	copy(m.arena, v)
	return nil
}

// Activations caches a forward pass for backprop. The per-layer buffers
// are reused across same-size batches by ForwardInto.
type Activations struct {
	X *tensor.Tensor // (B, In)
	// pre[i]/out[i] are layer i's pre-activation and output; for layers
	// without ReLU they alias the same tensor.
	pre []*tensor.Tensor
	out []*tensor.Tensor
	// Z is the embedding (the output of the second-to-last layer) and
	// Logits the classifier output; both alias entries of out.
	Z      *tensor.Tensor // (B, ZDim)
	Logits *tensor.Tensor // (B, Classes)
	// Float32 mirrors used by the F32 compute path (precision.go): the
	// narrowed input and per-layer pre-activations/outputs. Z and Logits
	// above are then widened copies, so loss code sees float64 either way.
	x32          []float32
	pre32, out32 [][]float32
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
// room (tensor.Fit2D), so alternating batch sizes allocate only at the
// largest size and steady state allocates nothing.
// The caller must not reuse acts while a previous batch's activations are
// still needed.
func (m *Model) ForwardInto(acts *Activations, x *tensor.Tensor) error {
	if x.Dims() != 2 || x.Dim(1) != m.Cfg.In {
		return fmt.Errorf("nn: input shape %v, want (B,%d)", x.Shape(), m.Cfg.In)
	}
	if m.Cfg.Precision == F32 {
		return m.forward32(acts, x)
	}
	b := x.Dim(0)
	nL := len(m.layers)
	if len(acts.pre) != nL {
		acts.pre = make([]*tensor.Tensor, nL)
		acts.out = make([]*tensor.Tensor, nL)
	}
	acts.X = x
	cur := x
	for i, ly := range m.layers {
		w := ly.W.Dim(1)
		acts.pre[i] = tensor.Fit2D(acts.pre[i], b, w)
		if err := tensor.MatMulInto(acts.pre[i], cur, ly.W); err != nil {
			return err
		}
		addRowVector(acts.pre[i], ly.B)
		if ly.ReLU {
			acts.out[i] = tensor.Fit2D(acts.out[i], b, w)
			if err := tensor.ApplyInto(acts.out[i], acts.pre[i], relu); err != nil {
				return err
			}
		} else {
			acts.out[i] = acts.pre[i]
		}
		cur = acts.out[i]
	}
	acts.Z = acts.out[nL-2]
	acts.Logits = acts.out[nL-1]
	return nil
}

// RecomputeLogits refreshes acts.Logits from acts.Z in place — for
// methods that perturb the embedding after a forward pass (FedSR's
// probabilistic representation) and need logits of the perturbed Z
// without reallocating.
func (m *Model) RecomputeLogits(acts *Activations) error {
	if acts.Z == nil || acts.Logits == nil {
		return fmt.Errorf("nn: RecomputeLogits before a forward pass")
	}
	if m.Cfg.Precision == F32 {
		return m.recomputeLogits32(acts)
	}
	cls := m.Classifier()
	if err := tensor.MatMulInto(acts.Logits, acts.Z, cls.W); err != nil {
		return err
	}
	addRowVector(acts.Logits, cls.B)
	return nil
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

	// delta holds Backward's per-layer delta flows, grown only when the
	// batch outgrows them. Weight gradients need no scratch: the
	// aᵀ@b kernel adds them straight into the arena.
	delta []*tensor.Tensor
	// s32 is the float32 analog used by the F32 compute path
	// (precision.go): weight-gradient staging, delta flows, and the
	// narrowed loss gradient at the logits.
	s32 struct {
		gW    [][]float32
		delta [][]float32
		dl    []float32
	}
}

// NewGrads allocates zeroed gradients for m, recycling a released
// same-config Grads (arena plus backprop scratch) when one is pooled.
func (m *Model) NewGrads() *Grads {
	if g := acquireGrads(m.Cfg, len(m.arena)); g != nil {
		g.Zero()
		return g
	}
	arena := make([]float64, len(m.arena))
	g := &Grads{
		cfg:    m.Cfg,
		arena:  arena,
		all:    tensor.MustFromSlice(arena, len(arena)),
		layers: bindLayers(m.Cfg, arena),
	}
	g.delta = make([]*tensor.Tensor, len(g.layers)-1)
	return g
}

// Zero resets all gradient accumulators in one arena sweep.
func (g *Grads) Zero() { g.all.Zero() }

// Params returns gradient tensors in the same canonical order as
// Model.Params.
func (g *Grads) Params() []*tensor.Tensor {
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
// prototype losses), also optional.
func (m *Model) Backward(acts *Activations, dLogits, dZExtra *tensor.Tensor, grads *Grads) error {
	nL := len(m.layers)
	if acts.X == nil || len(acts.out) != nL || acts.out[nL-1] == nil {
		return fmt.Errorf("nn: Backward before a forward pass of this model")
	}
	if !grads.cfg.Equal(m.Cfg) {
		return fmt.Errorf("nn: grads built for config %+v, model has %+v", grads.cfg, m.Cfg)
	}
	if m.Cfg.Precision == F32 {
		return m.backward32(acts, dLogits, dZExtra, grads)
	}
	b := acts.X.Dim(0)
	emb := nL - 2 // the embedding projection; layers[nL-1] is g
	grads.delta[emb] = tensor.Fit2D(grads.delta[emb], b, m.Cfg.ZDim)
	dZ := grads.delta[emb]
	if dLogits != nil {
		if dLogits.Dim(0) != b || dLogits.Dim(1) != m.Cfg.Classes {
			return fmt.Errorf("nn: dLogits shape %v, want (%d,%d)", dLogits.Shape(), b, m.Cfg.Classes)
		}
		// Classifier grads, added straight into the accumulator.
		cls := m.layers[nL-1]
		if err := tensor.MatMulATBAddInto(grads.layers[nL-1].W, acts.Z, dLogits); err != nil {
			return err
		}
		addColumnSums(grads.layers[nL-1].B, dLogits)
		if err := tensor.MatMulABTInto(dZ, dLogits, cls.W); err != nil {
			return err
		}
	} else {
		dZ.Zero()
	}
	if dZExtra != nil {
		if err := dZ.AddInPlace(dZExtra); err != nil {
			return fmt.Errorf("nn: dZExtra: %w", err)
		}
	}
	// Walk the extractor stack top-down: embedding projection, then each
	// hidden layer with its ReLU gate.
	d := dZ
	for i := emb; i >= 0; i-- {
		input := acts.X
		if i > 0 {
			input = acts.out[i-1]
		}
		if err := tensor.MatMulATBAddInto(grads.layers[i].W, input, d); err != nil {
			return err
		}
		addColumnSums(grads.layers[i].B, d)
		if i == 0 {
			break
		}
		grads.delta[i-1] = tensor.Fit2D(grads.delta[i-1], b, m.layers[i].W.Dim(0))
		dPrev := grads.delta[i-1]
		if err := tensor.MatMulABTInto(dPrev, d, m.layers[i].W); err != nil {
			return err
		}
		if m.layers[i-1].ReLU {
			// ReLU gate on the producing layer's pre-activation.
			hp := acts.pre[i-1].Data()
			dd := dPrev.Data()
			for j := range dd {
				if hp[j] <= 0 {
					dd[j] = 0
				}
			}
		}
		d = dPrev
	}
	return nil
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
}

// NewSGD constructs an optimizer for one model instance. Clipping is off
// by default; set Clip explicitly.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update: v ← m·v − lr·(g + wd·θ); θ ← θ + v.
func (s *SGD) Step(m *Model, g *Grads) error {
	pd, gd := m.arena, g.arena
	if len(pd) != len(gd) {
		return fmt.Errorf("nn: sgd param count %d vs grad count %d", len(pd), len(gd))
	}
	if len(s.vel) != len(pd) {
		s.vel = acquireVel(len(pd))
	}
	if s.Clip > 0 {
		// The norm stays a scalar sum in ascending order.
		total := 0.0
		for _, v := range gd {
			total += v * v
		}
		if norm := math.Sqrt(total); norm > s.Clip {
			g.all.Scale(s.Clip / norm)
		}
	}
	tensor.MomentumStep(pd, s.vel, gd, s.Momentum, s.LR, s.WeightDecay)
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
	dst.all.Zero()
	for i, m := range models {
		if err := tensor.AddScaledInto(dst.all, dst.all, weights[i]/total, m.all); err != nil {
			return err
		}
	}
	return nil
}

func relu(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// addRowVector adds a length-n vector to every row of an (m,n) tensor.
func addRowVector(t *tensor.Tensor, v *tensor.Tensor) {
	rows, cols := t.Dim(0), t.Dim(1)
	td, vd := t.Data(), v.Data()
	for i := 0; i < rows; i++ {
		row := td[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += vd[j]
		}
	}
}

// addColumnSums adds the column sums of a (m,n) tensor into a length-n
// accumulator (bias gradients).
func addColumnSums(acc *tensor.Tensor, t *tensor.Tensor) {
	rows, cols := t.Dim(0), t.Dim(1)
	td, ad := t.Data(), acc.Data()
	for i := 0; i < rows; i++ {
		row := td[i*cols : (i+1)*cols]
		for j := range row {
			ad[j] += row[j]
		}
	}
}
