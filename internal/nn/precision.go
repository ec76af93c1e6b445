// Float32 compute path ("mixed precision"). The arena layout has a
// single dtype seam (DESIGN.md §6): every parameter lives in one flat
// slice and every consumer walks it through views. The F32 path
// exploits that seam the way fp16 training frameworks do — with master
// weights:
//
//   - The float64 arena stays authoritative. Aggregation, serialization
//     hashes, FedGMA's sign masks, SGD momentum, and every algorithm
//     keep their exact float64 semantics.
//   - The arena is narrowed into a float32 shadow, and the matmul-heavy
//     forward/backward runs through the float32 micro-kernels
//     (tensor.MatMulF32 and friends) at half the memory bandwidth. The
//     SGD step that changes the master writes the shadow in the same
//     sweep (tensor.SGDStep); any other change marks it stale, and a
//     forward pass narrows only a stale shadow.
//   - Losses stay float64: the embedding Z and the logits are widened
//     after the forward pass (exact — every float32 is a float64), so
//     loss.* code is precision-blind. Gradients narrow back to float32
//     at the logits/embedding boundary, flow through float32 matmuls,
//     and widen again as they accumulate into the float64 Grads arena.
//
// Accuracy: each float32 dot product carries relative error bounded by
// 2·k·u·Σ|a_p·b_p| with u = 2⁻²⁴ (see the tensor f32 property tests);
// for the shallow MLP stacks here that keeps training within ~1e-3 of
// the float64 trajectory per step, which the nn and fl equivalence
// tests pin down.
package nn

import (
	"fmt"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Precision selects the compute dtype of a model's hot path.
type Precision uint8

const (
	// F64 is the default: float64 end-to-end, bit-identical to the
	// historical implementation.
	F64 Precision = iota
	// F32 runs forward/backward matmuls in float32 against a narrowed
	// weight shadow, keeping float64 master weights.
	F32
)

// String returns the canonical spelling used by flags, specs and sweep
// axes ("f64", "f32").
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("precision(%d)", p)
}

// ParsePrecision parses the canonical spelling; the empty string means
// the default (F64).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("nn: unknown precision %q (want f64 or f32)", s)
}

// bind32 carves a float32 arena into per-layer W/B slices in canonical
// order, mirroring bindLayers.
func bind32(cfg Config, arena []float32) (w, b [][]float32) {
	shapes := cfg.layerShapes()
	w = make([][]float32, len(shapes))
	b = make([][]float32, len(shapes))
	off := 0
	for i, s := range shapes {
		w[i] = arena[off : off+s.in*s.out]
		off += s.in * s.out
		b[i] = arena[off : off+s.out]
		off += s.out
	}
	return w, b
}

// shadowArena returns the float32 shadow's storage, allocating it (and
// its per-layer views) on first use.
func (m *Model) shadowArena() []float32 {
	if len(m.shadow.arena) != len(m.arena) {
		m.shadow.arena = make([]float32, len(m.arena))
		m.shadow.w, m.shadow.b = bind32(m.Cfg, m.shadow.arena)
	}
	return m.shadow.arena
}

// SyncShadow re-narrows the master arena into the float32 shadow of an
// F32 model when the shadow is stale; it does nothing for an F64 model
// or a fresh shadow. The shadow goes stale whenever the arena can have
// changed outside an SGD step (New, Clone, Vector, Params, Layers,
// Classifier, SetParamVector, UnmarshalBinary, WeightedAverageInto),
// and every forward pass calls SyncShadow first, so a forward never
// reads a stale shadow. A forward of a stale model therefore writes the
// model: never forward a model with a stale shadow from two goroutines.
// Sync it first (fl.Run does, once per round, before the local
// fan-out), after which concurrent forwards only read it.
func (m *Model) SyncShadow() {
	if m.Cfg.Precision != F32 || m.shadow.fresh {
		return
	}
	tensor.NarrowInto(m.shadowArena(), m.arena)
	m.shadow.fresh = true
}

// forward32 is ForwardInto's F32 body: float32 matmuls layer by layer,
// then Z and the logits widened into the float64 tensors the losses
// consume. Reuses acts' buffers across same-size batches like the
// float64 path.
func (m *Model) forward32(acts *Activations, x *tensor.Tensor) error {
	m.SyncShadow()
	b := x.Dim(0)
	nL := len(m.layers)
	if len(acts.pre) != nL {
		acts.pre = make([]*tensor.Tensor, nL)
		acts.out = make([]*tensor.Tensor, nL)
	}
	if len(acts.out32) != nL {
		acts.pre32 = make([][]float32, nL)
		acts.out32 = make([][]float32, nL)
	}
	acts.X = x
	acts.x32 = tensor.Fit(acts.x32, b*m.Cfg.In)
	tensor.NarrowInto(acts.x32, x.Data())
	cur := acts.x32
	for i, ly := range m.layers {
		in, out := ly.W.Dim(0), ly.W.Dim(1)
		acts.pre32[i] = tensor.Fit(acts.pre32[i], b*out)
		tensor.MatMulF32(acts.pre32[i], cur, m.shadow.w[i], b, in, out)
		addRowVector32(acts.pre32[i], m.shadow.b[i])
		if ly.ReLU {
			acts.out32[i] = tensor.Fit(acts.out32[i], b*out)
			for j, v := range acts.pre32[i] {
				if v < 0 {
					v = 0
				}
				acts.out32[i][j] = v
			}
		} else {
			acts.out32[i] = acts.pre32[i]
		}
		cur = acts.out32[i]
	}
	// Widen the two activations the float64 loss layer consumes. out[i]
	// for the hidden layers stays nil — Backward dispatches to
	// backward32, which reads the float32 mirrors instead.
	emb := nL - 2
	acts.out[emb] = tensor.Fit2D(acts.out[emb], b, m.Cfg.ZDim)
	acts.pre[emb] = acts.out[emb]
	tensor.WidenInto(acts.out[emb].Data(), acts.out32[emb])
	acts.out[nL-1] = tensor.Fit2D(acts.out[nL-1], b, m.Cfg.Classes)
	acts.pre[nL-1] = acts.out[nL-1]
	tensor.WidenInto(acts.out[nL-1].Data(), acts.out32[nL-1])
	acts.Z = acts.out[emb]
	acts.Logits = acts.out[nL-1]
	return nil
}

// recomputeLogits32 refreshes acts.Logits from acts.Z for methods that
// perturb the float64 embedding after a forward pass (FedSR): the
// perturbed Z narrows into the float32 mirror, multiplies against the
// shadow classifier, and widens back.
func (m *Model) recomputeLogits32(acts *Activations) error {
	nL := len(m.layers)
	if len(acts.out32) != nL || acts.out32[nL-1] == nil {
		return fmt.Errorf("nn: RecomputeLogits before a forward pass")
	}
	emb := nL - 2
	tensor.NarrowInto(acts.out32[emb], acts.Z.Data())
	cls := m.layers[nL-1]
	tensor.MatMulF32(acts.out32[nL-1], acts.out32[emb], m.shadow.w[nL-1], acts.Z.Dim(0), cls.W.Dim(0), cls.W.Dim(1))
	addRowVector32(acts.out32[nL-1], m.shadow.b[nL-1])
	tensor.WidenInto(acts.Logits.Data(), acts.out32[nL-1])
	return nil
}

// backward32 is Backward's F32 body: loss gradients narrow at the
// logits/embedding boundary, flow through float32 matmuls against the
// shadow weights, and widen as they accumulate into the float64 Grads
// arena. Relies on the shadow this batch's forward pass read.
func (m *Model) backward32(acts *Activations, dLogits, dZExtra *tensor.Tensor, grads *Grads) error {
	nL := len(m.layers)
	if len(acts.out32) != nL || acts.out32[nL-1] == nil {
		return fmt.Errorf("nn: Backward before a forward pass of this model")
	}
	b := acts.X.Dim(0)
	sc := &grads.s32
	if len(sc.gW) != nL {
		sc.gW = make([][]float32, nL)
		sc.delta = make([][]float32, nL-1)
	}
	emb := nL - 2
	sc.delta[emb] = tensor.Fit(sc.delta[emb], b*m.Cfg.ZDim)
	dZ := sc.delta[emb]
	if dLogits != nil {
		if dLogits.Dim(0) != b || dLogits.Dim(1) != m.Cfg.Classes {
			return fmt.Errorf("nn: dLogits shape %v, want (%d,%d)", dLogits.Shape(), b, m.Cfg.Classes)
		}
		sc.dl = tensor.Fit(sc.dl, b*m.Cfg.Classes)
		tensor.NarrowInto(sc.dl, dLogits.Data())
		sc.gW[nL-1] = tensor.Fit(sc.gW[nL-1], m.Cfg.ZDim*m.Cfg.Classes)
		tensor.MatMulATBF32(sc.gW[nL-1], acts.out32[emb], sc.dl, b, m.Cfg.ZDim, m.Cfg.Classes)
		tensor.WidenAddInto(grads.layers[nL-1].W.Data(), sc.gW[nL-1])
		addColumnSums32(grads.layers[nL-1].B.Data(), sc.dl)
		tensor.MatMulABTF32(dZ, sc.dl, m.shadow.w[nL-1], b, m.Cfg.Classes, m.Cfg.ZDim)
	} else {
		for j := range dZ {
			dZ[j] = 0
		}
	}
	if dZExtra != nil {
		xd := dZExtra.Data()
		if len(xd) != len(dZ) {
			return fmt.Errorf("nn: dZExtra: shape %v, want (%d,%d)", dZExtra.Shape(), b, m.Cfg.ZDim)
		}
		for j, v := range xd {
			dZ[j] += float32(v)
		}
	}
	d := dZ
	for i := emb; i >= 0; i-- {
		input := acts.x32
		if i > 0 {
			input = acts.out32[i-1]
		}
		inW, outW := m.layers[i].W.Dim(0), m.layers[i].W.Dim(1)
		sc.gW[i] = tensor.Fit(sc.gW[i], inW*outW)
		tensor.MatMulATBF32(sc.gW[i], input, d, b, inW, outW)
		tensor.WidenAddInto(grads.layers[i].W.Data(), sc.gW[i])
		addColumnSums32(grads.layers[i].B.Data(), d)
		if i == 0 {
			break
		}
		sc.delta[i-1] = tensor.Fit(sc.delta[i-1], b*inW)
		dPrev := sc.delta[i-1]
		tensor.MatMulABTF32(dPrev, d, m.shadow.w[i], b, outW, inW)
		if m.layers[i-1].ReLU {
			hp := acts.pre32[i-1]
			for j := range dPrev {
				if hp[j] <= 0 {
					dPrev[j] = 0
				}
			}
		}
		d = dPrev
	}
	return nil
}

// addRowVector32 adds a length-n vector to every row of a (m·n) slice.
func addRowVector32(t, v []float32) {
	n := len(v)
	for o := 0; o < len(t); o += n {
		row := t[o : o+n]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// addColumnSums32 adds the column sums of a (m·n) float32 slice into a
// length-n float64 accumulator (bias gradients).
func addColumnSums32(acc []float64, t []float32) {
	n := len(acc)
	for o := 0; o < len(t); o += n {
		row := t[o : o+n]
		for j := range row {
			acc[j] += float64(row[j])
		}
	}
}
