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
//   - The layers are walked by the same code as an F64 pass (walk.go),
//     over float32 buffers and the shadow; only the edges differ.
//     Losses stay float64: the embedding Z and the logits are widened
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

// shadowArena returns the float32 shadow's storage, allocating it on
// first use. It has the master arena's layout, so the layer walk reads
// it exactly as an F64 pass reads the master.
func (m *Model) shadowArena() []float32 {
	if len(m.shadow.arena) != len(m.arena) {
		m.shadow.arena = make([]float32, len(m.arena))
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
