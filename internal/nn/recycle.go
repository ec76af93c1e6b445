// Arena recycling: Model and Grads objects (and SGD velocity vectors)
// are the dominant steady-state allocations of a federated round — every
// sampled client's first SGD step writes a fresh parameter arena
// (SGD.StepFrom), and the client builds a gradient arena plus backprop
// scratch and grows an optimizer velocity, all sized at NumParams. Recycling them across rounds (and runs) removes both the
// allocator's zeroing pass over each fresh arena and the GC pressure of
// megabytes of short-lived slices per round.
//
// Pools are keyed by arena length and checked against the full Config,
// so heterogeneous model shapes coexist; a config mismatch just falls
// back to a fresh allocation. Release is strictly opt-in and the caller
// must guarantee no outstanding references (views from Layers(),
// Vector(), …) survive the call — the fl round loop releases client
// updates only after aggregation has consumed them, and local-training
// loops release their Grads/SGD scratch on exit. Double-release or
// use-after-release corrupts training silently, so new call sites
// should be added sparingly.
package nn

import "sync"

var (
	modelPools sync.Map // arena len -> *sync.Pool of *Model
	gradsPools sync.Map // arena len -> *sync.Pool of *Grads
	velPools   sync.Map // len -> *sync.Pool of *[]float64
	actsPool   sync.Pool
)

func poolFor(m *sync.Map, n int) *sync.Pool {
	if p, ok := m.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := m.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// acquireModel returns a pooled model for cfg, or nil when none fits.
// The arena contents are whatever the previous owner left (the caller
// zeroes or overwrites).
func acquireModel(cfg Config) *Model {
	p := poolFor(&modelPools, cfg.arenaLen())
	for {
		v := p.Get()
		if v == nil {
			return nil
		}
		if m := v.(*Model); m.Cfg.Equal(cfg) {
			return m
		}
		// Same parameter count, different shape: drop it rather than
		// rebind layer views.
	}
}

// acquireGrads returns pooled gradients for cfg (arena length n), or
// nil when none fits. Contents are stale; the caller zeroes.
func acquireGrads(cfg Config, n int) *Grads {
	p := poolFor(&gradsPools, n)
	for {
		v := p.Get()
		if v == nil {
			return nil
		}
		if g := v.(*Grads); g.cfg.Equal(cfg) {
			return g
		}
	}
}

// Release returns the model's arena and layer bindings to the pool for
// reuse by a future New/NewLike/Clone of the same config. The caller
// must not touch m — or any view into it — afterwards.
func (m *Model) Release() {
	if m == nil || len(m.arena) == 0 {
		return
	}
	poolFor(&modelPools, len(m.arena)).Put(m)
}

// Release returns the gradient arena and its backprop scratch to the
// pool for reuse by a future NewGrads of the same config. The caller
// must not touch g afterwards.
func (g *Grads) Release() {
	if g == nil || len(g.arena) == 0 {
		return
	}
	poolFor(&gradsPools, len(g.arena)).Put(g)
}

// Release returns the optimizer's velocity vector to the pool. The
// optimizer itself stays usable; its next Step starts from rest (zero
// velocity), so release only at the end of a local training pass.
func (s *SGD) Release() {
	if s == nil || len(s.vel) == 0 {
		return
	}
	v := s.vel
	s.vel = nil
	poolFor(&velPools, len(v)).Put(&v)
}

// AcquireActivations returns an activation set for ForwardInto,
// recycled from a released one when the pool has it: its buffers,
// sized by an earlier pass, are reused in place (they fit any model,
// growing when a batch outgrows them).
func AcquireActivations() *Activations {
	if a, ok := actsPool.Get().(*Activations); ok {
		return a
	}
	return &Activations{}
}

// Release returns the activation buffers to the pool for a future
// AcquireActivations. The caller must not touch a — or Z, Logits or any
// other tensor read from it — afterwards.
func (a *Activations) Release() {
	if a == nil {
		return
	}
	// Drop the caller's batch (X, and the F64 pass's view of its
	// storage), and the views that mark a forward pass done, so a
	// recycled set reads as fresh to Backward and RecomputeLogits.
	a.X, a.Z, a.Logits = nil, nil, nil
	a.f64.x = nil
	actsPool.Put(a)
}

// acquireVel returns a velocity vector of length n. A recycled one keeps
// its stale contents: the first step after it reads the velocity as +0
// (tensor.SGDStep.FromRest), so no zeroing pass is needed.
func acquireVel(n int) []float64 {
	if v := poolFor(&velPools, n).Get(); v != nil {
		return *(v.(*[]float64))
	}
	return make([]float64, n)
}
