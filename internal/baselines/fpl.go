package baselines

import (
	"strconv"
	"sync"

	"github.com/pardon-feddg/pardon/internal/finch"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// FPL implements "Rethinking Federated Learning with Domain Shift: A
// Prototype View" (Huang et al., CVPR 2023): participating clients report
// per-class embedding prototypes; the server clusters each class's
// prototypes (here with FINCH, parameter-free) and averages cluster
// centers into unbiased global prototypes; local training adds a
// prototype-contrastive term pulling embeddings toward their class's
// global prototype and away from the others.
//
// Because prototypes are rebuilt each round from the sampled participants
// only, FPL observes a partial view of the domain population under client
// sampling — the structural weakness PARDON's one-time interpolation style
// avoids (paper §I, §IV-B).
type FPL struct {
	// ProtoCoef weights the prototype-contrastive loss.
	ProtoCoef float64
	// Tau is the contrastive temperature.
	Tau float64

	mu     sync.RWMutex
	protos *tensor.Tensor // (Classes, ZDim); zero rows = unobserved class

	avg fl.Averager
	// slots holds one activation set per ForEach slot for Aggregate's
	// class-mean forwards, reused across rounds (Aggregate is invoked
	// serially by the round coordinator).
	slots []nn.Activations
}

var _ fl.Algorithm = (*FPL)(nil)

// NewFPL returns FPL with its default coefficients.
func NewFPL() *FPL {
	return &FPL{ProtoCoef: 1.0, Tau: 0.5}
}

// Name implements fl.Algorithm.
func (*FPL) Name() string { return "FPL" }

// Setup implements fl.Algorithm. Prototypes start empty; the first round
// trains with cross-entropy alone.
func (f *FPL) Setup(*fl.Env, []*fl.Client) error { return nil }

// Prototypes returns a copy of the current global prototypes (nil before
// the first aggregation) — exposed for tests and the privacy discussion
// (class-level prototypes are exactly the kind of shared signal the paper
// flags as a leak channel in related work).
func (f *FPL) Prototypes() *tensor.Tensor {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.protos == nil {
		return nil
	}
	return f.protos.Clone()
}

// LocalTrain implements fl.Algorithm.
func (f *FPL) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	r := env.RNG.Stream("FPL", "train", strconv.Itoa(c.ID), strconv.Itoa(round))

	f.mu.RLock()
	protos := f.protos
	f.mu.RUnlock()

	acts := nn.AcquireActivations()
	defer acts.Release()
	bufs := bufsPool.Get().(*trainBufs)
	defer bufsPool.Put(bufs)
	return fl.LocalSGD(env, c, global, r, 0, func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, _ []int) error {
		if err := model.ForwardInto(acts, x); err != nil {
			return err
		}
		_, dLogits, err := bufs.ce.CrossEntropy(acts.Logits, y)
		if err != nil {
			return err
		}
		var dz *tensor.Tensor
		if protos != nil {
			_, dzP, err := bufs.head.ProtoContrast(acts.Z, y, protos, f.Tau)
			if err != nil {
				return err
			}
			dz = dzP.Scale(f.ProtoCoef)
		}
		return model.Backward(acts, dLogits, dz, grads)
	})
}

// Aggregate implements fl.Algorithm: FedAvg for parameters, then the
// cluster-and-average prototype rebuild from this round's participants.
// Each participant's class means come from its own update's forward,
// run on env.ForEach with a per-slot input buffer, and are collected in
// participant order.
func (f *FPL) Aggregate(env *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	global, err := f.avg.FedAvg(parts, updates)
	if err != nil {
		return nil, err
	}
	classes := env.ModelCfg.Classes
	zdim := env.ModelCfg.ZDim
	means := make([][][]float64, len(parts))
	xs := make([]*tensor.Tensor, env.Slots())
	if len(f.slots) < env.Slots() {
		f.slots = make([]nn.Activations, env.Slots())
	}
	err = env.ForEach(len(parts), func(slot, i int) error {
		var err error
		means[i], xs[slot], err = localClassMeans(updates[i], parts[i], xs[slot], &f.slots[slot])
		return err
	})
	if err != nil {
		return nil, err
	}
	// Per-class prototype sets across participants.
	perClass := make([][][]float64, classes)
	for i, c := range parts {
		counts := countLabels(c.Labels, classes)
		for y := 0; y < classes; y++ {
			if counts[y] == 0 {
				continue
			}
			perClass[y] = append(perClass[y], means[i][y])
		}
	}
	protos := tensor.New(classes, zdim)
	pd := protos.Data()
	for y := 0; y < classes; y++ {
		set := perClass[y]
		if len(set) == 0 {
			continue
		}
		var center []float64
		if len(set) < 3 {
			center = meanVecs(set)
		} else {
			// Cluster-then-average: FINCH over client prototypes, then
			// average the cluster centers equally (unbiased prototype).
			res, err := finch.Cluster(set, finch.Euclidean)
			if err != nil {
				return nil, err
			}
			part := res.Last()
			centers := make([][]float64, part.NumClusters)
			for cl := 0; cl < part.NumClusters; cl++ {
				var members [][]float64
				for i, lab := range part.Labels {
					if lab == cl {
						members = append(members, set[i])
					}
				}
				centers[cl] = meanVecs(members)
			}
			center = meanVecs(centers)
		}
		copy(pd[y*zdim:(y+1)*zdim], center)
	}
	f.mu.Lock()
	f.protos = protos
	f.mu.Unlock()
	return global, nil
}

func countLabels(labels []int, classes int) []int {
	out := make([]int, classes)
	for _, y := range labels {
		if y >= 0 && y < classes {
			out[y]++
		}
	}
	return out
}

func meanVecs(vecs [][]float64) []float64 {
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		for j, x := range v {
			out[j] += x
		}
	}
	inv := 1.0 / float64(len(vecs))
	for j := range out {
		out[j] *= inv
	}
	return out
}
