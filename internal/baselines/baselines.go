// Package baselines implements the five state-of-the-art FedDG methods the
// paper compares against (§IV: FedSR, FedGMA, FPL, FedDG-GA, CCST) plus
// plain FedAvg, all on the shared fl.Algorithm interface so every
// experiment swaps methods freely.
//
// Each implementation follows its source publication at the algorithmic
// level (what signal is shared, what the local objective is, how the
// server aggregates); see the per-file comments for the exact form and any
// simplification.
package baselines

import (
	"strconv"
	"sync"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// trainBufs are the loss-head buffers of one LocalTrain call, recycled
// across calls (bufsPool), so a warm call allocates none of them: the
// loss scratch of the cross-entropy heads (ce) and of the others
// (head), CCST's style-transferred rows (xp), FedSR's embedding
// gradient and class-mean targets (dz, targets), and the rows and
// activations of FedSR's class means (meanX, meanActs).
type trainBufs struct {
	ce, head        loss.Scratch
	xp, dz, targets *tensor.Tensor
	meanX           *tensor.Tensor
	meanActs        nn.Activations
}

var bufsPool = sync.Pool{New: func() any { return new(trainBufs) }}

// trainCE is the plain local-SGD cross-entropy loop shared by FedAvg and
// the server-side methods (FedGMA, FedDG-GA).
func trainCE(env *fl.Env, c *fl.Client, global *nn.Model, round int, name string) (*nn.Model, error) {
	r := env.RNG.Stream(name, "train", strconv.Itoa(c.ID), strconv.Itoa(round))
	// One activation set serves every batch, recycled across calls.
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
		return model.Backward(acts, dLogits, nil, grads)
	})
}

// FedAvg is the naïve baseline: local cross-entropy, size-weighted
// averaging (McMahan et al. 2017). The embedded Averager recycles the
// aggregation arena across rounds, so server-side aggregation allocates
// nothing steady-state.
type FedAvg struct {
	avg fl.Averager
}

var _ fl.Algorithm = (*FedAvg)(nil)

// Name implements fl.Algorithm.
func (*FedAvg) Name() string { return "FedAvg" }

// Setup implements fl.Algorithm (no signal exchange).
func (*FedAvg) Setup(*fl.Env, []*fl.Client) error { return nil }

// LocalTrain implements fl.Algorithm.
func (*FedAvg) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	return trainCE(env, c, global, round, "FedAvg")
}

// Aggregate implements fl.Algorithm.
func (f *FedAvg) Aggregate(_ *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	return f.avg.FedAvg(parts, updates)
}
