package fl

import (
	"math"
	"math/rand"

	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// LocalSGDBody is the signature of LocalSGD's swappable body.
type LocalSGDBody = func(env *Env, c *Client, global *nn.Model, r *rand.Rand, clip float64,
	step func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error) (*nn.Model, error)

// SweepLocalSGD is the production body of LocalSGD.
var SweepLocalSGD LocalSGDBody = sweepLocalSGD

// SetLocalSGD makes body the body of every LocalSGD call, including the
// calls the methods make from their LocalTrain, and returns a func that
// restores the previous one. Not safe while LocalSGD runs.
func SetLocalSGD(body LocalSGDBody) (restore func()) {
	prev := localSGD
	localSGD = body
	return func() { localSGD = prev }
}

// LegacyLocalSGD is the oracle of the fused local loop: the loop as it
// stood before it stopped cloning. It clones global, zeroes the
// gradients before every batch and steps with the historical two-pass
// update (clip by scaling the gradients in their own pass, then
// v = m·v − lr·(g + wd·θ); θ += v from a zeroed velocity), walking the
// parameters and gradients tensor by tensor in canonical order, which
// is the arena order.
func LegacyLocalSGD(env *Env, c *Client, global *nn.Model, r *rand.Rand, clip float64,
	step func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error) (*nn.Model, error) {
	model := global.Clone()
	grads := model.NewGrads()
	vel := make([]float64, model.NumParams())
	h := env.Hyper
	for epoch := 0; epoch < h.LocalEpochs; epoch++ {
		for _, idx := range Batches(c.Len(), h.BatchSize, r) {
			x, y := c.BatchInto(nil, nil, idx)
			grads.Zero()
			if err := step(model, grads, x, y, idx); err != nil {
				return nil, err
			}
			gs, ps := grads.Params(), model.Params()
			if clip > 0 {
				total := 0.0
				for _, g := range gs {
					for _, v := range g.Data() {
						total += v * v
					}
				}
				if norm := math.Sqrt(total); norm > clip {
					for _, g := range gs {
						g.Scale(clip / norm)
					}
				}
			}
			j := 0
			for i, p := range ps {
				pd, gd := p.Data(), gs[i].Data()
				for k := range pd {
					vel[j] = h.Momentum*vel[j] - h.LR*(gd[k]+h.WeightDecay*pd[k])
					pd[k] += vel[j]
					j++
				}
			}
		}
	}
	return model, nil
}
