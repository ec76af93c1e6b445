package baselines

import (
	"fmt"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
)

// FedGMA implements "Gradient Masked Averaging for Federated Learning"
// (Tenison et al., TMLR 2023): local training is plain cross-entropy, but
// the server masks each parameter coordinate by the signed agreement of
// the client updates — coordinates where clients disagree on the update
// direction (agreement below τ) are damped, on the invariant-mechanism
// hypothesis that agreed directions generalize.
type FedGMA struct {
	// Tau is the agreement threshold in [0,1].
	Tau float64
	// ServerLR scales the masked averaged update.
	ServerLR float64
	// MaskedScale is applied to below-threshold coordinates (the paper's
	// soft variant uses the agreement score; 0 hard-masks).
	MaskedScale float64

	// Aggregation scratch, reused across rounds (Aggregate is invoked
	// serially by the round coordinator): the weighted mean delta, the
	// signed agreement mass per coordinate, and the output model.
	avg     []float64
	signSum []float64
	out     *nn.Model
}

var _ fl.Algorithm = (*FedGMA)(nil)

// NewFedGMA returns FedGMA with the paper's recommended threshold.
func NewFedGMA() *FedGMA {
	return &FedGMA{Tau: 0.4, ServerLR: 1.0, MaskedScale: 0.0}
}

// Name implements fl.Algorithm.
func (*FedGMA) Name() string { return "FedGMA" }

// Setup implements fl.Algorithm (no signal exchange).
func (*FedGMA) Setup(*fl.Env, []*fl.Client) error { return nil }

// LocalTrain implements fl.Algorithm.
func (*FedGMA) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	return trainCE(env, c, global, round, "FedGMA")
}

// Aggregate implements fl.Algorithm: gradient-masked averaging as two
// flat sweeps over the parameter arenas. Pass one walks each update's
// arena once, accumulating the weighted mean delta and the signed
// agreement mass per coordinate; pass two writes the masked update. No
// per-round allocation: the deltas are never materialized and the
// scratch vectors and output arena are recycled.
func (g *FedGMA) Aggregate(_ *fl.Env, global *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fedgma: no updates")
	}
	gv := global.Vector()
	n := len(gv)
	totalW := 0.0
	for i, u := range updates {
		if u.NumParams() != n {
			return nil, fmt.Errorf("fedgma: update %d has %d params, want %d", i, u.NumParams(), n)
		}
		totalW += float64(parts[i].Len())
	}
	if len(g.avg) != n {
		g.avg = make([]float64, n)
		g.signSum = make([]float64, n)
	} else {
		for j := range g.avg {
			g.avg[j] = 0
			g.signSum[j] = 0
		}
	}
	for i, u := range updates {
		w := float64(parts[i].Len()) / totalW
		uv := u.Vector()
		for j, v := range uv {
			d := v - gv[j]
			g.avg[j] += w * d
			switch {
			case d > 0:
				g.signSum[j] += w
			case d < 0:
				g.signSum[j] -= w
			}
		}
	}

	if g.out == nil || !g.out.Cfg.Equal(global.Cfg) {
		g.out = nn.NewLike(global)
	}
	ov := g.out.Vector()
	for j := 0; j < n; j++ {
		agreement := g.signSum[j]
		if agreement < 0 {
			agreement = -agreement
		}
		scale := g.ServerLR
		if agreement < g.Tau {
			scale *= g.MaskedScale
		}
		ov[j] = gv[j] + scale*g.avg[j]
	}
	return g.out, nil
}
