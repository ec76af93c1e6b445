package baselines

import (
	"fmt"
	"math"

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
	// serially by the round coordinator): the participants' weights and
	// parameter vectors, and the output model.
	ws  []float64
	uvs [][]float64
	out *nn.Model
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

// Aggregate implements fl.Algorithm: gradient-masked averaging as one
// sweep over the coordinates, with the K updates in the inner loop, split
// into one contiguous column range per env.ForEach slot.
// Each coordinate's weighted mean delta and signed agreement live in
// registers, summed in participant order as the per-update passes did,
// and both the sign term and the threshold select are bit selects: the
// deltas' signs are random, so branches on them mispredict about half
// the time. A round allocates only the fan-out's closure, whatever the
// parameter count: the deltas are never materialized and the scratch and
// output arena are recycled.
func (g *FedGMA) Aggregate(env *fl.Env, global *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	if err := fl.CheckUpdates(parts, updates); err != nil {
		return nil, err
	}
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
	ws, uvs := g.ws[:0], g.uvs[:0]
	for i, u := range updates {
		ws = append(ws, float64(parts[i].Len())/totalW)
		uvs = append(uvs, u.Vector())
	}
	g.ws, g.uvs = ws, uvs

	if g.out == nil || !g.out.Cfg.Equal(global.Cfg) {
		g.out = nn.NewLike(global)
	}
	ov := g.out.Vector()[:n]
	// The threshold select compares bit patterns: for non-negative
	// floats they order as integers. A Tau that is not positive (or is
	// NaN) masks nothing, as agreement < Tau then never holds.
	var tau int64
	if g.Tau > 0 {
		tau = int64(math.Float64bits(g.Tau))
	}
	keep := math.Float64bits(g.ServerLR)
	masked := math.Float64bits(g.ServerLR * g.MaskedScale)
	// Each coordinate is summed by one slot, in participant order, so
	// the split leaves every bit as the serial sweep had it. The sweep
	// cannot fail.
	slots := env.Slots()
	_ = env.ForEach(slots, func(_, s int) error {
		lo, hi := s*n/slots, (s+1)*n/slots
		for j, g0 := range gv[lo:hi] {
			avg, sign := 0.0, 0.0
			for i, uv := range uvs {
				d := uv[lo+j] - g0
				w := ws[i]
				avg += w * d
				sign += signedWeight(d, w)
			}
			agreement := math.Float64bits(sign) &^ signBit
			below := uint64((int64(agreement) - tau) >> 63) // all ones when agreement < Tau
			ov[lo+j] = g0 + math.Float64frombits(keep&^below|masked&below)*avg
		}
		return nil
	})
	return g.out, nil
}

const signBit = 1 << 63

// signedWeight returns w carrying d's sign, or +0 when d is ±0 or NaN:
// the term a branch on d > 0 and d < 0 would add to the agreement (+0
// changes no sum that starts at +0, as an ascending sum never rounds
// to −0). w must be non-negative.
func signedWeight(d, w float64) float64 {
	bits := math.Float64bits(d)
	mag := bits &^ signBit
	zero := uint64(int64(mag-1) >> 63)                 // all ones when d is ±0
	nan := uint64(int64(0x7ff0000000000000-mag) >> 63) // all ones when d is NaN
	return math.Float64frombits((math.Float64bits(w) | bits&signBit) &^ (zero | nan))
}
