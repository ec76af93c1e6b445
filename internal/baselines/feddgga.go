package baselines

import (
	"math"
	"sync"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// FedDGGA implements "Federated Domain Generalization with Generalization
// Adjustment" (Zhang et al., CVPR 2023): local training is plain
// cross-entropy, but aggregation weights are adjusted dynamically so that
// clients with larger generalization gaps — the aggregated model degrades
// more on their data than their own local update — receive more weight,
// flattening the gap variance for a tighter generalization bound.
//
// The per-round gap is estimated only on participating clients, so under
// client sampling the adjustment chases a partial, round-specific view of
// the population — the weakness the paper's §I highlights. The extra
// server-side evaluations also make aggregation cost grow with
// participants (Fig. 4's "linearly increasing" overhead).
type FedDGGA struct {
	// StepSize bounds the per-round weight adjustment (paper's d_r).
	StepSize float64
	// MinWeight floors adjusted weights before normalization.
	MinWeight float64
	// EvalCap bounds per-client loss-evaluation sample count.
	EvalCap int

	mu      sync.Mutex
	weights map[int]float64 // persistent per-client aggregation weight
	avg     fl.Averager     // reused arena for the provisional FedAvg

	// Aggregation scratch, reused across rounds (Aggregate holds mu):
	// every participant's evaluation rows stacked in x, participant i's
	// at rows [offs[i], offs[i+1]), with views of them (xs) and of the
	// provisional model's logits (logits); that forward's activations;
	// one activation set per ForEach slot for the updates' forwards;
	// the gap and weight buffers; and the output model, which the next
	// round overwrites (fl.Run clones the final global).
	x      *tensor.Tensor
	offs   []int
	xs     []*tensor.Tensor
	logits []*tensor.Tensor
	acts   nn.Activations
	slots  []nn.Activations
	gaps   []float64
	ws     []float64
	out    *nn.Model
}

var _ fl.Algorithm = (*FedDGGA)(nil)

// NewFedDGGA returns FedDG-GA with its published-style defaults.
func NewFedDGGA() *FedDGGA {
	return &FedDGGA{StepSize: 0.2, MinWeight: 0.01, EvalCap: 128, weights: map[int]float64{}}
}

// Name implements fl.Algorithm.
func (*FedDGGA) Name() string { return "FedDG-GA" }

// Setup implements fl.Algorithm (no signal exchange).
func (*FedDGGA) Setup(*fl.Env, []*fl.Client) error { return nil }

// LocalTrain implements fl.Algorithm.
func (*FedDGGA) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	return trainCE(env, c, global, round, "FedDG-GA")
}

// Aggregate implements fl.Algorithm: generalization-adjusted weighting.
//
// The gaps take one forward of the provisional model over every
// participant's evaluation rows stacked into one batch, each participant
// gathering its rows on env.ForEach and taking its loss over its own rows
// of the logits (rows are independent, so the bits match one forward per
// participant), and one forward per update on env.ForEach. No model is
// forwarded from two goroutines at once: a forward writes the model's
// float32 shadow.
func (g *FedDGGA) Aggregate(env *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	// Step 1: provisional FedAvg global (reused arena; only evaluated,
	// never returned).
	provisional, err := g.avg.FedAvg(parts, updates)
	if err != nil {
		return nil, err
	}

	// Step 2: generalization gap per participant — the provisional
	// global's loss on client data minus the client's own update's loss.
	if cap(g.gaps) < len(parts) {
		g.gaps = make([]float64, len(parts))
		g.ws = make([]float64, len(parts))
	}
	gaps, ws := g.gaps[:len(parts)], g.ws[:len(parts)]
	g.offs = tensor.Fit(g.offs, len(parts)+1)
	g.offs[0] = 0
	for i, c := range parts {
		n := c.Len()
		if g.EvalCap > 0 && n > g.EvalCap {
			n = g.EvalCap
		}
		g.offs[i+1] = g.offs[i] + n
	}
	g.x = tensor.Fit2D(g.x, g.offs[len(parts)], provisional.Cfg.In)
	g.xs = rowViews(g.xs, g.x, g.offs)
	// RowsInto fills each view in place and cannot fail.
	_ = env.ForEach(len(parts), func(_, i int) error {
		parts[i].RowsInto(g.xs[i], g.xs[i].Dim(0))
		return nil
	})
	if err := provisional.ForwardInto(&g.acts, g.x); err != nil {
		return nil, err
	}
	g.logits = rowViews(g.logits, g.acts.Logits, g.offs)
	for i, c := range parts {
		if gaps[i], _, err = loss.CrossEntropy(g.logits[i], c.Labels[:g.logits[i].Dim(0)]); err != nil {
			return nil, err
		}
	}
	if len(g.slots) < env.Slots() {
		g.slots = make([]nn.Activations, env.Slots())
	}
	err = env.ForEach(len(parts), func(slot, i int) error {
		x := g.xs[i]
		lLocal, err := ceLossOn(&g.slots[slot], updates[i], x, parts[i].Labels[:x.Dim(0)])
		gaps[i] -= lLocal
		return err
	})
	if err != nil {
		return nil, err
	}
	meanGap := 0.0
	for _, gp := range gaps {
		meanGap += gp
	}
	meanGap /= float64(len(gaps))
	maxDev := 0.0
	for _, gp := range gaps {
		if d := math.Abs(gp - meanGap); d > maxDev {
			maxDev = d
		}
	}

	// Step 3: momentum weight update a_i ← a_i + step·(gap_i − mean)/maxDev.
	for i, c := range parts {
		w, ok := g.weights[c.ID]
		if !ok {
			w = 1.0 / float64(len(parts))
		}
		if maxDev > 1e-12 {
			w += g.StepSize * (gaps[i] - meanGap) / maxDev
		}
		if w < g.MinWeight {
			w = g.MinWeight
		}
		g.weights[c.ID] = w
	}

	// Step 4: aggregate with the adjusted, normalized weights.
	for i, c := range parts {
		ws[i] = g.weights[c.ID]
	}
	if g.out == nil || !g.out.Cfg.Equal(updates[0].Cfg) {
		g.out = nn.NewLike(updates[0])
	}
	if err := nn.WeightedAverageInto(g.out, updates, ws); err != nil {
		return nil, err
	}
	return g.out, nil
}

// ceLossOn evaluates mean cross-entropy of a model on inputs x with
// labels y, running the forward pass in acts.
func ceLossOn(acts *nn.Activations, m *nn.Model, x *tensor.Tensor, y []int) (float64, error) {
	if err := m.ForwardInto(acts, x); err != nil {
		return 0, err
	}
	l, _, err := loss.CrossEntropy(acts.Logits, y)
	return l, err
}

// rowViews returns one view per participant of t's rows
// [offs[i], offs[i+1]), reusing each view in vs that already covers
// exactly those rows, so steady-state rounds build none.
func rowViews(vs []*tensor.Tensor, t *tensor.Tensor, offs []int) []*tensor.Tensor {
	d := t.Dim(1)
	data := t.Data()
	vs = tensor.Fit(vs, len(offs)-1)
	for i := range vs {
		rows := data[offs[i]*d : offs[i+1]*d]
		v := vs[i]
		if v == nil || v.Dim(1) != d || len(v.Data()) != len(rows) || &v.Data()[0] != &rows[0] {
			vs[i] = tensor.MustFromSlice(rows, offs[i+1]-offs[i], d)
		}
	}
	return vs
}
