// Package landscape reproduces Fig. 1: the loss-landscape view of why
// naïve federated training under domain-based heterogeneity pulls local
// solutions apart, while PARDON's interpolative style-transferred data
// gives clients a shared convergence target.
//
// It evaluates the combined client loss on a 2-D slice of parameter space
// (filter-normalized random directions around the global model) and
// computes a feature-separation score on an unseen domain — the
// quantitative stand-in for the paper's t-SNE panel.
package landscape

import (
	"fmt"
	"math"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Grid is a square loss surface around a model.
type Grid struct {
	// Radius is the parameter-space half-width of the grid.
	Radius float64
	// Loss[i][j] is the loss at offset (x_i, y_j).
	Loss [][]float64
}

// Sharpness summarizes a grid: mean loss increase over the center value.
func (g *Grid) Sharpness() float64 {
	n := len(g.Loss)
	center := g.Loss[n/2][n/2]
	total, cnt := 0.0, 0
	for _, row := range g.Loss {
		for _, v := range row {
			total += v - center
			cnt++
		}
	}
	return total / float64(cnt)
}

// LossSurface evaluates the mean cross-entropy of the model over the
// clients' pooled data on a (steps×steps) grid spanned by two
// filter-normalized random directions scaled by radius.
func LossSurface(model *nn.Model, clients []*fl.Client, steps int, radius float64, seed uint64) (*Grid, error) {
	if steps%2 == 0 {
		steps++
	}
	src := rng.New(seed).Child("landscape")
	d1 := randomDirection(model, src.Stream("dir1"))
	d2 := randomDirection(model, src.Stream("dir2"))

	// The probe is a clone, so the live vector stays the fixed centre.
	base := model.Vector()
	probe := model.Clone()
	grid := &Grid{Radius: radius, Loss: make([][]float64, steps)}
	vec := make([]float64, len(base))
	var x *tensor.Tensor
	for i := 0; i < steps; i++ {
		grid.Loss[i] = make([]float64, steps)
		a := radius * (2*float64(i)/float64(steps-1) - 1)
		for j := 0; j < steps; j++ {
			b := radius * (2*float64(j)/float64(steps-1) - 1)
			for k := range base {
				vec[k] = base[k] + a*d1[k] + b*d2[k]
			}
			if err := probe.SetParamVector(vec); err != nil {
				return nil, err
			}
			l, err := pooledLoss(probe, clients, &x)
			if err != nil {
				return nil, err
			}
			grid.Loss[i][j] = l
		}
	}
	return grid, nil
}

// randomDirection draws a random parameter direction with per-tensor
// normalization matching the parameter scale (Li et al.'s filter
// normalization, adapted per parameter tensor).
func randomDirection(model *nn.Model, r interface{ NormFloat64() float64 }) []float64 {
	params := model.Params()
	out := make([]float64, 0, model.NumParams())
	for _, p := range params {
		seg := make([]float64, p.Len())
		norm := 0.0
		for i := range seg {
			seg[i] = r.NormFloat64()
			norm += seg[i] * seg[i]
		}
		norm = math.Sqrt(norm)
		pScale := p.Norm()
		if norm > 0 && pScale > 0 {
			f := pScale / norm
			for i := range seg {
				seg[i] *= f
			}
		}
		out = append(out, seg...)
	}
	return out
}

// pooledLoss gathers each client's inputs into the reused buffer *x.
func pooledLoss(m *nn.Model, clients []*fl.Client, x **tensor.Tensor) (float64, error) {
	total, n := 0.0, 0
	for _, c := range clients {
		*x = c.RowsInto(*x, c.Len())
		acts, err := m.Forward(*x)
		if err != nil {
			return 0, err
		}
		l, _, err := loss.CrossEntropy(acts.Logits, c.Labels)
		if err != nil {
			return 0, err
		}
		total += l * float64(c.Len())
		n += c.Len()
	}
	if n == 0 {
		return 0, fmt.Errorf("landscape: no data")
	}
	return total / float64(n), nil
}

// SeparationScore is the Fisher-style class-separation of embeddings on an
// evaluation set: between-class scatter over within-class scatter. Higher
// means unseen-domain classes are better separated — the quantitative
// version of Fig. 1's t-SNE panel.
func SeparationScore(m *nn.Model, es *fl.EvalSet, classes int) (float64, error) {
	z, err := m.Embed(es.X)
	if err != nil {
		return 0, err
	}
	n, d := z.Dim(0), z.Dim(1)
	zd := z.Data()
	means := make([][]float64, classes)
	counts := make([]int, classes)
	for i := range means {
		means[i] = make([]float64, d)
	}
	global := make([]float64, d)
	for i := 0; i < n; i++ {
		y := es.Labels[i]
		if y < 0 || y >= classes {
			continue
		}
		counts[y]++
		row := zd[i*d : (i+1)*d]
		for k, v := range row {
			means[y][k] += v
			global[k] += v
		}
	}
	tot := 0
	for _, c := range counts {
		tot += c
	}
	if tot == 0 {
		return 0, fmt.Errorf("landscape: no labeled samples")
	}
	for k := range global {
		global[k] /= float64(tot)
	}
	for y := range means {
		if counts[y] == 0 {
			continue
		}
		for k := range means[y] {
			means[y][k] /= float64(counts[y])
		}
	}
	between, within := 0.0, 0.0
	for y := range means {
		if counts[y] == 0 {
			continue
		}
		for k := range means[y] {
			diff := means[y][k] - global[k]
			between += float64(counts[y]) * diff * diff
		}
	}
	for i := 0; i < n; i++ {
		y := es.Labels[i]
		if y < 0 || y >= classes || counts[y] == 0 {
			continue
		}
		row := zd[i*d : (i+1)*d]
		for k, v := range row {
			diff := v - means[y][k]
			within += diff * diff
		}
	}
	if within == 0 {
		return math.Inf(1), nil
	}
	return between / within, nil
}

// CSV renders the grid as "x,y,loss" rows for external plotting.
func (g *Grid) CSV() string {
	n := len(g.Loss)
	out := "x,y,loss\n"
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := g.Radius * (2*float64(i)/float64(n-1) - 1)
			y := g.Radius * (2*float64(j)/float64(n-1) - 1)
			out += fmt.Sprintf("%.4f,%.4f,%.6f\n", x, y, g.Loss[i][j])
		}
	}
	return out
}
