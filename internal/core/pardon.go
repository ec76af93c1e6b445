// Package core implements PARDON, the paper's contribution: a federated
// domain-generalization method that (1) abstracts each client's data into
// a single style vector via FINCH clustering of per-sample feature
// statistics, (2) fuses all client styles on the server into one unbiased
// interpolation style S_g via a second FINCH level and a coordinate-wise
// median, and (3) trains each client with multi-domain contrastive
// learning against AdaIN style-transferred views of its own data, using
// the objective L = L_CE + γ1·L_T + γ2·L_reg (Eq. 9).
//
// The Options switches reproduce the ablations of Table V (PARDON-v1 …
// v5): disabling local clustering, global clustering, contrastive
// learning, or interpolation-style transfer.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/pardon-feddg/pardon/internal/finch"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/stats"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Options configures PARDON and its ablation variants.
type Options struct {
	// LocalClustering groups each client's samples with FINCH before
	// computing cluster styles (paper step 1). False replaces it with a
	// single style over all local samples (Table V "Local Clustering ✗").
	LocalClustering bool
	// GlobalClustering groups client styles with FINCH and takes the
	// median of cluster styles (paper step 2, Eq. 3–5). False replaces
	// it with the plain mean of client styles.
	GlobalClustering bool
	// Contrastive enables the triplet loss L_T (Eq. 7). False trains
	// with cross-entropy on original plus style-transferred data only
	// (Table V v3).
	Contrastive bool
	// StyleTransfer enables interpolation-style-transferred positives.
	// False reproduces v4: standard contrastive learning whose positive
	// anchors are augmented same-class samples, no interpolation style.
	StyleTransfer bool
	// InterpLow and InterpHigh bound the per-sample interpolation weight
	// t ~ U(InterpLow, InterpHigh) used when producing the transferred
	// view: the AdaIN target is (1−t)·S(x) + t·S_g. t=1 is the pure
	// interpolation style; sampling t gives each epoch a fresh point on
	// the path between the sample's own style and S_g, which is what
	// makes the augmentation cover inter-domain style space rather than
	// a single frame. Both default to covering [0.5, 1].
	InterpLow, InterpHigh float64
	// Gamma1 and Gamma2 weight L_T and L_reg in Eq. 9.
	Gamma1, Gamma2 float64
	// Margin is the triplet margin α.
	Margin float64
	// AugNoise is the augmentation noise used for v4 positives.
	AugNoise float64
	// Variant labels the configuration in reports ("" = "PARDON").
	Variant string
}

// DefaultOptions returns the full PARDON configuration (Table V's v5).
func DefaultOptions() Options {
	return Options{
		LocalClustering:  true,
		GlobalClustering: true,
		Contrastive:      true,
		StyleTransfer:    true,
		InterpLow:        0.5,
		InterpHigh:       1.0,
		Gamma1:           0.5,
		Gamma2:           1e-4,
		Margin:           0.5,
		AugNoise:         0.05,
	}
}

// VariantOptions returns the Table V ablation rows: v1 (no local
// clustering), v2 (no global clustering), v3 (no contrastive), v4 (no
// clustering, standard contrastive without interpolation style), v5 (all
// components).
func VariantOptions(variant string) (Options, error) {
	o := DefaultOptions()
	o.Variant = variant
	switch variant {
	case "v1":
		o.LocalClustering = false
	case "v2":
		o.GlobalClustering = false
	case "v3":
		o.Contrastive = false
	case "v4":
		o.LocalClustering = false
		o.GlobalClustering = false
		o.StyleTransfer = false
	case "v5", "":
		o.Variant = "v5"
	default:
		return Options{}, fmt.Errorf("core: unknown PARDON variant %q", variant)
	}
	return o, nil
}

// PARDON implements fl.Algorithm.
type PARDON struct {
	opts Options

	mu           sync.RWMutex
	interp       *style.Style
	clientStyles [][]float64

	avg fl.Averager
}

// trainBufs are the loss-head buffers of one LocalTrain call, recycled
// across calls (bufsPool), so a warm call allocates none of them: the
// loss scratch of the original view's cross-entropy (a), of the
// transferred view's (p) and of the embedding heads (head); the
// transferred rows (xp); the two embedding gradients (dzA, dzP); and
// the interpolated target style.
type trainBufs struct {
	a, p, head   loss.Scratch
	xp, dzA, dzP *tensor.Tensor
	target       style.Style
}

var bufsPool = sync.Pool{New: func() any { return new(trainBufs) }}

var _ fl.Algorithm = (*PARDON)(nil)

// New constructs PARDON with the given options.
func New(opts Options) *PARDON {
	if opts.InterpHigh == 0 {
		opts.InterpLow, opts.InterpHigh = 0.5, 1.0
	}
	return &PARDON{opts: opts}
}

// Name implements fl.Algorithm.
func (p *PARDON) Name() string {
	if p.opts.Variant != "" && p.opts.Variant != "v5" {
		return "PARDON-" + p.opts.Variant
	}
	return "PARDON"
}

// InterpolationStyle exposes S_g after Setup (nil before; nil for v4).
func (p *PARDON) InterpolationStyle() *style.Style {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.interp == nil {
		return nil
	}
	return p.interp.Clone()
}

// ClientStyles exposes the uploaded client style vectors after Setup —
// exactly the information the server (or an eavesdropper) observes, used
// by the privacy analysis.
func (p *PARDON) ClientStyles() [][]float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([][]float64, len(p.clientStyles))
	for i, v := range p.clientStyles {
		cp := make([]float64, len(v))
		copy(cp, v)
		out[i] = cp
	}
	return out
}

// Setup implements fl.Algorithm: the one-time style exchange. Every client
// computes its abstracted style locally; the server fuses them into S_g.
// This happens once before training, which is why client sampling cannot
// bias S_g — the paper's robustness argument. The per-sample styles the
// local transfer starts from are the clients' own (fl.Client.Styles).
func (p *PARDON) Setup(env *fl.Env, clients []*fl.Client) error {
	if !p.opts.StyleTransfer {
		return nil // v4 exchanges nothing
	}
	styles := make([][]float64, len(clients))
	if err := env.ForEach(len(clients), func(_, i int) error {
		var err error
		if styles[i], err = ClientStyle(clients[i].Features, p.opts.LocalClustering); err != nil {
			return fmt.Errorf("core: client %d style: %w", clients[i].ID, err)
		}
		return nil
	}); err != nil {
		return err
	}
	sg, err := InterpolationStyle(styles, p.opts.GlobalClustering)
	if err != nil {
		return fmt.Errorf("core: interpolation style: %w", err)
	}

	p.mu.Lock()
	p.interp = sg
	p.clientStyles = styles
	p.mu.Unlock()
	return nil
}

// ClientStyle computes one client's uploaded style vector from its frozen
// encoder features (paper step 1). With localClustering, samples are FINCH
// clustered on their per-sample style vectors (cosine metric, coarsest
// partition), each cluster's style is the channel statistics of the
// concatenated member features (Eq. 2), and the client style is the mean
// of cluster styles. Without, the client style is the style of the full
// concatenation (one cluster).
func ClientStyle(features []*tensor.Tensor, localClustering bool) ([]float64, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("core: no features")
	}
	if !localClustering || len(features) < 3 {
		s, err := ConcatStyle(features, nil)
		if err != nil {
			return nil, err
		}
		return s.Vec(), nil
	}
	points := make([][]float64, len(features))
	for i, f := range features {
		s, err := style.Of(f)
		if err != nil {
			return nil, err
		}
		points[i] = s.Vec()
	}
	res, err := finch.Cluster(points, finch.Cosine)
	if err != nil {
		return nil, err
	}
	// Use the coarsest partition that still distinguishes styles: FINCH's
	// very last level frequently merges everything into one cluster, which
	// would reduce local clustering to plain pooling and lose the
	// anti-dominance property of §III-B (minority domains upweighted).
	part := coarsestMeaningful(res)
	clusterStyles := make([]*style.Style, part.NumClusters)
	for cl := 0; cl < part.NumClusters; cl++ {
		var idx []int
		for i, lab := range part.Labels {
			if lab == cl {
				idx = append(idx, i)
			}
		}
		cs, err := ConcatStyle(features, idx)
		if err != nil {
			return nil, err
		}
		clusterStyles[cl] = cs
	}
	mean, err := style.Mean(clusterStyles)
	if err != nil {
		return nil, err
	}
	return mean.Vec(), nil
}

// InterpolationStyle fuses client style vectors into S_g (paper step 2).
// With globalClustering, client styles are FINCH clustered (Eq. 3), each
// cluster is represented by its mean style (Eq. 4), and S_g is the
// coordinate-wise median of cluster styles (Eq. 5). Without, S_g is the
// plain mean of client styles.
func InterpolationStyle(clientStyles [][]float64, globalClustering bool) (*style.Style, error) {
	if len(clientStyles) == 0 {
		return nil, fmt.Errorf("core: no client styles")
	}
	if !globalClustering || len(clientStyles) < 3 {
		m, err := stats.MeanVector(clientStyles)
		if err != nil {
			return nil, err
		}
		return style.FromVec(m)
	}
	res, err := finch.Cluster(clientStyles, finch.Cosine)
	if err != nil {
		return nil, err
	}
	// The finest partition Γ1 is used at the global level: it yields the
	// most cluster styles, so the coordinate-wise median (Eq. 5) has the
	// most votes and extreme style groups cannot dominate. (The coarsest
	// partition frequently collapses to one cluster, which would reduce
	// the median to a plain mean.)
	part := res.First()
	clusterVecs := make([][]float64, part.NumClusters)
	for cl := 0; cl < part.NumClusters; cl++ {
		var members [][]float64
		for i, lab := range part.Labels {
			if lab == cl {
				members = append(members, clientStyles[i])
			}
		}
		mv, err := stats.MeanVector(members)
		if err != nil {
			return nil, err
		}
		clusterVecs[cl] = mv
	}
	med, err := stats.MedianVector(clusterVecs)
	if err != nil {
		return nil, err
	}
	return style.FromVec(med)
}

// ConcatStyle computes the channel-wise (μ, σ) of the concatenation of the
// selected feature maps (Eq. 2). It delegates to style.OfConcat; the alias
// keeps the paper-facing vocabulary in this package.
func ConcatStyle(features []*tensor.Tensor, idx []int) (*style.Style, error) {
	return style.OfConcat(features, idx)
}

// TransferAll applies AdaIN(·, sg) to every feature map, flattens the
// results into an (n, C·H·W) tensor aligned with the input order, and
// applies the environment's shared feature standardization so transferred
// views live on the same scale as the original model inputs.
func TransferAll(env *fl.Env, features []*tensor.Tensor, sg *style.Style) (*tensor.Tensor, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("core: no features to transfer")
	}
	in := features[0].Len()
	out := tensor.New(len(features), in)
	dst := out.Data()
	for i, f := range features {
		tf, err := style.AdaIN(f, sg)
		if err != nil {
			return nil, err
		}
		row := dst[i*in : (i+1)*in]
		copy(row, tf.Data())
		env.NormalizeFeature(row)
	}
	return out, nil
}

// LocalTrain implements fl.Algorithm: SGD on Eq. 9 with style-transferred
// positives (or the v3/v4 reductions).
func (p *PARDON) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	p.mu.RLock()
	sg := p.interp
	p.mu.RUnlock()
	if p.opts.StyleTransfer && sg == nil {
		return nil, fmt.Errorf("core: client %d has no interpolation style (Setup not run?)", c.ID)
	}
	in := env.InputDim()

	r := env.RNG.Stream(p.Name(), "train", strconv.Itoa(c.ID), strconv.Itoa(round))
	// Both views reuse one activation set each across every batch; the
	// contrastive backward needs the two alive at once.
	actsA, actsP := nn.AcquireActivations(), nn.AcquireActivations()
	defer actsA.Release()
	defer actsP.Release()
	bufs := bufsPool.Get().(*trainBufs)
	defer bufsPool.Put(bufs)
	return fl.LocalSGD(env, c, global, r, 0, func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error {
		if err := model.ForwardInto(actsA, x); err != nil {
			return err
		}
		_, dLogits, err := bufs.a.CrossEntropy(actsA.Logits, y)
		if err != nil {
			return err
		}
		if p.opts.StyleTransfer {
			// Interpolative transfer: each sample moves toward S_g by
			// a fresh random amount t, so successive epochs cover the
			// style path rather than one fixed frame. Each row is
			// re-styled from the sample's stored statistics and
			// standardized in place.
			bufs.xp = tensor.Fit2D(bufs.xp, len(idx), in)
			xp := bufs.xp
			xpd := xp.Data()
			for bi, i := range idx {
				t := p.opts.InterpLow + r.Float64()*(p.opts.InterpHigh-p.opts.InterpLow)
				if err := style.InterpolateInto(&bufs.target, &c.Styles[i], sg, t); err != nil {
					return err
				}
				row := xpd[bi*in : (bi+1)*in]
				if err := style.AdaINInto(row, c.Features[i], &c.Styles[i], &bufs.target); err != nil {
					return err
				}
				env.NormalizeFeature(row)
			}
			if err := model.ForwardInto(actsP, xp); err != nil {
				return err
			}
			bufs.dzA = tensor.Fit2D(bufs.dzA, len(idx), model.Cfg.ZDim)
			bufs.dzP = tensor.Fit2D(bufs.dzP, len(idx), model.Cfg.ZDim)
			dzA, dzP := bufs.dzA, bufs.dzP
			dzA.Zero()
			dzP.Zero()
			// The style-transferred view joins training as data: Eq. 9's
			// CE term sums over both views at full strength.
			_, dLogitsP, err := bufs.p.CrossEntropy(actsP.Logits, y)
			if err != nil {
				return err
			}
			if p.opts.Contrastive {
				_, dzT, dzpT, err := bufs.head.NormalizedTriplet(actsA.Z, actsP.Z, y, p.opts.Margin)
				if err != nil {
					return err
				}
				if err := dzA.AddScaled(p.opts.Gamma1, dzT); err != nil {
					return err
				}
				if err := dzP.AddScaled(p.opts.Gamma1, dzpT); err != nil {
					return err
				}
			}
			_, dzR, dzpR, err := bufs.head.EmbedL2(actsA.Z, actsP.Z)
			if err != nil {
				return err
			}
			if err := dzA.AddScaled(p.opts.Gamma2, dzR); err != nil {
				return err
			}
			if err := dzP.AddScaled(p.opts.Gamma2, dzpR); err != nil {
				return err
			}
			if err := model.Backward(actsA, dLogits, dzA, grads); err != nil {
				return err
			}
			return model.Backward(actsP, dLogitsP, dzP, grads)
		}
		// v4: standard contrastive learning — positives are
		// noise-augmented same-class samples from the batch.
		return p.v4Backward(model, actsA, x, y, dLogits, grads, r)
	})
}

// v4Backward implements the PARDON-v4 ablation: an augmented view of the
// batch provides positives (a random same-class sample) and negatives
// (other classes), without any interpolation style.
func (p *PARDON) v4Backward(model *nn.Model, actsA *nn.Activations, x *tensor.Tensor, y []int, dLogits *tensor.Tensor, grads *nn.Grads, r interface {
	Intn(int) int
	NormFloat64() float64
}) error {
	b := x.Dim(0)
	xp := x.Clone()
	if p.opts.AugNoise > 0 {
		d := xp.Data()
		for i := range d {
			d[i] += r.NormFloat64() * p.opts.AugNoise
		}
	}
	actsP, err := model.Forward(xp)
	if err != nil {
		return err
	}
	// Positive index: a random same-class sample (self if alone).
	posIdx := make([]int, b)
	byClass := map[int][]int{}
	for i, yy := range y {
		byClass[yy] = append(byClass[yy], i)
	}
	for i, yy := range y {
		mates := byClass[yy]
		posIdx[i] = mates[r.Intn(len(mates))]
	}
	zpSel := fl.GatherRows(actsP.Z, posIdx)
	dzA := tensor.New(b, model.Cfg.ZDim)
	dzPfull := tensor.New(b, model.Cfg.ZDim)
	if p.opts.Contrastive {
		_, dzT, dzpSel, err := loss.NormalizedTriplet(actsA.Z, zpSel, y, p.opts.Margin)
		if err != nil {
			return err
		}
		if err := dzA.AddScaled(p.opts.Gamma1, dzT); err != nil {
			return err
		}
		// Scatter the selected-row gradients back to the full view.
		scatterAddRows(dzPfull, dzpSel, posIdx, p.opts.Gamma1)
	}
	_, dzR, dzpR, err := loss.EmbedL2(actsA.Z, actsP.Z)
	if err != nil {
		return err
	}
	if err := dzA.AddScaled(p.opts.Gamma2, dzR); err != nil {
		return err
	}
	if err := dzPfull.AddScaled(p.opts.Gamma2, dzpR); err != nil {
		return err
	}
	if err := model.Backward(actsA, dLogits, dzA, grads); err != nil {
		return err
	}
	return model.Backward(actsP, nil, dzPfull, grads)
}

func scatterAddRows(dst, src *tensor.Tensor, idx []int, scale float64) {
	d := dst.Dim(1)
	dd, sd := dst.Data(), src.Data()
	for bi, i := range idx {
		for k := 0; k < d; k++ {
			dd[i*d+k] += scale * sd[bi*d+k]
		}
	}
}

// Aggregate implements fl.Algorithm: PARDON aggregates with plain FedAvg
// (the paper's step 4) — no server-side extra cost, the point of Fig. 4.
// The reused Averager arena keeps that cost allocation-free too.
func (p *PARDON) Aggregate(_ *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	return p.avg.FedAvg(parts, updates)
}

// coarsestMeaningful returns the coarsest FINCH partition with at least
// two clusters, falling back to the last partition when every level is a
// single cluster.
func coarsestMeaningful(res *finch.Result) finch.Partition {
	for i := len(res.Partitions) - 1; i >= 0; i-- {
		if res.Partitions[i].NumClusters >= 2 {
			return res.Partitions[i]
		}
	}
	return res.Last()
}
