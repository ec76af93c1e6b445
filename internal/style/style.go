// Package style implements the style machinery of PARDON: channel-wise
// feature statistics (the "style" of an image in AdaIN's sense), the AdaIN
// style-transfer operator (Huang & Belongie, ICCV 2017; Eq. 6 of the
// paper), and aggregation helpers used for local and interpolation styles.
//
// A style is the pair (μ, σ) of per-channel mean and standard deviation of
// a feature map. PARDON represents every client by a single such pair in
// R^{2d}; the paper's privacy argument rests on how little these 2d numbers
// reveal about individual samples.
package style

import (
	"errors"
	"fmt"
	"math"

	"github.com/pardon-feddg/pardon/internal/stats"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Eps stabilizes standard deviations of flat channels.
const Eps = 1e-5

// ErrNoStyles is returned when aggregating an empty style set.
var ErrNoStyles = errors.New("style: no styles")

// Style is the channel-wise (μ, σ) statistics of a feature map.
type Style struct {
	Mu    []float64
	Sigma []float64
}

// Channels returns the channel dimension d.
func (s *Style) Channels() int { return len(s.Mu) }

// Vec flattens the style into the R^{2d} vector μ‖σ used for clustering
// and for transmission to the server.
func (s *Style) Vec() []float64 {
	v := make([]float64, 0, 2*len(s.Mu))
	v = append(v, s.Mu...)
	v = append(v, s.Sigma...)
	return v
}

// FromVec reconstructs a Style from its R^{2d} vector form.
func FromVec(v []float64) (*Style, error) {
	if len(v)%2 != 0 {
		return nil, fmt.Errorf("style: vector length %d is odd", len(v))
	}
	d := len(v) / 2
	s := &Style{Mu: make([]float64, d), Sigma: make([]float64, d)}
	copy(s.Mu, v[:d])
	copy(s.Sigma, v[d:])
	return s, nil
}

// Of extracts the style of a (C,H,W) feature map.
func Of(feature *tensor.Tensor) (*Style, error) {
	mu, sigma, err := tensor.ChannelStats(feature, Eps)
	if err != nil {
		return nil, fmt.Errorf("style: %w", err)
	}
	return &Style{Mu: mu, Sigma: sigma}, nil
}

// OfInto writes the style of a (C,H,W) feature map into dst, whose Mu
// and Sigma must already have length C: Of without the allocation, for
// callers that keep many styles in one arena.
func OfInto(dst *Style, feature *tensor.Tensor) error {
	if feature.Dims() != 3 || feature.Dim(0) != dst.Channels() || len(dst.Sigma) != dst.Channels() {
		return fmt.Errorf("style: feature shape %v for a %d-channel style", feature.Shape(), dst.Channels())
	}
	tensor.ChannelStatsInto(dst.Mu, dst.Sigma, feature.Data(), Eps)
	return nil
}

// Clone returns a deep copy of s.
func (s *Style) Clone() *Style {
	cp := &Style{Mu: make([]float64, len(s.Mu)), Sigma: make([]float64, len(s.Sigma))}
	copy(cp.Mu, s.Mu)
	copy(cp.Sigma, s.Sigma)
	return cp
}

// AdaIN re-normalizes the content feature map to the target style (Eq. 6):
//
//	AdaIN(x, S) = σ(S) · (x − μ(x)) / σ(x) + μ(S)
//
// computed channel-wise. It returns a new tensor; content is not modified.
func AdaIN(content *tensor.Tensor, target *Style) (*tensor.Tensor, error) {
	if content.Dims() != 3 {
		return nil, fmt.Errorf("style: AdaIN needs a (C,H,W) tensor, got shape %v", content.Shape())
	}
	src, err := Of(content)
	if err != nil {
		return nil, err
	}
	out := tensor.New(content.Shape()...)
	if err := AdaINInto(out.Data(), content, src, target); err != nil {
		return nil, err
	}
	return out, nil
}

// AdaINInto writes AdaIN(content, target) into dst (content's length),
// reading the content's own style from srcStats — the precomputed
// Of(content) — instead of recomputing it, and allocating nothing. The
// bits equal AdaIN's.
func AdaINInto(dst []float64, content *tensor.Tensor, srcStats, target *Style) error {
	if content.Dims() != 3 {
		return fmt.Errorf("style: AdaIN needs a (C,H,W) tensor, got shape %v", content.Shape())
	}
	c := content.Dim(0)
	if target.Channels() != c || srcStats.Channels() != c {
		return fmt.Errorf("style: AdaIN channel mismatch: content %d vs styles %d, %d", c, srcStats.Channels(), target.Channels())
	}
	src := content.Data()
	if len(dst) != len(src) {
		return fmt.Errorf("style: AdaIN destination length %d, want %d", len(dst), len(src))
	}
	hw := len(src) / c
	for ch := 0; ch < c; ch++ {
		scale := target.Sigma[ch] / srcStats.Sigma[ch]
		shift := target.Mu[ch]
		m := srcStats.Mu[ch]
		seg := src[ch*hw : (ch+1)*hw]
		oseg := dst[ch*hw : (ch+1)*hw]
		for i, v := range seg {
			oseg[i] = scale*(v-m) + shift
		}
	}
	return nil
}

// Mean returns the arithmetic mean of a set of styles — used for cluster
// styles (Eq. 2/4) and for the ablation variants that replace clustering
// with plain averaging.
func Mean(styles []*Style) (*Style, error) {
	if len(styles) == 0 {
		return nil, ErrNoStyles
	}
	vecs := make([][]float64, len(styles))
	for i, s := range styles {
		vecs[i] = s.Vec()
	}
	m, err := stats.MeanVector(vecs)
	if err != nil {
		return nil, fmt.Errorf("style: %w", err)
	}
	return FromVec(m)
}

// OfConcat computes the channel-wise (μ, σ) of the concatenation of the
// selected feature maps (the paper's Eq. 2): statistics pool over all
// pixels of all member samples, so between-sample variation contributes
// to σ. idx nil selects all features.
func OfConcat(features []*tensor.Tensor, idx []int) (*Style, error) {
	if idx == nil {
		idx = make([]int, len(features))
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return nil, ErrNoStyles
	}
	first := features[idx[0]]
	if first.Dims() != 3 {
		return nil, fmt.Errorf("style: feature shape %v, want (C,H,W)", first.Shape())
	}
	c, h, w := first.Dim(0), first.Dim(1), first.Dim(2)
	hw := h * w
	sum := make([]float64, c)
	sumSq := make([]float64, c)
	for _, i := range idx {
		f := features[i]
		if f.Dim(0) != c || f.Dim(1) != h || f.Dim(2) != w {
			return nil, fmt.Errorf("style: feature %d shape %v differs from %v", i, f.Shape(), first.Shape())
		}
		data := f.Data()
		for ch := 0; ch < c; ch++ {
			for _, v := range data[ch*hw : (ch+1)*hw] {
				sum[ch] += v
				sumSq[ch] += v * v
			}
		}
	}
	n := float64(len(idx) * hw)
	st := &Style{Mu: make([]float64, c), Sigma: make([]float64, c)}
	for ch := 0; ch < c; ch++ {
		m := sum[ch] / n
		va := sumSq[ch]/n - m*m
		if va < 0 {
			va = 0
		}
		st.Mu[ch] = m
		st.Sigma[ch] = math.Sqrt(va + Eps)
	}
	return st, nil
}

// InterpolateInto writes the convex combination (1−t)·a + t·b of two
// styles into dst, reusing dst's Mu and Sigma storage when it has room
// — the path between a sample's own style and the global interpolation
// style that PARDON's transferred views are drawn from.
func InterpolateInto(dst, a, b *Style, t float64) error {
	if a.Channels() != b.Channels() {
		return fmt.Errorf("style: interpolate channel mismatch %d vs %d", a.Channels(), b.Channels())
	}
	dst.Mu = tensor.Fit(dst.Mu, len(a.Mu))
	dst.Sigma = tensor.Fit(dst.Sigma, len(a.Sigma))
	for i := range a.Mu {
		dst.Mu[i] = (1-t)*a.Mu[i] + t*b.Mu[i]
		dst.Sigma[i] = (1-t)*a.Sigma[i] + t*b.Sigma[i]
	}
	return nil
}

// Distance returns the Euclidean distance between two styles in vector
// form, used in tests and in the Fig. 8 distinguishability analysis.
func Distance(a, b *Style) (float64, error) {
	if a.Channels() != b.Channels() {
		return 0, fmt.Errorf("style: distance channel mismatch %d vs %d", a.Channels(), b.Channels())
	}
	s := 0.0
	for i := range a.Mu {
		d := a.Mu[i] - b.Mu[i]
		s += d * d
		d = a.Sigma[i] - b.Sigma[i]
		s += d * d
	}
	return s, nil
}
