// Package stats provides the statistical machinery the reproduction needs:
// the median and coordinate-wise median/mean vectors, multivariate Gaussian
// fitting, a symmetric eigendecomposition (cyclic Jacobi), principal matrix
// square roots, and the Fréchet distance between Gaussians — the core of
// the FID metric used by the paper's privacy evaluation (Table IV).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Median returns the sample median of xs. For even-length samples it is the
// midpoint of the two central order statistics. xs is not modified.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2], nil
	}
	return 0.5 * (cp[n/2-1] + cp[n/2]), nil
}

// MedianVector returns the coordinate-wise median of a set of equal-length
// vectors. This is the aggregation PARDON uses for the global interpolation
// style (Eq. 5): robust to outlier styles and skew.
func MedianVector(vecs [][]float64) ([]float64, error) {
	if len(vecs) == 0 {
		return nil, ErrEmpty
	}
	d := len(vecs[0])
	for i, v := range vecs {
		if len(v) != d {
			return nil, fmt.Errorf("stats: vector %d has length %d, want %d", i, len(v), d)
		}
	}
	out := make([]float64, d)
	col := make([]float64, len(vecs))
	for j := 0; j < d; j++ {
		for i, v := range vecs {
			col[i] = v[j]
		}
		m, err := Median(col)
		if err != nil {
			return nil, err
		}
		out[j] = m
	}
	return out, nil
}

// MeanVector returns the coordinate-wise mean of a set of equal-length
// vectors (the ablation alternative to MedianVector).
func MeanVector(vecs [][]float64) ([]float64, error) {
	if len(vecs) == 0 {
		return nil, ErrEmpty
	}
	d := len(vecs[0])
	out := make([]float64, d)
	for i, v := range vecs {
		if len(v) != d {
			return nil, fmt.Errorf("stats: vector %d has length %d, want %d", i, len(v), d)
		}
		for j, x := range v {
			out[j] += x
		}
	}
	inv := 1.0 / float64(len(vecs))
	for j := range out {
		out[j] *= inv
	}
	return out, nil
}

// Gaussian is a multivariate normal summarized by mean and covariance.
type Gaussian struct {
	Mean []float64   // length d
	Cov  [][]float64 // d×d, symmetric
}

// FitGaussian estimates a Gaussian from row-vector samples. Covariance is
// the population (1/n) estimator with eps added on the diagonal for
// numerical stability.
func FitGaussian(samples [][]float64, eps float64) (*Gaussian, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	d := len(samples[0])
	mean := make([]float64, d)
	for i, s := range samples {
		if len(s) != d {
			return nil, fmt.Errorf("stats: sample %d has length %d, want %d", i, len(s), d)
		}
		for j, x := range s {
			mean[j] += x
		}
	}
	invN := 1.0 / float64(len(samples))
	for j := range mean {
		mean[j] *= invN
	}
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, s := range samples {
		for i := 0; i < d; i++ {
			di := s[i] - mean[i]
			if di == 0 {
				continue
			}
			row := cov[i]
			for j := i; j < d; j++ {
				row[j] += di * (s[j] - mean[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] *= invN
			cov[j][i] = cov[i][j]
		}
		cov[i][i] += eps
	}
	return &Gaussian{Mean: mean, Cov: cov}, nil
}

// SymEig computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns eigenvalues and the matrix of
// eigenvectors stored column-wise (V[:,k] pairs with values[k]).
func SymEig(a [][]float64) (values []float64, vectors [][]float64, err error) {
	n := len(a)
	if n == 0 {
		return nil, nil, ErrEmpty
	}
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, nil, fmt.Errorf("stats: SymEig row %d has length %d, want %d", i, len(a[i]), n)
		}
		m[i] = make([]float64, n)
		copy(m[i], a[i])
	}
	v := identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-18 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s)
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = m[i][i]
	}
	return values, v, nil
}

func identity(n int) [][]float64 {
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	return v
}

// rotate applies the Jacobi rotation G(p,q,θ) as m ← GᵀmG and accumulates
// v ← vG.
func rotate(m, v [][]float64, p, q int, c, s float64) {
	n := len(m)
	for i := 0; i < n; i++ {
		mip, miq := m[i][p], m[i][q]
		m[i][p] = c*mip - s*miq
		m[i][q] = s*mip + c*miq
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m[p][j], m[q][j]
		m[p][j] = c*mpj - s*mqj
		m[q][j] = s*mpj + c*mqj
	}
	for i := 0; i < n; i++ {
		vip, viq := v[i][p], v[i][q]
		v[i][p] = c*vip - s*viq
		v[i][q] = s*vip + c*viq
	}
}

// SqrtPSD returns the principal square root of a symmetric positive
// semi-definite matrix via eigendecomposition. Small negative eigenvalues
// from round-off are clamped to zero.
func SqrtPSD(a [][]float64) ([][]float64, error) {
	vals, vecs, err := SymEig(a)
	if err != nil {
		return nil, err
	}
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		lv := vals[k]
		if lv < 0 {
			lv = 0
		}
		s := math.Sqrt(lv)
		if s == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			vik := vecs[i][k]
			if vik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += s * vik * vecs[j][k]
			}
		}
	}
	return out, nil
}

// matMul returns a@b for square matrices.
func matMul(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			av := a[i][k]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += av * b[k][j]
			}
		}
	}
	return out
}

// trace returns the trace of a square matrix.
func trace(a [][]float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i][i]
	}
	return s
}

// FrechetDistance returns the Fréchet (2-Wasserstein²) distance between two
// Gaussians:
//
//	||μ1−μ2||² + tr(Σ1 + Σ2 − 2·(Σ1Σ2)^{1/2}).
//
// This is the FID formula; the paper computes it over InceptionV3 features,
// this reproduction over the frozen encoder's features (see DESIGN.md).
// tr((Σ1Σ2)^{1/2}) is computed as tr((A Σ2 A)^{1/2}) with A = Σ1^{1/2},
// which is symmetric PSD and therefore safe for SymEig.
func FrechetDistance(g1, g2 *Gaussian) (float64, error) {
	if len(g1.Mean) != len(g2.Mean) {
		return 0, fmt.Errorf("stats: Fréchet dims %d vs %d", len(g1.Mean), len(g2.Mean))
	}
	d2 := 0.0
	for i := range g1.Mean {
		d := g1.Mean[i] - g2.Mean[i]
		d2 += d * d
	}
	a, err := SqrtPSD(g1.Cov)
	if err != nil {
		return 0, err
	}
	inner := matMul(matMul(a, g2.Cov), a)
	// Symmetrize against round-off before the eigendecomposition.
	for i := range inner {
		for j := i + 1; j < len(inner); j++ {
			m := 0.5 * (inner[i][j] + inner[j][i])
			inner[i][j], inner[j][i] = m, m
		}
	}
	root, err := SqrtPSD(inner)
	if err != nil {
		return 0, err
	}
	return d2 + trace(g1.Cov) + trace(g2.Cov) - 2*trace(root), nil
}

// InceptionScore computes the Inception-Score analogue used in Table IV:
// exp(E_x KL(p(y|x) || p(y))) over classifier posteriors. posteriors holds
// one probability row per generated sample.
func InceptionScore(posteriors [][]float64) (float64, error) {
	if len(posteriors) == 0 {
		return 0, ErrEmpty
	}
	k := len(posteriors[0])
	marginal := make([]float64, k)
	for i, p := range posteriors {
		if len(p) != k {
			return 0, fmt.Errorf("stats: posterior %d has length %d, want %d", i, len(p), k)
		}
		for j, v := range p {
			marginal[j] += v
		}
	}
	invN := 1.0 / float64(len(posteriors))
	for j := range marginal {
		marginal[j] *= invN
	}
	klSum := 0.0
	for _, p := range posteriors {
		kl := 0.0
		for j, v := range p {
			if v <= 0 || marginal[j] <= 0 {
				continue
			}
			kl += v * math.Log(v/marginal[j])
		}
		klSum += kl
	}
	return math.Exp(klSum * invN), nil
}

// PSNR returns the peak signal-to-noise ratio between reference and
// reconstruction, both flat vectors in the same value range, with the given
// peak value. Identical signals return +Inf.
func PSNR(ref, rec []float64, peak float64) (float64, error) {
	if len(ref) != len(rec) {
		return 0, fmt.Errorf("stats: PSNR length mismatch %d vs %d", len(ref), len(rec))
	}
	if len(ref) == 0 {
		return 0, ErrEmpty
	}
	mse := 0.0
	for i := range ref {
		d := ref[i] - rec[i]
		mse += d * d
	}
	mse /= float64(len(ref))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(peak*peak/mse), nil
}
