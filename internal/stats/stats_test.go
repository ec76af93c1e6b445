package stats_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pardon-feddg/pardon/internal/stats"
)

func TestMedian(t *testing.T) {
	if m, _ := stats.Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %g", m)
	}
	if m, _ := stats.Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %g", m)
	}
	xs := []float64{3, 1, 2}
	_, _ = stats.Median(xs)
	if xs[0] != 3 {
		t.Fatal("median must not reorder input")
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	withOutlier := []float64{1, 2, 3, 4, 1e9}
	m1, _ := stats.Median(base)
	m2, _ := stats.Median(withOutlier)
	if m1 != 3 || m2 != 3 {
		t.Fatalf("medians = %g, %g (outlier moved the median)", m1, m2)
	}
}

func TestMedianVectorCoordinatewise(t *testing.T) {
	vecs := [][]float64{{1, 10}, {2, 20}, {3, 1e9}}
	m, err := stats.MedianVector(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 2 || m[1] != 20 {
		t.Fatalf("median vector = %v", m)
	}
	if _, err := stats.MedianVector([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged input should error")
	}
}

func TestMeanVector(t *testing.T) {
	m, err := stats.MeanVector([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 2 || m[1] != 3 {
		t.Fatalf("mean vector = %v", m)
	}
}

func TestFitGaussianKnown(t *testing.T) {
	// Two points: mean is midpoint, covariance diag = quarter-squared
	// distance per axis.
	g, err := stats.FitGaussian([][]float64{{0, 0}, {2, 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Mean[0] != 1 || g.Mean[1] != 2 {
		t.Fatalf("mean = %v", g.Mean)
	}
	if g.Cov[0][0] != 1 || g.Cov[1][1] != 4 || g.Cov[0][1] != 2 {
		t.Fatalf("cov = %v", g.Cov)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := [][]float64{{3, 0}, {0, 5}}
	vals, vecs, err := stats.SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{vals[0], vals[1]}
	if !(containsApprox(got, 3) && containsApprox(got, 5)) {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Eigenvectors orthonormal.
	dot := vecs[0][0]*vecs[0][1] + vecs[1][0]*vecs[1][1]
	if math.Abs(dot) > 1e-9 {
		t.Fatalf("eigenvectors not orthogonal: %g", dot)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 6
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a[i][j], a[j][i] = v, v
		}
	}
	vals, vecs, err := stats.SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	// A ≈ V Λ Vᵀ.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += vecs[i][k] * vals[k] * vecs[j][k]
			}
			if math.Abs(s-a[i][j]) > 1e-8 {
				t.Fatalf("reconstruction (%d,%d): %g vs %g", i, j, s, a[i][j])
			}
		}
	}
}

func TestSqrtPSDSquares(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 5
	// Build PSD A = B Bᵀ.
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = r.NormFloat64()
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			for k := 0; k < n; k++ {
				a[i][j] += b[i][k] * b[j][k]
			}
		}
	}
	root, err := stats.SqrtPSD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += root[i][k] * root[k][j]
			}
			if math.Abs(s-a[i][j]) > 1e-7 {
				t.Fatalf("sqrt² (%d,%d): %g vs %g", i, j, s, a[i][j])
			}
		}
	}
}

func TestFrechetIdentityZero(t *testing.T) {
	g, err := stats.FitGaussian([][]float64{{1, 2}, {3, 1}, {0, 0}, {2, 2}}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := stats.FrechetDistance(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d) > 1e-6 {
		t.Fatalf("FID(g,g) = %g, want ~0", d)
	}
}

func TestFrechetKnown1D(t *testing.T) {
	// For 1-D Gaussians: (μ1−μ2)² + (σ1−σ2)².
	g1 := &stats.Gaussian{Mean: []float64{0}, Cov: [][]float64{{4}}} // σ=2
	g2 := &stats.Gaussian{Mean: []float64{3}, Cov: [][]float64{{9}}} // σ=3
	d, err := stats.FrechetDistance(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-(9+1)) > 1e-8 {
		t.Fatalf("1-D Fréchet = %g, want 10", d)
	}
}

func TestFrechetSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *stats.Gaussian {
			pts := make([][]float64, 8)
			for i := range pts {
				pts[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			}
			g, err := stats.FitGaussian(pts, 1e-6)
			if err != nil {
				return nil
			}
			return g
		}
		g1, g2 := mk(), mk()
		d12, err1 := stats.FrechetDistance(g1, g2)
		d21, err2 := stats.FrechetDistance(g2, g1)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(d12-d21) < 1e-6 && d12 > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInceptionScore(t *testing.T) {
	// Uniform posteriors: IS = 1.
	uniform := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	is, err := stats.InceptionScore(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(is-1) > 1e-9 {
		t.Fatalf("uniform IS = %g, want 1", is)
	}
	// Confident and diverse: IS = number of classes.
	confident := [][]float64{{1, 0}, {0, 1}}
	is, err = stats.InceptionScore(confident)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(is-2) > 1e-9 {
		t.Fatalf("confident-diverse IS = %g, want 2", is)
	}
	// Confident but mode-collapsed: IS = 1.
	collapsed := [][]float64{{1, 0}, {1, 0}}
	is, err = stats.InceptionScore(collapsed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(is-1) > 1e-9 {
		t.Fatalf("collapsed IS = %g, want 1", is)
	}
}

func TestPSNR(t *testing.T) {
	ref := []float64{0, 1, 0, 1}
	if p, _ := stats.PSNR(ref, ref, 1); !math.IsInf(p, 1) {
		t.Fatalf("identical PSNR = %g, want +Inf", p)
	}
	rec := []float64{0.5, 0.5, 0.5, 0.5}
	p, err := stats.PSNR(ref, rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// MSE = 0.25 → PSNR = 10·log10(1/0.25) ≈ 6.02dB.
	if math.Abs(p-10*math.Log10(4)) > 1e-9 {
		t.Fatalf("PSNR = %g", p)
	}
	if _, err := stats.PSNR(ref, rec[:2], 1); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func containsApprox(xs []float64, v float64) bool {
	for _, x := range xs {
		if math.Abs(x-v) < 1e-9 {
			return true
		}
	}
	return false
}
