package style_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func TestOfConstantChannel(t *testing.T) {
	x := tensor.Full(3, 2, 2, 2)
	s, err := style.Of(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mu[0] != 3 || s.Mu[1] != 3 {
		t.Fatalf("mu = %v", s.Mu)
	}
	if math.Abs(s.Sigma[0]-math.Sqrt(style.Eps)) > 1e-12 {
		t.Fatalf("sigma of flat channel = %g", s.Sigma[0])
	}
}

func TestVecRoundTrip(t *testing.T) {
	s := &style.Style{Mu: []float64{1, 2}, Sigma: []float64{3, 4}}
	v := s.Vec()
	if len(v) != 4 {
		t.Fatalf("vec len = %d", len(v))
	}
	back, err := style.FromVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if back.Mu[1] != 2 || back.Sigma[0] != 3 {
		t.Fatalf("roundtrip = %+v", back)
	}
	if _, err := style.FromVec([]float64{1, 2, 3}); err == nil {
		t.Fatal("odd-length vec should error")
	}
}

// AdaIN must set the output's channel statistics exactly to the target.
func TestAdaINSetsTargetStats(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.Randn(r, 2, 4, 6, 6)
		target := &style.Style{
			Mu:    []float64{1, -2, 0.5, 3},
			Sigma: []float64{0.5, 2, 1, 0.1},
		}
		out, err := style.AdaIN(x, target)
		if err != nil {
			return false
		}
		got, err := style.Of(out)
		if err != nil {
			return false
		}
		for c := range target.Mu {
			if math.Abs(got.Mu[c]-target.Mu[c]) > 1e-6 {
				return false
			}
			if math.Abs(got.Sigma[c]-target.Sigma[c]) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAdaINPreservesSpatialStructure(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := tensor.Randn(r, 1, 2, 4, 4)
	target := &style.Style{Mu: []float64{5, -5}, Sigma: []float64{2, 2}}
	out, err := style.AdaIN(x, target)
	if err != nil {
		t.Fatal(err)
	}
	// Within a channel, the transfer is affine, so pixel ordering is
	// preserved.
	xd, od := x.Data(), out.Data()
	for c := 0; c < 2; c++ {
		seg := 16
		for i := 1; i < seg; i++ {
			a := xd[c*seg+i] > xd[c*seg]
			b := od[c*seg+i] > od[c*seg]
			if a != b {
				t.Fatal("AdaIN changed within-channel ordering")
			}
		}
	}
}

func TestAdaINErrors(t *testing.T) {
	if _, err := style.AdaIN(tensor.New(4), &style.Style{Mu: []float64{0}, Sigma: []float64{1}}); err == nil {
		t.Fatal("want rank error")
	}
	if _, err := style.AdaIN(tensor.New(2, 2, 2), &style.Style{Mu: []float64{0}, Sigma: []float64{1}}); err == nil {
		t.Fatal("want channel-mismatch error")
	}
}

func TestMeanMedianStyles(t *testing.T) {
	styles := []*style.Style{
		{Mu: []float64{1}, Sigma: []float64{1}},
		{Mu: []float64{2}, Sigma: []float64{2}},
		{Mu: []float64{300}, Sigma: []float64{300}}, // outlier
	}
	mean, err := style.Mean(styles)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Mu[0] != 101 {
		t.Fatalf("mean mu = %g", mean.Mu[0])
	}
	if _, err := style.Mean(nil); err == nil {
		t.Fatal("empty mean should error")
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a := &style.Style{Mu: []float64{0}, Sigma: []float64{1}}
	b := &style.Style{Mu: []float64{10}, Sigma: []float64{3}}
	at0, err := style.Interpolate(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if at0.Mu[0] != 0 || at0.Sigma[0] != 1 {
		t.Fatalf("t=0 = %+v", at0)
	}
	at1, _ := style.Interpolate(a, b, 1)
	if at1.Mu[0] != 10 || at1.Sigma[0] != 3 {
		t.Fatalf("t=1 = %+v", at1)
	}
	mid, _ := style.Interpolate(a, b, 0.5)
	if mid.Mu[0] != 5 || mid.Sigma[0] != 2 {
		t.Fatalf("t=0.5 = %+v", mid)
	}
	if _, err := style.Interpolate(a, &style.Style{Mu: []float64{1, 2}, Sigma: []float64{1, 2}}, 0.5); err == nil {
		t.Fatal("channel mismatch should error")
	}
}

func TestOfConcatPoolsBetweenSampleVariance(t *testing.T) {
	// Two flat feature maps at different levels: per-sample sigma ≈ 0,
	// pooled sigma captures the between-sample spread.
	a := tensor.Full(0, 1, 2, 2)
	b := tensor.Full(2, 1, 2, 2)
	pooled, err := style.OfConcat([]*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Mu[0] != 1 {
		t.Fatalf("pooled mu = %g", pooled.Mu[0])
	}
	if math.Abs(pooled.Sigma[0]-1) > 1e-2 {
		t.Fatalf("pooled sigma = %g, want ~1", pooled.Sigma[0])
	}
	// Subset selection.
	only, err := style.OfConcat([]*tensor.Tensor{a, b}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if only.Mu[0] != 2 {
		t.Fatalf("subset mu = %g", only.Mu[0])
	}
	if _, err := style.OfConcat([]*tensor.Tensor{a, b}, []int{}); err == nil {
		t.Fatal("empty selection should error")
	}
}

func TestDistanceAndClone(t *testing.T) {
	a := &style.Style{Mu: []float64{0, 0}, Sigma: []float64{1, 1}}
	b := &style.Style{Mu: []float64{3, 0}, Sigma: []float64{1, 5}}
	d, err := style.Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 9+16 {
		t.Fatalf("distance = %g, want 25", d)
	}
	cp := a.Clone()
	cp.Mu[0] = 99
	if a.Mu[0] != 0 {
		t.Fatal("clone aliases original")
	}
}
