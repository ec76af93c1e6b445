package loss_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// numGrad computes the central finite difference of f at x's coordinates.
func numGrad(x *tensor.Tensor, f func() float64) []float64 {
	const eps = 1e-6
	out := make([]float64, x.Len())
	d := x.Data()
	for i := range d {
		orig := d[i]
		d[i] = orig + eps
		lp := f()
		d[i] = orig - eps
		lm := f()
		d[i] = orig
		out[i] = (lp - lm) / (2 * eps)
	}
	return out
}

func gradsClose(t *testing.T, name string, analytic *tensor.Tensor, numeric []float64) {
	t.Helper()
	ad := analytic.Data()
	for i := range ad {
		if math.Abs(ad[i]-numeric[i]) > 1e-4*(1+math.Abs(numeric[i])) {
			t.Fatalf("%s coord %d: analytic %g vs numeric %g", name, i, ad[i], numeric[i])
		}
	}
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	logits := tensor.New(2, 5)
	l, grad, err := loss.CrossEntropy(logits, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-math.Log(5)) > 1e-9 {
		t.Fatalf("uniform CE = %g, want ln5", l)
	}
	// dL/dlogit = (p − y)/B: correct class gets (0.2−1)/2, others 0.2/2.
	if math.Abs(grad.At(0, 0)-(-0.8/2)) > 1e-9 || math.Abs(grad.At(0, 1)-0.1) > 1e-9 {
		t.Fatalf("grad = %v", grad)
	}
}

func TestCrossEntropyGradientCheck(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	logits := tensor.Randn(r, 1.5, 4, 3)
	labels := []int{2, 0, 1, 2}
	_, grad, err := loss.CrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	numeric := numGrad(logits, func() float64 {
		l, _, err := loss.CrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	})
	gradsClose(t, "CE", grad, numeric)
}

func TestCrossEntropyErrors(t *testing.T) {
	if _, _, err := loss.CrossEntropy(tensor.New(4), nil); err == nil {
		t.Fatal("1-D logits should error")
	}
	if _, _, err := loss.CrossEntropy(tensor.New(2, 3), []int{0}); err == nil {
		t.Fatal("label count mismatch should error")
	}
	if _, _, err := loss.CrossEntropy(tensor.New(1, 3), []int{7}); err == nil {
		t.Fatal("label out of range should error")
	}
}

func TestNormalizedTripletGradientCheck(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	z := tensor.Randn(r, 2, 4, 3)
	zp := tensor.Randn(r, 2, 4, 3)
	labels := []int{0, 1, 1, 0}
	_, dz, dzp, err := loss.NormalizedTriplet(z, zp, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	numZ := numGrad(z, func() float64 {
		l, _, _, err := loss.NormalizedTriplet(z, zp, labels, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return l
	})
	gradsClose(t, "normalized triplet dz", dz, numZ)
	numZp := numGrad(zp, func() float64 {
		l, _, _, err := loss.NormalizedTriplet(z, zp, labels, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return l
	})
	gradsClose(t, "normalized triplet dzp", dzp, numZp)
}

func TestTripletNoNegatives(t *testing.T) {
	z := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	zp := z.Clone()
	l, dz, _, err := loss.NormalizedTriplet(z, zp, []int{1, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0 || dz.Norm() != 0 {
		t.Fatal("single-class batch should contribute nothing")
	}
}

func TestEmbedL2(t *testing.T) {
	z := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	zp := tensor.MustFromSlice([]float64{1, 0, 0, 1}, 2, 2)
	l, dz, dzp, err := loss.EmbedL2(z, zp)
	if err != nil {
		t.Fatal(err)
	}
	// (1+4+9+16 + 1+0+0+1)/2 = 16.
	if math.Abs(l-16) > 1e-12 {
		t.Fatalf("L2 = %g", l)
	}
	if math.Abs(dz.At(0, 1)-2) > 1e-12 { // 2·z/B = 2·2/2
		t.Fatalf("dz = %v", dz)
	}
	if dzp == nil {
		t.Fatal("dzp missing")
	}
	// Single-view form.
	l1, _, dzpNil, err := loss.EmbedL2(z, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-15) > 1e-12 || dzpNil != nil {
		t.Fatalf("single-view L2 = %g", l1)
	}
}

func TestProtoContrastGradientCheck(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	z := tensor.Randn(r, 1, 4, 3)
	protos := tensor.Randn(r, 1, 5, 3)
	labels := []int{0, 2, 4, 1}
	_, dz, err := loss.ProtoContrast(z, labels, protos, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	numZ := numGrad(z, func() float64 {
		l, _, err := loss.ProtoContrast(z, labels, protos, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		return l
	})
	gradsClose(t, "proto dz", dz, numZ)
}

func TestProtoContrastDeadPrototypes(t *testing.T) {
	z := tensor.MustFromSlice([]float64{1, 0, 0, 1}, 2, 2)
	protos := tensor.New(3, 2) // all dead
	l, dz, err := loss.ProtoContrast(z, []int{0, 1}, protos, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0 || dz.Norm() != 0 {
		t.Fatal("all-dead prototypes should be a no-op")
	}
	// One live prototype; samples of dead classes are skipped.
	protos.Set(1, 1, 0)
	if _, _, err := loss.ProtoContrast(z, []int{0, 1}, protos, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loss.ProtoContrast(z, []int{0, 1}, protos, 0); err == nil {
		t.Fatal("zero temperature should error")
	}
}

func TestMeanSquared(t *testing.T) {
	z := tensor.MustFromSlice([]float64{1, 2}, 1, 2)
	tgt := tensor.MustFromSlice([]float64{0, 0}, 1, 2)
	l, dz, err := loss.MeanSquared(z, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if l != 5 {
		t.Fatalf("mean squared = %g", l)
	}
	if dz.At(0, 0) != 2 || dz.At(0, 1) != 4 {
		t.Fatalf("dz = %v", dz)
	}
	if _, _, err := loss.MeanSquared(z, tensor.New(2, 2)); err == nil {
		t.Fatal("shape mismatch should error")
	}
}
