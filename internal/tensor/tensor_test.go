package tensor_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

func TestNewZeroFilled(t *testing.T) {
	x := tensor.New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
	if x.Dims() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("shape = %v", x.Shape())
	}
}

func TestFromSlice(t *testing.T) {
	x, err := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g, want 3", x.At(1, 0))
	}
	if _, err := tensor.FromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("want error for mismatched length")
	}
}

func TestSetAt(t *testing.T) {
	x := tensor.New(2, 2, 2)
	x.Set(5, 1, 0, 1)
	if x.At(1, 0, 1) != 5 {
		t.Fatalf("At = %g, want 5", x.At(1, 0, 1))
	}
	if x.At(0, 0, 0) != 0 {
		t.Fatal("unrelated element modified")
	}
}

func TestReshape(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshaped At(2,1) = %g, want 6", y.At(2, 1))
	}
	// View semantics: mutation is shared.
	y.Set(9, 0, 0)
	if x.At(0, 0) != 9 {
		t.Fatal("reshape should share storage")
	}
	if _, err := x.Reshape(4, 2); err == nil {
		t.Fatal("want error for bad reshape")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 7
	if x.Data()[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestElementwiseErrors(t *testing.T) {
	a := tensor.New(2, 2)
	b := tensor.New(4)
	if err := a.AddScaled(1, b); err == nil {
		t.Fatal("AddScaled should reject shape mismatch")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(vals [8]float64) bool {
		a := tensor.MustFromSlice(append([]float64(nil), vals[:]...), 2, 4)
		orig := a.Clone()
		b := tensor.Full(3.5, 2, 4)
		if err := a.AddScaled(1, b); err != nil {
			return false
		}
		if err := a.AddScaled(-1, b); err != nil {
			return false
		}
		for i := range a.Data() {
			if math.Abs(a.Data()[i]-orig.Data()[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := tensor.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("matmul[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := tensor.New(2, 3)
	b := tensor.New(2, 3)
	if _, err := tensor.MatMul(a, b); err == nil {
		t.Fatal("want inner-dim error")
	}
	if _, err := tensor.MatMul(tensor.New(6), b); err == nil {
		t.Fatal("want rank error")
	}
}

// MatMulATB and MatMulABT must agree with MatMul on the explicitly
// transposed operand, written out here as a literal.
func TestMatMulTransposedVariants(t *testing.T) {
	// a is (2,3); at is its transpose.
	a := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := tensor.MustFromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	b := tensor.MustFromSlice([]float64{7, 8, 9, 10}, 2, 2)
	want, err := tensor.MatMul(at, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tensor.MatMulATB(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(want.Data(), got.Data()) {
		t.Fatalf("MatMulATB = %v, want %v", got.Data(), want.Data())
	}

	// d is (2,3); dt is its transpose.
	c := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	d := tensor.MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 2, 3)
	dt := tensor.MustFromSlice([]float64{7, 10, 8, 11, 9, 12}, 3, 2)
	want2, err := tensor.MatMul(c, dt)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := tensor.MatMulABT(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(want2.Data(), got2.Data()) {
		t.Fatalf("MatMulABT = %v, want %v", got2.Data(), want2.Data())
	}
}

func TestChannelStats(t *testing.T) {
	// Channel 0 constant 2 → mean 2, sigma = sqrt(eps). Channel 1 is
	// {0,0,2,2} → mean 1, var 1.
	x := tensor.MustFromSlice([]float64{2, 2, 2, 2, 0, 0, 2, 2}, 2, 2, 2)
	mu, sigma, err := tensor.ChannelStats(x, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if mu[0] != 2 || mu[1] != 1 {
		t.Fatalf("mu = %v", mu)
	}
	if math.Abs(sigma[0]-math.Sqrt(1e-5)) > 1e-12 {
		t.Fatalf("sigma[0] = %g", sigma[0])
	}
	if math.Abs(sigma[1]-math.Sqrt(1+1e-5)) > 1e-12 {
		t.Fatalf("sigma[1] = %g", sigma[1])
	}
	if _, _, err := tensor.ChannelStats(tensor.New(4), 1e-5); err == nil {
		t.Fatal("want rank error")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := tensor.Randn(r, 10, 4, 6) // large values exercise stability
	p, err := tensor.Softmax(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s := 0.0
		for j := 0; j < 6; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("prob out of range: %g", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
}

func TestDotNormCosine(t *testing.T) {
	a := tensor.MustFromSlice([]float64{3, 4}, 2)
	if a.Norm() != 5 {
		t.Fatalf("norm = %g, want 5", a.Norm())
	}
}

func TestSquaredDistance(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2}, 2)
	b := tensor.MustFromSlice([]float64{4, 6}, 2)
	d, err := tensor.SquaredDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 25 {
		t.Fatalf("squared distance = %g, want 25", d)
	}
}

func TestRowView(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	row := x.MustRow(1)
	if row.Data()[0] != 3 {
		t.Fatalf("row = %v", row.Data())
	}
	row.Data()[0] = 9
	if x.At(1, 0) != 9 {
		t.Fatal("Row should be a view")
	}
	if _, err := x.Row(5); err == nil {
		t.Fatal("want range error")
	}
}

func TestScaleApplySum(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1, -2, 3}, 3)
	x.Scale(2)
	if x.Sum() != 4 {
		t.Fatalf("sum = %g, want 4", x.Sum())
	}
	for i, v := range x.Data() {
		x.Data()[i] = math.Abs(v)
	}
	if x.Sum() != 12 {
		t.Fatalf("sum after abs = %g, want 12", x.Sum())
	}
	if got := x.Mean(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("mean = %g, want 4", got)
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestRandDeterministic(t *testing.T) {
	a := tensor.Randn(rand.New(rand.NewSource(1)), 1, 5)
	b := tensor.Randn(rand.New(rand.NewSource(1)), 1, 5)
	if !almostEqual(a.Data(), b.Data()) {
		t.Fatal("same seed should give same tensor")
	}
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}
