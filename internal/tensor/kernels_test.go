package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// randMatrix fills an (r,c) tensor with normal samples, sprinkling exact
// zeros (and a negative zero) so the kernels' zero-skip paths and FP
// edge cases are exercised.
func randMatrix(r *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.Randn(r, 1, rows, cols)
	d := t.Data()
	for i := range d {
		switch r.Intn(8) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// bitsEqual requires identical bits, except that any NaN matches any
// NaN: which operand's payload a NaN result carries depends on the
// instruction's operand order, which the compiler may commute.
func bitsEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v vs %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if math.IsNaN(gd[i]) && math.IsNaN(wd[i]) {
			continue
		}
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: element %d = %x, want %x (%g vs %g)",
				name, i, math.Float64bits(gd[i]), math.Float64bits(wd[i]), gd[i], wd[i])
		}
	}
}

// bothKernelPaths runs f on every kernel tier the CPU has: "simd" on
// the widest tiles (skipped on a CPU without them), "ymm" on the AVX
// tiles where AVX-512 is the widest, and "generic" with the strips
// forced, so every kernel property holds on every path.
func bothKernelPaths(t *testing.T, f func(t *testing.T)) {
	paths := []struct {
		name string
		tier tensor.Tier
	}{{"simd", tensor.HaveTier}, {"ymm", tensor.TierYMM}, {"generic", tensor.TierStrips}}
	for _, path := range paths {
		if path.name == "ymm" && tensor.HaveTier != tensor.TierZMM {
			continue
		}
		t.Run(path.name, func(t *testing.T) {
			if path.name == "simd" && !tensor.HaveSIMD {
				t.Skip("this CPU has no SIMD tiles")
			}
			defer tensor.SetTier(path.tier)()
			f(t)
		})
	}
}

// kernelShapes covers the degenerate and non-multiple-of-tile shapes the
// blocked kernels must handle: 1×N, N×1, tiny, odd, and larger than one
// tile on every axis.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 7},
	{1, 300, 1},
	{3, 5, 4},
	{31, 17, 29},
	{5, 129, 300}, // wide/odd k and n: panels narrower than their rows
	{130, 129, 257},
	{64, 64, 64},
	// Strip-edge shapes: one off either side of the 2-row × 4-column
	// register strips, plus large panels with ragged tails on both axes.
	{4, 4, 4},
	{8, 8, 8},
	{9, 8, 7},
	{7, 9, 8},
	{8, 7, 9},
	{12, 5, 12},
	{16, 3, 16},
	{15, 2, 17},
	{11, 513, 520}, // large panels with odd row count
	{24, 300, 875}, // large panels with n%4 ≠ 0 tails
	// Tile-edge shapes: one off either side of the 4-row × 8-column
	// (f64) and 4-row × 16-column (f32) AVX tiles, and of the 4×16 (f64)
	// and 4×32 (f32) AVX-512 ones.
	{3, 9, 8},
	{4, 9, 16},
	{5, 33, 15},
	{7, 64, 17},
	{13, 31, 24},
	{8, 7, 31},
	{4, 12, 32},
	{9, 20, 33},
	{12, 3, 48},
	{32, 1024, 64}, // the training shape: layer-0 X·W₀ and Xᵀ·δ
}

// TestKernelsBitIdenticalToSerial is the core determinism property: the
// blocked (and, above the threshold, parallel) kernels must reproduce the
// naive serial reference bit for bit across odd shapes.
func TestKernelsBitIdenticalToSerial(t *testing.T) {
	bothKernelPaths(t, testKernelsBitIdenticalToSerial)
}

func testKernelsBitIdenticalToSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, s := range kernelShapes {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)

		want, err := tensor.MatMulSerial(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tensor.MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmul", got, want)

		at := randMatrix(r, s.k, s.m) // (k,m) for aᵀ@b
		wantATB, err := tensor.MatMulATBSerial(at, b)
		if err != nil {
			t.Fatal(err)
		}
		gotATB, err := tensor.MatMulATB(at, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulATB", gotATB, wantATB)

		bt := randMatrix(r, s.n, s.k) // (n,k) for a@bᵀ
		wantABT, err := tensor.MatMulABTSerial(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		gotABT, err := tensor.MatMulABT(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulABT", gotABT, wantABT)
	}
}

// TestKernelsSplitInvariant proves the result does not depend on how rows
// are partitioned across workers, including degenerate and uneven splits —
// the property that makes the CPU bounds pure scheduling knobs.
func TestKernelsSplitInvariant(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{37, 41, 23},   // 2×4 strips with ragged tails on both axes
		{37, 512, 520}, // large streamed b panel (k·n past L2)
	} {
		t.Run("", func(t *testing.T) {
			bothKernelPaths(t, func(t *testing.T) { testSplitInvariant(t, s.m, s.k, s.n) })
		})
	}
}

func testSplitInvariant(t *testing.T, m, k, n int) {
	r := rand.New(rand.NewSource(12))
	a := randMatrix(r, m, k)
	b := randMatrix(r, k, n)
	at := randMatrix(r, k, m)
	bt := randMatrix(r, n, k)

	splits := [][]int{
		{0, m},
		{0, 1, m},
		{0, m - 1, m},
		{0, 5, 11, 12, 30, m},
		func() []int { // one row per task
			s := make([]int, m+1)
			for i := range s {
				s[i] = i
			}
			return s
		}(),
	}

	wantMM, _ := tensor.MatMulSerial(a, b)
	wantATB, _ := tensor.MatMulATBSerial(at, b)
	wantABT, _ := tensor.MatMulABTSerial(a, bt)
	for _, bounds := range splits {
		got, err := tensor.MatMulWithSplits(a, b, bounds)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmul split", got, wantMM)
		got, err = tensor.MatMulATBWithSplits(at, b, bounds)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulATB split", got, wantATB)
		got, err = tensor.MatMulABTWithSplits(a, bt, bounds)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulABT split", got, wantABT)
	}
}

// TestMatMulIntoVariants checks the slice entries of the float64
// products against their allocating forms: MatMulF64 and MatMulABTF64
// fully overwrite a dirty reused output buffer, and MatMulATBAddF64
// into a zeroed one is MatMulATB.
func TestMatMulIntoVariants(t *testing.T) {
	bothKernelPaths(t, testMatMulIntoVariants)
}

func testMatMulIntoVariants(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const m, k, n = 9, 33, 14
	a := randMatrix(r, m, k)
	b := randMatrix(r, k, n)
	at := randMatrix(r, k, m)
	bt := randMatrix(r, n, k)

	dirty := func() *tensor.Tensor { return tensor.Full(999, m, n) }

	out := dirty()
	tensor.MatMulF64(out.Data(), a.Data(), b.Data(), m, k, n)
	want, _ := tensor.MatMul(a, b)
	bitsEqual(t, "matmulF64", out, want)

	out = tensor.New(m, n)
	tensor.MatMulATBAddF64(out.Data(), at.Data(), b.Data(), k, m, n)
	want, _ = tensor.MatMulATB(at, b)
	bitsEqual(t, "matmulATBAddF64", out, want)

	out = dirty()
	tensor.MatMulABTF64(out.Data(), a.Data(), bt.Data(), m, k, n)
	want, _ = tensor.MatMulABT(a, bt)
	bitsEqual(t, "matmulABTF64", out, want)

	// A wrong output length must be rejected, not silently written.
	bad := make([]float64, (m+1)*n)
	assertPanics(t, "MatMulF64 out", func() { tensor.MatMulF64(bad, a.Data(), b.Data(), m, k, n) })
	assertPanics(t, "MatMulATBAddF64 out", func() { tensor.MatMulATBAddF64(bad, at.Data(), b.Data(), k, m, n) })
	assertPanics(t, "MatMulABTF64 out", func() { tensor.MatMulABTF64(bad, a.Data(), bt.Data(), m, k, n) })
}

func TestAddScaledInto(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := tensor.MustFromSlice([]float64{10, 20, 30, 40}, 2, 2)
	dst := tensor.New(2, 2)
	if err := tensor.AddScaledInto(dst, a, 0.5, b); err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 12, 18, 24}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, v, want[i])
		}
	}
	// Aliasing dst==a is the in-place axpy.
	if err := tensor.AddScaledInto(a, a, 1, b); err != nil {
		t.Fatal(err)
	}
	if a.Data()[3] != 44 {
		t.Fatalf("aliased axpy = %v", a.Data())
	}
	if err := tensor.AddScaledInto(dst, a, 1, tensor.New(4)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestBinaryOpShapeChecks covers the SquaredDistance fix: equal
// element counts with different shapes must be rejected, consistently
// with the other binary ops.
func TestBinaryOpShapeChecks(t *testing.T) {
	a := tensor.New(2, 3)
	b := tensor.New(3, 2)
	if _, err := tensor.SquaredDistance(a, b); err == nil {
		t.Fatal("SquaredDistance accepted (2,3) vs (3,2)")
	}
}
