package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// The kernel property tests are written once, generic over the dtype,
// against the slice entries nn calls; each dtype's tests instantiate
// them with its kernelSet.

// dtype is the element types the products come in.
type dtype interface{ float32 | float64 }

// kernelSet is one dtype's product entries, the ones nn calls, in their
// slice signatures, beside the row-split hooks of export_test.go and an
// operand generator. atb assigns out and atbAdd adds into it; the
// float64 entry adds and the float32 one assigns, so each dtype wraps
// or hooks the other form.
type kernelSet[T dtype] struct {
	mm, abt     func(out, a, b []T, m, k, n int)
	atb, atbAdd func(out, a, b []T, k, m, n int)
	// mmSplits, atbSplits and abtSplits assign out over a row partition.
	mmSplits, atbSplits, abtSplits func(out, a, b []T, k, n int, bounds []int)
	rand                           func(r *rand.Rand, n int) []T
}

var f64Kernels = kernelSet[float64]{
	mm:  tensor.MatMulF64,
	abt: tensor.MatMulABTF64,
	atb: func(out, a, b []float64, k, m, n int) {
		clear(out)
		tensor.MatMulATBAddF64(out, a, b, k, m, n)
	},
	atbAdd:    tensor.MatMulATBAddF64,
	mmSplits:  tensor.MatMulF64WithSplits,
	atbSplits: tensor.MatMulATBF64WithSplits,
	abtSplits: tensor.MatMulABTF64WithSplits,
	rand:      randF64,
}

var f32Kernels = kernelSet[float32]{
	mm:        tensor.MatMulF32,
	abt:       tensor.MatMulABTF32,
	atb:       tensor.MatMulATBF32,
	atbAdd:    tensor.MatMulATBAddF32,
	mmSplits:  tensor.MatMulF32WithSplits,
	atbSplits: tensor.MatMulATBF32WithSplits,
	abtSplits: tensor.MatMulABTF32WithSplits,
	rand:      randF32,
}

// randF64 returns n normal samples, sprinkling exact zeros (and
// negative zeros) so the kernels' zero-skip paths and FP edge cases are
// exercised.
func randF64(r *rand.Rand, n int) []float64 {
	s := tensor.Randn(r, 1, n).Data()
	for i := range s {
		switch r.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		}
	}
	return s
}

// bitsEqual requires identical bits, except that any NaN matches any
// NaN: which operand's payload a NaN result carries depends on the
// instruction's operand order, which the compiler may commute. Widening
// to float64 is exact, so it keeps every float32 bit.
func bitsEqual[T dtype](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %g, want %g (%x vs %x)", name, i, got[i], want[i], math.Float64bits(g), math.Float64bits(w))
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

// operands are one shape's inputs: a (m,k) and b (k,n), at (k,m) for
// aᵀ@b, bt (n,k) for a@bᵀ, and acc (m,n), which the adding aᵀ@b adds
// into when set.
type operands[T dtype] struct {
	m, k, n           int
	a, b, at, bt, acc []T
}

// drawOperands draws a, b, at and bt from gen, in that order.
func drawOperands[T dtype](r *rand.Rand, gen func(*rand.Rand, int) []T, m, k, n int) operands[T] {
	return operands[T]{m: m, k: k, n: n, a: gen(r, m*k), b: gen(r, k*n), at: gen(r, k*m), bt: gen(r, n*k)}
}

// dirty fills out with a value no product of the tests returns, so an
// element an entry fails to write shows.
func dirty[T dtype](out []T) []T {
	for i := range out {
		out[i] = 999
	}
	return out
}

// checkProducts runs each product of ks on o and compares it bit for
// bit with its scalar reference: the assigning forms over a dirty out,
// and, when o.acc is set, the adding aᵀ@b on top of o.acc.
func checkProducts[T dtype](t *testing.T, ks kernelSet[T], o operands[T]) {
	t.Helper()
	m, k, n := o.m, o.k, o.n
	name := fmt.Sprintf("%T %dx%dx%d", T(0), m, k, n)
	want, out := make([]T, m*n), make([]T, m*n)
	tensor.MatMulSerial(want, o.a, o.b, m, k, n)
	ks.mm(dirty(out), o.a, o.b, m, k, n)
	bitsEqual(t, "matmul "+name, out, want)
	tensor.MatMulATBSerial(want, o.at, o.b, k, m, n)
	ks.atb(dirty(out), o.at, o.b, k, m, n)
	bitsEqual(t, "matmulATB "+name, out, want)
	tensor.MatMulABTSerial(want, o.a, o.bt, m, k, n)
	ks.abt(dirty(out), o.a, o.bt, m, k, n)
	bitsEqual(t, "matmulABT "+name, out, want)
	if o.acc != nil {
		checkATBAdd(t, "matmulATB accumulate "+name, ks, o.acc, o.at, o.b, k, m, n)
	}
}

// checkATBAdd runs the adding aᵀ@b of ks into out and requires the
// reference product added to out's old value, one add per element.
func checkATBAdd[T dtype](t *testing.T, name string, ks kernelSet[T], out, a, b []T, k, m, n int) {
	t.Helper()
	want := make([]T, m*n)
	tensor.MatMulATBSerial(want, a, b, k, m, n)
	for i, v := range out {
		want[i] = v + want[i]
	}
	ks.atbAdd(out, a, b, k, m, n)
	bitsEqual(t, name, out, want)
}

// TestKernelsBitIdenticalToSerial is the core determinism property: the
// blocked (and, above the threshold, parallel) kernels must reproduce the
// naive serial reference bit for bit across odd shapes.
func TestKernelsBitIdenticalToSerial(t *testing.T) {
	bothKernelPaths(t, func(t *testing.T) { testBitIdentical(t, f64Kernels, 11) })
}

func testBitIdentical[T dtype](t *testing.T, ks kernelSet[T], seed int64) {
	r := rand.New(rand.NewSource(seed))
	for _, s := range kernelShapes {
		o := drawOperands(r, ks.rand, s.m, s.k, s.n)
		o.acc = ks.rand(r, s.m*s.n)
		checkProducts(t, ks, o)
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
			bothKernelPaths(t, func(t *testing.T) { testSplitInvariant(t, f64Kernels, 12, s.m, s.k, s.n) })
		})
	}
}

func testSplitInvariant[T dtype](t *testing.T, ks kernelSet[T], seed int64, m, k, n int) {
	o := drawOperands(rand.New(rand.NewSource(seed)), ks.rand, m, k, n)
	perRow := make([]int, m+1) // one row per task
	for i := range perRow {
		perRow[i] = i
	}
	wantMM, wantATB, wantABT := make([]T, m*n), make([]T, m*n), make([]T, m*n)
	tensor.MatMulSerial(wantMM, o.a, o.b, m, k, n)
	tensor.MatMulATBSerial(wantATB, o.at, o.b, k, m, n)
	tensor.MatMulABTSerial(wantABT, o.a, o.bt, m, k, n)
	out := make([]T, m*n)
	for _, bounds := range [][]int{{0, m}, {0, 1, m}, {0, m - 1, m}, {0, 5, 11, 12, 30, m}, perRow} {
		ks.mmSplits(dirty(out), o.a, o.b, k, n, bounds)
		bitsEqual(t, "matmul split", out, wantMM)
		ks.atbSplits(dirty(out), o.at, o.b, k, n, bounds)
		bitsEqual(t, "matmulATB split", out, wantATB)
		ks.abtSplits(dirty(out), o.a, o.bt, k, n, bounds)
		bitsEqual(t, "matmulABT split", out, wantABT)
	}
}

// testShapePanics requires every entry to reject an operand of the
// wrong length instead of reading or writing past it.
func testShapePanics[T dtype](t *testing.T, ks kernelSet[T]) {
	out, a, b := make([]T, 4), make([]T, 4), make([]T, 4)
	assertPanics(t, "matmul a", func() { ks.mm(out, a[:3], b, 2, 2, 2) })
	assertPanics(t, "matmul b", func() { ks.mm(out, a, b[:3], 2, 2, 2) })
	assertPanics(t, "matmul out", func() { ks.mm(out[:3], a, b, 2, 2, 2) })
	assertPanics(t, "matmulATB a", func() { ks.atb(out, a[:1], b, 2, 2, 2) })
	assertPanics(t, "matmulATB out", func() { ks.atb(out[:3], a, b, 2, 2, 2) })
	assertPanics(t, "matmulABT b", func() { ks.abt(out, a, b[:1], 2, 2, 2) })
	assertPanics(t, "matmulABT out", func() { ks.abt(out[:3], a, b, 2, 2, 2) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
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
