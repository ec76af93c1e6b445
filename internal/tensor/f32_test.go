package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// randF32 is randF64 for float32 operands, in its own draw order.
func randF32(r *rand.Rand, nelem int) []float32 {
	s := make([]float32, nelem)
	for i := range s {
		switch r.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// TestF32KernelsBitIdenticalToReference: the f32 determinism property —
// blocked/parallel float32 kernels reproduce the scalar float32
// reference bit for bit across the same shape table as float64.
func TestF32KernelsBitIdenticalToReference(t *testing.T) {
	bothKernelPaths(t, func(t *testing.T) { testBitIdentical(t, f32Kernels, 21) })
}

// TestF32SplitInvariant: like TestKernelsSplitInvariant, row partition
// must not change a single bit of the float32 outputs.
func TestF32SplitInvariant(t *testing.T) {
	bothKernelPaths(t, func(t *testing.T) {
		testSplitInvariant(t, f32Kernels, 22, 37, 41, 23)
		testSplitInvariant(t, f32Kernels, 22, 37, 512, 520) // large streamed b panel
	})
}

// TestF32MatchesF64WithinTolerance bounds the f32 rounding error
// against the float64 kernels using the standard forward-error bound
// for a length-k float32 dot product: |fl(Σ) − Σ| ≤ 2·k·u·Σ|aₚ·bₚ|
// with u = 2⁻²⁴ (the factor 2 absorbs the final rounding and the
// f64-side error, which is ~2⁻²⁹ of the bound and negligible). This is
// the documented tolerance of the opt-in f32 precision path.
func TestF32MatchesF64WithinTolerance(t *testing.T) {
	const u32 = 1.0 / (1 << 24)
	r := rand.New(rand.NewSource(23))
	for _, s := range kernelShapes {
		a32 := randF32(r, s.m*s.k)
		b32 := randF32(r, s.k*s.n)
		// Widen the exact f32 inputs so both dtypes see identical values.
		a64 := make([]float64, len(a32))
		b64 := make([]float64, len(b32))
		tensor.WidenInto(a64, a32)
		tensor.WidenInto(b64, b32)
		absA := make([]float64, len(a64))
		absB := make([]float64, len(b64))
		for i, v := range a64 {
			absA[i] = math.Abs(v)
		}
		for i, v := range b64 {
			absB[i] = math.Abs(v)
		}

		want, abs := make([]float64, s.m*s.n), make([]float64, s.m*s.n)
		tensor.MatMulF64(want, a64, b64, s.m, s.k, s.n)
		tensor.MatMulF64(abs, absA, absB, s.m, s.k, s.n)
		got := make([]float32, s.m*s.n)
		tensor.MatMulF32(got, a32, b32, s.m, s.k, s.n)
		for i := range got {
			bound := 2 * float64(s.k) * u32 * abs[i]
			if diff := math.Abs(float64(got[i]) - want[i]); diff > bound && diff > 1e-12 {
				t.Fatalf("shape %v: element %d off by %g, bound %g", s, i, diff, bound)
			}
		}
	}
}

func TestWidenNarrow(t *testing.T) {
	src := []float32{1.5, -2.25, float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1))}
	dst := make([]float64, len(src))
	tensor.WidenInto(dst, src)
	if dst[0] != 1.5 || dst[1] != -2.25 || !math.IsInf(dst[2], 1) || !math.IsNaN(dst[3]) {
		t.Fatalf("widen = %v", dst)
	}
	if math.Float64bits(dst[4]) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("widen dropped the sign of -0")
	}
	back := make([]float32, len(src))
	tensor.NarrowInto(back, dst)
	for i := range src {
		if math.Float32bits(back[i]) != math.Float32bits(src[i]) {
			t.Fatalf("narrow∘widen not identity at %d: %x vs %x", i, math.Float32bits(back[i]), math.Float32bits(src[i]))
		}
	}
	// Out-of-range f64 narrows to ±Inf, sub-f32-denormal underflows to 0.
	tensor.NarrowInto(back[:2], []float64{1e300, -1e300})
	if !math.IsInf(float64(back[0]), 1) || !math.IsInf(float64(back[1]), -1) {
		t.Fatalf("overflow narrow = %v", back[:2])
	}
	assertPanics(t, "length mismatch", func() { tensor.WidenInto(dst[:2], src) })
	assertPanics(t, "length mismatch", func() { tensor.NarrowInto(back[:2], dst) })
}

func TestF32KernelShapePanics(t *testing.T) { testShapePanics(t, f32Kernels) }

// TestKernelSteadyStateAllocs proves the dispatch path below the serial
// cutoff (the eval-time and f32 hot path) stays allocation-free on both
// kernel paths: the kernel closures must not escape, the SIMD tiles
// take no heap arguments, and the telemetry counters are alloc-free by
// construction.
func TestKernelSteadyStateAllocs(t *testing.T) {
	bothKernelPaths(t, func(t *testing.T) {
		testSteadyStateAllocs(t, f64Kernels)
		testSteadyStateAllocs(t, f32Kernels)
	})
}

func testSteadyStateAllocs[T dtype](t *testing.T, ks kernelSet[T]) {
	// madds 8192 < serialFlopCutoff; full tiles of every width on the
	// n axis, so MatMulABT transposes b through its free list.
	const m, k, n = 16, 16, 32
	o := drawOperands(rand.New(rand.NewSource(24)), ks.rand, m, k, n)
	out := make([]T, m*n)
	ks.mm(out, o.a, o.b, m, k, n)
	if allocs := testing.AllocsPerRun(50, func() {
		ks.mm(out, o.a, o.b, m, k, n)
		ks.atbAdd(out, o.at, o.b, k, m, n)
		ks.atb(out, o.at, o.b, k, m, n)
		ks.abt(out, o.a, o.bt, m, k, n)
	}); allocs != 0 {
		t.Fatalf("serial %T kernels allocated %.1f objects/op, want 0", T(0), allocs)
	}
}
