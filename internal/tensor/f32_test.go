package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Scalar float32 references: same loop order, same zero-skip semantics
// as the float64 serial kernels, evaluated entirely in float32. The
// blocked f32 kernels must reproduce these bit for bit.

func mmRefF32(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
	return out
}

func atbRefF32(a, b []float32, k, m, n int) []float32 {
	out := make([]float32, m*n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
	return out
}

func abtRefF32(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			out[i*n+j] = s
		}
	}
	return out
}

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

func f32BitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != got[i] && want[i] != want[i] {
			continue // any NaN matches any NaN, as in bitsEqual
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x, want %x (%g vs %g)",
				name, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// TestF32KernelsBitIdenticalToReference: the f32 determinism property —
// blocked/parallel float32 kernels reproduce the scalar float32
// reference bit for bit across the same shape table as float64.
func TestF32KernelsBitIdenticalToReference(t *testing.T) {
	bothKernelPaths(t, testF32KernelsBitIdenticalToReference)
}

func testF32KernelsBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, s := range kernelShapes {
		a := randF32(r, s.m*s.k)
		b := randF32(r, s.k*s.n)
		out := make([]float32, s.m*s.n)

		tensor.MatMulF32(out, a, b, s.m, s.k, s.n)
		f32BitsEqual(t, "matmulF32", out, mmRefF32(a, b, s.m, s.k, s.n))

		at := randF32(r, s.k*s.m)
		tensor.MatMulATBF32(out, at, b, s.k, s.m, s.n)
		f32BitsEqual(t, "matmulATBF32", out, atbRefF32(at, b, s.k, s.m, s.n))

		bt := randF32(r, s.n*s.k)
		tensor.MatMulABTF32(out, a, bt, s.m, s.k, s.n)
		f32BitsEqual(t, "matmulABTF32", out, abtRefF32(a, bt, s.m, s.k, s.n))
	}
}

// TestF32SplitInvariant: like TestKernelsSplitInvariant, row partition
// must not change a single bit of the float32 outputs.
func TestF32SplitInvariant(t *testing.T) {
	bothKernelPaths(t, testF32SplitInvariant)
}

func testF32SplitInvariant(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{37, 41, 23},
		{37, 512, 520}, // large streamed b panel
	} {
		r := rand.New(rand.NewSource(22))
		m, k, n := s.m, s.k, s.n
		a := randF32(r, m*k)
		b := randF32(r, k*n)
		at := randF32(r, k*m)
		bt := randF32(r, n*k)
		out := make([]float32, m*n)

		splits := [][]int{
			{0, m},
			{0, 1, m},
			{0, m - 1, m},
			{0, 5, 11, 12, 30, m},
		}
		wantMM := mmRefF32(a, b, m, k, n)
		wantATB := atbRefF32(at, b, k, m, n)
		wantABT := abtRefF32(a, bt, m, k, n)
		for _, bounds := range splits {
			tensor.MatMulF32WithSplits(out, a, b, k, n, bounds)
			f32BitsEqual(t, "matmulF32 split", out, wantMM)
			tensor.MatMulATBF32WithSplits(out, at, b, k, m, n, bounds)
			f32BitsEqual(t, "matmulATBF32 split", out, wantATB)
			tensor.MatMulABTF32WithSplits(out, a, bt, k, n, bounds)
			f32BitsEqual(t, "matmulABTF32 split", out, wantABT)
		}
	}
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

		at := tensor.MustFromSlice(a64, s.m, s.k)
		bt := tensor.MustFromSlice(b64, s.k, s.n)
		want, err := tensor.MatMul(at, bt)
		if err != nil {
			t.Fatal(err)
		}
		absT, err := tensor.MatMul(tensor.MustFromSlice(absA, s.m, s.k), tensor.MustFromSlice(absB, s.k, s.n))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float32, s.m*s.n)
		tensor.MatMulF32(got, a32, b32, s.m, s.k, s.n)
		wd, ad := want.Data(), absT.Data()
		for i := range got {
			bound := 2 * float64(s.k) * u32 * ad[i]
			if diff := math.Abs(float64(got[i]) - wd[i]); diff > bound && diff > 1e-12 {
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

func TestF32KernelShapePanics(t *testing.T) {
	out := make([]float32, 4)
	a := make([]float32, 4)
	b := make([]float32, 4)
	assertPanics(t, "bad a", func() { tensor.MatMulF32(out, a[:3], b, 2, 2, 2) })
	assertPanics(t, "bad b", func() { tensor.MatMulF32(out, a, b[:3], 2, 2, 2) })
	assertPanics(t, "bad out", func() { tensor.MatMulF32(out[:3], a, b, 2, 2, 2) })
	assertPanics(t, "bad atb", func() { tensor.MatMulATBF32(out, a[:1], b, 2, 2, 2) })
	assertPanics(t, "bad abt", func() { tensor.MatMulABTF32(out, a, b[:1], 2, 2, 2) })
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

// TestKernelSteadyStateAllocs proves the dispatch path below the serial
// cutoff (the eval-time and f32 hot path) stays allocation-free on both
// kernel paths: the kernel closures must not escape, the SIMD tiles
// take no heap arguments, and the telemetry counters are alloc-free by
// construction.
func TestKernelSteadyStateAllocs(t *testing.T) {
	bothKernelPaths(t, testKernelSteadyStateAllocs)
}

func testKernelSteadyStateAllocs(t *testing.T) {
	const m, k, n = 16, 16, 16 // madds 4096 < serialFlopCutoff, full SIMD tiles
	r := rand.New(rand.NewSource(24))
	a := randMatrix(r, m, k)
	b := randMatrix(r, k, n)
	out := tensor.New(m, n)
	a32 := randF32(r, m*k)
	b32 := randF32(r, k*n)
	out32 := make([]float32, m*n)
	if err := tensor.MatMulInto(out, a, b); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tensor.MatMulInto(out, a, b); err != nil {
			t.Fatal(err)
		}
		if err := tensor.MatMulATBInto(out, a, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("serial MatMulInto/MatMulATBInto allocated %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		tensor.MatMulF32(out32, a32, b32, m, k, n)
		tensor.MatMulATBF32(out32, a32, b32, k, m, n)
		tensor.MatMulABTF32(out32, a32, b32, m, k, n)
	}); allocs != 0 {
		t.Fatalf("serial f32 kernels allocated %.1f objects/op, want 0", allocs)
	}
}
