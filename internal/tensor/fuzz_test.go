package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// FuzzMatMulKernels drives the slice entries of all three products, in
// float64 and float32, against their scalar references on
// fuzzer-chosen shapes and data, on every kernel tier the CPU has: the
// AVX-512 and AVX tiles where it has them, and the generic strips. The
// property under test is the strongest one the kernels claim:
// bit-identical output, not tolerance. Each entry must reproduce the
// naive serial loop of its dtype exactly (the determinism contract
// that lets the CPU bounds stay outside the content-address), and the
// adding aᵀ@b, which accumulates into an out of fuzzed values, the
// serial product plus one add per element. Besides ±0, both operands
// carry a few NaN,
// ±Inf, subnormal and near-overflow entries, so a SIMD tile whose zero
// a meets an Inf or NaN in b must fall back to the gated strips.
//
// Shapes are folded into ranges that cross every blocking boundary: the
// 4×8, 4×16 and 4×32 SIMD tiles' and the 2×4 register strips' ragged
// tails on all axes, the serial-vs-pool work threshold, and the
// per-worker row split. The checked-in corpus under testdata/fuzz pins
// those edges (the atb-accumulate entries at the accumulate epilogue's,
// the tile-nan-fallback entries at full tiles that fall back, the
// zmm-tile-edges entries one off either side of the AVX-512 widths); CI
// additionally runs a fixed-budget fuzz smoke so new mutations keep
// probing them.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(1), uint16(1))
	f.Add(int64(2), uint16(9), uint16(8), uint16(7))
	f.Add(int64(3), uint16(2), uint16(4), uint16(8))
	f.Add(int64(4), uint16(15), uint16(2), uint16(17))
	f.Add(int64(5), uint16(11), uint16(513), uint16(520))
	f.Add(int64(6), uint16(24), uint16(300), uint16(875))
	f.Fuzz(func(t *testing.T, seed int64, m16, k16, n16 uint16) {
		m := int(m16)%64 + 1
		k := int(k16)%768 + 1
		n := int(n16)%640 + 1
		eachTier(t, func(t *testing.T, _ tensor.Tier) {
			checkKernels(t, rand.New(rand.NewSource(seed)), m, k, n)
		})
	})
}

// checkKernels compares every kernel with its reference on one shape.
// The checked-in corpus was chosen against this draw order: a, b, at
// and bt of float64, the same of float32, then the float64 accumulator
// (the float32 one comes last).
func checkKernels(t *testing.T, r *rand.Rand, m, k, n int) {
	t.Helper()
	gen64, gen32 := withSpecials(randF64, specials64), withSpecials(randF32, specials32)
	o64 := drawOperands(r, gen64, m, k, n)
	o32 := drawOperands(r, gen32, m, k, n)
	o64.acc, o32.acc = gen64(r, m*n), gen32(r, m*n)
	checkProducts(t, f64Kernels, o64)
	checkProducts(t, f32Kernels, o32)
}

// Special operands: NaN, ±Inf, subnormals and near-overflow values.
var (
	specials64 = []float64{math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -2.5e-310, math.MaxFloat64 / 2}
	specials32 = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-45, -3e-40, math.MaxFloat32 / 2}
)

// withSpecials wraps gen to overwrite up to four entries of each
// operand with specials. A few per operand keep most outputs finite, so
// the rest of the comparison still sees ordinary values.
func withSpecials[T dtype](gen func(*rand.Rand, int) []T, specials []T) func(*rand.Rand, int) []T {
	return func(r *rand.Rand, n int) []T {
		s := gen(r, n)
		for i := r.Intn(5); i > 0; i-- {
			s[r.Intn(len(s))] = specials[r.Intn(len(specials))]
		}
		return s
	}
}
