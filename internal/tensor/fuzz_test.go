package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// FuzzMatMulKernels drives the blocked kernels — all three float64
// products and the float32 kernel set — against their scalar references
// on fuzzer-chosen shapes and data, on every kernel tier the CPU has:
// the AVX-512 and AVX tiles where it has them, and the generic strips.
// The property under test is the strongest one the kernels claim:
// bit-identical output, not tolerance. The float64 kernels must
// reproduce the naive serial loops exactly (the determinism contract
// that lets the CPU bounds stay outside the content-address), and
// MatMulATBAddF64, which accumulates into an out of fuzzed values, the
// serial product plus one add per element. The float32 kernels must
// reproduce the scalar float32 loops exactly (same loop order, same
// zero-skip semantics). Besides ±0, both operands carry a few NaN,
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
func checkKernels(t *testing.T, r *rand.Rand, m, k, n int) {
	t.Helper()
	a := specialMatrix(r, m, k)
	b := specialMatrix(r, k, n)
	want, err := tensor.MatMulSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tensor.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "matmul", got, want)

	at := specialMatrix(r, k, m) // (k,m) for aᵀ@b
	wantATB, err := tensor.MatMulATBSerial(at, b)
	if err != nil {
		t.Fatal(err)
	}
	gotATB, err := tensor.MatMulATB(at, b)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "matmulATB", gotATB, wantATB)

	bt := specialMatrix(r, n, k) // (n,k) for a@bᵀ
	wantABT, err := tensor.MatMulABTSerial(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	gotABT, err := tensor.MatMulABT(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "matmulABT", gotABT, wantABT)

	a32 := specialF32(r, m*k)
	b32 := specialF32(r, k*n)
	out32 := make([]float32, m*n)
	tensor.MatMulF32(out32, a32, b32, m, k, n)
	f32BitsEqual(t, "matmulF32", out32, mmRefF32(a32, b32, m, k, n))

	at32 := specialF32(r, k*m)
	tensor.MatMulATBF32(out32, at32, b32, k, m, n)
	f32BitsEqual(t, "matmulATBF32", out32, atbRefF32(at32, b32, k, m, n))

	bt32 := specialF32(r, n*k)
	tensor.MatMulABTF32(out32, a32, bt32, m, k, n)
	f32BitsEqual(t, "matmulABTF32", out32, abtRefF32(a32, bt32, m, k, n))

	// The accumulate epilogue: aᵀ@b added into a non-zero out must equal
	// the serial product plus one add per element.
	acc := specialMatrix(r, m, n)
	wantAcc := acc.Clone()
	for i, v := range wantATB.Data() {
		wantAcc.Data()[i] += v
	}
	tensor.MatMulATBAddF64(acc.Data(), at.Data(), b.Data(), k, m, n)
	bitsEqual(t, "matmulATB accumulate", acc, wantAcc)
}

// Special operands: NaN, ±Inf, subnormals and near-overflow values.
var (
	specials64 = []float64{math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -2.5e-310, math.MaxFloat64 / 2}
	specials32 = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-45, -3e-40, math.MaxFloat32 / 2}
)

// specialMatrix is randMatrix with up to four entries overwritten by
// specials. A few per operand keep most outputs finite, so the rest of
// the comparison still sees ordinary values.
func specialMatrix(r *rand.Rand, rows, cols int) *tensor.Tensor {
	m := randMatrix(r, rows, cols)
	d := m.Data()
	for i := r.Intn(5); i > 0; i-- {
		d[r.Intn(len(d))] = specials64[r.Intn(len(specials64))]
	}
	return m
}

// specialF32 is specialMatrix for float32 operands.
func specialF32(r *rand.Rand, nelem int) []float32 {
	s := randF32(r, nelem)
	for i := r.Intn(5); i > 0; i-- {
		s[r.Intn(len(s))] = specials32[r.Intn(len(specials32))]
	}
	return s
}
