// Slice kernel entry points, one per product and dtype. The nn arena's
// single dtype seam (DESIGN.md §6) lets an entire model live in one
// []float64, or one []float32 shadow, and nn walks its layers once
// over per-layer slices of either dtype; these entries give both
// walks the same register-blocked micro-kernels (microkernel.go) and
// the same shared worker pool. They are the only route to the
// products.
//
// The API is deliberately slice-first: the arenas never materialize
// Tensor views on the hot path, so the kernels take raw slices plus
// explicit dims and panic on length mismatches (a programmer error in
// the nn hot path — the nn layer validates shapes before calling).
// Each entry is bit-identical at any parallelism to its product's
// scalar reference (MatMulSerial, MatMulATBSerial, MatMulABTSerial in
// kernels.go), one generic loop per product for both dtypes, with the
// same ascending-p accumulation order.
package tensor

import "fmt"

func checkLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("tensor: %s operand length %d, want %d", name, got, want))
	}
}

// checkLens checks the operand lengths of a product entry.
func checkLens(name string, a, b, out, wantA, wantB, wantOut int) {
	if a != wantA || b != wantB || out != wantOut {
		panic(fmt.Sprintf("tensor: %s operand lengths a=%d b=%d out=%d, want %d, %d, %d", name, a, b, out, wantA, wantB, wantOut))
	}
}

// MatMulF64 computes out = a@b for a of shape (m,k) and b of shape
// (k,n), overwriting out (shape (m,n)), bit-identical to MatMulSerial.
// out must not alias a or b.
func MatMulF64(out, a, b []float64, m, k, n int) {
	checkLens("matmulF64", len(a), len(b), len(out), m*k, k*n, m*n)
	runMatMul(matMulRange, a, b, out, m, k, n)
}

// MatMulATBAddF64 adds aᵀ@b into out for a of shape (k,m) and b of
// shape (k,n): out += aᵀ@b, one add per element, bit-identical to
// computing MatMulATBSerial and adding it (backprop accumulates weight
// gradients this way without staging them). out must not alias a or b.
func MatMulATBAddF64(out, a, b []float64, k, m, n int) {
	checkLens("matmulATBAddF64", len(a), len(b), len(out), k*m, k*n, m*n)
	runMatMulATB(matMulATBRange, a, b, out, k, m, n)
}

// MatMulABTF64 computes out = a@bᵀ for a of shape (m,k) and b of shape
// (n,k), overwriting out (shape (m,n)), bit-identical to
// MatMulABTSerial. out must not alias a or b.
func MatMulABTF64(out, a, b []float64, m, k, n int) {
	checkLens("matmulABTF64", len(a), len(b), len(out), m*k, n*k, m*n)
	runMatMulABT(matMulABTRange, tiles().w64, btSpares64, a, b, out, m, k, n)
}

// MatMulF32 computes out = a@b for a of shape (m,k) and b of shape
// (k,n), overwriting out (shape (m,n)). out must not alias a or b.
func MatMulF32(out, a, b []float32, m, k, n int) {
	checkLens("matmulF32", len(a), len(b), len(out), m*k, k*n, m*n)
	runMatMul(matMulRangeF32, a, b, out, m, k, n)
}

// MatMulATBF32 computes out = aᵀ@b for a of shape (k,m) and b of shape
// (k,n), overwriting out (shape (m,n)). out must not alias a or b.
func MatMulATBF32(out, a, b []float32, k, m, n int) {
	checkLens("matmulATBF32", len(a), len(b), len(out), k*m, k*n, m*n)
	runMatMulATB(matMulATBRangeF32, a, b, out, k, m, n)
}

// MatMulABTF32 computes out = a@bᵀ for a of shape (m,k) and b of shape
// (n,k), overwriting out (shape (m,n)). out must not alias a or b.
func MatMulABTF32(out, a, b []float32, m, k, n int) {
	checkLens("matmulABTF32", len(a), len(b), len(out), m*k, n*k, m*n)
	runMatMulABT(matMulABTRangeF32, tiles().w32, btSpares32, a, b, out, m, k, n)
}

// WidenInto converts src to float64 element-wise. Exact: every float32
// is representable as a float64.
func WidenInto(dst []float64, src []float32) {
	checkLen("widen dst", len(dst), len(src))
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// WidenAddInto accumulates src into dst element-wise: dst[i] +=
// float64(src[i]). The widening is exact, and the add is the one the
// scalar loop makes, four lanes at a time on SIMD.
func WidenAddInto(dst []float64, src []float32) {
	checkLen("widenadd dst", len(dst), len(src))
	i := simdLen(len(src))
	if i > 0 {
		widenAddF32(&dst[0], &src[0], i)
	}
	for ; i < len(src); i++ {
		dst[i] += float64(src[i])
	}
}

// NarrowInto converts src to float32 element-wise, rounding to nearest
// (ties to even); values outside the float32 range become ±Inf. The
// SIMD conversion rounds under the same MXCSR mode as the scalar one.
func NarrowInto(dst []float32, src []float64) {
	checkLen("narrow dst", len(dst), len(src))
	i := simdLen(len(src))
	if i > 0 {
		narrowF64(&dst[0], &src[0], i)
	}
	for ; i < len(src); i++ {
		dst[i] = float32(src[i])
	}
}
