// Float32 kernel entry points. The nn arena's single dtype seam
// (DESIGN.md §6) lets an entire model live in one []float32; these
// slice-based kernels give that path the same register-blocked
// micro-kernels (microkernel.go) and the same shared worker pool as
// the float64 tensor kernels, at half the memory bandwidth.
//
// The API is deliberately slice-first: the f32 arena never materializes
// Tensor views, so the kernels take raw slices plus explicit dims and
// panic on length mismatches (a programmer error in the nn hot path —
// the nn layer validates shapes before calling). Each kernel is
// bit-identical to a scalar float32 reference with the same
// ascending-p accumulation order at any parallelism, exactly like the
// float64 kernels.
package tensor

import "fmt"

func checkLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("tensor: %s operand length %d, want %d", name, got, want))
	}
}

// MatMulF32 computes out = a@b for a of shape (m,k) and b of shape
// (k,n), overwriting out (shape (m,n)). out must not alias a or b.
func MatMulF32(out, a, b []float32, m, k, n int) {
	checkLen("matmulF32 a", len(a), m*k)
	checkLen("matmulF32 b", len(b), k*n)
	checkLen("matmulF32 out", len(out), m*n)
	runMatMul(matMulRangeF32, a, b, out, m, k, n)
}

// MatMulATBF32 computes out = aᵀ@b for a of shape (k,m) and b of shape
// (k,n), overwriting out (shape (m,n)). out must not alias a or b.
func MatMulATBF32(out, a, b []float32, k, m, n int) {
	checkLen("matmulATBF32 a", len(a), k*m)
	checkLen("matmulATBF32 b", len(b), k*n)
	checkLen("matmulATBF32 out", len(out), m*n)
	runMatMulATB(matMulATBRangeF32, a, b, out, k, m, n)
}

// MatMulABTF32 computes out = a@bᵀ for a of shape (m,k) and b of shape
// (n,k), overwriting out (shape (m,n)). out must not alias a or b.
func MatMulABTF32(out, a, b []float32, m, k, n int) {
	checkLen("matmulABTF32 a", len(a), m*k)
	checkLen("matmulABTF32 b", len(b), n*k)
	checkLen("matmulABTF32 out", len(out), m*n)
	runMatMulABT(a, b, out, m, k, n)
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
