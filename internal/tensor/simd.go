package tensor

// Kernel gen 3 dispatch (DESIGN.md §5). On amd64 CPUs with AVX, every
// full 4-row tile of MatMul and MatMulATB runs on a hand-written SIMD
// tile (simd_amd64.s): 4×8 in float64, 4×16 in float32. The generic
// strips of microkernel.go compute everything else — the trailing
// columns of those rows, the last hi−lo mod 4 rows, every row on other
// architectures or CPUs without AVX, and any tile that reports a NaN.
// Both paths reduce each element in ascending p with a separately
// rounded multiply and add. The strips skip terms with a == 0; the tile
// adds them, which can change a result only by making it NaN (a zero
// times ±Inf or NaN), so a NaN tile stores nothing and its block is
// recomputed on the strips. Both therefore agree bit for bit with each
// other and with the serial references.
//
// Kernel gen 4 adds the element-wise work of the training step
// (DESIGN.md §5 "kernel gen 4"): NarrowInto and WidenAddInto run four
// lanes at a time through the same AVX check, each lane repeating the
// scalar loop's separately rounded operations, and the scalar loop
// keeps the tail. MatMulATB's float64 path accumulates (out += acc) in
// the tile epilogue and the strips alike, so weight gradients land in
// their accumulator without a scratch pass.
//
// Kernel gen 5 (DESIGN.md §5 "kernel gen 5") makes each SGD step one
// sweep over the parameter arena (SGDStep.Apply: read a source arena or
// the parameters, the velocity or +0, and the gradient times a clip
// factor; write parameters, velocity, a cleared gradient and the
// float32 shadow), and adds the input standardization (AffineInto) and
// the K-input weighted sum of aggregation (WeightedSumInto) on the same
// four-lane pattern.
//
// The frozen encoder's Conv3x3AddInto runs four lanes of a padded plane
// at a time the same way (DESIGN.md §5 "The encoder conv on SIMD").

// useSIMD selects the SIMD tiles and loops. It starts as haveSIMD (the
// CPU check, made once at start-up); tests flip it to run the generic
// path on the same machine (export_test.go).
var useSIMD = haveSIMD

// tileFunc is the signature of one SIMD tile: out[r*ldo+c] =
// Σ_{p<k} a[r*aRowStride+p*aPStride] · b[p*bPStride+c] for r < 4 and c
// below the tile width, all strides in elements; with add set the sum
// is added to out[r*ldo+c] instead. It returns false, storing nothing,
// when any sum is NaN.
type tileFunc[T number] func(a *T, aRowStride, aPStride int, b *T, bPStride, k int, out *T, ldo int, add bool) bool

// mmTiled computes out rows [lo,hi) of a@b (a is m×k, b is k×n):
// tile on each full 4-row × w-column block, the generic strips on the
// rest and on any block whose tile reports a NaN. The blank reads
// check, once per row block, that the slices cover everything the tile
// touches.
func mmTiled[T number](tile tileFunc[T], w int, a, b, out []T, k, n, lo, hi int) {
	if nt := n - n%w; useSIMD && k > 0 && nt > 0 {
		_ = b[(k-1)*n+nt-1]
		for ; lo+4 <= hi; lo += 4 {
			_ = a[(lo+4)*k-1]
			_ = out[(lo+3)*n+nt-1]
			for j := 0; j < nt; j += w {
				if !tile(&a[lo*k], k, 1, &b[j], n, k, &out[lo*n+j], n, false) {
					mmRowPair(a, b, out, k, n, lo, j, j+w)
					mmRowPair(a, b, out, k, n, lo+2, j, j+w)
				}
			}
			mmRowPair(a, b, out, k, n, lo, nt, n)
			mmRowPair(a, b, out, k, n, lo+2, nt, n)
		}
	}
	mmPanel(a, b, out, k, n, lo, hi)
}

// atbTiled computes out rows [lo,hi) of aᵀ@b (a is k×m, b is k×n) like
// mmTiled — output row i reads column i of a, so the tile walks a with
// row stride 1 and p stride m — and adds them into out when add is set.
func atbTiled[T number](tile tileFunc[T], w int, a, b, out []T, k, m, n, lo, hi int, add bool) {
	if nt := n - n%w; useSIMD && k > 0 && nt > 0 {
		_ = b[(k-1)*n+nt-1]
		for ; lo+4 <= hi; lo += 4 {
			_ = a[(k-1)*m+lo+3]
			_ = out[(lo+3)*n+nt-1]
			for j := 0; j < nt; j += w {
				if !tile(&a[lo], 1, m, &b[j], n, k, &out[lo*n+j], n, add) {
					atbRowPair(a, b, out, k, m, n, lo, j, j+w, add)
					atbRowPair(a, b, out, k, m, n, lo+2, j, j+w, add)
				}
			}
			atbRowPair(a, b, out, k, m, n, lo, nt, n, add)
			atbRowPair(a, b, out, k, m, n, lo+2, nt, n, add)
		}
	}
	atbPanel(a, b, out, k, m, n, lo, hi, add)
}

// matMulRangeF32 and matMulATBRangeF32 are the float32 row-range
// kernels, the counterparts of matMulRange and matMulATBRange. The
// float32 aᵀ@b assigns: its gradients widen into a float64 arena
// (WidenAddInto), so there is no float32 accumulator to add into.
func matMulRangeF32(a, b, out []float32, k, n, lo, hi int) {
	mmTiled(tile4x16F32, 16, a, b, out, k, n, lo, hi)
}

func matMulATBRangeF32(a, b, out []float32, k, m, n, lo, hi int) {
	atbTiled(tile4x16F32, 16, a, b, out, k, m, n, lo, hi, false)
}

// simdLen returns how many leading elements of an n-element loop the
// four-lane SIMD routines run: n rounded down to a multiple of 4, or 0
// without SIMD. The scalar loop covers the rest.
func simdLen(n int) int {
	if !useSIMD {
		return 0
	}
	return n &^ 3
}
