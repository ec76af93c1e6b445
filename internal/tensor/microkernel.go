// Micro-kernel layer: register-blocked inner loops shared by the
// float64 kernels (kernels.go) and the float32 ones (simd.go), behind
// the slice entries (slices.go). The panel entry points
// (mmPanel/atbPanel/abtPanel) compute a contiguous range of output
// rows — the unit the worker pool hands out — by walking the output in
// 2-row × 4-column register strips whose accumulators live in named
// locals, so each a/b element loaded from memory feeds up to 4
// multiply-adds instead of one and each b element is reused across
// both rows.
//
// Why 2×4 in Go: the compiler keeps every accumulator in its own
// scalar register (it does not vectorize), and a 2×4 strip's 8
// accumulators + 4 b values + 2 a values fit amd64's 16 of them with
// room for the loop state. Wider Go tiles (4×4, 2×8, 4×8, 8×8) spill
// accumulators to the stack every iteration and benchmark at or below
// the scalar row kernel (numbers in DESIGN.md §5). The wide tiles live
// in assembly instead (simd_amd64.s, DESIGN.md §5 "kernel gen 3" and
// "kernel gen 6"), where one vector register holds 4 or 8 f64, or 8 or
// 16 f32, accumulators: simd.go runs them on every full 4-row tile of
// the three products, and these generic strips keep the ragged rows and
// columns, the blocks of any tile that reports a NaN, and every product
// on other architectures or CPUs without AVX.
// The float64 aᵀ@b adds into its output (out += acc) in both places,
// so Backward accumulates weight gradients in place.
//
// Two invariants carry over from the scalar kernels (DESIGN.md §5):
//
//   - Per-element accumulation order is ascending p, always. Strips
//     reorder the (i,j) walk, never the reduction, so the blocked
//     kernels are bit-identical to the serial references in float64
//     at any parallelism — including signed zeros: under
//     round-to-nearest a sum can only be −0 when both operands are
//     −0, and the gate discards ±0 a-elements, so a register
//     accumulator that starts at +0 is never −0 and assigning it
//     equals accumulating it into a zeroed element, bit for bit.
//     Assignment in turn lets every panel make one write-only pass
//     over its output rows — no zeroing pass, no read-modify-write.
//     The float64 aᵀ@b is the exception: it adds into its output, the
//     same one add a separate out += product pass would make.
//   - Zero skipping is per a-element, exactly like the references:
//     MatMul/MatMulATB gate each strip row on `a != 0` so a zero
//     contributes no term (which matters when b holds NaN/Inf), while
//     ABT is a dense dot product with no gate, also like its reference.
//
// The same generic bodies instantiate for float32; the f32 results are
// likewise bit-identical to a scalar float32 reference (same order,
// same rounding), and differ from float64 only by the documented
// rounding tolerance.
package tensor

// number is the dtype seam: every micro-kernel is written once against
// this constraint and stenciled for float32 and float64.
type number interface{ ~float32 | ~float64 }

// --- MatMul: out[i,j] = Σ_p a[i,p]·b[p,j], a is m×k, b is k×n ---

// mmPanel computes out rows [lo,hi) of a@b. Every element is assigned
// exactly once from a register accumulator, so out need not be zeroed
// and the kernel makes a single write-only pass over its panel.
// Assignment is bitwise identical to zero-then-accumulate: a gated
// ascending-p sum that starts at +0 can never round to −0, so
// out[j] = c equals out[j] = 0 + c in every bit.
func mmPanel[T number](a, b, out []T, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		mmRowPair(a, b, out, k, n, i, 0, n)
	}
	if i < hi {
		mmRowTail(a[i*k:(i+1)*k], b, out[i*n:(i+1)*n], n, 0, n)
	}
}

// mmRowPair computes output columns [jlo,jhi) of rows i and i+1: 2×4
// strips, then the 1×4 and single-column tails of each row.
func mmRowPair[T number](a, b, out []T, k, n, i, jlo, jhi int) {
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	o0 := out[(i+0)*n : (i+1)*n]
	o1 := out[(i+1)*n : (i+2)*n]
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		mm2x4(a0, a1, b, o0, o1, n, j)
	}
	if j < jhi {
		mmRowTail(a0, b, o0, n, j, jhi)
		mmRowTail(a1, b, o1, n, j, jhi)
	}
}

// mm2x4 accumulates the 2×4 output strip at rows a0,a1, columns j..j+3.
func mm2x4[T number](a0, a1, b, o0, o1 []T, n, j int) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	for p := 0; p < len(a0); p++ {
		bp := b[p*n+j : p*n+j+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		if v := a0[p]; v != 0 {
			c00 += v * b0
			c01 += v * b1
			c02 += v * b2
			c03 += v * b3
		}
		if v := a1[p]; v != 0 {
			c10 += v * b0
			c11 += v * b1
			c12 += v * b2
			c13 += v * b3
		}
	}
	o0[j+0] = c00
	o0[j+1] = c01
	o0[j+2] = c02
	o0[j+3] = c03
	o1[j+0] = c10
	o1[j+1] = c11
	o1[j+2] = c12
	o1[j+3] = c13
}

// mmRowTail computes output columns [jlo,jhi) of one row: 1×4
// register strips while four columns remain, then one accumulator per
// trailing column. Every element still reduces in ascending-p order
// gated on the a element — the reference order — and is assigned once.
func mmRowTail[T number](ai, b, oi []T, n, jlo, jhi int) {
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		var c0, c1, c2, c3 T
		for p := 0; p < len(ai); p++ {
			if v := ai[p]; v != 0 {
				bp := b[p*n+j : p*n+j+4]
				c0 += v * bp[0]
				c1 += v * bp[1]
				c2 += v * bp[2]
				c3 += v * bp[3]
			}
		}
		oi[j+0] = c0
		oi[j+1] = c1
		oi[j+2] = c2
		oi[j+3] = c3
	}
	for ; j < jhi; j++ {
		var c T
		for p := 0; p < len(ai); p++ {
			if av := ai[p]; av != 0 {
				c += av * b[p*n+j]
			}
		}
		oi[j] = c
	}
}

// --- MatMulATB: out[i,j] (+)= Σ_p a[p,i]·b[p,j], a is k×m, b is k×n ---
//
// The aᵀ@b walk takes an add flag: with add set, each register
// accumulator is added to the element already in out (out += acc, the
// float64 weight-gradient path); without it, the element is assigned
// as in mmPanel. Either way the element is written once, from a sum
// reduced in ascending p.

// atbPanel computes out rows [lo,hi) of aᵀ@b, assigning or adding each
// element once from a register accumulator. Output row i reads column
// i of a; the 2-row strip loads the adjacent pair a[p,i], a[p,i+1] with
// one contiguous slice per p.
func atbPanel[T number](a, b, out []T, k, m, n, lo, hi int, add bool) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		atbRowPair(a, b, out, k, m, n, i, 0, n, add)
	}
	if i < hi {
		atbRowTail(a, b, out[i*n:(i+1)*n], k, m, n, i, add)
	}
}

// atbRowPair computes output columns [jlo,jhi) of rows i and i+1: 2×4
// strips, then one accumulator pair per trailing column.
func atbRowPair[T number](a, b, out []T, k, m, n, i, jlo, jhi int, add bool) {
	o0 := out[(i+0)*n : (i+1)*n]
	o1 := out[(i+1)*n : (i+2)*n]
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		atb2x4(a, b, o0, o1, k, m, n, i, j, add)
	}
	if j < jhi {
		atbColTail(a, b, o0, o1, k, m, n, i, j, jhi, add)
	}
}

// atbRowTail computes the full output row i: 1×4 register strips, then
// one accumulator per trailing column.
func atbRowTail[T number](a, b, oi []T, k, m, n, i int, add bool) {
	j := 0
	for ; j+4 <= n; j += 4 {
		var c0, c1, c2, c3 T
		for p := 0; p < k; p++ {
			if v := a[p*m+i]; v != 0 {
				bp := b[p*n+j : p*n+j+4]
				c0 += v * bp[0]
				c1 += v * bp[1]
				c2 += v * bp[2]
				c3 += v * bp[3]
			}
		}
		store4(oi[j:j+4], c0, c1, c2, c3, add)
	}
	for ; j < n; j++ {
		var c T
		for p := 0; p < k; p++ {
			if v := a[p*m+i]; v != 0 {
				c += v * b[p*n+j]
			}
		}
		store1(&oi[j], c, add)
	}
}

// atb2x4 accumulates the 2×4 output strip at rows i,i+1, columns j..j+3.
func atb2x4[T number](a, b, o0, o1 []T, k, m, n, i, j int, add bool) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	for p := 0; p < k; p++ {
		ap := a[p*m+i : p*m+i+2]
		bp := b[p*n+j : p*n+j+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		if v := ap[0]; v != 0 {
			c00 += v * b0
			c01 += v * b1
			c02 += v * b2
			c03 += v * b3
		}
		if v := ap[1]; v != 0 {
			c10 += v * b0
			c11 += v * b1
			c12 += v * b2
			c13 += v * b3
		}
	}
	store4(o0[j:j+4], c00, c01, c02, c03, add)
	store4(o1[j:j+4], c10, c11, c12, c13, add)
}

// atbColTail handles the ≤3 trailing output columns [jlo,jhi) for the
// row pair i,i+1, one accumulator pair per column (ascending p, gated
// per a element).
func atbColTail[T number](a, b, o0, o1 []T, k, m, n, i, jlo, jhi int, add bool) {
	for j := jlo; j < jhi; j++ {
		var c0, c1 T
		for p := 0; p < k; p++ {
			ap := a[p*m+i : p*m+i+2]
			bv := b[p*n+j]
			if v := ap[0]; v != 0 {
				c0 += v * bv
			}
			if v := ap[1]; v != 0 {
				c1 += v * bv
			}
		}
		store1(&o0[j], c0, add)
		store1(&o1[j], c1, add)
	}
}

// store4 writes four accumulators to o[0:4], adding them to the
// elements there when add is set.
func store4[T number](o []T, c0, c1, c2, c3 T, add bool) {
	o = o[:4]
	if add {
		o[0] += c0
		o[1] += c1
		o[2] += c2
		o[3] += c3
		return
	}
	o[0] = c0
	o[1] = c1
	o[2] = c2
	o[3] = c3
}

// store1 is store4 for one element.
func store1[T number](o *T, c T, add bool) {
	if add {
		*o += c
		return
	}
	*o = c
}

// --- MatMulABT: out[i,j] = Σ_p a[i,p]·b[j,p], a is m×k, b is n×k ---

// abtPanel computes out rows [lo,hi) of a@bᵀ. Dense dot products with
// direct assignment: out need not be zeroed.
func abtPanel[T number](a, b, out []T, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		abtRowPair(a, b, out, k, n, i, 0, n)
	}
	if i < hi {
		abtRowTail(a[i*k:(i+1)*k], b, out[i*n:(i+1)*n], k)
	}
}

// abtRowPair computes output columns [jlo,jhi) of rows i and i+1: 2×4
// strips, then one accumulator pair per trailing column.
func abtRowPair[T number](a, b, out []T, k, n, i, jlo, jhi int) {
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	o0 := out[(i+0)*n : (i+1)*n]
	o1 := out[(i+1)*n : (i+2)*n]
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		abt2x4(a0, a1,
			b[(j+0)*k:(j+1)*k], b[(j+1)*k:(j+2)*k],
			b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k],
			o0, o1, j)
	}
	for ; j < jhi; j++ {
		bj := b[j*k : (j+1)*k]
		var c0, c1 T
		for p := 0; p < len(bj); p++ {
			c0 += a0[p] * bj[p]
			c1 += a1[p] * bj[p]
		}
		o0[j] = c0
		o1[j] = c1
	}
}

// abtRowTail computes one output row, one accumulator per column.
func abtRowTail[T number](ai, b, oi []T, k int) {
	for j := range oi {
		bj := b[j*k : (j+1)*k]
		var c T
		for p := 0; p < len(bj); p++ {
			c += ai[p] * bj[p]
		}
		oi[j] = c
	}
}

// abt2x4 computes the dense 2×4 dot-product strip at columns j..j+3.
func abt2x4[T number](a0, a1, b0, b1, b2, b3, o0, o1 []T, j int) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	for p := 0; p < len(a0); p++ {
		av0, av1 := a0[p], a1[p]
		bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
		c00 += av0 * bv0
		c01 += av0 * bv1
		c02 += av0 * bv2
		c03 += av0 * bv3
		c10 += av1 * bv0
		c11 += av1 * bv1
		c12 += av1 * bv2
		c13 += av1 * bv3
	}
	o0[j+0] = c00
	o0[j+1] = c01
	o0[j+2] = c02
	o0[j+3] = c03
	o1[j+0] = c10
	o1[j+1] = c11
	o1[j+2] = c12
	o1[j+3] = c13
}
