package tensor

// Kernel dispatch (DESIGN.md §5). On amd64, every full 4-row tile of
// MatMul, MatMulATB and MatMulABT runs on a hand-written SIMD tile
// (simd_amd64.s), the widest of three tiers the CPU and its OS support,
// decided once at start-up:
//
//   - zmm (kernel gen 6): AVX512F with the opmask and ZMM state saved
//     by the OS (XCR0 bits 1, 2 and 5–7): 4×16 in float64, 4×32 in
//     float32;
//   - ymm (kernel gen 3): AVX with YMM state: 4×8 in float64, 4×16 in
//     float32;
//   - strips: no tile, on other architectures and CPUs without AVX.
//
// The generic strips of microkernel.go compute everything else — the
// trailing columns of those rows, the last hi−lo mod 4 rows, and any
// tile that reports a NaN. Every tier reduces each element in ascending
// p with a separately rounded multiply and add, lanes across output
// columns, so the width changes no bit. The MatMul and MatMulATB strips
// skip terms with a == 0; the tile adds them, which can change a result
// only by making it NaN (a zero times ±Inf or NaN), so a NaN tile stores
// nothing and its block is recomputed on the strips. MatMulABT has no
// gate: its tile reads bᵀ (transposed once per call) and a NaN block is
// recomputed on its dense strips. All paths therefore agree bit for bit
// with each other and with the serial references.
//
// Kernel gen 4 adds the element-wise work of the training step
// (DESIGN.md §5 "kernel gen 4"): NarrowInto and WidenAddInto run four
// lanes at a time on the ymm and zmm tiers, each lane repeating the
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

// tier is one rung of the kernel dispatch: the widest tiles this CPU
// and its OS support run (haveTier, decided once at start-up), and the
// narrower rungs stay callable so tests can run them on the same
// machine (export_test.go). No option selects it.
type tier int

const (
	tierStrips tier = iota // the generic strips and scalar loops alone
	tierYMM                // AVX: gen-3 tiles, 4×8 float64 and 4×16 float32
	tierZMM                // AVX-512: gen-6 tiles, 4×16 float64 and 4×32 float32
)

// tileSet is one tier's MatMul tile and its column width per dtype.
// The strips tier has none: its tiles are nil and its widths 0.
type tileSet struct {
	f64 tileFunc[float64]
	w64 int
	f32 tileFunc[float32]
	w32 int
}

var tierTiles = [...]tileSet{
	tierYMM: {tile4x8F64, 8, tile4x16F32, 16},
	tierZMM: {tile4x16F64, 16, tile4x32F32, 32},
}

// liveTier is the tier the kernels run: haveTier, unless a test selects
// a narrower one (export_test.go). The four-lane loops need AVX only,
// so they run on every tier but the strips.
var liveTier = haveTier

// tiles returns the live tier's tiles.
func tiles() *tileSet { return &tierTiles[liveTier] }

// zmmUsable decides the AVX-512 tier from CPUID leaf 7's EBX and XCR0:
// the CPU must report AVX512F (EBX bit 16), and the OS must save the
// XMM and YMM state (XCR0 bits 1 and 2) and the opmask, upper-ZMM and
// high-ZMM state (bits 5–7). A CPU that has AVX512F under an OS that
// does not save that state raises SIGILL on the first zmm instruction.
func zmmUsable(leaf7EBX, xcr0 uint32) bool {
	const avx512f = 1 << 16
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return leaf7EBX&avx512f != 0 && xcr0&zmmState == zmmState
}

// tileFunc is the signature of one SIMD tile: out[r*ldo+c] =
// Σ_{p<k} a[r*aRowStride+p*aPStride] · b[p*bPStride+c] for r < 4 and c
// below the tile width, all strides in elements; with add set the sum
// is added to out[r*ldo+c] instead. It returns false, storing nothing,
// when any sum is NaN.
type tileFunc[T number] func(a *T, aRowStride, aPStride int, b *T, bPStride, k int, out *T, ldo int, add bool) bool

// mmTiled computes out rows [lo,hi) of a product whose tile reads a
// (m×k) and tb (k×n): tile on each full 4-row × w-column block, and the
// generic strips over a and b on the rest and on any block whose tile
// reports a NaN — pair on columns [jlo,jhi) of two rows, panel on whole
// rows. MatMul passes tb = b and its gated strips (mmRowPair, mmPanel);
// MatMulABT passes bᵀ and its dense ones (abtRowPair, abtPanel), so a
// NaN block is recomputed without a zero gate, like ABT's reference. A
// nil tile or tb runs the strips alone. The blank reads check, once per
// row block, that the slices cover everything the tile touches.
func mmTiled[T number](tile tileFunc[T], w int, a, b, tb, out []T, k, n, lo, hi int,
	pair func(a, b, out []T, k, n, i, jlo, jhi int), panel func(a, b, out []T, k, n, lo, hi int)) {
	if tile != nil && tb != nil && k > 0 && n >= w {
		nt := n - n%w
		_ = tb[(k-1)*n+nt-1]
		for ; lo+4 <= hi; lo += 4 {
			_ = a[(lo+4)*k-1]
			_ = out[(lo+3)*n+nt-1]
			for j := 0; j < nt; j += w {
				if !tile(&a[lo*k], k, 1, &tb[j], n, k, &out[lo*n+j], n, false) {
					pair(a, b, out, k, n, lo, j, j+w)
					pair(a, b, out, k, n, lo+2, j, j+w)
				}
			}
			pair(a, b, out, k, n, lo, nt, n)
			pair(a, b, out, k, n, lo+2, nt, n)
		}
	}
	panel(a, b, out, k, n, lo, hi)
}

// atbTiled computes out rows [lo,hi) of aᵀ@b (a is k×m, b is k×n) like
// mmTiled — output row i reads column i of a, so the tile walks a with
// row stride 1 and p stride m — and adds them into out when add is set.
func atbTiled[T number](tile tileFunc[T], w int, a, b, out []T, k, m, n, lo, hi int, add bool) {
	if tile != nil && k > 0 && n >= w {
		nt := n - n%w
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

// btSpares64 and btSpares32 recycle the transposed b of MatMulABT. A
// bounded free list rather than a sync.Pool: a pool may drop its items
// (at every GC, and at random under the race detector), while a
// steady-state product must not allocate. 16 slots cover the backward
// passes a process runs at once (its training goroutines, at most
// GOMAXPROCS on the hosts measured); a call beyond them allocates.
var (
	btSpares64 = make(chan *[]float64, 16)
	btSpares32 = make(chan *[]float32, 16)
)

// maxSpareLen bounds the buffers the free lists keep, in elements: the
// training shapes transpose at most a few thousand, and a larger
// product allocates its own.
const maxSpareLen = 1 << 16

// transposeB returns bᵀ (k×n) for an n×k b, written into a buffer
// from spares, and that buffer for releaseB — or nil, nil when no full
// 4×w tile fits the m-row product (w = 0: no tiles), which then runs on
// the strips alone.
func transposeB[T number](w int, spares chan *[]T, b []T, m, k, n int) ([]T, *[]T) {
	if w == 0 || m < 4 || k == 0 || n < w {
		return nil, nil
	}
	var spare *[]T
	select {
	case spare = <-spares:
	default:
		spare = new([]T)
	}
	bt := Fit(*spare, k*n)
	for j := 0; j < n; j++ {
		for p, v := range b[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	*spare = bt
	return bt, spare
}

// releaseB gives a transposeB buffer back to spares, unless it is nil,
// the list is full or the buffer is larger than the list keeps.
func releaseB[T number](spares chan *[]T, spare *[]T) {
	if spare == nil || cap(*spare) > maxSpareLen {
		return
	}
	select {
	case spares <- spare:
	default:
	}
}

// matMulRangeF32, matMulATBRangeF32 and matMulABTRangeF32 are the
// float32 row-range kernels, the counterparts of matMulRange,
// matMulATBRange and matMulABTRange. The float32 aᵀ@b assigns: its
// gradients widen into a float64 arena (WidenAddInto), so there is no
// float32 accumulator to add into.
func matMulRangeF32(a, b, out []float32, k, n, lo, hi int) {
	t := tiles()
	mmTiled(t.f32, t.w32, a, b, b, out, k, n, lo, hi, mmRowPair[float32], mmPanel[float32])
}

func matMulATBRangeF32(a, b, out []float32, k, m, n, lo, hi int) {
	t := tiles()
	atbTiled(t.f32, t.w32, a, b, out, k, m, n, lo, hi, false)
}

func matMulABTRangeF32(a, b, bt, out []float32, k, n, lo, hi int) {
	t := tiles()
	mmTiled(t.f32, t.w32, a, b, bt, out, k, n, lo, hi, abtRowPair[float32], abtPanel[float32])
}

// simdLen returns how many leading elements of an n-element loop the
// four-lane SIMD routines run: n rounded down to a multiple of 4, or 0
// without SIMD. The scalar loop covers the rest.
func simdLen(n int) int {
	if liveTier < tierYMM {
		return 0
	}
	return n &^ 3
}
