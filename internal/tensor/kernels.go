// Kernel layer: parallel, cache-blocked implementations of the matrix
// products behind every forward/backward pass, plus fused element-wise
// helpers that let hot loops reuse buffers instead of allocating per batch.
//
// Design (see DESIGN.md §5):
//
//   - Row-panel tiling + parallelism. The cache tile is a panel of output
//     rows: each row stays L1-resident through all k of its accumulations
//     while b streams contiguously. Each pool task owns a disjoint panel,
//     so workers never write the same element and need no synchronization
//     beyond the completion WaitGroup.
//   - Register-blocked micro-kernels. Inside each panel, all three
//     products run every full 4-row tile on a SIMD tile where the CPU
//     has one, AVX-512 or AVX (simd.go, simd_amd64.s); MatMulABT first
//     transposes b once per call so the MatMul tile can read it. The
//     rest walks 2-row × 4-column output strips with manually unrolled
//     accumulators in locals (microkernel.go), with the scalar row loop
//     as the tail for ragged edges. The slice entries (slices.go), one
//     per product and dtype, are the only way in; float32 has its own,
//     wider tiles.
//   - Fixed accumulation order. Every output element accumulates its k terms
//     in ascending-p order no matter how rows are split across workers, so
//     results are bit-identical to the scalar references (MatMul*Serial) at
//     any parallelism — the property that keeps the engine's
//     content-addressed result cache sound.
//   - Shared worker pool. One pool of GOMAXPROCS goroutines (started on
//     first use) serves every kernel call in the process; fl.Env.Parallelism
//     (set per engine by engine.Options.Parallelism) bounds how many
//     training goroutines feed it, while the pool itself bounds total
//     kernel CPU at GOMAXPROCS.
//   - Serial threshold. Products below serialFlopCutoff multiply-adds run
//     inline: small products cost less than a goroutine handoff.
package tensor

import (
	"runtime"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// serialFlopCutoff is the multiply-add count below which kernels stay
// serial; ~64k madds run in a few microseconds, on the order of the
// cost of dispatching to the pool.
const serialFlopCutoff = 1 << 16

// kernelTask is one row panel handed to the pool.
type kernelTask struct {
	run    func(lo, hi int)
	lo, hi int
	done   *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolSize  int
	poolTasks chan kernelTask
)

// kernelMetrics exposes pool utilization on the process-wide telemetry
// registry (satellite of DESIGN.md §8): whether kernel time is spent on
// pool workers, inline on the caller, or below the serial cutoff tells
// /metrics readers if the pool or the micro-kernel is the bottleneck.
// Registered lazily so tensor-only users never touch the registry.
var kmetrics struct {
	once        sync.Once
	poolTasks   *telemetry.Counter
	inline      *telemetry.Counter
	serialCalls *telemetry.Counter
	callSeconds *telemetry.Histogram
}

func kernelMetrics() {
	kmetrics.once.Do(func() {
		reg := telemetry.Default()
		kmetrics.poolTasks = reg.Counter("kernel_pool_tasks_total",
			"Row panels executed by shared kernel-pool workers.")
		kmetrics.inline = reg.Counter("kernel_inline_panels_total",
			"Row panels executed inline on the submitting goroutine (caller-owned final chunk plus saturated-pool fallbacks).")
		kmetrics.serialCalls = reg.Counter("kernel_serial_calls_total",
			"Kernel dispatches that ran fully serial below the work cutoff.")
		kmetrics.callSeconds = reg.Histogram("kernel_call_seconds",
			"Wall time per matrix-kernel dispatch.",
			[]float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1})
	})
}

// pool starts the shared worker pool on first use, sized by GOMAXPROCS at
// that moment, and returns its task channel.
func pool() chan kernelTask {
	poolOnce.Do(func() {
		kernelMetrics()
		poolSize = runtime.GOMAXPROCS(0)
		poolTasks = make(chan kernelTask, 4*poolSize)
		for w := 0; w < poolSize; w++ {
			go func() {
				for t := range poolTasks {
					t.run(t.lo, t.hi)
					t.done.Done()
					kmetrics.poolTasks.Inc()
				}
			}()
		}
	})
	return poolTasks
}

// parallelRows splits [0,rows) into one contiguous chunk per worker and
// runs body on each. The caller always executes the final chunk itself,
// and submission never blocks: when the pool is saturated (other kernel
// calls in flight) the chunk runs inline on the caller, so progress is
// guaranteed and nested deadlock is impossible. Row ownership is disjoint,
// so body invocations are data-race free by construction.
func parallelRows(rows int, body func(lo, hi int)) {
	ch := pool()
	tasks := poolSize
	if tasks > rows {
		tasks = rows
	}
	if tasks <= 1 {
		body(0, rows)
		kmetrics.inline.Inc()
		return
	}
	chunk := (rows + tasks - 1) / tasks
	var wg sync.WaitGroup
	lo := 0
	for lo+chunk < rows {
		t := kernelTask{run: body, lo: lo, hi: lo + chunk, done: &wg}
		wg.Add(1)
		select {
		case ch <- t:
		default:
			body(t.lo, t.hi)
			wg.Done()
			kmetrics.inline.Inc()
		}
		lo += chunk
	}
	body(lo, rows)
	kmetrics.inline.Inc()
	wg.Wait()
}

// --- row-panel range kernels ---
//
// Each computes output rows [lo,hi) only — the panel is the cache tile,
// and inside the panel the SIMD tiles of simd.go and the
// register-blocked micro-kernels in microkernel.go walk the output
// (gen-1's scalar row loops survive as the strip tails). Gen-1
// benchmarked scalar k-/n-axis cache tiling and rejected it; gen-2's
// *register* tiling is a different trade — it amortizes each a/b load
// over up to 4 multiply-adds and reuses each b load across two rows —
// and wins at every measured shape (see DESIGN.md §5 for numbers and
// the tile shapes that were measured and rejected). The panel scheme still makes every
// output element accumulate its p terms in ascending order no matter
// how rows are split across workers, so results are bit-identical to
// the serial reference at any parallelism — the property that keeps
// the engine's content-addressed result cache sound.

// matMulRange: out[i,j] = Σ_p a[i,p]·b[p,j] for i in [lo,hi).
// Assigns every cell, so out need not be zeroed. Skips a-zeros like
// the serial reference.
func matMulRange(a, b, out []float64, k, n, lo, hi int) {
	t := tiles()
	mmTiled(t.f64, t.w64, a, b, b, out, k, n, lo, hi, mmRowPair[float64], mmPanel[float64])
}

// matMulATBRange: out[i,j] += Σ_p a[p,i]·b[p,j] (a is k×m) for i in
// [lo,hi). It accumulates, so callers that want assignment zero out
// first: the gated sum starts at +0 and is never −0, so 0 + acc = acc
// in every bit.
func matMulATBRange(a, b, out []float64, k, m, n, lo, hi int) {
	t := tiles()
	atbTiled(t.f64, t.w64, a, b, out, k, m, n, lo, hi, true)
}

// matMulABTRange: out[i,j] = Σ_p a[i,p]·b[j,p] (b is n×k) for i in
// [lo,hi), on the MatMul tile over bt, b transposed (k×n), when bt is
// non-nil, and on the dense strips alone otherwise. Assigns every cell,
// so out need not be zeroed.
func matMulABTRange(a, b, bt, out []float64, k, n, lo, hi int) {
	t := tiles()
	mmTiled(t.f64, t.w64, a, b, bt, out, k, n, lo, hi, abtRowPair[float64], abtPanel[float64])
}

// kernelStart/kernelDone bracket one kernel dispatch for telemetry.
// They are split (rather than one dispatch function taking a closure)
// so the serial path can call its panel directly: a closure that is
// ever passed to parallelRows escapes to the heap on every call, which
// would cost the below-cutoff hot path its allocation-freeness.
func kernelStart() time.Time {
	kernelMetrics()
	return time.Now()
}

func kernelDone(start time.Time, serial bool) {
	if serial {
		kmetrics.serialCalls.Inc()
	}
	kmetrics.callSeconds.Observe(time.Since(start).Seconds())
}

// dispatch runs body over [0,rows) across the pool and records per-call
// telemetry. Callers below serialFlopCutoff run their panel inline
// instead of building a closure (see kernelStart).
func dispatch(rows int, body func(lo, hi int)) {
	start := kernelStart()
	parallelRows(rows, body)
	kernelDone(start, false)
}

// runMatMul/runMatMulATB/runMatMulABT execute one blocked kernel over
// its full row range — serially below the work cutoff (panel called
// directly, allocation-free), across the pool above it. Generic over
// the dtype seam, so the slice entries of both dtypes share them; each
// passes its dtype's row-range kernel, which picks that dtype's live
// SIMD tile.

func runMatMul[T number](panel func(a, b, out []T, k, n, lo, hi int), a, b, out []T, m, k, n int) {
	if m*k*n < serialFlopCutoff {
		start := kernelStart()
		panel(a, b, out, k, n, 0, m)
		kernelDone(start, true)
		return
	}
	dispatch(m, func(lo, hi int) { panel(a, b, out, k, n, lo, hi) })
}

func runMatMulATB[T number](panel func(a, b, out []T, k, m, n, lo, hi int), a, b, out []T, k, m, n int) {
	if m*k*n < serialFlopCutoff {
		start := kernelStart()
		panel(a, b, out, k, m, n, 0, m)
		kernelDone(start, true)
		return
	}
	dispatch(m, func(lo, hi int) { panel(a, b, out, k, m, n, lo, hi) })
}

// runMatMulABT also takes the live tile width w (0 without tiles) and
// its dtype's free list: when a full 4×w tile fits, it transposes b
// once for the whole call, so every panel's tile reads bᵀ.
func runMatMulABT[T number](panel func(a, b, bt, out []T, k, n, lo, hi int), w int, spares chan *[]T, a, b, out []T, m, k, n int) {
	bt, spare := transposeB(w, spares, b, m, k, n)
	defer releaseB(spares, spare)
	if m*k*n < serialFlopCutoff {
		start := kernelStart()
		panel(a, b, bt, out, k, n, 0, m)
		kernelDone(start, true)
		return
	}
	dispatch(m, func(lo, hi int) { panel(a, b, bt, out, k, n, lo, hi) })
}

// --- scalar references ---
//
// The naive loops, one per product, generic over the dtype seam: the
// ground truth the blocked kernels of both dtypes are tested bit-identical
// against, and benchmarked against (BenchmarkMatMul256*). Each takes the
// slice signature of its product's entries and overwrites out, every
// element summed from +0 in ascending-p order.

// MatMulSerial is the reference for MatMulF64 and MatMulF32: out = a@b.
func MatMulSerial[T number](out, a, b []T, m, k, n int) {
	checkLens("matmulSerial", len(a), len(b), len(out), m*k, k*n, m*n)
	clear(out)
	for i := 0; i < m; i++ {
		oi := out[i*n : (i+1)*n]
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			for j, bv := range b[p*n : (p+1)*n] {
				oi[j] += av * bv
			}
		}
	}
}

// MatMulATBSerial is the reference for MatMulATBF32 and, added into
// out, MatMulATBAddF64: out = aᵀ@b.
func MatMulATBSerial[T number](out, a, b []T, k, m, n int) {
	checkLens("matmulATBSerial", len(a), len(b), len(out), k*m, k*n, m*n)
	clear(out)
	for p := 0; p < k; p++ {
		bp := b[p*n : (p+1)*n]
		for i, av := range a[p*m : (p+1)*m] {
			if av == 0 {
				continue
			}
			oi := out[i*n : (i+1)*n]
			for j, bv := range bp {
				oi[j] += av * bv
			}
		}
	}
}

// MatMulABTSerial is the reference for MatMulABTF64 and MatMulABTF32:
// out = a@bᵀ.
func MatMulABTSerial[T number](out, a, b []T, m, k, n int) {
	checkLens("matmulABTSerial", len(a), len(b), len(out), m*k, n*k, m*n)
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s T
			for p, bv := range b[j*k : (j+1)*k] {
				s += ai[p] * bv
			}
			out[i*n+j] = s
		}
	}
}

// --- fused element-wise helpers ---

// SGDStep holds the constants of one momentum-SGD update (Apply).
type SGDStep struct {
	Momentum, LR, WeightDecay float64
	// GradScale multiplies every gradient before the update: a clip
	// factor, or 1.
	GradScale float64
	// FromRest reads the velocity as +0 instead of loading it, so a
	// recycled velocity buffer needs no zeroing pass before the first
	// step.
	FromRest bool
}

// Apply runs one momentum-SGD update as a single sweep over the arena:
//
//	v = momentum·vel − lr·(grad·GradScale + wd·src);  param = src + v
//
// and then vel = v, grad = +0 (cleared for the next batch) and, when
// shadow is non-nil, shadow = float32(param). src nil means param, an
// update in place; otherwise src is only read, so the first step of a
// local pass can read the global model and write a recycled arena.
// Every operation is rounded separately, in the order of the two-pass
// form (scale the gradient, then step), so the result is bit-identical
// to it; four lanes at a time on SIMD (simd.go), the scalar loop
// keeping the tail. src, vel, grad and shadow (when non-nil) must have
// param's length.
func (s SGDStep) Apply(param, src, vel, grad []float64, shadow []float32) {
	n := len(param)
	if src == nil {
		src = param
	}
	checkLen("sgd src", len(src), n)
	checkLen("sgd vel", len(vel), n)
	checkLen("sgd grad", len(grad), n)
	if shadow != nil {
		checkLen("sgd shadow", len(shadow), n)
	}
	j := simdLen(n)
	if j > 0 {
		var sh *float32
		if shadow != nil {
			sh = &shadow[0]
		}
		sgdStepF64(&param[0], &src[0], &vel[0], &grad[0], sh, j, s.Momentum, s.LR, s.WeightDecay, s.GradScale, s.FromRest)
	}
	for ; j < n; j++ {
		v := 0.0
		if !s.FromRest {
			v = vel[j]
		}
		// The conversions forbid fusing a multiply into the next add.
		g := float64(grad[j] * s.GradScale)
		v = float64(s.Momentum*v) - float64(s.LR*float64(g+float64(s.WeightDecay*src[j])))
		vel[j] = v
		param[j] = src[j] + v
		grad[j] = 0
		if shadow != nil {
			shadow[j] = float32(param[j])
		}
	}
}

// AffineInto writes (src[i] − shift)·scale into dst[i], the subtract
// and the multiply rounded separately; four lanes at a time on SIMD.
// dst may alias src and must be at least as long.
func AffineInto(dst, src []float64, shift, scale float64) {
	dst = dst[:len(src)]
	j := simdLen(len(src))
	if j > 0 {
		affineF64(&dst[0], &src[0], j, shift, scale)
	}
	for ; j < len(src); j++ {
		dst[j] = float64(src[j]-shift) * scale
	}
}

// WeightedSumInto writes Σ_k ws[k]·srcs[k][i] into dst[i], each element
// summed from +0 in k order with a separately rounded multiply and add
// per term: the bits of zeroing dst and then running one axpy pass
// (Tensor.AddScaled) per input, in one sweep. Four lanes at a time on
// SIMD. Every srcs[k] must have dst's length, and ws must have one
// weight per input; no input may alias dst.
func WeightedSumInto(dst []float64, srcs [][]float64, ws []float64) {
	checkLen("weighted-sum weights", len(ws), len(srcs))
	for _, s := range srcs {
		checkLen("weighted-sum input", len(s), len(dst))
	}
	j := simdLen(len(dst))
	if j > 0 {
		var s0 *[]float64
		var w0 *float64
		if len(srcs) > 0 {
			s0, w0 = &srcs[0], &ws[0]
		}
		weightedSumF64(&dst[0], s0, w0, len(srcs), j)
	}
	for ; j < len(dst); j++ {
		acc := 0.0
		for k, s := range srcs {
			acc += float64(ws[k] * s[j])
		}
		dst[j] = acc
	}
}

// Conv3x3AddInto adds one 3×3 convolution of a zero-padded plane into
// dst. src is the plane at row stride `stride`; lane p of dst receives
//
//	s = +0 + k[0]·src[p] + k[1]·src[p+1] + k[2]·src[p+2]
//	       + k[3]·src[p+stride] + … + k[8]·src[p+2·stride+2]
//
// summed in that order, then dst[p] += s. Lanes run along the padded
// rows, so the two lanes per row that straddle the pad columns compute
// values the caller drops. src must hold len(dst)+2·stride+2 values.
// Four lanes at a time on SIMD (simd.go), each multiply and add rounded
// separately as in the scalar loop, so the result is bit-identical on
// either path.
func Conv3x3AddInto(dst, src []float64, stride int, k *[9]float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	checkLen("conv3x3 src", len(src), n+2*stride+2)
	j := simdLen(n)
	if j > 0 {
		conv3x3AddF64(&dst[0], &src[0], j, stride, k)
	}
	src = src[:n+2*stride+2]
	r0, r1, r2 := src, src[stride:], src[2*stride:]
	for ; j < n; j++ {
		s := 0.0
		s += k[0] * r0[j]
		s += k[1] * r0[j+1]
		s += k[2] * r0[j+2]
		s += k[3] * r1[j]
		s += k[4] * r1[j+1]
		s += k[5] * r1[j+2]
		s += k[6] * r2[j]
		s += k[7] * r2[j+1]
		s += k[8] * r2[j+2]
		dst[j] += s
	}
}
