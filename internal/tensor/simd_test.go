package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Property tests of the kernel gen 4 SIMD routines: each is run on the
// SIMD path (where the CPU has it) and on the scalar path, at every
// length 0–67 — so every 4-lane body is followed by every tail length —
// and compared bit for bit with the scalar loop it replaces, on inputs
// sprinkled with NaN, ±Inf, −0, subnormal and near-overflow values.

// maxPropLen is the largest length the property tests try.
const maxPropLen = 67

// edge64 are the float64 inputs the SIMD lanes must treat exactly like
// the scalar loop; the last two overflow a multiply or a narrowing.
var edge64 = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -2.5e-310, 1e-40, -3e-45, math.MaxFloat64 / 2, -math.MaxFloat64, 4e38}

// edgeSlice returns n values, about a third of them drawn from edge64
// and the rest normal samples of spread scale.
func edgeSlice(r *rand.Rand, n int, scale float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if r.Intn(3) == 0 {
			s[i] = edge64[r.Intn(len(edge64))]
		} else {
			s[i] = r.NormFloat64() * scale
		}
	}
	return s
}

// bothPaths runs f once with the SIMD routines (where the CPU has them)
// and once on the scalar loops.
func bothPaths(t *testing.T, f func(t *testing.T, simd bool)) {
	for _, simd := range []bool{true, false} {
		if simd && !tensor.HaveSIMD {
			continue
		}
		restore := tensor.SetSIMD(simd)
		f(t, simd)
		restore()
	}
}

// eachTier runs f on every kernel tier this CPU has, widest first and
// the generic strips last, and names the tier of a failure.
func eachTier(t *testing.T, f func(t *testing.T, tier tensor.Tier)) {
	for _, tier := range tensor.Tiers() {
		func() {
			defer tensor.SetTier(tier)()
			defer func() {
				if t.Failed() {
					t.Logf("on kernel tier %v", tier)
				}
			}()
			f(t, tier)
		}()
	}
}

// momentumHypers are the (momentum, lr, wd) triples of the step tests;
// the last overflows the update.
var momentumHypers = [][3]float64{{0.9, 0.05, 5e-4}, {0, 1, 0}, {0.5, math.MaxFloat64 / 4, 2}}

// TestMomentumStepMatchesScalarLoop pins the in-place update (no source
// arena, velocity loaded, gradient multiplier 1, no shadow) to the
// historical scalar loop, and checks the sweep clears the gradient.
func TestMomentumStepMatchesScalarLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 0; n <= maxPropLen; n++ {
			for _, h := range momentumHypers {
				mom, lr, wd := h[0], h[1], h[2]
				p, v, g := edgeSlice(r, n, 1), edgeSlice(r, n, 0.1), edgeSlice(r, n, 10)
				wantP := append([]float64(nil), p...)
				wantV := append([]float64(nil), v...)
				for j := range wantP {
					wantV[j] = mom*wantV[j] - lr*(g[j]+wd*wantP[j])
					wantP[j] += wantV[j]
				}
				tensor.SGDStep{Momentum: mom, LR: lr, WeightDecay: wd, GradScale: 1}.Apply(p, nil, v, g, nil)
				bitsEqual(t, "momentum vel", v, wantV)
				bitsEqual(t, "momentum param", p, wantP)
				bitsEqual(t, "momentum grad", g, make([]float64, n))
			}
		}
	})
}

// TestSGDStepFusedFormsMatchTwoPasses covers every form of the fused
// sweep against the passes it replaces: the gradient scaled in its own
// pass (the clip), the source arena copied into param first (the
// clone), a velocity of +0 for FromRest (the zeroed buffer), the
// historical step, the gradient zeroed, and the shadow narrowed by
// NarrowInto. Destinations start dirty, so every element must be
// written.
func TestSGDStepFusedFormsMatchTwoPasses(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 0; n <= maxPropLen; n++ {
			for _, h := range momentumHypers {
				for _, scale := range []float64{1, 0.37, 5e-324, math.Inf(1)} {
					for form := 0; form < 8; form++ {
						fromSrc, rest, shadowed := form&1 != 0, form&2 != 0, form&4 != 0
						name := fmt.Sprintf("n=%d hyper=%v scale=%g src=%v rest=%v shadow=%v simd=%v", n, h, scale, fromSrc, rest, shadowed, simd)
						step := tensor.SGDStep{Momentum: h[0], LR: h[1], WeightDecay: h[2], GradScale: scale, FromRest: rest}
						src, vel, grad := edgeSlice(r, n, 1), edgeSlice(r, n, 0.1), edgeSlice(r, n, 10)
						param := src
						if fromSrc {
							param = edgeSlice(r, n, 3)
						}
						srcBefore := append([]float64(nil), src...)

						wantP := append([]float64(nil), src...)
						wantV := append([]float64(nil), vel...)
						if rest {
							wantV = make([]float64, n)
						}
						wantG := append([]float64(nil), grad...)
						for j := range wantG {
							wantG[j] *= scale
						}
						for j := range wantP {
							wantV[j] = h[0]*wantV[j] - h[1]*(wantG[j]+h[2]*wantP[j])
							wantP[j] += wantV[j]
						}
						wantS := make([]float32, n)
						tensor.NarrowInto(wantS, wantP)

						var shadow []float32
						if shadowed {
							shadow = make([]float32, n)
							for i := range shadow {
								shadow[i] = float32(i) + 0.5
							}
						}
						var srcArg []float64
						if fromSrc {
							srcArg = src
						}
						step.Apply(param, srcArg, vel, grad, shadow)
						bitsEqual(t, name+" param", param, wantP)
						bitsEqual(t, name+" vel", vel, wantV)
						bitsEqual(t, name+" grad", grad, make([]float64, n))
						if fromSrc {
							bitsEqual(t, name+" src untouched", src, srcBefore)
						}
						if shadowed {
							bitsEqual(t, name+" shadow", shadow, wantS)
						}
					}
				}
			}
		}
	})
}

// TestAffineIntoMatchesScalarLoop pins the standardization kernel to
// (v − shift)·scale, in place and into a dirty destination.
func TestAffineIntoMatchesScalarLoop(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	pairs := [][2]float64{{0.25, 3.5}, {0, 1}, {-1e300, 1e10}, {math.Inf(1), 2}, {1, math.NaN()}}
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 0; n <= maxPropLen; n++ {
			for _, sc := range pairs {
				src := edgeSlice(r, n, 4)
				want := make([]float64, n)
				for i, v := range src {
					want[i] = (v - sc[0]) * sc[1]
				}
				dst := edgeSlice(r, n+3, 1)
				tensor.AffineInto(dst, src, sc[0], sc[1])
				bitsEqual(t, "affine", dst[:n], want)
				tensor.AffineInto(src, src, sc[0], sc[1])
				bitsEqual(t, "affine in place", src, want)
			}
		}
	})
}

// TestWeightedSumIntoMatchesAxpyPasses pins the K-input sum to zeroing
// the destination and then one AddScaled pass per input, in input
// order, for K from 0 to 6, with signed-zero inputs mixed in (only a
// sum that starts at +0 gets their sign right).
func TestWeightedSumIntoMatchesAxpyPasses(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 0; n <= maxPropLen; n++ {
			for k := 0; k <= 6; k++ {
				srcs := make([][]float64, k)
				ws := make([]float64, k)
				for i := range srcs {
					srcs[i] = edgeSlice(r, n, 1)
					if r.Intn(3) == 0 {
						for j := range srcs[i] {
							srcs[i][j] = math.Copysign(0, -1)
						}
					}
					ws[i] = edgeSlice(r, 1, 0.5)[0]
				}
				want := tensor.New(n)
				for i, s := range srcs {
					if err := want.AddScaled(ws[i], tensor.MustFromSlice(s, n)); err != nil {
						t.Fatal(err)
					}
				}
				dst := edgeSlice(r, n, 1)
				tensor.WeightedSumInto(dst, srcs, ws)
				bitsEqual(t, fmt.Sprintf("weighted sum n=%d k=%d", n, k), dst, want.Data())
			}
		}
	})
}

func TestNarrowIntoMatchesScalarLoop(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 0; n <= maxPropLen; n++ {
			// Wide spread: values round, underflow to float32
			// subnormals or zero, and overflow to ±Inf.
			src := edgeSlice(r, n, 1e30)
			want := make([]float32, n)
			for i, v := range src {
				want[i] = float32(v)
			}
			got := make([]float32, n)
			for i := range got {
				got[i] = float32(i) // dirty: every element must be written
			}
			tensor.NarrowInto(got, src)
			bitsEqual(t, "narrow", got, want)
		}
	})
}

func TestWidenAddIntoMatchesScalarLoop(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 0; n <= maxPropLen; n++ {
			src := make([]float32, n)
			for i, v := range edgeSlice(r, n, 1) {
				src[i] = float32(v)
			}
			dst := edgeSlice(r, n, 1)
			want := append([]float64(nil), dst...)
			for i, v := range src {
				want[i] += float64(v)
			}
			tensor.WidenAddInto(dst, src)
			bitsEqual(t, "widen-add", dst, want)
		}
	})
}

// TestMatMulATBAddIntoMatchesOneAdd pins the accumulate epilogue of
// MatMulATBAddF64: out += aᵀ@b must equal the product computed alone,
// then added to out with one add per element — on tiles, strips and
// tails, at every output width 0–67, in float64 and (through a test
// hook) float32, on every tier the CPU has.
func TestMatMulATBAddIntoMatchesOneAdd(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	eachTier(t, func(t *testing.T, _ tensor.Tier) {
		for n := 0; n <= maxPropLen; n++ {
			for _, km := range [][2]int{{1, 4}, {9, 5}, {3, 8}, {2, 1}} {
				k, m := km[0], km[1]
				a, b, out := edgeSlice(r, k*m, 1), edgeSlice(r, k*n, 1), edgeSlice(r, m*n, 1)
				a32, b32, out32 := narrowed(a), narrowed(b), narrowed(out)
				checkATBAdd(t, "matmulATB accumulate", f64Kernels, out, a, b, k, m, n)
				checkATBAdd(t, "matmulATBF32 accumulate", f32Kernels, out32, a32, b32, k, m, n)
			}
		}
	})
}

func narrowed(s []float64) []float32 {
	out := make([]float32, len(s))
	for i, v := range s {
		out[i] = float32(v)
	}
	return out
}

// TestConv3x3AddIntoMatchesScalarLoop runs the encoder conv over every
// lane count 1–67 at row strides from 1 to the default encoder's 18,
// so the 4-lane body meets every tail length, against the per-lane sum
// written out in tap order. k holds ±0 taps as well as edge values.
// Every other case is a plane of ±0 under positive taps into a dst of
// ±0, where only a sum that starts at +0 gets every sign bit right.
func TestConv3x3AddIntoMatchesScalarLoop(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	signedZeros := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = math.Copysign(0, float64(r.Intn(4)-3)) // −0 three times in four
		}
		return s
	}
	bothPaths(t, func(t *testing.T, simd bool) {
		for n := 1; n <= maxPropLen; n++ {
			for c, stride := range []int{1, 3, 7, 10, 18} {
				var k [9]float64
				copy(k[:], edgeSlice(r, 9, 1))
				src := edgeSlice(r, n+2*stride+2, 1)
				dst := edgeSlice(r, n, 1)
				if (n+c)%2 == 0 {
					for i := range k {
						k[i] = math.Abs(r.NormFloat64()) + 0.5
					}
					src, dst = signedZeros(len(src)), signedZeros(n)
				}
				want := append([]float64(nil), dst...)
				for p := range want {
					s := 0.0
					for ky := 0; ky < 3; ky++ {
						for kx := 0; kx < 3; kx++ {
							s += k[3*ky+kx] * src[p+ky*stride+kx]
						}
					}
					want[p] += s
				}
				tensor.Conv3x3AddInto(dst, src, stride, &k)
				bitsEqual(t, "conv3x3", dst, want)
			}
		}
	})
}

// TestTileNaNFallbackMatchesGate pins the SIMD tiles' NaN fallback. The
// tiles add every a·b term, where the references skip a == 0, so a
// zero a that meets ±Inf or NaN in b makes the tile's sum NaN while
// the gated sum stays finite; the tile must then store nothing and
// leave its block to the gated strips. Each case plants one such pair
// (a = +0, −0 or NaN against b = +Inf, −Inf or NaN) inside a full
// 4-row tile, among finite nonzero operands, and runs every product
// of both dtypes against the serial references, aᵀ@b also into a
// non-zero out, on every tier the CPU has. MatMulABT runs its tile on
// bᵀ but has no gate: there the planted pair makes the reference NaN
// too, and the block must fall back to the dense ABT strips, which
// keep it NaN, not to the gated ones.
func TestTileNaNFallbackMatchesGate(t *testing.T) {
	// Two row tiles. Every planted column (< 16) lies in the first tile
	// of every width: f64 tiles at columns 0, 8, 16, 24 (ymm) or 0, 16
	// (zmm), f32 at 0, 16 (ymm) or 0 (zmm).
	const m, k, n = 8, 5, 35
	r := rand.New(rand.NewSource(46))
	nonzero := func(r *rand.Rand, cnt int) []float64 {
		s := make([]float64, cnt)
		for i := range s {
			s[i] = r.NormFloat64() + math.Copysign(0.25, r.NormFloat64())
		}
		return s
	}
	specialA := []float64{0, math.Copysign(0, -1), math.NaN()}
	specialB := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	eachTier(t, func(t *testing.T, _ tensor.Tier) {
		for ci, sa := range specialA {
			for cj, sb := range specialB {
				row, p, col := (ci*3+cj)%m, (ci+cj)%k, (ci*5+cj*3)%16
				o := drawOperands(r, nonzero, m, k, n)
				o.acc = nonzero(r, m*n)
				o.a[row*k+p], o.b[p*n+col], o.at[p*m+row], o.bt[col*k+p] = sa, sb, sa, sb
				abt := make([]float64, m*n)
				tensor.MatMulABTSerial(abt, o.a, o.bt, m, k, n)
				if !math.IsNaN(abt[row*n+col]) {
					t.Fatalf("abt a=%v b=%v: reference element is %g, want NaN", sa, sb, abt[row*n+col])
				}
				o32 := operands[float32]{m: m, k: k, n: n,
					a: narrowed(o.a), b: narrowed(o.b), at: narrowed(o.at), bt: narrowed(o.bt), acc: narrowed(o.acc)}
				func() {
					defer func() {
						if t.Failed() {
							t.Logf("planted a=%v against b=%v", sa, sb)
						}
					}()
					checkProducts(t, f64Kernels, o)
					checkProducts(t, f32Kernels, o32)
				}()
			}
		}
	})
}

// TestZMMDispatchPredicate pins the AVX-512 start-up check to CPUID leaf
// 7's AVX512F bit and the five XCR0 state bits it needs. An OS that
// leaves any ZMM state disabled must keep the AVX tier even on a CPU
// that reports AVX512F: zmm code would raise SIGILL there.
func TestZMMDispatchPredicate(t *testing.T) {
	const (
		avx512f = 1 << 16
		// Other leaf-7 EBX bits (AVX2, AVX512DQ) say nothing about zmm.
		avx2, avx512dq            = 1 << 5, 1 << 17
		x87, sse, avx             = 1 << 0, 1 << 1, 1 << 2
		opmask, zmmHi256, hi16ZMM = 1 << 5, 1 << 6, 1 << 7
		full                      = x87 | sse | avx | opmask | zmmHi256 | hi16ZMM
	)
	for _, c := range []struct {
		name      string
		ebx, xcr0 uint32
		want      bool
	}{
		{"avx512f with all zmm state", avx512f, full, true},
		{"extra cpu bits", avx512f | avx2 | avx512dq, full | 1<<9, true},
		{"no avx512f", avx2 | avx512dq, full, false},
		{"nothing", 0, 0, false},
		{"avx512f, os saves only ymm state", avx512f, x87 | sse | avx, false},
		{"avx512f, no opmask state", avx512f, full &^ opmask, false},
		{"avx512f, no upper-zmm state", avx512f, full &^ zmmHi256, false},
		{"avx512f, no high-zmm state", avx512f, full &^ hi16ZMM, false},
		{"avx512f, no ymm state", avx512f, full &^ avx, false},
		{"avx512f, no xmm state", avx512f, full &^ sse, false},
		{"zmm state without avx512f", 0, full, false},
	} {
		if got := tensor.ZMMUsable(c.ebx, c.xcr0); got != c.want {
			t.Errorf("%s: zmmUsable(%#x, %#x) = %v, want %v", c.name, c.ebx, c.xcr0, got, c.want)
		}
	}
}

// TestKernelTier logs the tier the kernels start on, so a CI log shows
// which tiles its runner used, and checks that Tiers lists it first and
// the strips last.
func TestKernelTier(t *testing.T) {
	ts := tensor.Tiers()
	t.Logf("kernel tier: %v (tiers this CPU runs: %v)", tensor.HaveTier, ts)
	if ts[0] != tensor.HaveTier || ts[len(ts)-1] != tensor.TierStrips {
		t.Fatalf("have %v, tiers %v", tensor.HaveTier, ts)
	}
	if tensor.HaveSIMD != (tensor.HaveTier != tensor.TierStrips) {
		t.Fatalf("HaveSIMD %v at tier %v", tensor.HaveSIMD, tensor.HaveTier)
	}
}
