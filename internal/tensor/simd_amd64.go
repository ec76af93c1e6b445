//go:build amd64

package tensor

// haveTier is the widest kernel tier this CPU and its OS support,
// decided once at start-up (simd.go).
var haveTier = cpuTier()

// tile4x8F64 computes one 4×8 float64 output tile and reports whether
// it stored it (false: a NaN accumulator, out untouched); see
// simd_amd64.s.
//
//go:noescape
func tile4x8F64(a *float64, aRowStride, aPStride int, b *float64, bPStride, k int, out *float64, ldo int, add bool) bool

// tile4x16F32 is tile4x8F64 for one 4×16 float32 output tile.
//
//go:noescape
func tile4x16F32(a *float32, aRowStride, aPStride int, b *float32, bPStride, k int, out *float32, ldo int, add bool) bool

// tile4x16F64 and tile4x32F32 are the AVX-512 forms of tile4x8F64 and
// tile4x16F32, twice as wide.
//
//go:noescape
func tile4x16F64(a *float64, aRowStride, aPStride int, b *float64, bPStride, k int, out *float64, ldo int, add bool) bool

//go:noescape
func tile4x32F32(a *float32, aRowStride, aPStride int, b *float32, bPStride, k int, out *float32, ldo int, add bool) bool

// sgdStepF64, affineF64, weightedSumF64, narrowF64 and widenAddF32
// run the first n elements (n a multiple of 4) of SGDStep.Apply,
// AffineInto, WeightedSumInto, NarrowInto and WidenAddInto; see
// simd_amd64.s. shadow may be nil.
//
//go:noescape
func sgdStepF64(param, src, vel, grad *float64, shadow *float32, n int, momentum, lr, wd, gscale float64, rest bool)

//go:noescape
func affineF64(dst, src *float64, n int, shift, scale float64)

//go:noescape
func weightedSumF64(dst *float64, srcs *[]float64, ws *float64, k, n int)

//go:noescape
func narrowF64(dst *float32, src *float64, n int)

//go:noescape
func widenAddF32(dst *float64, src *float32, n int)

// conv3x3AddF64 runs the first n lanes (n a multiple of 4) of
// Conv3x3AddInto; see simd_amd64.s.
//
//go:noescape
func conv3x3AddF64(dst, src *float64, n, stride int, k *[9]float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuTier returns tierZMM when the CPU has AVX512F and the OS saves
// its state, else tierYMM when it has AVX, else tierStrips. CPUID leaf
// 7 is read only where leaf 0 reports it, and XCR0 only after
// cpuHasAVX has seen OSXSAVE.
func cpuTier() tier {
	if !cpuHasAVX() {
		return tierStrips
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return tierYMM
	}
	_, ebx7, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	if zmmUsable(ebx7, xcr0) {
		return tierZMM
	}
	return tierYMM
}

// cpuHasAVX reports AVX support with YMM state enabled by the OS. The
// loops need nothing newer: VBROADCASTS[SD], VMULP[SD], VADDP[SD],
// VSUBPD, VXORP[SD], the tiles' NaN check (VCMPP[SD], VORP[SD],
// VMOVMSKP[SD]), VCVTPD2PS and VCVTPS2PD are all AVX1, and no FMA is
// used.
func cpuHasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	xcr0, _ := xgetbv()
	return xcr0&xmmYmmState == xmmYmmState
}
