//go:build !amd64

package tensor

// haveTier is tierStrips off amd64: the generic strips and scalar
// loops serve every call, and the SIMD routines below are never called.
const haveTier = tierStrips

func tile4x8F64(a *float64, aRowStride, aPStride int, b *float64, bPStride, k int, out *float64, ldo int, add bool) bool {
	panic("tensor: SIMD tile called without SIMD support")
}

func tile4x16F32(a *float32, aRowStride, aPStride int, b *float32, bPStride, k int, out *float32, ldo int, add bool) bool {
	panic("tensor: SIMD tile called without SIMD support")
}

func tile4x16F64(a *float64, aRowStride, aPStride int, b *float64, bPStride, k int, out *float64, ldo int, add bool) bool {
	panic("tensor: SIMD tile called without SIMD support")
}

func tile4x32F32(a *float32, aRowStride, aPStride int, b *float32, bPStride, k int, out *float32, ldo int, add bool) bool {
	panic("tensor: SIMD tile called without SIMD support")
}

func sgdStepF64(param, src, vel, grad *float64, shadow *float32, n int, momentum, lr, wd, gscale float64, rest bool) {
	panic("tensor: SIMD loop called without SIMD support")
}

func affineF64(dst, src *float64, n int, shift, scale float64) {
	panic("tensor: SIMD loop called without SIMD support")
}

func weightedSumF64(dst *float64, srcs *[]float64, ws *float64, k, n int) {
	panic("tensor: SIMD loop called without SIMD support")
}

func narrowF64(dst *float32, src *float64, n int) {
	panic("tensor: SIMD loop called without SIMD support")
}

func widenAddF32(dst *float64, src *float32, n int) {
	panic("tensor: SIMD loop called without SIMD support")
}

func conv3x3AddF64(dst, src *float64, n, stride int, k *[9]float64) {
	panic("tensor: SIMD loop called without SIMD support")
}
