//go:build amd64

#include "textflag.h"

// SIMD register tiles for MatMul, MatMulATB and MatMulABT (simd.go,
// DESIGN.md §5 "kernel gen 3"). One body per dtype computes a 4-row
// output tile,
//
//	acc[r][c] = Σ_{p<k} a[r*aRowStride + p*aPStride] · b[p*bPStride + c]
//
// for r < 4 and c < 8 (f64) or c < 16 (f32), and stores it as
// out[r*ldo + c] = acc, or out[r*ldo + c] += acc when add is set (the
// accumulate epilogue of MatMulATB, DESIGN.md §5 "kernel gen 4").
// Strides are in elements. MatMul passes (aRowStride, aPStride) =
// (k, 1), MatMulATB (1, m), and MatMulABT MatMul's over bᵀ.
//
// Lanes run across output columns, so every element still reduces in
// ascending p with a separately rounded multiply and add (no FMA). The
// MatMul and MatMulATB references skip a term when a == 0 (MatMulABT's
// has no gate, which the tile matches as it is); the tile adds every
// term and checks for NaN instead. A term with a = ±0 and finite b is ±0,
// which changes no accumulator bit: an accumulator that starts at +0
// never becomes −0 (DESIGN.md §5). With b = ±Inf or NaN the term is
// NaN, and a NaN stays in its accumulator to the end. So an
// accumulator that ends non-NaN equals the gated sum bit for bit.
// Before the epilogue the tile ORs an unordered compare of every
// accumulator pair: if any lane is NaN it stores nothing and returns
// false, and the Go caller recomputes the block on the strips (gated,
// or MatMulABT's dense ones). Otherwise it stores and returns true.
//
// With add set, the epilogue adds each accumulator to the element
// already in out — the one add a separate out += acc pass would make —
// before storing it. The NaN check comes first, so a tile that falls
// back has not touched out.
//
// Registers: Y0–Y7 accumulators (row r in Y(2r), Y(2r+1)), Y8/Y9 the b
// row, Y10 the broadcast a, Y12/Y13 products; after the loop Y8–Y11
// hold the NaN masks.

// func tile4x8F64(a *float64, aRowStride, aPStride int, b *float64, bPStride, k int, out *float64, ldo int, add bool) bool
TEXT ·tile4x8F64(SB), NOSPLIT, $0-73
	MOVQ a+0(FP), SI
	MOVQ aRowStride+8(FP), R8
	MOVQ aPStride+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ bPStride+32(FP), R10
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DX
	MOVQ ldo+56(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JLE    store64

loop64:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1

	VBROADCASTSD (SI)(R8*1), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y3, Y3

	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5

	VBROADCASTSD (SI)(R12*1), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y6, Y6
	VADDPD       Y13, Y7, Y7

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop64

store64:
	VCMPPD    $3, Y1, Y0, Y8
	VCMPPD    $3, Y3, Y2, Y9
	VCMPPD    $3, Y5, Y4, Y10
	VCMPPD    $3, Y7, Y6, Y11
	VORPD     Y9, Y8, Y8
	VORPD     Y11, Y10, Y10
	VORPD     Y10, Y8, Y8
	VMOVMSKPD Y8, AX
	TESTL     AX, AX
	JNZ       nan64
	CMPB      add+64(FP), $0
	JEQ       assign64
	MOVQ      DX, AX
	VADDPD    (AX), Y0, Y0
	VADDPD    32(AX), Y1, Y1
	ADDQ      R11, AX
	VADDPD    (AX), Y2, Y2
	VADDPD    32(AX), Y3, Y3
	ADDQ      R11, AX
	VADDPD    (AX), Y4, Y4
	VADDPD    32(AX), Y5, Y5
	ADDQ      R11, AX
	VADDPD    (AX), Y6, Y6
	VADDPD    32(AX), Y7, Y7

assign64:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R11, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R11, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R11, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	MOVB    $1, ret+72(FP)
	RET

nan64:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// func tile4x16F32(a *float32, aRowStride, aPStride int, b *float32, bPStride, k int, out *float32, ldo int, add bool) bool
TEXT ·tile4x16F32(SB), NOSPLIT, $0-73
	MOVQ a+0(FP), SI
	MOVQ aRowStride+8(FP), R8
	MOVQ aPStride+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ bPStride+32(FP), R10
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DX
	MOVQ ldo+56(FP), R11
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JLE    store32

loop32:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9

	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y12
	VMULPS       Y9, Y10, Y13
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1

	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y12
	VMULPS       Y9, Y10, Y13
	VADDPS       Y12, Y2, Y2
	VADDPS       Y13, Y3, Y3

	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y12
	VMULPS       Y9, Y10, Y13
	VADDPS       Y12, Y4, Y4
	VADDPS       Y13, Y5, Y5

	VBROADCASTSS (SI)(R12*1), Y10
	VMULPS       Y8, Y10, Y12
	VMULPS       Y9, Y10, Y13
	VADDPS       Y12, Y6, Y6
	VADDPS       Y13, Y7, Y7

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop32

store32:
	VCMPPS    $3, Y1, Y0, Y8
	VCMPPS    $3, Y3, Y2, Y9
	VCMPPS    $3, Y5, Y4, Y10
	VCMPPS    $3, Y7, Y6, Y11
	VORPS     Y9, Y8, Y8
	VORPS     Y11, Y10, Y10
	VORPS     Y10, Y8, Y8
	VMOVMSKPS Y8, AX
	TESTL     AX, AX
	JNZ       nan32
	CMPB      add+64(FP), $0
	JEQ       assign32
	MOVQ      DX, AX
	VADDPS    (AX), Y0, Y0
	VADDPS    32(AX), Y1, Y1
	ADDQ      R11, AX
	VADDPS    (AX), Y2, Y2
	VADDPS    32(AX), Y3, Y3
	ADDQ      R11, AX
	VADDPS    (AX), Y4, Y4
	VADDPS    32(AX), Y5, Y5
	ADDQ      R11, AX
	VADDPS    (AX), Y6, Y6
	VADDPS    32(AX), Y7, Y7

assign32:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R11, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R11, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R11, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	MOVB    $1, ret+72(FP)
	RET

nan32:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// Kernel gen 6 (DESIGN.md §5 "kernel gen 6"): the same tiles on
// 512-bit registers, 4×16 in float64 and 4×32 in float32, for CPUs with
// AVX512F and ZMM state enabled by the OS (simd_amd64.go). The
// signature, the reduction, the epilogue and the NaN contract are the
// gen-3 tiles' above; each instruction is the zmm form of the ymm one.
// Only AVX512F is needed: VPXORQ clears the accumulators (VXORPD on
// zmm is AVX512DQ), and the NaN check compares into opmask registers,
// ORs them with KORW and tests them with KORTESTW.
//
// Registers: Z0–Z7 accumulators (row r in Z(2r), Z(2r+1)), Z8/Z9 the b
// row, Z10 the broadcast a, Z12/Z13 products, K1–K4 the NaN masks.

// func tile4x16F64(a *float64, aRowStride, aPStride int, b *float64, bPStride, k int, out *float64, ldo int, add bool) bool
TEXT ·tile4x16F64(SB), NOSPLIT, $0-73
	MOVQ a+0(FP), SI
	MOVQ aRowStride+8(FP), R8
	MOVQ aPStride+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ bPStride+32(FP), R10
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DX
	MOVQ ldo+56(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ  CX, CX
	JLE    zstore64

zloop64:
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9

	VBROADCASTSD (SI), Z10
	VMULPD       Z8, Z10, Z12
	VMULPD       Z9, Z10, Z13
	VADDPD       Z12, Z0, Z0
	VADDPD       Z13, Z1, Z1

	VBROADCASTSD (SI)(R8*1), Z10
	VMULPD       Z8, Z10, Z12
	VMULPD       Z9, Z10, Z13
	VADDPD       Z12, Z2, Z2
	VADDPD       Z13, Z3, Z3

	VBROADCASTSD (SI)(R8*2), Z10
	VMULPD       Z8, Z10, Z12
	VMULPD       Z9, Z10, Z13
	VADDPD       Z12, Z4, Z4
	VADDPD       Z13, Z5, Z5

	VBROADCASTSD (SI)(R12*1), Z10
	VMULPD       Z8, Z10, Z12
	VMULPD       Z9, Z10, Z13
	VADDPD       Z12, Z6, Z6
	VADDPD       Z13, Z7, Z7

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  zloop64

zstore64:
	VCMPPD   $3, Z1, Z0, K1
	VCMPPD   $3, Z3, Z2, K2
	VCMPPD   $3, Z5, Z4, K3
	VCMPPD   $3, Z7, Z6, K4
	KORW     K2, K1, K1
	KORW     K4, K3, K3
	KORTESTW K3, K1
	JNZ      znan64
	CMPB     add+64(FP), $0
	JEQ      zassign64
	MOVQ     DX, AX
	VADDPD   (AX), Z0, Z0
	VADDPD   64(AX), Z1, Z1
	ADDQ     R11, AX
	VADDPD   (AX), Z2, Z2
	VADDPD   64(AX), Z3, Z3
	ADDQ     R11, AX
	VADDPD   (AX), Z4, Z4
	VADDPD   64(AX), Z5, Z5
	ADDQ     R11, AX
	VADDPD   (AX), Z6, Z6
	VADDPD   64(AX), Z7, Z7

zassign64:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	ADDQ    R11, DX
	VMOVUPD Z2, (DX)
	VMOVUPD Z3, 64(DX)
	ADDQ    R11, DX
	VMOVUPD Z4, (DX)
	VMOVUPD Z5, 64(DX)
	ADDQ    R11, DX
	VMOVUPD Z6, (DX)
	VMOVUPD Z7, 64(DX)
	VZEROUPPER
	MOVB    $1, ret+72(FP)
	RET

znan64:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// func tile4x32F32(a *float32, aRowStride, aPStride int, b *float32, bPStride, k int, out *float32, ldo int, add bool) bool
TEXT ·tile4x32F32(SB), NOSPLIT, $0-73
	MOVQ a+0(FP), SI
	MOVQ aRowStride+8(FP), R8
	MOVQ aPStride+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ bPStride+32(FP), R10
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), DX
	MOVQ ldo+56(FP), R11
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R12

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ  CX, CX
	JLE    zstore32

zloop32:
	VMOVUPS (DI), Z8
	VMOVUPS 64(DI), Z9

	VBROADCASTSS (SI), Z10
	VMULPS       Z8, Z10, Z12
	VMULPS       Z9, Z10, Z13
	VADDPS       Z12, Z0, Z0
	VADDPS       Z13, Z1, Z1

	VBROADCASTSS (SI)(R8*1), Z10
	VMULPS       Z8, Z10, Z12
	VMULPS       Z9, Z10, Z13
	VADDPS       Z12, Z2, Z2
	VADDPS       Z13, Z3, Z3

	VBROADCASTSS (SI)(R8*2), Z10
	VMULPS       Z8, Z10, Z12
	VMULPS       Z9, Z10, Z13
	VADDPS       Z12, Z4, Z4
	VADDPS       Z13, Z5, Z5

	VBROADCASTSS (SI)(R12*1), Z10
	VMULPS       Z8, Z10, Z12
	VMULPS       Z9, Z10, Z13
	VADDPS       Z12, Z6, Z6
	VADDPS       Z13, Z7, Z7

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  zloop32

zstore32:
	VCMPPS   $3, Z1, Z0, K1
	VCMPPS   $3, Z3, Z2, K2
	VCMPPS   $3, Z5, Z4, K3
	VCMPPS   $3, Z7, Z6, K4
	KORW     K2, K1, K1
	KORW     K4, K3, K3
	KORTESTW K3, K1
	JNZ      znan32
	CMPB     add+64(FP), $0
	JEQ      zassign32
	MOVQ     DX, AX
	VADDPS   (AX), Z0, Z0
	VADDPS   64(AX), Z1, Z1
	ADDQ     R11, AX
	VADDPS   (AX), Z2, Z2
	VADDPS   64(AX), Z3, Z3
	ADDQ     R11, AX
	VADDPS   (AX), Z4, Z4
	VADDPS   64(AX), Z5, Z5
	ADDQ     R11, AX
	VADDPS   (AX), Z6, Z6
	VADDPS   64(AX), Z7, Z7

zassign32:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	ADDQ    R11, DX
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ    R11, DX
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	ADDQ    R11, DX
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)
	VZEROUPPER
	MOVB    $1, ret+72(FP)
	RET

znan32:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// Element-wise loops of the training step (simd.go, DESIGN.md §5
// "kernel gen 4" and "kernel gen 5"). Each handles n elements, n a
// multiple of 4; the Go caller runs the scalar loop over the tail.
// Every lane performs the scalar loop's operations one by one, each
// rounded separately and with the same first operand, so results
// match it bit for bit.

// func sgdStepF64(param, src, vel, grad *float64, shadow *float32, n int, momentum, lr, wd, gscale float64, rest bool)
//
//	v = momentum·vel − lr·((wd·src) + grad·gscale); param = v + src;
//	vel = v; grad = +0; shadow = float32(param) when shadow != nil
//
// With rest set the velocity reads as +0 (Y11) and is not loaded.
// Registers: Y12–Y15 the broadcast constants, Y11 +0, Y0 θ, Y1 the
// velocity, Y2–Y4 the products.
TEXT ·sgdStepF64(SB), NOSPLIT, $0-81
	MOVQ         param+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         vel+16(FP), R8
	MOVQ         grad+24(FP), DX
	MOVQ         shadow+32(FP), R9
	MOVQ         n+40(FP), CX
	VBROADCASTSD momentum+48(FP), Y12
	VBROADCASTSD lr+56(FP), Y13
	VBROADCASTSD wd+64(FP), Y14
	VBROADCASTSD gscale+72(FP), Y15
	MOVBQZX      rest+80(FP), AX
	VXORPD       Y11, Y11, Y11
	SHRQ         $2, CX
	JZ           sgddone

sgdloop:
	VMOVUPD (SI), Y0
	VMOVAPD Y11, Y1
	TESTQ   AX, AX
	JNZ     sgdvel
	VMOVUPD (R8), Y1

sgdvel:
	VMULPD  Y1, Y12, Y2
	VMULPD  Y0, Y14, Y3
	VMOVUPD (DX), Y4
	VMULPD  Y15, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y13, Y3, Y3
	VSUBPD  Y3, Y2, Y1
	VMOVUPD Y1, (R8)
	VADDPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)
	VMOVUPD Y11, (DX)
	TESTQ   R9, R9
	JZ      sgdnext
	VCVTPD2PSY Y0, X5
	VMOVUPS X5, (R9)
	ADDQ    $16, R9

sgdnext:
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DX
	DECQ CX
	JNZ  sgdloop

sgddone:
	VZEROUPPER
	RET

// func affineF64(dst, src *float64, n int, shift, scale float64)
//
//	dst = (src − shift)·scale
TEXT ·affineF64(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD shift+24(FP), Y14
	VBROADCASTSD scale+32(FP), Y15
	SHRQ         $2, CX
	JZ           affinedone

affineloop:
	VMOVUPD (SI), Y0
	VSUBPD  Y14, Y0, Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     affineloop

affinedone:
	VZEROUPPER
	RET

// func weightedSumF64(dst *float64, srcs *[]float64, ws *float64, k, n int)
//
//	dst = +0 + ws[0]·srcs[0] + ws[1]·srcs[1] + … + ws[k−1]·srcs[k−1]
//
// summed in that order, one separately rounded multiply and add per
// input. srcs points at k slice headers (24 bytes apart); R9 is the
// byte offset of the current four lanes in every input and in dst.
TEXT ·weightedSumF64(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), SI
	MOVQ ws+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), CX
	XORQ R9, R9
	SHRQ $2, CX
	JZ   wsumdone

wsumloop:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   R8, R12
	TESTQ  R12, R12
	JZ     wsumstore

wsumterm:
	MOVQ         (R10), AX
	VBROADCASTSD (R11), Y1
	VMULPD       (AX)(R9*1), Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         $24, R10
	ADDQ         $8, R11
	DECQ         R12
	JNZ          wsumterm

wsumstore:
	VMOVUPD Y0, (DI)(R9*1)
	ADDQ    $32, R9
	DECQ    CX
	JNZ     wsumloop

wsumdone:
	VZEROUPPER
	RET

// func narrowF64(dst *float32, src *float64, n int)
//
//	dst = float32(src), rounded to nearest even under the default MXCSR
TEXT ·narrowF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   narrowdone

narrowloop:
	VCVTPD2PSY (SI), X0
	VMOVUPS    X0, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        narrowloop

narrowdone:
	VZEROUPPER
	RET

// func widenAddF32(dst *float64, src *float32, n int)
//
//	dst = float64(src) + dst
TEXT ·widenAddF32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   widendone

widenloop:
	VCVTPS2PD (SI), Y0
	VADDPD    (DI), Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       widenloop

widendone:
	VZEROUPPER
	RET

// The encoder's 3×3 convolution (Conv3x3AddInto, DESIGN.md §5 "the
// encoder conv"). Lanes run along a zero-padded plane at row stride
// `stride`; each sums its nine taps from +0 in k[0]…k[8] order, one
// separately rounded multiply and add per tap, then adds the sum into
// dst with dst as the first operand, as the scalar dst[p] += s does.
//
// Registers: Y7–Y15 the broadcast taps, Y0 the sum, Y1 a product, Y2
// the dst lanes; SI, R9 and R10 walk the plane's three rows.

// func conv3x3AddF64(dst, src *float64, n, stride int, k *[9]float64)
TEXT ·conv3x3AddF64(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         stride+24(FP), R8
	MOVQ         k+32(FP), AX
	VBROADCASTSD (AX), Y7
	VBROADCASTSD 8(AX), Y8
	VBROADCASTSD 16(AX), Y9
	VBROADCASTSD 24(AX), Y10
	VBROADCASTSD 32(AX), Y11
	VBROADCASTSD 40(AX), Y12
	VBROADCASTSD 48(AX), Y13
	VBROADCASTSD 56(AX), Y14
	VBROADCASTSD 64(AX), Y15
	LEAQ         (SI)(R8*8), R9
	LEAQ         (R9)(R8*8), R10
	SHRQ         $2, CX
	JZ           convdone

convloop:
	VXORPD  Y0, Y0, Y0
	VMULPD  (SI), Y7, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  8(SI), Y8, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  16(SI), Y9, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9), Y10, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  8(R9), Y11, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  16(R9), Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  8(R10), Y14, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  16(R10), Y15, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (DI), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	DECQ    CX
	JNZ     convloop

convdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
