package tensor

// Test-only hooks: run the blocked range kernels over an explicit row
// partition, so tests can prove the outputs are invariant to how rows are
// split across workers (the determinism guarantee of DESIGN.md §5)
// without depending on GOMAXPROCS.

// MatMulWithSplits computes a@b applying matMulRange over each
// [bounds[i], bounds[i+1]) row range. bounds must start at 0 and end at m.
func MatMulWithSplits(a, b *Tensor, bounds []int) (*Tensor, error) {
	m, k, n, err := matMulDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	for i := 0; i+1 < len(bounds); i++ {
		matMulRange(a.data, b.data, out.data, k, n, bounds[i], bounds[i+1])
	}
	return out, nil
}

// MatMulATBWithSplits is MatMulWithSplits for the aᵀ@b kernel.
func MatMulATBWithSplits(a, b *Tensor, bounds []int) (*Tensor, error) {
	k, m, n, err := matMulATBDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	for i := 0; i+1 < len(bounds); i++ {
		matMulATBRange(a.data, b.data, out.data, k, m, n, bounds[i], bounds[i+1])
	}
	return out, nil
}

// MatMulABTWithSplits is MatMulWithSplits for the a@bᵀ kernel.
func MatMulABTWithSplits(a, b *Tensor, bounds []int) (*Tensor, error) {
	m, k, n, err := matMulABTDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	bt, spare := transposeB(tiles().w64, btSpares64, b.data, m, k, n)
	defer releaseB(btSpares64, spare)
	for i := 0; i+1 < len(bounds); i++ {
		matMulABTRange(a.data, b.data, bt, out.data, k, n, bounds[i], bounds[i+1])
	}
	return out, nil
}

// Float32 analogs of the split hooks, over the row-range kernels
// directly. The panels assign every element, so out is not pre-zeroed —
// the splits must also prove dirty buffers are fully overwritten.

// MatMulF32WithSplits computes a@b over float32 slices applying the
// blocked panel to each row range.
func MatMulF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	for i := 0; i+1 < len(bounds); i++ {
		matMulRangeF32(a, b, out, k, n, bounds[i], bounds[i+1])
	}
}

// MatMulATBF32WithSplits is MatMulF32WithSplits for the aᵀ@b kernel.
func MatMulATBF32WithSplits(out, a, b []float32, k, m, n int, bounds []int) {
	for i := 0; i+1 < len(bounds); i++ {
		matMulATBRangeF32(a, b, out, k, m, n, bounds[i], bounds[i+1])
	}
}

// MatMulABTF32WithSplits is MatMulF32WithSplits for the a@bᵀ kernel.
func MatMulABTF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	bt, spare := transposeB(tiles().w32, btSpares32, b, bounds[len(bounds)-1], k, n)
	defer releaseB(btSpares32, spare)
	for i := 0; i+1 < len(bounds); i++ {
		matMulABTRangeF32(a, b, bt, out, k, n, bounds[i], bounds[i+1])
	}
}

// HaveSIMD reports whether this CPU runs the SIMD tiles at all.
var HaveSIMD = haveTier >= tierYMM

// SetSIMD selects the widest tier the CPU has or, with on == false, the
// generic strips for every product, and returns a func that restores
// the previous choice. Not safe to call while kernels run on other
// goroutines.
func SetSIMD(on bool) (restore func()) {
	if on {
		return SetTier(haveTier)
	}
	return SetTier(tierStrips)
}

// Tier is a kernel dispatch tier: the generic strips, the AVX (ymm)
// tiles or the AVX-512 (zmm) tiles.
type Tier = tier

func (t tier) String() string {
	return [...]string{tierStrips: "strips", tierYMM: "ymm", tierZMM: "zmm"}[t]
}

const (
	TierStrips = tierStrips
	TierYMM    = tierYMM
	TierZMM    = tierZMM
)

// HaveTier is the widest tier this CPU and OS support, the one the
// kernels start on.
var HaveTier Tier = haveTier

// Tiers lists every tier this CPU runs, widest first, strips last.
func Tiers() []Tier {
	var ts []Tier
	for t := haveTier; t >= tierStrips; t-- {
		ts = append(ts, t)
	}
	return ts
}

// SetTier selects tier t, which must be one this CPU runs, and returns
// a func that restores the previous tier. Not safe to call while
// kernels run on other goroutines.
func SetTier(t Tier) (restore func()) {
	if t > haveTier {
		panic("tensor: SetTier above the CPU's tier " + haveTier.String())
	}
	prev := liveTier
	liveTier = t
	return func() { liveTier = prev }
}

// ZMMUsable exposes the AVX-512 dispatch predicate.
var ZMMUsable = zmmUsable

// MatMulATBAddF32 adds aᵀ@b into out over float32 slices. Only the
// float64 product accumulates in production; this hook runs the same
// epilogue on the live float32 tile and the strips, so their add path
// is tested.
func MatMulATBAddF32(out, a, b []float32, k, m, n int) {
	t := tiles()
	atbTiled(t.f32, t.w32, a, b, out, k, m, n, 0, m, true)
}
