package tensor

// Test-only row-split hooks, one per product and dtype: each runs its
// product's row-range kernel over every [bounds[i], bounds[i+1]) range
// of out, bounds running from 0 to m, so tests can prove the outputs are
// invariant to how rows are split across workers (the determinism
// guarantee of DESIGN.md §5) without depending on GOMAXPROCS. Every hook
// assigns out, so a dirty out must come back fully overwritten; the
// float64 aᵀ@b kernel adds, so its hook zeroes out first.

func eachSplit(bounds []int, f func(lo, hi int)) {
	for i := 0; i+1 < len(bounds); i++ {
		f(bounds[i], bounds[i+1])
	}
}

func MatMulF64WithSplits(out, a, b []float64, k, n int, bounds []int) {
	eachSplit(bounds, func(lo, hi int) { matMulRange(a, b, out, k, n, lo, hi) })
}

func MatMulATBF64WithSplits(out, a, b []float64, k, n int, bounds []int) {
	clear(out)
	eachSplit(bounds, func(lo, hi int) { matMulATBRange(a, b, out, k, bounds[len(bounds)-1], n, lo, hi) })
}

func MatMulABTF64WithSplits(out, a, b []float64, k, n int, bounds []int) {
	bt, spare := transposeB(tiles().w64, btSpares64, b, bounds[len(bounds)-1], k, n)
	defer releaseB(btSpares64, spare)
	eachSplit(bounds, func(lo, hi int) { matMulABTRange(a, b, bt, out, k, n, lo, hi) })
}

func MatMulF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	eachSplit(bounds, func(lo, hi int) { matMulRangeF32(a, b, out, k, n, lo, hi) })
}

func MatMulATBF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	eachSplit(bounds, func(lo, hi int) { matMulATBRangeF32(a, b, out, k, bounds[len(bounds)-1], n, lo, hi) })
}

func MatMulABTF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	bt, spare := transposeB(tiles().w32, btSpares32, b, bounds[len(bounds)-1], k, n)
	defer releaseB(btSpares32, spare)
	eachSplit(bounds, func(lo, hi int) { matMulABTRangeF32(a, b, bt, out, k, n, lo, hi) })
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
