package encoder_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop puts at random, so pooled scratch reallocates by design there.
var raceEnabled bool

// signedZeroImage draws an image whose pixels are standard normals,
// +0 or −0, with whole rows zeroed now and then — the inputs where a
// padded tap's k·0 = ±0 could flip a sign bit if the ±0 argument were
// wrong.
func signedZeroImage(r *rand.Rand, c, h, w int) *tensor.Tensor {
	x := tensor.New(c, h, w)
	d := x.Data()
	zeroRate := r.Float64()
	scale := math.Ldexp(1, r.Intn(40)-20)
	for i := range d {
		switch {
		case r.Float64() >= zeroRate:
			d[i] = r.NormFloat64() * scale
		case r.Intn(2) == 0:
			d[i] = math.Copysign(0, -1)
		}
	}
	if r.Intn(4) == 0 {
		row := d[r.Intn(c*h)*w:][:w]
		for i := range row {
			row[i] = math.Copysign(0, float64(r.Intn(2)*2-1))
		}
	}
	return x
}

// assertEncodeBits checks EncodeInto, Encode and the reference oracle
// agree bit for bit on x.
func assertEncodeBits(t *testing.T, enc *encoder.Encoder, x *tensor.Tensor) {
	t.Helper()
	want := enc.ReferenceEncode(x).Data()
	got := make([]float64, len(want))
	if err := enc.EncodeInto(got, x); err != nil {
		t.Fatal(err)
	}
	viaEncode, err := enc.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("EncodeInto[%d] = %v (%#x), reference %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if math.Float64bits(viaEncode.Data()[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Encode[%d] = %v, reference %v", i, viaEncode.Data()[i], want[i])
		}
	}
}

// TestEncodeIntoMatchesReference is the bit-identity property of the
// padded branch-free convolution: over random configs (deeper stacks,
// no-pool layers, odd channel counts and map sizes, ReLU) and thousands
// of images seeded with ±0, it reproduces the branchy reference exactly.
func TestEncodeIntoMatchesReference(t *testing.T) {
	relu := encoder.DefaultConfig()
	relu.Act = encoder.ReLU
	configs := []struct {
		name string
		cfg  encoder.Config
	}{
		{"default", encoder.DefaultConfig()},
		{"relu", relu},
		{"three-layers-odd", encoder.Config{InChannels: 3, H: 12, W: 8, Channels: []int{5, 7, 3},
			Pool: []bool{false, true, false}, Seed: 11}},
		{"no-pool-odd-map", encoder.Config{InChannels: 1, H: 7, W: 5, Channels: []int{3, 9},
			Pool: []bool{false, false}, Act: encoder.ReLU, Seed: 12}},
		{"pool-every-layer", encoder.Config{InChannels: 5, H: 8, W: 12, Channels: []int{1, 3, 5},
			Pool: []bool{true, true, false}, Seed: 13}},
	}
	const perConfig = 450 // 2250 images in total
	r := rand.New(rand.NewSource(1))
	for _, c := range configs {
		cfg := c.cfg
		enc, err := encoder.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < perConfig; i++ {
			assertEncodeBits(t, enc, signedZeroImage(r, cfg.InChannels, cfg.H, cfg.W))
		}
		// The all-±0 image: every tap is ±0, the bias alone survives.
		x := tensor.New(cfg.InChannels, cfg.H, cfg.W)
		for i := range x.Data() {
			x.Data()[i] = math.Copysign(0, -1)
		}
		assertEncodeBits(t, enc, x)
	}
}

// FuzzEncodeInto drives the same property over fuzzer-chosen encoder
// shapes: 1–3 layers of 1–9 channels on maps up to 12×12, pooling
// wherever the map is even, both activations. The checked-in corpus
// under testdata/fuzz pins 1×1 maps, single-channel stacks, deep
// odd-sized ones, and maps whose padded planes (h·(w+2) lanes) leave
// every SIMD tail length; CI runs a fixed-budget fuzz smoke beyond it.
func FuzzEncodeInto(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(16), uint8(16), uint8(2), uint8(1), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(4), uint8(7), uint8(10), uint8(3), uint8(6), false)
	f.Add(int64(4), uint8(2), uint8(6), uint8(4), uint8(1), uint8(0), false) // 7×5: 49 lanes
	f.Add(int64(5), uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), true)  // 3×3: 15 lanes
	f.Fuzz(func(t *testing.T, seed int64, inC, h, w, layers, poolBits uint8, relu bool) {
		r := rand.New(rand.NewSource(seed))
		cfg := encoder.Config{InChannels: int(inC)%4 + 1, H: int(h)%12 + 1, W: int(w)%12 + 1, Seed: uint64(seed)}
		if relu {
			cfg.Act = encoder.ReLU
		}
		ch, cw := cfg.H, cfg.W
		for l := 0; l < int(layers)%3+1; l++ {
			pool := poolBits&(1<<l) != 0 && ch%2 == 0 && cw%2 == 0
			if pool {
				ch, cw = ch/2, cw/2
			}
			cfg.Channels = append(cfg.Channels, r.Intn(9)+1)
			cfg.Pool = append(cfg.Pool, pool)
		}
		enc, err := encoder.New(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i := 0; i < 4; i++ {
			assertEncodeBits(t, enc, signedZeroImage(r, cfg.InChannels, cfg.H, cfg.W))
		}
	})
}

// TestEncodeIntoZeroAlloc is the steady-state guard: with pooled scratch
// and a caller-owned destination, encoding allocates nothing.
func TestEncodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts")
	}
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, h, w := enc.OutShape()
	dst := make([]float64, c*h*w)
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, 3, 16, 16)
	allocs := testing.AllocsPerRun(100, func() {
		if err := enc.EncodeInto(dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state EncodeInto allocated %.1f objects/op, want 0", allocs)
	}
}
