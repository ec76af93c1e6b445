package encoder_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/synth"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func TestOutShape(t *testing.T) {
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, h, w := enc.OutShape()
	if c != 16 || h != 8 || w != 8 {
		t.Fatalf("out shape = (%d,%d,%d), want (16,8,8)", c, h, w)
	}
	if enc.StyleDim() != 32 {
		t.Fatalf("style dim = %d", enc.StyleDim())
	}
}

func TestEncodeDeterministicAcrossInstances(t *testing.T) {
	e1, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(1)), 1, 3, 16, 16)
	f1, err := e1.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := e2.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Data() {
		if f1.Data()[i] != f2.Data()[i] {
			t.Fatal("two encoders with the same seed disagree — the shared 'pre-trained' contract is broken")
		}
	}
}

func TestDifferentSeedDifferentWeights(t *testing.T) {
	cfg := encoder.DefaultConfig()
	cfg.Seed = 99
	e1, _ := encoder.New(encoder.DefaultConfig())
	e2, _ := encoder.New(cfg)
	x := tensor.Randn(rand.New(rand.NewSource(1)), 1, 3, 16, 16)
	f1, _ := e1.Encode(x)
	f2, _ := e2.Encode(x)
	same := true
	for i := range f1.Data() {
		if f1.Data()[i] != f2.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different encoders")
	}
}

func TestEncodeShapeError(t *testing.T) {
	enc, _ := encoder.New(encoder.DefaultConfig())
	if _, err := enc.Encode(tensor.New(3, 8, 8)); err == nil {
		t.Fatal("wrong input shape should error")
	}
	c, h, w := enc.OutShape()
	if err := enc.EncodeInto(make([]float64, c*h*w-1), tensor.New(3, 16, 16)); err == nil {
		t.Fatal("short destination should error")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := encoder.Config{InChannels: 0, H: 16, W: 16, Channels: []int{4}}
	if _, err := encoder.New(bad); err == nil {
		t.Fatal("zero channels should error")
	}
	bad = encoder.Config{InChannels: 3, H: 16, W: 16}
	if _, err := encoder.New(bad); err == nil {
		t.Fatal("no layers should error")
	}
	bad = encoder.Config{InChannels: 3, H: 15, W: 16, Channels: []int{4}, Pool: []bool{true}}
	if _, err := encoder.New(bad); err == nil {
		t.Fatal("odd pooled map should error")
	}
}

// Domain style must be visible in feature channel statistics — the
// property PARDON's style extraction relies on.
func TestDomainsSeparableInFeatureStats(t *testing.T) {
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.New(synth.PACSConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	styleOfDomain := func(d int) *style.Style {
		ds, err := gen.GenerateDomain(d, 40, "enc-test")
		if err != nil {
			t.Fatal(err)
		}
		feats := make([]*tensor.Tensor, ds.Len())
		for i, s := range ds.Samples {
			f, err := enc.Encode(s.X)
			if err != nil {
				t.Fatal(err)
			}
			feats[i] = f
		}
		st, err := style.OfConcat(feats, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	photo := styleOfDomain(0)
	art := styleOfDomain(1)
	sketch := styleOfDomain(3)
	dPA, err := style.Distance(photo, art)
	if err != nil {
		t.Fatal(err)
	}
	dPS, err := style.Distance(photo, sketch)
	if err != nil {
		t.Fatal(err)
	}
	if dPA < 1e-3 || dPS < 1e-3 {
		t.Fatalf("domains indistinguishable in feature stats: d(P,A)=%g d(P,S)=%g", dPA, dPS)
	}
	if dPS <= dPA {
		t.Fatalf("Sketch should be farther from Photo than Art: d(P,A)=%g d(P,S)=%g", dPA, dPS)
	}
}

func TestEncodeAllAndPooled(t *testing.T) {
	enc, _ := encoder.New(encoder.DefaultConfig())
	r := rand.New(rand.NewSource(2))
	xs := []*tensor.Tensor{
		tensor.Randn(r, 1, 3, 16, 16),
		tensor.Randn(r, 1, 3, 16, 16),
	}
	fs, err := enc.EncodeAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("len = %d", len(fs))
	}
	p, err := enc.PooledFeature(xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 16 {
		t.Fatalf("pooled len = %d, want 16", len(p))
	}
	// Pooled feature is the channel mean of the encoded map.
	c, h, w := enc.OutShape()
	hw := h * w
	for ch := 0; ch < c; ch++ {
		m := 0.0
		for _, v := range fs[0].Data()[ch*hw : (ch+1)*hw] {
			m += v
		}
		m /= float64(hw)
		if math.Abs(m-p[ch]) > 1e-9 {
			t.Fatalf("pooled[%d] = %g, want %g", ch, p[ch], m)
		}
	}
}

func TestCalibrationRoughlyStandardizes(t *testing.T) {
	enc, _ := encoder.New(encoder.DefaultConfig())
	r := rand.New(rand.NewSource(8))
	var sum, sumSq float64
	n := 0
	for i := 0; i < 32; i++ {
		f, err := enc.Encode(tensor.Randn(r, 1, 3, 16, 16))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range f.Data() {
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.2 || std < 0.5 || std > 2 {
		t.Fatalf("calibrated output not standardized on probe-like input: mean=%g std=%g", mean, std)
	}
}
