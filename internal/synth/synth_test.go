package synth_test

import (
	"math"
	"testing"

	"github.com/pardon-feddg/pardon/internal/synth"
)

func TestConfigValidation(t *testing.T) {
	cfg := synth.PACSConfig(1)
	cfg.NumClasses = 1
	if _, err := synth.New(cfg); err == nil {
		t.Fatal("1 class should error")
	}
	cfg = synth.PACSConfig(1)
	cfg.H = 2
	if _, err := synth.New(cfg); err == nil {
		t.Fatal("tiny image should error")
	}
}

func TestGenerateDomainBasics(t *testing.T) {
	gen, err := synth.New(synth.PACSConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.GenerateDomain(0, 70, "t")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 70 {
		t.Fatalf("len = %d", ds.Len())
	}
	seen := make([]bool, ds.NumClasses)
	for _, s := range ds.Samples {
		seen[s.Y] = true
		if s.Domain != 0 {
			t.Fatalf("domain tag = %d", s.Domain)
		}
		if s.X.Dim(0) != 3 || s.X.Dim(1) != 16 || s.X.Dim(2) != 16 {
			t.Fatalf("image shape = %v", s.X.Shape())
		}
	}
	for y, ok := range seen {
		if !ok {
			t.Fatalf("class %d absent", y)
		}
	}
	if _, err := gen.GenerateDomain(99, 10, "t"); err == nil {
		t.Fatal("bad domain should error")
	}
}

func TestDeterminismPerTag(t *testing.T) {
	g1, _ := synth.New(synth.PACSConfig(3))
	g2, _ := synth.New(synth.PACSConfig(3))
	a, err := g1.GenerateDomain(1, 10, "same")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.GenerateDomain(1, 10, "same")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].Y != b.Samples[i].Y {
			t.Fatal("labels differ for same seed+tag")
		}
		for j := range a.Samples[i].X.Data() {
			if a.Samples[i].X.Data()[j] != b.Samples[i].X.Data()[j] {
				t.Fatal("pixels differ for same seed+tag")
			}
		}
	}
	c, err := g1.GenerateDomain(1, 10, "other")
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples[0].X.Data()[0] == c.Samples[0].X.Data()[0] {
		t.Fatal("different tags should give different draws")
	}
}

func TestDomainsDifferInStatistics(t *testing.T) {
	gen, _ := synth.New(synth.PACSConfig(7))
	meanOf := func(d int) float64 {
		ds, err := gen.GenerateDomain(d, 50, "stats")
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, smp := range ds.Samples {
			s += smp.X.Mean()
		}
		return s / float64(ds.Len())
	}
	photo, sketch := meanOf(0), meanOf(3)
	if math.Abs(photo-sketch) < 0.3 {
		t.Fatalf("Photo and Sketch have similar pixel means (%g vs %g) — styles too weak", photo, sketch)
	}
}

// Prototypes are equal-energy sign codes: every class has identical
// content energy so AdaIN-style channel renormalization cannot erase
// class identity (see DESIGN.md).
func TestPrototypesEqualEnergy(t *testing.T) {
	cfg := synth.PACSConfig(9)
	cfg.ContentNoise = 0
	cfg.PixelNoise = 0
	gen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Render one noiseless sample per class in the identity-style domain
	// (Photo) and compare total energy.
	var energies []float64
	for y := 0; y < cfg.NumClasses; y++ {
		ds, err := gen.GenerateDomain(0, cfg.NumClasses, "energy")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ds.Samples {
			if s.Y == y {
				e := 0.0
				for _, v := range s.X.Data() {
					e += v * v
				}
				energies = append(energies, e)
				break
			}
		}
	}
	lo, hi := energies[0], energies[0]
	for _, e := range energies {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	if hi/lo > 2.5 {
		t.Fatalf("class energies spread too wide: [%g, %g]", lo, hi)
	}
}

func TestIWildCamClassRestriction(t *testing.T) {
	cfg := synth.IWildCamConfig(1, 12, 20, 5)
	gen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 12; d++ {
		spec, err := gen.Spec(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Classes) != 5 {
			t.Fatalf("domain %d has %d classes, want 5", d, len(spec.Classes))
		}
		ds, err := gen.GenerateDomain(d, 30, "w")
		if err != nil {
			t.Fatal(err)
		}
		allowed := map[int]bool{}
		for _, c := range spec.Classes {
			allowed[c] = true
		}
		for _, s := range ds.Samples {
			if !allowed[s.Y] {
				t.Fatalf("domain %d produced class %d outside its class set", d, s.Y)
			}
		}
	}
}

func TestIWildCamSplitProportions(t *testing.T) {
	train, val, test := synth.IWildCamSplit(323)
	if len(train) != 243 || len(val) != 32 || len(test) != 48 {
		t.Fatalf("paper-scale split = %d/%d/%d, want 243/32/48", len(train), len(val), len(test))
	}
	// No overlap, full cover.
	seen := map[int]bool{}
	for _, xs := range [][]int{train, val, test} {
		for _, d := range xs {
			if seen[d] {
				t.Fatalf("domain %d in two splits", d)
			}
			seen[d] = true
		}
	}
	if len(seen) != 323 {
		t.Fatalf("split covers %d domains", len(seen))
	}
	// Small-scale split still has all three parts.
	tr, v, te := synth.IWildCamSplit(10)
	if len(tr) == 0 || len(v) == 0 || len(te) == 0 {
		t.Fatalf("small split = %d/%d/%d", len(tr), len(v), len(te))
	}
}

func TestDomainNames(t *testing.T) {
	gen, _ := synth.New(synth.PACSConfig(1))
	if gen.DomainName(3) != "Sketch" {
		t.Fatalf("name = %q", gen.DomainName(3))
	}
	if gen.DomainName(77) == "" {
		t.Fatal("out-of-range name should still be printable")
	}
	if synth.PACSDomainOrder["S"] != 3 || synth.OfficeHomeDomainOrder["R"] != 3 {
		t.Fatal("domain order maps broken")
	}
}

func TestRenderErrors(t *testing.T) {
	gen, _ := synth.New(synth.PACSConfig(1))
	r := gen.Config()
	_ = r
	if _, err := gen.Spec(-1); err == nil {
		t.Fatal("negative domain should error")
	}
}
