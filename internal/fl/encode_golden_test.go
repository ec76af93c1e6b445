package fl_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/fl"
)

// floatsDigest is the SHA-256 of the values' IEEE-754 bits, in order.
func floatsDigest(chunks ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range chunks {
		for _, v := range c {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodedInputsGolden pins the exact bytes every model input is
// built from: the calibration constants, a client's model-input rows and
// Features, and an eval set's X. The digests were recorded with the
// original per-pixel branchy convolution and a cached, pre-normalized
// client FlatX, so they prove the padded kernel, the feature arena, the
// encode-into-row paths and normalize-while-gathering (BatchInto over
// every row reproduces the old FlatX digest) changed no bit — which is
// why engine.CodeVersion did not move with them.
func TestEncodedInputsGolden(t *testing.T) {
	env, gen := testEnv(t)
	photo, err := gen.GenerateDomain(0, 24, "golden")
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := gen.GenerateDomain(3, 24, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Calibrate(16, photo, sketch); err != nil {
		t.Fatal(err)
	}
	c, err := fl.NewClient(env, 0, photo)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]float64, len(c.Features))
	all := make([]int, c.Len())
	for i, f := range c.Features {
		feats[i] = f.Data()
		all[i] = i
	}
	flatX, _ := c.BatchInto(nil, nil, all)
	test, err := dataset.Merge(sketch, photo)
	if err != nil {
		t.Fatal(err)
	}
	es, err := fl.NewEvalSet(env, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ name, got, want string }{
		{"calibration", floatsDigest([]float64{env.FeatShift, env.FeatScale}), "971045c39b7caf38087e6d91b658832b8c3dd50e9ae8740a9857aab4dfc9e0dd"},
		{"client FlatX", floatsDigest(flatX.Data()), "ea1c9b9e8e9f15c1cffd2d56eebc6dbbb0804bbc72ae406eb55995770e6d7a41"},
		{"client Features", floatsDigest(feats...), "b34519ec17d7971e6ca9de88f1826b9ebde466d3027d391f0ff349d01e170573"},
		{"eval X", floatsDigest(es.X.Data()), "1ad7ab5b119bb42d3e80045be53876f67e698ac23fa58d81f1e675c99e0612bf"},
	} {
		if g.got != g.want {
			t.Errorf("%s digest = %s, want %s", g.name, g.got, g.want)
		}
	}
}
