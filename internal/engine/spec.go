package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/synth"
)

// CodeVersion is folded into every content-address. Bump it whenever a
// change anywhere in the training stack (fl, core, baselines, synth,
// encoder, nn, partition, rng) alters what a Spec computes, so stale
// cached results are never served for new code.
//
// v2: Spec grew the hash-affecting Hidden depth override and the engine
// began storing model checkpoint blobs next to results.
//
// v3: Spec grew the hash-affecting Precision knob and the model
// checkpoint format gained a dtype byte (PDNM v2).
const CodeVersion = "pardon-engine/3"

// SplitSpec names the train/val/test domain indices of an evaluation
// scheme. It mirrors dataset.Split minus the free-text comment, which
// must not influence the content-address.
type SplitSpec struct {
	Name  string
	Train []int
	Val   []int
	Test  []int
}

// Spec is the canonical, hashable description of one federated run: a
// method from the paper's comparison set trained on a dataset preset
// under fixed sizing and seeding. Two Specs with equal canonical
// encodings denote byte-identical experiments — every source of
// randomness in the run derives from (GenSeed, Seed, Tag) through named
// rng streams — so a Spec's content-address can memoize its Result.
//
// Field order is load-bearing: Canonical marshals the struct in
// declaration order. Append new fields at the end and bump CodeVersion.
type Spec struct {
	// Method is a table name accepted by NewAlgorithm (e.g. "PARDON",
	// "FedSR", "PARDON-v3").
	Method string
	// Dataset selects a preset corpus: "PACS", "OfficeHome" or
	// "IWildCam".
	Dataset string
	// GenSeed seeds the synthetic corpus generator.
	GenSeed uint64
	// Split names the train/val/test domains within the corpus.
	Split SplitSpec
	// Lambda is the client-heterogeneity level of the partition.
	Lambda float64
	// Clients is the total client population N.
	Clients int
	// SampleK clients participate per round.
	SampleK int
	// Rounds is the number of federated rounds.
	Rounds int
	// PerDomain is the number of generated samples per training domain.
	PerDomain int
	// EvalPer is the number of evaluation samples per held-out domain.
	EvalPer int
	// EvalEvery evaluates every that-many rounds (0 = last round only).
	EvalEvery int
	// Seed roots scenario randomness (partitioning, model init, client
	// sampling, batch shuffling).
	Seed uint64
	// Tag isolates scenario randomness between schemes sharing a Seed.
	Tag string
	// KeepModel stores the trained global model's parameter vector in
	// the Result (needed by consumers that analyze the model itself,
	// e.g. the Fig. 1 loss-landscape probe).
	KeepModel bool
	// NumDomains, NumClasses and ClassesPerDomain size the IWildCam
	// preset; they are ignored (and must be zero) for the others.
	NumDomains       int
	NumClasses       int
	ClassesPerDomain int
	// Hidden optionally overrides the model's hidden-layer stack (widths
	// of the ReLU layers before the embedding projection; empty = the
	// default single defaultHiddenWidth-wide layer). It changes what the
	// Spec computes, so it is part of the canonical encoding and the
	// content-address — scenarios can sweep model capacity and each
	// depth memoizes separately. Spellings that compute the same model
	// (nil, [], and [defaultHiddenWidth]) are normalized before hashing,
	// so they share one address.
	Hidden []int
	// Precision selects the training compute dtype: "" or "f64" (the
	// default, normalized to "" before hashing) or "f32", which runs
	// forward/backward through the float32 micro-kernels against float64
	// master weights (nn/precision.go). It perturbs the trajectory, so
	// it is part of the canonical encoding — f32 and f64 runs of the
	// same experiment memoize separately.
	Precision string
}

// defaultHiddenWidth is the hidden-layer width a Spec without a Hidden
// override trains with (see buildScenario).
const defaultHiddenWidth = 64

// Canonical returns the deterministic encoding that is hashed into the
// Spec's content-address: JSON with fields in struct declaration order
// and no omitted fields. Equivalent Hidden spellings — nil, [], and the
// explicit default [defaultHiddenWidth], which all build bit-identical
// models — are normalized to nil so they cannot split the cache, and
// the default precision spellings ("", "f64") are normalized to "".
func (s Spec) Canonical() ([]byte, error) {
	if len(s.Hidden) == 0 || (len(s.Hidden) == 1 && s.Hidden[0] == defaultHiddenWidth) {
		s.Hidden = nil
	}
	if s.Precision == "f64" {
		s.Precision = ""
	}
	return json.Marshal(s)
}

// Hash returns the Spec's content-address: hex SHA-256 over the
// canonical encoding and CodeVersion.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", fmt.Errorf("engine: canonicalize spec: %w", err)
	}
	return hashParts("spec", string(c)), nil
}

func hashParts(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // separator so ("ab","c") != ("a","bc")
	}
	h.Write([]byte(CodeVersion))
	return hex.EncodeToString(h.Sum(nil))
}

// Validate reports whether the Spec describes a runnable experiment.
func (s Spec) Validate() error {
	if _, err := NewAlgorithm(s.Method); err != nil {
		return err
	}
	switch s.Dataset {
	case "PACS", "OfficeHome":
		if s.NumDomains != 0 || s.NumClasses != 0 || s.ClassesPerDomain != 0 {
			return fmt.Errorf("engine: %s preset takes no NumDomains/NumClasses/ClassesPerDomain", s.Dataset)
		}
	case "IWildCam":
		if s.NumDomains <= 0 || s.NumClasses <= 0 || s.ClassesPerDomain <= 0 {
			return fmt.Errorf("engine: IWildCam preset needs NumDomains/NumClasses/ClassesPerDomain > 0")
		}
	default:
		return fmt.Errorf("engine: unknown dataset preset %q (want PACS|OfficeHome|IWildCam)", s.Dataset)
	}
	if len(s.Split.Train) == 0 {
		return fmt.Errorf("engine: spec has no training domains")
	}
	if s.Clients <= 0 || s.SampleK <= 0 || s.Rounds <= 0 || s.PerDomain <= 0 {
		return fmt.Errorf("engine: spec sizing must be positive (clients=%d sampleK=%d rounds=%d perDomain=%d)",
			s.Clients, s.SampleK, s.Rounds, s.PerDomain)
	}
	if s.SampleK > s.Clients {
		return fmt.Errorf("engine: SampleK %d exceeds client population %d", s.SampleK, s.Clients)
	}
	for _, h := range s.Hidden {
		if h <= 0 {
			return fmt.Errorf("engine: non-positive hidden width in %v", s.Hidden)
		}
	}
	if (len(s.Split.Val) > 0 || len(s.Split.Test) > 0) && s.EvalPer <= 0 {
		return fmt.Errorf("engine: spec with val/test domains needs EvalPer > 0")
	}
	if s.Lambda < 0 {
		return fmt.Errorf("engine: negative lambda %g", s.Lambda)
	}
	if _, err := nn.ParsePrecision(s.Precision); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// genConfig materializes the corpus generator config the Spec names.
func (s Spec) genConfig() (synth.Config, error) {
	switch s.Dataset {
	case "PACS":
		return synth.PACSConfig(s.GenSeed), nil
	case "OfficeHome":
		return synth.OfficeHomeConfig(s.GenSeed), nil
	case "IWildCam":
		return synth.IWildCamConfig(s.GenSeed, s.NumDomains, s.NumClasses, s.ClassesPerDomain), nil
	}
	return synth.Config{}, fmt.Errorf("engine: unknown dataset preset %q", s.Dataset)
}

// scenarioKey is the content-address of the Spec's scenario — the built
// environment, clients, and eval sets — which is shared by every method
// evaluated on the same data. Fields that only affect training (method,
// round count, sampling, eval cadence, model retention) are masked out.
func (s Spec) scenarioKey() (string, error) {
	sc := s
	sc.Method = "FedAvg" // any valid method; masked out of the scenario
	sc.Rounds = 1
	sc.SampleK = 1
	sc.EvalEvery = 0
	sc.KeepModel = false
	sc.Precision = "" // compute dtype never changes the data
	c, err := sc.Canonical()
	if err != nil {
		return "", err
	}
	return hashParts("scenario", string(c)), nil
}
