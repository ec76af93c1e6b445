// Package eval contains the experiment runners that regenerate every table
// and figure of the paper's evaluation (see DESIGN.md for the index):
//
//	Table I   — RunLTDO        (PACS & Office-Home, leave-two-domains-out)
//	Table II  — RunLODO        (PACS & Office-Home, leave-one-domain-out)
//	Table III — RunIWildCam    (λ sweep on the IWildCam-style corpus)
//	Table IV  — attack.RunPrivacy (style-inversion privacy metrics)
//	Table V   — RunAblation    (PARDON v1–v5)
//	Fig. 1    — RunLandscape   (loss surface + feature separation)
//	Fig. 3    — RunConvergence (accuracy-vs-round at four λ)
//	Fig. 4    — RunOverhead    (per-phase wall-clock)
//	Fig. 5    — RunClientScaling (K/N sweep)
//	Fig. 8    — RunStyleTransferComparison (PARDON vs CCST transfer outputs)
//
// Every runner works at two scales: Small (seconds; used by tests and the
// benchmark harness) and Paper (the paper's client/round counts; used by
// cmd/feddg -scale paper). Scale changes sample/round/client counts only —
// never the structure of an experiment.
//
// Runners do not train directly: they describe each federated run as an
// engine.Spec and submit it to an experiment engine (internal/engine),
// which shards the runs across a bounded worker pool and memoizes results
// by content-address — re-generating a table over an unchanged cache does
// zero federated rounds.
package eval

import (
	"context"
	"fmt"
	"sync"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/engine"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Small runs in seconds; used by tests and benchmarks.
	Small Scale = iota + 1
	// Paper mirrors the paper's client/round counts.
	Paper
)

// ParseScale maps the CLI flag values to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small", "":
		return Small, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("eval: unknown scale %q (want small|paper)", s)
	}
}

// Config parameterizes a runner invocation.
type Config struct {
	Scale Scale
	// Seed roots all randomness; runs with equal Seed are reproducible.
	Seed uint64
	// Seeds averages results over this many seeds (default 1).
	Seeds int
	// Engine schedules and caches the federated runs. When nil a shared
	// in-memory default is used, so plain library calls still shard
	// across a worker pool; cmd/feddg wires a disk-backed engine here.
	Engine *engine.Engine
}

func (c Config) seeds() []uint64 {
	n := c.Seeds
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.Seed + uint64(i)*1009
	}
	return out
}

var (
	defaultEngineOnce sync.Once
	defaultEngine     *engine.Engine
)

// engine returns the configured engine, or the process-wide in-memory
// default, created on first use with the engine's own sizing; pass an
// explicit Engine to bound its CPU.
func (c Config) engine() *engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	defaultEngineOnce.Do(func() {
		var err error
		defaultEngine, err = engine.New(engine.Options{})
		if err != nil {
			// Only a disk-backed store can fail to open, and the default
			// is memory-only.
			panic(err)
		}
	})
	return defaultEngine
}

// MethodNames lists the six compared methods in the paper's table order.
func MethodNames() []string { return engine.MethodNames() }

// flSizing bundles the FL-simulation knobs that vary with Scale.
type flSizing struct {
	NumClients int
	SampleK    int
	Rounds     int
	PerDomain  int // generated samples per training domain
	EvalPer    int // evaluation samples per held-out domain
}

// pacsSizing returns the FL dimensions for PACS/Office-Home experiments
// (paper §IV-A: N=100, k=20%, 50 rounds).
func pacsSizing(s Scale) flSizing {
	if s == Paper {
		return flSizing{NumClients: 100, SampleK: 20, Rounds: 50, PerDomain: 1200, EvalPer: 700}
	}
	return flSizing{NumClients: 20, SampleK: 4, Rounds: 12, PerDomain: 320, EvalPer: 260}
}

// officeHomeSizing uses more samples so 65 classes stay learnable.
func officeHomeSizing(s Scale) flSizing {
	if s == Paper {
		return flSizing{NumClients: 100, SampleK: 20, Rounds: 50, PerDomain: 2600, EvalPer: 1300}
	}
	return flSizing{NumClients: 20, SampleK: 4, Rounds: 12, PerDomain: 650, EvalPer: 390}
}

// iwildSizing mirrors N=243, k=10%, 100 rounds at paper scale.
type iwildSizing struct {
	flSizing
	NumDomains       int
	NumClasses       int
	ClassesPerDomain int
}

func iwildcamSizing(s Scale) iwildSizing {
	if s == Paper {
		return iwildSizing{
			flSizing:   flSizing{NumClients: 243, SampleK: 24, Rounds: 100, PerDomain: 60, EvalPer: 30},
			NumDomains: 323, NumClasses: 182, ClassesPerDomain: 12,
		}
	}
	return iwildSizing{
		flSizing:   flSizing{NumClients: 27, SampleK: 5, Rounds: 12, PerDomain: 60, EvalPer: 30},
		NumDomains: 36, NumClasses: 30, ClassesPerDomain: 8,
	}
}

// flSpec translates one (method, corpus, split, seed) cell into the
// engine's canonical run description.
func flSpec(datasetName string, genSeed uint64, split dataset.Split, lambda float64, sz flSizing, method string, seed uint64, evalEvery int, tag string) engine.Spec {
	return engine.Spec{
		Method:    method,
		Dataset:   datasetName,
		GenSeed:   genSeed,
		Split:     engine.SplitSpec{Name: split.Name, Train: split.Train, Val: split.Val, Test: split.Test},
		Lambda:    lambda,
		Clients:   sz.NumClients,
		SampleK:   sz.SampleK,
		Rounds:    sz.Rounds,
		PerDomain: sz.PerDomain,
		EvalPer:   sz.EvalPer,
		EvalEvery: evalEvery,
		Seed:      seed,
		Tag:       tag,
	}
}

// sweepResults submits a parameter grid as one engine Batch and waits
// for every cell's result, returned in grid order so accumulation stays
// deterministic regardless of scheduling. On failure the batch cancels
// its remaining solely-owned jobs (jobs coalesced with another sweep
// are left alone — cancelling them would fail a run that may be
// healthy).
func sweepResults(eng *engine.Engine, sw engine.Sweep) ([]*engine.Result, error) {
	all, err := sweepAllResults(eng, []engine.Sweep{sw})
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

// sweepAllResults schedules several sweeps at once — so a multi-level
// runner (one sweep per λ or per population size) keeps the whole
// worker pool busy instead of draining it at every level boundary —
// then waits for them in order, returning per-sweep results in grid
// order. The first failure cancels the solely-owned jobs of every
// batch.
func sweepAllResults(eng *engine.Engine, sws []engine.Sweep) ([][]*engine.Result, error) {
	batches := make([]*engine.Batch, len(sws))
	for i, sw := range sws {
		b, err := eng.SubmitSweep(sw, 0)
		if err != nil {
			for _, prev := range batches[:i] {
				prev.Cancel()
			}
			return nil, fmt.Errorf("eval: %w", err)
		}
		batches[i] = b
	}
	out := make([][]*engine.Result, len(batches))
	for i, b := range batches {
		results, err := b.Wait(context.Background())
		if err != nil {
			for _, other := range batches {
				other.Cancel()
			}
			return nil, fmt.Errorf("eval: %w", err)
		}
		out[i] = results
	}
	return out, nil
}

// seedAxis builds a sweep's seed axis: each run seed paired with the
// corpus-generator seed the runners derive from it, so every seed of
// the average trains on a freshly generated corpus, not a re-partition
// of the same one.
func seedAxis(seeds []uint64, genSeed func(seed uint64) uint64) []engine.SeedSpec {
	out := make([]engine.SeedSpec, len(seeds))
	for i, s := range seeds {
		out[i] = engine.SeedSpec{Seed: s, GenSeed: genSeed(s)}
	}
	return out
}
