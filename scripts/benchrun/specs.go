package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/pardon-feddg/pardon/internal/engine"
)

// tableMethods are the Table-I methods: FedAvg plus the six compared.
var tableMethods = append([]string{"FedAvg"}, engine.MethodNames()...)

// allMethods is every method name engine.NewAlgorithm accepts.
var allMethods = []string{
	"FedAvg", "FedSR", "FedGMA", "FPL", "FedDG-GA", "CCST", "CCST-sample",
	"PARDON", "PARDON-v1", "PARDON-v2", "PARDON-v3", "PARDON-v4", "PARDON-v5",
}

// sizing fixes the size of every generated Spec. The benchmark runs at
// fullSize; tests and quick checks run the same code at smokeSize.
type sizing struct {
	// grid is the train-grid and fleet-sweep cell template: the eval
	// "Small" PACS sizing of the paper's Table I.
	grid engine.Spec
	// stored sizes the api-cached Specs, trained once during set-up.
	stored engine.Spec
	// fresh is the one scenario every api-fresh job trains on.
	fresh engine.Spec
	// freshEvalEvery is how many EvalEvery values the api-fresh pool
	// crosses with methods × SampleK × Rounds∈{1,2}.
	freshEvalEvery int
	// setups is how many times a run sets its workload up; setup_s is
	// the median.
	setups int
}

var fullSize = sizing{
	grid: engine.Spec{Dataset: "PACS", Split: engine.SplitSpec{Name: "table1", Train: []int{0, 1, 2}, Test: []int{3}},
		Lambda: 0.1, Clients: 20, SampleK: 4, Rounds: 12, PerDomain: 320, EvalPer: 260, Tag: "benchrun-grid"},
	stored: engine.Spec{Dataset: "PACS", Split: engine.SplitSpec{Name: "stored", Train: []int{0, 1}, Test: []int{3}},
		Lambda: 0.1, Clients: 2, SampleK: 2, Rounds: 1, PerDomain: 24, EvalPer: 12, Tag: "benchrun-stored"},
	fresh: engine.Spec{Dataset: "PACS", Split: engine.SplitSpec{Name: "fresh", Train: []int{0, 1, 2}, Test: []int{3}},
		Lambda: 0.1, Clients: 8, PerDomain: 64, EvalPer: 32, Tag: "benchrun-fresh"},
	freshEvalEvery: 12,
	setups:         9,
}

var smokeSize = sizing{
	grid: engine.Spec{Dataset: "PACS", Split: engine.SplitSpec{Name: "table1", Train: []int{0, 1}, Test: []int{3}},
		Lambda: 0.1, Clients: 2, SampleK: 2, Rounds: 1, PerDomain: 16, EvalPer: 8, Tag: "benchrun-grid"},
	stored:         fullSize.stored,
	fresh:          fullSize.fresh,
	freshEvalEvery: 1,
	setups:         2,
}

// derive maps (seed, stream, i) to a non-zero 64-bit value, so every
// generated seed follows from the benchmark's -seed alone.
func derive(seed uint64, stream string, i int) uint64 {
	h := sha256.Sum256([]byte(strconv.FormatUint(seed, 10) + "/" + stream + "/" + strconv.Itoa(i)))
	return binary.LittleEndian.Uint64(h[:8]) | 1
}

// gridCell is one train-grid cell: method × precision on seed block b.
// Precision "" is f64, the spelling a sweep without a precision axis
// produces, so fleet-sweep cells hash to the same content-address.
func gridCell(sz sizing, seed uint64, b int, method, precision string) engine.Spec {
	sp := sz.grid
	sp.Method = method
	sp.GenSeed = derive(seed, "grid-gen", b)
	sp.Seed = derive(seed, "grid-run", b)
	sp.Precision = precision
	return sp
}

// gridBlock is seed block b of the train-grid: the seven Table-I
// methods at f64 and at f32 on one scenario.
func gridBlock(sz sizing, seed uint64, b int) []engine.Spec {
	out := make([]engine.Spec, 0, 2*len(tableMethods))
	for _, m := range tableMethods {
		out = append(out, gridCell(sz, seed, b, m, ""), gridCell(sz, seed, b, m, "f32"))
	}
	return out
}

// fleetSweep is fleet-sweep's k-th sweep: the f64 half of train-grid
// seed blocks 2k and 2k+1, so each of its cells has a train-grid twin
// with the same content-address.
func fleetSweep(sz sizing, seed uint64, k int) engine.Sweep {
	base := gridCell(sz, seed, 2*k, tableMethods[0], "")
	sw := engine.Sweep{Base: base, Methods: tableMethods}
	for _, b := range []int{2 * k, 2*k + 1} {
		sw.Seeds = append(sw.Seeds, engine.SeedSpec{Seed: derive(seed, "grid-run", b), GenSeed: derive(seed, "grid-gen", b)})
	}
	return sw
}

// storedSpecs are api-cached's 16 Specs, trained during set-up and then
// only ever answered from the store.
func storedSpecs(sz sizing, seed uint64) []engine.Spec {
	out := make([]engine.Spec, 16)
	for i := range out {
		sp := sz.stored
		sp.Method = allMethods[i%len(allMethods)]
		sp.GenSeed = derive(seed, "stored-gen", 0)
		sp.Seed = derive(seed, "stored-run", i)
		out[i] = sp
	}
	return out
}

// freshSpecs is api-fresh's pool of never-seen Specs on one scenario:
// every method × SampleK × Rounds∈{1,2} × EvalEvery combination. The
// order is stratified so any prefix has nearly the same mix of costs:
// EvalEvery (which costs nothing extra) is outermost, each group under
// it holds every (SampleK, Rounds) pair in a seeded order, and every
// (SampleK, Rounds) pair runs all methods in a seeded order. The pool is
// returned with its content-addresses and refused if two Specs share
// one: the workload promises that no submission is a cache hit.
func freshSpecs(sz sizing, seed uint64) ([]engine.Spec, []string, error) {
	r := rand.New(rand.NewSource(int64(derive(seed, "fresh-order", 0) >> 1)))
	type kr struct{ k, rounds int }
	var pairs []kr
	for k := 1; k <= sz.fresh.Clients; k++ {
		for rounds := 1; rounds <= 2; rounds++ {
			pairs = append(pairs, kr{k, rounds})
		}
	}
	base := sz.fresh
	base.GenSeed = derive(seed, "fresh-gen", 0)
	base.Seed = derive(seed, "fresh-run", 0)
	var out []engine.Spec
	var hashes []string
	seen := map[string]bool{}
	for e := 0; e < sz.freshEvalEvery; e++ {
		for _, pi := range r.Perm(len(pairs)) {
			for _, mi := range r.Perm(len(allMethods)) {
				sp := base
				sp.Method = allMethods[mi]
				sp.SampleK, sp.Rounds, sp.EvalEvery = pairs[pi].k, pairs[pi].rounds, e
				h, err := sp.Hash()
				if err != nil {
					return nil, nil, err
				}
				if seen[h] {
					return nil, nil, fmt.Errorf("api-fresh pool: %s k=%d rounds=%d every=%d repeats a content-address",
						sp.Method, sp.SampleK, sp.Rounds, sp.EvalEvery)
				}
				seen[h] = true
				out, hashes = append(out, sp), append(hashes, h)
			}
		}
	}
	return out, hashes, nil
}
