package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// MaxSweepSpecs caps how many grid cells one Sweep may expand to, so a
// malformed remote submission cannot enqueue an unbounded amount of
// work in a single request.
const MaxSweepSpecs = 4096

// SeedSpec is one entry of a Sweep's seed axis. Besides the run seed it
// can pin the corpus-generator seed, because consumers (internal/eval)
// derive GenSeed from the run seed — a seed axis that left GenSeed fixed
// would average over re-partitions of the SAME generated corpus instead
// of fresh corpora.
type SeedSpec struct {
	// Seed overrides Spec.Seed for this grid row.
	Seed uint64 `json:"seed"`
	// GenSeed, when non-zero, overrides Spec.GenSeed for this grid row;
	// zero keeps the base Spec's generator seed.
	GenSeed uint64 `json:"gen_seed,omitempty"`
}

// UnmarshalJSON accepts either a bare number (just the run seed) or the
// {"seed":…,"gen_seed":…} object form, so simple sweeps stay simple on
// the wire: {"seeds":[1,2,3]}.
func (s *SeedSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] != '{' {
		s.GenSeed = 0
		return json.Unmarshal(b, &s.Seed)
	}
	type plain SeedSpec
	return json.Unmarshal(b, (*plain)(s))
}

// Sweep is a declarative parameter grid over a base Spec — the paper's
// tables and figures are exactly such grids (methods × splits × seeds ×
// λ × client counts × model depths). Every populated axis replaces the
// corresponding Base field; an empty axis keeps the Base value, so a
// Sweep with no axes is a grid of one.
//
// Expansion nests the axes in a fixed, documented order (outermost
// first): Splits, Lambdas, Clients, Hiddens, Precisions, Seeds,
// Methods. Consumers that accumulate per-cell results (internal/eval's
// tables) rely on this order being deterministic.
type Sweep struct {
	// Base is the template Spec every grid cell starts from.
	Base Spec `json:"base"`
	// Methods replaces Base.Method per cell.
	Methods []string `json:"methods,omitempty"`
	// Splits replaces Base.Split per cell.
	Splits []SplitSpec `json:"splits,omitempty"`
	// Lambdas replaces Base.Lambda per cell.
	Lambdas []float64 `json:"lambdas,omitempty"`
	// Clients replaces Base.Clients per cell.
	Clients []int `json:"clients,omitempty"`
	// Hiddens replaces Base.Hidden per cell.
	Hiddens [][]int `json:"hiddens,omitempty"`
	// Precisions replaces Base.Precision per cell ("f64"/"f32"), so one
	// sweep can compare compute dtypes on otherwise identical runs.
	Precisions []string `json:"precisions,omitempty"`
	// Seeds replaces Base.Seed (and optionally Base.GenSeed) per cell.
	Seeds []SeedSpec `json:"seeds,omitempty"`
}

// Size returns the number of grid cells the Sweep expands to, clamped
// to MaxSweepSpecs+1 once the product exceeds the cap: the clamp keeps
// the running product small, so a remote grid of many huge axes cannot
// overflow the multiplication and wrap back under the cap Expand
// enforces.
func (sw Sweep) Size() int {
	n := 1
	for _, axis := range []int{
		len(sw.Methods), len(sw.Splits), len(sw.Lambdas),
		len(sw.Clients), len(sw.Hiddens), len(sw.Precisions), len(sw.Seeds),
	} {
		if axis > 0 {
			n *= axis
			if n > MaxSweepSpecs {
				return MaxSweepSpecs + 1
			}
		}
	}
	return n
}

// Expand materializes the grid into one Spec per cell, in the fixed
// nesting order (Splits → Lambdas → Clients → Hiddens → Precisions →
// Seeds → Methods, outermost first). Cells are validated; equal cells are NOT
// collapsed here — SubmitSweep deduplicates by content-address so a
// Batch can still report per-cell results in grid order.
func (sw Sweep) Expand() ([]Spec, error) {
	if n := sw.Size(); n > MaxSweepSpecs {
		return nil, fmt.Errorf("engine: sweep expands to %d specs, cap is %d", n, MaxSweepSpecs)
	}
	splits, lambdas := axis(sw.Splits, sw.Base.Split), axis(sw.Lambdas, sw.Base.Lambda)
	clients, hiddens := axis(sw.Clients, sw.Base.Clients), axis(sw.Hiddens, sw.Base.Hidden)
	precisions, methods := axis(sw.Precisions, sw.Base.Precision), axis(sw.Methods, sw.Base.Method)
	seeds := axis(sw.Seeds, SeedSpec{Seed: sw.Base.Seed, GenSeed: sw.Base.GenSeed})
	specs := make([]Spec, 0, sw.Size())
	for _, split := range splits {
		for _, lambda := range lambdas {
			for _, nClients := range clients {
				for _, hidden := range hiddens {
					for _, precision := range precisions {
						for _, seed := range seeds {
							for _, method := range methods {
								sp := sw.Base
								sp.Split = split
								sp.Lambda = lambda
								sp.Clients = nClients
								sp.Hidden = hidden
								sp.Precision = precision
								sp.Seed = seed.Seed
								if seed.GenSeed != 0 {
									sp.GenSeed = seed.GenSeed
								}
								sp.Method = method
								if err := sp.Validate(); err != nil {
									return nil, fmt.Errorf("engine: sweep cell %d (%s, seed %d): %w",
										len(specs), method, seed.Seed, err)
								}
								specs = append(specs, sp)
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}

// axis is a Sweep axis's values, or the Base value alone when it is empty.
func axis[T any](values []T, base T) []T {
	if len(values) == 0 {
		return []T{base}
	}
	return values
}

// BatchCounts is the aggregate state of a Batch: how many grid cells it
// covers, how many distinct jobs back them, and the per-state breakdown
// of those jobs.
type BatchCounts struct {
	// Total is the number of grid cells (duplicate cells share a job).
	Total int `json:"total"`
	// Unique is the number of distinct content-addressed jobs.
	Unique    int `json:"unique"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Cached counts jobs answered from the result store without training.
	Cached int `json:"cached"`
}

// Terminal reports whether every job of the batch has finished.
func (c BatchCounts) Terminal() bool { return c.Queued == 0 && c.Running == 0 }

// Batch is the handle SubmitSweep returns: the sweep's per-cell jobs
// (duplicated cells share the job of their content-address), aggregate
// state, a merged event stream, batch-wide wait, and cancel-all. All
// methods are safe for concurrent use.
type Batch struct {
	// ID is the engine-unique batch identifier ("sweep-N").
	ID string
	// TraceID correlates the sweep's submission with its cell jobs: each
	// fresh cell job's trace is "<TraceID>-cN", so one prefix-grep over
	// the server log follows the whole grid.
	TraceID string
	// Tenant attributes the sweep to the authenticated tenant that
	// submitted it ("anonymous" when auth is off).
	Tenant string
	// Created is the submission time.
	Created time.Time

	seq    int64 // N of the "sweep-N" ID
	eng    *Engine
	specs  []Spec // per cell, in grid order
	jobs   []*Job // per cell; duplicate cells alias one *Job
	unique []*Job // distinct jobs, first-appearance order
}

// Size returns the number of grid cells.
func (b *Batch) Size() int { return len(b.jobs) }

// Specs returns the expanded per-cell Specs in grid order.
func (b *Batch) Specs() []Spec { return b.specs }

// Jobs returns the per-cell jobs in grid order; cells whose Specs share
// a content-address share the *Job.
func (b *Batch) Jobs() []*Job { return b.jobs }

// Unique returns the batch's distinct jobs in first-appearance order.
func (b *Batch) Unique() []*Job { return b.unique }

// Counts snapshots the batch's aggregate state.
func (b *Batch) Counts() BatchCounts {
	c := BatchCounts{Total: len(b.jobs), Unique: len(b.unique)}
	for _, j := range b.unique {
		switch j.State() {
		case StateQueued:
			c.Queued++
		case StateRunning:
			c.Running++
		case StateDone:
			c.Done++
		case StateFailed:
			c.Failed++
		case StateCancelled:
			c.Cancelled++
		}
		if j.Cached() {
			c.Cached++
		}
	}
	return c
}

// Wait blocks until every job is terminal and returns one Result per
// grid cell, in grid order, read from the Store. On the first job
// failure the batch's remaining solely-owned jobs are cancelled (jobs
// coalesced with submissions outside the batch are left running) and
// the failure is returned. A Done cell whose Result the Store has let
// go (a capped disk cache evicted it) is no failure: Wait cancels
// nothing and resubmits the cell's Spec, which recomputes the Result. A
// dead ctx is the caller going away, not the work failing: the batch
// keeps running so the caller can re-attach and wait again.
func (b *Batch) Wait(ctx context.Context) ([]*Result, error) {
	out := make([]*Result, len(b.jobs))
	for i, j := range b.jobs {
		res, err := j.Wait(ctx)
		if err != nil && ctx.Err() == nil && j.State() == StateDone {
			if j, err = b.eng.SubmitAs(b.specs[i], 0, "", b.Tenant); err == nil {
				res, err = j.Wait(ctx)
			}
		} else if err != nil && ctx.Err() == nil {
			b.Cancel()
		}
		if err != nil {
			sp := b.specs[i]
			return nil, fmt.Errorf("engine: %s cell %d (%s on %s/%s): %w",
				b.ID, i, sp.Method, sp.Dataset, sp.Split.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

// Cancel aborts every non-terminal job the batch solely owns. Jobs
// shared with submissions outside the batch (coalesced) are left
// running — cancelling them would fail a run another caller still
// waits on.
func (b *Batch) Cancel() {
	for _, j := range b.unique {
		if !j.State().Terminal() && j.Submissions() == 1 {
			_ = b.eng.Cancel(j.ID)
		}
	}
}

// Events returns the batch's merged progress stream: every event of
// every distinct job, fanned into one channel that closes once all jobs
// are terminal or ctx is cancelled. Events carry their JobID, so
// consumers can demultiplex. Each subscription starts with a snapshot
// of every job's current state, so late subscribers (and reconnecting
// SSE clients) resume from the present instead of missing the picture.
func (b *Batch) Events(ctx context.Context) <-chan Event {
	out := make(chan Event, 256)
	var wg sync.WaitGroup
	for _, j := range b.unique {
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			for ev := range j.Subscribe() {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
		}(j)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
