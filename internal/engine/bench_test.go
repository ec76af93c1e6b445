package engine

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// quietLog discards every log line, so the engines built here print no
// job log among the benchmark result lines.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// sweepSpecs is a reduced method×seed sweep (the shape of one Table I
// scheme) used to measure engine throughput.
func sweepSpecs() []Spec {
	var specs []Spec
	for _, seed := range []uint64{1, 1010} {
		for _, m := range []string{"FedAvg", "CCST", "PARDON"} {
			sp := tinySpec(m)
			sp.Seed = seed
			specs = append(specs, sp)
		}
	}
	return specs
}

func runSweep(b *testing.B, e *Engine) {
	b.Helper()
	specs := sweepSpecs()
	jobs := make([]*Job, len(specs))
	for i, sp := range specs {
		j, err := e.Submit(sp, 0)
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCold measures a full sweep against an empty result
// store: every job trains.
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Options{Logger: quietLog})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runSweep(b, e)
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

// BenchmarkSweepCached measures the identical sweep against a warm
// store: every job is a content-address hit and zero rounds train. The
// cold/cached ratio is the engine's memoization payoff.
func BenchmarkSweepCached(b *testing.B) {
	e, err := New(Options{Logger: quietLog})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	runSweep(b, e) // warm the store
	rounds := e.Stats().RoundsExecuted
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(b, e)
	}
	b.StopTimer()
	if got := e.Stats().RoundsExecuted; got != rounds {
		b.Fatalf("cached sweep trained %d extra rounds", got-rounds)
	}
}

// BenchmarkScenarioBuild measures one uncached scenario build — corpus
// generation, encoder calibration, and encoding every client and test
// image through the frozen encoder — at the Table-I "Small" PACS sizing
// the benchrun train-grid and fleet-sweep workloads use (3 train
// domains × 320 images over 20 clients, 260 test images), at the
// per-job parallelism of a fleet worker (1) and of a 2-core node (2).
func BenchmarkScenarioBuild(b *testing.B) {
	spec := Spec{
		Method: "FedAvg", Dataset: "PACS", GenSeed: 3,
		Split:  SplitSpec{Name: "table1", Train: []int{0, 1, 2}, Test: []int{3}},
		Lambda: 0.1, Clients: 20, SampleK: 4, Rounds: 12, PerDomain: 320, EvalPer: 260,
		Seed: 5, Tag: "bench-scenario",
	}
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildScenario(spec, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCachedSubmitFullHistory prices one cache-hit submission —
// the api-cached read path minus HTTP — against a history that never
// fills ("empty": a fresh engine every 256 submissions, so neither the
// job history nor the trace store reaches its bound) and against one
// already holding maxRetainedJobs settled jobs ("full": every
// submission forgets one job and evicts one trace). Both forget in
// O(1), so the two should cost about the same.
func BenchmarkCachedSubmitFullHistory(b *testing.B) {
	open := func() (*Engine, Spec) {
		e, err := New(Options{Workers: -1, Logger: quietLog})
		if err != nil {
			b.Fatal(err)
		}
		return e, cachedSpec(b, e, "bench-history")
	}
	submit := func(e *Engine, sp Spec) {
		if j, err := e.Submit(sp, 0); err != nil || !j.Cached() {
			b.Fatalf("cached submit: %v", err)
		}
	}
	b.Run("history=empty", func(b *testing.B) {
		e, sp := open()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%256 == 0 {
				b.StopTimer()
				e.Close()
				e, sp = open()
				b.StartTimer()
			}
			submit(e, sp)
		}
		b.StopTimer()
		e.Close()
	})
	b.Run("history=full", func(b *testing.B) {
		e, sp := open()
		defer e.Close()
		for i := 0; i < maxRetainedJobs; i++ {
			submit(e, sp)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(e, sp)
		}
	})
}

// BenchmarkListJobsPage prices one GET /v1/jobs?limit=10 page, handler
// only, against a history holding a page and a cursor's worth of jobs
// ("empty": 16) and against one holding maxRetainedJobs ("full"). The
// listing walks down from its cursor and stops one job past the page,
// so the two should cost about the same.
func BenchmarkListJobsPage(b *testing.B) {
	for _, c := range []struct {
		name string
		jobs int
	}{{"history=empty", 16}, {"history=full", maxRetainedJobs}} {
		b.Run(c.name, func(b *testing.B) {
			// A discarded log keeps the 4096 cache-hit lines out of the
			// benchmark's result lines.
			e, err := New(Options{Workers: -1, Logger: quietLog})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			sp := cachedSpec(b, e, "bench-list")
			for i := 0; i < c.jobs; i++ {
				if _, err := e.Submit(sp, 0); err != nil {
					b.Fatal(err)
				}
			}
			srv := NewServer(e)
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs?limit=10", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET /v1/jobs?limit=10 = %d", rec.Code)
				}
			}
		})
	}
}
