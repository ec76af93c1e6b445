package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// workload is one traffic mix the benchmark drives.
type workload struct {
	name string
	// tailMax caps the percentile latency_tail_ms reports. It is fixed
	// per workload, below what the workload's sample count supports, so
	// a faster build never switches the tail to a higher percentile.
	tailMax float64
	setup   func(ctx context.Context, env *runEnv) (instance, error)
}

// instance is a workload that has been set up and can be measured once.
type instance interface {
	// measure drives the load until deadline; the operation in flight at
	// the deadline completes and counts.
	measure(ctx context.Context, deadline time.Time, out *outcome)
	// verify runs the correctness gates that need work outside the
	// measured phase.
	verify(ctx context.Context, out *outcome)
	close()
}

// runEnv is what a workload's set-up receives.
type runEnv struct {
	seed uint64
	size sizing
	dir  string  // private scratch directory, removed after the run
	tr   *tracer // nil when untraced
}

// outcome collects what one measured phase produced.
type outcome struct {
	mu       sync.Mutex
	ops      int
	failed   int
	problems []string
	latMs    []float64
	digests  map[string]string  // Spec content-address → model blob SHA-256
	layers   map[string]float64 // per-layer metrics the workload reads itself
}

func newOutcome() *outcome {
	return &outcome{digests: map[string]string{}, layers: map[string]float64{}}
}

// done records one completed operation and its latency.
func (o *outcome) done(lat time.Duration) {
	o.mu.Lock()
	o.ops++
	o.latMs = append(o.latMs, float64(lat)/1e6)
	o.mu.Unlock()
}

// fail records one failed or wrong operation (or violated gate).
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops++
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// digest records a cell's model digest; the same content-address must
// always produce the same model.
func (o *outcome) digest(key, sum string) {
	o.mu.Lock()
	prev, seen := o.digests[key]
	o.digests[key] = sum
	o.mu.Unlock()
	if seen && prev != sum {
		o.fail("cell %.12s: model digest changed between runs of one Spec", key)
	}
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Latency   summary            `json:"latency"`
	SetupS    []float64          `json:"setup_runs_s"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Trace     *traceSummary      `json:"trace,omitempty"`
}

// quietLogger formats every log line like a serving process would and
// discards it, so logging costs what it costs in production without
// flooding the benchmark's output.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newEngine opens an engine with its own metrics registry.
func newEngine(opts engine.Options) (*engine.Engine, error) {
	opts.Metrics = telemetry.NewRegistry()
	opts.Logger = quietLogger()
	return engine.New(opts)
}

// trainCell runs one Spec the way the engine does — scenario, method,
// fl.Run — and returns the SHA-256 of its checkpoint blob. With a tracer
// the call is timed into spans under ctx's span.
func trainCell(ctx context.Context, eng *engine.Engine, sp engine.Spec, tr *tracer, built map[string]bool) (string, *fl.History, error) {
	key, err := sp.Hash()
	if err != nil {
		return "", nil, err
	}
	ctx, cell := tr.begin(ctx, "bench.cell", key[:12])
	defer cell.end()
	_, scen := tr.begin(ctx, "engine.scenario", "")
	sc, err := eng.BuildScenario(sp)
	if err != nil {
		return "", nil, err
	}
	scKey := fmt.Sprint(sp.GenSeed, "/", sp.Seed)
	scen.end("miss", strconv.FormatBool(!built[scKey]))
	built[scKey] = true

	alg, err := engine.NewAlgorithm(sp.Method)
	if err != nil {
		return "", nil, err
	}
	prec, err := nn.ParsePrecision(sp.Precision)
	if err != nil {
		return "", nil, err
	}
	runCtx, flRun := tr.begin(ctx, "fl.run", "")
	if tr != nil {
		alg = &algorithm{Algorithm: alg, t: tr, parent: parentOf(runCtx)}
	}
	model, hist, err := fl.Run(sc.Env, alg, sc.Clients, sc.Val, sc.Test, fl.RunConfig{
		Rounds: sp.Rounds, SampleK: sp.SampleK, EvalEvery: sp.EvalEvery, Precision: prec, Context: ctx,
	})
	// slots is the width of fl.Run's local-training pool for this run.
	slots := min(cmp.Or(sc.Env.Parallelism, runtime.NumCPU()), sp.SampleK)
	flRun.end("method", sp.Method, "precision", precisionName(sp.Precision), "slots", strconv.Itoa(slots))
	if err != nil {
		return "", nil, err
	}
	blob, err := model.MarshalBinary()
	if err != nil {
		return "", nil, err
	}
	return sha(blob), hist, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkStats reports whether a run's evaluation history is sane: at
// least one snapshot and a final test accuracy inside [0, 1].
func checkStats(n int, final float64) error {
	if n == 0 {
		return fmt.Errorf("no evaluation snapshots")
	}
	if math.IsNaN(final) || final < 0 || final > 1 {
		return fmt.Errorf("final test accuracy %v outside [0,1]", final)
	}
	return nil
}

// warmUp trains one tiny Spec on eng, untimed, so the kernel pool and
// the arena pools exist before anything is measured. Tiny PACS models
// have the same arena sizes as the benchmark's.
func warmUp(ctx context.Context, eng *engine.Engine, sz sizing) error {
	sp := sz.stored
	sp.Method, sp.GenSeed, sp.Seed = "FedAvg", 1, 1
	_, _, err := trainCell(ctx, eng, sp, nil, map[string]bool{})
	return err
}

// runWorkload sets a workload up sz.setups times, measures the last
// instance set up before the window for the given duration, checks its
// outputs, and reduces everything to the reported metrics. A traced run
// also derives the per-layer metrics and, when traceDir is set, writes
// its spans there.
func runWorkload(ctx context.Context, w workload, seed uint64, sz sizing, seconds float64, traced bool, scratch, traceDir string) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	// Each set-up is timed alone: the previous instance's goroutines (a
	// fleet's polling workers) have stopped and its heap has been
	// collected before the clock starts.
	setup := func(i int) (instance, error) {
		dir := filepath.Join(scratch, fmt.Sprintf("%s-%d", w.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		inst, err := w.setup(ctx, &runEnv{seed: seed, size: sz, dir: dir, tr: tr})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
		return inst, nil
	}
	// Half the set-ups run before the measured window and half after it,
	// so their median covers the whole run rather than its first second,
	// when a slow spell of the host would decide it.
	before := (sz.setups + 1) / 2
	var inst instance
	for i := 0; i < before; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = setup(i); err != nil {
			return nil, err
		}
	}

	out := newOutcome()
	runtime.GC()
	kernBefore := counters(telemetry.Default())
	root := span{ID: tr.newID(), Name: "bench.window", Start: time.Now()}
	measureCtx := ctx
	if tr != nil {
		measureCtx = context.WithValue(ctx, spanKey{}, root.ID)
	}
	inst.measure(measureCtx, root.Start.Add(time.Duration(seconds*float64(time.Second))), out)
	root.End = time.Now()
	kernAfter := counters(telemetry.Default())
	inst.verify(ctx, out)
	rss := peakRSSMB()
	inst.close()
	for i := before; i < sz.setups; i++ {
		extra, err := setup(i)
		if err != nil {
			return nil, err
		}
		extra.close()
	}

	elapsed := root.End.Sub(root.Start).Seconds()
	res.Latency = summarize(out.latMs, w.tailMax)
	res.Attempted, res.Failed, res.Problems = out.ops, out.failed, out.problems
	res.Correct = out.failed == 0 && out.ops > out.failed
	res.Digests = out.digests
	res.Metrics = map[string]float64{
		"setup_s":         median(res.SetupS),
		"ops_per_s":       float64(out.ops-out.failed) / elapsed,
		"latency_p50_ms":  res.Latency.P50,
		"latency_tail_ms": res.Latency.Tail,
		"peak_rss_mb":     rss,
	}
	if !traced {
		return res, nil
	}

	res.Layers = map[string]float64{}
	for _, d := range perLayer {
		res.Layers[d.Name] = 0
	}
	res.Layers["bench.latency_tail_ms"] = res.Latency.Tail
	ops := float64(max(out.ops-out.failed, 1))
	perOp := func(name string) float64 { return (kernAfter[name] - kernBefore[name]) / ops }
	res.Layers["tensor.kernel_calls"] = perOp("kernel_call_seconds_count")
	res.Layers["tensor.kernel_s"] = perOp("kernel_call_seconds_sum")
	res.Layers["tensor.pool_tasks"] = perOp("kernel_pool_tasks_total")
	res.Layers["tensor.inline_panels"] = perOp("kernel_inline_panels_total")
	res.Layers["tensor.serial_calls"] = perOp("kernel_serial_calls_total")
	for k, v := range out.layers {
		res.Layers[k] = v
	}
	spans := window(tr.snapshot(), root)
	spanLayers(spans, ops, res.Layers)
	sum := summarizeTrace(w.name, spans, root)
	res.Trace = &sum
	res.Layers["trace.coverage"] = sum.Coverage
	if traceDir != "" {
		if err := writeTrace(traceDir, w.name, spans, sum); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spanLayers derives the span-based per-layer metrics; ops is the
// number of completed operations counts are normalized by.
func spanLayers(spans []span, ops float64, m map[string]float64) {
	byID := make(map[string]span, len(spans))
	byName := map[string][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	ms := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.dur()) / 1e6
		}
		return out
	}

	// fl: the round loop, from the Algorithm wrapper, in seconds per
	// fl.Run (per run of that method or precision for the split ones).
	runs := map[string]float64{}
	for _, s := range byName["fl.run"] {
		runs[""]++
		runs[s.Attrs["method"]]++
		runs[s.Attrs["precision"]]++
		m["fl.run_s"] += s.dur().Seconds()
	}
	for _, s := range byName["fl.setup"] {
		m["fl.setup_s"] += s.dur().Seconds()
	}
	for _, s := range byName["fl.aggregate"] {
		m["fl.aggregate_s"] += s.dur().Seconds()
		m["fl.aggregate_s."+byID[s.Parent].Attrs["method"]] += s.dur().Seconds()
	}
	lt := byName["fl.local_train"]
	ltSum := summarize(ms(lt), 95)
	m["fl.local_train_p50_ms"] = ltSum.P50
	if ltSum.TailP == 95 {
		m["fl.local_train_p95_ms"] = ltSum.Tail
	}
	// A round's local phase runs from its first LocalTrain start to its
	// last LocalTrain end; the pool is busy for the sum of LocalTrain
	// times out of phase × pool width.
	type roundKey struct{ run, round string }
	phase := map[roundKey][2]time.Time{}
	busy, capacity := 0.0, 0.0
	for _, s := range lt {
		run := byID[s.Parent]
		d := s.dur().Seconds()
		busy += d
		m["fl.local_train_s"] += d
		m["fl.local_train_s."+run.Attrs["precision"]] += d
		m["fl.local_train_s."+run.Attrs["method"]] += d
		k := roundKey{s.Parent, s.Attrs["round"]}
		p, ok := phase[k]
		if !ok || s.Start.Before(p[0]) {
			p[0] = s.Start
		}
		if !ok || s.End.After(p[1]) {
			p[1] = s.End
		}
		phase[k] = p
	}
	for k, p := range phase {
		d := p[1].Sub(p[0]).Seconds()
		m["fl.local_phase_s"] += d
		slots, _ := strconv.Atoi(byID[k.run].Attrs["slots"])
		capacity += d * float64(slots)
	}
	if capacity > 0 {
		m["fl.pool_busy_share"] = busy / capacity
	}
	m["fl.self_s"] = m["fl.run_s"] - m["fl.setup_s"] - m["fl.local_phase_s"] - m["fl.aggregate_s"]
	for _, d := range perLayer {
		if d.Unit != "s/run" {
			continue
		}
		// split is "" for the totals, a method or a precision otherwise.
		if _, split, _ := strings.Cut(d.Name, "_s."); runs[split] > 0 {
			m[d.Name] /= runs[split]
		} else {
			m[d.Name] = 0
		}
	}

	// engine: scenario builds are the BuildScenario calls that missed
	// the scenario cache.
	builds, buildS := 0.0, 0.0
	for _, s := range byName["engine.scenario"] {
		if s.Attrs["miss"] == "true" {
			builds++
			buildS += s.dur().Seconds()
		}
	}
	if builds > 0 {
		m["engine.scenario_build_s"] = buildS / builds
		m["engine.scenario_builds"] = builds / ops
	}

	// engine and client: the submit route, from both ends.
	handler := byName["engine.handler.submit"]
	if len(handler) > 0 {
		h := summarize(ms(handler), 99)
		m["engine.handler_p50_ms"], m["engine.handler_tail_ms"] = h.P50, h.Tail
		sub := summarize(ms(byName["client.submit"]), 99)
		m["client.submit_p50_ms"], m["client.submit_tail_ms"] = sub.P50, sub.Tail
		var overhead []float64
		for _, s := range handler {
			if c, ok := byID[s.Parent]; ok {
				overhead = append(overhead, float64(c.dur()-s.dur())/1e6)
			}
		}
		m["client.roundtrip_overhead_p50_ms"] = summarize(overhead, 50).P50
	}

	// dist: the workers' side of the lease protocol; a 204 no-work pull
	// is wasted.
	pulls := byName["dist.lease"]
	granted := 0.0
	for _, s := range pulls {
		if s.Status == 200 {
			granted++
		}
	}
	if len(pulls) > 0 {
		m["dist.lease_grant_ratio"] = granted / float64(len(pulls))
	}
	m["dist.lease_pull_p50_ms"] = summarize(ms(pulls), 50).P50
	m["dist.lease_pulls"] = float64(len(pulls)) / ops
	m["dist.heartbeat_p50_ms"] = summarize(ms(byName["dist.heartbeat"]), 50).P50
	m["dist.heartbeats"] = float64(len(byName["dist.heartbeat"])) / ops
	m["dist.complete_p50_ms"] = summarize(ms(byName["dist.complete"]), 50).P50
	m["dist.upload_p50_ms"] = summarize(ms(byName["dist.upload"]), 50).P50
	for _, s := range byName["dist.upload"] {
		m["dist.upload_bytes"] += float64(s.Bytes) / ops
	}
	m["dist.peer_fetches"] = float64(len(byName["dist.peer_fetch"])) / ops
}

func precisionName(p string) string { return cmp.Or(p, "f64") }
