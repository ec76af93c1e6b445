// Package engine is the experiment-orchestration subsystem: it turns
// every federated-DG experiment of the reproduction into a schedulable,
// cacheable, cancellable job.
//
// The pieces:
//
//   - Spec        — a canonical, hashable description of one run (method ×
//     dataset preset × sizing × seed) whose SHA-256 content-address
//     (including CodeVersion) identifies the result it computes;
//   - Scheduler   — a bounded worker pool behind a priority+FIFO queue with
//     per-job context cancellation, submission coalescing, and progress
//     events streamed over channels;
//   - Store       — a content-addressed result cache (in-memory, optionally
//     disk-backed) so re-running a table or figure is O(cache-hit);
//   - Server      — the `feddg serve` HTTP/JSON API (submit / status /
//     result / cancel) over the stdlib net/http mux.
//
// internal/eval's table and figure runners submit Specs here instead of
// calling fl/core/baselines directly, so a full sweep shards across the
// worker pool and repeated regeneration hits the cache.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// MethodNames lists the six compared methods in the paper's table order.
func MethodNames() []string {
	return []string{"FedSR", "FedGMA", "FPL", "FedDG-GA", "CCST", "PARDON"}
}

// NewAlgorithm instantiates a method by table name. PARDON ablation
// variants are addressed as "PARDON-v1" … "PARDON-v5".
func NewAlgorithm(name string) (fl.Algorithm, error) {
	switch name {
	case "FedAvg":
		return &baselines.FedAvg{}, nil
	case "FedSR":
		return baselines.NewFedSR(), nil
	case "FedGMA":
		return baselines.NewFedGMA(), nil
	case "FPL":
		return baselines.NewFPL(), nil
	case "FedDG-GA":
		return baselines.NewFedDGGA(), nil
	case "CCST":
		return baselines.NewCCST(), nil
	case "CCST-sample":
		return baselines.NewCCSTSample(), nil
	case "PARDON":
		return core.New(core.DefaultOptions()), nil
	}
	if len(name) > 7 && name[:7] == "PARDON-" {
		opts, err := core.VariantOptions(name[7:])
		if err != nil {
			return nil, err
		}
		return core.New(opts), nil
	}
	return nil, fmt.Errorf("engine: unknown method %q", name)
}

// Options configures an Engine.
type Options struct {
	// Workers sizes the scheduler's worker pool; 0 means
	// max(1, NumCPU/2). Negative means no local workers at all: a
	// dispatch-only engine that queues and leases jobs to remote
	// workers (ClaimRemote) but never trains in-process — the shape of
	// a cluster coordinator.
	Workers int
	// CacheDir backs the result store on disk; "" keeps results in
	// memory only.
	CacheDir string
	// CacheMaxBytes caps the disk cache size (results + model
	// checkpoint blobs); least-recently-modified entries are evicted
	// past it. 0 = unbounded.
	CacheMaxBytes int64
	// Parallelism bounds each job's local-training worker pool; 0
	// means ceil(NumCPU/Workers), so a full worker pool totals about
	// NumCPU training goroutines instead of NumCPU per job.
	Parallelism int
	// Precision is the engine-wide default compute dtype ("", "f64" or
	// "f32") adopted by submitted Specs whose own Precision is empty.
	// Resolution happens before hashing, so an engine defaulting to f32
	// can never serve its f32-trained results under an f64 address (or
	// vice versa).
	Precision string
	// Metrics receives the engine's instruments; nil exports on the
	// process-wide telemetry.Default() registry. Stats reads these
	// instruments, so engines sharing a registry share their counts;
	// tests pass fresh registries to keep engines apart.
	Metrics *telemetry.Registry
	// Logger receives the engine's structured log lines (job lifecycle,
	// cache anomalies — every line tagged with the job's trace ID); nil
	// uses slog.Default().
	Logger *slog.Logger
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Submitted counts Spec submissions (sweep cells included).
	Submitted int64 `json:"submitted"`
	// CacheHits counts submissions answered from the result store.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts submissions attached to an already in-flight job.
	Coalesced int64 `json:"coalesced"`
	// RoundsExecuted counts federated rounds actually trained; cache
	// hits add zero.
	RoundsExecuted int64 `json:"rounds_executed"`
	// StoreEntries is the in-memory result-store size.
	StoreEntries int `json:"store_entries"`
	// StoreHits/StoreMisses are the store's lookup counters.
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	// Jobs is the number of jobs the scheduler knows.
	Jobs int `json:"jobs"`
}

// Engine bundles the scheduler, the result store, the write-ahead job
// journal, and the scenario cache. All methods are safe for concurrent
// use.
type Engine struct {
	store       *Store
	sched       *Scheduler
	journal     *Journal // nil when CacheDir is unset (memory-only engine)
	traces      *telemetry.TraceStore
	scenarios   *scenarioCache
	parallelism int
	precision   string // default Spec.Precision ("" = f64)
	metrics     *engineMetrics
	log         *slog.Logger

	tenantMu sync.RWMutex
	tenants  *Tenants // nil = auth off, no quotas

	batchMu    sync.Mutex
	batches    map[string]*Batch
	batchOrder []*Batch // retained batches in creation order
	nextBatch  int64
}

// New opens an Engine. A disk-backed engine (Options.CacheDir set)
// also opens the write-ahead job journal next to the Store and replays
// it: every job and sweep that was queued or running when the previous
// process died is re-enqueued (idempotently — cells whose Results are
// already cached are born done with zero training), then the journal is
// compacted down to what is still live.
func New(opts Options) (*Engine, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	store, err := newStoreWith(opts.CacheDir, reg, logger)
	if err != nil {
		return nil, err
	}
	if opts.CacheMaxBytes > 0 {
		store.SetMaxBytes(opts.CacheMaxBytes)
	}
	workers := opts.Workers
	switch {
	case workers < 0:
		workers = 0 // dispatch-only: remote workers do all training
	case workers == 0:
		workers = runtime.NumCPU() / 2
		if workers < 1 {
			workers = 1
		}
	}
	par := opts.Parallelism
	if par <= 0 {
		// Split the cores across the worker pool so a full pool of jobs
		// lands near NumCPU training goroutines in total, not NumCPU
		// per job.
		par = (runtime.NumCPU() + max(workers, 1) - 1) / max(workers, 1)
	}
	m := newEngineMetrics(reg)
	if _, err := nn.ParsePrecision(opts.Precision); err != nil {
		return nil, fmt.Errorf("engine: default precision: %w", err)
	}
	var jl *Journal
	if opts.CacheDir != "" {
		jl, err = openJournal(opts.CacheDir, newJournalMetrics(reg), logger)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		store:       store,
		journal:     jl,
		traces:      telemetry.NewTraceStore(0, 0),
		scenarios:   newScenarioCache(m),
		parallelism: par,
		precision:   opts.Precision,
		metrics:     m,
		log:         logger,
		batches:     map[string]*Batch{},
	}
	e.sched = newScheduler(workers, m, logger, e.run)
	e.sched.journal = jl
	e.sched.traces = e.traces
	e.replayJournal()
	return e, nil
}

// replayJournal re-enqueues the journal's live submissions at boot:
// sweeps first (a replayed sweep re-creates its cell jobs), then
// standalone jobs whose sweep — if any — did not replay. Replay errors
// are logged and skipped, never fatal: one Spec that no longer
// validates must not keep the server down.
func (e *Engine) replayJournal() {
	if e.journal == nil {
		return
	}
	jobs, sweeps := e.journal.live()
	replayedSweep := map[string]bool{}
	for _, rec := range sweeps {
		if _, err := e.SubmitSweepAs(*rec.Sweep, rec.Priority, rec.Trace, rec.Tenant); err != nil {
			e.log.Warn("engine: journal sweep replay failed", "trace", rec.Trace, "error", err)
			continue
		}
		replayedSweep[rec.Key] = true
		e.journal.metrics.replayed.With("sweep").Inc()
	}
	for _, rec := range jobs {
		if rec.SweepTrace != "" && replayedSweep[rec.SweepTrace] {
			continue // re-created as a cell of its replayed sweep
		}
		if _, err := e.submit(*rec.Spec, rec.Priority, rec.Trace, rec.Tenant, rec.SweepTrace, false, nil); err != nil {
			e.log.Warn("engine: journal job replay failed", "trace", rec.Trace, "key", rec.Key, "error", err)
			continue
		}
		e.journal.metrics.replayed.With("job").Inc()
	}
	if len(jobs) > 0 || len(sweeps) > 0 {
		e.log.Info("engine: journal replayed", "jobs", len(jobs), "sweeps", len(sweeps))
	}
	e.journal.compact()
}

// SetTenants installs (or replaces) the multi-tenant admission registry:
// queue quotas take effect on the next submission. The HTTP layer holds
// the same registry for auth and rate limiting.
func (e *Engine) SetTenants(t *Tenants) {
	e.tenantMu.Lock()
	e.tenants = t
	e.tenantMu.Unlock()
}

// tenantQuota resolves a tenant's scheduler-queue quota (0 = unlimited).
func (e *Engine) tenantQuota(tenant string) int {
	e.tenantMu.RLock()
	t := e.tenants
	e.tenantMu.RUnlock()
	return t.MaxQueued(tenant)
}

// Close cancels all pending and running jobs, drains the worker pool,
// and releases the journal. Jobs cancelled by this drain keep their
// journal records live, so a subsequent boot on the same cache dir
// re-enqueues them.
func (e *Engine) Close() {
	e.sched.close()
	e.journal.Close()
}

// Draining reports whether the engine has begun shutting down and
// rejects new submissions (GET /v1/healthz surfaces this as the
// "draining" state).
func (e *Engine) Draining() bool {
	e.sched.mu.Lock()
	defer e.sched.mu.Unlock()
	return e.sched.closed
}

// Metrics exposes the registry the engine's instruments export on; the
// HTTP layers (API server middleware, the ops mux's /metrics) share it.
func (e *Engine) Metrics() *telemetry.Registry { return e.metrics.reg }

// Store exposes the engine's result store.
func (e *Engine) Store() *Store { return e.store }

// Traces exposes the engine's span store: every lifecycle span the
// scheduler and run loop record, plus (on a coordinator) the worker
// spans merged in off heartbeat and completion payloads. Serves
// GET /v1/traces/{id}.
func (e *Engine) Traces() *telemetry.TraceStore { return e.traces }

// QueueDepths returns the scheduler's per-tenant queued-job counts —
// the fleet dashboard's queue panel. Tenants with empty queues are
// omitted.
func (e *Engine) QueueDepths() map[string]int {
	e.sched.mu.Lock()
	defer e.sched.mu.Unlock()
	out := map[string]int{}
	for tenant, q := range e.sched.queues {
		if q.Len() > 0 {
			out[tenant] = q.Len()
		}
	}
	return out
}

// RunningJobs returns how many jobs are executing, locally or leased:
// the sched_running_jobs gauge the scheduler's start, finish and
// requeue edges keep.
func (e *Engine) RunningJobs() int { return int(e.metrics.running.Value()) }

// Stats returns a snapshot of the engine's counters, read off the
// engine_* and store_* instruments of its registry.
func (e *Engine) Stats() Stats {
	m, sm := e.metrics, e.store.metrics
	return Stats{
		Submitted:      m.jobsSubmitted.Total(),
		CacheHits:      m.cacheHits.Value(),
		Coalesced:      m.jobsCoalesced.Value(),
		RoundsExecuted: m.rounds.Value(),
		StoreEntries:   e.store.Len(),
		StoreHits:      sm.hits.Value(),
		StoreMisses:    sm.misses.Value(),
		Jobs:           e.sched.count(),
	}
}

// Submit schedules the run a Spec describes. The submission is answered
// from the result store when the Spec's content-address is cached (the
// returned job is already Done with Cached()==true and zero federated
// rounds are trained), coalesces onto an identical in-flight job when
// one exists, and otherwise enqueues at the given priority (higher runs
// first).
func (e *Engine) Submit(spec Spec, priority int) (*Job, error) {
	return e.submit(spec, priority, "", "", "", false, nil)
}

// SubmitAs is Submit with a caller-supplied trace ID (the HTTP layer's
// X-Request-ID) and tenant attribution. An empty or invalid ID mints a
// fresh one; a submission that coalesces onto an in-flight job observes
// that job's original trace. The job joins the tenant's fair-share
// queue and counts against its queue quota (a full quota refuses the
// submission with a *QuotaError). An empty tenant is the anonymous
// tenant.
func (e *Engine) SubmitAs(spec Spec, priority int, traceID, tenant string) (*Job, error) {
	return e.submit(spec, priority, traceID, tenant, "", false, nil)
}

// SubmitFresh is Submit minus the cache lookup: the run always executes
// (its result still overwrites the store entry). Use it when the
// consumer needs this machine's live measurement — e.g. the Fig. 4
// wall-clock breakdown, which a cached result would report stale.
func (e *Engine) SubmitFresh(spec Spec, priority int) (*Job, error) {
	return e.submit(spec, priority, "", "", "", true, nil)
}

// resolveSpec applies engine-wide defaults to a submitted Spec — today
// just the precision: an empty Precision adopts the server default.
// Resolution precedes hashing, so the default is part of the job's
// identity and cached results never cross precision boundaries.
func (e *Engine) resolveSpec(sp Spec) Spec {
	if sp.Precision == "" {
		sp.Precision = e.precision
	}
	return sp
}

// submit is every Spec submission; b, when non-nil, is the enqueue
// batch the job joins (see Scheduler.batch).
func (e *Engine) submit(spec Spec, priority int, trace, tenant, sweepTrace string, fresh bool, b *enqueueBatch) (*Job, error) {
	submitStart := time.Now()
	spec = e.resolveSpec(spec)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	if tenant == "" {
		tenant = AnonymousTenant
	}
	e.metrics.jobsSubmitted.With(tenant).Inc()
	sp := spec
	if !fresh {
		if res, ok, err := e.store.Get(hash); err != nil {
			return nil, err
		} else if ok {
			e.metrics.cacheHits.Inc()
			// A cached answer also settles any stale live journal record
			// for this key (e.g. a crash after the Result was persisted
			// but before the done-record landed).
			e.journal.jobDone(hash, StateDone)
			return e.sched.completed(&sp, hash, priority, trace, tenant, res), nil
		}
	}
	// Write-ahead: the submission is journaled before the scheduler can
	// accept it, so a crash between the two replays the job rather than
	// losing it, and a submission the journal could not make durable is
	// refused. Duplicate submit records for a coalesced key compact
	// away; a quota refusal below retracts the record.
	if err := e.journal.jobSubmitted(hash, trace, tenant, priority, sweepTrace, sp); err != nil {
		return nil, err
	}
	j, coalesced, err := e.sched.submit(&sp, hash, priority, trace, tenant, e.tenantQuota(tenant), submitStart, b)
	if coalesced {
		e.metrics.jobsCoalesced.Inc()
	} else if err == nil {
		// The admission edge: validate + hash + journal + enqueue. A
		// coalesced submission records nothing — the trace belongs to the
		// first submitter.
		e.sched.recordSpan(j, j.RootSpanID(), "submit", submitStart, time.Now(), nil)
	}
	var qerr *QuotaError
	if errors.As(err, &qerr) {
		// Quota refusals only happen for keys with no in-flight job
		// (coalescing is checked first), so retracting the record cannot
		// clobber a live submission's journal entry.
		e.journal.jobDone(hash, StateCancelled)
	}
	return j, err
}

// SubmitSweep expands a parameter grid server-side and schedules it as
// one Batch: each cell's Spec is submitted at the given priority, cells
// whose Specs share a content-address share one job (the grid is
// deduplicated before it reaches the scheduler), cached cells are born
// done, and the rest shard across the worker pool. The Batch reports
// aggregate state, per-cell results in grid order, a merged event
// stream, and batch-wide cancellation.
func (e *Engine) SubmitSweep(sw Sweep, priority int) (*Batch, error) {
	return e.SubmitSweepAs(sw, priority, "", "")
}

// SubmitSweepAs is SubmitSweep with a caller-supplied trace ID and
// tenant attribution (an empty tenant is the anonymous tenant). The
// batch adopts (or mints) the ID and each freshly created cell job is
// traced as "<batch-trace>-cN" (N the first grid cell the job answers),
// so one grep for the batch trace follows every cell it spawned. On a
// disk-backed engine the whole sweep is journaled under its batch trace
// before any cell is submitted, so a crash mid-sweep reconstitutes the
// Batch — not just its surviving cells — on the next boot; a sweep the
// journal could not make durable is refused.
func (e *Engine) SubmitSweepAs(sw Sweep, priority int, traceID, tenant string) (*Batch, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	// Resolve engine defaults before the dedup hashing below, so the
	// batch's recorded specs, the dedup map, and the submitted jobs all
	// agree on the effective precision.
	for i := range specs {
		specs[i] = e.resolveSpec(specs[i])
	}
	if tenant == "" {
		tenant = AnonymousTenant
	}
	trace := telemetry.OrNewTraceID(traceID)
	if err := e.journal.sweepSubmitted(trace, tenant, priority, sw); err != nil {
		return nil, err
	}
	b := &Batch{
		eng:     e,
		TraceID: trace,
		Tenant:  tenant,
		specs:   specs,
		jobs:    make([]*Job, len(specs)),
	}
	// The cells enter the queue as one batch, so held remote claims wake
	// once onto the whole sweep.
	e.sched.batch(func(eb *enqueueBatch) { err = e.submitCells(b, priority, eb) })
	if err != nil {
		// A refused sweep was never accepted, so it is not owed a
		// replay: settle the journal record before surfacing the error.
		b.Cancel()
		e.journal.sweepDone(trace)
		return nil, err
	}
	e.registerBatch(b)
	e.watchSweep(b)
	e.log.Info("engine: sweep submitted",
		"trace", trace, "sweep", b.ID, "tenant", tenant, "cells", len(specs), "jobs", len(b.unique))
	return b, nil
}

// submitCells submits each unique cell of a new batch, in grid order,
// and fills in b.jobs and b.unique; cells with equal content-addresses
// share one job.
func (e *Engine) submitCells(b *Batch, priority int, eb *enqueueBatch) error {
	byHash := make(map[string]*Job, len(b.specs))
	for i, sp := range b.specs {
		hash, err := sp.Hash()
		if err != nil {
			return err
		}
		if j, ok := byHash[hash]; ok {
			b.jobs[i] = j
			continue
		}
		j, err := e.submit(sp, priority, fmt.Sprintf("%s-c%d", b.TraceID, i), b.Tenant, b.TraceID, false, eb)
		if err != nil {
			return err
		}
		byHash[hash] = j
		b.jobs[i] = j
		b.unique = append(b.unique, j)
	}
	return nil
}

// watchSweep journals the sweep's done-record once every unique cell
// job is terminal — unless the engine is draining, in which case the
// record stays live so the next boot replays the sweep.
func (e *Engine) watchSweep(b *Batch) {
	if e.journal == nil {
		return
	}
	go func() {
		for _, j := range b.unique {
			<-j.Done()
		}
		if !e.Draining() {
			e.journal.sweepDone(b.TraceID)
		}
	}()
}

// maxRetainedBatches bounds the batch history a long-running engine
// keeps for status queries, mirroring the scheduler's job retention.
const maxRetainedBatches = 512

// registerBatch assigns the batch its ID and retains it for lookups,
// evicting the oldest terminal batch (or the oldest outright) past the
// retention bound.
func (e *Engine) registerBatch(b *Batch) {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	e.nextBatch++
	b.seq = e.nextBatch
	b.ID = fmt.Sprintf("sweep-%d", b.seq)
	b.Created = time.Now()
	e.batches[b.ID] = b
	e.batchOrder = append(e.batchOrder, b)
	for len(e.batches) > maxRetainedBatches {
		victim := 0
		for i, o := range e.batchOrder {
			if o.Counts().Terminal() {
				victim = i
				break
			}
		}
		delete(e.batches, e.batchOrder[victim].ID)
		e.batchOrder = slices.Delete(e.batchOrder, victim, victim+1)
	}
}

// Batch looks up a sweep batch by ID.
func (e *Engine) Batch(id string) (*Batch, bool) {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	b, ok := e.batches[id]
	return b, ok
}

// Batches returns every retained sweep batch, newest first (the order
// GET /v1/sweeps pages through).
func (e *Engine) Batches() []*Batch {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	out := make([]*Batch, 0, len(e.batchOrder))
	for i := len(e.batchOrder) - 1; i >= 0; i-- {
		out = append(out, e.batchOrder[i])
	}
	return out
}

// Job looks up a job by ID.
func (e *Engine) Job(id string) (*Job, bool) { return e.sched.job(id) }

// Jobs returns every job the scheduler knows, newest first.
func (e *Engine) Jobs() []*Job { return e.sched.page(-1, "", 0) }

// Cancel aborts a job by ID: immediately when queued, at the next round
// boundary when running.
func (e *Engine) Cancel(id string) error { return e.sched.cancel(id) }

// BuildScenario returns the (possibly cached) built scenario a Spec
// describes, for consumers that analyze scenario data beyond a run's
// Result — e.g. the Fig. 1 loss-landscape probe.
func (e *Engine) BuildScenario(spec Spec) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc, _, err := e.scenarios.get(spec, e.parallelism)
	return sc, err
}

// run executes a job's Spec, the scheduler's one run path: build (or
// reuse) the scenario, instantiate the method, run federated training
// with per-round progress events and cancellation, then persist the
// Result and its checkpoint blob under the job's content-address.
func (e *Engine) run(ctx context.Context, j *Job) (*Result, error) {
	spec, runSpan := *j.Spec, j.RunSpanID()
	scenarioStart := time.Now()
	sc, hit, err := e.scenarios.get(spec, e.parallelism)
	cache := "miss"
	if hit {
		cache = "hit"
	}
	e.sched.recordSpan(j, runSpan, "scenario", scenarioStart, time.Now(), map[string]string{"cache": cache})
	if err != nil {
		return nil, err
	}
	alg, err := NewAlgorithm(spec.Method)
	if err != nil {
		return nil, err
	}
	// Validate guarantees the spelling parses.
	prec, err := nn.ParsePrecision(spec.Precision)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var model *nn.Model
	var hist *fl.History
	// pprof labels propagate to every goroutine fl.Run spawns (the
	// per-client LocalTrain workers), so CPU and heap profiles from the
	// ops mux attribute training samples to the job that caused them.
	pprof.Do(ctx, pprof.Labels("trace_id", j.TraceID, "method", spec.Method, "tenant", j.Tenant),
		func(ctx context.Context) {
			model, hist, err = fl.Run(sc.Env, alg, sc.Clients, sc.Val, sc.Test, fl.RunConfig{
				Rounds:    spec.Rounds,
				SampleK:   spec.SampleK,
				EvalEvery: spec.EvalEvery,
				Precision: prec,
				Context:   ctx,
				OnRound: func(round, total int, rs, re time.Time) {
					e.advance(j, round, total)
					e.sched.recordSpan(j, runSpan, fmt.Sprintf("round-%d", round), rs, re, nil)
				},
			})
		})
	if err != nil {
		return nil, err
	}
	res := resultFromHistory(j.Key, spec.Method, hist)
	if spec.KeepModel {
		// fl.Run returns a fresh clone that dies with this call, so the
		// Result can own its arena without a copy.
		res.Model = model.Vector()
	}
	res.ElapsedSec = time.Since(start).Seconds()
	// The trained model becomes a content-addressed checkpoint blob next
	// to the Result, so cached re-runs return metrics AND the model
	// (GET /v1/jobs/{id}/model, feddg -save-model). The write is
	// best-effort: consumers already tolerate a missing blob (404 /
	// skip), so a full disk must not discard a completed run's metrics.
	// The span and the persist timer cover the marshal as well as the
	// store write.
	persistStart := time.Now()
	if blob, err := model.MarshalBinary(); err == nil {
		_ = e.store.PutBlob(j.Key, blob)
		j.addPersist(time.Since(persistStart))
		e.sched.recordSpan(j, runSpan, "checkpoint", persistStart, time.Now(),
			map[string]string{"bytes": fmt.Sprintf("%d", len(blob))})
	}
	persistStart = time.Now()
	if err := e.store.Put(j.Key, res); err != nil {
		return nil, err
	}
	j.addPersist(time.Since(persistStart))
	e.sched.recordSpan(j, runSpan, "persist", persistStart, time.Now(), nil)
	return res, nil
}

// ModelBlob returns the checkpoint blob (nn binary format) stored under
// a job's content-address, if one exists. Decode with nn.LoadModel.
func (e *Engine) ModelBlob(key string) ([]byte, bool, error) {
	return e.store.GetBlob(key)
}

// ClaimRemote leases the next queued job to a remote worker: the job
// transitions to Running attributed to the worker and subscribers see
// the start event exactly as they would for a local run. The tenant
// ring picks the tenant as for the local pool; within it, work on the
// scenario of the worker's latest lease comes first, then work on a
// scenario no other worker holds (see Scheduler.claimRemote). On an
// empty queue it waits until work is pushed, ctx ends or the engine
// drains; only a claim reports true, and a ctx that has ended claims
// nothing. onCancel, when non-nil, is invoked if a user cancels the job
// while leased, so the coordinator can relay the cancel to the worker
// on its next heartbeat.
func (e *Engine) ClaimRemote(ctx context.Context, worker string, onCancel func(*Job)) (*Job, bool) {
	j := e.sched.claimRemote(ctx, worker, onCancel)
	return j, j != nil
}

// RequeueRemote returns a leased job to the queue (lease expired,
// worker lost, or worker abandoned it on shutdown); reports whether the
// job was actually requeued.
func (e *Engine) RequeueRemote(j *Job) bool { return e.sched.requeue(j) }

// RemoteProgress merges a worker's round progress into the job's event
// stream, so SSE subscribers of a coordinator see leased cells advance
// exactly like local ones. A completion reporting its final round
// counts the rounds finished after the last heartbeat.
func (e *Engine) RemoteProgress(j *Job, round, rounds int) {
	if j != nil {
		e.advance(j, round, rounds)
	}
}

// advance moves a running job's progress forward and counts the rounds
// it newly covers into engine_rounds_total (Stats.RoundsExecuted) —
// the one progress path of local runs and remote heartbeats. Progress
// only moves forward within an attempt, so a re-sent heartbeat counts
// nothing.
func (e *Engine) advance(j *Job, round, rounds int) {
	if n := int64(j.advance(round, rounds)); n > 0 {
		e.metrics.rounds.Add(n)
	}
}

// CompleteRemote settles a leased job with a remote outcome. A
// successful result (and its optional model checkpoint blob) is
// persisted to the Store under the job's content-address before the job
// finishes, preserving the invariant that a Done job's result is
// cached. jobErr wrapping context.Canceled marks the job Cancelled; any
// other error marks it Failed. Late completions — the lease expired and
// the job was requeued but not yet re-claimed — are accepted: the work
// is done, content-addressing makes the outcome identical.
func (e *Engine) CompleteRemote(j *Job, res *Result, blob []byte, jobErr error) error {
	if jobErr == nil {
		if res == nil {
			return fmt.Errorf("engine: remote completion of job %s carries neither result nor error", j.ID)
		}
		persistStart := time.Now()
		if err := e.store.Put(j.Key, res); err != nil {
			return err
		}
		if len(blob) > 0 {
			// Best-effort, like the local path: a full disk must not
			// discard a completed run's metrics.
			_ = e.store.PutBlob(j.Key, blob)
		}
		j.addPersist(time.Since(persistStart))
		e.sched.recordSpan(j, j.RunSpanID(), "persist", persistStart, time.Now(), nil)
	}
	j.mu.Lock()
	e.sched.finish(j, res, jobErr)
	return nil
}
