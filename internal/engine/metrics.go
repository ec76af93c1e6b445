package engine

import (
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// engineMetrics bundles every instrument the engine layer exports,
// resolved once per Engine against one telemetry.Registry (the process
// Default unless Options.Metrics overrides it — tests use fresh
// registries for isolation). Handles are pre-resolved so the hot paths
// (scheduler dequeue, store lookup, per-round tick) never touch the
// registry map.
//
// Metric naming follows DESIGN.md §8: `<subsystem>_<noun>_<unit>`,
// counters end `_total`, durations are seconds, and every label
// dimension is bounded by construction (method names, lifecycle states,
// route patterns, configured tenant names — never job IDs,
// content-addresses, or attacker-chosen strings).
type engineMetrics struct {
	reg *telemetry.Registry

	jobsSubmitted *telemetry.CounterVec // tenant
	jobsCompleted *telemetry.CounterVec // state: done|failed|cancelled; tenant
	jobsCoalesced *telemetry.Counter
	cacheHits     *telemetry.Counter
	rounds        *telemetry.Counter
	quotaRejected *telemetry.CounterVec // tenant

	queueDepth    *telemetry.GaugeVec // tenant
	running       *telemetry.Gauge
	claimsWaiting *telemetry.Gauge        // remote claims parked on an empty queue
	queueWait     *telemetry.HistogramVec // method
	runSeconds    *telemetry.HistogramVec // method

	scenarioBuild     *telemetry.Histogram
	scenarioLookup    *telemetry.CounterVec // result: hit|miss
	scenariosResident *telemetry.Gauge
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		reg: reg,
		jobsSubmitted: reg.CounterVec("engine_jobs_submitted_total",
			"Spec submissions (sweep cells included) accepted by the engine, by tenant.", "tenant"),
		jobsCompleted: reg.CounterVec("engine_jobs_completed_total",
			"Jobs that reached a terminal state, by state (cache hits count as done) and tenant.", "state", "tenant"),
		jobsCoalesced: reg.Counter("engine_jobs_coalesced_total",
			"Submissions attached to an identical already-in-flight job."),
		cacheHits: reg.Counter("engine_cache_hits_total",
			"Submissions answered from the result store with zero training."),
		rounds: reg.Counter("engine_rounds_total",
			"Federated rounds trained across all jobs; rate() of this is rounds/s."),
		quotaRejected: reg.CounterVec("engine_quota_rejected_total",
			"Submissions refused because the tenant's queue quota was full.", "tenant"),
		queueDepth: reg.GaugeVec("sched_queue_depth",
			"Jobs waiting for a scheduler worker, per tenant (includes cancelled-but-unreaped entries).", "tenant"),
		running: reg.Gauge("sched_running_jobs",
			"Jobs currently executing, locally or leased."),
		claimsWaiting: reg.Gauge("sched_claims_waiting",
			"Remote lease pulls held on an empty queue, waiting for work to be pushed."),
		queueWait: reg.HistogramVec("sched_queue_wait_seconds",
			"Time from submission to a worker picking the job up, per method.", nil, "method"),
		runSeconds: reg.HistogramVec("sched_run_seconds",
			"Job execution wall-clock from dequeue to terminal state, per method.", nil, "method"),
		scenarioBuild: reg.Histogram("engine_scenario_build_seconds",
			"Wall-clock of building one scenario (data generation, encoding, partitioning) on a scenario-cache miss.", nil),
		scenarioLookup: reg.CounterVec("engine_scenario_cache_total",
			"Scenario-cache lookups by result: hit (built or being built by another job) or miss (this lookup builds it).", "result"),
		scenariosResident: reg.Gauge("engine_scenarios_resident",
			"Scenarios the scenario cache holds, built or being built."),
	}
}

// methodLabel is a job's per-method label: its Spec's table method name.
func methodLabel(j *Job) string { return j.Spec.Method }

// journalMetrics bundles the write-ahead journal instruments.
type journalMetrics struct {
	records     *telemetry.Counter
	append      *telemetry.Histogram
	corrupt     *telemetry.Counter
	compactions *telemetry.Counter
	replayed    *telemetry.CounterVec // kind: job|sweep
	live        *telemetry.Gauge
}

func newJournalMetrics(reg *telemetry.Registry) *journalMetrics {
	return &journalMetrics{
		records: reg.Counter("journal_records_total",
			"Records appended (and fsync'd) to the write-ahead job journal."),
		append: reg.Histogram("journal_append_seconds",
			"Wall-clock of one successful journal append: encode, write and fsync.", nil),
		corrupt: reg.Counter("journal_corrupt_lines_total",
			"Journal lines skipped on load because they failed to parse."),
		compactions: reg.Counter("journal_compactions_total",
			"Times the journal was rewritten down to its live records."),
		replayed: reg.CounterVec("journal_replayed_total",
			"Submissions re-enqueued from the journal at boot, by kind.", "kind"),
		live: reg.Gauge("journal_live_records",
			"Journaled submissions not yet terminal (jobs + sweeps)."),
	}
}

// storeMetrics bundles the result-store instruments.
type storeMetrics struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	corrupt   *telemetry.Counter
	evictions *telemetry.Counter
	blobBytes *telemetry.Counter
	// blobResident counts mapped blob bytes, which heap metrics miss.
	blobResident *telemetry.Gauge
	// entryWrite and blobWrite are store_write_seconds{kind}.
	entryWrite, blobWrite *telemetry.Histogram
	blobFailures          *telemetry.Counter
}

func newStoreMetrics(reg *telemetry.Registry) *storeMetrics {
	writes := reg.HistogramVec("store_write_seconds",
		"Wall-clock of one successful Store write, by kind: entry (encode + atomic file write) or blob (atomic file write, or a memory-only store's copy into its mapping).", nil, "kind")
	return &storeMetrics{
		hits: reg.Counter("store_hits_total",
			"Result-store lookups answered from memory or disk: submission cache checks and reads of a done job's Result."),
		misses: reg.Counter("store_misses_total",
			"Result-store lookups that found no (valid, current) entry."),
		corrupt: reg.Counter("store_corrupt_total",
			"Cache entries that were unreadable or undecodable and degraded to a miss."),
		evictions: reg.Counter("store_evictions_total",
			"Cache files deleted by the disk-size cap's LRU sweep, and checkpoint blobs a memory-only store evicted over its byte budget."),
		blobBytes: reg.Counter("store_blob_bytes_total",
			"Bytes of model-checkpoint blobs written to the store."),
		blobResident: reg.Gauge("store_blob_resident_bytes",
			"Bytes a memory-only store has mapped outside the Go heap for checkpoint blobs, one spare mapping included."),
		entryWrite: writes.With("entry"),
		blobWrite:  writes.With("blob"),
		blobFailures: reg.Counter("store_blob_write_failures_total",
			"Checkpoint blob writes that failed; the run's Result is still stored, and its model answers 404."),
	}
}

// serverMetrics bundles the HTTP-layer instruments.
type serverMetrics struct {
	requests    *telemetry.CounterVec   // route, code, tenant
	latency     *telemetry.HistogramVec // route
	sseActive   *telemetry.Gauge
	rateLimited *telemetry.CounterVec // tenant
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		requests: reg.CounterVec("http_requests_total",
			"API requests served, by route pattern, status code, and tenant (failed auth is \"unauthenticated\").", "route", "code", "tenant"),
		latency: reg.HistogramVec("http_request_seconds",
			"API request latency by route pattern (SSE streams count their full lifetime).", nil, "route"),
		sseActive: reg.Gauge("http_sse_active",
			"Server-Sent-Events subscriptions currently open."),
		rateLimited: reg.CounterVec("http_rate_limited_total",
			"Requests refused with 429 by the per-tenant token bucket.", "tenant"),
	}
}
