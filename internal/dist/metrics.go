package dist

import (
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// coordMetrics bundles the coordinator-side instruments. The worker
// label is the operator-chosen node name (bounded by fleet size), never
// the per-registration worker ID (unbounded across restarts).
type coordMetrics struct {
	workers      *telemetry.Gauge
	workerLeases *telemetry.GaugeVec   // worker name
	granted      *telemetry.CounterVec // worker name
	completed    *telemetry.CounterVec // state: done|failed|cancelled
	requeued     *telemetry.CounterVec // reason: expired|worker_lost|abandoned|pull_gone
	expired      *telemetry.Counter
	heartbeats   *telemetry.Counter
	workerSlow   *telemetry.GaugeVec     // worker name; 1 = straggler
	roundSeconds *telemetry.HistogramVec // worker name
	leaseSeconds *telemetry.HistogramVec // worker name
}

func newCoordMetrics(reg *telemetry.Registry) *coordMetrics {
	return &coordMetrics{
		workers: reg.Gauge("dist_workers",
			"Worker nodes currently registered with the coordinator."),
		workerLeases: reg.GaugeVec("dist_worker_active_leases",
			"Leases currently held, per worker name.", "worker"),
		granted: reg.CounterVec("dist_leases_granted_total",
			"Job leases granted to workers, per worker name.", "worker"),
		completed: reg.CounterVec("dist_leases_completed_total",
			"Leased jobs settled by their worker, by terminal state.", "state"),
		requeued: reg.CounterVec("dist_leases_requeued_total",
			"Leased jobs returned to the queue without an outcome, by reason (expired heartbeat, worker lost, worker abandoned on shutdown, lease pull gone before its answer). A coordinator restart's re-enqueues are counted by journal_replayed_total.", "reason"),
		expired: reg.Counter("dist_leases_expired_total",
			"Leases that outlived their TTL without a heartbeat."),
		heartbeats: reg.Counter("dist_heartbeats_total",
			"Worker heartbeats processed by the coordinator."),
		workerSlow: reg.GaugeVec("dist_worker_slow",
			"1 when the worker's rolling round p50 exceeds the fleet median by the straggler factor, else 0.", "worker"),
		roundSeconds: reg.HistogramVec("dist_round_seconds",
			"Federated-round durations reported by workers via shipped round spans, per worker name.", nil, "worker"),
		leaseSeconds: reg.HistogramVec("dist_lease_seconds",
			"Lease lifetimes from grant to settle (complete, abandon, or expiry), per worker name.", nil, "worker"),
	}
}

// workerMetrics bundles the worker-side instruments, exported on the
// worker engine's registry.
type workerMetrics struct {
	tierLookups *telemetry.CounterVec // tier: local|miss
	pulls       *telemetry.CounterVec // outcome: lease|idle (the hold elapsed)|error
	completions *telemetry.CounterVec // outcome: done|failed|cancelled|abandoned
}

func newWorkerMetrics(reg *telemetry.Registry) *workerMetrics {
	return &workerMetrics{
		tierLookups: reg.CounterVec("dist_tier_lookups_total",
			"Tiered-store lookups for leased Specs, by the tier that answered (miss = the cell trains here).", "tier"),
		pulls: reg.CounterVec("dist_worker_pulls_total",
			"Lease-pull attempts against the coordinator, by outcome.", "outcome"),
		completions: reg.CounterVec("dist_worker_completions_total",
			"Lease completions reported to the coordinator, by outcome.", "outcome"),
	}
}
