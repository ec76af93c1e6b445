package engine

import (
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// Fleet wire types: the coordinator/worker protocol of internal/dist,
// defined here alongside the other v2 wire shapes so the public client
// SDK can alias them without importing the dist package. The protocol
// is deliberately small — register, pull, heartbeat, complete — and
// rides the same authenticated HTTP surface as the rest of the API.

// WorkerRegisterRequest is the POST /v1/workers body: a node announcing
// itself to the coordinator.
type WorkerRegisterRequest struct {
	// Name identifies the worker for operators (metrics labels, job
	// attribution). It should be stable across restarts of the same
	// node; the coordinator derives the unique worker ID itself.
	Name string `json:"name"`
	// CodeVersion is the worker binary's engine.CodeVersion. The
	// coordinator refuses mismatched versions: in a content-addressed
	// system, two versions computing different bytes for the same hash
	// is cache poisoning.
	CodeVersion string `json:"code_version"`
	// Slots advertises how many leases the worker wants to hold at once
	// (informational; the coordinator leases on pull, not push).
	Slots int `json:"slots,omitempty"`
}

// WorkerRegisterResponse acknowledges a registration.
type WorkerRegisterResponse struct {
	// WorkerID addresses the registration in every subsequent call. It
	// is unique per register, so a restarted worker gets a fresh
	// identity and the dead one expires.
	WorkerID string `json:"worker_id"`
	// LeaseTTLSec is how long a lease lives without a heartbeat; workers
	// should heartbeat at a small fraction of it.
	LeaseTTLSec float64 `json:"lease_ttl_sec"`
}

// LeaseView is one leased job: the POST /v1/workers/{id}/lease response
// body (204 when no work is available).
type LeaseView struct {
	JobID string `json:"job_id"`
	// Key is the Spec's content-address. Workers re-hash the Spec and
	// refuse a mismatch — the cheap end-to-end guard against version or
	// default skew.
	Key      string `json:"key"`
	TraceID  string `json:"trace_id,omitempty"`
	Priority int    `json:"priority"`
	Spec     Spec   `json:"spec"`
	// SpanID is the coordinator's lease span for this claim. Spans the
	// worker ships back parent under it, so the merged timeline nests
	// worker-side work inside the lease that caused it.
	SpanID string `json:"span_id,omitempty"`
}

// LeaseProgress is one lease's round progress inside a heartbeat.
type LeaseProgress struct {
	JobID  string `json:"job_id"`
	Round  int    `json:"round,omitempty"`
	Rounds int    `json:"rounds,omitempty"`
	// Spans piggybacks the worker's newly recorded spans for this lease's
	// trace. Delivery is at-least-once (a failed heartbeat resends);
	// the coordinator merges by span ID, so duplicates are harmless.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// WorkerHeartbeatRequest is the POST /v1/workers/{id}/heartbeat body:
// it renews every lease it reports (and the worker's own liveness).
type WorkerHeartbeatRequest struct {
	Leases []LeaseProgress `json:"leases,omitempty"`
}

// WorkerHeartbeatResponse carries the coordinator's instructions back.
type WorkerHeartbeatResponse struct {
	// Cancel lists leased job IDs the user cancelled: the worker should
	// abort them and confirm with a cancelled completion.
	Cancel []string `json:"cancel,omitempty"`
	// Unknown lists reported job IDs the coordinator no longer
	// recognizes (lease expired and was requeued): the worker should
	// abandon them locally without completing.
	Unknown []string `json:"unknown,omitempty"`
}

// LeaseCompleteRequest is the POST /v1/workers/{id}/jobs/{job}/complete
// body — exactly one of the four outcomes.
type LeaseCompleteRequest struct {
	// Result is the successful outcome, persisted under the lease key;
	// its SpecHash must be that key, else the job finishes Failed and
	// nothing is stored.
	Result *Result `json:"result,omitempty"`
	// Error is a failure message; the job finishes Failed.
	Error string `json:"error,omitempty"`
	// Cancelled confirms a coordinator-requested cancel; the job
	// finishes Cancelled.
	Cancelled bool `json:"cancelled,omitempty"`
	// Abandoned returns the lease without an outcome (worker shutting
	// down): the coordinator requeues the job for another node.
	Abandoned bool `json:"abandoned,omitempty"`
	// Round is the last round the worker trained under this lease (0
	// when its local store answered it), so rounds finished after the last
	// heartbeat still count on the coordinator.
	Round int `json:"round,omitempty"`
	// Spans carries the worker's remaining unshipped spans for the
	// lease's trace — the terminal flush of the heartbeat piggyback.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// WorkerView is the wire representation of one registered worker.
type WorkerView struct {
	ID           string    `json:"id"`
	Name         string    `json:"name"`
	Slots        int       `json:"slots,omitempty"`
	Registered   time.Time `json:"registered"`
	LastSeen     time.Time `json:"last_seen"`
	ActiveLeases int       `json:"active_leases"`
	Completed    int64     `json:"completed"`
	// RoundP50Sec/RoundP95Sec are rolling quantiles of the worker's
	// recent round durations, derived from the round spans it ships;
	// zero until enough rounds have been observed.
	RoundP50Sec float64 `json:"round_p50_sec,omitempty"`
	RoundP95Sec float64 `json:"round_p95_sec,omitempty"`
	// RoundSamples is how many round durations back the quantiles.
	RoundSamples int `json:"round_samples,omitempty"`
	// Slow flags a straggler: the worker's round p50 exceeds the fleet
	// median by the coordinator's straggler factor.
	Slow bool `json:"slow,omitempty"`
}

// FleetView is the registered fleet (Coordinator.Fleet); GET /v1/top
// serves its workers.
type FleetView struct {
	Workers     []WorkerView `json:"workers"`
	LeaseTTLSec float64      `json:"lease_ttl_sec"`
}

// TopView is the GET /v1/top response: one self-contained sample of the
// fleet dashboard. `feddg top` polls it and derives rates (rounds/s)
// from successive samples client-side.
type TopView struct {
	Time        time.Time    `json:"time"`
	LeaseTTLSec float64      `json:"lease_ttl_sec"`
	Workers     []WorkerView `json:"workers"`
	// QueueDepth is the scheduler's queued-job count per tenant (empty
	// queues omitted).
	QueueDepth map[string]int `json:"queue_depth,omitempty"`
	// Running counts jobs currently executing (locally or leased).
	Running int `json:"running"`
	// Stats is the engine counter snapshot; RoundsExecuted across two
	// samples yields the dashboard's rounds/s.
	Stats Stats `json:"stats"`
	// SlowSpans are the longest non-root spans across retained traces.
	SlowSpans []telemetry.Span `json:"slow_spans,omitempty"`
}
