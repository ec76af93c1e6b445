package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// Server exposes an Engine over HTTP/JSON — the `feddg serve` API. All
// handlers use only the standard library.
//
//	GET    /v1/healthz              health + build info + serving/draining state
//	GET    /v1/stats                engine counters
//	POST   /v1/jobs                 submit a Spec ({"spec":…,"priority":n,"wait":bool})
//	GET    /v1/jobs                 list jobs, newest first (?state=…&limit=…&after=…)
//	GET    /v1/jobs/{id}            job status
//	GET    /v1/jobs/{id}/result     job result (409 until terminal, 404 once evicted)
//	GET    /v1/jobs/{id}/model      trained-model checkpoint blob (409
//	                                until done, 404 when none was stored)
//	GET    /v1/jobs/{id}/events     per-round progress as Server-Sent Events
//	POST   /v1/jobs/{id}/cancel     cancel a job
//	GET    /v1/traces/{id}          every span recorded under a trace ID
//	POST   /v1/sweeps               submit a parameter grid ({"sweep":…,"priority":n,"wait":bool})
//	GET    /v1/sweeps               list sweeps, newest first (?state=…&limit=…&after=…)
//	GET    /v1/sweeps/{id}          sweep status: aggregate counts + per-job views
//	GET    /v1/sweeps/{id}/events   merged progress of all sweep jobs as SSE
//	POST   /v1/sweeps/{id}/cancel   cancel every solely-owned sweep job
//
// Errors are a structured envelope {"error":{"code","message"}} (codes
// below).
//
// With WithTenants configured, every route except the health probe
// requires `Authorization: Bearer <api-key>` (401 otherwise) and is
// admission-controlled per tenant: a drained token bucket answers 429
// with a Retry-After header, and a full queue quota answers 429 with
// code "quota_exceeded".
type Server struct {
	engine  *Engine
	mux     *http.ServeMux
	metrics *serverMetrics
	tenants *Tenants // nil = auth off: every request is the anonymous tenant
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithTenants enables API-key authentication, per-tenant rate limits,
// and queue quotas from the given registry (see LoadTenantsFile). The
// registry is also installed on the engine so quotas apply at submit.
func WithTenants(t *Tenants) ServerOption {
	return func(s *Server) {
		s.tenants = t
		s.engine.SetTenants(t)
	}
}

// NewServer wraps an Engine in the HTTP API.
func NewServer(e *Engine, opts ...ServerOption) *Server {
	s := &Server{engine: e, mux: http.NewServeMux(), metrics: newServerMetrics(e.metrics.reg)}
	for _, opt := range opts {
		opt(s)
	}
	// The health probe stays unauthenticated: load balancers and
	// liveness checks do not carry API keys.
	s.handleOpen("GET /v1/healthz", s.handleHealthz)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleList)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("GET /v1/jobs/{id}/result", s.handleResult)
	s.handle("GET /v1/jobs/{id}/model", s.handleModel)
	s.handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.handle("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.handle("GET /v1/traces/{id}", s.handleTrace)
	s.handle("POST /v1/sweeps", s.handleSweepSubmit)
	s.handle("GET /v1/sweeps", s.handleSweepList)
	s.handle("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.handle("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.handle("POST /v1/sweeps/{id}/cancel", s.handleSweepCancel)
	return s
}

// tenantKey carries the authenticated tenant through the request
// context.
type tenantKey struct{}

// tenantFrom resolves the request's authenticated tenant (anonymous
// when auth is off).
func tenantFrom(r *http.Request) string {
	if t, ok := r.Context().Value(tenantKey{}).(string); ok && t != "" {
		return t
	}
	return AnonymousTenant
}

// handle registers an authenticated route; handleOpen an
// unauthenticated one. Both wrap the request counter and latency
// histogram around the handler. Series are labeled by the registered
// route pattern and the authenticated tenant, never raw URLs or raw
// keys: label cardinality must stay bounded no matter what clients
// probe with (unmatched paths fall through to the mux's own 404 and are
// deliberately not counted).
func (s *Server) handle(pattern string, h http.HandlerFunc)     { s.register(pattern, h, true) }
func (s *Server) handleOpen(pattern string, h http.HandlerFunc) { s.register(pattern, h, false) }

// Handle registers an additional authenticated route on the server's
// mux with the same auth/rate-limit/metrics middleware as the built-in
// API — how subsystems layered on the engine (the cluster coordinator's
// worker and store routes) join the v2 surface instead of running a
// second listener.
func (s *Server) Handle(pattern string, h http.HandlerFunc) { s.handle(pattern, h) }

// Engine returns the engine this server fronts.
func (s *Server) Engine() *Engine { return s.engine }

// WriteJSON writes a JSON response body — exported for handlers
// registered via Handle so extensions speak the same wire dialect.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the structured v2 error envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeError(w, status, code, msg)
}

// ReadBody reads r to EOF into one buffer pre-sized from declared, the
// body's Content-Length (≤ 0 when unknown), where io.ReadAll would
// regrow a checkpoint's buffer from 512 bytes. The pre-size is capped
// at 1 MiB, so a claimed length pins no more before any byte arrives.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(declared, 0), 1<<20)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func (s *Server) register(pattern string, h http.HandlerFunc, authed bool) {
	latency := s.metrics.latency.With(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		tenant := AnonymousTenant
		admitted := true
		if authed && s.tenants != nil {
			tenant, admitted = s.admit(rec, r)
		}
		if admitted {
			r = r.WithContext(context.WithValue(r.Context(), tenantKey{}, tenant))
			h(rec, r)
		}
		latency.Observe(time.Since(start).Seconds())
		s.metrics.requests.With(pattern, strconv.Itoa(rec.status), tenant).Inc()
	})
}

// admit authenticates and rate-limits a request, writing the 401/429
// response itself on refusal. The returned tenant is what the metrics
// label records either way ("unauthenticated" for failed auth, so bad
// keys cannot mint label series).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	key, ok := bearerToken(r)
	if !ok {
		writeError(w, http.StatusUnauthorized, ErrCodeUnauthorized,
			"missing API key: send Authorization: Bearer <key>")
		return UnauthenticatedTenant, false
	}
	name, ok := s.tenants.Authenticate(key)
	if !ok {
		writeError(w, http.StatusUnauthorized, ErrCodeUnauthorized, "unrecognized API key")
		return UnauthenticatedTenant, false
	}
	if allowed, retryAfter := s.tenants.Allow(name); !allowed {
		s.metrics.rateLimited.With(name).Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		writeError(w, http.StatusTooManyRequests, ErrCodeRateLimited,
			fmt.Sprintf("tenant %q is over its request rate; retry after the Retry-After delay", name))
		return name, false
	}
	return name, true
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(auth[len(prefix):]), true
}

// retryAfterSeconds renders a wait as the Retry-After header value:
// integral seconds, rounded up, minimum 1 (a zero would invite an
// immediate retry of the request that was just refused).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// statusRecorder captures the response status for the request counter.
// Unwrap exposes the underlying writer so http.ResponseController can
// still reach its Flusher — SSE streams pass through this middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// NewOpsMux serves the operational endpoints (`feddg serve
// -metrics-addr`): Prometheus metrics, runtime profiles, and health.
// They live on their own mux so operators can bind them to localhost
// while the API faces the network — profiles and metrics are not for
// API clients.
func NewOpsMux(e *Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", e.Metrics().Handler())
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, healthView(e))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Machine-readable error codes of the structured error envelope.
const (
	// ErrCodeBadRequest: malformed JSON, unknown field, bad query param.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeInvalidSpec: a spec or sweep that fails validation.
	ErrCodeInvalidSpec = "invalid_spec"
	// ErrCodePayloadTooLarge: request body over the size cap (HTTP 413).
	ErrCodePayloadTooLarge = "payload_too_large"
	// ErrCodeNotFound: unknown job or sweep ID, or an evicted Result.
	ErrCodeNotFound = "not_found"
	// ErrCodeNotFinished: result/model requested before the job is
	// terminal (HTTP 409) — retry after completion.
	ErrCodeNotFinished = "not_finished"
	// ErrCodeNoModel: the job finished but stored no model checkpoint.
	ErrCodeNoModel = "no_model"
	// ErrCodeClientGone: the client disconnected from a wait=true
	// submission before the work finished (HTTP 408).
	ErrCodeClientGone = "client_gone"
	// ErrCodeInternal: unexpected server-side failure (HTTP 500).
	ErrCodeInternal = "internal"
	// ErrCodeUnavailable: the engine is draining (graceful shutdown)
	// and accepts no new work (HTTP 503) — retry elsewhere or later.
	ErrCodeUnavailable = "unavailable"
	// ErrCodeStreamUnsupported: the connection cannot carry SSE.
	ErrCodeStreamUnsupported = "stream_unsupported"
	// ErrCodeUnauthorized: missing or unrecognized API key (HTTP 401).
	ErrCodeUnauthorized = "unauthorized"
	// ErrCodeRateLimited: the tenant's request token bucket is drained
	// (HTTP 429) — honor the Retry-After header before retrying.
	ErrCodeRateLimited = "rate_limited"
	// ErrCodeQuotaExceeded: the tenant already has its quota of jobs
	// queued (HTTP 429) — retry after some drain.
	ErrCodeQuotaExceeded = "quota_exceeded"
	// ErrCodeUnknownWorker: the worker ID is not (or no longer)
	// registered with the coordinator (HTTP 404) — re-register and
	// resume pulling.
	ErrCodeUnknownWorker = "unknown_worker"
	// ErrCodeLeaseLost: the lease this request settles is no longer held
	// by the calling worker (expired and requeued, or cancelled) —
	// HTTP 409; drop the work, its result is preserved if uploaded.
	ErrCodeLeaseLost = "lease_lost"
	// ErrCodeVersionSkew: a worker's CodeVersion differs from the
	// coordinator's (HTTP 409). Mixed-version fleets would compute
	// different bytes for the same content-address, so they are refused
	// at registration.
	ErrCodeVersionSkew = "version_skew"
)

// APIError is the machine-readable error of the v2 envelope.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the error response body. (The v1 flat top-level
// "message" mirror was carried for one release after the v2 envelope
// landed and is now gone: the structured object is the only shape.)
type errorEnvelope struct {
	Err APIError `json:"error"`
}

// maxBodyBytes caps submit bodies; a full sweep grid is a few KB, so
// 1 MiB is generous while keeping a misbehaving client from buffering
// arbitrary payloads into the server.
const maxBodyBytes = 1 << 20

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Spec     Spec `json:"spec"`
	Priority int  `json:"priority"`
	// Wait blocks the request until the job is terminal and inlines the
	// result into the response.
	Wait bool `json:"wait"`
}

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	Sweep    Sweep `json:"sweep"`
	Priority int   `json:"priority"`
	// Wait blocks the request until every sweep job is terminal and
	// inlines per-job results into the response.
	Wait bool `json:"wait"`
}

// JobView is the wire representation of a job.
type JobView struct {
	ID       string     `json:"id"`
	Key      string     `json:"key"`
	State    State      `json:"state"`
	Cached   bool       `json:"cached"`
	Priority int        `json:"priority"`
	Method   string     `json:"method,omitempty"`
	Round    int        `json:"round,omitempty"`
	Rounds   int        `json:"rounds,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// TraceID correlates the job with its submission's log lines and SSE
	// events (adopted from the submit's X-Request-ID or minted).
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the authenticated tenant that first submitted the job
	// ("anonymous" when auth is off).
	Tenant string `json:"tenant,omitempty"`
	// Worker names the remote worker the job is (or was last) leased to;
	// empty for jobs that ran on the local pool.
	Worker string `json:"worker,omitempty"`
	// Timing is the phase wall-clock breakdown (queued / running /
	// persisting); phases that have not happened read zero.
	Timing *JobTiming `json:"timing,omitempty"`
	// Result is inlined for terminal jobs on submit-with-wait and the
	// result endpoint.
	Result *Result `json:"result,omitempty"`
}

// SweepView is the wire representation of a sweep batch: aggregate
// counts plus a view per distinct job.
type SweepView struct {
	ID string `json:"id"`
	// TraceID is the sweep's batch trace; cell jobs derive theirs from it
	// ("<trace>-cN").
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the authenticated tenant that submitted the sweep
	// ("anonymous" when auth is off).
	Tenant  string      `json:"tenant,omitempty"`
	Created time.Time   `json:"created"`
	Counts  BatchCounts `json:"counts"`
	// State summarizes the batch: "running" until every job is terminal,
	// then "failed" if any job failed, "cancelled" if any was cancelled,
	// else "done" (the ?state= filter of GET /v1/sweeps matches it).
	State State `json:"state"`
	// Done reports whether every sweep job is terminal.
	Done bool `json:"done"`
	// Jobs views the batch's distinct jobs in first-appearance order.
	Jobs []JobView `json:"jobs"`
}

// batchState summarizes a batch's aggregate counts as one lifecycle
// state, for listing filters and the wire view.
func batchState(c BatchCounts) State {
	switch {
	case !c.Terminal():
		return StateRunning
	case c.Failed > 0:
		return StateFailed
	case c.Cancelled > 0:
		return StateCancelled
	default:
		return StateDone
	}
}

// JobList is the GET /v1/jobs response page.
type JobList struct {
	Jobs []JobView `json:"jobs"`
	// Next is the cursor for the following page (pass as ?after=…);
	// empty when this page exhausts the listing.
	Next string `json:"next,omitempty"`
}

// SweepList is the GET /v1/sweeps response page. Sweeps are listed
// without per-job views (fetch GET /v1/sweeps/{id} for those): a page
// of 4096-cell sweeps must stay cheap to serve and read.
type SweepList struct {
	Sweeps []SweepView `json:"sweeps"`
	// Next is the cursor for the following page (pass as ?after=…);
	// empty when this page exhausts the listing.
	Next string `json:"next,omitempty"`
}

// view snapshots a job for the wire; withResult then adds a Done job's
// Result from the Store, outside j.mu, unless the Store has let it go.
func (s *Server) view(j *Job, withResult bool) JobView {
	j.mu.Lock()
	v := JobView{
		ID:       j.ID,
		Key:      j.Key,
		State:    j.state,
		Cached:   j.cached,
		Method:   j.Spec.Method,
		Priority: j.priority,
		Round:    j.round,
		Rounds:   j.rounds,
		Created:  j.Created,
		TraceID:  j.TraceID,
		Tenant:   j.Tenant,
		Worker:   j.worker,
	}
	tm := j.timingLocked()
	v.Timing = &tm
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	j.mu.Unlock()
	if withResult && v.State == StateDone {
		v.Result, _ = j.Result()
	}
	return v
}

// sweepView snapshots a batch for the wire.
func (s *Server) sweepView(b *Batch, withResults bool) SweepView {
	counts := b.Counts()
	v := SweepView{
		ID:      b.ID,
		TraceID: b.TraceID,
		Tenant:  b.Tenant,
		Created: b.Created,
		Counts:  counts,
		State:   batchState(counts),
		Done:    counts.Terminal(),
		Jobs:    make([]JobView, 0, len(b.Unique())),
	}
	for _, j := range b.Unique() {
		v.Jobs = append(v.Jobs, s.view(j, withResults))
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Err: APIError{Code: code, Message: msg}})
}

// decodeBody reads a JSON request body with the size cap and strict
// field checking, writing the error response itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// writeSubmitError maps a Submit/SubmitSweep failure to the wire. A
// draining engine or a failed journal append is a transient 503 and a
// full queue quota a transient 429 — neither is the caller's fault; anything else is a spec or sweep
// the engine rejected.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrClosed) || errors.Is(err, errJournal) {
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable, err.Error())
		return
	}
	var qerr *QuotaError
	if errors.As(err, &qerr) {
		// Quota headroom opens as queued jobs drain, on job — not token —
		// timescales; a few seconds is an honest lower bound.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, ErrCodeQuotaExceeded, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, ErrCodeInvalidSpec, err.Error())
}

// HealthView is the GET /v1/healthz body: whether the engine still
// accepts work, plus the build identity of the serving binary — the
// first thing to check when a deployment misbehaves is which revision
// actually runs.
type HealthView struct {
	// Status is "serving", or "draining" once graceful shutdown started.
	Status string              `json:"status"`
	Build  telemetry.BuildInfo `json:"build"`
}

func healthView(e *Engine) HealthView {
	v := HealthView{Status: "serving", Build: telemetry.Build()}
	if e.Draining() {
		v.Status = "draining"
	}
	return v
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthView(s.engine))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Adopt the client's X-Request-ID as the job's trace when it passes
	// validation (minted otherwise), and echo the winning ID back so the
	// client can grep server logs for it either way.
	j, err := s.engine.SubmitAs(req.Spec, req.Priority, r.Header.Get("X-Request-ID"), tenantFrom(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("X-Request-ID", j.TraceID)
	if req.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, ErrCodeClientGone, "client went away before the job finished")
			return
		}
		writeJSON(w, http.StatusOK, s.view(j, true))
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(j, false))
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	b, err := s.engine.SubmitSweepAs(req.Sweep, req.Priority, r.Header.Get("X-Request-ID"), tenantFrom(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("X-Request-ID", b.TraceID)
	if req.Wait {
		// Settle every cell, cancelling the rest at a failure as Batch.Wait
		// does; the view then reads the Results, leaving out any evicted.
		for _, j := range b.Unique() {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				writeError(w, http.StatusRequestTimeout, ErrCodeClientGone, "client went away before the sweep finished")
				return
			}
			if j.State() != StateDone {
				b.Cancel()
			}
		}
		writeJSON(w, http.StatusOK, s.sweepView(b, true))
		return
	}
	writeJSON(w, http.StatusAccepted, s.sweepView(b, false))
}

// listQuery is the parsed ?state/?limit/?after triple shared by the job
// and sweep listings. Cursors are ordinal IDs ("<kind>-N"), so they
// survive history eviction: "after job-17" simply means "older than the
// 17th".
type listQuery struct {
	state    State
	limit    int
	afterSeq int64
}

// parseListQuery reads the listing params, writing the error response
// itself on failure. idPrefix is the cursor's ID prefix ("job-" or
// "sweep-").
func parseListQuery(w http.ResponseWriter, r *http.Request, idPrefix string) (listQuery, bool) {
	q := r.URL.Query()
	lq := listQuery{afterSeq: -1}
	if v := q.Get("state"); v != "" {
		switch st := State(v); st {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
			lq.state = st
		default:
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Sprintf("unknown state %q (want queued|running|done|failed|cancelled)", v))
			return lq, false
		}
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "limit must be a positive integer")
			return lq, false
		}
		lq.limit = n
	}
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(strings.TrimPrefix(v, idPrefix), 10, 64)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Sprintf("after must be an ID (%sN)", idPrefix))
			return lq, false
		}
		lq.afterSeq = n
	}
	return lq, true
}

// handleList pages through the job registry, newest first. ?state=
// filters by lifecycle state, ?limit= caps the page size, and ?after=
// resumes below a previous page's last job ID (the JobList.Next
// cursor).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	lq, ok := parseListQuery(w, r, "job-")
	if !ok {
		return
	}
	n := 0
	if lq.limit > 0 {
		n = lq.limit + 1 // one past the page tells whether there is more
	}
	jobs := s.engine.sched.page(lq.afterSeq, lq.state, n)
	list := JobList{Jobs: make([]JobView, 0, len(jobs))}
	if lq.limit > 0 && len(jobs) > lq.limit {
		jobs = jobs[:lq.limit]
		list.Next = jobs[lq.limit-1].ID
	}
	for _, j := range jobs {
		list.Jobs = append(list.Jobs, s.view(j, false))
	}
	writeJSON(w, http.StatusOK, list)
}

// handleSweepList pages through the sweep registry, newest first, with
// the same ?state/?limit/?after semantics as the job listing (?state=
// matches the batch's aggregate state, see SweepView.State; "queued"
// matches nothing — a sweep with any cell pending summarizes as
// running).
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	lq, ok := parseListQuery(w, r, "sweep-")
	if !ok {
		return
	}
	list := SweepList{Sweeps: []SweepView{}}
	for _, b := range s.engine.Batches() { // newest first
		if lq.afterSeq >= 0 && b.seq >= lq.afterSeq {
			continue
		}
		v := s.sweepView(b, false)
		v.Jobs = nil // listings stay light; per-job views are GET /v1/sweeps/{id}
		if lq.state != "" && v.State != lq.state {
			continue
		}
		if lq.limit > 0 && len(list.Sweeps) == lq.limit {
			list.Next = list.Sweeps[len(list.Sweeps)-1].ID
			break
		}
		list.Sweeps = append(list.Sweeps, v)
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := strings.TrimSpace(r.PathValue("id"))
	j, ok := s.engine.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown job "+id)
		return nil, false
	}
	return j, true
}

// TraceView is the GET /v1/traces/{id} body: one trace's span timeline,
// spans sorted by start time. On a coordinator it includes the spans
// merged in from the executing worker.
type TraceView struct {
	TraceID string           `json:"trace_id"`
	Spans   []telemetry.Span `json:"spans"`
}

// handleTrace serves a trace's span timeline. The path segment accepts
// either a trace ID (the `trace_id` every job view, event, and SSE
// frame carries) or a job ID, which resolves to the job's trace — so
// `feddg trace job-7` works without a lookup round-trip.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	if j, ok := s.engine.Job(id); ok {
		id = j.TraceID
	}
	spans := s.engine.Traces().Trace(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "no spans recorded for trace "+id)
		return
	}
	for i := range spans {
		// Spans recorded by this process carry no source; name it for
		// consumers (worker-shipped spans arrive labeled already).
		if spans[i].Source == "" {
			spans[i].Source = "coordinator"
		}
	}
	writeJSON(w, http.StatusOK, TraceView{TraceID: id, Spans: spans})
}

func (s *Server) batchFromPath(w http.ResponseWriter, r *http.Request) (*Batch, bool) {
	id := strings.TrimSpace(r.PathValue("id"))
	b, ok := s.engine.Batch(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown sweep "+id)
		return nil, false
	}
	return b, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.view(j, false))
}

// handleSweepStatus reports a sweep's aggregate counts and per-job
// views. Results are inlined only once the sweep is terminal: pollers
// watching a large running sweep read light views, not megabytes of
// round histories on every request.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.sweepView(b, b.Counts().Terminal()))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	st := j.State()
	res, err := j.Result()
	switch {
	case !st.Terminal():
		writeError(w, http.StatusConflict, ErrCodeNotFinished, "job "+j.ID+" not finished (state "+string(st)+")")
	case st == StateDone && err != nil:
		writeError(w, http.StatusNotFound, ErrCodeNotFound, err.Error())
	default:
		v := s.view(j, false)
		v.Result = res
		writeJSON(w, http.StatusOK, v)
	}
}

// handleModel serves the trained-model checkpoint blob of a done job in
// the nn binary format (decode with nn.LoadModel). Cache-hit jobs serve
// the blob stored by the original run. 409 only while the job can still
// finish; failed/cancelled jobs will never have a checkpoint, so they
// are a terminal 404 rather than a 409 a poller would wait out forever.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	switch st := j.State(); st {
	case StateDone:
	case StateFailed, StateCancelled:
		writeError(w, http.StatusNotFound, ErrCodeNoModel,
			"no model checkpoint for job "+j.ID+" (state "+string(st)+")")
		return
	default:
		writeError(w, http.StatusConflict, ErrCodeNotFinished,
			"job "+j.ID+" not finished (state "+string(st)+")")
		return
	}
	blob, ok, err := s.engine.ModelBlob(j.Key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNoModel, "no model checkpoint for job "+j.ID)
		return
	}
	writeBlob(w, r, blob)
}

// writeBlob serves a checkpoint blob with a strong ETag over its bytes,
// honoring If-None-Match so a caching client that already holds the
// bytes pays one round-trip and zero body transfer, and an explicit
// Content-Length so receivers can preallocate and verify.
func writeBlob(w http.ResponseWriter, r *http.Request, blob []byte) {
	sum := sha256.Sum256(blob)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// etagMatch reports whether an If-None-Match header value matches the
// entity tag: "*" matches anything, otherwise any listed tag compares
// equal (weak-validator prefixes are tolerated — byte-identical blobs
// are trivially semantically identical).
func etagMatch(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, candidate := range strings.Split(ifNoneMatch, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if err := s.engine.Cancel(j.ID); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.view(j, false))
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchFromPath(w, r)
	if !ok {
		return
	}
	b.Cancel()
	writeJSON(w, http.StatusOK, s.sweepView(b, false))
}

// handleJobEvents bridges Job.Subscribe to the wire as Server-Sent
// Events: one frame per progress event, `event:` naming the job state,
// `data:` carrying the JSON Event, and a final `event: end` frame
// before the stream closes on terminal state. The subscription opens
// with a snapshot of the current state, so a reconnecting client
// resumes from the present — Last-Event-ID is accepted and ignored,
// because events are snapshots, not a replayable log.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.streamEvents(w, r, j.Subscribe())
}

// handleSweepEvents streams the batch's merged event stream (every
// event of every distinct sweep job) as SSE, ending once all jobs are
// terminal.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchFromPath(w, r)
	if !ok {
		return
	}
	s.streamEvents(w, r, b.Events(r.Context()))
}

// streamEvents writes a channel of Events to the response as SSE until
// the channel closes (then an `event: end` frame terminates the stream
// cleanly) or the client disconnects. Flushing goes through
// http.ResponseController so the stream works through middleware
// wrappers (the metrics statusRecorder) that expose Unwrap instead of
// implementing http.Flusher themselves.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, events <-chan Event) {
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	// The first flush doubles as the capability probe: on a connection
	// that cannot stream it fails WITHOUT committing the headers above,
	// so the error envelope still goes out clean.
	if err := rc.Flush(); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeStreamUnsupported,
			"response writer does not support streaming")
		return
	}
	s.metrics.sseActive.Inc()
	defer s.metrics.sseActive.Dec()
	id := 0
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				_ = rc.Flush()
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			id++
			// A write or flush failure means the client is gone (an abrupt
			// disconnect the context cancellation may lag behind, or miss
			// entirely under custom transports): end the stream now so the
			// deferred active-gauge decrement runs instead of counting a
			// dead consumer until the job finishes.
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, ev.State, data); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
