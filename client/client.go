// Package client is the public typed SDK for the `feddg serve`
// experiment API — the sanctioned way to talk to a remote engine.
//
// A Client submits single Specs or whole parameter Sweeps, waits on
// results, downloads trained-model checkpoints, pages through the job
// registry, and follows per-round progress as a Server-Sent-Events
// stream that transparently reconnects:
//
//	c := client.New("http://localhost:8080")
//	view, err := c.SubmitSweep(ctx, client.Sweep{
//	        Base:    base,
//	        Methods: []string{"FedAvg", "PARDON"},
//	        Seeds:   []client.SeedSpec{{Seed: 1}, {Seed: 2}},
//	}, client.SubmitOptions{})
//	stream, err := c.SweepEvents(ctx, view.ID)
//	for {
//	        ev, err := stream.Next()
//	        if err != nil { break } // io.EOF once every job is terminal
//	        fmt.Printf("%s %s %d/%d\n", ev.JobID, ev.State, ev.Round, ev.Rounds)
//	}
//
// Wire types are shared with the server by alias, so a client Spec
// hashes to the same content-address the engine computes and the SDK
// can never drift from the wire format. API failures are returned as
// *APIError with the machine-readable code of the v2 error envelope.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
)

// Wire types, aliased from the engine so the SDK and the server can
// never disagree on encoding or content-addresses.
type (
	// Spec is the canonical, hashable description of one federated run.
	Spec = engine.Spec
	// SplitSpec names the train/val/test domain indices of a scheme.
	SplitSpec = engine.SplitSpec
	// Sweep is a declarative parameter grid over a base Spec.
	Sweep = engine.Sweep
	// SeedSpec is one entry of a Sweep's seed axis.
	SeedSpec = engine.SeedSpec
	// Result is the memoized outcome of a job.
	Result = engine.Result
	// RoundStat is one evaluation snapshot of a run.
	RoundStat = engine.RoundStat
	// Event is one progress notification of a job.
	Event = engine.Event
	// State is a job's lifecycle stage.
	State = engine.State
	// Stats is a snapshot of engine counters.
	Stats = engine.Stats
	// JobView is the wire representation of a job.
	JobView = engine.JobView
	// JobTiming is a job's phase wall-clock breakdown (queue/run/persist).
	JobTiming = engine.JobTiming
	// HealthView is the GET /v1/healthz body: serving state + build info.
	HealthView = engine.HealthView
	// SweepView is the wire representation of a sweep batch.
	SweepView = engine.SweepView
	// BatchCounts is the aggregate state of a sweep batch.
	BatchCounts = engine.BatchCounts
	// JobList is one page of the job listing.
	JobList = engine.JobList
	// SweepList is one page of the sweep listing.
	SweepList = engine.SweepList
)

// Job lifecycle states, re-exported for switch statements.
const (
	StateQueued    = engine.StateQueued
	StateRunning   = engine.StateRunning
	StateDone      = engine.StateDone
	StateFailed    = engine.StateFailed
	StateCancelled = engine.StateCancelled
)

// Machine-readable error codes of the API's error envelope.
const (
	ErrCodeBadRequest        = engine.ErrCodeBadRequest
	ErrCodeInvalidSpec       = engine.ErrCodeInvalidSpec
	ErrCodePayloadTooLarge   = engine.ErrCodePayloadTooLarge
	ErrCodeNotFound          = engine.ErrCodeNotFound
	ErrCodeNotFinished       = engine.ErrCodeNotFinished
	ErrCodeNoModel           = engine.ErrCodeNoModel
	ErrCodeClientGone        = engine.ErrCodeClientGone
	ErrCodeInternal          = engine.ErrCodeInternal
	ErrCodeUnavailable       = engine.ErrCodeUnavailable
	ErrCodeStreamUnsupported = engine.ErrCodeStreamUnsupported
	ErrCodeUnauthorized      = engine.ErrCodeUnauthorized
	ErrCodeRateLimited       = engine.ErrCodeRateLimited
	ErrCodeQuotaExceeded     = engine.ErrCodeQuotaExceeded
)

// APIError is a typed API failure: the HTTP status plus the envelope's
// machine-readable code and human message. Check it with errors.As:
//
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == client.ErrCodeNotFound { … }
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the machine-readable error code (ErrCode…).
	Code string
	// Message is the human-readable error text.
	Message string
	// RetryAfter is the server's Retry-After hint on 429 responses
	// (zero when the header was absent). Submit and SubmitSweep honor
	// it automatically; surface it to pace any manual retry loop.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("feddg api: %d %s: %s", e.Status, e.Code, e.Message)
}

// NotFound reports whether the failure is an unknown job or sweep ID.
func (e *APIError) NotFound() bool { return e.Code == ErrCodeNotFound }

// Unauthorized reports a missing or unrecognized API key (HTTP 401) —
// configure the client with WithAPIKey.
func (e *APIError) Unauthorized() bool { return e.Status == http.StatusUnauthorized }

// RateLimited reports an HTTP 429 — the tenant's request rate or queue
// quota is exhausted; wait RetryAfter before retrying.
func (e *APIError) RateLimited() bool { return e.Status == http.StatusTooManyRequests }

// parseAPIError decodes an error response body, tolerating both the v2
// structured envelope and the v1 flat string.
func parseAPIError(status int, body []byte) *APIError {
	ae := &APIError{Status: status, Code: "unknown"}
	var env struct {
		Error   json.RawMessage `json:"error"`
		Message string          `json:"message"`
	}
	if json.Unmarshal(body, &env) == nil {
		var detail struct{ Code, Message string }
		if json.Unmarshal(env.Error, &detail) == nil && detail.Message != "" {
			ae.Code, ae.Message = detail.Code, detail.Message
			return ae
		}
		var flat string
		if json.Unmarshal(env.Error, &flat) == nil && flat != "" {
			ae.Message = flat
			return ae
		}
		if env.Message != "" {
			ae.Message = env.Message
			return ae
		}
	}
	ae.Message = strings.TrimSpace(string(body))
	return ae
}

// parseAPIErrorResp is parseAPIError plus the response headers: it
// lifts a Retry-After hint (seconds form) into the error.
func parseAPIErrorResp(resp *http.Response, body []byte) *APIError {
	ae := parseAPIError(resp.StatusCode, body)
	if v := strings.TrimSpace(resp.Header.Get("Retry-After")); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// Client talks to one `feddg serve` endpoint. It is safe for concurrent
// use; the zero value is not usable — construct with New.
type Client struct {
	base   string
	hc     *http.Client
	apiKey string
	// pollInterval paces the polling fallback of Wait.
	pollInterval time.Duration
	// retrySleep waits between 429-retries of Submit/SubmitSweep;
	// replaceable in tests so backoff tests run in microseconds.
	retrySleep func(ctx context.Context, d time.Duration) error
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport, e.g. an httptest server's
// client or one with custom timeouts. The default is http.Client with
// no timeout: submit-with-wait and event streams are long-lived.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithAPIKey authenticates every request (including event streams and
// model downloads) as `Authorization: Bearer <key>` — required against
// a server running with -api-keys. Without it such a server answers 401
// (*APIError with Unauthorized() true).
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// New opens a client against a base URL like "http://host:8080".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           &http.Client{},
		pollInterval: 250 * time.Millisecond,
		retrySleep: func(ctx context.Context, d time.Duration) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
				return nil
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// auth attaches the API key, when configured.
func (c *Client) auth(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
}

// do performs one JSON round-trip; non-2xx responses come back as
// *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doTraced(ctx, method, path, "", body, out)
}

// doTraced is do with an X-Request-ID attached, so the server adopts
// the caller's trace ID instead of minting one.
func (c *Client) doTraced(ctx context.Context, method, path, trace string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set("X-Request-ID", trace)
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return parseAPIErrorResp(resp, raw)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

// Healthz fetches the server's health detail: serving/draining state
// plus the build identity of the running binary.
func (c *Client) Healthz(ctx context.Context) (HealthView, error) {
	var v HealthView
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &v)
	return v, err
}

// Stats fetches the engine counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// SubmitOptions tunes a Submit or SubmitSweep call.
type SubmitOptions struct {
	// Priority orders the queue; higher runs first.
	Priority int
	// Wait blocks the call until the work is terminal and inlines
	// results into the returned view.
	Wait bool
	// TraceID, when non-empty, is sent as X-Request-ID so the server
	// adopts it as the job's (or sweep's) trace — the submission then
	// correlates with the caller's own logs. Invalid IDs (empty, over
	// 100 chars, or outside [a-zA-Z0-9._-]) are replaced by a minted
	// one; the winning ID is in the returned view's TraceID.
	TraceID string
}

// Submission retry bounds: a 429'd Submit/SubmitSweep sleeps out the
// server's Retry-After (clamped to maxRetryAfter, defaulting to 1s when
// the header is absent) up to maxSubmitRetries times before surfacing
// the error. Retrying a submit is always safe — Specs are
// content-addressed, so a duplicate that does land coalesces or cache-hits.
const (
	maxSubmitRetries = 4
	maxRetryAfter    = 30 * time.Second
)

// postRetry performs a submit POST, transparently retrying rate-limited
// (429) responses with the server's Retry-After pacing. Any other
// failure — including ctx expiring mid-backoff — returns immediately.
func (c *Client) postRetry(ctx context.Context, path, trace string, body, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.doTraced(ctx, http.MethodPost, path, trace, body, out)
		var ae *APIError
		if err == nil || !errors.As(err, &ae) || !ae.RateLimited() || attempt >= maxSubmitRetries {
			return err
		}
		wait := ae.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		if wait > maxRetryAfter {
			wait = maxRetryAfter
		}
		if serr := c.retrySleep(ctx, wait); serr != nil {
			return err // ctx died waiting: surface the 429, not the ctx error alone
		}
	}
}

// Submit schedules one Spec. The returned view carries the job ID; with
// opts.Wait the job is terminal and its Result inlined. Rate-limited
// submissions (429) retry automatically, honoring the server's
// Retry-After, up to maxSubmitRetries times within ctx's lifetime.
func (c *Client) Submit(ctx context.Context, spec Spec, opts SubmitOptions) (JobView, error) {
	req := engine.SubmitRequest{Spec: spec, Priority: opts.Priority, Wait: opts.Wait}
	var view JobView
	err := c.postRetry(ctx, "/v1/jobs", opts.TraceID, req, &view)
	return view, err
}

// SubmitSweep schedules a parameter grid; the server expands it into
// deduplicated content-addressed jobs. The returned view carries the
// sweep ID, aggregate counts, and per-job views; with opts.Wait every
// job is terminal and results are inlined. Like Submit, 429s retry
// automatically with Retry-After pacing.
func (c *Client) SubmitSweep(ctx context.Context, sw Sweep, opts SubmitOptions) (SweepView, error) {
	req := engine.SweepRequest{Sweep: sw, Priority: opts.Priority, Wait: opts.Wait}
	var view SweepView
	err := c.postRetry(ctx, "/v1/sweeps", opts.TraceID, req, &view)
	return view, err
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var view JobView
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &view)
	return view, err
}

// Sweep fetches a sweep's aggregate counts and per-job views (with
// results inlined for finished jobs).
func (c *Client) Sweep(ctx context.Context, id string) (SweepView, error) {
	var view SweepView
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+url.PathEscape(id), nil, &view)
	return view, err
}

// ListOptions filters and pages the job listing.
type ListOptions struct {
	// State keeps only jobs in that lifecycle state ("" = all).
	State State
	// Limit caps the page size (0 = server default, unbounded).
	Limit int
	// After resumes below a previous page's Next cursor.
	After string
}

// Jobs lists jobs newest first. Follow pages via JobList.Next:
//
//	for page, err := c.Jobs(ctx, opts); ; page, err = c.Jobs(ctx, opts) {
//	        …
//	        if err != nil || page.Next == "" { break }
//	        opts.After = page.Next
//	}
func (c *Client) Jobs(ctx context.Context, opts ListOptions) (JobList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.After != "" {
		q.Set("after", opts.After)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list JobList
	err := c.do(ctx, http.MethodGet, path, nil, &list)
	return list, err
}

// Sweeps lists sweeps newest first, pageable exactly like Jobs (follow
// SweepList.Next via opts.After). Listed views carry aggregate counts
// and state but no per-job views; fetch Sweep(id) for those. The State
// filter matches the sweep's aggregate state: "running" until every
// job is terminal, then done/failed/cancelled.
func (c *Client) Sweeps(ctx context.Context, opts ListOptions) (SweepList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.After != "" {
		q.Set("after", opts.After)
	}
	path := "/v1/sweeps"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list SweepList
	err := c.do(ctx, http.MethodGet, path, nil, &list)
	return list, err
}

// Result fetches a finished job's Result. While the job is still
// pending this is an *APIError with code "not_finished" (use Wait to
// block instead); a failed or cancelled job yields an error carrying
// the job's failure text.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	var view JobView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &view); err != nil {
		return nil, err
	}
	if view.State != StateDone {
		if view.Error != "" {
			return nil, fmt.Errorf("client: job %s %s: %s", id, view.State, view.Error)
		}
		return nil, fmt.Errorf("client: job %s %s", id, view.State)
	}
	return view.Result, nil
}

// Wait blocks until the job is terminal and returns its Result (or the
// job's failure). It follows the job's event stream; if streaming is
// unavailable it falls back to polling the status endpoint.
func (c *Client) Wait(ctx context.Context, id string) (*Result, error) {
	if stream, err := c.Events(ctx, id); err == nil {
		defer stream.Close()
		for {
			ev, err := stream.Next()
			if err != nil {
				break // stream lost beyond repair: fall back to polling
			}
			if ev.State.Terminal() {
				return c.Result(ctx, id)
			}
		}
	}
	for {
		view, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if view.State.Terminal() {
			return c.Result(ctx, id)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.pollInterval):
		}
	}
}

// WaitSweep blocks until every sweep job is terminal and returns the
// final view with per-job results inlined. It follows the sweep's
// merged event stream, falling back to polling.
func (c *Client) WaitSweep(ctx context.Context, id string) (SweepView, error) {
	if stream, err := c.SweepEvents(ctx, id); err == nil {
		for {
			if _, err := stream.Next(); err != nil {
				break
			}
		}
		stream.Close()
		if view, err := c.Sweep(ctx, id); err != nil || view.Done {
			return view, err
		}
	}
	for {
		view, err := c.Sweep(ctx, id)
		if err != nil {
			return view, err
		}
		if view.Done {
			return view, nil
		}
		select {
		case <-ctx.Done():
			return view, ctx.Err()
		case <-time.After(c.pollInterval):
		}
	}
}

// Model downloads a finished job's trained-model checkpoint in the nn
// binary format (decode with nn.LoadModel / pardon.Model loading).
func (c *Client) Model(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/model", nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, parseAPIErrorResp(resp, raw)
	}
	return io.ReadAll(resp.Body)
}

// Cancel aborts a job: immediately when queued, at the next round
// boundary when running.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, nil)
}

// CancelSweep aborts every solely-owned job of a sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/sweeps/"+url.PathEscape(id)+"/cancel", nil, nil)
}

// Events follows a job's progress stream: one Event per completed
// federated round plus state transitions, ending with io.EOF once the
// job is terminal. The iterator reconnects transparently when the
// transport drops mid-stream; each (re)connection starts with a
// snapshot of the current state, so no terminal transition can be
// missed.
func (c *Client) Events(ctx context.Context, jobID string) (*EventStream, error) {
	return c.stream(ctx, "/v1/jobs/"+url.PathEscape(jobID)+"/events")
}

// SweepEvents follows the merged progress stream of every job in a
// sweep, ending with io.EOF once all jobs are terminal. Events carry
// their JobID for demultiplexing.
func (c *Client) SweepEvents(ctx context.Context, sweepID string) (*EventStream, error) {
	return c.stream(ctx, "/v1/sweeps/"+url.PathEscape(sweepID)+"/events")
}
