package client_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// tinySpec is a federated run small enough for unit tests.
func tinySpec(method string) client.Spec {
	return client.Spec{
		Method:    method,
		Dataset:   "PACS",
		GenSeed:   12,
		Split:     client.SplitSpec{Name: "tiny", Train: []int{0, 1}, Test: []int{3}},
		Lambda:    0.1,
		Clients:   2,
		SampleK:   2,
		Rounds:    2,
		PerDomain: 24,
		EvalPer:   12,
		Seed:      1,
		Tag:       "client-test",
	}
}

// newTestServer boots an engine behind the HTTP API and a client
// speaking to it.
func newTestServer(t *testing.T) (*client.Client, *engine.Engine, *httptest.Server) {
	t.Helper()
	e, err := engine.New(engine.Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	srv := httptest.NewServer(engine.NewServer(e))
	t.Cleanup(srv.Close)
	return client.New(srv.URL, client.WithHTTPClient(srv.Client())), e, srv
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestClientSubmitWaitModel drives the single-job surface end to end:
// submit, wait via the event stream, fetch the result, download and
// decode the model checkpoint.
func TestClientSubmitWaitModel(t *testing.T) {
	c, _, _ := newTestServer(t)
	ctx := testCtx(t)

	if _, err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	view, err := c.Submit(ctx, tinySpec("FedAvg"), client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || view.State.Terminal() && !view.Cached {
		t.Fatalf("submit view = %+v", view)
	}
	res, err := c.Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Final().TestAcc; acc <= 0 || acc > 1 {
		t.Fatalf("implausible accuracy %g", acc)
	}
	blob, err := c.Model(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.LoadModel(blob)
	if err != nil || m.NumParams() == 0 {
		t.Fatalf("model blob does not decode: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted == 0 || st.RoundsExecuted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientSweep drives the sweep surface: submit a methods × seeds
// grid, follow the merged event stream to completion, read per-job
// results, and observe the cached resubmission.
func TestClientSweep(t *testing.T) {
	c, e, _ := newTestServer(t)
	ctx := testCtx(t)

	base := tinySpec("")
	base.Seed = 0
	sw := client.Sweep{
		Base:    base,
		Methods: []string{"FedAvg", "PARDON"},
		Seeds:   []client.SeedSpec{{Seed: 1}, {Seed: 2}},
	}
	view, err := c.SubmitSweep(ctx, sw, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if view.Counts.Total != 4 || view.Counts.Unique != 4 {
		t.Fatalf("sweep view = %+v", view.Counts)
	}

	stream, err := c.SweepEvents(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	perJob := map[string]client.State{}
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		perJob[ev.JobID] = ev.State
	}
	if len(perJob) != 4 {
		t.Fatalf("events from %d jobs, want 4", len(perJob))
	}
	for id, st := range perJob {
		if st != client.StateDone {
			t.Fatalf("job %s ended %s", id, st)
		}
	}

	final, err := c.WaitSweep(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Counts.Done != 4 {
		t.Fatalf("final sweep view = %+v", final.Counts)
	}
	for _, jv := range final.Jobs {
		if jv.Result == nil || jv.Result.Final().TestAcc <= 0 {
			t.Fatalf("job %s missing result", jv.ID)
		}
	}

	rounds := e.Stats().RoundsExecuted
	again, err := c.SubmitSweep(ctx, sw, client.SubmitOptions{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Counts.Cached != 4 || e.Stats().RoundsExecuted != rounds {
		t.Fatalf("resubmission not fully cached: %+v", again.Counts)
	}
}

// TestClientCancelSweep drives the cancel routes of the SDK over a
// sweep whose cells sit queued on a dispatch-only engine:
// CancelSweep cancels the cell the sweep solely owns and leaves the cell
// a standalone submission shares queued, and Cancel then cancels that
// one.
func TestClientCancelSweep(t *testing.T) {
	// No local workers: every job stays queued until it is cancelled.
	e, err := engine.New(engine.Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	srv := httptest.NewServer(engine.NewServer(e))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	ctx := testCtx(t)

	shared, err := c.Submit(ctx, tinySpec("FedAvg"), client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.SubmitSweep(ctx, client.Sweep{Base: tinySpec(""), Methods: []string{"FedAvg", "PARDON"}}, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CancelSweep(ctx, view.ID); err != nil {
		t.Fatal(err)
	}
	view, err = c.Sweep(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]client.State{"FedAvg": client.StateQueued, "PARDON": client.StateCancelled}
	if len(view.Jobs) != len(want) {
		t.Fatalf("sweep jobs = %+v, want one per method", view.Jobs)
	}
	for _, jv := range view.Jobs {
		if jv.State != want[jv.Method] {
			t.Fatalf("after CancelSweep the %s cell is %s, want %s", jv.Method, jv.State, want[jv.Method])
		}
	}
	if err := c.Cancel(ctx, shared.ID); err != nil {
		t.Fatal(err)
	}
	if jv, err := c.Job(ctx, shared.ID); err != nil || jv.State != client.StateCancelled {
		t.Fatalf("after Cancel the shared job is %+v (%v), want cancelled", jv, err)
	}
}

// TestClientTypedErrors: API failures surface as *APIError with the
// envelope's machine-readable code.
func TestClientTypedErrors(t *testing.T) {
	c, _, _ := newTestServer(t)
	ctx := testCtx(t)

	_, err := c.Job(ctx, "job-404")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || !apiErr.NotFound() || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown job error = %v", err)
	}

	bad := tinySpec("FedAvg")
	bad.Dataset = "CIFAR"
	_, err = c.Submit(ctx, bad, client.SubmitOptions{})
	if !errors.As(err, &apiErr) || apiErr.Code != client.ErrCodeInvalidSpec {
		t.Fatalf("invalid spec error = %v", err)
	}

	_, err = c.SweepEvents(ctx, "sweep-404")
	if !errors.As(err, &apiErr) || !apiErr.NotFound() {
		t.Fatalf("unknown sweep stream error = %v", err)
	}
}

// TestClientResultEvicted: a Done job whose Result the server's capped
// disk store has let go reads as a not-found *APIError from Result,
// never as a nil Result without an error.
func TestClientResultEvicted(t *testing.T) {
	e, err := engine.New(engine.Options{Workers: -1, CacheDir: t.TempDir(), CacheMaxBytes: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	srv := httptest.NewServer(engine.NewServer(e))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	ctx := testCtx(t)

	store := func(sp client.Spec) {
		key, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Store().Put(key, &client.Result{SpecHash: key, Method: sp.Method}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := tinySpec("FedAvg"), tinySpec("FedAvg")
	b.Seed = 2
	store(a)
	view, err := c.Submit(ctx, a, client.SubmitOptions{})
	if err != nil || !view.Cached {
		t.Fatalf("submit of a stored Spec = %+v, %v; want a cache hit", view, err)
	}
	store(b) // past the 1-byte cap: evicts a's entry
	res, err := c.Result(ctx, view.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || !apiErr.NotFound() {
		t.Fatalf("Result of the evicted %s = (%v, %v), want a not_found *APIError", view.ID, res, err)
	}
}

// TestClientEventsReconnect: a transport drop mid-stream is repaired
// transparently — the iterator reconnects and still observes the
// terminal state.
func TestClientEventsReconnect(t *testing.T) {
	e, err := engine.New(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	api := engine.NewServer(e)
	// The first events request is cut off mid-stream after the headers;
	// every later request passes through untouched.
	var cut atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") && cut.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // drop the connection
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	ctx := testCtx(t)

	view, err := c.Submit(ctx, tinySpec("FedAvg"), client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := c.Events(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var sawTerminal bool
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream did not survive the drop: %v", err)
		}
		if ev.State.Terminal() {
			sawTerminal = true
		}
	}
	if !cut.Load() {
		t.Fatal("test did not exercise the drop path")
	}
	if !sawTerminal {
		t.Fatal("reconnected stream missed the terminal state")
	}
}

// TestClientJobsPagination pages the listing through the typed client:
// one run and two cache hits of it make three done jobs.
func TestClientJobsPagination(t *testing.T) {
	c, e, _ := newTestServer(t)
	ctx := testCtx(t)

	for i := 0; i < 3; i++ {
		j, err := e.Submit(tinySpec("FedAvg"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	opts := client.ListOptions{Limit: 2, State: client.StateDone}
	for {
		page, err := c.Jobs(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, jv := range page.Jobs {
			ids = append(ids, jv.ID)
		}
		if page.Next == "" {
			break
		}
		opts.After = page.Next
	}
	if len(ids) != 3 {
		t.Fatalf("paged %d done jobs, want 3", len(ids))
	}
}
