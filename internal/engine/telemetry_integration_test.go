package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// postJSONTraced posts a value with an X-Request-ID header and returns
// the decoded response plus the echoed header.
func postJSONTraced(t *testing.T, client *http.Client, url, trace string, body, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set("X-Request-ID", trace)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Request-ID")
}

// TestTraceSurvivesSubmitToSSE is the end-to-end trace guarantee: an
// X-Request-ID supplied at submit becomes the job's trace, is echoed in
// the response header and job view, and rides every SSE frame of the
// job's event stream.
func TestTraceSurvivesSubmitToSSE(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	const trace = "it-trace.7_x"
	var view JobView
	code, echoed := postJSONTraced(t, srv.Client(), srv.URL+"/v1/jobs", trace,
		SubmitRequest{Spec: tinySpec("FedAvg"), Wait: true}, &view)
	if code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if echoed != trace {
		t.Fatalf("X-Request-ID echoed %q, want %q", echoed, trace)
	}
	if view.TraceID != trace {
		t.Fatalf("job view trace %q, want %q", view.TraceID, trace)
	}
	if view.Timing == nil || view.Timing.RunSec <= 0 {
		t.Fatalf("job view timing = %+v, want a positive run phase", view.Timing)
	}

	// Every frame of the (already-terminal) event stream carries the trace.
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	for _, f := range frames {
		if f.Event == "end" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
			t.Fatalf("frame %q: %v", f.Data, err)
		}
		if ev.Trace != trace {
			t.Fatalf("event trace %q, want %q (frame %q)", ev.Trace, trace, f.Data)
		}
	}

	// An injection-unsafe header is NOT adopted: the server mints a
	// fresh, valid ID instead.
	var view2 JobView
	_, echoed2 := postJSONTraced(t, srv.Client(), srv.URL+"/v1/jobs", "", // no header at all
		SubmitRequest{Spec: tinySpec("FedSR")}, &view2)
	if view2.TraceID == "" || echoed2 != view2.TraceID {
		t.Fatalf("minted trace: view %q, header %q", view2.TraceID, echoed2)
	}
}

// TestSweepTraceDerivesCellTraces checks the batch trace contract: the
// sweep adopts the submit's X-Request-ID and each fresh cell job's
// trace is "<batch-trace>-cN".
func TestSweepTraceDerivesCellTraces(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	const trace = "sweep-trace-1"
	sw := Sweep{Base: tinySpec("FedAvg"), Seeds: []SeedSpec{{Seed: 1}, {Seed: 2}}}
	var view SweepView
	code, echoed := postJSONTraced(t, srv.Client(), srv.URL+"/v1/sweeps", trace,
		SweepRequest{Sweep: sw, Wait: true}, &view)
	if code != http.StatusOK {
		t.Fatalf("sweep submit = %d", code)
	}
	if echoed != trace || view.TraceID != trace {
		t.Fatalf("sweep trace: header %q, view %q, want %q", echoed, view.TraceID, trace)
	}
	if len(view.Jobs) != 2 {
		t.Fatalf("%d sweep jobs, want 2", len(view.Jobs))
	}
	for _, j := range view.Jobs {
		if !strings.HasPrefix(j.TraceID, trace+"-c") {
			t.Fatalf("cell job trace %q lacks prefix %q", j.TraceID, trace+"-c")
		}
	}
}

// TestHealthzServingAndDraining drives GET /v1/healthz through both
// engine states and checks the build identity rides along.
func TestHealthzServingAndDraining(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	var hv HealthView
	if code := getJSON(t, srv.Client(), srv.URL+"/v1/healthz", &hv); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if hv.Status != "serving" {
		t.Fatalf("status %q, want serving", hv.Status)
	}
	if hv.Build.GoVersion == "" || hv.Build.Version == "" {
		t.Fatalf("incomplete build info: %+v", hv.Build)
	}

	e.Close()
	if code := getJSON(t, srv.Client(), srv.URL+"/v1/healthz", &hv); code != http.StatusOK || hv.Status != "draining" {
		t.Fatalf("healthz after close = %d %q, want 200 draining", code, hv.Status)
	}
}

// TestStoreCorruptEntryDegradesToMiss is the satellite contract: an
// unreadable or undecodable cache entry is a logged, counted miss — it
// must neither fail the lookup nor serve garbage.
func TestStoreCorruptEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	seedStore, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "deadbeefcafe"
	if err := seedStore.Put(hash, &Result{SpecHash: hash, Method: "FedAvg"}); err != nil {
		t.Fatal(err)
	}

	// Garbage where the envelope should be. A fresh store over the same
	// directory has a cold memory cache, so Get must go to disk.
	if err := os.WriteFile(filepath.Join(dir, hash+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s, err := newStoreWith(dir, reg, slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := s.Get(hash)
	if err != nil || ok || res != nil {
		t.Fatalf("Get over garbage = (%v, %v, %v), want clean miss", res, ok, err)
	}
	if got := s.metrics.corrupt.Value(); got != 1 {
		t.Fatalf("store_corrupt_total = %d, want 1", got)
	}
	if got := s.metrics.misses.Value(); got != 1 {
		t.Fatalf("store_misses_total = %d, want 1", got)
	}

	// A decodable envelope with a null result is equally corrupt.
	if err := os.WriteFile(filepath.Join(dir, hash+".json"),
		[]byte(`{"hash":"`+hash+`","code_version":"`+CodeVersion+`","result":null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(hash); err != nil || ok {
		t.Fatalf("Get over null-result envelope: ok=%v err=%v, want clean miss", ok, err)
	}
	if got := s.metrics.corrupt.Value(); got != 2 {
		t.Fatalf("store_corrupt_total = %d, want 2", got)
	}
}

// TestMetricsEndpointEndToEnd submits through the API and asserts the
// ops mux's /metrics exposition reflects the work: completed jobs,
// store traffic, and the instrumented HTTP route.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	api := httptest.NewServer(NewServer(e))
	defer api.Close()
	ops := httptest.NewServer(NewOpsMux(e))
	defer ops.Close()

	var view JobView
	if code := postJSON(t, api.Client(), api.URL+"/v1/jobs", SubmitRequest{Spec: tinySpec("FedAvg"), Wait: true}, &view); code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}

	scrape := func(wants ...string) {
		t.Helper()
		resp, err := ops.Client().Get(ops.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics = %d", resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		body := string(raw)
		for _, want := range wants {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
		if t.Failed() {
			t.Fatalf("exposition:\n%s", body)
		}
	}
	scrape(
		`engine_jobs_submitted_total{tenant="anonymous"} 1`,
		`engine_jobs_completed_total{state="done",tenant="anonymous"} 1`,
		`engine_rounds_total 2`,
		`store_misses_total 1`,
		`http_requests_total{route="POST /v1/jobs",code="200",tenant="anonymous"} 1`,
		`sched_run_seconds_bucket{method="FedAvg",le="+Inf"} 1`,
	)

	// A cache hit, then its result: the store counts every lookup (the
	// wait above read the Result, the hit's submit and GET …/result
	// read it again), the engine only the submission it answered.
	var hit JobView
	if code := postJSON(t, api.Client(), api.URL+"/v1/jobs", SubmitRequest{Spec: tinySpec("FedAvg")}, &hit); code != http.StatusAccepted || !hit.Cached {
		t.Fatalf("resubmit = %d %+v, want 202 and a cache hit", code, hit)
	}
	if code := getJSON(t, api.Client(), api.URL+"/v1/jobs/"+hit.ID+"/result", &hit); code != http.StatusOK || hit.Result == nil {
		t.Fatalf("GET result = %d %+v", code, hit)
	}
	scrape(
		`engine_cache_hits_total 1`,
		`store_hits_total 3`,
		`store_misses_total 1`,
	)

	// One pprof profile must be fetchable from the same mux (the CI
	// smoke test does exactly this).
	presp, err := ops.Client().Get(ops.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", presp.StatusCode)
	}
}

// TestLateRemoteResultRecordsNoRunTime pins the lease-expiry race: a
// late result that settles a job requeued after its lease expired has
// no run interval, so sched_run_seconds must not gain a 0 s sample.
func TestLateRemoteResultRecordsNoRunTime(t *testing.T) {
	// Workers: -1 — a dispatch-only coordinator, so the job stays queued
	// after the requeue instead of being run locally.
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	j, err := e.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	leased, ok := e.ClaimRemote(context.Background(), "w1", nil)
	if !ok {
		t.Fatal("queue empty, want a lease")
	}
	if !e.RequeueRemote(leased) {
		t.Fatal("requeue of a leased job refused")
	}
	runs := e.sched.metrics.runSeconds.With("FedAvg")
	before := runs.Count()
	res := &Result{SpecHash: j.Key, Method: "FedAvg",
		Stats: []RoundStat{{Round: 1, ValAcc: 0.5, TestAcc: 0.5}}, ElapsedSec: 0.01}
	if err := e.CompleteRemote(leased, res, nil); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateDone {
		t.Fatalf("late-settled job state = %s, want done", j.State())
	}
	if got := runs.Count(); got != before {
		t.Fatalf("sched_run_seconds count = %d after a late result, want %d", got, before)
	}
	// The wait before the claim, the lease and the wait after the
	// requeue follow one another: no interval is counted twice.
	var phases []telemetry.Span
	for _, sp := range e.Traces().Trace(j.TraceID) {
		if sp.Name == "queue" || sp.Name == "lease" {
			phases = append(phases, sp)
		}
	}
	sort.Slice(phases, func(a, b int) bool { return phases[a].Start.Before(phases[b].Start) })
	if len(phases) != 3 || phases[0].Name != "queue" || phases[1].Name != "lease" || phases[2].Name != "queue" {
		t.Fatalf("queue and lease spans = %v, want queue, lease, queue", phases)
	}
	for i := 1; i < len(phases); i++ {
		// DurationSec is a float: allow its rounding, not an overlap.
		prevEnd := phases[i-1].Start.Add(time.Duration(phases[i-1].DurationSec*float64(time.Second)) - time.Microsecond)
		if phases[i].Start.Before(prevEnd) {
			t.Fatalf("%s span starts before the %s span ends", phases[i].Name, phases[i-1].Name)
		}
	}
}

// TestQueueSecCountsOnlyQueueWaits: a job's timing reports as its queue
// time the waits its queue spans cover — not its admission before the
// first wait, nor a lease it spent running before a requeue.
func TestQueueSecCountsOnlyQueueWaits(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	j, err := e.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	leased := claim(t, e, "w1")
	if !e.RequeueRemote(leased) {
		t.Fatal("requeue of a leased job refused")
	}
	if claim(t, e, "w1") != j {
		t.Fatal("second claim took another job")
	}
	var waits []float64
	sum := 0.0
	for _, sp := range e.Traces().Trace(j.TraceID) {
		if sp.Name == "queue" {
			waits = append(waits, sp.DurationSec)
			sum += sp.DurationSec
		}
	}
	if len(waits) != 2 {
		t.Fatalf("queue spans = %v, want one per claim", waits)
	}
	if got := j.Timing().QueueSec; math.Abs(got-sum) > 1e-6 {
		t.Fatalf("QueueSec = %.9f, want the queue spans' total %.9f (%v)", got, sum, waits)
	}
}

// TestQueuedTracesOutliveEndedOnes: a queued job's trace holds only its
// submit span until its queue wait ends, so it is the least recently
// written trace of all while ended traces pile up. More than
// DefaultMaxTraces submissions — a few that stay queued on a
// dispatch-only engine among many cache hits, each of which ends at
// once — must still leave every queued job's submit span in place.
func TestQueuedTracesOutliveEndedOnes(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	var queued []*Job
	for i := 0; i < telemetry.DefaultMaxTraces+16; i++ {
		sp := tinySpec("FedAvg")
		sp.Seed = uint64(i + 1)
		if i%33 != 0 {
			hash, err := sp.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Store().Put(hash, &Result{SpecHash: hash, Method: "FedAvg"}); err != nil {
				t.Fatal(err)
			}
		}
		j, err := e.Submit(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Cached() {
			queued = append(queued, j)
		}
	}
	if len(queued) != 16 {
		t.Fatalf("%d jobs queued, want 16", len(queued))
	}
	for _, j := range queued {
		submitted := false
		for _, sp := range e.Traces().Trace(j.TraceID) {
			submitted = submitted || sp.Name == "submit"
		}
		if j.State() != StateQueued || !submitted {
			t.Fatalf("queued job %s (%s) lost its submit span to newer, ended traces", j.ID, j.State())
		}
	}
}
