package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/nn"
)

// postJSON posts a value and decodes the JSON response into out.
func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServeRoundTrip drives the full `feddg serve` job lifecycle over
// HTTP: submit → status → result, then a cached resubmission that must
// not train.
func TestServeRoundTrip(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	if code := getJSON(t, client, srv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Submit-and-wait returns the finished job with its result inline.
	var done JobView
	code := postJSON(t, client, srv.URL+"/v1/jobs", SubmitRequest{Spec: tinySpec("FedAvg"), Wait: true}, &done)
	if code != http.StatusOK {
		t.Fatalf("submit wait = %d (%+v)", code, done)
	}
	if done.State != StateDone || done.Cached || done.Result == nil {
		t.Fatalf("submit wait job = %+v", done)
	}
	if acc := done.Result.Final().TestAcc; acc <= 0 || acc > 1 {
		t.Fatalf("implausible accuracy %g", acc)
	}

	// Status and result endpoints agree.
	var status JobView
	if code := getJSON(t, client, srv.URL+"/v1/jobs/"+done.ID, &status); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if status.State != StateDone || status.Result != nil {
		t.Fatalf("status view = %+v (result must not be inlined)", status)
	}
	var result JobView
	if code := getJSON(t, client, srv.URL+"/v1/jobs/"+done.ID+"/result", &result); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if result.Result == nil || result.Result.Final() != done.Result.Final() {
		t.Fatalf("result view = %+v", result)
	}

	// An async resubmission of the identical Spec is a cache hit: born
	// done, zero additional rounds trained.
	roundsBefore := e.Stats().RoundsExecuted
	var cached JobView
	code = postJSON(t, client, srv.URL+"/v1/jobs", SubmitRequest{Spec: tinySpec("FedAvg")}, &cached)
	if code != http.StatusAccepted {
		t.Fatalf("cached submit = %d", code)
	}
	if cached.State != StateDone || !cached.Cached {
		t.Fatalf("cached submit job = %+v", cached)
	}
	if got := e.Stats().RoundsExecuted; got != roundsBefore {
		t.Fatalf("cached submit trained %d rounds", got-roundsBefore)
	}

	// List shows both jobs; stats report the hit.
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("list = %d with %d jobs, want 2", code, len(list.Jobs))
	}
	var stats Stats
	if code := getJSON(t, client, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.CacheHits != 1 || stats.Submitted != 2 {
		t.Fatalf("stats = %+v, want 1 cache hit of 2 submissions", stats)
	}
}

// TestServeModelEndpoint drives GET /v1/jobs/{id}/model: a finished
// Spec job serves its trained-model checkpoint as an octet stream that
// nn.LoadModel decodes; a job whose blob is gone returns 404 no_model.
func TestServeModelEndpoint(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	var done JobView
	if code := postJSON(t, client, srv.URL+"/v1/jobs", SubmitRequest{Spec: tinySpec("FedAvg"), Wait: true}, &done); code != http.StatusOK {
		t.Fatalf("submit wait = %d", code)
	}
	resp, err := client.Get(srv.URL + "/v1/jobs/" + done.ID + "/model")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model endpoint = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("model content type %q", ct)
	}
	m, err := nn.LoadModel(blob)
	if err != nil {
		t.Fatalf("served blob does not decode: %v", err)
	}
	if m.NumParams() == 0 {
		t.Fatal("decoded model is empty")
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(blob)) {
		t.Fatalf("Content-Length %q, want %d", cl, len(blob))
	}
	etag := resp.Header.Get("ETag")
	if len(etag) < 2 || etag[0] != '"' {
		t.Fatalf("ETag %q, want a strong quoted validator", etag)
	}

	// A conditional re-fetch with the blob's validator transfers nothing.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+done.ID+"/model", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	cond, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional model fetch = %d with %d bytes, want 304 empty", cond.StatusCode, len(body))
	}
	if cond.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag %q, want %q", cond.Header.Get("ETag"), etag)
	}

	// A stale validator (or a weak/multi-value header naming others)
	// still gets the bytes.
	req.Header.Set("If-None-Match", `W/"deadbeef", "cafebabe"`)
	stale, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(stale.Body)
	stale.Body.Close()
	if stale.StatusCode != http.StatusOK || !bytes.Equal(body, blob) {
		t.Fatalf("stale conditional fetch = %d with %d bytes, want 200 with the blob", stale.StatusCode, len(body))
	}

	// A done job whose checkpoint is gone: 404 no_model, not 500.
	e.Store().DropBlob(done.Key)
	var apiErr struct {
		Error APIError `json:"error"`
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs/"+done.ID+"/model", &apiErr); code != http.StatusNotFound || apiErr.Error.Code != ErrCodeNoModel {
		t.Fatalf("dropped-blob model = %d %+v, want 404 %s", code, apiErr.Error, ErrCodeNoModel)
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs/job-404/model", nil); code != http.StatusNotFound {
		t.Fatalf("unknown-job model = %d, want 404", code)
	}
}

func TestServeValidationAndErrors(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	bad := tinySpec("FedAvg")
	bad.Dataset = "CIFAR"
	var apiErr struct {
		Error APIError `json:"error"`
	}
	if code := postJSON(t, client, srv.URL+"/v1/jobs", SubmitRequest{Spec: bad}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d (%+v)", code, apiErr)
	}
	if apiErr.Error.Code != ErrCodeInvalidSpec || apiErr.Error.Message == "" {
		t.Fatalf("error envelope = %+v, want structured invalid_spec", apiErr)
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs/job-404", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", code)
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs/job-404/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job result = %d", code)
	}
}

// TestServeCancel exercises POST /v1/jobs/{id}/cancel (client.Cancel's
// route) against a running job and the 409 returned by /result while it
// is still in flight.
func TestServeCancel(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	started := make(chan struct{})
	stubRuns(e, map[string]stubRun{"serve-cancel": func(ctx context.Context, _ *Job) (*Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	j, err := e.Submit(stubSpec("serve-cancel"), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	if code := getJSON(t, client, srv.URL+"/v1/jobs/"+j.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("running job result = %d, want 409", code)
	}
	if code := postJSON(t, client, srv.URL+"/v1/jobs/"+j.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != StateCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("job state = %s, want cancelled", j.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	var view JobView
	if code := getJSON(t, client, srv.URL+"/v1/jobs/"+j.ID, &view); code != http.StatusOK || view.State != StateCancelled {
		t.Fatalf("cancelled status = %d %+v", code, view)
	}
}
