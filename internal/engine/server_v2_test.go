package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// readSSE consumes an SSE body into frames until the stream closes.
func readSSE(t *testing.T, resp *http.Response) []sseFrame {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" || cur.Data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id:"):
			cur.ID = strings.TrimSpace(line[3:])
		case strings.HasPrefix(line, "event:"):
			cur.Event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			cur.Data = strings.TrimSpace(line[5:])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return frames
}

// TestServeJobEventsSSE drives GET /v1/jobs/{id}/events end to end:
// per-round progress frames arrive in order, the stream carries the
// terminal state, and it closes with an `end` frame. A second request
// (a reconnecting client) immediately receives the terminal snapshot
// and the end frame.
func TestServeJobEventsSSE(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	spec := tinySpec("FedAvg")
	j, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least progress + end", len(frames))
	}
	if last := frames[len(frames)-1]; last.Event != "end" {
		t.Fatalf("last frame = %+v, want end", last)
	}
	lastRound := -1
	var sawDone bool
	for _, f := range frames[:len(frames)-1] {
		var ev Event
		if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
			t.Fatalf("bad frame data %q: %v", f.Data, err)
		}
		if ev.JobID != j.ID {
			t.Fatalf("event for %q, want %q", ev.JobID, j.ID)
		}
		if string(ev.State) != f.Event {
			t.Fatalf("frame event %q does not match state %q", f.Event, ev.State)
		}
		if ev.Round < lastRound {
			t.Fatalf("rounds went backwards: %d after %d", ev.Round, lastRound)
		}
		lastRound = ev.Round
		if ev.State == StateDone {
			sawDone = true
		}
	}
	if !sawDone || lastRound != spec.Rounds {
		t.Fatalf("sawDone=%v lastRound=%d, want done at round %d", sawDone, lastRound, spec.Rounds)
	}

	// Reconnect after the fact: terminal snapshot, then end.
	resp2, err := srv.Client().Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames2 := readSSE(t, resp2)
	if len(frames2) != 2 || frames2[0].Event != string(StateDone) || frames2[1].Event != "end" {
		t.Fatalf("reconnect frames = %+v, want [done end]", frames2)
	}
}

// TestServeSweepRoundTrip drives the sweep API: submit-with-wait, the
// status view, the merged SSE stream of a finished sweep, cancel, and
// the cached resubmission doing zero rounds.
func TestServeSweepRoundTrip(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	sw := tinySweep([]string{"FedAvg", "PARDON"}, 1)
	var done SweepView
	code := postJSON(t, client, srv.URL+"/v1/sweeps", SweepRequest{Sweep: sw, Wait: true}, &done)
	if code != http.StatusOK {
		t.Fatalf("sweep wait = %d (%+v)", code, done)
	}
	if !done.Done || done.Counts.Done != 2 || done.Counts.Total != 2 || len(done.Jobs) != 2 {
		t.Fatalf("sweep view = %+v", done)
	}
	for _, jv := range done.Jobs {
		if jv.Result == nil || jv.Result.Final().TestAcc <= 0 {
			t.Fatalf("job view missing inlined result: %+v", jv)
		}
	}

	var status SweepView
	if code := getJSON(t, client, srv.URL+"/v1/sweeps/"+done.ID, &status); code != http.StatusOK || status.ID != done.ID {
		t.Fatalf("sweep status = %d (%+v)", code, status)
	}

	// The merged stream of a finished sweep: one terminal snapshot per
	// job, then end.
	resp, err := client.Get(srv.URL + "/v1/sweeps/" + done.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	if len(frames) != 3 || frames[len(frames)-1].Event != "end" {
		t.Fatalf("sweep SSE frames = %+v, want 2 snapshots + end", frames)
	}

	// Identical resubmission: all cached, zero extra rounds.
	rounds := e.Stats().RoundsExecuted
	var cached SweepView
	if code := postJSON(t, client, srv.URL+"/v1/sweeps", SweepRequest{Sweep: sw}, &cached); code != http.StatusAccepted {
		t.Fatalf("cached sweep submit = %d", code)
	}
	if cached.Counts.Cached != cached.Counts.Unique || !cached.Done {
		t.Fatalf("cached sweep view = %+v", cached)
	}
	if got := e.Stats().RoundsExecuted; got != rounds {
		t.Fatalf("cached sweep trained %d extra rounds", got-rounds)
	}

	if code := getJSON(t, client, srv.URL+"/v1/sweeps/sweep-404", nil); code != http.StatusNotFound {
		t.Fatalf("unknown sweep = %d", code)
	}
}

// TestServeListPagination pages through the job registry with limit,
// cursor, and state filtering.
func TestServeListPagination(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	// One job held running so the state filter has two populations.
	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	stubRuns(e, map[string]stubRun{
		"page": func(context.Context, *Job) (*Result, error) { return &Result{}, nil },
		"page-running": func(ctx context.Context, _ *Job) (*Result, error) {
			close(started)
			select {
			case <-block:
			case <-ctx.Done():
			}
			return &Result{}, nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		spec := stubSpec("page")
		spec.Seed = uint64(i)
		j, err := e.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(stubSpec("page-running"), 0); err != nil {
		t.Fatal(err)
	}
	<-started

	var page JobList
	if code := getJSON(t, client, srv.URL+"/v1/jobs?limit=2", &page); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if len(page.Jobs) != 2 || page.Next == "" {
		t.Fatalf("page 1 = %d jobs, next %q", len(page.Jobs), page.Next)
	}
	seen := map[string]bool{page.Jobs[0].ID: true, page.Jobs[1].ID: true}
	total := 2
	for page.Next != "" {
		// A fresh value per page: decoding into a reused struct would
		// keep the previous cursor when "next" is omitted on the last
		// page.
		next := JobList{}
		if code := getJSON(t, client, srv.URL+"/v1/jobs?limit=2&after="+page.Next, &next); code != http.StatusOK {
			t.Fatalf("follow cursor = %d", code)
		}
		page = next
		for _, jv := range page.Jobs {
			if seen[jv.ID] {
				t.Fatalf("job %s appeared on two pages", jv.ID)
			}
			seen[jv.ID] = true
		}
		total += len(page.Jobs)
	}
	if total != 6 {
		t.Fatalf("paged over %d jobs, want 6", total)
	}

	var running JobList
	if code := getJSON(t, client, srv.URL+"/v1/jobs?state=running", &running); code != http.StatusOK {
		t.Fatalf("state filter = %d", code)
	}
	if len(running.Jobs) != 1 || running.Jobs[0].State != StateRunning {
		t.Fatalf("running filter = %+v", running.Jobs)
	}
	var doneList JobList
	if code := getJSON(t, client, srv.URL+"/v1/jobs?state=done&limit=3", &doneList); code != http.StatusOK {
		t.Fatalf("done filter = %d", code)
	}
	if len(doneList.Jobs) != 3 || doneList.Next == "" {
		t.Fatalf("done filter page = %+v", doneList)
	}

	if code := getJSON(t, client, srv.URL+"/v1/jobs?state=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bogus state = %d, want 400", code)
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs?limit=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
	if code := getJSON(t, client, srv.URL+"/v1/jobs?after=nonsense", nil); code != http.StatusBadRequest {
		t.Fatalf("bad cursor = %d, want 400", code)
	}
}

// TestServeBodyHardening: unknown JSON fields are rejected and
// oversized bodies draw 413 with the structured envelope.
func TestServeBodyHardening(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()

	post := func(path, body string) (int, errorEnvelope) {
		t.Helper()
		resp, err := client.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}

	code, env := post("/v1/jobs", `{"spec":{},"bogus_field":1}`)
	if code != http.StatusBadRequest || env.Err.Code != ErrCodeBadRequest {
		t.Fatalf("unknown field = %d %+v", code, env)
	}
	code, env = post("/v1/sweeps", `{"sweep":{"base":{}},"bogus":true}`)
	if code != http.StatusBadRequest || env.Err.Code != ErrCodeBadRequest {
		t.Fatalf("unknown sweep field = %d %+v", code, env)
	}
	// The per-request parallelism hint and the Spec's model-retention
	// flag are gone: a valid submit or sweep that still carries either is
	// refused, not run with it dropped.
	spec, _ := json.Marshal(tinySpec("FedAvg"))
	sweep, _ := json.Marshal(tinySweep([]string{"FedAvg"}, 1))
	keepModel := func(raw []byte) string {
		return strings.Replace(string(raw), `"Method":`, `"KeepModel":true,"Method":`, 1)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", `{"spec":` + string(spec) + `,"parallelism":2}`},
		{"/v1/sweeps", `{"sweep":` + string(sweep) + `,"parallelism":2}`},
		{"/v1/jobs", `{"spec":` + keepModel(spec) + `}`},
		{"/v1/sweeps", `{"sweep":` + keepModel(sweep) + `}`},
	} {
		if code, env := post(c.path, c.body); code != http.StatusBadRequest || env.Err.Code != ErrCodeBadRequest {
			t.Fatalf("%s %s = %d %+v", c.path, c.body, code, env)
		}
	}

	huge := `{"spec":{},"priority":` + strings.Repeat("1", maxBodyBytes) + `}`
	code, env = post("/v1/jobs", huge)
	if code != http.StatusRequestEntityTooLarge || env.Err.Code != ErrCodePayloadTooLarge {
		t.Fatalf("oversized body = %d %+v", code, env)
	}
	if env.Err.Message == "" {
		t.Fatalf("error envelope missing message: %+v", env)
	}
}

// TestServeDrainingEngine: submissions against a closed (draining)
// engine are a transient 503/unavailable, not a 400 blaming the spec.
func TestServeDrainingEngine(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	for _, body := range []any{
		SubmitRequest{Spec: tinySpec("FedAvg")},
		SweepRequest{Sweep: tinySweep([]string{"FedAvg"}, 1)},
	} {
		path := "/v1/jobs"
		if _, ok := body.(SweepRequest); ok {
			path = "/v1/sweeps"
		}
		var env errorEnvelope
		code := postJSON(t, srv.Client(), srv.URL+path, body, &env)
		if code != http.StatusServiceUnavailable || env.Err.Code != ErrCodeUnavailable {
			t.Fatalf("%s on closed engine = %d %+v, want 503 unavailable", path, code, env)
		}
	}
}

// TestServeSweepValidation: a sweep with an invalid cell or an
// oversized grid is rejected with invalid_spec.
func TestServeSweepValidation(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	bad := tinySweep([]string{"NoSuchMethod"}, 1)
	raw, _ := json.Marshal(SweepRequest{Sweep: bad})
	resp, err := srv.Client().Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Err.Code != ErrCodeInvalidSpec {
		t.Fatalf("invalid sweep = %d %+v", resp.StatusCode, env)
	}
}
