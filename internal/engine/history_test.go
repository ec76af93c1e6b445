package engine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// cachedSpec stores a Result under the tagged stub Spec's
// content-address, so every submission of the returned Spec is a
// cache hit.
func cachedSpec(tb testing.TB, e *Engine, tag string) Spec {
	tb.Helper()
	sp := stubSpec(tag)
	hash, err := sp.Hash()
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Store().Put(hash, &Result{SpecHash: hash, Method: sp.Method}); err != nil {
		tb.Fatal(err)
	}
	return sp
}

// TestJobHistoryEvictsOldestSettled: once the history holds
// maxRetainedJobs jobs, each new job forgets the one that settled
// longest ago. A queued job never settles, so however old it is it
// stays retained and cancellable; and the job listing pages over the
// survivors newest first, its cursors stepping over the forgotten IDs.
func TestJobHistoryEvictsOldestSettled(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1})
	queued, err := e.Submit(stubSpec("history-queued"), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := cachedSpec(t, e, "history-hit")
	hits := make([]*Job, maxRetainedJobs+64)
	for i := range hits {
		if hits[i], err = e.Submit(sp, 0); err != nil {
			t.Fatal(err)
		}
		if !hits[i].Cached() {
			t.Fatalf("submission %d was not a cache hit", i)
		}
	}
	if n := e.sched.count(); n != maxRetainedJobs {
		t.Fatalf("history holds %d jobs, want %d", n, maxRetainedJobs)
	}
	// The queued job holds one slot, so the oldest 65 hits are gone.
	gone := len(hits) - (maxRetainedJobs - 1)
	for i, j := range hits {
		if _, ok := e.Job(j.ID); ok != (i >= gone) {
			t.Fatalf("hit %d (%s): retained = %v, want %v", i, j.ID, ok, i >= gone)
		}
	}
	if _, ok := e.Job(queued.ID); !ok || queued.State() != StateQueued {
		t.Fatalf("queued job %s: retained = %v, state %s", queued.ID, ok, queued.State())
	}
	if err := e.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateCancelled {
		t.Fatalf("queued job is %s after cancel, want cancelled", queued.State())
	}

	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()
	jobNum := func(id string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
		if err != nil {
			t.Fatalf("job ID %q: %v", id, err)
		}
		return n
	}
	var listed []string
	for after := ""; ; {
		var page JobList
		url := srv.URL + "/v1/jobs?limit=1000"
		if after != "" {
			url += "&after=" + after
		}
		if code := getJSON(t, client, url, &page); code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, code)
		}
		for _, jv := range page.Jobs {
			listed = append(listed, jv.ID)
		}
		if after = page.Next; after == "" {
			break
		}
	}
	if len(listed) != maxRetainedJobs {
		t.Fatalf("listing pages over %d jobs, want %d", len(listed), maxRetainedJobs)
	}
	want := append([]*Job{queued}, hits[gone:]...) // oldest first
	for i, id := range listed {
		if w := want[len(want)-1-i].ID; id != w {
			t.Fatalf("listing position %d is %s, want %s (newest first)", i, id, w)
		}
		if i > 0 && jobNum(id) >= jobNum(listed[i-1]) {
			t.Fatalf("listing not newest first at %d: %s after %s", i, id, listed[i-1])
		}
	}
	// A cursor naming a forgotten job still resumes below it.
	var tail JobList
	if code := getJSON(t, client, srv.URL+"/v1/jobs?after="+hits[gone/2].ID, &tail); code != http.StatusOK {
		t.Fatalf("list after a forgotten ID = %d", code)
	}
	if len(tail.Jobs) != 1 || tail.Jobs[0].ID != queued.ID || tail.Next != "" {
		t.Fatalf("list after a forgotten ID = %+v, want only %s", tail, queued.ID)
	}
}

// TestJobHistoryHeapSoak: past its bounds a server's heap stops
// growing. After enough submissions to fill the job history and the
// trace store, two equal halves of cache hits mixed with fresh runs
// must leave the live heap after the second within 10% of the heap
// after the first: the settled FIFO, its forgotten prefix and the
// trace store's recency lists all stay bounded.
func TestJobHistoryHeapSoak(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	stubRuns(e, map[string]stubRun{"soak-fresh": func(context.Context, *Job) (*Result, error) {
		return &Result{Method: "FedAvg"}, nil
	}})
	hit := cachedSpec(t, e, "soak-hit")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fresh := 0
	var firstFresh *Job
	submit := func(n int) {
		for i := 0; i < n; i++ {
			sp := hit
			if i%20 == 0 {
				fresh++
				sp = stubSpec("soak-fresh")
				sp.Seed = uint64(fresh)
			}
			j, err := e.Submit(sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if firstFresh == nil {
				firstFresh = j
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const half = 3000
	submit(maxRetainedJobs + telemetry.DefaultMaxTraces)
	submit(half)
	first := heap()
	submit(half)
	second := heap()
	t.Logf("%d fresh runs; heap after the first half %d B, after the second %d B", fresh, first, second)
	if second > first+first/10 {
		t.Fatalf("heap grew from %d to %d B over %d submissions past the history bound", first, second, half)
	}
	if n := e.sched.count(); n != maxRetainedJobs {
		t.Fatalf("history holds %d jobs, want %d", n, maxRetainedJobs)
	}
	if _, ok := e.Job(firstFresh.ID); ok {
		t.Fatalf("the first fresh run, %s, settled thousands of jobs ago and is still retained", firstFresh.ID)
	}
	// Compaction keeps the FIFO's forgotten prefix no longer than the
	// rest, and the rest is part of the history: the FIFO spans at most
	// twice the history, give or take the releases still in flight.
	// The creation order is compacted once its empty slots outnumber the
	// retained jobs, so it too spans at most twice the history, and a
	// forgotten job's slot lets go of the job.
	e.sched.mu.Lock()
	fifo, order := len(e.sched.settled), len(e.sched.order)
	held := 0
	for _, o := range e.sched.order[:cap(e.sched.order)] {
		if o.job != nil {
			held++
		}
	}
	e.sched.mu.Unlock()
	if held != maxRetainedJobs {
		t.Fatalf("creation order holds %d jobs for a history of %d", held, maxRetainedJobs)
	}
	if fifo > 2*maxRetainedJobs+8 {
		t.Fatalf("settled FIFO spans %d slots for a history of %d", fifo, maxRetainedJobs)
	}
	if order > 2*maxRetainedJobs {
		t.Fatalf("creation-ordered list spans %d slots for a history of %d", order, maxRetainedJobs)
	}
}

// TestSweepHistoryEvictsOldestTerminal: once the engine holds
// maxRetainedBatches sweeps, each new sweep forgets the oldest terminal
// one. A sweep whose cell is still queued is not terminal, so however
// old it is it stays retained; and the sweep listing pages over the
// survivors newest first, its cursors stepping over the forgotten IDs.
func TestSweepHistoryEvictsOldestTerminal(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1})
	live, err := e.SubmitSweep(Sweep{Base: stubSpec("sweep-history-live")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit := Sweep{Base: cachedSpec(t, e, "sweep-history-hit")}
	done := make([]*Batch, maxRetainedBatches+16)
	for i := range done {
		if done[i], err = e.SubmitSweep(hit, 0); err != nil {
			t.Fatal(err)
		}
		if !done[i].Counts().Terminal() {
			t.Fatalf("cached sweep %d is not terminal: %+v", i, done[i].Counts())
		}
	}
	// The live sweep holds one slot, so the oldest 17 cached sweeps are
	// gone.
	gone := len(done) - (maxRetainedBatches - 1)
	for i, b := range done {
		if _, ok := e.Batch(b.ID); ok != (i >= gone) {
			t.Fatalf("sweep %d (%s): retained = %v, want %v", i, b.ID, ok, i >= gone)
		}
	}
	if _, ok := e.Batch(live.ID); !ok || live.Counts().Terminal() {
		t.Fatalf("live sweep %s: retained = %v, counts %+v", live.ID, ok, live.Counts())
	}

	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := srv.Client()
	var listed []string
	for after := ""; ; {
		var page SweepList
		url := srv.URL + "/v1/sweeps?limit=100"
		if after != "" {
			url += "&after=" + after
		}
		if code := getJSON(t, client, url, &page); code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, code)
		}
		for _, v := range page.Sweeps {
			listed = append(listed, v.ID)
		}
		if after = page.Next; after == "" {
			break
		}
	}
	want := append([]*Batch{live}, done[gone:]...) // oldest first
	if len(listed) != len(want) {
		t.Fatalf("listing pages over %d sweeps, want %d", len(listed), len(want))
	}
	for i, id := range listed {
		if w := want[len(want)-1-i].ID; id != w {
			t.Fatalf("listing position %d is %s, want %s (newest first)", i, id, w)
		}
	}
	// A cursor naming a forgotten sweep still resumes below it.
	var tail SweepList
	if code := getJSON(t, client, srv.URL+"/v1/sweeps?after="+done[gone/2].ID, &tail); code != http.StatusOK {
		t.Fatalf("list after a forgotten ID = %d", code)
	}
	if len(tail.Sweeps) != 1 || tail.Sweeps[0].ID != live.ID || tail.Next != "" {
		t.Fatalf("list after a forgotten ID = %+v, want only %s", tail, live.ID)
	}
}
