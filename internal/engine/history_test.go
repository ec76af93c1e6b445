package engine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// TestHistoryPinsNoResult: a settled job keeps no Result of its own, so
// the job history pins none. Once more than memCacheCap newer entries
// have moved a disk store's memory tier past the first job's, that
// job's Result is collected while the job is still retained, and Wait
// reads an equal Result back from disk.
func TestHistoryPinsNoResult(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, CacheDir: t.TempDir()})
	result := func(j *Job) *Result {
		return &Result{SpecHash: j.Key, Method: j.Spec.Method, Stats: []RoundStat{{Round: 1, TestAcc: float64(j.Spec.Seed)}}}
	}
	stubRuns(e, map[string]stubRun{"unpinned": func(_ context.Context, j *Job) (*Result, error) {
		return result(j), nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	submit := func(seed uint64) *Job {
		sp := stubSpec("unpinned")
		sp.Seed = seed
		j, err := e.Submit(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return j
	}
	first := submit(1)
	collected := make(chan struct{})
	func() {
		res, err := first.Result()
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(res, func(*Result) { close(collected) })
	}()
	for seed := uint64(2); seed <= memCacheCap+2; seed++ {
		submit(seed)
	}
	gone := false
	for i := 0; i < 100 && !gone; i++ {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !gone {
		t.Fatalf("%s's Result was not collected after %d newer jobs: something besides the Store holds it", first.ID, memCacheCap+1)
	}
	if _, ok := e.Job(first.ID); !ok {
		t.Fatalf("%s was forgotten; the test needs it retained", first.ID)
	}
	got, err := first.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := result(first); !reflect.DeepEqual(got, want) {
		t.Fatalf("Result read back from disk = %+v, want %+v", got, want)
	}
}

// TestEvictedResultIsNotFound: a disk store under a size cap can let a
// Done job's Result go. A two-cell sweep trains on one slot, and the
// second cell's entry write evicts the first's. Then the first job's
// Result read fails naming its key, GET …/result answers 404 not_found,
// and the sweep view leaves out that cell's result alone. Batch.Wait
// resubmits the evicted cell, which recomputes its Result under the
// same key, and returns every cell's Result.
func TestEvictedResultIsNotFound(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, CacheDir: t.TempDir(), CacheMaxBytes: 1})
	stubRuns(e, map[string]stubRun{"evicted": func(_ context.Context, j *Job) (*Result, error) {
		return &Result{SpecHash: j.Key, Method: j.Spec.Method}, nil
	}})
	b, err := e.SubmitSweep(Sweep{Base: stubSpec("evicted"), Lambdas: []float64{0.1, 0.2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, j := range b.Unique() {
		select {
		case <-j.Done():
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		}
		if st := j.State(); st != StateDone {
			t.Fatalf("%s ended %s, want %s", j.ID, st, StateDone)
		}
	}
	a := b.Unique()[0]
	if _, err := a.Result(); err == nil || !strings.Contains(err.Error(), a.Key) {
		t.Fatalf("Result of the evicted %s: err = %v, want one naming key %s", a.ID, err, a.Key)
	}

	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	var env errorEnvelope
	if code := getJSON(t, srv.Client(), srv.URL+"/v1/jobs/"+a.ID+"/result", &env); code != http.StatusNotFound || env.Err.Code != ErrCodeNotFound {
		t.Fatalf("GET result of the evicted %s = %d %+v, want 404 %s", a.ID, code, env.Err, ErrCodeNotFound)
	}
	var sv SweepView
	if code := getJSON(t, srv.Client(), srv.URL+"/v1/sweeps/"+b.ID, &sv); code != http.StatusOK {
		t.Fatalf("GET sweep = %d", code)
	}
	if len(sv.Jobs) != 2 || sv.Jobs[0].Result != nil || sv.Jobs[1].Result == nil {
		t.Fatalf("sweep view = %+v, want the evicted cell without a result and the other with one", sv.Jobs)
	}

	results, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("Batch.Wait over the evicted cell: %v", err)
	}
	for i, res := range results {
		if want := b.Jobs()[i].Key; res == nil || res.SpecHash != want {
			t.Fatalf("Batch.Wait cell %d = %+v, want the Result of %s", i, res, want)
		}
	}
}

// TestSweepWaitKeepsCellsPastAnEvictedResult: a wait=true sweep whose
// cached cell a later cell's write evicts is no failure. The cells run
// on one slot under a one-byte cache cap, which keeps only the newest
// entry: cell 0 trains, its entry write evicts cached cell 1's, and cell
// 2 is still training. The response must show all three cells Done,
// cell 2 not cancelled, and only cell 2, written last, with a result.
func TestSweepWaitKeepsCellsPastAnEvictedResult(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, CacheDir: t.TempDir(), CacheMaxBytes: 1})
	release := make(chan struct{})
	stubRuns(e, map[string]stubRun{"past-evicted": func(ctx context.Context, j *Job) (*Result, error) {
		switch j.Spec.Lambda {
		case 0.1:
			// Train once every cell is submitted, so cell 1's lookup
			// still finds its entry.
			for len(e.Jobs()) < 3 {
				time.Sleep(time.Millisecond)
			}
		case 0.3:
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &Result{SpecHash: j.Key, Method: j.Spec.Method}, nil
	}})
	sw := Sweep{Base: stubSpec("past-evicted"), Lambdas: []float64{0.1, 0.2, 0.3}}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := specs[1].Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().Put(cached, &Result{SpecHash: cached, Method: specs[1].Method}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	var freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(release) }) }
	defer free() // before srv.Close, which waits for the handler
	type response struct {
		code int
		view SweepView
	}
	got := make(chan response, 1)
	go func() {
		var r response
		r.code = postJSON(t, srv.Client(), srv.URL+"/v1/sweeps", SweepRequest{Sweep: sw, Wait: true}, &r.view)
		got <- r
	}()
	// Release cell 2 only once cell 1's entry is gone and the handler
	// has had time to reach it.
	deadline := time.Now().Add(time.Minute)
	for {
		if _, ok, _ := e.Store().Get(cached); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cell 1's cached entry was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	free()
	r := <-got
	if r.code != http.StatusOK {
		t.Fatalf("wait=true sweep = %d", r.code)
	}
	if len(r.view.Jobs) != 3 {
		t.Fatalf("sweep view has %d jobs, want 3", len(r.view.Jobs))
	}
	for i, jv := range r.view.Jobs {
		if jv.State != StateDone {
			t.Fatalf("cell %d ended %s, want %s: an evicted cell must not cancel the sweep", i, jv.State, StateDone)
		}
	}
	for i, jv := range r.view.Jobs {
		if last := i == 2; (jv.Result != nil) != last {
			t.Fatalf("cell %d result = %+v, want one on cell 2 alone, the newest entry", i, jv.Result)
		}
	}
}
