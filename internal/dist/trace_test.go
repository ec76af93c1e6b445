package dist

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// TestClusterJobTraceMergesWorkerSpans is the tracing acceptance bar:
// a cluster job's trace, fetched over GET /v1/traces/{id}, must contain
// spans from BOTH the coordinator (queue, lease) and the executing
// worker (per-round training, tier lookup, checkpoint upload), with
// every child span nested inside its parent's window.
func TestClusterJobTraceMergesWorkerSpans(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := newCluster(t, 5*time.Second)
	cl.addWorker("alpha", nil)

	spec := tinySpec("FedAvg", 31)
	j, err := cl.eng.SubmitAs(spec, 0, "trace-dist-31", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Fetch through the public API so the serve-time source labeling
	// ("" → coordinator) is under test too; the job ID must resolve.
	view, err := client.New(cl.srv.URL).Trace(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.TraceID != "trace-dist-31" {
		t.Fatalf("trace ID = %q, want trace-dist-31", view.TraceID)
	}

	// First occurrence wins: the payload is sorted by start time and a
	// name can repeat across nodes (the worker's local engine has its
	// own "queue" span, starting after the coordinator's).
	byName := map[string]telemetry.Span{}
	sources := map[string]bool{}
	for _, sp := range view.Spans {
		if _, ok := byName[sp.Name]; !ok {
			byName[sp.Name] = sp
		}
		sources[sp.Source] = true
	}
	if !sources["coordinator"] {
		t.Fatalf("no coordinator spans in merged trace: %v", sources)
	}
	if !sources["worker:alpha"] {
		t.Fatalf("no worker spans in merged trace: %v", sources)
	}
	// Coordinator lifecycle + the worker's training timeline, including
	// the worker's local run and job spans: its scheduler records them
	// before it wakes the waiter that ships the completion.
	for _, name := range []string{"queue", "lease", "tier-lookup", "upload"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("merged trace is missing a %q span; have %v", name, spanNames(view.Spans))
		}
	}
	for _, name := range []string{"run", "job"} {
		found := false
		for _, sp := range view.Spans {
			found = found || (sp.Name == name && sp.Source == "worker:alpha")
		}
		if !found {
			t.Fatalf("merged trace is missing the worker:alpha %q span; have %v", name, spanNames(view.Spans))
		}
	}
	for r := 1; r <= spec.Rounds; r++ {
		name := fmt.Sprintf("round-%d", r)
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("merged trace is missing %q; have %v", name, spanNames(view.Spans))
		}
		if !strings.HasPrefix(sp.Source, "worker:") {
			t.Fatalf("span %q source = %q, want worker:*", name, sp.Source)
		}
	}
	for _, name := range []string{"queue", "lease"} {
		if src := byName[name].Source; src != "coordinator" {
			t.Fatalf("span %q source = %q, want coordinator", name, src)
		}
	}

	// Monotone nesting: wherever the parent is present in the merged
	// payload, the child's window sits inside it.
	const slack = time.Millisecond
	byID := map[string]telemetry.Span{}
	for _, sp := range view.Spans {
		byID[sp.SpanID] = sp
	}
	for _, sp := range view.Spans {
		parent, ok := byID[sp.ParentID]
		if !ok {
			continue
		}
		if sp.Start.Before(parent.Start.Add(-slack)) {
			t.Fatalf("span %q starts %v before its parent %q", sp.Name, parent.Start.Sub(sp.Start), parent.Name)
		}
		childEnd := sp.Start.Add(time.Duration(sp.DurationSec * float64(time.Second)))
		parentEnd := parent.Start.Add(time.Duration(parent.DurationSec * float64(time.Second)))
		if childEnd.After(parentEnd.Add(slack)) {
			t.Fatalf("span %q ends %v after its parent %q", sp.Name, childEnd.Sub(parentEnd), parent.Name)
		}
	}

	// The worker's training spans must nest under the coordinator's
	// lease span — that is the cross-node edge of the waterfall.
	lease := byName["lease"]
	for _, name := range []string{"tier-lookup", "upload"} {
		if byName[name].ParentID != lease.SpanID {
			t.Fatalf("span %q parent = %q, want the lease span %q", name, byName[name].ParentID, lease.SpanID)
		}
	}
}

func spanNames(spans []telemetry.Span) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestStragglerDetection feeds the coordinator's rolling stats an
// artificially delayed worker (rounds 20× the fleet's) and requires the
// straggler sweep to trip dist_worker_slow for it — then clear the
// gauge once the worker's window recovers.
func TestStragglerDetection(t *testing.T) {
	cl := newCluster(t, 5*time.Second)
	c := cl.coord

	for i := 0; i < stragglerMinSamples+2; i++ {
		c.stats.observeRound("fast", 0.01)
		c.stats.observeRound("slow", 0.2)
	}
	c.checkStragglers()
	if got := c.m.workerSlow.With("slow").Value(); got != 1 {
		t.Fatalf(`dist_worker_slow{worker="slow"} = %d, want 1`, got)
	}
	if got := c.m.workerSlow.With("fast").Value(); got != 0 {
		t.Fatalf(`dist_worker_slow{worker="fast"} = %d, want 0`, got)
	}
	if !c.stats.isSlow("slow") || c.stats.isSlow("fast") {
		t.Fatalf("verdicts: slow=%v fast=%v, want true/false",
			c.stats.isSlow("slow"), c.stats.isSlow("fast"))
	}

	// Recovery: the delayed node speeds up; its window refills with
	// fleet-normal rounds and the next sweep clears the flag.
	for i := 0; i < stragglerWindow; i++ {
		c.stats.observeRound("slow", 0.01)
	}
	c.checkStragglers()
	if got := c.m.workerSlow.With("slow").Value(); got != 0 {
		t.Fatalf(`dist_worker_slow{worker="slow"} = %d after recovery, want 0`, got)
	}
}

// TestTopViewSurfacesFleetAndQueues pins the GET /v1/top payload: round
// quantiles and straggler flags per worker, per-tenant queue depth in a
// dispatch-only engine with no workers pulling, and engine stats.
func TestTopViewSurfacesFleetAndQueues(t *testing.T) {
	cl := newCluster(t, 5*time.Second)
	c := cl.coord
	if _, err := c.Register(engine.WorkerRegisterRequest{Name: "alpha", CodeVersion: engine.CodeVersion, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stragglerMinSamples; i++ {
		c.stats.observeRound("alpha", 0.05)
	}
	// Two queued jobs, no worker pulling: queue depth must show them.
	if _, err := cl.eng.Submit(tinySpec("FedAvg", 41), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.eng.Submit(tinySpec("FedAvg", 42), 0); err != nil {
		t.Fatal(err)
	}

	top, err := client.New(cl.srv.URL).Top(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Workers) != 1 || top.Workers[0].Name != "alpha" {
		t.Fatalf("top workers = %+v, want the registered alpha", top.Workers)
	}
	w := top.Workers[0]
	if w.RoundSamples != stragglerMinSamples || w.RoundP50Sec != 0.05 {
		t.Fatalf("round stats = p50 %v over %d samples, want 0.05 over %d",
			w.RoundP50Sec, w.RoundSamples, stragglerMinSamples)
	}
	depth := 0
	for _, n := range top.QueueDepth {
		depth += n
	}
	if depth != 2 {
		t.Fatalf("queue depth = %d (%v), want 2", depth, top.QueueDepth)
	}
	if top.LeaseTTLSec != 5 {
		t.Fatalf("lease TTL = %v, want 5", top.LeaseTTLSec)
	}
	if top.Stats.Submitted != 2 {
		t.Fatalf("stats.submitted = %d, want 2", top.Stats.Submitted)
	}
}

// TestRunningCountsLeasedJobs: a leased job is running, so the
// sched_running_jobs gauge counts it from claim to requeue or
// completion, and /v1/top reports that same count.
func TestRunningCountsLeasedJobs(t *testing.T) {
	cl := newCluster(t, 5*time.Second)
	gauge := cl.eng.Metrics().Gauge("sched_running_jobs", "")
	j, err := cl.eng.Submit(tinySpec("FedAvg", 43), 0)
	if err != nil {
		t.Fatal(err)
	}
	claim := func() {
		t.Helper()
		if leased, ok := cl.eng.ClaimRemote(context.Background(), "alpha", nil); !ok || leased != j {
			t.Fatalf("lease = %v, %v; want the submitted job", leased, ok)
		}
		if got := gauge.Value(); got != 1 {
			t.Fatalf("sched_running_jobs = %d with one job leased, want 1", got)
		}
		if top := cl.coord.Top(); int64(top.Running) != gauge.Value() {
			t.Fatalf("top running = %d, gauge = %d; want the same count", top.Running, gauge.Value())
		}
	}
	claim()
	if !cl.eng.RequeueRemote(j) {
		t.Fatal("lease not requeued")
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("sched_running_jobs = %d after the requeue, want 0", got)
	}
	claim()
	res := &engine.Result{SpecHash: j.Key, Method: "FedAvg"}
	if err := cl.eng.CompleteRemote(j, res, nil); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("sched_running_jobs = %d after the completion, want 0", got)
	}
}
