package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// apiClients is how many closed-loop SDK clients drive the API
// workloads: one per CPU of the 2-CPU reference host.
const apiClients = 2

// apiCached is the read path: HTTP, auth, JSON, Spec.Hash and Store.Get,
// with no training and no journal writes. One operation is a client
// reading its 16-Spec table back — every Spec re-submitted, every answer
// from the store — as re-running an already computed experiment does.
// A single request's latency is bimodal on a 2-CPU host (it either stays
// on one CPU or waits for the other to wake), so its median jumps
// between modes as the host's load shifts; a table read averages
// sixteen of them. Per-request latency is the per-layer
// client.submit_* metric.
var apiCached = workload{
	name:    "api-cached",
	tailMax: 99,
	setup:   setupAPICached,
}

// apiFresh is the write path of the same server: 3 fsync'd journal
// records, a Store entry, a checkpoint blob and an event stream per job.
var apiFresh = workload{
	name:    "api-fresh",
	tailMax: 95,
	setup:   setupAPIFresh,
}

// apiServer is the served shape both API workloads share: a disk-backed
// engine with its journal, an API-key tenants file with unlimited rates,
// the v2 HTTP API over a loopback listener, and one SDK client per
// tenant.
type apiServer struct {
	eng        *engine.Engine
	srv        *httptest.Server
	clients    []*client.Client
	transports []*http.Transport
}

func newAPIServer(env *runEnv) (*apiServer, error) {
	eng, err := newEngine(engine.Options{CacheDir: filepath.Join(env.dir, "cache")})
	if err != nil {
		return nil, err
	}
	file := engine.TenantsFile{DefaultRatePerSec: -1, DefaultBurst: -1, DefaultMaxQueued: -1}
	for i := 0; i < apiClients; i++ {
		file.Tenants = append(file.Tenants, engine.TenantConfig{Name: fmt.Sprintf("bench-%d", i), Key: fmt.Sprintf("benchrun-key-%d", i)})
	}
	path := filepath.Join(env.dir, "tenants.json")
	raw, err := json.Marshal(file)
	if err == nil {
		err = os.WriteFile(path, raw, 0o600)
	}
	var tenants *engine.Tenants
	if err == nil {
		tenants, err = engine.LoadTenantsFile(path)
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &apiServer{eng: eng, srv: httptest.NewServer(env.tr.handler(engine.NewServer(eng, engine.WithTenants(tenants))))}
	for _, tc := range file.Tenants {
		tp := http.DefaultTransport.(*http.Transport).Clone()
		tp.MaxIdleConnsPerHost = 4
		s.transports = append(s.transports, tp)
		s.clients = append(s.clients, client.New(s.srv.URL,
			client.WithHTTPClient(&http.Client{Transport: env.tr.transport(tp, "client")}),
			client.WithAPIKey(tc.Key)))
	}
	return s, nil
}

func (s *apiServer) close() {
	for _, tp := range s.transports {
		tp.CloseIdleConnections()
	}
	s.srv.Close()
	s.eng.Close()
}

// eachClient runs loop once per client, concurrently, and waits.
func (s *apiServer) eachClient(loop func(i int, c *client.Client)) {
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			loop(i, c)
		}(i, c)
	}
	wg.Wait()
}

// timingLayers reduces jobs' phase clocks (JobView.timing) to the
// engine's queue, run and persist metrics.
func timingLayers(ts []engine.JobTiming, m map[string]float64) {
	var queue, run, persist []float64
	for _, t := range ts {
		queue = append(queue, t.QueueSec*1e3)
		run = append(run, t.RunSec*1e3)
		persist = append(persist, t.PersistSec*1e3)
	}
	q := summarize(queue, 99)
	m["engine.queue_wait_p50_ms"], m["engine.queue_wait_tail_ms"] = q.P50, q.Tail
	m["engine.run_p50_ms"] = summarize(run, 50).P50
	m["engine.persist_p50_ms"] = summarize(persist, 50).P50
}

// engineDeltas reads the per-job engine metrics every served workload
// shares from the serving engine's own counters.
func engineDeltas(before, after map[string]float64, jobs int, m map[string]float64) {
	if jobs == 0 {
		return
	}
	m["engine.journal_records_per_job"] = (after["journal_records_total"] - before["journal_records_total"]) / float64(jobs)
	m["engine.store_blob_bytes_per_job"] = (after["store_blob_bytes_total"] - before["store_blob_bytes_total"]) / float64(jobs)
}

type apiCachedRun struct {
	*apiServer
	env   *runEnv
	specs []engine.Spec
	keys  []string
}

func setupAPICached(ctx context.Context, env *runEnv) (instance, error) {
	s, err := newAPIServer(env)
	if err != nil {
		return nil, err
	}
	r := &apiCachedRun{apiServer: s, env: env, specs: storedSpecs(env.size, env.seed)}
	// Store warm-up: train every Spec once, then touch each through every
	// client so connections exist before the measured phase.
	for _, sp := range r.specs {
		j, err := s.eng.Submit(sp, 0)
		if err == nil {
			_, err = j.Wait(ctx)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("store warm-up: %w", err)
		}
		r.keys = append(r.keys, j.Key)
	}
	for i, c := range s.clients {
		if err := r.readTable(ctx, c, r.order(i)); err != nil {
			s.close()
			return nil, fmt.Errorf("client warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *apiCachedRun) measure(ctx context.Context, deadline time.Time, out *outcome) {
	before, cBefore := r.eng.Stats(), counters(r.eng.Metrics())
	r.eachClient(func(i int, c *client.Client) {
		order := r.order(i)
		for time.Now().Before(deadline) {
			start := time.Now()
			if err := r.readTable(ctx, c, order); err != nil {
				out.fail("api-cached: %v", err)
				continue
			}
			out.done(time.Since(start))
		}
	})
	after, cAfter := r.eng.Stats(), counters(r.eng.Metrics())
	if d := after.RoundsExecuted - before.RoundsExecuted; d != 0 {
		out.fail("api-cached trained %d rounds; every reply should come from the store", d)
	}
	d := after.Submitted - before.Submitted
	if d > 0 {
		out.layers["engine.cache_hit_ratio"] = float64(after.CacheHits-before.CacheHits) / float64(d)
	}
	engineDeltas(cBefore, cAfter, int(d), out.layers)
}

// order is client i's seeded order of the table's Specs.
func (r *apiCachedRun) order(i int) []int {
	return rand.New(rand.NewSource(int64(derive(r.env.seed, "cached-order", i) >> 1))).Perm(len(r.specs))
}

// readTable re-submits every stored Spec in order; each reply must be
// done, cached and for the expected content-address.
func (r *apiCachedRun) readTable(ctx context.Context, c *client.Client, order []int) error {
	for _, idx := range order {
		v, err := c.Submit(ctx, r.specs[idx], client.SubmitOptions{})
		if err != nil {
			return err
		}
		if v.State != client.StateDone || !v.Cached || v.Key != r.keys[idx] {
			return fmt.Errorf("reply %s: state=%s cached=%v key=%.12s, want done, cached, %.12s",
				v.ID, v.State, v.Cached, v.Key, r.keys[idx])
		}
	}
	return nil
}

func (r *apiCachedRun) verify(context.Context, *outcome) {}

type apiFreshRun struct {
	*apiServer
	env    *runEnv
	pool   []engine.Spec
	hashes []string
}

func setupAPIFresh(ctx context.Context, env *runEnv) (instance, error) {
	s, err := newAPIServer(env)
	if err != nil {
		return nil, err
	}
	r := &apiFreshRun{apiServer: s, env: env}
	if r.pool, r.hashes, err = freshSpecs(env.size, env.seed); err == nil {
		// Scenario warm-up: every job trains on this one scenario.
		_, err = s.eng.BuildScenario(r.pool[0])
	}
	if err == nil {
		err = warmUp(ctx, s.eng, env.size)
	}
	for _, c := range s.clients {
		if err == nil {
			_, err = c.Stats(ctx) // opens the client's connection
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return r, nil
}

// tracedJob is what a traced run keeps of one job for attribution: the
// benchmark span of the operation it served and the engine's spans.
type tracedJob struct {
	op    string
	spans []telemetry.Span
}

func (r *apiFreshRun) measure(ctx context.Context, deadline time.Time, out *outcome) {
	before, cBefore := r.eng.Stats(), counters(r.eng.Metrics())
	tr := r.env.tr
	var next atomic.Int64
	var mu sync.Mutex
	var timings []engine.JobTiming
	var notify []float64
	var jobs []tracedJob
	r.eachClient(func(_ int, c *client.Client) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			if i >= len(r.pool) {
				return
			}
			op, inHand, id := r.job(ctx, c, i, out)
			if tr == nil || id == "" {
				continue
			}
			// Per-layer detail: the job's phase clock and engine spans.
			// Its run phase ends once the Result is persisted; notify is
			// what remains until the Result is in the client's hand.
			j, ok := r.eng.Job(id)
			if !ok {
				continue
			}
			t := j.Timing()
			finished := j.Created.Add(time.Duration((t.QueueSec + t.RunSec) * float64(time.Second)))
			mu.Lock()
			timings = append(timings, t)
			notify = append(notify, float64(inHand.Sub(finished))/1e6)
			jobs = append(jobs, tracedJob{op: op, spans: r.eng.Traces().Trace(j.TraceID)})
			mu.Unlock()
		}
	})
	after, cAfter := r.eng.Stats(), counters(r.eng.Metrics())
	if d := after.Coalesced - before.Coalesced; d != 0 {
		out.fail("api-fresh: %d submissions coalesced; every Spec should be new", d)
	}
	if d := after.CacheHits - before.CacheHits; d != 0 {
		out.fail("api-fresh: %d submissions hit the cache; every Spec should be new", d)
	}
	engineDeltas(cBefore, cAfter, out.ops, out.layers)
	timingLayers(timings, out.layers)
	out.layers["engine.notify_p50_ms"] = summarize(notify, 50).P50
	importJobs(tr, jobs)
}

// job submits pool Spec i, waits for its Result over SSE, and checks it
// was a fresh run of that Spec. It returns the job's span ID, when the
// Result was in hand, and the job ID ("" when it failed).
func (r *apiFreshRun) job(ctx context.Context, c *client.Client, i int, out *outcome) (op string, inHand time.Time, id string) {
	ctx, sp := r.env.tr.begin(ctx, "bench.job", fmt.Sprintf("fresh-%d", i))
	defer sp.end()
	start := time.Now()
	v, err := c.Submit(ctx, r.pool[i], client.SubmitOptions{})
	if err != nil {
		out.fail("api-fresh submit: %v", err)
		return "", time.Time{}, ""
	}
	res, err := c.Wait(ctx, v.ID)
	inHand = time.Now()
	if err == nil && (v.Cached || v.Key != r.hashes[i] || res.SpecHash != r.hashes[i]) {
		err = fmt.Errorf("cached=%v key=%.12s result=%.12s, want a fresh run of %.12s", v.Cached, v.Key, res.SpecHash, r.hashes[i])
	}
	if err == nil {
		err = checkStats(len(res.Stats), res.Final().TestAcc)
	}
	if err != nil {
		out.fail("api-fresh job %s: %v", v.ID, err)
		return "", inHand, ""
	}
	out.done(inHand.Sub(start))
	return parentOf(ctx), inHand, v.ID
}

// importJobs nests each job's engine spans under the server-side handler
// spans of that job's own requests.
func importJobs(tr *tracer, jobs []tracedJob) {
	if tr == nil {
		return
	}
	children := map[string][]span{}
	for _, s := range tr.snapshot() {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, j := range jobs {
		var handlers []span
		for _, rt := range children[j.op] {
			handlers = append(handlers, children[rt.ID]...)
		}
		tr.importEngineSpans(j.spans, handlers, j.op)
	}
}

func (r *apiFreshRun) verify(context.Context, *outcome) {}
