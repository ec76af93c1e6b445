package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/dist"
	"github.com/pardon-feddg/pardon/internal/engine"
)

// fleetSweepWorkload does train-grid's f64 training plus leases,
// heartbeats, uploads, peer fetches and per-worker scenario builds.
var fleetSweepWorkload = workload{
	name:    "fleet-sweep",
	tailMax: 75,
	setup:   setupFleet,
}

// fleetWorkers is the fleet size: one single-slot worker per CPU of the
// 2-CPU reference host, each training with Parallelism 1.
var fleetWorkers = []string{"alpha", "beta"}

// fleetRun is the cluster `feddg serve -dispatch-only` and
// `feddg serve -worker` deploy: a dispatch-only coordinator engine
// serving the v2 API plus the fleet routes, and workers that join it over
// HTTP, each with its own engine. Lease TTL (heartbeats at a third of it)
// and the workers' idle poll are the deployed defaults, so the lease and
// heartbeat traffic is what a real fleet produces.
type fleetRun struct {
	env        *runEnv
	eng        *engine.Engine
	coord      *dist.Coordinator
	srv        *httptest.Server
	c          *client.Client
	workerEngs []*engine.Engine
	transports []*http.Transport
	stop       context.CancelFunc
	wg         sync.WaitGroup
}

func (f *fleetRun) newTransport(layer string) http.RoundTripper {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	f.transports = append(f.transports, tp)
	return f.env.tr.transport(tp, layer)
}

func setupFleet(ctx context.Context, env *runEnv) (instance, error) {
	eng, err := newEngine(engine.Options{Workers: -1})
	if err != nil {
		return nil, err
	}
	f := &fleetRun{env: env, eng: eng, stop: func() {}}
	f.coord = dist.NewCoordinator(eng, dist.Options{LeaseTTL: dist.DefaultLeaseTTL, Log: quietLogger()})
	api := engine.NewServer(eng)
	f.coord.Mount(api)
	f.srv = httptest.NewServer(env.tr.handler(api))
	f.c = client.New(f.srv.URL, client.WithHTTPClient(&http.Client{Transport: f.newTransport("client")}))
	if err := warmUp(ctx, eng, env.size); err != nil {
		f.close()
		return nil, err
	}
	wctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for _, name := range fleetWorkers {
		weng, err := newEngine(engine.Options{Workers: 1, Parallelism: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workerEngs = append(f.workerEngs, weng)
		w, err := dist.NewWorker(dist.WorkerOptions{
			Name:   name,
			Client: client.New(f.srv.URL, client.WithHTTPClient(&http.Client{Transport: f.newTransport("dist")})),
			Engine: weng,
			Log:    quietLogger(),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(wctx)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(f.coord.Fleet().Workers) < len(fleetWorkers); {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet workers did not register within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return f, nil
}

func (f *fleetRun) measure(ctx context.Context, deadline time.Time, out *outcome) {
	before, cBefore := f.eng.Stats(), counters(f.eng.Metrics())
	var wall time.Duration
	var runSec float64
	var timings []engine.JobTiming
	var jobs []tracedJob
	for k := 0; time.Now().Before(deadline); k++ {
		start := time.Now()
		views := f.sweep(ctx, k, out, &jobs)
		wall += time.Since(start)
		for _, v := range views {
			if v.Timing != nil {
				runSec += v.Timing.RunSec
				timings = append(timings, *v.Timing)
			}
		}
	}
	after, cAfter := f.eng.Stats(), counters(f.eng.Metrics())
	m := out.layers
	if wall > 0 {
		m["dist.worker_busy_share"] = runSec / (float64(len(fleetWorkers)) * wall.Seconds())
	}
	if out.ops > 0 {
		m["dist.requeued"] = (cAfter["dist_leases_requeued_total"] - cBefore["dist_leases_requeued_total"]) / float64(out.ops)
	}
	if d := after.Submitted - before.Submitted; d > 0 {
		m["engine.cache_hit_ratio"] = float64(after.CacheHits-before.CacheHits) / float64(d)
	}
	engineDeltas(cBefore, cAfter, out.ops, m)
	timingLayers(timings, m)
	importJobs(f.env.tr, jobs)
}

// sweep submits fleet sweep k, follows its event stream until every cell
// is terminal, then fetches each cell's view and model blob. A cell's
// latency runs from the sweep's submit to its terminal event.
func (f *fleetRun) sweep(ctx context.Context, k int, out *outcome, jobs *[]tracedJob) []client.JobView {
	ctx, sp := f.env.tr.begin(ctx, "bench.sweep", fmt.Sprintf("sweep-%d", k))
	defer sp.end()
	start := time.Now()
	view, err := f.c.SubmitSweep(ctx, fleetSweep(f.env.size, f.env.seed, k), client.SubmitOptions{})
	if err != nil {
		out.fail("fleet-sweep %d submit: %v", k, err)
		return nil
	}
	doneAt := map[string]time.Time{}
	stream, err := f.c.SweepEvents(ctx, view.ID)
	for err == nil {
		var ev client.Event
		if ev, err = stream.Next(); err == nil && ev.State.Terminal() {
			if _, seen := doneAt[ev.JobID]; !seen {
				doneAt[ev.JobID] = time.Now()
			}
		}
	}
	if stream != nil {
		stream.Close()
	}
	if !errors.Is(err, io.EOF) {
		out.fail("fleet-sweep %d events: %v", k, err)
		return nil
	}
	final, err := f.c.Sweep(ctx, view.ID)
	if err != nil {
		out.fail("fleet-sweep %d status: %v", k, err)
		return nil
	}
	if final.Counts.Cached != 0 {
		out.fail("fleet-sweep %d: %d cells answered from cache; every cell should train", k, final.Counts.Cached)
	}
	for _, jv := range final.Jobs {
		at, ok := doneAt[jv.ID]
		if jv.State != client.StateDone || !ok {
			out.fail("fleet-sweep %d cell %s: state %s %s", k, jv.ID, jv.State, jv.Error)
			continue
		}
		blob, err := f.c.Model(ctx, jv.ID)
		if err != nil {
			out.fail("fleet-sweep %d cell %s model: %v", k, jv.ID, err)
			continue
		}
		out.done(at.Sub(start))
		out.digest(jv.Key, sha(blob))
		if f.env.tr != nil {
			*jobs = append(*jobs, tracedJob{op: parentOf(ctx), spans: f.eng.Traces().Trace(jv.TraceID)})
		}
	}
	return final.Jobs
}

// verify retrains the first sweep's first seed block directly, the way
// train-grid does, and requires every fleet model blob of that block to
// be byte-identical to the single-process one.
func (f *fleetRun) verify(ctx context.Context, out *outcome) {
	built := map[string]bool{}
	for _, sp := range gridBlock(f.env.size, f.env.seed, 0) {
		if sp.Precision != "" {
			continue
		}
		key, err := sp.Hash()
		if err != nil {
			out.fail("fleet-sweep reference %s: %v", sp.Method, err)
			continue
		}
		if _, ran := out.digests[key]; !ran {
			continue
		}
		sum, _, err := trainCell(ctx, f.eng, sp, nil, built)
		if err != nil {
			out.fail("fleet-sweep reference %s: %v", sp.Method, err)
			continue
		}
		out.digest(key, sum)
	}
}

func (f *fleetRun) close() {
	f.stop()
	f.wg.Wait()
	for _, weng := range f.workerEngs {
		weng.Close()
	}
	for _, tp := range f.transports {
		tp.CloseIdleConnections()
	}
	f.srv.Close()
	f.coord.Close()
	f.eng.Close()
}
