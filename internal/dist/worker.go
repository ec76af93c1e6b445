package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// WorkerOptions configures a fleet worker node.
type WorkerOptions struct {
	// Name identifies the node to operators and to the coordinator's
	// scenario-affine claims, which remember each name's latest lease.
	Name string
	// Client talks to the coordinator (`-join` URL, plus API key when
	// the coordinator authenticates).
	Client *client.Client
	// Engine executes leased Specs locally; its Store is the local
	// cache tier.
	Engine *engine.Engine
	// Slots bounds how many leases run concurrently (0 = 1).
	Slots int
	// Log receives the worker's structured log lines; nil uses
	// slog.Default().
	Log *slog.Logger
}

// activeLease is one lease this worker is executing.
type activeLease struct {
	lease engine.LeaseView
	// job is the lease's run on the worker's local engine, once
	// training started; its Progress is the round that heartbeats and
	// the completion report.
	job *engine.Job
	// coordCancelled: the coordinator relayed a user cancel; the local
	// job is being aborted and the completion reports Cancelled.
	coordCancelled bool
	// unknown: the coordinator no longer recognizes the lease (expired
	// and requeued); abort locally and do not complete.
	unknown bool
	// shipped marks span IDs whose delivery to the coordinator was
	// confirmed (heartbeat succeeded). Unconfirmed spans resend on the
	// next beat — at-least-once; the coordinator dedups by span ID.
	shipped map[string]bool
}

// Worker is one fleet node: it registers with the coordinator, pulls
// leased Specs, executes them through its local engine (after a
// local-store lookup), streams progress back via heartbeats, and
// uploads results + model checkpoints.
type Worker struct {
	name  string
	c     *client.Client
	eng   *engine.Engine
	slots int
	log   *slog.Logger
	m     *workerMetrics

	mu     sync.Mutex
	id     string
	ttl    time.Duration
	active map[string]*activeLease // by coordinator job ID

	// killed simulates a crash in tests: every loop exits immediately,
	// no abandon messages are sent, leases die by TTL expiry.
	killed chan struct{}
}

// NewWorker constructs a worker node (start it with Run).
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Client == nil || opts.Engine == nil {
		return nil, fmt.Errorf("dist: worker needs a Client and an Engine")
	}
	name := opts.Name
	if name == "" {
		name = "worker"
	}
	slots := opts.Slots
	if slots <= 0 {
		slots = 1
	}
	log := opts.Log
	if log == nil {
		log = slog.Default()
	}
	return &Worker{
		name:   name,
		c:      opts.Client,
		eng:    opts.Engine,
		slots:  slots,
		log:    log,
		m:      newWorkerMetrics(opts.Engine.Metrics()),
		active: map[string]*activeLease{},
		killed: make(chan struct{}),
	}, nil
}

// workerID returns the current registration ID.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// retryBackoff paces a worker's retries after a failed registration
// or lease pull. An empty pull needs no pacing: the coordinator held it
// until its hold elapsed, so the worker pulls again at once.
const retryBackoff = 500 * time.Millisecond

// jitter spreads a wait ±50% so a fleet of workers never acts in
// lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d)
}

// sleep waits a jittered d, interruptible by ctx or kill.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-w.killed:
		return false
	case <-time.After(jitter(d)):
		return true
	}
}

// register (re-)announces the worker to the coordinator, adopting a
// fresh worker ID and the coordinator's lease TTL.
func (w *Worker) register(ctx context.Context) error {
	resp, err := w.c.RegisterWorker(ctx, engine.WorkerRegisterRequest{
		Name:        w.name,
		CodeVersion: engine.CodeVersion,
		Slots:       w.slots,
	})
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.ttl = time.Duration(resp.LeaseTTLSec * float64(time.Second))
	w.mu.Unlock()
	w.log.Info("dist: worker registered", "worker", w.name, "worker_id", resp.WorkerID,
		"lease_ttl_sec", resp.LeaseTTLSec)
	return nil
}

// Run registers and then pulls/executes leases until ctx is cancelled.
// On a graceful stop every in-flight lease is abandoned back to the
// coordinator (best-effort) so its job requeues onto surviving nodes
// instead of waiting out the lease TTL.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.register(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.log.Warn("dist: registration failed, retrying", "error", err)
			if !w.sleep(ctx, retryBackoff) {
				return ctx.Err()
			}
			continue
		}
		break
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() { defer hbWG.Done(); w.heartbeatLoop(hbCtx) }()

	// A held pull ends with the worker: on a graceful stop through ctx,
	// and on a kill like a dead process's dropped connection, so the
	// coordinator requeues anything claimed for it.
	pullCtx, stopPull := context.WithCancel(ctx)
	defer stopPull()
	go func() {
		select {
		case <-w.killed:
			stopPull()
		case <-pullCtx.Done():
		}
	}()

	var execWG sync.WaitGroup
	sem := make(chan struct{}, w.slots)
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-w.killed:
			break loop
		case sem <- struct{}{}:
		}
		lease, err := w.c.PullLease(pullCtx, w.workerID())
		switch {
		case err != nil:
			<-sem
			if pullCtx.Err() != nil {
				break loop
			}
			w.m.pulls.With("error").Inc()
			if isUnknownWorker(err) {
				w.log.Warn("dist: coordinator dropped registration, re-registering")
				w.abortAllLocal(true)
				if rerr := w.register(ctx); rerr != nil {
					w.log.Warn("dist: re-registration failed", "error", rerr)
				}
				continue
			}
			w.log.Warn("dist: lease pull failed", "error", err)
			if !w.sleep(ctx, retryBackoff) {
				break loop
			}
		case lease == nil:
			// The hold elapsed with no work: pull again at once.
			<-sem
			w.m.pulls.With("idle").Inc()
		default:
			w.m.pulls.With("lease").Inc()
			al := &activeLease{lease: *lease, shipped: map[string]bool{}}
			w.mu.Lock()
			w.active[lease.JobID] = al
			w.mu.Unlock()
			execWG.Add(1)
			go func() {
				defer execWG.Done()
				defer func() { <-sem }()
				w.execute(ctx, al)
			}()
		}
	}

	// Graceful wind-down: abort local runs, wait for the executors to
	// observe it (they abandon their leases), then stop heartbeating.
	// A killed worker skips all of this — that is the point.
	select {
	case <-w.killed:
	default:
		w.abortAllLocal(false)
	}
	execWG.Wait()
	stopHB()
	hbWG.Wait()
	return ctx.Err()
}

// kill simulates `kill -9` for tests: every loop exits without
// abandoning leases, exactly like a dead process.
func (w *Worker) kill() { close(w.killed) }

// isUnknownWorker matches the coordinator's unknown_worker error code.
func isUnknownWorker(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Code == engine.ErrCodeUnknownWorker
}

// abortAllLocal cancels every active lease's local job: on a graceful
// stop, where each executor hands its lease back, or with forgotten set
// once the coordinator has dropped this worker's registration, where
// each executor sees the unknown flag and completes nothing.
func (w *Worker) abortAllLocal(forgotten bool) {
	w.mu.Lock()
	jobs := make([]*engine.Job, 0, len(w.active))
	for _, al := range w.active {
		al.unknown = al.unknown || forgotten
		if al.job != nil {
			jobs = append(jobs, al.job)
		}
	}
	w.mu.Unlock()
	for _, j := range jobs {
		_ = w.eng.Cancel(j.ID)
	}
}

// heartbeatLoop renews the worker's leases at a third of the TTL,
// relaying round progress up and cancel/unknown instructions down.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		ttl := w.ttl
		w.mu.Unlock()
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-w.killed:
			return
		case <-time.After(interval):
		}
		type sentSpans struct {
			al  *activeLease
			ids []string
		}
		w.mu.Lock()
		id := w.id
		progress := make([]engine.LeaseProgress, 0, len(w.active))
		var sent []sentSpans
		for jobID, al := range w.active {
			spans, spanIDs := w.pendingSpansLocked(al)
			lp := engine.LeaseProgress{JobID: jobID, Spans: spans}
			if al.job != nil {
				lp.Round, lp.Rounds = al.job.Progress()
			}
			progress = append(progress, lp)
			if len(spanIDs) > 0 {
				sent = append(sent, sentSpans{al, spanIDs})
			}
		}
		w.mu.Unlock()
		resp, err := w.c.WorkerHeartbeat(ctx, id, progress)
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("dist: heartbeat failed", "error", err)
				if isUnknownWorker(err) {
					w.abortAllLocal(true)
					if rerr := w.register(ctx); rerr != nil {
						w.log.Warn("dist: re-registration failed", "error", rerr)
					}
				}
			}
			continue
		}
		// Spans are confirmed only after the beat lands; a failed send
		// re-ships them and the coordinator's span-ID dedup absorbs it.
		w.mu.Lock()
		for _, s := range sent {
			for _, spanID := range s.ids {
				s.al.shipped[spanID] = true
			}
		}
		w.mu.Unlock()
		w.applyInstructions(resp)
	}
}

// span records a worker-side span on the lease's trace, parented under
// the coordinator's lease span so the merged timeline nests.
func (w *Worker) span(lv engine.LeaseView, name string, start, end time.Time, attrs map[string]string) {
	if lv.TraceID == "" {
		return
	}
	w.eng.Traces().Add(telemetry.Span{
		TraceID:     lv.TraceID,
		SpanID:      telemetry.NewSpanID(),
		ParentID:    lv.SpanID,
		Name:        name,
		Start:       start,
		DurationSec: end.Sub(start).Seconds(),
		Attrs:       attrs,
	})
}

// pendingSpansLocked collects the lease's trace spans not yet confirmed
// delivered, capped per message; w.mu must be held. Shipped copies are
// labeled with this node and root spans (the local engine's own "job"
// root) re-parent under the coordinator's lease span, so the merged
// timeline nests the worker's whole local tree inside the lease that
// caused it.
func (w *Worker) pendingSpansLocked(al *activeLease) ([]telemetry.Span, []string) {
	if al.lease.TraceID == "" || al.shipped == nil {
		return nil, nil
	}
	all := w.eng.Traces().Trace(al.lease.TraceID)
	var out []telemetry.Span
	var ids []string
	for _, sp := range all {
		if al.shipped[sp.SpanID] {
			continue
		}
		if sp.ParentID == "" {
			sp.ParentID = al.lease.SpanID
		}
		if sp.Source == "" {
			sp.Source = "worker:" + w.name
		}
		out = append(out, sp)
		ids = append(ids, sp.SpanID)
		if len(out) >= maxSpansPerMessage {
			break
		}
	}
	return out, ids
}

// applyInstructions handles a heartbeat response: cancel aborts the
// local runs the user cancelled upstream; unknown abandons leases the
// coordinator requeued elsewhere.
func (w *Worker) applyInstructions(resp engine.WorkerHeartbeatResponse) {
	var cancelLocal []*engine.Job
	w.mu.Lock()
	for _, jobID := range resp.Cancel {
		if al, ok := w.active[jobID]; ok && !al.coordCancelled {
			al.coordCancelled = true
			if al.job != nil {
				cancelLocal = append(cancelLocal, al.job)
			}
		}
	}
	for _, jobID := range resp.Unknown {
		if al, ok := w.active[jobID]; ok && !al.unknown {
			al.unknown = true
			if al.job != nil {
				cancelLocal = append(cancelLocal, al.job)
			}
			w.log.Warn("dist: lease lost (expired upstream), aborting local run", "job", jobID)
		}
	}
	w.mu.Unlock()
	for _, j := range cancelLocal {
		_ = w.eng.Cancel(j.ID)
	}
}

// execute runs one lease end-to-end: verify the content-address and
// submit the Spec to the local engine, which answers from its Store
// (the local tier) or, on a miss, trains it; then upload the checkpoint
// blob and settle the lease.
func (w *Worker) execute(ctx context.Context, al *activeLease) {
	lv := al.lease
	defer func() {
		w.mu.Lock()
		if w.active[lv.JobID] == al { // not a newer lease of the same job
			delete(w.active, lv.JobID)
		}
		w.mu.Unlock()
	}()

	// The cheap end-to-end guard: the Spec must hash to the lease key on
	// THIS binary too, or the fleet has version skew and this node
	// would poison the content-addressed caches.
	hash, err := lv.Spec.Hash()
	if err == nil && hash != lv.Key {
		err = fmt.Errorf("spec hashes to %.12s here but the lease says %.12s — version skew", hash, lv.Key)
	}
	if err != nil {
		w.log.Error("dist: refusing lease", "job", lv.JobID, "error", err)
		w.complete(al, engine.LeaseCompleteRequest{Error: err.Error()}, "failed")
		return
	}

	// Submit under the lease's trace, so one grep follows the cell from
	// coordinator submit to worker round loop. The engine answers a key
	// its own Store holds at once (the local tier) and trains the rest.
	tierStart := time.Now()
	j, err := w.eng.SubmitAs(lv.Spec, lv.Priority, lv.TraceID, "")
	if err != nil {
		w.complete(al, engine.LeaseCompleteRequest{Error: err.Error()}, "failed")
		return
	}
	tier := "miss"
	if j.Cached() {
		tier = "local"
	}
	w.m.tierLookups.With(tier).Inc()
	w.span(lv, "tier-lookup", tierStart, time.Now(), map[string]string{"tier": tier})
	w.mu.Lock()
	al.job = j
	// Instructions that raced ahead of the local submit apply now.
	abort := al.coordCancelled || al.unknown
	w.mu.Unlock()
	if abort {
		_ = w.eng.Cancel(j.ID)
	}

	res, runErr := j.Wait(context.Background()) // terminal even on cancel; ctx aborts via eng.Cancel

	w.mu.Lock()
	coordCancelled, unknown := al.coordCancelled, al.unknown
	w.mu.Unlock()

	switch {
	case unknown:
		// The coordinator requeued this job elsewhere; nothing to say.
		w.m.completions.With("abandoned").Inc()
	case runErr == nil:
		// The checkpoint blob goes up first, best-effort: a missing blob
		// upstream degrades GET /model to 404, never the result. Once the
		// coordinator has acknowledged both, the local blob is dropped, so
		// a memory-only worker does not grow with every cell it trains;
		// the local Result stays for a re-lease of the key to answer from,
		// and an unacknowledged blob stays for that re-lease to upload.
		uploaded := w.upload(ctx, lv)
		if w.complete(al, engine.LeaseCompleteRequest{Result: res}, "done") && uploaded {
			w.eng.Store().DropBlob(lv.Key)
		}
	case coordCancelled:
		w.complete(al, engine.LeaseCompleteRequest{Cancelled: true}, "cancelled")
	case errors.Is(runErr, context.Canceled):
		// Cancelled locally (graceful shutdown): hand the job back.
		w.complete(al, engine.LeaseCompleteRequest{Abandoned: true}, "abandoned")
	default:
		w.complete(al, engine.LeaseCompleteRequest{Error: runErr.Error()}, "failed")
	}
}

// upload pushes the lease's checkpoint blob to the coordinator and
// reports whether it arrived; with no local blob it reports false.
func (w *Worker) upload(ctx context.Context, lv engine.LeaseView) bool {
	blob, ok, _ := w.eng.ModelBlob(lv.Key)
	if !ok {
		return false
	}
	start := time.Now()
	err := w.c.UploadLeaseModel(ctx, w.workerID(), lv.JobID, blob)
	w.span(lv, "upload", start, time.Now(), map[string]string{"bytes": fmt.Sprintf("%d", len(blob))})
	if err != nil {
		w.log.Warn("dist: model upload failed", "job", lv.JobID, "error", err)
		return false
	}
	return true
}

// complete settles a lease on the coordinator and reports whether the
// coordinator acknowledged it. It runs on a short detached context so a
// worker shutting down can still deliver its abandon/cancel messages;
// failures are logged — the lease TTL is the backstop.
func (w *Worker) complete(al *activeLease, req engine.LeaseCompleteRequest, outcome string) bool {
	select {
	case <-w.killed:
		return false // a "dead" worker says nothing
	default:
	}
	// Terminal span flush: whatever the heartbeat has not confirmed yet
	// rides the completion, so short jobs still arrive with a full
	// worker-side timeline.
	w.mu.Lock()
	req.Spans, _ = w.pendingSpansLocked(al)
	if al.job != nil {
		req.Round, _ = al.job.Progress()
	}
	w.mu.Unlock()
	jobID := al.lease.JobID
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.c.CompleteLease(ctx, w.workerID(), jobID, req); err != nil {
		w.log.Warn("dist: lease completion failed", "job", jobID, "outcome", outcome, "error", err)
		return false
	}
	w.m.completions.With(outcome).Inc()
	return true
}
