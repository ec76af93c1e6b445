// Package dist splits the engine into a coordinator and a fleet of
// pull-based workers, all speaking the existing v2 wire protocol.
//
// The coordinator wraps a (typically dispatch-only) Engine: jobs queue
// through the normal submit paths, and registered workers pull them as
// leases — heartbeat-renewed assignments with an expiry. Claims keep
// the engine's fair share across tenants and, within a tenant, are
// scenario-affine: a worker takes the next cell on the scenario of its
// latest lease, which its scenario cache already holds, else a cell on
// a scenario no other worker is on, so each worker builds each of a
// sweep's scenarios once at most; an idle worker still takes any queued
// work rather than wait. A lease whose heartbeats stop —
// worker crash, network partition — expires and the job requeues onto
// the survivors. Leases are not journaled: a coordinator restart
// re-enqueues every unsettled job from its journal, leased or not, and
// the workers' old registrations are gone. Worker progress merges
// into the job's normal event stream: an SSE subscriber cannot tell a
// leased cell from a local one.
//
// Workers (`feddg serve -worker -join URL`) run the same engine
// in-process, memory-only and sized by their slots: a leased cell whose
// content-address their own Store already holds answers from it, and
// only a miss trains the cell. A worker keeps no journal and no cache
// dir; heartbeats and the completion read a lease's round from its
// local job. Results and model checkpoints upload back under the
// lease's content-address, so the coordinator's cache stays
// write-once-read-many; a completion whose Result carries another
// address fails the job and stores nothing.
package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// DefaultLeaseTTL is how long a lease survives without a heartbeat
// before the coordinator requeues its job.
const DefaultLeaseTTL = 15 * time.Second

// workerTTLFactor scales the lease TTL into the worker-liveness
// timeout: a worker silent for this many lease lifetimes is dropped
// from the fleet and its leases requeue immediately.
const workerTTLFactor = 3

// Coordinator errors, mapped onto the wire's structured codes by the
// HTTP layer.
var (
	// ErrUnknownWorker: the worker ID is not (or no longer) registered.
	ErrUnknownWorker = errors.New("dist: unknown worker")
	// ErrLeaseLost: the lease being settled is no longer held by the
	// calling worker.
	ErrLeaseLost = errors.New("dist: lease lost")
	// ErrVersionSkew: a worker's CodeVersion differs from the
	// coordinator's.
	ErrVersionSkew = errors.New("dist: code version skew")
	// ErrClosing: the coordinator is closing or its engine draining, so
	// a pull can never be granted; the worker backs off and retries.
	ErrClosing = errors.New("dist: coordinator closing")
)

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat
	// (0 = DefaultLeaseTTL). Workers heartbeat at a third of it.
	LeaseTTL time.Duration
	// Log receives the coordinator's structured log lines; nil uses
	// slog.Default().
	Log *slog.Logger
}

// workerState is one registered worker. Its leases are the entries
// of the coordinator's lease table that carry its ID.
type workerState struct {
	id         string
	name       string
	slots      int
	registered time.Time
	lastSeen   time.Time
	completed  int64
}

// leaseState is one leased job.
type leaseState struct {
	job        *engine.Job
	workerID   string
	workerName string
	granted    time.Time
	expires    time.Time
	// cancelled marks a user cancel that arrived while leased; relayed
	// to the worker on its next heartbeat and settled when the worker
	// confirms (or the lease expires).
	cancelled bool
}

// Coordinator owns the worker registry and the lease table over an
// Engine's queue. All methods are safe for concurrent use.
type Coordinator struct {
	eng   *engine.Engine
	ttl   time.Duration
	log   *slog.Logger
	m     *coordMetrics
	stats *stragglerStats

	mu      sync.Mutex
	workers map[string]*workerState // by worker ID
	leases  map[string]*leaseState  // by job ID
	nextID  int64

	// stopped ends when Close begins: the reaper exits and every held
	// lease pull is released.
	stopped  context.Context
	stop     context.CancelFunc
	reaperWG sync.WaitGroup
}

// NewCoordinator starts a coordinator over the engine. It starts with
// no workers and no leases: jobs that were leased when a journaled
// engine last stopped were replayed into its queue, unleased, before
// the engine was handed over.
func NewCoordinator(eng *engine.Engine, opts Options) *Coordinator {
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	log := opts.Log
	if log == nil {
		log = slog.Default()
	}
	c := &Coordinator{
		eng:     eng,
		ttl:     ttl,
		log:     log,
		m:       newCoordMetrics(eng.Metrics()),
		stats:   newStragglerStats(),
		workers: map[string]*workerState{},
		leases:  map[string]*leaseState{},
	}
	c.stopped, c.stop = context.WithCancel(context.Background())
	c.reaperWG.Add(1)
	go c.reaper()
	return c
}

// LeaseTTL returns the configured lease lifetime.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// Close stops the expiry reaper and releases every held lease pull
// with ErrClosing. Outstanding leases are left in place: the engine's
// shutdown (or journal replay on the next boot) owns their fate.
func (c *Coordinator) Close() {
	c.stop()
	c.reaperWG.Wait()
}

// Register adds a worker to the fleet. Version skew is refused outright:
// two engine versions computing different bytes for one content-address
// would poison every cache tier.
func (c *Coordinator) Register(req engine.WorkerRegisterRequest) (engine.WorkerRegisterResponse, error) {
	if req.CodeVersion != engine.CodeVersion {
		return engine.WorkerRegisterResponse{}, fmt.Errorf("%w: worker %q runs %q, coordinator %q",
			ErrVersionSkew, req.Name, req.CodeVersion, engine.CodeVersion)
	}
	name := req.Name
	if name == "" {
		name = "worker"
	}
	now := time.Now()
	c.mu.Lock()
	c.nextID++
	w := &workerState{
		id:         fmt.Sprintf("w-%d", c.nextID),
		name:       name,
		slots:      req.Slots,
		registered: now,
		lastSeen:   now,
	}
	c.workers[w.id] = w
	c.m.workers.Set(int64(len(c.workers)))
	c.mu.Unlock()
	c.log.Info("dist: worker registered", "worker", name, "worker_id", w.id, "slots", req.Slots)
	return engine.WorkerRegisterResponse{WorkerID: w.id, LeaseTTLSec: c.ttl.Seconds()}, nil
}

// Claim leases the next job to a worker: within the tenant whose turn
// it is, work on the scenario of its latest lease first, then work on
// a scenario no other worker holds, any queued work otherwise — an
// idle node never waits (see engine.Engine.ClaimRemote).
//
// On an empty queue Claim holds the pull, a long poll: it returns as
// soon as a job is pushed and claimed, and with (nil, nil) once a third
// of the lease TTL passes with nothing to claim. It returns ErrClosing
// when the coordinator closes or the engine drains, and ctx's error,
// claiming nothing, when ctx (the pull's request) ends first. A job
// claimed just as ctx ended has no one to run it and goes straight
// back to the queue.
func (c *Coordinator) Claim(ctx context.Context, workerID string) (*engine.LeaseView, error) {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	self := w.name
	c.mu.Unlock()

	hold, release := context.WithTimeout(ctx, c.ttl/3)
	defer release()
	defer context.AfterFunc(c.stopped, release)()
	ls := &leaseState{workerID: workerID, workerName: self}
	j, ok := c.eng.ClaimRemote(hold, self, func(j *engine.Job) { c.cancelLease(ls, j) })
	if !ok {
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case c.stopped.Err() != nil || c.eng.Draining():
			return nil, ErrClosing
		}
		return nil, nil
	}

	c.mu.Lock()
	if gone := ctx.Err(); gone != nil || c.stopped.Err() != nil || c.workers[workerID] != w {
		// The pull ended, the worker vanished or the coordinator is
		// closing between the claim and the bookkeeping: hand the job
		// straight back.
		c.mu.Unlock()
		reason, err := "pull_gone", gone
		if gone == nil {
			reason, err = "worker_lost", ErrUnknownWorker
		}
		if c.eng.RequeueRemote(j) {
			c.m.requeued.With(reason).Inc()
		}
		return nil, err
	}
	now := time.Now()
	ls.job, ls.granted, ls.expires = j, now, now.Add(c.ttl)
	c.leases[j.ID] = ls
	c.m.granted.With(self).Inc()
	c.m.workerLeases.With(self).Inc()
	c.mu.Unlock()

	return &engine.LeaseView{
		JobID:    j.ID,
		Key:      j.Key,
		TraceID:  j.TraceID,
		Priority: j.Priority(),
		Spec:     *j.Spec,
		// The job's run span is the lease span the scheduler records at
		// settle; handing its ID out lets the worker parent everything it
		// ships under this claim.
		SpanID: j.RunSpanID(),
	}, nil
}

// maxSpansPerMessage caps how many spans one heartbeat/complete payload
// may merge — a worker gone weird cannot balloon the coordinator's
// bounded trace store faster than its own trace's ring allows anyway,
// but the cap also keeps payload decode time flat.
const maxSpansPerMessage = 512

// mergeLeaseSpans merges spans a worker shipped for one lease into the
// job's trace, feeding newly seen round spans into the straggler
// statistics. Only spans of the lease's own trace are accepted, and the
// store's span-ID dedup makes at-least-once delivery exact: a resent
// span neither duplicates the timeline nor double-counts a round.
func (c *Coordinator) mergeLeaseSpans(ls *leaseState, spans []telemetry.Span) {
	if len(spans) > maxSpansPerMessage {
		spans = spans[:maxSpansPerMessage]
	}
	for _, sp := range spans {
		if sp.TraceID != ls.job.TraceID || sp.DurationSec < 0 {
			continue
		}
		if !c.eng.Traces().Add(sp) {
			continue
		}
		if strings.HasPrefix(sp.Name, "round-") && sp.DurationSec > 0 {
			c.stats.observeRound(ls.workerName, sp.DurationSec)
			c.m.roundSeconds.With(ls.workerName).Observe(sp.DurationSec)
		}
	}
}

// settleLeaseStats records a lease's grant→settle latency.
func (c *Coordinator) settleLeaseStats(ls *leaseState) {
	if ls.granted.IsZero() {
		return
	}
	c.m.leaseSeconds.With(ls.workerName).Observe(time.Since(ls.granted).Seconds())
}

// checkStragglers re-evaluates the fleet's straggler verdicts (reaper
// tick), updating the dist_worker_slow gauge and logging transitions.
func (c *Coordinator) checkStragglers() {
	verdicts, became, recovered := c.stats.evaluate()
	for name, slow := range verdicts {
		v := int64(0)
		if slow {
			v = 1
		}
		c.m.workerSlow.With(name).Set(v)
	}
	for _, name := range became {
		p50, p95, n := c.stats.roundQuantiles(name)
		c.log.Warn("dist: worker flagged as straggler",
			"worker", name, "round_p50_sec", p50, "round_p95_sec", p95, "samples", n)
	}
	for _, name := range recovered {
		p50, _, _ := c.stats.roundQuantiles(name)
		c.log.Info("dist: worker recovered from straggler state", "worker", name, "round_p50_sec", p50)
	}
}

// cancelLease is the cancel hook of a leased job j: a user cancel
// marks its lease ls, the worker learns on its next heartbeat, and the
// job settles when the worker confirms — or when the lease expires,
// whichever first. Each claim binds the hook to its own lease before
// the scheduler hands the job over, so a cancel that lands between the
// claim and the lease's entry in the lease table still marks it.
func (c *Coordinator) cancelLease(ls *leaseState, j *engine.Job) {
	c.mu.Lock()
	ls.cancelled = true
	c.mu.Unlock()
	c.log.Info("dist: cancel relayed to lease", "job", j.ID, "worker", ls.workerName)
}

// Heartbeat renews a worker's liveness and every lease it reports,
// merging round progress into the jobs' event streams. The response
// tells the worker which leased jobs to cancel (user cancels) and which
// it no longer holds (expired and requeued elsewhere).
func (c *Coordinator) Heartbeat(workerID string, req engine.WorkerHeartbeatRequest) (engine.WorkerHeartbeatResponse, error) {
	now := time.Now()
	var resp engine.WorkerHeartbeatResponse
	type prog struct {
		job           *engine.Job
		round, rounds int
	}
	type merge struct {
		ls    *leaseState
		spans []telemetry.Span
	}
	var progress []prog
	var merges []merge
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return resp, ErrUnknownWorker
	}
	w.lastSeen = now
	for _, lp := range req.Leases {
		ls, ok := c.leases[lp.JobID]
		if !ok || ls.workerID != workerID {
			resp.Unknown = append(resp.Unknown, lp.JobID)
			continue
		}
		ls.expires = now.Add(c.ttl)
		if ls.cancelled {
			resp.Cancel = append(resp.Cancel, lp.JobID)
		}
		if lp.Round > 0 {
			progress = append(progress, prog{ls.job, lp.Round, lp.Rounds})
		}
		if len(lp.Spans) > 0 {
			merges = append(merges, merge{ls, lp.Spans})
		}
	}
	c.mu.Unlock()
	c.m.heartbeats.Inc()
	for _, p := range progress {
		c.eng.RemoteProgress(p.job, p.round, p.rounds)
	}
	for _, m := range merges {
		c.mergeLeaseSpans(m.ls, m.spans)
	}
	return resp, nil
}

// dropLeaseLocked removes a lease from the lease table; c.mu must be
// held.
func (c *Coordinator) dropLeaseLocked(ls *leaseState) {
	delete(c.leases, ls.job.ID)
	c.m.workerLeases.With(ls.workerName).Dec()
}

// Complete settles a lease with the worker's outcome. The model blob,
// if any, was uploaded beforehand (PUT …/model), so a successful result
// persists blob and metrics under one content-address before the job
// finishes. A Result whose SpecHash is not the lease's key (a worker
// that trained some other Spec) fails the job instead and is not
// stored. An abandoned lease requeues its job.
func (c *Coordinator) Complete(workerID, jobID string, req engine.LeaseCompleteRequest) error {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	ls, ok := c.leases[jobID]
	if !ok || ls.workerID != workerID {
		c.mu.Unlock()
		return fmt.Errorf("%w: job %s is not leased to worker %s", ErrLeaseLost, jobID, workerID)
	}
	c.dropLeaseLocked(ls)
	if !req.Abandoned {
		w.completed++
	}
	c.mu.Unlock()

	// Merge the worker's terminal span flush and count its final rounds
	// BEFORE the job settles, so a subscriber woken by the done event
	// reads a complete timeline and round count.
	if len(req.Spans) > 0 {
		c.mergeLeaseSpans(ls, req.Spans)
	}
	c.eng.RemoteProgress(ls.job, req.Round, ls.job.Spec.Rounds)
	c.settleLeaseStats(ls)

	switch {
	case req.Abandoned:
		if c.eng.RequeueRemote(ls.job) {
			c.m.requeued.With("abandoned").Inc()
		}
		return nil
	case req.Cancelled:
		err := c.eng.CompleteRemote(ls.job, nil, fmt.Errorf("dist: worker %s confirmed cancel: %w", ls.workerName, context.Canceled))
		c.m.completed.With(string(engine.StateCancelled)).Inc()
		return err
	case req.Error != "":
		err := c.eng.CompleteRemote(ls.job, nil, fmt.Errorf("dist: worker %s: %s", ls.workerName, req.Error))
		c.m.completed.With(string(engine.StateFailed)).Inc()
		return err
	case req.Result != nil && req.Result.SpecHash != ls.job.Key:
		err := fmt.Errorf("dist: worker %s returned a result for %q on the lease for %s",
			ls.workerName, req.Result.SpecHash, ls.job.Key)
		_ = c.eng.CompleteRemote(ls.job, nil, err)
		c.m.completed.With(string(engine.StateFailed)).Inc()
		return err
	case req.Result != nil:
		if err := c.eng.CompleteRemote(ls.job, req.Result, nil); err != nil {
			return err
		}
		c.m.completed.With(string(engine.StateDone)).Inc()
		return nil
	default:
		return fmt.Errorf("dist: completion of job %s carries no outcome", jobID)
	}
}

// LeaseHolder resolves which worker holds a job's lease (for the model
// upload route's ownership check).
func (c *Coordinator) LeaseHolder(jobID string) (*engine.Job, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls, ok := c.leases[jobID]
	if !ok {
		return nil, "", false
	}
	return ls.job, ls.workerID, true
}

// Fleet snapshots the registered workers for the wire, including each
// worker's rolling round quantiles and straggler verdict.
func (c *Coordinator) Fleet() engine.FleetView {
	c.mu.Lock()
	defer c.mu.Unlock()
	active := map[string]int{} // by worker ID
	for _, ls := range c.leases {
		active[ls.workerID]++
	}
	v := engine.FleetView{LeaseTTLSec: c.ttl.Seconds(), Workers: make([]engine.WorkerView, 0, len(c.workers))}
	for _, w := range c.workers {
		p50, p95, n := c.stats.roundQuantiles(w.name)
		v.Workers = append(v.Workers, engine.WorkerView{
			ID:           w.id,
			Name:         w.name,
			Slots:        w.slots,
			Registered:   w.registered,
			LastSeen:     w.lastSeen,
			ActiveLeases: active[w.id],
			Completed:    w.completed,
			RoundP50Sec:  p50,
			RoundP95Sec:  p95,
			RoundSamples: n,
			Slow:         c.stats.isSlow(w.name),
		})
	}
	return v
}

// Top assembles one fleet-dashboard sample: the fleet with straggler
// stats, per-tenant queue depths, running-job count, engine counters,
// and the slowest spans on record. `feddg top` polls this.
func (c *Coordinator) Top() engine.TopView {
	fleet := c.Fleet()
	return engine.TopView{
		Time:        time.Now(),
		LeaseTTLSec: fleet.LeaseTTLSec,
		Workers:     fleet.Workers,
		QueueDepth:  c.eng.QueueDepths(),
		Running:     c.eng.RunningJobs(),
		Stats:       c.eng.Stats(),
		SlowSpans:   c.eng.Traces().Slowest(8),
	}
}

// reaper is the expiry loop: it requeues leases past their TTL and
// drops workers silent for workerTTLFactor lease lifetimes (requeueing
// everything they held). A lease whose job was cancelled while leased
// settles as cancelled instead of requeueing — the user's cancel must
// not be undone by a worker dying with it.
func (c *Coordinator) reaper() {
	defer c.reaperWG.Done()
	tick := c.ttl / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 2*time.Second {
		tick = 2 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stopped.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		type victim struct {
			ls     *leaseState
			reason string
		}
		var victims []victim
		c.mu.Lock()
		for id, w := range c.workers {
			if now.Sub(w.lastSeen) > workerTTLFactor*c.ttl {
				held := len(victims)
				for _, ls := range c.leases {
					if ls.workerID == id {
						victims = append(victims, victim{ls, "worker_lost"})
						c.dropLeaseLocked(ls)
					}
				}
				delete(c.workers, id)
				c.m.workers.Set(int64(len(c.workers)))
				c.log.Warn("dist: worker lost (no heartbeat)", "worker", w.name, "worker_id", id,
					"silent", now.Sub(w.lastSeen).Seconds(), "leases", len(victims)-held)
			}
		}
		for _, ls := range c.leases {
			if now.After(ls.expires) {
				victims = append(victims, victim{ls, "expired"})
				c.m.expired.Inc()
				c.dropLeaseLocked(ls)
			}
		}
		c.mu.Unlock()
		c.checkStragglers()
		for _, v := range victims {
			c.settleLeaseStats(v.ls)
			c.mu.Lock()
			cancelled := v.ls.cancelled
			c.mu.Unlock()
			if cancelled {
				_ = c.eng.CompleteRemote(v.ls.job, nil,
					fmt.Errorf("dist: job cancelled while leased to lost worker %s: %w", v.ls.workerName, context.Canceled))
				c.m.completed.With(string(engine.StateCancelled)).Inc()
				continue
			}
			if c.eng.RequeueRemote(v.ls.job) {
				c.m.requeued.With(v.reason).Inc()
				c.log.Warn("dist: lease requeued", "job", v.ls.job.ID, "worker", v.ls.workerName, "reason", v.reason)
			}
		}
	}
}
