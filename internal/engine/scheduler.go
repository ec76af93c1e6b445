package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// maxRetainedJobs bounds the job history a long-running scheduler keeps
// for status queries. Beyond it the jobs that settled longest ago are
// forgotten (a settled job keeps no Result: the Store holds it); queued and
// running jobs are never forgotten. Settled jobs wait in a FIFO in the
// order they settled, so a new job forgets the oldest ones by popping
// its head: no scan of the history, and no job's mutex taken.
const maxRetainedJobs = 4096

// State is a job's lifecycle stage.
type State string

// Job lifecycle: Queued → Running → Done | Failed | Cancelled. A cache
// hit is born Done.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one progress notification of a job, streamed to subscribers.
// Running jobs emit an Event per completed federated round.
type Event struct {
	JobID string `json:"job_id"`
	// Trace is the job's trace ID, echoed on every event so a log/SSE
	// consumer can correlate frames with the submission that caused them.
	Trace  string    `json:"trace,omitempty"`
	State  State     `json:"state"`
	Round  int       `json:"round,omitempty"`
	Rounds int       `json:"rounds,omitempty"`
	Err    string    `json:"error,omitempty"`
	Time   time.Time `json:"time"`
}

// jobRunFunc trains a job's Spec; the job is passed so the runner can
// emit progress events. A successful run returns the step that stores
// its Result: the pool worker hands that step to its slot's persister
// and trains its next job meanwhile, and the job settles once the step
// returns.
type jobRunFunc func(ctx context.Context, j *Job) (persist func() error, err error)

// Job is one schedulable unit of work: a Spec with a content-address, a
// priority, and a lifecycle the scheduler drives. All methods are safe
// for concurrent use.
type Job struct {
	// ID is the scheduler-unique job identifier.
	ID string
	// Key is the job's content-address, the Spec's hash.
	Key string
	// Spec is the job's experiment description.
	Spec *Spec
	// TraceID correlates everything this job touches — log lines, events,
	// SSE frames, the fl run — with the submission that created it. It is
	// adopted from the submitter (HTTP X-Request-ID) or minted at submit,
	// and immutable afterwards; coalesced submissions observe the first
	// submitter's trace.
	TraceID string
	// Tenant attributes the job to the authenticated tenant that first
	// submitted it ("anonymous" when auth is off). It selects the job's
	// fair-share queue and labels its metrics; coalesced submissions from
	// other tenants observe the first submitter's tenant.
	Tenant string
	// Created is the submission time: when the submission arrived,
	// before it was validated and hashed.
	Created time.Time

	seq     int64 // N of the "job-N" ID: creation order
	heapIdx int
	// scenario is the Spec's scenario key, computed under the
	// scheduler's lock the first time a remote claim or a scenario
	// eviction considers the job (see scenarioLocked); "" until then.
	scenario string
	// trained is set under the scheduler's lock once a local run has
	// trained and only its persist is pending: the job stays Running
	// but no longer wants its scenario (see scenariosWanted).
	trained bool

	// rootSpan is the span ID of the job's root "job" span, minted at
	// creation and immutable: every other span of the trace nests under
	// it (directly or via the run/lease span).
	rootSpan string
	store    *Store // holds the job's Result once Done; the job keeps none

	mu       sync.Mutex
	state    State
	priority int
	submits  int
	cached   bool
	worker   string        // remote worker holding the job ("" = local pool)
	runSpan  string        // span ID of the current run/lease attempt
	queued   time.Time     // when the job last entered its queue: its registration, or its last requeue
	waited   time.Duration // summed queue waits of every attempt, the queue spans' total
	started  time.Time
	finished time.Time
	round    int
	rounds   int
	persist  time.Duration
	err      error
	subs     []chan Event
	cancel   func() // the holder's cancel hook while running
	done     chan struct{}
}

// RootSpanID returns the span ID of the job's root "job" span — the
// parent every other span of the job's trace ultimately nests under.
func (j *Job) RootSpanID() string { return j.rootSpan }

// RunSpanID returns the span ID of the job's current run or lease
// attempt ("" while queued). Round, persist, and worker-shipped spans
// parent here, so retries after a lease expiry nest under the attempt
// that produced them.
func (j *Job) RunSpanID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runSpan
}

// Priority returns the job's queue priority: higher runs first, FIFO
// within a level. It can be raised while queued when a higher-priority
// identical submission coalesces onto the job.
func (j *Job) Priority() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.priority
}

// Submissions returns how many Submit calls this job is answering: 1
// for a sole owner, more when identical submissions coalesced onto it.
// Callers that abort a batch should only cancel jobs they own alone.
func (j *Job) Submissions() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submits
}

// State returns the job's current lifecycle stage.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Progress returns the last round the job finished and its total
// rounds; both are 0 until its first round ends.
func (j *Job) Progress() (round, rounds int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.round, j.rounds
}

// Cached reports whether the job was satisfied from the result store
// without running.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Worker returns the name of the remote worker currently executing the
// job, or "" when the job runs (or ran) on the local pool.
func (j *Job) Worker() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.worker
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's outcome once terminal: the Result on success,
// read from the Store under the job's key, the failure or cancellation
// error otherwise. A pending job, or a Done one whose Result a disk
// store has let go (evicted by its size cap, or deleted), gets an error.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	state, err := j.state, j.err
	j.mu.Unlock()
	if state != StateDone {
		if !state.Terminal() {
			err = fmt.Errorf("engine: job %s not finished (state %s)", j.ID, state)
		}
		return nil, err
	}
	if res, ok, err := j.store.Get(j.Key); ok || err != nil {
		return res, err
	}
	return nil, fmt.Errorf("engine: job %s: result %s is no longer in the store; resubmitting the Spec recomputes it", j.ID, j.Key)
}

// Wait blocks until the job is terminal or ctx is cancelled, then
// returns Result().
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Subscribe returns a channel of the job's progress events. Every
// subscription begins with a snapshot of the job's current state — so a
// late (or reconnecting) subscriber resumes from the present rather
// than joining blind — and the channel is closed when the job reaches a
// terminal state; a job already terminal yields its final event and an
// immediately closed channel. Slow consumers drop events rather than
// stall the run.
func (j *Job) Subscribe() <-chan Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 64)
	ch <- j.eventLocked()
	if j.state.Terminal() {
		close(ch)
		return ch
	}
	j.subs = append(j.subs, ch)
	return ch
}

// addPersist accumulates time spent persisting the run's outputs (the
// result entry and the checkpoint blob are separate writes); surfaced in
// the job's wire timing breakdown.
func (j *Job) addPersist(d time.Duration) {
	j.mu.Lock()
	j.persist += d
	j.mu.Unlock()
}

// Timing is the job's wall-clock breakdown: time spent queued, running,
// and persisting the result. Zero-valued phases did not happen (a cache
// hit neither queues nor runs).
type JobTiming struct {
	// QueueSec sums the job's waits in the queue, the intervals its
	// queue spans cover: admission and requeued leases are not counted.
	QueueSec   float64 `json:"queue_sec"`
	RunSec     float64 `json:"run_sec"`
	PersistSec float64 `json:"persist_sec,omitempty"`
}

// timingLocked derives the phase breakdown from the job's timestamps;
// j.mu must be held.
func (j *Job) timingLocked() JobTiming {
	t := JobTiming{PersistSec: j.persist.Seconds()}
	if !j.started.IsZero() {
		t.QueueSec = j.waited.Seconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		t.RunSec = end.Sub(j.started).Seconds()
	}
	return t
}

// Timing returns the job's current phase wall-clock breakdown.
func (j *Job) Timing() JobTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.timingLocked()
}

// eventLocked snapshots the job as an Event; j.mu must be held.
func (j *Job) eventLocked() Event {
	ev := Event{JobID: j.ID, Trace: j.TraceID, State: j.state, Round: j.round, Rounds: j.rounds, Time: time.Now()}
	if j.err != nil {
		ev.Err = j.err.Error()
	}
	return ev
}

// emitLocked fans the current snapshot out to subscribers, dropping on
// full buffers; j.mu must be held.
func (j *Job) emitLocked() {
	ev := j.eventLocked()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// advance moves a running job's progress forward to round and returns
// how many rounds that newly covers, notifying subscribers. Local runs
// and remote heartbeats report through it alike; a report at or behind
// the current round (a re-sent heartbeat) returns 0 and emits nothing.
func (j *Job) advance(round, total int) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || round <= j.round {
		return 0
	}
	n := round - j.round
	j.round, j.rounds = round, total
	j.emitLocked()
	return n
}

// settleLocked moves the job to a terminal state without waking anyone,
// and reports false, changing nothing, if it already was terminal. j.mu
// must be held through publishLocked: Scheduler.finish accounts for the
// job (run time, completion counter, spans) in between, so whoever
// Wait or the event stream wakes reads counters that include it.
func (j *Job) settleLocked(state State, err error) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.err = err
	j.finished = time.Now()
	return true
}

// publishLocked sends the terminal event and wakes every waiter and
// subscriber of a job settleLocked has just settled; j.mu must be held.
func (j *Job) publishLocked() {
	j.emitLocked()
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
}

// outcome maps a run's error to the job's terminal state.
func outcome(err error) State {
	switch {
	case err == nil:
		return StateDone
	case errors.Is(err, context.Canceled):
		return StateCancelled
	}
	return StateFailed
}

// Scheduler owns the bounded worker pool and the fair-share queue:
// one priority/FIFO heap per tenant, served round-robin across tenants
// with work pending, so one tenant's 4096-cell sweep cannot starve a
// single job from another. Within a tenant the original semantics hold
// — higher priority first, FIFO within a level. Submissions with a
// content-address already queued or running coalesce onto the in-flight
// job instead of duplicating work.
type Scheduler struct {
	run     jobRunFunc // runs each job the pool dequeues: Engine.run
	metrics *engineMetrics
	log     *slog.Logger
	// journal, when non-nil, receives the terminal records of
	// journaled jobs. Jobs cancelled because the scheduler itself is
	// draining are deliberately NOT journaled terminal: they must
	// re-enqueue on the next boot.
	journal *Journal
	// traces receives the lifecycle spans (queue, run, lease, job) the
	// scheduler records at its state transitions; nil disables tracing.
	traces *telemetry.TraceStore

	mu       sync.Mutex
	cond     *sync.Cond
	wake     chan struct{}        // held remote claims wait on it; see wakeLocked
	warm     map[string]string    // remote worker name → scenario key of its latest lease
	queues   map[string]*jobQueue // per-tenant priority heaps
	rr       []string             // round-robin ring of tenants ever seen
	rrNext   int                  // next ring slot to serve
	queued   int                  // total queued entries across all tenants
	jobs     map[string]*Job      // by ID
	order    []orderEntry         // every job in creation order (ascending seq); see newJobLocked
	settled  []*Job               // settled jobs in the order they settled, from forgot on; see newJobLocked
	forgot   int                  // settled[:forgot] are forgotten and nil, until newJobLocked compacts them away
	inflight map[string]*Job      // by content-address, queued or running
	nextID   int64
	closed   bool
	wg       sync.WaitGroup
}

// newScheduler starts a scheduler with the given worker-pool size.
func newScheduler(workers int, m *engineMetrics, log *slog.Logger, run jobRunFunc) *Scheduler {
	s := &Scheduler{run: run, metrics: m, log: log, queues: map[string]*jobQueue{}, jobs: map[string]*Job{}, inflight: map[string]*Job{},
		wake: make(chan struct{}), warm: map[string]string{}}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		persists := make(chan func())
		s.wg.Add(2)
		go s.worker(persists)
		go s.persister(persists)
	}
	return s
}

// queueForLocked returns the tenant's heap, creating it (and a ring
// slot) on first use; s.mu must be held. Ring slots are never removed —
// the tenant set is bounded by configuration, and an empty queue costs
// one map entry.
func (s *Scheduler) queueForLocked(tenant string) *jobQueue {
	q, ok := s.queues[tenant]
	if !ok {
		q = &jobQueue{}
		s.queues[tenant] = q
		s.rr = append(s.rr, tenant)
	}
	return q
}

// dequeueLocked pops the next job fairly: scan the tenant ring from
// rrNext, take the head of the first non-empty heap, and advance the
// ring past the served tenant. s.mu must be held and s.queued > 0.
func (s *Scheduler) dequeueLocked() *Job {
	n := len(s.rr)
	for i := 0; i < n; i++ {
		tenant := s.rr[(s.rrNext+i)%n]
		q := s.queues[tenant]
		if q.Len() == 0 {
			continue
		}
		s.rrNext = (s.rrNext + i + 1) % n
		j := heap.Pop(q).(*Job)
		s.queued--
		s.metrics.queueDepth.With(tenant).Set(int64(q.Len()))
		return j
	}
	return nil
}

// recordSpan records one lifecycle span on a job's trace with a fresh
// span ID. Instant events pass start == end.
func (s *Scheduler) recordSpan(j *Job, parent, name string, start, end time.Time, attrs map[string]string) {
	s.recordSpanID(j, telemetry.NewSpanID(), parent, name, start, end, attrs)
}

// recordSpanID is recordSpan with a caller-chosen span ID — used for the
// spans whose IDs are handed out ahead of time (the run/lease span ID a
// worker parents its shipped spans under).
func (s *Scheduler) recordSpanID(j *Job, id, parent, name string, start, end time.Time, attrs map[string]string) {
	if s.traces == nil || id == "" {
		return
	}
	s.traces.Add(telemetry.Span{
		TraceID:     j.TraceID,
		SpanID:      id,
		ParentID:    parent,
		Name:        name,
		Start:       start,
		DurationSec: end.Sub(start).Seconds(),
		Attrs:       attrs,
	})
}

// isClosed reports whether the scheduler is draining.
func (s *Scheduler) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ErrClosed is returned by submissions after Close: the engine is
// draining and will accept no more work. It is a transient service
// condition, not a fault of the submitted Spec.
var ErrClosed = errors.New("engine: scheduler closed")

// submit enqueues work under a content-address for a tenant; store is
// where the job will read its Result once Done. When a job with the
// same address is already in flight, that job is returned with
// coalesced=true and nothing is enqueued (coalescing never consumes
// quota). quota > 0 caps how many jobs the tenant may have queued; at
// the cap the submission is refused with a *QuotaError.
func (s *Scheduler) submit(spec *Spec, key string, priority int, trace, tenant string, quota int, arrived time.Time, b *enqueueBatch, store *Store) (j *Job, coalesced bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if cur, ok := s.inflight[key]; ok {
		// The coalesced submission still gets its urgency: raise the
		// in-flight job's priority if ours is higher.
		cur.mu.Lock()
		cur.submits++
		if priority > cur.priority {
			cur.priority = priority
			if cur.state == StateQueued && cur.heapIdx >= 0 {
				heap.Fix(s.queues[cur.Tenant], cur.heapIdx)
			}
		}
		cur.mu.Unlock()
		s.log.Info("engine: submission coalesced",
			"trace", trace, "job", cur.ID, "job_trace", cur.TraceID, "method", methodLabel(cur))
		return cur, true, nil
	}
	q := s.queueForLocked(tenant)
	if quota > 0 && q.Len() >= quota {
		s.metrics.quotaRejected.With(tenant).Inc()
		s.log.Warn("engine: submission refused by queue quota", "trace", trace, "tenant", tenant, "quota", quota)
		return nil, false, &QuotaError{Tenant: tenant, Limit: quota}
	}
	j = s.newJobLocked(spec, key, priority, trace, tenant, arrived, store)
	j.state = StateQueued
	s.inflight[key] = j
	s.pushLocked(j, b)
	s.log.Info("engine: job queued",
		"trace", j.TraceID, "job", j.ID, "tenant", tenant, "method", methodLabel(j), "priority", priority, "key", key[:min(12, len(key))])
	return j, false, nil
}

// completed registers a job that is already Done (a cache hit), so the
// submission is observable through the same job API as a live run.
func (s *Scheduler) completed(spec *Spec, key string, priority int, trace, tenant string, store *Store) *Job {
	s.mu.Lock()
	j := s.newJobLocked(spec, key, priority, trace, tenant, time.Now(), store)
	j.state = StateDone
	j.cached = true
	j.finished = j.Created
	close(j.done)
	s.settled = append(s.settled, j)
	s.mu.Unlock()
	s.metrics.jobsCompleted.With(string(StateDone), tenant).Inc()
	s.recordSpanID(j, j.rootSpan, "", "job", j.Created, j.Created,
		map[string]string{"state": string(StateDone), "cached": "true", "method": methodLabel(j)})
	s.log.Info("engine: job served from cache",
		"trace", j.TraceID, "job", j.ID, "method", methodLabel(j), "key", key[:min(12, len(key))])
	return j
}

// orderEntry is a job's slot in the scheduler's creation order. A
// forgotten job's slot keeps its seq, so the order stays searchable,
// and drops the job, so the job is freed.
type orderEntry struct {
	seq int64
	job *Job // nil once forgotten
}

// orderIndexLocked returns the index of the first slot of s.order whose
// seq is at least seq; s.mu must be held.
func (s *Scheduler) orderIndexLocked(seq int64) int {
	return sort.Search(len(s.order), func(k int) bool { return s.order[k].seq >= seq })
}

// newJobLocked allocates and registers a job that arrived at the given
// time; s.mu must be held. The job's root span starts at its arrival,
// so it encloses the admission span, and its first queue span at its
// registration here. When
// the registry outgrows maxRetainedJobs, the jobs that settled longest
// ago are forgotten so a long-running server's job history stays
// bounded. A forgotten job's slot in the creation order is found by
// binary search and emptied. The settled FIFO is compacted once its
// forgotten prefix outgrows the rest, and the creation order once its
// empty slots outnumber the retained jobs, which keeps both backing
// arrays bounded at O(1) amortized per job.
func (s *Scheduler) newJobLocked(spec *Spec, key string, priority int, trace, tenant string, arrived time.Time, store *Store) *Job {
	s.nextID++
	if tenant == "" {
		tenant = AnonymousTenant
	}
	j := &Job{
		ID:       fmt.Sprintf("job-%d", s.nextID),
		Key:      key,
		Spec:     spec,
		TraceID:  telemetry.OrNewTraceID(trace),
		Tenant:   tenant,
		Created:  arrived,
		rootSpan: telemetry.NewSpanID(),
		store:    store,
		queued:   time.Now(),
		seq:      s.nextID,
		priority: priority,
		submits:  1,
		state:    StateQueued,
		heapIdx:  -1,
		done:     make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, orderEntry{seq: j.seq, job: j})
	for len(s.jobs) > maxRetainedJobs && s.forgot < len(s.settled) {
		old := s.settled[s.forgot]
		delete(s.jobs, old.ID)
		s.order[s.orderIndexLocked(old.seq)].job = nil
		s.settled[s.forgot] = nil
		s.forgot++
	}
	if s.forgot > len(s.settled)/2 {
		n := copy(s.settled, s.settled[s.forgot:])
		clear(s.settled[n:])
		s.settled, s.forgot = s.settled[:n], 0
	}
	if len(s.order) > 2*len(s.jobs) {
		kept := s.order[:0]
		for _, o := range s.order {
			if o.job != nil {
				kept = append(kept, o)
			}
		}
		clear(s.order[len(kept):])
		s.order = kept
	}
	return j
}

// count returns the number of retained jobs.
func (s *Scheduler) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// job looks a job up by ID.
func (s *Scheduler) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// page returns the retained jobs created before job-N for N = before
// (all of them when before < 0), newest first, keeping only those in
// the given state ("" keeps every state) and stopping after n of them
// (n <= 0: no limit). It finds the cursor by binary search in the
// creation order and walks down from it, so its cost follows the page,
// not the history.
func (s *Scheduler) page(before int64, state State, n int) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := len(s.order)
	if before >= 0 {
		i = s.orderIndexLocked(before)
	}
	var out []*Job
	for i--; i >= 0 && (n <= 0 || len(out) < n); i-- {
		j := s.order[i].job
		if j == nil || (state != "" && j.State() != state) {
			continue
		}
		out = append(out, j)
	}
	return out
}

// cancel aborts a job: a queued job finishes immediately as Cancelled, a
// running job has its holder's cancel hook called — a local run stops at
// the next round boundary, a lease is relayed to its worker. Cancelling a
// terminal job is a no-op.
func (s *Scheduler) cancel(id string) error {
	j, ok := s.job(id)
	if !ok {
		return fmt.Errorf("engine: unknown job %q", id)
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		s.finish(j, fmt.Errorf("engine: job %s cancelled while queued: %w", j.ID, context.Canceled))
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	return nil
}

// release removes a terminal job from the in-flight index and queues it
// for forgetting (see newJobLocked). finish calls it once per job, after
// settling it.
func (s *Scheduler) release(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.settled = append(s.settled, j)
	s.mu.Unlock()
}

// close cancels all pending and running work and waits for the workers
// and their persisters to drain: a job whose training finished settles
// only after its persist, so it ends Done with its Result stored.
func (s *Scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	running := make([]*Job, 0, len(s.inflight))
	for _, j := range s.inflight {
		running = append(running, j)
	}
	s.cond.Broadcast()
	s.wakeLocked()
	s.mu.Unlock()

	for _, j := range running {
		_ = s.cancel(j.ID)
	}
	s.wg.Wait()
}

// pushLocked puts a job on its tenant's heap and wakes one pool worker
// and every held remote claim — at once, or when b ends if the push
// belongs to an enqueue batch; s.mu must be held.
func (s *Scheduler) pushLocked(j *Job, b *enqueueBatch) {
	q := s.queueForLocked(j.Tenant)
	heap.Push(q, j)
	s.queued++
	s.metrics.queueDepth.With(j.Tenant).Set(int64(q.Len()))
	s.cond.Signal()
	if b != nil {
		b.wakeDue = true
	} else {
		s.wakeLocked()
	}
}

// enqueueBatch is a series of submits that wake held remote claims
// once, after the last of them; see Scheduler.batch.
type enqueueBatch struct {
	wakeDue bool // a push of the batch owes held claims a wake; guarded by s.mu
}

// batch runs fn — a series of submits, each passing fn's batch to
// submit — as one enqueue for held remote claims: the batch's pushes
// wake no held claim until fn returns, and then one wake releases them
// all onto the whole batch. A sweep enqueues through it, so claimers
// woken by its cells all see every scenario the sweep brings and can
// spread over them (claimRemote). Pushes outside the batch, local pool
// workers and a claim that arrives while the batch is open are not
// held back.
func (s *Scheduler) batch(fn func(b *enqueueBatch)) {
	b := &enqueueBatch{}
	defer func() {
		s.mu.Lock()
		if b.wakeDue {
			s.wakeLocked()
		}
		s.mu.Unlock()
	}()
	fn(b)
}

// wakeLocked releases every remote claim waiting on the queue, on a
// push or when the scheduler drains, by closing the wake channel and
// replacing it; s.mu must be held. A held lease pull selects on the
// channel next to its request context, which a sync.Cond cannot do.
func (s *Scheduler) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// attempt names a run attempt after the worker holding it ("" is the
// in-process pool): its span — "run" locally, "lease" remotely;
// benchmark traces and the cluster smoke test key on both names — and
// the holder its span and log lines report. Only the empty worker name
// means the local pool, so a remote worker may call itself anything,
// "local" included.
func attempt(worker string) (span, holder string) {
	if worker == "" {
		return "run", "local"
	}
	return "lease", worker
}

// start is the claim edge, Queued→Running under worker ("" for the
// local pool, else a remote worker's name). It mints the attempt's span
// ID and installs cancel as the job's cancel hook, then writes the
// queue span, the queue wait, sched_running_jobs and the log line. It
// journals nothing, local or remote: replay treats a started job like
// a queued one. It reports false, changing nothing, for a job that is
// no longer queued (cancelled while it sat in the heap).
func (s *Scheduler) start(j *Job, worker string, cancel func()) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.waited += j.started.Sub(j.queued)
	j.runSpan = telemetry.NewSpanID()
	j.worker = worker
	j.cancel = cancel
	queued, started := j.queued, j.started
	s.metrics.running.Inc()
	j.emitLocked()
	j.mu.Unlock()
	_, holder := attempt(worker)
	method, queueSec := methodLabel(j), started.Sub(queued).Seconds()
	s.recordSpan(j, j.rootSpan, "queue", queued, started, nil)
	s.metrics.queueWait.With(method).Observe(queueSec)
	s.log.Info("engine: job started",
		"trace", j.TraceID, "job", j.ID, "tenant", j.Tenant, "holder", holder, "method", method, "queue_sec", queueSec)
	return true
}

// finish is the settle edge and the one place a job ends: its local
// run returned, its remote worker completed it, it was cancelled while
// queued, or its lease ended while the scheduler drains. j.mu must be
// held on entry, so the caller's state check and the settle are one
// step; finish releases it. It reports false, changing nothing, if the
// job already was terminal.
//
// Before waking the job's waiters it records the attempt's span, run
// time and sched_running_jobs if the job was running (else the span of
// its current wait in the queue, which starts at its last requeue if it
// had one), the root job span and the completion counter. Then it
// journals done — except for a cancel caused by draining, which stays
// live so the next boot re-enqueues the job — logs, and drops the job
// from the in-flight index.
func (s *Scheduler) finish(j *Job, err error) bool {
	was := j.state
	if !j.settleLocked(outcome(err), err) {
		j.mu.Unlock()
		return false
	}
	state, method := j.state, methodLabel(j)
	holder, runSec := "", 0.0
	if was == StateRunning {
		var span string
		span, holder = attempt(j.worker)
		runSec = j.finished.Sub(j.started).Seconds()
		s.recordSpanID(j, j.runSpan, j.rootSpan, span, j.started, j.finished,
			map[string]string{"worker": holder, "state": string(state)})
		s.metrics.runSeconds.With(method).Observe(runSec)
		s.metrics.running.Dec()
	} else {
		s.recordSpan(j, j.rootSpan, "queue", j.queued, j.finished, nil)
	}
	s.recordSpanID(j, j.rootSpan, "", "job", j.Created, j.finished,
		map[string]string{"state": string(state), "method": method, "tenant": j.Tenant})
	s.metrics.jobsCompleted.With(string(state), j.Tenant).Inc()
	j.publishLocked()
	j.mu.Unlock()
	if !(state == StateCancelled && s.isClosed()) {
		s.journal.jobDone(j.Key, state)
	}
	args := []any{"trace", j.TraceID, "job", j.ID, "holder", holder, "method", method, "state", state, "run_sec", runSec}
	if err != nil {
		s.log.Warn("engine: job finished", append(args, "error", err)...)
	} else {
		s.log.Info("engine: job finished", args...)
	}
	s.release(j)
	return true
}

// worker is one pool worker, an in-process lease holder: wait for a
// queued job, start it, train it, and hand its persist to the slot's
// persister, then dequeue the next job while the persist runs. The
// channel is unbuffered, so a slot has at most one persist in flight:
// the hand-over waits for the previous persist to finish. A run that
// failed finishes here at once.
func (s *Scheduler) worker(persists chan<- func()) {
	defer s.wg.Done()
	defer close(persists)
	for {
		s.mu.Lock()
		for !s.closed && s.queued == 0 {
			s.cond.Wait()
		}
		if s.queued == 0 {
			s.mu.Unlock()
			return
		}
		j := s.dequeueLocked()
		s.mu.Unlock()
		if j == nil {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		if s.start(j, "", cancel) {
			persist, err := s.run(ctx, j)
			if err == nil {
				s.mu.Lock()
				j.trained = true
				s.mu.Unlock()
				persists <- func() {
					err := persist()
					j.mu.Lock()
					s.finish(j, err)
				}
			} else {
				j.mu.Lock()
				s.finish(j, err)
			}
		}
		cancel()
	}
}

// persister runs the persists its worker hands over, in order, until
// the worker exits.
func (s *Scheduler) persister(persists <-chan func()) {
	defer s.wg.Done()
	for persist := range persists {
		persist()
	}
}

// claimRemote leases the next queued job to a remote worker, preferring
// work whose scenario the fleet has already built. The tenant ring
// picks the tenant, as for the local pool, so fair share holds across
// tenants; among the tenant's queued jobs of its top priority level it
// claims, in FIFO order:
//
//  1. a job on the scenario of the worker's latest lease — the worker
//     has that scenario cached;
//  2. else a job on a scenario no other worker's latest lease holds —
//     the worker builds a scenario nobody else is building;
//  3. else the tenant's next job, so a worker never idles while work is
//     queued.
//
// onCancel, when non-nil, becomes the job's cancel hook so a user
// cancel propagates to the lease.
//
// On an empty queue the claim waits for a push to wake it (a long
// poll). It returns nil, claiming nothing, once ctx ends or the
// scheduler drains; a ctx that has already ended claims nothing even
// when work is queued.
func (s *Scheduler) claimRemote(ctx context.Context, worker string, onCancel func(*Job)) *Job {
	for {
		s.mu.Lock()
		if s.closed || ctx.Err() != nil {
			s.mu.Unlock()
			return nil
		}
		j := s.popRemoteLocked(worker)
		if j == nil {
			wake := s.wake
			s.metrics.claimsWaiting.Inc()
			s.mu.Unlock()
			select {
			case <-ctx.Done():
			case <-wake:
			}
			s.metrics.claimsWaiting.Dec()
			continue
		}
		// The worker's scenario moves with the pop, so a claim racing
		// this one already sees it; a job cancelled while queued, which
		// start refuses, moves it back.
		prev, sc := s.warm[worker], s.scenarioLocked(j)
		s.warm[worker] = sc
		s.mu.Unlock()
		var cancel func()
		if onCancel != nil {
			cancel = func() { onCancel(j) }
		}
		if s.start(j, worker, cancel) {
			return j
		}
		s.mu.Lock()
		if s.warm[worker] == sc {
			s.warm[worker] = prev
		}
		s.mu.Unlock()
	}
}

// scenarioLocked returns a job's scenario key, computing it once and
// caching it on the job; s.mu must be held. Only remote claims and
// scenario-cache evictions ask, so submits and cache hits never hash a
// scenario. A Spec whose key cannot be computed gets "", which no rule
// treats as warm and no cache entry is keyed by.
func (s *Scheduler) scenarioLocked(j *Job) string {
	if j.scenario == "" {
		j.scenario, _ = j.Spec.scenarioKey()
	}
	return j.scenario
}

// scenariosWanted returns the scenario keys of every queued or running
// job that has yet to train: the scenarios the engine's scenario cache
// must not evict. A job whose persist alone is pending needs none.
func (s *Scheduler) scenariosWanted() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	wanted := make(map[string]bool, len(s.inflight))
	for _, j := range s.inflight {
		if !j.trained {
			wanted[s.scenarioLocked(j)] = true
		}
	}
	return wanted
}

// popRemoteLocked removes the job claimRemote leases to worker, or
// returns nil when no job is queued; s.mu must be held. It walks the
// tenant ring as dequeueLocked does, passing over tenants with empty
// queues, and advances the ring past the tenant it serves.
// Scanning the raw heap slices is fine: priority writes are guarded by
// s.mu, and a job cancelled-while-queued is filtered by start.
func (s *Scheduler) popRemoteLocked(worker string) *Job {
	n := len(s.rr)
	for i := 0; i < n; i++ {
		tenant := s.rr[(s.rrNext+i)%n]
		q := s.queues[tenant]
		j := s.pickLocked(*q, worker)
		if j == nil {
			continue
		}
		s.rrNext = (s.rrNext + i + 1) % n
		heap.Remove(q, j.heapIdx)
		s.queued--
		s.metrics.queueDepth.With(tenant).Set(int64(q.Len()))
		return j
	}
	return nil
}

// pickLocked applies claimRemote's rules to one tenant's queue: among
// its jobs of the top priority level, the oldest on worker's scenario,
// else the oldest on a scenario no other worker holds, else the oldest.
// It returns nil if q is empty; s.mu must be held.
func (s *Scheduler) pickLocked(q jobQueue, worker string) *Job {
	if len(q) == 0 {
		return nil
	}
	top, mine := q[0].priority, s.warm[worker]
	var same, cold, next *Job
	older := func(j, than *Job) bool { return than == nil || j.seq < than.seq }
	for _, j := range q {
		if j.priority != top {
			continue
		}
		switch sc := s.scenarioLocked(j); {
		case sc != "" && sc == mine:
			if older(j, same) {
				same = j
			}
		case !s.heldElsewhereLocked(sc, worker):
			if older(j, cold) {
				cold = j
			}
		}
		if older(j, next) {
			next = j
		}
	}
	switch {
	case same != nil:
		return same
	case cold != nil:
		return cold
	}
	return next
}

// heldElsewhereLocked reports whether a worker other than worker has
// scenario sc as its latest lease's; s.mu must be held.
func (s *Scheduler) heldElsewhereLocked(sc, worker string) bool {
	if sc == "" {
		return false
	}
	for w, held := range s.warm {
		if w != worker && held == sc {
			return true
		}
	}
	return false
}

// requeue is the remote-only edge Running→Queued: the lease expired or
// its worker abandoned it, so the job goes back to its tenant's heap
// for another claimant (remote or local), its lease span closes with
// outcome "requeued" and its next queue span starts at the same
// instant. A job that is not leased (settled by a late completion,
// cancelled, or running locally) is left alone. A draining scheduler
// takes nothing back: the lease ends through finish as a drain
// cancellation instead.
func (s *Scheduler) requeue(j *Job) bool {
	s.mu.Lock()
	j.mu.Lock()
	if j.state != StateRunning || j.worker == "" {
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	if s.closed {
		s.mu.Unlock()
		s.finish(j, fmt.Errorf("engine: job %s requeued while draining: %w", j.ID, context.Canceled))
		return false
	}
	span, holder := attempt(j.worker)
	started, runSpan, now := j.started, j.runSpan, time.Now()
	j.state, j.queued = StateQueued, now
	j.worker, j.runSpan, j.started, j.cancel = "", "", time.Time{}, nil
	// The next attempt trains from round 1 again; its rounds count anew.
	j.round, j.rounds = 0, 0
	s.metrics.running.Dec()
	j.emitLocked()
	j.mu.Unlock()
	s.pushLocked(j, nil)
	s.mu.Unlock()
	s.recordSpanID(j, runSpan, j.rootSpan, span, started, now,
		map[string]string{"worker": holder, "outcome": "requeued"})
	s.log.Info("engine: leased job requeued", "trace", j.TraceID, "job", j.ID, "worker", holder)
	return true
}

// jobQueue is a priority heap: higher priority first, FIFO within a
// priority level. All heap operations run under the scheduler's mutex,
// which also guards priority writes, so reading priorities here is
// race-free.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }

func (q jobQueue) Less(i, k int) bool {
	if q[i].priority != q[k].priority {
		return q[i].priority > q[k].priority
	}
	return q[i].seq < q[k].seq
}

func (q jobQueue) Swap(i, k int) {
	q[i], q[k] = q[k], q[i]
	q[i].heapIdx = i
	q[k].heapIdx = k
}

func (q *jobQueue) Push(x any) {
	j := x.(*Job)
	j.heapIdx = len(*q)
	*q = append(*q, j)
}

func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*q = old[:n-1]
	return j
}
