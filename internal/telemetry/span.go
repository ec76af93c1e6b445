package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans extend the flat trace IDs of PR 6 into timelines: each lifecycle
// edge a job crosses (submit, queue wait, lease grant, tier lookup,
// per-round training, checkpoint persist/upload) records one Span, and
// the TraceStore groups them per trace so GET /v1/traces/{id} can render
// where a job's wall-clock went. The store is deliberately dumb — no
// sampling, no export pipeline — because its one consumer is the
// coordinator process itself; boundedness (spans per trace, traces per
// store) is the whole contract.

// spanCounter disambiguates span IDs when the random source fails.
var spanCounter atomic.Int64

// NewSpanID mints an 8-hex-character span ID. Span IDs need only be
// unique within one trace; 32 random bits over a few hundred spans makes
// a collision (which would silently drop the later span via the store's
// dedup) vanishingly unlikely.
func NewSpanID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("span-%d", spanCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Span is one timed operation within a trace. Spans form a tree via
// ParentID; the root span of a trace has ParentID "". Spans are plain
// values — they ship over the fleet wire (heartbeat/complete payloads)
// as JSON and merge into the coordinator's store by SpanID, so a span,
// once recorded, is immutable.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// ParentID nests this span under another span of the same trace; ""
	// marks a root. A parent may arrive after its children (worker spans
	// ship incrementally on heartbeats; the enclosing span only exists
	// once the operation ends) — consumers must tolerate orphans.
	ParentID string `json:"parent_id,omitempty"`
	// Name is the operation: "job", "queue", "run", "lease", "round-N",
	// "tier-lookup", "persist", "checkpoint", "upload".
	Name string `json:"name"`
	// Source is the node that recorded the span: "" for the serving
	// engine (rendered as "coordinator" on the wire), "worker:<name>"
	// for spans shipped by a fleet worker.
	Source string    `json:"source,omitempty"`
	Start  time.Time `json:"start"`
	// DurationSec is the span's wall-clock length. Instant events record 0.
	DurationSec float64 `json:"duration_sec"`
	// Attrs carries bounded key/value detail (outcome, worker, tier,
	// round). Never IDs with unbounded cardinality beyond the trace's own.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// End returns the span's end time.
func (s Span) End() time.Time {
	return s.Start.Add(time.Duration(s.DurationSec * float64(time.Second)))
}

// Defaults for NewTraceStore; exported so servers and tests agree on the
// bounds they assert against.
const (
	// DefaultMaxTraces bounds distinct traces retained; beyond it one
	// trace is evicted whole (see evictLocked).
	DefaultMaxTraces = 512
	// DefaultMaxSpans bounds spans per trace; beyond it the earliest-
	// recorded span is overwritten ring-style, keeping the newest window
	// (a 10k-round run keeps its recent rounds plus whatever structural
	// spans were recorded late, e.g. the terminal "job" root).
	DefaultMaxSpans = 512
)

// heatEpoch is the length, in writes to a store, of the epochs a
// trace's heat is counted over: its writes in the epoch of its latest
// write and in the one before. Two epochs hold 2·heatEpoch writes, so
// at most heatEpoch traces are written twice within them: on a default
// store, traces hotter than a single write fill at most half of it.
const heatEpoch = 256

// traceEntry is one trace's bounded span ring plus its dedup index.
type traceEntry struct {
	id    string
	spans []Span          // ring buffer, appended until maxSpans then overwritten
	next  int             // overwrite cursor once len(spans) == maxSpans
	ids   map[string]bool // SpanIDs currently held (dedup for at-least-once shipping)
	seq   int64           // order of the latest write, for whole-trace eviction
	heat  [2]int          // writes in the epoch of seq, and in the epoch before
	ended bool            // a root span (ParentID "") was written: the job is over

	older, newer *traceEntry // neighbours in the store's recency list of its class
}

// traceList is an intrusive recency list: the traces of one class
// (ended or live) in the order of their latest write, least recently
// written at head. Every write moves its trace to the tail, so seq
// ascends from head to tail.
type traceList struct{ head, tail *traceEntry }

func (l *traceList) remove(e *traceEntry) {
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		l.head = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		l.tail = e.older
	}
	e.older, e.newer = nil, nil
}

func (l *traceList) pushBack(e *traceEntry) {
	e.older = l.tail
	if l.tail != nil {
		l.tail.newer = e
	} else {
		l.head = e
	}
	l.tail = e
}

// touch records a write to the trace as the store's seq-th.
func (e *traceEntry) touch(seq int64) {
	switch seq/heatEpoch - e.seq/heatEpoch {
	case 0:
		e.heat[0]++
	case 1:
		e.heat = [2]int{1, e.heat[0]}
	default:
		e.heat = [2]int{1, 0}
	}
	e.seq = seq
}

// heatAt is the trace's write count over the given epoch and the one
// before it.
func (e *traceEntry) heatAt(epoch int64) int {
	switch epoch - e.seq/heatEpoch {
	case 0:
		return e.heat[0] + e.heat[1]
	case 1:
		return e.heat[0]
	}
	return 0
}

// TraceStore holds recent traces' spans, bounded in both dimensions.
// Add dedups by SpanID, which makes shipping idempotent: a worker can
// resend its span snapshot on every heartbeat and the merged trace stays
// exact. All methods are safe for concurrent use and nil-safe, so an
// engine wired without tracing costs nothing.
type TraceStore struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	nextSeq   int64
	traces    map[string]*traceEntry
	ended     traceList // traces that hold their root span
	live      traceList // every other trace
}

// listOf returns the recency list of e's class; t.mu must be held.
func (t *TraceStore) listOf(e *traceEntry) *traceList {
	if e.ended {
		return &t.ended
	}
	return &t.live
}

// NewTraceStore returns a store bounded to maxTraces traces of maxSpans
// spans each; zero or negative bounds adopt the defaults.
func NewTraceStore(maxTraces, maxSpans int) *TraceStore {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &TraceStore{maxTraces: maxTraces, maxSpans: maxSpans, traces: map[string]*traceEntry{}}
}

// Add records a span, returning true if it was new and false if a span
// with the same SpanID already exists in its trace (or the span is
// unidentifiable). Duplicate delivery is the common case — workers ship
// at-least-once — so callers that derive statistics from spans must gate
// on the return value.
func (t *TraceStore) Add(sp Span) bool {
	if t == nil || sp.TraceID == "" || sp.SpanID == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.traces[sp.TraceID]
	if !ok {
		if len(t.traces) >= t.maxTraces {
			t.evictLocked()
		}
		e = &traceEntry{id: sp.TraceID, ids: map[string]bool{}}
		t.traces[sp.TraceID] = e
	} else {
		t.listOf(e).remove(e)
	}
	// Every write counts, a resent span included: it means the trace's
	// job is still shipping.
	t.nextSeq++
	e.touch(t.nextSeq)
	added := !e.ids[sp.SpanID]
	if added {
		if len(e.spans) < t.maxSpans {
			e.spans = append(e.spans, sp)
		} else {
			delete(e.ids, e.spans[e.next].SpanID)
			e.spans[e.next] = sp
			e.next = (e.next + 1) % t.maxSpans
		}
		e.ids[sp.SpanID] = true
		if sp.ParentID == "" {
			e.ended = true
		}
	}
	t.listOf(e).pushBack(e)
	return added
}

// evictLocked drops one trace: among those that hold their root span
// if any do, else among all, the coldest (fewest writes over the
// current and previous heat epoch), least recently written first.
//
// The root (the "job" span) is written when a job ends, so a job still
// queued or running — whose trace may go unwritten through a long
// queue wait — outlives every ended trace. Heat keeps a trace that many
// writers are still shipping to from being flushed by a run of writes
// to other traces that happens to land after its latest write: each of
// those traces would have to be written as often as it within the last
// one to two epochs. Heat fades within two epochs, so a trace nobody
// writes any more is evicted by recency like the rest. t.mu must be
// held.
//
// The victim is found by walking its class's recency list from the
// least recently written trace, stopping at the first whose heat is at
// most 1. That is exact: heat is 0 exactly when seq/heatEpoch is at
// most epoch−2, so the zero-heat traces form a prefix of the list, and
// any other trace has heat at least 1. So the first trace of heat ≤ 1
// is the coldest, and the least recently written of the coldest. The
// walk stops at the head whenever the least recently written trace is
// cold, and is never longer than a scan of every trace.
func (t *TraceStore) evictLocked() {
	l := &t.live
	if t.ended.head != nil {
		l = &t.ended
	}
	epoch := t.nextSeq / heatEpoch
	v, vheat := l.head, l.head.heatAt(epoch)
	for e := l.head.newer; vheat > 1 && e != nil; e = e.newer {
		if h := e.heatAt(epoch); h < vheat {
			v, vheat = e, h
		}
	}
	l.remove(v)
	delete(t.traces, v.id)
}

// Trace returns the trace's spans sorted by start time (SpanID breaks
// ties, so output is deterministic). The slice is fresh; nil means the
// trace is unknown (or was evicted).
func (t *TraceStore) Trace(id string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	e, ok := t.traces[id]
	if !ok {
		t.mu.Unlock()
		return nil
	}
	out := append([]Span(nil), e.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Start.Equal(out[k].Start) {
			return out[i].Start.Before(out[k].Start)
		}
		return out[i].SpanID < out[k].SpanID
	})
	return out
}

// Len returns the number of retained traces.
func (t *TraceStore) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Slowest returns up to n spans with the largest durations across all
// retained traces, longest first — the "slowest spans" panel of the
// fleet dashboard. Root "job" spans are skipped (they always dominate
// and say nothing about where the time went).
func (t *TraceStore) Slowest(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	var all []Span
	for _, e := range t.traces {
		for _, sp := range e.spans {
			if sp.Name == "job" {
				continue
			}
			all = append(all, sp)
		}
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, k int) bool {
		if all[i].DurationSec != all[k].DurationSec {
			return all[i].DurationSec > all[k].DurationSec
		}
		return all[i].SpanID < all[k].SpanID
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
