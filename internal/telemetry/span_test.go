package telemetry

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func mkSpan(trace string, n int) Span {
	return Span{
		TraceID:     trace,
		SpanID:      fmt.Sprintf("s%06d", n),
		Name:        fmt.Sprintf("round-%d", n),
		Start:       time.Unix(0, int64(n)*int64(time.Millisecond)),
		DurationSec: 0.001,
	}
}

func TestTraceStoreAddDedup(t *testing.T) {
	ts := NewTraceStore(4, 8)
	sp := mkSpan("t1", 1)
	if !ts.Add(sp) {
		t.Fatalf("first Add returned false")
	}
	if ts.Add(sp) {
		t.Fatalf("duplicate Add returned true")
	}
	if got := len(ts.Trace("t1")); got != 1 {
		t.Fatalf("trace has %d spans, want 1", got)
	}
	// Unidentifiable spans are refused.
	if ts.Add(Span{TraceID: "t1"}) || ts.Add(Span{SpanID: "x"}) {
		t.Fatalf("span without trace or span ID accepted")
	}
}

func TestTraceStoreRingEviction(t *testing.T) {
	const maxSpans = 16
	ts := NewTraceStore(2, maxSpans)
	for i := 0; i < 3*maxSpans; i++ {
		ts.Add(mkSpan("t1", i))
	}
	got := ts.Trace("t1")
	if len(got) != maxSpans {
		t.Fatalf("trace holds %d spans, want %d", len(got), maxSpans)
	}
	// The ring keeps the newest window: spans 32..47.
	for _, sp := range got {
		var n int
		fmt.Sscanf(sp.SpanID, "s%d", &n)
		if n < 2*maxSpans {
			t.Fatalf("span %s survived eviction; want only the newest %d", sp.SpanID, maxSpans)
		}
	}
	// Evicted IDs were released from the dedup index, so they can be
	// re-added (a resend of an evicted span is a fresh span again).
	if !ts.Add(mkSpan("t1", 0)) {
		t.Fatalf("evicted span ID still deduped")
	}
}

func TestTraceStoreTraceEviction(t *testing.T) {
	ts := NewTraceStore(3, 8)
	for i := 0; i < 5; i++ {
		ts.Add(mkSpan(fmt.Sprintf("t%d", i), i))
	}
	if ts.Len() != 3 {
		t.Fatalf("store holds %d traces, want 3", ts.Len())
	}
	if ts.Trace("t0") != nil || ts.Trace("t1") != nil {
		t.Fatalf("oldest traces not evicted")
	}
	if ts.Trace("t4") == nil {
		t.Fatalf("newest trace evicted")
	}
}

// TestTraceStoreEvictsLeastRecentlyWritten: eviction goes by last
// write, not creation. A trace created first but written again after
// newer traces were created is still live (a long job shipping its
// rounds) and survives; the trace written longest ago goes instead.
func TestTraceStoreEvictsLeastRecentlyWritten(t *testing.T) {
	ts := NewTraceStore(3, 8)
	ts.Add(mkSpan("old", 0))
	ts.Add(mkSpan("t1", 1))
	ts.Add(mkSpan("t1", 2))
	ts.Add(mkSpan("t2", 3))
	ts.Add(mkSpan("t2", 4))
	ts.Add(mkSpan("old", 5))
	ts.Add(mkSpan("t3", 6))
	if got := len(ts.Trace("old")); got != 2 {
		t.Fatalf("old trace holds %d spans after eviction, want both", got)
	}
	if ts.Trace("t1") != nil {
		t.Fatal("least-recently-written trace t1 survived eviction")
	}
	// A resent span re-stamps its trace too: t2 outlives old now.
	ts.Add(mkSpan("t2", 3))
	ts.Add(mkSpan("t3", 7))
	ts.Add(mkSpan("t4", 8))
	if ts.Trace("t2") == nil || ts.Trace("old") != nil {
		t.Fatal("a resent span did not count as a write")
	}
	if ts.Len() != 3 {
		t.Fatalf("store holds %d traces, want 3", ts.Len())
	}
}

// TestTraceStoreEvictsEndedTracesFirst: a trace that holds its root
// span (its job ended) goes before any trace still without one,
// however long ago the live trace was last written — a queued job's
// trace is written once at submit and then not again until its queue
// wait ends. Among ended traces, and once every trace is live, equally
// written traces go least recently written first.
func TestTraceStoreEvictsEndedTracesFirst(t *testing.T) {
	child := func(trace string, n int) Span {
		sp := mkSpan(trace, n)
		sp.ParentID = "root"
		return sp
	}
	ts := NewTraceStore(3, 8)
	ts.Add(child("queued", 0))
	for i := 0; i < 5; i++ {
		ts.Add(mkSpan(fmt.Sprintf("hit-%d", i), 10+i))
	}
	if got := len(ts.Trace("queued")); got != 1 {
		t.Fatalf("queued trace holds %d spans after a burst of ended traces, want 1", got)
	}
	if ts.Trace("hit-2") != nil || ts.Trace("hit-3") == nil || ts.Trace("hit-4") == nil {
		t.Fatal("ended traces were not evicted least-recently-written first")
	}

	live := NewTraceStore(2, 8)
	live.Add(child("a", 0))
	live.Add(child("b", 1))
	live.Add(child("a", 2))
	live.Add(child("c", 3))
	if live.Trace("b") != nil || live.Trace("a") == nil {
		t.Fatal("with every trace live, the least-recently-written was not evicted")
	}
}

// TestTraceStoreEvictsColdTracesFirst: a trace written more often over
// the last heat epochs outlives less-written ones that were written
// after it, so a run of writes to other traces cannot flush a trace
// that is still being shipped to. Heat fades: two epochs of writes
// elsewhere leave it to recency again.
func TestTraceStoreEvictsColdTracesFirst(t *testing.T) {
	ts := NewTraceStore(3, 8)
	for i := 0; i < 3; i++ {
		ts.Add(mkSpan("busy", i))
	}
	ts.Add(mkSpan("a", 3))
	ts.Add(mkSpan("b", 4))
	ts.Add(mkSpan("c", 5))
	if ts.Trace("busy") == nil || ts.Trace("a") != nil {
		t.Fatal("a run of single writes after the busy trace's latest one flushed it")
	}
	// Resent spans count as writes: b turns hot, busy and c go cold.
	for i := 0; i < 2*heatEpoch; i++ {
		ts.Add(mkSpan("b", 4))
	}
	ts.Add(mkSpan("d", 6))
	if ts.Trace("busy") != nil || ts.Trace("b") == nil || ts.Trace("c") == nil {
		t.Fatal("a trace unwritten for two heat epochs outlived the eviction")
	}
}

// TestTraceStoreConcurrent hammers one bounded trace from parallel
// writers (with deliberate SpanID overlap between them) while readers
// iterate, asserting the bound holds and no span is double-counted.
// Run under -race this is the satellite's concurrency guarantee.
func TestTraceStoreConcurrent(t *testing.T) {
	const (
		writers  = 8
		perW     = 200
		maxSpans = 64
	)
	ts := NewTraceStore(4, maxSpans)
	var added atomic64Counter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Half the IDs collide across writers: every even span is
				// shipped by all writers, exercising the dedup path.
				n := i
				if i%2 == 1 {
					n = w*perW + i
				}
				if ts.Add(mkSpan("shared", n)) {
					added.inc()
				}
				ts.Add(mkSpan(fmt.Sprintf("side-%d", w), i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = ts.Trace("shared")
			_ = ts.Slowest(5)
		}
	}()
	wg.Wait()
	<-done

	got := ts.Trace("shared")
	if len(got) != maxSpans {
		t.Fatalf("shared trace holds %d spans, want ring bound %d", len(got), maxSpans)
	}
	seen := map[string]bool{}
	for _, sp := range got {
		if seen[sp.SpanID] {
			t.Fatalf("span %s appears twice in one trace", sp.SpanID)
		}
		seen[sp.SpanID] = true
	}
	// Spans come back sorted by start time.
	for i := 1; i < len(got); i++ {
		if got[i].Start.Before(got[i-1].Start) {
			t.Fatalf("spans not sorted by start at %d", i)
		}
	}
	if ts.Len() != 4 {
		t.Fatalf("store holds %d traces, want cap 4", ts.Len())
	}
}

// scanStore is the reference for the trace store's eviction: the victim
// rule as a linear scan over every retained trace. It keeps only what
// the rule reads, each trace's write order, heat and ended flag.
type scanStore struct {
	maxTraces int
	nextSeq   int64
	traces    map[string]*traceEntry
	// skips counts evictions whose victim was not the least recently
	// written trace of its class: heat chose it.
	skips int
}

// add records a write and returns the trace it evicted for it, or "".
func (s *scanStore) add(sp Span) (victim string) {
	e, ok := s.traces[sp.TraceID]
	if !ok {
		if len(s.traces) >= s.maxTraces {
			victim = s.evict()
		}
		e = &traceEntry{}
		s.traces[sp.TraceID] = e
	}
	s.nextSeq++
	e.touch(s.nextSeq)
	// A resent root span was new once, so it set the flag already.
	if sp.ParentID == "" {
		e.ended = true
	}
	return victim
}

func (s *scanStore) evict() string {
	epoch := s.nextSeq / heatEpoch
	var victim string
	var v *traceEntry
	vheat := 0
	for id, e := range s.traces {
		h := e.heatAt(epoch)
		if v == nil || (e.ended && !v.ended) ||
			(e.ended == v.ended && (h < vheat || h == vheat && e.seq < v.seq)) {
			victim, v, vheat = id, e, h
		}
	}
	for _, e := range s.traces {
		if e.ended == v.ended && e.seq < v.seq {
			s.skips++
			break
		}
	}
	delete(s.traces, victim)
	return victim
}

// TestTraceStoreEvictionMatchesLinearScan drives a TraceStore and the
// linear-scan reference with one seeded random mix of writes — new
// traces born ended or live, resent spans, root spans that end live
// traces, and bursts from a few hot writers that change every couple of
// heat epochs — and requires both to retain the same traces after every
// Add. The walk over the recency lists must pick exactly the victim the
// scan picks. Both start empty and evict on the same Adds, so the sets
// stay equal exactly when the store no longer holds the reference's
// victim; the whole sets are compared once per heat epoch besides.
func TestTraceStoreEvictionMatchesLinearScan(t *testing.T) {
	for _, maxTraces := range []int{4, 512} {
		t.Run(fmt.Sprint("maxTraces=", maxTraces), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(maxTraces)))
			ts := NewTraceStore(maxTraces, 8)
			ref := &scanStore{maxTraces: maxTraces, traces: map[string]*traceEntry{}}
			var ids []string // every trace created, newest last
			hot := make([]string, 3)
			span, gen := 0, -1
			add := func(sp Span) {
				span++
				ts.Add(sp)
				victim := ref.add(sp)
				if len(ts.traces) != len(ref.traces) {
					t.Fatalf("after %d adds: store holds %d traces, reference %d", span, len(ts.traces), len(ref.traces))
				}
				if victim != "" && ts.traces[victim] != nil {
					t.Fatalf("after %d adds: the reference evicted %s, the store another trace", span, victim)
				}
				if span%heatEpoch != 0 {
					return
				}
				for id := range ref.traces {
					if ts.traces[id] == nil {
						t.Fatalf("after %d adds: store evicted %s, which the reference keeps", span, id)
					}
				}
			}
			// recent picks a trace created lately, possibly evicted since
			// (a write to it then creates it again).
			recent := func() string {
				return ids[len(ids)-1-rng.Intn(min(len(ids), 2*maxTraces))]
			}
			child := func(trace, id string) Span {
				return Span{TraceID: trace, SpanID: id, ParentID: "root"}
			}
			for span < 40*heatEpoch {
				if g := span / (2 * heatEpoch); g != gen {
					gen = g
					for i := range hot {
						hot[i] = fmt.Sprintf("hot-%d-%d", gen, i)
					}
				}
				switch r := rng.Intn(100); {
				case r < 30 || len(ids) == 0:
					id := fmt.Sprintf("t%d", len(ids))
					ids = append(ids, id)
					if rng.Intn(2) == 0 {
						add(Span{TraceID: id, SpanID: "root"}) // a cache hit: born ended
					} else {
						add(child(id, "submit"))
					}
				case r < 50:
					add(child(recent(), "submit")) // a resend
				case r < 60:
					add(Span{TraceID: recent(), SpanID: "root"}) // the job ends
				case r < 85:
					trace := hot[rng.Intn(len(hot))]
					for n := 1 + rng.Intn(8); n > 0; n-- {
						add(child(trace, fmt.Sprint("s", span)))
					}
				default:
					add(child(recent(), fmt.Sprint("s", span)))
				}
			}
			if ref.skips == 0 {
				t.Fatal("no eviction passed over the least recently written trace: heat was never exercised")
			}
			n := 0
			for _, l := range []traceList{ts.ended, ts.live} {
				for e := l.head; e != nil; e = e.newer {
					n++
				}
			}
			if n != len(ts.traces) {
				t.Fatalf("recency lists hold %d traces, the index %d", n, len(ts.traces))
			}
			t.Logf("%d adds, %d heat-chosen evictions", span, ref.skips)
		})
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *TraceStore
	if ts.Add(mkSpan("t", 0)) {
		t.Fatalf("nil store accepted a span")
	}
	if ts.Trace("t") != nil || ts.Slowest(3) != nil || ts.Len() != 0 {
		t.Fatalf("nil store reads not empty")
	}
}

func TestSlowestSkipsRootSpans(t *testing.T) {
	ts := NewTraceStore(4, 8)
	ts.Add(Span{TraceID: "t", SpanID: "root", Name: "job", DurationSec: 100})
	ts.Add(Span{TraceID: "t", SpanID: "a", Name: "run", DurationSec: 5})
	ts.Add(Span{TraceID: "t", SpanID: "b", Name: "queue", DurationSec: 9})
	got := ts.Slowest(2)
	if len(got) != 2 || got[0].SpanID != "b" || got[1].SpanID != "a" {
		t.Fatalf("Slowest = %+v, want queue then run", got)
	}
}

func TestNewSpanID(t *testing.T) {
	a, b := NewSpanID(), NewSpanID()
	if len(a) != 8 || a == b {
		t.Fatalf("NewSpanID gave %q, %q", a, b)
	}
}

// atomic64Counter is a tiny test helper (avoids importing sync/atomic in
// a way that shadows the package under test).
type atomic64Counter struct {
	mu sync.Mutex
	n  int
}

func (c *atomic64Counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
