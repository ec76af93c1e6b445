package telemetry

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkTelemetryOverhead is tracked in the per-SHA BENCH artifact:
// it prices the instrumentation a single scheduler dequeue + store
// lookup + round tick pays (two counters, a gauge swing, and a
// histogram observation), so a regression in instrument cost shows up
// in CI next to the kernel numbers it would otherwise silently tax.
func BenchmarkTelemetryOverhead(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_ops_total", "")
	hits := r.Counter("bench_hits_total", "")
	g := r.Gauge("bench_depth", "")
	h := r.Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		hits.Inc()
		g.Inc()
		h.Observe(0.0042)
		g.Dec()
	}
}

// BenchmarkTelemetryObserveParallel prices contended observation — many
// worker goroutines hammering one histogram, the worst case of the
// CAS-looped sum.
func BenchmarkTelemetryObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_par_seconds", "", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.1)
		}
	})
}

// BenchmarkTelemetryExposition prices one /metrics scrape over a
// realistically sized registry (a few dozen families).
func BenchmarkTelemetryExposition(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		r.Counter("bench_exp_"+name+"_total", "help").Add(7)
		hv := r.HistogramVec("bench_exp_"+name+"_seconds", "help", nil, "method")
		for _, m := range []string{"FedSR", "FedGMA", "FPL", "FedDG-GA", "CCST", "PARDON"} {
			hv.With(m).Observe(0.3)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceStoreAddFull prices starting a new trace — one cache
// hit's root span — against a store with room ("empty": it is emptied
// every 256 adds, so it never fills) and against one already holding
// DefaultMaxTraces ended traces ("full": every add evicts one). Eviction
// walks a recency list from its least recently written trace, so the
// two should cost about the same.
func BenchmarkTraceStoreAddFull(b *testing.B) {
	root := func(i int) Span { return Span{TraceID: fmt.Sprint("t", i), SpanID: "root", Name: "job"} }
	b.Run("store=empty", func(b *testing.B) {
		ts := NewTraceStore(0, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%256 == 0 {
				b.StopTimer()
				ts = NewTraceStore(0, 0)
				b.StartTimer()
			}
			ts.Add(root(i))
		}
	})
	b.Run("store=full", func(b *testing.B) {
		ts := NewTraceStore(0, 0)
		for i := 0; i < DefaultMaxTraces; i++ {
			ts.Add(root(-1 - i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts.Add(root(i))
		}
	})
}
