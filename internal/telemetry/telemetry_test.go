package telemetry

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestCounterVecTotal(t *testing.T) {
	v := NewRegistry().CounterVec("test_jobs_total", "jobs", "tenant")
	if got := v.Total(); got != 0 {
		t.Fatalf("empty total = %d, want 0", got)
	}
	v.With("alice").Add(2)
	v.With("bob").Inc()
	if got := v.Total(); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "")
	b := r.Counter("test_total", "")
	if a != b {
		t.Fatal("re-registering a counter returned a different instance")
	}
	v1 := r.CounterVec("test_vec_total", "", "method")
	v2 := r.CounterVec("test_vec_total", "", "method")
	if v1.With("PARDON") != v2.With("PARDON") {
		t.Fatal("re-registering a vec returned a different series")
	}
	if v1.With("PARDON") == v1.With("FedSR") {
		t.Fatal("distinct label values share a series")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind did not panic")
		}
	}()
	r.Gauge("test_total", "")
}

// TestHotPathIsZeroAlloc is the allocation guard of the tentpole: the
// instruments sit inside training and scheduling hot loops that PR 2/3
// made allocation-free, and must not regress them.
func TestHotPathIsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_counter_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_hist_seconds", "", nil)
	hv := r.HistogramVec("alloc_histvec_seconds", "", nil, "method").With("PARDON")

	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Errorf("Counter.Inc/Add allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(4); g.Add(-1); g.Inc(); g.Dec() }); n != 0 {
		t.Errorf("Gauge ops allocate %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.033) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op, want 0", n)
	}
	// A resolved vec handle is as free as an unlabeled instrument.
	if n := testing.AllocsPerRun(1000, func() { hv.Observe(1.5) }); n != 0 {
		t.Errorf("HistogramVec series Observe allocates %.1f per op, want 0", n)
	}
}

// TestHistogramBucketBoundaries is the bucket property test: for random
// bucket ladders and random observations (including values exactly on
// the bounds), the histogram's buckets must match a reference count
// under Prometheus `le` semantics — v lands in the first bucket with
// bound >= v — and sum/count must match exactly.
func TestHistogramBucketBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nb := 1 + rng.Intn(10)
		bounds := make([]float64, 0, nb)
		x := rng.Float64()
		for i := 0; i < nb; i++ {
			bounds = append(bounds, x)
			x += 0.01 + rng.Float64()
		}
		r := NewRegistry()
		h := r.Histogram("prop_seconds", "", bounds)

		ref := make([]int64, nb+1)
		var sum float64
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(3) {
			case 0: // exactly on a bound — the boundary case under test
				v = bounds[rng.Intn(nb)]
			case 1: // beyond the last bound → +Inf bucket
				v = bounds[nb-1] + rng.Float64()
			default:
				v = rng.Float64() * (bounds[nb-1] + 1)
			}
			h.Observe(v)
			sum += v
			idx := 0
			for idx < nb && v > bounds[idx] {
				idx++
			}
			ref[idx]++
		}

		got := h.BucketCounts()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: bucket %d = %d, want %d (bounds %v)", trial, i, got[i], ref[i], bounds)
			}
		}
		if h.Count() != int64(n) {
			t.Fatalf("trial %d: count = %d, want %d", trial, h.Count(), n)
		}
		if math.Abs(h.Sum()-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
			t.Fatalf("trial %d: sum = %g, want %g", trial, h.Sum(), sum)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs").Add(3)
	r.GaugeVec("queue_depth", "depth", "pool").With("main").Set(2)
	h := r.Histogram("wait_seconds", "wait", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	cv := r.CounterVec("http_requests_total", "", "route", "code")
	cv.With("/v1/jobs", "200").Inc()
	cv.With("/v1/jobs", "404").Add(2)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		`queue_depth{pool="main"} 2`,
		"# TYPE wait_seconds histogram",
		`wait_seconds_bucket{le="0.1"} 1`,
		`wait_seconds_bucket{le="1"} 2`,
		`wait_seconds_bucket{le="+Inf"} 3`,
		"wait_seconds_sum 5.55",
		"wait_seconds_count 3",
		`http_requests_total{route="/v1/jobs",code="200"} 1`,
		`http_requests_total{route="/v1/jobs",code="404"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("handler content-type = %q", ct)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "k").With(`a"b\c` + "\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{k="a\"b\\c\nd"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaped series missing; got\n%s", sb.String())
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("two minted trace IDs collide: %s", a)
	}
	if !ValidTraceID(a) {
		t.Fatalf("minted ID %q fails its own validation", a)
	}
	for _, bad := range []string{"", strings.Repeat("x", 101), "has space", "semi;colon", "new\nline", `quo"te`} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
		if got := OrNewTraceID(bad); got == bad || !ValidTraceID(got) {
			t.Errorf("OrNewTraceID(%q) = %q, want a fresh valid ID", bad, got)
		}
	}
	if got := OrNewTraceID("client-supplied.id_1"); got != "client-supplied.id_1" {
		t.Errorf("OrNewTraceID dropped a valid ID: %q", got)
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" || b.Version == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Errorf("String() = %q missing go version", s)
	}
}
