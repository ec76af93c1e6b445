package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Its layer is the name's first dot-separated element.
type span struct {
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Op     string            `json:"op,omitempty"` // run or request ID, see window
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Status int               `json:"status,omitempty"`
	Bytes  int64             `json:"bytes,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: every method is a no-op, so the measured code paths are
// the same with tracing on or off apart from the recording itself.
type tracer struct {
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() string {
	if t == nil {
		return ""
	}
	return "s" + strconv.FormatInt(t.seq.Add(1), 10)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// parentOf returns the span ID ctx carries ("" when none).
func parentOf(ctx context.Context) string {
	id, _ := ctx.Value(spanKey{}).(string)
	return id
}

// openSpan is a span whose end is not known yet.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span under the one ctx carries and returns a context
// that parents further spans under it.
func (t *tracer) begin(ctx context.Context, name, op string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	s := span{ID: t.newID(), Parent: parentOf(ctx), Name: name, Op: op, Start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s.ID), &openSpan{t: t, s: s}
}

// end records the span, with optional key/value attribute pairs.
func (o *openSpan) end(kv ...string) {
	if o == nil {
		return
	}
	o.s.End = time.Now()
	if len(kv) > 0 {
		o.s.Attrs = map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			o.s.Attrs[kv[i]] = kv[i+1]
		}
	}
	o.t.record(o.s)
}

// spanHeader carries the client-side span ID to the server-side handler
// wrapper, so handler spans nest under the round trip that caused them.
const spanHeader = "X-Benchrun-Span"

// route names an API request for span names and per-route statistics,
// along with the layer that serves it.
func route(method, path string) (layer, name string) {
	p := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(p) >= 2 && p[1] == "store":
		if len(p) == 4 {
			return "dist", "peer_model"
		}
		return "dist", "peer_fetch"
	case len(p) >= 2 && p[1] == "workers":
		switch {
		case len(p) == 2 && method == http.MethodPost:
			return "dist", "register"
		case len(p) == 2:
			return "dist", "fleet"
		case len(p) == 4:
			return "dist", p[3] // lease, heartbeat
		case len(p) == 6 && p[5] == "model":
			return "dist", "upload"
		case len(p) == 6:
			return "dist", p[5] // complete
		}
	case len(p) >= 2 && (p[1] == "jobs" || p[1] == "sweeps"):
		prefix := ""
		if p[1] == "sweeps" {
			prefix = "sweep_"
		}
		switch {
		case len(p) == 2 && method == http.MethodPost:
			return "engine", prefix + "submit"
		case len(p) == 2:
			return "engine", prefix + "list"
		case len(p) == 3:
			return "engine", prefix + "status"
		default:
			return "engine", prefix + p[3] // events, result, model, cancel
		}
	}
	return "engine", "other"
}

// transport wraps the SDK's HTTP transport: each round trip becomes a
// span named <layer>.<route> that lasts until the response body is
// closed, so streamed bodies (SSE) count in full.
type transport struct {
	base  http.RoundTripper
	t     *tracer
	layer string
}

func (t *tracer) transport(base http.RoundTripper, layer string) http.RoundTripper {
	if t == nil {
		return base
	}
	return &transport{base: base, t: t, layer: layer}
}

func (tp *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, name := route(req.Method, req.URL.Path)
	s := span{ID: tp.t.newID(), Parent: parentOf(req.Context()), Name: tp.layer + "." + name,
		Bytes: req.ContentLength, Start: time.Now()}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, s.ID)
	resp, err := tp.base.RoundTrip(out)
	if err != nil {
		s.End = time.Now()
		tp.t.record(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = time.Now()
		tp.t.record(s)
	}}
	return resp, nil
}

// spanBody ends its round trip's span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handler wraps a server: each request becomes a span named
// <layer>.handler.<route>, parented under the client span that sent it.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		layer, name := route(r.Method, r.URL.Path)
		t.record(span{ID: t.newID(), Parent: r.Header.Get(spanHeader), Name: layer + ".handler." + name,
			Start: start, End: time.Now()})
	})
}

// algorithm wraps the fl.Algorithm the benchmark hands to fl.Run, timing
// the one-time setup, every client's local training and every
// aggregation under the run's span.
type algorithm struct {
	fl.Algorithm
	t      *tracer
	parent string
}

func (a *algorithm) timed(name string, start time.Time, round int) {
	s := span{ID: a.t.newID(), Parent: a.parent, Name: name, Start: start, End: time.Now()}
	if round >= 0 {
		s.Attrs = map[string]string{"round": strconv.Itoa(round)}
	}
	a.t.record(s)
}

func (a *algorithm) Setup(env *fl.Env, clients []*fl.Client) error {
	start := time.Now()
	err := a.Algorithm.Setup(env, clients)
	a.timed("fl.setup", start, -1)
	return err
}

func (a *algorithm) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	start := time.Now()
	m, err := a.Algorithm.LocalTrain(env, c, global, round)
	a.timed("fl.local_train", start, round)
	return m, err
}

func (a *algorithm) Aggregate(env *fl.Env, global *nn.Model, parts []*fl.Client, updates []*nn.Model, round int) (*nn.Model, error) {
	start := time.Now()
	m, err := a.Algorithm.Aggregate(env, global, parts, updates, round)
	a.timed("fl.aggregate", start, round)
	return m, err
}

// engineSpanName maps a lifecycle span the engine already records in its
// trace store onto a benchmark span name; ok is false for spans not
// imported. The serving engine's root "job" span repeats its children,
// and a worker's "upload" span repeats the upload round trip the
// worker's transport records. Spans a fleet worker recorded on its own
// engine carry a "worker_" prefix so they stay apart from the
// coordinator's view of the same job.
func engineSpanName(es telemetry.Span) (name string, ok bool) {
	switch {
	case strings.HasPrefix(es.Name, "round-"):
		return "fl.round", true
	case es.Name == "lease":
		return "dist.lease_held", true
	case es.Name == "tier-lookup":
		return "dist.tier_lookup", true
	}
	base, ok := map[string]string{"submit": "admit", "queue": "queue", "run": "run",
		"checkpoint": "checkpoint", "persist": "persist", "job": "job"}[es.Name]
	switch {
	case !ok:
		return "", false
	case es.Source != "":
		return "engine.worker_" + base, true
	case base == "job":
		return "", false
	}
	return "engine." + base, true
}

// importEngineSpans copies one engine trace into the tracer. The
// trace's top-level spans are parented under the candidate span
// (server-side handler spans of the same operation) they overlap most,
// else under fallback; nested spans keep their engine parents.
func (t *tracer) importEngineSpans(spans []telemetry.Span, candidates []span, fallback string) {
	if t == nil {
		return
	}
	roots := map[string]bool{}
	for _, es := range spans {
		if es.Name == "job" && es.Source == "" {
			roots[es.SpanID] = true
		}
	}
	for _, es := range spans {
		name, ok := engineSpanName(es)
		if !ok {
			continue
		}
		s := span{ID: "e" + es.SpanID, Name: name, Start: es.Start, End: es.End()}
		if es.ParentID != "" && !roots[es.ParentID] {
			s.Parent = "e" + es.ParentID
		} else {
			s.Parent = fallback
			var best time.Duration
			for _, c := range candidates {
				if ov := unionLen([][2]time.Time{{s.Start, s.End}}, c.Start, c.End); ov > best {
					s.Parent, best = c.ID, ov
				}
			}
		}
		t.record(s)
	}
}

// window restricts spans to one measured phase: spans that start outside
// [root.Start, root.End] are dropped (set-up traffic, post-run checks)
// and spans whose parent was dropped or never recorded re-parent under
// the root. Every span then gets the run or request ID it serves: a span
// without one inherits its parent's, and a top-level span without one
// (an api-cached request, a worker's heartbeat) is its own.
func window(spans []span, root span) []span {
	kept := append(make([]span, 0, len(spans)+1), root)
	at := map[string]int{}
	for _, s := range spans {
		if s.ID == root.ID || s.Start.Before(root.Start) || s.Start.After(root.End) {
			continue
		}
		at[s.ID] = len(kept)
		kept = append(kept, s)
	}
	for i := range kept[1:] {
		if _, ok := at[kept[i+1].Parent]; !ok {
			kept[i+1].Parent = root.ID
		}
	}
	var opOf func(i int) string
	opOf = func(i int) string {
		s := &kept[i]
		if s.Op == "" {
			if p, ok := at[s.Parent]; ok {
				s.Op = opOf(p)
			} else {
				s.Op = s.ID
			}
		}
		return s.Op
	}
	for i := range kept[1:] {
		opOf(i + 1)
	}
	return kept
}

// unionLen is the length of the union of intervals clipped to [lo, hi].
func unionLen(iv [][2]time.Time, lo, hi time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, x := range iv {
		s, e := x[0], x[1]
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if !e.After(s) {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s.After(curE):
			total += curE.Sub(curS)
			curS, curE = s, e
		case e.After(curE):
			curE = e
		}
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[string][][2]time.Time{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], [2]time.Time{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return out
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50Ms  float64 `json:"p50_ms"`
}

// traceSummary is the per-layer attribution of one traced run.
type traceSummary struct {
	Workload string  `json:"workload"`
	WallS    float64 `json:"wall_s"`
	// Coverage is the share of the measured wall-clock during which at
	// least one named span below the root was open.
	Coverage float64 `json:"coverage"`
	// SelfS and Share sum self time per layer; with concurrent clients
	// the layers' self times add up to more than the wall-clock, so
	// Share is each layer's part of the summed self time.
	SelfS map[string]float64  `json:"self_s"`
	Share map[string]float64  `json:"share"`
	Names map[string]nameStat `json:"names"`
	Spans int                 `json:"spans"`
}

// summarizeTrace attributes the windowed spans to layers.
func summarizeTrace(workload string, spans []span, root span) traceSummary {
	self := selfTimes(spans)
	sum := traceSummary{Workload: workload, WallS: root.dur().Seconds(), SelfS: map[string]float64{},
		Share: map[string]float64{}, Names: map[string]nameStat{}, Spans: len(spans)}
	if root.dur() > 0 {
		sum.Coverage = 1 - self[root.ID].Seconds()/root.dur().Seconds()
	}
	durs := map[string][]float64{}
	total := 0.0
	for _, s := range spans {
		sec := self[s.ID].Seconds()
		sum.SelfS[s.layer()] += sec
		total += sec
		ns := sum.Names[s.Name]
		ns.Count++
		ns.TotalS += s.dur().Seconds()
		ns.SelfS += sec
		sum.Names[s.Name] = ns
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
	}
	for name, ns := range sum.Names {
		ns.P50Ms = summarize(durs[name], 50).P50
		sum.Names[name] = ns
	}
	for layer, sec := range sum.SelfS {
		if total > 0 {
			sum.Share[layer] = sec / total
		}
	}
	return sum
}

// maxWrittenSpans caps a spans file: api-cached records two spans per
// request, over half a million in a run. The summary covers every span;
// the file keeps the root and the earliest recorded rest.
const maxWrittenSpans = 100000

// writeTrace writes a traced run's spans and summary under dir.
func writeTrace(dir, workload string, spans []span, sum traceSummary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans = spans[:min(len(spans), maxWrittenSpans)]
	for name, v := range map[string]any{workload + ".spans.json": spans, workload + ".summary.json": sum} {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(dir+"/"+name, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
	}
	return nil
}
