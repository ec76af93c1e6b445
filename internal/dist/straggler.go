package dist

import (
	"sort"
	"sync"
)

// Straggler detection: the coordinator folds every round span a worker
// ships into a rolling per-worker window of round durations, and on
// each reaper tick compares workers against the fleet. A worker whose
// median round takes stragglerFactor× the fleet's median round is a
// straggler — the signature of the ROADMAP's deliberately injected
// churn, a thermally throttled node, or a node sharing its cores. The
// verdict drives the dist_worker_slow gauge, a slog warning on each
// transition, and the Slow flag in fleet/top views.

const (
	// stragglerWindow is how many recent round durations are kept per
	// worker. Small enough to react to a node going slow, large enough
	// to ride out one outlier round.
	stragglerWindow = 64
	// stragglerMinSamples gates the verdict: no worker is judged before
	// this many rounds, and no fleet median exists with fewer than two
	// judgeable workers (one node alone has nothing to straggle behind).
	stragglerMinSamples = 8
	// stragglerFactor is the slowdown that flags a worker: its round
	// p50 exceeds the fleet median of round p50s by this factor.
	stragglerFactor = 2.0
)

// rollingWindow is a fixed-size ring of float64 samples.
type rollingWindow struct {
	vals []float64
	next int
}

func newRollingWindow() *rollingWindow {
	return &rollingWindow{vals: make([]float64, 0, stragglerWindow)}
}

func (r *rollingWindow) add(v float64) {
	if len(r.vals) < stragglerWindow {
		r.vals = append(r.vals, v)
		return
	}
	r.vals[r.next] = v
	r.next = (r.next + 1) % stragglerWindow
}

// sorted returns a fresh ascending copy of the window.
func (r *rollingWindow) sorted() []float64 {
	out := append([]float64(nil), r.vals...)
	sort.Float64s(out)
	return out
}

// quantile reads q ∈ [0,1] from an ascending slice (lower-value method:
// the element at floor(q·(n-1)) — cheap, monotone, and exact at the
// sample points, which is all a straggler threshold needs).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// stragglerStats is the coordinator's rolling per-worker duration
// statistics, keyed by worker name (stable across re-registrations).
// All methods are safe for concurrent use.
type stragglerStats struct {
	mu     sync.Mutex
	rounds map[string]*rollingWindow // round-span durations, seconds
	slow   map[string]bool           // last evaluate() verdict
}

func newStragglerStats() *stragglerStats {
	return &stragglerStats{
		rounds: map[string]*rollingWindow{},
		slow:   map[string]bool{},
	}
}

func (s *stragglerStats) observeRound(worker string, sec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.rounds[worker]
	if !ok {
		w = newRollingWindow()
		s.rounds[worker] = w
	}
	w.add(sec)
}

// roundQuantiles returns the worker's rolling round-duration p50/p95
// and the number of samples behind them (0, 0, 0 when unseen).
func (s *stragglerStats) roundQuantiles(worker string) (p50, p95 float64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.rounds[worker]
	if !ok || len(w.vals) == 0 {
		return 0, 0, 0
	}
	sorted := w.sorted()
	return quantile(sorted, 0.50), quantile(sorted, 0.95), len(sorted)
}

// isSlow reports the worker's verdict from the last evaluate().
func (s *stragglerStats) isSlow(worker string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slow[worker]
}

// evaluate recomputes every worker's straggler verdict against the
// current fleet median and returns the full verdict map plus the
// transitions since the previous call (for logging exactly once per
// slowdown/recovery, not per tick).
func (s *stragglerStats) evaluate() (verdicts map[string]bool, became, recovered []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p50s := map[string]float64{}
	for name, w := range s.rounds {
		if len(w.vals) < stragglerMinSamples {
			continue
		}
		p50s[name] = quantile(w.sorted(), 0.50)
	}
	verdicts = map[string]bool{}
	if len(p50s) >= 2 {
		all := make([]float64, 0, len(p50s))
		for _, v := range p50s {
			all = append(all, v)
		}
		sort.Float64s(all)
		fleetMedian := quantile(all, 0.50)
		for name, p50 := range p50s {
			verdicts[name] = fleetMedian > 0 && p50 > stragglerFactor*fleetMedian
		}
	} else {
		for name := range p50s {
			verdicts[name] = false
		}
	}
	for name, isSlow := range verdicts {
		if isSlow && !s.slow[name] {
			became = append(became, name)
		}
		if !isSlow && s.slow[name] {
			recovered = append(recovered, name)
		}
	}
	s.slow = verdicts
	sort.Strings(became)
	sort.Strings(recovered)
	return verdicts, became, recovered
}
