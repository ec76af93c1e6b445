package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{0, 5, 19, 20, 39, 40, 99, 100, 199, 200, 999, 1000, 250000} {
		p, ok := tailPercentile(n, 99)
		if !ok {
			if beyond(n, 50) >= minBeyond {
				t.Errorf("n=%d: no tail reported, but the median has %d samples beyond", n, beyond(n, 50))
			}
			continue
		}
		if got := beyond(n, p); got < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond, want >= %d", n, p, got, minBeyond)
		}
		for _, higher := range tailLevels {
			if higher > p && beyond(n, higher) >= minBeyond {
				t.Errorf("n=%d: reported p%v but p%v also has %d samples beyond", n, p, higher, beyond(n, higher))
			}
		}
	}
	if p, _ := tailPercentile(250000, 95); p != 95 {
		t.Errorf("cap 95 with 250000 samples: got p%v", p)
	}
	s := summarize([]float64{5, 1, 4, 2, 3}, 99)
	if s.P50 != 3 || s.TailP != 0 || s.N != 5 {
		t.Errorf("summary of 5 samples = %+v, want median 3 and no tail", s)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, m, q3 := quartiles(tc.in)
		if got := [3]float64{q1, m, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestGeneratorsAreSeededAndDistinct(t *testing.T) {
	if !reflect.DeepEqual(gridBlock(fullSize, 7, 3), gridBlock(fullSize, 7, 3)) {
		t.Fatal("gridBlock is not deterministic")
	}
	if reflect.DeepEqual(gridBlock(fullSize, 7, 3), gridBlock(fullSize, 8, 3)) {
		t.Fatal("gridBlock ignores the seed")
	}
	a, hashes, err := freshSpecs(fullSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := freshSpecs(fullSize, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("freshSpecs is not deterministic")
	}
	seen := map[string]bool{}
	for i, sp := range a {
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] || h != hashes[i] {
			t.Fatalf("api-fresh pool Spec %d: content-address %.12s repeated or misreported", i, h)
		}
		seen[h] = true
	}
	if want := len(allMethods) * 2 * fullSize.fresh.Clients * fullSize.freshEvalEvery; len(a) != want {
		t.Fatalf("api-fresh pool has %d Specs, want %d", len(a), want)
	}
	// Every window of one full method cycle holds each method once, so a
	// run that stops early still trains a balanced mix.
	for i := 0; i+len(allMethods) <= len(a); i += len(allMethods) {
		methods := map[string]bool{}
		for _, sp := range a[i : i+len(allMethods)] {
			methods[sp.Method] = true
		}
		if len(methods) != len(allMethods) {
			t.Fatalf("pool block at %d holds %d distinct methods", i, len(methods))
		}
	}
	stored := map[string]bool{}
	for _, sp := range storedSpecs(fullSize, 7) {
		h, _ := sp.Hash()
		stored[h] = true
	}
	if len(stored) != 16 {
		t.Fatalf("api-cached has %d distinct Specs, want 16", len(stored))
	}
}

// Fleet cells must be the f64 train-grid cells, content-address for
// content-address, or the cross-workload model check compares nothing.
func TestFleetSweepCellsAreGridCells(t *testing.T) {
	cells, err := fleetSweep(fullSize, 5, 1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	grid := map[string]bool{}
	for _, b := range []int{2, 3} {
		for _, sp := range gridBlock(fullSize, 5, b) {
			if sp.Precision == "" {
				h, _ := sp.Hash()
				grid[h] = true
			}
		}
	}
	if len(cells) != len(grid) {
		t.Fatalf("sweep has %d cells, grid blocks have %d f64 cells", len(cells), len(grid))
	}
	for _, sp := range cells {
		if h, _ := sp.Hash(); !grid[h] {
			t.Fatalf("fleet cell %s seed %d is not a train-grid cell", sp.Method, sp.Seed)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, chg    []float64
		lower          bool
		bound          float64
		want           string
		wantWonAtLeast int
	}{
		{"same", steady, steady, true, 0.1, unchanged, 0},
		{"faster", steady, shift(steady, -20), true, 0.1, improved, 10},
		{"higher throughput", steady, shift(steady, 20), false, 0.1, improved, 10},
		{"slower beyond bound", steady, shift(steady, 15), true, 0.1, regressed, 0},
		{"slower within bound", steady, shift(steady, 5), true, 0.1, unchanged, 0},
		{"too few pairs", steady[:9], shift(steady[:9], -20), true, 0.1, unresolved, 9},
		{"spread over bound", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, steady, true, 0.1, unresolved, 0},
		{"spread over bound, all better", []float64{150, 160, 170, 180, 190, 200, 210, 220, 230, 240}, steady, true, 0.1, improved, 10},
		// A bimodal parent: every change run beats every parent run, but
		// the medians differ by less than the parent's quartile distance,
		// so there is no gain to claim, only no regression.
		{"bimodal parent, all better", []float64{100, 110, 120, 130, 140, 1000, 1010, 1020, 1030, 1040},
			[]float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}, true, 0.1, unchanged, 10},
	} {
		row := verdict(tc.parent, tc.chg, tc.lower, tc.bound)
		if row.verdict != tc.want || row.won < tc.wantWonAtLeast {
			t.Errorf("%s: verdict %s with %d/%d pairs won, want %s", tc.name, row.verdict, row.won, row.pairs, tc.want)
		}
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	root := span{ID: "r", Name: "bench.window", Start: at(0), End: at(10)}
	spans := []span{
		{ID: "a", Parent: "r", Name: "client.submit", Start: at(1), End: at(4)},
		{ID: "b", Parent: "r", Name: "client.submit", Start: at(3), End: at(6)},
		{ID: "c", Parent: "a", Name: "engine.handler.submit", Start: at(2), End: at(3)},
		{ID: "late", Parent: "r", Name: "client.submit", Start: at(11), End: at(12)},
	}
	w := window(spans, root)
	if len(w) != 4 {
		t.Fatalf("window kept %d spans, want 4 (the late span dropped)", len(w))
	}
	self := selfTimes(w)
	for id, want := range map[string]time.Duration{"r": 5 * time.Second, "a": 2 * time.Second, "b": 3 * time.Second, "c": time.Second} {
		if self[id] != want {
			t.Errorf("self(%s) = %v, want %v", id, self[id], want)
		}
	}
	sum := summarizeTrace("x", w, root)
	if sum.Coverage != 0.5 || sum.SelfS["client"] != 5 || sum.SelfS["engine"] != 1 {
		t.Errorf("summary = coverage %v, self %v", sum.Coverage, sum.SelfS)
	}
}

func TestRoute(t *testing.T) {
	for _, tc := range []struct{ method, path, layer, name string }{
		{"POST", "/v1/jobs", "engine", "submit"},
		{"GET", "/v1/jobs/job-3/events", "engine", "events"},
		{"GET", "/v1/jobs/job-3/model", "engine", "model"},
		{"POST", "/v1/sweeps", "engine", "sweep_submit"},
		{"GET", "/v1/sweeps/sweep-1", "engine", "sweep_status"},
		{"POST", "/v1/workers", "dist", "register"},
		{"POST", "/v1/workers/w-1/lease", "dist", "lease"},
		{"POST", "/v1/workers/w-1/jobs/job-9/complete", "dist", "complete"},
		{"PUT", "/v1/workers/w-1/jobs/job-9/model", "dist", "upload"},
		{"GET", "/v1/store/abc", "dist", "peer_fetch"},
	} {
		if layer, name := route(tc.method, tc.path); layer != tc.layer || name != tc.name {
			t.Errorf("route(%s %s) = %s.%s, want %s.%s", tc.method, tc.path, layer, name, tc.layer, tc.name)
		}
	}
}

// BENCHMARK.json is the contract later changes are judged by; it must
// list exactly the workloads and metrics this command reports.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", e2e, endToEnd)
	}
	if setupBound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s bound %v must be the largest bound and at most 0.25 (largest %v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer does not match the command's %d per-layer metrics", len(perLayer))
	}
}

// A reduced-size run of every workload completes, passes its gates, and
// reports every metric; fleet-sweep's models match train-grid's.
func TestSmokeRuns(t *testing.T) {
	scratch := t.TempDir()
	digests := map[string]map[string]string{}
	for i, w := range workloads {
		traced := i%2 == 1
		res, err := runWorkload(context.Background(), w, 3, smokeSize, 0.2, traced, scratch, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w.name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		if len(res.SetupS) != smokeSize.setups {
			t.Errorf("%s: %d set-ups timed, want %d (before and after the window)", w.name, len(res.SetupS), smokeSize.setups)
		}
		if _, err := contractLine(res); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		defs, vals := endToEnd, res.Metrics
		if traced {
			defs, vals = perLayer, res.Layers
		}
		for _, d := range defs {
			if _, ok := vals[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", w.name, d.Name)
			}
		}
		digests[w.name] = res.Digests
	}
	if len(digests["fleet-sweep"]) == 0 {
		t.Fatal("fleet-sweep recorded no model digests")
	}
	if p := crossCheck(digests["train-grid"], digests["fleet-sweep"]); len(p) > 0 {
		t.Fatal(p)
	}
}
