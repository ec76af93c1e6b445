// Command benchrun is the repository's benchmark: it drives the system in
// four workloads, in process, checks that every output is correct, and
// reports end-to-end metrics (tracing off) or per-layer metrics (a
// separate traced run). See README.md in this directory.
//
// One workload, one run (the form BENCHMARK.json's command uses):
//
//	benchrun -workload train-grid -seed 1 -seconds 25 -trace 0
//
// Full passes over every workload, each in its own child process:
//
//	benchrun -out DIR [-passes N] [-seed N] [-trace-out DIR]
//
// A/B comparison of two -out directories:
//
//	benchrun compare OLD_DIR NEW_DIR
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// workloads in the order a pass runs them (each pass rotates the start).
var workloads = []workload{trainGrid, apiCached, apiFresh, fleetSweepWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scratchRoot holds every file a run writes; it lives in the checkout
// the benchmark runs from and is removed when the run ends.
const scratchRoot = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 25, "length of each measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write spans and per-layer summaries here (implies a traced run with -out)")
	resultFile := fs.String("result", "", "also write the full run result as JSON to this file")
	outDir := fs.String("out", "", "run full passes over every workload and write results here")
	passes := fs.Int("passes", 1, "passes to run with -out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *outDir != "" {
		if err := fullPasses(passOptions{dir: *outDir, seed: *seed, seconds: *seconds, passes: *passes,
			traceOut: *traceOut}); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchrun: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runOne(w, *seed, fullSize, *seconds, *trace == 1, *traceOut)
	if err == nil && *resultFile != "" {
		err = writeJSON(*resultFile, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "benchrun: check failed:", p)
	}
	line, err := contractLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// runOne runs one workload in a private scratch directory.
func runOne(w workload, seed uint64, sz sizing, seconds float64, traced bool, traceOut string) (*runResult, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	return runWorkload(context.Background(), w, seed, sz, seconds, traced, scratch, traceOut)
}

// contractLine renders the result as the one-line JSON object the
// benchmark prints last: end-to-end metrics, or per-layer ones when
// traced.
func contractLine(res *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.Metrics
	if res.Traced {
		defs, vals = perLayer, res.Layers
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(raw), err
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// formatValue prints a metric with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
