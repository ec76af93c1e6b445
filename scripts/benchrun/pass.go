package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// passOptions configures full passes (-out).
type passOptions struct {
	dir      string
	seed     uint64
	seconds  float64
	passes   int
	traceOut string
}

// ledger is DIR/results.json: every run made into DIR, with the host it
// ran on. Repeated -out invocations on one DIR append, so interleaved
// A/B sessions can be built one pass at a time.
type ledger struct {
	GitSHA    string                        `json:"git_sha"`
	Seed      uint64                        `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	NProc     int                           `json:"nproc"`
	CPU       string                        `json:"cpu_model"`
	GoVersion string                        `json:"go_version"`
	Runs      []ledgerRun                   `json:"runs"`
	Medians   map[string]map[string]float64 `json:"medians"`
	Traced    map[string]tracedRun          `json:"traced,omitempty"`
}

// ledgerRun is one untraced run of one workload.
type ledgerRun struct {
	Pass      int                `json:"pass"`
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Latency   summary            `json:"latency"`
	SetupS    []float64          `json:"setup_runs_s"`
}

// tracedRun is the traced run of one workload: its per-layer metrics,
// its attribution, and the tracing overhead — its end-to-end metrics
// minus those of an untraced run made just before it, so host drift
// between the two stays small.
type tracedRun struct {
	Layers   map[string]float64 `json:"layers"`
	Trace    *traceSummary      `json:"trace"`
	Untraced map[string]float64 `json:"untraced"`
	Overhead map[string]float64 `json:"overhead"`
}

// fullPasses runs opts.passes passes over the named workloads, each run
// in its own child process, rotating which workload goes first so no
// workload always runs on a cold or a warm host. It prints every
// end-to-end metric as "workload metric value unit", checks the digest
// gates across workloads and passes, and writes DIR/results.json.
func fullPasses(opts passOptions) error {
	names := workloadNames()
	path := filepath.Join(opts.dir, "results.json")
	var led ledger
	if err := readJSON(path, &led); err != nil && !os.IsNotExist(err) {
		return err
	}
	if len(led.Runs) > 0 && (led.Seed != opts.seed || led.Seconds != opts.seconds) {
		return fmt.Errorf("%s holds seed %d × %gs runs; start a new directory for seed %d × %gs",
			path, led.Seed, led.Seconds, opts.seed, opts.seconds)
	}
	led.GitSHA, led.Seed, led.Seconds = gitSHA(), opts.seed, opts.seconds
	led.NProc, led.CPU, led.GoVersion = runtime.NumCPU(), cpuModel(), runtime.Version()
	first := 0
	for _, r := range led.Runs {
		first = max(first, r.Pass+1)
	}

	var problems []string
	// digests[workload] accumulates cell digests across this invocation's
	// passes; one content-address must always name one model.
	digests := map[string]map[string]string{}
	for p := first; p < first+opts.passes; p++ {
		for i := range names {
			name := names[(p+i)%len(names)]
			res, err := child(opts, name, false, p)
			if err != nil {
				return err
			}
			for _, d := range endToEnd {
				fmt.Printf("%s %s %s %s\n", name, d.Name, formatValue(res.Metrics[d.Name]), d.Unit)
			}
			fmt.Printf("%s latency_tail_ms %s ms (p%s of n=%d)\n", name, formatValue(res.Metrics["latency_tail_ms"]),
				formatValue(res.Latency.TailP), res.Latency.N)
			fmt.Printf("%s failed_frac %s ratio (%d/%d)\n", name, formatValue(failedFrac(res)), res.Failed, res.Attempted)
			problems = append(problems, prefixed(name, res.Problems)...)
			led.Runs = append(led.Runs, ledgerRun{Pass: p, Workload: name, Correct: res.Correct, Attempted: res.Attempted,
				Failed: res.Failed, Metrics: res.Metrics, Latency: res.Latency, SetupS: res.SetupS})
			if digests[name] == nil {
				digests[name] = map[string]string{}
			}
			for k, v := range res.Digests {
				if prev, ok := digests[name][k]; ok && prev != v {
					problems = append(problems, fmt.Sprintf("%s: cell %.12s trained a different model in pass %d", name, k, p))
				}
				digests[name][k] = v
			}
		}
	}
	problems = append(problems, crossCheck(digests["train-grid"], digests["fleet-sweep"])...)
	led.Medians = medians(led.Runs)

	if opts.traceOut != "" {
		led.Traced = map[string]tracedRun{}
		for _, name := range names {
			base, err := child(opts, name, false, -1)
			if err != nil {
				return err
			}
			res, err := child(opts, name, true, -1)
			if err != nil {
				return err
			}
			problems = append(problems, prefixed(name+" (traced)", append(base.Problems, res.Problems...))...)
			over := map[string]float64{}
			for _, d := range endToEnd {
				over[d.Name] = res.Metrics[d.Name] - base.Metrics[d.Name]
			}
			led.Traced[name] = tracedRun{Layers: res.Layers, Trace: res.Trace, Untraced: base.Metrics, Overhead: over}
			fmt.Printf("%s trace.coverage %s ratio\n", name, formatValue(res.Layers["trace.coverage"]))
		}
	}
	if err := writeJSON(path, led); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d correctness checks failed:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

func failedFrac(res *runResult) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}

func prefixed(name string, problems []string) []string {
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = name + ": " + p
	}
	return out
}

// crossCheck requires each fleet-sweep model blob to be byte-identical
// to the train-grid model of the same content-address.
func crossCheck(grid, fleet map[string]string) []string {
	var out []string
	for k, v := range fleet {
		if g, ok := grid[k]; ok && g != v {
			out = append(out, fmt.Sprintf("cell %.12s: fleet-sweep model differs from train-grid's", k))
		}
	}
	return out
}

// child runs one workload in a fresh process and reads its result.
func child(opts passOptions, name string, traced bool, pass int) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	file := filepath.Join(scratchRoot, fmt.Sprintf("result-%d-%s-%d-%v.json", os.Getpid(), name, pass, traced))
	defer os.Remove(file)
	args := []string{"-workload", name, "-seed", fmt.Sprint(opts.seed), "-seconds", formatValue(opts.seconds), "-result", file}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", opts.traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	var res runResult
	if err := readJSON(file, &res); err != nil {
		return nil, fmt.Errorf("%s: %v (child: %v)", name, err, runErr)
	}
	return &res, nil
}

// medians reduces the runs to each workload's median per metric.
func medians(runs []ledgerRun) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], v)
		}
	}
	out := map[string]map[string]float64{}
	for w, m := range vals {
		out[w] = map[string]float64{}
		for k, xs := range m {
			out[w][k] = median(xs)
		}
	}
	return out
}

// gitSHA names the measured revision, when the checkout is a git
// repository, with "-dirty" when the working tree has changes.
func gitSHA() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
