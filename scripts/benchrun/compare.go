package main

import (
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is how many interleaved old/new pairs a verdict needs.
const minPairs = 10

// Verdicts, from the measuring rules in README.md.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdictRow is one workload × metric line of a comparison.
type verdictRow struct {
	workload, metric string
	parent, change   [3]float64 // first quartile, median, third quartile
	won, pairs       int        // pairs the change won, of pairs compared
	verdict          string
}

// verdict applies one metric's bound to paired runs: parent[i] and
// change[i] ran back to back. A gain needs the change to win at least
// nine pairs in ten and the medians to differ by more than the parent's
// interquartile distance; nothing else claims one. A parent spread wider
// than the bound is unresolved unless every run of the change beats
// every run of the parent. A median worse than the parent's by more than
// the bound is a regression.
func verdict(parent, change []float64, lowerBetter bool, bound float64) verdictRow {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	row := verdictRow{pairs: n}
	row.parent[0], row.parent[1], row.parent[2] = quartiles(parent)
	row.change[0], row.change[1], row.change[2] = quartiles(change)
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			row.won++
		}
	}
	allBetter := n > 0
	for _, a := range change {
		for _, b := range parent {
			allBetter = allBetter && better(a, b)
		}
	}
	mo, mn := row.parent[1], row.change[1]
	iqr := row.parent[2] - row.parent[0]
	worse := (mn - mo) / mo
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case n < minPairs:
		row.verdict = unresolved
	case 10*row.won >= 9*n && better(mn, mo) && abs(mn-mo) > iqr:
		row.verdict = improved
	case iqr/mo > bound && !allBetter:
		row.verdict = unresolved
	case worse > bound:
		row.verdict = regressed
	default:
		row.verdict = unchanged
	}
	return row
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareLedgers pairs the runs of two -out directories pass by pass and
// judges every end-to-end metric on every workload both hold.
func compareLedgers(parent, change ledger, bench benchmarkFile) []verdictRow {
	series := func(l ledger, workload, metric string) []float64 {
		var out []float64
		for _, r := range l.Runs {
			if r.Workload == workload {
				out = append(out, r.Metrics[metric])
			}
		}
		return out
	}
	var rows []verdictRow
	for _, w := range workloadNames() {
		for _, d := range bench.EndToEnd {
			p, c := series(parent, w, d.Name), series(change, w, d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			row := verdict(p, c, d.Better == "lower", d.Bound)
			row.workload, row.metric = w, d.Name
			rows = append(rows, row)
		}
	}
	return rows
}

// compareMain implements `benchrun compare OLD_DIR NEW_DIR`, run from
// the repository root, whose BENCHMARK.json holds the bounds. It exits 1
// when any metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchrun compare OLD_DIR NEW_DIR")
		return 2
	}
	var bench benchmarkFile
	var parent, change ledger
	for _, r := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &bench}, {filepath.Join(args[0], "results.json"), &parent}, {filepath.Join(args[1], "results.json"), &change}} {
		if err := readJSON(r.path, r.v); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun compare:", err)
			return 2
		}
	}
	rows := compareLedgers(parent, change, bench)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tnew won\tverdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n", r.workload, r.metric,
			r.parent[1], r.parent[0], r.parent[2], r.change[1], r.change[0], r.change[2], r.won, r.pairs, r.verdict)
		if r.verdict == regressed {
			status = 1
		}
	}
	tw.Flush()
	return status
}
