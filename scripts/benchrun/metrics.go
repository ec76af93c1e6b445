package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step) and adds
// the regression bounds.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and reported on every workload. An operation is one
// training run (train-grid, api-fresh, fleet-sweep) or one table read
// (api-cached); latency is the time a caller waits for one operation's
// result. The tail latency is not among them: its spread across runs on
// the 2-vCPU reference host exceeds any bound a regression gate could
// use, so it is the per-layer bench.latency_tail_ms, and full passes
// (-out) still print and record the untraced value.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// Times and counts are normalized per operation (or per fl.Run, job or
// scenario build, as the unit says) so they stay comparable when a
// change lets more operations fit in the measured phase. A layer a
// workload does not reach reads 0.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name, unit, "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{name, unit, "higher"} }
	defs := []metricDef{
		// The caller's view: the tail of the workload's operation
		// latency, at the workload's capped percentile (workload.tailMax).
		lower("bench.latency_tail_ms", "ms"),
		lower("fl.run_s", "s/run"),
		lower("fl.setup_s", "s/run"),
		lower("fl.local_phase_s", "s/run"),
		lower("fl.local_train_p50_ms", "ms"),
		lower("fl.local_train_p95_ms", "ms"),
		lower("fl.local_train_s", "s/run"),
		lower("fl.local_train_s.f64", "s/run"),
		lower("fl.local_train_s.f32", "s/run"),
	}
	for _, m := range tableMethods {
		defs = append(defs, lower("fl.local_train_s."+m, "s/run"))
	}
	defs = append(defs, higher("fl.pool_busy_share", "ratio"), lower("fl.aggregate_s", "s/run"))
	for _, m := range tableMethods {
		defs = append(defs, lower("fl.aggregate_s."+m, "s/run"))
	}
	return append(defs,
		lower("fl.self_s", "s/run"),
		lower("tensor.kernel_calls", "count/op"),
		lower("tensor.kernel_s", "s/op"),
		lower("tensor.pool_tasks", "count/op"),
		lower("tensor.inline_panels", "count/op"),
		lower("tensor.serial_calls", "count/op"),
		lower("engine.scenario_build_s", "s/build"),
		lower("engine.scenario_builds", "count/op"),
		lower("engine.handler_p50_ms", "ms"),
		lower("engine.handler_tail_ms", "ms"),
		higher("engine.cache_hit_ratio", "ratio"),
		lower("engine.journal_records_per_job", "count/job"),
		lower("engine.queue_wait_p50_ms", "ms"),
		lower("engine.queue_wait_tail_ms", "ms"),
		lower("engine.run_p50_ms", "ms"),
		lower("engine.persist_p50_ms", "ms"),
		lower("engine.notify_p50_ms", "ms"),
		lower("engine.store_blob_bytes_per_job", "B/job"),
		lower("client.submit_p50_ms", "ms"),
		lower("client.submit_tail_ms", "ms"),
		lower("client.roundtrip_overhead_p50_ms", "ms"),
		lower("dist.lease_pull_p50_ms", "ms"),
		lower("dist.lease_pulls", "count/op"),
		higher("dist.lease_grant_ratio", "ratio"),
		lower("dist.heartbeat_p50_ms", "ms"),
		lower("dist.heartbeats", "count/op"),
		lower("dist.complete_p50_ms", "ms"),
		lower("dist.upload_p50_ms", "ms"),
		lower("dist.upload_bytes", "B/op"),
		lower("dist.peer_fetches", "count/op"),
		higher("dist.worker_busy_share", "ratio"),
		lower("dist.requeued", "count/op"),
		higher("trace.coverage", "ratio"),
	)
}()

// counters reads every sample a registry exports, summed across label
// sets, keyed by sample name (histograms contribute name_count and
// name_sum). This is the same text /metrics serves.
func counters(reg *telemetry.Registry) map[string]float64 {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
