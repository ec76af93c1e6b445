package main

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/pardon-feddg/pardon/client"
)

// traceCmd fetches a job's merged span timeline and renders it as a
// text waterfall: one line per span, indented by parent depth, with an
// offset-scaled duration bar. On a cluster the timeline interleaves
// coordinator spans (queue, lease) with the executing worker's spans
// (rounds, tier lookups, upload).
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("feddg trace", flag.ContinueOnError)
	rf := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("usage: feddg trace [-server URL] job-N|TRACE_ID")
	}
	view, err := rf.newClient().Trace(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	printWaterfall(view)
	return nil
}

// printWaterfall renders a TraceView as an indented timeline. Spans
// sort by start time within each parent; orphans (parent not in the
// payload — e.g. evicted from the ring) print at the root level so
// nothing silently disappears.
func printWaterfall(view client.TraceView) {
	spans := view.Spans
	if len(spans) == 0 {
		fmt.Printf("trace %s: no spans\n", view.TraceID)
		return
	}
	byID := map[string]client.Span{}
	children := map[string][]client.Span{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	var t0, t1 time.Time
	for _, sp := range spans {
		parent := sp.ParentID
		if _, ok := byID[parent]; !ok {
			parent = "" // orphan: show at the root rather than dropping it
		}
		children[parent] = append(children[parent], sp)
		if t0.IsZero() || sp.Start.Before(t0) {
			t0 = sp.Start
		}
		if end := sp.End(); end.After(t1) {
			t1 = end
		}
	}
	total := t1.Sub(t0).Seconds()
	if total <= 0 {
		total = 1e-9
	}
	const barWidth = 32
	fmt.Printf("trace %s  (%d spans, %.3fs)\n", view.TraceID, len(spans), total)
	var walk func(parent string, depth int)
	walk = func(parent string, depth int) {
		kids := children[parent]
		sort.Slice(kids, func(i, j int) bool {
			if !kids[i].Start.Equal(kids[j].Start) {
				return kids[i].Start.Before(kids[j].Start)
			}
			return kids[i].SpanID < kids[j].SpanID
		})
		for _, sp := range kids {
			off := int(float64(barWidth) * sp.Start.Sub(t0).Seconds() / total)
			width := int(float64(barWidth) * sp.DurationSec / total)
			if width < 1 {
				width = 1
			}
			if off+width > barWidth {
				width = barWidth - off
			}
			bar := strings.Repeat(" ", off) + strings.Repeat("▇", width) +
				strings.Repeat(" ", barWidth-off-width)
			name := strings.Repeat("  ", depth) + sp.Name
			attrs := ""
			if len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				parts := make([]string, 0, len(keys))
				for _, k := range keys {
					parts = append(parts, k+"="+sp.Attrs[k])
				}
				attrs = "  {" + strings.Join(parts, " ") + "}"
			}
			fmt.Printf("%-28s %9.3fs  |%s|  %-14s%s\n", name, sp.DurationSec, bar, sp.Source, attrs)
			walk(sp.SpanID, depth+1)
		}
	}
	walk("", 0)
}

// topCmd polls GET /v1/top and renders a live fleet dashboard: workers
// with rolling round latencies and straggler flags, per-tenant queue
// depth, and the slowest recent spans. Rates (rounds/s) derive from
// successive samples client-side.
func topCmd(args []string) error {
	fs := flag.NewFlagSet("feddg top", flag.ContinueOnError)
	rf := clientFlags(fs)
	var (
		intervalFlag = fs.Duration("interval", 2*time.Second, "refresh interval")
		onceFlag     = fs.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	c := rf.newClient()
	var prev client.TopView
	var havePrev bool
	for {
		view, err := c.Top(ctx)
		if err != nil {
			return err
		}
		if !*onceFlag {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		printTop(view, prev, havePrev)
		if *onceFlag {
			return nil
		}
		prev, havePrev = view, true
		time.Sleep(*intervalFlag)
	}
}

// printTop renders one dashboard frame; prev supplies the rate window.
func printTop(view, prev client.TopView, havePrev bool) {
	rate := ""
	if havePrev {
		if dt := view.Time.Sub(prev.Time).Seconds(); dt > 0 {
			r := float64(view.Stats.RoundsExecuted-prev.Stats.RoundsExecuted) / dt
			rate = fmt.Sprintf("  %.1f rounds/s", r)
		}
	}
	queued := 0
	for _, n := range view.QueueDepth {
		queued += n
	}
	fmt.Printf("feddg top  %s  workers %d  running %d  queued %d%s\n",
		view.Time.Format("15:04:05"), len(view.Workers), view.Running, queued, rate)
	fmt.Printf("jobs %d  submitted %d  cache-hits %d  coalesced %d  rounds %d\n\n",
		view.Stats.Jobs, view.Stats.Submitted, view.Stats.CacheHits,
		view.Stats.Coalesced, view.Stats.RoundsExecuted)

	fmt.Printf("%-16s %6s %6s %9s %10s %10s %s\n",
		"WORKER", "LEASES", "DONE", "SEEN", "ROUND-P50", "ROUND-P95", "")
	for _, w := range view.Workers {
		seen := time.Since(w.LastSeen).Round(time.Second)
		flag := ""
		if w.Slow {
			flag = "  SLOW"
		}
		p50, p95 := "-", "-"
		if w.RoundSamples > 0 {
			p50 = fmt.Sprintf("%.3fs", w.RoundP50Sec)
			p95 = fmt.Sprintf("%.3fs", w.RoundP95Sec)
		}
		fmt.Printf("%-16s %6d %6d %8s %10s %10s%s\n",
			w.Name, w.ActiveLeases, w.Completed, seen.String()+" ago", p50, p95, flag)
	}
	if len(view.Workers) == 0 {
		fmt.Println("(no workers registered)")
	}

	if len(view.QueueDepth) > 0 {
		tenants := make([]string, 0, len(view.QueueDepth))
		for t := range view.QueueDepth {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		fmt.Println("\nQUEUE DEPTH")
		for _, t := range tenants {
			name := t
			if name == "" {
				name = "(default)"
			}
			fmt.Printf("  %-20s %d\n", name, view.QueueDepth[t])
		}
	}

	if len(view.SlowSpans) > 0 {
		fmt.Println("\nSLOWEST SPANS")
		for _, sp := range view.SlowSpans {
			src := sp.Source
			if src == "" {
				src = "coordinator"
			}
			fmt.Printf("  %-12s %9.3fs  %-14s trace %s\n", sp.Name, sp.DurationSec, src, sp.TraceID)
		}
	}
}
