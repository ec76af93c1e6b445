// Command sweep demonstrates the public client SDK end to end: it
// submits a small method × seed parameter grid to a feddg server as ONE
// sweep, follows the merged Server-Sent-Events stream for live
// per-round progress, prints each run's final accuracy, and then
// resubmits the identical grid to show the content-address cache
// answering the whole sweep without training a single round.
//
// With -server it drives a running `feddg serve`; without it, the
// example self-hosts an in-process engine behind the same HTTP API on a
// loopback port, so it works standalone:
//
//	go run ./examples/sweep
//	go run ./examples/sweep -server http://localhost:8080
//
// The process exits non-zero on any failure, so CI can use it as an API
// smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep example:", err)
		os.Exit(1)
	}
}

func run() error {
	serverFlag := flag.String("server", "", "base URL of a running `feddg serve` (empty = self-host in-process)")
	flag.Parse()

	base := *serverFlag
	if base == "" {
		url, shutdown, err := selfHost()
		if err != nil {
			return err
		}
		defer shutdown()
		base = url
		fmt.Printf("self-hosted engine at %s\n", base)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New(base)
	if _, err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("server not healthy: %w", err)
	}

	// A 2-methods × 2-seeds grid over a tiny PACS-style scenario: train
	// on Photo+Art, test on the unseen Sketch domain.
	sw := client.Sweep{
		Base: client.Spec{
			Dataset:   "PACS",
			GenSeed:   12,
			Split:     client.SplitSpec{Name: "sweep-demo", Train: []int{0, 1}, Test: []int{3}},
			Lambda:    0.1,
			Clients:   4,
			SampleK:   2,
			Rounds:    4,
			PerDomain: 48,
			EvalPer:   24,
			Tag:       "sweep-example",
		},
		Methods: []string{"FedAvg", "PARDON"},
		Seeds:   []client.SeedSpec{{Seed: 1}, {Seed: 2}},
	}

	view, err := c.SubmitSweep(ctx, sw, client.SubmitOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s: %d cells, %d distinct jobs\n", view.ID, view.Counts.Total, view.Counts.Unique)

	// Live progress from the merged SSE stream until every job is done.
	stream, err := c.SweepEvents(ctx, view.ID)
	if err != nil {
		return err
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if ev.Rounds > 0 {
			fmt.Printf("  %s %-8s round %d/%d\n", ev.JobID, ev.State, ev.Round, ev.Rounds)
		}
	}

	final, err := c.Sweep(ctx, view.ID)
	if err != nil {
		return err
	}
	if !final.Done || final.Counts.Failed > 0 || final.Counts.Cancelled > 0 {
		return fmt.Errorf("sweep did not finish cleanly: %+v", final.Counts)
	}
	fmt.Println("results (unseen-domain test accuracy):")
	for _, jv := range final.Jobs {
		if jv.Result == nil {
			return fmt.Errorf("job %s finished without a result", jv.ID)
		}
		fmt.Printf("  %-8s seed-job %s  %.2f%%\n", jv.Method, jv.ID, 100*jv.Result.Final().TestAcc)
	}

	// The same grid again: every cell must be answered from the
	// content-address cache, training zero additional rounds.
	before, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	again, err := c.SubmitSweep(ctx, sw, client.SubmitOptions{Wait: true})
	if err != nil {
		return err
	}
	after, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if again.Counts.Cached != again.Counts.Unique {
		return fmt.Errorf("resubmitted sweep not fully cached: %+v", again.Counts)
	}
	if after.RoundsExecuted != before.RoundsExecuted {
		return fmt.Errorf("resubmitted sweep trained %d rounds, want 0",
			after.RoundsExecuted-before.RoundsExecuted)
	}
	fmt.Printf("resubmitted %s: all %d jobs cached, zero rounds trained\n", again.ID, again.Counts.Unique)
	return nil
}

// selfHost boots an in-process engine behind the HTTP API on a loopback
// port, returning its base URL and a teardown.
func selfHost() (string, func(), error) {
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: engine.NewServer(eng)}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		_ = srv.Close()
		eng.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
