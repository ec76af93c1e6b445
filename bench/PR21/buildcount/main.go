// Command buildcount counts the scenario builds of a two-worker fleet.
// It deploys what benchrun's fleet-sweep deploys — a dispatch-only
// coordinator at the default lease TTL and two single-slot workers
// training at Parallelism 1, joined over HTTP — submits -sweeps
// fleet-sweep sweeps one after another (Table I at the "Small" PACS
// sizing: 7 methods × 2 seed blocks, so 14 cells on 2 scenarios), and
// prints each worker's engine_scenario_build_seconds count and sum.
//
// benchrun's fleet-sweep reads only the coordinator's registry, which
// records no builds, so the count is taken here instead. The program
// uses only engine and dist APIs that predate scenario-affine claims,
// so the same file builds in a checkout of an older commit for an A/B
// comparison. Run it with `go run` on this directory from the
// repository root, e.g. with -seed 101 -sweeps 10.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/dist"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// grid is benchrun's fleet-sweep cell template (its fullSize.grid).
var grid = engine.Spec{Dataset: "PACS", Split: engine.SplitSpec{Name: "table1", Train: []int{0, 1, 2}, Test: []int{3}},
	Lambda: 0.1, Clients: 20, SampleK: 4, Rounds: 12, PerDomain: 320, EvalPer: 260, Tag: "benchrun-grid"}

// derive is benchrun's seed derivation, so -seed names the same
// scenarios a benchrun run at that seed trains.
func derive(seed uint64, stream string, i int) uint64 {
	h := sha256.Sum256([]byte(strconv.FormatUint(seed, 10) + "/" + stream + "/" + strconv.Itoa(i)))
	return binary.LittleEndian.Uint64(h[:8]) | 1
}

// sweep is fleet-sweep's k-th sweep: seed blocks 2k and 2k+1.
func sweep(seed uint64, k int) engine.Sweep {
	base := grid
	base.Method = "FedAvg"
	sw := engine.Sweep{Base: base, Methods: append([]string{"FedAvg"}, engine.MethodNames()...)}
	for _, b := range []int{2 * k, 2*k + 1} {
		sw.Seeds = append(sw.Seeds, engine.SeedSpec{Seed: derive(seed, "grid-run", b), GenSeed: derive(seed, "grid-gen", b)})
	}
	return sw
}

func main() {
	seed := flag.Uint64("seed", 101, "seed the sweeps' scenarios derive from")
	sweeps := flag.Int("sweeps", 10, "sweeps to run, one after another")
	flag.Parse()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	coordEng, err := engine.New(engine.Options{Workers: -1, Metrics: telemetry.NewRegistry(), Logger: quiet})
	if err != nil {
		log.Fatal(err)
	}
	coord := dist.NewCoordinator(coordEng, dist.Options{LeaseTTL: dist.DefaultLeaseTTL, Log: quiet})
	api := engine.NewServer(coordEng)
	coord.Mount(api)
	srv := httptest.NewServer(api)

	names := []string{"alpha", "beta"}
	wengs := make([]*engine.Engine, len(names))
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{}, len(names))
	for i, name := range names {
		wengs[i], err = engine.New(engine.Options{Workers: 1, Parallelism: 1, Metrics: telemetry.NewRegistry(), Logger: quiet})
		if err != nil {
			log.Fatal(err)
		}
		w, err := dist.NewWorker(dist.WorkerOptions{Name: name, Client: client.New(srv.URL), Engine: wengs[i], Log: quiet})
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			_ = w.Run(ctx)
			done <- struct{}{}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(coord.Fleet().Workers) < len(names); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatal("workers did not register within 10s")
		}
	}

	start := time.Now()
	for k := 0; k < *sweeps; k++ {
		b, err := coordEng.SubmitSweep(sweep(*seed, k), 0)
		if err != nil {
			log.Fatal(err)
		}
		for _, j := range b.Unique() {
			if _, err := j.Wait(context.Background()); err != nil {
				log.Fatalf("sweep %d: %v", k, err)
			}
		}
	}
	wall := time.Since(start)

	fmt.Fprintf(os.Stdout, "| worker | builds | build_s sum | mean build ms |\n|---|---:|---:|---:|\n")
	var builds int64
	var sum float64
	for i, name := range names {
		h := wengs[i].Metrics().Histogram("engine_scenario_build_seconds", "", nil)
		builds += h.Count()
		sum += h.Sum()
		fmt.Fprintf(os.Stdout, "| %s | %d | %.3f | %.1f |\n", name, h.Count(), h.Sum(), 1000*h.Sum()/float64(max(h.Count(), 1)))
	}
	fmt.Fprintf(os.Stdout, "| total | %d | %.3f | %.1f |\n", builds, sum, 1000*sum/float64(max(builds, 1)))
	fmt.Fprintf(os.Stdout, "\n%d sweeps of %d cells in %.1f s (seed %d)\n", *sweeps, 2*len(sweep(*seed, 0).Methods), wall.Seconds(), *seed)

	stop()
	for range names {
		<-done
	}
	srv.Close()
	coord.Close()
	coordEng.Close()
	for _, e := range wengs {
		e.Close()
	}
}
