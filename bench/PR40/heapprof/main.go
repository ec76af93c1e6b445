// Command heapprof measures where a fleet's coordinator keeps its
// checkpoint blobs. It deploys what benchrun's fleet-sweep deploys — a
// dispatch-only coordinator at the default lease TTL and two
// single-slot workers training at Parallelism 1, joined over HTTP —
// runs -sweeps fleet-sweep sweeps one after another (14 cells each, so
// ten of them overrun the coordinator's 64 MiB blob budget), then
// collects garbage and writes an in-use heap profile to -profile. It
// prints the coordinator's store_blob_resident_bytes gauge (0 where
// blobs live on the heap and the gauge does not exist), the live heap,
// the process's peak RSS (VmHWM) and its GC cycle count.
//
// It uses only engine and dist APIs that predate the gauge, so the same
// file builds in a checkout of an older commit for an A/B comparison.
// Run it with `go run` on this directory from the repository root, e.g.
//
//	go run ./bench/PR40/heapprof -seed 41 -sweeps 10 -profile heap.pb.gz
//	go tool pprof -top heap.pb.gz
package main

import (
	"bufio"
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
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
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

// vmHWM reads the process's peak resident set from /proc (Linux), or
// "n/a".
func vmHWM() string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "n/a"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "n/a"
}

func main() {
	seed := flag.Uint64("seed", 41, "seed the sweeps' scenarios derive from")
	sweeps := flag.Int("sweeps", 10, "sweeps to run, one after another")
	profile := flag.String("profile", "heap.pb.gz", "write the in-use heap profile here")
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

	runtime.GC()
	f, err := os.Create(*profile)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resident := coordEng.Metrics().Gauge("store_blob_resident_bytes", "").Value()
	fmt.Printf("%d sweeps of %d cells in %.1f s (seed %d)\n", *sweeps, 2*len(sweep(*seed, 0).Methods), wall.Seconds(), *seed)
	fmt.Printf("store_blob_resident_bytes %d (%.1f MB)\n", resident, float64(resident)/1e6)
	fmt.Printf("heap_alloc %.1f MB, heap_sys %.1f MB, gc_cycles %d, VmHWM %s\n",
		float64(ms.HeapAlloc)/1e6, float64(ms.HeapSys)/1e6, ms.NumGC, vmHWM())

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
