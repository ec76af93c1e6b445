// Command feddg regenerates the paper's tables and figures, serves the
// experiment engine over HTTP, and drives a remote engine through the
// public client SDK.
//
// Usage:
//
//	feddg -exp table1 [-scale small|paper] [-seed N] [-seeds K] [-out DIR]
//	       [-cache DIR] [-cache-max-bytes N] [-workers N] [-save-model DIR]
//	feddg -exp all -scale small
//	feddg -version
//	feddg serve  [-addr :8080] [-metrics-addr ADDR] [-log-level LEVEL]
//	       [-cache DIR] [-cache-max-bytes N] [-workers N] [-api-keys FILE]
//	       [-lease-ttl 15s] [-dispatch-only]
//	feddg serve -worker -join URL [-worker-name NAME] [-slots N]
//	       [-api-key KEY] [-cache DIR] [-metrics-addr ADDR]
//	feddg submit -spec FILE|- [-server URL] [-api-key KEY] [-wait] [-priority N]
//	feddg sweep  -sweep FILE|- [-server URL] [-api-key KEY] [-wait] [-watch] [-priority N]
//	feddg watch  ID [-server URL] [-api-key KEY]
//	feddg trace  job-N|TRACE_ID [-server URL] [-api-key KEY]
//	feddg top    [-server URL] [-api-key KEY] [-interval 2s] [-once]
//
// Experiments: table1 table2 table3 table4 table5 fig1 fig3 fig4 fig5
// fig6 fig7 fig8 all. Image artifacts (figs 6–8) and CSV surfaces (fig1)
// are written under -out (default ./out). With -cache, completed runs
// are memoized on disk by content-address, so re-generating a table over
// an unchanged cache does zero federated rounds.
//
// `feddg serve` exposes the v2 experiment API (jobs, sweeps, SSE event
// streams, model checkpoints) over HTTP/JSON and shuts down gracefully
// on SIGINT/SIGTERM. The same server is a fleet coordinator: `feddg
// serve -worker -join URL` nodes register with it, pull job leases
// (sharded by content-address), execute them on their local engine,
// and upload results + checkpoints; the coordinator requeues the
// leases of crashed workers after -lease-ttl without a heartbeat, and
// -dispatch-only turns off local execution so the coordinator only
// schedules. With -metrics-addr it additionally serves the
// operational endpoints (Prometheus /metrics, /debug/pprof/*,
// /v1/healthz) on a second listener that operators can keep off the
// public network. With -api-keys the API requires Authorization: Bearer
// keys from the named-tenant JSON file and applies per-tenant rate
// limits and queue quotas; with a cache directory the engine journals
// every submission and replays unfinished work on restart. `feddg
// submit`, `feddg sweep`, and `feddg watch` are thin wrappers over the
// typed client package speaking to a remote server: submit one Spec,
// submit a parameter grid, or follow live per-round progress of a job
// (job-N) or sweep (sweep-N). `feddg trace` renders a job's merged
// coordinator+worker span timeline as a waterfall, and `feddg top` is
// a live fleet dashboard (workers, leases, queue depth, stragglers,
// slowest spans). The key flows from -api-key or the FEDDG_API_KEY
// environment variable. See README.md for the job lifecycle and wire
// format.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/attack"
	"github.com/pardon-feddg/pardon/internal/dist"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/eval"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "feddg:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "version", "-version", "--version":
			fmt.Println(telemetry.Build())
			return nil
		case "serve":
			return serve(os.Args[2:])
		case "submit":
			return submitCmd(os.Args[2:])
		case "sweep":
			return sweepCmd(os.Args[2:])
		case "watch":
			return watchCmd(os.Args[2:])
		case "trace":
			return traceCmd(os.Args[2:])
		case "top":
			return topCmd(os.Args[2:])
		}
	}
	var (
		expFlag       = flag.String("exp", "", "experiment id (table1..table5, fig1, fig3..fig8, all)")
		scaleFlag     = flag.String("scale", "small", "experiment scale: small|paper")
		seedFlag      = flag.Uint64("seed", 1, "root random seed")
		seedsFlag     = flag.Int("seeds", 1, "number of seeds to average")
		outFlag       = flag.String("out", "out", "output directory for figure artifacts")
		cacheFlag     = flag.String("cache", "", "result-cache directory (empty = in-memory only)")
		cacheMaxFlag  = flag.Int64("cache-max-bytes", 0, "disk-cache size cap in bytes, LRU-by-mtime eviction (0 = unbounded)")
		workersFlag   = flag.Int("workers", 0, "engine worker-pool size (0 = NumCPU/2)")
		saveModelFlag = flag.String("save-model", "", "directory receiving each run's trained-model checkpoint (cached runs included)")
	)
	flag.Parse()
	if *expFlag == "" {
		flag.Usage()
		return fmt.Errorf("missing -exp")
	}
	scale, err := eval.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	if *cacheMaxFlag > 0 && *cacheFlag == "" {
		return fmt.Errorf("-cache-max-bytes caps the disk cache and needs -cache DIR")
	}
	eng, err := engine.New(engine.Options{Workers: *workersFlag, CacheDir: *cacheFlag, CacheMaxBytes: *cacheMaxFlag})
	if err != nil {
		return err
	}
	defer eng.Close()
	cfg := eval.Config{Scale: scale, Seed: *seedFlag, Seeds: *seedsFlag, Engine: eng}

	exps := []string{*expFlag}
	if *expFlag == "all" {
		exps = []string{"table1", "table2", "table3", "table4", "table5", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
	}
	for _, exp := range exps {
		start := time.Now()
		if err := runExperiment(exp, cfg, *outFlag); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
		fmt.Printf("[%s completed in %s]\n\n", exp, time.Since(start).Round(time.Millisecond))
	}
	if *saveModelFlag != "" {
		n, missing, err := saveModels(eng, *saveModelFlag)
		if err != nil {
			return err
		}
		fmt.Printf("[%d model checkpoints written under %s]\n", n, *saveModelFlag)
		if missing > 0 {
			fmt.Printf("[%d done jobs had no resident checkpoint: the store evicted them; -cache DIR without -cache-max-bytes keeps every one]\n", missing)
		}
	}
	st := eng.Stats()
	fmt.Printf("[engine: %d submitted, %d cache hits, %d rounds trained]\n",
		st.Submitted, st.CacheHits, st.RoundsExecuted)
	return nil
}

// saveModels exports the trained-model checkpoint of every completed
// Spec job of this invocation — cache hits included, since the blob is
// stored content-addressed next to the memoized result — as
// <method>-<address[:12]>.model files that nn.LoadModel (or any client
// of GET /v1/jobs/{id}/model) can read back. It also counts the done
// jobs whose checkpoint the store no longer holds: a memory-only store
// keeps only its newest blobs, and a capped disk cache evicts too.
func saveModels(eng *engine.Engine, dir string) (written, missing int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, fmt.Errorf("save-model: %w", err)
	}
	seen := map[string]bool{}
	for _, j := range eng.Jobs() {
		if j.Spec == nil || j.State() != engine.StateDone || seen[j.Key] {
			continue
		}
		seen[j.Key] = true
		blob, ok, err := eng.ModelBlob(j.Key)
		if err != nil {
			return written, missing, fmt.Errorf("save-model: %s: %w", j.Key, err)
		}
		if !ok {
			missing++
			continue
		}
		name := fmt.Sprintf("%s-%s.model", j.Spec.Method, j.Key[:12])
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			return written, missing, fmt.Errorf("save-model: %w", err)
		}
		written++
	}
	return written, missing, nil
}

// serve runs the experiment engine behind the HTTP/JSON job API until
// the process receives SIGINT or SIGTERM, then drains gracefully:
// in-flight requests (including SSE streams, whose contexts derive from
// the signal context) get shutdownGrace to finish before the listener
// is forced closed, and the engine cancels any still-running jobs.
func serve(args []string) error {
	fs := flag.NewFlagSet("feddg serve", flag.ContinueOnError)
	var (
		addrFlag     = fs.String("addr", ":8080", "listen address")
		metricsFlag  = fs.String("metrics-addr", "", "ops listen address for /metrics, /debug/pprof/* and /v1/healthz (empty = disabled)")
		logLevelFlag = fs.String("log-level", "info", "structured-log threshold: debug|info|warn|error")
		cacheFlag    = fs.String("cache", "feddg-cache", "result-cache directory (empty = in-memory only)")
		cacheMaxFlag = fs.Int64("cache-max-bytes", 0, "disk-cache size cap in bytes, LRU-by-mtime eviction (0 = unbounded)")
		workersFlag  = fs.Int("workers", 0, "engine worker-pool size (0 = NumCPU/2)")
		parFlag      = fs.Int("parallelism", 0, "per-job local-training goroutines (0 = NumCPU/workers); a pure CPU bound, never changes results")
		apiKeysFlag  = fs.String("api-keys", "", "tenant API-key JSON file; when set the API requires Authorization: Bearer and applies per-tenant rate limits and queue quotas")
		leaseTTLFlag = fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "fleet lease TTL: a leased job whose worker stops heartbeating this long is requeued")
		dispatchFlag = fs.Bool("dispatch-only", false, "run no local training workers; jobs execute only on joined -worker nodes")
		workerFlag   = fs.Bool("worker", false, "run as a fleet worker node instead of a coordinator (requires -join)")
		joinFlag     = fs.String("join", "", "coordinator base URL to join as a worker")
		nameFlag     = fs.String("worker-name", "", "stable worker node name for shard assignment and metrics (default: hostname)")
		slotsFlag    = fs.Int("slots", 1, "worker mode: concurrent leases to execute")
		apiKeyFlag   = fs.String("api-key", os.Getenv("FEDDG_API_KEY"), "worker mode: API key sent to the coordinator (default $FEDDG_API_KEY)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerFlag {
		// A worker node defaults to its own cache directory so a
		// coordinator and a worker sharing a working directory don't
		// share (and corrupt) one journal.
		cacheSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "cache" {
				cacheSet = true
			}
		})
		if !cacheSet {
			*cacheFlag = "feddg-worker-cache"
		}
		return serveWorker(workerConfig{
			join: *joinFlag, name: *nameFlag, slots: *slotsFlag, apiKey: *apiKeyFlag,
			cacheDir: *cacheFlag, cacheMax: *cacheMaxFlag, workers: *workersFlag,
			parallelism: *parFlag,
			metricsAddr: *metricsFlag, logLevel: *logLevelFlag,
		})
	}
	if *cacheMaxFlag > 0 && *cacheFlag == "" {
		return fmt.Errorf("-cache-max-bytes caps the disk cache and needs -cache DIR")
	}
	var tenants *engine.Tenants
	if *apiKeysFlag != "" {
		var err error
		if tenants, err = engine.LoadTenantsFile(*apiKeysFlag); err != nil {
			return fmt.Errorf("-api-keys: %w", err)
		}
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevelFlag)); err != nil {
		return fmt.Errorf("-log-level %q: %w", *logLevelFlag, err)
	}
	// The engine logs through slog.Default(); a text handler at the
	// chosen threshold makes every line grep-able by trace ID.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	engWorkers := *workersFlag
	if *dispatchFlag {
		engWorkers = -1 // no local pool: only joined fleet workers execute
	}
	eng, err := engine.New(engine.Options{Workers: engWorkers, CacheDir: *cacheFlag, CacheMaxBytes: *cacheMaxFlag, Parallelism: *parFlag})
	if err != nil {
		return err
	}
	defer eng.Close()
	cache := *cacheFlag
	if cache == "" {
		cache = "(memory)"
	}

	const shutdownGrace = 10 * time.Second
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var serverOpts []engine.ServerOption
	if tenants != nil {
		serverOpts = append(serverOpts, engine.WithTenants(tenants))
	}
	api := engine.NewServer(eng, serverOpts...)
	// Every coordinator accepts fleet workers; without any joined the
	// engine's local pool behaves exactly as before.
	coord := dist.NewCoordinator(eng, dist.Options{LeaseTTL: *leaseTTLFlag})
	defer coord.Close() // before the deferred eng.Close (LIFO)
	coord.Mount(api)
	srv := &http.Server{
		Addr:    *addrFlag,
		Handler: api,
		// Request contexts derive from the signal context, so open SSE
		// streams end when shutdown starts instead of pinning Shutdown
		// until the grace period expires.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("feddg serve: %s listening on %s, cache %s", telemetry.Build(), *addrFlag, cache)
	if tenants != nil {
		log.Printf("feddg serve: API-key auth on, tenants: %s", strings.Join(tenants.Names(), ", "))
	}

	// The ops listener is separate so metrics and profiles can stay on a
	// loopback or cluster-internal address while the API faces clients.
	var ops *http.Server
	if *metricsFlag != "" {
		ops = &http.Server{
			Addr:        *metricsFlag,
			Handler:     engine.NewOpsMux(eng),
			BaseContext: func(net.Listener) context.Context { return ctx },
		}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("feddg serve: ops listener: %v", err)
			}
		}()
		log.Printf("feddg serve: ops endpoints (metrics, pprof, healthz) on %s", *metricsFlag)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process instead of queueing
	log.Printf("feddg serve: shutting down (grace %s)", shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("feddg serve: graceful shutdown incomplete: %v", err)
		_ = srv.Close()
	}
	if ops != nil {
		// A scrape that outlives the API drain is not worth waiting on.
		_ = ops.Close()
	}
	// The deferred eng.Close() cancels pending and running jobs and
	// drains the worker pool before the process exits. The deferred
	// coord.Close() runs first, stopping the lease reaper.
	return nil
}

// workerConfig carries the `feddg serve -worker` flag values.
type workerConfig struct {
	join, name, apiKey          string
	slots, workers, parallelism int
	cacheDir, logLevel          string
	cacheMax                    int64
	metricsAddr                 string
}

// serveWorker runs one fleet worker node: a local engine plus a pull
// loop against the coordinator at -join, until SIGINT/SIGTERM. On a
// graceful stop in-flight leases are abandoned back to the coordinator
// so their jobs requeue immediately instead of waiting out the TTL.
func serveWorker(cfg workerConfig) error {
	if cfg.join == "" {
		return fmt.Errorf("-worker needs -join URL (the coordinator's API address)")
	}
	if cfg.cacheMax > 0 && cfg.cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes caps the disk cache and needs -cache DIR")
	}
	name := cfg.name
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			return fmt.Errorf("-worker-name not set and hostname unavailable: %w", err)
		}
		name = host
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		return fmt.Errorf("-log-level %q: %w", cfg.logLevel, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	eng, err := engine.New(engine.Options{Workers: cfg.workers, CacheDir: cfg.cacheDir,
		CacheMaxBytes: cfg.cacheMax, Parallelism: cfg.parallelism})
	if err != nil {
		return err
	}
	defer eng.Close()
	var clientOpts []client.Option
	if cfg.apiKey != "" {
		clientOpts = append(clientOpts, client.WithAPIKey(cfg.apiKey))
	}
	w, err := dist.NewWorker(dist.WorkerOptions{
		Name:   name,
		Client: client.New(cfg.join, clientOpts...),
		Engine: eng,
		Slots:  cfg.slots,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Same split as the coordinator: ops endpoints (worker-side metrics,
	// pprof) on their own listener.
	var ops *http.Server
	if cfg.metricsAddr != "" {
		ops = &http.Server{
			Addr:        cfg.metricsAddr,
			Handler:     engine.NewOpsMux(eng),
			BaseContext: func(net.Listener) context.Context { return ctx },
		}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("feddg worker: ops listener: %v", err)
			}
		}()
		log.Printf("feddg worker: ops endpoints (metrics, pprof, healthz) on %s", cfg.metricsAddr)
	}
	log.Printf("feddg worker: %s node %q joining %s (%d slot(s))", telemetry.Build(), name, cfg.join, max(cfg.slots, 1))
	err = w.Run(ctx)
	if ops != nil {
		_ = ops.Close()
	}
	if err != nil && ctx.Err() == nil {
		return err
	}
	log.Printf("feddg worker: node %q stopped", name)
	return nil
}

// remoteFlags holds the flags every remote subcommand shares.
type remoteFlags struct {
	server *string
	apiKey *string
}

// clientFlags adds the shared remote flags. The API key defaults to
// the FEDDG_API_KEY environment variable so scripts don't have to put
// secrets on command lines (where they leak into shell history and
// process listings).
func clientFlags(fs *flag.FlagSet) remoteFlags {
	return remoteFlags{
		server: fs.String("server", "http://127.0.0.1:8080", "base URL of a running `feddg serve`"),
		apiKey: fs.String("api-key", os.Getenv("FEDDG_API_KEY"), "tenant API key sent as Authorization: Bearer (default $FEDDG_API_KEY)"),
	}
}

// newClient builds the SDK client from the shared remote flags.
func (rf remoteFlags) newClient() *client.Client {
	var opts []client.Option
	if *rf.apiKey != "" {
		opts = append(opts, client.WithAPIKey(*rf.apiKey))
	}
	return client.New(*rf.server, opts...)
}

// readJSONArg decodes a JSON document from a file path or, for "-",
// standard input. Unknown fields are rejected — the CLI re-marshals
// the typed struct, so a typo'd axis name ("method" for "methods")
// would otherwise silently vanish before the server's own strict
// decoding could catch it.
func readJSONArg(path string, dst any) error {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// printJSON pretty-prints a response value to stdout.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// submitCmd submits one Spec to a remote server through the client SDK.
func submitCmd(args []string) error {
	fs := flag.NewFlagSet("feddg submit", flag.ContinueOnError)
	rf := clientFlags(fs)
	var (
		specFlag = fs.String("spec", "", "Spec JSON file (- = stdin)")
		waitFlag = fs.Bool("wait", false, "block until the job is terminal and print its result")
		prioFlag = fs.Int("priority", 0, "queue priority (higher runs first)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specFlag == "" {
		fs.Usage()
		return fmt.Errorf("missing -spec FILE|-")
	}
	var spec client.Spec
	if err := readJSONArg(*specFlag, &spec); err != nil {
		return fmt.Errorf("read spec: %w", err)
	}
	ctx := context.Background()
	c := rf.newClient()
	// Submit async and wait client-side: client.Wait survives transport
	// drops (SSE with reconnect, polling fallback), where a single
	// server-side wait=true request would die with the connection.
	view, err := c.Submit(ctx, spec, client.SubmitOptions{Priority: *prioFlag})
	if err != nil {
		return err
	}
	if *waitFlag {
		result, err := c.Wait(ctx, view.ID)
		if err != nil {
			return err
		}
		if view, err = c.Job(ctx, view.ID); err != nil {
			return err
		}
		view.Result = result
	}
	return printJSON(view)
}

// sweepCmd submits a parameter grid to a remote server; with -watch it
// follows the merged event stream until every job is terminal.
func sweepCmd(args []string) error {
	fs := flag.NewFlagSet("feddg sweep", flag.ContinueOnError)
	rf := clientFlags(fs)
	var (
		sweepFlag = fs.String("sweep", "", "Sweep JSON file (- = stdin)")
		waitFlag  = fs.Bool("wait", false, "block until every sweep job is terminal and print results")
		watchFlag = fs.Bool("watch", false, "stream live per-round progress while waiting (implies -wait)")
		prioFlag  = fs.Int("priority", 0, "queue priority (higher runs first)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweepFlag == "" {
		fs.Usage()
		return fmt.Errorf("missing -sweep FILE|-")
	}
	var sw client.Sweep
	if err := readJSONArg(*sweepFlag, &sw); err != nil {
		return fmt.Errorf("read sweep: %w", err)
	}
	ctx := context.Background()
	c := rf.newClient()
	// Submit async; -wait/-watch then block client-side, where the SDK
	// reconnects across transport drops instead of dying with a single
	// long-lived wait=true request.
	view, err := c.SubmitSweep(ctx, sw, client.SubmitOptions{Priority: *prioFlag})
	if err != nil {
		return err
	}
	switch {
	case *watchFlag:
		fmt.Printf("sweep %s: %d jobs (%d cells)\n", view.ID, view.Counts.Unique, view.Counts.Total)
		if err := watchEvents(ctx, c, view.ID); err != nil {
			return err
		}
		if view, err = c.Sweep(ctx, view.ID); err != nil {
			return err
		}
	case *waitFlag:
		if view, err = c.WaitSweep(ctx, view.ID); err != nil {
			return err
		}
	}
	if err := printJSON(view); err != nil {
		return err
	}
	if (*waitFlag || *watchFlag) && view.Counts.Failed > 0 {
		return fmt.Errorf("sweep %s: %d of %d jobs failed", view.ID, view.Counts.Failed, view.Counts.Unique)
	}
	return nil
}

// watchCmd follows the live event stream of a job (job-N) or sweep
// (sweep-N) until it is terminal.
func watchCmd(args []string) error {
	fs := flag.NewFlagSet("feddg watch", flag.ContinueOnError)
	rf := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("usage: feddg watch [-server URL] job-N|sweep-N")
	}
	return watchEvents(context.Background(), rf.newClient(), fs.Arg(0))
}

// watchEvents streams an ID's events to stdout, one line per event,
// with a live training rate derived from successive round events of the
// same job. Each line ends with the event's trace ID so a watcher can
// jump straight from terminal output to the server log.
func watchEvents(ctx context.Context, c *client.Client, id string) error {
	var stream *client.EventStream
	var err error
	if strings.HasPrefix(id, "sweep-") {
		stream, err = c.SweepEvents(ctx, id)
	} else {
		stream, err = c.Events(ctx, id)
	}
	if err != nil {
		return err
	}
	defer stream.Close()
	type progress struct {
		round int
		at    time.Time
	}
	last := map[string]progress{}
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		trace := ""
		if ev.Trace != "" {
			trace = "  [" + ev.Trace + "]"
		}
		if ev.Rounds > 0 {
			rate := ""
			if prev, ok := last[ev.JobID]; ok && ev.Round > prev.round {
				if dt := ev.Time.Sub(prev.at).Seconds(); dt > 0 {
					rate = fmt.Sprintf("  %.1f rounds/s", float64(ev.Round-prev.round)/dt)
				}
			}
			last[ev.JobID] = progress{round: ev.Round, at: ev.Time}
			fmt.Printf("%s  %-9s  round %d/%d%s%s\n", ev.JobID, ev.State, ev.Round, ev.Rounds, rate, trace)
		} else {
			fmt.Printf("%s  %-9s%s\n", ev.JobID, ev.State, trace)
		}
		if ev.Err != "" {
			fmt.Printf("%s  error: %s\n", ev.JobID, ev.Err)
		}
	}
}

func runExperiment(exp string, cfg eval.Config, outDir string) error {
	switch exp {
	case "table1":
		results, err := eval.RunLTDO(cfg)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println(r.Table("Table I — LTDO on " + r.Dataset).Render())
		}
	case "table2":
		results, err := eval.RunLODO(cfg)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println(r.Table("Table II — LODO on " + r.Dataset).Render())
		}
	case "table3":
		r, err := eval.RunIWildCam(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
	case "table4":
		pc := attack.DefaultPrivacyConfig(cfg.Seed)
		r, err := attack.RunPrivacy(pc)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
	case "table5":
		r, err := eval.RunAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
	case "fig1":
		r, err := eval.RunLandscape(cfg, outDir)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
	case "fig3":
		r, err := eval.RunConvergence(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			fmt.Println(t.Render())
		}
	case "fig4":
		r, err := eval.RunOverhead(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
	case "fig5":
		r, err := eval.RunClientScaling(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			fmt.Println(t.Render())
		}
	case "fig6", "fig7":
		pc := attack.DefaultPrivacyConfig(cfg.Seed)
		pc.OutDir = outDir
		r, err := attack.RunPrivacy(pc)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
		fmt.Printf("reconstruction grids written under %s/\n", outDir)
	case "fig8":
		r, err := eval.RunStyleTransferComparison(cfg, outDir)
		if err != nil {
			return err
		}
		fmt.Println(r.Table().Render())
		fmt.Printf("style-transfer grids written under %s/\n", outDir)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
