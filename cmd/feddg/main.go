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
//	       [-lease-ttl 15s] [-dispatch-only] [-parallelism N]
//	feddg serve -worker -join URL [-worker-name NAME] [-slots N]
//	       [-api-key KEY] [-metrics-addr ADDR] [-log-level LEVEL]
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
// serve -worker -join URL` nodes register with it, pull job leases,
// execute them on a memory-only local engine whose pool is -slots, and
// upload results + checkpoints; the coordinator requeues the leases of
// crashed workers after -lease-ttl without a heartbeat, and
// -dispatch-only turns off local execution so the coordinator only
// schedules. A worker keeps no cache and no journal: the coordinator
// holds every result it uploads. Each serve flag belongs to one mode,
// and the other mode refuses it by name. With -metrics-addr it
// additionally serves the operational endpoints (Prometheus /metrics,
// /debug/pprof/*, /v1/healthz) on a second listener that operators can
// keep off the public network. With -api-keys the API requires Authorization: Bearer
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
	"errors"
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
	// -h prints the usage and succeeds, as it did under flag.ExitOnError.
	if err := run(); err != nil && !errors.Is(err, flag.ErrHelp) {
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
	return expCmd(os.Args[1:])
}

// expCmd regenerates the experiments -exp names on a local engine.
func expCmd(args []string) error {
	fs := flag.NewFlagSet("feddg", flag.ContinueOnError)
	var (
		expFlag       = fs.String("exp", "", "experiment id (table1..table5, fig1, fig3..fig8, all)")
		scaleFlag     = fs.String("scale", "small", "experiment scale: small|paper")
		seedFlag      = fs.Uint64("seed", 1, "root random seed")
		seedsFlag     = fs.Int("seeds", 1, "number of seeds to average")
		outFlag       = fs.String("out", "out", "output directory for figure artifacts")
		cacheFlag     = fs.String("cache", "", "result-cache directory (empty = in-memory only)")
		cacheMaxFlag  = fs.Int64("cache-max-bytes", 0, "disk-cache size cap in bytes, LRU-by-mtime eviction (0 = unbounded)")
		workersFlag   = fs.Int("workers", 0, "engine worker-pool size (0 = NumCPU/2)")
		saveModelFlag = fs.String("save-model", "", "directory receiving each run's trained-model checkpoint (cached runs included)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expFlag == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp")
	}
	if *workersFlag < 0 {
		return fmt.Errorf("-workers %d: the pool size cannot be negative", *workersFlag)
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

// coordinatorFlags and workerFlags name the serve flags only one mode
// reads; the other mode refuses each by name rather than ignore it.
var (
	coordinatorFlags = []string{"addr", "api-keys", "lease-ttl", "dispatch-only",
		"cache", "cache-max-bytes", "workers", "parallelism"}
	workerFlags = []string{"join", "worker-name", "slots", "api-key"}
)

// serve runs the experiment engine behind the HTTP/JSON job API, or
// with -worker a fleet worker node, until the process receives SIGINT
// or SIGTERM; every flag is checked before anything is created. A
// coordinator then drains gracefully: in-flight requests (including SSE
// streams, whose contexts derive from the signal context) get
// shutdownGrace to finish before the listener is forced closed, and the
// engine cancels any still-running jobs.
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
		slotsFlag    = fs.Int("slots", 1, "worker mode: concurrent leases to execute, the worker engine's pool size")
		apiKeyFlag   = fs.String("api-key", os.Getenv("FEDDG_API_KEY"), "worker mode: API key sent to the coordinator (default $FEDDG_API_KEY)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	unread, mode := workerFlags, "without -worker"
	if *workerFlag {
		unread, mode = coordinatorFlags, "by a -worker node"
	}
	for _, name := range unread {
		if set[name] {
			return fmt.Errorf("-%s is not read %s", name, mode)
		}
	}
	switch {
	case *workerFlag && *joinFlag == "":
		return fmt.Errorf("-worker needs -join URL (the coordinator's API address)")
	case *workerFlag && *slotsFlag < 1:
		return fmt.Errorf("-slots %d: a worker runs at least one lease at a time", *slotsFlag)
	case *workersFlag < 0:
		return fmt.Errorf("-workers %d: the pool size cannot be negative (-dispatch-only runs no local pool)", *workersFlag)
	case *dispatchFlag && set["workers"]:
		return fmt.Errorf("-dispatch-only runs no local pool, so -workers has nothing to size")
	case *cacheMaxFlag > 0 && *cacheFlag == "":
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *workerFlag {
		return serveWorker(ctx, workerConfig{join: *joinFlag, name: *nameFlag, apiKey: *apiKeyFlag,
			slots: *slotsFlag, metricsAddr: *metricsFlag})
	}

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
	if ops := serveOps(ctx, *metricsFlag, eng, "feddg serve"); ops != nil {
		// A scrape that outlives the API drain is not worth waiting on.
		defer ops.Close()
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
	// The deferred ops.Close(), coord.Close() and eng.Close() run in
	// that order: the reaper stops, then the engine cancels pending and
	// running jobs and drains the worker pool before the process exits.
	return nil
}

// serveOps starts the ops listener (metrics, pprof, healthz) on addr,
// apart from the API so it can stay on a loopback or cluster-internal
// address; with addr "" it starts none and returns nil.
func serveOps(ctx context.Context, addr string, eng *engine.Engine, who string) *http.Server {
	if addr == "" {
		return nil
	}
	ops := &http.Server{
		Addr:        addr,
		Handler:     engine.NewOpsMux(eng),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	go func() {
		if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("%s: ops listener: %v", who, err)
		}
	}()
	log.Printf("%s: ops endpoints (metrics, pprof, healthz) on %s", who, addr)
	return ops
}

// workerConfig carries the `feddg serve -worker` flag values.
type workerConfig struct {
	join, name, apiKey string
	slots              int
	metricsAddr        string
}

// serveWorker runs one fleet worker node until ctx ends: a pull loop
// against the coordinator at -join over a memory-only engine whose pool
// is -slots, so each lease trains with ceil(NumCPU/slots) goroutines.
// The node keeps no cache dir and no journal, since the coordinator
// holds every result it uploads; a killed node has nothing to replay.
// On a graceful stop in-flight leases are abandoned back to the
// coordinator so their jobs requeue immediately instead of waiting out
// the TTL.
func serveWorker(ctx context.Context, cfg workerConfig) error {
	name := cfg.name
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			return fmt.Errorf("-worker-name not set and hostname unavailable: %w", err)
		}
		name = host
	}
	eng, err := engine.New(engine.Options{Workers: cfg.slots})
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
	if ops := serveOps(ctx, cfg.metricsAddr, eng, "feddg worker"); ops != nil {
		defer ops.Close()
	}
	log.Printf("feddg worker: %s node %q joining %s (%d slot(s))", telemetry.Build(), name, cfg.join, cfg.slots)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
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
