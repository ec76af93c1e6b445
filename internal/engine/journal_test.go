package engine

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// journalLines reads the on-disk journal and returns its non-empty
// lines.
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestJournalCrashRecoveryMidSweep is the durability contract end to
// end: an engine killed with a sweep still queued reboots on the same
// cache dir, replays the sweep from the journal, and finishes every
// cell — serving the already-cached cell without re-training.
func TestJournalCrashRecoveryMidSweep(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	e1, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	// Warm the cache with the sweep's first cell so recovery can prove
	// the cached-cell path (hit, zero rounds) separately from the
	// re-trained cells.
	warm, err := e1.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Wedge the single worker so the sweep's fresh cells are still
	// queued when the engine "crashes".
	started := make(chan struct{})
	if _, err := e1.SubmitFunc(FuncKey("crash-gate"), 0, func(ctx context.Context) (*Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	sw := Sweep{Base: tinySpec("FedAvg"), Seeds: []SeedSpec{{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}}}
	const trace = "crash-sweep"
	if _, err := e1.SubmitSweepTraced(sw, 0, trace); err != nil {
		t.Fatal(err)
	}
	// Live set at crash time: the sweep plus its three uncached cells
	// (the warmed cell was a cache hit — its record settled at submit).
	if got := e1.journal.liveCount(); got != 4 {
		t.Fatalf("live journal records before crash = %d, want 4", got)
	}

	// "Crash": drain-cancel everything. Drain cancellations must NOT
	// settle journal records — the queue is what the journal protects.
	e1.Close()

	e2, err := New(Options{Workers: 2, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.journal.metrics.replayed.With("sweep").Value(); got != 1 {
		t.Fatalf("journal_replayed_total{kind=sweep} = %d, want 1", got)
	}
	if got := e2.journal.metrics.replayed.With("job").Value(); got != 0 {
		t.Fatalf("journal_replayed_total{kind=job} = %d, want 0 (cells ride the sweep)", got)
	}

	batches := e2.Batches()
	if len(batches) != 1 || batches[0].TraceID != trace {
		t.Fatalf("replayed batches = %+v, want one with trace %q", batches, trace)
	}
	results, err := batches[0].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("replayed sweep returned %d results, want 4", len(results))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("cell %d has no result", i)
		}
	}

	// The warmed cell must come from the cache: only the three fresh
	// cells train (2 rounds each).
	st := e2.Stats()
	if st.RoundsExecuted != 6 {
		t.Fatalf("rebooted engine trained %d rounds, want 6 (cached cell must not re-train)", st.RoundsExecuted)
	}
	if st.CacheHits < 1 {
		t.Fatalf("rebooted engine stats = %+v, want at least one cache hit", st)
	}

	// Once the sweep is terminal its journal records settle (the sweep
	// watcher writes sweep-done asynchronously).
	deadline := time.Now().Add(30 * time.Second)
	for e2.journal.liveCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still has %d live records after sweep completion", e2.journal.liveCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalCompaction drives explicit compaction: terminal entries
// vanish from disk, live submits survive a reload in order.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, newJournalMetrics(telemetry.NewRegistry()), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec("FedAvg")
	for i := 0; i < 6; i++ {
		jl.jobSubmitted(fmt.Sprintf("key-%02d", i), fmt.Sprintf("tr-%d", i), "alice", i, "", spec)
	}
	for i := 0; i < 4; i++ {
		jl.jobDone(fmt.Sprintf("key-%02d", i), StateDone)
	}
	if got := len(journalLines(t, dir)); got != 10 {
		t.Fatalf("journal has %d lines before compaction, want 10", got)
	}
	jl.compact()
	if got := len(journalLines(t, dir)); got != 2 {
		t.Fatalf("journal has %d lines after compaction, want 2 live submits", got)
	}
	if got := jl.metrics.compactions.Value(); got != 1 {
		t.Fatalf("journal_compactions_total = %d, want 1", got)
	}
	// The append handle must still work on the rewritten file.
	jl.jobDone("key-04", StateFailed)
	jl.Close()

	jl2, err := openJournal(dir, newJournalMetrics(telemetry.NewRegistry()), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if got := jl2.liveCount(); got != 1 {
		t.Fatalf("reloaded journal live = %d, want 1", got)
	}
	jobs, sweeps := jl2.live()
	if len(sweeps) != 0 || len(jobs) != 1 || jobs[0].Key != "key-05" {
		t.Fatalf("reloaded live set = jobs %+v sweeps %+v, want only key-05", jobs, sweeps)
	}
	if jobs[0].Tenant != "alice" || jobs[0].Priority != 5 || jobs[0].Spec == nil || jobs[0].Spec.Method != "FedAvg" {
		t.Fatalf("reloaded record lost fields: %+v", jobs[0])
	}
}

// TestJournalAutoCompaction checks the every-N-appends trigger.
func TestJournalAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, newJournalMetrics(telemetry.NewRegistry()), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	jl.compactEvery = 4
	spec := tinySpec("FedSR")
	for i := 0; i < 2; i++ {
		key := fmt.Sprintf("auto-%d", i)
		jl.jobSubmitted(key, "", "anonymous", 0, "", spec)
		jl.jobDone(key, StateDone)
	}
	if got := jl.metrics.compactions.Value(); got != 1 {
		t.Fatalf("journal_compactions_total = %d, want 1 after %d appends", got, 4)
	}
	if got := len(journalLines(t, dir)); got != 0 {
		t.Fatalf("journal has %d lines after auto-compaction of settled records, want 0", got)
	}
}

// TestJournalCorruptLineSkipAndCount writes garbage into the journal
// (a torn final write, binary noise) and checks reload skips exactly
// those lines — counting them — while intact records replay.
func TestJournalCorruptLineSkipAndCount(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, newJournalMetrics(telemetry.NewRegistry()), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec("PARDON")
	jl.jobSubmitted("survivor-key", "tr-ok", "alice", 3, "", spec)
	jl.Close()

	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"op\":\"submit\",\"kind\":\"job\",\"key\":\"torn\n\x00\x01binary-noise\x02\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := telemetry.NewRegistry()
	jl2, err := openJournal(dir, newJournalMetrics(reg), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if got := jl2.metrics.corrupt.Value(); got != 2 {
		t.Fatalf("journal_corrupt_lines_total = %d, want 2", got)
	}
	jobs, _ := jl2.live()
	if len(jobs) != 1 || jobs[0].Key != "survivor-key" || jobs[0].Spec == nil || jobs[0].Spec.Method != "PARDON" {
		t.Fatalf("live after corrupt reload = %+v, want the intact survivor-key record", jobs)
	}

	// A full engine boot over the damaged journal replays the survivor
	// rather than failing.
	e, err := New(Options{Workers: 2, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// survivor-key does not match the spec's true hash (the journal
	// trusts its key), so replay re-enqueues it as a fresh submission
	// under the spec's real content address.
	if got := e.journal.metrics.replayed.With("job").Value(); got != 1 {
		t.Fatalf("journal_replayed_total{kind=job} = %d, want 1", got)
	}
}

// TestJournalLeaseReplay is the distributed half of the durability
// contract: a coordinator crash with jobs leased to remote workers must
// replay exactly the UNSETTLED leases — their jobs re-enqueue and their
// lease edges surface through BootLeases — while a remotely completed
// job answers from the cache with zero extra training rounds.
func TestJournalLeaseReplay(t *testing.T) {
	dir := t.TempDir()
	// Workers: -1 — a dispatch-only coordinator; nothing runs locally,
	// so claims and completions are fully under test control.
	e1, err := New(Options{Workers: -1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	specA, specB := tinySpec("FedAvg"), tinySpec("FedAvg")
	specB.Seed = 2
	jA, err := e1.Submit(specA, 0)
	if err != nil {
		t.Fatal(err)
	}
	jB, err := e1.Submit(specB, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Lease both jobs to a remote worker.
	claimed := map[string]*Job{}
	for i := 0; i < 2; i++ {
		j, ok := e1.ClaimRemote("w1", nil, nil)
		if !ok {
			t.Fatalf("claim %d: queue empty, want a lease", i)
		}
		claimed[j.Key] = j
	}
	if claimed[jA.Key] == nil || claimed[jB.Key] == nil {
		t.Fatalf("claimed keys %v, want both submitted jobs", claimed)
	}
	if got := claimed[jA.Key].Worker(); got != "w1" {
		t.Fatalf("leased job worker = %q, want w1", got)
	}

	// The worker finishes A (with a checkpoint blob), then the
	// coordinator "crashes" with B still leased.
	resA := &Result{SpecHash: jA.Key, Method: "FedAvg",
		Stats: []RoundStat{{Round: 1, ValAcc: 0.5, TestAcc: 0.5}}, ElapsedSec: 0.01}
	if err := e1.CompleteRemote(claimed[jA.Key], resA, []byte("blob-a"), nil); err != nil {
		t.Fatal(err)
	}
	if jA.State() != StateDone {
		t.Fatalf("remotely completed job state = %s, want done", jA.State())
	}
	e1.Close()

	e2, err := New(Options{Workers: -1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	// Only B's lease edge survives; A settled.
	boot := e2.BootLeases()
	if len(boot) != 1 || boot[jB.Key] != "w1" {
		t.Fatalf("boot leases = %v, want {%.12s: w1}", boot, jB.Key)
	}
	// The boot severed the edges: a second crash would not replay them.
	if live := e2.journal.liveLeases(); live != nil {
		t.Fatalf("live leases after boot = %v, want none", live)
	}
	if got := e2.journal.metrics.replayed.With("job").Value(); got != 1 {
		t.Fatalf("journal_replayed_total{kind=job} = %d, want 1 (only the leased job)", got)
	}

	// The replayed B is queued and claimable by a (new) worker.
	j2, ok := e2.ClaimRemote("w2", nil, nil)
	if !ok {
		t.Fatal("replayed leased job not claimable")
	}
	if j2.Key != jB.Key {
		t.Fatalf("replayed claim key %.12s, want %.12s", j2.Key, jB.Key)
	}

	// A answers from the cache: no duplicate training rounds anywhere.
	jA2, err := e2.Submit(specA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if jA2.State() != StateDone || !jA2.Cached() {
		t.Fatalf("resubmitted completed job state=%s cached=%v, want done from cache", jA2.State(), jA2.Cached())
	}
	st := e2.Stats()
	if st.CacheHits != 1 || st.RoundsExecuted != 0 {
		t.Fatalf("stats after replay = %+v, want 1 cache hit and 0 rounds trained", st)
	}
	if blob, ok, _ := e2.ModelBlob(jA.Key); !ok || string(blob) != "blob-a" {
		t.Fatalf("checkpoint blob after reboot = %q/%v, want blob-a", blob, ok)
	}
}

// TestRemoteClaimJournalsOneRecord: a remote claim is one lifecycle
// edge and appends one journal record, the lease, which already implies
// the start.
func TestRemoteClaimJournalsOneRecord(t *testing.T) {
	e := newTestEngine(t, Options{Workers: -1, CacheDir: t.TempDir(), Metrics: telemetry.NewRegistry()})
	if _, err := e.Submit(tinySpec("FedAvg"), 0); err != nil {
		t.Fatal(err)
	}
	records := e.Metrics().Counter("journal_records_total", "")
	before := records.Value()
	if _, ok := e.ClaimRemote("w1", nil, nil); !ok {
		t.Fatal("claim: queue empty, want a lease")
	}
	if got := records.Value() - before; got != 1 {
		t.Fatalf("a remote claim appended %d journal records, want 1 (the lease)", got)
	}
}
