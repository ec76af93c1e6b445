package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

	// Warm the cache with the sweep's first cell so recovery can prove
	// the cached-cell path (hit, zero rounds) separately from the
	// re-trained cells.
	e0, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e0.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	e0.Close()

	// A dispatch-only engine trains nothing, so the sweep's fresh cells
	// are still queued when it "crashes".
	e1, err := New(Options{Workers: -1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	sw := Sweep{Base: tinySpec("FedAvg"), Seeds: []SeedSpec{{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}}}
	const trace = "crash-sweep"
	if _, err := e1.SubmitSweepAs(sw, 0, trace, ""); err != nil {
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
	// Start, lease and release records, as earlier builds wrote, are
	// neither corrupt nor terminal; then a torn line and binary noise.
	if _, err := f.WriteString("{\"op\":\"start\",\"kind\":\"job\",\"key\":\"survivor-key\"}\n" +
		"{\"op\":\"lease\",\"kind\":\"job\",\"key\":\"survivor-key\",\"worker\":\"w1\"}\n" +
		"{\"op\":\"release\",\"kind\":\"job\",\"key\":\"survivor-key\",\"worker\":\"w1\"}\n" +
		"{\"op\":\"submit\",\"kind\":\"job\",\"key\":\"torn\n\x00\x01binary-noise\x02\n"); err != nil {
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
// replay exactly the UNSETTLED leases — their jobs re-enqueue queued and
// unleased — while a remotely completed job answers from the cache with
// zero extra training rounds.
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
		j, ok := e1.ClaimRemote(context.Background(), "w1", nil)
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

	// The worker uploads A's checkpoint blob and finishes A, then the
	// coordinator "crashes" with B still leased.
	if err := e1.Store().PutBlob(jA.Key, []byte("blob-a")); err != nil {
		t.Fatal(err)
	}
	resA := &Result{SpecHash: jA.Key, Method: "FedAvg",
		Stats: []RoundStat{{Round: 1, ValAcc: 0.5, TestAcc: 0.5}}, ElapsedSec: 0.01}
	if err := e1.CompleteRemote(claimed[jA.Key], resA, nil); err != nil {
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

	// Only B replays, queued and held by no worker; A settled.
	var replayed *Job
	for _, j := range e2.Jobs() {
		if j.Key == jB.Key {
			replayed = j
		}
	}
	if replayed == nil || replayed.State() != StateQueued || replayed.Worker() != "" {
		t.Fatalf("replayed leased job = %v, want it queued with no worker", replayed)
	}
	if got := e2.journal.metrics.replayed.With("job").Value(); got != 1 {
		t.Fatalf("journal_replayed_total{kind=job} = %d, want 1 (only the leased job)", got)
	}

	// The replayed B is queued and claimable by a (new) worker.
	j2, ok := e2.ClaimRemote(context.Background(), "w2", nil)
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

// requireSubmitDoneOnly waits for the settled job's done record, then
// fails unless the journal holds exactly its submit and its done record,
// each counted once by journal_records_total.
func requireSubmitDoneOnly(t *testing.T, e *Engine, dir string) {
	t.Helper()
	// A local run's done record lands after the job's waiters wake; it
	// is applied and appended under one hold of the journal lock.
	for deadline := time.Now().Add(10 * time.Second); e.journal.liveCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("done record never journaled")
		}
	}
	var ops []string
	for _, l := range journalLines(t, dir) {
		var rec journalRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, rec.Op)
	}
	if strings.Join(ops, ",") != "submit,done" {
		t.Fatalf("the job journaled %v, want [submit done]", ops)
	}
	if got := e.Metrics().Counter("journal_records_total", "").Value(); got != 2 {
		t.Fatalf("journal_records_total = %d, want 2", got)
	}
}

// TestLocalRunJournalsTwoRecords: a local run appends exactly its submit
// and its done record; the local start edge journals nothing.
func TestLocalRunJournalsTwoRecords(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	j, err := e.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got := j.State(); got != StateDone {
		t.Fatalf("job ended %s, want %s", got, StateDone)
	}
	requireSubmitDoneOnly(t, e, dir)
}

// TestRemoteClaimJournalsOneRecord: from its claim on, a remotely run
// job appends one journal record, its done. The claim itself appends
// none: who holds a job is not journaled.
func TestRemoteClaimJournalsOneRecord(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: -1, CacheDir: dir})
	j, err := e.Submit(tinySpec("FedAvg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	records := e.Metrics().Counter("journal_records_total", "")
	before := records.Value()
	if leased, ok := e.ClaimRemote(context.Background(), "w1", nil); !ok || leased != j {
		t.Fatalf("claim = %v, %v; want the submitted job", leased, ok)
	}
	if got := records.Value() - before; got != 0 {
		t.Fatalf("a remote claim appended %d journal records, want 0", got)
	}
	if err := e.CompleteRemote(j, &Result{SpecHash: j.Key, Method: "FedAvg"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateDone {
		t.Fatalf("job ended %s, want %s", got, StateDone)
	}
	if got := records.Value() - before; got != 1 {
		t.Fatalf("a claimed job appended %d journal records, want 1 (the done)", got)
	}
	requireSubmitDoneOnly(t, e, dir)
}

// TestEveryJobJournalsSubmitAndDone: a remotely leased job appends
// exactly its submit and its done record however often its lease was
// requeued, and when it is cancelled while leased. The local run and
// the plain claim-then-complete cases are TestLocalRunJournalsTwoRecords
// and TestRemoteClaimJournalsOneRecord.
func TestEveryJobJournalsSubmitAndDone(t *testing.T) {
	for _, tc := range []struct {
		name     string
		requeues int
		cancel   bool
		want     State
	}{
		{"remote requeued once", 1, false, StateDone},
		{"remote requeued 3 times", 3, false, StateDone},
		{"remote cancel", 0, true, StateCancelled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := newTestEngine(t, Options{Workers: -1, CacheDir: dir})
			j, err := e.Submit(tinySpec("FedAvg"), 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= tc.requeues; i++ {
				if leased, ok := e.ClaimRemote(context.Background(), "w1", nil); !ok || leased != j {
					t.Fatalf("claim %d = %v, %v; want the submitted job", i, leased, ok)
				}
				if i < tc.requeues && !e.RequeueRemote(j) {
					t.Fatalf("lease %d not requeued", i)
				}
			}
			if tc.cancel {
				if err := e.Cancel(j.ID); err != nil {
					t.Fatal(err)
				}
				err = e.CompleteRemote(j, nil, fmt.Errorf("worker confirmed cancel: %w", context.Canceled))
			} else {
				err = e.CompleteRemote(j, &Result{SpecHash: j.Key, Method: "FedAvg"}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := j.State(); got != tc.want {
				t.Fatalf("job ended %s, want %s", got, tc.want)
			}
			requireSubmitDoneOnly(t, e, dir)
		})
	}
}

// unsyncedFile passes writes through to the journal file but fails
// every fsync: a record reaches the file without being durable.
type unsyncedFile struct{ *os.File }

func (unsyncedFile) Sync() error { return errors.New("fsync: input/output error") }

// TestSubmitRefusedWhenJournalFails: a job or sweep submission the
// journal cannot make durable is answered 503 unavailable, is never
// enqueued or counted as a journal record, and is not replayed by the
// next boot on the same directory, though its line reached the file.
func TestSubmitRefusedWhenJournalFails(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	for path, body := range map[string]any{
		"/v1/jobs":   map[string]any{"spec": tinySpec("FedAvg")},
		"/v1/sweeps": map[string]any{"sweep": tinySweep([]string{"FedAvg"}, 1, 2)},
	} {
		e.journal.mu.Lock()
		if f, ok := e.journal.f.(*os.File); ok { // a failed append reopens the file
			e.journal.f = unsyncedFile{f}
		}
		e.journal.mu.Unlock()
		var env errorEnvelope
		if code := postJSON(t, srv.Client(), srv.URL+path, body, &env); code != http.StatusServiceUnavailable || env.Err.Code != ErrCodeUnavailable {
			t.Fatalf("POST %s with a failing journal = %d %+v, want 503 %s", path, code, env, ErrCodeUnavailable)
		}
	}
	if n := len(e.Jobs()); n != 0 {
		t.Fatalf("%d jobs enqueued by refused submissions, want 0", n)
	}
	if n := len(e.Batches()); n != 0 {
		t.Fatalf("%d sweeps registered by a refused submission, want 0", n)
	}
	if got := e.Metrics().Counter("journal_records_total", "").Value(); got != 0 {
		t.Fatalf("journal_records_total = %d for records that never reached the disk, want 0", got)
	}
	if n := e.journal.liveCount(); n != 0 {
		t.Fatalf("journal holds %d live records after refused submissions, want 0", n)
	}
	e.Close()
	e2 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	if n := len(e2.Jobs()); n != 0 {
		t.Fatalf("reboot replayed %d refused jobs, want 0", n)
	}
}

// TestJournalReplaySettlesMovedAddress boots twice over a journal whose
// records were keyed by another build's addresses: a standalone job and
// a sweep cell. The first boot re-runs both under their current
// addresses and must settle the old records too, so the second boot
// replays nothing and compacts the journal to empty.
func TestJournalReplaySettlesMovedAddress(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, newJournalMetrics(telemetry.NewRegistry()), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	sw := tinySweep([]string{"FedAvg"}, 2)
	cells, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.jobSubmitted("old-address", "tr-job", "", 0, "", tinySpec("FedAvg")); err != nil {
		t.Fatal(err)
	}
	if err := jl.sweepSubmitted("old-sweep", "", 0, sw); err != nil {
		t.Fatal(err)
	}
	if err := jl.jobSubmitted("old-cell", "old-sweep-c0", "", 0, "old-sweep", cells[0]); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e1, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	if got := e1.journal.metrics.replayed.With("job").Value(); got != 1 {
		t.Fatalf("boot 1 replayed %d jobs, want 1", got)
	}
	for _, j := range e1.Jobs() {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The sweep watcher writes the sweep's done record asynchronously.
	for {
		e1.journal.mu.Lock()
		_, live := e1.journal.sweeps["old-sweep"]
		e1.journal.mu.Unlock()
		if !live {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("replayed sweep never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	e1.Close()

	e2, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.journal.metrics.replayed.With("job").Value(); got != 0 {
		t.Fatalf("boot 2 replayed %d jobs, want 0", got)
	}
	if got := e2.journal.liveCount(); got != 0 {
		t.Fatalf("boot 2 journal has %d live records, want 0", got)
	}
	if got := len(journalLines(t, dir)); got != 0 {
		t.Fatalf("boot 2 journal has %d lines after compaction, want 0", got)
	}
}

// TestJournalReplaySettlesInvalidSpec boots three times over a journal
// holding a job and a sweep whose Specs no longer validate (an unknown
// method). The first boot cannot replay them and settles both failed,
// so no record is live after it and later boots neither retry nor warn
// again: one warning each over three boots.
func TestJournalReplaySettlesInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, newJournalMetrics(telemetry.NewRegistry()), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.jobSubmitted("bad-key", "tr-bad", "", 0, "", tinySpec("NoSuchMethod")); err != nil {
		t.Fatal(err)
	}
	if err := jl.sweepSubmitted("bad-sweep", "", 0, tinySweep([]string{"NoSuchMethod"}, 1)); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	var logs strings.Builder
	logger := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
	for boot := 1; boot <= 3; boot++ {
		e, err := New(Options{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry(), Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		live := e.journal.liveCount()
		jobs := len(e.Jobs())
		e.Close()
		if live != 0 || jobs != 0 {
			t.Fatalf("boot %d: %d live journal records and %d jobs, want 0 and 0", boot, live, jobs)
		}
	}
	for _, msg := range []string{"journal job replay failed", "journal sweep replay failed"} {
		if n := strings.Count(logs.String(), msg); n != 1 {
			t.Fatalf("%q logged %d times over three boots, want 1:\n%s", msg, n, logs.String())
		}
	}
}
