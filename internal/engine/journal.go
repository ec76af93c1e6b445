package engine

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// journalFileName is the write-ahead job journal, living next to the
// Store's cache files so one directory is the engine's whole durable
// state. The Store's disk-size cap never evicts it.
const journalFileName = "journal.jsonl"

// journalCompactEvery bounds how many appends accumulate before the
// journal rewrites itself down to its live records. Terminal entries
// are pure garbage after their `done` record, so without compaction a
// long-running server's journal would grow forever.
const journalCompactEvery = 4096

// Journal operations. A job (or sweep) appears as a `submit` record and
// a terminal `done`; replay re-enqueues every submit without a matching
// done. Who holds a job meanwhile, locally or on a remote lease, is not
// journaled: replay re-enqueues an unsettled job unleased either way.
const (
	journalOpSubmit = "submit"
	journalOpDone   = "done"
)

// Journal record kinds.
const (
	journalKindJob   = "job"
	journalKindSweep = "sweep"
)

// journalRecord is one JSONL line of the write-ahead journal. Jobs are
// keyed by their Spec's content-address; sweeps by their batch trace ID
// (batch IDs are ordinal and reset across restarts, traces do not).
type journalRecord struct {
	Op   string `json:"op"`
	Kind string `json:"kind"`
	Key  string `json:"key"`
	// Submit-record payload: everything replay needs to re-create the
	// submission faithfully (tenant attribution included).
	Trace    string `json:"trace,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// SweepTrace marks a job record as a cell of a journaled sweep;
	// replay then leaves the cell to its sweep's re-submission.
	SweepTrace string `json:"sweep_trace,omitempty"`
	Spec       *Spec  `json:"spec,omitempty"`
	Sweep      *Sweep `json:"sweep,omitempty"`
	// State is the terminal state of a done record.
	State State     `json:"state,omitempty"`
	At    time.Time `json:"at"`
}

// errJournal wraps a failed journal append. A submission whose record
// failed was never made durable, so it is refused, not acknowledged.
var errJournal = errors.New("engine: journal append failed")

// journalFile is the journal's append handle: the journal file, or in
// tests a stand-in that fails on demand.
type journalFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Journal is the engine's write-ahead job journal: an append-only JSONL
// file of submit and done records, fsync'd per append, that lets a
// rebooted engine re-enqueue every job and sweep that was queued or
// running when the process died. Re-submission is idempotent
// — Specs are content-addressed, so cells that completed before the
// crash are answered from the Store with zero training.
//
// All methods are safe for concurrent use and safe on a nil receiver
// (journaling off — memory-only engines).
type Journal struct {
	metrics *journalMetrics
	log     *slog.Logger

	mu      sync.Mutex
	path    string
	f       journalFile              // nil once closed
	jobs    map[string]journalRecord // live job submit records by content-address
	sweeps  map[string]journalRecord // live sweep submit records by trace
	order   []string                 // submission order of live keys ("j:"/"s:" prefixed)
	appends int                      // since the last compaction
	// compactEvery is journalCompactEvery, overridable by tests.
	compactEvery int
}

// openJournal opens (creating if missing) the journal in dir, parsing
// any existing records: the surviving live set is what Engine.New
// replays. Lines that fail to parse — a torn final append from the
// crash, or foreign bytes — are skipped and counted, never fatal: a
// corrupt tail must not take down recovery of the records before it.
func openJournal(dir string, m *journalMetrics, log *slog.Logger) (*Journal, error) {
	path := filepath.Join(dir, journalFileName)
	jl := &Journal{
		metrics:      m,
		log:          log,
		path:         path,
		jobs:         map[string]journalRecord{},
		sweeps:       map[string]journalRecord{},
		compactEvery: journalCompactEvery,
	}
	if err := jl.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	jl.f = f
	return jl, nil
}

// load parses the journal file into the live maps.
func (jl *Journal) load() error {
	f, err := os.Open(jl.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("engine: read journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Key == "" {
			jl.metrics.corrupt.Inc()
			jl.log.Warn("engine: skipping corrupt journal line", "path", jl.path, "line", line, "error", err)
			continue
		}
		jl.applyLocked(rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("engine: read journal: %w", err)
	}
	return nil
}

// applyLocked folds one record into the live maps; jl.mu must be held
// (or the journal not yet shared).
func (jl *Journal) applyLocked(rec journalRecord) {
	switch {
	case rec.Kind == journalKindJob && rec.Op == journalOpSubmit && rec.Spec != nil:
		if _, ok := jl.jobs[rec.Key]; !ok {
			jl.order = append(jl.order, "j:"+rec.Key)
		}
		jl.jobs[rec.Key] = rec
	case rec.Kind == journalKindJob && rec.Op == journalOpDone:
		delete(jl.jobs, rec.Key)
	case rec.Kind == journalKindSweep && rec.Op == journalOpSubmit && rec.Sweep != nil:
		if _, ok := jl.sweeps[rec.Key]; !ok {
			jl.order = append(jl.order, "s:"+rec.Key)
		}
		jl.sweeps[rec.Key] = rec
	case rec.Kind == journalKindSweep && rec.Op == journalOpDone:
		delete(jl.sweeps, rec.Key)
	case rec.Op == "start", rec.Op == "lease", rec.Op == "release":
		// Earlier builds journaled a local start and a remote lease and
		// its release; no current build does. A job started or leased but
		// unfinished replays exactly like a queued one.
	default:
		jl.metrics.corrupt.Inc()
		jl.log.Warn("engine: skipping malformed journal record", "op", rec.Op, "kind", rec.Kind, "key", rec.Key)
	}
	jl.metrics.live.Set(int64(len(jl.jobs) + len(jl.sweeps)))
}

// appendLocked writes one record and fsyncs it — the write-ahead
// guarantee: once a submission is acknowledged, a crash cannot lose it.
// It returns an errJournal for a record that did not reach the disk,
// including every append after Close. Only submit records act on the
// error; done records are best-effort, since replay answers a job whose
// done was lost from the Store.
func (jl *Journal) appendLocked(rec journalRecord) error {
	if jl.f == nil {
		return fmt.Errorf("%w: journal closed", errJournal)
	}
	start := time.Now()
	rec.At = start.UTC()
	raw, err := json.Marshal(rec)
	if err == nil {
		_, err = jl.f.Write(append(raw, '\n'))
	}
	if err == nil {
		err = jl.f.Sync()
	}
	if err != nil {
		jl.log.Warn("engine: journal append failed", "op", rec.Op, "key", rec.Key, "error", err)
		return fmt.Errorf("%w: %w", errJournal, err)
	}
	jl.metrics.append.Observe(time.Since(start).Seconds())
	jl.metrics.records.Inc()
	jl.appends++
	if jl.appends >= jl.compactEvery {
		jl.compactLocked()
	}
	return nil
}

// submitLocked folds a submit record into live (jl.jobs or jl.sweeps)
// and appends it. A failed append undoes the fold and rewrites the file
// from the live set, so the refused submission replays neither from
// memory nor from a line that half reached the disk.
func (jl *Journal) submitLocked(rec journalRecord, live map[string]journalRecord) error {
	prev, had := live[rec.Key]
	order := len(jl.order)
	jl.applyLocked(rec)
	err := jl.appendLocked(rec)
	if err == nil {
		return nil
	}
	if had {
		live[rec.Key] = prev
	} else {
		delete(live, rec.Key)
	}
	jl.order = jl.order[:order]
	jl.metrics.live.Set(int64(len(jl.jobs) + len(jl.sweeps)))
	if jl.f != nil {
		jl.compactLocked()
	}
	return err
}

// jobSubmitted journals a Spec submission (write-ahead: call before the
// scheduler accepts the job, and refuse the job on an error).
func (jl *Journal) jobSubmitted(key, trace, tenant string, priority int, sweepTrace string, spec Spec) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.submitLocked(journalRecord{
		Op: journalOpSubmit, Kind: journalKindJob, Key: key,
		Trace: trace, Tenant: tenant, Priority: priority,
		SweepTrace: sweepTrace, Spec: &spec,
	}, jl.jobs)
}

// jobDone journals a job reaching a terminal state, releasing its live
// record. No-op for unknown keys.
func (jl *Journal) jobDone(key string, state State) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, ok := jl.jobs[key]; !ok {
		return
	}
	rec := journalRecord{Op: journalOpDone, Kind: journalKindJob, Key: key, State: state}
	jl.applyLocked(rec)
	jl.appendLocked(rec)
}

// sweepSubmitted journals a sweep (keyed by batch trace) so a reboot
// reconstitutes the whole Batch, not just its cells; on an error the
// sweep must be refused.
func (jl *Journal) sweepSubmitted(trace, tenant string, priority int, sw Sweep) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.submitLocked(journalRecord{
		Op: journalOpSubmit, Kind: journalKindSweep, Key: trace,
		Trace: trace, Tenant: tenant, Priority: priority, Sweep: &sw,
	}, jl.sweeps)
}

// sweepDone journals every cell of a sweep reaching a terminal state.
func (jl *Journal) sweepDone(trace string) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, ok := jl.sweeps[trace]; !ok {
		return
	}
	rec := journalRecord{Op: journalOpDone, Kind: journalKindSweep, Key: trace}
	jl.applyLocked(rec)
	jl.appendLocked(rec)
}

// live snapshots the journal's live submit records in original
// submission order: the replay set.
func (jl *Journal) live() (jobs, sweeps []journalRecord) {
	if jl == nil {
		return nil, nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	for _, k := range jl.order {
		if rec, ok := jl.jobs[k[2:]]; ok && k[0] == 'j' {
			jobs = append(jobs, rec)
		} else if rec, ok := jl.sweeps[k[2:]]; ok && k[0] == 's' {
			sweeps = append(sweeps, rec)
		}
	}
	return jobs, sweeps
}

// compact rewrites the journal down to its live submit records
// (atomically: temp + fsync + rename), dropping every terminal entry.
// Called after boot replay and automatically every compactEvery
// appends.
func (jl *Journal) compact() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.compactLocked()
}

func (jl *Journal) compactLocked() {
	tmp, err := os.CreateTemp(filepath.Dir(jl.path), "journal-*.tmp")
	if err != nil {
		jl.log.Warn("engine: journal compaction failed", "error", err)
		return
	}
	w := bufio.NewWriter(tmp)
	kept := jl.order[:0]
	for _, k := range jl.order {
		var rec journalRecord
		var ok bool
		if k[0] == 'j' {
			rec, ok = jl.jobs[k[2:]]
		} else {
			rec, ok = jl.sweeps[k[2:]]
		}
		if !ok {
			continue
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		w.Write(raw)
		w.WriteByte('\n')
		kept = append(kept, k)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		jl.log.Warn("engine: journal compaction failed", "error", err)
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		jl.log.Warn("engine: journal compaction failed", "error", err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		jl.log.Warn("engine: journal compaction failed", "error", err)
		return
	}
	if err := os.Rename(tmp.Name(), jl.path); err != nil {
		os.Remove(tmp.Name())
		jl.log.Warn("engine: journal compaction failed", "error", err)
		return
	}
	// Re-open the append handle on the new file; the old handle points
	// at the unlinked inode.
	if jl.f != nil {
		jl.f.Close()
	}
	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		jl.log.Warn("engine: journal reopen after compaction failed", "error", err)
		jl.f = nil
	} else {
		jl.f = f
	}
	jl.order = append([]string(nil), kept...)
	jl.appends = 0
	jl.metrics.compactions.Inc()
	jl.log.Info("engine: journal compacted", "live", len(jl.order), "path", jl.path)
}

// liveCount returns how many submit records are awaiting a terminal
// state (jobs + sweeps).
func (jl *Journal) liveCount() int {
	if jl == nil {
		return 0
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return len(jl.jobs) + len(jl.sweeps)
}

// Close releases the journal's file handle.
func (jl *Journal) Close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
}
