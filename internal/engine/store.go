package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// memCacheCap bounds the in-memory Result count of a disk-backed
// Store; beyond it the least-recently-used entries fall back to their
// disk files, keeping a long-running server's memory flat. Memory-only
// stores ("" dir) never evict Results — dropping one would lose it.
const memCacheCap = 256

// memBlobBudget bounds the checkpoint bytes a memory-only Store keeps
// resident: past it the oldest blobs are evicted. 64 MiB holds about
// 120 Table-I checkpoints (543 KB each), eight 14-cell fleet sweeps, so
// a coordinator's memory stays flat however fast its fleet trains. The
// bytes live in memory mapped outside the Go heap (mapBlob), so they
// do not also raise the collector's heap goal by as much again.
const memBlobBudget = 64 << 20

// Store memoizes completed Results keyed by content-address. Entries
// live in memory and, when a directory is configured, as one JSON file
// per address, so a warm cache survives process restarts and repeated
// table/figure regeneration is O(cache-hit). Next to each Result the
// store can hold an opaque checkpoint blob (the trained model in the
// nn binary format) under the same address: on disk when a directory is
// configured, else in memory within memBlobBudget bytes, mapped outside
// the Go heap and copied out on every read. Store is safe for
// concurrent use.
type Store struct {
	dir     string
	metrics *storeMetrics
	log     *slog.Logger
	// maxBytes bounds the disk footprint of a disk-backed store (0 =
	// unbounded): after every write, least-recently-modified cache files
	// are evicted until the total fits. See SetMaxBytes.
	maxBytes int64

	mu    sync.Mutex
	mem   map[string]*Result
	blobs map[string][]byte // memory-only stores ("" dir) map blobs here (mapBlob)
	// blobOrder lists the blobs oldest write first, for eviction;
	// blobBytes is their resident total, at most memBlobBudget unless
	// the newest blob alone exceeds it.
	blobOrder []string
	blobBytes int64
	// spare is the last evicted or dropped blob's mapping: a full store
	// evicts one blob per put, and the next put reuses it.
	spare  []byte
	closed bool // by close: no mapping is left, and none is made
	use    map[string]int64
	// approx over-estimates the on-disk byte total (it grows with every
	// write, including overwrites); the full directory scan in
	// enforceCap only runs when it crosses maxBytes, then resets it to
	// the measured footprint — amortizing cap enforcement to O(1)
	// syscalls per write.
	approx int64
	seq    int64
}

// storeEnvelope is the on-disk record format.
type storeEnvelope struct {
	Hash        string    `json:"hash"`
	CodeVersion string    `json:"code_version"`
	SavedAt     time.Time `json:"saved_at"`
	Result      *Result   `json:"result"`
}

// newStoreWith opens a result store whose instruments export on reg.
// dir == "" keeps results in memory only; otherwise the directory is
// created if missing and existing entries become visible immediately.
func newStoreWith(dir string, reg *telemetry.Registry, log *slog.Logger) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: create cache dir: %w", err)
		}
	}
	return &Store{
		dir:     dir,
		metrics: newStoreMetrics(reg),
		log:     log,
		mem:     map[string]*Result{},
		blobs:   map[string][]byte{},
		use:     map[string]int64{},
	}, nil
}

// SetMaxBytes caps the disk footprint of a disk-backed store. After any
// write that pushes the cache directory past max, the least-recently-
// modified entry files (result JSON and checkpoint blobs alike) are
// deleted until it fits again; the newest file always survives, so a cap
// smaller than one entry still admits the latest write. 0 removes the
// cap. Memory-only stores ignore it.
func (s *Store) SetMaxBytes(max int64) {
	s.mu.Lock()
	s.maxBytes = max
	s.mu.Unlock()
	if max > 0 {
		s.enforceCap("")
	}
}

// touchLocked records an access in a disk-backed store and evicts the
// least-recently-used in-memory entries beyond memCacheCap; s.mu must
// be held. A memory-only store evicts nothing, so it records nothing.
func (s *Store) touchLocked(hash string) {
	if s.dir == "" {
		return
	}
	s.seq++
	s.use[hash] = s.seq
	for len(s.mem) > memCacheCap {
		var victim string
		var oldest int64
		for h, u := range s.use {
			if victim == "" || u < oldest {
				victim, oldest = h, u
			}
		}
		delete(s.mem, victim)
		delete(s.use, victim)
	}
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// Get returns the memoized Result for a content-address, if present.
// Callers must treat the returned Result as immutable: it is shared with
// every other cache hit for the same address.
func (s *Store) Get(hash string) (*Result, bool, error) {
	s.mu.Lock()
	if r, ok := s.mem[hash]; ok {
		s.touchLocked(hash)
		s.mu.Unlock()
		s.metrics.hits.Inc()
		return r, true, nil
	}
	s.mu.Unlock()
	if s.dir == "" {
		s.metrics.misses.Inc()
		return nil, false, nil
	}
	raw, err := os.ReadFile(s.path(hash))
	if errors.Is(err, fs.ErrNotExist) {
		s.metrics.misses.Inc()
		return nil, false, nil
	}
	if err != nil {
		// An unreadable entry (permissions, I/O error) must not fail the
		// submission that merely tried the cache: surface it loudly, count
		// it, and recompute.
		s.corrupt(hash, fmt.Errorf("read: %w", err))
		return nil, false, nil
	}
	var env storeEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		// A torn or foreign file is recomputed and overwritten — but never
		// silently: corruption here usually means a disk or deploy problem
		// an operator should hear about.
		s.corrupt(hash, fmt.Errorf("decode: %w", err))
		return nil, false, nil
	}
	if env.Result == nil {
		s.corrupt(hash, errors.New("decode: envelope has no result"))
		return nil, false, nil
	}
	if env.CodeVersion != CodeVersion {
		// A stale-code entry is an expected miss, not corruption.
		s.metrics.misses.Inc()
		return nil, false, nil
	}
	s.mu.Lock()
	s.mem[hash] = env.Result
	s.touchLocked(hash)
	s.mu.Unlock()
	s.metrics.hits.Inc()
	return env.Result, true, nil
}

// corrupt records an unreadable or undecodable cache entry: logged at
// warn with its content address, counted as store_corrupt_total, and
// treated as a miss so the result is recomputed.
func (s *Store) corrupt(hash string, err error) {
	s.metrics.corrupt.Inc()
	s.log.Warn("engine: corrupt cache entry, treating as miss",
		"key", hash, "path", s.path(hash), "error", err)
	s.metrics.misses.Inc()
}

// Put memoizes a Result under a content-address. On-disk writes are
// atomic (temp file + rename), so concurrent readers never observe torn
// entries, and they come first: a Result whose write failed is not
// memoized, so a later Get misses rather than answering from memory
// what the disk never got.
func (s *Store) Put(hash string, r *Result) error {
	if s.dir != "" {
		start := time.Now()
		env := storeEnvelope{Hash: hash, CodeVersion: CodeVersion, SavedAt: start.UTC(), Result: r}
		raw, err := json.Marshal(env)
		if err != nil {
			return fmt.Errorf("engine: encode cache entry: %w", err)
		}
		if err := s.writeFile(s.path(hash), raw); err != nil {
			return fmt.Errorf("engine: write cache entry: %w", err)
		}
		s.metrics.entryWrite.Observe(time.Since(start).Seconds())
		s.noteWrite(hash+".json", int64(len(raw)))
	}
	s.mu.Lock()
	s.mem[hash] = r
	s.touchLocked(hash)
	s.mu.Unlock()
	return nil
}

// writeFile writes data to path atomically: a temp file in the store's
// directory renamed over path, so concurrent readers never observe a
// torn file. The temp file is removed if any step fails.
func (s *Store) writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// noteWrite accounts for written bytes and triggers cap enforcement
// only when the (over-)estimated footprint crosses the cap.
func (s *Store) noteWrite(keep string, wrote int64) {
	s.mu.Lock()
	s.approx += wrote
	over := s.maxBytes > 0 && s.approx > s.maxBytes
	s.mu.Unlock()
	if over {
		s.enforceCap(keep)
	}
}

// blobPath is the on-disk location of a checkpoint blob.
func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.dir, hash+".model.bin")
}

// PutBlob stores an opaque checkpoint blob under a content-address,
// next to the entry's Result. Disk writes are atomic (temp + rename).
// A memory-only store keeps at most memBlobBudget blob bytes, evicting
// the oldest writes first and always keeping the one just written:
// a long-running in-memory server must not grow without bound, and a
// missing blob degrades to a 404, never an error. A failed write is
// counted in store_blob_write_failures_total.
func (s *Store) PutBlob(hash string, data []byte) error {
	start := time.Now()
	err := s.putBlob(hash, data)
	if err != nil {
		s.metrics.blobFailures.Inc()
		return err
	}
	s.metrics.blobWrite.Observe(time.Since(start).Seconds())
	return nil
}

func (s *Store) putBlob(hash string, data []byte) error {
	if s.dir == "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil
		}
		s.unlinkBlobLocked(hash)
		cp, err := s.allocBlobLocked(len(data))
		if err != nil {
			return fmt.Errorf("engine: map checkpoint blob: %w", err)
		}
		copy(cp, data)
		s.metrics.blobBytes.Add(int64(len(cp)))
		s.blobs[hash] = cp
		s.blobOrder = append(s.blobOrder, hash)
		s.blobBytes += int64(len(cp))
		for s.blobBytes > memBlobBudget && len(s.blobOrder) > 1 {
			s.unlinkBlobLocked(s.blobOrder[0])
			s.metrics.evictions.Inc()
		}
		return nil
	}
	if err := s.writeFile(s.blobPath(hash), data); err != nil {
		return fmt.Errorf("engine: write checkpoint blob: %w", err)
	}
	s.metrics.blobBytes.Add(int64(len(data)))
	s.noteWrite(hash+".model.bin", int64(len(data)))
	return nil
}

// GetBlob returns a copy of the checkpoint blob stored under a
// content-address, if present: the caller owns it, and an eviction
// may unmap the store's bytes the moment the lock is released.
// Disk-backed stores read from disk on every call — blobs are large
// and cold, so they are deliberately not held in memory.
func (s *Store) GetBlob(hash string) ([]byte, bool, error) {
	if s.dir == "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.blobs[hash]
		return bytes.Clone(b), ok, nil
	}
	raw, err := os.ReadFile(s.blobPath(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("engine: read checkpoint blob: %w", err)
	}
	return raw, true, nil
}

// DropBlob releases the in-memory copy of the checkpoint blob stored
// under a content-address: a memory-only store forgets it and its bytes
// leave the budget, so a later GetBlob misses. Disk-backed stores never
// hold blobs in memory, so for them it is a no-op and the file stays.
func (s *Store) DropBlob(hash string) {
	if s.dir != "" {
		return
	}
	s.mu.Lock()
	s.unlinkBlobLocked(hash)
	s.mu.Unlock()
}

// unlinkBlobLocked forgets a memory-only blob and its bytes, if held,
// keeping its mapping as the spare; s.mu must be held.
func (s *Store) unlinkBlobLocked(hash string) {
	b, ok := s.blobs[hash]
	if !ok {
		return
	}
	delete(s.blobs, hash)
	s.blobBytes -= int64(len(b))
	for i, h := range s.blobOrder {
		if h == hash {
			s.blobOrder = append(s.blobOrder[:i], s.blobOrder[i+1:]...)
			break
		}
	}
	if cap(b) > 0 {
		s.unmapLocked(s.spare)
		s.spare = b[:cap(b)]
	}
}

// allocBlobLocked returns n bytes for a blob: the spare mapping when
// it fits with at most a quarter of n left over, so the mapped bytes
// stay within 5/4 of the budget plus the spare, else a new mapping;
// s.mu must be held.
func (s *Store) allocBlobLocked(n int) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	if sp := s.spare; n <= cap(sp) && cap(sp)-n <= n/4 {
		s.spare = nil
		return sp[:n], nil
	}
	b, err := mapBlob(n)
	if err == nil {
		s.metrics.blobResident.Add(int64(cap(b)))
	}
	return b, err
}

// unmapLocked releases a whole mapping, if any; s.mu must be held.
func (s *Store) unmapLocked(b []byte) {
	if cap(b) == 0 {
		return
	}
	unmapBlob(b[:cap(b)])
	s.metrics.blobResident.Add(-int64(cap(b)))
}

// close unmaps every blob and the spare (Engine.Close): afterwards a
// memory-only store's GetBlob misses and its PutBlob keeps nothing.
func (s *Store) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, b := range s.blobs {
		s.unmapLocked(b)
	}
	s.unmapLocked(s.spare)
	s.blobs, s.blobOrder, s.blobBytes, s.spare = map[string][]byte{}, nil, 0, nil
}

// enforceCap evicts least-recently-modified cache files until the disk
// footprint fits maxBytes. keep (a file name within the cache dir, "" =
// none) is exempt so the write that triggered enforcement survives even
// when it alone exceeds the cap. Evicted result entries are dropped
// from the in-memory map too, so a later Get cannot resurrect them.
func (s *Store) enforceCap(keep string) {
	s.mu.Lock()
	max := s.maxBytes
	s.mu.Unlock()
	if s.dir == "" || max <= 0 {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type cacheFile struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []cacheFile
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		// In-flight temp files belong to concurrent writers; deleting
		// one would fail that writer's rename after a successful run.
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		// The write-ahead job journal shares the cache dir but is not
		// cache: evicting it would lose the queue on the next restart.
		if e.Name() == journalFileName {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, cacheFile{name: e.Name(), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= max {
			break
		}
		if f.name == keep {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, f.name)); err != nil {
			continue
		}
		s.metrics.evictions.Inc()
		total -= f.size
		if hash, ok := strings.CutSuffix(f.name, ".json"); ok {
			s.mu.Lock()
			delete(s.mem, hash)
			delete(s.use, hash)
			s.mu.Unlock()
		}
	}
	// Reset the estimate to the measured footprint so the next scan
	// only happens after another maxBytes-total of writes at most.
	s.mu.Lock()
	s.approx = total
	s.mu.Unlock()
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}
