package engine

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// TestSpecHiddenAffectsHashAndScenario pins the capacity-sweep contract:
// Hidden is part of the content-address and flows into the built
// scenario's model configuration.
func TestSpecHiddenAffectsHashAndScenario(t *testing.T) {
	base := tinySpec("FedAvg")
	hBase, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	deep := tinySpec("FedAvg")
	deep.Hidden = []int{16, 8}
	hDeep, err := deep.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hBase == hDeep {
		t.Fatal("Hidden override must change the content-address")
	}
	// And the scenarios must not be shared: model depth lives in the
	// scenario's Env.
	kBase, _ := base.scenarioKey()
	kDeep, _ := deep.scenarioKey()
	if kBase == kDeep {
		t.Fatal("Hidden override must change the scenario key")
	}

	e := newTestEngine(t, Options{Workers: 1})
	sc, err := e.BuildScenario(deep)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Env.ModelCfg.HiddenDims) != 2 || sc.Env.ModelCfg.HiddenDims[0] != 16 || sc.Env.ModelCfg.HiddenDims[1] != 8 {
		t.Fatalf("scenario model config %+v, want HiddenDims [16 8]", sc.Env.ModelCfg)
	}

	// Equivalent spellings of the default depth — nil, [], and the
	// explicit [64] — compute bit-identical models, so they must share
	// one content-address (an alternate spelling must not retrain).
	for _, alt := range [][]int{{}, {64}} {
		s := tinySpec("FedAvg")
		s.Hidden = alt
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != hBase {
			t.Fatalf("Hidden spelling %v split the cache: %s vs %s", alt, h, hBase)
		}
	}

	bad := tinySpec("FedAvg")
	bad.Hidden = []int{8, 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-positive hidden width accepted")
	}
	bad = tinySpec("FedAvg")
	bad.SampleK = bad.Clients + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("SampleK above the client population accepted")
	}
}

// TestModelCheckpointRoundTrip is the checkpoint acceptance test: a run
// stores a checkpoint blob next to its cached Result; the blob decodes
// to the exact trained parameters, evaluates to the same accuracy as
// the in-memory model, and survives to answer cached re-runs — even
// from a fresh engine over the same cache directory.
func TestModelCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	spec := tinySpec("FedAvg")
	spec.KeepModel = true

	j, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	blob, ok, err := e.ModelBlob(j.Key)
	if err != nil || !ok {
		t.Fatalf("checkpoint blob missing: ok=%v err=%v", ok, err)
	}
	m, err := nn.LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Vector()
	if len(got) != len(res.Model) {
		t.Fatalf("checkpoint has %d params, result vector %d", len(got), len(res.Model))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(res.Model[i]) {
			t.Fatalf("checkpoint param %d = %g, result vector has %g", i, got[i], res.Model[i])
		}
	}
	// The restored model evaluates to the run's reported test accuracy.
	sc, err := e.BuildScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := fl.Accuracy(m, sc.Test)
	if err != nil {
		t.Fatal(err)
	}
	if acc != res.Final().TestAcc {
		t.Fatalf("restored model accuracy %g, run reported %g", acc, res.Final().TestAcc)
	}

	// A fresh engine over the same cache answers the resubmission from
	// the store AND still serves the model blob.
	e2 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	j2, err := e2.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !j2.Cached() {
		t.Fatal("resubmission missed the cache")
	}
	blob2, ok, err := e2.ModelBlob(j2.Key)
	if err != nil || !ok {
		t.Fatalf("cached re-run lost the checkpoint: ok=%v err=%v", ok, err)
	}
	if len(blob2) != len(blob) {
		t.Fatalf("persisted blob length %d, want %d", len(blob2), len(blob))
	}
}

// TestStoreMemoryBlobsBounded: a memory-only store bounds the bytes of
// the checkpoint blobs it keeps, not their count — a long-running
// in-memory coordinator must not grow with its fleet's throughput, and
// an evicted blob is a 404, not an error. The oldest writes go first,
// the newest always stays, and a dropped blob's bytes leave the budget.
func TestStoreMemoryBlobsBounded(t *testing.T) {
	const budget = memBlobBudget
	put := func(t *testing.T, st *Store, hash string, n int) {
		t.Helper()
		if err := st.PutBlob(hash, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	// resident sums the held blobs and checks the running total agrees.
	resident := func(t *testing.T, st *Store) int64 {
		t.Helper()
		st.mu.Lock()
		defer st.mu.Unlock()
		var sum int64
		for _, b := range st.blobs {
			sum += int64(len(b))
		}
		if sum != st.blobBytes || len(st.blobOrder) != len(st.blobs) {
			t.Fatalf("running total %d over %d ordered blobs, but %d bytes in %d blobs held",
				st.blobBytes, len(st.blobOrder), sum, len(st.blobs))
		}
		return sum
	}
	held := func(t *testing.T, st *Store, want map[string]bool) {
		t.Helper()
		for h, w := range want {
			if _, ok, _ := st.GetBlob(h); ok != w {
				t.Fatalf("blob %s held = %v, want %v", h, ok, w)
			}
		}
	}
	newStore := func(t *testing.T) *Store {
		t.Helper()
		st, err := newStoreWith("", telemetry.NewRegistry(), slog.Default())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("mixed sizes, oldest first", func(t *testing.T) {
		st := newStore(t)
		put(t, st, "a", budget/4)
		put(t, st, "b", budget/8)
		put(t, st, "c", budget/2)
		if got := resident(t, st); got != budget*7/8 {
			t.Fatalf("resident %d under the budget, want all %d bytes kept", got, budget*7/8)
		}
		// Rewriting a makes it the newest, so b is now the oldest.
		put(t, st, "a", budget/4)
		put(t, st, "d", budget/4) // 9/8: b goes, exactly the budget stays
		held(t, st, map[string]bool{"a": true, "b": false, "c": true, "d": true})
		put(t, st, "e", budget/2) // 3/2: c goes
		held(t, st, map[string]bool{"a": true, "c": false, "d": true, "e": true})
		put(t, st, "f", budget/8) // 9/8: a, the oldest, goes though d is as large
		held(t, st, map[string]bool{"a": false, "d": true, "e": true, "f": true})
		if got := resident(t, st); got != budget*7/8 {
			t.Fatalf("resident %d, want %d", got, budget*7/8)
		}
	})

	t.Run("newest kept alone over budget", func(t *testing.T) {
		st := newStore(t)
		put(t, st, "small", 1024)
		put(t, st, "huge", budget+1)
		held(t, st, map[string]bool{"small": false, "huge": true})
		if got := resident(t, st); got != budget+1 {
			t.Fatalf("resident %d, want the newest blob's %d", got, budget+1)
		}
		put(t, st, "next", 1024)
		held(t, st, map[string]bool{"huge": false, "next": true})
	})

	t.Run("DropBlob releases its bytes", func(t *testing.T) {
		st := newStore(t)
		put(t, st, "a", budget/2)
		put(t, st, "b", budget/2)
		st.DropBlob("a")
		if got := resident(t, st); got != budget/2 {
			t.Fatalf("resident %d after the drop, want %d", got, budget/2)
		}
		// Exactly at the budget again: nothing is evicted.
		put(t, st, "c", budget/2)
		held(t, st, map[string]bool{"a": false, "b": true, "c": true})
	})

	t.Run("thousands of checkpoints", func(t *testing.T) {
		st := newStore(t)
		const cell = 543 << 10 // one Table-I checkpoint
		const puts = 2000
		for i := 0; i < puts; i++ {
			put(t, st, fmt.Sprintf("h%05d", i), cell)
			if got := resident(t, st); got > budget {
				t.Fatalf("after put %d resident %d bytes, budget %d", i, got, budget)
			}
		}
		st.mu.Lock()
		n := len(st.blobs)
		st.mu.Unlock()
		if n != budget/cell {
			t.Fatalf("store holds %d checkpoints, want the %d newest that fit", n, budget/cell)
		}
		held(t, st, map[string]bool{"h00000": false, fmt.Sprintf("h%05d", puts-n): true, fmt.Sprintf("h%05d", puts-1): true})
	})
}

func TestStoreBlobMemoryAndDisk(t *testing.T) {
	mem, err := newStoreWith("", telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mem.GetBlob("nope"); err != nil || ok {
		t.Fatalf("empty store blob hit: ok=%v err=%v", ok, err)
	}
	if err := mem.PutBlob("k", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, ok, err := mem.GetBlob("k")
	if err != nil || !ok || len(b) != 3 {
		t.Fatalf("memory blob round trip: %v %v %v", b, ok, err)
	}

	dir := t.TempDir()
	disk, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.PutBlob("k", []byte{9, 8}); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the directory sees the blob.
	disk2, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, ok, err = disk2.GetBlob("k")
	if err != nil || !ok || len(b) != 2 {
		t.Fatalf("disk blob round trip: %v %v %v", b, ok, err)
	}
}

// TestStoreCapEvictsLRU pins the disk-cache size cap: past MaxBytes the
// least-recently-modified files go first, the newest write survives, and
// evicted results cannot be resurrected from the in-memory map.
func TestStoreCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	st, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Three ~400-byte blobs under a 1000-byte cap: the oldest must go.
	payload := make([]byte, 400)
	st.SetMaxBytes(1000)
	for i, h := range []string{"aa", "bb", "cc"} {
		if err := st.PutBlob(h, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes even on coarse filesystem clocks.
		past := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, h+".model.bin"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutBlob("dd", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.GetBlob("aa"); ok {
		t.Fatal("oldest blob survived past the cap")
	}
	if _, ok, _ := st.GetBlob("dd"); !ok {
		t.Fatal("newest blob was evicted")
	}

	// Result entries are evicted from disk AND memory together.
	st2, err := newStoreWith(t.TempDir(), telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Put("old", &Result{Method: "FedAvg"}); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(st2.path("old"), past, past); err != nil {
		t.Fatal(err)
	}
	st2.SetMaxBytes(1) // cap below any entry: everything but the newest goes
	if _, ok, _ := st2.Get("old"); ok {
		t.Fatal("evicted result still served")
	}
}

// TestStoreDropBlob: a memory-only store forgets a dropped blob (and
// keeps the others and the Result); a disk-backed store keeps its file.
func TestStoreDropBlob(t *testing.T) {
	mem, err := newStoreWith("", telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b"} {
		if err := mem.PutBlob(h, []byte("blob-"+h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Put("a", &Result{SpecHash: "a"}); err != nil {
		t.Fatal(err)
	}
	mem.DropBlob("a")
	mem.DropBlob("missing")
	if _, ok, _ := mem.GetBlob("a"); ok {
		t.Fatal("memory store still serves a dropped blob")
	}
	if b, ok, _ := mem.GetBlob("b"); !ok || string(b) != "blob-b" {
		t.Fatalf("other blob = %q, %v", b, ok)
	}
	if _, ok, _ := mem.Get("a"); !ok {
		t.Fatal("DropBlob removed the Result")
	}
	if len(mem.blobOrder) != 1 || mem.blobOrder[0] != "b" {
		t.Fatalf("blob eviction order = %v, want [b]", mem.blobOrder)
	}

	disk, err := newStoreWith(t.TempDir(), telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.PutBlob("a", []byte("blob-a")); err != nil {
		t.Fatal(err)
	}
	disk.DropBlob("a")
	if b, ok, _ := disk.GetBlob("a"); !ok || string(b) != "blob-a" {
		t.Fatalf("disk store lost its blob file: %q, %v", b, ok)
	}
}
