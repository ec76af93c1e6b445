package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// tinySpec is a federated run small enough for unit tests (two clients,
// two rounds on a reduced PACS corpus).
func tinySpec(method string) Spec {
	return Spec{
		Method:    method,
		Dataset:   "PACS",
		GenSeed:   12,
		Split:     SplitSpec{Name: "tiny", Train: []int{0, 1}, Test: []int{3}},
		Lambda:    0.1,
		Clients:   2,
		SampleK:   2,
		Rounds:    2,
		PerDomain: 24,
		EvalPer:   12,
		Seed:      1,
		Tag:       "engine-test",
	}
}

// newTestEngine opens an engine closed at test end; one left without a
// registry gets a fresh one, so its Stats count only its own work.
func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// stubRun stands in for a job's training: the Result it returns is
// stored under the job's key as a run's would be, and the job settles
// once it is.
type stubRun func(ctx context.Context, j *Job) (*Result, error)

// stubRuns swaps e's job runner: a job whose Spec.Tag has an entry in
// stubs runs that stub instead of training, and every other job trains
// for real. Call it before e's first submission.
func stubRuns(e *Engine, stubs map[string]stubRun) {
	e.sched.run = func(ctx context.Context, j *Job) (func() error, error) {
		if stub, ok := stubs[j.Spec.Tag]; ok {
			res, err := stub(ctx, j)
			return func() error { return e.store.Put(j.Key, res) }, err
		}
		return e.run(ctx, j)
	}
}

// stubSpec is a tiny Spec tagged tag, so stubRuns can route it to a
// stub; distinct tags are distinct content-addresses.
func stubSpec(tag string) Spec {
	sp := tinySpec("FedAvg")
	sp.Tag = tag
	return sp
}

func TestSpecCanonicalAndHashStable(t *testing.T) {
	a := tinySpec("FedAvg")
	b := tinySpec("FedAvg")
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", ca, cb)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := b.Hash()
	if ha != hb || len(ha) != 64 {
		t.Fatalf("hashes differ or malformed: %q vs %q", ha, hb)
	}
	// A spec must hash identically after a JSON round-trip (the HTTP
	// submit path).
	var c Spec
	if err := json.Unmarshal(ca, &c); err != nil {
		t.Fatal(err)
	}
	if hc, _ := c.Hash(); hc != ha {
		t.Fatalf("hash changed across JSON round-trip: %q vs %q", hc, ha)
	}
}

func TestSpecHashSensitivity(t *testing.T) {
	base, _ := tinySpec("FedAvg").Hash()
	mutations := map[string]Spec{}
	s := tinySpec("PARDON")
	mutations["method"] = s
	s = tinySpec("FedAvg")
	s.Seed++
	mutations["seed"] = s
	s = tinySpec("FedAvg")
	s.Rounds++
	mutations["rounds"] = s
	s = tinySpec("FedAvg")
	s.Lambda = 0.2
	mutations["lambda"] = s
	s = tinySpec("FedAvg")
	s.Split.Test = []int{2}
	mutations["split"] = s
	for name, m := range mutations {
		h, err := m.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == base {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := tinySpec("PARDON-v3")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := tinySpec("NoSuchMethod")
	if err := bad.Validate(); err == nil {
		t.Error("unknown method accepted")
	}
	bad = tinySpec("FedAvg")
	bad.Dataset = "CIFAR"
	if err := bad.Validate(); err == nil {
		t.Error("unknown dataset accepted")
	}
	bad = tinySpec("FedAvg")
	bad.Dataset = "IWildCam"
	if err := bad.Validate(); err == nil {
		t.Error("IWildCam without domain sizing accepted")
	}
	bad = tinySpec("FedAvg")
	bad.Rounds = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rounds accepted")
	}
	bad = tinySpec("FedAvg")
	bad.Split.Train = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty training split accepted")
	}
}

func TestScenarioKeyIgnoresTrainingOnlyFields(t *testing.T) {
	a := tinySpec("FedAvg")
	b := tinySpec("PARDON")
	b.Rounds = 7
	b.EvalEvery = 1
	ka, err := a.scenarioKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.scenarioKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("scenario keys should match across methods on the same data")
	}
	c := tinySpec("FedAvg")
	c.PerDomain++
	if kc, _ := c.scenarioKey(); kc == ka {
		t.Fatal("scenario key must change with data sizing")
	}
}

func TestStoreMemoryHitMiss(t *testing.T) {
	st, err := newStoreWith("", telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get("deadbeef"); err != nil || ok {
		t.Fatalf("unexpected hit on empty store: ok=%v err=%v", ok, err)
	}
	want := &Result{Method: "FedAvg", Stats: []RoundStat{{Round: 1, TestAcc: 0.5}}}
	if err := st.Put("deadbeef", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get("deadbeef")
	if err != nil || !ok {
		t.Fatalf("expected hit: ok=%v err=%v", ok, err)
	}
	if got.Final().TestAcc != 0.5 {
		t.Fatalf("wrong result: %+v", got)
	}
	hits, misses := st.metrics.hits.Value(), st.metrics.misses.Value()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// TestMemoryStoreKeepsNoRecency: only disk eviction reads the recency
// map, so a memory-only store's Puts and Gets leave it empty.
func TestMemoryStoreKeepsNoRecency(t *testing.T) {
	st, err := newStoreWith("", telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a1", "b2", "c3"} {
		if err := st.Put(h, &Result{Method: "FedAvg"}); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := st.Get(h); !ok {
			t.Fatalf("%s: miss after Put", h)
		}
	}
	if n := len(st.use); n != 0 {
		t.Fatalf("memory-only store holds %d recency entries, want 0", n)
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{Method: "PARDON", Stats: []RoundStat{{Round: 3, TestAcc: 0.75}}}
	if err := st.Put("cafe", want); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory sees the entry.
	st2, err := newStoreWith(dir, telemetry.NewRegistry(), slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.Get("cafe")
	if err != nil || !ok {
		t.Fatalf("expected persisted hit: ok=%v err=%v", ok, err)
	}
	if got.Final() != want.Final() {
		t.Fatalf("wrong persisted result: %+v", got)
	}
	// A torn entry is a miss, not an error.
	if err := os.WriteFile(filepath.Join(dir, "torn.json"), []byte("{\"hash\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st2.Get("torn"); err != nil || ok {
		t.Fatalf("torn entry should miss cleanly: ok=%v err=%v", ok, err)
	}
	// An entry from another code version is a miss.
	env := storeEnvelope{Hash: "old", CodeVersion: "ancient", Result: want}
	raw, _ := json.Marshal(env)
	if err := os.WriteFile(filepath.Join(dir, "old.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st2.Get("old"); ok {
		t.Fatal("stale code-version entry should miss")
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	block := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(_ context.Context, j *Job) (*Result, error) {
		mu.Lock()
		order = append(order, j.Spec.Tag)
		mu.Unlock()
		return &Result{}, nil
	}
	stubRuns(e, map[string]stubRun{
		"gate": func(context.Context, *Job) (*Result, error) {
			<-block
			return &Result{}, nil
		},
		"low":  record,
		"high": record,
	})
	gate, err := e.Submit(stubSpec("gate"), 0)
	if err != nil {
		t.Fatal(err)
	}
	low, err := e.Submit(stubSpec("low"), 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.Submit(stubSpec("high"), 10)
	if err != nil {
		t.Fatal(err)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range []*Job{gate, low, high} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("execution order = %v, want [high low]", order)
	}
}

func TestSchedulerCancellation(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	started := make(chan struct{})
	stubRuns(e, map[string]stubRun{
		"cancel-running": func(ctx context.Context, _ *Job) (*Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
		"cancel-queued": func(context.Context, *Job) (*Result, error) {
			t.Error("queued job should never run")
			return &Result{}, nil
		},
	})
	running, err := e.Submit(stubSpec("cancel-running"), 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(stubSpec("cancel-queued"), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st := queued.State(); st != StateQueued {
		t.Fatalf("second job state = %s, want queued", st)
	}
	if err := e.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := running.Wait(ctx); err == nil {
		t.Fatal("cancelled running job returned a result")
	}
	if _, err := queued.Wait(ctx); err == nil {
		t.Fatal("cancelled queued job returned a result")
	}
	if st := running.State(); st != StateCancelled {
		t.Fatalf("running job state = %s, want cancelled", st)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", st)
	}
	if err := e.Cancel("job-999"); err == nil {
		t.Fatal("cancelling an unknown job should error")
	}
}

func TestSubmitCoalescesInflight(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	block := make(chan struct{})
	stubRuns(e, map[string]stubRun{"coalesce-gate": func(context.Context, *Job) (*Result, error) {
		<-block
		return &Result{}, nil
	}})
	gate, err := e.Submit(stubSpec("coalesce-gate"), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec("FedAvg")
	j1, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.Submit(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("identical queued specs should coalesce: %s vs %s", j1.ID, j2.ID)
	}
	if e.Stats().Coalesced != 1 {
		t.Fatalf("coalesced counter = %d, want 1", e.Stats().Coalesced)
	}
	// The coalesced submission's higher priority must carry over.
	if p := j1.Priority(); p != 7 {
		t.Fatalf("coalesced job priority = %d, want 7", p)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := gate.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCachedResubmitDoesZeroRounds is the subsystem's acceptance check:
// re-submitting an identical Spec must be answered from the result store
// without training a single federated round.
func TestCachedResubmitDoesZeroRounds(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: 2, CacheDir: dir})
	spec := tinySpec("FedAvg")

	j1, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res1, err := j1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Cached() {
		t.Fatal("first run reported as cached")
	}
	roundsAfterFirst := e.Stats().RoundsExecuted
	if roundsAfterFirst != int64(spec.Rounds) {
		t.Fatalf("first run trained %d rounds, want %d", roundsAfterFirst, spec.Rounds)
	}
	if res1.Final().TestAcc <= 0 || res1.Final().TestAcc > 1 {
		t.Fatalf("implausible accuracy %g", res1.Final().TestAcc)
	}

	j2, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached() {
		t.Fatal("identical resubmission missed the cache")
	}
	if got := e.Stats().RoundsExecuted; got != roundsAfterFirst {
		t.Fatalf("cached resubmission trained %d extra rounds", got-roundsAfterFirst)
	}
	if res2.Final() != res1.Final() {
		t.Fatalf("cached result differs: %+v vs %+v", res2.Final(), res1.Final())
	}

	// The cache survives the process: a fresh engine over the same
	// directory answers without training.
	e2 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	j3, err := e2.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := j3.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Cached() || e2.Stats().RoundsExecuted != 0 {
		t.Fatal("persisted cache entry was not used by a fresh engine")
	}
	if res3.Final() != res1.Final() {
		t.Fatalf("persisted result differs: %+v vs %+v", res3.Final(), res1.Final())
	}
}

func TestDeterministicAcrossEngines(t *testing.T) {
	spec := tinySpec("PARDON")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	finals := make([]RoundStat, 2)
	for i := range finals {
		e := newTestEngine(t, Options{Workers: 2})
		j, err := e.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		finals[i] = res.Final()
	}
	if finals[0] != finals[1] {
		t.Fatalf("equal specs produced different results: %+v vs %+v", finals[0], finals[1])
	}
}

func TestJobEvents(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	spec := tinySpec("FedAvg")
	j, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	events := j.Subscribe()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var states []State
	maxRound := 0
	for ev := range events {
		states = append(states, ev.State)
		if ev.Round > maxRound {
			maxRound = ev.Round
		}
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("event states = %v, want trailing done", states)
	}
	if maxRound != spec.Rounds {
		t.Fatalf("max round event = %d, want %d", maxRound, spec.Rounds)
	}
	// Subscribing to a finished job yields its terminal snapshot.
	late := j.Subscribe()
	ev, ok := <-late
	if !ok || ev.State != StateDone {
		t.Fatalf("late subscription = %+v ok=%v, want done event", ev, ok)
	}
	if _, ok := <-late; ok {
		t.Fatal("late subscription channel should be closed after the snapshot")
	}
}

func TestTimingAverages(t *testing.T) {
	var tm Timing
	if tm.AvgLocalTrainSec() != 0 || tm.AvgAggregateSec() != 0 {
		t.Fatal("zero-count averages should be 0")
	}
}
