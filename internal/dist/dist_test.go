package dist

import (
	"context"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// tinySpec is a federated run small enough for cluster tests; KeepModel
// is on so the checkpoint upload path is exercised end to end.
func tinySpec(method string, seed uint64) engine.Spec {
	return engine.Spec{
		Method:    method,
		Dataset:   "PACS",
		GenSeed:   12,
		Split:     engine.SplitSpec{Name: "tiny", Train: []int{0, 1}, Test: []int{3}},
		Lambda:    0.1,
		Clients:   2,
		SampleK:   2,
		Rounds:    2,
		PerDomain: 24,
		EvalPer:   12,
		Seed:      seed,
		Tag:       "dist-test",
		KeepModel: true,
	}
}

// cluster is one coordinator (dispatch-only engine + HTTP API + fleet
// routes) that workers join over real HTTP.
type cluster struct {
	t     *testing.T
	eng   *engine.Engine
	coord *Coordinator
	srv   *httptest.Server
}

func newCluster(t *testing.T, ttl time.Duration) *cluster {
	t.Helper()
	eng, err := engine.New(engine.Options{Workers: -1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{LeaseTTL: ttl})
	api := engine.NewServer(eng)
	coord.Mount(api)
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
		eng.Close()
	})
	return &cluster{t: t, eng: eng, coord: coord, srv: srv}
}

// addWorker joins a worker node to the cluster. weng == nil builds a
// fresh single-slot engine; passing one lets a test pre-warm the node's
// local store tier. Cleanup stops the worker gracefully (unless it was
// killed) before the cluster tears down.
func (cl *cluster) addWorker(name string, weng *engine.Engine) *Worker {
	cl.t.Helper()
	if weng == nil {
		var err error
		weng, err = engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
		if err != nil {
			cl.t.Fatal(err)
		}
	}
	w, err := NewWorker(WorkerOptions{
		Name:     name,
		Client:   client.New(cl.srv.URL),
		Engine:   weng,
		IdleWait: 25 * time.Millisecond,
	})
	if err != nil {
		cl.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	cl.t.Cleanup(func() {
		cancel()
		<-done
		weng.Close()
	})
	return w
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterSweepMatchesSingleNode is the acceptance bar for the fleet:
// the same sweep through two workers produces byte-identical results —
// evaluation stats, model vectors, and checkpoint blobs — to a
// single-node engine. (Wall-clock timing fields are exempt by the
// Result contract.) It also pins the workers' memory: once a blob is
// uploaded, no memory-only worker store still holds it.
func TestClusterSweepMatchesSingleNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sw := engine.Sweep{
		Base:    tinySpec("FedAvg", 1),
		Methods: []string{"FedAvg", "PARDON"},
		Seeds:   []engine.SeedSpec{{Seed: 1}, {Seed: 2}},
	}

	// Reference: one ordinary in-process engine.
	solo, err := engine.New(engine.Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	sb, err := solo.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*engine.Result{}
	wantBlob := map[string][]byte{}
	for _, j := range sb.Unique() {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[j.Key] = res
		blob, ok, err := solo.ModelBlob(j.Key)
		if err != nil || !ok {
			t.Fatalf("single-node checkpoint %.12s: ok=%v err=%v", j.Key, ok, err)
		}
		wantBlob[j.Key] = blob
	}

	// Cluster: dispatch-only coordinator, two workers over HTTP.
	cl := newCluster(t, 5*time.Second)
	workers := []*Worker{cl.addWorker("alpha", nil), cl.addWorker("beta", nil)}
	cb, err := cl.eng.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range cb.Unique() {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("cluster cell %.12s: %v", j.Key, err)
		}
		ref := want[j.Key]
		if ref == nil {
			t.Fatalf("cluster produced unknown key %.12s", j.Key)
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Fatalf("cell %.12s stats diverge:\n cluster %+v\n solo    %+v", j.Key, res.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(res.Model, ref.Model) {
			t.Fatalf("cell %.12s model vector diverges", j.Key)
		}
		blob, ok, err := cl.eng.ModelBlob(j.Key)
		if err != nil || !ok {
			t.Fatalf("uploaded checkpoint %.12s: ok=%v err=%v", j.Key, ok, err)
		}
		if string(blob) != string(wantBlob[j.Key]) {
			t.Fatalf("cell %.12s checkpoint blob diverges (%d vs %d bytes)", j.Key, len(blob), len(wantBlob[j.Key]))
		}
		// The worker drops its copy before it completes the lease, so by
		// now neither worker holds the blob — but the result stays.
		trainedOn := 0
		for _, w := range workers {
			if _, ok, _ := w.eng.ModelBlob(j.Key); ok {
				t.Fatalf("worker %s still holds the uploaded blob of cell %.12s", w.name, j.Key)
			}
			if _, ok, _ := w.eng.Store().Get(j.Key); ok {
				trainedOn++
			}
		}
		if trainedOn == 0 {
			t.Fatalf("no worker kept the result of cell %.12s", j.Key)
		}
	}

	// Every cell was leased exactly once — no spurious requeues with
	// healthy heartbeats.
	granted := cl.coord.m.granted.With("alpha").Value() + cl.coord.m.granted.With("beta").Value()
	if granted != int64(len(cb.Unique())) {
		t.Fatalf("leases granted = %d, want %d", granted, len(cb.Unique()))
	}
}

// TestWorkerKillLeaseRequeuesOntoSurvivor kills a worker mid-sweep
// (kill(9) semantics: no goodbye, no abandon) and requires the
// coordinator to requeue its leases onto a survivor that finishes the
// sweep.
func TestWorkerKillLeaseRequeuesOntoSurvivor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cl := newCluster(t, 300*time.Millisecond)
	victim := cl.addWorker("victim", nil)

	sw := engine.Sweep{
		Base:  tinySpec("FedAvg", 1),
		Seeds: []engine.SeedSpec{{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}, {Seed: 5}, {Seed: 6}},
	}
	b, err := cl.eng.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The victim is the only node: once it holds a lease, kill it. Its
	// leased cell can only finish via expiry + requeue.
	waitFor(t, 30*time.Second, "victim to hold a lease", func() bool {
		for _, w := range cl.coord.Fleet().Workers {
			if w.Name == "victim" && w.ActiveLeases > 0 {
				return true
			}
		}
		return false
	})
	victim.kill()

	survivor := cl.addWorker("survivor", nil)
	_ = survivor
	for _, j := range b.Unique() {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("cell %.12s did not survive the worker kill: %v", j.Key, err)
		}
	}
	requeued := cl.coord.m.requeued.With("expired").Value() + cl.coord.m.requeued.With("worker_lost").Value()
	if requeued == 0 {
		t.Fatal("dist_leases_requeued_total{expired|worker_lost} = 0, want the killed worker's leases requeued")
	}
}

// TestWorkerNamedLocalLeaseRequeues: a remote worker may call itself
// "local", the holder name the coordinator's own pool reports. Its
// claim is still a lease, so when the lease expires the job goes back
// to the queue instead of staying Running with no one to finish it.
func TestWorkerNamedLocalLeaseRequeues(t *testing.T) {
	cl := newCluster(t, 100*time.Millisecond)
	j, err := cl.eng.Submit(tinySpec("FedAvg", 11), 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cl.coord.Register(engine.WorkerRegisterRequest{Name: "local", Slots: 1, CodeVersion: engine.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := cl.coord.Claim(reg.WorkerID)
	if err != nil || lease == nil || lease.JobID != j.ID {
		t.Fatalf("claim = %+v, %v; want the submitted job", lease, err)
	}
	if got := j.Worker(); got != "local" {
		t.Fatalf("leased job worker = %q, want local", got)
	}
	// The worker never heartbeats: the reaper requeues the lease.
	requeued := func() int64 {
		return cl.coord.m.requeued.With("expired").Value() + cl.coord.m.requeued.With("worker_lost").Value()
	}
	waitFor(t, 10*time.Second, "lease to requeue", func() bool { return requeued() > 0 })
	if got := j.State(); got != engine.StateQueued {
		t.Fatalf("job state after its lease was requeued = %s, want queued", got)
	}
	if got := j.Worker(); got != "" {
		t.Fatalf("requeued job worker = %q, want none", got)
	}
}

// TestLeasedJobCancelPropagates: a user cancel on the coordinator
// reaches the worker through its heartbeat and the job settles
// Cancelled — never silently requeued or completed.
func TestLeasedJobCancelPropagates(t *testing.T) {
	cl := newCluster(t, 300*time.Millisecond)
	cl.addWorker("alpha", nil)

	spec := tinySpec("FedAvg", 9)
	spec.Rounds = 500 // long enough that the cancel always lands mid-run
	j, err := cl.eng.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "job to be leased", func() bool { return j.Worker() == "alpha" })
	if err := cl.eng.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "cancel to settle", func() bool { return j.State() == engine.StateCancelled })
}

// cancelOnClaim is a log handler that cancels a job the moment the
// scheduler logs its start: after a claim took the job from the queue,
// before the coordinator entered the lease in its table.
type cancelOnClaim struct{ cancel func(jobID string) }

func (h cancelOnClaim) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelOnClaim) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h cancelOnClaim) WithGroup(string) slog.Handler            { return h }
func (h cancelOnClaim) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "engine: job started" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "job" {
				h.cancel(a.Value.String())
			}
			return true
		})
	}
	return nil
}

// TestCancelDuringClaimReachesWorker: a user cancel that lands between
// the scheduler's claim and the coordinator's lease entry is still
// relayed on the worker's next heartbeat, not dropped for want of a
// lease to mark.
func TestCancelDuringClaimReachesWorker(t *testing.T) {
	var eng *engine.Engine
	logger := slog.New(cancelOnClaim{cancel: func(id string) { _ = eng.Cancel(id) }})
	eng, err := engine.New(engine.Options{Workers: -1, Metrics: telemetry.NewRegistry(), Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{LeaseTTL: 5 * time.Second})
	t.Cleanup(func() {
		coord.Close()
		eng.Close()
	})
	j, err := eng.Submit(tinySpec("FedAvg", 13), 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := coord.Register(engine.WorkerRegisterRequest{Name: "alpha", Slots: 1, CodeVersion: engine.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Claim(reg.WorkerID)
	if err != nil || lease == nil || lease.JobID != j.ID {
		t.Fatalf("claim = %+v, %v; want the submitted job", lease, err)
	}
	resp, err := coord.Heartbeat(reg.WorkerID, engine.WorkerHeartbeatRequest{Leases: []engine.LeaseProgress{{JobID: j.ID}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Cancel, []string{j.ID}) {
		t.Fatalf("heartbeat cancels %v, want [%s]", resp.Cancel, j.ID)
	}
}

// TestTieredStoreAnswersWithoutTraining drives both cache tiers: a
// worker whose LOCAL store already holds the leased content-address
// answers from tier 1, and a fresh worker finding the result in the
// COORDINATOR's store answers from tier 2 — zero training rounds either
// way.
func TestTieredStoreAnswersWithoutTraining(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fake := func(key string) *engine.Result {
		return &engine.Result{SpecHash: key, Method: "FedAvg",
			Stats: []engine.RoundStat{{Round: 1, ValAcc: 0.5, TestAcc: 0.25}}, ElapsedSec: 0.01}
	}

	// Tier 2 (peer): job queued on a cold coordinator, result lands in
	// the coordinator's store before any worker joins (the race the peer
	// tier exists for).
	cl := newCluster(t, 2*time.Second)
	peerSpec := tinySpec("FedAvg", 21)
	peerKey, err := peerSpec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cl.eng.Submit(peerSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.eng.Store().Put(peerKey, fake(peerKey)); err != nil {
		t.Fatal(err)
	}
	w := cl.addWorker("alpha", nil)
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, fake(peerKey).Stats) {
		t.Fatalf("peer-tier result stats = %+v, want the stored result", res.Stats)
	}
	if got := w.m.tierLookups.With("peer").Value(); got != 1 {
		t.Fatalf("dist_tier_lookups_total{peer} = %d, want 1", got)
	}
	if st := w.eng.Stats(); st.RoundsExecuted != 0 {
		t.Fatalf("worker trained %d rounds, want 0 (peer tier hit)", st.RoundsExecuted)
	}

	// Tier 1 (local): a second cluster, but the worker node arrives with
	// the content-address already in its local store.
	cl2 := newCluster(t, 2*time.Second)
	localSpec := tinySpec("FedAvg", 22)
	localKey, err := localSpec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	weng, err := engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := weng.Store().Put(localKey, fake(localKey)); err != nil {
		t.Fatal(err)
	}
	j2, err := cl2.eng.Submit(localSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2 := cl2.addWorker("beta", weng)
	res2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Stats, fake(localKey).Stats) {
		t.Fatalf("local-tier result stats = %+v, want the stored result", res2.Stats)
	}
	if got := w2.m.tierLookups.With("local").Value(); got != 1 {
		t.Fatalf("dist_tier_lookups_total{local} = %d, want 1", got)
	}
	if st := weng.Stats(); st.RoundsExecuted != 0 {
		t.Fatalf("warm worker trained %d rounds, want 0 (local tier hit)", st.RoundsExecuted)
	}
}

// TestRendezvousOwner pins the sharding function: deterministic, total
// over the fleet, and minimally disruptive under membership change (a
// removed node's keys redistribute; everyone else's stay put).
func TestRendezvousOwner(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	keys := make([]string, 60)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + "-key-" + string(rune('0'+i%10))
	}
	counts := map[string]int{}
	owners := map[string]string{}
	for _, k := range keys {
		o := rendezvousOwner(k, names)
		if o2 := rendezvousOwner(k, []string{"gamma", "alpha", "beta"}); o2 != o {
			t.Fatalf("owner of %q depends on member order: %q vs %q", k, o, o2)
		}
		owners[k] = o
		counts[o]++
	}
	for _, n := range names {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys of %d — distribution %v", n, len(keys), counts)
		}
	}
	// Drop beta: only beta's keys may change hands.
	for _, k := range keys {
		o := rendezvousOwner(k, []string{"alpha", "gamma"})
		if owners[k] != "beta" && o != owners[k] {
			t.Fatalf("key %q moved from %s to %s though its owner survived", k, owners[k], o)
		}
		if owners[k] == "beta" && o == "beta" {
			t.Fatalf("key %q still owned by removed node", k)
		}
	}
	if rendezvousOwner("anything", nil) != "" {
		t.Fatal("empty fleet must own nothing")
	}
}
