package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// tinySpec is a federated run small enough for cluster tests.
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
	return newClusterWith(t, ttl, engine.Options{Workers: -1, Metrics: telemetry.NewRegistry()})
}

// newClusterWith is newCluster over a coordinator engine built from
// opts (a journal, a logger).
func newClusterWith(t *testing.T, ttl time.Duration, opts engine.Options) *cluster {
	t.Helper()
	return newClusterWrapped(t, ttl, opts, nil)
}

// newClusterWrapped is newClusterWith whose HTTP API is served through
// wrap, when non-nil, so a test can fail chosen requests.
func newClusterWrapped(t *testing.T, ttl time.Duration, opts engine.Options, wrap func(http.Handler) http.Handler) *cluster {
	t.Helper()
	eng, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{LeaseTTL: ttl})
	api := engine.NewServer(eng)
	coord.Mount(api)
	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	srv := httptest.NewServer(h)
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
		Name:   name,
		Client: client.New(cl.srv.URL),
		Engine: weng,
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
// evaluation stats and checkpoint blobs — to a
// single-node engine. (Wall-clock timing fields are exempt by the
// Result contract.) It also pins the workers' memory: once the
// coordinator has acknowledged a cell's completion, no memory-only
// worker store still holds the uploaded blob.
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
		blob, ok, err := cl.eng.ModelBlob(j.Key)
		if err != nil || !ok {
			t.Fatalf("uploaded checkpoint %.12s: ok=%v err=%v", j.Key, ok, err)
		}
		if string(blob) != string(wantBlob[j.Key]) {
			t.Fatalf("cell %.12s checkpoint blob diverges (%d vs %d bytes)", j.Key, len(blob), len(wantBlob[j.Key]))
		}
		// The worker drops its copy once the coordinator acknowledges the
		// completion, which lands just after the job settles here; the
		// result stays.
		waitFor(t, 10*time.Second, fmt.Sprintf("the workers to drop the blob of cell %.12s", j.Key), func() bool {
			for _, w := range workers {
				if _, ok, _ := w.eng.ModelBlob(j.Key); ok {
					return false
				}
			}
			return true
		})
		trainedOn := 0
		for _, w := range workers {
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
	lease, err := cl.coord.Claim(context.Background(), reg.WorkerID)
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

// TestCoordinatorRestartRequeuesLeasedJob: a journaled coordinator
// restarted with a job leased forgets the lease and its worker; the job
// replays queued, and a worker that registers anew claims it and
// completes it. The fleet view and dist_worker_active_leases count the
// new lease from grant to completion.
func TestCoordinatorRestartRequeuesLeasedJob(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*engine.Engine, *Coordinator) {
		t.Helper()
		eng, err := engine.New(engine.Options{Workers: -1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		coord := NewCoordinator(eng, Options{LeaseTTL: time.Minute})
		t.Cleanup(func() {
			coord.Close()
			eng.Close()
		})
		return eng, coord
	}
	register := func(coord *Coordinator, name string) string {
		t.Helper()
		reg, err := coord.Register(engine.WorkerRegisterRequest{Name: name, Slots: 1, CodeVersion: engine.CodeVersion})
		if err != nil {
			t.Fatal(err)
		}
		return reg.WorkerID
	}

	eng1, coord1 := boot()
	j, err := eng1.Submit(tinySpec("FedAvg", 12), 0)
	if err != nil {
		t.Fatal(err)
	}
	old := register(coord1, "alpha")
	lease, err := coord1.Claim(context.Background(), old)
	if err != nil || lease == nil || lease.Key != j.Key {
		t.Fatalf("claim = %+v, %v; want the submitted job", lease, err)
	}
	coord1.Close()
	eng1.Close()

	eng2, coord2 := boot()
	beat := engine.WorkerHeartbeatRequest{Leases: []engine.LeaseProgress{{JobID: lease.JobID}}}
	if _, err := coord2.Heartbeat(old, beat); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("old worker's heartbeat after the restart = %v, want %v", err, ErrUnknownWorker)
	}
	fresh := register(coord2, "beta")
	relet, err := coord2.Claim(context.Background(), fresh)
	if err != nil || relet == nil || relet.Key != j.Key {
		t.Fatalf("claim after the restart = %+v, %v; want the replayed job", relet, err)
	}
	held := func(want int) {
		t.Helper()
		fleet := coord2.Fleet().Workers
		if len(fleet) != 1 || fleet[0].ActiveLeases != want {
			t.Fatalf("fleet = %+v, want beta alone holding %d leases", fleet, want)
		}
		if got := coord2.m.workerLeases.With("beta").Value(); got != int64(want) {
			t.Fatalf(`dist_worker_active_leases{worker="beta"} = %d, want %d`, got, want)
		}
	}
	held(1)
	res := &engine.Result{SpecHash: relet.Key, Method: "FedAvg"}
	if err := coord2.Complete(fresh, relet.JobID, engine.LeaseCompleteRequest{Result: res}); err != nil {
		t.Fatal(err)
	}
	held(0)
	if replayed, ok := eng2.Job(relet.JobID); !ok || replayed.State() != engine.StateDone {
		t.Fatalf("replayed job = %v, %v; want it done", replayed, ok)
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
	lease, err := coord.Claim(context.Background(), reg.WorkerID)
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

// TestTieredStoreAnswersWithoutTraining: a worker whose local store
// already holds the leased content-address answers from that tier, with
// zero training rounds.
func TestTieredStoreAnswersWithoutTraining(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := newCluster(t, 2*time.Second)
	spec := tinySpec("FedAvg", 22)
	key, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	stored := &engine.Result{SpecHash: key, Method: "FedAvg",
		Stats: []engine.RoundStat{{Round: 1, ValAcc: 0.5, TestAcc: 0.25}}, ElapsedSec: 0.01}
	weng, err := engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := weng.Store().Put(key, stored); err != nil {
		t.Fatal(err)
	}
	j, err := cl.eng.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := cl.addWorker("beta", weng)
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, stored.Stats) {
		t.Fatalf("local-tier result stats = %+v, want the stored result", res.Stats)
	}
	if got := w.m.tierLookups.With("local").Value(); got != 1 {
		t.Fatalf("dist_tier_lookups_total{local} = %d, want 1", got)
	}
	if st := weng.Stats(); st.RoundsExecuted != 0 {
		t.Fatalf("warm worker trained %d rounds, want 0 (local tier hit)", st.RoundsExecuted)
	}
}

// TestTrainedLeaseLooksUpStoreOnce: a worker that trains one cell
// misses its Store for the key once, inside the engine's submit, and
// counts the lease as one tier miss.
func TestTrainedLeaseLooksUpStoreOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := newCluster(t, 2*time.Second)
	j, err := cl.eng.Submit(tinySpec("FedAvg", 61), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := cl.addWorker("gamma", nil)
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := w.eng.Stats(); st.StoreMisses != 1 || st.Submitted != 1 {
		t.Fatalf("worker store misses = %d, submissions = %d; want 1 and 1", st.StoreMisses, st.Submitted)
	}
	if local, miss := w.m.tierLookups.With("local").Value(), w.m.tierLookups.With("miss").Value(); local != 0 || miss != 1 {
		t.Fatalf("tier lookups: %d local, %d miss; want 0 and 1", local, miss)
	}
}

// TestUnacknowledgedCompletionAnswersFromLocalTier: a worker whose
// done completion never reached the coordinator keeps the cell's blob
// as well as its Result. When the lease expires and the job is leased
// to it again, its local tier answers without training a second time;
// only after that completion is acknowledged does the worker drop the
// blob, and the Result stays.
func TestUnacknowledgedCompletionAnswersFromLocalTier(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var lost atomic.Bool
	cl := newClusterWrapped(t, time.Second, engine.Options{Workers: -1, Metrics: telemetry.NewRegistry()},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/complete") && lost.CompareAndSwap(false, true) {
					engine.WriteError(w, http.StatusServiceUnavailable, engine.ErrCodeUnavailable, "completion lost")
					return
				}
				next.ServeHTTP(w, r)
			})
		})
	spec := tinySpec("FedAvg", 51)
	j, err := cl.eng.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := cl.addWorker("alpha", nil)
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !lost.Load() {
		t.Fatal("no completion was lost")
	}
	if got := cl.coord.m.requeued.With("expired").Value(); got != 1 {
		t.Fatalf("dist_leases_requeued_total{expired} = %d, want 1", got)
	}
	if local, miss := w.m.tierLookups.With("local").Value(), w.m.tierLookups.With("miss").Value(); local != 1 || miss != 1 {
		t.Fatalf("tier lookups: %d local, %d miss; want 1 and 1", local, miss)
	}
	if got := w.eng.Stats().RoundsExecuted; got != int64(spec.Rounds) {
		t.Fatalf("worker trained %d rounds, want %d (one run, then the local tier)", got, spec.Rounds)
	}
	if _, ok, err := cl.eng.ModelBlob(j.Key); err != nil || !ok {
		t.Fatalf("coordinator checkpoint: ok=%v err=%v", ok, err)
	}
	waitFor(t, 10*time.Second, "the worker to drop the acknowledged blob", func() bool {
		_, ok, _ := w.eng.ModelBlob(j.Key)
		return !ok
	})
	if _, ok, _ := w.eng.Store().Get(j.Key); !ok {
		t.Fatal("the worker dropped the cell's Result")
	}
}

// TestCompleteRefusesForeignResult: a lease completed over HTTP with a
// Result for another Spec (a worker that trained something else under
// the lease) is answered 400 bad_request, fails the job with an error
// naming the worker and both addresses, and stores nothing under
// either address.
func TestCompleteRefusesForeignResult(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := newCluster(t, 5*time.Second)
	c := client.New(cl.srv.URL)
	reg, err := c.RegisterWorker(ctx, client.WorkerRegisterRequest{Name: "rogue", CodeVersion: engine.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	// The f32 twin is what a worker still honouring an engine-wide
	// precision default would train; an empty address is foreign too.
	other := tinySpec("FedAvg", 31)
	other.Precision = "f32"
	otherKey, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed    uint64
		foreign string
	}{{31, otherKey}, {32, ""}} {
		j, err := cl.eng.Submit(tinySpec("FedAvg", tc.seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := c.PullLease(ctx, reg.WorkerID)
		if err != nil || lv == nil || lv.JobID != j.ID {
			t.Fatalf("pull: lease %v, err %v, want job %s", lv, err, j.ID)
		}
		res := &engine.Result{SpecHash: tc.foreign, Method: "FedAvg"}
		err = c.CompleteLease(ctx, reg.WorkerID, lv.JobID, client.LeaseCompleteRequest{Result: res})
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != client.ErrCodeBadRequest {
			t.Fatalf("completion with result %q answered %v, want 400 %s", tc.foreign, err, client.ErrCodeBadRequest)
		}
		if j.State() != engine.StateFailed {
			t.Fatalf("job state after a foreign result = %s, want failed", j.State())
		}
		_, jobErr := j.Wait(ctx)
		for _, want := range []string{"rogue", j.Key, `"` + tc.foreign + `"`} {
			if jobErr == nil || !strings.Contains(jobErr.Error(), want) {
				t.Fatalf("job error %v, want it to name %q", jobErr, want)
			}
		}
		if _, ok, _ := cl.eng.Store().Get(j.Key); ok {
			t.Fatalf("coordinator store holds %.12s after a foreign result", j.Key)
		}
		if _, ok, _ := cl.eng.Store().Get(otherKey); ok {
			t.Fatalf("coordinator store holds the foreign %.12s", otherKey)
		}
	}
}

// TestCompletionBodyLimit: a completion is a small JSON body, decoded
// under the same 1 MiB limit as registration and heartbeat, so a larger
// one is refused with 400 and leaves the lease held. The checkpoint
// upload keeps its own, larger limit: a blob of the same size is stored.
func TestCompletionBodyLimit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := newCluster(t, 5*time.Second)
	c := client.New(cl.srv.URL)
	reg, err := c.RegisterWorker(ctx, client.WorkerRegisterRequest{Name: "big", CodeVersion: engine.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	j, err := cl.eng.Submit(tinySpec("FedAvg", 41), 0)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := c.PullLease(ctx, reg.WorkerID)
	if err != nil || lv == nil || lv.JobID != j.ID {
		t.Fatalf("pull: lease %v, err %v, want job %s", lv, err, j.ID)
	}
	big := client.LeaseCompleteRequest{Result: &engine.Result{SpecHash: j.Key, Method: "FedAvg"}}
	for i := 0; i < 1<<15; i++ {
		big.Result.Stats = append(big.Result.Stats, engine.RoundStat{Round: i + 1, ValAcc: 0.5, TestAcc: 0.5})
	}
	raw, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 1<<20 {
		t.Fatalf("completion body is %d bytes, want over 1 MiB", len(raw))
	}
	err = c.CompleteLease(ctx, reg.WorkerID, lv.JobID, big)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != client.ErrCodeBadRequest {
		t.Fatalf("%d-byte completion answered %v, want 400 %s", len(raw), err, client.ErrCodeBadRequest)
	}
	if j.State() != engine.StateRunning {
		t.Fatalf("job state after a refused completion = %s, want running", j.State())
	}
	blob := make([]byte, len(raw))
	if err := c.UploadLeaseModel(ctx, reg.WorkerID, lv.JobID, blob); err != nil {
		t.Fatalf("%d-byte model upload: %v", len(blob), err)
	}
	if got, ok, err := cl.eng.ModelBlob(j.Key); err != nil || !ok || len(got) != len(blob) {
		t.Fatalf("stored blob: %d bytes, ok=%v err=%v, want %d bytes", len(got), ok, err, len(blob))
	}
}

// TestModelUploadReadErrorIsBadRequest: an upload whose body fails
// mid-read is a 400 bad_request, not a 413: only the size cap is
// payload_too_large. Nothing is stored and the lease stays held.
func TestModelUploadReadErrorIsBadRequest(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := newCluster(t, 5*time.Second)
	c := client.New(cl.srv.URL)
	reg, err := c.RegisterWorker(ctx, client.WorkerRegisterRequest{Name: "torn", CodeVersion: engine.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	j, err := cl.eng.Submit(tinySpec("FedAvg", 42), 0)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := c.PullLease(ctx, reg.WorkerID)
	if err != nil || lv == nil || lv.JobID != j.ID {
		t.Fatalf("pull: lease %v, err %v, want job %s", lv, err, j.ID)
	}
	body := io.MultiReader(bytes.NewReader(make([]byte, 4096)), iotest.ErrReader(errors.New("connection reset")))
	req := httptest.NewRequest(http.MethodPut, "/v1/workers/"+reg.WorkerID+"/jobs/"+lv.JobID+"/model", body)
	req.ContentLength = 1 << 20
	rec := httptest.NewRecorder()
	cl.srv.Config.Handler.ServeHTTP(rec, req)
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != client.ErrCodeBadRequest {
		t.Fatalf("torn upload answered %d %s, want 400 %s", rec.Code, rec.Body, client.ErrCodeBadRequest)
	}
	if _, ok, _ := cl.eng.ModelBlob(j.Key); ok {
		t.Fatal("a torn upload was stored")
	}
	if _, holder, ok := cl.coord.LeaseHolder(j.ID); !ok || holder != reg.WorkerID {
		t.Fatalf("lease after a torn upload: holder %q, held %v", holder, ok)
	}
}

// TestClusterSweepBuildsEachScenarioOnce: two idle workers share one
// 2-scenario × 7-method sweep by scenario. Their held pulls wake onto
// different scenarios and each stays on its own, so the fleet builds
// each scenario once, plus at most one build by a worker that runs out
// of its own cells and takes one of the other's.
func TestClusterSweepBuildsEachScenarioOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := newCluster(t, longPollTTL)
	workers := []*Worker{cl.addWorker("alpha", nil), cl.addWorker("beta", nil)}
	waitFor(t, heldPullBound, "both pulls to be held", func() bool { return cl.waiting() == 2 })
	sw := engine.Sweep{
		Base:    tinySpec("FedAvg", 1),
		Methods: append([]string{"FedAvg"}, engine.MethodNames()...),
		Seeds:   []engine.SeedSpec{{Seed: 1, GenSeed: 12}, {Seed: 2, GenSeed: 13}},
	}
	b, err := cl.eng.SubmitSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range b.Unique() {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("cell %.12s: %v", j.Key, err)
		}
	}
	var misses int64
	for _, w := range workers {
		misses += w.eng.Metrics().CounterVec("engine_scenario_cache_total", "", "result").With("miss").Value()
	}
	if misses > 3 {
		t.Fatalf("workers built %d scenarios for a 2-scenario sweep, want at most 3", misses)
	}
}
