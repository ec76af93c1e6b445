package dist

import (
	"context"
	"errors"
	"log/slog"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// The long-poll tests hold pulls against a one-minute lease TTL, so a
// pull's hold lasts 20 s: anything that returns within heldPullBound
// was ended by the event under test, never by the hold elapsing. They
// synchronize on sched_claims_waiting, which counts a claim only once
// it is parked on the wake signal under the scheduler's lock.
const (
	longPollTTL   = time.Minute
	heldPullBound = 10 * time.Second
)

// waiting reads how many remote claims are parked on an empty queue.
func (cl *cluster) waiting() int64 {
	return cl.eng.Metrics().Gauge("sched_claims_waiting", "").Value()
}

// register adds a worker to the coordinator without running one.
func (cl *cluster) register(name string) string {
	cl.t.Helper()
	reg, err := cl.coord.Register(engine.WorkerRegisterRequest{Name: name, Slots: 1, CodeVersion: engine.CodeVersion})
	if err != nil {
		cl.t.Fatal(err)
	}
	return reg.WorkerID
}

type pulled struct {
	lease *engine.LeaseView
	err   error
}

// holdPull starts a lease pull over HTTP and returns once the
// coordinator holds it; the pull's answer arrives on the channel.
func (cl *cluster) holdPull(ctx context.Context, workerID string) <-chan pulled {
	cl.t.Helper()
	out := make(chan pulled, 1)
	go func() {
		lv, err := client.New(cl.srv.URL).PullLease(ctx, workerID)
		out <- pulled{lv, err}
	}()
	waitFor(cl.t, heldPullBound, "pull to be held", func() bool { return cl.waiting() == 1 })
	return out
}

// answer waits for a held pull's answer.
func answer(t *testing.T, got <-chan pulled, what string) pulled {
	t.Helper()
	select {
	case p := <-got:
		return p
	case <-time.After(heldPullBound):
		t.Fatalf("held pull not released by %s", what)
		return pulled{}
	}
}

// within fails the test unless fn returns within heldPullBound.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(heldPullBound):
		t.Fatalf("%s blocked while a pull was held", what)
	}
}

// TestEnqueueWakesHeldPull: a pull on an empty queue is held, and the
// enqueue of a job wakes it with that job's lease.
func TestEnqueueWakesHeldPull(t *testing.T) {
	cl := newCluster(t, longPollTTL)
	got := cl.holdPull(context.Background(), cl.register("alpha"))
	j, err := cl.eng.Submit(tinySpec("FedAvg", 31), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := answer(t, got, "the enqueue")
	if p.err != nil || p.lease == nil || p.lease.JobID != j.ID {
		t.Fatalf("held pull answered %+v, %v; want the lease of %s", p.lease, p.err, j.ID)
	}
	if j.Worker() != "alpha" || j.State() != engine.StateRunning {
		t.Fatalf("job %s on %q, want running on alpha", j.State(), j.Worker())
	}
	if n := cl.waiting(); n != 0 {
		t.Fatalf("%d claims still waiting after the wake", n)
	}
}

// TestPullEndedFirstClaimsNothing: a held pull whose request ends
// before any work arrives leaves with nothing — the job enqueued after
// it stays queued, no lease is granted and the journal gains only the
// job's own record. A claim whose context has already ended takes
// nothing even from a non-empty queue.
func TestPullEndedFirstClaimsNothing(t *testing.T) {
	cl := newClusterWith(t, longPollTTL, engine.Options{Workers: -1, CacheDir: t.TempDir(), Metrics: telemetry.NewRegistry()})
	records := cl.eng.Metrics().Counter("journal_records_total", "")
	ctx, cancel := context.WithCancel(context.Background())
	got := cl.holdPull(ctx, cl.register("alpha"))
	cancel()
	if p := answer(t, got, "its request ending"); p.lease != nil || !errors.Is(p.err, context.Canceled) {
		t.Fatalf("ended pull answered %+v, %v; want nothing", p.lease, p.err)
	}
	waitFor(t, heldPullBound, "coordinator to release the pull", func() bool { return cl.waiting() == 0 })

	before := records.Value()
	j, err := cl.eng.Submit(tinySpec("FedAvg", 33), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.eng.ClaimRemote(ctx, "alpha", nil); ok {
		t.Fatal("a claim with an ended context took a job")
	}
	if got := records.Value() - before; got != 1 {
		t.Fatalf("journal gained %d records for one submit and no lease, want 1", got)
	}
	if j.State() != engine.StateQueued || j.Worker() != "" {
		t.Fatalf("job %s on %q, want queued and unclaimed", j.State(), j.Worker())
	}
	if n := cl.coord.m.granted.With("alpha").Value(); n != 0 {
		t.Fatalf("%d leases granted to an ended pull", n)
	}
}

// TestClaimLosingItsPullRequeues: a job claimed just as the pull's
// request ends has no one to run it, so the coordinator hands it back
// to the queue at once rather than after the lease TTL.
func TestClaimLosingItsPullRequeues(t *testing.T) {
	pull, endPull := context.WithCancel(context.Background())
	defer endPull()
	// The requester leaves inside the claim, after the scheduler took
	// the job and before the coordinator records the lease.
	logger := slog.New(cancelOnClaim{cancel: func(string) { endPull() }})
	cl := newClusterWith(t, longPollTTL, engine.Options{Workers: -1, Metrics: telemetry.NewRegistry(), Logger: logger})
	j, err := cl.eng.Submit(tinySpec("FedAvg", 35), 0)
	if err != nil {
		t.Fatal(err)
	}
	worker := cl.register("alpha")
	lease, err := cl.coord.Claim(pull, worker)
	if lease != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("claim for a gone requester = %+v, %v; want nothing", lease, err)
	}
	if j.State() != engine.StateQueued || j.Worker() != "" {
		t.Fatalf("job %s on %q, want back in the queue", j.State(), j.Worker())
	}
	if n := cl.coord.m.requeued.With("pull_gone").Value(); n != 1 {
		t.Fatalf("dist_leases_requeued_total{pull_gone} = %d, want 1", n)
	}
	if _, _, held := cl.coord.LeaseHolder(j.ID); held {
		t.Fatal("the lost claim is in the lease table")
	}
	if lease, err := cl.coord.Claim(context.Background(), worker); err != nil || lease == nil || lease.JobID != j.ID {
		t.Fatalf("next claim = %+v, %v; want the requeued job", lease, err)
	}
}

// TestHeldPullReleasedOnShutdown: closing the coordinator, draining
// its engine, or stopping the pulling worker each releases a held pull
// at once, so none of the shutdown steps waits out the hold.
func TestHeldPullReleasedOnShutdown(t *testing.T) {
	unavailable := func(t *testing.T, p pulled) {
		t.Helper()
		var ae *client.APIError
		if p.lease != nil || !errors.As(p.err, &ae) || ae.Code != engine.ErrCodeUnavailable {
			t.Fatalf("released pull answered %+v, %v; want %s", p.lease, p.err, engine.ErrCodeUnavailable)
		}
	}
	t.Run("coordinator close", func(t *testing.T) {
		cl := newCluster(t, longPollTTL)
		got := cl.holdPull(context.Background(), cl.register("alpha"))
		within(t, "Coordinator.Close", cl.coord.Close)
		unavailable(t, answer(t, got, "Coordinator.Close"))
		within(t, "httptest.Server.Close", cl.srv.Close)
	})
	t.Run("engine drain", func(t *testing.T) {
		cl := newCluster(t, longPollTTL)
		got := cl.holdPull(context.Background(), cl.register("alpha"))
		within(t, "Engine.Close", cl.eng.Close)
		unavailable(t, answer(t, got, "the engine draining"))
		within(t, "httptest.Server.Close", cl.srv.Close)
	})
	for _, stop := range []string{"stop", "kill"} {
		t.Run("worker "+stop, func(t *testing.T) {
			cl := newCluster(t, longPollTTL)
			weng, err := engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer weng.Close()
			w, err := NewWorker(WorkerOptions{Name: "alpha", Client: client.New(cl.srv.URL), Engine: weng})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ran := make(chan struct{})
			go func() { defer close(ran); _ = w.Run(ctx) }()
			waitFor(t, heldPullBound, "worker's pull to be held", func() bool { return cl.waiting() == 1 })
			if stop == "kill" {
				w.kill()
			} else {
				cancel()
			}
			within(t, "Worker.Run", func() { <-ran })
			within(t, "httptest.Server.Close", cl.srv.Close)
			if n := cl.waiting(); n != 0 {
				t.Fatalf("%d claims still waiting after the worker's %s", n, stop)
			}
		})
	}
}
