package dist

import (
	"context"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// coordRounds reads the coordinator's round count from both places it
// is published: Stats (feddg top's rounds/s) and engine_rounds_total.
func coordRounds(t *testing.T, eng *engine.Engine) int64 {
	t.Helper()
	stats := eng.Stats().RoundsExecuted
	if metric := eng.Metrics().Counter("engine_rounds_total", "").Value(); metric != stats {
		t.Fatalf("engine_rounds_total = %d but Stats.RoundsExecuted = %d", metric, stats)
	}
	return stats
}

// TestDispatchOnlyCoordinatorCountsRemoteRounds is the regression test
// for remote round accounting: a dispatch-only coordinator trains
// nothing itself, yet after a two-worker sweep its round count equals
// the rounds its workers trained — Σ Spec.Rounds over the cells.
func TestDispatchOnlyCoordinatorCountsRemoteRounds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := newCluster(t, 5*time.Second)
	var workers []*engine.Engine
	for _, name := range []string{"alpha", "beta"} {
		weng, err := engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, weng)
		cl.addWorker(name, weng)
	}
	base := tinySpec("FedAvg", 1)
	base.Rounds = 3
	b, err := cl.eng.SubmitSweep(engine.Sweep{
		Base:    base,
		Methods: []string{"FedAvg", "FedSR", "PARDON"},
		Seeds:   []engine.SeedSpec{{Seed: 1}, {Seed: 2}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var want, trained int64
	for _, j := range b.Unique() {
		want += int64(j.Spec.Rounds)
	}
	for _, w := range workers {
		trained += w.Stats().RoundsExecuted
	}
	if trained != want {
		t.Fatalf("workers trained %d rounds, want Σ Spec.Rounds = %d (every cell should train once)", trained, want)
	}
	if got := coordRounds(t, cl.eng); got != want {
		t.Fatalf("coordinator RoundsExecuted = %d, want Σ Spec.Rounds = %d", got, want)
	}
}

// TestRemoteRoundsCountedOnce drives the lease protocol by hand: re-sent
// and stale heartbeats count nothing, and rounds finished after the
// last heartbeat are counted from the completion.
func TestRemoteRoundsCountedOnce(t *testing.T) {
	cl := newCluster(t, 5*time.Second)
	reg, err := cl.coord.Register(engine.WorkerRegisterRequest{Name: "manual", CodeVersion: engine.CodeVersion})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec("FedAvg", 7)
	spec.Rounds = 5
	j, err := cl.eng.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := cl.coord.Claim(context.Background(), reg.WorkerID)
	if err != nil || lv == nil {
		t.Fatalf("claim: lease %v, err %v", lv, err)
	}
	beat := func(round int) {
		t.Helper()
		req := engine.WorkerHeartbeatRequest{Leases: []engine.LeaseProgress{{JobID: lv.JobID, Round: round, Rounds: spec.Rounds}}}
		if _, err := cl.coord.Heartbeat(reg.WorkerID, req); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct{ round, want int }{
		{2, 2}, // first report covers rounds 1–2
		{2, 2}, // re-sent heartbeat
		{1, 2}, // stale report
		{3, 3},
	} {
		beat(step.round)
		if got := coordRounds(t, cl.eng); got != int64(step.want) {
			t.Fatalf("after heartbeat at round %d: %d rounds counted, want %d", step.round, got, step.want)
		}
	}
	res := &engine.Result{SpecHash: j.Key, Method: spec.Method}
	if err := cl.coord.Complete(reg.WorkerID, lv.JobID, engine.LeaseCompleteRequest{Result: res, Round: spec.Rounds}); err != nil {
		t.Fatal(err)
	}
	if got := coordRounds(t, cl.eng); got != int64(spec.Rounds) {
		t.Fatalf("after completion: %d rounds counted, want %d", got, spec.Rounds)
	}
}

// TestHeartbeatRelaysLocalRounds: while a leased cell trains, each
// heartbeat carries the round the worker's local job has reached, so
// the coordinator's job advances before the completion arrives.
func TestHeartbeatRelaysLocalRounds(t *testing.T) {
	cl := newCluster(t, 300*time.Millisecond)
	cl.addWorker("alpha", nil)
	spec := tinySpec("FedAvg", 11)
	spec.Rounds = 5000 // seconds of training: heartbeats land mid-run
	j, err := cl.eng.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "a heartbeat to relay a round", func() bool {
		if j.State().Terminal() {
			t.Fatalf("job ended %s before any heartbeat relayed a round", j.State())
		}
		round, rounds := j.Progress()
		return round > 0 && rounds == spec.Rounds
	})
	if err := cl.eng.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "cancel to settle", func() bool { return j.State() == engine.StateCancelled })
}
