package main

import (
	"context"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
)

// trainGrid spends all its time in tensor, fl, core, baselines and
// scenario builds, none in HTTP, the journal or dist.
var trainGrid = workload{
	name:    "train-grid",
	tailMax: 75,
	setup:   setupTrainGrid,
}

// trainGridRun is one caller running the grid closed-loop, one fl.Run
// at a time, on an in-memory engine whose scenario cache it shares.
type trainGridRun struct {
	env   *runEnv
	eng   *engine.Engine
	built map[string]bool // scenarios already built, by seed block
}

func setupTrainGrid(ctx context.Context, env *runEnv) (instance, error) {
	eng, err := newEngine(engine.Options{})
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, eng, env.size); err != nil {
		eng.Close()
		return nil, err
	}
	return &trainGridRun{env: env, eng: eng, built: map[string]bool{}}, nil
}

// measure runs whole seed blocks: the block in flight at the deadline
// completes, so every run trains the same mix of methods and precisions
// and the latency percentiles do not shift between the methods' costs.
func (g *trainGridRun) measure(ctx context.Context, deadline time.Time, out *outcome) {
	for b := 0; time.Now().Before(deadline); b++ {
		for _, sp := range gridBlock(g.env.size, g.env.seed, b) {
			g.cell(ctx, sp, out, g.env.tr)
		}
	}
}

// cell trains one Spec and records its latency and model digest.
func (g *trainGridRun) cell(ctx context.Context, sp engine.Spec, out *outcome, tr *tracer) {
	start := time.Now()
	sum, hist, err := trainCell(ctx, g.eng, sp, tr, g.built)
	if err == nil {
		err = checkStats(len(hist.Stats), hist.Final().TestAcc)
	}
	key, herr := sp.Hash()
	if err == nil {
		err = herr
	}
	if err != nil {
		out.fail("train-grid %s %s: %v", sp.Method, precisionName(sp.Precision), err)
		return
	}
	out.done(time.Since(start))
	out.digest(key, sum)
}

// verify re-runs the grid's first cell: the same Spec must train the
// byte-identical model, or the content-addressed cache is unsound.
func (g *trainGridRun) verify(ctx context.Context, out *outcome) {
	sp := gridBlock(g.env.size, g.env.seed, 0)[0]
	sum, _, err := trainCell(ctx, g.eng, sp, nil, g.built)
	key, _ := sp.Hash()
	if err != nil {
		out.fail("train-grid determinism re-run: %v", err)
		return
	}
	out.digest(key, sum)
}

func (g *trainGridRun) close() { g.eng.Close() }
