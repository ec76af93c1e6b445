package fl_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/synth"
	"github.com/pardon-feddg/pardon/internal/tensor"
	"github.com/pardon-feddg/pardon/internal/testref"
)

func testEnv(t *testing.T) (*fl.Env, *synth.Generator) {
	t.Helper()
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.New(synth.PACSConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c, h, w := enc.OutShape()
	return &fl.Env{
		Enc:      enc,
		ModelCfg: nn.Config{In: c * h * w, Hidden: 16, ZDim: 8, Classes: 7},
		Hyper:    fl.DefaultHyper(),
		RNG:      rng.New(77),
	}, gen
}

func TestNewClientCachesFeatures(t *testing.T) {
	env, gen := testEnv(t)
	ds, err := gen.GenerateDomain(0, 12, "fl")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fl.NewClient(env, 3, ds)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != 3 || len(c.Features) != 12 || c.Len() != 12 {
		t.Fatalf("client = %+v", c)
	}
	if c.Features[0].Len() != env.InputDim() {
		t.Fatalf("feature width = %d", c.Features[0].Len())
	}
	if len(c.Labels) != 12 {
		t.Fatal("labels missing")
	}
	if _, err := fl.NewClient(env, 0, &dataset.Dataset{NumClasses: 7}); err == nil {
		t.Fatal("empty client should error")
	}
}

func TestCalibrateNormalizes(t *testing.T) {
	env, gen := testEnv(t)
	ds, err := gen.GenerateDomain(0, 40, "cal")
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Calibrate(32, ds); err != nil {
		t.Fatal(err)
	}
	if env.FeatScale == 0 || env.FeatScale == 1 {
		t.Fatalf("calibration did not set scale: %g", env.FeatScale)
	}
	c, err := fl.NewClient(env, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized inputs should be roughly zero-mean unit-variance.
	m := c.RowsInto(nil, c.Len()).Mean()
	if m < -0.5 || m > 0.5 {
		t.Fatalf("normalized mean = %g", m)
	}
	if err := (&fl.Env{Enc: env.Enc}).Calibrate(8); err == nil {
		t.Fatal("calibrate with no data should error")
	}
}

func TestBatchesCoverAllIndices(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	batches := fl.Batches(10, 3, r)
	seen := map[int]bool{}
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatal("index repeated")
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d of 10", len(seen))
	}
}

func TestClientBatchGather(t *testing.T) {
	env, gen := testEnv(t)
	ds, _ := gen.GenerateDomain(1, 8, "batch")
	c, err := fl.NewClient(env, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	x, y := c.BatchInto(nil, nil, []int{2, 5})
	if x.Dim(0) != 2 || len(y) != 2 {
		t.Fatalf("batch shapes %v %v", x.Shape(), y)
	}
	if y[0] != c.Labels[2] || y[1] != c.Labels[5] {
		t.Fatal("labels misaligned")
	}
	all := c.RowsInto(nil, c.Len())
	for j := 0; j < env.InputDim(); j++ {
		if x.At(0, j) != all.At(2, j) || x.At(1, j) != all.At(5, j) {
			t.Fatal("row content misaligned")
		}
	}
	// A smaller batch re-views the same storage; a larger one grows it.
	small, _ := c.BatchInto(x, y, []int{7})
	if small.Dim(0) != 1 || &small.Data()[0] != &x.Data()[0] {
		t.Fatal("ragged batch did not reuse the buffer")
	}
	if big, _ := c.BatchInto(small, y, []int{0, 1, 2}); big.Dim(0) != 3 {
		t.Fatalf("grown batch shape %v", big.Shape())
	}
}

// TestBatchIntoMatchesNormalizeFeature is the property behind dropping
// the cached FlatX: every gathered row is bit-equal to Env.NormalizeFeature
// applied to a copy of the sample's raw features, for random batches and
// for a zero FeatScale (read as 1).
func TestBatchIntoMatchesNormalizeFeature(t *testing.T) {
	env, gen := testEnv(t)
	ds, err := gen.GenerateDomain(2, 20, "prop")
	if err != nil {
		t.Fatal(err)
	}
	calibrated := *env
	if err := calibrated.Calibrate(8, ds); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for _, e := range []*fl.Env{env, &calibrated} {
		c, err := fl.NewClient(e, 0, ds)
		if err != nil {
			t.Fatal(err)
		}
		var x *tensor.Tensor
		var y []int
		for trial := 0; trial < 20; trial++ {
			idx := make([]int, 1+r.Intn(c.Len()))
			for k := range idx {
				idx[k] = r.Intn(c.Len())
			}
			x, y = c.BatchInto(x, y, idx)
			in := e.InputDim()
			for bi, i := range idx {
				want := append([]float64(nil), c.Features[i].Data()...)
				e.NormalizeFeature(want)
				for j, v := range x.Data()[bi*in : (bi+1)*in] {
					if math.Float64bits(v) != math.Float64bits(want[j]) {
						t.Fatalf("scale %g: row %d (sample %d) col %d = %v, want %v", e.FeatScale, bi, i, j, v, want[j])
					}
				}
				if y[bi] != c.Labels[i] {
					t.Fatalf("label %d = %d, want %d", bi, y[bi], c.Labels[i])
				}
			}
		}
	}
}

// TestBatchIntoSteadyStateAllocs guards the training loops' reuse: a
// batch gathered into buffers that already fit allocates nothing.
func TestBatchIntoSteadyStateAllocs(t *testing.T) {
	env, gen := testEnv(t)
	ds, err := gen.GenerateDomain(1, 16, "allocs")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fl.NewClient(env, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3, 1, 4, 1, 5, 9, 2, 6}
	x, y := c.BatchInto(nil, nil, idx)
	if allocs := testing.AllocsPerRun(50, func() {
		x, y = c.BatchInto(x, y, idx)
	}); allocs != 0 {
		t.Fatalf("steady-state BatchInto: %v allocs, want 0", allocs)
	}
}

func TestGatherRows(t *testing.T) {
	src := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	out := fl.GatherRows(src, []int{2, 0})
	if out.At(0, 0) != 5 || out.At(1, 1) != 2 {
		t.Fatalf("gather = %v", out)
	}
}

func TestFedAvgWeighting(t *testing.T) {
	env, gen := testEnv(t)
	dsA, _ := gen.GenerateDomain(0, 30, "a")
	dsB, _ := gen.GenerateDomain(0, 10, "b")
	ca, _ := fl.NewClient(env, 0, dsA)
	cb, _ := fl.NewClient(env, 1, dsB)
	ma, _ := nn.New(env.ModelCfg, rand.New(rand.NewSource(1)))
	mb, _ := nn.New(env.ModelCfg, rand.New(rand.NewSource(2)))
	avg, err := new(fl.Averager).FedAvg([]*fl.Client{ca, cb}, []*nn.Model{ma, mb})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75*ma.Vector()[0] + 0.25*mb.Vector()[0]
	if diff := avg.Vector()[0] - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("fedavg = %g, want %g", avg.Vector()[0], want)
	}
	if _, err := new(fl.Averager).FedAvg([]*fl.Client{ca}, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// countingAlg records which clients trained in which round.
type countingAlg struct {
	mu     chan struct{}
	rounds map[int][]int
}

func newCountingAlg() *countingAlg {
	return &countingAlg{mu: make(chan struct{}, 1), rounds: map[int][]int{}}
}

func (a *countingAlg) Name() string                      { return "counting" }
func (a *countingAlg) Setup(*fl.Env, []*fl.Client) error { return nil }
func (a *countingAlg) LocalTrain(env *fl.Env, c *fl.Client, g *nn.Model, round int) (*nn.Model, error) {
	a.mu <- struct{}{}
	a.rounds[round] = append(a.rounds[round], c.ID)
	<-a.mu
	return g.Clone(), nil
}
func (a *countingAlg) Aggregate(_ *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	return new(fl.Averager).FedAvg(parts, updates)
}

func TestRunSamplesKClientsPerRound(t *testing.T) {
	env, gen := testEnv(t)
	var parts []*dataset.Dataset
	for i := 0; i < 6; i++ {
		ds, err := gen.GenerateDomain(i%2, 10, "run")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ds)
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		t.Fatal(err)
	}
	alg := newCountingAlg()
	_, hist, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 4, SampleK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round, ids := range alg.rounds {
		if len(ids) != 2 {
			t.Fatalf("round %d trained %d clients, want 2", round, len(ids))
		}
	}
	if hist.Timing.LocalTrainCount != 8 {
		t.Fatalf("local train count = %d, want 8", hist.Timing.LocalTrainCount)
	}
	if hist.Timing.AggregateCount != 4 {
		t.Fatalf("aggregate count = %d", hist.Timing.AggregateCount)
	}
	if len(hist.Stats) != 1 {
		t.Fatalf("EvalEvery=0 should record only the final round, got %d", len(hist.Stats))
	}
}

func TestRunClientSamplingDeterministicAcrossAlgorithms(t *testing.T) {
	env, gen := testEnv(t)
	var parts []*dataset.Dataset
	for i := 0; i < 5; i++ {
		ds, _ := gen.GenerateDomain(0, 8, "det")
		parts = append(parts, ds)
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		t.Fatal(err)
	}
	a1 := newCountingAlg()
	a2 := newCountingAlg()
	if _, _, err := fl.Run(env, a1, clients, nil, nil, fl.RunConfig{Rounds: 3, SampleK: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fl.Run(env, a2, clients, nil, nil, fl.RunConfig{Rounds: 3, SampleK: 2}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		ids1, ids2 := a1.rounds[round], a2.rounds[round]
		m := map[int]bool{}
		for _, id := range ids1 {
			m[id] = true
		}
		for _, id := range ids2 {
			if !m[id] {
				t.Fatalf("round %d participant sets differ between runs", round)
			}
		}
	}
}

func TestRunConfigErrors(t *testing.T) {
	env, gen := testEnv(t)
	ds, _ := gen.GenerateDomain(0, 10, "err")
	clients, _ := fl.NewClients(env, []*dataset.Dataset{ds})
	alg := newCountingAlg()
	if _, _, err := fl.Run(env, alg, nil, nil, nil, fl.RunConfig{Rounds: 1, SampleK: 1}); err == nil {
		t.Fatal("no clients should error")
	}
	if _, _, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 0, SampleK: 1}); err == nil {
		t.Fatal("zero rounds should error")
	}
	// The sample rate must stay in (0, 1]: no silent clamping.
	if _, _, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 1, SampleK: 0}); err == nil {
		t.Fatal("zero SampleK should error")
	}
	if _, _, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 1, SampleK: len(clients) + 1}); err == nil {
		t.Fatal("SampleK above the population should error")
	}
	if _, _, err := fl.Run(env, alg, clients, nil, nil, fl.RunConfig{Rounds: 1, SampleK: 1, EvalEvery: -1}); err == nil {
		t.Fatal("negative EvalEvery should error")
	}
}

// TestHyperValidation pins the run-start guard: hyper-parameters that
// would silently produce NaNs or empty local epochs are rejected.
func TestHyperValidation(t *testing.T) {
	if err := fl.DefaultHyper().Validate(); err != nil {
		t.Fatalf("default hyper rejected: %v", err)
	}
	bad := []fl.Hyper{
		{BatchSize: 0, LocalEpochs: 1, LR: 0.1},
		{BatchSize: -4, LocalEpochs: 1, LR: 0.1},
		{BatchSize: 32, LocalEpochs: 0, LR: 0.1},
		{BatchSize: 32, LocalEpochs: 1, LR: 0},
		{BatchSize: 32, LocalEpochs: 1, LR: -0.1},
		{BatchSize: 32, LocalEpochs: 1, LR: math.NaN()},
		{BatchSize: 32, LocalEpochs: 1, LR: 0.1, Momentum: 1},
		{BatchSize: 32, LocalEpochs: 1, LR: 0.1, Momentum: -0.5},
		{BatchSize: 32, LocalEpochs: 1, LR: 0.1, WeightDecay: -1e-4},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: invalid hyper %+v accepted", i, h)
		}
	}
	// And fl.Run enforces it.
	env, gen := testEnv(t)
	ds, _ := gen.GenerateDomain(0, 10, "hyper")
	clients, _ := fl.NewClients(env, []*dataset.Dataset{ds})
	env.Hyper.BatchSize = 0
	if _, _, err := fl.Run(env, newCountingAlg(), clients, nil, nil, fl.RunConfig{Rounds: 1, SampleK: 1}); err == nil {
		t.Fatal("fl.Run accepted BatchSize 0")
	}
}

// legacyFedAvg aggregates the pre-refactor way — fresh clone, per-tensor
// AddScaled loop — providing the reference run for the bit-identity test.
type legacyFedAvg struct {
	baselines.FedAvg
}

func (a *legacyFedAvg) Aggregate(_ *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	weights := make([]float64, len(parts))
	for i, c := range parts {
		weights[i] = float64(c.Len())
	}
	return testref.LegacyWeightedAverage(updates, weights)
}

// TestFedAvgRunMatchesLegacyAggregationBitwise is the end-to-end
// equivalence proof behind the arena refactor: a Small-scale FedAvg run
// whose server aggregates through the fused arena axpy must reproduce,
// bit for bit, the same final parameters as the identical run aggregated
// with the historical per-tensor path.
func TestFedAvgRunMatchesLegacyAggregationBitwise(t *testing.T) {
	env, gen := testEnv(t)
	var parts []*dataset.Dataset
	for i := 0; i < 5; i++ {
		ds, err := gen.GenerateDomain(i%2, 12, "arena-eq")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ds)
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.RunConfig{Rounds: 3, SampleK: 3}
	arenaModel, _, err := fl.Run(env, &baselines.FedAvg{}, clients, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacyModel, _, err := fl.Run(env, &legacyFedAvg{}, clients, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	av, lv := arenaModel.Vector(), legacyModel.Vector()
	if len(av) != len(lv) {
		t.Fatalf("param counts differ: %d vs %d", len(av), len(lv))
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(lv[i]) {
			t.Fatalf("arena and legacy aggregation diverge at param %d: %g vs %g", i, av[i], lv[i])
		}
	}
}

// TestAveragerZeroAllocSteadyState proves the per-round aggregation hot
// path — weights, output arena, fused axpy — allocates nothing once warm.
func TestAveragerZeroAllocSteadyState(t *testing.T) {
	env, gen := testEnv(t)
	var clients []*fl.Client
	var updates []*nn.Model
	for i := 0; i < 4; i++ {
		ds, err := gen.GenerateDomain(i%2, 8+i, "alloc")
		if err != nil {
			t.Fatal(err)
		}
		c, err := fl.NewClient(env, i, ds)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		m, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		updates = append(updates, m)
	}
	var avg fl.Averager
	if _, err := avg.FedAvg(clients, updates); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := avg.FedAvg(clients, updates); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FedAvg allocated %.1f objects/op, want 0", allocs)
	}
}

func TestEvalSet(t *testing.T) {
	env, gen := testEnv(t)
	ds, _ := gen.GenerateDomain(2, 9, "eval")
	es, err := fl.NewEvalSet(env, ds)
	if err != nil {
		t.Fatal(err)
	}
	if es.X.Dim(0) != 9 || len(es.Labels) != 9 || len(es.Domains) != 9 {
		t.Fatal("eval set misbuilt")
	}
	if es.Domains[0] != 2 {
		t.Fatal("domain tags missing")
	}
	if _, err := fl.NewEvalSet(env, &dataset.Dataset{NumClasses: 7}); err == nil {
		t.Fatal("empty eval set should error")
	}
}

// TestAccuracyArgmaxAcrossBatches rigs a 2-class model whose logits are
// its inputs and scores 130 rows, so the last batch is ragged (128 + 2).
// Ties resolve to the first maximum.
func TestAccuracyArgmaxAcrossBatches(t *testing.T) {
	m, err := nn.New(nn.Config{In: 2, Hidden: 2, ZDim: 2, Classes: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Params is canonical W,B per layer: W1,B1,W2,B2,WC,BC.
	for i, p := range m.Params() {
		if i%2 == 0 {
			copy(p.Data(), []float64{1, 0, 0, 1})
		} else {
			p.Zero()
		}
	}
	// Row pattern (input, label): right, right, wrong, tie read as class 0.
	pattern := []struct {
		x     [2]float64
		label int
	}{{[2]float64{2, 1}, 0}, {[2]float64{1, 3}, 1}, {[2]float64{5, 0}, 1}, {[2]float64{4, 4}, 0}}
	const n = 130
	es := &fl.EvalSet{X: tensor.New(n, 2), Labels: make([]int, n)}
	wrong := 0
	for i := 0; i < n; i++ {
		p := pattern[i%len(pattern)]
		copy(es.X.Data()[2*i:], p.x[:])
		es.Labels[i] = p.label
		if i%len(pattern) == 2 {
			wrong++
		}
	}
	acc, err := fl.Accuracy(m, es)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n-wrong) / n; acc != want {
		t.Fatalf("accuracy = %g, want %g", acc, want)
	}
}

// TestRunParallelismBitIdentical pins the kernel-layer determinism
// guarantee end to end: a real training run (FedAvg local SGD through the
// parallel matmul kernels) must produce bit-identical global parameters at
// every Env.Parallelism setting.
func TestRunParallelismBitIdentical(t *testing.T) {
	env, gen := testEnv(t)
	var parts []*dataset.Dataset
	for i := 0; i < 4; i++ {
		ds, err := gen.GenerateDomain(i%2, 10, "par")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ds)
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for _, par := range []int{1, 3} {
		e := *env
		e.Parallelism = par
		model, _, err := fl.Run(&e, &baselines.FedAvg{}, clients, nil, nil,
			fl.RunConfig{Rounds: 2, SampleK: 3})
		if err != nil {
			t.Fatal(err)
		}
		vec := model.Vector()
		if ref == nil {
			ref = vec
			continue
		}
		if len(vec) != len(ref) {
			t.Fatalf("param count %d vs %d", len(vec), len(ref))
		}
		for i := range vec {
			if math.Float64bits(vec[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("Parallelism=%d diverges at param %d: %g vs %g", par, i, vec[i], ref[i])
			}
		}
	}
}

// TestDrawInitBitIdentical: an env whose initial weights DrawInit drew
// once trains, run after run and at either precision, the same model
// bits as an env that draws them in every Run, and no run writes to
// the kept weights.
func TestDrawInitBitIdentical(t *testing.T) {
	env, gen := testEnv(t)
	var parts []*dataset.Dataset
	for i := 0; i < 3; i++ {
		ds, err := gen.GenerateDomain(i%2, 10, "init")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ds)
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		t.Fatal(err)
	}
	drawn := *env
	if err := drawn.DrawInit(); err != nil {
		t.Fatal(err)
	}
	for _, prec := range []nn.Precision{nn.F64, nn.F32, nn.F64} {
		cfg := fl.RunConfig{Rounds: 2, SampleK: 2, Precision: prec}
		want, _, err := fl.Run(env, &baselines.FedAvg{}, clients, nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := fl.Run(&drawn, &baselines.FedAvg{}, clients, nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wv, gv := want.Vector(), got.Vector()
		for i := range wv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("precision %v: kept initial weights diverge at param %d: %g vs %g", prec, i, gv[i], wv[i])
			}
		}
	}
}

// TestForEach pins the fan-out's contract: no index runs twice, every
// index up to the first failing one runs, no more goroutines than
// Parallelism run at a time, each passes a slot below Slots() that no
// other running call holds, and the error returned is the one of the
// lowest failing index, whatever the schedule.
func TestForEach(t *testing.T) {
	for _, par := range []int{1, 2, 3, 8} {
		env := &fl.Env{Parallelism: par}
		const n = 40
		var mu sync.Mutex
		seen := make([]int, n)
		busy := make([]bool, env.Slots())
		running, peak := 0, 0
		err := env.ForEach(n, func(slot, i int) error {
			mu.Lock()
			if slot < 0 || slot >= env.Slots() || busy[slot] {
				mu.Unlock()
				return fmt.Errorf("slot %d out of range or shared", slot)
			}
			busy[slot] = true
			seen[i]++
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			busy[slot] = false
			running--
			mu.Unlock()
			if i%7 == 5 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 5" {
			t.Fatalf("parallelism %d: error %v, want the lowest failing index 5", par, err)
		}
		for i, c := range seen {
			if c > 1 || (i <= 5 && c != 1) {
				t.Fatalf("parallelism %d: index %d ran %d times", par, i, c)
			}
		}
		if peak > par {
			t.Fatalf("parallelism %d: %d calls ran at once", par, peak)
		}
	}
	if err := (&fl.Env{}).ForEach(0, func(int, int) error { return fmt.Errorf("called") }); err != nil {
		t.Fatalf("empty ForEach: %v", err)
	}
}

// TestSyncedGlobalForwardsFromEverySlot checks the fan-out rule of the
// float32 shadow under the race detector: once synced, the global model
// is only read, so every ForEach slot may forward it and train from it
// (LocalTrain's first batch runs on it) at the same time. The logits
// and the trained models must equal the ones computed one at a time.
func TestSyncedGlobalForwardsFromEverySlot(t *testing.T) {
	base, clients := makeClients(t, 4, 24)
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		env := *base
		env.Parallelism = 4
		env.ModelCfg.Precision = prec
		global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		global.SyncShadow()
		x := clients[0].RowsInto(nil, 24)
		alg := &baselines.FedAvg{}
		const n = 12
		run := func(slot, i int, logits [][]float64, models [][]float64) error {
			var acts nn.Activations
			if err := global.ForwardInto(&acts, x); err != nil {
				return err
			}
			logits[i] = append([]float64(nil), acts.Logits.Data()...)
			u, err := alg.LocalTrain(&env, clients[i%len(clients)], global, i)
			if err != nil {
				return err
			}
			models[i] = append([]float64(nil), u.Vector()...)
			u.Release()
			return nil
		}
		// The concurrent pass runs first, on the shadow synced above.
		gotL, gotM := make([][]float64, n), make([][]float64, n)
		if err := env.ForEach(n, func(slot, i int) error { return run(slot, i, gotL, gotM) }); err != nil {
			t.Fatal(err)
		}
		wantL, wantM := make([][]float64, n), make([][]float64, n)
		for i := 0; i < n; i++ {
			if err := run(0, i, wantL, wantM); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			for _, pair := range [][2][]float64{{gotL[i], wantL[i]}, {gotM[i], wantM[i]}} {
				for j := range pair[1] {
					if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
						t.Fatalf("%s index %d: element %d differs when run concurrently", prec, i, j)
					}
				}
			}
		}
	}
}

// TestNewClientStylesMatchStyleOf pins the client's style arena to
// style.Of of each feature map, bit for bit.
func TestNewClientStylesMatchStyleOf(t *testing.T) {
	_, clients := makeClients(t, 1, 9)
	c := clients[0]
	if len(c.Styles) != c.Len() {
		t.Fatalf("%d styles for %d samples", len(c.Styles), c.Len())
	}
	for i, f := range c.Features {
		want, err := style.Of(f)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Styles[i]
		for _, pair := range [][2][]float64{{got.Mu, want.Mu}, {got.Sigma, want.Sigma}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("sample %d: %d channels, want %d", i, len(pair[0]), len(pair[1]))
			}
			for ch := range pair[1] {
				if math.Float64bits(pair[0][ch]) != math.Float64bits(pair[1][ch]) {
					t.Fatalf("sample %d channel %d: %g, want %g", i, ch, pair[0][ch], pair[1][ch])
				}
			}
		}
	}
}
