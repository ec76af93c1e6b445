// Package fl is the federated-learning engine of the reproduction: the
// client/server round structure shared by PARDON and every baseline, with
// client sampling, parallel local training, pluggable aggregation, and the
// phase wall-clock instrumentation behind the paper's Fig. 4.
//
// The engine follows the FL scheme the paper adopts from McMahan et al.
// and SCAFFOLD: all clients share one model architecture (feature
// extractor f + unified classifier g, see internal/nn); each round the
// server samples K of N clients, broadcasts the global model, clients
// train locally, and the server aggregates.
//
// Determinism: every stochastic choice draws from a named substream of the
// environment's rng.Source keyed by (purpose, client, round), so runs are
// bit-reproducible regardless of the worker pool's scheduling.
//
// Parallel work goes through one fan-out, Env.ForEach, bounded by
// Env.Parallelism: client encoding (NewClients), the local phase of each
// round, and the per-participant work inside an Aggregate (FedDG-GA's
// loss evaluations, FPL's class means). Run hands every phase an env
// whose Parallelism is resolved (Slots), so the caller's Env.Parallelism
// caps them all. Each call of the fan-out writes only its own index's
// result, so the output does not depend on the parallelism.
package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/partition"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Hyper bundles the local-training hyper-parameters shared by all methods
// (paper §IV-A: batch size 32, 1 local epoch).
type Hyper struct {
	BatchSize   int
	LocalEpochs int
	LR          float64
	Momentum    float64
	WeightDecay float64
}

// DefaultHyper mirrors the paper's settings with SGD constants that suit
// the reproduction's MLP.
func DefaultHyper() Hyper {
	return Hyper{BatchSize: 32, LocalEpochs: 1, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4}
}

// Validate reports hyper-parameter errors that would otherwise surface
// as NaNs or silently empty local epochs deep inside a run.
func (h Hyper) Validate() error {
	if h.BatchSize <= 0 {
		return fmt.Errorf("fl: batch size %d, want > 0", h.BatchSize)
	}
	if h.LocalEpochs <= 0 {
		return fmt.Errorf("fl: local epochs %d, want > 0", h.LocalEpochs)
	}
	if h.LR <= 0 || math.IsNaN(h.LR) || math.IsInf(h.LR, 0) {
		return fmt.Errorf("fl: learning rate %g, want finite > 0", h.LR)
	}
	if h.Momentum < 0 || h.Momentum >= 1 || math.IsNaN(h.Momentum) {
		return fmt.Errorf("fl: momentum %g, want in [0,1)", h.Momentum)
	}
	if h.WeightDecay < 0 || math.IsNaN(h.WeightDecay) || math.IsInf(h.WeightDecay, 0) {
		return fmt.Errorf("fl: weight decay %g, want finite ≥ 0", h.WeightDecay)
	}
	return nil
}

// Env is the shared execution environment of one federated run: the frozen
// encoder, the model architecture, hyper-parameters, and the deterministic
// randomness source.
type Env struct {
	Enc      *encoder.Encoder
	ModelCfg nn.Config
	Hyper    Hyper
	RNG      *rng.Source
	// Parallelism bounds the goroutines of ForEach, which runs client
	// encoding, local training and the parallel parts of aggregation;
	// 0 means runtime.NumCPU().
	Parallelism int
	// FeatShift and FeatScale standardize flattened encoder features
	// before they enter the model: x ← (x − FeatShift)·FeatScale. They
	// are part of the publicly agreed preprocessing (like the frozen
	// encoder itself) and are set once by Calibrate. Zero FeatScale is
	// treated as 1 so the zero value is usable.
	FeatShift float64
	FeatScale float64
}

// Slots returns how many goroutines ForEach may run: Parallelism, or
// runtime.NumCPU() when that is 0. ForEach's slot argument is below it,
// so it sizes per-slot scratch.
func (e *Env) Slots() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.NumCPU()
}

// ForEach calls fn(slot, i) for every i in [0,n) on at most Slots()
// goroutines, the caller's included, and returns when every call has.
// Indices are handed out in ascending order; the goroutine that makes a
// call passes its own slot, below Slots(), so fn may use per-slot
// scratch without locking. Calls with distinct i must not write shared
// state. Once a call fails no further index is handed out, and the
// error returned is that of the lowest i that failed.
func (e *Env) ForEach(n int, fn func(slot, i int) error) error {
	par := e.Slots()
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errAt  = n
		first  error
		wg     sync.WaitGroup
	)
	work := func(slot int) {
		// Indices below a failed one were handed out before it, so
		// they all run: the lowest failure is always seen.
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(slot, i); err != nil {
				mu.Lock()
				if i < errAt {
					errAt, first = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	wg.Add(par - 1)
	for slot := 1; slot < par; slot++ {
		go func(slot int) {
			defer wg.Done()
			work(slot)
		}(slot)
	}
	work(0)
	wg.Wait()
	return first
}

// NormalizeFeature applies the environment's fixed feature standardization
// in place. All model inputs — client batches, eval sets, style-transferred
// views — must pass through this so every code path sees one scale.
func (e *Env) NormalizeFeature(data []float64) {
	standardize(data, data, e.FeatShift, e.FeatScale)
}

// standardize writes (src[i] − shift)·scale into dst[i], reading a zero
// scale as 1: the one spelling of the input standardization, so
// normalizing in place and while gathering rows produce the same bits.
func standardize(dst, src []float64, shift, scale float64) {
	if scale == 0 {
		scale = 1
	}
	tensor.AffineInto(dst, src, shift, scale)
}

// Calibrate estimates FeatShift/FeatScale from up to capPer samples of
// each provided dataset. Like the frozen encoder weights, the constants
// are shared public preprocessing agreed before training.
func (e *Env) Calibrate(capPer int, dss ...*dataset.Dataset) error {
	if capPer <= 0 {
		capPer = 64
	}
	var sum, sumSq float64
	var n int
	f := make([]float64, e.InputDim())
	for _, ds := range dss {
		limit := ds.Len()
		if limit > capPer {
			limit = capPer
		}
		for i := 0; i < limit; i++ {
			if err := e.Enc.EncodeInto(f, ds.Samples[i].X); err != nil {
				return fmt.Errorf("fl: calibrate: %w", err)
			}
			for _, v := range f {
				sum += v
				sumSq += v * v
			}
			n += len(f)
		}
	}
	if n == 0 {
		return fmt.Errorf("fl: calibrate: no samples")
	}
	mean := sum / float64(n)
	va := sumSq/float64(n) - mean*mean
	if va < 1e-12 {
		va = 1e-12
	}
	e.FeatShift = mean
	e.FeatScale = 1.0 / math.Sqrt(va)
	return nil
}

// InputDim returns the flattened encoder-feature dimension models consume.
func (e *Env) InputDim() int {
	c, h, w := e.Enc.OutShape()
	return c * h * w
}

// Client is one federated participant: the cached frozen-encoder
// features every method trains on. It keeps no raw images, and model
// inputs are standardized as rows are gathered (BatchInto), so the
// feature arena is the client's one resident copy of its data. Clients
// are read-only during training and may be shared across algorithm runs.
type Client struct {
	ID       int
	Features []*tensor.Tensor // Φ(x), shape (C,H,W), one per sample
	// Styles[i] is the channel-wise style of Features[i], exactly as
	// style.Of computes it; every Mu and Sigma is a view into one
	// per-client arena. The style-transfer methods (PARDON, CCST) read
	// it instead of recomputing a sample's statistics per batch.
	Styles []style.Style
	Labels []int
	// FeatShift and FeatScale are the environment's standardization at
	// encode time.
	FeatShift float64
	FeatScale float64
}

// NewClient encodes the client's data once. The feature maps (style
// extraction, AdaIN, and the rows of model inputs) are views into one
// per-client arena, encoded in place, and each sample's style is
// computed once into a second arena.
func NewClient(env *Env, id int, data *dataset.Dataset) (*Client, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("fl: client %d has no data", id)
	}
	c := &Client{ID: id, FeatShift: env.FeatShift, FeatScale: env.FeatScale}
	c.Features = make([]*tensor.Tensor, data.Len())
	c.Styles = make([]style.Style, data.Len())
	c.Labels = make([]int, data.Len())
	ch, h, w := env.Enc.OutShape()
	in := ch * h * w
	arena := make([]float64, data.Len()*in)
	stats := make([]float64, data.Len()*2*ch)
	for i, s := range data.Samples {
		f := arena[i*in : (i+1)*in]
		if err := env.Enc.EncodeInto(f, s.X); err != nil {
			return nil, fmt.Errorf("fl: client %d sample %d: %w", id, i, err)
		}
		c.Features[i] = tensor.MustFromSlice(f, ch, h, w)
		st := stats[2*i*ch : 2*(i+1)*ch]
		c.Styles[i] = style.Style{Mu: st[:ch:ch], Sigma: st[ch:]}
		if err := style.OfInto(&c.Styles[i], c.Features[i]); err != nil {
			return nil, fmt.Errorf("fl: client %d sample %d: %w", id, i, err)
		}
		c.Labels[i] = s.Y
	}
	return c, nil
}

// Len returns the client's sample count.
func (c *Client) Len() int { return len(c.Labels) }

// NewClients builds clients 0..len(parts)-1 from partitioned datasets,
// encoding in parallel (ForEach).
func NewClients(env *Env, parts []*dataset.Dataset) ([]*Client, error) {
	clients := make([]*Client, len(parts))
	err := env.ForEach(len(parts), func(_, i int) error {
		var err error
		clients[i], err = NewClient(env, i, parts[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return clients, nil
}

// BatchInto gathers the standardized model inputs of the samples at idx
// into x and their labels into y, and returns both. x and y are reused
// when they have room (a smaller batch re-views x's storage), so a loop
// that feeds its buffers back allocates nothing per batch.
func (c *Client) BatchInto(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	in := c.Features[0].Len()
	x = tensor.Fit2D(x, len(idx), in)
	y = tensor.Fit(y, len(idx))
	dst := x.Data()
	for bi, i := range idx {
		standardize(dst[bi*in:(bi+1)*in], c.Features[i].Data(), c.FeatShift, c.FeatScale)
		y[bi] = c.Labels[i]
	}
	return x, y
}

// RowsInto gathers the standardized inputs of the client's first n
// samples into x (reused when it has room) and returns it; the matching
// labels are c.Labels[:n].
func (c *Client) RowsInto(x *tensor.Tensor, n int) *tensor.Tensor {
	in := c.Features[0].Len()
	x = tensor.Fit2D(x, n, in)
	dst := x.Data()
	for i, f := range c.Features[:n] {
		standardize(dst[i*in:(i+1)*in], f.Data(), c.FeatShift, c.FeatScale)
	}
	return x
}

// GatherRows copies rows at idx from an (n, d) tensor into a new batch
// tensor; used for algorithm-side caches aligned with client sample order.
func GatherRows(t *tensor.Tensor, idx []int) *tensor.Tensor {
	d := t.Dim(1)
	src := t.Data()
	out := tensor.New(len(idx), d)
	dst := out.Data()
	for bi, i := range idx {
		copy(dst[bi*d:(bi+1)*d], src[i*d:(i+1)*d])
	}
	return out
}

// Batches yields shuffled index batches covering [0,n).
func Batches(n, batchSize int, r *rand.Rand) [][]int {
	if batchSize <= 0 {
		batchSize = 32
	}
	perm := r.Perm(n)
	out := make([][]int, 0, (n+batchSize-1)/batchSize)
	for s := 0; s < n; s += batchSize {
		e := s + batchSize
		if e > n {
			e = n
		}
		out = append(out, perm[s:e])
	}
	return out
}

// batchBuf is LocalSGD's batch buffer: the gathered inputs and labels.
type batchBuf struct {
	x *tensor.Tensor
	y []int
}

// batchPool recycles batch buffers across LocalSGD calls, so a pass
// gathers into the rows an earlier pass allocated.
var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

// LocalSGD is the local-training loop every method shares: it trains
// from global by SGD (gradient norm clipped at clip; 0 is off) for
// Hyper.LocalEpochs over shuffled batches of c drawn from r, and returns
// the trained model. step adds one batch's gradients into grads, which
// are all zero at each call, and must not modify model's parameters.
// The first batch's step runs on global itself, and the first SGD step
// reads global and writes its iterate into a recycled arena
// (nn.SGD.StepFrom), so global is never cloned or written: concurrent
// calls may share one global whose float32 shadow is synced
// (nn.Model.SyncShadow). Later steps run on the returned model, each
// one sweep that also clears the gradients for the next batch. The
// batch buffers x and y are reused across batches and recycled across
// calls, so step must not keep them; the gradients and optimizer state
// are recycled on return.
func LocalSGD(env *Env, c *Client, global *nn.Model, r *rand.Rand, clip float64,
	step func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error) (*nn.Model, error) {
	return localSGD(env, c, global, r, clip, step)
}

// localSGD is LocalSGD's body. It is a variable only so that this
// package's tests can swap in the historical loop (clone, zero the
// gradients per batch, step) as an oracle and train every method
// through both (export_test.go).
var localSGD = sweepLocalSGD

func sweepLocalSGD(env *Env, c *Client, global *nn.Model, r *rand.Rand, clip float64,
	step func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error) (*nn.Model, error) {
	opt := nn.NewSGD(env.Hyper.LR, env.Hyper.Momentum, env.Hyper.WeightDecay)
	opt.Clip = clip
	grads := global.NewGrads()
	defer grads.Release()
	defer opt.Release()
	buf := batchPool.Get().(*batchBuf)
	defer batchPool.Put(buf)
	model := global
	for epoch := 0; epoch < env.Hyper.LocalEpochs; epoch++ {
		for _, idx := range Batches(c.Len(), env.Hyper.BatchSize, r) {
			buf.x, buf.y = c.BatchInto(buf.x, buf.y, idx)
			err := step(model, grads, buf.x, buf.y, idx)
			if err == nil {
				if model == global {
					model, err = opt.StepFrom(global, grads)
				} else {
					err = opt.Step(model, grads)
				}
			}
			if err != nil {
				if model != global {
					model.Release()
				}
				return nil, err
			}
		}
	}
	if model == global {
		// No batch ran: the pass returns the global's parameters.
		return global.Clone(), nil
	}
	return model, nil
}

// EvalSet is a pre-encoded evaluation corpus (e.g. an unseen domain).
type EvalSet struct {
	X       *tensor.Tensor
	Labels  []int
	Domains []int
}

// NewEvalSet encodes an evaluation dataset once.
func NewEvalSet(env *Env, data *dataset.Dataset) (*EvalSet, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("fl: empty evaluation set")
	}
	in := env.InputDim()
	es := &EvalSet{X: tensor.New(data.Len(), in), Labels: make([]int, data.Len()), Domains: make([]int, data.Len())}
	dst := es.X.Data()
	for i, s := range data.Samples {
		row := dst[i*in : (i+1)*in]
		if err := env.Enc.EncodeInto(row, s.X); err != nil {
			return nil, fmt.Errorf("fl: eval sample %d: %w", i, err)
		}
		env.NormalizeFeature(row)
		es.Labels[i] = s.Y
		es.Domains[i] = s.Domain
	}
	return es, nil
}

// Algorithm is a federated training method. Implementations hold their own
// per-client state keyed by Client.ID and must be safe for LocalTrain to
// be called concurrently for distinct clients.
type Algorithm interface {
	// Name identifies the method in reports.
	Name() string
	// Setup runs once before round 0 with access to all clients. This is
	// where one-time signal exchange happens (PARDON's interpolation
	// style, CCST's style banks); its cost is the "one-time cost" of the
	// paper's Fig. 4.
	Setup(env *Env, clients []*Client) error
	// LocalTrain trains from the global model on client c and returns
	// the result, a model of its own; global is only read (LocalSGD),
	// so concurrent calls share it. Run syncs its shadow first.
	LocalTrain(env *Env, c *Client, global *nn.Model, round int) (*nn.Model, error)
	// Aggregate merges the participants' updates into the next global
	// model. updates[i] belongs to parts[i]. It may fan its own work out
	// with env.ForEach, but must never forward a model with a stale
	// float32 shadow from two goroutines: such a forward narrows the
	// shadow, writing the model (nn.Model.SyncShadow). An update comes
	// back from its last SGD step with a fresh shadow; a model the
	// aggregation has just written is stale until synced.
	Aggregate(env *Env, global *nn.Model, parts []*Client, updates []*nn.Model, round int) (*nn.Model, error)
}

// CheckUpdates reports the error an Aggregate returns when parts and
// updates do not pair up one to one.
func CheckUpdates(parts []*Client, updates []*nn.Model) error {
	if len(parts) != len(updates) {
		return fmt.Errorf("fl: %d participants vs %d updates", len(parts), len(updates))
	}
	return nil
}

// Averager is the reusable server-side FedAvg state: one output arena
// and one weight buffer that are recycled across rounds, so steady-state
// aggregation of K client updates performs zero heap allocations. An
// Averager belongs to one run's aggregation loop and is not safe for
// concurrent use; the model it returns is reused by the next call.
type Averager struct {
	weights []float64
	out     *nn.Model
}

// FedAvg computes the size-weighted parameter average
// (G = Σ n_i·G_i / Σ n_i), the aggregation PARDON and most baselines
// use, into the reused output model. The accumulation is one fused arena axpy per client,
// bit-identical to the historical per-tensor path.
func (a *Averager) FedAvg(parts []*Client, updates []*nn.Model) (*nn.Model, error) {
	if err := CheckUpdates(parts, updates); err != nil {
		return nil, err
	}
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: average of zero updates")
	}
	if cap(a.weights) < len(parts) {
		a.weights = make([]float64, len(parts))
	}
	w := a.weights[:len(parts)]
	for i, c := range parts {
		w[i] = float64(c.Len())
	}
	if a.out == nil || !a.out.Cfg.Equal(updates[0].Cfg) {
		a.out = nn.NewLike(updates[0])
	}
	if err := nn.WeightedAverageInto(a.out, updates, w); err != nil {
		return nil, err
	}
	return a.out, nil
}

// RoundStats records the evaluation snapshot after one round.
type RoundStats struct {
	Round   int
	ValAcc  float64
	TestAcc float64
}

// Timing breaks down wall-clock per phase (Fig. 4): Setup is the one-time
// cost; LocalTrain sums client-local training time (with counts to derive
// the per-client average); Aggregate sums server aggregation time.
type Timing struct {
	Setup           time.Duration
	LocalTrain      time.Duration
	LocalTrainCount int
	Aggregate       time.Duration
	AggregateCount  int
}

// History is the full trace of one federated run.
type History struct {
	Stats  []RoundStats
	Timing Timing
}

// Final returns the last recorded round stats (zero value if none).
func (h *History) Final() RoundStats {
	if len(h.Stats) == 0 {
		return RoundStats{}
	}
	return h.Stats[len(h.Stats)-1]
}

// RunConfig controls one federated run.
type RunConfig struct {
	Rounds int
	// SampleK clients participate per round; Run rejects values outside
	// (0, N] at start (see Validate) — there is no silent clamping.
	SampleK int
	// EvalEvery evaluates every that-many rounds (and always on the last
	// round). 0 means only the last round.
	EvalEvery int
	// Context, when non-nil, aborts the run at the next round boundary
	// once cancelled; Run then returns the context's error. Rounds in
	// flight are finished, so determinism of completed rounds is kept.
	Context context.Context
	// OnRound, when non-nil, is invoked from the coordinating goroutine
	// after every completed round with the 1-based round number, the
	// total round count and the round's wall-clock bounds (sampling
	// through aggregation and eval). It must not block for long: local
	// training of the next round waits on it.
	OnRound func(round, total int, start, end time.Time)
	// Precision selects the compute dtype of the training hot path
	// (nn.F64 default, nn.F32 opt-in). Unlike Env.Parallelism this is NOT
	// result-neutral: float32 rounds perturb the trajectory within the
	// tolerance documented in nn/precision.go, so it is part of a run's
	// identity (the engine hashes it into job IDs).
	Precision nn.Precision
}

// Validate reports configuration errors against a client population of
// size numClients. SampleK must keep the per-round sample rate inside
// (0, 1] — silently clamping it used to hide typo'd populations.
func (c RunConfig) Validate(numClients int) error {
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: rounds %d, want > 0", c.Rounds)
	}
	if c.SampleK <= 0 || c.SampleK > numClients {
		return fmt.Errorf("fl: SampleK %d outside (0, %d] for %d clients", c.SampleK, numClients, numClients)
	}
	if c.EvalEvery < 0 {
		return fmt.Errorf("fl: EvalEvery %d, want ≥ 0", c.EvalEvery)
	}
	if c.Precision > nn.F32 {
		return fmt.Errorf("fl: unknown precision %d", c.Precision)
	}
	return nil
}

// Run executes a federated training run and returns the final global model
// and its history. val and test may be nil to skip that evaluation.
//
// Client sampling uses a stream keyed only by round — NOT by algorithm —
// so all methods see identical participant schedules, matching the paper's
// controlled overhead/accuracy comparisons.
func Run(env *Env, alg Algorithm, clients []*Client, val, test *EvalSet, cfg RunConfig) (*nn.Model, *History, error) {
	if len(clients) == 0 {
		return nil, nil, fmt.Errorf("fl: no clients")
	}
	if err := env.Hyper.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.Validate(len(clients)); err != nil {
		return nil, nil, err
	}
	// Work on a copy of the env so the caller's stays untouched. The
	// precision knob rides on the model config so every Clone in the
	// round loop inherits it; initialization draws in float64 either
	// way, so both precisions start from identical weights. Parallelism
	// becomes the run's resolved bound, which every ForEach of the run
	// (local phase and aggregation) then keeps to.
	e := *env
	e.ModelCfg.Precision = cfg.Precision
	e.Parallelism = e.Slots()
	env = &e
	global, err := nn.New(env.ModelCfg, env.RNG.Stream("model-init"))
	if err != nil {
		return nil, nil, err
	}
	hist := &History{}

	setupStart := time.Now()
	if err := alg.Setup(env, clients); err != nil {
		return nil, nil, fmt.Errorf("fl: %s setup: %w", alg.Name(), err)
	}
	hist.Timing.Setup = time.Since(setupStart)

	for round := 0; round < cfg.Rounds; round++ {
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				return nil, nil, fmt.Errorf("fl: %s cancelled before round %d: %w", alg.Name(), round, err)
			}
		}
		roundStart := time.Now()
		ids := partition.SampleClients(len(clients), cfg.SampleK, env.RNG.StreamI("client-sampling", round))
		parts := make([]*Client, len(ids))
		for i, id := range ids {
			parts[i] = clients[id]
		}

		// The clients' first forwards read the global concurrently, so
		// its float32 shadow is narrowed here, once, and they only read
		// it.
		global.SyncShadow()
		updates := make([]*nn.Model, len(parts))
		durs := make([]time.Duration, len(parts))
		err := env.ForEach(len(parts), func(_, i int) error {
			t0 := time.Now()
			u, err := alg.LocalTrain(env, parts[i], global, round)
			updates[i], durs[i] = u, time.Since(t0)
			if err != nil {
				return fmt.Errorf("fl: %s round %d client %d: %w", alg.Name(), round, parts[i].ID, err)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		for _, d := range durs {
			hist.Timing.LocalTrain += d
		}
		hist.Timing.LocalTrainCount += len(parts)

		aggStart := time.Now()
		global, err = alg.Aggregate(env, global, parts, updates, round)
		if err != nil {
			return nil, nil, fmt.Errorf("fl: %s round %d aggregate: %w", alg.Name(), round, err)
		}
		hist.Timing.Aggregate += time.Since(aggStart)
		hist.Timing.AggregateCount++
		// Aggregate has consumed the client updates (every implementation
		// reads them within the call and returns an arena it owns), so
		// their parameter arenas can be recycled into the next round's
		// first steps. Guard against an algorithm echoing an update back.
		for _, u := range updates {
			if u != global {
				u.Release()
			}
		}

		last := round == cfg.Rounds-1
		if last || (cfg.EvalEvery > 0 && (round+1)%cfg.EvalEvery == 0) {
			rs := RoundStats{Round: round + 1}
			if val != nil {
				rs.ValAcc, err = Accuracy(global, val)
				if err != nil {
					return nil, nil, err
				}
			}
			if test != nil {
				rs.TestAcc, err = Accuracy(global, test)
				if err != nil {
					return nil, nil, err
				}
			}
			hist.Stats = append(hist.Stats, rs)
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round+1, cfg.Rounds, roundStart, time.Now())
		}
	}
	// Detach the returned model from the algorithm's reused aggregation
	// arena (Averager/FedGMA recycle their output across rounds — and
	// across runs, if the caller reuses the algorithm instance).
	return global.Clone(), hist, nil
}

// Accuracy is the fraction of es's rows whose argmax logit (first
// maximum on ties) equals the label, forwarding in batches of 128. Run
// reports every RoundStats accuracy through it.
func Accuracy(m *nn.Model, es *EvalSet) (float64, error) {
	n := es.X.Dim(0)
	d := es.X.Dim(1)
	data := es.X.Data()
	correct := 0
	const batch = 128
	// One reusable activation set serves every full-size batch; only the
	// ragged final batch reallocates.
	acts := &nn.Activations{}
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		bt := tensor.MustFromSlice(data[start*d:end*d], end-start, d)
		if err := m.ForwardInto(acts, bt); err != nil {
			return 0, err
		}
		c := acts.Logits.Dim(1)
		ld := acts.Logits.Data()
		for i := 0; i < end-start; i++ {
			row := ld[i*c : (i+1)*c]
			best, bi := row[0], 0
			for j, v := range row {
				if v > best {
					best, bi = v, j
				}
			}
			if bi == es.Labels[start+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n), nil
}
