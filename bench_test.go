// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (reduced "small" scale — see DESIGN.md §4 for the index and
// cmd/feddg for paper-scale runs), plus micro-benchmarks of the hot
// computational kernels. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Each macro-benchmark prints its table through b.Log on the first
// iteration, so the bench run reproduces the paper artifacts.
package pardon_test

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"testing"

	"github.com/pardon-feddg/pardon/internal/attack"
	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/eval"
	"github.com/pardon-feddg/pardon/internal/finch"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/synth"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

var logOnce sync.Map

// quietEngine returns an engine that logs nothing, so no job log line
// lands among the benchmark result lines.
func quietEngine(b *testing.B) *engine.Engine {
	b.Helper()
	eng, err := engine.New(engine.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// freshEvalConfig gives a benchmark iteration its own engine so every
// iteration measures training, not content-address cache hits on the
// process-wide default engine.
func freshEvalConfig(b *testing.B, seed uint64) (eval.Config, func()) {
	b.Helper()
	eng := quietEngine(b)
	return eval.Config{Scale: eval.Small, Seed: seed, Engine: eng}, eng.Close
}

func logFirst(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + text)
	}
}

// --- Table I: LTDO comparison (PACS + Office-Home) ---

func BenchmarkTable1LTDO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		results, err := eval.RunLTDO(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			logFirst(b, "table1-"+r.Dataset, r.Table("Table I — LTDO on "+r.Dataset).Render())
		}
	}
}

// --- Table II: LODO comparison ---

func BenchmarkTable2LODO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		results, err := eval.RunLODO(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			logFirst(b, "table2-"+r.Dataset, r.Table("Table II — LODO on "+r.Dataset).Render())
		}
	}
}

// --- Table III: IWildCam λ sweep ---

func BenchmarkTable3IWildCam(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunIWildCam(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "table3", r.Table().Render())
	}
}

// --- Table IV: style-inversion privacy attacks ---

func BenchmarkTable4Attack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := attack.RunPrivacy(attack.PrivacyConfig{Seed: 1, VictimsPerDomain: 96, ClientsPerDomain: 8, PublicSamples: 320})
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "table4", r.Table().Render())
	}
}

// --- Table V: PARDON ablation ---

func BenchmarkTable5Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunAblation(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "table5", r.Table().Render())
	}
}

// --- Fig. 1: loss landscape + feature separation ---

func BenchmarkFig1Landscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunLandscape(cfg, "")
		done()
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig1", r.Table().Render())
	}
}

// --- Fig. 3: convergence curves by λ ---

func BenchmarkFig3Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunConvergence(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		for li, t := range r.Tables() {
			if li == 1 { // λ=0.1, the paper's default, as the sample
				logFirst(b, "fig3", t.Render())
			}
		}
	}
}

// --- Fig. 4: computational overhead ---

func BenchmarkFig4Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunOverhead(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig4", r.Table().Render())
	}
}

// --- Fig. 5: client scaling (K fixed, N growing) ---

func BenchmarkFig5ClientScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunClientScaling(cfg)
		done()
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range r.Tables() {
			logFirst(b, "fig5-"+t.Title, t.Render())
		}
	}
}

// --- Figs. 6/7 are the image dumps of Table IV's attacks (cmd/feddg
// -exp fig6/fig7); Fig. 8: transfer distinguishability ---

func BenchmarkFig8StyleTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, done := freshEvalConfig(b, 1)
		r, err := eval.RunStyleTransferComparison(cfg, "")
		done()
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig8", r.Table().Render())
	}
}

// --- Ablation benches for DESIGN.md §5 design choices ---

// BenchmarkAblationMedianVsMean quantifies Eq. 5's median against plain
// averaging when an extreme style group is present.
func BenchmarkAblationMedianVsMean(b *testing.B) {
	styles := make([][]float64, 0, 40)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 36; i++ {
		styles = append(styles, []float64{1 + r.NormFloat64()*0.1, 1 + r.NormFloat64()*0.1, 1, 1})
	}
	for i := 0; i < 4; i++ {
		styles = append(styles, []float64{400 + r.NormFloat64(), 400, -400, 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med, err := core.InterpolationStyle(styles, true)
		if err != nil {
			b.Fatal(err)
		}
		mean, err := core.InterpolationStyle(styles, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("median-fused μ[0]=%.2f vs mean-fused μ[0]=%.2f (extreme group present)", med.Mu[0], mean.Mu[0])
		}
	}
}

// BenchmarkAblationFinchLevel compares global clustering on the finest
// versus coarsest FINCH partition (the level choice called out in
// DESIGN.md).
func BenchmarkAblationFinchLevel(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	pts := make([][]float64, 60)
	for i := range pts {
		base := float64(i%3) * 5
		pts[i] = []float64{base + r.NormFloat64()*0.2, base + r.NormFloat64()*0.2}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := finch.Cluster(pts, finch.Cosine)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("FINCH levels: finest=%d clusters, coarsest=%d clusters",
				res.First().NumClusters, res.Last().NumClusters)
		}
	}
}

// --- Micro-benchmarks of the computational kernels ---

func BenchmarkEncoderEncode(b *testing.B) {
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(1)), 1, 3, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaIN(b *testing.B) {
	f := tensor.Randn(rand.New(rand.NewSource(2)), 1, 16, 8, 8)
	target := &style.Style{Mu: make([]float64, 16), Sigma: make([]float64, 16)}
	for i := range target.Sigma {
		target.Sigma[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := style.AdaIN(f, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFINCH200Points(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := finch.Cluster(pts, finch.Cosine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelForwardBackward(b *testing.B) {
	m, err := nn.New(nn.Config{In: 1024, Hidden: 64, ZDim: 32, Classes: 7}, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(5)), 1, 32, 1024)
	grads := m.NewGrads()
	dLogits := tensor.Randn(rand.New(rand.NewSource(6)), 0.1, 32, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acts, err := m.Forward(x)
		if err != nil {
			b.Fatal(err)
		}
		grads.Zero()
		if err := m.Backward(acts, dLogits, nil, grads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthRender(b *testing.B) {
	gen, err := synth.New(synth.PACSConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Render(i%7, i%4, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientStyle(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	feats := make([]*tensor.Tensor, 40)
	for i := range feats {
		feats[i] = tensor.Randn(r, 1, 16, 8, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ClientStyle(feats, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel micro-benchmarks: blocked parallel kernels vs the naive
// serial reference (the ≥2× CI acceptance target at GOMAXPROCS≥4 reads
// the 256³ pair) ---

func benchKernelOperands(seed1, seed2 int64, m, k, n int) (a, bm, out []float64) {
	a = tensor.Randn(rand.New(rand.NewSource(seed1)), 1, m*k).Data()
	bm = tensor.Randn(rand.New(rand.NewSource(seed2)), 1, k*n).Data()
	return a, bm, make([]float64, m*n)
}

func BenchmarkMatMul256Serial(b *testing.B) {
	a, bm, out := benchKernelOperands(10, 11, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulSerial(out, a, bm, 256, 256, 256)
	}
}

func BenchmarkMatMul256Parallel(b *testing.B) {
	a, bm, out := benchKernelOperands(10, 11, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulF64(out, a, bm, 256, 256, 256)
	}
}

func BenchmarkMatMulATB256Serial(b *testing.B) {
	a, bm, out := benchKernelOperands(12, 13, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulATBSerial(out, a, bm, 256, 256, 256)
	}
}

// The float64 aᵀ@b entry adds into out, as Backward adds weight
// gradients; the serial reference assigns.
func BenchmarkMatMulATB256Parallel(b *testing.B) {
	a, bm, out := benchKernelOperands(12, 13, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulATBAddF64(out, a, bm, 256, 256, 256)
	}
}

func BenchmarkMatMulABT256Serial(b *testing.B) {
	a, bm, out := benchKernelOperands(14, 15, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulABTSerial(out, a, bm, 256, 256, 256)
	}
}

func BenchmarkMatMulABT256Parallel(b *testing.B) {
	a, bm, out := benchKernelOperands(14, 15, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulABTF64(out, a, bm, 256, 256, 256)
	}
}

// --- Aggregation benchmarks: the fused whole-arena axpy of the
// parameter-arena model vs the legacy per-tensor reference path
// (DESIGN.md §6). Both land in the CI bench job's BENCH_<sha>.json
// artifact, so the server-side aggregation trajectory is recorded per
// commit alongside the kernel numbers. ---

// benchAggregateModels builds K scenario-size client updates plus size
// weights — the server's per-round aggregation input.
func benchAggregateModels(b *testing.B, k int) ([]*nn.Model, []float64) {
	b.Helper()
	models := make([]*nn.Model, k)
	weights := make([]float64, k)
	for i := range models {
		m, err := nn.New(nn.Config{In: 1024, Hidden: 64, ZDim: 32, Classes: 7}, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
		weights[i] = float64(20 + i)
	}
	return models, weights
}

// BenchmarkAggregateArena measures the production path: one fused axpy
// over each client's arena into a reused destination (zero allocations).
func BenchmarkAggregateArena(b *testing.B) {
	models, weights := benchAggregateModels(b, 20)
	dst := nn.NewLike(models[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nn.WeightedAverageInto(dst, models, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelTrainStepReuse measures the fused forward/backward path
// with activation and scratch reuse — the per-batch cost every local
// training loop pays.
func BenchmarkModelTrainStepReuse(b *testing.B) {
	m, err := nn.New(nn.Config{In: 1024, Hidden: 64, ZDim: 32, Classes: 7}, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(5)), 1, 32, 1024)
	grads := m.NewGrads()
	dLogits := tensor.Randn(rand.New(rand.NewSource(6)), 0.1, 32, 7)
	acts := &nn.Activations{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ForwardInto(acts, x); err != nil {
			b.Fatal(err)
		}
		grads.Zero()
		if err := m.Backward(acts, dLogits, nil, grads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStep times one whole local-training step on the
// train-grid model: ForwardInto, then Backward into zeroed gradients,
// then SGD.Step, as fl.LocalSGD runs them. Sub-benchmarks cover both
// precisions and both batch sizes of a 48-sample client (a 32-row
// batch, then a ragged 16-row one). Names are stable
// (TrainStep/<dtype>/<rows>) for scripts/benchcmp.
func BenchmarkTrainStep(b *testing.B) {
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		for _, rows := range []int{32, 16} {
			b.Run(fmt.Sprintf("%s/%d", prec, rows), func(b *testing.B) {
				cfg := nn.Config{In: 1024, Hidden: 64, ZDim: 32, Classes: 7, Precision: prec}
				m, err := nn.New(cfg, rand.New(rand.NewSource(4)))
				if err != nil {
					b.Fatal(err)
				}
				x := tensor.Randn(rand.New(rand.NewSource(5)), 1, rows, cfg.In)
				dLogits := tensor.Randn(rand.New(rand.NewSource(6)), 0.1, rows, cfg.Classes)
				grads := m.NewGrads()
				h := fl.DefaultHyper()
				opt := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
				acts := &nn.Activations{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.ForwardInto(acts, x); err != nil {
						b.Fatal(err)
					}
					grads.Zero()
					if err := m.Backward(acts, dLogits, nil, grads); err != nil {
						b.Fatal(err)
					}
					if err := opt.Step(m, grads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Gen-2 micro-kernel sweep: the three blocked products at three
// square sizes and both compute dtypes. Sub-benchmark names are stable
// (MicroKernels/<op>/<dtype>/<size>) because the CI bench-compare step
// parses them out of consecutive BENCH artifacts; rename them only
// together with scripts/benchcmp.go. ---

func BenchmarkMicroKernels(b *testing.B) {
	products := []struct {
		name string
		f64  func(out, a, bm []float64, s int)
		f32  func(out, a, bm []float32, s int)
	}{
		{"MatMul",
			func(out, a, bm []float64, s int) { tensor.MatMulF64(out, a, bm, s, s, s) },
			func(out, a, bm []float32, s int) { tensor.MatMulF32(out, a, bm, s, s, s) }},
		{"ATB",
			func(out, a, bm []float64, s int) { clear(out); tensor.MatMulATBAddF64(out, a, bm, s, s, s) },
			func(out, a, bm []float32, s int) { tensor.MatMulATBF32(out, a, bm, s, s, s) }},
		{"ABT",
			func(out, a, bm []float64, s int) { tensor.MatMulABTF64(out, a, bm, s, s, s) },
			func(out, a, bm []float32, s int) { tensor.MatMulABTF32(out, a, bm, s, s, s) }},
	}
	for _, p := range products {
		for _, size := range []int{64, 256, 1024} {
			a, bm, out := benchKernelOperands(30, 31, size, size, size)
			// 2·m·k·n flops per product; reported so ns/op comparisons
			// across sizes reduce to a flop rate.
			flops := int64(2) * int64(size) * int64(size) * int64(size)
			b.Run(fmt.Sprintf("%s/f64/%d", p.name, size), func(b *testing.B) {
				b.SetBytes(flops)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.f64(out, a, bm, size)
				}
			})
			a32 := make([]float32, size*size)
			b32 := make([]float32, size*size)
			o32 := make([]float32, size*size)
			tensor.NarrowInto(a32, a)
			tensor.NarrowInto(b32, bm)
			b.Run(fmt.Sprintf("%s/f32/%d", p.name, size), func(b *testing.B) {
				b.SetBytes(flops)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.f32(o32, a32, b32, size)
				}
			})
		}
	}
}

// BenchmarkTrainShapeKernels times the products that dominate local
// training: layer 0's forward X(32×1024)·W₀(1024×64) and its weight
// gradient Xᵀ·δ with δ of shape 32×64, and the largest delta-flow
// product, δ₁(32×32)·W₁ᵀ with W₁ of shape 64×32, in both dtypes.
// Sub-benchmark names are stable (TrainShapeKernels/<op>/<dtype>) for
// scripts/benchcmp.
func BenchmarkTrainShapeKernels(b *testing.B) {
	const batch, in, hidden, zdim = 32, 1024, 64, 32
	x, w, out := benchKernelOperands(40, 41, batch, in, hidden)
	_, delta, _ := benchKernelOperands(42, 43, 1, batch, hidden)
	d1, w1, _ := benchKernelOperands(44, 45, batch, zdim, hidden) // w1 read as W₁, 64×32
	x32 := make([]float32, batch*in)
	w32 := make([]float32, in*hidden)
	d32 := make([]float32, batch*hidden)
	d132 := make([]float32, batch*zdim)
	w132 := make([]float32, hidden*zdim)
	tensor.NarrowInto(x32, x)
	tensor.NarrowInto(w32, w)
	tensor.NarrowInto(d32, delta)
	tensor.NarrowInto(d132, d1)
	tensor.NarrowInto(w132, w1)
	gw := make([]float64, in*hidden)
	out32 := make([]float32, batch*hidden)
	gw32 := make([]float32, in*hidden)
	for _, c := range []struct {
		name  string
		flops int64
		run   func()
	}{
		{"MatMul/f64", 2 * batch * in * hidden, func() { tensor.MatMulF64(out, x, w, batch, in, hidden) }},
		{"MatMul/f32", 2 * batch * in * hidden, func() { tensor.MatMulF32(out32, x32, w32, batch, in, hidden) }},
		{"ATB/f64", 2 * batch * in * hidden, func() { clear(gw); tensor.MatMulATBAddF64(gw, x, delta, batch, in, hidden) }},
		{"ATB/f32", 2 * batch * in * hidden, func() { tensor.MatMulATBF32(gw32, x32, d32, batch, in, hidden) }},
		{"ABT/f64", 2 * batch * zdim * hidden, func() { tensor.MatMulABTF64(out, d1, w1, batch, zdim, hidden) }},
		{"ABT/f32", 2 * batch * zdim * hidden, func() { tensor.MatMulABTF32(out32, d132, w132, batch, zdim, hidden) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(c.flops) // flops per product, as in MicroKernels
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}

// BenchmarkServerAggregate times the server step of the three methods
// whose aggregation does more than a weighted average — FedGMA's masked
// sweep, FedDG-GA's loss evaluations and FPL's class means — at the
// train-grid shape: K = 4 participants of a 20-client PACS scenario
// (320 samples per domain, 3 train domains) and the 1024-64-32-7
// model, at both precisions. The updates are noise around one global
// model. Names are stable (ServerAggregate/<method>/<dtype>) for
// scripts/benchcmp.
func BenchmarkServerAggregate(b *testing.B) {
	eng := quietEngine(b)
	defer eng.Close()
	sc := trainGridScenario(b, eng, "aggregate-bench")
	parts := sc.Clients[:4]
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		env := *sc.Env
		env.ModelCfg.Precision = prec
		global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		updates := make([]*nn.Model, len(parts))
		for i := range updates {
			updates[i] = global.Clone()
			r := rand.New(rand.NewSource(int64(8 + i)))
			uv := updates[i].Vector()
			for j := range uv {
				uv[j] += r.NormFloat64() * 0.01
			}
		}
		for _, method := range []string{"FedGMA", "FedDG-GA", "FPL"} {
			alg, err := engine.NewAlgorithm(method)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(method+"/"+prec.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := alg.Aggregate(&env, global, parts, updates, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// trainGridScenario builds the train-grid shape: a 20-client PACS
// scenario (320 samples per domain, 3 train domains) and the
// 1024-64-32-7 model.
func trainGridScenario(b *testing.B, eng *engine.Engine, tag string) *engine.Scenario {
	b.Helper()
	sc, err := eng.BuildScenario(engine.Spec{
		Method: "FedAvg", Dataset: "PACS", GenSeed: 1,
		Split:  engine.SplitSpec{Name: "bench", Train: []int{0, 1, 2}},
		Lambda: 0.1, Clients: 20, SampleK: 4, Rounds: 1, PerDomain: 320,
		Seed: 1, Tag: tag,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkLocalTrain times one client's local pass (LocalTrain, one
// epoch over its batches) for each Table-I method at the train-grid
// shape, at both precisions: the unit the round's local phase repeats.
// The global model is synced as fl.Run syncs it, and FPL trains
// against prototypes from one aggregated round. Names are stable
// (LocalTrain/<method>/<dtype>) for scripts/benchcmp.
func BenchmarkLocalTrain(b *testing.B) {
	eng := quietEngine(b)
	defer eng.Close()
	sc := trainGridScenario(b, eng, "local-train-bench")
	parts := sc.Clients[:4]
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		env := *sc.Env
		env.ModelCfg.Precision = prec
		for _, method := range append([]string{"FedAvg"}, engine.MethodNames()...) {
			alg, err := engine.NewAlgorithm(method)
			if err != nil {
				b.Fatal(err)
			}
			if err := alg.Setup(&env, sc.Clients); err != nil {
				b.Fatal(err)
			}
			global, err := nn.New(env.ModelCfg, rand.New(rand.NewSource(7)))
			if err != nil {
				b.Fatal(err)
			}
			updates := make([]*nn.Model, len(parts))
			for i, c := range parts {
				if updates[i], err = alg.LocalTrain(&env, c, global, 0); err != nil {
					b.Fatal(err)
				}
			}
			next, err := alg.Aggregate(&env, global, parts, updates, 0)
			if err != nil {
				b.Fatal(err)
			}
			global = next.Clone()
			global.SyncShadow()
			b.Run(method+"/"+prec.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := alg.LocalTrain(&env, parts[i%len(parts)], global, 1+i)
					if err != nil {
						b.Fatal(err)
					}
					m.Release()
				}
			})
		}
	}
}

// --- Round-throughput macro-benchmark: one full federated round (client
// sampling, parallel local training, aggregation) through the kernel
// layer, the unit of work behind every table and figure ---

func benchRoundThroughput(b *testing.B, prec nn.Precision) {
	b.Helper()
	eng := quietEngine(b)
	defer eng.Close()
	spec := engine.Spec{
		Method: "FedAvg", Dataset: "PACS", GenSeed: 1,
		Split:  engine.SplitSpec{Name: "bench", Train: []int{0, 1, 2}},
		Lambda: 0.1, Clients: 8, SampleK: 4, Rounds: 1, PerDomain: 16,
		Seed: 1, Tag: "round-bench",
	}
	sc, err := eng.BuildScenario(spec)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := engine.NewAlgorithm(spec.Method)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fl.Run(sc.Env, alg, sc.Clients, nil, nil,
			fl.RunConfig{Rounds: 1, SampleK: spec.SampleK, Precision: prec}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundThroughput(b *testing.B) { benchRoundThroughput(b, nn.F64) }

// BenchmarkRoundThroughputF32 is the same round on the float32 compute
// path (float64 master weights, float32 matmuls); the BENCH artifact
// records both so every SHA carries its own f64-vs-f32 delta.
func BenchmarkRoundThroughputF32(b *testing.B) { benchRoundThroughput(b, nn.F32) }
