package core_test

import (
	"fmt"
	"os"
	"testing"

	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/metrics"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// TestDiagTransferredView inspects the interpolation style and measures
// how classifiable the AdaIN-transferred view is compared to the original.
// Run with PARDON_CALIBRATE=1 while tuning.
func TestDiagTransferredView(t *testing.T) {
	if os.Getenv("PARDON_CALIBRATE") == "" {
		t.Skip("set PARDON_CALIBRATE=1 to run diagnostics")
	}
	env, clients, test, _ := buildPACSScenario(t, 1, []int{0, 1}, 3, 20, 0.1)

	// Compute client styles and Sg as PARDON does.
	styles := make([][]float64, len(clients))
	for i, c := range clients {
		sv, err := core.ClientStyle(c.Features, true)
		if err != nil {
			t.Fatal(err)
		}
		styles[i] = sv
	}
	sg, err := core.InterpolationStyle(styles, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Sg mu[0:4]=%v sigma[0:4]=%v", sg.Mu[:4], sg.Sigma[:4])

	// Client 0 raw vs transferred feature stats.
	c0 := clients[0]
	tr, err := core.TransferAll(env, c0.Features, sg)
	if err != nil {
		t.Fatal(err)
	}
	rawRow := c0.RowsInto(nil, 1)
	trRow := tr.MustRow(0)
	t.Logf("raw[0] norm=%.3f mean=%.3f | transferred[0] norm=%.3f mean=%.3f",
		rawRow.Norm(), rawRow.Mean(), trRow.Norm(), trRow.Mean())

	// Train three central models: original-only, transferred-only, both.
	trainX, trainY := stackClients(clients, false, env, sg, t)
	transX, _ := stackClients(clients, true, env, sg, t)

	for _, mode := range []string{"orig", "orig-lr02", "trans", "both"} {
		lr := 0.05
		if mode == "orig-lr02" {
			lr = 0.02
		}
		r := env.RNG.Stream("diag-init", mode)
		m, err := nn.New(env.ModelCfg, r)
		if err != nil {
			t.Fatal(err)
		}
		opt := nn.NewSGD(lr, 0.9, 1e-4)
		grads := m.NewGrads()
		n := trainX.Dim(0)
		in := trainX.Dim(1)
		for epoch := 0; epoch < 20; epoch++ {
			for _, idx := range fl.Batches(n, 32, env.RNG.Stream("diag-batch", mode, fmt.Sprint(epoch))) {
				var xb *tensor.Tensor
				switch mode {
				case "orig", "orig-lr02":
					xb = fl.GatherRows(trainX, idx)
				case "trans":
					xb = fl.GatherRows(transX, idx)
				default:
					if epoch%2 == 0 {
						xb = fl.GatherRows(trainX, idx)
					} else {
						xb = fl.GatherRows(transX, idx)
					}
				}
				yb := make([]int, len(idx))
				for bi, i := range idx {
					yb[bi] = trainY[i]
				}
				acts, err := m.Forward(xb)
				if err != nil {
					t.Fatal(err)
				}
				l, dl, err := loss.CrossEntropy(acts.Logits, yb)
				if err != nil {
					t.Fatal(err)
				}
				if epoch%5 == 0 && idx[0] < 32 {
					t.Logf("mode=%s epoch=%d loss=%.4f", mode, epoch, l)
				}
				grads.Zero()
				if err := m.Backward(acts, dl, nil, grads); err != nil {
					t.Fatal(err)
				}
				if err := opt.Step(m, grads); err != nil {
					t.Fatal(err)
				}
			}
			_ = in
		}
		trainAcc, err := metrics.Accuracy(m, trainX, trainY, 128)
		if err != nil {
			t.Fatal(err)
		}
		transAcc, err := metrics.Accuracy(m, transX, trainY, 128)
		if err != nil {
			t.Fatal(err)
		}
		testAcc, err := metrics.Accuracy(m, test.X, test.Labels, 128)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("central[%5s]: train(orig)=%.3f train(trans)=%.3f unseen=%.3f", mode, trainAcc, transAcc, testAcc)
	}
}

func stackClients(clients []*fl.Client, transferred bool, env *fl.Env, sg *style.Style, t *testing.T) (*tensor.Tensor, []int) {
	t.Helper()
	var rows []*tensor.Tensor
	var labels []int
	for _, c := range clients {
		src := c.RowsInto(nil, c.Len())
		if transferred {
			tr, err := core.TransferAll(env, c.Features, sg)
			if err != nil {
				t.Fatal(err)
			}
			src = tr
		}
		for i := 0; i < src.Dim(0); i++ {
			rows = append(rows, src.MustRow(i))
			labels = append(labels, c.Labels[i])
		}
	}
	x, err := tensor.Stack(rows)
	if err != nil {
		t.Fatal(err)
	}
	return x, labels
}
