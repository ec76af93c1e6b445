package metrics_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/metrics"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func identModel(t *testing.T) *nn.Model {
	t.Helper()
	// 2-in, 2-class model rigged so logits ≈ inputs: prediction = argmax x.
	m, err := nn.New(nn.Config{In: 2, Hidden: 2, ZDim: 2, Classes: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Params is canonical W,B per layer: W1,B1,W2,B2,WC,BC.
	params := m.Params()
	set := func(tt *tensor.Tensor, vals ...float64) { copy(tt.Data(), vals) }
	set(params[0], 1, 0, 0, 1)
	set(params[1], 0, 0)
	set(params[2], 1, 0, 0, 1)
	set(params[3], 0, 0)
	set(params[4], 1, 0, 0, 1)
	set(params[5], 0, 0)
	return m
}

// argmax returns the index of the first maximum of each posterior row.
func argmax(post [][]float64) []int {
	out := make([]int, len(post))
	for i, row := range post {
		for j, v := range row {
			if v > row[out[i]] {
				out[i] = j
			}
		}
	}
	return out
}

// TestPredictAndAccuracy checks the rigged model's argmax predictions read
// from Posteriors and the accuracy fl.Accuracy reports on the same rows.
func TestPredictAndAccuracy(t *testing.T) {
	m := identModel(t)
	x := tensor.MustFromSlice([]float64{
		2, 1, // class 0
		1, 3, // class 1
		5, 0, // class 0
	}, 3, 2)
	post, err := metrics.Posteriors(m, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	preds := argmax(post)
	want := []int{0, 1, 0}
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("pred[%d] = %d, want %d", i, preds[i], want[i])
		}
	}
	acc, err := fl.Accuracy(m, &fl.EvalSet{X: x, Labels: []int{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %g", acc)
	}
}

// TestPredictBatchingConsistent checks that the batch size Posteriors
// forwards with, ragged final batch included, changes no prediction.
func TestPredictBatchingConsistent(t *testing.T) {
	m := identModel(t)
	r := rand.New(rand.NewSource(2))
	x := tensor.Randn(r, 1, 17, 2)
	p1, err := metrics.Posteriors(m, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := metrics.Posteriors(m, x, 17)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := argmax(p1), argmax(p2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("batch size changed predictions")
		}
	}
}

func TestPosteriorsRowsSumToOne(t *testing.T) {
	m := identModel(t)
	x := tensor.Randn(rand.New(rand.NewSource(3)), 2, 9, 2)
	post, err := metrics.Posteriors(m, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != 9 {
		t.Fatalf("posterior count %d", len(post))
	}
	for i, row := range post {
		s := 0.0
		for _, v := range row {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
}
