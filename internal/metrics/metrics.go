// Package metrics provides the softmax posteriors that the privacy
// evaluation scores. Classification accuracy is fl.Accuracy, the same
// code that reports every round's accuracy.
package metrics

import (
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Posteriors returns softmax class posteriors for inputs x, used by the
// Inception-Score analogue in the privacy evaluation.
func Posteriors(m *nn.Model, x *tensor.Tensor, batchSize int) ([][]float64, error) {
	if batchSize <= 0 {
		batchSize = 64
	}
	n, d := x.Dim(0), x.Dim(1)
	out := make([][]float64, 0, n)
	data := x.Data()
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		batch := tensor.MustFromSlice(data[start*d:end*d], end-start, d)
		acts, err := m.Forward(batch)
		if err != nil {
			return nil, err
		}
		probs, err := tensor.Softmax(acts.Logits)
		if err != nil {
			return nil, err
		}
		c := probs.Dim(1)
		pd := probs.Data()
		for i := 0; i < end-start; i++ {
			row := make([]float64, c)
			copy(row, pd[i*c:(i+1)*c])
			out = append(out, row)
		}
	}
	return out, nil
}
