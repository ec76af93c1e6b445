// The layer walk: forward, logits and backward, written once over
// per-layer []T buffers for both compute precisions. An F64 pass walks
// the float64 master arena; an F32 pass walks its float32 shadow
// (precision.go). The precision decides only the edges, which
// ForwardInto, RecomputeLogits and Backward handle: an F32 pass
// narrows its input and loss gradient and widens Z and the logits, an
// F64 pass views its own buffers as acts.Z and acts.Logits. Both run
// the tensor slice kernels of their dtype through a small table, so
// the F64 pass computes the same products, in the same order, as the
// historical Tensor-typed walk did.
package nn

import "github.com/pardon-feddg/pardon/internal/tensor"

// float is the dtype seam of the walk, tensor's ~float32 | ~float64.
type float interface{ ~float32 | ~float64 }

// kernels is one precision's products.
type kernels[T float] struct {
	mm  func(out, a, b []T, m, k, n int) // out = a·b, a is m×k
	abt func(out, a, b []T, m, k, n int) // out = a·bᵀ, b is n×k
	// addGradW adds aᵀ·b (a is k×m, b is k×n) into the float64
	// gradient dst. The F32 pass stages the product in *stage and
	// widens it in.
	addGradW func(dst []float64, stage *[]T, a, b []T, k, m, n int)
}

var (
	f64Kernels = &kernels[float64]{
		mm:  tensor.MatMulF64,
		abt: tensor.MatMulABTF64,
		addGradW: func(dst []float64, _ *[]float64, a, b []float64, k, m, n int) {
			tensor.MatMulATBAddF64(dst, a, b, k, m, n)
		},
	}
	f32Kernels = &kernels[float32]{
		mm:  tensor.MatMulF32,
		abt: tensor.MatMulABTF32,
		addGradW: func(dst []float64, stage *[]float32, a, b []float32, k, m, n int) {
			*stage = tensor.Fit(*stage, m*n)
			tensor.MatMulATBF32(*stage, a, b, k, m, n)
			tensor.WidenAddInto(dst, *stage)
		},
	}
)

// pass holds one precision's buffers of a forward pass, reused across
// batches (tensor.Fit): Activations keeps one per precision.
type pass[T float] struct {
	x []T // the input batch: acts.X's own storage (F64) or narrowed (F32)
	// pre[i]/out[i] are layer i's pre-activation and output; for layers
	// without ReLU they are the same slice.
	pre, out [][]T
	// z and logits are what acts.Z and acts.Logits point at after this
	// pass: views of out (F64) or widened copies of it (F32).
	z, logits *tensor.Tensor
}

// ran reports whether p holds a forward pass of layers that acts still
// points at: a later pass of the other precision, or a Release, moves
// acts.Z away from p.z.
func (p *pass[T]) ran(acts *Activations, layers []Layer) bool {
	if acts.X == nil || acts.Z != p.z || len(p.out) != len(layers) {
		return false
	}
	b := acts.X.Dim(0)
	for i, ly := range layers {
		if len(p.out[i]) != b*ly.W.Dim(1) {
			return false
		}
	}
	return true
}

// backprop is one precision's Backward scratch, grown only when a batch
// outgrows it: Grads keeps one per precision.
type backprop[T float] struct {
	delta [][]T // delta[i]: the loss gradient at layer i's output
	dl    []T   // F32: the narrowed loss gradient at the logits
	stage []T   // F32: a weight gradient before it widens into the arena
}

// forward runs the stack on the b rows of p.x into p's buffers, reading
// each layer's W and B from params, an arena laid out like the model's.
func forward[T float](k *kernels[T], layers []Layer, params []T, p *pass[T], b int) {
	if len(p.pre) != len(layers) {
		p.pre = make([][]T, len(layers))
		p.out = make([][]T, len(layers))
	}
	in, off := p.x, 0
	for i, ly := range layers {
		off = affine(k, ly, i, params, off, in, p, b)
		in = p.out[i]
	}
}

// logits reruns the classifier on p's embedding: the perturbed-Z path
// (RecomputeLogits).
func logits[T float](k *kernels[T], layers []Layer, params []T, p *pass[T], b int) {
	last := len(layers) - 1
	cls := layers[last]
	affine(k, cls, last, params, len(params)-cls.W.Len()-cls.B.Len(), p.out[last-1], p, b)
}

// affine runs layer ly, the i-th, whose parameters start at params[off],
// on its input in: pre = in·W + B, then out = ReLU(pre) for a hidden
// layer. It returns the offset of the next layer's parameters.
func affine[T float](k *kernels[T], ly Layer, i int, params []T, off int, in []T, p *pass[T], b int) int {
	n, o := ly.W.Dim(0), ly.W.Dim(1)
	w, bias := params[off:off+n*o], params[off+n*o:off+n*o+o]
	p.pre[i] = tensor.Fit(p.pre[i], b*o)
	k.mm(p.pre[i], in, w, b, n, o)
	if ly.ReLU {
		p.out[i] = tensor.Fit(p.out[i], b*o)
		addBiasReLU(p.pre[i], p.out[i], bias)
	} else {
		addRowVector(p.pre[i], bias)
		p.out[i] = p.pre[i]
	}
	return off + n*o + o
}

// backward adds the gradients of the forward pass p over b rows into
// grad, an arena laid out like params. dl is the loss gradient at the
// logits when hasDL is set, and dZExtra one injected at the embedding
// (nil: none); both are validated by the caller.
func backward[T float](k *kernels[T], layers []Layer, params []T, p *pass[T], dl []T, hasDL bool, dZExtra *tensor.Tensor, grad []float64, s *backprop[T], b int) {
	last := len(layers) - 1
	emb := last - 1 // the embedding projection; layers[last] is g
	if len(s.delta) != last {
		s.delta = make([][]T, last)
	}
	// Walk the stack top-down: the classifier, the embedding projection,
	// then each hidden layer with its ReLU gate. d is the gradient at
	// layer i's output; live is false only above a pass with no loss at
	// the logits, whose classifier contributes nothing.
	d, live := dl, hasDL
	end := len(params)
	for i := last; i >= 0; i-- {
		n, o := layers[i].W.Dim(0), layers[i].W.Dim(1)
		end -= n*o + o
		in := p.x
		if i > 0 {
			in = p.out[i-1]
		}
		if live {
			k.addGradW(grad[end:end+n*o], &s.stage, in, d, b, n, o)
			addColumnSums(grad[end+n*o:end+n*o+o], d)
		}
		if i == 0 {
			break
		}
		s.delta[i-1] = tensor.Fit(s.delta[i-1], b*n)
		prev := s.delta[i-1]
		if live {
			k.abt(prev, d, params[end:end+n*o], b, o, n)
		} else {
			clear(prev)
		}
		if i-1 == emb && dZExtra != nil {
			for j, v := range dZExtra.Data() {
				prev[j] += T(v)
			}
		}
		if layers[i-1].ReLU {
			// ReLU gate on the producing layer's pre-activation.
			hp := p.pre[i-1]
			for j := range prev {
				if hp[j] <= 0 {
					prev[j] = 0
				}
			}
		}
		d, live = prev, true
	}
}

// addBiasReLU adds the length-n bias to every row of the (m·n)
// pre-activation pre, in place, and writes the ReLU of the sum into
// out, in one loop. pre keeps the pre-activation for Backward's ReLU
// gate.
func addBiasReLU[T float](pre, out, bias []T) {
	n := len(bias)
	out = out[:len(pre)]
	for o := 0; o < len(pre); o += n {
		row, orow := pre[o:o+n], out[o:o+n]
		for j, b := range bias {
			v := row[j] + b
			row[j] = v
			if v < 0 {
				v = 0
			}
			orow[j] = v
		}
	}
}

// addRowVector adds a length-n vector to every row of an (m·n) slice.
func addRowVector[T float](t, v []T) {
	n := len(v)
	for o := 0; o < len(t); o += n {
		row := t[o : o+n]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// addColumnSums adds the column sums of an (m·n) slice into a length-n
// float64 accumulator (bias gradients).
func addColumnSums[T float](acc []float64, t []T) {
	n := len(acc)
	for o := 0; o < len(t); o += n {
		row := t[o : o+n]
		for j := range row {
			acc[j] += float64(row[j])
		}
	}
}
