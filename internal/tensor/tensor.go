// Package tensor implements dense float64 tensors and the small set of
// linear-algebra operations the reproduction needs: elementwise arithmetic,
// matrix multiplication, reductions, and channel-wise statistics over
// C×H×W feature maps (the shape style transfer operates on).
//
// Tensors are row-major. Operations that can fail on shape mismatch return
// errors rather than panicking, per the project's library-code conventions;
// hot-path helpers with Must- prefixes are provided for internal use where
// shapes are guaranteed by construction.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape.
// A scalar is represented by an empty shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			n = 0
			break
		}
		n *= s
	}
	cp := make([]int, len(shape))
	copy(cp, shape)
	return &Tensor{shape: cp, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data is NOT
// copied; the caller must not alias it afterwards unless intended.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (=%d)", len(data), shape, n)
	}
	cp := make([]int, len(shape))
	copy(cp, shape)
	return &Tensor{shape: cp, data: data}, nil
}

// MustFromSlice is FromSlice that panics on shape mismatch. Use only with
// shapes guaranteed by construction.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn fills a new tensor with N(0, std) samples drawn from r.
func Randn(r *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.NormFloat64() * std
	}
	return t
}

// Fit returns s[:n] when s has capacity for n elements, else a new
// zeroed slice of length n. Reused storage keeps its stale contents, so
// callers overwrite every element. Scratch buffers that alternate
// between batch sizes (a 32-row batch, then a ragged 16-row one) are
// allocated once, at the largest size.
func Fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Fit2D returns t when it is already an (r, c) tensor, else an (r, c)
// tensor over Fit(t's storage, r·c). Only the small header is new when
// the storage has room, so a buffer that alternates between batch sizes
// stops allocating storage once it has held the largest. t must own its
// storage: a view of part of a larger slice (Row, FromSlice) could grow
// into the rest.
func Fit2D(t *Tensor, r, c int) *Tensor {
	if t == nil {
		return New(r, c)
	}
	if len(t.shape) == 2 && t.shape[0] == r && t.shape[1] == c {
		return t
	}
	return &Tensor{shape: []int{r, c}, data: Fit(t.data, r*c)}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dims returns the number of axes.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	cp := New(t.shape...)
	copy(cp.data, t.data)
	return cp
}

// Reshape returns a view of t with a new shape covering the same elements.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (=%d elems) to %v (=%d elems)", t.shape, len(t.data), shape, n)
	}
	cp := make([]int, len(shape))
	copy(cp, shape)
	return &Tensor{shape: cp, data: t.data}, nil
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// --- elementwise arithmetic ---

// Scale multiplies every element by s, in place, and returns t.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaled computes t += s*o, the classic axpy.
func (t *Tensor) AddScaled(s float64, o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("tensor: addscaled shape mismatch %v vs %v", t.shape, o.shape)
	}
	for i := range t.data {
		t.data[i] += s * o.data[i]
	}
	return nil
}

// Zero resets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// --- reductions ---

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Norm returns the Euclidean norm of t viewed as a flat vector.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// SquaredDistance returns ||a-b||² of the flattened tensors.
// Like the other binary ops, the operands must share a shape.
func SquaredDistance(a, b *Tensor) (float64, error) {
	if !SameShape(a, b) {
		return 0, fmt.Errorf("tensor: distance shape mismatch %v vs %v", a.shape, b.shape)
	}
	s := 0.0
	for i := range a.data {
		d := a.data[i] - b.data[i]
		s += d * d
	}
	return s, nil
}

// --- matrix operations (2-D tensors) ---
//
// The matrix products take raw slices, not tensors: one entry per
// product and dtype in slices.go, over the parallel cache-blocked
// kernels of kernels.go, bit-identical to the scalar references there
// at any parallelism.

// Row returns a view of row i of a 2-D tensor as a 1-D tensor.
func (t *Tensor) Row(i int) (*Tensor, error) {
	if t.Dims() != 2 {
		return nil, fmt.Errorf("tensor: Row needs a 2-D tensor, got %v", t.shape)
	}
	if i < 0 || i >= t.shape[0] {
		return nil, fmt.Errorf("tensor: row %d out of range for shape %v", i, t.shape)
	}
	n := t.shape[1]
	return &Tensor{shape: []int{n}, data: t.data[i*n : (i+1)*n]}, nil
}

// MustRow is Row that panics on error. Use only with indices guaranteed by
// construction.
func (t *Tensor) MustRow(i int) *Tensor {
	r, err := t.Row(i)
	if err != nil {
		panic(err)
	}
	return r
}

// --- channel-wise statistics over C×H×W maps ---

// ChannelStats returns the per-channel mean and standard deviation of a
// feature map shaped (C, H, W). eps stabilizes sigma for flat channels.
func ChannelStats(t *Tensor, eps float64) (mu, sigma []float64, err error) {
	if t.Dims() != 3 {
		return nil, nil, fmt.Errorf("tensor: ChannelStats needs a 3-D (C,H,W) tensor, got %v", t.shape)
	}
	mu = make([]float64, t.shape[0])
	sigma = make([]float64, t.shape[0])
	ChannelStatsInto(mu, sigma, t.data, eps)
	return mu, sigma, nil
}

// ChannelStatsInto is ChannelStats over a flat (C, H·W) map without the
// allocation: C is len(mu), which sigma must match, and H·W is
// len(data)/C.
func ChannelStatsInto(mu, sigma, data []float64, eps float64) {
	c := len(mu)
	checkLen("channel-stats sigma", len(sigma), c)
	if c == 0 {
		return
	}
	hw := len(data) / c
	for ch := 0; ch < c; ch++ {
		seg := data[ch*hw : (ch+1)*hw]
		m := 0.0
		for _, v := range seg {
			m += v
		}
		m /= float64(hw)
		va := 0.0
		for _, v := range seg {
			d := v - m
			va += d * d
		}
		va /= float64(hw)
		mu[ch] = m
		sigma[ch] = math.Sqrt(va + eps)
	}
}

// SoftmaxInto writes the softmax of each row of a 2-D tensor into out,
// which must have its shape and must not alias it.
func SoftmaxInto(out, logits *Tensor) error {
	if logits.Dims() != 2 || !SameShape(out, logits) {
		return fmt.Errorf("tensor: SoftmaxInto shapes %v, %v", out.shape, logits.shape)
	}
	m, n := logits.shape[0], logits.shape[1]
	for i := 0; i < m; i++ {
		row := logits.data[i*n : (i+1)*n]
		orow := out.data[i*n : (i+1)*n]
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			orow[j] = e
			s += e
		}
		inv := 1.0 / s
		for j := range orow {
			orow[j] *= inv
		}
	}
	return nil
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	if len(t.data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%g %g ... %g]", t.shape, t.data[0], t.data[1], t.data[len(t.data)-1])
}
