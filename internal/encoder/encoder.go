// Package encoder implements the frozen, pre-trained feature encoder Φ
// that PARDON uses for style extraction and style transfer.
//
// The paper uses the VGG encoder of a pre-trained AdaIN model. The
// reproduction substitutes a fixed random convolutional stack
// (see DESIGN.md §2): weights are drawn once from a seeded stream, shared
// identically by all clients and the server, and never trained — exactly
// the role the pre-trained VGG plays. What PARDON needs from Φ is that its
// channel-wise output statistics expose domain style, which holds for any
// fixed conv stack when domains differ by channel statistics and texture.
package encoder

import (
	"fmt"
	"math"
	"sync"

	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Activation selects the encoder nonlinearity.
type Activation int

const (
	// Linear (identity) keeps the encoder a fixed filter bank. This is
	// the default for the DG experiments: it preserves the content⊗style
	// factorization exactly — class content stays in spatial structure,
	// domain style in channel statistics — which is the property AdaIN
	// style transfer relies on (deep VGG features approximate it; a
	// linear filter bank satisfies it by construction; see DESIGN.md).
	Linear Activation = iota + 1
	// ReLU applies max(0,·) after every layer.
	ReLU
)

// Config describes the encoder architecture.
type Config struct {
	// InChannels, H, W describe the expected input shape.
	InChannels int
	H, W       int
	// Channels lists the output channel count of each conv layer. Every
	// layer is a 3×3 convolution (stride 1, zero padding 1); layers
	// marked in Pool are followed by 2×2 mean pooling.
	Channels []int
	// Pool[i] pools after layer i. Defaults to pooling after the first
	// layer only if nil.
	Pool []bool
	// Act is the per-layer activation (default Linear).
	Act Activation
	// Seed identifies the "pre-training"; all participants must share it.
	Seed uint64
}

// DefaultConfig returns the encoder used throughout the experiments:
// 3×16×16 input → 8 channels (pool) → 16 channels, i.e. a 16×8×8 feature
// map with a 32-dimensional style vector, linear activation.
func DefaultConfig() Config {
	return Config{InChannels: 3, H: 16, W: 16, Channels: []int{8, 16}, Pool: []bool{true, false}, Act: Linear, Seed: 7}
}

type convLayer struct {
	inC, outC int
	// h, w is the layer's input map size (its conv output size too).
	h, w int
	// weights holds the 3×3 kernels flattened [out][in][ky][kx].
	weights []float64
	bias    []float64
	pool    bool
	relu    bool
}

// scratch is the working memory of one encode, sized for the largest
// layer at construction and recycled through Encoder.scratch so steady-
// state encoding allocates nothing.
type scratch struct {
	pad  []float64 // the current layer's input, zero-padded by one pixel
	wide []float64 // the conv output at the padded row stride w+2
	next []float64 // a hidden layer's output, the next layer's input
}

// Encoder is the frozen feature extractor Φ. It is safe for concurrent use
// after construction (all state is read-only).
type Encoder struct {
	cfg    Config
	layers []convLayer
	outC   int
	outH   int
	outW   int
	// Output calibration: Encode standardizes each output channel with
	// these fixed constants (estimated once on a probe batch at
	// construction), so downstream models see O(1) features. Being fixed
	// affine maps, they preserve relative channel statistics — domain
	// style information survives intact.
	outShift []float64
	outScale []float64
	scratch  sync.Pool // *scratch
}

// New builds the encoder with deterministic weights derived from cfg.Seed.
func New(cfg Config) (*Encoder, error) {
	if cfg.InChannels <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		return nil, fmt.Errorf("encoder: invalid input shape (%d,%d,%d)", cfg.InChannels, cfg.H, cfg.W)
	}
	if len(cfg.Channels) == 0 {
		return nil, fmt.Errorf("encoder: no layers configured")
	}
	if cfg.Pool == nil {
		cfg.Pool = make([]bool, len(cfg.Channels))
		cfg.Pool[0] = true
	}
	if len(cfg.Pool) != len(cfg.Channels) {
		return nil, fmt.Errorf("encoder: Pool has %d entries for %d layers", len(cfg.Pool), len(cfg.Channels))
	}
	if cfg.Act == 0 {
		cfg.Act = Linear
	}
	src := rng.New(cfg.Seed)
	e := &Encoder{cfg: cfg}
	var padN, wideN, nextN int
	inC, h, w := cfg.InChannels, cfg.H, cfg.W
	for li, outC := range cfg.Channels {
		r := src.StreamI("encoder-layer", li)
		layer := convLayer{inC: inC, outC: outC, h: h, w: w, pool: cfg.Pool[li], relu: cfg.Act == ReLU,
			weights: make([]float64, outC*inC*9), bias: make([]float64, outC)}
		// He-style scaling keeps activations in a stable range through the
		// frozen stack.
		std := math.Sqrt(2.0 / float64(inC*9))
		for o := 0; o < outC; o++ {
			k := layer.weights[o*inC*9 : (o+1)*inC*9]
			for i := range k {
				k[i] = r.NormFloat64() * std
			}
			layer.bias[o] = r.NormFloat64() * 0.01
		}
		e.layers = append(e.layers, layer)
		padN = max(padN, inC*(h+2)*(w+2)+2)
		wideN = max(wideN, outC*h*(w+2))
		inC = outC
		if layer.pool {
			if h%2 != 0 || w%2 != 0 {
				return nil, fmt.Errorf("encoder: layer %d pools an odd map %dx%d", li, h, w)
			}
			h, w = h/2, w/2
		}
		if li < len(cfg.Channels)-1 {
			nextN = max(nextN, outC*h*w)
		}
	}
	e.outC, e.outH, e.outW = inC, h, w
	e.scratch.New = func() any {
		return &scratch{pad: make([]float64, padN), wide: make([]float64, wideN), next: make([]float64, nextN)}
	}
	e.calibrate(src)
	return e, nil
}

// calibrate estimates per-channel output statistics on a probe batch of
// standard-normal images and stores the standardizing affine constants.
func (e *Encoder) calibrate(src *rng.Source) {
	const probes = 64
	r := src.Stream("calibration")
	hw := e.outH * e.outW
	sum := make([]float64, e.outC)
	sumSq := make([]float64, e.outC)
	f := make([]float64, e.outC*hw)
	for p := 0; p < probes; p++ {
		x := tensor.Randn(r, 1, e.cfg.InChannels, e.cfg.H, e.cfg.W)
		e.raw(f, x.Data())
		for ch := 0; ch < e.outC; ch++ {
			for _, v := range f[ch*hw : (ch+1)*hw] {
				sum[ch] += v
				sumSq[ch] += v * v
			}
		}
	}
	n := float64(probes * hw)
	e.outShift = make([]float64, e.outC)
	e.outScale = make([]float64, e.outC)
	for ch := 0; ch < e.outC; ch++ {
		m := sum[ch] / n
		va := sumSq[ch]/n - m*m
		if va < 1e-12 {
			va = 1e-12
		}
		e.outShift[ch] = m
		e.outScale[ch] = 1.0 / math.Sqrt(va)
	}
}

// raw runs the conv stack on one image without output calibration,
// writing the (C', H', W') feature map to dst.
func (e *Encoder) raw(dst, x []float64) {
	sc := e.scratch.Get().(*scratch)
	for i := range e.layers {
		out := sc.next
		if i == len(e.layers)-1 {
			out = dst
		}
		e.layers[i].forward(out, x, sc)
		x = out
	}
	e.scratch.Put(sc)
}

// OutShape returns the (C, H, W) of encoded feature maps.
func (e *Encoder) OutShape() (c, h, w int) { return e.outC, e.outH, e.outW }

// Encode maps a (InChannels, H, W) image to its (C', H', W') feature map.
func (e *Encoder) Encode(x *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(e.outC, e.outH, e.outW)
	if err := e.EncodeInto(out.Data(), x); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeInto writes the (C', H', W') feature map of a (InChannels, H, W)
// image to dst, which must hold exactly C'·H'·W' values. Its working
// memory is pooled, so steady-state calls allocate nothing; it is the
// path every other encode goes through.
func (e *Encoder) EncodeInto(dst []float64, x *tensor.Tensor) error {
	if x.Dims() != 3 || x.Dim(0) != e.cfg.InChannels || x.Dim(1) != e.cfg.H || x.Dim(2) != e.cfg.W {
		return fmt.Errorf("encoder: input shape %v, want (%d,%d,%d)", x.Shape(), e.cfg.InChannels, e.cfg.H, e.cfg.W)
	}
	hw := e.outH * e.outW
	if len(dst) != e.outC*hw {
		return fmt.Errorf("encoder: output length %d, want %d", len(dst), e.outC*hw)
	}
	e.raw(dst, x.Data())
	for ch := 0; ch < e.outC; ch++ {
		shift, scale := e.outShift[ch], e.outScale[ch]
		seg := dst[ch*hw : (ch+1)*hw]
		for i, v := range seg {
			seg[i] = (v - shift) * scale
		}
	}
	return nil
}

// PooledFeature returns the channel-wise mean of the encoded feature map —
// the compact per-image descriptor used for FID computation in the privacy
// analysis (the stand-in for InceptionV3 pool features).
func (e *Encoder) PooledFeature(x *tensor.Tensor) ([]float64, error) {
	c, hw := e.outC, e.outH*e.outW
	f := make([]float64, c*hw)
	if err := e.EncodeInto(f, x); err != nil {
		return nil, err
	}
	out := make([]float64, c)
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for _, v := range f[ch*hw : (ch+1)*hw] {
			s += v
		}
		out[ch] = s / float64(hw)
	}
	return out, nil
}

// forward runs one layer on src (inC×h×w) and writes its output — pooled
// when the layer pools — to dst. It zero-pads src once into sc.pad and
// convolves each (output, input) channel pair as one pass over the
// padded plane (tensor.Conv3x3AddInto) into sc.wide, which holds the
// output at the padded row stride w+2; the two pad columns of each
// wide row are computed and then dropped. Padding cannot change a bit
// of the result: a padded tap adds k·0 = ±0 to a per-pixel sum that
// starts at +0, which under round-to-nearest never becomes −0, and
// adding ±0 to any other value is exact (DESIGN.md §5). Each pixel sums
// its taps in ky-then-kx order before adding into the output, and input
// channels accumulate in ascending order: the order of the unpadded
// reference loop the tests compare against.
func (l *convLayer) forward(dst, src []float64, sc *scratch) {
	h, w := l.h, l.w
	hw := h * w
	pw := w + 2
	phw := (h + 2) * pw
	whw := h * pw
	// Two slack values past the last plane let every plane's pass cover
	// all h·(w+2) lanes, the last row's pad columns included.
	pad := sc.pad[:l.inC*phw+2]
	clear(pad)
	for in := 0; in < l.inC; in++ {
		for y := 0; y < h; y++ {
			copy(pad[in*phw+(y+1)*pw+1:][:w], src[in*hw+y*w:][:w])
		}
	}
	wide := sc.wide[:l.outC*whw]
	// Every plane starts at its bias, written before any plane is
	// convolved: the kernel's vector loads of a plane then never wait on
	// its scalar bias stores still in flight.
	for o, b := range l.bias {
		oseg := wide[o*whw : (o+1)*whw]
		for i := range oseg {
			oseg[i] = b
		}
	}
	for o := 0; o < l.outC; o++ {
		oseg := wide[o*whw : (o+1)*whw]
		for in := 0; in < l.inC; in++ {
			k := (*[9]float64)(l.weights[(o*l.inC+in)*9:])
			tensor.Conv3x3AddInto(oseg, pad[in*phw:][:phw+2], pw, k)
		}
		if l.relu {
			for i, v := range oseg {
				if v < 0 {
					oseg[i] = 0
				}
			}
		}
	}
	if !l.pool {
		for o := 0; o < l.outC; o++ {
			for y := 0; y < h; y++ {
				copy(dst[o*hw+y*w:][:w], wide[o*whw+y*pw:][:w])
			}
		}
		return
	}
	oh, ow := h/2, w/2
	ohw := oh * ow
	for o := 0; o < l.outC; o++ {
		oseg := wide[o*whw : (o+1)*whw]
		pseg := dst[o*ohw : (o+1)*ohw]
		for y := 0; y < oh; y++ {
			r0, r1 := oseg[(2*y)*pw:], oseg[(2*y+1)*pw:]
			for xx := 0; xx < ow; xx++ {
				s := r0[2*xx] + r0[2*xx+1] + r1[2*xx] + r1[2*xx+1]
				pseg[y*ow+xx] = s * 0.25
			}
		}
	}
}
