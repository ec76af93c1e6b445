package encoder

import "github.com/pardon-feddg/pardon/internal/tensor"

// ReferenceEncode is the test oracle for EncodeInto: the original
// branchy convolution, one output pixel at a time with a bounds test on
// every tap and fresh tensors per layer, followed by the same output
// calibration. The padded kernel must reproduce it bit for bit.
func (e *Encoder) ReferenceEncode(x *tensor.Tensor) *tensor.Tensor {
	cur := x
	for i := range e.layers {
		cur = e.layers[i].referenceForward(cur)
	}
	hw := e.outH * e.outW
	data := cur.Data()
	for ch := 0; ch < e.outC; ch++ {
		shift, scale := e.outShift[ch], e.outScale[ch]
		seg := data[ch*hw : (ch+1)*hw]
		for i, v := range seg {
			seg[i] = (v - shift) * scale
		}
	}
	return cur
}

func (l *convLayer) referenceForward(x *tensor.Tensor) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	out := tensor.New(l.outC, h, w)
	src := x.Data()
	dst := out.Data()
	hw := h * w
	for o := 0; o < l.outC; o++ {
		oseg := dst[o*hw : (o+1)*hw]
		for i := range oseg {
			oseg[i] = l.bias[o]
		}
		for in := 0; in < l.inC; in++ {
			iseg := src[in*hw : (in+1)*hw]
			k := l.weights[(o*l.inC+in)*9:][:9]
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					s := 0.0
					for ky := -1; ky <= 1; ky++ {
						yy := y + ky
						if yy < 0 || yy >= h {
							continue
						}
						for kx := -1; kx <= 1; kx++ {
							xc := xx + kx
							if xc < 0 || xc >= w {
								continue
							}
							s += k[(ky+1)*3+kx+1] * iseg[yy*w+xc]
						}
					}
					oseg[y*w+xx] += s
				}
			}
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
		return out
	}
	ph, pw := h/2, w/2
	pooled := tensor.New(l.outC, ph, pw)
	pd := pooled.Data()
	phw := ph * pw
	for o := 0; o < l.outC; o++ {
		oseg := dst[o*hw : (o+1)*hw]
		pseg := pd[o*phw : (o+1)*phw]
		for y := 0; y < ph; y++ {
			for xx := 0; xx < pw; xx++ {
				s := oseg[(2*y)*w+2*xx] + oseg[(2*y)*w+2*xx+1] + oseg[(2*y+1)*w+2*xx] + oseg[(2*y+1)*w+2*xx+1]
				pseg[y*pw+xx] = s * 0.25
			}
		}
	}
	return pooled
}
