// Package imageio writes the reproduction's tensors as portable pixmap
// images (PPM), used to dump the qualitative reconstruction and
// style-transfer figures (Figs. 6–8) for visual inspection.
package imageio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// WritePPM writes a (3,H,W) tensor as a binary PPM, linearly mapping the
// tensor's [min,max] range to [0,255] per image so any value range is
// visible.
func WritePPM(path string, img *tensor.Tensor) error {
	if img.Dims() != 3 || img.Dim(0) != 3 {
		return fmt.Errorf("imageio: PPM needs a (3,H,W) tensor, got %v", img.Shape())
	}
	h, w := img.Dim(1), img.Dim(2)
	lo, hi := minMax(img.Data())
	scale := 0.0
	if hi > lo {
		scale = 255.0 / (hi - lo)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P6\n%d %d\n255\n", w, h)
	data := img.Data()
	hw := h * w
	for i := 0; i < hw; i++ {
		for c := 0; c < 3; c++ {
			b.WriteByte(quantize(data[c*hw+i], lo, scale))
		}
	}
	return writeFile(path, []byte(b.String()))
}

// WriteGrid tiles equally shaped (3,H,W) images into one PPM row grid
// with a 1-pixel separator, cols per row.
func WriteGrid(path string, imgs []*tensor.Tensor, cols int) error {
	if len(imgs) == 0 {
		return fmt.Errorf("imageio: empty grid")
	}
	if cols <= 0 {
		cols = len(imgs)
	}
	h, w := imgs[0].Dim(1), imgs[0].Dim(2)
	rows := (len(imgs) + cols - 1) / cols
	gh := rows*h + (rows - 1)
	gw := cols*w + (cols - 1)
	grid := tensor.New(3, gh, gw)
	gd := grid.Data()
	for i := range gd {
		gd[i] = 0
	}
	for i, img := range imgs {
		if img.Dims() != 3 || img.Dim(0) != 3 || img.Dim(1) != h || img.Dim(2) != w {
			return fmt.Errorf("imageio: grid image %d shape %v, want (3,%d,%d)", i, img.Shape(), h, w)
		}
		// Per-tile normalization so dark reconstructions stay visible.
		lo, hi := minMax(img.Data())
		span := hi - lo
		if span == 0 {
			span = 1
		}
		r, c := i/cols, i%cols
		oy, ox := r*(h+1), c*(w+1)
		id := img.Data()
		hw := h * w
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := (id[ch*hw+y*w+x] - lo) / span
					gd[ch*gh*gw+(oy+y)*gw+(ox+x)] = v
				}
			}
		}
	}
	return WritePPM(path, grid)
}

func quantize(v, lo, scale float64) byte {
	q := (v - lo) * scale
	if q < 0 {
		q = 0
	}
	if q > 255 {
		q = 255
	}
	return byte(q)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func writeFile(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("imageio: %w", err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("imageio: %w", err)
	}
	return nil
}
