package imageio_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pardon-feddg/pardon/internal/imageio"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func TestWritePPM(t *testing.T) {
	dir := t.TempDir()
	img := tensor.New(3, 4, 5)
	img.Data()[0] = -1
	img.Data()[1] = 1
	path := filepath.Join(dir, "sub", "x.ppm")
	if err := imageio.WritePPM(path, img); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "P6\n5 4\n255\n") {
		t.Fatalf("bad header: %q", data[:12])
	}
	wantLen := len("P6\n5 4\n255\n") + 3*4*5
	if len(data) != wantLen {
		t.Fatalf("file length %d, want %d", len(data), wantLen)
	}
	if err := imageio.WritePPM(path, tensor.New(1, 4, 5)); err == nil {
		t.Fatal("non-3-channel PPM should error")
	}
}

func TestWriteGrid(t *testing.T) {
	dir := t.TempDir()
	imgs := []*tensor.Tensor{
		tensor.Full(1, 3, 2, 2),
		tensor.Full(2, 3, 2, 2),
		tensor.Full(3, 3, 2, 2),
	}
	path := filepath.Join(dir, "grid.ppm")
	if err := imageio.WriteGrid(path, imgs, 2); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// 2 rows of 2×2 tiles with 1px separator: 5 wide, 5 tall.
	if !strings.HasPrefix(string(data), "P6\n5 5\n255\n") {
		t.Fatalf("bad header: %q", data[:10])
	}
	if err := imageio.WriteGrid(path, nil, 2); err == nil {
		t.Fatal("empty grid should error")
	}
	ragged := append(imgs, tensor.New(3, 4, 4))
	if err := imageio.WriteGrid(path, ragged, 2); err == nil {
		t.Fatal("ragged grid should error")
	}
}
