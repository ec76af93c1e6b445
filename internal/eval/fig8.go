package eval

import (
	"fmt"
	"path/filepath"

	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/imageio"
	"github.com/pardon-feddg/pardon/internal/report"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/synth"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// StyleTransferComparison holds Fig. 8: how distinguishable the transfer
// outputs are across target clients for CCST (per-target styles) versus
// PARDON (one fused interpolation style).
type StyleTransferComparison struct {
	// CrossTargetDistance is the mean pairwise feature distance between
	// transfers of the same source image toward different targets.
	// CCST's outputs reveal which client's style was used (large
	// distance); PARDON's are indistinguishable (zero by construction).
	CCSTCrossTarget   float64
	PARDONCrossTarget float64
	// TargetLeakage is the mean distance between a CCST transfer and its
	// target client's real style — small values mean the transferred
	// image carries the target's private style.
	CCSTTargetLeakage   float64
	PARDONTargetLeakage float64
}

// Table renders the Fig. 8 distinguishability summary.
func (r *StyleTransferComparison) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 8 — style-transferred outputs: PARDON vs cross-client style transfer",
		Header: []string{"Method", "cross-target distance", "target-style leakage"},
		Notes: []string{
			"cross-target: same source transferred toward different target clients — CCST outputs differ per target (distinguishable), PARDON's do not",
			"leakage: style distance from transferred output to the target client's true style — small = the output reveals the target's private style",
		},
	}
	t.AddRow("CCST", fmt.Sprintf("%.4f", r.CCSTCrossTarget), fmt.Sprintf("%.4f", r.CCSTTargetLeakage))
	t.AddRow("PARDON", fmt.Sprintf("%.4f", r.PARDONCrossTarget), fmt.Sprintf("%.4f", r.PARDONTargetLeakage))
	return t
}

// RunStyleTransferComparison regenerates Fig. 8: source images from three
// PACS domains are style-transferred by CCST (toward each of three target
// clients' styles) and by PARDON (toward the fused interpolation style);
// outDir, when non-empty, receives image grids of the decoded transfers.
// The computation trains nothing and takes milliseconds, so it runs
// directly rather than as a cached engine job.
func RunStyleTransferComparison(cfg Config, outDir string) (*StyleTransferComparison, error) {
	gen, err := synth.New(synth.PACSConfig(cfg.Seed + 11))
	if err != nil {
		return nil, err
	}
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed).Child("fig8")

	// Three "target clients", one per domain, with their private styles;
	// and source images from each domain.
	numTargets := 3
	targetStyles := make([]*style.Style, numTargets)
	clientVecs := make([][]float64, numTargets)
	var sources []*tensor.Tensor
	var sourceFeats []*tensor.Tensor
	for d := 0; d < numTargets; d++ {
		ds, err := gen.GenerateDomain(d+1, 40, "fig8")
		if err != nil {
			return nil, err
		}
		feats := make([]*tensor.Tensor, ds.Len())
		for i, s := range ds.Samples {
			f, err := enc.Encode(s.X)
			if err != nil {
				return nil, err
			}
			feats[i] = f
		}
		cs, err := core.ClientStyle(feats, true)
		if err != nil {
			return nil, err
		}
		clientVecs[d] = cs
		if targetStyles[d], err = style.FromVec(cs); err != nil {
			return nil, err
		}
		sources = append(sources, ds.Samples[0].X)
		sourceFeats = append(sourceFeats, feats[0])
	}
	sg, err := core.InterpolationStyle(clientVecs, true)
	if err != nil {
		return nil, err
	}

	res := &StyleTransferComparison{}
	var ccstImgs, pardonImgs []*tensor.Tensor
	nPairs := 0
	for si, f := range sourceFeats {
		var ccstOut, pardonOut []*tensor.Tensor
		for ti := 0; ti < numTargets; ti++ {
			// CCST: transfer to the target client's raw style.
			tc, err := style.AdaIN(f, targetStyles[ti])
			if err != nil {
				return nil, err
			}
			ccstOut = append(ccstOut, tc)
			// PARDON: transfer to the fused interpolation style,
			// whatever the nominal "target" — outputs cannot encode it.
			tp, err := style.AdaIN(f, sg)
			if err != nil {
				return nil, err
			}
			pardonOut = append(pardonOut, tp)

			sc, err := style.Of(tc)
			if err != nil {
				return nil, err
			}
			dLeak, err := style.Distance(sc, targetStyles[ti])
			if err != nil {
				return nil, err
			}
			res.CCSTTargetLeakage += dLeak
			sp, err := style.Of(tp)
			if err != nil {
				return nil, err
			}
			dLeakP, err := style.Distance(sp, targetStyles[ti])
			if err != nil {
				return nil, err
			}
			res.PARDONTargetLeakage += dLeakP
			nPairs++
		}
		for a := 0; a < numTargets; a++ {
			for b := a + 1; b < numTargets; b++ {
				dc, err := tensor.SquaredDistance(ccstOut[a], ccstOut[b])
				if err != nil {
					return nil, err
				}
				res.CCSTCrossTarget += dc / float64(ccstOut[a].Len())
				dp, err := tensor.SquaredDistance(pardonOut[a], pardonOut[b])
				if err != nil {
					return nil, err
				}
				res.PARDONCrossTarget += dp / float64(pardonOut[a].Len())
			}
		}
		_ = si
		_ = src
		ccstImgs = append(ccstImgs, decodeForDisplay(ccstOut)...)
		pardonImgs = append(pardonImgs, decodeForDisplay(pardonOut)...)
	}
	pairs := float64(len(sourceFeats) * numTargets * (numTargets - 1) / 2)
	res.CCSTCrossTarget /= pairs
	res.PARDONCrossTarget /= pairs
	res.CCSTTargetLeakage /= float64(nPairs)
	res.PARDONTargetLeakage /= float64(nPairs)

	if outDir != "" {
		if err := imageio.WriteGrid(filepath.Join(outDir, "fig8-sources.ppm"), sources, len(sources)); err != nil {
			return nil, err
		}
		if err := imageio.WriteGrid(filepath.Join(outDir, "fig8-ccst.ppm"), ccstImgs, numTargets); err != nil {
			return nil, err
		}
		if err := imageio.WriteGrid(filepath.Join(outDir, "fig8-pardon.ppm"), pardonImgs, numTargets); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decodeForDisplay reduces 16-channel feature maps to 3-channel
// visualizations (groups of channels averaged) for the image grids.
func decodeForDisplay(feats []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(feats))
	for i, f := range feats {
		c, h, w := f.Dim(0), f.Dim(1), f.Dim(2)
		img := tensor.New(3, h, w)
		id := img.Data()
		fd := f.Data()
		per := (c + 2) / 3
		hw := h * w
		for ch := 0; ch < c; ch++ {
			g := ch / per
			if g > 2 {
				g = 2
			}
			for p := 0; p < hw; p++ {
				id[g*hw+p] += fd[ch*hw+p] / float64(per)
			}
		}
		out[i] = img
	}
	return out
}
