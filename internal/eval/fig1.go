package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/landscape"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/report"
)

// LandscapeResult holds Fig. 1: loss-surface sharpness around the global
// model and unseen-domain feature separation, naïve training vs PARDON.
type LandscapeResult struct {
	// Sharpness of the pooled-client loss surface (lower/flatter =
	// clients agree around the global model).
	NaiveSharpness  float64
	PARDONSharpness float64
	// Separation is the Fisher class-separation score of unseen-domain
	// embeddings (higher = the t-SNE panel's cleaner clusters).
	NaiveSeparation  float64
	PARDONSeparation float64
	// Unseen-domain accuracy of each final global model.
	NaiveAcc  float64
	PARDONAcc float64
}

// Table renders the Fig. 1 summary.
func (r *LandscapeResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 1 — loss landscape and unseen-domain feature separation",
		Header: []string{"Training", "surface sharpness", "class separation (unseen)", "unseen acc"},
		Notes: []string{
			"sharpness = mean pooled-client loss increase around the global model (flatter is better)",
			"separation = between/within class scatter of unseen-domain embeddings (t-SNE panel analogue)",
		},
	}
	t.AddRow("Naive (FedAvg)", fmt.Sprintf("%.4f", r.NaiveSharpness), fmt.Sprintf("%.4f", r.NaiveSeparation), report.Pct(r.NaiveAcc))
	t.AddRow("PARDON", fmt.Sprintf("%.4f", r.PARDONSharpness), fmt.Sprintf("%.4f", r.PARDONSeparation), report.Pct(r.PARDONAcc))
	return t
}

// RunLandscape regenerates Fig. 1: two clients holding different domains
// train naïvely and with PARDON; the pooled loss surface around each
// global model and the unseen-domain feature separation are reported.
// outDir, when non-empty, receives the loss-surface grids as CSV.
func RunLandscape(cfg Config, outDir string) (*LandscapeResult, error) {
	spec := pacsSpec(cfg)
	sz := spec.Sizing
	sz.NumClients = 2
	sz.SampleK = 2
	// Two clients, two domains (Photo and Art), unseen Sketch.
	split := dataset.Split{Name: "fig1", Train: []int{0, 1}, Test: []int{3}}
	eng := cfg.engine()

	// Both training runs go through the engine as one method-axis sweep,
	// so they are cached; the trained global models are read back from
	// their checkpoint blobs. The landscape probes below need the
	// scenario itself, which the engine shares from its scenario cache.
	base := flSpec(spec.Name, spec.Gen.Seed, split, 0.0, sz, "FedAvg", cfg.Seed, 0, "fig1")
	sw := engine.Sweep{Base: base, Methods: []string{"FedAvg", "PARDON"}}
	results, err := sweepResults(eng, sw)
	if err != nil {
		return nil, err
	}
	sc, err := eng.BuildScenario(base)
	if err != nil {
		return nil, err
	}

	var sharp, sep [2]float64
	for i, method := range sw.Methods {
		cell := base
		cell.Method = method
		model, err := trainedModel(eng, cell, results[i].SpecHash)
		if err != nil {
			return nil, fmt.Errorf("eval: fig1 %s model: %w", method, err)
		}
		grid, err := landscape.LossSurface(model, sc.Clients, 13, 0.5, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if sep[i], err = landscape.SeparationScore(model, sc.Test, sc.Gen.Config().NumClasses); err != nil {
			return nil, err
		}
		sharp[i] = grid.Sharpness()
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(outDir, "fig1-surface-"+method+".csv")
			if err := os.WriteFile(path, []byte(grid.CSV()), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return &LandscapeResult{
		NaiveSharpness: sharp[0], PARDONSharpness: sharp[1],
		NaiveSeparation: sep[0], PARDONSeparation: sep[1],
		NaiveAcc: results[0].Final().TestAcc, PARDONAcc: results[1].Final().TestAcc,
	}, nil
}

// trainedModel loads the checkpoint blob stored under key, the address
// of spec. A cached Result can outlive its blob (a capped disk cache
// evicts by mtime and the blob is the older file; a memory store evicts
// past its blob budget), so a missing blob re-runs the cell fresh.
func trainedModel(eng *engine.Engine, spec engine.Spec, key string) (*nn.Model, error) {
	blob, ok, err := eng.ModelBlob(key)
	if err == nil && !ok {
		var job *engine.Job
		if job, err = eng.SubmitFresh(spec, 0); err == nil {
			if _, err = job.Wait(context.Background()); err == nil {
				blob, ok, err = eng.ModelBlob(key)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no checkpoint blob for %.12s", key)
	}
	return nn.LoadModel(blob)
}
