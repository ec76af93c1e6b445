package eval

import (
	"fmt"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/report"
	"github.com/pardon-feddg/pardon/internal/synth"
)

// DefaultLambda is the paper's default heterogeneity level (§IV-A).
const DefaultLambda = 0.1

// corpusSpec pairs a generator config with its FL sizing.
type corpusSpec struct {
	Name   string
	Gen    synth.Config
	Sizing flSizing
}

func pacsSpec(cfg Config) corpusSpec {
	return corpusSpec{Name: "PACS", Gen: synth.PACSConfig(cfg.Seed + 11), Sizing: pacsSizing(cfg.Scale)}
}

func officeHomeSpec(cfg Config) corpusSpec {
	return corpusSpec{Name: "OfficeHome", Gen: synth.OfficeHomeConfig(cfg.Seed + 23), Sizing: officeHomeSizing(cfg.Scale)}
}

// SchemeResult is the per-method accuracy of one domain-split scheme,
// averaged over seeds.
type SchemeResult struct {
	Scheme  dataset.Split
	ValName string
	Test    string
	// Val/TestAcc are keyed by method name.
	ValAcc  map[string]float64
	TestAcc map[string]float64
}

// SplitTableResult holds one dataset's LTDO or LODO grid.
type SplitTableResult struct {
	Dataset string
	Methods []string
	Schemes []SchemeResult
}

// Table renders the paper-style grid: one row per method, one column per
// scheme's val and test domain, plus averages.
func (r *SplitTableResult) Table(title string) *report.Table {
	t := &report.Table{Title: title}
	t.Header = append(t.Header, "Method")
	for _, s := range r.Schemes {
		t.Header = append(t.Header, "val:"+s.ValName)
	}
	t.Header = append(t.Header, "VAL-AVG")
	for _, s := range r.Schemes {
		t.Header = append(t.Header, "test:"+s.Test)
	}
	t.Header = append(t.Header, "TEST-AVG")
	for _, m := range r.Methods {
		row := []string{m}
		vs, ts := 0.0, 0.0
		for _, s := range r.Schemes {
			row = append(row, report.Pct(s.ValAcc[m]))
			vs += s.ValAcc[m]
		}
		row = append(row, report.Pct(vs/float64(len(r.Schemes))))
		for _, s := range r.Schemes {
			row = append(row, report.Pct(s.TestAcc[m]))
			ts += s.TestAcc[m]
		}
		row = append(row, report.Pct(ts/float64(len(r.Schemes))))
		t.AddRow(row...)
	}
	return t
}

// runSplitScheme evaluates all methods on one scheme of one corpus,
// averaging over cfg seeds. The (seed × method) grid is one engine
// sweep, expanded and deduplicated server-side and sharded across the
// worker pool; results come back in grid order (seeds outer, methods
// inner) so accumulation stays deterministic.
func runSplitScheme(cfg Config, spec corpusSpec, split dataset.Split, methods []string, tag string) (SchemeResult, error) {
	res := SchemeResult{
		Scheme:  split,
		ValAcc:  map[string]float64{},
		TestAcc: map[string]float64{},
	}
	seeds := cfg.seeds()
	sw := engine.Sweep{
		Base:    flSpec(spec.Name, 0, split, DefaultLambda, spec.Sizing, "", 0, 0, tag),
		Methods: methods,
		Seeds:   seedAxis(seeds, func(s uint64) uint64 { return spec.Gen.Seed*7919 + s }),
	}
	// Domain names come from a bare generator; sample generation happens
	// inside the engine's scenario builder.
	gen, err := synth.New(spec.Gen)
	if err != nil {
		return res, err
	}
	res.ValName = gen.DomainName(split.Val[0])
	res.Test = gen.DomainName(split.Test[0])
	results, err := sweepResults(cfg.engine(), sw)
	if err != nil {
		return res, err
	}
	i := 0
	for range seeds {
		for _, m := range methods {
			res.ValAcc[m] += results[i].Final().ValAcc / float64(len(seeds))
			res.TestAcc[m] += results[i].Final().TestAcc / float64(len(seeds))
			i++
		}
	}
	return res, nil
}

// RunLTDO regenerates Table I: leave-two-domains-out on the PACS-style and
// Office-Home-style corpora for all six methods.
func RunLTDO(cfg Config) ([]*SplitTableResult, error) {
	return runSplitTable(cfg, "ltdo", dataset.LTDOSplits)
}

// RunLODO regenerates Table II: leave-one-domain-out on both corpora.
func RunLODO(cfg Config) ([]*SplitTableResult, error) {
	return runSplitTable(cfg, "lodo", dataset.LODOSplits)
}

// runSplitTable runs every split scheme that splits draws for each
// corpus, tagging each scheme's cells "<prefix>-<corpus>-<scheme>".
func runSplitTable(cfg Config, prefix string, splits func(int, []string) ([]dataset.Split, error)) ([]*SplitTableResult, error) {
	methods := MethodNames()
	var out []*SplitTableResult
	for _, spec := range []corpusSpec{pacsSpec(cfg), officeHomeSpec(cfg)} {
		sps, err := splits(spec.Gen.NumDomains, spec.Gen.DomainNames)
		if err != nil {
			return nil, err
		}
		res := &SplitTableResult{Dataset: spec.Name, Methods: methods}
		for si, sp := range sps {
			sr, err := runSplitScheme(cfg, spec, sp, methods, fmt.Sprintf("%s-%s-%d", prefix, spec.Name, si))
			if err != nil {
				return nil, err
			}
			res.Schemes = append(res.Schemes, sr)
		}
		out = append(out, res)
	}
	return out, nil
}

// IWildCamResult holds Table III: per-λ validation and test accuracy.
type IWildCamResult struct {
	Lambdas []float64
	Methods []string
	// Val/Test indexed [method][lambda position].
	Val  map[string][]float64
	Test map[string][]float64
}

// Table renders the Table III grid.
func (r *IWildCamResult) Table() *report.Table {
	t := &report.Table{Title: "Table III — IWildCam-style corpus, accuracy by heterogeneity λ"}
	t.Header = []string{"Method"}
	for _, l := range r.Lambdas {
		t.Header = append(t.Header, fmt.Sprintf("val λ=%.1f", l))
	}
	t.Header = append(t.Header, "VAL-AVG")
	for _, l := range r.Lambdas {
		t.Header = append(t.Header, fmt.Sprintf("test λ=%.1f", l))
	}
	t.Header = append(t.Header, "TEST-AVG")
	for _, m := range r.Methods {
		row := []string{m}
		s := 0.0
		for i := range r.Lambdas {
			row = append(row, report.Pct(r.Val[m][i]))
			s += r.Val[m][i]
		}
		row = append(row, report.Pct(s/float64(len(r.Lambdas))))
		s = 0.0
		for i := range r.Lambdas {
			row = append(row, report.Pct(r.Test[m][i]))
			s += r.Test[m][i]
		}
		row = append(row, report.Pct(s/float64(len(r.Lambdas))))
		t.AddRow(row...)
	}
	return t
}

// RunIWildCam regenerates Table III: the large-domain corpus under
// λ ∈ {0, 0.1, 1.0}, validation and test domain pools both unseen.
func RunIWildCam(cfg Config) (*IWildCamResult, error) {
	sz := iwildcamSizing(cfg.Scale)
	methods := MethodNames()
	res := &IWildCamResult{
		Lambdas: []float64{0.0, 0.1, 1.0},
		Methods: methods,
		Val:     map[string][]float64{},
		Test:    map[string][]float64{},
	}
	for _, m := range methods {
		res.Val[m] = make([]float64, len(res.Lambdas))
		res.Test[m] = make([]float64, len(res.Lambdas))
	}
	train, val, test := synth.IWildCamSplit(sz.NumDomains)
	split := dataset.Split{Name: "iwildcam", Train: train, Val: val, Test: test}
	seeds := cfg.seeds()
	// One (seed × method) sweep per λ: the scenario tag embeds the λ
	// level, so folding λ into a single sweep axis would change every
	// cell's randomness stream and with it the published numbers. All
	// λ levels are submitted before any is awaited, so the full grid
	// still shards across the worker pool at once.
	sws := make([]engine.Sweep, 0, len(res.Lambdas))
	for _, lambda := range res.Lambdas {
		base := flSpec("IWildCam", 0, split, lambda, sz.flSizing, "", 0, 0, fmt.Sprintf("iwild-%.1f", lambda))
		base.NumDomains = sz.NumDomains
		base.NumClasses = sz.NumClasses
		base.ClassesPerDomain = sz.ClassesPerDomain
		sws = append(sws, engine.Sweep{
			Base:    base,
			Methods: methods,
			Seeds:   seedAxis(seeds, func(s uint64) uint64 { return (cfg.Seed+31)*7919 + s }),
		})
	}
	all, err := sweepAllResults(cfg.engine(), sws)
	if err != nil {
		return nil, err
	}
	for li := range res.Lambdas {
		i := 0
		for range seeds {
			for _, m := range methods {
				res.Val[m][li] += all[li][i].Final().ValAcc / float64(len(seeds))
				res.Test[m][li] += all[li][i].Final().TestAcc / float64(len(seeds))
				i++
			}
		}
	}
	return res, nil
}

// AblationResult holds Table V: PARDON variants v1–v5.
type AblationResult struct {
	Variants []string
	Val      map[string]float64
	Test     map[string]float64
}

// Table renders the Table V grid with the component matrix.
func (r *AblationResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Table V — PARDON ablation (✓ component retained, ✗ removed)",
		Header: []string{"Variant", "LocalClust", "GlobalClust", "Contrastive", "Val Acc", "Test Acc"},
	}
	marks := map[string][3]string{
		"v1": {"✗", "✓", "✓"},
		"v2": {"✓", "✗", "✓"},
		"v3": {"✓", "✓", "✗"},
		"v4": {"✗", "✗", "✓"},
		"v5": {"✓", "✓", "✓"},
	}
	for _, v := range r.Variants {
		m := marks[v]
		t.AddRow("PARDON-"+v, m[0], m[1], m[2], report.Pct(r.Val[v]), report.Pct(r.Test[v]))
	}
	return t
}

// RunAblation regenerates Table V on the PACS LTDO scheme the paper uses
// (validate on Art, test on Photo).
func RunAblation(cfg Config) (*AblationResult, error) {
	spec := pacsSpec(cfg)
	// Scheme: train Cartoon+Sketch, validate Art, test Photo — the Table
	// I column pair (A val / P test) that Table V quotes.
	split := dataset.Split{Name: "ablation", Train: []int{2, 3}, Val: []int{1}, Test: []int{0}}
	res := &AblationResult{
		Variants: []string{"v1", "v2", "v3", "v4", "v5"},
		Val:      map[string]float64{},
		Test:     map[string]float64{},
	}
	seeds := cfg.seeds()
	variants := make([]string, len(res.Variants))
	for i, v := range res.Variants {
		variants[i] = "PARDON-" + v
	}
	sw := engine.Sweep{
		Base:    flSpec(spec.Name, 0, split, DefaultLambda, spec.Sizing, "", 0, 0, "ablation"),
		Methods: variants,
		Seeds:   seedAxis(seeds, func(s uint64) uint64 { return spec.Gen.Seed*7919 + s }),
	}
	results, err := sweepResults(cfg.engine(), sw)
	if err != nil {
		return nil, err
	}
	i := 0
	for range seeds {
		for _, v := range res.Variants {
			res.Val[v] += results[i].Final().ValAcc / float64(len(seeds))
			res.Test[v] += results[i].Final().TestAcc / float64(len(seeds))
			i++
		}
	}
	return res, nil
}
