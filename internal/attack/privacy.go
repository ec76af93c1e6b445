package attack

import (
	"fmt"
	"math"
	"path/filepath"

	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/imageio"
	"github.com/pardon-feddg/pardon/internal/loss"
	"github.com/pardon-feddg/pardon/internal/metrics"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/report"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/stats"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/synth"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// PrivacyConfig sizes the Table IV / Figs. 6–7 experiment.
type PrivacyConfig struct {
	Seed uint64
	// VictimsPerDomain is the victim image count per PACS domain.
	VictimsPerDomain int
	// ClientsPerDomain controls how many victim clients each domain is
	// split into (each uploads one client-level style vector).
	ClientsPerDomain int
	// PublicSamples sizes the attacker's public corpus (attack i).
	PublicSamples int
	// OutDir, when non-empty, receives the Fig. 6/7 image grids.
	OutDir string
}

// DefaultPrivacyConfig returns the sizing used by tests and benches.
func DefaultPrivacyConfig(seed uint64) PrivacyConfig {
	return PrivacyConfig{Seed: seed, VictimsPerDomain: 160, ClientsPerDomain: 8, PublicSamples: 480}
}

// DomainScores holds one domain's Table IV row for one attack.
type DomainScores struct {
	Domain     string
	FIDSample  float64
	FIDClient  float64
	ISSample   float64
	ISClient   float64
	PSNRSample float64
	PSNRClient float64
}

// PrivacyResult is the Table IV grid: attack (i) third-party and attack
// (ii) inter-client, each scored per victim domain.
type PrivacyResult struct {
	ThirdParty  []DomainScores // attack (i)
	InterClient []DomainScores // attack (ii)
}

// Table renders the Table IV grid.
func (r *PrivacyResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Table IV — reconstruction quality from shared styles (FID↑ and IS↓ mean stronger privacy)",
		Header: []string{"Attack", "Domain", "FID sample", "FID client", "IS sample", "IS client", "PSNR sample", "PSNR client"},
		Notes: []string{
			"sample = per-sample style vectors (CCST-style sharing); client = PARDON's single client-level vector",
			"FID over frozen-encoder pooled features; IS from a victim-domain classifier's posteriors",
		},
	}
	add := func(name string, rows []DomainScores) {
		for _, d := range rows {
			t.AddRow(name, d.Domain,
				fmt.Sprintf("%.4f", d.FIDSample), fmt.Sprintf("%.4f", d.FIDClient),
				fmt.Sprintf("%.3f", d.ISSample), fmt.Sprintf("%.3f", d.ISClient),
				fmt.Sprintf("%.2fdB", d.PSNRSample), fmt.Sprintf("%.2fdB", d.PSNRClient))
		}
	}
	add("(i) third-party", r.ThirdParty)
	add("(ii) inter-client", r.InterClient)
	return t
}

// RunPrivacy executes both attacks against PACS-style victims and returns
// the Table IV scores; when cfg.OutDir is set it also writes the Fig. 6
// (third-party) and Fig. 7 (inter-client) reconstruction grids.
func RunPrivacy(cfg PrivacyConfig) (*PrivacyResult, error) {
	if cfg.VictimsPerDomain <= 0 {
		cfg = DefaultPrivacyConfig(cfg.Seed)
	}
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		return nil, err
	}
	gen, err := synth.New(synth.PACSConfig(cfg.Seed + 101))
	if err != nil {
		return nil, err
	}

	// Victim data: per domain, images plus their sample- and
	// client-level style vectors (exactly what each sharing scheme
	// exposes to an adversary).
	numDomains := gen.Config().NumDomains
	victims := make([]*dataset.Dataset, numDomains)
	sampleStyles := make([][][]float64, numDomains)
	clientStyles := make([][][]float64, numDomains)
	for d := 0; d < numDomains; d++ {
		ds, err := gen.GenerateDomain(d, cfg.VictimsPerDomain, "victims")
		if err != nil {
			return nil, err
		}
		victims[d] = ds
		feats := make([]*tensor.Tensor, ds.Len())
		for i, s := range ds.Samples {
			f, err := enc.Encode(s.X)
			if err != nil {
				return nil, err
			}
			feats[i] = f
			sv, err := style.Of(f)
			if err != nil {
				return nil, err
			}
			sampleStyles[d] = append(sampleStyles[d], sv.Vec())
		}
		// Split the domain into victim clients; each uploads PARDON's
		// client-level style.
		per := ds.Len() / cfg.ClientsPerDomain
		for c := 0; c < cfg.ClientsPerDomain; c++ {
			sub := feats[c*per : (c+1)*per]
			cs, err := core.ClientStyle(sub, true)
			if err != nil {
				return nil, err
			}
			clientStyles[d] = append(clientStyles[d], cs)
		}
	}

	// The Inception-Score classifier: trained on real victim images.
	clf, clfShift, clfScale, err := trainProbeClassifier(enc, victims, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &PrivacyResult{}
	for ai, att := range []string{"third-party", "inter-client"} {
		var decoder *Decoder
		switch att {
		case "third-party":
			// Attack (i): decoder trained on a public corpus disjoint
			// from the victims (classes, domains, and seed all differ).
			pub, err := synth.New(synth.PublicCorpusConfig(cfg.Seed + 555))
			if err != nil {
				return nil, err
			}
			decoder, err = trainCorpusDecoder(enc, pub, cfg.PublicSamples)
			if err != nil {
				return nil, err
			}
		default:
			// Attack (ii): the malicious client trains on its own data —
			// same generative family as the victims (strongest insider).
			decoder, err = trainInsiderDecoder(enc, gen, cfg.PublicSamples)
			if err != nil {
				return nil, err
			}
		}
		var rows []DomainScores
		for d := 0; d < numDomains; d++ {
			ds, err := scoreDomain(enc, clf, clfShift, clfScale, gen.DomainName(d), victims[d], decoder, sampleStyles[d], clientStyles[d])
			if err != nil {
				return nil, fmt.Errorf("attack: %s domain %d: %w", att, d, err)
			}
			rows = append(rows, ds)
			if cfg.OutDir != "" && d == 0 {
				if err := dumpGrids(cfg.OutDir, ai, victims[d], decoder, sampleStyles[d], clientStyles[d]); err != nil {
					return nil, err
				}
			}
		}
		if att == "third-party" {
			res.ThirdParty = rows
		} else {
			res.InterClient = rows
		}
	}
	return res, nil
}

// trainCorpusDecoder fits the inversion decoder on a synthetic corpus.
func trainCorpusDecoder(enc *encoder.Encoder, gen *synth.Generator, n int) (*Decoder, error) {
	perDomain := n / gen.Config().NumDomains
	if perDomain < 1 {
		perDomain = 1
	}
	var styles [][]float64
	var images []*tensor.Tensor
	for d := 0; d < gen.Config().NumDomains; d++ {
		ds, err := gen.GenerateDomain(d, perDomain, "attacker")
		if err != nil {
			return nil, err
		}
		for _, s := range ds.Samples {
			f, err := enc.Encode(s.X)
			if err != nil {
				return nil, err
			}
			sv, err := style.Of(f)
			if err != nil {
				return nil, err
			}
			styles = append(styles, sv.Vec())
			images = append(images, s.X)
		}
	}
	return TrainDecoder(styles, images, 1e-2)
}

// trainInsiderDecoder fits the decoder on the malicious client's own data
// (drawn from the victim generator with a disjoint sample stream).
func trainInsiderDecoder(enc *encoder.Encoder, gen *synth.Generator, n int) (*Decoder, error) {
	return trainCorpusDecoder(enc, gen, n)
}

// scoreDomain computes one Table IV row.
func scoreDomain(enc *encoder.Encoder, clf *nn.Model, shift, scale float64, name string, victims *dataset.Dataset, dec *Decoder, sampleStyles, clientStyles [][]float64) (DomainScores, error) {
	out := DomainScores{Domain: name}

	reconS, err := dec.ReconstructAll(sampleStyles)
	if err != nil {
		return out, err
	}
	reconC, err := dec.ReconstructAll(clientStyles)
	if err != nil {
		return out, err
	}

	real := make([]*tensor.Tensor, victims.Len())
	for i, s := range victims.Samples {
		real[i] = s.X
	}
	gReal, err := featureGaussian(enc, real)
	if err != nil {
		return out, err
	}
	gS, err := featureGaussian(enc, reconS)
	if err != nil {
		return out, err
	}
	gC, err := featureGaussian(enc, reconC)
	if err != nil {
		return out, err
	}
	if out.FIDSample, err = stats.FrechetDistance(gReal, gS); err != nil {
		return out, err
	}
	if out.FIDClient, err = stats.FrechetDistance(gReal, gC); err != nil {
		return out, err
	}

	if out.ISSample, err = inceptionScore(enc, clf, shift, scale, reconS); err != nil {
		return out, err
	}
	if out.ISClient, err = inceptionScore(enc, clf, shift, scale, reconC); err != nil {
		return out, err
	}

	// PSNR: sample-level reconstructions pair with their source image;
	// client-level reconstructions are compared against every member
	// image of the client (best case for the adversary).
	out.PSNRSample = meanPSNR(real, reconS, true)
	out.PSNRClient = meanPSNR(real, reconC, false)
	return out, nil
}

func featureGaussian(enc *encoder.Encoder, imgs []*tensor.Tensor) (*stats.Gaussian, error) {
	feats := make([][]float64, len(imgs))
	for i, img := range imgs {
		f, err := enc.PooledFeature(img)
		if err != nil {
			return nil, err
		}
		feats[i] = f
	}
	return stats.FitGaussian(feats, 1e-6)
}

func inceptionScore(enc *encoder.Encoder, clf *nn.Model, shift, scale float64, imgs []*tensor.Tensor) (float64, error) {
	in := clf.Cfg.In
	x := tensor.New(len(imgs), in)
	xd := x.Data()
	for i, img := range imgs {
		f, err := enc.Encode(img)
		if err != nil {
			return 0, err
		}
		row := xd[i*in : (i+1)*in]
		copy(row, f.Data())
		for j := range row {
			row[j] = (row[j] - shift) * scale
		}
	}
	post, err := metrics.Posteriors(clf, x, 64)
	if err != nil {
		return 0, err
	}
	return stats.InceptionScore(post)
}

func meanPSNR(real []*tensor.Tensor, recon []*tensor.Tensor, paired bool) float64 {
	if len(recon) == 0 {
		return 0
	}
	total, n := 0.0, 0
	for i, rc := range recon {
		var ref *tensor.Tensor
		if paired {
			if i >= len(real) {
				break
			}
			ref = real[i]
		} else {
			// Best-case adversary: compare against the closest real.
			best := -1.0
			for _, r := range real {
				if p, err := stats.PSNR(r.Data(), rc.Data(), peak(r)); err == nil && p > best {
					best = p
				}
			}
			total += best
			n++
			continue
		}
		if p, err := stats.PSNR(ref.Data(), rc.Data(), peak(ref)); err == nil {
			total += p
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func peak(t *tensor.Tensor) float64 {
	lo, hi := t.Data()[0], t.Data()[0]
	for _, v := range t.Data() {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return 1
	}
	return hi - lo
}

// trainProbeClassifier fits the IS classifier on real victim images.
func trainProbeClassifier(enc *encoder.Encoder, victims []*dataset.Dataset, seed uint64) (*nn.Model, float64, float64, error) {
	all, err := dataset.Merge(victims...)
	if err != nil {
		return nil, 0, 0, err
	}
	c, h, w := enc.OutShape()
	in := c * h * w
	x := tensor.New(all.Len(), in)
	xd := x.Data()
	labels := make([]int, all.Len())
	var sum, sumSq float64
	for i, s := range all.Samples {
		f, err := enc.Encode(s.X)
		if err != nil {
			return nil, 0, 0, err
		}
		copy(xd[i*in:(i+1)*in], f.Data())
		labels[i] = s.Y
		for _, v := range f.Data() {
			sum += v
			sumSq += v * v
		}
	}
	nTot := float64(all.Len() * in)
	mean := sum / nTot
	va := sumSq/nTot - mean*mean
	if va < 1e-12 {
		va = 1e-12
	}
	scale := 1.0 / math.Sqrt(va)
	for i := range xd {
		xd[i] = (xd[i] - mean) * scale
	}

	src := rng.New(seed).Child("probe-classifier")
	m, err := nn.New(nn.Config{In: in, Hidden: 64, ZDim: 32, Classes: all.NumClasses}, src.Stream("init"))
	if err != nil {
		return nil, 0, 0, err
	}
	opt := nn.NewSGD(0.02, 0.9, 1e-4)
	grads := m.NewGrads()
	r := src.Stream("batches")
	for epoch := 0; epoch < 12; epoch++ {
		perm := r.Perm(all.Len())
		for s := 0; s < len(perm); s += 32 {
			e := s + 32
			if e > len(perm) {
				e = len(perm)
			}
			idx := perm[s:e]
			xb := tensor.New(len(idx), in)
			yb := make([]int, len(idx))
			for bi, i := range idx {
				copy(xb.Data()[bi*in:(bi+1)*in], xd[i*in:(i+1)*in])
				yb[bi] = labels[i]
			}
			acts, err := m.Forward(xb)
			if err != nil {
				return nil, 0, 0, err
			}
			_, dl, err := loss.CrossEntropy(acts.Logits, yb)
			if err != nil {
				return nil, 0, 0, err
			}
			grads.Zero()
			if err := m.Backward(acts, dl, nil, grads); err != nil {
				return nil, 0, 0, err
			}
			if err := opt.Step(m, grads); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return m, mean, scale, nil
}

// dumpGrids writes the Fig. 6/7 qualitative grids for one domain.
func dumpGrids(outDir string, attackIdx int, victims *dataset.Dataset, dec *Decoder, sampleStyles, clientStyles [][]float64) error {
	fig := "fig6-third-party"
	if attackIdx == 1 {
		fig = "fig7-inter-client"
	}
	n := 8
	if n > victims.Len() {
		n = victims.Len()
	}
	orig := make([]*tensor.Tensor, 0, n)
	recS := make([]*tensor.Tensor, 0, n)
	for i := 0; i < n; i++ {
		orig = append(orig, victims.Samples[i].X)
		r, err := dec.Reconstruct(sampleStyles[i])
		if err != nil {
			return err
		}
		recS = append(recS, r)
	}
	recC := make([]*tensor.Tensor, 0, len(clientStyles))
	for _, cs := range clientStyles {
		r, err := dec.Reconstruct(cs)
		if err != nil {
			return err
		}
		recC = append(recC, r)
	}
	if err := imageio.WriteGrid(filepath.Join(outDir, fig+"-originals.ppm"), orig, n); err != nil {
		return err
	}
	if err := imageio.WriteGrid(filepath.Join(outDir, fig+"-sample-style.ppm"), recS, n); err != nil {
		return err
	}
	return imageio.WriteGrid(filepath.Join(outDir, fig+"-client-style.ppm"), recC, len(recC))
}
