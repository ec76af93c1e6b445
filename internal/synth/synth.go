// Package synth generates the synthetic multi-domain image corpora that
// stand in for PACS, Office-Home, and IWildCam (see DESIGN.md §2).
//
// The generative model is an explicit content ⊗ style factorization:
//
//   - content: every class y owns a prototype vector c_y; a sample draws
//     u = c_y + noise and renders the spatial pattern Σ_k u_k·B_k from a
//     fixed bank of smooth basis patterns B_k shared by all domains;
//   - style: every domain owns a channel-mixing matrix, per-channel gain
//     and bias, and an additive texture pattern, applied on top of the
//     content rendering.
//
// Domain generalization — recovering the class from a sample of an unseen
// domain — is therefore exactly the content/style disentanglement problem
// the paper studies, and "style" is literally channel statistics, the
// quantity AdaIN-based FedDG methods (PARDON, CCST) manipulate.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// ImageChannels is the channel count of generated images (RGB analogue).
const ImageChannels = 3

// DomainSpec holds one domain's style parameters.
type DomainSpec struct {
	Name      string
	Gain      [ImageChannels]float64
	Bias      [ImageChannels]float64
	Mix       [ImageChannels][ImageChannels]float64
	Texture   *tensor.Tensor // (3,H,W) additive pattern
	TexWeight float64
	// Classes restricts the domain to a subset of classes (nil = all).
	// Used by the IWildCam preset where each camera sees few species.
	Classes []int
}

// Config describes a synthetic corpus.
type Config struct {
	Name         string
	NumClasses   int
	NumDomains   int
	H, W         int
	ContentDim   int     // number of basis patterns / prototype dims
	ContentScale float64 // prototype magnitude
	ContentNoise float64 // within-class latent noise
	PixelNoise   float64 // additive per-pixel noise
	// StyleStrength scales the sampled domain style variation for corpora
	// without hand-set Specs.
	StyleStrength float64
	Seed          uint64
	DomainNames   []string
	// Specs optionally hand-sets domain styles (e.g. the PACS preset).
	// When shorter than NumDomains the remainder is sampled.
	Specs []DomainSpec
	// ClassesPerDomain, when positive, restricts each sampled domain to
	// that many classes drawn from a long-tailed (Zipf) distribution.
	ClassesPerDomain int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.NumClasses < 2:
		return fmt.Errorf("synth: NumClasses %d < 2", c.NumClasses)
	case c.NumDomains < 1:
		return fmt.Errorf("synth: NumDomains %d < 1", c.NumDomains)
	case c.H < 4 || c.W < 4:
		return fmt.Errorf("synth: image %dx%d too small", c.H, c.W)
	case c.ContentDim < 1:
		return fmt.Errorf("synth: ContentDim %d < 1", c.ContentDim)
	}
	return nil
}

// Generator renders samples for one corpus. Safe for concurrent reads
// after construction.
type Generator struct {
	cfg    Config
	src    *rng.Source
	bases  []*tensor.Tensor // ContentDim patterns (3,H,W)
	protos [][]float64      // NumClasses × ContentDim
	specs  []DomainSpec
	// zipf weights over classes for long-tailed domains.
	classWeights []float64
}

// New constructs a generator; all randomness derives from cfg.Seed.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, src: rng.New(cfg.Seed).Child("synth", cfg.Name)}

	r := g.src.Stream("bases")
	g.bases = make([]*tensor.Tensor, cfg.ContentDim)
	for k := range g.bases {
		g.bases[k] = smoothPattern(r, ImageChannels, cfg.H, cfg.W, 2)
	}

	// Class prototypes are equal-energy sign codes (±ContentScale per
	// basis). Classes therefore differ in the *spatial arrangement* of
	// content (which basis patterns appear with which sign), never in
	// total energy — mirroring real images, where channel statistics are
	// style and content survives channel-wise renormalization. This is
	// the property AdaIN-based methods depend on.
	r = g.src.Stream("prototypes")
	g.protos = make([][]float64, cfg.NumClasses)
	for y := range g.protos {
		p := make([]float64, cfg.ContentDim)
		for k := range p {
			if r.Float64() < 0.5 {
				p[k] = -cfg.ContentScale
			} else {
				p[k] = cfg.ContentScale
			}
		}
		g.protos[y] = p
	}

	g.classWeights = zipfWeights(cfg.NumClasses, 1.2)

	g.specs = make([]DomainSpec, cfg.NumDomains)
	for d := 0; d < cfg.NumDomains; d++ {
		if d < len(cfg.Specs) {
			g.specs[d] = cfg.Specs[d]
			if g.specs[d].Texture == nil {
				g.specs[d].Texture = smoothPattern(g.src.StreamI("texture", d), ImageChannels, cfg.H, cfg.W, 3)
			}
			continue
		}
		g.specs[d] = g.sampleSpec(d)
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Spec returns domain d's style parameters.
func (g *Generator) Spec(d int) (DomainSpec, error) {
	if d < 0 || d >= len(g.specs) {
		return DomainSpec{}, fmt.Errorf("synth: domain %d out of range [0,%d)", d, len(g.specs))
	}
	return g.specs[d], nil
}

// DomainName returns a printable name for domain d.
func (g *Generator) DomainName(d int) string {
	if d >= 0 && d < len(g.specs) && g.specs[d].Name != "" {
		return g.specs[d].Name
	}
	if d >= 0 && d < len(g.cfg.DomainNames) {
		return g.cfg.DomainNames[d]
	}
	return fmt.Sprintf("D%d", d)
}

func (g *Generator) sampleSpec(d int) DomainSpec {
	r := g.src.StreamI("domain", d)
	s := g.cfg.StyleStrength
	spec := DomainSpec{Name: g.DomainNameFromConfig(d)}
	for c := 0; c < ImageChannels; c++ {
		spec.Gain[c] = math.Exp(r.NormFloat64() * s * 0.5)
		spec.Bias[c] = r.NormFloat64() * s
		for c2 := 0; c2 < ImageChannels; c2++ {
			spec.Mix[c][c2] = r.NormFloat64() * s * 0.3
			if c == c2 {
				spec.Mix[c][c2] += 1
			}
		}
	}
	spec.Texture = smoothPattern(r, ImageChannels, g.cfg.H, g.cfg.W, 3)
	spec.TexWeight = math.Abs(r.NormFloat64()) * s
	if g.cfg.ClassesPerDomain > 0 && g.cfg.ClassesPerDomain < g.cfg.NumClasses {
		spec.Classes = sampleClassesZipf(r, g.classWeights, g.cfg.ClassesPerDomain)
	}
	return spec
}

// DomainNameFromConfig returns the configured name for domain d, if any.
func (g *Generator) DomainNameFromConfig(d int) string {
	if d < len(g.cfg.DomainNames) {
		return g.cfg.DomainNames[d]
	}
	return fmt.Sprintf("D%d", d)
}

// Render draws one sample of the given class in the given domain using r.
func (g *Generator) Render(class, domain int, r *rand.Rand) (*tensor.Tensor, error) {
	if class < 0 || class >= g.cfg.NumClasses {
		return nil, fmt.Errorf("synth: class %d out of range [0,%d)", class, g.cfg.NumClasses)
	}
	if domain < 0 || domain >= len(g.specs) {
		return nil, fmt.Errorf("synth: domain %d out of range [0,%d)", domain, len(g.specs))
	}
	spec := &g.specs[domain]
	h, w := g.cfg.H, g.cfg.W
	hw := h * w

	// Content rendering: u = c_y + ε,  img0 = Σ_k u_k B_k.
	u := make([]float64, g.cfg.ContentDim)
	for k := range u {
		u[k] = g.protos[class][k] + r.NormFloat64()*g.cfg.ContentNoise
	}
	img0 := tensor.New(ImageChannels, h, w)
	d0 := img0.Data()
	for k, uk := range u {
		if uk == 0 {
			continue
		}
		bd := g.bases[k].Data()
		for i := range d0 {
			d0[i] += uk * bd[i]
		}
	}

	// Style: channel mix, gain/bias, texture, pixel noise.
	out := tensor.New(ImageChannels, h, w)
	od := out.Data()
	td := spec.Texture.Data()
	for c := 0; c < ImageChannels; c++ {
		oseg := od[c*hw : (c+1)*hw]
		tseg := td[c*hw : (c+1)*hw]
		for i := 0; i < hw; i++ {
			v := 0.0
			for c2 := 0; c2 < ImageChannels; c2++ {
				v += spec.Mix[c][c2] * d0[c2*hw+i]
			}
			v = spec.Gain[c]*v + spec.Bias[c] + spec.TexWeight*tseg[i]
			if g.cfg.PixelNoise > 0 {
				v += r.NormFloat64() * g.cfg.PixelNoise
			}
			oseg[i] = v
		}
	}
	return out, nil
}

// GenerateDomain draws n samples from domain d, classes cycling through the
// domain's class set (or the long-tail weights for restricted domains).
// seedTag isolates the stream so distinct splits never share randomness.
func (g *Generator) GenerateDomain(d, n int, seedTag string) (*dataset.Dataset, error) {
	if d < 0 || d >= len(g.specs) {
		return nil, fmt.Errorf("synth: domain %d out of range [0,%d)", d, len(g.specs))
	}
	r := g.src.Stream("generate", seedTag, fmt.Sprint(d))
	spec := &g.specs[d]
	classes := spec.Classes
	out := &dataset.Dataset{NumClasses: g.cfg.NumClasses, Samples: make([]dataset.Sample, 0, n)}
	for i := 0; i < n; i++ {
		var y int
		if len(classes) > 0 {
			y = classes[i%len(classes)]
		} else {
			y = i % g.cfg.NumClasses
		}
		x, err := g.Render(y, d, r)
		if err != nil {
			return nil, err
		}
		out.Samples = append(out.Samples, dataset.Sample{X: x, Y: y, Domain: d})
	}
	out.Shuffle(r)
	return out, nil
}

// smoothPattern draws a per-pixel Gaussian field and box-blurs it `passes`
// times, then normalizes each channel to zero mean / unit std — a cheap
// low-frequency pattern generator.
func smoothPattern(r *rand.Rand, c, h, w, passes int) *tensor.Tensor {
	t := tensor.Randn(r, 1, c, h, w)
	data := t.Data()
	hw := h * w
	tmp := make([]float64, hw)
	for p := 0; p < passes; p++ {
		for ch := 0; ch < c; ch++ {
			seg := data[ch*hw : (ch+1)*hw]
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					s, n := 0.0, 0
					for dy := -1; dy <= 1; dy++ {
						yy := y + dy
						if yy < 0 || yy >= h {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							xx := x + dx
							if xx < 0 || xx >= w {
								continue
							}
							s += seg[yy*w+xx]
							n++
						}
					}
					tmp[y*w+x] = s / float64(n)
				}
			}
			copy(seg, tmp)
		}
	}
	// Per-channel standardization.
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
		va = math.Sqrt(va/float64(hw)) + 1e-9
		for i := range seg {
			seg[i] = (seg[i] - m) / va
		}
	}
	return t
}

func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1.0 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// sampleClassesZipf draws k distinct classes, favoring head classes, so
// long-tailed domains share common species but each holds some rare ones —
// the IWildCam structure.
func sampleClassesZipf(r *rand.Rand, weights []float64, k int) []int {
	n := len(weights)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := make([]int, 0, k)
	taken := make([]bool, n)
	for len(chosen) < k {
		// Weighted draw without replacement.
		total := 0.0
		for i, w := range weights {
			if !taken[i] {
				total += w
			}
		}
		x := r.Float64() * total
		for i, w := range weights {
			if taken[i] {
				continue
			}
			x -= w
			if x <= 0 {
				taken[i] = true
				chosen = append(chosen, i)
				break
			}
		}
	}
	return chosen
}
