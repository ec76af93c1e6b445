package synth

// Presets mirror the three corpora of the paper's evaluation plus the
// public corpus used by the privacy attacks. Domain/class counts follow
// the paper; a Scale knob in the eval package reduces *sample* counts and
// (for IWildCam) domain counts for CI-speed runs without changing the
// structure of any experiment.

// PACSConfig mirrors PACS: 4 domains (Photo, Art, Cartoon, Sketch),
// 7 classes. Domain styles are hand-set so that the inter-domain style
// distances follow the dataset's folklore ordering: Photo↔Art close,
// Cartoon farther, Sketch farthest (desaturated, high-contrast), which is
// what makes "train on Photo, test on Sketch" the hard direction in
// Tables I and II.
func PACSConfig(seed uint64) Config {
	flat := func(g, b float64) (gain, bias [ImageChannels]float64) {
		for c := 0; c < ImageChannels; c++ {
			gain[c] = g
			bias[c] = b
		}
		return gain, bias
	}
	ident := func() (m [ImageChannels][ImageChannels]float64) {
		for c := 0; c < ImageChannels; c++ {
			m[c][c] = 1
		}
		return m
	}
	gray := func() (m [ImageChannels][ImageChannels]float64) {
		// Sketch collapses channels toward their average: desaturation.
		for c := 0; c < ImageChannels; c++ {
			for c2 := 0; c2 < ImageChannels; c2++ {
				m[c][c2] = 1.0 / ImageChannels
			}
			m[c][c] += 0.15
		}
		return m
	}

	_, _ = flat(1, 0) // keep helper referenced for readability below
	photoGain := [ImageChannels]float64{1.0, 1.0, 1.0}
	photoBias := [ImageChannels]float64{0, 0, 0}
	// Art: warm, saturated — boosts one band, damps another.
	artGain := [ImageChannels]float64{1.9, 0.6, 1.2}
	artBias := [ImageChannels]float64{0.6, -0.4, 0.2}
	// Cartoon: flat-shaded, inverted spectral profile vs Art.
	cartoonGain := [ImageChannels]float64{0.45, 2.3, 0.8}
	cartoonBias := [ImageChannels]float64{-0.7, 0.5, -0.3}
	// Sketch: desaturated (gray mixing) and high-contrast.
	sketchGain := [ImageChannels]float64{2.6, 2.6, 2.6}
	sketchBias := [ImageChannels]float64{-1.2, -1.2, -1.2}

	return Config{
		Name:          "pacs",
		NumClasses:    7,
		NumDomains:    4,
		H:             16,
		W:             16,
		ContentDim:    10,
		ContentScale:  0.7,
		ContentNoise:  0.55,
		PixelNoise:    0.25,
		StyleStrength: 0.6,
		Seed:          seed,
		DomainNames:   []string{"Photo", "Art", "Cartoon", "Sketch"},
		Specs: []DomainSpec{
			{Name: "Photo", Gain: photoGain, Bias: photoBias, Mix: ident(), TexWeight: 0.5},
			{Name: "Art", Gain: artGain, Bias: artBias, Mix: ident(), TexWeight: 1.4},
			{Name: "Cartoon", Gain: cartoonGain, Bias: cartoonBias, Mix: ident(), TexWeight: 2.2},
			{Name: "Sketch", Gain: sketchGain, Bias: sketchBias, Mix: gray(), TexWeight: 3.0},
		},
	}
}

// PACSDomainOrder maps the paper's single-letter domain codes to ids.
var PACSDomainOrder = map[string]int{"P": 0, "A": 1, "C": 2, "S": 3}

// OfficeHomeConfig mirrors Office-Home: 4 domains (Art, Clipart, Product,
// Real-World), 65 classes. Styles are sampled (moderate strength); the
// experiment difficulty comes from the 65-way class space.
func OfficeHomeConfig(seed uint64) Config {
	return Config{
		Name:          "officehome",
		NumClasses:    65,
		NumDomains:    4,
		H:             16,
		W:             16,
		ContentDim:    24,
		ContentScale:  0.8,
		ContentNoise:  0.40,
		PixelNoise:    0.15,
		StyleStrength: 0.6,
		Seed:          seed,
		DomainNames:   []string{"Art", "Clipart", "Product", "RealWorld"},
	}
}

// OfficeHomeDomainOrder maps the paper's letter codes to ids.
var OfficeHomeDomainOrder = map[string]int{"A": 0, "C": 1, "P": 2, "R": 3}

// IWildCamConfig mirrors IWildCam's structure: camera traps as domains
// (243 train + 32 val + 48 test = 323), 182 classes, long-tailed species
// distribution with each camera seeing a small class subset. numDomains
// and numClasses are parameters so reduced-scale runs keep the structure.
func IWildCamConfig(seed uint64, numDomains, numClasses, classesPerDomain int) Config {
	return Config{
		Name:             "iwildcam",
		NumClasses:       numClasses,
		NumDomains:       numDomains,
		H:                16,
		W:                16,
		ContentDim:       24,
		ContentScale:     1.0,
		ContentNoise:     0.25,
		PixelNoise:       0.12,
		StyleStrength:    0.8, // camera traps differ wildly (day/night, vegetation)
		Seed:             seed,
		ClassesPerDomain: classesPerDomain,
	}
}

// IWildCamSplit partitions domain ids into train/val/test blocks with the
// same proportions as the paper (243/32/48 at paper scale).
func IWildCamSplit(numDomains int) (train, val, test []int) {
	nTrain := numDomains * 243 / 323
	nVal := numDomains * 32 / 323
	if nTrain < 1 {
		nTrain = 1
	}
	if nVal < 1 {
		nVal = 1
	}
	if nTrain+nVal >= numDomains {
		nVal = 1
		nTrain = numDomains - 2
		if nTrain < 1 {
			nTrain = 1
		}
	}
	for d := 0; d < numDomains; d++ {
		switch {
		case d < nTrain:
			train = append(train, d)
		case d < nTrain+nVal:
			val = append(val, d)
		default:
			test = append(test, d)
		}
	}
	return train, val, test
}

// PublicCorpusConfig is the Tiny-ImageNet stand-in: a disjoint corpus
// (different seed, different class space) available to attackers for
// training style-inversion decoders (Table IV attack (i), Fig. 6).
func PublicCorpusConfig(seed uint64) Config {
	return Config{
		Name:          "public",
		NumClasses:    40,
		NumDomains:    8,
		H:             16,
		W:             16,
		ContentDim:    24,
		ContentScale:  1.0,
		ContentNoise:  0.30,
		PixelNoise:    0.10,
		StyleStrength: 0.7,
		Seed:          seed,
	}
}
