// Package dataset defines the sample/dataset abstractions shared by the
// whole reproduction: labeled tensors tagged with their source domain,
// shuffling, merging, and the domain-split schemes (Leave-One-Domain-Out,
// Leave-Two-Domains-Out) the paper evaluates under.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// ErrEmpty is returned for operations that need a non-empty dataset.
var ErrEmpty = errors.New("dataset: empty")

// Sample is one labeled example. Domain records the generating domain, used
// only by evaluation and partitioning code — no training algorithm may read
// it (clients do not know their domain composition in the threat model).
type Sample struct {
	X      *tensor.Tensor
	Y      int
	Domain int
}

// Dataset is an ordered collection of samples with shared class space.
type Dataset struct {
	Samples    []Sample
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Shuffle permutes the samples in place using r.
func (d *Dataset) Shuffle(r *rand.Rand) {
	r.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// Merge concatenates datasets that share a class space.
func Merge(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, ErrEmpty
	}
	out := &Dataset{NumClasses: parts[0].NumClasses}
	n := 0
	for _, p := range parts {
		n += len(p.Samples)
	}
	out.Samples = make([]Sample, 0, n)
	for i, p := range parts {
		if p.NumClasses != out.NumClasses {
			return nil, fmt.Errorf("dataset: merge part %d has %d classes, want %d", i, p.NumClasses, out.NumClasses)
		}
		out.Samples = append(out.Samples, p.Samples...)
	}
	return out, nil
}

// Split describes an evaluation scheme over a multi-domain corpus: which
// domains train, which validate, which test. Mirrors the paper's LODO and
// LTDO schemes.
type Split struct {
	Name    string
	Train   []int
	Val     []int
	Test    []int
	Comment string
}

// LODOSplits enumerates Leave-One-Domain-Out schemes over M domains: each
// scheme holds one domain out (used both as val and test targets in the
// paper's Table II) and trains on the rest.
func LODOSplits(numDomains int, names []string) ([]Split, error) {
	if numDomains < 2 {
		return nil, fmt.Errorf("dataset: LODO needs ≥2 domains, got %d", numDomains)
	}
	out := make([]Split, 0, numDomains)
	for hold := 0; hold < numDomains; hold++ {
		sp := Split{Val: []int{hold}, Test: []int{hold}}
		for d := 0; d < numDomains; d++ {
			if d != hold {
				sp.Train = append(sp.Train, d)
			}
		}
		sp.Name = fmt.Sprintf("LODO-%s", domainName(names, hold))
		out = append(out, sp)
	}
	return out, nil
}

// LTDOSplits enumerates Leave-Two-Domains-Out schemes: two domains train,
// one validates, one tests, rotating so every domain appears once as val
// and once as test — the scheme of the paper's Table I, which reports a
// column per held-out domain. The val→test pairing follows the paper's
// Table I header (val A tests P, val P tests S, val C tests A, val S
// tests C for PACS order P,A,C,S), i.e. test = val−1 (mod M).
func LTDOSplits(numDomains int, names []string) ([]Split, error) {
	if numDomains < 3 {
		return nil, fmt.Errorf("dataset: LTDO needs ≥3 domains, got %d", numDomains)
	}
	out := make([]Split, 0, numDomains)
	for i := 0; i < numDomains; i++ {
		val := i
		test := (i + numDomains - 1) % numDomains
		sp := Split{Val: []int{val}, Test: []int{test}}
		for d := 0; d < numDomains; d++ {
			if d != val && d != test {
				sp.Train = append(sp.Train, d)
			}
		}
		sp.Name = fmt.Sprintf("LTDO-val-%s-test-%s", domainName(names, val), domainName(names, test))
		out = append(out, sp)
	}
	return out, nil
}

func domainName(names []string, d int) string {
	if d < len(names) {
		return names[d]
	}
	return fmt.Sprintf("D%d", d)
}
