// Package rng provides deterministic, splittable pseudo-random streams.
//
// Every stochastic component of the reproduction (dataset synthesis, client
// partitioning, client sampling, weight initialization, batch shuffling)
// draws from a named substream derived from a root seed, so experiments are
// bit-reproducible regardless of goroutine scheduling: two components never
// share a stream, and the order in which components consume randomness
// cannot affect each other.
package rng

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Source is a deterministic root from which named substreams are derived.
// The zero value uses seed 0 and is ready to use.
type Source struct {
	seed uint64
}

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns an independent *rand.Rand keyed by the given name parts.
// The same Source and parts always yield an identical stream.
func (s *Source) Stream(parts ...string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	putUint64(b[:], s.seed)
	_, _ = h.Write(b[:])
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0xff}) // separator so ("ab","c") != ("a","bc")
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// StreamI is Stream with a trailing integer key, a common pattern for
// per-client or per-round streams.
func (s *Source) StreamI(name string, i int) *rand.Rand {
	return s.Stream(name, strconv.Itoa(i))
}

// Child derives a new Source whose streams are independent of the parent's.
func (s *Source) Child(parts ...string) *Source {
	h := fnv.New64a()
	var b [8]byte
	putUint64(b[:], s.seed)
	_, _ = h.Write(b[:])
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0xfe})
	}
	return &Source{seed: h.Sum64()}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
