// Package partition implements domain-based client heterogeneity and
// client sampling — the FL-simulation knobs of Bai et al.'s FedDG
// benchmark that the paper adopts (§IV-A).
//
// Heterogeneity level λ interpolates every client's domain mixture between
// a single home domain (λ=0, "domain separation") and the uniform mixture
// over all training domains (λ=1, "homogeneous"):
//
//	w_i = (1−λ)·onehot(home_i) + λ·uniform(M)
//
// matching Definition 4's D_i(x,y) = Σ_d w_{i,d}·S_d(x,y). Client sampling
// selects k of N clients uniformly without replacement each round.
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/pardon-feddg/pardon/internal/dataset"
)

// Options configures PartitionByDomain.
type Options struct {
	// NumClients is the number of participants N.
	NumClients int
	// Lambda is the heterogeneity level λ ∈ [0,1].
	Lambda float64
	// MinPerClient guards against empty clients when data is scarce.
	// Defaults to 2.
	MinPerClient int
}

// PartitionByDomain splits per-domain datasets across clients with
// heterogeneity λ. domainData is indexed by (dense) training-domain
// position, NOT by global domain id — callers select training domains
// first. Every sample is assigned to exactly one client; domain pools are
// consumed without replacement so clients never share samples.
func PartitionByDomain(domainData []*dataset.Dataset, opts Options, r *rand.Rand) ([]*dataset.Dataset, error) {
	m := len(domainData)
	if m == 0 {
		return nil, fmt.Errorf("partition: no domains")
	}
	if opts.NumClients <= 0 {
		return nil, fmt.Errorf("partition: NumClients %d", opts.NumClients)
	}
	if opts.Lambda < 0 || opts.Lambda > 1 {
		return nil, fmt.Errorf("partition: Lambda %g outside [0,1]", opts.Lambda)
	}
	minPer := opts.MinPerClient
	if minPer <= 0 {
		minPer = 2
	}
	numClasses := domainData[0].NumClasses

	// Shuffled index pools per domain; consumed head-first.
	pools := make([][]int, m)
	total := 0
	for d, ds := range domainData {
		if ds.NumClasses != numClasses {
			return nil, fmt.Errorf("partition: domain %d has %d classes, want %d", d, ds.NumClasses, numClasses)
		}
		idx := r.Perm(ds.Len())
		pools[d] = idx
		total += ds.Len()
	}
	if total < opts.NumClients*minPer {
		return nil, fmt.Errorf("partition: %d samples cannot give %d clients at least %d each", total, opts.NumClients, minPer)
	}

	n := opts.NumClients
	quota := total / n

	clients := make([]*dataset.Dataset, n)
	cursors := make([]int, m)
	for i := 0; i < n; i++ {
		home := i % m
		weights := make([]float64, m)
		for d := 0; d < m; d++ {
			w := opts.Lambda / float64(m)
			if d == home {
				w += 1 - opts.Lambda
			}
			weights[d] = w
		}
		// Integer allocation by largest remainder.
		alloc := largestRemainder(weights, quota)
		cd := &dataset.Dataset{NumClasses: numClasses}
		for d := 0; d < m; d++ {
			for take := alloc[d]; take > 0; take-- {
				src := d
				if cursors[src] >= len(pools[src]) {
					// Pool exhausted: spill into the globally
					// least-consumed pool so every client still reaches
					// its quota.
					src = leastConsumed(pools, cursors)
					if src < 0 {
						break
					}
				}
				cd.Samples = append(cd.Samples, domainData[src].Samples[pools[src][cursors[src]]])
				cursors[src]++
			}
		}
		clients[i] = cd
	}
	// Distribute the remainder (total - n*quota) round-robin.
	i := 0
	for d := 0; d < m; d++ {
		for cursors[d] < len(pools[d]) {
			src := domainData[d].Samples[pools[d][cursors[d]]]
			cursors[d]++
			clients[i%n].Samples = append(clients[i%n].Samples, src)
			i++
		}
	}
	for ci, cd := range clients {
		if cd.Len() < minPer {
			return nil, fmt.Errorf("partition: client %d received %d samples (< %d)", ci, cd.Len(), minPer)
		}
		cd.Shuffle(r)
	}
	return clients, nil
}

func largestRemainder(weights []float64, quota int) []int {
	m := len(weights)
	alloc := make([]int, m)
	type rem struct {
		d int
		f float64
	}
	rems := make([]rem, 0, m)
	used := 0
	for d, w := range weights {
		exact := w * float64(quota)
		alloc[d] = int(exact)
		used += alloc[d]
		rems = append(rems, rem{d, exact - float64(alloc[d])})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].f != rems[b].f {
			return rems[a].f > rems[b].f
		}
		return rems[a].d < rems[b].d
	})
	for i := 0; used < quota && i < len(rems); i++ {
		alloc[rems[i].d]++
		used++
	}
	return alloc
}

func leastConsumed(pools [][]int, cursors []int) int {
	best, bi := -1, -1
	for d := range pools {
		left := len(pools[d]) - cursors[d]
		if left > best {
			best, bi = left, d
		}
	}
	if best <= 0 {
		return -1
	}
	return bi
}

// SampleClients selects k of n client ids uniformly without replacement,
// returned sorted for deterministic iteration. k is clamped to [1, n].
func SampleClients(n, k int, r *rand.Rand) []int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	sort.Ints(out)
	return out
}
