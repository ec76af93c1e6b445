package partition_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/partition"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func domains(sizes ...int) []*dataset.Dataset {
	out := make([]*dataset.Dataset, len(sizes))
	id := 0
	for d, n := range sizes {
		ds := &dataset.Dataset{NumClasses: 5}
		for i := 0; i < n; i++ {
			ds.Samples = append(ds.Samples, dataset.Sample{
				X: tensor.Full(float64(id), 1), Y: i % 5, Domain: d,
			})
			id++
		}
		out[d] = ds
	}
	return out
}

func TestEverySampleAssignedOnce(t *testing.T) {
	doms := domains(40, 60, 20)
	clients, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 10, Lambda: 0.3}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]int{}
	total := 0
	for _, c := range clients {
		for _, s := range c.Samples {
			seen[s.X.Data()[0]]++
			total++
		}
	}
	if total != 120 {
		t.Fatalf("assigned %d of 120", total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("sample %g assigned %d times", id, n)
		}
	}
}

func TestLambdaZeroSingleDomainClients(t *testing.T) {
	doms := domains(50, 50)
	clients, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 10, Lambda: 0}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		home := c.Samples[0].Domain
		for _, s := range c.Samples {
			if s.Domain != home {
				t.Fatalf("client %d mixes domains at λ=0", i)
			}
		}
	}
}

func TestLambdaOneMixesDomains(t *testing.T) {
	doms := domains(100, 100)
	clients, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 5, Lambda: 1}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		perDomain := map[int]int{}
		for _, s := range c.Samples {
			perDomain[s.Domain]++
		}
		if len(perDomain) != 2 {
			t.Fatalf("client %d sees %d domains at λ=1", i, len(perDomain))
		}
		// Roughly balanced (within 3:1).
		if perDomain[0] > 3*perDomain[1] || perDomain[1] > 3*perDomain[0] {
			t.Fatalf("client %d imbalanced at λ=1: %v", i, perDomain)
		}
	}
}

func TestQuotaRoughlyBalanced(t *testing.T) {
	doms := domains(70, 50)
	clients, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 8, Lambda: 0.1}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if c.Len() < 10 || c.Len() > 20 {
			t.Fatalf("client %d has %d samples (quota 15)", i, c.Len())
		}
	}
}

func TestErrors(t *testing.T) {
	doms := domains(10)
	r := rand.New(rand.NewSource(1))
	if _, err := partition.PartitionByDomain(nil, partition.Options{NumClients: 2}, r); err == nil {
		t.Fatal("no domains should error")
	}
	if _, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 0}, r); err == nil {
		t.Fatal("zero clients should error")
	}
	if _, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 2, Lambda: 1.5}, r); err == nil {
		t.Fatal("λ>1 should error")
	}
	if _, err := partition.PartitionByDomain(doms, partition.Options{NumClients: 50}, r); err == nil {
		t.Fatal("too many clients for the data should error")
	}
	mixed := domains(10, 10)
	mixed[1].NumClasses = 9
	if _, err := partition.PartitionByDomain(mixed, partition.Options{NumClients: 2}, r); err == nil {
		t.Fatal("class-space mismatch should error")
	}
}

func TestSampleClients(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ids := partition.SampleClients(10, 4, r)
	if len(ids) != 4 {
		t.Fatalf("sampled %d", len(ids))
	}
	seen := map[int]bool{}
	for i, id := range ids {
		if id < 0 || id >= 10 {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatal("sampled with replacement")
		}
		seen[id] = true
		if i > 0 && ids[i-1] > id {
			t.Fatal("not sorted")
		}
	}
	if got := partition.SampleClients(3, 99, r); len(got) != 3 {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
	if got := partition.SampleClients(3, 0, r); len(got) != 1 {
		t.Fatalf("k<1 should clamp to 1, got %d", len(got))
	}
}

// Property: for any λ and client count that fits, partitioning assigns
// every sample exactly once and every client meets the minimum.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64, lamRaw uint8, nRaw uint8) bool {
		lambda := float64(lamRaw%11) / 10
		n := int(nRaw)%8 + 2
		doms := domains(30, 45, 25)
		clients, err := partition.PartitionByDomain(doms, partition.Options{NumClients: n, Lambda: lambda}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		total := 0
		for _, c := range clients {
			if c.Len() < 2 {
				return false
			}
			total += c.Len()
		}
		return total == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
