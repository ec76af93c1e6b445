package dataset_test

import (
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

func mk(n, classes int, domain int) *dataset.Dataset {
	ds := &dataset.Dataset{NumClasses: classes}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{
			X:      tensor.Full(float64(i), 2),
			Y:      i % classes,
			Domain: domain,
		})
	}
	return ds
}

func TestMerge(t *testing.T) {
	a, b := mk(3, 4, 0), mk(5, 4, 1)
	m, err := dataset.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 8 {
		t.Fatalf("len = %d", m.Len())
	}
	bad := mk(2, 7, 0)
	if _, err := dataset.Merge(a, bad); err == nil {
		t.Fatal("class-space mismatch should error")
	}
	if _, err := dataset.Merge(); err == nil {
		t.Fatal("empty merge should error")
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	ds := mk(20, 3, 0)
	before := map[float64]int{}
	for _, s := range ds.Samples {
		before[s.X.Data()[0]]++
	}
	ds.Shuffle(rand.New(rand.NewSource(1)))
	after := map[float64]int{}
	for _, s := range ds.Samples {
		after[s.X.Data()[0]]++
	}
	if len(before) != len(after) {
		t.Fatal("shuffle changed contents")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("shuffle changed contents")
		}
	}
}

func TestLODOSplits(t *testing.T) {
	splits, err := dataset.LODOSplits(4, []string{"P", "A", "C", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("%d splits", len(splits))
	}
	for i, sp := range splits {
		if len(sp.Train) != 3 || len(sp.Val) != 1 || len(sp.Test) != 1 {
			t.Fatalf("split %d sizes wrong: %+v", i, sp)
		}
		if sp.Val[0] != i || sp.Test[0] != i {
			t.Fatalf("split %d holds out %d/%d, want %d", i, sp.Val[0], sp.Test[0], i)
		}
		for _, d := range sp.Train {
			if d == i {
				t.Fatalf("split %d trains on its held-out domain", i)
			}
		}
	}
	if _, err := dataset.LODOSplits(1, nil); err == nil {
		t.Fatal("LODO with 1 domain should error")
	}
}

func TestLTDOSplits(t *testing.T) {
	splits, err := dataset.LTDOSplits(4, []string{"P", "A", "C", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("%d splits", len(splits))
	}
	valSeen := map[int]bool{}
	testSeen := map[int]bool{}
	for _, sp := range splits {
		if len(sp.Train) != 2 || len(sp.Val) != 1 || len(sp.Test) != 1 {
			t.Fatalf("sizes wrong: %+v", sp)
		}
		// Paper pairing: test = val − 1 (mod 4).
		if sp.Test[0] != (sp.Val[0]+3)%4 {
			t.Fatalf("pairing val=%d test=%d", sp.Val[0], sp.Test[0])
		}
		valSeen[sp.Val[0]] = true
		testSeen[sp.Test[0]] = true
		// Train, val, test disjoint.
		held := map[int]bool{sp.Val[0]: true, sp.Test[0]: true}
		for _, d := range sp.Train {
			if held[d] {
				t.Fatalf("train overlaps holdout: %+v", sp)
			}
		}
	}
	if len(valSeen) != 4 || len(testSeen) != 4 {
		t.Fatal("every domain should appear once as val and once as test")
	}
	if _, err := dataset.LTDOSplits(2, nil); err == nil {
		t.Fatal("LTDO with 2 domains should error")
	}
}
