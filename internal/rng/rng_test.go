package rng_test

import (
	"testing"

	"github.com/pardon-feddg/pardon/internal/rng"
)

func TestStreamDeterministic(t *testing.T) {
	a := rng.New(42).Stream("alpha").Float64()
	b := rng.New(42).Stream("alpha").Float64()
	if a != b {
		t.Fatalf("same name gave %g and %g", a, b)
	}
}

func TestStreamsIndependentByName(t *testing.T) {
	src := rng.New(42)
	a := src.Stream("alpha").Float64()
	b := src.Stream("beta").Float64()
	if a == b {
		t.Fatal("distinct names should give distinct streams")
	}
}

func TestStreamsIndependentBySeed(t *testing.T) {
	a := rng.New(1).Stream("x").Float64()
	b := rng.New(2).Stream("x").Float64()
	if a == b {
		t.Fatal("distinct seeds should give distinct streams")
	}
}

func TestSeparatorPreventsConcatCollision(t *testing.T) {
	src := rng.New(7)
	a := src.Stream("ab", "c").Float64()
	b := src.Stream("a", "bc").Float64()
	if a == b {
		t.Fatal(`("ab","c") and ("a","bc") should differ`)
	}
}

func TestStreamIAndII(t *testing.T) {
	src := rng.New(9)
	if src.StreamI("cl", 3).Float64() != src.Stream("cl", "3").Float64() {
		t.Fatal("StreamI should equal Stream with itoa")
	}
	if src.Stream("cl", "3", "4").Float64() == src.Stream("cl", "4", "3").Float64() {
		t.Fatal("Stream keys should be order-sensitive")
	}
}

func TestChildIndependence(t *testing.T) {
	src := rng.New(11)
	child := src.Child("sub")
	if src.Stream("x").Float64() == child.Stream("x").Float64() {
		t.Fatal("child streams must not collide with parent streams")
	}
	// Child derivation is deterministic.
	again := rng.New(11).Child("sub")
	if child.Stream("x").Float64() != again.Stream("x").Float64() {
		t.Fatal("child derivation should be deterministic")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s rng.Source
	_ = s.Stream("ok").Float64() // must not panic
}
