package stats

import (
	"math/rand"
	"testing"
)

func TestCountingSourceCounts(t *testing.T) {
	src := NewCountingSource(42)
	rng := rand.New(src)
	for i := 0; i < 10; i++ {
		rng.Float64()
	}
	if src.Draws() != 10 {
		t.Fatalf("draws = %d want 10", src.Draws())
	}
	rng.Shuffle(100, func(i, j int) {})
	if src.Draws() <= 10 {
		t.Fatalf("shuffle consumed no draws (draws=%d)", src.Draws())
	}
}

// TestCountingSourceSkipRestoresStream is the checkpoint/resume contract:
// skip(n) on a fresh source must land exactly where n mixed draws left off.
func TestCountingSourceSkipRestoresStream(t *testing.T) {
	a := NewCountingSource(7)
	rngA := rand.New(a)
	// A realistic mix of draw kinds a policy makes.
	for i := 0; i < 5; i++ {
		rngA.Float64()
		rngA.Intn(37)
		rngA.Uint64()
	}
	pos := a.Draws()

	b := NewCountingSource(7)
	b.Skip(pos)
	if b.Draws() != pos {
		t.Fatalf("skip position = %d want %d", b.Draws(), pos)
	}
	rngB := rand.New(b)
	for i := 0; i < 20; i++ {
		va, vb := rngA.Float64(), rngB.Float64()
		if va != vb {
			t.Fatalf("draw %d diverged: %v vs %v", i, va, vb)
		}
	}
}

func TestCountingSourceSeedResets(t *testing.T) {
	s := NewCountingSource(1)
	rand.New(s).Float64()
	s.Seed(1)
	if s.Draws() != 0 {
		t.Fatalf("draws after Seed = %d", s.Draws())
	}
}

// TestCountingSourceSkipPastFill: skipping to any position before, at and
// past the Source's register fill and its first wrap lands where
// rand.NewSource's stream is after as many draws, bit for bit.
func TestCountingSourceSkipPastFill(t *testing.T) {
	for _, pos := range []uint64{0, 1, lazyDraws - 1, lazyDraws, lazyDraws + 1, 300, rngLen - 1, rngLen, rngLen + 1, 1300} {
		ref := rand.NewSource(11).(rand.Source64)
		for i := uint64(0); i < pos; i++ {
			ref.Uint64()
		}
		s := NewCountingSource(11)
		s.Skip(pos)
		for k := 0; k < rngLen+lazyDraws; k++ {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("skipped %d, draw %d: %#x, math/rand %#x", pos, k, a, b)
			}
		}
	}
}
