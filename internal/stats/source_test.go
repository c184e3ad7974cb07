package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sourceSeeds are the seeds the stream tests cover: math/rand's special
// cases (0 and 89482311 share a stream, the modulus 2³¹−1 reduces to 0),
// values around the modulus and the int64 extremes, and 2,000 random
// signed seeds.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, 1<<31 - 2, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 1 << 40, -1 << 62,
		math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(2018))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand: Source's stream equals rand.NewSource's bit
// for bit for every seed, draw count and mix of Int63 and Uint64 calls —
// the first 1,300 draws cross the 64-draw fill and two register wraps —
// and after a re-Seed part-way through a stream.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1300
	for _, seed := range sourceSeeds() {
		ours, ref := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < draws; k++ {
			if k%3 == 1 {
				if a, b := ours.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, a, b)
				}
				continue
			}
			if a, b := ours.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, k, a, b)
			}
		}
	}
	// A stream cut at every draw count up to past the fill, then re-seeded.
	rng := rand.New(rand.NewSource(7))
	for cut := 0; cut <= 2*lazyDraws+2; cut++ {
		seed, reseed := int64(rng.Uint64()), int64(rng.Uint64())
		ours, ref := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < cut; k++ {
			ours.Uint64()
			ref.Uint64()
		}
		ours.Seed(reseed)
		ref.Seed(reseed)
		for k := 0; k < rngLen+lazyDraws; k++ {
			if a, b := ours.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d cut at %d, re-seeded %d, draw %d: %#x, math/rand %#x", seed, cut, reseed, k, a, b)
			}
		}
	}
}

// TestSourceRandMethods: every *rand.Rand method the program draws through
// gives the same values over Source as over rand.NewSource.
func TestSourceRandMethods(t *testing.T) {
	for _, seed := range sourceSeeds()[:200] {
		ours, ref := NewRand(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < 40; k++ {
			if a, b := ours.NormFloat64(), ref.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: NormFloat64 %v, math/rand %v", seed, a, b)
			}
			if a, b := ours.Float64(), ref.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, a, b)
			}
			if a, b := ours.ExpFloat64(), ref.ExpFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: ExpFloat64 %v, math/rand %v", seed, a, b)
			}
			if a, b := ours.Intn(37+k), ref.Intn(37+k); a != b {
				t.Fatalf("seed %d: Intn %d, math/rand %d", seed, a, b)
			}
			if a, b := ours.Int63n(1<<40+int64(k)), ref.Int63n(1<<40+int64(k)); a != b {
				t.Fatalf("seed %d: Int63n %d, math/rand %d", seed, a, b)
			}
		}
		pa, pb := ours.Perm(50), ref.Perm(50)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("seed %d: Perm %v, math/rand %v", seed, pa, pb)
			}
		}
		sa, sb := Shuffle(ours, 300), Shuffle(ref, 300)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("seed %d: Shuffle differs at %d", seed, i)
			}
		}
	}
}

// FuzzSource compares a stream of any length, re-seeded at any point,
// with rand.NewSource's.
func FuzzSource(f *testing.F) {
	f.Add(int64(1), uint16(10), uint16(3), int64(2))
	f.Add(int64(0), uint16(1300), uint16(64), int64(89482311))
	f.Add(int64(math.MinInt64), uint16(700), uint16(65), int64(-1))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16, reseed int64) {
		ours, ref := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < int(draws%4096); k++ {
			if k == int(reseedAt) {
				ours.Seed(reseed)
				ref.Seed(reseed)
			}
			if a, b := ours.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d (re-seeded %d at %d) draw %d: %#x, math/rand %#x", seed, reseed, reseedAt, k, a, b)
			}
		}
	})
}

// TestSeededRandPoolConcurrent: eight goroutines take pooled generators,
// draw streams of lengths up to past the register fill and two wraps, and
// hand them back mid-stream; every stream equals a fresh rand.NewSource's.
func TestSeededRandPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				seed := SplitSeed(int64(100+g), i)
				r, fresh := SeededRand(seed), rand.New(rand.NewSource(seed))
				for k := 0; k < (i*97+g*13)%1300; k++ {
					if a, b := r.Uint64(), fresh.Uint64(); a != b {
						t.Errorf("seed %d draw %d: %#x, fresh source %#x", seed, k, a, b)
						return
					}
				}
				PutRand(r)
			}
		}()
	}
	wg.Wait()
}

// TestSeededRandAllocatesNothing: taking, seeding, drawing from and
// returning a pooled generator allocates nothing.
func TestSeededRandAllocatesNothing(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		r := SeededRand(seed)
		r.NormFloat64()
		r.Float64()
		PutRand(r)
	})
	if allocs != 0 {
		t.Fatalf("SeededRand+PutRand allocated %v times per use", allocs)
	}
}
