package stats

// CountingSource wraps a Source and counts how many values have been drawn
// from it. The count is the "stream position" a campaign checkpoint
// records: recreating the source from the same seed and calling Skip with
// the recorded count restores the generator to the exact state it had when
// the checkpoint was written, so a resumed run draws the same future values
// as an uninterrupted one.
type CountingSource struct {
	src Source
	n   uint64
}

// NewCountingSource creates a counting source seeded like rand.NewSource.
func NewCountingSource(seed int64) *CountingSource {
	s := new(CountingSource)
	s.src.Seed(seed)
	return s
}

// Int63 implements rand.Source.
func (s *CountingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *CountingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source and resets the draw count.
func (s *CountingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// Draws reports how many values have been drawn since creation or Seed.
func (s *CountingSource) Draws() uint64 { return s.n }

// Skip advances the source by n draws without exposing the values. The
// source advances its state identically for Int63 and Uint64, so skipping
// is equivalent to replaying any mix of draws.
func (s *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.n += n
}
