package stats

import "testing"

var benchSink uint64

// BenchmarkSeededRand times a pooled generator's use: seeded for two
// normal draws (a synthetic job's noise), and seeded for 607 draws (a
// whole register's worth).
func BenchmarkSeededRand(b *testing.B) {
	b.Run("seed+2normals", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			r := SeededRand(int64(i))
			s += r.NormFloat64() + r.NormFloat64()
			PutRand(r)
		}
		benchSink = uint64(s)
	})
	b.Run("seed+607draws", func(b *testing.B) {
		b.ReportAllocs()
		var s uint64
		for i := 0; i < b.N; i++ {
			r := SeededRand(int64(i))
			for k := 0; k < 607; k++ {
				s += r.Uint64()
			}
			PutRand(r)
		}
		benchSink = s
	})
}
