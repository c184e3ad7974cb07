package stats

import "math/rand"

// Source is math/rand's default generator — the additive lagged Fibonacci
// generator of rand.NewSource — with a constant-time Seed. Every seed and
// every draw count give the bits rand.NewSource gives; only the cost of
// seeding differs.
//
// rand.NewSource's Seed fills a 607-word register with 1,841 steps of the
// Lehmer generator x ↦ 48271·x mod (2³¹−1), about 12 µs, however few values
// are drawn afterwards. Register word i depends only on the seed's Lehmer
// state x0 and the steps 21+3i, 22+3i and 23+3i from it, so Source's Seed
// stores x0 and computes a word the first time a draw reads it, from a
// table of the powers 48271^k. Draw k (1-based) after a seed reads feed
// word 334−k and tap word 607−k, and writes only the feed word; for the
// first 273 draws no word is read twice or read after it was written. So
// the first lazyDraws draws compute their two words on demand, and the
// lazyDraws-th fills the rest of the register in one pass, after which a
// draw is rand.NewSource's own two-index step.
//
// Go 1 compatibility freezes math/rand's seeded streams; the constants
// XORed into each word are derived from rand.NewSource(1) at package
// initialisation rather than copied (see init), and TestSourceMatchesMathRand
// and FuzzSource compare the streams bitwise.
//
// A Source is made by NewSource. Like rand.NewSource's, it is not safe for
// concurrent use.
type Source struct {
	tap, feed int
	lazy      int    // draws left before the register is filled; 0 once it is
	x0        uint64 // the seed's Lehmer state
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lehmerMod = 1<<31 - 1
	lehmerMul = 48271

	// lazyDraws is how many draws after a Seed compute their register
	// words on demand. It must not exceed rngTap, past which a tap read
	// would meet a word an earlier draw wrote. Drawing through a filled
	// register is twice as fast as computing words, so a generator that
	// lives past a few dozen draws fills it early.
	lazyDraws = 64
)

var (
	// wordPow[i] holds 48271^k mod (2³¹−1) for the three Lehmer steps
	// k = 21+3i, 22+3i, 23+3i that make register word i.
	wordPow [rngLen][3]uint64
	// cooked[i] is the constant XORed into register word i (math/rand's
	// rngCooked).
	cooked [rngLen]int64
)

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2], folding the 62-bit
// product at the Mersenne modulus instead of dividing. The result is never
// 0: the modulus is prime.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// seedWords sets register words [lo, hi) to their seeded values.
func (s *Source) seedWords(lo, hi int) {
	x0 := s.x0
	for i := lo; i < hi; i++ {
		p := &wordPow[i]
		s.vec[i] = int64(mulMod(x0, p[0])<<40^mulMod(x0, p[1])<<20^mulMod(x0, p[2])) ^ cooked[i]
	}
}

// init tabulates the Lehmer powers and recovers the cooked constants from
// math/rand itself: the first rngLen draws of rand.NewSource(1) determine
// its initial register, and XORing out seed 1's Lehmer words leaves them.
// Draw k (1-based) adds feed word 334−k to tap word 607−k and stores the
// sum in the feed word. From draw 274 on, the tap word is the feed word of
// draw k−273, already overwritten with that draw's output, so feed word
// 334−k is out_k − out_{k−273}; those draws recover words 0–60 and
// 334–606. Each earlier draw then gives feed word 334−k as out_k minus tap
// word 607−k, which is among those.
func init() {
	x := uint64(1)
	for k := 1; k < 21+3*rngLen; k++ {
		x = mulMod(x, lehmerMul)
		if k >= 21 {
			wordPow[(k-21)/3][(k-21)%3] = x
		}
	}

	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var reg [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		reg[(rngLen-rngTap-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		reg[rngLen-rngTap-k] = out[k] - reg[rngLen-k]
	}
	one := Source{x0: 1}
	one.seedWords(0, rngLen) // cooked is still 0: seed 1's Lehmer words
	for i := range cooked {
		cooked[i] = int64(reg[i]) ^ one.vec[i]
	}
}

// NewSource returns a Source seeded with seed: the stream of
// rand.NewSource(seed), seeded in constant time.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// NewRand returns rand.New(NewSource(seed)): the generator
// rand.New(rand.NewSource(seed)) would be, bit for bit.
func NewRand(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Seed implements rand.Source. It reduces the seed exactly as math/rand
// does and leaves the register to the draws that follow.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.lazy = lazyDraws
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy > 0 {
		return s.lazyStep()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazyStep is one of the first lazyDraws draws after a Seed: neither word
// it reads has been computed yet, so it computes both, and the last such
// draw computes every word the lazy draws have not.
func (s *Source) lazyStep() uint64 {
	s.seedWords(s.feed, s.feed+1)
	s.seedWords(s.tap, s.tap+1)
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	if s.lazy--; s.lazy == 0 {
		// The lazy draws wrote feed words [rngLen-rngTap-lazyDraws,
		// rngLen-rngTap) and computed tap words [rngLen-lazyDraws, rngLen).
		s.seedWords(0, rngLen-rngTap-lazyDraws)
		s.seedWords(rngLen-rngTap, rngLen-lazyDraws)
	}
	return uint64(x)
}
