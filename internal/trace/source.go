package trace

// Source is a rand.Source64 whose output is bit-identical to math/rand's
// rngSource (the source rand.NewSource returns) for every seed and every
// draw count, but whose Seed costs O(1) instead of O(607).
//
// rngSource.Seed fills all 607 words of its additive lagged-Fibonacci
// register from the Lehmer stream x[n+1] = A·x[n] mod M (A = 48271,
// M = 2³¹−1): word i is built from stream steps 21+3i, 22+3i and 23+3i,
// XORed with rngCooked[i]. seedrand computes A·x mod M exactly (Schrage's
// method), so step k from the reduced seed x0 is x0·A^k mod M, and any
// word can be computed on its own from a table of the powers A^k. Source's
// Seed therefore stores only x0; each register word is computed the first
// time a draw reads it. A fleet phone draws about 60 values, reading about
// 120 words, instead of paying for all 607 on every reseed.
//
// A Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	x0        uint64 // reduced seed, in [1, M-1]
	// epoch numbers the current seeding: vec[i] holds a live word of this
	// seeding iff stamp[i] == epoch. Seed bumps epoch instead of clearing
	// the stamps; stamps are cleared only when epoch wraps.
	epoch uint32
	stamp [rngLen]uint32
	vec   [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// seedSteps is the number of Lehmer steps rngSource.Seed takes: 20 to
	// warm up, then three per register word.
	seedSteps = 20 + 3*rngLen
)

// lehmerPow[k] = A^k mod M for every step rngSource.Seed reaches.
var lehmerPow = func() (p [seedSteps + 1]uint64) {
	p[0] = 1
	for k := 1; k <= seedSteps; k++ {
		p[k] = p[k-1] * lehmerA % lehmerM
	}
	return p
}()

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in. The
// seed is reduced exactly as rngSource.Seed reduces it.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.epoch++
	if s.epoch == 0 {
		s.stamp = [rngLen]uint32{}
		s.epoch = 1
	}
}

// word returns register word i, computing its seeded value on first read.
func (s *Source) word(i int) int64 {
	if s.stamp[i] != s.epoch {
		s.stamp[i] = s.epoch
		k := 21 + 3*i
		s.vec[i] = int64(s.x0*lehmerPow[k]%lehmerM)<<40 ^
			int64(s.x0*lehmerPow[k+1]%lehmerM)<<20 ^
			int64(s.x0*lehmerPow[k+2]%lehmerM) ^
			rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit value, exactly as rngSource.Uint64 does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, exactly as rngSource.Int63 does.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
