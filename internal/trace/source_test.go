package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sourceEdgeSeeds are the seeds where rngSource.Seed's reduction branches:
// zero (replaced by 89482311), the modulus and its multiples (reduced to
// zero), negatives (shifted up by the modulus) and the int64 extremes.
var sourceEdgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	lehmerM, -lehmerM, lehmerM - 1, -(lehmerM - 1), lehmerM + 1,
	2 * lehmerM, -2 * lehmerM, 12345 * lehmerM, -98765 * lehmerM,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	math.MaxInt64 / lehmerM * lehmerM, math.MinInt64 / lehmerM * lehmerM,
}

// drawMixed makes one draw of the kind op selects from r and returns it as
// a comparable value. The kinds cover every rand.Rand method the trace
// code uses plus the ones that read the source differently (Uint64 uses
// the Source64 path, Int63n and Int31n reject, Perm and NormFloat64 make a
// variable number of reads).
func drawMixed(r *rand.Rand, op, arg int) any {
	switch op {
	case 0:
		return r.Intn(1 + arg)
	case 1:
		return r.Int31n(int32(1 + arg))
	case 2:
		return r.Int63n(1<<62 + int64(arg))
	case 3:
		return r.Float64()
	case 4:
		return r.NormFloat64()
	case 5:
		return r.ExpFloat64()
	case 6:
		p := r.Perm(arg % 24)
		var h int64
		for _, v := range p {
			h = h*31 + int64(v)
		}
		return h
	case 7:
		return r.Int63()
	default:
		return r.Uint64()
	}
}

// checkSourceSeed draws n mixed values from lazy, reseeded to seed, and
// from a fresh math/rand source with the same seed, and fails on the first
// difference. ops drives the sequence of draw kinds and arguments.
func checkSourceSeed(t *testing.T, lazy *rand.Rand, seed int64, n int, ops *rand.Rand) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	lazy.Seed(seed)
	for i := 0; i < n; i++ {
		op, arg := ops.Intn(9), ops.Intn(1<<20)
		if g, w := drawMixed(lazy, op, arg), drawMixed(want, op, arg); g != w {
			t.Fatalf("seed %d, draw %d (op %d, arg %d): lazy source gave %v, math/rand gave %v",
				seed, i, op, arg, g, w)
		}
	}
}

// TestSourceMatchesMathRand is the differential property: one Source,
// reseeded for every seed, must reproduce math/rand's output draw for draw
// at the edge seeds and at 500 random ones, across draw counts that stop
// well short of and run well past the register's 607-word wrap.
func TestSourceMatchesMathRand(t *testing.T) {
	ops := rand.New(rand.NewSource(20130709))
	lazy := rand.New(NewSource(1))
	for _, seed := range sourceEdgeSeeds {
		checkSourceSeed(t, lazy, seed, 1+ops.Intn(5000), ops)
	}
	for i := 0; i < 500; i++ {
		seed := ops.Int63()
		if ops.Intn(2) == 0 {
			seed = -seed
		}
		checkSourceSeed(t, lazy, seed, 1+ops.Intn(5000), ops)
	}
}

// checkSourceRaw reseeds src and compares its next n raw values with a
// fresh math/rand source's, so the test knows exactly which register words
// the draws read: draw j reads words 333-j and 606-j (mod 607).
func checkSourceRaw(t *testing.T, src *Source, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	src.Seed(seed)
	for i := 0; i < n; i++ {
		if g, w := src.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d, draw %d: lazy source gave %#x, math/rand gave %#x", seed, i, g, w)
		}
	}
}

// TestSourceEpochWrap forces the generation stamp through its wrap: words
// stamped in an early seeding, and words never stamped at all, must not be
// mistaken for live words of the seeding after the wrap.
func TestSourceEpochWrap(t *testing.T) {
	src := new(Source)
	// Epoch 1: 200 draws stamp 400 words with 1 and leave 207 at 0.
	checkSourceRaw(t, src, 42, 200)
	src.epoch = math.MaxUint32 - 1
	// Epoch MaxUint32: 5 draws restamp 10 of the 400.
	checkSourceRaw(t, src, 43, 5)
	// The wrap: 1000 draws read every word, so each one still stamped 0 or
	// 1 from before must be recomputed, not reused.
	checkSourceRaw(t, src, 44, 1000)
	checkSourceRaw(t, src, 45, 100)
	if src.epoch != 2 {
		t.Fatalf("epoch = %d after three reseeds from MaxUint32-1, want 2 (wrapped past 0)", src.epoch)
	}
}
