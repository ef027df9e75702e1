package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestUserVisitsRandMatchesUserVisits pins the rng-reuse fast path: one
// reseeded rand.Rand walked across many users must reproduce exactly the
// visit sequences that per-user freshly constructed rngs produce.
func TestUserVisitsRandMatchesUserVisits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 10
	cfg.HoursPerUser = 0.5
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1)) // state is overwritten by each Seed
	var reused []Visit
	for u := 0; u < cfg.Users; u++ {
		fresh := s.UserVisits(u, nil)
		reused = s.UserVisitsRand(rng, u, reused[:0])
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("user %d: reused-rng visits diverge from fresh-rng visits", u)
		}
		if len(fresh) == 0 {
			t.Fatalf("user %d: empty visit sequence", u)
		}
	}
}

// BenchmarkUserVisits times one phone's visit stream on the fleet-1m stream
// config (a quarter hour per phone), reseeding one caller-owned rng per
// phone as the fleet's shard loop does. mathrand reseeds math/rand's own
// source, which fills its whole 607-word register on every Seed; lazy
// reseeds a Source, which computes only the words the phone's draws read.
func BenchmarkUserVisits(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Users = 1_000_000
	cfg.HoursPerUser = 0.25
	cfg.Seed = 1
	s, err := NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{
		{"mathrand", rand.NewSource(1)},
		{"lazy", NewSource(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(bc.src)
			var buf []Visit
			visits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.UserVisitsRand(rng, i%cfg.Users, buf[:0])
				visits += len(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/user")
			b.ReportMetric(float64(visits)/float64(b.N), "visits/user")
		})
	}
}
