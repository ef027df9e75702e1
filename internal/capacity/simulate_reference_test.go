package capacity

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"eabrowse/internal/simtime"
)

// simulateReference is the closure-per-event implementation of Simulate on
// the simtime.Clock: every arrival schedules its session's release and its
// user's next arrival as callbacks. Simulate must reproduce it exactly — the
// same rng draws in the same order, and the clock's (time, sequence) order
// between a release and an arrival at the same instant — so it is the
// oracle for the specialized two-heap loop.
func simulateReference(users int, serviceTimes []float64, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if users <= 0 {
		return Result{}, errors.New("capacity: need at least one user")
	}
	if len(serviceTimes) == 0 {
		return Result{}, errors.New("capacity: empty service-time distribution")
	}
	for _, s := range serviceTimes {
		if s <= 0 {
			return Result{}, fmt.Errorf("capacity: non-positive service time %v", s)
		}
	}

	clock := simtime.NewClock()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Users: users}
	busy := 0

	sample := func() time.Duration {
		return time.Duration(serviceTimes[rng.Intn(len(serviceTimes))] * float64(time.Second))
	}
	nextArrival := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(cfg.MeanSessionInterval))
	}

	var arrive func()
	arrive = func() {
		res.Offered++
		if busy >= cfg.Channels {
			res.Dropped++
		} else {
			busy++
			if busy > res.MaxBusy {
				res.MaxBusy = busy
			}
			clock.After(sample(), func() { busy-- })
		}
		clock.After(nextArrival(), arrive)
	}
	for u := 0; u < users; u++ {
		clock.After(nextArrival(), arrive)
	}
	clock.RunUntil(cfg.Duration)

	if res.Offered > 0 {
		res.DropPercent = float64(res.Dropped) / float64(res.Offered) * 100
	}
	return res, nil
}

// randomCase draws a population of 1–800 users on 1–250 channels with one
// to eight service times. Most cases use second-scale sessions loaded from
// light to about 1.5× the pool; one in four shrinks the session interval
// and service times to a few nanoseconds, where truncation puts many
// arrivals and releases on the same instant, and one in four makes every
// service time equal. The run length keeps each case under about 12k arrivals.
func randomCase(rng *rand.Rand) (int, []float64, Config) {
	users := 1 + rng.Intn(800)
	cfg := Config{Channels: 1 + rng.Intn(250), Seed: rng.Int63()}
	service := make([]float64, 1+rng.Intn(8))
	if rng.Intn(4) == 0 {
		cfg.MeanSessionInterval = time.Duration(1 + rng.Intn(4))
		for i := range service {
			service[i] = float64(1+rng.Intn(4)) * 1e-9
		}
	} else {
		cfg.MeanSessionInterval = time.Duration(1+rng.Intn(60)) * time.Second
		scale := cfg.MeanSessionInterval.Seconds() * float64(cfg.Channels) / float64(users) * 3
		for i := range service {
			service[i] = scale * (0.01 + rng.Float64())
		}
	}
	if rng.Intn(4) == 0 {
		for i := range service {
			service[i] = service[0]
		}
	}
	cfg.Duration = cfg.MeanSessionInterval * time.Duration(1+rng.Intn(1+12_000/users))
	return users, service, cfg
}

// TestSimulateMatchesReference: Simulate equals the simtime implementation
// struct for struct over random populations, pools, run lengths, seeds and
// service-time sets, tie-heavy ones included.
func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		users, service, cfg := randomCase(rng)
		want, err := simulateReference(users, service, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(users, service, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("case %d: Simulate(%d, %v, %+v)\n got %+v\nwant %+v", i, users, service, cfg, got, want)
		}
	}
}

// TestSimulateAllocsConstant: Simulate's allocations are its set-up (rng,
// heaps, service durations) and do not grow with the population.
func TestSimulateAllocsConstant(t *testing.T) {
	cfg := fastConfig()
	service := []float64{2.5, 8, 14, 30}
	allocs := func(users int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(users, service, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(7), allocs(700)
	if many != few || many > 8 {
		t.Fatalf("Simulate allocates %v at 7 users and %v at 700, want the same small constant", few, many)
	}
}

// BenchmarkSimulateReference is BenchmarkSimulate's workload on the simtime
// implementation, so the before/after per-arrival cost is measured on the
// same machine in the same run.
func BenchmarkSimulateReference(b *testing.B) {
	benchmarkSimulate(b, simulateReference)
}
