// Package capacity implements the network-capacity model of Section 5.4: an
// M/G/N/N (Erlang-loss) discrete-event simulation of the backbone's
// dedicated-channel pool. Each browsing user generates data sessions with
// exponentially distributed intervals; a session needs a dedicated channel
// pair for exactly its data-transmission time; when all N pairs are busy the
// session is dropped. Shorter transmissions (the energy-aware pipeline's
// grouped transfers) hold channels for less time, so the same pool supports
// more users at equal dropping probability (Fig. 11).
//
// Simulate, Fig. 11's method, is a Monte-Carlo run. The fleet's
// weighted distributions (Dist) are answered from Erlang B, which
// the loss system's insensitivity makes exact at every population.
package capacity

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"eabrowse/internal/simtime"
)

// Config parameterizes the queueing model (Section 5.4's values).
type Config struct {
	// Channels is N, the number of dedicated channel pairs (paper: 200).
	Channels int
	// MeanSessionInterval is the per-user Poisson inter-session time
	// (paper: λ = 25 s).
	MeanSessionInterval time.Duration
	// Duration is the simulated busy period (paper: 4 hours).
	Duration time.Duration
	// Seed drives the arrival and service sampling.
	Seed int64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Channels:            200,
		MeanSessionInterval: 25 * time.Second,
		Duration:            4 * time.Hour,
		Seed:                42,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return errors.New("capacity: need at least one channel")
	case c.MeanSessionInterval <= 0:
		return errors.New("capacity: session interval must be positive")
	case c.Duration <= 0:
		return errors.New("capacity: duration must be positive")
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Users       int
	Offered     int
	Dropped     int
	MaxBusy     int
	DropPercent float64
}

// Simulate runs the Erlang-loss system with the given number of users, each
// generating sessions whose service times are drawn from the empirical
// serviceTimes distribution (seconds) — in the paper, the measured per-page
// data-transmission times of the pipeline under test.
func Simulate(users int, serviceTimes []float64, cfg Config) (Result, error) {
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

// Sweep runs Simulate for each user count and returns the results in order.
func Sweep(userCounts []int, serviceTimes []float64, cfg Config) ([]Result, error) {
	out := make([]Result, 0, len(userCounts))
	for _, u := range userCounts {
		r, err := Simulate(u, serviceTimes, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// SupportedUsers finds (by bisection) the largest user population whose
// session-dropping probability stays at or below maxDropPercent.
func SupportedUsers(serviceTimes []float64, maxDropPercent float64, cfg Config) (int, error) {
	if maxDropPercent <= 0 || maxDropPercent >= 100 {
		return 0, fmt.Errorf("capacity: drop target %v%% out of (0,100)", maxDropPercent)
	}
	lo := 1
	hi := 1
	// Grow until the target is exceeded.
	for {
		r, err := Simulate(hi, serviceTimes, cfg)
		if err != nil {
			return 0, err
		}
		if r.DropPercent > maxDropPercent {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1<<20 {
			return 0, errors.New("capacity: target never exceeded (degenerate service times)")
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		r, err := Simulate(mid, serviceTimes, cfg)
		if err != nil {
			return 0, err
		}
		if r.DropPercent > maxDropPercent {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, nil
}
