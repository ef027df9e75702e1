package capacity

import (
	"errors"
	"fmt"
	"math"
)

// ErlangB returns the analytic blocking probability of an M/G/N/N loss
// system carrying offered traffic of `erlangs` over n servers, using the
// numerically stable recursive form:
//
//	B(0, A) = 1
//	B(k, A) = A·B(k-1, A) / (k + A·B(k-1, A))
//
// By the Erlang insensitivity property the result depends on the service
// distribution only through its mean, which is what lets this closed form
// validate the discrete-event simulation in Simulate.
func ErlangB(n int, erlangs float64) (float64, error) {
	if n <= 0 {
		return 0, errors.New("capacity: ErlangB needs at least one server")
	}
	if erlangs < 0 {
		return 0, fmt.Errorf("capacity: negative offered load %v", erlangs)
	}
	if erlangs == 0 {
		return 0, nil
	}
	b := 1.0
	for k := 1; k <= n; k++ {
		b = erlangs * b / (float64(k) + erlangs*b)
	}
	return b, nil
}

// OfferedErlangs converts a user population into offered load: each user
// generates one session per MeanSessionInterval holding a channel for
// meanServiceS seconds.
func (c Config) OfferedErlangs(users int, meanServiceS float64) float64 {
	if users <= 0 || meanServiceS <= 0 {
		return 0
	}
	return float64(users) * meanServiceS / c.MeanSessionInterval.Seconds()
}

// AnalyticDropPercent predicts the session-dropping percentage for a user
// population with the given mean service time, via Erlang B.
func (c Config) AnalyticDropPercent(users int, meanServiceS float64) (float64, error) {
	b, err := ErlangB(c.Channels, c.OfferedErlangs(users, meanServiceS))
	if err != nil {
		return 0, err
	}
	return b * 100, nil
}

// AnalyticSupportedUsers inverts AnalyticDropPercent by bisection: the
// largest population whose analytic blocking stays at or below
// maxDropPercent, or 0 when a single user already exceeds it. Erlang B is
// monotone in offered load, so the bisection lands on the exact boundary.
func (c Config) AnalyticSupportedUsers(meanServiceS float64, maxDropPercent float64) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if meanServiceS <= 0 {
		return 0, errors.New("capacity: non-positive service time")
	}
	if maxDropPercent <= 0 || maxDropPercent >= 100 {
		return 0, fmt.Errorf("capacity: drop target %v%% out of (0,100)", maxDropPercent)
	}
	lo, hi := 0, 1
	for {
		drop, err := c.AnalyticDropPercent(hi, meanServiceS)
		if err != nil {
			return 0, err
		}
		if drop > maxDropPercent {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1<<24 {
			return 0, errors.New("capacity: blocking target never exceeded")
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		drop, err := c.AnalyticDropPercent(mid, meanServiceS)
		if err != nil {
			return 0, err
		}
		if drop > maxDropPercent {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, nil
}

// ValidateAgainstAnalytic runs the simulation and compares its dropping
// probability with Erlang B, returning both and their absolute difference in
// percentage points. Used by tests and by operators sanity-checking a
// configuration.
func ValidateAgainstAnalytic(users int, serviceTimes []float64, cfg Config) (simPct, analyticPct, diff float64, err error) {
	res, err := Simulate(users, serviceTimes, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	mean := 0.0
	for _, s := range serviceTimes {
		mean += s
	}
	mean /= float64(len(serviceTimes))
	analytic, err := cfg.AnalyticDropPercent(users, mean)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.DropPercent, analytic, math.Abs(res.DropPercent - analytic), nil
}
