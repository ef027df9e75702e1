package capacity

import (
	"errors"
	"fmt"
)

// Dist is an empirical service-time distribution in compressed form: each
// distinct value carries a weight (its observation count). Large fleets
// produce millions of per-visit transmission times but only a bounded set of
// distinct values (one per page/pipeline/radio-start-state template), so a
// weighted distribution keeps the capacity model's memory independent of the
// fleet size where a raw sample slice would grow with it.
type Dist struct {
	values []float64
	counts []int64
	total  int64
}

// Add records n observations of value v (appending a new slot or widening an
// existing one; lookup is linear, so callers with many distinct values should
// pre-aggregate). n must be positive and v must be a positive, finite
// duration in seconds that fits a time.Duration.
func (d *Dist) Add(v float64, n int64) error {
	if n <= 0 {
		return fmt.Errorf("capacity: non-positive weight %d", n)
	}
	if err := checkServiceTime(v); err != nil {
		return err
	}
	for i, have := range d.values {
		if have == v {
			d.counts[i] += n
			d.total += n
			return nil
		}
	}
	d.values = append(d.values, v)
	d.counts = append(d.counts, n)
	d.total += n
	return nil
}

// N returns the total number of observations.
func (d *Dist) N() int64 { return d.total }

// Sum returns the weighted sum of values (observations × value), accumulated
// in insertion order so it is deterministic for deterministic insertions.
func (d *Dist) Sum() float64 {
	var s float64
	for i, v := range d.values {
		s += v * float64(d.counts[i])
	}
	return s
}

// Mean returns the weighted mean (0 for an empty distribution).
func (d *Dist) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	return d.Sum() / float64(d.total)
}

var errEmptyDist = errors.New("capacity: empty service-time distribution")

// DropPercentAt returns the dropping probability (percent) for a population
// of the given size. Every user opens sessions as a Poisson process, so the
// pool is an M/G/N/N loss system, and by the Erlang insensitivity property
// its blocking is Erlang B of the distribution's mean alone: the answer is
// exact in expectation at every population, with no sampling noise.
func DropPercentAt(users int, d *Dist, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if users <= 0 {
		return 0, errors.New("capacity: need at least one user")
	}
	if d == nil || d.total == 0 {
		return 0, errEmptyDist
	}
	return cfg.AnalyticDropPercent(users, d.Mean())
}

// SupportedUsersDist returns the largest user population whose dropping
// probability stays at or below maxDropPercent for service times drawn from
// the weighted distribution (0 when a single user already exceeds it).
func SupportedUsersDist(d *Dist, maxDropPercent float64, cfg Config) (int, error) {
	if d == nil || d.total == 0 {
		return 0, errEmptyDist
	}
	return cfg.AnalyticSupportedUsers(d.Mean(), maxDropPercent)
}
