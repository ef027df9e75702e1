// Package capacity implements the network-capacity model of Section 5.4: an
// M/G/N/N (Erlang-loss) discrete-event simulation of the backbone's
// dedicated-channel pool. Each browsing user generates data sessions with
// exponentially distributed intervals; a session needs a dedicated channel
// pair for exactly its data-transmission time; when all N pairs are busy the
// session is dropped. Shorter transmissions (the energy-aware pipeline's
// grouped transfers) hold channels for less time, so the same pool supports
// more users at equal dropping probability (Fig. 11).
//
// Simulate, Fig. 11's method, is a Monte-Carlo run on a dedicated
// event loop: two value-typed heaps (pending arrivals, pending releases)
// replace the general simtime queue and allocate nothing per event, with the
// queue's event order and rng draw sequence kept exactly. The fleet's
// weighted distributions (Dist) are answered from Erlang B, which the loss
// system's insensitivity makes exact at every population.
package capacity

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"eabrowse/internal/runner"
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
//
// The run is a discrete-event loop over two min-heaps ordered by (time,
// scheduling sequence): one pending arrival per user, and one release per
// busy channel (so the release heap's size is the busy count). An arrival
// draws its service time, then its user's next arrival; of two events at the
// same instant the one scheduled first runs first. The loop allocates
// nothing per event.
func Simulate(users int, serviceTimes []float64, cfg Config) (Result, error) {
	if err := checkInputs(serviceTimes, cfg); err != nil {
		return Result{}, err
	}
	if users <= 0 {
		return Result{}, errors.New("capacity: need at least one user")
	}
	holds := make([]time.Duration, len(serviceTimes))
	for i, s := range serviceTimes {
		holds[i] = time.Duration(s * float64(time.Second))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	interval := float64(cfg.MeanSessionInterval)

	arrivals := make(eventHeap, users)
	for u := range arrivals {
		arrivals[u] = event{at: after(0, time.Duration(rng.ExpFloat64()*interval)), seq: uint64(u)}
	}
	arrivals.init()
	releases := make(eventHeap, 0, cfg.Channels)
	seq := uint64(users)
	res := Result{Users: users}
	for {
		next := arrivals[0]
		if len(releases) > 0 && releases[0].before(next) {
			if releases[0].at > cfg.Duration {
				break
			}
			releases.pop()
			continue
		}
		if next.at > cfg.Duration {
			break
		}
		now := next.at
		res.Offered++
		if len(releases) >= cfg.Channels {
			res.Dropped++
		} else {
			releases.push(event{at: after(now, holds[rng.Intn(len(holds))]), seq: seq})
			seq++
			if len(releases) > res.MaxBusy {
				res.MaxBusy = len(releases)
			}
		}
		arrivals.fill(0, event{at: after(now, time.Duration(rng.ExpFloat64()*interval)), seq: seq})
		seq++
	}

	if res.Offered > 0 {
		res.DropPercent = float64(res.Dropped) / float64(res.Offered) * 100
	}
	return res, nil
}

// checkInputs validates the configuration and the service times: each must
// be a positive, finite number of seconds that fits a time.Duration.
func checkInputs(serviceTimes []float64, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(serviceTimes) == 0 {
		return errors.New("capacity: empty service-time distribution")
	}
	for _, s := range serviceTimes {
		if err := checkServiceTime(s); err != nil {
			return err
		}
	}
	return nil
}

// checkServiceTime rejects a service time (seconds) that is not positive, is
// not finite, or overflows time.Duration once converted to nanoseconds.
func checkServiceTime(s float64) error {
	switch {
	case math.IsNaN(s) || math.IsInf(s, 0):
		return fmt.Errorf("capacity: non-finite service time %v", s)
	case s <= 0:
		return fmt.Errorf("capacity: non-positive service time %v", s)
	case s*float64(time.Second) >= math.MaxInt64:
		return fmt.Errorf("capacity: service time %v s overflows time.Duration", s)
	}
	return nil
}

// after returns the instant d after now. A negative d (a float conversion
// out of the Duration range) counts as zero, and a sum past the largest
// Duration saturates instead of wrapping into the past.
func after(now, d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	if at := now + d; at >= now {
		return at
	}
	return math.MaxInt64
}

// event is one pending arrival or release. seq is its scheduling order,
// unique within a run, so (at, seq) orders every event strictly.
type event struct {
	at  time.Duration
	seq uint64
}

func (e event) before(o event) bool { return earlier(e, o) == 1 }

// earlier returns 1 if a orders before b and 0 otherwise: the borrow out of
// the 128-bit subtraction (a.at:a.seq) − (b.at:b.seq), exact because times
// are never negative. A sift adds it to a child index, so choosing the
// earlier of two children costs no branch.
func earlier(a, b event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// eventHeap is a binary min-heap of events held by value.
type eventHeap []event

// init orders an arbitrary slice into a heap.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.fill(i, h[i])
	}
}

// fill places e in the subtree rooted at top, overwriting the event there
// (the one just run, or moved). It walks the hole down the path of earlier
// children to a leaf, then sifts e up from there: a new event usually
// belongs near the leaves, so this takes about one comparison per level
// where a plain sift-down takes two.
func (h eventHeap) fill(top int, e event) {
	n := len(h)
	i := top
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += earlier(h[c+1], h[c])
		}
		h[i] = h[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// push adds e, sifting it toward the root.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes the earliest event.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	*h = q[:n]
	if n > 0 {
		q[:n].fill(0, q[n])
	}
}

// Sweep runs Simulate for each user count and returns the results in order.
// The points are independent runs of the same seed, so they run on the
// runner pool and land by index: the output is the same at any worker count.
func Sweep(userCounts []int, serviceTimes []float64, cfg Config) ([]Result, error) {
	if err := checkInputs(serviceTimes, cfg); err != nil {
		return nil, err
	}
	return runner.Collect(len(userCounts), func(i int) (Result, error) {
		return Simulate(userCounts[i], serviceTimes, cfg)
	})
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
