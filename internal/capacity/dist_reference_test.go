package capacity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"eabrowse/internal/simtime"
)

// simulateDistReference is the event-by-event Monte-Carlo of the loss
// system over a weighted distribution, on the simtime.Clock: each user's
// sessions arrive as a Poisson process, an accepted session holds a channel
// for a service time drawn in proportion to the distribution's counts, and
// an arrival finding every channel busy is dropped. DropPercentAt answers
// the same question analytically; this is the statistical oracle it is
// checked against.
//
// The run starts with every channel free, while Erlang B is the stationary
// blocking. Arrivals during the first warmup of simulated time are played
// but not counted, and cfg.Duration of counted time follows; without the
// warm-up the empty start biases the estimate low by about the mean service
// time over the run length, which at tight tolerances exceeds the noise.
func simulateDistReference(users int, d *Dist, cfg Config, warmup time.Duration) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	clock := simtime.NewClock()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Users: users}
	busy := 0

	cum := make([]int64, len(d.counts))
	var run int64
	for i, c := range d.counts {
		run += c
		cum[i] = run
	}
	draw := func() time.Duration {
		target := rng.Int63n(run)
		i := 0
		for cum[i] <= target {
			i++
		}
		return time.Duration(d.values[i] * float64(time.Second))
	}
	nextArrival := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(cfg.MeanSessionInterval))
	}

	var arrive func()
	arrive = func() {
		counted := clock.Now() >= warmup
		if counted {
			res.Offered++
		}
		if busy >= cfg.Channels {
			if counted {
				res.Dropped++
			}
		} else {
			busy++
			clock.After(draw(), func() { busy-- })
		}
		clock.After(nextArrival(), arrive)
	}
	for u := 0; u < users; u++ {
		clock.After(nextArrival(), arrive)
	}
	clock.RunUntil(warmup + cfg.Duration)

	if res.Offered > 0 {
		res.DropPercent = float64(res.Dropped) / float64(res.Offered) * 100
	}
	return res, nil
}

// spreadDist is a six-valued service-time distribution (mean ≈ 8.4 s).
func spreadDist(t *testing.T) *Dist {
	t.Helper()
	d := &Dist{}
	for i, v := range []float64{0.4, 1.2, 2.8, 5.5, 9.1, 14.7} {
		if err := d.Add(v, int64(3+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// oracleWarmup is eight times the longest service time of spreadDist: ample
// for the loss system to forget its empty start.
const oracleWarmup = 2 * time.Minute

// checkOracle runs the reference Monte-Carlo once for each of eight seeds
// and asserts DropPercentAt lies within 4 standard errors of their mean.
// Blocking events within one run are correlated (they cluster in busy
// periods), so one run's binomial interval understates the noise;
// independent seeds do not.
func checkOracle(t *testing.T, users int, d *Dist, cfg Config) {
	t.Helper()
	want, err := DropPercentAt(users, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 8
	var xs [seeds]float64
	var mean float64
	for i := range xs {
		cfg.Seed = int64(1000 + i)
		r, err := simulateDistReference(users, d, cfg, oracleWarmup)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = r.DropPercent
		mean += r.DropPercent / seeds
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	se := math.Sqrt(ss / (seeds - 1) / seeds)
	t.Logf("users %d: Erlang B %.4f%%, Monte-Carlo %.4f%% ± %.4f (SE, %d seeds)",
		users, want, mean, se, seeds)
	if math.Abs(mean-want) > 4*se {
		t.Fatalf("users %d: Erlang B %.4f%% outside 4 SE of Monte-Carlo %.4f%% ± %.4f",
			users, want, mean, se)
	}
}

// TestDropPercentAt checks the analytic answer against the Monte-Carlo at
// populations spanning the knee of the blocking curve (≈0.5%, 2% and 10%
// dropping on the paper's 200 channels) and deep in overload at 20k users.
func TestDropPercentAt(t *testing.T) {
	d := spreadDist(t)
	cfg := DefaultConfig()
	cfg.Duration = time.Hour
	for _, users := range []int{520, 555, 640} {
		checkOracle(t, users, d, cfg)
	}
	cfg.Duration = 10 * time.Minute
	checkOracle(t, 20_000, d, cfg)
}

func TestDropPercentAtValidates(t *testing.T) {
	d := spreadDist(t)
	cfg := DefaultConfig()
	bad := cfg
	bad.Channels = 0
	if _, err := DropPercentAt(10, d, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := DropPercentAt(10, &Dist{}, cfg); err == nil {
		t.Fatal("empty dist accepted")
	}
	if _, err := DropPercentAt(10, nil, cfg); err == nil {
		t.Fatal("nil dist accepted")
	}
	if _, err := DropPercentAt(0, d, cfg); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := SupportedUsersDist(d, 2, bad); err == nil {
		t.Fatal("SupportedUsersDist accepted an invalid config")
	}
	if _, err := SupportedUsersDist(&Dist{}, 2, cfg); err == nil {
		t.Fatal("SupportedUsersDist accepted an empty dist")
	}
	for _, p := range []float64{0, -1, 100, 150} {
		if _, err := SupportedUsersDist(d, p, cfg); err == nil {
			t.Fatalf("SupportedUsersDist accepted target %v%%", p)
		}
	}
}

// randomDist builds a distribution of one to six service times in
// (0.1 s, 60 s] with weights in [1, 1000].
func randomDist(rng *rand.Rand) *Dist {
	d := &Dist{}
	for i := 0; i <= rng.Intn(6); i++ {
		if err := d.Add(0.1+rng.Float64()*59.9, 1+rng.Int63n(1000)); err != nil {
			panic(err)
		}
	}
	return d
}

// TestPropertyDropPercentAtMonotone: blocking never falls as the population
// grows.
func TestPropertyDropPercentAtMonotone(t *testing.T) {
	f := func(seed int64, channels uint8, users uint16, more uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Channels = 1 + int(channels)
		d := randomDist(rng)
		n := 1 + int(users)
		lo, err := DropPercentAt(n, d, cfg)
		if err != nil {
			return false
		}
		hi, err := DropPercentAt(n+int(more), d, cfg)
		return err == nil && hi >= lo && lo >= 0 && hi <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySupportedUsersDistExactBoundary: the population returned is
// the exact boundary, Drop(S) ≤ p < Drop(S+1).
func TestPropertySupportedUsersDistExactBoundary(t *testing.T) {
	f := func(seed int64, channels uint8, target uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Channels = 1 + int(channels)
		d := randomDist(rng)
		p := 0.01 + float64(target%9000)/100 // (0, 90]
		s, err := SupportedUsersDist(d, p, cfg)
		if err != nil || s < 0 {
			return false
		}
		if s > 0 {
			at, err := DropPercentAt(s, d, cfg)
			if err != nil || at > p {
				return false
			}
		}
		next, err := DropPercentAt(s+1, d, cfg)
		return err == nil && next > p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
