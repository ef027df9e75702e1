package capacity

import (
	"math"
	"testing"
	"time"

	"eabrowse/internal/runner"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 20 * time.Minute
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no channels", func(c *Config) { c.Channels = 0 }},
		{"zero interval", func(c *Config) { c.MeanSessionInterval = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate succeeded")
			}
		})
	}
}

func TestSimulateValidatesInputs(t *testing.T) {
	cfg := fastConfig()
	if _, err := Simulate(0, []float64{1}, cfg); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := Simulate(10, nil, cfg); err == nil {
		t.Fatal("empty service times accepted")
	}
	if _, err := Simulate(10, []float64{0}, cfg); err == nil {
		t.Fatal("zero service time accepted")
	}
}

// TestRejectsNonFiniteServiceTimes: a service time that is NaN, infinite or
// too long for a time.Duration is an error from every entry point, not a
// silently clamped hold.
func TestRejectsNonFiniteServiceTimes(t *testing.T) {
	cfg := fastConfig()
	for _, tt := range []struct {
		name    string
		service []float64
	}{
		{"NaN", []float64{math.NaN(), 1}},
		{"+Inf", []float64{math.Inf(1)}},
		{"-Inf", []float64{1, math.Inf(-1)}},
		{"overflows Duration", []float64{1, math.MaxInt64 / 1e9 * 2}},
		{"at the Duration limit", []float64{math.MaxInt64 / 1e9}},
		{"largest float", []float64{math.MaxFloat64}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if r, err := Simulate(50, tt.service, cfg); err == nil {
				t.Errorf("Simulate accepted %v: %+v", tt.service, r)
			}
			if _, err := Sweep([]int{50}, tt.service, cfg); err == nil {
				t.Errorf("Sweep accepted %v", tt.service)
			}
			if _, err := SupportedUsers(tt.service, 2, cfg); err == nil {
				t.Errorf("SupportedUsers accepted %v", tt.service)
			}
			var d Dist
			for _, v := range tt.service {
				if err := d.Add(v, 1); err != nil {
					return
				}
			}
			t.Errorf("Dist.Add accepted every value of %v", tt.service)
		})
	}
	// The longest hold that fits a Duration is still a valid service time.
	if _, err := Simulate(5, []float64{9e9}, cfg); err != nil {
		t.Fatalf("Simulate rejected a 9e9 s service time: %v", err)
	}
}

func TestLightLoadNoDrops(t *testing.T) {
	cfg := fastConfig()
	// 10 users, 5 s service, 25 s intervals: offered load ≈ 2 Erlang on 200
	// channels — nothing can drop.
	res, err := Simulate(10, []float64{5}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d sessions under trivial load", res.Dropped)
	}
	if res.Offered == 0 {
		t.Fatal("no sessions offered")
	}
}

func TestOverloadDrops(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 5
	// 100 users with 30 s sessions every 25 s: offered load 120 Erlang on 5
	// channels — most sessions must drop.
	res, err := Simulate(100, []float64{30}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.DropPercent < 50 {
		t.Fatalf("drop %.1f%% under extreme overload, want > 50%%", res.DropPercent)
	}
	if res.MaxBusy != cfg.Channels {
		t.Fatalf("MaxBusy = %d, want %d", res.MaxBusy, cfg.Channels)
	}
}

func TestDropMonotoneInUsers(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 50
	service := []float64{20}
	prev := -1.0
	for _, users := range []int{50, 100, 200, 400} {
		res, err := Simulate(users, service, cfg)
		if err != nil {
			t.Fatalf("Simulate(%d): %v", users, err)
		}
		if res.DropPercent < prev-2 { // allow small stochastic wiggle
			t.Fatalf("drop %% fell from %.1f to %.1f as users grew", prev, res.DropPercent)
		}
		prev = res.DropPercent
	}
}

func TestShorterServiceRaisesCapacity(t *testing.T) {
	cfg := fastConfig()
	longUsers, err := SupportedUsers([]float64{30}, 2, cfg)
	if err != nil {
		t.Fatalf("SupportedUsers(long): %v", err)
	}
	shortUsers, err := SupportedUsers([]float64{21}, 2, cfg)
	if err != nil {
		t.Fatalf("SupportedUsers(short): %v", err)
	}
	if shortUsers <= longUsers {
		t.Fatalf("short service supports %d users, long %d — want strictly more", shortUsers, longUsers)
	}
	// A 30% shorter hold time should buy very roughly 20-50% more users.
	gain := float64(shortUsers-longUsers) / float64(longUsers) * 100
	if gain < 5 || gain > 80 {
		t.Fatalf("capacity gain %.1f%% implausible", gain)
	}
}

func TestSupportedUsersValidatesTarget(t *testing.T) {
	cfg := fastConfig()
	if _, err := SupportedUsers([]float64{5}, 0, cfg); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := SupportedUsers([]float64{5}, 100, cfg); err == nil {
		t.Fatal("100% target accepted")
	}
}

func TestSweep(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 20
	results, err := Sweep([]int{10, 50, 100}, []float64{15}, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, users := range []int{10, 50, 100} {
		if results[i].Users != users {
			t.Fatalf("result %d users = %d, want %d", i, results[i].Users, users)
		}
	}
}

// TestSweepSameAtAnyWorkerCount: the sweep's points run on the runner pool
// but land by index, so one worker and eight give identical results.
func TestSweepSameAtAnyWorkerCount(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 30
	users := []int{20, 40, 60, 80, 100}
	service := []float64{4, 9, 17}
	sweep := func(workers int) []Result {
		prev := runner.Workers()
		runner.SetWorkers(workers)
		defer runner.SetWorkers(prev)
		r, err := Sweep(users, service, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq, par := sweep(1), sweep(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d: %+v at 1 worker, %+v at 8", i, seq[i], par[i])
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := fastConfig()
	a, err := Simulate(100, []float64{10, 20, 30}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	b, err := Simulate(100, []float64{10, 20, 30}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

// BenchmarkSimulate runs one Fig. 11 sweep point: 500 users on the paper's
// 200 channels for 4 hours, near the knee of the blocking curve. It reports
// the cost per offered arrival, the unit the run time scales with.
func BenchmarkSimulate(b *testing.B) {
	benchmarkSimulate(b, Simulate)
}

func benchmarkSimulate(b *testing.B, simulate func(int, []float64, Config) (Result, error)) {
	service := []float64{3.1, 5.4, 6.2, 8.8, 9.5, 12.7, 15.3, 21.9}
	cfg := DefaultConfig()
	b.ReportAllocs()
	arrivals := 0
	for i := 0; i < b.N; i++ {
		r, err := simulate(500, service, cfg)
		if err != nil {
			b.Fatal(err)
		}
		arrivals += r.Offered
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
}
