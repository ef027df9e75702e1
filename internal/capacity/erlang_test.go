package capacity

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestErlangBKnownValues(t *testing.T) {
	// Textbook values: B(N=1, A=1) = 0.5; B(2, 1) = 0.2; B(5, 3) ≈ 0.1101.
	tests := []struct {
		n    int
		a    float64
		want float64
		tol  float64
	}{
		{1, 1, 0.5, 1e-12},
		{2, 1, 0.2, 1e-12},
		{5, 3, 0.11005, 1e-4},
		{10, 5, 0.018385, 1e-4},
		{200, 100, 0, 1e-9}, // hugely over-provisioned
	}
	for _, tt := range tests {
		got, err := ErlangB(tt.n, tt.a)
		if err != nil {
			t.Fatalf("ErlangB(%d, %v): %v", tt.n, tt.a, err)
		}
		if math.Abs(got-tt.want) > tt.tol {
			t.Fatalf("ErlangB(%d, %v) = %v, want %v", tt.n, tt.a, got, tt.want)
		}
	}
}

func TestErlangBValidation(t *testing.T) {
	if _, err := ErlangB(0, 1); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := ErlangB(5, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	if b, err := ErlangB(5, 0); err != nil || b != 0 {
		t.Fatalf("ErlangB(5, 0) = %v, %v", b, err)
	}
}

// TestPropertyErlangBMonotone: blocking grows with load and shrinks with
// servers, always within [0, 1].
func TestPropertyErlangBMonotone(t *testing.T) {
	f := func(nRaw, aRaw uint8) bool {
		n := 1 + int(nRaw%50)
		a := float64(aRaw%80) + 0.5
		b, err := ErlangB(n, a)
		if err != nil || b < 0 || b > 1 {
			return false
		}
		bMore, err := ErlangB(n, a+5)
		if err != nil || bMore < b-1e-12 {
			return false
		}
		bServers, err := ErlangB(n+5, a)
		if err != nil || bServers > b+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferedErlangs(t *testing.T) {
	cfg := DefaultConfig() // λ = 25 s
	if got := cfg.OfferedErlangs(100, 25); math.Abs(got-100) > 1e-9 {
		t.Fatalf("OfferedErlangs = %v, want 100", got)
	}
	if got := cfg.OfferedErlangs(0, 25); got != 0 {
		t.Fatalf("zero users load = %v", got)
	}
}

// TestSimulationMatchesErlangB: the discrete-event loss system must agree
// with the closed form within Monte-Carlo noise. This is the capacity
// model's core validation.
func TestSimulationMatchesErlangB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 40
	cfg.Duration = 6 * time.Hour
	// Mixed service times; the mean is what Erlang B sees (insensitivity).
	service := []float64{10, 20, 30, 40}
	for _, users := range []int{80, 120, 160} {
		sim, analytic, diff, err := ValidateAgainstAnalytic(users, service, cfg)
		if err != nil {
			t.Fatalf("ValidateAgainstAnalytic(%d): %v", users, err)
		}
		if diff > 2.5 {
			t.Fatalf("users=%d: sim %.2f%% vs Erlang-B %.2f%% (diff %.2f points)",
				users, sim, analytic, diff)
		}
	}
}

func TestAnalyticSupportedUsersTracksSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = time.Hour
	analytic, err := cfg.AnalyticSupportedUsers(30, 2)
	if err != nil {
		t.Fatalf("AnalyticSupportedUsers: %v", err)
	}
	simulated, err := SupportedUsers([]float64{30}, 2, cfg)
	if err != nil {
		t.Fatalf("SupportedUsers: %v", err)
	}
	ratio := float64(simulated) / float64(analytic)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("simulated capacity %d vs analytic %d (ratio %.2f)", simulated, analytic, ratio)
	}
}

func TestAnalyticValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := cfg.AnalyticSupportedUsers(0, 2); err == nil {
		t.Fatal("zero service accepted")
	}
	if _, err := cfg.AnalyticSupportedUsers(30, 0); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestAnalyticSupportedUsers(t *testing.T) {
	oneChannel := DefaultConfig()
	oneChannel.Channels = 1
	noInterval := DefaultConfig()
	noInterval.MeanSessionInterval = 0
	tests := []struct {
		name   string
		cfg    Config
		meanS  float64
		target float64
		want   int
	}{
		// B(1, 1.2) = 54.5%: a single user already exceeds 2%.
		{"one user over target", oneChannel, 30, 2, 0},
		// B(1, 1.2) = 54.5% ≤ 60% < B(1, 2.4) = 70.6%.
		{"one user under target", oneChannel, 30, 60, 1},
		// B(200, 186) = 1.97% ≤ 2% < B(200, 187.2) = 2.20%.
		{"paper config", DefaultConfig(), 30, 2, 155},
		{"paper config, shorter service", DefaultConfig(), 21, 2, 221},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.cfg.AnalyticSupportedUsers(tt.meanS, tt.target)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("AnalyticSupportedUsers(%v, %v) = %d, want %d", tt.meanS, tt.target, got, tt.want)
			}
		})
	}
	// An invalid config is reported as such, not as a search failure.
	_, err := noInterval.AnalyticSupportedUsers(30, 2)
	if want := noInterval.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("zero session interval: got %v, want %v", err, want)
	}
}
