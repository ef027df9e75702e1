package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"eabrowse/internal/obs"
)

// TestFleetUntracedMatchesTraced is the equivalence property of the fleet:
// on randomized configurations the untraced replay (fold plus per-visit
// step) must agree with the traced engine, which simulates every phone in
// full. Radios cycle through every backend and mixes; channel, policy, seed,
// population and duration are drawn from a fixed master seed. The channels
// are the ideal link and steady-3g, whose single segment makes the
// template's epoch approximation exact.
func TestFleetUntracedMatchesTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay is slow")
	}
	radios := []FleetConfig{
		{}, {Radio: "umts"}, {Radio: "lte"}, {Radio: "nr"},
		{RadioMix: "umts:0.5,lte:0.5"}, {RadioMix: "lte:0.5,nr:0.5"},
		{RadioMix: "umts:0.5,lte:0.3,nr:0.2"},
	}
	rng := rand.New(rand.NewSource(20130709))
	for i := 0; i < 30; i++ {
		cfg := radios[i%len(radios)]
		cfg.Users = 1 + rng.Intn(12)
		cfg.HoursPerUser = 0.02 + 0.05*rng.Float64()
		cfg.Seed = rng.Int63n(1 << 31)
		if rng.Intn(2) == 1 {
			cfg.Channel = "steady-3g"
		}
		if rng.Intn(2) == 1 {
			cfg.Policy = "adaptive"
		}
		untraced, err := Fleet(cfg)
		if err != nil {
			t.Fatalf("%+v: untraced: %v", cfg, err)
		}
		obs.Enable()
		traced, err := Fleet(cfg)
		obs.Disable()
		if err != nil {
			t.Fatalf("%+v: traced: %v", cfg, err)
		}
		if d := fleetDiff(untraced, traced, 1e-9); len(d) > 0 {
			t.Errorf("config %d %+v: untraced vs traced:\n  %s", i, cfg, strings.Join(d, "\n  "))
		}
	}
}
