package experiments

import (
	"reflect"
	"strings"
	"testing"

	"eabrowse/internal/channel"
	"eabrowse/internal/obs"
	"eabrowse/internal/runner"
)

// TestFleetChannelPolicyValidation pins the valid-name-list error contract
// for the channel and policy knobs.
func TestFleetChannelPolicyValidation(t *testing.T) {
	err := FleetConfig{Users: 4, HoursPerUser: 0.02, Channel: "warp-drive"}.Validate()
	if err == nil {
		t.Fatal("unknown channel scenario accepted")
	}
	for _, name := range channel.Scenarios() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("channel error %q missing scenario %q", err, name)
		}
	}

	err = FleetConfig{Users: 4, HoursPerUser: 0.02, Policy: "oracle"}.Validate()
	if err == nil {
		t.Fatal("unsupported policy accepted")
	}
	for _, name := range []string{"adaptive", "static"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("policy error %q missing %q", err, name)
		}
	}

	for _, cfg := range []FleetConfig{
		{Users: 4, HoursPerUser: 0.02, Channel: "fading"},
		{Users: 4, HoursPerUser: 0.02, Policy: "adaptive"},
		{Users: 4, HoursPerUser: 0.02, Channel: "steady-3g", Policy: "static"},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", cfg, err)
		}
	}
}

// TestFleetChannelSlowsTransfers: a degraded scenario must stretch the
// fleet's transmission times relative to the fixed ideal link, and the
// result must echo the channel and resolved policy.
func TestFleetChannelSlowsTransfers(t *testing.T) {
	base := FleetConfig{Users: 6, HoursPerUser: 0.03, Seed: 7}
	ideal, err := Fleet(base)
	if err != nil {
		t.Fatalf("Fleet (ideal): %v", err)
	}
	if ideal.Channel != "" || ideal.Policy != "static" {
		t.Fatalf("ideal fleet reports channel %q policy %q", ideal.Channel, ideal.Policy)
	}

	faded := base
	faded.Channel = "fading"
	shaped, err := Fleet(faded)
	if err != nil {
		t.Fatalf("Fleet (fading): %v", err)
	}
	if shaped.Channel != "fading" {
		t.Fatalf("shaped fleet reports channel %q", shaped.Channel)
	}
	if shaped.Visits != ideal.Visits {
		t.Fatalf("visits changed with channel: %d vs %d", shaped.Visits, ideal.Visits)
	}
	if !(shaped.Original.MeanTransmissionS > ideal.Original.MeanTransmissionS) {
		t.Errorf("fading did not stretch transmissions: %.3fs vs ideal %.3fs",
			shaped.Original.MeanTransmissionS, ideal.Original.MeanTransmissionS)
	}
	if !(shaped.Original.EnergyJ > ideal.Original.EnergyJ) {
		t.Errorf("fading did not cost energy: %.1f J vs ideal %.1f J",
			shaped.Original.EnergyJ, ideal.Original.EnergyJ)
	}
}

// TestFleetAdaptivePolicyRuns: the adaptive fleet replays end to end, still
// saves energy against the original pipeline on the paper's radio, and
// reports the policy it ran.
func TestFleetAdaptivePolicyRuns(t *testing.T) {
	cfg := FleetConfig{Users: 6, HoursPerUser: 0.03, Seed: 7, Channel: "congestion-ramp", Policy: "adaptive"}
	res, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("Fleet (adaptive): %v", err)
	}
	if res.Policy != "adaptive" {
		t.Fatalf("result reports policy %q", res.Policy)
	}
	if res.Aware.Predictions == 0 {
		t.Error("adaptive fleet made no predictions")
	}
	if !(res.Aware.EnergyJ < res.Original.EnergyJ) {
		t.Errorf("adaptive pipeline did not save energy: aware %.1f J, original %.1f J",
			res.Aware.EnergyJ, res.Original.EnergyJ)
	}
}

// TestFleetChannelParallelDeterminism: the channel-shaped adaptive fleet is
// byte-identical at any worker count, like every other fleet configuration.
func TestFleetChannelParallelDeterminism(t *testing.T) {
	cfg := FleetConfig{Users: 24, HoursPerUser: 0.02, Seed: 5, Channel: "fading", Policy: "adaptive"}
	defer runner.SetWorkers(runner.Workers())

	runner.SetWorkers(1)
	seq, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("sequential Fleet: %v", err)
	}
	runner.SetWorkers(8)
	par, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("parallel Fleet: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fleet differs between 1 and 8 workers:\n%+v\nvs\n%+v", seq, par)
	}
}

// TestFleetChannelTracedMatchesTemplated cross-checks the two replay engines
// under a channel on the steady-3g scenario, whose single segment makes the
// templated replay's epoch approximation exact: a load sees the same
// conditions whether it is shaped segment-by-segment or against the full
// schedule.
func TestFleetChannelTracedMatchesTemplated(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay is slow")
	}
	cfg := FleetConfig{Users: 6, HoursPerUser: 0.04, Seed: 13, Channel: "steady-3g", Policy: "adaptive"}
	templated, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("templated Fleet: %v", err)
	}
	obs.Enable()
	defer obs.Disable()
	traced, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("traced Fleet: %v", err)
	}
	if d := fleetDiff(templated, traced, 1e-9); len(d) > 0 {
		t.Errorf("templated vs traced:\n  %s", strings.Join(d, "\n  "))
	}
}
