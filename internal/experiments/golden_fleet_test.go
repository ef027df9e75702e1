package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const goldenFleetPath = "testdata/golden_fleet.tsv"

// goldenFleetConfigs are the pinned fleets: a static-UMTS fleet on an ideal
// link (the counted-multiplicity fold replays it) and an adaptive mixed-RAN
// fleet on a fading channel (every visit stepped), each at two seeds.
var goldenFleetConfigs = []struct {
	label string
	cfg   FleetConfig
}{
	{"static-umts-ideal", FleetConfig{Users: 2000, HoursPerUser: 0.2}},
	{"adaptive-mix-fading", FleetConfig{Users: 2000, HoursPerUser: 0.2,
		Policy: "adaptive", RadioMix: "umts:0.5,lte:0.3,nr:0.2", Channel: "fading"}},
}

var goldenFleetSeeds = []int64{1, 9001}

// goldenFleet renders every pinned fleet's full FleetResult, one row per
// config × seed × pipeline. The visit count and every energy depend on each
// phone's exact visit stream, so the bytes pin the per-user rng draw
// sequence as well as both the fold and the per-visit step.
func goldenFleet(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "config\tseed\tmode\tusers\tvisits\tenergy_j\tmean_user_j\tmean_trans_s"+
		"\tsupported_at_2pct\tdrop_pct\tvisit_p50_j\tvisit_p95_j\tvisit_p99_j"+
		"\tswitches\tpredictions\tprediction_j\tsaving_pct\tcapacity_gain_pct")
	for _, g := range goldenFleetConfigs {
		for _, seed := range goldenFleetSeeds {
			cfg := g.cfg
			cfg.Seed = seed
			res, err := Fleet(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.label, seed, err)
			}
			for _, m := range []FleetModeStats{res.Original, res.Aware} {
				fmt.Fprintf(&buf, "%s\t%d\t%s\t%d\t%d\t%.6f\t%.6f\t%.9f\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t%d\t%d\t%.6f\t%.6f\t%.6f\n",
					g.label, seed, m.Mode, res.Users, res.Visits, m.EnergyJ, m.MeanEnergyPerUserJ,
					m.MeanTransmissionS, m.SupportedAt2Pct, m.DropPctAtFleet,
					m.VisitEnergyP50J, m.VisitEnergyP95J, m.VisitEnergyP99J,
					m.Switches, m.Predictions, m.PredictionEnergyJ,
					res.EnergySavingPct, res.CapacityGainPct)
			}
		}
	}
	return buf.Bytes()
}

// TestGoldenFleet is the regression guard for fleet outputs: a change to a
// phone's visit stream, the fold, the per-visit step or the shard merge
// shows up as a row-level diff against the committed table. Intended
// changes update the file with -update.
func TestGoldenFleet(t *testing.T) {
	got := goldenFleet(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFleetPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFleetPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenFleetPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenFleetPath)
	if err != nil {
		t.Fatalf("read golden file: %v\n(generate it with: go test ./internal/experiments -run TestGoldenFleet -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Error(traceDiff(want, got))
	}
}
