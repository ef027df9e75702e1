package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"eabrowse/internal/stats"
)

// fleetWithBudget runs Fleet with the sketch budget pinned for the duration
// of the call. budget 0 keeps the sketches exact.
func fleetWithBudget(t *testing.T, cfg FleetConfig, budget int) *FleetResult {
	t.Helper()
	old := fleetSketchBudget
	fleetSketchBudget = budget
	defer func() { fleetSketchBudget = old }()
	res, err := Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// relErr is |a−b| relative to the larger magnitude (0 when both are 0).
func relErr(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// fleetDiff lists every way two fleet results disagree: counters must be
// equal, energies, mean transmission times and per-visit percentiles agree
// to tol relative. Empty when they match.
func fleetDiff(a, b *FleetResult, tol float64) []string {
	var diffs []string
	count := func(name string, x, y int) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %d vs %d", name, x, y))
		}
	}
	near := func(name string, x, y float64) {
		if e := relErr(x, y); e > tol {
			diffs = append(diffs, fmt.Sprintf("%s: %.12g vs %.12g (rel %.3g)", name, x, y, e))
		}
	}
	count("visits", a.Visits, b.Visits)
	count("switches", a.Aware.Switches, b.Aware.Switches)
	count("predictions", a.Aware.Predictions, b.Aware.Predictions)
	for _, m := range []struct {
		name string
		x, y *FleetModeStats
	}{{"original", &a.Original, &b.Original}, {"aware", &a.Aware, &b.Aware}} {
		near(m.name+" energy", m.x.EnergyJ, m.y.EnergyJ)
		near(m.name+" mean trans", m.x.MeanTransmissionS, m.y.MeanTransmissionS)
		near(m.name+" visit p50", m.x.VisitEnergyP50J, m.y.VisitEnergyP50J)
		near(m.name+" visit p95", m.x.VisitEnergyP95J, m.y.VisitEnergyP95J)
		near(m.name+" visit p99", m.x.VisitEnergyP99J, m.y.VisitEnergyP99J)
	}
	near("prediction energy", a.Aware.PredictionEnergyJ, b.Aware.PredictionEnergyJ)
	return diffs
}

// TestFleetFoldMatchesStep pins the fold against the per-visit step on a
// multi-segment channel, where the traced engine's full-schedule shaping
// differs from the epoch approximation both untraced paths share. Clearing
// rt.folded steps every visit of the same static fleet. With exact sketches
// the transmission-time multisets must be identical.
func TestFleetFoldMatchesStep(t *testing.T) {
	old := fleetSketchBudget
	fleetSketchBudget = 0
	defer func() { fleetSketchBudget = old }()
	for _, cfg := range []FleetConfig{
		{Users: 40, HoursPerUser: 0.1, Seed: 3, Channel: "fading"},
		{Users: 40, HoursPerUser: 0.1, Seed: 11, Channel: "fading", RadioMix: "umts:0.4,lte:0.3,nr:0.3"},
	} {
		run := func(folded bool) []FleetShardResult {
			rt, err := newFleetRuntime(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt.folded = folded
			outs, err := rt.runShards(cfg, 0, FleetShardCount(cfg))
			if err != nil {
				t.Fatal(err)
			}
			return outs
		}
		foldOuts, stepOuts := run(true), run(false)
		for i := range foldOuts {
			for _, sk := range []struct {
				name string
				x, y *stats.Sketch
			}{{"original", foldOuts[i].OrigTrans, stepOuts[i].OrigTrans},
				{"aware", foldOuts[i].AwareTrans, stepOuts[i].AwareTrans}} {
				if !reflect.DeepEqual(sk.x.Centroids(), sk.y.Centroids()) {
					t.Errorf("%+v shard %d: %s transmission sketches differ", cfg, i, sk.name)
				}
			}
		}
		folded, err := FleetFromShards(cfg, foldOuts)
		if err != nil {
			t.Fatal(err)
		}
		stepped, err := FleetFromShards(cfg, stepOuts)
		if err != nil {
			t.Fatal(err)
		}
		if d := fleetDiff(folded, stepped, 1e-9); len(d) > 0 {
			t.Errorf("%+v: fold vs step:\n  %s", cfg, strings.Join(d, "\n  "))
		}
		if folded.Original.SupportedAt2Pct != stepped.Original.SupportedAt2Pct ||
			folded.Aware.SupportedAt2Pct != stepped.Aware.SupportedAt2Pct {
			t.Errorf("%+v: supported@2%%: fold %d/%d, step %d/%d", cfg,
				folded.Original.SupportedAt2Pct, folded.Aware.SupportedAt2Pct,
				stepped.Original.SupportedAt2Pct, stepped.Aware.SupportedAt2Pct)
		}
	}
}

// TestFleetSketchWithinTolerance pins the sketch tolerance contract on the
// capacity inputs: with the production budget the distributions the capacity
// model sees may be compressed, but every quantile differs from the exact
// path by at most the sketch's declared ErrorBound, and the reported mean
// transmission time is exact. Proxied through the public result: the mean
// must match the exact run to association error, and the capacity figures
// must agree between the default budget and the exact budget within the
// bisection's quantization (asserted equal here — the default fleet's
// distinct-value count stays under the budget, so no compression fires).
func TestFleetSketchWithinTolerance(t *testing.T) {
	cfg := FleetConfig{Users: 300, HoursPerUser: 0.1, Seed: 20130709}
	def := fleetWithBudget(t, cfg, 512)
	exact := fleetWithBudget(t, cfg, 0)
	if def.Original.SupportedAt2Pct != exact.Original.SupportedAt2Pct ||
		def.Aware.SupportedAt2Pct != exact.Aware.SupportedAt2Pct {
		t.Fatalf("capacity drifted under default budget: %d/%d vs %d/%d",
			def.Original.SupportedAt2Pct, def.Aware.SupportedAt2Pct,
			exact.Original.SupportedAt2Pct, exact.Aware.SupportedAt2Pct)
	}
	if def.Original.MeanTransmissionS != exact.Original.MeanTransmissionS {
		t.Fatalf("sketch mean not exact: %v vs %v",
			def.Original.MeanTransmissionS, exact.Original.MeanTransmissionS)
	}
}

// TestFoldPlanInvariants walks every template a mixed fleet builds and
// checks the fold-table layout invariants.
func TestFoldPlanInvariants(t *testing.T) {
	cfg := FleetConfig{Users: 60, HoursPerUser: 0.1, Seed: 5, RadioMix: "umts:0.4,lte:0.3,nr:0.3"}
	if _, err := Fleet(cfg); err != nil {
		t.Fatal(err)
	}
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.runShards(cfg, 0, FleetShardCount(cfg)); err != nil {
		t.Fatal(err)
	}
	n := 0
	rt.templates.Range(func(_, v any) bool {
		n++
		if err := v.(*visitTemplate).fold.check(); err != nil {
			t.Error(err)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no templates built")
	}
}

// TestFleetShardRangeValidation exercises the exported shard API's bounds.
func TestFleetShardRangeValidation(t *testing.T) {
	cfg := FleetConfig{Users: 50, HoursPerUser: 0.05, Seed: 1}
	total := FleetShardCount(cfg)
	if total != 50 {
		t.Fatalf("FleetShardCount = %d, want 50 (one per user below %d)", total, fleetShards)
	}
	if _, err := RunFleetShards(cfg, -1, 2); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := RunFleetShards(cfg, 3, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := RunFleetShards(cfg, 0, total+1); err == nil {
		t.Fatal("out-of-range hi accepted")
	}
	outs, err := RunFleetShards(cfg, 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FleetFromShards(cfg, outs[:total-1]); err == nil {
		t.Fatal("incomplete shard set accepted")
	}
	bad := append([]FleetShardResult(nil), outs...)
	bad[0], bad[1] = bad[1], bad[0]
	if _, err := FleetFromShards(cfg, bad); err == nil {
		t.Fatal("out-of-order shard set accepted")
	}
	if _, err := FleetFromShards(cfg, outs); err != nil {
		t.Fatal(err)
	}
}
