package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/capacity"
	"eabrowse/internal/experiments"
	"eabrowse/internal/runner"
	"eabrowse/internal/trace"
	"eabrowse/internal/webpage"
)

// paperExperiment is one entry of the experiment set `eabench -exp all`
// runs, in eabench's registry order.
type paperExperiment struct {
	name string
	run  func() (any, error)
}

func paperExperiments() []paperExperiment {
	return []paperExperiment{
		{"fig1", func() (any, error) { return experiments.Fig1() }},
		{"fig3", func() (any, error) { return experiments.Fig3() }},
		{"fig4", func() (any, error) { return experiments.Fig4() }},
		{"table4", func() (any, error) { return experiments.Table4() }},
		{"table5", func() (any, error) { return experiments.Table5(), nil }},
		{"fig7", func() (any, error) { return experiments.Fig7() }},
		{"fig8", func() (any, error) { return experiments.Fig8() }},
		{"fig9", func() (any, error) { return experiments.Fig9() }},
		{"fig10", func() (any, error) { return experiments.Fig10() }},
		{"fig11", func() (any, error) { return experiments.Fig11() }},
		{"fig12", func() (any, error) { return experiments.Fig12() }},
		{"fig14", func() (any, error) { return experiments.Fig14() }},
		{"fig15", func() (any, error) { return experiments.Fig15() }},
		{"fig16", func() (any, error) { return experiments.Fig16() }},
		{"table7", func() (any, error) {
			rows, err := experiments.Table7()
			// The Go wall time column is a live measurement, not an output.
			for i := range rows {
				rows[i].GoWallTime = 0
			}
			return rows, err
		}},
		{"reorder", func() (any, error) { return experiments.Reorder() }},
		{"ablation", func() (any, error) { return experiments.Ablations() }},
		{"ablation-pred", func() (any, error) { return experiments.PredictorAblation() }},
		{"timers", func() (any, error) { return experiments.TimerSweep() }},
		{"chaos", func() (any, error) {
			return experiments.ChaosSweep(experiments.DefaultChaosProfile(), 0.30)
		}},
	}
}

// paperSetup drops every shared artifact and builds them again: the page
// corpora, the default trace and its split, and both trained predictors.
func paperSetup() error {
	experiments.ResetArtifacts()
	steps := []func() error{
		func() error { _, err := experiments.MobilePages(); return err },
		func() error { _, err := experiments.FullPages(); return err },
		func() error { _, err := experiments.ESPNPage(); return err },
		func() error { _, err := experiments.MCNNPage(); return err },
		func() error { _, err := experiments.MotorsEbayPage(); return err },
		func() error { _, _, err := experiments.DefaultSplit(); return err },
		func() error { _, err := experiments.TrainedPredictor(false); return err },
		func() error { _, err := experiments.TrainedPredictor(true); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// paperOutcome is one pass over the experiment set.
type paperOutcome struct {
	results map[string]any
	// digest hashes every experiment's rendered result in registry order.
	digest string
}

// runPaperSet runs the experiment set on the runner pool, one span per
// experiment under parent.
func runPaperSet(rec *recorder, parent int64) (*paperOutcome, error) {
	exps := paperExperiments()
	type out struct {
		v    any
		body []byte
	}
	outs, err := runner.Collect(len(exps), func(i int) (out, error) {
		sp := rec.begin("experiments."+exps[i].name, parent)
		v, err := exps[i].run()
		sp.end()
		if err != nil {
			return out{}, fmt.Errorf("%s: %w", exps[i].name, err)
		}
		body, err := json.Marshal(v)
		if err != nil {
			return out{}, fmt.Errorf("%s: render: %w", exps[i].name, err)
		}
		return out{v, body}, nil
	})
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	po := &paperOutcome{results: make(map[string]any, len(exps))}
	for i, o := range outs {
		po.results[exps[i].name] = o.v
		fmt.Fprintf(h, "%s\n%s\n", exps[i].name, o.body)
	}
	po.digest = hex.EncodeToString(h.Sum(nil))
	return po, nil
}

func runPaper(e *env) error {
	runner.SetWorkers(0)
	if e.traced {
		return tracePaper(e)
	}
	var first *paperOutcome
	// Two passes at least: passes of one run disagree by up to 12 %.
	r, err := measureReps(e.budget, 2, 7, paperSetup, func() error {
		po, err := runPaperSet(nil, 0)
		if err != nil {
			return err
		}
		if first == nil {
			first = po
			e.checkPaper(po)
		} else {
			e.check(po.digest == first.digest, "paper report differs between repetitions (%s vs %s)", po.digest, first.digest)
		}
		return nil
	})
	if err != nil {
		return err
	}
	errPP, rows := paperError(first.results)
	e.setReps(r)
	e.report["paper_err_pp"] = errPP
	e.report["paper_digest"] = first.digest
	e.report["published_vs_reproduced"] = rows
	return nil
}

// checkPaper checks one pass: the percentages the paper publishes must be
// finite, and the paper's headline results must hold (the energy-aware
// pipeline saves energy and gains capacity).
func (e *env) checkPaper(po *paperOutcome) {
	errPP, rows := paperError(po.results)
	e.check(!math.IsNaN(errPP) && !math.IsInf(errPP, 0), "paper_err_pp is not finite: %v", errPP)
	for _, r := range rows {
		e.check(!math.IsNaN(r.Reproduced), "%s %s: reproduced value missing", r.Ref, r.What)
	}
	f10, _ := po.results["fig10"].(*experiments.Fig10Result)
	f11, _ := po.results["fig11"].(*experiments.Fig11Result)
	e.check(f10 != nil && f10.ESPN.EnergySavingPct() > 0, "fig10: energy-aware pipeline saves no energy")
	e.check(f11 != nil && f11.Mobile.CapacityGainPct > 0 && f11.Full.CapacityGainPct > 0,
		"fig11: energy-aware pipeline gains no capacity")
}

// tracePaper is the traced run: the experiment set once untraced and once
// traced (their difference is the tracing overhead), then each layer call
// alone.
func tracePaper(e *env) error {
	rec := e.rec
	// Each pass follows a fresh set-up, as in the untraced runs, so both
	// start with the same cold caches.
	sp := rec.begin("setup", 0)
	if err := paperSetup(); err != nil {
		return err
	}
	sp.end()
	runtime.GC()
	t0 := time.Now()
	plain, err := runPaperSet(nil, 0)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)
	e.checkPaper(plain)

	sp = rec.begin("setup", 0)
	if err := paperSetup(); err != nil {
		return err
	}
	sp.end()
	runtime.GC()
	root := rec.begin("paper", 0).withRuntime()
	po, err := runPaperSet(rec, root.id())
	if err != nil {
		return err
	}
	traced := root.end()
	e.check(po.digest == plain.digest, "traced paper report differs from the untraced one")
	e.setRuntime(root)
	e.set("trace.overhead_pct", overheadPct(traced, untraced), "%")

	alone := []struct {
		metric string
		run    func() (any, error)
	}{
		{"experiments.fig11_s", func() (any, error) { return experiments.Fig11() }},
		{"experiments.ablation_pred_s", func() (any, error) { return experiments.PredictorAblation() }},
		{"experiments.fig15_s", func() (any, error) { return experiments.Fig15() }},
		{"experiments.fig16_s", func() (any, error) { return experiments.Fig16() }},
	}
	for _, a := range alone {
		runtime.GC()
		sp := rec.begin(a.metric[:len(a.metric)-2], 0)
		_, err := a.run()
		d := sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", a.metric, err)
		}
		e.layer(a.metric, d.Seconds(), "s")
	}

	c, err := traceCapacity(rec)
	if err != nil {
		return err
	}
	e.set("experiments.replay_s", c.replay.Seconds(), "s")
	e.set("capacity.model_s", c.model.Seconds(), "s")
	e.layer("capacity.arrivals", float64(c.arrivals), "count")
	e.layer("capacity.ns_per_arrival", float64(c.sweep.Nanoseconds())/float64(c.arrivals), "ns")

	runtime.GC()
	sp = rec.begin("trace.Synthesize", 0)
	_, err = trace.Synthesize(trace.DefaultConfig())
	d := sp.end()
	if err != nil {
		return err
	}
	e.set("trace.gen_s", d.Seconds(), "s")
	if err := traceTrain(e); err != nil {
		return err
	}
	e.report["paper_digest"] = po.digest
	return nil
}

// fig11Sweeps are the user counts Fig. 11 sweeps (experiments.Fig11), per
// corpus.
var fig11Sweeps = map[string][]int{
	"mobile": {300, 350, 400, 450, 500, 550, 600, 650, 700},
	"full":   {200, 220, 240, 260, 280, 300, 320, 340, 360},
}

// capacityRun is what traceCapacity measured.
type capacityRun struct {
	// arrivals is what the sweeps offered; sweep is the time they took.
	arrivals int
	sweep    time.Duration
	// model is the time of the whole capacity model (sweeps and searches),
	// replay the time of the page loads that gave its transmission times.
	model, replay time.Duration
}

// traceCapacity runs the capacity model on Fig. 11's inputs: each corpus's
// per-page transmission times under each pipeline, swept over the figure's
// user counts, then searched for the population at 2% dropping.
func traceCapacity(rec *recorder) (*capacityRun, error) {
	corpora := []struct {
		name  string
		pages func() ([]*webpage.Page, error)
	}{{"mobile", experiments.MobilePages}, {"full", experiments.FullPages}}
	cfg := capacity.DefaultConfig()
	c := &capacityRun{}
	root := rec.begin("capacity", 0).withRuntime()
	for _, corpus := range corpora {
		pages, err := corpus.pages()
		if err != nil {
			return nil, err
		}
		for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
			service := make([]float64, len(pages))
			sp := rec.begin("experiments.LoadPage", root.id())
			for i, p := range pages {
				out, err := experiments.LoadPage(p, mode, 0)
				if err != nil {
					return nil, err
				}
				service[i] = out.Result.TransmissionTime.Seconds()
			}
			c.replay += sp.end()
			sp = rec.begin("capacity.Sweep", root.id())
			results, err := capacity.Sweep(fig11Sweeps[corpus.name], service, cfg)
			d := sp.end()
			if err != nil {
				return nil, err
			}
			c.sweep += d
			c.model += d
			for _, r := range results {
				c.arrivals += r.Offered
			}
			sp = rec.begin("capacity.SupportedUsers", root.id())
			_, err = capacity.SupportedUsers(service, 2, cfg)
			c.model += sp.end()
			if err != nil {
				return nil, err
			}
		}
	}
	root.end()
	if c.arrivals == 0 {
		return nil, fmt.Errorf("capacity sweep offered no arrivals")
	}
	return c, nil
}

// publishedValue is one percentage the paper publishes and eabench prints
// beside its reproduction.
type publishedValue struct {
	Ref   string
	What  string
	Paper float64
}

// publishedPct lists them, in the order reproducedPct returns its values.
var publishedPct = []publishedValue{
	{"Fig. 7", "P(reading < 2 s)", 30},
	{"Fig. 7", "P(reading < 9 s)", 53},
	{"Fig. 7", "P(reading < 20 s)", 68},
	{"Fig. 8", "mobile benchmark transmission-time saving", 15},
	{"Fig. 8", "mobile benchmark total-time saving", 2.5},
	{"Fig. 8", "full benchmark transmission-time saving", 27},
	{"Fig. 8", "full benchmark total-time saving", 17},
	{"Fig. 8", "m.cnn.com transmission-time saving", 15},
	{"Fig. 8", "www.motors.ebay.com transmission-time saving", 31},
	{"Fig. 10", "mobile benchmark energy saving", 35.7},
	{"Fig. 10", "full benchmark energy saving", 30.8},
	{"Fig. 10", "m.cnn.com energy saving", 35.5},
	{"Fig. 10", "espn.go.com/sports energy saving", 43.6},
	{"Fig. 11", "mobile benchmark capacity gain at 2% dropping", 14.3},
	{"Fig. 11", "full benchmark capacity gain at 2% dropping", 19.6},
	{"Fig. 14", "full benchmark first-display saving", 45.5},
	{"Fig. 14", "full benchmark final-display saving", 16.8},
}

// reproducedPct extracts the reproduced counterparts of publishedPct from
// the experiment results; a missing result yields NaN.
func reproducedPct(results map[string]any) []float64 {
	nan := math.NaN()
	out := make([]float64, len(publishedPct))
	for i := range out {
		out[i] = nan
	}
	if f, ok := results["fig7"].(*experiments.Fig7Result); ok && f != nil {
		out[0], out[1], out[2] = f.Under2Pct, f.Under9Pct, f.Under20Pct
	}
	if f, ok := results["fig8"].(*experiments.Fig8Result); ok && f != nil {
		out[3], out[4] = f.Mobile.TransmissionSavingPct(), f.Mobile.TotalSavingPct()
		out[5], out[6] = f.Full.TransmissionSavingPct(), f.Full.TotalSavingPct()
		out[7], out[8] = f.MCNN.TransmissionSavingPct(), f.MotorsEbay.TransmissionSavingPct()
	}
	if f, ok := results["fig10"].(*experiments.Fig10Result); ok && f != nil {
		out[9], out[10] = f.Mobile.EnergySavingPct(), f.Full.EnergySavingPct()
		out[11], out[12] = f.MCNN.EnergySavingPct(), f.ESPN.EnergySavingPct()
	}
	if f, ok := results["fig11"].(*experiments.Fig11Result); ok && f != nil {
		out[13], out[14] = f.Mobile.CapacityGainPct, f.Full.CapacityGainPct
	}
	if f, ok := results["fig14"].(*experiments.Fig14Result); ok && f != nil {
		out[15], out[16] = f.Full.FirstDisplaySavingPct(), f.Full.TotalSavingPct()
	}
	return out
}

// comparedValue is one row of the published-versus-reproduced table.
type comparedValue struct {
	publishedValue
	Reproduced float64
}

// paperError is the mean absolute difference, in percentage points, between
// the published and reproduced percentages.
func paperError(results map[string]any) (float64, []comparedValue) {
	return meanAbsError(reproducedPct(results))
}

// meanAbsError compares reproduced values, in publishedPct order, with the
// published ones.
func meanAbsError(repro []float64) (float64, []comparedValue) {
	rows := make([]comparedValue, len(publishedPct))
	sum := 0.0
	for i, p := range publishedPct {
		rows[i] = comparedValue{p, repro[i]}
		sum += math.Abs(repro[i] - p.Paper)
	}
	return sum / float64(len(publishedPct)), rows
}
