package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"eabrowse/internal/capacity"
	"eabrowse/internal/experiments"
	"eabrowse/internal/runner"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// fleet20k is 20,000 phones on the adaptive policy with a mixed RAN and a
// fading channel: the per-visit templated replay plus the Monte-Carlo
// capacity model.
func fleet20k(seed int64) experiments.FleetConfig {
	return experiments.FleetConfig{
		Users:        20_000,
		HoursPerUser: 0.25,
		Seed:         seed,
		Policy:       "adaptive",
		RadioMix:     "umts:0.5,lte:0.3,nr:0.2",
		Channel:      "fading",
	}
}

// fleet1m is the million-phone run: static UMTS policy on an ideal link, so
// the counted-multiplicity fold replays it and Erlang-B answers capacity.
func fleet1m(seed int64) experiments.FleetConfig {
	return experiments.FleetConfig{Users: 1_000_000, HoursPerUser: 0.25, Seed: seed}
}

// sketchBudget matches the fleet's centroid budget for merged sketches.
const sketchBudget = 512

// fleetSetup drops the shared artifacts, then trains the deployed predictor
// and opens the fleet's trace stream: the state a fleet run starts from.
func fleetSetup(cfg experiments.FleetConfig) error {
	experiments.ResetArtifacts()
	if _, err := experiments.TrainedPredictor(true); err != nil {
		return err
	}
	_, err := trace.NewStream(streamConfig(cfg))
	return err
}

func streamConfig(cfg experiments.FleetConfig) trace.Config {
	tcfg := trace.DefaultConfig()
	tcfg.Users = cfg.Users
	tcfg.HoursPerUser = cfg.HoursPerUser
	tcfg.Seed = cfg.Seed
	return tcfg
}

// fleetDigest renders the result's counts and energies, which must repeat
// exactly across runs of the same seed.
func fleetDigest(res *experiments.FleetResult) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unrenderable: " + err.Error()
	}
	return string(b)
}

// checkFleet checks one fleet result against the first one of the run.
func (e *env) checkFleet(res *experiments.FleetResult, first string) string {
	d := fleetDigest(res)
	if first != "" {
		e.check(d == first, "fleet result differs between repetitions")
		return first
	}
	e.check(res.Visits > 0, "fleet replayed no visits")
	e.check(res.Aware.EnergyJ < res.Original.EnergyJ,
		"energy-aware fleet energy %.1f J is not below the original's %.1f J", res.Aware.EnergyJ, res.Original.EnergyJ)
	e.report["fleet_result"] = res
	return d
}

// runFleet runs the fleet, each pass after a fresh set-up, as often as the
// budget allows.
func runFleet(e *env, cfg experiments.FleetConfig) error {
	runner.SetWorkers(0)
	if e.traced {
		return traceFleet(e, cfg)
	}
	var first string
	setup := func() error { return fleetSetup(cfg) }
	r, err := measureReps(e.budget, 1, 7, setup, func() error {
		res, err := experiments.Fleet(cfg)
		if err != nil {
			return err
		}
		first = e.checkFleet(res, first)
		return nil
	})
	if err != nil {
		return err
	}
	e.setReps(r)
	e.report["fleet_users_per_s"] = float64(cfg.Users) / median(r.wallS)
	return nil
}

// traceFleet is the traced run: set-up, the fleet once untraced and once as
// RunFleetShards + FleetFromShards under one span (their difference is the
// tracing overhead), then the layers the fleet is made of, each alone.
func traceFleet(e *env, cfg experiments.FleetConfig) error {
	rec := e.rec
	root := rec.begin("setup", 0)
	sp := rec.begin("experiments.TrainedPredictor", root.id())
	experiments.ResetArtifacts()
	_, err := experiments.TrainedPredictor(true)
	d := sp.end()
	if err != nil {
		return err
	}
	e.layer("experiments.predictor_s", d.Seconds(), "s")
	sp = rec.begin("trace.NewStream", root.id())
	stream, err := trace.NewStream(streamConfig(cfg))
	d = sp.end()
	if err != nil {
		return err
	}
	e.layer("trace.stream_s", d.Seconds(), "s")
	root.end()

	runtime.GC()
	t0 := time.Now()
	plain, err := experiments.Fleet(cfg)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)
	first := e.checkFleet(plain, "")

	runtime.GC()
	root = rec.begin("fleet", 0).withRuntime()
	sp = rec.begin("experiments.RunFleetShards", root.id())
	outs, err := experiments.RunFleetShards(cfg, 0, experiments.FleetShardCount(cfg))
	shards := sp.end()
	if err != nil {
		return err
	}
	sp = rec.begin("experiments.FleetFromShards", root.id())
	res, err := experiments.FleetFromShards(cfg, outs)
	merge := sp.end()
	if err != nil {
		return err
	}
	traced := root.end()
	e.checkFleet(res, first)
	e.setRuntime(root)
	e.set("trace.overhead_pct", overheadPct(traced, untraced), "%")
	e.set("experiments.replay_s", shards.Seconds(), "s")
	e.layer("experiments.shards_s", shards.Seconds(), "s")
	e.layer("experiments.ns_per_visit", float64(shards.Nanoseconds())/float64(res.Visits), "ns")
	e.layer("experiments.merge_s", merge.Seconds(), "s")
	e.layer("fleet.visits", float64(res.Visits), "count")
	e.layer("fleet.predictions", float64(res.Aware.Predictions), "count")
	e.layer("fleet.switches", float64(res.Aware.Switches), "count")

	merged, d := mergeShardSketches(rec, outs)
	e.layer("stats.merge_s", d.Seconds(), "s")
	drop, supported, err := traceFleetCapacity(rec, cfg.Users, merged)
	if err != nil {
		return err
	}
	e.set("capacity.model_s", (drop + supported).Seconds(), "s")
	e.layer("capacity.drop_at_fleet_s", drop.Seconds(), "s")
	e.layer("capacity.supported_s", supported.Seconds(), "s")

	visits, d := traceGen(rec, stream, cfg.Users)
	e.check(visits == int64(res.Visits), "trace generation produced %d visits, the fleet replayed %d", visits, res.Visits)
	e.set("trace.gen_s", d.Seconds(), "s")
	e.layer("trace.visits", float64(visits), "count")
	return traceTrain(e)
}

// mergeShardSketches merges the shards' transmission-time sketches in shard
// order, one merged sketch per pipeline, as FleetFromShards does.
func mergeShardSketches(rec *recorder, outs []experiments.FleetShardResult) ([2]*stats.Sketch, time.Duration) {
	merged := [2]*stats.Sketch{stats.NewSketch(sketchBudget), stats.NewSketch(sketchBudget)}
	sp := rec.begin("stats.Sketch.Merge", 0)
	for i := range outs {
		merged[0].Merge(outs[i].OrigTrans)
		merged[1].Merge(outs[i].AwareTrans)
	}
	return merged, sp.end()
}

// traceFleetCapacity rebuilds each pipeline's capacity.Dist from the merged
// centroids and times DropPercentAt at the fleet size and the search for
// the population at 2% dropping.
func traceFleetCapacity(rec *recorder, users int, merged [2]*stats.Sketch) (drop, supported time.Duration, err error) {
	cfg := capacity.DefaultConfig()
	for _, sk := range merged {
		var dist capacity.Dist
		for _, c := range sk.Centroids() {
			if err := dist.Add(c.V, c.N); err != nil {
				return 0, 0, err
			}
		}
		sp := rec.begin("capacity.DropPercentAt", 0).withRuntime()
		_, err := capacity.DropPercentAt(users, &dist, cfg)
		drop += sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = rec.begin("capacity.SupportedUsersDist", 0).withRuntime()
		_, err = capacity.SupportedUsersDist(&dist, 2, cfg)
		supported += sp.end()
		if err != nil {
			return 0, 0, err
		}
	}
	return drop, supported, nil
}

// traceGen synthesizes every user's visits on one goroutine, the way a
// fleet shard does (one rng reseeded per user, one reused buffer).
func traceGen(rec *recorder, stream *trace.Stream, users int) (int64, time.Duration) {
	runtime.GC()
	sp := rec.begin("trace.Stream.UserVisitsRand", 0).withRuntime()
	rng := rand.New(rand.NewSource(1))
	var buf []trace.Visit
	var visits int64
	for u := 0; u < users; u++ {
		buf = stream.UserVisitsRand(rng, u, buf[:0])
		visits += int64(len(buf))
	}
	return visits, sp.end()
}
