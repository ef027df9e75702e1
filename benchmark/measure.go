package main

import (
	"runtime"
	"syscall"
	"time"

	"eabrowse/internal/experiments"
	"eabrowse/internal/predictor"
)

// reps is what measureReps collected, one entry per set-up or repetition,
// plus the process's peak RSS by the end of the first repetition.
type reps struct {
	setupS []float64
	wallS  []float64
	cpuS   []float64
	rssMB  float64
}

// measureReps repeats (set-up, timed op) at least minReps times, then again
// while one more op, at the median length so far, fits the budget; only the
// ops' time counts against it. It then runs more set-ups alone until there
// are minSetups. Each op starts from a collected heap. The peak RSS is read
// after the first op, so it is that of a process that set up and ran the
// workload once: later ops peak higher or lower as the previous op's garbage
// and the collector's pacing allow.
func measureReps(budget time.Duration, minReps, minSetups int, setup, op func() error) (*reps, error) {
	r := &reps{}
	timedSetup := func() error {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		return nil
	}
	spent := 0.0
	for len(r.wallS) < minReps || spent+median(r.wallS) <= budget.Seconds() {
		if err := timedSetup(); err != nil {
			return nil, err
		}
		runtime.GC()
		c0 := cpuSeconds()
		t0 := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		r.cpuS = append(r.cpuS, cpuSeconds()-c0)
		spent += d
		r.wallS = append(r.wallS, d)
		if r.rssMB == 0 {
			r.rssMB = peakRSSMB()
		}
	}
	for len(r.setupS) < minSetups {
		if err := timedSetup(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// setReps publishes the end-to-end metrics every workload reports: the
// median pass, the median set-up and the peak RSS. The passes' CPU times go
// into the report.
func (e *env) setReps(r *reps) {
	e.set("wall_s", median(r.wallS), "s")
	e.set("setup_s", median(r.setupS), "s")
	e.set("peak_rss_mb", r.rssMB, "MB")
	e.report["samples"] = map[string][]float64{"wall_s": r.wallS, "cpu_s": r.cpuS, "setup_s": r.setupS}
}

// cpuSeconds is the user and system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is this process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// overheadPct is how much longer the traced run took than the untraced one.
func overheadPct(traced, untraced time.Duration) float64 {
	return (traced.Seconds()/untraced.Seconds() - 1) * 100
}

// setRuntime publishes a span's GC and allocation deltas as the run's
// go.gc_cycles and go.heap_alloc_mb.
func (e *env) setRuntime(a *active) {
	if a == nil {
		return
	}
	e.set("go.gc_cycles", float64(a.s.GCCycles), "count")
	e.set("go.heap_alloc_mb", float64(a.s.AllocBytes)/(1<<20), "MB")
}

// traceTrain times the GBRT training every workload's set-up does through
// TrainedPredictor(true): predictor.Train with the default configuration on
// the default split's training set.
func traceTrain(e *env) error {
	train, _, err := experiments.DefaultSplit()
	if err != nil {
		return err
	}
	runtime.GC()
	sp := e.rec.begin("predictor.Train", 0)
	_, err = predictor.Train(train, predictor.DefaultConfig())
	d := sp.end()
	if err != nil {
		return err
	}
	e.set("gbrt.train_s", d.Seconds(), "s")
	return nil
}
