package experiments

import (
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/features"
	"eabrowse/internal/policy"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// The untraced replay: counted multiplicity plus one per-visit step.
//
// A visit replays its load from a template and then walks the radio cursor
// through its reading window. For the static policy the whole visit — load
// energy, reading-window walk, prediction count, switch decision, and the
// session-break drain — is a piecewise-linear function of the reading time
// r alone, given the visit's template: the cursor starts the window in the
// template's end state, decays stage by stage at fixed boundaries, and every
// stage charges a constant power. So instead of walking such a visit, the
// replay classifies it into a (template, reading-bucket, break-bit) cell,
// counts n and Σr per cell, and settles each touched cell once per shard:
// energy = n·constJ + slopeW·Σr.
//
// Two kinds of visit escape the fold and go through step, one visit at a
// time. A delayed-release load — a forced release still in flight at the
// next load — is shifted by the remaining release time δ, which stretches
// the observed transmission time (a predictor feature) and so makes the
// visit depend on the previous visit's reading time. And every visit of an
// adaptive user steps, because the user's threshold estimator learns from
// each window in turn. Folded and stepped visits agree up to floating-point
// association, and both are tested against the traced engine.

// foldCell is one settled path through a visit: energy constJ + slopeW·r
// (reading seconds), the cursor stage the visit leaves behind, and what it
// counts. Cells with brk folded in include the session-break drain.
type foldCell struct {
	constJ   float64
	slopeW   float64
	endStage int
	// endRel marks the engaged-switch short-window cell without a break: the
	// cursor ends mid-release and the NEXT load is a delayed (exceptional)
	// one with δ = (alpha + ReleaseDelay) − r.
	endRel bool
	pred   bool
	swc    bool
}

// foldPlan is a template's precomputed fold: walk boundaries for bucket
// classification plus the cell table. Cell layout (b = 0 no-break, 1 break):
//
//	walk cells   [2k+b]            k = 0..K   — original visits; aware r ≤ α
//	hold cells   [holdOff+2k+b]    k = 0..K   — aware r > α, no forced release
//	switch cells [swOff+2j+b]      j = 0, 1   — aware r > α, engaged release
//
// where K+1 is the number of walk buckets (bucket k covers r ∈ [c_{k-1},
// c_k), the last bucket is the terminal stage) and the two switch buckets
// split at w = ReleaseDelay. Aware templates whose decision is Switch but
// whose cursor is already terminal after the α wait ("not engaged") release
// as a no-op, so they use the hold cells with the switch counted.
type foldPlan struct {
	aware   bool
	bounds  []time.Duration // c_0..c_{K-1}, cumulative stage boundaries
	cells   []foldCell
	holdOff int
	swOff   int           // -1 when the template never releases while engaged
	swBound time.Duration // alpha + ReleaseDelay, the switch-bucket split
}

// bucket classifies a reading window against the walk boundaries, mirroring
// phoneCursor.advance exactly: a window reaching a boundary crosses it
// (d ≥ rem advances the stage), and a zero window leaves the cursor alone.
func (p *foldPlan) bucket(r time.Duration) int {
	if r == 0 {
		return 0
	}
	k := 0
	for k < len(p.bounds) && p.bounds[k] <= r {
		k++
	}
	return k
}

// classify maps one visit (reading time, break-follows bit) to its cell.
// For the engaged-switch short-window cell without a break it also returns
// the release remainder the next load starts under.
func (p *foldPlan) classify(r time.Duration, brk bool, alpha time.Duration) (int, time.Duration) {
	b := 0
	if brk {
		b = 1
	}
	if !p.aware || r <= alpha {
		return 2*p.bucket(r) + b, 0
	}
	if p.swOff >= 0 {
		if r < p.swBound {
			idx := p.swOff + b
			if !brk {
				return idx, p.swBound - r
			}
			return idx, 0
		}
		return p.swOff + 2 + b, 0
	}
	return p.holdOff + 2*p.bucket(r) + b, 0
}

// buildFoldPlan derives a template's fold table from the tail profile, the
// session-break drain, and the interest threshold α. Pure function of its
// arguments, so racing builders in the template cache agree.
func buildFoldPlan(t *visitTemplate, mode browser.Mode, fr *fleetRadio, alpha time.Duration) *foldPlan {
	tp := &fr.tail
	term := tp.TerminalIndex()
	loadJ := t.radioJ + t.cpuJ
	drainS := fr.drain.Seconds()
	termW := tp.Terminal().PowerW

	// Walk geometry from the template's end state: bucket k sits in stage
	// s0+k; c_k is the cumulative time to leave it.
	s0 := t.endStage
	K := term - s0
	bounds := make([]time.Duration, K)
	powers := make([]float64, K+1)
	var cum time.Duration
	for k := 0; k < K; k++ {
		if k == 0 {
			cum = t.endRem
		} else {
			cum += tp.Stage(s0 + k).Dwell
		}
		bounds[k] = cum
		powers[k] = tp.Stage(s0 + k).PowerW
	}
	powers[K] = termW

	// Pure walk linear forms: walking r from the end state costs
	// wConst[k] + wSlope[k]·r for r in bucket k; draining afterwards costs
	// dConst[k] + dSlope[k]·r more and always ends terminal.
	wConst := make([]float64, K+1)
	wSlope := make([]float64, K+1)
	dConst := make([]float64, K+1)
	dSlope := make([]float64, K+1)
	spent := 0.0 // Σ P_j·Δ_j for stages fully traversed before bucket k
	for k := 0; k <= K; k++ {
		var prev time.Duration
		if k > 0 {
			prev = bounds[k-1]
			var width time.Duration
			if k == 1 {
				width = bounds[0]
			} else {
				width = bounds[k-1] - bounds[k-2]
			}
			spent += powers[k-1] * width.Seconds()
		}
		wConst[k] = spent - powers[k]*prev.Seconds()
		wSlope[k] = powers[k]
		if k == K {
			dConst[k] = termW * drainS
			dSlope[k] = 0
			continue
		}
		// Post-walk state: stage s0+k with c_k − r remaining. The drain
		// finishes the stage, the rest of the tail, then idles terminal.
		restJ := 0.0
		for j := k + 1; j < K; j++ {
			restJ += powers[j] * (bounds[j] - bounds[j-1]).Seconds()
		}
		ck := bounds[k].Seconds()
		restT := (bounds[K-1] - bounds[k]).Seconds()
		dConst[k] = powers[k]*ck + restJ + termW*(drainS-ck-restT)
		dSlope[k] = termW - powers[k]
	}

	p := &foldPlan{
		aware:  mode == browser.ModeEnergyAware,
		bounds: bounds,
		swOff:  -1,
	}
	walkEnd := func(k int) int { return s0 + k } // stage after bucket k's walk
	addWalkPair := func(pred, swc bool) {
		for k := 0; k <= K; k++ {
			p.cells = append(p.cells,
				foldCell{constJ: loadJ + wConst[k], slopeW: wSlope[k],
					endStage: walkEnd(k), pred: pred, swc: swc},
				foldCell{constJ: loadJ + wConst[k] + dConst[k], slopeW: wSlope[k] + dSlope[k],
					endStage: term, pred: pred, swc: swc})
		}
	}
	addWalkPair(false, false)
	if !p.aware {
		return p
	}

	p.holdOff = len(p.cells)
	if !t.switchOn {
		addWalkPair(true, false)
		return p
	}
	// Switch templates: after the α wait the cursor is in bucket(α); if that
	// is already terminal the forced release is a free no-op and the visit
	// walks like a hold (switch still counted). Otherwise the release lump
	// is charged and the window walks the releasing stage.
	ka := p.bucket(alpha)
	if walkEnd(ka) == term {
		addWalkPair(true, true)
		return p
	}
	preJ := wConst[ka] + wSlope[ka]*alpha.Seconds() + tp.ReleaseLumpJ
	relW := tp.ReleasePowerW
	alphaS := alpha.Seconds()
	p.swBound = alpha + tp.ReleaseDelay
	swBoundS := p.swBound.Seconds()
	p.swOff = len(p.cells)
	// Short window (w < ReleaseDelay): the window ends mid-release.
	p.cells = append(p.cells,
		foldCell{constJ: loadJ + preJ - relW*alphaS, slopeW: relW,
			endStage: term, endRel: true, pred: true, swc: true},
		// With a break the drain finishes the release then idles: the
		// remainder (swBound − r) burns at release power, the rest terminal.
		foldCell{constJ: loadJ + preJ - relW*alphaS + relW*swBoundS + termW*(drainS-swBoundS),
			slopeW:   relW + (termW - relW),
			endStage: term, pred: true, swc: true})
	// Long window (w ≥ ReleaseDelay): release completes, terminal after.
	longConst := loadJ + preJ + relW*tp.ReleaseDelay.Seconds() - termW*swBoundS
	p.cells = append(p.cells,
		foldCell{constJ: longConst, slopeW: termW, endStage: term, pred: true, swc: true},
		foldCell{constJ: longConst + termW*drainS, slopeW: termW, endStage: term, pred: true, swc: true})
	return p
}

// tmplAgg is one shard's per-template fold accumulator: visit count and
// reading-time sum per cell, in the template's cell layout.
type tmplAgg struct {
	t    *visitTemplate
	n    []int64
	sumR []float64
}

// foldState is a shard's fold accumulators, in template first-use order.
// Shards replay their users sequentially, so the order — and therefore the
// settle order and its floating-point association — is a pure function of
// the shard, independent of worker or process count.
type foldState struct {
	idx  map[*visitTemplate]int32
	aggs []tmplAgg
}

func (fs *foldState) agg(t *visitTemplate) *tmplAgg {
	if i, ok := fs.idx[t]; ok {
		return &fs.aggs[i]
	}
	if fs.idx == nil {
		fs.idx = make(map[*visitTemplate]int32, 256)
	}
	fs.idx[t] = int32(len(fs.aggs))
	fs.aggs = append(fs.aggs, tmplAgg{
		t:    t,
		n:    make([]int64, len(t.fold.cells)),
		sumR: make([]float64, len(t.fold.cells)),
	})
	return &fs.aggs[len(fs.aggs)-1]
}

// pipeline is one user's replay of one browser pipeline: its mode, the
// analytic radio cursor (cursorReleasing with the remaining release time
// while a forced release is in flight), the energy its stepped visits have
// spent, and the shard sketches its visits file into. Folded visits leave
// energyJ alone; their cells settle at flush.
type pipeline struct {
	mode    browser.Mode
	pc      phoneCursor
	energyJ float64
	trans   *stats.Sketch
	visitJ  *stats.Sketch
}

// replayUser replays one user's visits on both pipelines through the
// template cache and the analytic radio cursors.
//
// With a channel configured, a per-user channel clock tracks where in the
// schedule the user's browsing has reached: it selects the segment each load
// replays under (the template key's seg, the epoch approximation) and
// advances by the original pipeline's load duration plus the reading window
// — decision-independent, so both pipelines browse the same channel and the
// energy-aware policy cannot shift its own conditions by releasing.
func (rt *fleetRuntime) replayUser(u int, visits []trace.Visit, fs *foldState, shard *FleetShardResult) error {
	if len(visits) == 0 {
		return nil
	}
	fr := rt.radioFor(u)
	term := fr.tail.TerminalIndex()
	var ad *policy.Adaptive
	if rt.adaptive {
		var err error
		if ad, err = policy.NewAdaptive(rt.acfg, fr.tail); err != nil {
			return err
		}
	}
	orig := pipeline{mode: browser.ModeOriginal, pc: phoneCursor{stage: term},
		trans: shard.OrigTrans, visitJ: shard.OrigVisitJ}
	aware := pipeline{mode: browser.ModeEnergyAware, pc: phoneCursor{stage: term},
		trans: shard.AwareTrans, visitJ: shard.AwareVisitJ}
	var out userOutcome
	var chT time.Duration
	session := visits[0].Session
	for i := range visits {
		v := &visits[i]
		if v.Session != session {
			// The previous visit's drain already idled both cursors.
			session = v.Session
			chT += fr.drain
		}
		reading := time.Duration(v.ReadingSeconds * float64(time.Second))
		brk := i+1 < len(visits) && visits[i+1].Session != v.Session
		seg := -1
		if rt.sched != nil {
			seg = rt.sched.SegmentIndexAt(chT)
		}
		loadS, err := rt.visit(fs, fr, &orig, v.Page, seg, reading, brk, nil, &out)
		if err != nil {
			return err
		}
		if _, err := rt.visit(fs, fr, &aware, v.Page, seg, reading, brk, ad, &out); err != nil {
			return err
		}
		chT += time.Duration(loadS*float64(time.Second)) + reading
		out.visits++
	}
	out.origJ = orig.energyJ
	out.awareJ = aware.energyJ + out.predJ
	shard.fold(out)
	return nil
}

// visit replays one visit of p and returns its load duration in seconds. A
// static user's visit folds into its template's cell unless a forced
// release is still in flight; every other visit is stepped.
func (rt *fleetRuntime) visit(fs *foldState, fr *fleetRadio, p *pipeline, page string, seg int,
	reading time.Duration, brk bool, ad *policy.Adaptive, out *userOutcome) (float64, error) {

	if !rt.folded || p.pc.stage == cursorReleasing {
		return rt.step(fr, p, page, seg, reading, brk, ad, out)
	}
	t, err := rt.template(fr, tmplKey{page: page, mode: p.mode, radio: fr.name, start: p.pc.stage, seg: seg})
	if err != nil {
		return 0, err
	}
	ci, rel := t.fold.classify(reading, brk, rt.params.Alpha)
	rs := reading.Seconds()
	agg := fs.agg(t)
	agg.n[ci]++
	agg.sumR[ci] += rs
	p.pc = phoneCursor{stage: t.fold.cells[ci].endStage}
	if rel > 0 {
		p.pc = phoneCursor{stage: cursorReleasing, rem: rel}
	}
	observeVisitJ(p.visitJ, t, ci, rs, rt.predVisitJ)
	return t.loadS, nil
}

// observeVisitJ files one folded visit's energy into the per-visit sketch.
// The drain-exclusive definition means the break bit never participates:
// cells come in (no-break, break) pairs, so ci&^1 is always the visit's own
// load + reading-window linear form without the appended session drain. The
// prediction cost joins here per visit (it is not in any cell's constJ).
func observeVisitJ(sk *stats.Sketch, t *visitTemplate, ci int, rs, predVisitJ float64) {
	c := &t.fold.cells[ci&^1]
	e := c.constJ + c.slopeW*rs
	if c.pred {
		e += predVisitJ
	}
	sk.Observe(e, 1)
}

// step replays one visit of p per visit: the load from the cursor's stage,
// the reading window on the cursor with Algorithm 2 in the energy-aware
// pipeline, and the session-break drain when brk follows. A release still in
// flight shifts the load: the terminal-stage template is replayed δ later
// (the queued active request waits out the release, then evolves exactly
// as from idle), and the stretched transmission time, a predictor feature,
// is predicted again. ad, when non-nil, replaces the static thresholds with
// the user's adaptive estimator and learns from the window's outcome.
// Returns the load duration in seconds, δ included.
func (rt *fleetRuntime) step(fr *fleetRadio, p *pipeline, page string, seg int,
	reading time.Duration, brk bool, ad *policy.Adaptive, out *userOutcome) (float64, error) {

	tp := &fr.tail
	start, delta := p.pc.stage, time.Duration(0)
	if start == cursorReleasing {
		start, delta = tp.TerminalIndex(), p.pc.rem
	}
	t, err := rt.template(fr, tmplKey{page: page, mode: p.mode, radio: fr.name, start: start, seg: seg})
	if err != nil {
		return 0, err
	}
	from := p.energyJ
	p.energyJ += t.radioJ + t.cpuJ
	transS := t.transS
	if delta > 0 {
		p.energyJ += tp.ReleasePowerW * delta.Seconds()
		transS += delta.Seconds()
	}
	p.trans.Observe(transS, 1)
	p.pc = phoneCursor{stage: t.endStage, rem: t.endRem}

	alpha := rt.params.Alpha
	predicted := p.mode == browser.ModeEnergyAware && reading > alpha
	if !predicted {
		// The stock pipeline, or a user who clicked away before the
		// interest threshold: the timers handle the window.
		p.energyJ += p.pc.advance(reading, tp)
	} else {
		p.energyJ += p.pc.advance(alpha, tp)
		predS := t.predS
		if delta > 0 {
			vec := t.vec
			vec[features.TransmissionTime] += delta.Seconds()
			if predS, err = rt.pred.PredictSeconds(vec); err != nil {
				return 0, err
			}
		}
		out.predictions++
		out.predJ += rt.predVisitJ
		predD := time.Duration(predS * float64(time.Second))
		var dec policy.Decision
		if ad != nil {
			dec = ad.Decide(predD)
		} else {
			dec = policy.Evaluate(predD, rt.params)
		}
		window := reading - alpha
		held := p.pc // the stage the timers would have reached
		var lumpJ float64
		if dec.Switch {
			lumpJ = p.pc.forceIdle(tp)
			p.energyJ += lumpJ
			out.switches++
		}
		winJ := p.pc.advance(window, tp)
		p.energyJ += winJ
		if ad != nil && dec.Switch {
			held.advance(window, tp)
			ad.ObserveRelease(lumpJ+winJ, window.Seconds(), held.stage)
		} else if ad != nil {
			ad.ObserveHold(winJ, window.Seconds())
		}
	}
	visitJ := p.energyJ - from
	if predicted {
		// The user's prediction energy joins awareJ once per user; per visit
		// it belongs to the visit that ran the predictor.
		visitJ += rt.predVisitJ
	}
	p.visitJ.Observe(visitJ, 1)
	if brk {
		// Session breaks are minutes apart — the radio idles out.
		p.energyJ += p.pc.advance(fr.drain, tp)
	}
	return t.loadS + delta.Seconds(), nil
}

// flush settles every touched cell into the shard accumulator, in template
// first-use order, cells in layout order: energy, prediction and switch
// counts, and one bulk sketch observation per template. The folded
// prediction energy joins AwareJ last, once per shard, as the stepped
// visits' joins it once per user.
func (fs *foldState) flush(rt *fleetRuntime, shard *FleetShardResult) {
	var predicted int64
	for ai := range fs.aggs {
		agg := &fs.aggs[ai]
		t := agg.t
		var visits int64
		var energy float64
		for ci := range agg.n {
			n := agg.n[ci]
			if n == 0 {
				continue
			}
			c := &t.fold.cells[ci]
			visits += n
			energy += float64(n)*c.constJ + c.slopeW*agg.sumR[ci]
			if c.pred {
				predicted += n
				shard.Predictions += n
				shard.PredJ += float64(n) * rt.predVisitJ
			}
			if c.swc {
				shard.Switches += n
			}
		}
		if visits == 0 {
			continue
		}
		if t.fold.aware {
			shard.AwareJ += energy
			shard.AwareTrans.Observe(t.transS, visits)
		} else {
			shard.OrigJ += energy
			shard.OrigTrans.Observe(t.transS, visits)
		}
	}
	shard.AwareJ += float64(predicted) * rt.predVisitJ
}

// check asserts the cell-layout invariants of a built plan: ascending walk
// boundaries and the cell count its layout implies. Tests run it on every
// template a fleet builds.
func (p *foldPlan) check() error {
	for i := 1; i < len(p.bounds); i++ {
		if p.bounds[i] < p.bounds[i-1] {
			return fmt.Errorf("fold: boundaries out of order at %d", i)
		}
	}
	want := 2 * (len(p.bounds) + 1)
	if p.aware {
		if p.swOff >= 0 {
			want = p.swOff + 4
		} else {
			want = 2 * p.holdOff
		}
	}
	if len(p.cells) != want {
		return fmt.Errorf("fold: %d cells, want %d", len(p.cells), want)
	}
	return nil
}
