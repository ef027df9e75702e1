package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into the program.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// GCCycles and AllocBytes are runtime deltas over the span, recorded
	// for spans opened with withRuntime.
	GCCycles   uint64 `json:"gc_cycles,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is a
// valid no-op, so untraced runs execute the same code with tracing off.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is an open span; end closes it.
type active struct {
	r       *recorder
	s       span
	runtime bool
	gc0     uint64
	alloc0  uint64
}

// begin opens a span under parent (0 for a root).
func (r *recorder) begin(name string, parent int64) *active {
	if r == nil {
		return nil
	}
	return &active{r: r, s: span{ID: r.newID(), Parent: parent, Name: name, StartNs: int64(time.Since(r.t0))}}
}

// withRuntime makes the span record GC cycles and heap bytes allocated
// while it is open. Use it on spans that run alone in the process.
func (a *active) withRuntime() *active {
	if a == nil {
		return nil
	}
	a.runtime = true
	a.gc0, a.alloc0 = readRuntime()
	return a
}

// id returns the span's id, or 0 for a no-op span.
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	a.s.EndNs = int64(time.Since(a.r.t0))
	if a.runtime {
		gc, alloc := readRuntime()
		a.s.GCCycles, a.s.AllocBytes = gc-a.gc0, alloc-a.alloc0
	}
	a.r.add(a.s)
	return time.Duration(a.s.EndNs - a.s.StartNs)
}

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// newID reserves a span id.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
}

var runtimeMu sync.Mutex

// readRuntime returns the process's GC cycle count and cumulative heap
// allocation.
func readRuntime() (gcCycles, allocBytes uint64) {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (parallel
// calls) and may run past their parent; only the covered part of the
// parent's own interval is subtracted.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration((s.EndNs - s.StartNs) - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	return total + curHi - curLo
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary aggregates total and self time per span name, largest self time
// first.
func (r *recorder) summary() []spanStat {
	self := selfTimes(r.spans)
	by := map[string]*spanStat{}
	for _, s := range r.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		st.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeFile writes the spans as JSON lines in id order.
func (r *recorder) writeFile(path string) error {
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].ID < r.spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
