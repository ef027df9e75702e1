package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "a1", StartNs: 15, EndNs: 25},
		{ID: 6, Parent: 2, Name: "a2", StartNs: 20, EndNs: 35}, // overlaps a1
	}
	self := selfTimes(spans)
	// root: [10,60] and [90,100] covered, 60 of 100.
	// a: [15,35] covered, 20 of 30. Grandchildren never reach root.
	want := map[int64]time.Duration{1: 40, 2: 10, 3: 30, 4: 30, 5: 10, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestPublishedValuesMatchEabench(t *testing.T) {
	src, err := os.ReadFile("../cmd/eabench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	body := func(fn string) string {
		s := string(src)
		i := strings.Index(s, "func "+fn+"(")
		if i < 0 {
			t.Fatalf("eabench has no %s", fn)
		}
		j := strings.Index(s[i+1:], "\nfunc ")
		return s[i : i+1+j]
	}
	figs := map[string]string{"Fig. 7": "runFig7", "Fig. 8": "runFig8", "Fig. 10": "runFig10",
		"Fig. 11": "runFig11", "Fig. 14": "runFig14"}
	seen := map[string]bool{}
	for _, p := range publishedPct {
		fn, ok := figs[p.Ref]
		if !ok {
			t.Errorf("%q: unexpected figure reference %q", p.What, p.Ref)
			continue
		}
		seen[p.Ref] = true
		v := strconv.FormatFloat(p.Paper, 'f', -1, 64) + "%"
		if !strings.Contains(body(fn), v) {
			t.Errorf("%s %q: eabench's %s does not print the published %s", p.Ref, p.What, fn, v)
		}
	}
	if len(seen) != len(figs) {
		t.Errorf("published values cover %d of the %d figures", len(seen), len(figs))
	}
	if len(publishedPct) != len(reproducedPct(nil)) {
		t.Fatalf("%d published values, %d reproduced", len(publishedPct), len(reproducedPct(nil)))
	}
}

func TestPaperErrorIsMeanAbsoluteDifference(t *testing.T) {
	exact := make([]float64, len(publishedPct))
	off := make([]float64, len(publishedPct))
	for i, p := range publishedPct {
		exact[i] = p.Paper
		off[i] = p.Paper + float64(1-2*(i%2)) // alternately 1 pp above and below
	}
	if got, _ := meanAbsError(exact); got != 0 {
		t.Errorf("exact reproduction: %g pp, want 0", got)
	}
	if got, _ := meanAbsError(off); math.Abs(got-1) > 1e-12 {
		t.Errorf("1 pp off everywhere: %g pp, want 1", got)
	}
	if got, _ := paperError(nil); !math.IsNaN(got) {
		t.Errorf("missing results: %g pp, want NaN", got)
	}
}

func TestCheckMetrics(t *testing.T) {
	declared := []decl{{"wall_s", "s"}, {"peak_rss_mb", "MB"}}
	cases := []struct {
		name string
		got  map[string]metric
		ok   bool
	}{
		{"all", map[string]metric{"wall_s": {1, "s"}, "peak_rss_mb": {50, "MB"}}, true},
		{"missing", map[string]metric{"wall_s": {1, "s"}}, false},
		{"wrong unit", map[string]metric{"wall_s": {1, "ms"}, "peak_rss_mb": {50, "MB"}}, false},
		{"undeclared", map[string]metric{"wall_s": {1, "s"}, "peak_rss_mb": {50, "MB"}, "x": {1, "s"}}, false},
	}
	for _, c := range cases {
		if err := checkMetrics(c.got, declared, "end_to_end"); (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

func TestManifestWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, have []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(listed)
	sort.Strings(have)
	if strings.Join(listed, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json lists %v, the benchmark runs %v", listed, have)
	}
}
