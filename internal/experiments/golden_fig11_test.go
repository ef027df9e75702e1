package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const goldenFig11Path = "testdata/golden_fig11.tsv"

// goldenFig11 renders every Fig. 11 sweep point's full capacity.Result, one
// row per corpus × pipeline × user count, with the curve's population at 2%
// dropping repeated on each of its rows. The Monte-Carlo is seeded and
// simulated-time deterministic, so the bytes pin its exact rng draw
// sequence: a kernel that reorders one event or one draw changes a count.
func goldenFig11(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "corpus\tmode\tusers\toffered\tdropped\tmax_busy\tdrop_pct\tsupported_at_2pct")
	for _, c := range fig11Corpora {
		pages, err := c.pages()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range fig11Modes {
			curve, results, err := fig11Curve(pages, mode, c.sweep)
			if err != nil {
				t.Fatalf("%s %v: %v", c.label, mode, err)
			}
			for _, r := range results {
				fmt.Fprintf(&buf, "%s\t%s\t%d\t%d\t%d\t%d\t%.9g\t%d\n",
					c.label, mode, r.Users, r.Offered, r.Dropped, r.MaxBusy, r.DropPercent, curve.SupportedAt2Pct)
			}
		}
	}
	return buf.Bytes()
}

// TestGoldenFig11 is the regression guard for the capacity Monte-Carlo
// behind Fig. 11: any change to the event order, the tie-break between a
// release and an arrival at the same instant, or the rng draw sequence
// shows up as a row-level diff against the committed table. Intended
// changes update the file with -update.
func TestGoldenFig11(t *testing.T) {
	got := goldenFig11(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFig11Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFig11Path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenFig11Path, len(got))
		return
	}
	want, err := os.ReadFile(goldenFig11Path)
	if err != nil {
		t.Fatalf("read golden file: %v\n(generate it with: go test ./internal/experiments -run TestGoldenFig11 -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Error(traceDiff(want, got))
	}
}
