package trace

import (
	"math"
	"testing"

	"eabrowse/internal/features"
	"eabrowse/internal/stats"
)

// sharedDataset synthesizes the default trace once for the whole package
// (pool building loads 60 pages through the simulator).
var sharedDataset *Dataset

func dataset(t *testing.T) *Dataset {
	t.Helper()
	if sharedDataset == nil {
		ds, err := Synthesize(DefaultConfig())
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		sharedDataset = ds
	}
	return sharedDataset
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no users", func(c *Config) { c.Users = 0 }},
		{"no hours", func(c *Config) { c.HoursPerUser = 0 }},
		{"no pool", func(c *Config) { c.PoolSize = 0 }},
		{"no categories", func(c *Config) { c.Categories = 0 }},
		{"too many liked", func(c *Config) { c.LikedCategories = 99 }},
		{"no cap", func(c *Config) { c.CapSeconds = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := Synthesize(cfg); err == nil {
				t.Fatal("Synthesize succeeded with invalid config")
			}
		})
	}
}

// TestConfigValidateNonFinite pins the NaN/Inf guards: each config would
// otherwise make synthesis append forever (infinite hours), fail later with
// a misleading "no visits" (NaN hours) or silently keep over-cap reads (NaN
// cap). Validate is called directly so a missing guard fails instead of
// hanging.
func TestConfigValidateNonFinite(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"NaN hours", func(c *Config) { c.HoursPerUser = math.NaN() }, false},
		{"+Inf hours", func(c *Config) { c.HoursPerUser = math.Inf(1) }, false},
		{"-Inf hours", func(c *Config) { c.HoursPerUser = math.Inf(-1) }, false},
		{"NaN cap", func(c *Config) { c.CapSeconds = math.NaN() }, false},
		{"-Inf cap", func(c *Config) { c.CapSeconds = math.Inf(-1) }, false},
		{"+Inf cap keeps every read", func(c *Config) { c.CapSeconds = math.Inf(1) }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Fatalf("Validate rejected a valid config: %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
		})
	}
}

func TestDatasetShape(t *testing.T) {
	ds := dataset(t)
	cfg := DefaultConfig()
	if len(ds.Pool) != cfg.PoolSize {
		t.Fatalf("pool size = %d, want %d", len(ds.Pool), cfg.PoolSize)
	}
	if len(ds.Visits) < 1000 {
		t.Fatalf("only %d visits for 40 users x 2h", len(ds.Visits))
	}
	users := make(map[int]bool)
	for _, v := range ds.Visits {
		users[v.User] = true
		if v.ReadingSeconds <= 0 {
			t.Fatalf("non-positive reading time %v", v.ReadingSeconds)
		}
		if v.ReadingSeconds > cfg.CapSeconds {
			t.Fatalf("reading time %v above cap %v", v.ReadingSeconds, cfg.CapSeconds)
		}
		if v.Page == "" {
			t.Fatal("visit without page")
		}
	}
	if len(users) != cfg.Users {
		t.Fatalf("visits cover %d users, want %d", len(users), cfg.Users)
	}
}

func TestPoolPagesHaveMeasuredFeatures(t *testing.T) {
	ds := dataset(t)
	for _, pp := range ds.Pool {
		if pp.Page == nil {
			t.Fatalf("%s: no page body", pp.Name)
		}
		if pp.Features[features.DownloadObjects] <= 0 {
			t.Fatalf("%s: no objects measured", pp.Name)
		}
		if pp.Features[features.PageWidth] <= 0 || pp.Features[features.PageHeight] <= 0 {
			t.Fatalf("%s: no geometry measured", pp.Name)
		}
		if pp.Features[features.TransmissionTime] <= 0 {
			t.Fatalf("%s: no transmission time measured", pp.Name)
		}
	}
}

// TestFig7CDFShape asserts the paper's landmark quantiles within tolerance:
// 30% under 2 s, 53% under 9 s, 68% under 20 s (Fig. 7).
func TestFig7CDFShape(t *testing.T) {
	ds := dataset(t)
	reads := make([]float64, 0, len(ds.Visits))
	for _, v := range ds.Visits {
		reads = append(reads, v.ReadingSeconds)
	}
	cdf, err := stats.NewCDF(reads)
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	checks := []struct {
		at   float64
		want float64
		tol  float64
	}{
		{2, 0.30, 0.07},
		{9, 0.53, 0.10},
		{20, 0.68, 0.07},
	}
	for _, c := range checks {
		got := cdf.At(c.at)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("P(reading < %.0fs) = %.2f, want %.2f ± %.2f", c.at, got, c.want, c.tol)
		}
	}
}

// TestTable4NoNotableCorrelation asserts reading time has no strong linear
// relationship with any single feature (the paper's Table 4 point).
func TestTable4NoNotableCorrelation(t *testing.T) {
	ds := dataset(t)
	reads := make([]float64, 0, len(ds.Visits))
	for _, v := range ds.Visits {
		reads = append(reads, v.ReadingSeconds)
	}
	for f := 0; f < features.Num; f++ {
		xs := make([]float64, 0, len(ds.Visits))
		for _, v := range ds.Visits {
			xs = append(xs, v.Features[f])
		}
		r, err := stats.Pearson(xs, reads)
		if err != nil {
			t.Fatalf("Pearson(%s): %v", features.Names[f], err)
		}
		if math.Abs(r) > 0.2 {
			t.Errorf("|corr(%s, reading)| = %.3f, want < 0.2", features.Names[f], r)
		}
	}
}

func TestDeterministicSynthesis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 3
	cfg.PoolSize = 6
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if len(a.Visits) != len(b.Visits) {
		t.Fatalf("visit counts differ: %d vs %d", len(a.Visits), len(b.Visits))
	}
	for i := range a.Visits {
		if a.Visits[i] != b.Visits[i] {
			t.Fatalf("visit %d differs: %+v vs %+v", i, a.Visits[i], b.Visits[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 3
	cfg.PoolSize = 6
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	cfg.Seed++
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if len(a.Visits) == len(b.Visits) {
		same := true
		for i := range a.Visits {
			if a.Visits[i].ReadingSeconds != b.Visits[i].ReadingSeconds {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// TestAbandonedVisitsAreShort checks the latent-interest mechanism: visits
// the user is not interested in are quick bounces.
func TestAbandonedVisitsAreShort(t *testing.T) {
	ds := dataset(t)
	abandoned := 0
	longAbandons := 0
	for _, v := range ds.Visits {
		if !v.Interested {
			abandoned++
			if v.ReadingSeconds > 10 {
				longAbandons++
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no abandoned visits synthesized")
	}
	frac := float64(abandoned) / float64(len(ds.Visits))
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("abandon fraction = %.2f, want ≈0.3", frac)
	}
	if float64(longAbandons)/float64(abandoned) > 0.01 {
		t.Fatalf("%d of %d abandons read > 10 s", longAbandons, abandoned)
	}
}

// TestEngagedMedianWithinBounds checks the latent median stays clipped.
func TestEngagedMedianWithinBounds(t *testing.T) {
	ds := dataset(t)
	for _, pp := range ds.Pool {
		if pp.engagedMedian < 1.5 || pp.engagedMedian > 200 {
			t.Fatalf("%s: engaged median %v out of [1.5, 200]", pp.Name, pp.engagedMedian)
		}
	}
}

// TestEngagedMedianVariesAcrossPool: the Fig. 15 learnability requires the
// medians to spread widely across pages.
func TestEngagedMedianVariesAcrossPool(t *testing.T) {
	ds := dataset(t)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pp := range ds.Pool {
		lo = math.Min(lo, pp.engagedMedian)
		hi = math.Max(hi, pp.engagedMedian)
	}
	if hi/lo < 4 {
		t.Fatalf("engaged medians span only [%.1f, %.1f]; too narrow to learn", lo, hi)
	}
}

func TestSessionsStructured(t *testing.T) {
	ds := dataset(t)
	// Session ids are non-decreasing per user.
	last := make(map[int]int)
	for _, v := range ds.Visits {
		if prev, ok := last[v.User]; ok && v.Session < prev {
			t.Fatalf("user %d session went backwards: %d -> %d", v.User, prev, v.Session)
		}
		last[v.User] = v.Session
	}
}
