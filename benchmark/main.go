// Command benchmark is the repository's benchmark of record. One invocation
// runs one workload, checks its outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// Every workload reports the same metrics. With -trace 0 they are the
// end-to-end metrics of BENCHMARK.json, measured with tracing off. With
// -trace 1 they are its per-layer metrics: the benchmark wraps a span around
// each public call it makes into the program, keeps the spans in memory and
// writes them as JSON lines when the run ends. The workload's own layer
// figures go into the report line printed before the result.
//
// Workloads (see README.md for why each was chosen):
//
//	paper      the non-heavy experiment set `eabench -exp all` runs
//	fleet-20k  20,000 adaptive phones, mixed RAN, fading channel
//	fleet-1m   1,000,000 static UMTS phones on an ideal link (folded replay)
//
// Build and run it through run.sh from the repository root, which builds this
// program from the tree being measured:
//
//	bash benchmark/run.sh --workload fleet-1m --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state one workload run reports into.
type env struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	workDir  string
	// rec is nil in untraced runs; its methods are no-ops then.
	rec *recorder

	attempted int
	failed    int
	metrics   map[string]metric
	// report collects the run's published details (samples, deterministic
	// outputs, the workload's own layer figures); it is printed as one JSON
	// line before the result.
	report map[string]any
	// layers holds the traced run's figures that only this workload has;
	// they are published in the report, not as metrics.
	layers map[string]metric
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"paper":     runPaper,
	"fleet-20k": func(e *env) error { return runFleet(e, fleet20k(e.seed)) },
	"fleet-1m":  func(e *env) error { return runFleet(e, fleet1m(e.seed)) },
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	flags := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := flags.String("workload", "", "workload to run: fleet-1m, fleet-20k, paper")
	seed := flags.Int64("seed", 1, "seed the workload's inputs are generated from (paper runs fixed configurations and ignores it)")
	seconds := flags.Int("seconds", 30, "measurement budget in seconds")
	trace := flags.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	workDir := flags.String("work", ".bench_build", "directory for scratch files and span output")
	if err := flags.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return 2, fmt.Errorf("unknown workload %q (have: %v)", *workload, names)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workDir:  *workDir,
		metrics:  map[string]metric{},
		report:   map[string]any{},
		layers:   map[string]metric{},
	}
	if e.traced {
		e.rec = newRecorder()
	}
	e.report["workload"] = *workload
	e.report["seed"] = *seed
	e.report["seconds"] = *seconds
	e.report["trace"] = *trace
	e.report["provenance"] = provenance()
	e.report["machine"] = fingerprint()

	if err := fn(e); err != nil {
		return 1, fmt.Errorf("%s: %w", *workload, err)
	}
	if e.traced {
		if err := e.finishTrace(); err != nil {
			return 1, err
		}
		e.report["layers"] = e.layers
	}
	if err := e.checkDeclared("BENCHMARK.json"); err != nil {
		return 1, err
	}
	res := result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   e.metrics,
	}
	if res.Attempted < 1 {
		return 1, errors.New("no output check ran")
	}
	printMetrics(e.metrics)
	rep, err := json.Marshal(e.report)
	if err != nil {
		return 1, fmt.Errorf("encode report: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, fmt.Errorf("encode result: %w", err)
	}
	fmt.Printf("%s\n%s\n", rep, line)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d output checks failed", res.Failed, res.Attempted)
	}
	return 0, nil
}

// check records one output check; a failed one is also explained on stderr.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		fmt.Fprintf(os.Stderr, "benchmark: check failed: "+format+"\n", args...)
	}
}

func (e *env) set(name string, value float64, unit string) {
	e.metrics[name] = metric{Value: value, Unit: unit}
}

// layer records a traced figure of this workload's own layers.
func (e *env) layer(name string, value float64, unit string) {
	e.layers[name] = metric{Value: value, Unit: unit}
}

// finishTrace writes the spans, publishes their self-time table and reports
// how many were recorded.
func (e *env) finishTrace() error {
	dir := filepath.Join(e.workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := e.rec.writeFile(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(e.rec.spans), path)
	e.report["spans_file"] = path
	e.report["span_self_time"] = e.rec.summary()
	return nil
}

// checkDeclared checks the run's metrics against the benchmark file: the
// run must report every metric of the list its mode reports into, in the
// declared unit, and nothing else.
func (e *env) checkDeclared(path string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "benchmark: %s not found; metric declarations not checked\n", path)
		return nil
	}
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	list, kind := spec.EndToEnd, "end_to_end"
	if e.traced {
		list, kind = spec.PerLayer, "per_layer"
	}
	return checkMetrics(e.metrics, list, kind)
}

// decl is a metric as the benchmark file declares it.
type decl struct{ Name, Unit string }

// checkMetrics compares reported metrics with their declarations.
func checkMetrics(got map[string]metric, declared []decl, kind string) error {
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s, declared in %s, was not reported", d.Name, kind)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %q, %s declares %q", d.Name, m.Unit, kind, d.Unit)
		}
	}
	for name := range got {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %s is not declared in %s", name, kind)
		}
	}
	return nil
}

// printMetrics writes a readable metric table to stderr.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
