#!/usr/bin/env bash
# Run a benchmark suite and emit a machine-readable perf-trajectory snapshot
# future PRs diff against.
#
# Usage:
#   scripts/bench.sh [-f] [suite] [output.json]
#
# Suites:
#   gbrt  (default)  GBRT training/prediction        -> BENCH_GBRT.json
#   sim              simulation core (visit + fleet) -> BENCH_SIM.json
#   fleet            fleet-at-scale throughput       -> BENCH_FLEET.json
#   serve            easerd request path + eaload    -> BENCH_SERVE.json
#
# The serve suite additionally drives an in-process easerd with cmd/eaload
# (closed-loop saturation on each endpoint plus one open-loop run) and
# appends the reports under a "load" key, so the snapshot records both the
# handler's ns/op+allocs/op and the whole-server req/s at saturation.
#
# For backwards compatibility a single .json argument selects the gbrt suite
# with that output path.
#
# Overwriting a git-tracked snapshot while the working tree is dirty is
# refused (a half-finished change would silently become the committed
# baseline); pass -f to override.
#
# The JSON is an object with run metadata plus one record per benchmark:
#   {"go": "...", "commit": "...", "source_sha256": "...", "dirty": false,
#    "benchmarks": [
#     {"name": "...", "iterations": N, "ns_per_op": ..., "b_per_op": ...,
#      "allocs_per_op": ..., "extra": {"trees": ...}}, ...]}
#
# Parsing is plain awk so the script runs on a bare runner without jq.
set -euo pipefail

cd "$(dirname "$0")/.."
force=0
if [ "${1:-}" = "-f" ]; then
	force=1
	shift
fi
suite="${1:-gbrt}"
case "$suite" in
*.json)
	out="$suite"
	suite="gbrt"
	;;
*)
	out="${2:-}"
	;;
esac

case "$suite" in
gbrt) out="${out:-BENCH_GBRT.json}" ;;
sim) out="${out:-BENCH_SIM.json}" ;;
fleet) out="${out:-BENCH_FLEET.json}" ;;
serve) out="${out:-BENCH_SERVE.json}" ;;
*)
	echo "unknown suite: $suite (want gbrt, sim, fleet or serve)" >&2
	exit 2
	;;
esac

# Refuse to overwrite a committed snapshot from a dirty tree: the snapshot
# records the perf of a commit, and a dirty tree is not one.
if [ "$force" -ne 1 ] && [ -e "$out" ] &&
	git ls-files --error-unmatch "$out" > /dev/null 2>&1 &&
	[ -n "$(git status --porcelain 2>/dev/null)" ]; then
	echo "refusing to overwrite committed snapshot $out on a dirty tree (use -f to override)" >&2
	exit 3
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

case "$suite" in
gbrt)
	# Root-package GBRT benchmarks (train shapes + batch prediction) and the
	# in-package fleet-shape pair, which includes the preserved pre-refactor
	# reference engine so old-vs-new is always measured on the same machine.
	go test -run '^$' -bench '^BenchmarkGBRT' -benchmem -count=1 . | tee -a "$raw"
	go test -run '^$' -bench 'FleetShape' -benchmem -count=1 ./internal/gbrt | tee -a "$raw"
	;;
sim)
	# Steady-state pooled visit (the zero-alloc target CI gates on), its
	# fresh-session baseline, and the fleet experiment end to end.
	go test -run '^$' -bench '^(BenchmarkVisit|BenchmarkVisitFresh)$' \
		-benchmem -count=1 ./internal/experiments | tee -a "$raw"
	go test -run '^$' -bench '^BenchmarkFleetReplay$' -benchtime 3x \
		-benchmem -count=1 ./internal/experiments | tee -a "$raw"
	;;
fleet)
	# Fleet throughput at a fold-dominated population: users_per_sec, visit
	# count and process peak RSS ride along as custom metrics, and CI gates
	# on allocs-per-visit (allocs_per_op / visits).
	go test -run '^$' -bench '^BenchmarkFleetScale$' -benchtime 2x \
		-benchmem -count=1 ./internal/experiments | tee -a "$raw"
	;;
serve)
	# End-to-end handler benchmarks (HTTP request bytes in, response bytes
	# out, through the pooled fast path — the 0 allocs/op CI gate) plus the
	# bare predictor core.
	go test -run '^$' -bench '^(BenchmarkServePredict|BenchmarkServeDecide|BenchmarkServePredictBatch64|BenchmarkPredictCore)$' \
		-benchmem -count=1 ./internal/serve | tee -a "$raw"
	;;
esac

gover="$(go version | awk '{print $3}')"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# commit is HEAD when the snapshot is written, which is the parent of a
# change that regenerates its own snapshot. source_sha256 names the code
# measured: the tracked Go sources (path and content) as they are on disk.
# dirty records whether the tree differed from HEAD.
src_sha="$(git ls-files -z -- '*.go' 'go.mod' '*/go.mod' 2>/dev/null |
	xargs -0 -r sha256sum | sha256sum | cut -d' ' -f1)"
dirty=false
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	dirty=true
fi

awk -v gover="$gover" -v commit="$commit" -v src="$src_sha" -v dirty="$dirty" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
    iters = $2
    ns = ""; b = ""; allocs = ""; extra = ""
    for (i = 3; i < NF; i++) {
      unit = $(i + 1)
      if (unit == "ns/op") ns = $i
      else if (unit == "B/op") b = $i
      else if (unit == "allocs/op") allocs = $i
      else if (unit ~ /^[A-Za-z]/) {
        # custom ReportMetric units, e.g. "400.0 trees"
        split(unit, u, "/")
        if (extra != "") extra = extra ","
        extra = extra "\"" u[1] "\":" $i
      }
    }
    rec = sprintf("{\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s", name, iters, ns)
    if (b != "") rec = rec sprintf(",\"b_per_op\":%s", b)
    if (allocs != "") rec = rec sprintf(",\"allocs_per_op\":%s", allocs)
    if (extra != "") rec = rec sprintf(",\"extra\":{%s}", extra)
    rec = rec "}"
    recs[++n] = rec
  }
  END {
    printf "{\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n", gover, commit
    printf "  \"source_sha256\": \"%s\",\n  \"dirty\": %s,\n  \"benchmarks\": [\n", src, dirty
    for (i = 1; i <= n; i++) printf "    %s%s\n", recs[i], (i < n ? "," : "")
    printf "  ]\n}\n"
  }
' "$raw" > "$out"

if [ "$suite" = "serve" ]; then
	# Whole-server measurements: eaload drives an in-process easerd (fresh
	# demo model per run) over real sockets. Closed-loop saturation on each
	# endpoint answers "req/s this box serves"; one open-loop run at a fixed
	# arrival rate reports coordinated-omission-safe tail latency. Record
	# order is fixed — CI's threshold diff addresses records by position.
	bin="$(mktemp)"
	ldir="$(mktemp -d)"
	trap 'rm -f "$raw" "$bin"; rm -rf "$ldir"' EXIT
	go build -o "$bin" ./cmd/eaload
	"$bin" -inprocess -json -endpoint predict -conns 16 -duration 6s -warmup 2s > "$ldir/1_predict_closed.json"
	"$bin" -inprocess -json -endpoint decide -conns 16 -duration 6s -warmup 2s > "$ldir/2_decide_closed.json"
	"$bin" -inprocess -json -endpoint predict_batch -batch 16 -conns 16 -duration 6s -warmup 2s > "$ldir/3_batch16_closed.json"
	"$bin" -inprocess -json -endpoint predict -rate 20000 -conns 64 -duration 6s -warmup 2s > "$ldir/4_predict_open20k.json"
	tmp="$(mktemp "$out.XXXXXX")"
	{
		sed '$d' "$out" # the closing brace moves below the load array
		printf '  ,"load": [\n'
		first=1
		for f in "$ldir"/*.json; do
			[ "$first" -eq 1 ] || printf '    ,\n'
			first=0
			sed 's/^/    /' "$f"
		done
		printf '  ]\n}\n'
	} > "$tmp"
	mv "$tmp" "$out"
fi

echo "wrote $out"
