#!/bin/sh
# Captures the per-commit performance snapshots and runs the service's CI
# performance gates.
#
#  - BENCH_engine.json: wall-clock times of the figure-driver smokes that
#    stress the simulator's hot paths, plus (when the Google-Benchmark
#    binary was built) the engine, protocol, hash-ring, MPSC-queue and
#    shard-engine micro-benchmarks.
#  - BENCH_service.json: `service_load --gate`. Every gate in its table
#    runs its two modes as 5 interleaved pairs and is judged on the median
#    over the pairs, written with its IQR, samples, threshold and verdict.
#    service_load prints its own summary and exits 1 when a gate fails.
#  - BENCH_tokactl.txt: the operator CLI's merged stats of a live demo
#    cluster; a failed sweep, a watchdog violation or a failed trace stitch
#    fails the script.
#
# Every JSON is stamped with the commit, the host's CPU count and the UTC
# time. The script exits non-zero if a gate or tokactl fails, after writing
# every file.
#
# Usage: bench_snapshot.sh [build-dir] [engine.json] [service.json] [tokactl.txt]
set -eu

build_dir=${1:-build}
out=${2:-BENCH_engine.json}
service_out=${3:-BENCH_service.json}
tokactl_out=${4:-BENCH_tokactl.txt}
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Milliseconds of wall clock for a command, output discarded. GNU date
# gives nanoseconds via %N; BSD/macOS date prints a literal 'N', so fall
# back to whole seconds there.
case $(date +%N) in
  *N*) have_ns=0 ;;
  *)   have_ns=1 ;;
esac
time_ms() {
  if [ "$have_ns" = 1 ]; then
    start=$(date +%s%N)
    "$@" > /dev/null 2>&1
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
  else
    start=$(date +%s)
    "$@" > /dev/null 2>&1
    end=$(date +%s)
    echo $(( (end - start) * 1000 ))
  fi
}

# Provenance stamped into every BENCH_*.json this script produces.
git_sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
run_stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

fig4_ms=$(time_ms "$build_dir/fig4_scale" --quick)
fig2_ms=$(time_ms "$build_dir/fig2_failure_free" --quick)
fig3_ms=$(time_ms "$build_dir/fig3_trace" --quick)

micro_json=null
if [ -x "$build_dir/micro_bench" ]; then
  "$build_dir/micro_bench" \
      --benchmark_filter='BM_(SelectPeer|EventQueue|ChurnToggle|SimulatorThroughput|Protocol|ServiceRoundTrip|HashRing|MpscQueue|ShardOp)' \
      --benchmark_out="$tmpdir/micro.json" --benchmark_out_format=json \
      > /dev/null 2>&1
  micro_json=$(cat "$tmpdir/micro.json")
fi

cat > "$out" <<EOF
{
  "schema": "toka-bench-engine-v1",
  "timestamp": "$run_stamp",
  "commit": "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)",
  "git_sha": "$git_sha",
  "host_cpus": $(nproc 2>/dev/null || echo 1),
  "wall_ms": {
    "fig4_scale_quick": $fig4_ms,
    "fig2_failure_free_quick": $fig2_ms,
    "fig3_trace_quick": $fig3_ms
  },
  "micro_bench": $micro_json
}
EOF

echo "wrote $out (fig4_scale --quick: ${fig4_ms} ms)"

gate_status=0
"$build_dir/service_load" --gate --json="$service_out" --git-sha="$git_sha" \
    || gate_status=$?

"$build_dir/tokactl" stats > "$tokactl_out"
echo "wrote $tokactl_out (tokactl merged cluster stats)"
exit "$gate_status"
