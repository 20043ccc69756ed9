#!/usr/bin/env bash
# Full verification: plain Release build + tests, then an ASan+UBSan build
# + tests, then a TSan build running the parallel run-pool and chaos tests.
# The sanitized pass is what gives the chaos harness teeth — a dangling
# coroutine frame or a buffer overrun under injected faults fails here even
# when the plain build happens to pass — and the TSan pass guards the
# work-stealing sweep engine (src/harness/run_pool) against data races.
# The plain and TSan passes additionally run a set of quick bench binaries
# with --trace/--report and validate the JSON artifacts with obs_lint, so a
# schema regression in the observability layer fails CI, not Perfetto.
#
# A coverage stage (--coverage-only, or part of the full run) rebuilds with
# -DNWS_COVERAGE=ON, reruns the test suite and enforces the per-directory
# line-coverage floor in scripts/coverage_baseline.txt via scripts/coverage.py
# (plain gcov JSON + python3 stdlib; no gcovr dependency).
#
# A lint stage (--lint-only, and the first step of the full run) builds and
# runs tools/nwslint over src/ bench/ tests/ examples/ tools/: determinism
# bans, the layer DAG, the obs schema registry and Status discards
# (docs/LINTING.md).  The plain build also compiles with -DNWS_WERROR=ON so
# new warnings fail the build.
#
# Usage: scripts/check.sh [--lint-only|--plain-only|--sanitize-only|--tsan-only|--coverage-only] [--jobs N]
#
# --jobs / -j (or NWS_JOBS) sets both the build parallelism and the
# experiment-sweep parallelism inside the test binaries; 0 or unset means
# one job per hardware thread.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${NWS_JOBS:-$(nproc 2>/dev/null || echo 4)}"
[[ "$jobs" -ge 1 ]] || jobs=$(nproc 2>/dev/null || echo 4)
run_lint=1
run_plain=1
run_sanitize=1
run_tsan=1
run_coverage=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --lint-only) run_plain=0; run_sanitize=0; run_tsan=0; run_coverage=0 ;;
    --plain-only) run_lint=0; run_sanitize=0; run_tsan=0; run_coverage=0 ;;
    --sanitize-only) run_lint=0; run_plain=0; run_tsan=0; run_coverage=0 ;;
    --tsan-only) run_lint=0; run_plain=0; run_sanitize=0; run_coverage=0 ;;
    --coverage-only) run_lint=0; run_plain=0; run_sanitize=0; run_tsan=0 ;;
    --jobs|-j) shift; jobs="${1:?--jobs needs a value}" ;;
    --jobs=*) jobs="${1#--jobs=}" ;;
    *) echo "usage: $0 [--lint-only|--plain-only|--sanitize-only|--tsan-only|--coverage-only] [--jobs N]" >&2; exit 2 ;;
  esac
  shift
done

# Runs one quick bench out of $1/bench with tracing + reporting on and lints
# the artifacts it wrote.  Kept tiny (--quick, 1 repetition, 4 ops) so the
# stage costs seconds while still covering span export, metrics folding and
# the nws-report-v1 schema end to end.  A second pass does the same through
# micro_components, whose artifact plumbing lives outside BenchRunner (it
# wraps google-benchmark's own driver), so its --trace/--report wiring is
# covered separately.
check_artifacts() {
  local build_dir="$1"
  local scratch
  scratch="$(mktemp -d)"
  echo "==> artifact check ($build_dir, fig6_objclass_size --trace/--report)"
  "$build_dir"/bench/fig6_objclass_size --quick --reps=1 --ops=4 \
    --trace="$scratch/trace.json" --report="$scratch/report.json" >/dev/null
  "$build_dir"/bench/obs_lint --schema=scripts/obs_schema.txt \
    --trace="$scratch/trace.json" --report="$scratch/report.json"
  echo "==> artifact check ($build_dir, micro_components --trace/--report)"
  "$build_dir"/bench/micro_components --benchmark_filter=BM_Md5_1KiB \
    --benchmark_min_time=0.01 \
    --trace="$scratch/micro.trace.json" --report="$scratch/micro.report.json" >/dev/null
  "$build_dir"/bench/obs_lint --schema=scripts/obs_schema.txt \
    --trace="$scratch/micro.trace.json" --report="$scratch/micro.report.json"
  # The snapshot bench exercises the epoch.* span/metric namespace, which
  # obs_lint validates as a closed scheme (kinds, names, cross-checks).
  echo "==> artifact check ($build_dir, fig_snapshot_rw --trace/--report)"
  "$build_dir"/bench/fig_snapshot_rw --quick --reps=1 \
    --trace="$scratch/snap.trace.json" --report="$scratch/snap.report.json" >/dev/null
  "$build_dir"/bench/obs_lint --schema=scripts/obs_schema.txt \
    --trace="$scratch/snap.trace.json" --report="$scratch/snap.report.json"
  # The rebuild bench exercises the rebuild.* span/metric namespace (pool-map
  # exclusion, degraded service, resilvering flows).
  echo "==> artifact check ($build_dir, fig_rebuild_interference --trace/--report)"
  "$build_dir"/bench/fig_rebuild_interference --quick --reps=1 \
    --trace="$scratch/rebuild.trace.json" --report="$scratch/rebuild.report.json" >/dev/null
  "$build_dir"/bench/obs_lint --schema=scripts/obs_schema.txt \
    --trace="$scratch/rebuild.trace.json" --report="$scratch/rebuild.report.json"
  # The interface bench exercises the dfs.* span/metric namespace (file
  # system over KV+Array, POSIX emulation) and asserts the native >= dfs >=
  # posix metadata ordering, so an emulation-overhead regression fails here.
  echo "==> artifact check ($build_dir, fig_interfaces --trace/--report)"
  "$build_dir"/bench/fig_interfaces --quick --reps=1 \
    --trace="$scratch/dfs.trace.json" --report="$scratch/dfs.report.json" >/dev/null
  "$build_dir"/bench/obs_lint --schema=scripts/obs_schema.txt \
    --trace="$scratch/dfs.trace.json" --report="$scratch/dfs.report.json"
  rm -rf "$scratch"
}

if [[ $run_lint -eq 1 ]]; then
  echo "==> nwslint (static analysis: determinism, layering, obs schema, status discipline)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DNWS_WERROR=ON
  cmake --build build -j "$jobs" --target nwslint
  ./build/tools/nwslint/nwslint
fi

if [[ $run_plain -eq 1 ]]; then
  echo "==> plain build (build/, -DNWS_WERROR=ON)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DNWS_WERROR=ON
  cmake --build build -j "$jobs"
  NWS_JOBS="$jobs" ctest --test-dir build --output-on-failure -j "$jobs"
  check_artifacts build
fi

if [[ $run_sanitize -eq 1 ]]; then
  echo "==> sanitized build (build-sanitize/, -fsanitize=address,undefined)"
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNWS_SANITIZE=address,undefined
  cmake --build build-sanitize -j "$jobs"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 NWS_JOBS="$jobs" \
    ctest --test-dir build-sanitize --output-on-failure -j "$jobs"
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "==> TSan build (build-tsan/, -fsanitize=thread): run pool + chaos sweep"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNWS_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" --target harness_test chaos_test dfs_test fig6_objclass_size micro_components fig_snapshot_rw fig_rebuild_interference fig_interfaces obs_lint
  # The pool tests pin their own thread counts; the chaos sweep runs a
  # reduced scenario count (TSan is ~10x slower) across all hardware threads
  # to actually exercise cross-thread stealing.  StatsRaceTest hammers the
  # Summary order-statistic cache from 8 const readers — the regression test
  # for the lazily-built sorted_ cache being written under const.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/harness_test --gtest_filter='RunPoolTest.*:StatsRaceTest.*:ExperimentTest.RepeatAndBestOverPpnIdenticalAtAnyJobCount:ExperimentTest.MetricsSnapshotIdenticalAtAnyJobCount'
  TSAN_OPTIONS=halt_on_error=1 NWS_CHAOS_COUNT=24 NWS_JOBS=0 \
    ./build-tsan/tests/chaos_test
  # The dfs property/chaos sweep drives the POSIX emulation's shared
  # metadata mutex and the per-client coroutine interleavings; a reduced
  # case count keeps the TSan stage within seconds.
  TSAN_OPTIONS=halt_on_error=1 NWS_DFS_COUNT=2 \
    ./build-tsan/tests/dfs_test --gtest_filter='DfsPropertyTest.*:DfsChaosTest.*:PosixFsTest.SharedMetadataLockSerialisesProcesses'
  TSAN_OPTIONS=halt_on_error=1 check_artifacts build-tsan
fi

if [[ $run_coverage -eq 1 ]]; then
  echo "==> coverage build (build-coverage/, -DNWS_COVERAGE=ON): line-coverage floor"
  cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug -DNWS_COVERAGE=ON
  cmake --build build-coverage -j "$jobs"
  # Stale counters from a previous run would inflate coverage.
  find build-coverage -name '*.gcda' -delete
  NWS_JOBS="$jobs" ctest --test-dir build-coverage --output-on-failure -j "$jobs"
  python3 scripts/coverage.py build-coverage
fi

echo "==> all checks passed"
