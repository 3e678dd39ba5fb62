#!/usr/bin/env bash
# Tier-1 verify: a lint gate plus four build/test legs, on a clean export.
#   0. Lint      — scripts/lint.sh: snnmap-lint determinism/contract rules
#                  (always), clang-tidy + clang-format when the toolchain
#                  has them (each skipped with a notice otherwise).
#   1. Debug     — assertions and debug-only checks live, warnings-as-errors.
#   2. Release   — -O3 -DNDEBUG, the configuration the benchmarks and the
#                  perf acceptance numbers (scripts/bench.sh) are measured in.
#   3. Sanitize  — Debug + AddressSanitizer + UndefinedBehaviorSanitizer
#                  (-fno-sanitize-recover, so any finding fails the leg).
#   4. TSan      — Debug + ThreadSanitizer over the concurrency surface:
#                  the ThreadPool suite plus the batch-evaluator and
#                  determinism suites that drive it from many threads.
#   5. perfbench — `perfbench/run.py --self-check`: builds the end-to-end
#                  benchmark harness against src/ (no CTest compiles it)
#                  and runs every workload at reduced size.
# Legs 1-3 run the full CTest suite, so optimization-dependent breakage
# (UB, fragile float expectations) and memory errors surface here and not
# in a profile run.  Leg 4 runs the filtered concurrency subset (TSan's
# 5-15x slowdown makes the full suite impractical).  Skips:
#   SKIP_LINT=1      drop leg 0
#   SKIP_SANITIZE=1  drop leg 3 (e.g. on toolchains without libasan)
#   SKIP_TSAN=1      drop leg 4 (e.g. on toolchains without libtsan)
# Every leg runs on a clean export of the committed tree (`git archive
# HEAD`), never on the working tree, so an untracked file a test needs (a
# fixture that was never committed) fails here as it would in a fresh clone.
# Uncommitted edits are therefore not tested: commit first.  The export and
# its build trees live in a temporary directory that is removed on exit.
# Perf is gated separately: scripts/bench.sh --check compares the Release
# benchmarks against the committed BENCH_*.json trajectories.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
export_dir=$(mktemp -d "${TMPDIR:-/tmp}/snnmap-ci.XXXXXX")
trap 'rm -rf "$export_dir"' EXIT
git -C "$repo" archive HEAD | tar -x -C "$export_dir"
if [[ -n "$(git -C "$repo" status --porcelain)" ]]; then
  echo "note: uncommitted or untracked changes are not part of this run"
fi
echo "=== ci: testing $(git -C "$repo" rev-parse --short HEAD) in $export_dir ==="
cd "$export_dir"

JOBS=${JOBS:-$(nproc)}

run_leg() {
  local build_type=$1
  local build_dir=$2
  shift 2
  echo "=== ci leg: ${build_type} (${build_dir}) $* ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE="$build_type" \
    -DSNNMAP_WERROR=ON \
    "$@"
  cmake --build "$build_dir" -j "$JOBS"
  # The benchmark suites (BENCH_*.json trajectories) are part of the `all`
  # target, so the build above compiles them whenever Google Benchmark is
  # available; assert every binary actually materialized so a silently
  # skipped/ungenerated target cannot pass the leg.
  if ! grep -q "benchmark_DIR:PATH=benchmark_DIR-NOTFOUND" \
      "$build_dir/CMakeCache.txt"; then
    for bench in noc_sim_benchmarks snn_sim_benchmarks cosim_benchmarks \
        energy_benchmarks fault_benchmarks obs_benchmarks; do
      if [[ ! -x "$build_dir/bench/$bench" ]]; then
        echo "$bench did not build despite Google Benchmark" >&2
        exit 1
      fi
    done
  else
    echo "note: benchmark targets absent (Google Benchmark missing)"
  fi
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

if [[ "${SKIP_LINT:-0}" != "1" ]]; then
  echo "=== ci leg: lint ==="
  scripts/lint.sh
fi

run_leg Debug "${DEBUG_BUILD_DIR:-build-debug}"
run_leg Release "${BUILD_DIR:-build}"
if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  run_leg Debug "${SANITIZE_BUILD_DIR:-build-asan}" \
    -DSNNMAP_SANITIZE=address,undefined
fi

# Dedicated block rather than run_leg: benches and examples are off here
# (TSan rebuild cost buys no coverage there), which would trip run_leg's
# bench-binary assertion.
if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  tsan_dir="${TSAN_BUILD_DIR:-build-tsan}"
  echo "=== ci leg: Debug (${tsan_dir}) -DSNNMAP_SANITIZE=thread ==="
  cmake -B "$tsan_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSNNMAP_WERROR=ON \
    -DSNNMAP_SANITIZE=thread \
    -DSNNMAP_BUILD_BENCH=OFF \
    -DSNNMAP_BUILD_EXAMPLES=OFF
  cmake --build "$tsan_dir" -j "$JOBS"
  # The concurrency surface: the pool itself, the evaluators that share it
  # across worker threads, and the determinism suites that run serial vs
  # parallel back to back.  --no-tests=error so a filter typo (or a suite
  # rename) fails loudly instead of green-skipping the leg.
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$JOBS" \
    --no-tests=error \
    -R '^util\.ThreadPool|^core\.Determinism|^core\.Batch(Noc)?Evaluator'
fi

# The benchmark harness is frozen and builds from src/, but nothing above
# compiles it, so a src/ API change that breaks it would otherwise surface
# only when the benchmark runs.
echo "=== ci leg: perfbench self-check ==="
python3 perfbench/run.py --self-check
