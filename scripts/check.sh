#!/usr/bin/env bash
# HighRPM correctness gate. Runs the same steps as .github/workflows/ci.yml
# so the local gate and CI cannot drift:
#
#   lint      tools/lint/highrpm_lint.py (+ header self-containment compile)
#   werror    Release build with HIGHRPM_WERROR=ON + full ctest
#   golden    ctest -L golden in the werror build: committed reference CSVs
#             (table5/table7/adaptive/attribution) must match the bench
#             output byte for byte; also runs the bench-args arg-hygiene
#             label (usage/exit-code regressions for every bench CLI)
#   property  ctest -L property in the werror build: seeded invariant suites
#   verify    ctest -L verify in the verify-preset build: deterministic
#             model checking of the lock-free serve/obs templates
#             (exhaustive + seeded-random interleaving/read-choice sweeps,
#             mutant-catching gate)
#   perf      ctest -L perf-smoke in a release build: zero-allocation
#             steady-state contract (per-node + batched fleet + serve
#             consume paths) and fleet-stepper determinism
#             (serial == N=1 == N=64 CSVs); then a 3 s perfbench run of
#             each workload that must report correct=true, failed=0:
#             fleet-batch (lanes 0 and 1023 of the batched 1024-lane
#             fleet replayed bit-identically through the serial facade),
#             agent-finetune (every faulted facade estimate finite) and
#             serve-daemon (lane 0's final snapshot bit-identical to a
#             serial facade replay)
#   soak      HIGHRPM_SOAK=1 ctest -L soak in the werror build: long-run
#             daemon determinism (byte-identical final snapshots across
#             consumer thread counts under real producer threads); then the
#             stress tier, the serve, soak, runtime, obs and faults labels
#             under both scheduling regimes: ten until-fail repeats at
#             -j$(nproc) (true concurrency) and one run pinned to one core
#             with taskset -c 0 (preemption-only interleavings) [pinned run
#             skipped if taskset is missing]
#   tidy      clang-tidy over the compile database   [skipped if not installed]
#   asan      full ctest under -fsanitize=address
#   ubsan     full ctest under -fsanitize=undefined (no-recover: UB = failure)
#   tsan      ctest -L sanitize under -fsanitize=thread (pool race-stress)
#   coverage  gcc --coverage build + full ctest + coverage_gate.py threshold
#             (gcovr when installed, gcov fallback)  [only with explicit arg]
#   format    clang-format --dry-run cleanliness     [only with --format;
#                                                     skipped if not installed]
#
# Usage:
#   scripts/check.sh                 # full gate
#   scripts/check.sh lint werror     # selected steps only
#   scripts/check.sh coverage        # coverage build + threshold gate
#   scripts/check.sh --format        # full gate + formatting check
#
# Tools that are not installed (clang-tidy, clang-format) are skipped with a
# notice, never silently: the steps that enforce the same invariants through
# GCC (-Werror warning set) and the project linter always run.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

WANT_FORMAT=0
STEPS=()
for arg in "$@"; do
  case "$arg" in
    --format) WANT_FORMAT=1 ;;
    lint|werror|golden|property|verify|perf|soak|tidy|asan|ubsan|tsan|coverage|format) STEPS+=("$arg") ;;
    *) echo "usage: scripts/check.sh [--format] [lint|werror|golden|property|verify|perf|soak|tidy|asan|ubsan|tsan|coverage|format ...]" >&2
       exit 2 ;;
  esac
done
if [ "${#STEPS[@]}" -eq 0 ]; then
  # coverage is opt-in (it rebuilds the whole tree instrumented); golden and
  # property re-run their labels explicitly even though the werror suite
  # includes them, so a regression names the gate it broke.
  STEPS=(lint werror golden property verify perf soak tidy asan ubsan tsan)
  [ "$WANT_FORMAT" -eq 1 ] && STEPS+=(format)
fi

note()  { printf '\n==> %s\n' "$*"; }
skip()  { printf '    SKIPPED: %s\n' "$*"; }

build_and_test() {  # <preset> <ctest extra args...>
  local preset="$1"; shift
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --test-dir "build-$preset" --output-on-failure -j "$JOBS" "$@"
}

step_lint() {
  note "lint: highrpm_lint.py + header self-containment"
  python3 tools/lint/highrpm_lint.py --compile-headers
}

step_werror() {
  note "werror: Release + strict warnings as errors + full test suite"
  cmake --preset werror >/dev/null
  cmake --build --preset werror -j "$JOBS"
  ctest --test-dir build-werror --output-on-failure -j "$JOBS"
}

ensure_werror_build() {
  if [ ! -d build-werror ]; then
    cmake --preset werror >/dev/null
    cmake --build --preset werror -j "$JOBS"
  fi
}

step_golden() {
  note "golden: committed reference CSVs vs bench output (ctest -L golden)"
  ensure_werror_build
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" -L golden
  note "bench-args: bench argument hygiene (ctest -L bench-args)"
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" -L bench-args
}

step_property() {
  note "property: seeded invariant suites (ctest -L property)"
  ensure_werror_build
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" -L property
}

step_verify() {
  note "verify: model checking the lock-free templates (ctest -L verify)"
  build_and_test verify -L verify
}

step_perf() {
  note "perf: zero-allocation + sharding determinism (ctest -L perf-smoke)"
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS" -L perf-smoke
  local w
  for w in fleet-batch agent-finetune serve-daemon; do
    note "perf: perfbench $w correctness checks (correct, failed == 0)"
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 \
        --trace 0 | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
print("    correct=%s failed=%s attempted=%s" % (r["correct"], r["failed"], r["attempted"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
  done
}

step_soak() {
  note "soak: long-run daemon determinism (HIGHRPM_SOAK=1 ctest -L soak)"
  ensure_werror_build
  HIGHRPM_SOAK=1 ctest --test-dir build-werror --output-on-failure \
    -j "$JOBS" -L soak
  local stress='serve|soak|runtime|obs|faults'
  note "soak: $stress labels, 10 until-fail repeats at -j$JOBS"
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" \
    -L "$stress" --repeat until-fail:10
  note "soak: $stress labels pinned to one core (taskset -c 0)"
  if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 ctest --test-dir build-werror --output-on-failure \
      -L "$stress"
  else
    skip "taskset not installed"
  fi
}

step_coverage() {
  note "coverage: instrumented build + full suite + threshold gate"
  cmake --preset coverage >/dev/null
  cmake --build --preset coverage -j "$JOBS"
  ctest --test-dir build-coverage --output-on-failure -j "$JOBS"
  python3 tools/coverage/coverage_gate.py --build-dir build-coverage
}

step_tidy() {
  note "tidy: clang-tidy (bugprone/performance/concurrency/cert-flp)"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip "clang-tidy not installed"
    return 0
  fi
  cmake --preset werror -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  local sources
  sources=$(git ls-files 'src/**/*.cpp' 'include/highrpm/**/*.hpp')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -p build-werror -quiet $sources
  else
    # shellcheck disable=SC2086
    clang-tidy -p build-werror --quiet $sources
  fi
}

step_asan() {
  note "asan: full test suite under AddressSanitizer"
  build_and_test asan
}

step_ubsan() {
  note "ubsan: full test suite under UBSan (-fno-sanitize-recover)"
  build_and_test ubsan
}

step_tsan() {
  note "tsan: concurrency suite (ctest -L sanitize) under ThreadSanitizer"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L sanitize
}

step_format() {
  note "format: clang-format cleanliness"
  if ! command -v clang-format >/dev/null 2>&1; then
    skip "clang-format not installed"
    return 0
  fi
  git ls-files '*.cpp' '*.hpp' | xargs clang-format --dry-run -Werror
}

for step in "${STEPS[@]}"; do
  "step_$step"
done

note "all requested steps passed: ${STEPS[*]}"
