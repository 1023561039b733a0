#!/usr/bin/env bash
# Tier-2 gate for the COTE repo: one driver that runs every static and
# dynamic check this codebase ships. Exits non-zero if any gate fails,
# and ends with a one-line PASS/SKIP/FAIL summary table per gate.
#
#   1. warnings-as-errors build      (-DCOTE_WERROR=ON, src/ scope)
#   2. full test suite               (ctest on the werror build)
#   3. clang-format check            (--dry-run -Werror; skipped w/ notice
#                                     if clang-format is not installed)
#   4. clang-tidy                    (.clang-tidy profile over src/;
#                                     skipped w/ notice if not installed)
#   5. hot-path purity lint          (tools/hotpath_lint.py)
#   6. determinism lint              (tools/determinism_lint.py: banned
#                                     nondeterminism on the enumeration/
#                                     merge/plan-choice/signature paths +
#                                     sync_inventory.json cross-check +
#                                     fixture selftest)
#   7. thread-safety analysis        (Clang -Wthread-safety -Werror over
#                                     the annotated tree, plus the seeded
#                                     negative fixture, which must FAIL to
#                                     compile; skipped w/ notice when no
#                                     clang++ is installed — the GCC gates
#                                     still prove the macros are no-ops)
#   8. Debug + ASan/UBSan cycle      (-DCOTE_SANITIZE=address,undefined;
#                                     Debug so COTE_DCHECK contracts and
#                                     their death tests run for real — and
#                                     asserts the fault-injection and
#                                     parallel-session suites ran in it)
#   9. TSan cycle                    (-DCOTE_SANITIZE=thread over the
#                                     session + fault-injection + parallel-
#                                     enumerator + compile-service +
#                                     async-executor tests: vets the pool's
#                                     queue cursor, stats merge, the shared
#                                     statement cache, per-query budget
#                                     re-arming, the fault hook's install/
#                                     consult protocol, the rank-
#                                     parallel enumerator's shard fill /
#                                     barrier merge / cancel broadcast, and
#                                     the async executor's condvar/ready-
#                                     queue worker handoff; ends with the
#                                     bounded fixed-seed chaos-soak gate —
#                                     overload + faults + trips + external
#                                     cancels through both front-ends,
#                                     30 s per-test ceiling)
#  10. benchmark helper self-test    (python3 perfbench/run.py --self-test:
#                                     the unit tests of the benchmark's
#                                     own helpers; skipped w/ notice if
#                                     GTest is not installed)
#
# Usage: tools/run_checks.sh [--skip-san] [--jobs N]
#   --skip-san   skip the (slow) sanitizer configure/build/test cycles
#   --jobs N     parallelism for builds and ctest (default: nproc)
#
# Build trees live under build-checks/ (werror), build-checks-san/
# (sanitized Debug), build-checks-tsan/ and build-checks-tsa/ (clang
# thread-safety), plus the benchmark's own .bench_build/; all are
# disposable and gitignored.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_SAN=0

while [ $# -gt 0 ]; do
  case "$1" in
    --skip-san) SKIP_SAN=1 ;;
    --jobs) shift; JOBS="$1" ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

FAILURES=0
GATE_NAMES=()
GATE_STATUSES=()
CURRENT=-1

# gate "<n/total>" "<name>" opens a summary row; fail/skip inside the
# gate downgrade its status (FAIL sticks; SKIP only from PASS, so a gate
# that both skipped something and failed something reports FAIL).
gate() {
  CURRENT=$((CURRENT+1))
  GATE_NAMES+=("$2")
  GATE_STATUSES+=("PASS")
  printf '\n== [%s] %s\n' "$1" "$2"
}
fail() {
  printf 'run_checks: FAIL: %s\n' "$*" >&2
  FAILURES=$((FAILURES+1))
  GATE_STATUSES[$CURRENT]="FAIL"
}
skip() {
  printf 'run_checks: SKIP: %s\n' "$*"
  if [ "${GATE_STATUSES[$CURRENT]}" = "PASS" ]; then
    GATE_STATUSES[$CURRENT]="SKIP"
  fi
}

# ---- 1. warnings-as-errors build ------------------------------------------
gate "1/10" "warnings-as-errors build (COTE_WERROR=ON)"
WERROR_DIR="$ROOT/build-checks"
if cmake -S "$ROOT" -B "$WERROR_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCOTE_WERROR=ON >/dev/null \
   && cmake --build "$WERROR_DIR" -j "$JOBS" >/dev/null; then
  echo "werror build: OK"
else
  fail "werror build (re-run: cmake --build $WERROR_DIR -j $JOBS)"
fi

# ---- 2. full test suite ----------------------------------------------------
gate "2/10" "full test suite (ctest)"
if [ -f "$WERROR_DIR/CTestTestfile.cmake" ]; then
  if (cd "$WERROR_DIR" && ctest -j "$JOBS" --output-on-failure \
        >ctest.log 2>&1); then
    echo "ctest: OK ($(grep -c 'Passed' "$WERROR_DIR/ctest.log" || true) passed)"
  else
    tail -40 "$WERROR_DIR/ctest.log"
    fail "ctest (full log: $WERROR_DIR/ctest.log)"
  fi
else
  fail "ctest: no test tree in $WERROR_DIR (werror build failed?)"
fi

# ---- 3. clang-format (check-only; never reformats) -------------------------
gate "3/10" "clang-format --dry-run -Werror"
if command -v clang-format >/dev/null 2>&1; then
  FMT_FILES="$(cd "$ROOT" && git ls-files 'src/*.h' 'src/*.cc' \
               'tests/*.h' 'tests/*.cc' 'bench/*.cc' 'examples/*.cpp')"
  if (cd "$ROOT" && echo "$FMT_FILES" | xargs clang-format --dry-run -Werror); then
    echo "clang-format: OK"
  else
    fail "clang-format (files diverge from .clang-format; do NOT bulk-reformat — fix the lines you touched)"
  fi
else
  skip "clang-format not installed; .clang-format profile not enforced here"
fi

# ---- 4. clang-tidy ---------------------------------------------------------
gate "4/10" "clang-tidy (.clang-tidy profile over src/)"
if command -v clang-tidy >/dev/null 2>&1; then
  # The werror tree always has a compilation database: the top-level
  # CMakeLists defaults CMAKE_EXPORT_COMPILE_COMMANDS to ON.
  TIDY_SRCS="$(cd "$ROOT" && git ls-files 'src/*.cc')"
  if (cd "$ROOT" && echo "$TIDY_SRCS" | \
        xargs clang-tidy -p "$WERROR_DIR" --quiet); then
    echo "clang-tidy: OK"
  else
    fail "clang-tidy"
  fi
else
  skip "clang-tidy not installed; .clang-tidy profile not enforced here"
fi

# ---- 5. hot-path purity lint ----------------------------------------------
gate "5/10" "hot-path purity lint (tools/hotpath_lint.py)"
if python3 "$ROOT/tools/hotpath_lint.py" --repo-root "$ROOT"; then
  echo "hotpath_lint: OK"
else
  fail "hotpath_lint"
fi

# The session layer owns the warm compile path and the service layer sits
# directly in front of it (admission runs the estimate on every arrival),
# so every src/session/ and src/service/ TU must be registered in the lint
# manifest — new code on those paths cannot dodge the purity check by
# simply not being listed.
MISSING_SESSION=""
for f in "$ROOT"/src/session/*.cc "$ROOT"/src/service/*.cc; do
  rel="${f#"$ROOT"/}"
  if ! grep -q "\"$rel\"" "$ROOT/tools/hotpath_lint.py"; then
    MISSING_SESSION="$MISSING_SESSION $rel"
  fi
done
if [ -n "$MISSING_SESSION" ]; then
  fail "hotpath_lint manifest is missing session/service TU(s):$MISSING_SESSION"
else
  echo "session/service lint manifest coverage: OK"
fi

# ---- 6. determinism lint ---------------------------------------------------
# Selftest first (the lint must still catch its known-bad fixtures —
# otherwise a clean tree result means nothing), then the tree + the
# sync_inventory.json cross-check.
gate "6/10" "determinism lint (tools/determinism_lint.py)"
if python3 "$ROOT/tools/determinism_lint.py" --selftest; then
  echo "determinism_lint selftest: OK"
else
  fail "determinism_lint selftest (the lint itself regressed)"
fi
if python3 "$ROOT/tools/determinism_lint.py" --repo-root "$ROOT"; then
  echo "determinism_lint: OK"
else
  fail "determinism_lint"
fi

# Every scheduling/admission decision must replay bit-identically under a
# virtual clock, so every src/service/ TU must be in the determinism
# manifest too.
MISSING_SERVICE_DET=""
for f in "$ROOT"/src/service/*.cc; do
  rel="src/service/$(basename "$f")"
  if ! grep -q "\"$rel\"" "$ROOT/tools/determinism_lint.py"; then
    MISSING_SERVICE_DET="$MISSING_SERVICE_DET $rel"
  fi
done
if [ -n "$MISSING_SERVICE_DET" ]; then
  fail "determinism_lint manifest is missing service TU(s):$MISSING_SERVICE_DET"
else
  echo "service determinism manifest coverage: OK"
fi

# ---- 7. Clang thread-safety analysis ---------------------------------------
# Builds the annotated tree under -Wthread-safety -Werror (wired into
# COTE_WERROR for Clang in src/CMakeLists.txt) and then proves the
# analysis actually fires by compiling the seeded forgotten-lock fixture,
# which MUST fail. GCC-only machines skip: the macros are no-ops there
# (gates 1/2/8/9 still compile and run them), and
# tests/common/thread_annotations_test re-checks all of this in-suite.
gate "7/10" "Clang thread-safety analysis (-Wthread-safety -Werror)"
if command -v clang++ >/dev/null 2>&1; then
  TSA_DIR="$ROOT/build-checks-tsa"
  if cmake -S "$ROOT" -B "$TSA_DIR" -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOTE_WERROR=ON >/dev/null \
     && cmake --build "$TSA_DIR" -j "$JOBS" \
          --target cote_common cote_query cote_optimizer cote_core \
          cote_service >/dev/null; then
    echo "clang -Wthread-safety build: OK"
  else
    fail "clang -Wthread-safety build (annotations out of sync with locking)"
  fi
  if clang++ -std=c++20 -fsyntax-only -Wthread-safety -Werror \
        -I "$ROOT/src" \
        "$ROOT/tests/common/fixtures/thread_safety_negative.cc" \
        >/dev/null 2>&1; then
    fail "seeded unguarded-access fixture compiled clean: the analysis did not fire"
  else
    echo "negative fixture rejected by -Wthread-safety: OK"
  fi
else
  skip "clang++ not installed; thread-safety analysis not enforced here"
fi

# ---- 8. Debug + ASan/UBSan cycle ------------------------------------------
# Debug (no NDEBUG) turns the COTE_DCHECK contracts on, so this cycle is
# the one that actually executes the debug-only death tests; the
# sanitizers vet the bit-twiddling enumeration fast path. The fault-
# injection and parallel-session suites must demonstrably run inside it —
# their error paths are exactly where sanitizers earn their keep.
if [ "$SKIP_SAN" = 1 ]; then
  gate "8/10" "Debug + ASan/UBSan cycle"
  skip "sanitizer cycle (--skip-san)"
else
  gate "8/10" "Debug + ASan/UBSan cycle (COTE_SANITIZE=address,undefined)"
  SAN_DIR="$ROOT/build-checks-san"
  if cmake -S "$ROOT" -B "$SAN_DIR" -DCMAKE_BUILD_TYPE=Debug \
        -DCOTE_SANITIZE=address,undefined >/dev/null \
     && cmake --build "$SAN_DIR" -j "$JOBS" >/dev/null; then
    for bin in fault_injection_test parallel_session_test; do
      if [ ! -x "$SAN_DIR/tests/$bin" ]; then
        fail "sanitized Debug build did not produce tests/$bin"
      fi
    done
    if (cd "$SAN_DIR" && ctest -j "$JOBS" --output-on-failure \
          >ctest.log 2>&1); then
      echo "sanitized Debug ctest: OK"
      for fixture in SessionFaultTest SessionParallel; do
        if grep -q "$fixture" "$SAN_DIR/ctest.log"; then
          echo "sanitized coverage includes $fixture: OK"
        else
          fail "sanitized ctest ran no $fixture fixtures (suite renamed or not discovered?)"
        fi
      done
    else
      tail -40 "$SAN_DIR/ctest.log"
      fail "sanitized Debug ctest (full log: $SAN_DIR/ctest.log)"
    fi
  else
    fail "sanitized Debug build"
  fi
fi

# ---- 9. TSan cycle over the session layer ----------------------------------
# The pool's synchronization points are the queue cursor, the stats merge
# at join, the mutex-guarded statement cache, and (new with governance) the
# worker-local budget re-arm per claimed query plus the fault hook's
# release/acquire install-consult pair; running the session tests (pool
# determinism, stress, shared-cache contention) and the fault-injection
# suite (SessionFaultTest / SessionPoolFaultTest fixtures — scripted pool
# faults under concurrency) vets all of them. The rank-parallel enumerator
# adds parallel_session_test (SessionParallel* fixtures: shard fill /
# rank-barrier merge, the shared cancel flag, budget fold-and-trip, and
# team teardown under injected faults — this run IS the race-freedom proof
# the golden-equivalence suite assumes). service_test (Service* fixtures)
# runs the compile service's shared core on the simulated loop, and
# async_service_test (AsyncService* fixtures, >= 4 worker threads) races
# the live executor's condvar/ready-queue handoff, the core's Dispatch on
# per-worker warm sessions, and the guarded results sink — the TSan run is
# the dynamic half of the oracle test's determinism claim. chaos_soak_test
# (ChaosSoakServiceTest / ServiceBudgetCancelTest fixtures) is the
# overload-resilience soak: seeded overload + injected faults + budget
# trips + supervisor cancels through both front-ends; it runs as its own
# bounded step below (fixed seeds in the test source, 30 s per-test
# ceiling) so a wedged soak fails the gate instead of hanging it. Only
# these six targets are built — the full suite under TSan would be
# prohibitively slow and single-threaded tests have nothing for TSan to
# find.
if [ "$SKIP_SAN" = 1 ]; then
  gate "9/10" "TSan cycle"
  skip "TSan cycle (--skip-san)"
else
  gate "9/10" "ThreadSanitizer cycle (COTE_SANITIZE=thread, session+service)"
  TSAN_DIR="$ROOT/build-checks-tsan"
  if cmake -S "$ROOT" -B "$TSAN_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCOTE_SANITIZE=thread >/dev/null \
     && cmake --build "$TSAN_DIR" -j "$JOBS" \
          --target session_test fault_injection_test parallel_session_test \
          service_test async_service_test chaos_soak_test >/dev/null; then
    # -R hits the session + service fixtures; unbuilt targets only register
    # lowercase *_NOT_BUILT placeholders, which the regex cannot match.
    # The chaos soak runs as its own bounded step, so exclude it here.
    if (cd "$TSAN_DIR" && ctest -j "$JOBS" -R 'Session|Service' \
          -E 'ChaosSoak|BudgetCancel' --output-on-failure >ctest.log 2>&1); then
      echo "TSan session+service ctest: OK"
    else
      tail -40 "$TSAN_DIR/ctest.log"
      fail "TSan session+service ctest (full log: $TSAN_DIR/ctest.log)"
    fi
    # Bounded chaos-soak gate: the seeds are fixed in the test source, so
    # this is a deterministic replay, and --timeout turns a wedged soak
    # (lost ticket, stuck Drain, supervisor deadlock) into a FAIL within
    # 30 s per test instead of hanging the whole gate.
    if (cd "$TSAN_DIR" && ctest -j "$JOBS" -R 'ChaosSoak|BudgetCancel' \
          --timeout 30 --output-on-failure >ctest-chaos.log 2>&1); then
      if grep -q 'ChaosSoakServiceTest' "$TSAN_DIR/ctest-chaos.log"; then
        echo "TSan chaos-soak gate: OK"
      else
        fail "TSan chaos gate ran no ChaosSoakServiceTest fixtures (suite renamed or not discovered?)"
      fi
    else
      tail -40 "$TSAN_DIR/ctest-chaos.log"
      fail "TSan chaos-soak gate (full log: $TSAN_DIR/ctest-chaos.log)"
    fi
  else
    fail "TSan build"
  fi
fi

# ---- 10. benchmark helper self-test ----------------------------------------
# The repository benchmark (perfbench/) is a stand-alone CMake package; its
# helper unit tests build only on request and only where GTest is found, so
# a GTest-less machine skips this gate instead of failing it.
gate "10/10" "benchmark helper self-test (perfbench/run.py --self-test)"
PERFBENCH_DIR="$ROOT/.bench_build/perfbench"
mkdir -p "$ROOT/.bench_build"
if (cd "$ROOT" && python3 perfbench/run.py --self-test \
      >"$ROOT/.bench_build/self-test.log" 2>&1); then
  echo "perfbench self-test: OK ($(grep -c '^\[       OK \]' \
    "$ROOT/.bench_build/self-test.log" || true) tests)"
elif [ -f "$PERFBENCH_DIR/CMakeCache.txt" ] && \
     ! cmake --build "$PERFBENCH_DIR" --target help 2>/dev/null | \
       grep -q perfbench_test; then
  skip "GTest not found by perfbench/CMakeLists.txt; helper self-test not run"
else
  tail -40 "$ROOT/.bench_build/self-test.log"
  fail "perfbench self-test (full log: $ROOT/.bench_build/self-test.log)"
fi

# ---------------------------------------------------------------------------
printf '\n== gate summary\n'
i=0
while [ $i -le $CURRENT ]; do
  printf '  %-4s  %s\n' "${GATE_STATUSES[$i]}" "${GATE_NAMES[$i]}"
  i=$((i+1))
done
printf '\n'
if [ "$FAILURES" -gt 0 ]; then
  echo "run_checks: $FAILURES gate(s) FAILED"
  exit 1
fi
echo "run_checks: all gates passed"
