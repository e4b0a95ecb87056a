#!/usr/bin/env bash
# Continuous-integration gate: tier-1 build + tests, then the randomized
# differential-testing smoke. Usage:
#
#   scripts/ci.sh [build-dir]          # default gate (build + ctest + fuzz)
#   scripts/ci.sh --asan [build-dir]   # same gate under AddressSanitizer
#   scripts/ci.sh --tsan [build-dir]   # same gate under ThreadSanitizer
#
# The fuzz leg runs mucyc-fuzz twice with the same fixed seed and requires
# the reports to be byte-identical — the determinism contract every
# checked-in repro depends on — and, of course, zero oracle violations.
# The instance mix includes the "inc" domain, so every run is also an
# IncrementalEquivalence smoke (random push/assert/check/pop scripts vs.
# a one-shot reference solver). A third run with --no-incremental then
# byte-compares the per-instance chc consensus verdicts against the
# default run: the incremental backend (solver pool + query cache) must
# be verdict-equivalent to fresh solvers on the whole suite.
# A chaos leg solves a fixed-seed batch under deterministic fault
# injection (twice, byte-compared): injected faults may only degrade
# verdicts, never flip them or crash the runtime.
# The share legs cover the cooperative portfolio: a fixed-seed blind-vs-
# cooperative fuzz batch (twice, byte-compared — the share oracle runs its
# members sequentially, so its report is deterministic), a fixed suite run
# through the real threaded portfolio with --share-lemmas on and off whose
# verdict lines must be byte-identical (sharing may rescue members, never
# flip an answer), the portfolio_coop benchmark enforcing the cooperative
# no-regression floor on summed SMT checks (BENCH_portfolio.json), and —
# in the default gate — the lemma-bus stress tests rebuilt and rerun under
# ThreadSanitizer.
# The arith legs gate the small-value arithmetic fast path: the fixed-seed
# CHC fuzz suite is replayed under MUCYC_FORCE_HEAP=1 (twice, byte-compared
# for determinism) and its consensus verdict lines must be byte-identical
# to the default run's — the heap representation is the reference
# semantics, so a verdict that moves under the knob is a fast-path bug. A
# dedicated arith fuzz batch runs the op-level fast-vs-slow differential,
# and the micro_arith benchmark enforces the small-value speedup floor via
# its exit status (BENCH_arith.json).
# The ts legs gate the BTOR2 transition-system frontend: a fixed-seed batch
# of generated hardware-style state machines is pushed through the
# parse/print round trip, the alpha-invariant re-encode fingerprint check,
# and the four-engine race against BMC ground truth (twice, byte-compared;
# the same leg also runs in the --asan gate), the ts_suite benchmark
# records the counter+FIFO hardware-workload baseline (BENCH_ts.json), and
# the serve section replays the golden .btor2 corpus through the daemon
# cold and alpha-renamed-warm — renamed hardware designs must be answered
# from the Verify-certified store just like renamed CHC systems.
# The robustness legs gate the crash-isolation tier: the isolate-labeled
# ctest smoke (forked workers dying by signal/rlimit/wedge classify into
# typed Unknowns), the serve_crash benchmark enforcing the isolation
# overhead ceiling and the 100% chaos-availability floor
# (BENCH_robustness.json), and a chaos replay of the exported suite
# through a --isolate crash daemon with the service-boundary fault plan
# armed — run twice on fresh stores, byte-compared, and checked against
# the offline verdicts for flips (degrading to unknown is allowed,
# flipping a definitive answer is not).
# The perfbench leg builds the end-to-end benchmark (perfbench/, its own
# Release copy of the library in .bench_build/perfbench) and runs its unit
# tests, so a runtime API change that breaks the benchmark programs fails
# here; the traced program's link checks the signatures of the entry points
# it interposes. Short fig2, btor2 and serve runs then pin the benchmark's
# work digests, so a speed-up that moves any fixed-budget trajectory fails;
# serve is the one that solves in the daemon's forked workers.
# A source gate runs first: src/ may read no environment variable but
# MUCYC_FORCE_HEAP (the forced-heap leg's knob), so no hidden switch can
# change what the solver does without showing in a report.
# Seed and instance count are fixed so CI failures replay locally with
# exactly one command (printed on failure).
set -eu

ASAN=0
TSAN=0
if [ "${1:-}" = "--asan" ]; then
  ASAN=1
  shift
elif [ "${1:-}" = "--tsan" ]; then
  TSAN=1
  shift
fi
BUILD=${1:-build}
if [ "$ASAN" = 1 ]; then
  BUILD=${1:-build-asan}
elif [ "$TSAN" = 1 ]; then
  BUILD=${1:-build-tsan}
fi

FUZZ_SEED=20240801
FUZZ_N=500
CHAOS_SEED=20240802
CHAOS_N=300
SHARE_SEED=20240803
SHARE_N=120
TS_SEED=20260808
TS_N=200
SHARE_BUDGET=300
SHARE_PORTFOLIO="SpacerTS(fig1),Ret(T,MBP(1)),Yld(T,MBP(1))"

echo "== source: no environment reads in src/ but MUCYC_FORCE_HEAP =="
ENV_READS=$(grep -rnE '\b(secure_)?getenv\b|\benviron\b' src \
            | grep -v 'getenv("MUCYC_FORCE_HEAP")' || true)
if [ -n "$ENV_READS" ]; then
  echo "$ENV_READS" >&2
  echo "FAIL: src/ reads an environment variable other than" \
       "MUCYC_FORCE_HEAP" >&2
  exit 1
fi

echo "== configure ($BUILD) =="
if [ "$ASAN" = 1 ]; then
  cmake -B "$BUILD" -S . -DMUCYC_SANITIZE=address
elif [ "$TSAN" = 1 ]; then
  cmake -B "$BUILD" -S . -DMUCYC_SANITIZE=thread
else
  cmake -B "$BUILD" -S .
fi

echo "== build =="
cmake --build "$BUILD" -j "$(nproc)"

echo "== tier-1 tests =="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")

echo "== fuzz smoke: $FUZZ_N instances, seed $FUZZ_SEED =="
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
run_fuzz() {
  "$BUILD"/examples/mucyc-fuzz --seed "$FUZZ_SEED" --n "$FUZZ_N" \
    --repro-dir "$1" --verdicts "$2"
}
if ! run_fuzz "$OUT/repros" "$OUT/verdicts_a.txt" >"$OUT/a.txt"; then
  cat "$OUT/a.txt"
  echo "FAIL: oracle violations; shrunk repros in $OUT/repros/" >&2
  echo "replay: $BUILD/examples/mucyc-fuzz --seed $FUZZ_SEED --n $FUZZ_N" >&2
  trap - EXIT # Keep the repros for the developer.
  exit 1
fi

echo "== fuzz determinism: second run must be byte-identical =="
run_fuzz "$OUT/repros2" "$OUT/verdicts_b.txt" >"$OUT/b.txt"
if ! cmp -s "$OUT/a.txt" "$OUT/b.txt"; then
  diff -u "$OUT/a.txt" "$OUT/b.txt" | head -40 >&2
  echo "FAIL: fuzz report is not deterministic" >&2
  exit 1
fi
if ! cmp -s "$OUT/verdicts_a.txt" "$OUT/verdicts_b.txt"; then
  echo "FAIL: chc verdict lines are not deterministic" >&2
  exit 1
fi
tail -2 "$OUT/a.txt"

echo "== incremental differential: --no-incremental must match verdicts =="
if ! "$BUILD"/examples/mucyc-fuzz --seed "$FUZZ_SEED" --n "$FUZZ_N" \
    --no-incremental --repro-dir "$OUT/repros3" \
    --verdicts "$OUT/verdicts_fresh.txt" >"$OUT/c.txt"; then
  cat "$OUT/c.txt"
  echo "FAIL: oracle violations under --no-incremental" >&2
  exit 1
fi
if ! cmp -s "$OUT/verdicts_a.txt" "$OUT/verdicts_fresh.txt"; then
  diff -u "$OUT/verdicts_a.txt" "$OUT/verdicts_fresh.txt" | head -40 >&2
  echo "FAIL: incremental and fresh-solver chc verdicts differ" >&2
  echo "replay: $BUILD/examples/mucyc-fuzz --seed $FUZZ_SEED" \
       "--n $FUZZ_N [--no-incremental] --verdicts FILE" >&2
  exit 1
fi

echo "== forced-heap differential: verdicts must survive MUCYC_FORCE_HEAP =="
# The same $FUZZ_N-instance suite with every BigInt routed onto heap limbs.
# Two forced runs must be byte-identical (the knob must not perturb any
# seed stream), and the consensus verdicts must match the default run's:
# representation choice is unobservable above the arithmetic layer.
run_forced() {
  MUCYC_FORCE_HEAP=1 "$BUILD"/examples/mucyc-fuzz --seed "$FUZZ_SEED" \
    --n "$FUZZ_N" --repro-dir "$1" --verdicts "$2"
}
if ! run_forced "$OUT/repros_fh" "$OUT/verdicts_fh_a.txt" >"$OUT/fh_a.txt"; then
  cat "$OUT/fh_a.txt"
  echo "FAIL: oracle violations under MUCYC_FORCE_HEAP=1" >&2
  echo "replay: MUCYC_FORCE_HEAP=1 $BUILD/examples/mucyc-fuzz" \
       "--seed $FUZZ_SEED --n $FUZZ_N" >&2
  trap - EXIT
  exit 1
fi
run_forced "$OUT/repros_fh2" "$OUT/verdicts_fh_b.txt" >"$OUT/fh_b.txt"
if ! cmp -s "$OUT/fh_a.txt" "$OUT/fh_b.txt"; then
  diff -u "$OUT/fh_a.txt" "$OUT/fh_b.txt" | head -40 >&2
  echo "FAIL: forced-heap fuzz report is not deterministic" >&2
  exit 1
fi
if ! cmp -s "$OUT/verdicts_fh_a.txt" "$OUT/verdicts_fh_b.txt"; then
  echo "FAIL: forced-heap verdict lines are not deterministic" >&2
  exit 1
fi
if ! cmp -s "$OUT/verdicts_a.txt" "$OUT/verdicts_fh_a.txt"; then
  diff -u "$OUT/verdicts_a.txt" "$OUT/verdicts_fh_a.txt" | head -40 >&2
  echo "FAIL: MUCYC_FORCE_HEAP changed a chc consensus verdict" >&2
  echo "replay: MUCYC_FORCE_HEAP=1 $BUILD/examples/mucyc-fuzz" \
       "--seed $FUZZ_SEED --n $FUZZ_N --verdicts FILE" >&2
  exit 1
fi
echo "forced-heap differential: verdicts identical across representations"

echo "== arith smoke: op-level fast-vs-forced-heap differential =="
ARITH_SEED=20240804
ARITH_N=200
if ! "$BUILD"/examples/mucyc-fuzz --domains arith --seed "$ARITH_SEED" \
    --n "$ARITH_N" >"$OUT/arith.txt"; then
  cat "$OUT/arith.txt"
  echo "FAIL: arith fast/slow oracle violations" >&2
  echo "replay: $BUILD/examples/mucyc-fuzz --domains arith" \
       "--seed $ARITH_SEED --n $ARITH_N" >&2
  exit 1
fi
tail -2 "$OUT/arith.txt"

echo "== ts smoke: $TS_N BTOR2 transition systems, seed $TS_SEED =="
# Generated hardware-style state machines through the whole frontend:
# parse/print round trip, alpha-invariant re-encode fingerprint, then the
# four-engine race against k-step BMC ground truth. Two same-seed runs
# must be byte-identical in both the report and the per-instance verdict
# lines — checked-in .btor2 repros depend on it.
run_ts() {
  "$BUILD"/examples/mucyc-fuzz --domains ts --seed "$TS_SEED" \
    --n "$TS_N" --repro-dir "$1" --verdicts "$2"
}
if ! run_ts "$OUT/ts_repros" "$OUT/ts_verdicts_a.txt" >"$OUT/ts_a.txt"; then
  cat "$OUT/ts_a.txt"
  echo "FAIL: ts oracle violations; repros in $OUT/ts_repros/" >&2
  echo "replay: $BUILD/examples/mucyc-fuzz --domains ts" \
       "--seed $TS_SEED --n $TS_N" >&2
  trap - EXIT
  exit 1
fi
run_ts "$OUT/ts_repros2" "$OUT/ts_verdicts_b.txt" >"$OUT/ts_b.txt"
if ! cmp -s "$OUT/ts_a.txt" "$OUT/ts_b.txt"; then
  diff -u "$OUT/ts_a.txt" "$OUT/ts_b.txt" | head -40 >&2
  echo "FAIL: ts report is not deterministic" >&2
  exit 1
fi
if ! cmp -s "$OUT/ts_verdicts_a.txt" "$OUT/ts_verdicts_b.txt"; then
  echo "FAIL: ts verdict lines are not deterministic" >&2
  exit 1
fi
tail -2 "$OUT/ts_a.txt"

echo "== chaos smoke: $CHAOS_N fault-injected instances, seed $CHAOS_SEED =="
# Every instance is solved clean and under deterministic fault injection;
# injected faults may only degrade verdicts to Unknown, never flip them or
# crash the runtime. Two same-seed runs must be byte-identical — the
# determinism contract of the fault schedules themselves.
run_chaos() {
  "$BUILD"/examples/mucyc-fuzz --domains chaos --seed "$CHAOS_SEED" \
    --n "$CHAOS_N" --repro-dir "$1"
}
if ! run_chaos "$OUT/chaos_repros" >"$OUT/chaos_a.txt"; then
  cat "$OUT/chaos_a.txt"
  echo "FAIL: chaos oracle violations; repros in $OUT/chaos_repros/" >&2
  echo "replay: $BUILD/examples/mucyc-fuzz --domains chaos" \
       "--seed $CHAOS_SEED --n $CHAOS_N" >&2
  trap - EXIT
  exit 1
fi
run_chaos "$OUT/chaos_repros2" >"$OUT/chaos_b.txt"
if ! cmp -s "$OUT/chaos_a.txt" "$OUT/chaos_b.txt"; then
  diff -u "$OUT/chaos_a.txt" "$OUT/chaos_b.txt" | head -40 >&2
  echo "FAIL: chaos report is not deterministic" >&2
  exit 1
fi
tail -2 "$OUT/chaos_a.txt"

echo "== share smoke: $SHARE_N blind-vs-cooperative instances, seed $SHARE_SEED =="
# Every instance is solved blind and cooperatively (all engines on one
# lemma-exchange bus); sharing may only degrade verdicts to Unknown, never
# flip them. The oracle runs its members sequentially in config order, so
# two same-seed runs must be byte-identical.
run_share() {
  "$BUILD"/examples/mucyc-fuzz --domains share --seed "$SHARE_SEED" \
    --n "$SHARE_N" --repro-dir "$1"
}
if ! run_share "$OUT/share_repros" >"$OUT/share_a.txt"; then
  cat "$OUT/share_a.txt"
  echo "FAIL: share oracle violations; repros in $OUT/share_repros/" >&2
  echo "replay: $BUILD/examples/mucyc-fuzz --domains share" \
       "--seed $SHARE_SEED --n $SHARE_N" >&2
  trap - EXIT
  exit 1
fi
run_share "$OUT/share_repros2" >"$OUT/share_b.txt"
if ! cmp -s "$OUT/share_a.txt" "$OUT/share_b.txt"; then
  diff -u "$OUT/share_a.txt" "$OUT/share_b.txt" | head -40 >&2
  echo "FAIL: share report is not deterministic" >&2
  exit 1
fi
tail -2 "$OUT/share_a.txt"

echo "== share portfolio: --share-lemmas must not change suite verdicts =="
# The real threaded portfolio over the exported suite, with and without
# the exchange, under the same deterministic refine budget. Every member's
# own outcome is budget-bounded and deterministic, so the printed verdict
# is too — and sharing is only allowed to change who wins and how much work
# the race does, never what it answers.
"$BUILD"/examples/export_suite "$OUT/share_suite" >/dev/null
ls "$OUT/share_suite"/*.smt2 >"$OUT/share_files.txt"
run_suite_portfolio() { # $1 = extra flags, $2 = out file
  while read -r F; do
    # shellcheck disable=SC2086
    S=$("$BUILD"/examples/mucyc --portfolio "$SHARE_PORTFOLIO" \
        --max-refine-steps "$SHARE_BUDGET" $1 "$F" || true)
    echo "$(basename "$F") $S"
  done <"$OUT/share_files.txt" >"$2"
}
run_suite_portfolio "" "$OUT/blind_verdicts.txt"
run_suite_portfolio "--share-lemmas" "$OUT/coop_verdicts.txt"
if ! cmp -s "$OUT/blind_verdicts.txt" "$OUT/coop_verdicts.txt"; then
  diff -u "$OUT/blind_verdicts.txt" "$OUT/coop_verdicts.txt" | head -40 >&2
  echo "FAIL: --share-lemmas changed a portfolio verdict" >&2
  exit 1
fi
echo "share portfolio: $(wc -l <"$OUT/blind_verdicts.txt") instances," \
     "verdicts identical with and without the exchange"

echo "== cooperative benchmark: no-regression floor on summed SMT checks =="
# Blind vs. cooperative over the fixed instance mix; writes
# BENCH_portfolio.json at the repo root and fails below the 1.5x floor or
# on any unsound verdict.
"$BUILD"/bench/portfolio_coop --json BENCH_portfolio.json

echo "== arith benchmark: small-value fast-path floor =="
# Replays the frontier-biased operand mix on the fast path and under
# ScopedForceHeap; the digests must match and the fast path must clear the
# 3x floor. Writes BENCH_arith.json at the repo root; exit status 3 means
# the floor was missed.
"$BUILD"/bench/micro_arith --json BENCH_arith.json

echo "== ts benchmark: hardware-workload baseline =="
# Counter and FIFO families through the BTOR2 frontend under the default
# engine; writes BENCH_ts.json at the repo root so later perf PRs have a
# hardware trajectory, and fails on any verdict that contradicts the
# family's expected answer.
"$BUILD"/bench/ts_suite --json BENCH_ts.json

echo "== robustness benchmark: isolation overhead + chaos availability =="
# Leg 1 compares inline vs crash-isolated solveRequest wall clocks (the
# fork tax must stay under 2x); leg 2 drives an in-process daemon under an
# armed chaos plan and requires 100% well-formed replies, zero verdict
# flips, and a restart scan that quarantines every torn store write.
# Writes BENCH_robustness.json at the repo root.
"$BUILD"/bench/serve_crash --json BENCH_robustness.json

if [ "$ASAN" = 0 ] && [ "$TSAN" = 0 ]; then
  echo "== perfbench: benchmark programs build and self-test =="
  # --selftest configures .bench_build/perfbench, builds and runs the
  # benchmark's gtests; then both benchmark programs are built, the traced
  # one through its static_assert-pinned, --wrap-interposed entry points.
  python3 perfbench/run.py --selftest
  cmake --build .bench_build/perfbench -j "$(nproc)" \
    --target perfbench perfbench_traced

  echo "== perfbench digests: fixed-budget trajectories must not move =="
  # The work digest covers every pair's verdict with its refine and SMT
  # check counts at the benchmark's fixed refine budgets, so a performance
  # change that moves a single trajectory fails here. A change that moves
  # one on purpose updates the constant and says why in CHANGES.md.
  check_digest() { # $1 = workload, $2 = expected digest
    GOT=$(python3 perfbench/run.py --workload "$1" --seconds 4 2>/dev/null \
          | tail -2 | head -1 \
          | python3 -c 'import json,sys; print(json.load(sys.stdin)["diagnostics"]["digest"])') \
      || GOT="(no digest: the run failed)"
    if [ "$GOT" != "$2" ]; then
      echo "FAIL: perfbench $1 digest is $GOT, expected $2" >&2
      echo "replay: python3 perfbench/run.py --workload $1 --seconds 4" >&2
      exit 1
    fi
    echo "perfbench $1 digest: $GOT"
  }
  check_digest fig2 1223420e06050e47
  check_digest btor2 e133c067aa54b537
  check_digest serve 7cfac36bade9e555
fi

if [ "$ASAN" = 0 ] && [ "$TSAN" = 0 ]; then
  echo "== tsan: lemma-bus stress under ThreadSanitizer =="
  # The concurrent half of the exchange (the share oracle and the CI legs
  # above run members sequentially for determinism) is raced here: rebuild
  # the test suite with -fsanitize=thread and run the exchange tests,
  # including the publish/fetch stress and a real threaded cooperative
  # race.
  cmake -B build-tsan -S . -DMUCYC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target mucyc_tests
  (cd build-tsan && ctest -R 'ExchangeTest' --output-on-failure)
fi

echo "== serve smoke: daemon replay must match offline verdicts =="
# Start mucyc-serve on a UNIX socket with a fresh store, replay the
# exported suite through mucyc-client, and require the verdict lines to be
# byte-identical to offline single-shot mucyc on the same files (both under
# the same deterministic refine-step budget). A second, alpha-renamed pass
# against the warm daemon must then be answered entirely from the
# Verify-certified result store.
# Bounds every engine run so the leg is fast and its verdicts are a
# deterministic function of the instance (a few budget-bounded unknowns
# are expected and also exercise the unknowns-stay-cold path).
SERVE_BUDGET=300
"$BUILD"/examples/export_suite "$OUT/suite" >/dev/null
ls "$OUT/suite"/*.smt2 | head -50 >"$OUT/suite_files.txt"

mkdir -p "$OUT/suite_renamed"
while read -r F; do
  # Alpha-rename: every bound variable and the predicate get new names.
  sed -e 's/bm!/al!/g' -e 's/(declare-fun P /(declare-fun Q /' \
      -e 's/(P /(Q /g' "$F" >"$OUT/suite_renamed/$(basename "$F")"
done <"$OUT/suite_files.txt"

"$BUILD"/examples/mucyc-serve --socket "$OUT/serve.sock" \
  --store-dir "$OUT/serve-store" --max-refine-steps "$SERVE_BUDGET" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null; rm -rf "$OUT"' EXIT
for _ in $(seq 100); do
  [ -S "$OUT/serve.sock" ] && break
  sleep 0.1
done

xargs "$BUILD"/examples/mucyc-client --socket "$OUT/serve.sock" \
  <"$OUT/suite_files.txt" >"$OUT/serve_verdicts.txt"

while read -r F; do
  S=$("$BUILD"/examples/mucyc --max-refine-steps "$SERVE_BUDGET" "$F" \
      || true)
  echo "$(basename "$F") $S"
done <"$OUT/suite_files.txt" >"$OUT/offline_verdicts.txt"
if ! cmp -s "$OUT/serve_verdicts.txt" "$OUT/offline_verdicts.txt"; then
  diff -u "$OUT/offline_verdicts.txt" "$OUT/serve_verdicts.txt" | head -40 >&2
  echo "FAIL: daemon verdicts differ from offline mucyc" >&2
  exit 1
fi

echo "== serve warm cache: renamed resubmission must hit the store =="
sed "s,$OUT/suite/,$OUT/suite_renamed/," "$OUT/suite_files.txt" \
  >"$OUT/renamed_files.txt"
xargs "$BUILD"/examples/mucyc-client --socket "$OUT/serve.sock" \
  --provenance <"$OUT/renamed_files.txt" >"$OUT/warm_provenance.txt"
# Every instance the daemon answered definitively cold must now be served
# from the cache, Verify-certified; unknowns stay cold (nothing to cache).
BAD=$(awk '$2 != "unknown" && ($3 == "cold" || $4 != "verified")' \
      "$OUT/warm_provenance.txt")
if [ -n "$BAD" ]; then
  echo "$BAD" >&2
  echo "FAIL: renamed resubmissions not served from the verified store" >&2
  exit 1
fi
if ! awk '{print $1, $2}' "$OUT/warm_provenance.txt" \
    | cmp -s - "$OUT/serve_verdicts.txt"; then
  echo "FAIL: warm verdicts differ from cold verdicts" >&2
  exit 1
fi
HITS=$(awk '$3 != "cold"' "$OUT/warm_provenance.txt" | wc -l)
echo "serve smoke: $(wc -l <"$OUT/serve_verdicts.txt") instances," \
     "$HITS warm hits"

echo "== serve btor2: golden hardware designs cold + alpha-renamed warm =="
# The daemon content-sniffs BTOR2 bodies, so hardware designs flow through
# the same store as CHC systems. Replay the golden corpus cold, then
# alpha-rename every state/input symbol and resubmit: definitive verdicts
# must come back from the Verify-certified store with unchanged answers —
# the canonical fingerprint is alpha-invariant across frontends too.
ls tests/corpus/ok-*.btor2 >"$OUT/btor2_files.txt"
mkdir -p "$OUT/btor2_renamed"
while read -r F; do
  sed -E 's/(state|input) ([0-9]+) ([A-Za-z_][A-Za-z0-9_]*)$/\1 \2 \3_r/' \
    "$F" >"$OUT/btor2_renamed/$(basename "$F")"
done <"$OUT/btor2_files.txt"
xargs "$BUILD"/examples/mucyc-client --socket "$OUT/serve.sock" \
  <"$OUT/btor2_files.txt" >"$OUT/btor2_cold.txt"
ls "$OUT/btor2_renamed"/*.btor2 | xargs "$BUILD"/examples/mucyc-client \
  --socket "$OUT/serve.sock" --provenance >"$OUT/btor2_warm.txt"
BAD=$(awk '$2 != "unknown" && ($3 == "cold" || $4 != "verified")' \
      "$OUT/btor2_warm.txt")
if [ -n "$BAD" ]; then
  echo "$BAD" >&2
  echo "FAIL: renamed .btor2 resubmissions not served from the store" >&2
  exit 1
fi
if ! awk '{print $2}' "$OUT/btor2_warm.txt" \
    | cmp -s - <(awk '{print $2}' "$OUT/btor2_cold.txt"); then
  paste "$OUT/btor2_cold.txt" "$OUT/btor2_warm.txt" >&2
  echo "FAIL: warm btor2 verdicts differ from cold" >&2
  exit 1
fi
echo "serve btor2: $(wc -l <"$OUT/btor2_cold.txt") goldens," \
     "$(awk '$3 != "cold"' "$OUT/btor2_warm.txt" | wc -l) warm hits"
kill "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null || true
trap 'rm -rf "$OUT"' EXIT

echo "== isolate smoke: forked-worker crash classification =="
(cd "$BUILD" && ctest -L isolate --output-on-failure)

echo "== serve crash leg: chaos replay must be deterministic, no flips =="
# The exported suite again, through a daemon running every cold solve in a
# crash-isolated worker while the service-boundary chaos plan SIGKILLs
# every 7th spawned worker and tears every 5th store write at byte 64.
# The replay is sequential, the kill decision is taken pre-fork and the
# tear offset is fixed, so the whole run is a pure function of the flags:
# two runs on fresh stores must produce byte-identical verdict lines.
# Against the offline verdicts, chaos may only degrade (definitive ->
# unknown after the retry budget), never flip a definitive answer.
CHAOS_PLAN="kill-worker=7,tear-store=5@64"
run_crash_replay() { # $1 = store dir, $2 = out file
  "$BUILD"/examples/mucyc-serve --socket "$OUT/crash.sock" \
    --store-dir "$1" --isolate crash --max-retries 2 \
    --max-refine-steps "$SERVE_BUDGET" --chaos-plan "$CHAOS_PLAN" &
  CRASH_PID=$!
  for _ in $(seq 100); do
    [ -S "$OUT/crash.sock" ] && break
    sleep 0.1
  done
  xargs "$BUILD"/examples/mucyc-client --socket "$OUT/crash.sock" \
    <"$OUT/suite_files.txt" >"$2"
  kill "$CRASH_PID" 2>/dev/null
  wait "$CRASH_PID" 2>/dev/null || true
  rm -f "$OUT/crash.sock"
}
run_crash_replay "$OUT/crash-store-a" "$OUT/crash_verdicts_a.txt"
run_crash_replay "$OUT/crash-store-b" "$OUT/crash_verdicts_b.txt"
if ! cmp -s "$OUT/crash_verdicts_a.txt" "$OUT/crash_verdicts_b.txt"; then
  diff -u "$OUT/crash_verdicts_a.txt" "$OUT/crash_verdicts_b.txt" \
    | head -40 >&2
  echo "FAIL: chaos replay verdicts are not deterministic" >&2
  exit 1
fi
FLIPS=$(paste "$OUT/offline_verdicts.txt" "$OUT/crash_verdicts_a.txt" \
  | awk '$2 != $4 && $4 != "unknown" && $2 != "unknown"')
if [ -n "$FLIPS" ]; then
  echo "$FLIPS" >&2
  echo "FAIL: chaos flipped a definitive verdict" >&2
  exit 1
fi
DEGRADED=$(paste "$OUT/offline_verdicts.txt" "$OUT/crash_verdicts_a.txt" \
  | awk '$2 != $4' | wc -l)
echo "serve crash leg: $(wc -l <"$OUT/crash_verdicts_a.txt") instances" \
     "replayed twice under '$CHAOS_PLAN', byte-identical, 0 flips," \
     "$DEGRADED degraded"

echo "CI gate passed."
