#!/usr/bin/env bash
# Bad-invocation corpus for the CLI error boundary: every mishandled
# invocation must exit 2 (usage/input error) with a one-line diagnostic on
# stderr — never a crash (signal exits are >= 128), never exit 3 (reserved
# for internal errors escaping the boundary), and never a silent 0.
#
#   scripts/test_cli_errors.sh <mucyc> <mucyc-fuzz> <corpus-dir>
set -u

MUCYC=$1
FUZZ=$2
CORPUS=$3
FAILS=0

# expect_usage_error NAME EXPECTED_EXIT CMD...: run CMD, require the exact
# exit code and a non-empty stderr diagnostic.
expect_error() {
  local Name=$1 Want=$2
  shift 2
  local Err Got
  Err=$("$@" 2>&1 >/dev/null)
  Got=$?
  if [ "$Got" -ne "$Want" ]; then
    echo "FAIL $Name: exit $Got, want $Want ($*)" >&2
    FAILS=$((FAILS + 1))
  elif [ -z "$Err" ]; then
    echo "FAIL $Name: no stderr diagnostic ($*)" >&2
    FAILS=$((FAILS + 1))
  fi
}

expect_error no-args            2 "$MUCYC"
expect_error unknown-flag       2 "$MUCYC" --bogus
expect_error flag-missing-value 2 "$MUCYC" --config
expect_error missing-file       2 "$MUCYC" /nonexistent/no-such-file.smt2
expect_error bad-config         2 "$MUCYC" --config "NotAnEngine" \
  "$CORPUS/ok-divisible.smt2"
expect_error bad-portfolio      2 "$MUCYC" --portfolio "Ret(T,MBP(1)),Nope" \
  "$CORPUS/ok-divisible.smt2"
expect_error bad-isolate        2 "$MUCYC" --isolate sometimes \
  "$CORPUS/ok-divisible.smt2"
expect_error isolate-no-value   2 "$MUCYC" --isolate
expect_error isolate-always     2 "$MUCYC" --isolate always \
  "$CORPUS/ok-divisible.smt2"

# An isolated solve of a good file still exits 0 through the worker tier.
"$MUCYC" --isolate crash "$CORPUS/ok-divisible.smt2" >/dev/null 2>&1
Got=$?
if [ "$Got" -ne 0 ]; then
  echo "FAIL ok-isolated: exit $Got, want 0" >&2
  FAILS=$((FAILS + 1))
fi

# Every parse/sort-check reject in the corpus must come back as a clean
# input error, whatever garbage is inside.
for F in "$CORPUS"/bad-*.smt2; do
  expect_error "corpus-$(basename "$F")" 2 "$MUCYC" "$F"
done

# Same contract for the BTOR2 frontend: every malformed transition system
# is a typed input error with a "line N:" diagnostic, never an assert.
for F in "$CORPUS"/bad-*.btor2; do
  expect_error "corpus-$(basename "$F")" 2 "$MUCYC" "$F"
done
expect_error bad-format        2 "$MUCYC" --format vhdl \
  "$CORPUS/ok-ts-counter-safe.btor2"
# Format forced across frontends: each parser rejects the other's text.
expect_error btor2-as-smt2     2 "$MUCYC" --format smt2 \
  "$CORPUS/ok-ts-counter-safe.btor2"
expect_error smt2-as-btor2     2 "$MUCYC" --format btor2 \
  "$CORPUS/ok-divisible.smt2"

expect_error fuzz-unknown-flag 2 "$FUZZ" --bogus
expect_error fuzz-bad-domains  2 "$FUZZ" --domains smt,nope

# Sanity: a good invocation still exits 0 (a gate that rejects everything
# would pass all the checks above).
"$MUCYC" "$CORPUS/ok-divisible.smt2" >/dev/null 2>&1
Got=$?
if [ "$Got" -ne 0 ]; then
  echo "FAIL ok-file: exit $Got, want 0" >&2
  FAILS=$((FAILS + 1))
fi
"$MUCYC" "$CORPUS/ok-ts-counter-safe.btor2" >/dev/null 2>&1
Got=$?
if [ "$Got" -ne 0 ]; then
  echo "FAIL ok-btor2-file: exit $Got, want 0" >&2
  FAILS=$((FAILS + 1))
fi

if [ "$FAILS" -ne 0 ]; then
  echo "$FAILS CLI error-boundary check(s) failed" >&2
  exit 1
fi
echo "CLI error boundary: all invocations handled."
