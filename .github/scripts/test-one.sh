#!/usr/bin/env bash
# Runs one test by its exact name in release mode and fails unless the
# harness reports exactly one test passed, so a renamed test cannot
# drop out of a CI step with "0 passed" (`cargo test` exits 0 when a
# name filter matches nothing).
#
# usage: .github/scripts/test-one.sh <cargo test args...> <test name>
#   e.g. .github/scripts/test-one.sh -p smooth-engine --test churn_props \
#          any_cut_of_the_trace_matches_scan_reference
set -euo pipefail
out="$(mktemp "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/test-one.XXXXXX")"
trap 'rm -f "$out"' EXIT
cargo test --release -q "$@" -- --exact | tee "$out"
grep -q "test result: ok. 1 passed;" "$out"
