#!/usr/bin/env sh
# System coverage: the functions of the lake's packages that no
# lake-level test runs. It runs the tests that drive a whole lake (the
# root package, chaos, the gateway and lakectl) with coverage over every
# internal package and the root, and prints each function they leave at
# 0 %, one "file func" line each, sorted. Packages that are tools or
# models around the lake, not the lake, are left out: bench, baseline,
# spn, lakebrain, workload and chaos.
#
#   sh scripts/syscover.sh          print the unrun functions
#   sh scripts/syscover.sh -check   fail unless they are exactly those
#                                   scripts/syscover_allowlist.txt lists
#
# An allowlist line is "file func reason"; the reason says why no lake
# test reaches the function (a benchmark pins it, a failure path waits
# for its test, ...). A test that starts reaching a listed function
# fails the check too: take its line out. Run from the repository root.
set -eu
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -count=1 -coverpkg=./internal/...,streamlake -coverprofile="$tmp/cover.out" \
  . ./internal/chaos ./internal/gateway ./cmd/lakectl >"$tmp/test.log" 2>&1 || {
  cat "$tmp/test.log" >&2
  exit 1
}
go tool cover -func="$tmp/cover.out" \
  | awk '$NF == "0.0%" { sub(/^streamlake\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' \
  | grep -vE '^internal/(bench|baseline|spn|lakebrain|workload|chaos)/' \
  | sort >"$tmp/unrun.txt" || true
if [ "${1:-}" != "-check" ]; then
  cat "$tmp/unrun.txt"
  echo "$(wc -l <"$tmp/unrun.txt") functions unrun" >&2
  exit 0
fi
grep -v '^#' scripts/syscover_allowlist.txt | awk 'NF >= 3 { print $1, $2 }' | sort >"$tmp/listed.txt"
if ! diff -u "$tmp/listed.txt" "$tmp/unrun.txt" >"$tmp/diff.txt"; then
  echo "functions no lake-level test runs (+) differ from scripts/syscover_allowlist.txt (-):" >&2
  cat "$tmp/diff.txt" >&2
  exit 1
fi
echo "syscover: $(wc -l <"$tmp/unrun.txt") unrun functions, all listed"
