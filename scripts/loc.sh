#!/usr/bin/env sh
# Line-count ratchet (ROADMAP direction 2): counts the non-test Go lines
# outside benchmark/ and fails when they exceed scripts/loc_ceiling.txt.
# A PR that must grow the tree raises the ceiling in the same commit, so
# growth is a reviewed edit and not drift; a PR that shrinks it lowers
# the ceiling to its new count. Run from the repository root.
set -eu
count=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
  -exec cat {} + | wc -l)
ceiling=$(cat scripts/loc_ceiling.txt)
echo "non-test Go lines: $count (ceiling $ceiling)"
if [ "$count" -gt "$ceiling" ]; then
  echo "line count $count exceeds scripts/loc_ceiling.txt ($ceiling): shrink the change or raise the ceiling in this commit" >&2
  exit 1
fi
