#!/usr/bin/env sh
# Prints the number of non-test Go lines outside benchmark/ — the unit
# ROADMAP direction 2's "fewer non-test lines" target is measured in.
# Run from the repository root.
set -eu
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
  -exec cat {} + | wc -l
