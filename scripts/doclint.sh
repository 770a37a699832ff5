#!/usr/bin/env sh
# Doc lint: every Test…/Fuzz…/Benchmark… name that EXPERIMENTS.md,
# DESIGN.md or README.md cites must be the start of a func in some
# _test.go. Citations are `go test -run` regexes, so a prefix
# (TestFaultInjection) is fine; a gate renamed out from under its
# citation is not. Run from the repository root.
set -eu
funcs=$(grep -rhoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' --include='*_test.go' . | cut -c6-)
bad=0
for name in $(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' EXPERIMENTS.md DESIGN.md README.md | sort -u); do
  if ! printf '%s\n' "$funcs" | grep -q "^$name"; then
    echo "doclint: $name is cited in the docs but no _test.go declares it" >&2
    bad=1
  fi
done
exit $bad
