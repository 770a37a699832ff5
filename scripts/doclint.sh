#!/usr/bin/env sh
# Doc lint, on what EXPERIMENTS.md, DESIGN.md and README.md cite. Run from
# the repository root.
#
# Every Test…/Fuzz…/Benchmark… name must be the start of a func in some
# _test.go. Citations are `go test -run` regexes, so a prefix
# (TestFaultInjection) is fine; a gate renamed out from under its
# citation is not.
#
# Every scripts/… path must exist, so a doc never points at a script
# that was replaced or deleted.
#
# DESIGN.md states what the system does; no line of it cites a PR by
# number ("PR 7", "PRs 1–5", "pre-PR-14"). The history is CHANGES.md's.
#
# DESIGN.md and EXPERIMENTS.md may not exceed their line counts in
# scripts/doc_ceiling.txt ("<file> <lines>" per line). A commit that
# needs more lines raises the number in the same commit, as with
# scripts/loc_ceiling.txt; one that shrinks a file lowers it.
set -eu
docs="EXPERIMENTS.md DESIGN.md README.md"
funcs=$(grep -rhoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' --include='*_test.go' . | cut -c6-)
bad=0
# shellcheck disable=SC2086
for name in $(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' $docs | sort -u); do
  if ! printf '%s\n' "$funcs" | grep -q "^$name"; then
    echo "doclint: $name is cited in the docs but no _test.go declares it" >&2
    bad=1
  fi
done
# shellcheck disable=SC2086
for path in $(grep -ohE 'scripts/[A-Za-z0-9_/-]+(\.[A-Za-z0-9]+)?' $docs | sort -u); do
  if [ ! -e "$path" ]; then
    echo "doclint: $path is cited in the docs but does not exist" >&2
    bad=1
  fi
done
if grep -nE '\bPRs? ?-?[0-9]' DESIGN.md >&2; then
  echo "doclint: DESIGN.md cites a PR by number (above); say what the system does" >&2
  bad=1
fi
while read -r doc ceiling; do
  lines=$(wc -l < "$doc")
  if [ "$lines" -gt "$ceiling" ]; then
    echo "doclint: $doc has $lines lines, over its ceiling of $ceiling in scripts/doc_ceiling.txt" >&2
    bad=1
  fi
done < scripts/doc_ceiling.txt
exit $bad
