#!/bin/sh
# Builds lakebench from source inside the checkout and runs it with the
# given arguments. The binary and the Go build cache stay under
# .bench_build/ at the repository root, so a run writes nowhere else.
set -e
dir=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$dir")/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false go build -C "$dir" -o "$out/lakebench" .
# Memory the Go runtime hands back is marked MADV_FREE, not dropped, so a
# round that needs it again minutes later is not charged page faults and
# cold pages: on a small VM those cost a fifth of a byte-heavy round and
# come and go from round to round (see README.md, "Run shape").
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$out/lakebench" "$@"
