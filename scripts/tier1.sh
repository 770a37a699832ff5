#!/usr/bin/env sh
# Tier-1 gate: everything must build, vet clean, and pass the test suite
# twice — under the race detector with -short, then race-free in full.
# Run from the repository root.
#
# Four packages look at -short. internal/bench trims its benchmark-shape
# replays (single-threaded simulation loops, the better part of an hour
# under -race); internal/chaos sweeps its all-actor schedule over 20
# seeds of 300 events, not 100 of 600; internal/plog runs 50 steps of
# its model run, not 120, and skips TestDisabledObsOverheadBound, a
# wall-clock ratio the detector would distort, as internal/streamsvc
# skips the wall-clock half of TestEnabledObsOverheadBound. The second
# pass is where all of those run in full.
#
# Every performance floor is an ordinary test beside the package it
# guards, so both passes run it; EXPERIMENTS.md ("Gates") is the index.
# Both passes also diff the goldens under testdata/: the /metrics texts
# and the span trees.
set -eux
# Size ratchet: non-test Go lines outside benchmark/ may not exceed
# scripts/loc_ceiling.txt (edit the file in the commit that must).
sh scripts/loc.sh
# Dead-code scan, by type-checked object rather than by name: every func
# and type outside benchmark/ is reached from main, init, package
# streamlake's exports or an allowlist entry (a method also through an
# interface its type satisfies), every unexported field is read, and every
# exported *Config/*Options/*Policy field is written outside its package;
# or it is listed with its reason in scripts/deadapi_allowlist.txt (funcs,
# types, fields) or scripts/deadknob_allowlist.txt (knobs).
go run ./scripts/deadcode
# Doc lint: every test name the docs cite exists.
sh scripts/doclint.sh
go build ./...
go vet ./...

# Formatting gate: the tree must be gofmt-clean.
unformatted=$(gofmt -l . 2>/dev/null || true)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

# Wall-clock lint: data-path packages charge the sim.Clock, never the
# wall clock, or seeded runs stop being reproducible. Non-test files
# under internal/ may only call time.Now/time.Since if listed in
# scripts/walltime_allowlist.txt.
allow=$(grep -v '^#' scripts/walltime_allowlist.txt | grep -v '^$' || true)
violations=$(grep -rn 'time\.Now(\|time\.Since(' internal/ --include='*.go' \
  | grep -v '_test\.go' | grep -vF "${allow:-@none@}" || true)
if [ -n "$violations" ]; then
  echo "wall-clock use outside scripts/walltime_allowlist.txt:" >&2
  echo "$violations" >&2
  exit 1
fi

# unsafe lint: a non-test file outside benchmark/ may import "unsafe"
# only if scripts/unsafe_allowlist.txt lists it with a reason, and every
# listed file must still import it.
importers=$(grep -rlE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"' \
  --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build . \
  | sed 's|^\./||' | sort)
listed=$(grep -v '^#' scripts/unsafe_allowlist.txt | awk 'NF >= 2 { print $1 }' | sort)
if [ "$importers" != "$listed" ]; then
  echo "files importing unsafe:" >&2
  echo "$importers" >&2
  echo "files scripts/unsafe_allowlist.txt lists with a reason:" >&2
  echo "$listed" >&2
  exit 1
fi

go test -race -short ./...
go test ./...
# System coverage: every function of the lake's packages that no
# lake-level test runs is listed, with its reason, in
# scripts/syscover_allowlist.txt, and every listed one is still unrun.
sh scripts/syscover.sh -check
# lakebench is a module of its own (benchmark/go.mod), so ./... above
# does not reach it: vet and smoke-test it here, or a change to a
# signature its layer ladder pins (Scan, ReadGroup, NewWriter/Append/
# Finish, ReadFile, PlanScan, ...) breaks the benchmark unnoticed.
(cd benchmark && go vet ./... && go test -short ./...)

# Fuzz smoke: five seconds of input generation against every target —
# the decoders of stored or client bytes (table metadata, slices and
# compressed extents among them; the record codec and table metadata
# against their Value-row references, column chunks uninflated against
# the Value decoders), the gateway's flat-body recogniser against
# encoding/json, the SQL parser against its own rendering, the erasure
# kernel against its byte-wise oracle, the read cache against the
# container/list cache it replaced.
for t in rowcodec:FuzzDecode rowcodec:FuzzDecoder colfile:FuzzOpen colfile:FuzzDecodeChunk streamobj:FuzzDecodeSlice \
  tableobj:FuzzDecodeCommit tableobj:FuzzDecodeSnapshot tableobj:FuzzDecodeStats \
  gateway:FuzzDecodeFlat query:FuzzParse ec:FuzzEncodeReconstruct \
  compress:FuzzDecode cache:FuzzCacheOps; do
  go test -run '^$' -fuzz "^${t#*:}\$" -fuzztime 5s "./internal/${t%%:*}/"
done

# Benchmark smoke: each runs once, to prove it builds and runs. What
# they measure is guarded by tests in the passes above: a commit costs
# the same whatever the log holds (cluster, plog), an EC append allocates
# its extent (plog), a request costs its bytes (gateway),
# a table file is encoded into one shared buffer and costs its group
# directory, and a group decodes into typed columns, 8 bytes an integer
# (colfile), a plan makes its file list once, a warm plan costs the
# files it admits, a scan parses footers into one reader and decodes
# into typed columns sized once (lakehouse), a
# converted row costs a fixed count of allocations and bytes: it streams
# into its partition's writer, the writers share one compressor, and a
# known message shape decodes no schema (convert, colfile, rowcodec),
# a data file is encoded from the caller's rows, not a copy, a rewrite
# decodes file after file into one buffer, and a merge streams typed
# columns into its writer (tableobj, lakehouse),
# a commit writes a header, not the manifest (tableobj), a poll costs
# one message header per message (streamsvc), a straddled slice is read
# once (streamobj).
go test -run '^$' -bench 'BenchmarkCommitProduce' -benchtime 1x ./internal/cluster/
go test -run '^$' -bench 'BenchmarkAppendBatch' -benchtime 1x ./internal/plog/
go test -run '^$' -bench 'BenchmarkConvert' -benchtime 1x ./internal/convert/
go test -run '^$' -bench 'BenchmarkWriteRows' -benchtime 1x ./internal/tableobj/
go test -run '^$' -bench 'Request' -benchtime 1x ./internal/gateway/
go test -run '^$' -bench 'WriteFile|ReadColumnsProjected' -benchtime 1x ./internal/colfile/
go test -run '^$' -bench 'BenchmarkPlanScan|BenchmarkScanProjected' -benchtime 1x ./internal/lakehouse/
go test -run '^$' -bench 'BenchmarkPoll' -benchtime 1x ./internal/streamsvc/
