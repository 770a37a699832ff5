#!/usr/bin/env sh
# Dead-API scan, in two parts. Run from the repository root.
#
# Funcs: reports every exported func declared outside benchmark/ whose
# name occurs in no non-test Go file except at its own declarations, as
# `path:line pkg.Recv.Name` (or `pkg.Name`). Callers are looked for
# everywhere, benchmark/, cmd/ and examples/ included, so whatever
# lakebench pins stays live.
#
# Knobs: reports every exported field of a struct named *Config,
# *Options or *Policy that no non-test Go file outside the field's
# package writes, as `path:line pkg.Type.Field`. A write is a keyed
# composite-literal element (`Field: v`) or an assignment
# (`x.Field = v`, `x.Field += v`, `x.Field++`). A value is a knob only
# when a caller needs a value other than the default; one that only the
# package itself and tests set is a constant. Not scanned: experiment
# and test-matrix code (internal/bench, internal/baseline,
# internal/workload, internal/chaos, benchmark/) and the structs package
# streamlake re-exports by alias (the topic config of the paper's
# Figure 8 and the tenant contract), which are public surface.
#
# Comments and string literals are stripped first, so a name that is
# only mentioned is neither a caller nor a write. Both scans are by
# name: a dead func or field that shares its name with a live one is
# not found. Each fails on a report its allowlist does not list, and on
# a listed entry that is no longer reported (it was deleted or gained a
# caller), so the lists cannot rot: scripts/deadapi_allowlist.txt for
# funcs, scripts/deadknob_allowlist.txt for knobs.
set -eu
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path '*/testdata/*' | sort)
# shellcheck disable=SC2086
report=$(awk '
function emit(s,   n, i, t, parts) {
  gsub(/[^A-Za-z0-9_]+/, " ", s)
  n = split(s, parts, " ")
  for (i = 1; i <= n; i++) {
    t = parts[i]
    if (t ~ /^[A-Za-z_]/) count[t]++
  }
}
# strip removes comments and string, rune and raw-string literals from
# one line, carrying block comments and raw strings across lines in
# state ("" | "block" | "raw").
function strip(line,   out, c, p) {
  out = ""
  while (line != "") {
    if (state == "block") {
      p = index(line, "*/")
      if (p == 0) return out
      line = substr(line, p + 2); state = ""; out = out " "
      continue
    }
    if (state == "raw") {
      p = index(line, "`")
      if (p == 0) return out
      line = substr(line, p + 1); state = ""; out = out " "
      continue
    }
    p = match(line, /[\/"'\''`]/)
    if (p == 0) return out line
    out = out substr(line, 1, p - 1)
    c = substr(line, p, 1)
    line = substr(line, p + 1)
    if (c == "`") { state = "raw"; continue }
    if (c == "/") {
      if (substr(line, 1, 1) == "/") return out
      if (substr(line, 1, 1) == "*") { state = "block"; line = substr(line, 2); continue }
      out = out " "
      continue
    }
    # interpreted string or rune: skip to the unescaped closing quote
    while (line != "") {
      p = match(line, "[\\\\" c "]")
      if (p == 0) { line = ""; break }
      if (substr(line, p, 1) == "\\") { line = substr(line, p + 2); continue }
      line = substr(line, p + 1); break
    }
    out = out " "
  }
  return out
}
# writes counts, per directory, the field names line s writes.
function writes(s,   t, name, pre, post) {
  t = s
  while (match(t, /[A-Z][A-Za-z0-9_]*[ \t]*:/)) {
    pre = RSTART > 1 ? substr(t, RSTART - 1, 1) : ""
    post = substr(t, RSTART + RLENGTH, 1)
    name = substr(t, RSTART, RLENGTH); sub(/[ \t]*:$/, "", name)
    t = substr(t, RSTART + RLENGTH)
    if (pre !~ /[A-Za-z0-9_.]/ && post != "=") wrote[name, dir]++
  }
  t = s
  while (match(t, /\.[A-Z][A-Za-z0-9_]*[ \t]*(\+\+|--|(<<|>>|&\^|[-+*\/%&|^])?=)/)) {
    post = substr(t, RSTART + RLENGTH, 1)
    name = substr(t, RSTART + 1, RLENGTH - 1); sub(/[^A-Za-z0-9_].*$/, "", name)
    if (substr(t, RSTART + RLENGTH - 1, 1) != "=" || post != "=") wrote[name, dir]++
    t = substr(t, RSTART + RLENGTH)
  }
}
# fields records the exported names a line at a scanned struct'\''s top
# level declares: `A, B Type` declares A and B; an embedded type or a
# closing brace declares nothing.
function fields(s,   n, i, name) {
  sub(/^[ \t]+/, "", s)
  while (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) {
    name[++n] = substr(s, 1, RLENGTH)
    s = substr(s, RLENGTH + 1)
    if (match(s, /^[ \t]*,[ \t]*/)) { s = substr(s, RLENGTH + 1); continue }
    if (s !~ /^[ \t]+[^ \t]/) return
    for (i = 1; i <= n; i++) if (name[i] ~ /^[A-Z]/) {
      knob[++nknob] = path ":" FNR " " pkg "." typ "." name[i]
      knobname[nknob] = name[i]; knobdir[nknob] = dir; knobtype[nknob] = pkg "." typ
    }
    return
  }
}
FNR == 1 {
  state = ""; pkg = ""; depth = 0; path = FILENAME; sub(/^\.\//, "", path)
  dir = path; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
  knobscope = path !~ /^(benchmark|internal\/(bench|baseline|workload|chaos))\//
}
{
  s = strip($0)
  if (pkg == "" && match(s, /^package[ \t]+[A-Za-z0-9_]+/)) {
    pkg = s; sub(/^package[ \t]+/, "", pkg); sub(/[^A-Za-z0-9_].*/, "", pkg)
  }
  if (s ~ /^func/) {
    recv = ""; rest = s; sub(/^func[ \t]*/, "", rest)
    if (substr(rest, 1, 1) == "(") {
      p = index(rest, ")")
      recv = substr(rest, 2, p - 2); rest = substr(rest, p + 1)
      sub(/\[.*/, "", recv); sub(/^.*[ *]/, "", recv)
      sub(/^[ \t]*/, "", rest)
    }
    if (match(rest, /^[A-Z][A-Za-z0-9_]*/)) {
      name = substr(rest, 1, RLENGTH)
      decls[name]++
      if (path !~ /^benchmark\//) {
        key = pkg "." (recv == "" ? "" : recv ".") name
        site[++nsite] = path ":" FNR " " key
        sitename[nsite] = name
      }
    }
  }
  if (depth == 1) fields(s)
  if (depth > 0) {
    depth += gsub(/{/, "{", s) - gsub(/}/, "}", s)
  } else if (knobscope && match(s, /^type[ \t]+[A-Za-z0-9_]*(Config|Options|Policy)[ \t]+struct[ \t]*{[ \t]*$/)) {
    typ = s; sub(/^type[ \t]+/, "", typ); sub(/[^A-Za-z0-9_].*/, "", typ)
    depth = 1
  }
  # A re-export by package streamlake: `Name = pkg.Type`.
  if (dir == "." && match(s, /^[ \t]*[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[a-z][a-z0-9_]*\.[A-Z][A-Za-z0-9_]*[ \t]*$/)) {
    t = s; sub(/^.*=[ \t]*/, "", t); sub(/[ \t]*$/, "", t); aliased[t] = 1
  }
  writes(s)
  emit(s)
}
END {
  for (i = 1; i <= nsite; i++)
    if (count[sitename[i]] == decls[sitename[i]]) print "func " site[i]
  for (d in wrote) { split(d, k, SUBSEP); total[k[1]] += wrote[d] }
  for (i = 1; i <= nknob; i++)
    if (!(knobtype[i] in aliased) && total[knobname[i]] == wrote[knobname[i], knobdir[i]] + 0)
      print "knob " knob[i]
}
' $files)

# check compares the report lines of one kind with an allowlist'\''s first
# column, both ways. Knob entries must also give a reason of api or
# control, and there may be at most ten of them.
check() {
  printf '%s\n' "$report" | awk -v kind="$1" -v allow="$2" -v what="$3" '
BEGIN {
  while ((getline line < allow) > 0) {
    if (line ~ /^#/ || line !~ /[^ \t]/) continue
    split(line, f, " "); listed[f[1]] = 1; n++
    if (kind == "knob" && f[2] !~ /^(api|control):/) {
      print "deadapi: " allow " gives " f[1] " the reason \"" f[2] "\": a knob stays only as api or control" > "/dev/stderr"
      bad = 1
    }
  }
  if (kind == "knob" && n > 10) {
    print "deadapi: " allow " lists " n " knobs, at most 10 may stay" > "/dev/stderr"
    bad = 1
  }
}
$1 == kind {
  seen[$3] = 1
  if (!($3 in listed)) {
    print "deadapi: " $2 " " $3 " " what ": delete it or list it in " allow > "/dev/stderr"
    bad = 1
  }
}
END {
  for (k in listed) if (!(k in seen)) {
    print "deadapi: " allow " lists " k ", which is gone or no longer reported: drop the entry" > "/dev/stderr"
    bad = 1
  }
  exit bad
}'
}
status=0
check func scripts/deadapi_allowlist.txt "has no non-test caller" || status=1
check knob scripts/deadknob_allowlist.txt "is written by no non-test file outside its package" || status=1
exit $status
