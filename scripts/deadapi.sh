#!/usr/bin/env sh
# Dead-API scan: reports every exported func declared outside benchmark/
# whose name occurs in no non-test Go file except at its own
# declarations, as `path:line pkg.Recv.Name` (or `pkg.Name`). Callers
# are looked for everywhere, benchmark/, cmd/ and examples/ included, so
# whatever lakebench pins stays live. Comments and string literals are
# stripped first, so a name that is only mentioned is not a caller.
#
# The scan is by name: a dead func that shares its name with a live one
# is not found. Fails when it reports anything that is not listed in
# scripts/deadapi_allowlist.txt, and when a listed entry is no longer
# reported (it was deleted or gained a caller), so the list cannot rot.
# Run from the repository root.
set -eu
allow=scripts/deadapi_allowlist.txt
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
FNR == 1 { state = ""; pkg = ""; path = FILENAME; sub(/^\.\//, "", path) }
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
  emit(s)
}
END {
  for (i = 1; i <= nsite; i++)
    if (count[sitename[i]] == decls[sitename[i]]) print site[i]
}
' $files)

# Compare the report with the allowlist's first column, both ways.
printf '%s\n' "$report" | awk -v allow="$allow" '
BEGIN {
  while ((getline line < allow) > 0) {
    if (line ~ /^#/ || line !~ /[^ \t]/) continue
    split(line, f, " "); listed[f[1]] = 1
  }
}
NF == 2 {
  seen[$2] = 1
  if (!($2 in listed)) {
    print "deadapi: " $0 " has no non-test caller: delete it or list it in " allow > "/dev/stderr"
    bad = 1
  }
}
END {
  for (k in listed) if (!(k in seen)) {
    print "deadapi: " allow " lists " k ", which is gone or has a non-test caller: drop the entry" > "/dev/stderr"
    bad = 1
  }
  exit bad
}'
