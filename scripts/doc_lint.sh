#!/usr/bin/env bash
# doc_lint.sh — the documentation CI gate.
#
# Every package in the module must carry a package-level doc comment in a
# non-test file: a comment block ending on the line directly above the
# package clause. Library packages conventionally start it "Package
# <name> ..." and commands "Command <name> ..." but the gate only
# requires that the comment exists — godoc renders whatever it says.
#
# Every *.go path under internal/, cmd/ or examples/ that README.md,
# docs/*.md or .claude/skills/verify/SKILL.md names must exist, so a
# deleted or renamed file cannot leave a dangling reference in the docs.
# Directory mentions are not checked.
#
# Every "<command> -<flag>" those docs write, for a command under cmd/
# (bare or as cmd/<command>), must name a flag the command defines: each
# command is built once into a temp dir and its flag names are read from
# its -h listing.
#
# Every backticked /metricz line name those docs write (a token starting
# requests_, rejected_, coalesced_, tasks_, delta_, sim_, response_cache_,
# store_, cache_, latency_, router_ or replica_) must be one that refidemd
# or refidem-router renders: the built daemon and a router over it are
# booted on ephemeral loopback ports, one label request is sent through
# them, and the names are read from both /metricz pages. latency_le_us
# stands for its latency_le_us{...} bucket lines.
#
# Usage: scripts/doc_lint.sh   (exit 1 and list offenders on failure)
set -euo pipefail
cd "$(dirname "$0")/.."

bad=0
for pkg in $(go list ./...); do
  dir=$(go list -f '{{.Dir}}' "$pkg")
  ok=0
  for f in "$dir"/*.go; do
    case "$f" in *_test.go) continue ;; esac
    [ -e "$f" ] || continue
    # A documented file has its package clause immediately preceded by a
    # comment line (// or a */ block end).
    if awk '
      /^package / { if (prev ~ /^\/\// || prev ~ /\*\/[[:space:]]*$/) found = 1; exit }
      { prev = $0 }
      END { exit !found }
    ' "$f"; then
      ok=1
      break
    fi
  done
  if [ "$ok" -eq 0 ]; then
    echo "doc_lint: $pkg has no package doc comment in any non-test file" >&2
    bad=1
  fi
done
if [ "$bad" -ne 0 ]; then
  echo "doc_lint: FAIL — add a package comment (// Package <name> ... or // Command <name> ...) above the package clause" >&2
  exit 1
fi

paths=0
for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -e "$doc" ] || continue
  # A path counts only where no path character precedes it, so the tail
  # of an import path such as refidem/internal/... is not read as rooted
  # here, and only when no word character follows its .go, so a .golden
  # file is not read as a .go one.
  for path in $(grep -oE '(^|[^A-Za-z0-9_./-])(internal|cmd|examples)/[A-Za-z0-9_./-]*\.go([^A-Za-z0-9_]|$)' "$doc" |
    grep -oE '(internal|cmd|examples)/[A-Za-z0-9_./-]*\.go' | sort -u); do
    paths=$((paths + 1))
    if [ ! -e "$path" ]; then
      echo "doc_lint: $doc names $path, which does not exist" >&2
      bad=1
    fi
  done
done
if [ "$bad" -ne 0 ]; then
  echo "doc_lint: FAIL — point the docs at the file that holds the code now, or drop the path" >&2
  exit 1
fi

bin=$(mktemp -d)
pids=""
trap 'kill $pids 2>/dev/null || true; rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/...
cmds=$(go list -f '{{.Dir}}' ./cmd/... | xargs -n1 basename | paste -sd'|')
for cmd in ${cmds//|/ }; do
  # -h prints the flag listing and exits non-zero for some commands.
  { "$bin/$cmd" -h 2>&1 || true; } | sed -nE 's/^  -([^ ]+).*/\1/p' >"$bin/$cmd.flags"
done
# One doc:command:flag line per distinct mention.
mentions=$(for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -e "$doc" ] || continue
  { grep -oE "(^|[^A-Za-z0-9_./-]|cmd/)($cmds) -[A-Za-z][A-Za-z0-9_-]*" "$doc" || true; } |
    sed -E "s#^.*($cmds) -#$doc:\1:#"
done | sort -u)
for mention in $mentions; do
  IFS=: read -r doc cmd flag <<<"$mention"
  if ! grep -qxF -- "$flag" "$bin/$cmd.flags"; then
    echo "doc_lint: $doc names $cmd -$flag, which $cmd does not define" >&2
    bad=1
  fi
done
if [ "$bad" -ne 0 ]; then
  echo "doc_lint: FAIL — name a flag the command defines, or drop the mention" >&2
  exit 1
fi
flags=$(printf '%s\n' $mentions | cut -d: -f2- | sort -u | wc -l)

# boot <command> <flags...> starts a built command on an ephemeral port
# and sets $url to the address it announces.
boot() {
  local out="$bin/$1.out"
  : >"$out"
  "$bin/$1" -addr 127.0.0.1:0 "${@:2}" >"$out" 2>&1 &
  pids="$pids $!"
  url=""
  for _ in $(seq 1 100); do
    url="$(sed -n 's/^listening on \(http:\/\/[^ ]*\)$/\1/p' "$out" | head -n1)"
    [ -n "$url" ] && return
    sleep 0.1
  done
  echo "doc_lint: $1 never announced its address:" >&2
  cat "$out" >&2
  exit 1
}
boot refidemd
replica=$url
boot refidem-router -replicas "$replica"
router=$url
curl -sfS -X POST -H 'Content-Type: application/json' -d '{"example": "fig1"}' "$router/v1/label" >/dev/null
rendered=$({ curl -sfS "$replica/metricz"; curl -sfS "$router/metricz"; } | sed -E 's/[{ ].*//' | sort -u)
kill $pids 2>/dev/null || true
prefixes='requests_|rejected_|coalesced_|tasks_|delta_|sim_|response_cache_|store_|cache_|latency_|router_|replica_'
metrics=0
for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -e "$doc" ] || continue
  for name in $({ grep -oE "\`($prefixes)[a-z0-9_]*[\` {]" "$doc" || true; } | sed -E 's/^.(.*).$/\1/' | sort -u); do
    metrics=$((metrics + 1))
    if ! grep -qxF -- "$name" <<<"$rendered"; then
      echo "doc_lint: $doc names the /metricz line $name, which neither refidemd nor refidem-router renders" >&2
      bad=1
    fi
  done
done
if [ "$bad" -ne 0 ]; then
  echo "doc_lint: FAIL — name a line /metricz renders, or drop the mention" >&2
  exit 1
fi
echo "doc_lint: all $(go list ./... | wc -l) packages documented; $paths source paths, $flags command flags and $metrics /metricz names in the docs resolve"
