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
trap 'rm -rf "$bin"' EXIT
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
echo "doc_lint: all $(go list ./... | wc -l) packages documented; $paths source paths and $flags command flags in the docs resolve"
