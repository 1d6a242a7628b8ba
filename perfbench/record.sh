#!/usr/bin/env bash
# Runs the traced run (--trace 1) of every workload at seed 1 and writes
# each run's record line and result line to perfbench/traced.json:
#
#   bash perfbench/record.sh [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="${1:-25}"
mkdir -p "$here/../.bench_build"
tmp="$(mktemp "$here/../.bench_build/traced.XXXXXX")"
{
  echo '{'
  sep=''
  for w in zoo-ilp k2-greedy serve-mix; do
    out="$(bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 1)"
    printf '%s"%s": {\n"record": %s,\n"result": %s\n}' "$sep" "$w" "$(tail -n 2 <<<"$out" | head -n 1)" "$(tail -n 1 <<<"$out")"
    sep=$',\n'
  done
  printf '\n}\n'
} > "$tmp"
mv "$tmp" "$here/traced.json"
