#!/usr/bin/env bash
# Ratchet on the benchmark's deterministic search counters.
#
#   bash .github/scripts/counter-ratchet.sh
#
# Runs `benchmark/run.sh --quick --trace 1 --seed 1` and compares every
# counter listed in counter-baseline.txt at the repository root with the
# run's value. The counters come from the trace's first pass, so for one
# seed they repeat exactly. A counter above its baseline fails the job;
# one below it is reported, and the change that lowered it should lower
# the baseline too. Wall-clock numbers are not compared here.
set -euo pipefail
cd "$(dirname "$0")/../.."

result=$(bash benchmark/run.sh --quick --trace 1 --seed 1 | tail -n 1)

status=0
while IFS=$'\t' read -r name baseline; do
  case "$name" in '' | '#'*) continue ;; esac
  pattern="\"${name//./\\.}\":{\"value\":\([-0-9.eE+]*\)"
  now=$(sed -n "s/.*${pattern}.*/\1/p" <<<"$result")
  if [ -z "$now" ]; then
    echo "FAIL $name: missing from the benchmark result"
    status=1
    continue
  fi
  verdict=$(awk -v now="$now" -v base="$baseline" 'BEGIN {
    tol = 1e-9 * (base < 0 ? -base : base)
    if (now > base + tol) print "rose"; else if (now < base - tol) print "fell"; else print "held"
  }')
  case "$verdict" in
    rose)
      echo "FAIL $name rose: $baseline -> $now"
      status=1
      ;;
    fell) echo "fell $name: $baseline -> $now (lower counter-baseline.txt to match)" ;;
    held) echo "ok   $name: $now" ;;
  esac
done <counter-baseline.txt
exit "$status"
