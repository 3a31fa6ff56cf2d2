#!/usr/bin/env bash
# Noise calibration: two interleaved sets (A, B) of N runs per workload
# of the same code, one seed per run index, alternating which set goes
# first. Prints the `compare` table NOISE.md is made from.
#
#   benchmark/noise.sh [N=10] [first-seed=1001]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-10}"
first="${2:-1001}"
out="$here/out/noise"
rm -rf "$out"
mkdir -p "$out"
for ((i = 0; i < n; i++)); do
  if ((i % 2 == 0)); then order=(A B); else order=(B A); fi
  for set in "${order[@]}"; do
    "$here/run.sh" --seed "$((first + i))" --append "$out/$set.jsonl" >"$out/last-run.log"
  done
done
"$here/run.sh" compare "$out/A.jsonl" "$out/B.jsonl"
