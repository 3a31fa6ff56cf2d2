#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh                      # all four workloads, default seed
#   benchmark/run.sh --workload query-scan --seed 7
#   benchmark/run.sh --workload serve-zipf --trace 1
#   benchmark/run.sh --smoke              # small schema-only tier
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Every run is a fresh process; its last stdout line is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/si-benchmark"

if [[ "${1:-}" == "compare" ]]; then
  exec "$bin" "$@"
fi

workloads=()
args=()
while (($#)); do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
if ((${#workloads[@]} == 0)); then
  mapfile -t workloads < <("$bin" list | cut -f1)
fi
for w in "${workloads[@]}"; do
  "$bin" run --workload "$w" --out "$here/out" "${args[@]}"
done
