#!/usr/bin/env bash
# Runs every §6 table and figure once at the caller's SI_SCALE and writes
# one file per id under scripts/paper/out/<tier>/. Called by
# kick-tires.sh and full.sh, which pick the scale.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="scripts/paper/out/$1"
mkdir -p "$out"
cargo build --release -p si-bench --bin experiments
# `experiments all` builds the index grid and the query grid once and
# prints the ids in order: "# Figure 8: ..." starts fig8.txt, "# Table
# 1: ..." starts tab1.txt. Blank lines are held back until the next
# table line, so no file ends with the separator before the next id.
"${CARGO_TARGET_DIR:-target}/release/experiments" all | awk -v dir="$out" '
    /^# (Figure|Table) [0-9]+:/ {
        file = dir "/" ($2 == "Figure" ? "fig" : "tab") ($3 + 0) ".txt"
        blank = 0
    }
    /^$/ { blank++; next }
    file {
        for (; blank > 0; blank--) print "" > file
        print > file
    }'
