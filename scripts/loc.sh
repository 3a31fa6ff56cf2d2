#!/usr/bin/env bash
# Line ledger: non-test lines of each crate's `src/**/*.rs` (a file
# counts up to its first `#[cfg(test)]`), then the lines of the
# integration test files. Prints figures and never fails a build.
#
#   bash scripts/loc.sh [REPO_ROOT]
set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 0

# Lines of one file before its first `#[cfg(test)]` (all if none).
nontest() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
printf '%-12s %8s\n' "crate" "src"
for crate in crates/*/; do
  name="$(basename "$crate")"
  lines=0
  while IFS= read -r file; do
    lines=$((lines + $(nontest "$file")))
  done < <(find "$crate/src" -name '*.rs' 2>/dev/null | sort)
  printf '%-12s %8d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-12s %8d\n' "total" "$total"

tests=0
for file in crates/*/tests/*.rs tests/*.rs; do
  [ -f "$file" ] && tests=$((tests + $(wc -l < "$file")))
done
printf '%-12s %8d\n' "test files" "$tests"
exit 0
