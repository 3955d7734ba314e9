#!/usr/bin/env bash
# Golden check: runs the results program (`figs all`) at CCD_SCALE=quick and
# diffs every JSON it writes, byte for byte, against tests/golden/.  The plain
# rows are read off `figs --list` — the binary's own table of what each
# experiment writes — so a result cannot go unpinned.  Kept by hand is only
# what the binary cannot know: the CCD_WORKERS=1 re-runs (serial == parallel,
# byte level).
#
#   scripts/golden_check.sh [--bless] [OUT_DIR]   # default: a fresh temp directory
#
# --bless is for a deliberate re-pin: a plain row that differs is copied over
# its golden and its `git diff --stat` printed, instead of failing.  The
# override rows stay checks — they hold the freshly blessed files to the
# serial re-runs.  CI never passes it.
set -euo pipefail

bless=
if [ "${1:-}" = "--bless" ]; then
  bless=1
  shift
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
cargo build --release -q --manifest-path "$repo/Cargo.toml" -p ccd-bench --bin figs
bins="${CARGO_TARGET_DIR:-$repo/target}/release"

# env override | command | result file
# The golden is tests/golden/<result file stem, lower case>.quick.json.
checks=()
while read -r _ files; do
  for file in $files; do
    checks+=("|figs all|$file")
  done
done < <("$bins/figs" --list)
checks+=(
  "CCD_WORKERS=1|figs fig10_insertion_attempts|fig10_insertion_attempts.json"
  "CCD_WORKERS=1|figs fig11_attempt_distribution|fig11_attempt_distribution.json"
  "CCD_WORKERS=1|figs bench_scenarios|BENCH_scenarios.json"
)

ran=
blessed=0
for check in "${checks[@]}"; do
  IFS='|' read -r override command result <<<"$check"
  # Plain runs share OUT_DIR itself; each override gets a directory of its own.
  dir="$out${override:+/${override%%=*}}"
  mkdir -p "$dir"
  echo "golden: ${override:+$override }$command -> $result"
  # Consecutive rows of one command are one run.
  if [ "$override|$command" != "$ran" ]; then
    # shellcheck disable=SC2086  # $command is a program name and its arguments
    env ${override:+"$override"} CCD_SCALE=quick CCD_RESULTS_DIR="$dir" "$bins"/$command >/dev/null
    ran="$override|$command"
  fi
  stem="${result%.json}"
  golden="$repo/tests/golden/$(tr '[:upper:]' '[:lower:]' <<<"$stem").quick.json"
  if [ -n "$bless" ] && [ -z "$override" ] && ! diff -q "$golden" "$dir/$result" >/dev/null; then
    cp "$dir/$result" "$golden"
    git -C "$repo" diff --stat -- "$golden"
    blessed=$((blessed + 1))
  fi
  diff -u "$golden" "$dir/$result"
done
echo "golden: all ${#checks[@]} checks match${bless:+, $blessed blessed} (outputs under $out)"
