#!/usr/bin/env bash
# Golden check: runs the results program (`figs all`) and bench_probe at
# CCD_SCALE=quick and diffs every JSON they write against tests/golden/.
# The plain rows are read off `figs --list` — the binary's own table of what
# each experiment writes — so a result cannot go unpinned.  Kept by hand is
# only what the binary cannot know: bench_probe's row and field filter, the
# CCD_WORKERS=1 re-runs (serial == parallel, byte level) and the CCD_OBS-armed
# re-run (contract #11: observation moves no result byte).
#
#   scripts/golden_check.sh [--bless] [OUT_DIR]   # default: a fresh temp directory
#
# Every row is byte-identical but bench_probe's, the one bin outside the
# repository benchmark that reads a clock.
#
# --bless is for a deliberate re-pin: a plain row that differs is copied over
# its golden and its `git diff --stat` printed, instead of failing.  The
# override rows stay checks — they hold the freshly blessed files to the
# serial and armed re-runs.  CI never passes it.
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
cargo build --release -q --manifest-path "$repo/Cargo.toml" -p ccd-bench --bin figs --bin bench_probe
bins="${CARGO_TARGET_DIR:-$repo/target}/release"

# bench_probe's host-dependent fields, dropped from both sides before the diff.
probe_clock='"(engine|ns_per_op|vs_planar|trial_spread)"'

# env override | command | result file | filtered fields (empty: byte-identical)
# The golden is tests/golden/<result file stem, lower case>.quick.json.
checks=()
while read -r _ files; do
  for file in $files; do
    case "$file" in *.json) checks+=("|figs all|$file|") ;; esac
  done
done < <("$bins/figs" --list)
checks+=(
  "|bench_probe|BENCH_probe.json|$probe_clock"
  "CCD_WORKERS=1|figs fig10_insertion_attempts|fig10_insertion_attempts.json|"
  "CCD_WORKERS=1|figs fig11_attempt_distribution|fig11_attempt_distribution.json|"
  "CCD_WORKERS=1|figs bench_scenarios|BENCH_scenarios.json|"
  "CCD_OBS=obs-ring1024-spans|figs fig7_hash_characteristics|fig7_hash_characteristics.json|"
)

strip() {
  if [ -n "$2" ]; then grep -vE "$2" "$1"; else cat "$1"; fi
}

ran=
blessed=0
for check in "${checks[@]}"; do
  IFS='|' read -r override command result fields <<<"$check"
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
  if [ -n "$bless" ] && [ -z "$override" ] &&
     ! diff -q <(strip "$golden" "$fields") <(strip "$dir/$result" "$fields") >/dev/null; then
    cp "$dir/$result" "$golden"
    git -C "$repo" diff --stat -- "$golden"
    blessed=$((blessed + 1))
  fi
  diff -u <(strip "$golden" "$fields") \
          <(strip "$dir/$result" "$fields")
done
echo "golden: all ${#checks[@]} checks match${bless:+, $blessed blessed} (outputs under $out)"
