#!/usr/bin/env bash
# Golden check: runs every result-writing bin of ccd-bench at CCD_SCALE=quick
# and diffs its JSON against tests/golden/.  One table drives the plain runs,
# the CCD_WORKERS=1 re-runs (serial == parallel, byte level) and the
# CCD_OBS-armed re-run (contract #11: observation moves no result byte).
#
#   scripts/golden_check.sh [OUT_DIR]     # default: a fresh temp directory
#
# Every row is byte-identical but bench_probe's, the one bin outside the
# repository benchmark that reads a clock.  A bin that calls `write_json`
# without a row here fails the script.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
cargo build --release -q --manifest-path "$repo/Cargo.toml" -p ccd-bench --bins
bins="${CARGO_TARGET_DIR:-$repo/target}/release"

# bench_probe's host-dependent fields, dropped from both sides before the diff.
probe_clock='"(engine|ns_per_op|vs_planar|trial_spread)"'

# env override | bin | result file | filtered fields (empty: byte-identical)
# The golden is tests/golden/<result file, lower case>.quick.json.
checks=(
  "|table2_workloads|table2_workloads|"
  "|fig4_scalability|fig4_scalability|"
  "|fig7_hash_characteristics|fig7_hash_characteristics|"
  "|fig8_occupancy|fig8_occupancy|"
  "|fig9_provisioning|fig9_provisioning|"
  "|fig10_insertion_attempts|fig10_insertion_attempts|"
  "|fig11_attempt_distribution|fig11_attempt_distribution|"
  "|fig12_invalidation_rates|fig12_invalidation_rates|"
  "|fig13_energy_area|fig13_energy_area|"
  "|headline_ratios|headline_ratios|"
  "|ablation_attempt_cap|ablation_attempt_cap|"
  "|ablation_sharer_format|ablation_sharer_format|"
  "|hash_function_study|hash_function_study_raw|"
  "|hash_function_study|hash_function_study_sim|"
  "|bench_scenarios|BENCH_scenarios|"
  "|bench_service|BENCH_service|"
  "|bench_chaos|BENCH_chaos|"
  "|bench_obs|BENCH_obs|"
  "|bench_probe|BENCH_probe|$probe_clock"
  "CCD_WORKERS=1|fig10_insertion_attempts|fig10_insertion_attempts|"
  "CCD_WORKERS=1|fig11_attempt_distribution|fig11_attempt_distribution|"
  "CCD_WORKERS=1|bench_scenarios|BENCH_scenarios|"
  "CCD_OBS=obs-ring1024-spans|fig7_hash_characteristics|fig7_hash_characteristics|"
)

# Every result a bin writes must be pinned by a plain row (a name the grep
# cannot read off the call shows up as `?` and fails the same way).
rows="$(printf '%s\n' "${checks[@]}")"
for src in "$repo"/crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  grep -q 'write_json(' "$src" || continue
  results="$(grep -oE 'write_json\("[^"]+"' "$src" | cut -d'"' -f2)"
  for result in ${results:-?}; do
    if ! grep -q "^|$bin|$result|" <<<"$rows"; then
      echo "golden: $bin writes $result.json but no row checks it" >&2
      exit 1
    fi
  done
done

strip() {
  if [ -n "$2" ]; then grep -vE "$2" "$1"; else cat "$1"; fi
}

ran=
for check in "${checks[@]}"; do
  IFS='|' read -r override bin result fields <<<"$check"
  # Plain runs share OUT_DIR itself; each override gets a directory of its own.
  dir="$out${override:+/${override%%=*}}"
  mkdir -p "$dir"
  echo "golden: ${override:+$override }$bin -> $result.json"
  # A bin with two result files has two consecutive rows and runs once.
  if [ "$override|$bin" != "$ran" ]; then
    env ${override:+"$override"} CCD_SCALE=quick CCD_RESULTS_DIR="$dir" "$bins/$bin" >/dev/null
    ran="$override|$bin"
  fi
  golden="$repo/tests/golden/$(tr '[:upper:]' '[:lower:]' <<<"$result").quick.json"
  diff -u <(strip "$golden" "$fields") \
          <(strip "$dir/$result.json" "$fields")
done
echo "golden: all ${#checks[@]} checks match (outputs under $out)"
