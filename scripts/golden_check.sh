#!/usr/bin/env bash
# Golden check: runs every result-writing bin of ccd-bench at CCD_SCALE=quick
# and diffs its JSON against tests/golden/.  One table drives the plain runs,
# the CCD_WORKERS=1 re-runs (serial == parallel, byte level) and the
# CCD_OBS-armed re-run (contract #11: observation moves no result byte).
#
#   scripts/golden_check.sh [OUT_DIR]     # default: a fresh temp directory
#
# The bins run from a scratch working directory, so the BENCH_*.json copies
# checked in at the repository root are never overwritten; the dual-write
# guard compares the two copies each BENCH bin wrote under OUT_DIR.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
cargo build --release -q --manifest-path "$repo/Cargo.toml" -p ccd-bench --bins
bins="${CARGO_TARGET_DIR:-$repo/target}/release"

# Wall-clock-derived fields, dropped from both sides before the diff.
clock='"(seconds|mops_per_sec)"'
obs_clock='"(seconds|mops_per_sec|overhead)"'
probe_clock='"(engine|[a-z_]*ns_per_op|speedup_[a-z_]*|vs_planar|trial_spread)"'

# env override | bin | result file | filtered fields (empty: byte-identical)
checks=(
  "|fig7_hash_characteristics|fig7_hash_characteristics|"
  "|fig10_insertion_attempts|fig10_insertion_attempts|"
  "|fig11_attempt_distribution|fig11_attempt_distribution|"
  "|fig12_invalidation_rates|fig12_invalidation_rates|"
  "|ablation_sharer_format|ablation_sharer_format|"
  "|bench_scenarios|BENCH_scenarios|"
  "|bench_service|BENCH_service|$clock"
  "|bench_chaos|BENCH_chaos|$clock"
  "|bench_probe|BENCH_probe|$probe_clock"
  "|bench_obs|BENCH_obs|$obs_clock"
  "CCD_WORKERS=1|fig10_insertion_attempts|fig10_insertion_attempts|"
  "CCD_WORKERS=1|fig11_attempt_distribution|fig11_attempt_distribution|"
  "CCD_WORKERS=1|bench_scenarios|BENCH_scenarios|"
  "CCD_OBS=obs-ring1024-spans|fig7_hash_characteristics|fig7_hash_characteristics|"
)

strip() {
  if [ -n "$2" ]; then grep -vE "$2" "$1"; else cat "$1"; fi
}

for check in "${checks[@]}"; do
  IFS='|' read -r override bin result fields <<<"$check"
  # Plain runs share OUT_DIR itself; each override gets a directory of its own.
  dir="$out${override:+/${override%%=*}}"
  mkdir -p "$dir/root"
  echo "golden: ${override:+$override }$bin"
  (cd "$dir/root" &&
    env ${override:+"$override"} CCD_SCALE=quick CCD_RESULTS_DIR="$dir" "$bins/$bin" >/dev/null)
  diff -u <(strip "$repo/tests/golden/$bin.quick.json" "$fields") \
          <(strip "$dir/$result.json" "$fields")
  if [[ $result == BENCH_* ]]; then
    cmp "$dir/root/$result.json" "$dir/$result.json"
  fi
done
echo "golden: all ${#checks[@]} checks match (outputs under $out)"
