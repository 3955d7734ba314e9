#!/usr/bin/env python3
"""Self-agreement check (the issue's `--repeat 2`): run the benchmark the way
BENCHMARK.json says, ten seeds per workload, in two back-to-back sets, and
judge the benchmark by its own bounds.

For every workload and end-to-end metric it prints both sets' medians, by how
much the second is worse, each set's spread (interquartile range over the
median, by statistics.quantiles(n=4)) and PASS or FAIL: a metric passes when
both spreads and the worsening stay within its bound.  It also checks that
every run is correct, that no operation failed, and that different seeds give
different digests.  Exit status is non-zero on any FAIL.  About 45 minutes.

    python3 crates/bench/src/bin/benchmark/agree.py
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[5]
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload, seed):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}\n{done.stdout}{done.stderr}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    declared = spec["end_to_end"]

    # values[set][workload][metric] -> one value per seed
    values = [{w: {m["name"]: [] for m in declared} for w in workloads} for _ in range(SETS)]
    failures = []
    for index in range(SETS):
        for workload in workloads:
            digests = set()
            for seed in SEEDS:
                result, digest = run_once(spec, workload, seed)
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    failures.append(f"{workload} seed {seed}: {result}")
                if set(result["metrics"]) != {m["name"] for m in declared}:
                    failures.append(f"{workload} seed {seed}: metric names differ from BENCHMARK.json")
                for metric in declared:
                    got = result["metrics"][metric["name"]]
                    if got["unit"] != metric["unit"]:
                        failures.append(f"{workload} {metric['name']}: unit {got['unit']}")
                    values[index][workload][metric["name"]].append(got["value"])
                digests.add(digest)
                print(f"set {index + 1} {workload} seed {seed}: digest {digest} "
                      f"ops_per_s {result['metrics']['ops_per_s']['value']:.6g}", flush=True)
            if len(digests) != len(SEEDS):
                failures.append(f"{workload}: seeds share a digest")

    print(f"\n{'workload':<10} {'metric':<20} {'median 1':>14} {'median 2':>14} "
          f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>8}")
    for workload in workloads:
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            first, second = values[0][workload][name], values[1][workload][name]
            m1, m2 = statistics.median(first), statistics.median(second)
            sign = -1.0 if metric["better"] == "higher" else 1.0
            worse = sign * (m2 - m1) / abs(m1)
            s1, s2 = spread(first), spread(second)
            verdict = "PASS" if max(s1, s2, worse) <= bound else "FAIL"
            if verdict == "FAIL":
                failures.append(f"{workload} {name}: worse by {worse:.4f}, "
                                f"spreads {s1:.4f} {s2:.4f}, bound {bound}")
            print(f"{workload:<10} {name:<20} {m1:>14.6g} {m2:>14.6g} {worse:>9.4f} "
                  f"{s1:>9.4f} {s2:>9.4f} {bound:>8} {verdict}")

    for failure in failures:
        print(f"FAIL: {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
