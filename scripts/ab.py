#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: one revision against another.

    scripts/ab.py --against <rev> [--change <rev>] [--workload W]... [--pairs N]

Checks out `--against` (the parent) and `--change` (default HEAD) as two
detached `git worktree`s under a temporary directory, builds BENCHMARK.json's
command once in each with a target directory of its own, then runs N pairs
(default 10) per workload (default: every workload BENCHMARK.json lists) at
its `run_seconds` with `--trace 0`.  Which side runs first alternates from
pair to pair; both runs of a pair share one seed, drawn from a range printed
at the start, well above the seeds 1-10 the benchmark's own checks use.
Only committed files are measured: uncommitted edits are not in either
worktree.

Per workload and end-to-end metric it prints the parent's and the change's
medians, the median shift as a fraction of the parent's median (positive
means better, by the metric's direction), how many pairs the change won
(ties count for neither side), the parent's interquartile range over its
median, and a verdict:

  moved         the change won, or lost, at least nine pairs in ten and
                the medians differ by more than the parent's IQR
  within bound  not moved, the change's median is no worse than the
                parent's by more than the metric's BENCHMARK.json bound,
                and the parent's IQR is within that bound
  unresolved    neither: the runs spread too widely to tell
  equal         every pair read the same value

Before the runs it prints, from `nm`, where the cuckoo table's and
directory's compiled functions start modulo 64 on each side, one row per
function name (generic arguments and hashes stripped, one offset per
instance), and flags the names whose offsets differ.  A metric that moves
when no code on its path changed is then checked against code alignment
from this output alone.

Metrics measured in op/s, s or MiB are timings and memory.  Every other
metric is counted from what the run computed, so it must repeat exactly for
a shared seed; so must the `digest` line.  The exit status is 1 when any of
them differs within a pair or a run fails its own checks, and 0 otherwise.
"""

import argparse
import json
import math
import os
import pathlib
import random
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
MEASURED_UNITS = {"op/s", "s", "MiB"}
# The metrics each pair's progress line shows, parent -> change.
PROGRESS = ("ops_per_s", "setup_s", "peak_rss_mb")
# The functions whose start offsets modulo 64 are compared: everything
# compiled from the cuckoo table and the directory built on it.
HOT = ("ccd_cuckoo::table", "ccd_cuckoo::directory")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


class Side:
    """One revision checked out and built in a worktree of its own."""

    def __init__(self, name, rev, scratch, command):
        self.name = name
        self.commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        self.tree = scratch / name
        self.env = {**os.environ, "CARGO_TARGET_DIR": str(scratch / f"target-{name}")}
        self.command = command
        git("worktree", "add", "--detach", str(self.tree), self.commit)

    def build(self):
        argv = ["build" if word == "run" else word for word in self.command if word != "--"]
        subprocess.run(argv, cwd=self.tree, env=self.env, check=True)

    def hot_offsets(self):
        """Function name -> sorted start offsets modulo 64, from `nm`."""
        binary = pathlib.Path(self.env["CARGO_TARGET_DIR"]) / "release" / "benchmark"
        done = subprocess.run(["nm", "-C", "--defined-only", str(binary)],
                              capture_output=True, text=True)
        offsets = {}
        for line in done.stdout.splitlines():
            addr, kind, name = (line.split(" ", 2) + ["", ""])[:3]
            if kind.lower() != "t":
                continue
            # Strip generic argument lists (no spaces inside), keeping the
            # `<impl T>` and `<T as Trait>` paths that say what a method is.
            name = re.sub(r"::h[0-9a-f]{16}$", "", name)
            while (bare := re.sub(r"<[^<>\s]*>", "", name)) != name:
                name = bare
            if any(hot in name for hot in HOT):
                offsets.setdefault(name, []).append(int(addr, 16) % 64)
        return {name: sorted(found) for name, found in offsets.items()}

    def run(self, workload, seed, seconds):
        argv = self.command + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=self.tree, env=self.env,
                              capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"{self.name} ({self.commit[:10]}): {' '.join(argv)} exited "
                     f"{done.returncode}\n{done.stdout}{done.stderr}")
        digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
        return json.loads(lines[-1]), digest

    def remove(self):
        subprocess.run(["git", "worktree", "remove", "--force", str(self.tree)],
                       cwd=ROOT, capture_output=True)


def iqr_over_median(values):
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else math.inf


def verdict(metric, base, change):
    """The row for one metric: medians, shift, wins, parent IQR, verdict.

    >>> lower = {"better": "lower", "bound": 0.25}
    >>> parent = [0.28, 0.29, 0.29, 0.30, 0.31, 0.28, 0.29, 0.30, 0.29, 0.30]
    >>> def wins_and_word(change, metric=lower):
    ...     row = verdict(metric, parent, change)
    ...     return row[3], row[5]
    >>> wins_and_word([v * 0.62 for v in parent])
    (10, 'moved (better)')
    >>> wins_and_word([v * 1.5 for v in parent])
    (0, 'moved (worse)')

    Short of nine pairs in ten, a change is "within bound" when neither its
    median's loss nor the parent's IQR exceeds the bound, else "unresolved":

    >>> mixed = [v * (0.9 if i % 3 else 1.1) for i, v in enumerate(parent)]
    >>> wins_and_word(mixed)
    (6, 'within bound')
    >>> wins_and_word(mixed, dict(lower, bound=0.01))
    (6, 'unresolved')
    >>> verdict({"better": "higher", "bound": 1e-7}, [1.0] * 10, [1.0] * 10)
    (1.0, 1.0, 0.0, 0, 0.0, 'equal')
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    m_base, m_change = statistics.median(base), statistics.median(change)
    scale = abs(m_base) or 1.0
    shift = sign * (m_change - m_base) / scale
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    iqr = iqr_over_median(base)
    needed = math.ceil(0.9 * len(base))
    if base == change:
        word = "equal"
    elif max(wins, losses) >= needed and abs(shift) > iqr:
        word = "moved (better)" if shift > 0 else "moved (worse)"
    elif -shift <= metric["bound"] and iqr <= metric["bound"]:
        word = "within bound"
    else:
        word = "unresolved"
    return m_base, m_change, shift, wins, iqr, word


def print_alignment(parent, change):
    """One row per hot function: its offsets modulo 64 on both sides, as
    `offset×instances`."""
    def cell(offsets):
        return " ".join(f"{o}×{offsets.count(o)}" for o in sorted(set(offsets))) or "-"

    print("\n| function | parent mod 64 | change mod 64 | |")
    print("|---|---|---|---|")
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name, []), change.get(name, [])
        print(f"| {name} | {cell(a)} | {cell(b)} | {'' if a == b else 'DIFFERS'} |")
    print(flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision (default HEAD)")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.pairs < 1:
        sys.exit(f"unknown workload {unknown} (BENCHMARK.json lists {known})"
                 if unknown else "--pairs must be at least 1")
    declared = spec["end_to_end"]
    exact = [m["name"] for m in declared if m["unit"] not in MEASURED_UNITS]

    base_seed = random.SystemRandom().randrange(100_000, 900_000)
    seeds = range(base_seed, base_seed + args.pairs)
    print(f"seeds {seeds.start}..{seeds.stop - 1}", flush=True)

    problems = []
    with tempfile.TemporaryDirectory(prefix="ccd-ab-") as scratch:
        scratch = pathlib.Path(scratch)
        sides = []
        try:
            sides.append(Side("parent", args.against, scratch, spec["command"]))
            sides.append(Side("change", args.change, scratch, spec["command"]))
            parent, change = sides
            print(f"parent {parent.commit[:10]}  change {change.commit[:10]}", flush=True)
            for side in sides:
                side.build()
            print_alignment(parent.hot_offsets(), change.hot_offsets())

            rows = []
            for workload in workloads:
                values = {side.name: {m["name"]: [] for m in declared} for side in sides}
                for pair, seed in enumerate(seeds):
                    order = sides if pair % 2 == 0 else sides[::-1]
                    got = {side.name: side.run(workload, seed, spec["run_seconds"])
                           for side in order}
                    for name, (result, _) in got.items():
                        if not result["correct"] or result["failed"]:
                            problems.append(f"{workload} seed {seed}: {name} run "
                                            f"correct={result['correct']} failed={result['failed']}")
                        for metric in declared:
                            values[name][metric["name"]].append(
                                result["metrics"][metric["name"]]["value"])
                    (r_base, d_base), (r_change, d_change) = got["parent"], got["change"]
                    if d_base != d_change:
                        problems.append(f"{workload} seed {seed}: digest {d_base} -> {d_change}")
                    for name in exact:
                        a = r_base["metrics"][name]["value"]
                        b = r_change["metrics"][name]["value"]
                        if a != b:
                            problems.append(f"{workload} seed {seed}: {name} {a} -> {b}")
                    shown = "  ".join(
                        f"{name} {r_base['metrics'][name]['value']:.6g} -> "
                        f"{r_change['metrics'][name]['value']:.6g}" for name in PROGRESS)
                    print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} "
                          f"({order[0].name} first): {shown}", flush=True)
                for metric in declared:
                    name = metric["name"]
                    rows.append((workload, metric,
                                 verdict(metric, values["parent"][name], values["change"][name])))
        finally:
            for side in sides:
                side.remove()
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    print(f"\n| workload | metric | parent | change | shift | wins | parent IQR | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, metric, (m_base, m_change, shift, wins, iqr, word) in rows:
        print(f"| {workload} | {metric['name']} | {m_base:.6g} | {m_change:.6g} | "
              f"{shift:+.4f} | {wins}/{args.pairs} | {iqr:.4f} | {metric['bound']} | {word} |")
    for problem in problems:
        print(f"DIFFERS: {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
