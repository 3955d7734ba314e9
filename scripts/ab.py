#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: one revision against another.

    scripts/ab.py --against <rev> [--change <rev>] [--workload W]... [--pairs N]
                  [--seconds S] [--align64]
    scripts/ab.py --aa [--change <rev>] [--workload W]... [--pairs N] [--seconds S]
                  [--align64]

Exports `--against` (the parent) and `--change` (default HEAD) with `git
archive`, in turn, into one fixed source directory, `ccd-ab/src` under the
system's temporary directory (`TMPDIR`), and builds BENCHMARK.json's
command there for each, each side with a target directory of its own
beside it.  The source path decides the code layout of the build (two
exports of one commit to two paths build two different binaries; to one
path, one), so both sides, and every run of this script under one `TMPDIR`,
draw the same layout for the same code.  The header prints each binary's
sha256.  It then runs each side's binary from its target directory for N
pairs (default 10) per workload (default: every workload BENCHMARK.json
lists) of S seconds each (default: BENCHMARK.json's `run_seconds`) with
`--trace 0`.  Which side runs first alternates from pair to pair; both runs
of a pair share one seed, drawn from a range printed at the start, well
above the seeds 1-10 the benchmark's own checks use.  Only committed files
are measured: uncommitted edits are not in either export.  `--aa` exports
and builds `--change` twice, stops unless the two binaries hash equal, and
runs one on each side, so its verdicts show what the clock reads when
nothing changed.  One run of this script at a time: the directory is
emptied at the start and removed at the end.

Each metric is judged by its per-pair log ratio, log(change / parent),
signed so that positive means better by the metric's direction.  Per
workload and end-to-end metric the script prints the parent's and the
change's medians, the median per-pair shift (the median log ratio, as a
fraction), how many pairs the change won (ties count for neither side), a
distribution-free interval for the median shift taken from the order
statistics of the pairs, its half-width as the run's resolution, and a
verdict.  The interval covers at least 1 - 0.10/m, where m is the number
of timed metrics the run judges (three a workload, twelve for all four), so
an A/A run reads a false *moved* on any of them at most one time in ten:

  moved         the interval excludes zero: the change is better, or worse
  within bound  not moved, and the interval's worse end is inside the
                metric's BENCHMARK.json bound
  unresolved    neither: the interval is wider than the bound allows
  equal         every pair read the same value

A shift smaller than the printed resolution is not a measurement.  The
interval is the narrowest pair of order statistics that reaches the level,
so the coverage it does reach depends on N and m, and the table's header
prints both.  With all four workloads (m = 12, at least 99.2 %) ten pairs
give the whole range of the ten ratios, 99.8 %, so a metric moves only when
every pair agrees; forty give the 12th to 29th of forty, 99.4 %.  With one
workload (m = 3, at least 96.7 %) ten pairs give the 2nd to 9th, 97.9 %.
Fewer than eight pairs (m = 12) or six (m = 3) reach no interval, so their
verdicts read unresolved.

Before the runs it prints, from `nm`, where the cuckoo table's and
directory's compiled functions start modulo 64 on each side, one row per
function name (generic arguments and hashes stripped, one offset per
instance), and flags the names whose offsets differ.  A metric that moves
when no code on its path changed is then checked against code alignment
from this output alone.  `--align64` builds both sides with every function
aligned to 64 bytes (`RUSTFLAGS` gains `-C
llvm-args=-align-all-functions=6`, and the header prints the `RUSTFLAGS`
both sides were built with): a move that survives it is not a draw of
function placement.

Metrics measured in op/s, s or MiB are timings and memory.  Every other
metric is counted from what the run computed, so it must repeat exactly for
a shared seed; so must the `digest` line.  The exit status is 1 when any of
them differs within a pair or a run fails its own checks, and 0 otherwise.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import random
import re
import shutil
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
# The code-generation flag `--align64` adds: every function starts on a
# 64-byte boundary.
ALIGN64 = "-C llvm-args=-align-all-functions=6"


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def sha256(path):
    """The hex sha256 of the file at `path`.

    >>> import tempfile
    >>> with tempfile.NamedTemporaryFile() as f:
    ...     _ = f.write(b"abc"); f.flush(); sha256(f.name)[:16]
    'ba7816bf8f01cfea'
    """
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def same_build(parent, change):
    """Stop an A/A run whose two builds of one commit at one path differ:
    then the layout is not a function of the source, and the run cannot
    tell a move from a layout draw.

    >>> same_build("ab12", "ab12")
    >>> same_build("ab12", "cd34")
    Traceback (most recent call last):
    ...
    SystemExit: two builds of one commit differ (sha256 ab12 vs cd34): the layout is not a function of the source
    """
    if parent != change:
        sys.exit(f"two builds of one commit differ (sha256 {parent} vs {change}): "
                 "the layout is not a function of the source")


def build_env(environ, target, align64):
    """The environment a side builds in: `environ` with the side's own
    target directory and, for `--align64`, `ALIGN64` after any `RUSTFLAGS`
    already set.

    >>> env = build_env({"PATH": "/bin"}, "/t", False)
    >>> env["CARGO_TARGET_DIR"], env.get("RUSTFLAGS"), env["PATH"]
    ('/t', None, '/bin')
    >>> build_env({}, "/t", True)["RUSTFLAGS"]
    '-C llvm-args=-align-all-functions=6'
    >>> build_env({"RUSTFLAGS": "-g"}, "/t", True)["RUSTFLAGS"]
    '-g -C llvm-args=-align-all-functions=6'
    """
    env = {**environ, "CARGO_TARGET_DIR": str(target)}
    if align64:
        env["RUSTFLAGS"] = " ".join(filter(None, [environ.get("RUSTFLAGS"), ALIGN64]))
    return env


class Side:
    """One revision, built from the shared source directory into a target
    directory of its own."""

    def __init__(self, name, rev, work, command, align64):
        self.name = name
        self.commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        self.target = work / f"target-{name}"
        self.binary = self.target / "release" / "benchmark"
        self.command = command
        self.env = build_env(os.environ, self.target, align64)

    def build(self, source):
        """Exports the revision into `source`, emptied first, and builds it."""
        shutil.rmtree(source, ignore_errors=True)
        source.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", self.commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(source)], input=archive, check=True)
        argv = ["build" if word == "run" else word for word in self.command if word != "--"]
        subprocess.run(argv, cwd=source, env=self.env, check=True)
        self.sha256 = sha256(self.binary)

    def hot_offsets(self):
        """Function name -> sorted start offsets modulo 64, from `nm`."""
        done = subprocess.run(["nm", "-C", "--defined-only", str(self.binary)],
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
        argv = [str(self.binary), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=self.target, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"{self.name} ({self.commit[:10]}): {' '.join(argv)} exited "
                     f"{done.returncode}\n{done.stdout}{done.stderr}")
        digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
        return json.loads(lines[-1]), digest


def binomial_cdf(k, n):
    """P(X <= k) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n


def interval_ranks(n, family=1):
    """1-based ranks (lo, hi) of the order statistics bounding a
    distribution-free interval for the median of n values, covering at
    least 1 - 0.10/family, so that `family` such intervals all cover their
    medians at least 90 % of the time; None when n values are too few.

    >>> interval_ranks(10)
    (2, 9)
    >>> interval_ranks(40)
    (15, 26)
    >>> interval_ranks(5), interval_ranks(4)
    ((1, 5), None)
    >>> interval_ranks(10, 12), interval_ranks(40, 12), interval_ranks(10, 3)
    ((1, 10), (12, 29), (2, 9))
    >>> interval_ranks(8, 12), interval_ranks(7, 12), interval_ranks(6, 3)
    ((1, 8), None, (1, 6))
    """
    best = None
    for k in range(1, n // 2 + 1):
        if ranks_coverage(k, n) >= 1 - 0.10 / family:
            best = (k, n + 1 - k)
    return best


def ranks_coverage(lo, n):
    """How often the interval between the lo-th smallest and the lo-th
    largest of n values covers their median.

    >>> round(ranks_coverage(2, 10), 4), round(ranks_coverage(15, 40), 4)
    (0.9785, 0.9193)
    """
    return 1 - 2 * binomial_cdf(lo - 1, n)


def log_ratio(base, change):
    if base == change:
        return 0.0
    if base <= 0 or change <= 0:
        return math.copysign(math.inf, change - base)
    return math.log(change / base)


def verdict(metric, base, change, family):
    """The row for one metric judged among `family` timed metrics:
    medians, median shift, wins, the interval of the shift (see
    `interval_ranks`), its half-width (the resolution), verdict.
    Shifts are per-pair log ratios, signed so that positive is better.
    The examples judge one workload's three timed metrics.

    >>> lower = {"better": "lower", "bound": 0.25}
    >>> parent = [0.28, 0.29, 0.29, 0.30, 0.31, 0.28, 0.29, 0.30, 0.29, 0.30]
    >>> def word(change, metric=lower, base=parent, family=3):
    ...     row = verdict(metric, base, change, family)
    ...     return row[3], round(row[6], 3), row[7]
    >>> word([v * 0.62 for v in parent])
    (10, 0.0, 'moved (better)')
    >>> word([v * 1.5 for v in parent])
    (0, 0.0, 'moved (worse)')

    Noise that straddles zero is not a move.  It is within bound while the
    interval's worse end stays inside the bound, else unresolved:

    >>> mixed = [v * (0.9 if i % 3 else 1.1) for i, v in enumerate(parent)]
    >>> word(mixed)
    (6, 0.1, 'within bound')
    >>> word(mixed, dict(lower, bound=0.05))
    (6, 0.1, 'unresolved')

    The interval runs from the 2nd- to the 9th-smallest of ten ratios, so
    one outlying pair cannot unmake a move, and two can:

    >>> word([v * (0.8 if i else 1.3) for i, v in enumerate(parent)])
    (9, 0.0, 'moved (better)')
    >>> word([v * (0.8 if i > 1 else 1.3) for i, v in enumerate(parent)])
    (8, 0.243, 'within bound')

    Among all four workloads' twelve, the interval is the whole range of
    the ten ratios, so one outlying pair unmakes the move:

    >>> word([v * (0.8 if i else 1.3) for i, v in enumerate(parent)], family=12)
    (9, 0.243, 'within bound')

    Too few pairs to reach the level read unresolved, and identical pairs
    read equal:

    >>> word(parent[:4], base=parent[:4]), word([v * 0.5 for v in parent[:4]], base=parent[:4])
    ((0, inf, 'equal'), (4, inf, 'unresolved'))
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    ratios = sorted(sign * log_ratio(b, c) for b, c in zip(base, change))
    m_base, m_change = statistics.median(base), statistics.median(change)
    shift = math.expm1(statistics.median(ratios))
    wins = sum(r > 0 for r in ratios)
    ranks = interval_ranks(len(ratios), family)
    lo, hi = (ratios[ranks[0] - 1], ratios[ranks[1] - 1]) if ranks else (-math.inf, math.inf)
    resolution = (hi - lo) / 2 if ranks else math.inf
    if base == change:
        word = "equal"
    elif lo > 0 or hi < 0:
        word = "moved (better)" if lo > 0 else "moved (worse)"
    elif math.expm1(lo) >= -metric["bound"]:
        word = "within bound"
    else:
        word = "unresolved"
    return m_base, m_change, shift, wins, math.expm1(lo), math.expm1(hi), resolution, word


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
    parser.add_argument("--against", help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision (default HEAD)")
    parser.add_argument("--aa", action="store_true",
                        help="run --change on both sides: the null spread")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds a run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--align64", action="store_true",
                        help="build both sides with every function aligned to 64 bytes")
    args = parser.parse_args()
    if not args.aa and args.against is None:
        parser.error("--against is required without --aa")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.pairs < 1:
        sys.exit(f"unknown workload {unknown} (BENCHMARK.json lists {known})"
                 if unknown else "--pairs must be at least 1")
    declared = spec["end_to_end"]
    exact = [m["name"] for m in declared if m["unit"] not in MEASURED_UNITS]
    # Every timed metric of every workload is one more chance of a false
    # move: the intervals widen with their number.
    family = (len(declared) - len(exact)) * len(workloads)

    base_seed = random.SystemRandom().randrange(100_000, 900_000)
    seeds = range(base_seed, base_seed + args.pairs)
    print(f"seeds {seeds.start}..{seeds.stop - 1}  {seconds:g} s a run", flush=True)

    problems = []
    work = pathlib.Path(tempfile.gettempdir()) / "ccd-ab"
    shutil.rmtree(work, ignore_errors=True)
    try:
        change = Side("change", args.change, work, spec["command"], args.align64)
        parent = Side("parent", args.change if args.aa else args.against, work,
                      spec["command"], args.align64)
        print(f"RUSTFLAGS=\"{change.env.get('RUSTFLAGS', '')}\""
              f"{'  (--align64)' if args.align64 else ''}", flush=True)
        sides = {"parent": parent, "change": change}
        for side in sides.values():
            side.build(work / "src")
        print(f"parent {parent.commit[:10]} sha256 {parent.sha256[:16]}  "
              f"change {change.commit[:10]} sha256 {change.sha256[:16]}"
              f"{'  (A/A)' if args.aa else ''}", flush=True)
        if args.aa:
            same_build(parent.sha256, change.sha256)
        print_alignment(parent.hot_offsets(), change.hot_offsets())

        rows = []
        for workload in workloads:
            values = {name: {m["name"]: [] for m in declared} for name in sides}
            for pair, seed in enumerate(seeds):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                got = {name: sides[name].run(workload, seed, seconds) for name in order}
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
                      f"({order[0]} first): {shown}", flush=True)
            for metric in declared:
                name = metric["name"]
                rows.append((workload, metric, verdict(
                    metric, values["parent"][name], values["change"][name], family)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ranks = interval_ranks(args.pairs, family)
    floor = f"at least {100 * (1 - 0.10 / family):.1f} % for {family} timed metrics"
    level = (f"{100 * ranks_coverage(ranks[0], args.pairs):.1f} % interval ({floor})"
             if ranks else f"interval (none reaches {floor})")
    print(f"\n| workload | metric | parent | change | shift | wins | {level} "
          "| resolution | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload, metric, (m_base, m_change, shift, wins, lo, hi, resolution, word) in rows:
        print(f"| {workload} | {metric['name']} | {m_base:.6g} | {m_change:.6g} | "
              f"{shift:+.4f} | {wins}/{args.pairs} | [{lo:+.4f}, {hi:+.4f}] | "
              f"±{resolution:.4f} | {metric['bound']} | {word} |")
    for problem in problems:
        print(f"DIFFERS: {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
