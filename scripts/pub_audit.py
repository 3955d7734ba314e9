#!/usr/bin/env python3
"""List the public library items that nothing outside their own crate names.

    scripts/pub_audit.py

A library item is public so that another crate can use it.  For every
`pub` fn, struct, enum, trait, type alias, const and static declared in a
library crate (`crates/*/src`, the `ccd-bench` binaries excluded), this
script looks for its name as a whole word in every tracked `.rs` file that
is not part of that crate and is not a test: the other library crates, the
facade (`src/`), the examples and every binary, the benchmark's included.
Integration tests (`tests/` directories) do not count as users: an item
only a test calls is private, unless the keep-list below says which
numbered contract that test checks through it.  Plain `//` comments are
ignored; doc comments count, because rustdoc resolves their links.

The match is by name, so a method called `new` is "used" wherever any
`new` appears: the audit misses items, it never flags a used one.  It
prints each unnamed item as `file:line name` and exits 1 when one is not
in `KEEP` or when `KEEP` lists a name that is no longer unnamed, and 0
otherwise.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Public although no other crate names them.  Each entry says why.
KEEP = {
    # Named only by integration tests that check a numbered contract
    # (ARCHITECTURE.md) through them:
    # - #9, the table is observationally the reference table
    #   (`table_lockstep`, `property_invariants`), at either key width;
    "AosReferenceTable", "with_key_word", "narrow_keys",
    # - #5, zero allocation (`zero_alloc` builds a narrow-key table;
    #   `ahead_alloc` sizes its streams in ahead batches);
    "AHEAD_BATCH",
    # - #6, #8 and #11, whose driver (`crates/service/tests/contracts.rs`)
    #   runs the service's two load drivers.
    "run_load", "run_load_serial",
    # Named only by integration tests that check across crates what no
    # crate's own tests can: `directory_contract` drives batches around the
    # pipeline depth and holds resolved slices to the system's cache count;
    # `model_cross_checks` ties the energy model's slice to the simulator's;
    # `parser_fuzz` holds `read_all` to iteration on hostile traces.
    "PIPELINE_DEPTH", "resolve", "num_private_caches", "tracked_sets_per_slice",
    "slice_environment", "read_all",
    # A later user: the stored outcome log's size, which ROADMAP item 1(e)
    # reads; the energy ledger's inputs, which ROADMAP item 11 decides.
    "stored_bytes", "with_event_mix", "with_cuckoo_attempts",
    # Types a public signature names, so rustc requires them public.
    "KeyWord", "EvictionView", "OutcomeIter", "PointerSet", "StrongFamily",
    "ServiceError", "OutcomeLog", "ServiceStats", "ObsReport", "FlightRecording",
    "RawEvent", "EventKind", "OpStream", "CacheStats", "Eviction", "HistogramSnapshot",
    "ScalingPoint", "SliceEnvironment", "WorkloadCategory", "ScenarioFamily",
    "ScenarioParams", "SweepCell", "CellKey",
}

ITEM = re.compile(
    r"^\s*pub\s+(?:const\s+|unsafe\s+|async\s+|extern\s+\"C\"\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static|union)\s+([A-Za-z_][A-Za-z0-9_]*)")
LINE_COMMENT = re.compile(r"(?<![/:])//(?![/!]).*$")


def declarations(text):
    """(line number, name) of each `pub` item declared in `text`.

    >>> src = "pub fn a() {}\\npub(crate) fn b() {}\\n    pub const fn c() {}\\npub struct D;"
    >>> declarations(src)
    [(1, 'a'), (3, 'c'), (4, 'D')]
    """
    return [(n, m.group(1)) for n, line in enumerate(text.splitlines(), 1)
            if (m := ITEM.match(line))]


def words(text):
    """The identifiers `text` names outside plain `//` comments.

    >>> sorted(words("let x = a::b(); // c\\n/// [`D`]\\nlet u = \\"http://e\\";"))
    ['D', 'a', 'b', 'e', 'http', 'let', 'u', 'x']
    """
    kept = (LINE_COMMENT.sub("", line) for line in text.splitlines())
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", "\n".join(kept)))


def unnamed(libraries, users):
    """(crate, file, line, name) of each public item no other crate names.

    `libraries` maps a crate to {file: text}; `users` maps a crate (or a
    binary, example or the facade) to the set of words its files name.

    >>> libs = {"a": {"a.rs": "pub fn used() {}\\npub fn only_here() {}"}}
    >>> unnamed(libs, {"a": {"only_here"}, "b": {"used"}})
    [('a', 'a.rs', 2, 'only_here')]
    """
    found = []
    for crate, files in sorted(libraries.items()):
        elsewhere = set().union(*(w for user, w in users.items() if user != crate))
        for path, text in sorted(files.items()):
            found += [(crate, path, line, name) for line, name in declarations(text)
                      if name not in elsewhere]
    return found


def owner(path):
    """The crate a tracked `.rs` path belongs to, or None for a test.

    >>> [owner(p) for p in ("crates/core/src/table.rs", "crates/core/tests/x.rs",
    ...                     "crates/bench/src/bin/figs/main.rs", "tests/e.rs",
    ...                     "examples/q.rs", "src/lib.rs")]
    ['core', None, 'bin:figs', None, 'example:q', 'facade']
    """
    parts = pathlib.PurePosixPath(path).parts
    if "tests" in parts[:3]:
        return None
    if parts[0] == "crates":
        if parts[2:4] == ("src", "bin"):
            return f"bin:{pathlib.PurePosixPath(*parts[4:]).parts[0].removesuffix('.rs')}"
        return parts[1]
    if parts[0] == "examples":
        return f"example:{pathlib.PurePosixPath(path).stem}"
    return "facade"


def main():
    tracked = subprocess.run(["git", "ls-files", "*.rs"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.split()
    libraries, users = {}, {}
    for path in tracked:
        crate = owner(path)
        if crate is None:
            continue
        text = (ROOT / path).read_text()
        users.setdefault(crate, set()).update(words(text))
        if path.startswith("crates/") and ":" not in crate:
            libraries.setdefault(crate, {})[path] = text
    found = unnamed(libraries, users)
    unexplained = [f for f in found if f[3] not in KEEP]
    stale = sorted(KEEP - {f[3] for f in found})
    for _, path, line, name in found:
        print(f"{path}:{line} {name}{'' if name in KEEP else '  UNEXPLAINED'}")
    for name in stale:
        print(f"KEEP lists {name}, which another crate names or nothing declares")
    print(f"{len(found)} public items named by no other crate; "
          f"{len(found) - len(unexplained)} kept, {len(unexplained)} unexplained")
    sys.exit(1 if unexplained or stale else 0)


if __name__ == "__main__":
    main()
