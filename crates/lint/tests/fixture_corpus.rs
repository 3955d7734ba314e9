//! Every rule must fire — proven against a checked-in fixture corpus.
//!
//! The corpus under `tests/fixtures/ws/` is a miniature workspace whose
//! files violate each rule in a known place.  This test runs the full
//! analyzer over it and asserts the exact `(file, line, rule)` set, so a
//! regression that silences a rule (or shifts where it fires) is caught
//! by `cargo test` rather than by a missed review.
//!
//! The real workspace run excludes this directory (see
//! `Config::workspace`), so the violations here never count against the
//! tree itself.

use ccd_lint::inventory::{check_inventory, parse_inventory, render_inventory};
use ccd_lint::rules::Config;
use ccd_lint::workspace::run;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// The fixture policy: mirrors the shape of `Config::workspace` with the
/// corpus's own crate names.
fn fixture_config() -> Config {
    let owned = |items: &[&str]| items.iter().map(|s| (*s).to_string()).collect();
    Config {
        root: fixture_root(),
        scan_roots: owned(&["crates"]),
        excluded: Vec::new(),
        result_bearing: owned(&["crates/resultful"]),
        wallclock_allowed: owned(&["crates/resultful/src/bin/benchmark"]),
        spawn_allowed: owned(&["crates/resultful/src/runner.rs"]),
        lock_free: owned(&["crates/hotpath", "crates/recorder"]),
        ordering_commented: owned(&["crates/resultful/src/atomics.rs"]),
        arch_allowed: Vec::new(),
        ffi_allowed: Vec::new(),
        panic_allowlist: "lint/panic_allowlist.txt".to_string(),
        unsafe_inventory: "lint/unsafe_inventory.json".to_string(),
    }
}

#[test]
fn every_rule_fires_at_its_known_site() {
    let report = run(&fixture_config()).expect("fixture corpus is readable");
    let got: Vec<(String, usize, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let expected: Vec<(String, usize, &str)> = [
        // Hot-path crates must stay lock-free.
        ("crates/hotpath/src/locks.rs", 4, "lock-discipline"),
        ("crates/hotpath/src/locks.rs", 5, "lock-discipline"),
        ("crates/hotpath/src/locks.rs", 6, "lock-discipline"),
        // The recorder-style crate: virtual time only (wall-clock reads
        // fire even outside result-bearing scope) and a lock-free ring.
        ("crates/recorder/src/flight.rs", 5, "no-wallclock"),
        ("crates/recorder/src/flight.rs", 10, "no-wallclock"),
        ("crates/recorder/src/flight.rs", 14, "lock-discipline"),
        // An atomic ordering without a `// ordering:` justification; the
        // justified load and `cmp::Ordering` stay silent.
        ("crates/resultful/src/atomics.rs", 6, "ordering-comment"),
        // One clock: a bin beside the benchmark directory may not read it;
        // `bin/benchmark/main.rs`, under the sanctioned prefix, stays silent.
        ("crates/resultful/src/bin/figure.rs", 4, "no-wallclock"),
        // Default-hasher map and wall-clock reads in result-bearing code;
        // the `#[cfg(test)]` module's uses stay silent.
        (
            "crates/resultful/src/determinism.rs",
            4,
            "no-default-hasher",
        ),
        ("crates/resultful/src/determinism.rs", 9, "no-wallclock"),
        ("crates/resultful/src/determinism.rs", 14, "no-wallclock"),
        // Foreign declarations outside a sanctioned module (the fixture
        // config sanctions none); the `extern "C" fn` stays silent.
        ("crates/resultful/src/foreign.rs", 4, "ffi-confinement"),
        ("crates/resultful/src/foreign.rs", 5, "ffi-confinement"),
        // Bare unwrap in library code; the allowlisted `expect` and the
        // suppressed unwrap stay silent.
        ("crates/resultful/src/panics.rs", 4, "no-unwrap-in-lib"),
        // The escape hatches are themselves checked.
        ("crates/resultful/src/suppressed.rs", 3, "bad-suppression"),
        (
            "crates/resultful/src/suppressed.rs",
            8,
            "unused-suppression",
        ),
        ("crates/resultful/src/suppressed.rs", 13, "bad-suppression"),
        // Ad-hoc threads outside the sanctioned runner file.
        ("crates/resultful/src/threads.rs", 4, "thread-discipline"),
        ("crates/resultful/src/threads.rs", 8, "thread-discipline"),
        // Unsafe without SAFETY, and both blocks unregistered (the
        // inventory holds only a stale hash for line 9).
        ("crates/resultful/src/unsafe_code.rs", 4, "unsafe-audit"),
        ("crates/resultful/src/unsafe_code.rs", 4, "unsafe-inventory"),
        ("crates/resultful/src/unsafe_code.rs", 9, "unsafe-inventory"),
        // CPU-feature tokens outside a sanctioned dispatch module (the
        // fixture config sanctions none).
        ("crates/resultful/src/vectors.rs", 4, "arch-confinement"),
        ("crates/resultful/src/vectors.rs", 7, "arch-confinement"),
        ("crates/resultful/src/vectors.rs", 10, "arch-confinement"),
        // Allowlist hygiene: the stale entry and the malformed line.
        ("lint/panic_allowlist.txt", 3, "unused-allowlist"),
        ("lint/panic_allowlist.txt", 4, "unused-allowlist"),
        // Inventory hygiene: the stale entry itself.
        ("lint/unsafe_inventory.json", 9, "unsafe-inventory"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(
        got, expected,
        "diagnostic set diverged from the fixture contract"
    );
}

#[test]
fn kind_exemptions_hold() {
    // The corpus contains `src/bin/tool.rs` with an `.expect(`,
    // `runner.rs` (spawn-allowed) with `thread::spawn` and
    // `src/bin/benchmark/main.rs` (wallclock-allowed) with `Instant::now`;
    // none may produce a diagnostic.
    let report = run(&fixture_config()).expect("fixture corpus is readable");
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| ["tool.rs", "runner.rs", "benchmark/main.rs"]
                .iter()
                .any(|exempt| d.file.contains(exempt))),
        "binary/sanctioned-file exemptions regressed"
    );
}

#[test]
fn regenerated_inventory_clears_drift() {
    // `--write-inventory` closes the loop: rendering the discovered
    // blocks and checking against that inventory leaves only the
    // missing-SAFETY finding.
    let report = run(&fixture_config()).expect("fixture corpus is readable");
    let rendered = render_inventory(&report.unsafe_blocks);
    let entries = parse_inventory(&rendered).expect("rendered inventory parses");
    let diags = check_inventory(
        &report.unsafe_blocks,
        &entries,
        "lint/unsafe_inventory.json",
    );
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["unsafe-audit"], "drift survived regeneration");
}
