//! `ccd-lint` — the workspace-invariant static analyzer for the Cuckoo
//! Directory reproduction.
//!
//! Every result this repository produces rests on invariants the compiler
//! cannot see: bit-identical serial ≡ parallel accounting, lock-free
//! shard-per-worker hot paths, and deterministic iteration everywhere stats
//! merge (ARCHITECTURE.md contracts #1–#7).  The runtime property tests
//! catch violations *after* they execute; this crate catches the patterns
//! that cause them at review time, before a nondeterministic `HashMap`
//! iteration or an ad-hoc `thread::spawn` ever runs.
//!
//! The analyzer uses no third-party crate (the workspace builds offline;
//! its one dependency is `ccd-common`, whose JSON it reads and writes): a
//! hand-rolled token scanner strips comments and literals and a set of
//! named, path-scoped rules walks the code view.  See
//! [`rules`] for the rule table, [`inventory`] for the unsafe audit, and
//! ARCHITECTURE.md "Contract #7" for the workflow.
//!
//! # Quickstart
//!
//! ```text
//! cargo run -p ccd-lint -- --workspace            # human diagnostics, exit 1 on findings
//! cargo run -p ccd-lint -- --workspace --json     # machine-readable output
//! cargo run -p ccd-lint -- --workspace --write-inventory   # regenerate the unsafe inventory
//! ```
//!
//! Single sites can be waived in source with a justified suppression:
//!
//! ```text
//! // ccd-lint: allow(no-default-hasher) reason="membership-only set; iteration order never observed"
//! ```
//!
//! Panic-surface waivers live in `lint/panic_allowlist.txt` as
//! `file | line-substring | reason` entries.  Both escape hatches are
//! themselves checked: malformed or unused waivers are diagnostics.

pub mod inventory;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use inventory::{find_unsafe_blocks, render_inventory, UnsafeBlock};
pub use rules::{Config, Diagnostic, RULE_NAMES};
pub use scanner::{scan_source, FileKind, ScannedFile};
pub use workspace::{render_json, run, LintError, Report};
