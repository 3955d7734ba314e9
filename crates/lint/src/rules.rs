//! The rule set: named, configurable invariants checked over scanned files.
//!
//! Each rule guards one of the determinism/concurrency contracts in
//! ARCHITECTURE.md (contract #7 documents the full table):
//!
//! | rule                | invariant                                            |
//! |---------------------|------------------------------------------------------|
//! | `no-default-hasher` | no `HashMap`/`HashSet` in result-bearing code        |
//! | `no-wallclock`      | `Instant::now`/`SystemTime` only in the benchmark    |
//! | `thread-discipline` | `thread::spawn`/`scope` only in sanctioned runners   |
//! | `lock-discipline`   | no `Mutex`/`RwLock`/`RefCell` in hot-path crates     |
//! | `ordering-comment`  | atomic `Ordering::*` carries a `// ordering:` note   |
//! | `unsafe-audit`      | every `unsafe` is preceded by a `// SAFETY:` comment |
//! | `unsafe-inventory`  | every `unsafe` is registered in the inventory file   |
//! | `no-unwrap-in-lib`  | no `.unwrap()`/`.expect(` in non-test library code   |
//! | `arch-confinement`  | CPU-feature tokens only in the CPU-feature modules   |
//! | `ffi-confinement`   | `extern` blocks / `#[link` only in the buffer module |
//!
//! Plus three meta rules that keep the escape hatches honest:
//! `bad-suppression` (malformed allow comment), `unused-suppression`
//! (allow comment that suppressed nothing), and `unused-allowlist`
//! (panic-allowlist entry that matched nothing).
//!
//! Any rule can be waived at a single site with an in-source suppression
//! comment, which must name the rule and a reason:
//!
//! ```text
//! // ccd-lint: allow(no-default-hasher) reason="membership-only set"
//! let seen: HashSet<u64> = HashSet::new();
//! ```
//!
//! Test code (`#[cfg(test)]`/`#[test]` items, `tests/` trees) is exempt
//! from every rule.

use crate::scanner::{FileKind, Line, ScannedFile};
use std::path::PathBuf;

/// The names of every rule the analyzer can emit, in report order.
pub const RULE_NAMES: &[&str] = &[
    "no-default-hasher",
    "no-wallclock",
    "thread-discipline",
    "lock-discipline",
    "ordering-comment",
    "unsafe-audit",
    "unsafe-inventory",
    "no-unwrap-in-lib",
    "arch-confinement",
    "ffi-confinement",
    "bad-suppression",
    "unused-suppression",
    "unused-allowlist",
];

/// One finding: a rule violation (or meta-rule report) at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where the rules look and which crates each invariant covers.  Paths are
/// repo-relative, `/`-separated prefixes (a full file path is a valid
/// prefix of itself).
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (absolute); everything else is relative to it.
    pub root: PathBuf,
    /// Directories walked for `.rs` files.
    pub scan_roots: Vec<String>,
    /// Path prefixes never scanned (fixture corpora, build output).
    pub excluded: Vec<String>,
    /// Crates whose outputs feed results: `no-default-hasher` scope.
    pub result_bearing: Vec<String>,
    /// Prefixes where wall-clock time is legitimate: the repository
    /// benchmark.
    pub wallclock_allowed: Vec<String>,
    /// Files allowed to spawn threads (the deterministic runners).
    pub spawn_allowed: Vec<String>,
    /// Hot-path crates that must stay lock-free: `lock-discipline` scope.
    pub lock_free: Vec<String>,
    /// Files whose atomic `Ordering::*` uses need justification comments.
    pub ordering_commented: Vec<String>,
    /// Files allowed to name CPU features (`std::arch`, runtime feature
    /// detection, `target_feature`): the CPU-feature modules (host
    /// detection in simd.rs, the prefetch hint).
    pub arch_allowed: Vec<String>,
    /// Files allowed to declare foreign functions (`extern` blocks,
    /// `#[link` attributes): the huge-page buffer module.
    pub ffi_allowed: Vec<String>,
    /// The panic-surface allowlist file, relative to `root`.
    pub panic_allowlist: String,
    /// The unsafe inventory file, relative to `root`.
    pub unsafe_inventory: String,
}

impl Config {
    /// The workspace policy for this repository (the config CI enforces).
    #[must_use]
    pub fn workspace(root: PathBuf) -> Self {
        let owned = |items: &[&str]| items.iter().map(|s| (*s).to_string()).collect();
        Config {
            root,
            scan_roots: owned(&["crates", "src", "examples"]),
            // The fixture corpus exists to violate the rules.
            excluded: owned(&["crates/lint/tests/fixtures", "target"]),
            result_bearing: owned(&[
                "crates/common",
                "crates/hashers",
                "crates/sharers",
                "crates/directory",
                "crates/core",
                "crates/cache",
                "crates/coherence",
                "crates/workloads",
                "crates/obs",
                "crates/service",
                "crates/energy",
                "crates/bench",
                "crates/lint",
                "src",
            ]),
            // One clock: every other bin writes deterministic, golden-pinned
            // bytes.
            wallclock_allowed: owned(&["crates/bench/src/bin/benchmark"]),
            spawn_allowed: owned(&[
                "crates/coherence/src/engine/runner.rs",
                "crates/service/src/supervisor.rs",
            ]),
            lock_free: owned(&[
                "crates/core",
                "crates/directory",
                "crates/sharers",
                "crates/hashers",
                "crates/cache",
                // The flight recorder sits on the request hot path: a lock
                // (or interior mutability) would both cost and perturb.
                "crates/obs",
            ]),
            ordering_commented: owned(&["crates/coherence/src/engine/runner.rs"]),
            arch_allowed: owned(&["crates/common/src/prefetch.rs", "crates/core/src/simd.rs"]),
            ffi_allowed: owned(&["crates/common/src/pages.rs"]),
            panic_allowlist: "lint/panic_allowlist.txt".to_string(),
            unsafe_inventory: "lint/unsafe_inventory.json".to_string(),
        }
    }

    fn under(&self, path: &str, prefixes: &[String]) -> bool {
        prefixes
            .iter()
            .any(|p| path == p || path.starts_with(&format!("{p}/")))
    }
}

/// A parsed `// ccd-lint: allow(rule) reason="…"` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment sits on (1-based).
    pub comment_line: usize,
    /// Line whose diagnostics it waives (the next code-bearing line).
    pub target_line: usize,
    /// The rule being waived.
    pub rule: String,
    /// The stated reason (never empty for a well-formed suppression).
    pub reason: String,
    /// Set once a diagnostic was actually waived.
    pub used: bool,
}

/// One entry of the panic-surface allowlist file.
#[derive(Debug, Clone)]
pub struct AllowlistEntry {
    /// 1-based line in the allowlist file (for unused-entry reports).
    pub source_line: usize,
    /// Repo-relative file the waiver applies to.
    pub file: String,
    /// Substring of the raw source line being waived.
    pub pattern: String,
    /// Stated reason (why the site is infallible or must panic).
    pub reason: String,
    /// Number of sites this entry waived.
    pub hits: usize,
}

/// Parses the allowlist file body (`file | line-substring | reason`, one
/// per line, `#` comments).  Malformed lines become `unused-allowlist`
/// diagnostics immediately (they can never match anything).
#[must_use]
pub fn parse_allowlist(body: &str, path: &str) -> (Vec<AllowlistEntry>, Vec<Diagnostic>) {
    let mut entries = Vec::new();
    let mut diags = Vec::new();
    for (idx, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(3, '|').map(str::trim).collect();
        if parts.len() != 3 || parts.iter().any(|p| p.is_empty()) {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: idx + 1,
                rule: "unused-allowlist",
                message: "malformed allowlist entry; expected `file | line-substring | reason`"
                    .to_string(),
            });
            continue;
        }
        entries.push(AllowlistEntry {
            source_line: idx + 1,
            file: parts[0].to_string(),
            pattern: parts[1].to_string(),
            reason: parts[2].to_string(),
            hits: 0,
        });
    }
    (entries, diags)
}

/// Extracts suppression comments from a scanned file, resolving each to
/// the code line it targets.  Malformed comments come back as
/// `bad-suppression` diagnostics.
#[must_use]
pub fn collect_suppressions(file: &ScannedFile) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut found = Vec::new();
    let mut diags = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        // Anchored at the start of the comment, so prose and doc-comment
        // *examples* of suppressions (whose text starts with `/`, `!` or
        // other words) never count as live waivers.
        let trimmed = line.comment.trim_start();
        if !trimmed.starts_with("ccd-lint:") {
            continue;
        }
        let lineno = idx + 1;
        match parse_suppression(trimmed) {
            Ok((rule, reason)) => {
                let target = if line.has_code() {
                    lineno
                } else {
                    file.lines
                        .iter()
                        .enumerate()
                        .skip(idx + 1)
                        .find(|(_, l)| l.has_code())
                        .map_or(lineno, |(j, _)| j + 1)
                };
                found.push(Suppression {
                    comment_line: lineno,
                    target_line: target,
                    rule,
                    reason,
                    used: false,
                });
            }
            Err(why) => diags.push(Diagnostic {
                file: file.path.clone(),
                line: lineno,
                rule: "bad-suppression",
                message: why,
            }),
        }
    }
    (found, diags)
}

/// Parses `ccd-lint: allow(rule) reason="…"` out of a comment tail.
fn parse_suppression(comment: &str) -> Result<(String, String), String> {
    let body = comment.trim_start_matches("ccd-lint:").trim();
    let Some(rest) = body.strip_prefix("allow(") else {
        return Err("expected `ccd-lint: allow(rule) reason=\"…\"`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unterminated `allow(` — missing `)`".to_string());
    };
    let rule = rest[..close].trim().to_string();
    if !RULE_NAMES.contains(&rule.as_str()) {
        return Err(format!(
            "unknown rule `{rule}` (known: {})",
            RULE_NAMES.join(", ")
        ));
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("reason=\"") else {
        return Err("suppression must state a reason: `reason=\"…\"`".to_string());
    };
    let Some(end) = reason.find('"') else {
        return Err("unterminated reason string".to_string());
    };
    let reason = reason[..end].trim();
    if reason.is_empty() {
        return Err("suppression reason must not be empty".to_string());
    }
    Ok((rule, reason.to_string()))
}

/// Finds `needle` in `code` at an identifier boundary, starting at `from`.
/// Returns the byte offset of the match.
fn find_token(code: &str, needle: &str, from: usize) -> Option<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let lead_is_ident = needle.chars().next().is_some_and(ident);
    let tail_is_ident = needle.chars().next_back().is_some_and(ident);
    let mut search = from;
    while let Some(rel) = code.get(search..).and_then(|s| s.find(needle)) {
        let at = search + rel;
        let before_ok =
            !lead_is_ident || at == 0 || !code[..at].chars().next_back().is_some_and(ident);
        let after = at + needle.len();
        let after_ok = !tail_is_ident || !code[after..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return Some(at);
        }
        search = at + needle.len();
    }
    None
}

fn has_token(code: &str, needle: &str) -> bool {
    find_token(code, needle, 0).is_some()
}

/// `true` when `code` opens a foreign-ABI block: an `extern` token, an
/// optional ABI string (its contents blanked by the scanner), then `{`.
/// `extern "C" fn` items and pointers and `extern crate` are Rust-side and
/// stay silent.
fn opens_extern_block(code: &str) -> bool {
    let mut from = 0;
    while let Some(at) = find_token(code, "extern", from) {
        from = at + "extern".len();
        let rest = code[from..].trim_start();
        let rest = rest
            .strip_prefix('"')
            .and_then(|abi| abi.split_once('"'))
            .map_or(rest, |(_, after)| after.trim_start());
        if rest.starts_with('{') {
            return true;
        }
    }
    false
}

/// Checks the per-line token rules over one scanned file.  The unsafe
/// rules live in [`crate::inventory`]; suppression filtering and the meta
/// rules happen in [`crate::workspace`].
#[must_use]
pub fn check_tokens(file: &ScannedFile, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file.kind == FileKind::Test {
        return out;
    }
    let path = file.path.as_str();
    let in_result_bearing = cfg.under(path, &cfg.result_bearing);
    let wallclock_ok = cfg.under(path, &cfg.wallclock_allowed);
    let spawn_ok = cfg.under(path, &cfg.spawn_allowed);
    let in_lock_free = cfg.under(path, &cfg.lock_free);
    let needs_ordering_comments = cfg.under(path, &cfg.ordering_commented);
    let arch_ok = cfg.under(path, &cfg.arch_allowed);
    let ffi_ok = cfg.under(path, &cfg.ffi_allowed);
    let panic_rule_applies = file.kind == FileKind::Lib;

    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test || !line.has_code() {
            continue;
        }
        let lineno = idx + 1;
        let code = line.code.as_str();
        let mut emit = |rule: &'static str, message: String| {
            out.push(Diagnostic {
                file: path.to_string(),
                line: lineno,
                rule,
                message,
            });
        };

        if in_result_bearing {
            for ty in ["HashMap", "HashSet"] {
                if has_token(code, ty) {
                    emit(
                        "no-default-hasher",
                        format!(
                            "default-hasher `{ty}` in result-bearing code: iteration order is \
                             randomized per process, which breaks bit-identical replay — use \
                             `BTreeMap`/`BTreeSet` (or justify a membership-only use)"
                        ),
                    );
                }
            }
        }
        if !wallclock_ok {
            for ty in ["Instant::now", "SystemTime"] {
                if has_token(code, ty) {
                    emit(
                        "no-wallclock",
                        format!(
                            "`{ty}` outside the repository benchmark: results must not \
                             observe host time, and wall time has one owner"
                        ),
                    );
                }
            }
        }
        if !spawn_ok {
            for call in ["thread::spawn", "thread::scope"] {
                if has_token(code, call) {
                    emit(
                        "thread-discipline",
                        format!(
                            "`{call}` outside the sanctioned runners (ParallelRunner, the \
                             service supervisor — which owns both initial spawns and \
                             post-crash respawns): ad-hoc threads bypass the determinism \
                             contract"
                        ),
                    );
                }
            }
        }
        if in_lock_free {
            for ty in ["Mutex", "RwLock", "RefCell"] {
                if has_token(code, ty) {
                    emit(
                        "lock-discipline",
                        format!(
                            "`{ty}` in a hot-path crate: shard-per-worker ownership keeps these \
                             crates lock-free; interior locking belongs in the service layer"
                        ),
                    );
                }
            }
        }
        if needs_ordering_comments {
            if let Some(at) = find_token(code, "Ordering::", 0) {
                let is_cmp = code[..at].ends_with("cmp::");
                let justified = comment_above_or_beside(&file.lines, idx, "ordering:");
                if !is_cmp && !justified {
                    emit(
                        "ordering-comment",
                        "atomic `Ordering::…` without a justification comment: state why this \
                         ordering is sufficient (and necessary) in a `// ordering: …` comment \
                         on or above the line"
                            .to_string(),
                    );
                }
            }
        }
        if !arch_ok {
            for token in ["std::arch", "is_x86_feature_detected", "target_feature"] {
                if has_token(code, token) {
                    emit(
                        "arch-confinement",
                        format!(
                            "`{token}` outside the CPU-feature modules: feature detection \
                             lives in crates/core/src/simd.rs and the prefetch hint in \
                             crates/common/src/prefetch.rs, so every other module stays \
                             portable and Miri-runnable"
                        ),
                    );
                }
            }
        }
        if !ffi_ok {
            for (found, what) in [
                (opens_extern_block(code), "a foreign `extern` block"),
                (code.contains("#[link"), "a `#[link` attribute"),
            ] {
                if found {
                    emit(
                        "ffi-confinement",
                        format!(
                            "{what} outside the huge-page buffer module: the workspace's one \
                             foreign declaration lives in crates/common/src/pages.rs so every \
                             other module stays portable and Miri-runnable"
                        ),
                    );
                }
            }
        }
        if panic_rule_applies {
            for call in [".unwrap()", ".expect("] {
                if code.contains(call) {
                    emit(
                        "no-unwrap-in-lib",
                        format!(
                            "`{call}` in non-test library code: return a named error (the \
                             `ConfigError`/`TraceError` style) or register the site in the \
                             panic allowlist with a reason",
                        ),
                    );
                }
            }
        }
    }
    out
}

/// `true` when `marker` (case-insensitive) appears in a comment on line
/// `idx`, or in the contiguous run of comment-only / attribute-only lines
/// directly above it.
#[must_use]
pub fn comment_above_or_beside(lines: &[Line], idx: usize, marker: &str) -> bool {
    let matches = |line: &Line| line.comment.to_ascii_lowercase().contains(marker);
    if matches(&lines[idx]) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        let code = line.code.trim();
        let passthrough = code.is_empty() || code.starts_with("#[");
        if matches(line) {
            return true;
        }
        if !passthrough {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    fn cfg() -> Config {
        Config::workspace(PathBuf::from("/tmp"))
    }

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_tokens(&scan_source(path, src), &cfg())
    }

    #[test]
    fn hashmap_fires_only_in_result_bearing_nontest_code() {
        let bad = diags("crates/core/src/lib.rs", "use std::collections::HashMap;\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "no-default-hasher");
        assert_eq!(bad[0].line, 1);
        let test_code = diags(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        );
        assert!(test_code.is_empty());
    }

    #[test]
    fn wallclock_is_allowed_in_the_benchmark_only() {
        for allowed in [
            "crates/bench/src/bin/benchmark/main.rs",
            "crates/bench/src/bin/benchmark/trace.rs",
        ] {
            assert!(diags(allowed, "let t = Instant::now();\n").is_empty());
        }
        for refused in [
            "crates/bench/src/bin/figs/main.rs",
            "crates/bench/src/bin/figs/fig8_occupancy.rs",
            "crates/bench/src/bin/figs/bench_service.rs",
            "crates/bench/src/lib.rs",
            "crates/coherence/src/simulator.rs",
        ] {
            let bad = diags(refused, "let t = Instant::now();\n");
            assert_eq!(bad.len(), 1, "{refused}");
            assert_eq!(bad[0].rule, "no-wallclock");
        }
    }

    #[test]
    fn spawn_is_allowed_in_runner_and_service_only() {
        assert!(diags(
            "crates/coherence/src/engine/runner.rs",
            "std::thread::scope(|s| {});\n"
        )
        .is_empty());
        let bad = diags(
            "crates/workloads/src/lib.rs",
            "std::thread::spawn(|| {});\n",
        );
        assert_eq!(bad[0].rule, "thread-discipline");
    }

    #[test]
    fn locks_fire_in_hot_crates_but_not_common() {
        let bad = diags("crates/core/src/table.rs", "use std::sync::Mutex;\n");
        assert_eq!(bad[0].rule, "lock-discipline");
        assert!(diags("crates/common/src/stats.rs", "use std::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn ordering_requires_a_justification_comment() {
        let bad = diags(
            "crates/coherence/src/engine/runner.rs",
            "depth.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert_eq!(bad[0].rule, "ordering-comment");
        assert!(diags(
            "crates/coherence/src/engine/runner.rs",
            "// ordering: advisory counter, no synchronization piggybacks on it\ndepth.fetch_add(1, Ordering::Relaxed);\n",
        )
        .is_empty());
        // `cmp::Ordering` is not an atomic ordering.
        assert!(diags(
            "crates/coherence/src/engine/runner.rs",
            "let c: std::cmp::Ordering = a.cmp(&b);\n",
        )
        .is_empty());
    }

    #[test]
    fn unwrap_fires_in_lib_but_not_bins_or_unwrap_or() {
        let bad = diags("crates/cache/src/cache.rs", "let x = y.unwrap();\n");
        assert_eq!(bad[0].rule, "no-unwrap-in-lib");
        assert!(diags("crates/bench/src/bin/figs/main.rs", "let x = y.unwrap();\n").is_empty());
        assert!(diags("crates/cache/src/cache.rs", "let x = y.unwrap_or(0);\n").is_empty());
        assert!(diags(
            "crates/cache/src/cache.rs",
            "let x = y.unwrap_or_default();\n"
        )
        .is_empty());
    }

    #[test]
    fn arch_tokens_fire_outside_the_dispatch_modules_only() {
        for snippet in [
            "use std::arch::x86_64::__m256i;\n",
            "if is_x86_feature_detected!(\"avx2\") {}\n",
            "#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n",
        ] {
            let bad = diags("crates/core/src/table.rs", snippet);
            assert_eq!(bad[0].rule, "arch-confinement", "{snippet}");
            assert!(
                diags("crates/core/src/simd.rs", snippet)
                    .iter()
                    .all(|d| d.rule != "arch-confinement"),
                "{snippet}"
            );
            assert!(
                diags("crates/common/src/prefetch.rs", snippet)
                    .iter()
                    .all(|d| d.rule != "arch-confinement"),
                "{snippet}"
            );
        }
        // `target_arch` cfg gates are portable plumbing, not intrinsics.
        assert!(diags(
            "crates/core/src/table.rs",
            "#[cfg(target_arch = \"x86_64\")]\nmod imp {}\n",
        )
        .is_empty());
    }

    #[test]
    fn foreign_declarations_fire_outside_the_buffer_module_only() {
        for snippet in [
            "extern \"C\" {\n    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;\n}\n",
            "unsafe extern \"system\" {\n    fn f();\n}\n",
            "extern {\n    fn f();\n}\n",
            "#[link(name = \"c\")]\nextern \"C\" {}\n",
            "#[link_name = \"posix_madvise\"]\nfn f();\n",
        ] {
            let bad = diags("crates/core/src/table.rs", snippet);
            assert!(!bad.is_empty(), "{snippet}");
            assert!(bad.iter().all(|d| d.rule == "ffi-confinement"), "{snippet}");
            assert!(
                diags("crates/common/src/pages.rs", snippet).is_empty(),
                "{snippet}"
            );
        }
        // Rust-side uses of the keyword are not declarations of foreign code.
        for snippet in [
            "extern crate alloc;\n",
            "pub extern \"C\" fn callback(x: u32) -> u32 { x }\n",
            "type Hook = unsafe extern \"C\" fn(*mut u8);\n",
            "let external = 1; let s = \"extern { }\";\n",
        ] {
            assert!(
                diags("crates/core/src/table.rs", snippet).is_empty(),
                "{snippet}"
            );
        }
    }

    #[test]
    fn string_and_comment_occurrences_never_fire() {
        assert!(diags(
            "crates/core/src/lib.rs",
            "// a HashMap would be wrong here\nlet s = \"HashMap\";\n",
        )
        .is_empty());
    }

    #[test]
    fn suppressions_parse_and_resolve_to_next_code_line() {
        let file = scan_source(
            "crates/core/src/lib.rs",
            "// ccd-lint: allow(no-default-hasher) reason=\"membership only\"\nuse std::collections::HashSet;\n",
        );
        let (sups, diags) = collect_suppressions(&file);
        assert!(diags.is_empty());
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].rule, "no-default-hasher");
        assert_eq!(sups[0].target_line, 2);
    }

    #[test]
    fn malformed_suppressions_are_reported() {
        for bad in [
            "// ccd-lint: allow(no-default-hasher)\nlet x = 1;\n",
            "// ccd-lint: allow(not-a-rule) reason=\"x\"\nlet x = 1;\n",
            "// ccd-lint: disallow(no-wallclock) reason=\"x\"\nlet x = 1;\n",
            "// ccd-lint: allow(no-wallclock) reason=\"\"\nlet x = 1;\n",
        ] {
            let file = scan_source("crates/core/src/lib.rs", bad);
            let (sups, diags) = collect_suppressions(&file);
            assert!(sups.is_empty(), "{bad}");
            assert_eq!(diags.len(), 1, "{bad}");
            assert_eq!(diags[0].rule, "bad-suppression");
        }
    }

    #[test]
    fn allowlist_parses_and_flags_malformed_lines() {
        let body = "# comment\n\ncrates/x/src/a.rs | .lock().unwrap() | poisoning propagates a prior panic\nbad-line-no-pipes\n";
        let (entries, diags) = parse_allowlist(body, "lint/panic_allowlist.txt");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "crates/x/src/a.rs");
        assert_eq!(entries[0].source_line, 3);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn token_boundaries_are_respected() {
        // `MutexGuard` must not be reported as `Mutex`… but a bare token is.
        assert!(!has_token("let g: MutexGuardLike = x;", "Mutex"));
        assert!(has_token("let m = Mutex::new(0);", "Mutex"));
        assert!(!has_token("let x = y.unwrap_or(0);", ".unwrap()"));
        assert!(has_token("thread::spawn(f)", "thread::spawn"));
        assert!(!has_token("my_thread::spawner(f)", "thread::spawn"));
    }
}
