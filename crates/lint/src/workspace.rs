//! Workspace walking and rule orchestration: wires the scanner, the token
//! rules, the suppression/allowlist escape hatches, and the unsafe
//! inventory into one deterministic run.

use crate::inventory::{
    check_inventory, find_unsafe_blocks, parse_inventory, InventoryEntry, UnsafeBlock,
};
use crate::rules::{
    check_tokens, collect_suppressions, parse_allowlist, AllowlistEntry, Config, Diagnostic,
    Suppression,
};
use crate::scanner::{scan_source, ScannedFile};
use ccd_common::json::Json;
use ccd_common::obj;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// A failure to run the analyzer at all (I/O, bad inventory JSON…);
/// distinct from diagnostics, which are findings about the code.
#[derive(Debug)]
pub enum LintError {
    /// Reading a file or directory failed.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "cannot read `{}`: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

/// The outcome of one analyzer run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every `unsafe` occurrence discovered (for `--write-inventory`).
    pub unsafe_blocks: Vec<UnsafeBlock>,
}

impl Report {
    /// `true` when no rule fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs the full rule set over the workspace described by `config`.
///
/// # Errors
///
/// Returns [`LintError`] when source files cannot be read; findings about
/// the code itself are diagnostics in the returned [`Report`], not errors.
pub fn run(config: &Config) -> Result<Report, LintError> {
    let files = collect_files(config)?;
    let mut diagnostics = Vec::new();
    let mut unsafe_blocks: Vec<UnsafeBlock> = Vec::new();
    let mut suppressions: Vec<(String, Suppression)> = Vec::new();

    // The allowlist file is optional until the first waiver is needed.
    let allowlist_path = config.root.join(&config.panic_allowlist);
    let mut allowlist: Vec<AllowlistEntry> = Vec::new();
    if let Ok(body) = fs::read_to_string(&allowlist_path) {
        let (entries, bad) = parse_allowlist(&body, &config.panic_allowlist);
        allowlist = entries;
        diagnostics.extend(bad);
    }

    for (rel, source) in &files {
        let scanned = scan_source(rel, source);
        let (mut sups, bad) = collect_suppressions(&scanned);
        diagnostics.extend(bad);
        let mut candidates = check_tokens(&scanned, config);
        candidates.retain(|diag| {
            let mut waived = false;
            for sup in sups.iter_mut() {
                if sup.rule == diag.rule && sup.target_line == diag.line {
                    sup.used = true;
                    waived = true;
                }
            }
            !waived && !waived_by_allowlist(diag, &scanned, &mut allowlist)
        });
        diagnostics.extend(candidates);
        unsafe_blocks.extend(find_unsafe_blocks(&scanned));
        // Suppressions stay parked until the unsafe rules have also run
        // (they may waive those); unused ones are reported at the end.
        suppressions.extend(sups.into_iter().map(|s| (scanned.path.clone(), s)));
    }

    // Unsafe audit + inventory drift.
    let inventory_path = config.root.join(&config.unsafe_inventory);
    let inventory: Vec<InventoryEntry> = match fs::read_to_string(&inventory_path) {
        Ok(body) => match parse_inventory(&body) {
            Ok(entries) => entries,
            Err(why) => {
                diagnostics.push(Diagnostic {
                    file: config.unsafe_inventory.clone(),
                    line: 1,
                    rule: "unsafe-inventory",
                    message: format!("inventory file is unreadable: {why}"),
                });
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };
    let mut unsafe_diags = check_inventory(&unsafe_blocks, &inventory, &config.unsafe_inventory);
    unsafe_diags.retain(|diag| {
        let mut waived = false;
        for (file, sup) in suppressions.iter_mut() {
            if *file == diag.file && sup.rule == diag.rule && sup.target_line == diag.line {
                sup.used = true;
                waived = true;
            }
        }
        !waived
    });
    diagnostics.extend(unsafe_diags);

    // Escape hatches must stay justified: unused ones are findings too.
    for (file, sup) in &suppressions {
        if !sup.used {
            diagnostics.push(Diagnostic {
                file: file.clone(),
                line: sup.comment_line,
                rule: "unused-suppression",
                message: format!(
                    "suppression for `{}` waived nothing — remove it (reason given: \"{}\")",
                    sup.rule, sup.reason
                ),
            });
        }
    }
    for entry in &allowlist {
        if entry.hits == 0 {
            diagnostics.push(Diagnostic {
                file: config.panic_allowlist.clone(),
                line: entry.source_line,
                rule: "unused-allowlist",
                message: format!(
                    "allowlist entry for {} (`{}`) matched nothing — remove it",
                    entry.file, entry.pattern
                ),
            });
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
        unsafe_blocks,
    })
}

fn waived_by_allowlist(
    diag: &Diagnostic,
    scanned: &ScannedFile,
    allowlist: &mut [AllowlistEntry],
) -> bool {
    if diag.rule != "no-unwrap-in-lib" {
        return false;
    }
    let raw = scanned
        .lines
        .get(diag.line - 1)
        .map_or("", |line| line.raw.as_str());
    let mut waived = false;
    for entry in allowlist.iter_mut() {
        if entry.file == diag.file && raw.contains(&entry.pattern) {
            entry.hits += 1;
            waived = true;
        }
    }
    waived
}

/// Walks the configured scan roots, returning (repo-relative path, source)
/// pairs sorted by path so every run is deterministic.
fn collect_files(config: &Config) -> Result<Vec<(String, String)>, LintError> {
    let mut paths = Vec::new();
    for root in &config.scan_roots {
        let dir = config.root.join(root);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    let mut out = Vec::new();
    for path in paths {
        let rel = relative(&config.root, &path);
        if config
            .excluded
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        let source = fs::read_to_string(&path).map_err(|source| LintError::Io {
            path: path.clone(),
            source,
        })?;
        out.push((rel, source));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        children.push(entry.path());
    }
    children.sort();
    for child in children {
        if child.is_dir() {
            let name = child.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&child, out)?;
        } else if child.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders the report as JSON (machine-readable diagnostics), one
/// diagnostic per line.
#[must_use]
pub fn render_json(report: &Report) -> String {
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| obj! { "file": d.file, "line": d.line, "rule": d.rule, "message": d.message })
        .collect();
    let doc = obj! {
        "files_scanned": report.files_scanned,
        "diagnostic_count": report.diagnostics.len(),
        "diagnostics": Json::Arr(diagnostics),
    };
    doc.to_pretty_folded(2) + "\n"
}
