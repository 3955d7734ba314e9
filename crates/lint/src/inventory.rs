//! The unsafe audit: `// SAFETY:` comment enforcement and the checked-in
//! inventory of every `unsafe` block in the workspace.
//!
//! Each `unsafe` occurrence (block, fn, or impl) is identified by its file
//! plus a content hash — FNV-1a 64 over the comment-stripped,
//! literal-blanked, whitespace-collapsed block text.  The hash is therefore
//! stable across reformatting and comment edits but changes whenever the
//! unsafe *code* changes, so `lint/unsafe_inventory.json` turns every new
//! or modified unsafe block into an explicit, reviewable diff: the analyzer
//! fails until the inventory is regenerated (`--write-inventory`) and the
//! regenerated file is committed.

use crate::rules::{comment_above_or_beside, Diagnostic};
use crate::scanner::{FileKind, ScannedFile};
use ccd_common::json::{self, Json};
use ccd_common::obj;

/// One `unsafe` occurrence discovered in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeBlock {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// `fnv64:`-prefixed content hash (hex).
    pub hash: String,
    /// First line of the adjacent `SAFETY:` comment, for human readers.
    pub summary: String,
    /// Whether a `// SAFETY:` comment was found beside/above the keyword.
    pub has_safety_comment: bool,
}

/// Finds every `unsafe` occurrence in non-test code, hashing each block.
#[must_use]
pub fn find_unsafe_blocks(file: &ScannedFile) -> Vec<UnsafeBlock> {
    let mut blocks = Vec::new();
    if file.kind == FileKind::Test {
        return blocks;
    }
    // Resume scanning after the previous block so nested `unsafe` inside a
    // captured block is not double-counted.
    let mut resume = (0usize, 0usize);
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.is_test || !line.has_code() {
            continue;
        }
        let mut col = if idx == resume.0 { resume.1 } else { 0 };
        while let Some(at) = find_unsafe_token(&line.code, col) {
            if idx < resume.0 || (idx == resume.0 && at < resume.1) {
                col = at + "unsafe".len();
                continue;
            }
            let (body, end) = capture_block(file, idx, at);
            let summary = safety_summary(file, idx);
            blocks.push(UnsafeBlock {
                file: file.path.clone(),
                line: idx + 1,
                hash: fnv64(&body),
                summary: summary.clone().unwrap_or_else(|| {
                    let mut head: String = body.chars().take(60).collect();
                    if body.chars().count() > 60 {
                        head.push('…');
                    }
                    head
                }),
                has_safety_comment: summary.is_some(),
            });
            resume = end;
            col = if idx == end.0 { end.1 } else { line.code.len() };
        }
    }
    blocks
}

fn find_unsafe_token(code: &str, from: usize) -> Option<usize> {
    let mut search = from;
    while let Some(rel) = code.get(search..).and_then(|s| s.find("unsafe")) {
        let at = search + rel;
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(ident);
        let after_ok = !code[at + 6..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return Some(at);
        }
        search = at + 6;
    }
    None
}

/// Captures the block text from the `unsafe` keyword through its matching
/// `}` (or the terminating `;` of a brace-less item), collapsing
/// whitespace.  Returns the text and the (line index, column) just past
/// the block.
fn capture_block(
    file: &ScannedFile,
    start_line: usize,
    start_col: usize,
) -> (String, (usize, usize)) {
    let mut text = String::new();
    let mut depth = 0usize;
    let mut opened = false;
    for idx in start_line..file.lines.len() {
        let code = &file.lines[idx].code;
        let begin = if idx == start_line { start_col } else { 0 };
        for (col, c) in code.char_indices().skip_while(|(col, _)| *col < begin) {
            text.push(c);
            match c {
                '{' => {
                    opened = true;
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return (collapse_ws(&text), (idx, col + 1));
                    }
                }
                ';' if !opened => {
                    return (collapse_ws(&text), (idx, col + 1));
                }
                _ => {}
            }
        }
        text.push(' ');
    }
    let last = file.lines.len().saturating_sub(1);
    let end_col = file.lines.get(last).map_or(0, |l| l.code.len());
    (collapse_ws(&text), (last, end_col))
}

fn collapse_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The first line of the `SAFETY:` comment adjacent to line `idx`, if any.
fn safety_summary(file: &ScannedFile, idx: usize) -> Option<String> {
    if !comment_above_or_beside(&file.lines, idx, "safety:") {
        return None;
    }
    // Walk up to the first line of the contiguous comment run that
    // contains the marker, then report the text after `SAFETY:`.
    let mut j = idx;
    loop {
        let line = &file.lines[j];
        if let Some(at) = line.comment.find("SAFETY:") {
            let text = line.comment[at + "SAFETY:".len()..].trim();
            return Some(text.to_string());
        }
        if j == 0 {
            return Some(String::new());
        }
        let prev = &file.lines[j - 1];
        let code = prev.code.trim();
        if !(code.is_empty() || code.starts_with("#[")) && j - 1 != idx {
            return Some(String::new());
        }
        j -= 1;
    }
}

/// FNV-1a 64 over `text`, rendered as `fnv64:<16 hex digits>`.
#[must_use]
pub fn fnv64(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv64:{hash:016x}")
}

/// A deserialized inventory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryEntry {
    /// Repo-relative path.
    pub file: String,
    /// Line recorded at generation time (informational; drift in line
    /// number alone is caught by the CI regeneration diff, not here).
    pub line: usize,
    /// `fnv64:`-prefixed content hash.
    pub hash: String,
    /// Human summary captured from the `SAFETY:` comment.
    pub summary: String,
}

/// Parses `lint/unsafe_inventory.json`.
///
/// # Errors
///
/// Returns a message when the document is not valid JSON or lacks the
/// expected `{ "entries": [ { file, line, hash, summary } ] }` shape.
pub fn parse_inventory(body: &str) -> Result<Vec<InventoryEntry>, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let entries = doc
        .get("entries")
        .and_then(|v| v.as_array())
        .ok_or("inventory must be an object with an `entries` array")?;
    let mut out = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or(format!("entry {i}: missing string field `{name}`"))
        };
        out.push(InventoryEntry {
            file: field("file")?,
            line: entry
                .get("line")
                .and_then(Json::as_u64)
                .ok_or(format!("entry {i}: missing numeric field `line`"))?
                as usize,
            hash: field("hash")?,
            summary: field("summary")?,
        });
    }
    Ok(out)
}

/// Renders the inventory JSON for `blocks`, sorted by (file, line) so the
/// output is deterministic and diffs are minimal: one entry per line.
#[must_use]
pub fn render_inventory(blocks: &[UnsafeBlock]) -> String {
    let mut sorted: Vec<&UnsafeBlock> = blocks.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let entries = sorted
        .iter()
        .map(|b| obj! { "file": b.file, "line": b.line, "hash": b.hash, "summary": b.summary })
        .collect();
    let doc = obj! {
        "generated_by": "cargo run -p ccd-lint -- --workspace --write-inventory",
        "entries": Json::Arr(entries),
    };
    doc.to_pretty_folded(2) + "\n"
}

/// Diffs discovered blocks against the checked-in inventory: unregistered
/// blocks and stale entries both fail the gate.
#[must_use]
pub fn check_inventory(
    blocks: &[UnsafeBlock],
    inventory: &[InventoryEntry],
    inventory_path: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for block in blocks {
        if !block.has_safety_comment {
            diags.push(Diagnostic {
                file: block.file.clone(),
                line: block.line,
                rule: "unsafe-audit",
                message: "`unsafe` without an adjacent `// SAFETY:` comment — state the proof \
                          obligation being discharged"
                    .to_string(),
            });
        }
        if !inventory
            .iter()
            .any(|e| e.file == block.file && e.hash == block.hash)
        {
            diags.push(Diagnostic {
                file: block.file.clone(),
                line: block.line,
                rule: "unsafe-inventory",
                message: format!(
                    "unsafe block ({}) is not registered in {inventory_path} — run \
                     `cargo run -p ccd-lint -- --workspace --write-inventory` and commit the \
                     reviewed diff",
                    block.hash
                ),
            });
        }
    }
    for entry in inventory {
        if !blocks
            .iter()
            .any(|b| b.file == entry.file && b.hash == entry.hash)
        {
            diags.push(Diagnostic {
                file: inventory_path.to_string(),
                line: entry.line,
                rule: "unsafe-inventory",
                message: format!(
                    "stale inventory entry for {}:{} ({}) — the block no longer exists; \
                     regenerate the inventory",
                    entry.file, entry.line, entry.hash
                ),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    #[test]
    fn finds_and_hashes_a_safety_commented_block() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        let blocks = find_unsafe_blocks(&file);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].line, 3);
        assert!(blocks[0].has_safety_comment);
        assert_eq!(blocks[0].summary, "caller guarantees p is valid.");
        assert_eq!(blocks[0].hash, fnv64("unsafe { *p }"));
    }

    #[test]
    fn missing_safety_comment_is_detected() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        let blocks = find_unsafe_blocks(&file);
        assert_eq!(blocks.len(), 1);
        assert!(!blocks[0].has_safety_comment);
        let diags = check_inventory(&blocks, &[], "lint/unsafe_inventory.json");
        assert!(diags.iter().any(|d| d.rule == "unsafe-audit"));
        assert!(diags.iter().any(|d| d.rule == "unsafe-inventory"));
    }

    #[test]
    fn attribute_between_comment_and_block_is_tolerated() {
        let src = "// SAFETY: hint instruction, never faults.\n#[cfg(target_arch = \"x86_64\")]\nunsafe {\n    intrinsic();\n}\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        let blocks = find_unsafe_blocks(&file);
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].has_safety_comment);
    }

    #[test]
    fn hash_ignores_comments_and_whitespace_but_not_code() {
        let a = scan_source("x.rs", "unsafe { foo(  1,2 ) /* note */ }\n");
        let b = scan_source("x.rs", "unsafe {\n    foo(1, 2)\n}\n");
        let c = scan_source("x.rs", "unsafe { foo(1, 3) }\n");
        let [ha, hb, hc] =
            [&a, &b, &c].map(|f| find_unsafe_blocks(f).into_iter().next().unwrap().hash);
        // `foo(  1,2 )` vs `foo(1, 2)`: whitespace collapses but commas
        // bind differently — compare like with like.
        assert_eq!(hb, fnv64("unsafe { foo(1, 2) }"));
        assert_ne!(hb, hc);
        assert_ne!(ha, hc);
    }

    #[test]
    fn multiline_and_nested_blocks_capture_once() {
        let src = "fn f() {\n    unsafe {\n        let x = unsafe { inner() };\n        outer(x);\n    }\n}\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        let blocks = find_unsafe_blocks(&file);
        assert_eq!(blocks.len(), 1, "nested unsafe is part of the outer block");
        assert_eq!(blocks[0].line, 2);
    }

    #[test]
    fn unsafe_impl_without_braces_terminates_at_semicolon() {
        let src = "unsafe impl Send for Foo {}\nunsafe trait Marker;\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        let blocks = find_unsafe_blocks(&file);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn inventory_round_trip_and_drift() {
        let src = "// SAFETY: fine.\nunsafe { a() }\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        let blocks = find_unsafe_blocks(&file);
        let rendered = render_inventory(&blocks);
        let entries = parse_inventory(&rendered).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(check_inventory(&blocks, &entries, "inv.json").is_empty());
        // Stale entry: inventory names a block that is gone.
        let stale = check_inventory(&[], &entries, "inv.json");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "unsafe-inventory");
        assert_eq!(stale[0].file, "inv.json");
    }

    #[test]
    fn test_code_unsafe_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { x() } }\n}\n";
        let file = scan_source("crates/x/src/lib.rs", src);
        assert!(find_unsafe_blocks(&file).is_empty());
    }
}
