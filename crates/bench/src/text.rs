//! The text side of a result tree: what `figs` prints for a result.
//!
//! An experiment builds its result as a [`Json`] tree (`ccd_common::json`;
//! rows come from `ccd_common::obj!`, naming each column once).  The tree
//! renders two ways — [`Json::to_pretty`] is the file, [`to_text`] the
//! table a person reads on stdout.

use ccd_common::json::Json;
use std::fmt::Write as _;

/// Renders a tree for a terminal: an array of flat rows becomes a
/// fixed-width table (keys as headers, values in the file's own units,
/// numbers to four significant digits); an object prints its scalar fields
/// as `key: value` lines and recurses into the rest.
#[must_use]
pub fn to_text(tree: &Json) -> String {
    let mut out = String::new();
    text(tree, &mut out);
    out
}

/// A number as a person reads it: integers whole, anything else to four
/// significant digits, trailing zeros dropped.
fn display_num(n: f64) -> String {
    if n.fract() == 0.0 || !n.is_finite() {
        return Json::Num(n).to_pretty();
    }
    let digits = (3 - n.abs().log10().floor() as i32).clamp(0, 12) as usize;
    let text = format!("{n:.digits$}");
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// A scalar as a person reads it; `None` for arrays and objects.
fn scalar(value: &Json) -> Option<String> {
    match value {
        Json::Null => Some("-".to_string()),
        Json::Bool(b) => Some(b.to_string()),
        Json::Int(n) => Some(n.to_string()),
        Json::Num(n) => Some(display_num(*n)),
        Json::Str(s) => Some(s.clone()),
        Json::Arr(_) | Json::Obj(_) => None,
    }
}

/// What fits in one table cell — a scalar, or an array of scalars joined
/// by spaces; `None` for anything nested deeper.
fn cell(value: &Json) -> Option<String> {
    match value {
        Json::Arr(items) => {
            let cells: Option<Vec<String>> = items.iter().map(scalar).collect();
            cells.map(|cells| cells.join(" "))
        }
        other => scalar(other),
    }
}

/// One table row: an object of cells under its keys, or an array of
/// scalars under no header; `None` when a value nests deeper.
fn flat_row(value: &Json) -> Option<Vec<(&str, String)>> {
    match value {
        Json::Obj(fields) => fields
            .iter()
            .map(|(key, value)| Some((key.as_str(), cell(value)?)))
            .collect(),
        Json::Arr(items) => items.iter().map(|item| Some(("", scalar(item)?))).collect(),
        _ => None,
    }
}

fn text(value: &Json, out: &mut String) {
    match value {
        Json::Arr(items) => {
            let rows: Option<Vec<_>> = items.iter().map(flat_row).collect();
            match rows {
                Some(rows) if !rows.is_empty() => write_table(&rows, out),
                _ => {
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push('\n');
                        }
                        text(item, out);
                    }
                }
            }
        }
        Json::Obj(fields) => {
            for (key, value) in fields {
                match cell(value) {
                    Some(cell) => {
                        let _ = writeln!(out, "{key}: {cell}");
                    }
                    None => {
                        let _ = writeln!(out, "{key}:");
                        text(value, out);
                    }
                }
            }
        }
        leaf => {
            let _ = writeln!(out, "{}", scalar(leaf).unwrap_or_default());
        }
    }
}

/// Fixed-width columns, headed by the first row's keys when it has any.
fn write_table(rows: &[Vec<(&str, String)>], out: &mut String) {
    let mut widths: Vec<usize> = rows[0].iter().map(|(key, _)| key.chars().count()).collect();
    for row in rows {
        for (width, (_, cell)) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let mut line = |cells: &mut dyn Iterator<Item = &str>| {
        let start = out.len();
        for (cell, width) in cells.zip(&widths) {
            let _ = write!(out, "{cell:width$}  ");
        }
        out.truncate(start + out[start..].trim_end().len());
        out.push('\n');
    };
    if rows[0].iter().any(|(key, _)| !key.is_empty()) {
        line(&mut rows[0].iter().map(|(key, _)| *key));
        let rule = "-".repeat(widths.iter().map(|w| w + 2).sum::<usize>() - 2);
        line(&mut std::iter::once(rule.as_str()));
    }
    for row in rows {
        line(&mut row.iter().map(|(_, cell)| cell.as_str()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::json::ToJson;
    use ccd_common::obj;

    #[test]
    fn flat_rows_become_a_table_headed_by_their_keys() {
        let rows = vec![
            obj! { "workload": "DB2", "rate": 0.0123456, "cores": vec![16u32, 32] },
            obj! { "workload": "ocean", "rate": None::<f64>, "cores": vec![1024u32] },
        ];
        assert_eq!(
            to_text(&rows.to_json()),
            "workload  rate     cores\n\
             ------------------------\n\
             DB2       0.01235  16 32\n\
             ocean     -        1024\n"
        );
    }

    #[test]
    fn nested_results_print_their_scalars_then_recurse() {
        let bench = obj! {
            "scale": "quick",
            "ok": true,
            "rows": vec![obj! { "workers": 2u32, "digest": "00ff" }],
            "pairs": vec![(1u64, 85.25), (2, 10.0)],
        };
        assert_eq!(
            to_text(&bench),
            "scale: quick\nok: true\nrows:\nworkers  digest\n---------------\n2        00ff\n\
             pairs:\n1  85.25\n2  10\n"
        );
    }

    #[test]
    fn numbers_print_to_four_significant_digits() {
        for (n, text) in [
            (3.0, "3"),
            (0.5, "0.5"),
            (85.254, "85.25"),
            (0.000123456, "0.0001235"),
            (1234.56, "1235"),
            (-2.5, "-2.5"),
        ] {
            assert_eq!(display_num(n), text);
        }
    }
}
