//! Dependency-free JSON for the experiment result files.
//!
//! The build environment cannot fetch `serde`/`serde_json`, so an
//! experiment builds its result as a [`Json`] tree directly: [`crate::obj!`]
//! makes one row, naming each column once, and [`ToJson`] converts the
//! values.  The tree renders two ways — [`Json::to_pretty`] is the file,
//! [`Json::to_text`] the table a person reads on stdout.

use std::fmt::{self, Write as _};

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (serialized without a trailing `.0` for integral values).
    Num(f64),
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_num(n: f64, out: &mut String) {
        if n.is_finite() {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        } else {
            // JSON has no NaN/Inf; mirror serde_json's lossy convention.
            out.push_str("null");
        }
    }

    fn render(&self, indent: usize, out: &mut String) {
        const PAD: &str = "  ";
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => Self::write_num(*n, out),
            Json::Str(s) => Self::write_escaped(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&PAD.repeat(indent + 1));
                    item.render(indent + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&PAD.repeat(indent + 1));
                    Self::write_escaped(key, out);
                    out.push_str(": ");
                    value.render(indent + 1, out);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
        }
    }

    /// Renders the value as pretty-printed JSON.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out
    }
}

/// A number as a person reads it: integers whole, anything else to four
/// significant digits, trailing zeros dropped.
fn display_num(n: f64) -> String {
    if n.fract() == 0.0 || !n.is_finite() {
        let mut out = String::new();
        Json::write_num(n, &mut out);
        return out;
    }
    let digits = (3 - n.abs().log10().floor() as i32).clamp(0, 12) as usize;
    let text = format!("{n:.digits$}");
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// The text side of a tree: what `figs` prints for a result.
impl Json {
    /// A scalar as a person reads it; `None` for arrays and objects.
    fn scalar(&self) -> Option<String> {
        match self {
            Json::Null => Some("-".to_string()),
            Json::Bool(b) => Some(b.to_string()),
            Json::Num(n) => Some(display_num(*n)),
            Json::Str(s) => Some(s.clone()),
            Json::Arr(_) | Json::Obj(_) => None,
        }
    }

    /// What fits in one table cell — a scalar, or an array of scalars
    /// joined by spaces; `None` for anything nested deeper.
    fn cell(&self) -> Option<String> {
        match self {
            Json::Arr(items) => {
                let cells: Option<Vec<String>> = items.iter().map(Json::scalar).collect();
                cells.map(|cells| cells.join(" "))
            }
            other => other.scalar(),
        }
    }

    /// One table row: an object of cells under its keys, or an array of
    /// scalars under no header; `None` when a value nests deeper.
    fn flat_row(&self) -> Option<Vec<(&str, String)>> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .map(|(key, value)| Some((key.as_str(), value.cell()?)))
                .collect(),
            Json::Arr(items) => items
                .iter()
                .map(|item| Some(("", item.scalar()?)))
                .collect(),
            _ => None,
        }
    }

    fn text(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                let rows: Option<Vec<_>> = items.iter().map(Json::flat_row).collect();
                match rows {
                    Some(rows) if !rows.is_empty() => write_table(&rows, out),
                    _ => {
                        for (i, item) in items.iter().enumerate() {
                            if i > 0 {
                                out.push('\n');
                            }
                            item.text(out);
                        }
                    }
                }
            }
            Json::Obj(fields) => {
                for (key, value) in fields {
                    match value.cell() {
                        Some(cell) => {
                            let _ = writeln!(out, "{key}: {cell}");
                        }
                        None => {
                            let _ = writeln!(out, "{key}:");
                            value.text(out);
                        }
                    }
                }
            }
            leaf => {
                let _ = writeln!(out, "{}", leaf.scalar().unwrap_or_default());
            }
        }
    }

    /// Renders the value for a terminal: an array of flat rows becomes a
    /// fixed-width table (keys as headers, values in the file's own units,
    /// numbers to four significant digits); an object prints its scalar
    /// fields as `key: value` lines and recurses into the rest.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.text(&mut out);
        out
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty())
    }
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

macro_rules! impl_num {
    ($($t:ty),+) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        })+
    };
}
impl_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Builds one [`Json::Obj`] row, naming each column once; values convert
/// through [`ToJson`]:
///
/// ```
/// let row = ccd_bench::obj! { "workload": "DB2", "rate": 0.5 };
/// assert_eq!(row.to_text(), "workload: DB2\nrate: 0.5\n");
/// ```
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),+ $(,)?) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::ToJson::to_json(&$value)),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_strings() {
        assert_eq!(3u32.to_json().to_pretty(), "3");
        assert_eq!(2.5f64.to_json().to_pretty(), "2.5");
        assert_eq!(true.to_json().to_pretty(), "true");
        assert_eq!("a\"b".to_json().to_pretty(), "\"a\\\"b\"");
        assert_eq!(Option::<u32>::None.to_json().to_pretty(), "null");
        assert_eq!(f64::NAN.to_json().to_pretty(), "null");
    }

    #[test]
    fn renders_nested_structures() {
        let row = crate::obj! { "name": "x", "values": vec![(1u64, 0.5)], "skipped": None::<f64> };
        assert_eq!(
            vec![row].to_json().to_pretty(),
            "[\n  {\n    \"name\": \"x\",\n    \"values\": [\n      [\n        1,\n        0.5\n      \
             ]\n    ],\n    \"skipped\": null\n  }\n]"
        );
    }

    #[test]
    fn flat_rows_become_a_table_headed_by_their_keys() {
        let rows = vec![
            crate::obj! { "workload": "DB2", "rate": 0.0123456, "cores": vec![16u32, 32] },
            crate::obj! { "workload": "ocean", "rate": None::<f64>, "cores": vec![1024u32] },
        ];
        assert_eq!(
            rows.to_json().to_text(),
            "workload  rate     cores\n\
             ------------------------\n\
             DB2       0.01235  16 32\n\
             ocean     -        1024\n"
        );
    }

    #[test]
    fn nested_results_print_their_scalars_then_recurse() {
        let bench = crate::obj! {
            "scale": "quick",
            "ok": true,
            "rows": vec![crate::obj! { "workers": 2u32, "digest": "00ff" }],
            "pairs": vec![(1u64, 85.25), (2, 10.0)],
        };
        assert_eq!(
            bench.to_text(),
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
