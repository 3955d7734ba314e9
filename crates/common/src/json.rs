//! JSON: one value tree and one writer for the whole workspace.
//!
//! The build environment cannot fetch `serde`, so everything that writes
//! JSON goes through here: the `figs` result files (rows built with
//! [`obj!`](crate::obj), values converted by [`ToJson`], written by
//! [`Json::to_pretty`]).  Nothing in the workspace reads JSON back.
//!
//! Integers are a variant of their own, [`Json::Int`]: a `u64` counter is
//! written as its exact digits, never through an `f64`.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, exact: every `u64` and every `i64` fits.
    Int(i128),
    /// Any other number (written without a trailing `.0` when integral).
    Num(f64),
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as pretty-printed JSON: two-space indentation, one
    /// array element or object field per line.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        self.render(0)
    }

    fn render(&self, level: usize) -> String {
        let child = |value: &Json| value.render(level + 1);
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            // JSON has no NaN or infinity: serde_json's lossy `null`.
            Json::Num(n) if !n.is_finite() => "null".to_string(),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => (*n as i64).to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => container(["[", "]"], level, items.iter().map(child)),
            Json::Obj(fields) => container(
                ["{", "}"],
                level,
                fields
                    .iter()
                    .map(|(key, value)| format!("{}: {}", quote(key), child(value))),
            ),
        }
    }
}

/// `s` as a quoted JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
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
    out
}

/// Rendered `items` between brackets, one per line indented to `level + 1`.
fn container(
    [open, close]: [&str; 2],
    level: usize,
    items: impl Iterator<Item = String>,
) -> String {
    let items: Vec<String> = items.collect();
    if items.is_empty() {
        format!("{open}{close}")
    } else {
        let indent = "  ".repeat(level + 1);
        let items = items.join(&format!(",\n{indent}"));
        format!("{open}\n{indent}{items}\n{}{close}", &indent[2..])
    }
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

macro_rules! impl_to_json {
    ($($t:ty => |$v:ident| $body:expr),+ $(,)?) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                let $v = self;
                $body
            }
        })+
    };
}
impl_to_json!(
    u32 => |n| Json::Int((*n).into()),
    u64 => |n| Json::Int((*n).into()),
    usize => |n| Json::Int(*n as i128),
    f64 => |n| Json::Num(*n),
    bool => |b| Json::Bool(*b),
    str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s.clone()),
    Json => |v| v.clone(),
);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
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
/// let row = ccd_common::obj! { "workload": "DB2", "rate": 0.5, "refs": 3u64 };
/// assert_eq!(
///     row.to_pretty(),
///     "{\n  \"workload\": \"DB2\",\n  \"rate\": 0.5,\n  \"refs\": 3\n}"
/// );
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
    fn renders_scalars_and_nested_structures() {
        let row =
            obj! { "n": (1u64, 0.5), "nan": f64::NAN, "s": "a\"b\\\n\u{1}", "none": None::<u32> };
        assert_eq!(
            vec![row].to_json().to_pretty(),
            "[\n  {\n    \"n\": [\n      1,\n      0.5\n    ],\n    \"nan\": null,\n    \
             \"s\": \"a\\\"b\\\\\\n\\u0001\",\n    \"none\": null\n  }\n]"
        );
        let doc = obj! { "empty": Vec::<u32>::new(), "none": obj! { "b": true } };
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"empty\": [],\n  \"none\": {\n    \"b\": true\n  }\n}"
        );
    }

    #[test]
    fn numbers_are_exact_integers_or_finite_floats() {
        for n in [u64::MAX, (1 << 53) + 1] {
            assert_eq!(n.to_json().to_pretty(), n.to_string());
        }
        assert_eq!(
            Json::Int(i64::MIN.into()).to_pretty(),
            "-9223372036854775808"
        );
        // An integral float is written whole; any other as Rust prints it.
        assert_eq!(10.0f64.to_json().to_pretty(), "10");
        assert_eq!((-35.0f64).to_json().to_pretty(), "-35");
        assert_eq!(0.001f64.to_json().to_pretty(), "0.001");
        assert_eq!(1e300f64.to_json().to_pretty(), 1e300.to_string());
        for nan_or_inf in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(nan_or_inf.to_json().to_pretty(), "null");
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let text = "a \"quoted\" é/\u{8}\r\t\u{1f}";
        assert_eq!(
            text.to_json().to_pretty(),
            r#""a \"quoted\" é/\u0008\r\t\u001f""#
        );
    }
}
