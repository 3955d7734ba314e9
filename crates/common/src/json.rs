//! JSON: one value tree, one writer and one bounded parser for the whole
//! workspace.
//!
//! The build environment cannot fetch `serde`, so everything that reads or
//! writes JSON goes through here: the `figs` result files (rows built with
//! [`obj!`](crate::obj), values converted by [`ToJson`], written by
//! [`Json::to_pretty`]), and the observability snapshot (`ccd_obs::expo`,
//! written by [`Json::to_pretty_folded`]); [`parse`] reads either back.
//!
//! Integers are a variant of their own, [`Json::Int`]: a `u64` counter is
//! written and read back as its exact digits, never through an `f64`.

use std::fmt::{self, Write as _};

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
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The first value under `key`, if this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON: two-space indentation, one
    /// array element or object field per line.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        self.render(0, usize::MAX)
    }

    /// Like [`Json::to_pretty`], but every array or object nested `depth`
    /// or more levels below the root is written on one line
    /// (`{ "a": 1, "b": [2, 3] }`): one record per line.
    #[must_use]
    pub fn to_pretty_folded(&self, depth: usize) -> String {
        self.render(0, depth)
    }

    fn render(&self, level: usize, fold: usize) -> String {
        let child = |value: &Json| value.render(level + 1, fold);
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            // JSON has no NaN or infinity: serde_json's lossy `null`.
            Json::Num(n) if !n.is_finite() => "null".to_string(),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => (*n as i64).to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => container(["[", "]"], level, fold, items.iter().map(child)),
            Json::Obj(fields) => container(
                ["{ ", " }"],
                level,
                fold,
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

/// Rendered `items` between brackets: one per line indented to
/// `level + 1`, or, from the `fold` level down, on one line with the
/// brackets' inner padding.
fn container(
    [open, close]: [&str; 2],
    level: usize,
    fold: usize,
    items: impl Iterator<Item = String>,
) -> String {
    let items: Vec<String> = items.collect();
    let (bare_open, bare_close) = (open.trim(), close.trim());
    if items.is_empty() {
        format!("{bare_open}{bare_close}")
    } else if level >= fold {
        format!("{open}{}{close}", items.join(", "))
    } else {
        let indent = "  ".repeat(level + 1);
        let items = items.join(&format!(",\n{indent}"));
        format!("{bare_open}\n{indent}{items}\n{}{bare_close}", &indent[2..])
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
///     row.to_pretty_folded(0),
///     r#"{ "workload": "DB2", "rate": 0.5, "refs": 3 }"#
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

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays and objects [`parse`] follows.  The parser
/// recurses once per level, so the bound is what keeps a hostile document
/// from overflowing the stack; the workspace's own documents nest at most
/// four deep.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document.  A number of digits alone is a
/// [`Json::Int`] when it fits in an `i128`; any other number must be a
/// finite `f64`.
///
/// # Errors
///
/// A [`ParseError`] at the first byte that is not JSON, at trailing
/// non-whitespace, or at nesting deeper than 64 levels.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut parser = Parser { input, pos: 0 };
    let value = parser.value(0)?;
    match parser.next_byte() {
        None => Ok(value),
        Some(_) => parser.err("trailing data after document"),
    }
}

struct Parser<'a> {
    input: &'a str,
    /// Always on a `char` boundary of `input`.
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: impl Into<String>) -> Result<T, ParseError> {
        let offset = self.pos;
        Err(ParseError {
            offset,
            what: what.into(),
        })
    }

    /// Skips whitespace and returns the next byte.
    fn next_byte(&mut self) -> Option<u8> {
        let rest = &self.input[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
        self.input.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.next_byte() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    /// `depth` is the number of arrays and objects already open.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.next_byte() {
            None => self.err("unexpected end of input"),
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'[') => self.list(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self
                .list(b'}', |p| {
                    if !p.eat(b'"') {
                        return p.err("expected object key");
                    }
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return p.err("expected `:`");
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Json::Str)
            }
            Some(_) => self.scalar(),
        }
    }

    /// The `,`-separated items of the array or object opening at `pos`,
    /// through its `close` byte.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.err(format!("expected `,` or `{}`", char::from(close)));
            }
        }
    }

    /// A keyword or a number: the run of letters, digits, signs and dots
    /// at `pos`.
    fn scalar(&mut self) -> Result<Json, ParseError> {
        let rest = &self.input[self.pos..];
        let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c));
        let text = &rest[..end.unwrap_or(rest.len())];
        let value = match text {
            "true" => Some(Json::Bool(true)),
            "false" => Some(Json::Bool(false)),
            "null" => Some(Json::Null),
            _ => text.parse().map(Json::Int).ok().or_else(|| {
                let n: f64 = text.parse().ok()?;
                n.is_finite().then_some(Json::Num(n))
            }),
        };
        let Some(value) = value else {
            return self.err(format!("invalid token `{text}`"));
        };
        self.pos += text.len();
        Ok(value)
    }

    /// The rest of a string whose opening quote is consumed.
    fn string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        let mut chars = self.input[self.pos..].chars();
        loop {
            let c = chars.next();
            self.pos = self.input.len() - chars.as_str().len();
            let escaped = match c {
                None => return self.err("unterminated string"),
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('u') => {
                        let hex = chars.as_str().get(..4);
                        let hex = hex.filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
                        let Some(code) = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        else {
                            return self.err("bad \\u escape");
                        };
                        chars = chars.as_str()[4..].chars();
                        // A lone surrogate reads as the replacement character.
                        char::from_u32(code).unwrap_or('\u{FFFD}')
                    }
                    Some(c @ ('"' | '\\' | '/')) => c,
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    _ => return self.err("unknown escape"),
                },
                Some(c) => c,
            };
            out.push(escaped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_nested_and_folded_structures() {
        let row =
            obj! { "n": (1u64, 0.5), "nan": f64::NAN, "s": "a\"b\\\n\u{1}", "none": None::<u32> };
        assert_eq!(
            vec![row].to_json().to_pretty(),
            "[\n  {\n    \"n\": [\n      1,\n      0.5\n    ],\n    \"nan\": null,\n    \
             \"s\": \"a\\\"b\\\\\\n\\u0001\",\n    \"none\": null\n  }\n]"
        );
        let doc = obj! {
            "entries": vec![obj! { "file": "a.rs", "pairs": vec![(1u32, true), (3, false)] }],
            "empty": Vec::<u32>::new(),
        };
        assert_eq!(
            doc.to_pretty_folded(2),
            "{\n  \"entries\": [\n    { \"file\": \"a.rs\", \"pairs\": [[1, true], [3, false]] }\n  \
             ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn numbers_are_exact_integers_or_finite_floats() {
        for n in [u64::MAX, (1 << 53) + 1] {
            let text = n.to_json().to_pretty();
            assert_eq!(text, n.to_string());
            assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
        }
        assert_eq!(
            parse("-9223372036854775808"),
            Ok(Json::Int(i64::MIN.into()))
        );
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-3.5e1"), Ok(Json::Num(-35.0)));
        // An integral float is written whole and reads back as an integer.
        assert_eq!(10.0f64.to_json().to_pretty(), "10");
        assert_eq!(parse("1.0"), Ok(Json::Num(1.0)));
        for bad in ["1e400", "NaN", "inf", "-", "0x10", "tru"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reads_the_inventory_shape_and_rejects_truncation() {
        let doc = parse(
            r#"{ "entries": [
                { "file": "a.rs", "line": 12, "summary": "a \"quoted\" é\/\b\ud800" }
            ] }"#,
        )
        .unwrap();
        let entry = &doc.get("entries").and_then(Json::as_array).unwrap()[0];
        assert_eq!(entry.get("file").and_then(Json::as_str), Some("a.rs"));
        assert_eq!(entry.get("line").and_then(Json::as_u64), Some(12));
        let summary = entry.get("summary").and_then(Json::as_str);
        assert_eq!(summary, Some("a \"quoted\" é/\u{8}\u{FFFD}"));
        assert_eq!(parse(&doc.to_pretty_folded(2)), Ok(doc));
        for bad in [
            "{} x",
            "{\"a\": ",
            "[1, 2",
            "[1 2]",
            "\"open",
            r#""\u+12a""#,
            r#""\q""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into() {
        // Either of these overflowed the stack before the bound existed.
        let levels = if cfg!(miri) { 2 * MAX_DEPTH } else { 2_000_000 };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let e = parse(&open.repeat(levels)).unwrap_err();
            assert!(e.what.contains("nesting"), "{e}");
            assert_eq!(e.offset, open.len() * MAX_DEPTH);
            // The bound itself still parses.
            let deepest = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&deepest).is_ok());
        }
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // Each character used to re-validate the whole tail: 80k characters
        // took seconds, this would not have finished.
        let text = "aé".repeat(if cfg!(miri) { 500 } else { 350_000 });
        let parsed = parse(&format!("\"{text}\"")).unwrap();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
    }
}
