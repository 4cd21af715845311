//! A minimal JSON value model, serializer, and parser.
//!
//! The hermetic build cannot pull `serde_json`, so the telemetry layer's
//! machine-readable dumps are built on this module instead. It supports the
//! full JSON data model with two deliberate restrictions that match our
//! producers: object keys keep insertion order (we always insert in a
//! deterministic order, so dumps are byte-stable), and non-finite floats
//! serialize as `null` (JSON has no NaN/Infinity).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so serialization is stable
    /// regardless of insertion order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `key: value` into an object; panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(m) => {
                m.insert(key.to_string(), value.into());
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Parses a JSON document (see [`parse`]).
    pub fn parse(src: &str) -> Result<Json, String> {
        parse(src)
    }

    /// Looks up `key` in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation, suitable for humans and `jq`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest f64 representation; Rust's Display round-trips.
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Parses a JSON document. Used by round-trip tests and by post-processing
/// scripts that read `results/*.json` back in.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut r = Reader::new(src);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A pull reader over one JSON document: the one tokenizer behind
/// [`parse`], also usable to decode a document straight into typed values
/// without building a [`Json`] tree.
///
/// Every read consumes exactly one value, leading whitespace included.
/// `Err` is a syntax error: the document is not JSON that [`parse`] would
/// accept. A well-formed value of another type than the read asks for is
/// skipped and reads as `Ok(None)` (or `Ok(false)` for [`Reader::object`]
/// and [`Reader::array`]), so a typed decoder can finish the document and
/// only then judge its shape.
///
/// ```
/// use lf_stats::json::Reader;
///
/// let mut r = Reader::new(r#"{"n": 7, "name": "x", "skip": [1, {"a": null}]}"#);
/// let (mut n, mut name) = (None, None);
/// assert!(r.object(|r, key| {
///     match &*key {
///         "n" => n = r.u64()?,
///         "name" => name = r.str()?.map(|s| s.into_owned()),
///         _ => r.skip()?,
///     }
///     Ok(())
/// })?);
/// r.finish()?;
/// assert_eq!((n, name.as_deref()), (Some(7), Some("x")));
/// # Ok::<(), String>(())
/// ```
pub struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader { src, bytes: src.as_bytes(), pos: 0 }
    }

    /// Ends the document: only whitespace may follow the values read.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads the next value into a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| r.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    let v = r.value()?;
                    map.insert(key.into_owned(), v);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Json::Num),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Skips the next value, checking its syntax as [`Reader::value`]
    /// does. Typed decoders skip only unknown keys and mistyped values.
    pub fn skip(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }

    /// Reads an object: calls `f` once per member, in document order, with
    /// the member's key (escapes decoded) and the reader positioned at its
    /// value, which `f` must consume with exactly one read. `Ok(false)` if
    /// the value is not an object.
    pub fn object(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<bool, String> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return self.skip().map(|()| false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            f(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Reads an array: calls `f` once per element, in order, with the
    /// reader positioned at it; `f` must consume it with exactly one read.
    /// `Ok(false)` if the value is not an array.
    pub fn array(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<bool, String> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return self.skip().map(|()| false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            f(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads a number as [`Json::as_u64`] reads it: `None` unless it is a
    /// non-negative integral number.
    pub fn u64(&mut self) -> Result<Option<u64>, String> {
        self.skip_ws();
        let start = self.pos;
        let digits = self.bytes[start..].iter().take_while(|c| c.is_ascii_digit()).count();
        let end = start + digits;
        // Up to 15 plain digits are exact as an f64, so they read the same
        // without the float round trip every other form takes.
        if (1..=15).contains(&digits)
            && !matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos = end;
            let n = self.bytes[start..end].iter().fold(0, |n, d| n * 10 + u64::from(d - b'0'));
            return Ok(Some(n));
        }
        Ok(self.f64()?.and_then(|n| Json::Num(n).as_u64()))
    }

    /// Reads a number; `None` if the value is not one.
    pub fn f64(&mut self) -> Result<Option<f64>, String> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads a string, borrowed from the document unless it has escapes;
    /// `None` if the value is not a string.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads an array of numbers, each as [`Reader::u64`] reads it; `None`
    /// if the value is not an array or an element is not a `u64`.
    pub fn u64s(&mut self) -> Result<Option<Vec<u64>>, String> {
        let (mut items, mut all) = (Vec::new(), true);
        let is_array = self.array(|r| {
            match r.u64()? {
                Some(n) => items.push(n),
                None => all = false,
            }
            Ok(())
        })?;
        Ok((is_array && all).then_some(items))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// A string token. Every slice boundary here sits next to an ASCII
    /// byte, so it is a char boundary of `src`.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            let run = &self.src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.src[start..self.pos].parse::<f64>().map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let mut doc = Json::obj();
        doc.set("name", "core.iq.full_stalls");
        doc.set("value", 42u64);
        doc.set("ratio", 0.125);
        doc.set("tags", Json::Arr(vec!["a".into(), Json::Null, Json::Bool(true)]));
        let mut inner = Json::obj();
        inner.set("weird \"key\"\n", Json::Num(-3.5));
        doc.set("inner", inner);

        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back, doc);
        }
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::from(1_000_000u64).to_string_compact(), "1000000");
        assert_eq!(Json::from(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn reader_numbers_read_as_parsed_numbers_do() {
        let texts = [
            "0",
            "7",
            "01",
            "-0",
            "-3",
            "1.0",
            "1.5",
            "1e3",
            "2.5E1",
            "1e-2",
            "123456789012345",
            // Past 15 digits a u64 reads as the f64 it parses to.
            "1234567890123456",
            "9007199254740993",
            "18446744073709551616",
            "1e400",
        ];
        for text in texts {
            let tree = parse(text).expect("a number");
            let mut r = Reader::new(text);
            assert_eq!(r.u64().unwrap(), tree.as_u64(), "{text}");
            r.finish().unwrap();
            let mut r = Reader::new(text);
            assert_eq!(r.f64().unwrap(), tree.as_f64(), "{text}");
            r.finish().unwrap();
        }
        for bad in ["-", "1-2", "1e", "1.2.3", "--1"] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(Reader::new(bad).u64().is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_skips_mistyped_values_whole() {
        let text = r#"[{"a": [1, "x"]}, "s\"", null, true, -2, 3, [], {}]"#;
        let mut r = Reader::new(text);
        let mut read = Vec::new();
        assert!(r.array(|r| r.u64().map(|n| read.push(n))).unwrap());
        r.finish().unwrap();
        assert_eq!(read, [None, None, None, None, None, Some(3), None, None]);

        let mut r = Reader::new(r#"{"a\u0041\n": "v\/", "b": [true]}"#);
        let mut keys = Vec::new();
        assert!(r
            .object(|r, key| {
                keys.push(key.into_owned());
                r.str().map(drop)
            })
            .unwrap());
        assert_eq!(keys, ["aA\n", "b"], "keys decode their escapes");
        assert!(!Reader::new("[1]").object(|r, _| r.skip()).unwrap(), "an array is no object");
        assert_eq!(Reader::new("[1, 2]").u64s().unwrap(), Some(vec![1, 2]));
        assert_eq!(Reader::new("[1, 2.5]").u64s().unwrap(), None);
    }

    #[test]
    fn reader_reports_the_syntax_errors_parse_does() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "\"\\x\"",
            "\"\\u12\"",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(Reader::new(bad).skip().is_err(), "{bad}");
            assert!(Reader::new(bad).u64().is_err(), "{bad}");
        }
        let mut r = Reader::new("1 2");
        r.skip().unwrap();
        assert!(r.finish().is_err(), "trailing garbage");
    }

    #[test]
    fn object_keys_are_sorted_in_output() {
        let mut doc = Json::obj();
        doc.set("zeta", 1u64);
        doc.set("alpha", 2u64);
        assert_eq!(doc.to_string_compact(), "{\"alpha\":2,\"zeta\":1}");
    }
}
