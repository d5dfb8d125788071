//! The workspace's one JSON codec: the [`Json`] value type, a compact
//! writer (its `Display` impl, plus [`json_obj!`](crate::json_obj)) and
//! a recursive-descent reader ([`parse`]). Run reports, checkpoints,
//! spool records, the serve wire protocol, lint output and bench records
//! all go through it; the encoding is documented once in
//! `EXPERIMENTS.md` ("JSON encoding").
//!
//! The writer emits one line with keys in insertion order. Strings
//! escape `"`, `\`, `\n`, `\r` and `\t` by name and every other control
//! character as `\u00xx`. Integers are exact [`u64`]s; floats are the
//! shortest round-trip decimal, never in exponent form, with `.0` added
//! when integral and `null` when non-finite. The reader takes standard
//! JSON: plain digits read as an exact [`Json::UInt`], any other number
//! as a [`Json::Float`], and a `\u` surrogate pair as one character.
//! Malformed input is an error naming the offending byte, never a
//! panic, so untrusted bytes (a torn spool file, a garbled client
//! request) are safe to feed in. Documents are capped at [`MAX_DEPTH`]
//! nesting levels, which bounds recursion on adversarial input.

use std::fmt::{self, Write as _};

/// Builds a [`Json::Obj`] from `"key": value` pairs in order, converting
/// each value with `Json::from`:
///
/// ```
/// use incdx_core::json_obj;
///
/// let v = json_obj! { "id": 7u64, "ok": true, "tag": "a\tb", "gate": None::<u64> };
/// assert_eq!(v.to_string(), r#"{"id":7,"ok":true,"tag":"a\tb","gate":null}"#);
/// ```
#[macro_export]
macro_rules! json_obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::obj($crate::json_fields! { $($key: $value),* })
    };
}

/// The `(key, value)` array behind [`json_obj!`], for objects assembled
/// from parts with [`Json::obj`] (optional fields spliced in by `chain`).
#[macro_export]
macro_rules! json_fields {
    ($($key:literal : $value:expr),* $(,)?) => {
        [$(($key, $crate::json::Json::from($value))),*]
    };
}

/// Maximum nesting depth accepted by [`parse`]. Deeper documents are
/// rejected with an error rather than risking stack exhaustion.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, exact over the whole `u64` range.
    UInt(u64),
    /// Any other number. Written as shortest round-trip decimal;
    /// non-finite values are written as `null`.
    Float(f64),
    /// A string, with escapes already decoded.
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list (duplicate keys keep the
    /// first occurrence when read through [`Json::get`]).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an array from anything convertible to values.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// If `self` is not an object or the field is absent.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("expected object while reading `{key}`")),
        }
    }

    /// Looks up an optional object field; `None` when `self` is not an
    /// object or the field is absent.
    pub fn get_opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Reads the value as a `u64`.
    ///
    /// # Errors
    ///
    /// If the value is not an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::UInt(v) => Ok(*v),
            _ => Err("expected unsigned integer".to_string()),
        }
    }

    /// Reads the value as a `usize`.
    ///
    /// # Errors
    ///
    /// If the value is not an unsigned integer that fits in `usize`.
    pub fn as_usize(&self) -> Result<usize, String> {
        usize::try_from(self.as_u64()?).map_err(|_| "integer out of range".to_string())
    }

    /// Reads any number as an `f64` (integers above 2^53 round).
    ///
    /// # Errors
    ///
    /// If the value is not a number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Float(v) => Ok(*v),
            Json::UInt(v) => Ok(*v as f64),
            _ => Err("expected number".to_string()),
        }
    }

    /// Reads the value as a string slice.
    ///
    /// # Errors
    ///
    /// If the value is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected string".to_string()),
        }
    }

    /// Reads the value as a boolean.
    ///
    /// # Errors
    ///
    /// If the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected boolean".to_string()),
        }
    }

    /// Reads the value as an array slice.
    ///
    /// # Errors
    ///
    /// If the value is not an array.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("expected array".to_string()),
        }
    }
}

macro_rules! from_impls {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

from_impls! {
    bool => |v| Json::Bool(v),
    u64 => |v| Json::UInt(v),
    u32 => |v| Json::UInt(u64::from(v)),
    usize => |v| Json::UInt(v as u64),
    f64 => |v| Json::Float(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    &String => |v| Json::Str(v.clone()),
}

/// `None` is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Float(v) if !v.is_finite() => f.write_str("null"),
            Json::Float(v) if v.fract() == 0.0 => write!(f, "{v}.0"),
            Json::Float(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a quoted JSON string. Unescaped runs are copied in one
/// piece; every byte that needs an escape is ASCII, so the slice
/// boundaries always fall on character boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_char('"')
}

/// Parses a complete JSON document.
///
/// The whole input must be consumed — trailing non-whitespace bytes are
/// an error, which is how torn/concatenated spool lines are caught.
///
/// # Errors
///
/// A human-readable description of the first malformed byte.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let root = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(root)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("unexpected end of input at byte {}", self.pos))
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Ok(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek()? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => Ok(Json::Str(self.string()?)),
            b'-' | b'0'..=b'9' => self.number(),
            other => {
                let rest = &self.bytes[self.pos..];
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(format!(
                    "unexpected `{}` at byte {}",
                    other as char, self.pos
                ))
            }
        }
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Consumes the next byte if it is one of `set`.
    fn accept(&mut self, set: &[u8]) -> bool {
        let hit = self.bytes.get(self.pos).is_some_and(|b| set.contains(b));
        self.pos += usize::from(hit);
        hit
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("malformed number at byte {start}");
        let negative = self.accept(b"-");
        let int = self.pos;
        if self.digits() == 0 || (self.bytes[int] == b'0' && self.pos - int > 1) {
            return Err(bad());
        }
        let fraction = self.accept(b".");
        if fraction && self.digits() == 0 {
            return Err(bad());
        }
        let exponent = self.accept(b"eE");
        if exponent {
            self.accept(b"+-");
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        // The token is ASCII by construction.
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| bad())?;
        if negative || fraction || exponent {
            token.parse::<f64>().map(Json::Float).map_err(|_| bad())
        } else {
            token
                .parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("integer overflow at byte {start}"))
        }
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".to_string());
        }
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &h| {
            acc * 16 + (h as char).to_digit(16).unwrap_or(0)
        }))
    }

    /// Decodes the code unit(s) after `\u`: a high surrogate followed by
    /// an escaped low surrogate is one character; any unpaired half is
    /// U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
            let save = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            self.pos = save;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ if b < 0x80 => out.push(b as char),
                _ => {
                    // Decode exactly one multi-byte UTF-8 character —
                    // validating only its own bytes keeps string
                    // scanning linear even for multi-hundred-KB
                    // embedded payloads (a checkpoint inside a spool
                    // record).
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("non-utf8 string".to_string()),
                    };
                    let start = self.pos - 1;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| "unterminated string".to_string())?;
                    let c = std::str::from_utf8(chunk)
                        .map_err(|_| "non-utf8 string".to_string())?
                        .chars()
                        .next()
                        .ok_or_else(|| "non-utf8 string".to_string())?;
                    out.push(c);
                    self.pos += len - 1;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.consume(b',')?;
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.consume(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            self.consume(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let doc = parse("{\"a\":1,\"b\":[true,\"x\\n\",null,-2.5e1],\"c\":{}}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64().unwrap(), 1);
        let arr = doc.get("b").unwrap().as_arr().unwrap();
        assert!(arr[0].as_bool().unwrap());
        assert_eq!(arr[1].as_str().unwrap(), "x\n");
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3], Json::Float(-25.0));
        assert!(doc.get("c").unwrap().get("missing").is_err());
        assert_eq!(doc.get_opt("missing"), None);
        assert!(doc.get_opt("a").is_some());
    }

    #[test]
    fn plain_digits_are_exact_integers_and_the_rest_floats() {
        assert_eq!(parse("18446744073709551615"), Ok(Json::UInt(u64::MAX)));
        assert_eq!(parse("0"), Ok(Json::UInt(0)));
        assert_eq!(parse("1.5"), Ok(Json::Float(1.5)));
        assert_eq!(parse("-3"), Ok(Json::Float(-3.0)));
        assert_eq!(parse("2E-3"), Ok(Json::Float(0.002)));
        assert_eq!(parse("1e+2"), Ok(Json::Float(100.0)));
        assert!(parse("1.5").unwrap().as_u64().is_err(), "a float is no u64");
        assert_eq!(parse("7").unwrap().as_f64(), Ok(7.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{\"a\":1} extra",
            "{\"a\":",
            "",
            "99999999999999999999999",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "nul",
            "tru",
            "\"\\uZZZZ\"",
            "\"\\u+123\"",
            "\"\\ud83d\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err(), "nesting bomb");
    }

    #[test]
    fn decodes_escapes_and_utf8() {
        let doc = parse("\"caf\u{e9} \\u00e9 \\t\\\\\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "café é \t\\");
    }

    #[test]
    fn decodes_surrogate_pairs() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Ok("\u{1F600}")
        );
        assert_eq!(
            parse("\"\\uD834\\uDD1E!\"").unwrap().as_str(),
            Ok("\u{1D11E}!")
        );
        // Unpaired halves stay replacement characters.
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Ok("\u{fffd}"));
        assert_eq!(parse("\"\\ude00x\"").unwrap().as_str(), Ok("\u{fffd}x"));
        assert_eq!(
            parse("\"\\ud83d\\u0041\"").unwrap().as_str(),
            Ok("\u{fffd}A")
        );
    }

    #[test]
    fn writes_compact_json_with_named_escapes() {
        let v = Json::obj([
            ("s", "a\"b\\c\nd\re\tf\u{1}g\u{7f}é".into()),
            ("n", Json::Null),
            ("b", false.into()),
            ("u", u64::MAX.into()),
            ("a", Json::arr([1u64, 2])),
            ("o", Json::obj([])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{7f}é\",\"n\":null,\"b\":false,\
             \"u\":18446744073709551615,\"a\":[1,2],\"o\":{}}"
        );
        assert_eq!(Json::from(Some("x")).to_string(), "\"x\"");
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
    }

    #[test]
    fn floats_are_plain_shortest_decimals() {
        for (v, text) in [
            (0.25, "0.25"),
            (1.0, "1.0"),
            (-0.0, "-0.0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (3e-6, "0.000003"),
            (1e21, "1000000000000000000000.0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(Json::Float(v).to_string(), text, "{v:?}");
        }
    }
}
