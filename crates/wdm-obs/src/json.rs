//! Minimal JSON support: escaping for the snapshot writer and a small
//! recursive-descent parser so tests and tooling can read snapshots
//! back without any external crates.
//!
//! The parser accepts the subset of JSON the registry emits (and, in
//! fact, all of standard JSON except `\u` surrogate-pair pedantry is
//! handled too). A non-negative integer literal up to `u64::MAX` (digits
//! only: no sign, fraction or exponent) keeps its exact value, so
//! [`Value::as_u64`] reads every such literal exactly and refuses any
//! other number, `5.0`, `1e3` and one past `u64::MAX` among them; every
//! other number is parsed as `f64`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Values compare as JSON: a [`Value::Integer`] equals the
/// [`Value::Number`] of the same value (`2` and `2.0` are one number).
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number other than a [`Value::Integer`], as `f64`.
    Number(f64),
    /// A non-negative integer literal up to `u64::MAX`, kept exact.
    Integer(u64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Element lookup on arrays; `None` on anything else.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value if this is a number (rounded to the nearest
    /// `f64` for an [`Value::Integer`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The exact value if this was written as a non-negative integer
    /// literal up to `u64::MAX`: digits only, so `5.0` and `1e3` are
    /// refused.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Integer(a), Value::Integer(b)) => a == b,
            // One number written two ways. 2^64 is the first integer past
            // `u64`; every `f64` below it with no fraction converts exactly.
            (Value::Integer(i), Value::Number(n)) | (Value::Number(n), Value::Integer(i)) => {
                *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 && *n as u64 == *i
            }
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            _ => false,
        }
    }
}

/// 2^64, the first integer past `u64::MAX`.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile document (a
/// line of `[`s) from overflowing the stack of the thread parsing it.
pub const MAX_DEPTH: usize = 128;

/// What kind of input a [`ParseError`] rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not well-formed JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Which rule the input broke.
    pub kind: ParseErrorKind,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Appends `s` to `out` with JSON string escaping applied (quotes,
/// backslash, control characters). Shared by the snapshot writer and
/// the Prometheus label renderer's cousin in the registry.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            kind: ParseErrorKind::Syntax,
            message: message.to_string(),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
                message: format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII in \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // step, so a string costs time linear in its length.
                    // Both are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(self.err("invalid number"));
        };
        let Ok(n) = text.parse::<f64>() else {
            return Err(self.err("invalid number"));
        };
        // A non-negative integer literal keeps its exact value. The scan
        // above admits no `+`, so `u64`'s parse takes digits only.
        match text.parse::<u64>() {
            Ok(i) => Ok(Value::Integer(i)),
            Err(_) => Ok(Value::Number(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn integers_past_two_pow_53_stay_exact_up_to_u64_max() {
        let exact = |text: &str| parse(text).ok().and_then(|v| v.as_u64());
        assert_eq!(exact("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact("18446744073709551616"), None);
        assert_eq!(exact("1e300"), None);
        assert_eq!(exact("9007199254740992"), Some(1 << 53));
        assert_eq!(exact("4.5"), None);
        assert_eq!(
            parse("9007199254740993").unwrap(),
            Value::Integer((1 << 53) + 1)
        );
        assert_eq!(
            parse("9007199254740993").unwrap().as_f64(),
            Some(9007199254740992.0)
        );
    }

    #[test]
    fn only_integer_literals_read_as_wire_integers() {
        let exact = |text: &str| parse(text).ok().and_then(|v| v.as_u64());
        for text in ["5.0", "1e3", "1E3", "5.5", "-0", "-5", "0.0", "1e0"] {
            assert_eq!(exact(text), None, "{text}");
            assert!(parse(text).unwrap().as_f64().is_some(), "{text}");
        }
        assert_eq!(exact("5"), Some(5));
        assert_eq!(exact("0"), Some(0));
        // A float and an integer of one value are one JSON number.
        assert_eq!(parse("5.0").unwrap(), parse("5").unwrap());
        assert_eq!(parse("[1e3]").unwrap(), parse("[1000]").unwrap());
        assert_ne!(parse("5.5").unwrap(), parse("5").unwrap());
        assert_ne!(
            Value::Number(9007199254740992.0),
            Value::Integer((1 << 53) + 1)
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.index(0)).and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.index(1))
                .and_then(|o| o.get("b"))
                .and_then(Value::as_str),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_past_is_too_deep() {
        let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());

        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&past).expect_err("one level too deep");
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        let mixed = format!(
            "{}[]{}",
            r#"{"a":"#.repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        );
        assert_eq!(
            parse(&mixed).map_err(|e| e.kind),
            Err(ParseErrorKind::TooDeep)
        );
    }

    #[test]
    fn a_megabyte_of_open_brackets_is_a_typed_error() {
        let hostile = "[".repeat(1 << 20);
        let err = parse(&hostile).expect_err("unterminated and too deep");
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!(
            parse("[1, x]").map_err(|e| e.kind),
            Err(ParseErrorKind::Syntax)
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode é λ€𝄞";
        let mut doc = String::from("\"");
        escape_into(&mut doc, nasty);
        doc.push('"');
        assert_eq!(parse(&doc).unwrap(), Value::String(nasty.to_string()));
        assert_eq!(parse("\"λλ").unwrap_err().message, "unterminated string");
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse(r#""aA\n\t\\\"""#).unwrap(),
            Value::String("aA\n\t\\\"".into())
        );
    }
}
