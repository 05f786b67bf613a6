//! The workspace's one JSON: a value type, its compact writer and its
//! parser.
//!
//! Every artefact `wga` writes or reads as JSON goes through [`Json`]: the
//! checkpoint journal, the trace lines (as [`crate::obs::TraceLine`]),
//! `--metrics-out`, `profile_report.json` and the fault plan. The subset
//! is what those are made of: objects, arrays, strings and integers (no
//! floats, booleans or `null`, which nothing in the workspace writes),
//! and of the string escapes only the ones the writer emits — `\"`,
//! `\\`, `\n`, `\r`, `\t` and `\uXXXX` outside the surrogates. A
//! [`Json`] renders itself compactly through `Display`, members in
//! insertion order, and that renderer is the one place a string is
//! escaped, so a parsed document renders back to the bytes this module
//! wrote. Only `wga-lint` (std-only by rule) and `bench/` (which imports
//! nothing of this kind) keep a JSON of their own.

use std::fmt::{self, Write as _};

/// Deepest nesting [`parse`] accepts. The deepest artefact nests 4
/// levels (a degraded journal record's events);
/// past this the input is damage, and the parser returns an error rather
/// than recurse off the stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers are integers only.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An integer.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source (or insertion) order.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(i128::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// An object of `members`, in order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        // One copy of the conversion serves every arity.
        fn owned(members: Vec<(&str, Json)>) -> Json {
            Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        owned(Vec::from(members))
    }

    /// Appends a member to an object (a no-op on any other value).
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Obj(members) = self {
            members.push((key.to_string(), value));
        }
    }

    /// Renders an object one member per line (`{`, each member, `}` on
    /// lines of their own): the layout of `profile_report.json`.
    pub fn to_lines(&self) -> String {
        let Json::Obj(members) = self else {
            return format!("{self}\n");
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write_str(&mut out, key);
            let _ = write!(out, ":{value}");
        }
        out.push_str("\n}\n");
        out
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member `key`, or an error naming it.
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The `u64` member `key`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.get_u64(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The `u64` member `key`, `None` when absent — for fields a reader
    /// defaults because older writers left them out.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("field {key:?} is not a u64"))
            })
            .transpose()
    }

    /// The `i64` member `key`.
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        match self.member(key)? {
            Json::Int(n) => i64::try_from(*n).map_err(|_| format!("field {key:?} out of range")),
            _ => Err(format!("field {key:?} is not an integer")),
        }
    }

    /// The string member `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.member(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} is not a string"))
    }

    /// The array member `key`.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        self.member(key)?
            .as_arr()
            .ok_or_else(|| format!("field {key:?} is not an array"))
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Compact rendering: no whitespace, members in order.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(code);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                // The scan above stops only on `"`, `\` or the end.
                _ => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_rejects_trailing() {
        let v = parse(r#"{"a":"xA\n\"\u00e9","b":[1,-2],"c":{}}"#).unwrap();
        assert_eq!(v.str("a"), Ok("xA\n\"é"));
        assert_eq!(v.arr("b").unwrap()[1], Json::Int(-2));
        assert!(parse("{} trailing").is_err());
        for bad in [
            r#"{"a":}"#,
            "null",
            "[true]",
            r#""\ud800""#,
            r#""\u00""#,
            r#""\/""#,
            "1.5",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rendering_escapes_once_and_round_trips() {
        let mut doc = Json::obj([
            ("s", "q\"b\\n\nr\rt\t\u{1}\u{8}é".into()),
            ("n", Json::Int(-7)),
            ("a", Json::Arr(vec![Json::Int(0), Json::Arr(vec![])])),
        ]);
        doc.push("o", Json::obj([]));
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"s":"q\"b\\n\nr\rt\t\u0001\u0008é","n":-7,"a":[0,[]],"o":{}}"#
        );
        assert_eq!(parse(&text), Ok(doc));
        let lines = Json::obj([
            ("a\"", Json::Int(1)),
            ("b", Json::obj([("c", Json::Int(2))])),
        ]);
        assert_eq!(lines.to_lines(), "{\n\"a\\\"\":1,\n\"b\":{\"c\":2}\n}\n");
    }

    #[test]
    fn getters_name_the_field() {
        let doc = parse(r#"{"u":7,"neg":-1,"big":99999999999999999999,"s":"x","a":[]}"#).unwrap();
        assert_eq!(doc.u64("u"), Ok(7));
        assert_eq!(doc.get_u64("missing"), Ok(None));
        assert_eq!(doc.i64("neg"), Ok(-1));
        assert_eq!(doc.str("s"), Ok("x"));
        assert!(doc.arr("a").unwrap().is_empty());
        for (err, key) in [
            (doc.u64("missing"), "missing"),
            (doc.u64("neg"), "neg"),
            (doc.u64("s"), "s"),
            (doc.i64("big").map(|n| n as u64), "big"),
        ] {
            assert!(err.unwrap_err().contains(&format!("{key:?}")));
        }
        assert!(doc.str("u").unwrap_err().contains("\"u\""));
        assert!(doc.arr("s").unwrap_err().contains("\"s\""));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let bomb = "[{\"a\":".repeat(500_000);
        assert!(parse(&bomb).unwrap_err().contains("nesting"));
    }
}
