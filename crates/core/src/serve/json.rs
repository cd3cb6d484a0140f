//! A minimal JSON value type with a strict parser and canonical writer.
//!
//! The registry is unreachable in this build environment (no serde), so the
//! serve protocol hand-rolls the little JSON it needs: newline-delimited
//! objects of modest size and depth. Design points:
//!
//! * Object members preserve **insertion order** (a `Vec` of pairs, not a
//!   map), so writing is deterministic and PROTOCOL.md examples match the
//!   emitted bytes exactly.
//! * Numbers keep their integer identity: `U64`/`I64` for anything that
//!   parses as an integer, `F64` only for values with a fraction or
//!   exponent. A `u64` seed survives the round trip exactly — it is never
//!   squeezed through an `f64`.
//! * The parser is strict (trailing garbage, unterminated strings, bad
//!   escapes, duplicate-agnostic) and depth-capped, so a malformed or
//!   hostile request line can only produce an error response, never a panic
//!   or runaway recursion.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts. Protocol messages are at most
/// ~3 levels deep; the cap only exists to bound recursion on hostile input.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    U64(u64),
    /// A negative integer that fits `i64`.
    I64(i64),
    /// Any other number (fraction or exponent present, or out of integer
    /// range).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Serializes the value on one line (no pretty-printing): the NDJSON
    /// wire form. Writing then parsing round-trips every value this module
    /// can represent.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(s, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(s, "{n}");
            }
            Json::F64(x) => {
                // JSON has no NaN/Inf; the protocol never produces them, and
                // `null` is the least-wrong rendering if one ever appears.
                if x.is_finite() {
                    let _ = write!(s, "{x:?}");
                } else {
                    s.push_str("null");
                }
            }
            Json::Str(t) => write_escaped(s, t),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Json::Obj(members) => {
                s.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_escaped(s, key);
                    s.push(':');
                    value.write(s);
                }
                s.push('}');
            }
        }
    }

    /// The member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn write_escaped(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // protocol; map lone surrogates to U+FFFD
                            // rather than failing the whole message.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                _ => {
                    // Copy the whole run up to the next `"` or `\` as one
                    // slice. Both delimiters are ASCII, so they never occur
                    // inside a multibyte sequence and the run ends on a char
                    // boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let end = self.pos + run;
                    let chunk = self.text.get(self.pos..end).ok_or("invalid UTF-8")?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes")?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                // `-0` is the one signed spelling of a non-negative integer.
                return Ok(u64::try_from(n).map_or(Json::I64(n), Json::U64));
            }
        }
        // A literal beyond f64 range has no JSON rendering (the writer would
        // emit `null`), so it is malformed rather than infinite.
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Json::F64)
            .ok_or_else(|| format!("malformed number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_object() {
        let v = Json::parse(
            r#"{"op":"submit","id":"q1","seed":18446744073709551615,"neg":-3,"pi":3.5,"flag":true,"tags":["a","b"],"none":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("neg"), Some(&Json::I64(-3)));
        assert_eq!(v.get("pi"), Some(&Json::F64(3.5)));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn write_parse_round_trips_and_preserves_member_order() {
        let v = Json::Obj(vec![
            ("z".into(), Json::U64(1)),
            ("a".into(), Json::Str("x\"\\\n".into())),
            (
                "nest".into(),
                Json::Arr(vec![Json::Bool(false), Json::Null, Json::F64(-0.25)]),
            ),
        ]);
        let line = v.to_line();
        assert!(line.find("\"z\"").unwrap() < line.find("\"a\"").unwrap());
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert!(!line.contains('\n'), "wire form must be one line");
    }

    #[test]
    fn u64_seed_survives_exactly() {
        let line = Json::U64(u64::MAX).to_line();
        assert_eq!(line, "18446744073709551615");
        assert_eq!(Json::parse(&line).unwrap(), Json::U64(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "+5",
            "--2",
            "1e",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn control_characters_are_escaped() {
        let line = Json::Str("a\u{0001}b\tc".into()).to_line();
        assert_eq!(line, "\"a\\u0001b\\tc\"");
        assert_eq!(
            Json::parse(&line).unwrap(),
            Json::Str("a\u{0001}b\tc".into())
        );
    }

    #[test]
    fn multibyte_escapes_and_megabyte_strings_round_trip() {
        // Multibyte scalars of every UTF-8 width, next to escapes, must
        // survive the run-at-a-time string scan byte for byte.
        let mixed = "añ€😀\"quote\\slash\n\u{0001}é😀";
        let line = Json::Str(mixed.into()).to_line();
        assert_eq!(Json::parse(&line).unwrap(), Json::Str(mixed.into()));
        assert_eq!(
            Json::parse(r#""\u00e9\/\"é""#).unwrap(),
            Json::Str("é/\"é".into())
        );
        // A >= 1 MB string (the size of a full-scale result line) with
        // periodic escapes parses in linear time and round-trips.
        let big: String = "wafer-€-😀-\"\\\n".repeat(60_000);
        assert!(big.len() >= 1_000_000);
        let doc = Json::Obj(vec![("payload".into(), Json::Str(big.clone()))]);
        let line = doc.to_line();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("payload").and_then(Json::as_str),
            Some(big.as_str())
        );
        assert_eq!(parsed.to_line(), line);
    }
}
