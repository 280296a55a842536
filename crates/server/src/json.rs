//! A zero-dependency JSON value, parser, and serializer.
//!
//! The workspace builds offline, so `fj serve` cannot lean on serde; the
//! wire format is newline-delimited JSON, which needs exactly this much
//! machinery: a recursive-descent parser over one line of input and a
//! writer with correct string escaping. Objects preserve insertion order
//! so responses serialize deterministically (the serve smoke test greps
//! raw response text).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order (duplicate keys: last one wins on
    /// lookup, all are serialized — don't produce duplicates).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object; `None` for absent keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a number that is
    /// one (no fraction, no sign, within `u64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a number value from an unsigned integer.
    pub fn num(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Everything that needs escaping is ASCII, so each unescaped run
    // between two escapes ends on a char boundary and goes out whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(escape)?;
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// Parse one JSON document. Trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable message with the byte offset of the problem.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(format!("bad \\u escape at byte {}", self.pos)),
                            }
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go; both are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let start = self.pos;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += len;
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let n = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))?;
        self.pos = end;
        Ok(n)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let src = r#"{"op": "compile", "n": 42, "neg": -7, "pi": 1.5, "ok": true, "nil": null, "xs": [1, 2, 3], "nested": {"a": "b"}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("compile"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("neg"), Some(&Value::Num(-7.0)));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("nil"), Some(&Value::Null));
        assert_eq!(
            v.get("xs").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        let reparsed = parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1}\u{1F600}";
        let v = Value::str(original);
        let parsed = parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // Escaped input parses too, including a surrogate pair.
        let v = parse(r#""aA\n😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\u{1F600}"));
    }

    #[test]
    fn encoder_writes_exact_bytes() {
        // Unescaped runs (ASCII and multi-byte) go out verbatim; each
        // escape sits exactly where its character was.
        let v = Value::str("é\"ü\\\n\u{1}x\u{1F600}\t\r\u{1f}end");
        assert_eq!(
            v.to_string(),
            "\"é\\\"ü\\\\\\n\\u0001x\u{1F600}\\t\\r\\u001fend\""
        );
        assert_eq!(Value::str("").to_string(), "\"\"");
        assert_eq!(Value::str("\\").to_string(), "\"\\\\\"");
    }

    #[test]
    fn multibyte_runs_next_to_escapes_round_trip() {
        // Multi-byte UTF-8 runs directly before and after every kind of
        // escape, at both ends of the string, and around surrogate pairs.
        let original = "日本\"語\\ü\nñ\u{1}€\u{1F600}𝄞\té";
        let wire = Value::str(original).to_string();
        assert_eq!(parse(&wire).unwrap().as_str(), Some(original));
        let escaped = r#""日\u00e9本\ud83d\ude00語\"\\\/\b\f€\ud834\udd1e""#;
        assert_eq!(
            parse(escaped).unwrap().as_str(),
            Some("日é本\u{1F600}語\"\\/\u{8}\u{c}€\u{1D11E}")
        );
        // A key, too, and a string that is nothing but one run.
        let v = parse(r#"{"ключ": "значение"}"#).unwrap();
        assert_eq!(v.get("ключ").and_then(Value::as_str), Some("значение"));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    /// Complexity guard: decoding a string must be linear in its length
    /// (it once re-validated the whole rest of the input per character).
    #[test]
    fn large_string_field_decodes_in_linear_time() {
        // 8-byte chunks (a two-byte char, an escaped quote) decoding to 7.
        let payload = "éabc\\\"d".repeat(1 << 20);
        assert_eq!(payload.len(), 8 << 20);
        let wire = format!(r#"{{"op": "compile", "program": "{payload}"}}"#);
        let start = std::time::Instant::now();
        let v = parse(&wire).unwrap();
        let elapsed = start.elapsed();
        let program = v.get("program").and_then(Value::as_str).unwrap();
        assert_eq!(program.len(), 7 << 20);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "8 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn program_sources_survive_the_wire() {
        // A realistic payload: a surface program with newlines and
        // operators, embedded as a JSON string field.
        let program = "let go = \\n. if n <= 0 then 0 else go (n - 1)\nin go 10";
        let req = Value::obj([
            ("op", Value::str("compile")),
            ("program", Value::str(program)),
        ]);
        let wire = req.to_string();
        assert!(!wire.contains('\n'), "wire format must stay one line");
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed.get("program").and_then(Value::as_str), Some(program));
    }
}
