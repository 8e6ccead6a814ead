//! The wire format: one JSON value per line, hand-rolled.
//!
//! The offline compat policy rules out `serde`, so this module carries a
//! deliberately small JSON implementation — a parser and serializer for
//! exactly the value shapes the protocol uses (objects, arrays, strings,
//! integers/floats, booleans, null). It is not a general-purpose JSON
//! library: numbers round-trip through `f64`, object key order is
//! preserved as written, and duplicate keys keep the first occurrence on
//! lookup.
//!
//! Requests and responses are both single-line objects; see
//! [`crate::server`] for the protocol fields.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a key in an object (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON value from text (the whole input must be consumed,
    /// modulo whitespace). Linear in the input; arrays and objects nested
    /// deeper than [`MAX_DEPTH`] are an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// protocol's own shapes stop at three (`rows` → row → cell).
pub const MAX_DEPTH: usize = 64;

/// An object builder for response construction:
/// `obj([("ok", Json::Bool(true)), ...])`.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let digits = &text[start..*pos];
            digits
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {digits:?}: {e}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Everything up to the next quote or backslash is copied in one
        // piece. Both are ASCII, so neither can sit inside a multi-byte
        // sequence and the run ends on a character boundary.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run + 1;
        if b[*pos - 1] == b'"' {
            return Ok(out);
        }
        match b.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = text
                    .get(*pos + 1..*pos + 5)
                    .ok_or("truncated \\u escape".to_string())?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                // Surrogate pairs are not needed by this protocol;
                // lone surrogates map to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        *pos += 1;
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal through `put`: the runs between
/// escapes go out whole. Everything escaped is ASCII, so a run never ends
/// inside a multi-byte sequence.
fn escaped<E>(s: &str, mut put: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    put("\"")?;
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        let control;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => {
                control = format!("\\u{b:04x}");
                &control
            }
            _ => continue,
        };
        put(&s[from..i])?;
        put(escape)?;
        from = i + 1;
    }
    put(&s[from..])?;
    put("\"")
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    escaped(s, |part| f.write_str(part))
}

/// Appends `s` to `out` as a JSON string literal, byte for byte what
/// [`Json::Str`] prints — the server renders replies with it straight
/// into a connection's output buffer.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    let done: Result<(), std::convert::Infallible> = escaped(s, |part| {
        out.extend_from_slice(part.as_bytes());
        Ok(())
    });
    let Ok(()) = done;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let cases = [
            r#"{"id":1,"op":"answer","rule":"p(X) :- q(X)."}"#,
            r#"{"ok":true,"rows":[["a","b"],["c","d"]],"epoch":3}"#,
            r#"{"nested":{"a":[1,2.5,-3],"b":null,"c":false}}"#,
            r#"["line \"quoted\"","tab\there"]"#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap();
            let rendered = v.to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "case {case}");
        }
    }

    #[test]
    fn accessors_and_builder() {
        let v = obj([
            ("ok", Json::Bool(true)),
            ("epoch", Json::int(7)),
            ("err", Json::str("overloaded")),
        ]);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("err").and_then(Json::as_str), Some("overloaded"));
        assert!(v.get("missing").is_none());
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    /// A reply of `rows` string cells mixing plain ASCII, multi-byte
    /// UTF-8 and every character the printer escapes.
    fn string_heavy_reply(rows: usize) -> Json {
        let cells = [
            "NCMIR.pa17",
            "Purkinje_Spine",
            "naïve café — 神経 🧠",
            "quote \" backslash \\ slash / newline \n tab \t return \r",
            "bell \u{7} backspace \u{8} formfeed \u{c} nul \u{0}",
        ];
        let rows = (0..rows)
            .map(|i| {
                Json::Arr(
                    cells
                        .iter()
                        .map(|c| Json::str(format!("{c} {i}")))
                        .collect(),
                )
            })
            .collect();
        obj([("ok", Json::Bool(true)), ("rows", Json::Arr(rows))])
    }

    #[test]
    fn parse_inverts_print_on_large_string_heavy_replies() {
        // About 64 kB and about 1 MB on the wire.
        for rows in [350, 5_600] {
            let v = string_heavy_reply(rows);
            let text = v.to_string();
            assert!(text.len() > rows * 180, "{} bytes", text.len());
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn every_escape_and_multibyte_text_parse() {
        let text = r#""\" \\ \/ \n \t \r \b \f \u00e9 \u795e é神🧠 \ud800""#;
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::str("\" \\ / \n \t \r \u{8} \u{c} é 神 é神🧠 \u{fffd}")
        );
        for bad in [r#""\x""#, r#""\u12""#, r#""\u12é4""#, r#""\"#, r#""open"#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_not_overflowed() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        // Unclosed and a hundred thousand deep: an error, not a dead worker.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(100_000)).is_err());
    }

    #[test]
    fn write_str_prints_what_display_prints() {
        for s in [
            "",
            "plain",
            "NCMIR.pa17",
            "quote \" backslash \\ slash / newline \n tab \t return \r",
            "bell \u{7} nul \u{0} unit \u{1f} del \u{7f}",
            "naïve café — 神経 🧠\"",
        ] {
            let mut out = Vec::new();
            write_str(&mut out, s);
            assert_eq!(String::from_utf8(out).unwrap(), Json::str(s).to_string());
        }
    }

    #[test]
    fn control_chars_escape() {
        let v = Json::str("a\nb\u{1}c");
        let text = v.to_string();
        assert_eq!(text, "\"a\\nb\\u0001c\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
        // A newline inside a string value must never split the wire line.
        assert!(!text.contains('\n'));
    }
}
