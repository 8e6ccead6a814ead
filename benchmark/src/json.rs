//! The load generator's own JSON reader.
//!
//! Replies are read as raw lines. On the timed path a reply is matched by
//! a byte scan for a few integer fields ([`scan_u64`], [`scan_ok`]); one
//! reply in sixteen — and every reply of the verification pass — is parsed
//! in full by [`Value::parse`], which is linear in the line length. The
//! server's `wire::Json::parse` is deliberately not used for this: it is
//! super-linear on wide replies, which would make the client the
//! bottleneck of any scan, and it is a layer this benchmark measures.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON value; the whole input must be consumed.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Value::Obj(pairs));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Value::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    /// Parses a string literal, copying unescaped runs whole so the cost
    /// is linear in its length.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos]).map_err(|e| e.to_string())?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let esc = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
            }
        }
    }
}

/// How far into a reply the header fields (`id`, `ok`, `epoch`,
/// `queue_us`, `eval_us`) are looked for first. The server writes them
/// before any payload, so the scan of a 60 kB reply stops here; if a
/// later server moves them, the scan falls back to the whole line.
const HEAD: usize = 192;

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Scan needles: the field name with its quotes and colon, as the server
/// writes it (no whitespace).
pub const ID: &[u8] = b"\"id\":";
pub const OK: &[u8] = b"\"ok\":";
pub const EPOCH: &[u8] = b"\"epoch\":";
pub const QUEUE_US: &[u8] = b"\"queue_us\":";
pub const EVAL_US: &[u8] = b"\"eval_us\":";
pub const PUBLISH_US: &[u8] = b"\"publish_us\":";
pub const LOADED: &[u8] = b"\"loaded\":";

fn scan_after<'a>(line: &'a [u8], needle: &[u8]) -> Option<&'a [u8]> {
    let head = &line[..line.len().min(HEAD)];
    let at = find(head, needle).or_else(|| find(line, needle))?;
    Some(&line[at + needle.len()..])
}

/// The unsigned integer that follows `needle` in a reply line.
pub fn scan_u64(line: &[u8], needle: &[u8]) -> Option<u64> {
    let rest = scan_after(line, needle)?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Whether the reply line carries `"ok":true`.
pub fn scan_ok(line: &[u8]) -> bool {
    scan_after(line, OK).is_some_and(|rest| rest.starts_with(b"true"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = Value::parse(
            r#"{"id":7,"ok":true,"epoch":3,"rows":[["a \"q\"","b\\c"],["d","A"]],"x":null,"n":-2.5e1}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[0].as_str(), Some("a \"q\""));
        assert_eq!(rows[0].as_arr().unwrap()[1].as_str(), Some("b\\c"));
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("A"));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-25.0));
        assert_eq!(v.get("n").and_then(Value::as_u64), None);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", r#"{"a" 1}"#, "[1,2,]", "12 34", r#""open"#, "tru"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// Agrees with the server's own serializer on a reply-shaped value.
    #[test]
    fn reads_what_the_server_writes() {
        use kind_server::wire::{obj, Json};
        let wire = obj([
            ("id", Json::int(9)),
            ("ok", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![Json::Arr(vec![Json::str("tab\there \"x\"")])]),
            ),
        ]);
        let v = Value::parse(&wire.to_string()).unwrap();
        let cell = &v.get("rows").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap()[0];
        assert_eq!(cell.as_str(), Some("tab\there \"x\""));
    }

    #[test]
    fn byte_scans_find_header_fields() {
        let line = br#"{"id":4711,"ok":true,"epoch":12,"queue_us":0,"eval_us":35,"op":"ping"}"#;
        assert_eq!(scan_u64(line, ID), Some(4711));
        assert_eq!(scan_u64(line, EPOCH), Some(12));
        assert_eq!(scan_u64(line, QUEUE_US), Some(0));
        assert_eq!(scan_u64(line, b"\"missing\":"), None);
        assert_eq!(scan_u64(line, b"\"op\":"), None);
        assert!(scan_ok(line));
        assert!(!scan_ok(br#"{"id":1,"ok":false,"error":"overloaded"}"#));
        // A field past the head window is still found.
        let mut long = br#"{"id":1,"rows":[""#.to_vec();
        long.extend(std::iter::repeat_n(b'x', 4 * HEAD));
        long.extend_from_slice(br#""],"ok":true,"epoch":5}"#);
        assert!(scan_ok(&long));
        assert_eq!(scan_u64(&long, EPOCH), Some(5));
    }
}
