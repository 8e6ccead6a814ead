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
//!
//! Two readers share one grammar. The server reads a request line in
//! place with `Request::read`: it keeps the seven fields it serves
//! from, borrowing strings from the line (an escaped one is decoded into
//! a buffer the connection reuses), and builds no tree. [`Json::parse`]
//! builds the [`Json`] tree, for clients ([`crate::client`]) and the
//! benchmark. Both go through the same value dispatch, object loop,
//! string scanner and number rule, differing only in what they make of
//! a value, so they accept the same lines and refuse the rest with the
//! same error.

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
            Json::Num(n) => whole(*n),
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
        parse_all(&mut Tree, text)
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] and
/// the server's request reader accept. The
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

/// `null`, a bool or a number, as the grammar reads it.
enum Scalar {
    Null,
    Bool(bool),
    Num(f64),
}

/// What a parse makes of the values it reads: [`Json`]'s tree, or a
/// request's fields ([`Request::read`]). The grammar — [`parse_value`],
/// the one object loop [`members`], [`items`], [`parse_string`] and
/// [`parse_number`] — is the same for every builder, and so are its
/// errors; a builder decides only what a value becomes.
trait Build<'t> {
    type Value;
    fn scalar(&mut self, s: Scalar) -> Self::Value;
    /// The string whose opening quote is at `*pos`, read with
    /// [`parse_string`].
    fn string(&mut self, text: &'t str, pos: &mut usize) -> Result<Self::Value, String>;
    /// The array whose `[` is at `*pos`, read with [`items`].
    fn array(
        &mut self,
        text: &'t str,
        pos: &mut usize,
        depth: usize,
    ) -> Result<Self::Value, String>;
    /// The object whose `{` is at `*pos`, read with [`members`].
    fn object(
        &mut self,
        text: &'t str,
        pos: &mut usize,
        depth: usize,
    ) -> Result<Self::Value, String>;
}

/// The whole of `text` as one value, whitespace aside.
fn parse_all<'t, B: Build<'t>>(build: &mut B, text: &'t str) -> Result<B::Value, String> {
    let mut pos = 0;
    let value = parse_value(build, text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn parse_value<'t, B: Build<'t>>(
    build: &mut B,
    text: &'t str,
    pos: &mut usize,
    depth: usize,
) -> Result<B::Value, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => build.object(text, pos, depth),
        Some(b'[') => build.array(text, pos, depth),
        Some(b'"') => build.string(text, pos),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(build.scalar(Scalar::Bool(true)))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(build.scalar(Scalar::Bool(false)))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(build.scalar(Scalar::Null))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            parse_number(text, pos).map(|n| build.scalar(Scalar::Num(n)))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

/// The one object loop: reads the object whose `{` is at `*pos`, handing
/// each member's key to `member` with `*pos` before its value, which
/// `member` reads at `depth + 1`. A key with escapes is decoded into a
/// buffer the loop reuses from member to member.
fn members<'t>(
    text: &'t str,
    pos: &mut usize,
    depth: usize,
    member: &mut dyn FnMut(&str, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let b = text.as_bytes();
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    let mut decoded = String::new();
    loop {
        skip_ws(b, pos);
        decoded.clear();
        let key = match b.get(*pos) {
            Some(b'"') => parse_string(text, pos, &mut decoded)?.unwrap_or(decoded.as_str()),
            // Not a string: the value it is, for the error, or its own error.
            _ => {
                let other = parse_value(&mut Tree, text, pos, depth + 1)?;
                return Err(format!("object key must be a string, got {other:?}"));
            }
        };
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        member(key, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// The array loop: reads the array whose `[` is at `*pos`, calling `item`
/// with `*pos` before each element, which `item` reads at `depth + 1`.
fn items(
    text: &str,
    pos: &mut usize,
    item: &mut dyn FnMut(&mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let b = text.as_bytes();
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// The one number rule: the longest run of number bytes from `*pos`, read
/// as an `f64`.
fn parse_number(text: &str, pos: &mut usize) -> Result<f64, String> {
    let b = text.as_bytes();
    let start = *pos;
    *pos += 1;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let digits = &text[start..*pos];
    // `f64` parsing saturates: `1e400` reads as infinity, which no
    // JSON reader accepts back.
    match digits.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        Ok(_) => Err(format!("number {digits:?} out of range")),
        Err(e) => Err(format!("bad number {digits:?}: {e}")),
    }
}

/// [`Json::as_u64`]'s rule: a non-negative whole number.
fn whole(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// The bytes from `from` to the closing quote of the string whose body
/// starts there, escapes skipped — or to the end of `b` when it has none.
/// No escape decodes to more bytes than it takes (`\uXXXX`, six, to at
/// most three), so this bounds the decoded string.
fn quoted_span(b: &[u8], from: usize) -> usize {
    let mut at = from;
    while let Some(run) = b[at..].iter().position(|&c| c == b'"' || c == b'\\') {
        at += run;
        if b[at] == b'"' {
            return at - from;
        }
        at = (at + 2).min(b.len());
    }
    b.len() - from
}

/// The one string scanner: reads the string whose opening quote is at
/// `*pos`. A string without an escape is its span of `text`, borrowed;
/// one with an escape is decoded onto the end of `out`, and the scanner
/// returns `None`.
fn parse_string<'t>(
    text: &'t str,
    pos: &mut usize,
    out: &mut String,
) -> Result<Option<&'t str>, String> {
    let b = text.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut escaped = false;
    loop {
        // Everything up to the next quote or backslash is taken in one
        // piece. Both are ASCII, so neither can sit inside a multi-byte
        // sequence and the run ends on a character boundary.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        let piece = &text[*pos..*pos + run];
        *pos += run + 1;
        if b[*pos - 1] == b'"' && !escaped {
            return Ok(Some(piece));
        }
        if !escaped {
            // An escape: the text is not its span, but no longer than it.
            escaped = true;
            out.reserve(run + quoted_span(b, *pos - 1));
        }
        out.push_str(piece);
        if b[*pos - 1] == b'"' {
            return Ok(None);
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
                // Four hex digits: `from_str_radix` alone also takes a sign.
                if !hex.bytes().all(|c| c.is_ascii_hexdigit()) {
                    return Err(format!("bad \\u escape {hex:?}"));
                }
                let code = u32::from_str_radix(hex, 16).expect("four hex digits");
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

/// Builds [`Json`] values: the tree [`Json::parse`] returns.
struct Tree;

impl<'t> Build<'t> for Tree {
    type Value = Json;

    fn scalar(&mut self, s: Scalar) -> Json {
        match s {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            Scalar::Num(n) => Json::Num(n),
        }
    }

    fn string(&mut self, text: &'t str, pos: &mut usize) -> Result<Json, String> {
        let mut decoded = String::new();
        let borrowed = parse_string(text, pos, &mut decoded)?;
        Ok(Json::Str(borrowed.map_or(decoded, str::to_string)))
    }

    fn array(&mut self, text: &'t str, pos: &mut usize, depth: usize) -> Result<Json, String> {
        let mut values = Vec::new();
        items(text, pos, &mut |pos| {
            values.push(parse_value(self, text, pos, depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(values))
    }

    fn object(&mut self, text: &'t str, pos: &mut usize, depth: usize) -> Result<Json, String> {
        let mut pairs = Vec::new();
        members(text, pos, depth, &mut |key, pos| {
            let value = parse_value(self, text, pos, depth + 1)?;
            pairs.push((key.to_string(), value));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }
}

/// A request's `id`, as its reply echoes it.
#[derive(Debug)]
pub(crate) enum Id<'a> {
    /// Absent, or `null`.
    Null,
    /// A number.
    Num(f64),
    /// A string, decoded.
    Str(&'a str),
    /// A bool, array or object: its text as it stands in the line.
    Other(&'a str),
}

impl Id<'_> {
    /// Appends the id as [`Json`] prints it. An [`Id::Other`] is parsed
    /// again from its text to be printed: no protocol client sends one.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        match *self {
            Id::Null => out.extend_from_slice(b"null"),
            Id::Str(s) => write_str(out, s),
            Id::Num(n) if prints_as_integer(n) => write_i64(out, n as i64),
            Id::Num(n) => out.extend_from_slice(Json::Num(n).to_string().as_bytes()),
            Id::Other(text) => {
                let value = Json::parse(text).expect("the reader accepted the id's text");
                out.extend_from_slice(value.to_string().as_bytes());
            }
        }
    }
}

/// The fields the server reads of a request line, read in place: what
/// [`Json::parse`] then [`Json::get`] with [`Json::as_str`] /
/// [`Json::as_u64`] give for each key, with no tree built. A string
/// without an escape borrows from the line; one with an escape is decoded
/// into the buffer handed to [`Request::read`].
#[derive(Debug)]
pub(crate) struct Request<'a> {
    /// `id`.
    pub id: Id<'a>,
    /// `op`, if it is a string.
    pub op: Option<&'a str>,
    /// `pattern`, if it is a string.
    pub pattern: Option<&'a str>,
    /// `rule`, if it is a string.
    pub rule: Option<&'a str>,
    /// `rows`, if it is a non-negative whole number.
    pub rows: Option<u64>,
    /// `ms`, if it is a non-negative whole number.
    pub ms: Option<u64>,
    /// `budget_ms`, if it is a non-negative whole number.
    pub budget_ms: Option<u64>,
}

/// The keys [`Request`] reads, in the order [`Top`] keeps them.
const FIELDS: [&str; 7] = ["id", "op", "pattern", "rule", "rows", "ms", "budget_ms"];

impl<'a> Request<'a> {
    /// Reads `line` with [`Json::parse`]'s grammar: it accepts what that
    /// accepts, refuses what that refuses with the same error, and keeps
    /// the first of duplicate keys. Any value is a request; one that is
    /// not an object has no fields. Escaped strings are decoded into
    /// `decoded`, which is cleared first: a caller that hands the same
    /// buffer to every line allocates once it has grown.
    pub(crate) fn read(line: &'a str, decoded: &'a mut String) -> Result<Request<'a>, String> {
        decoded.clear();
        let mut top = Top {
            fields: Fields(decoded),
            found: Default::default(),
        };
        parse_all(&mut top, line)?;
        let Top {
            fields: Fields(decoded),
            found,
        } = top;
        let decoded: &'a str = decoded;
        let [id, op, pattern, rule, rows, ms, budget_ms] = found;
        let text = |field: Option<(Field<'a>, &'a str)>| -> Option<&'a str> {
            match field?.0 {
                Field::Line(s) => Some(s),
                Field::Decoded(from, to) => Some(&decoded[from..to]),
                _ => None,
            }
        };
        let number = |field: Option<(Field<'a>, &'a str)>| match field?.0 {
            Field::Num(n) => whole(n),
            _ => None,
        };
        let id = match id {
            None | Some((Field::Null, _)) => Id::Null,
            Some((Field::Num(n), _)) => Id::Num(n),
            Some((Field::Other, span)) => Id::Other(span),
            string => Id::Str(text(string).expect("a string field")),
        };
        Ok(Request {
            id,
            op: text(op),
            pattern: text(pattern),
            rule: text(rule),
            rows: number(rows),
            ms: number(ms),
            budget_ms: number(budget_ms),
        })
    }
}

/// A value as [`Request`] keeps it: a string's place, a number, `null`,
/// or something else.
enum Field<'t> {
    Null,
    Num(f64),
    /// A string without an escape: its span of the line.
    Line(&'t str),
    /// A string with an escape: its bytes `from..to` of the decoded buffer.
    Decoded(usize, usize),
    /// A bool, an array or an object.
    Other,
}

/// Reads any value into a [`Field`], decoding escaped strings onto the
/// end of its buffer.
struct Fields<'b>(&'b mut String);

impl<'t> Build<'t> for Fields<'_> {
    type Value = Field<'t>;

    fn scalar(&mut self, s: Scalar) -> Field<'t> {
        match s {
            Scalar::Null => Field::Null,
            Scalar::Bool(_) => Field::Other,
            Scalar::Num(n) => Field::Num(n),
        }
    }

    fn string(&mut self, text: &'t str, pos: &mut usize) -> Result<Field<'t>, String> {
        let from = self.0.len();
        Ok(match parse_string(text, pos, self.0)? {
            Some(s) => Field::Line(s),
            None => Field::Decoded(from, self.0.len()),
        })
    }

    fn array(&mut self, text: &'t str, pos: &mut usize, depth: usize) -> Result<Field<'t>, String> {
        items(text, pos, &mut |pos| {
            parse_value(self, text, pos, depth + 1).map(drop)
        })?;
        Ok(Field::Other)
    }

    fn object(
        &mut self,
        text: &'t str,
        pos: &mut usize,
        depth: usize,
    ) -> Result<Field<'t>, String> {
        members(text, pos, depth, &mut |_, pos| {
            parse_value(self, text, pos, depth + 1).map(drop)
        })?;
        Ok(Field::Other)
    }
}

/// Reads a request line's top-level value: an object's members go to
/// [`Fields`], and the first of each key in [`FIELDS`] is kept with its
/// span of the line; any other value is read and kept nowhere.
struct Top<'t, 'b> {
    fields: Fields<'b>,
    found: [Option<(Field<'t>, &'t str)>; FIELDS.len()],
}

impl<'t> Build<'t> for Top<'t, '_> {
    type Value = ();

    fn scalar(&mut self, _: Scalar) {}

    fn string(&mut self, text: &'t str, pos: &mut usize) -> Result<(), String> {
        self.fields.string(text, pos).map(drop)
    }

    fn array(&mut self, text: &'t str, pos: &mut usize, depth: usize) -> Result<(), String> {
        self.fields.array(text, pos, depth).map(drop)
    }

    fn object(&mut self, text: &'t str, pos: &mut usize, depth: usize) -> Result<(), String> {
        members(text, pos, depth, &mut |key, pos| {
            let from = *pos;
            let field = parse_value(&mut self.fields, text, pos, depth + 1)?;
            if let Some(at) = FIELDS.iter().position(|&name| name == key) {
                self.found[at].get_or_insert((field, &text[from..*pos]));
            }
            Ok(())
        })
    }
}

/// Whether [`Json::Num`] prints `n` as the integer `n as i64`; it prints
/// any other number as `f64` displays.
fn prints_as_integer(n: f64) -> bool {
    n.fract() == 0.0 && n.abs() < 9.0e15
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if prints_as_integer(*n) {
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

/// Writes `s` as a JSON string literal through `put`.
fn escaped<E>(s: &str, mut put: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    put("\"")?;
    escape_run(s, &mut put)?;
    put("\"")
}

/// Writes `s` escaped, without quotes, through `put`: the runs between
/// escapes go out whole. Everything escaped is ASCII, so a run never ends
/// inside a multi-byte sequence, and escaping is per byte, so a string
/// escaped in pieces comes out as it would whole.
fn escape_run<E>(s: &str, put: &mut impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
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
    put(&s[from..])
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

/// Appends `n` in decimal to `out`, as `{n}` formats it.
pub fn write_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `n` in decimal to `out`, as `{n}` formats it.
pub fn write_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `value`'s display to `out` as a JSON string literal, byte for
/// byte what [`write_str`] writes for `value.to_string()`, with no
/// `String` in between: each piece the formatter hands over is escaped
/// into `out` as it comes. A reply writes a cell straight from its term
/// with it.
pub fn write_display(out: &mut Vec<u8>, value: impl fmt::Display) {
    struct Escaping<'a>(&'a mut Vec<u8>);
    impl fmt::Write for Escaping<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            escape_run(s, &mut |part: &str| {
                self.0.extend_from_slice(part.as_bytes());
                Ok(())
            })
        }
    }
    out.push(b'"');
    // Never `Err`: `Escaping` never fails, and a `Display` impl returns an
    // error only when its writer does (the `std::fmt` contract).
    fmt::write(&mut Escaping(out), format_args!("{value}")).expect("writing to a Vec cannot fail");
    out.push(b'"');
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
        assert!(Json::parse("1e400").is_err());
        assert!(Json::parse(r#"{"id":-1e400}"#).is_err());
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
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u12é4""#,
            r#""\u+12a""#,
            r#""\"#,
            r#""open"#,
        ] {
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
    fn the_decimal_writers_print_what_format_prints() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut cases: Vec<u64> = vec![0, 1, 9, 10, 99, 100, u64::MAX, i64::MAX as u64];
        for _ in 0..512 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Every width, from one digit to twenty.
            cases.push(state >> (state % 64));
        }
        for n in cases {
            let mut out = Vec::new();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
            for i in [n as i64, (n as i64).wrapping_neg(), i64::MIN] {
                out.clear();
                write_i64(&mut out, i);
                assert_eq!(out, i.to_string().as_bytes());
            }
        }
    }

    /// `Json::parse` on `text` returns, and what it accepts prints back
    /// to the same value; and the request reader agrees with it.
    fn parse_is_total_on(text: &str) {
        let parsed = std::panic::catch_unwind(|| Json::parse(text))
            .unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
        if let Ok(v) = parsed {
            assert_eq!(Json::parse(&v.to_string()), Ok(v), "{text:?}");
        }
        reader_agrees_on(text);
    }

    /// What `Request::read` reads of `text`, owned: the id as it prints,
    /// then `op`, `pattern`, `rule`, then `rows`, `ms`, `budget_ms`.
    type Read = (String, [Option<String>; 3], [Option<u64>; 3]);

    fn read_owned(text: &str) -> Result<Read, String> {
        let mut decoded = String::new();
        let req = Request::read(text, &mut decoded)?;
        let mut id = Vec::new();
        req.id.write(&mut id);
        let owned = |s: Option<&str>| s.map(str::to_string);
        Ok((
            String::from_utf8(id).expect("an id prints as UTF-8"),
            [owned(req.op), owned(req.pattern), owned(req.rule)],
            [req.rows, req.ms, req.budget_ms],
        ))
    }

    /// `Request::read` on `text` returns; it accepts what `Json::parse`
    /// accepts and refuses the rest with the same error; and each field
    /// it reads is what `Json::get` gives, the id printing as `Json`
    /// prints it.
    fn reader_agrees_on(text: &str) {
        let read = std::panic::catch_unwind(|| read_owned(text))
            .unwrap_or_else(|_| panic!("the reader panicked on {text:?}"));
        match (Json::parse(text), read) {
            (Err(want), Err(got)) => assert_eq!(got, want, "{text:?}"),
            (Ok(json), Ok(read)) => {
                let string = |key| json.get(key).and_then(Json::as_str).map(str::to_string);
                let number = |key| json.get(key).and_then(Json::as_u64);
                let id = json.get("id").unwrap_or(&Json::Null).to_string();
                let want = (
                    id,
                    [string("op"), string("pattern"), string("rule")],
                    [number("rows"), number("ms"), number("budget_ms")],
                );
                assert_eq!(read, want, "{text:?}");
            }
            (parsed, read) => panic!("parse gave {parsed:?}, the reader {read:?} on {text:?}"),
        }
    }

    #[test]
    fn the_reader_keeps_first_keys_skips_unknown_ones_and_decodes_escaped_ones() {
        let escaped =
            r#"{"\u0069d":"\u00e9","o\u0070":"query_fl","pattern":"\"NCMIR.pa1\"[amount -> A]"}"#;
        let lines = [
            // Duplicate keys: the first wins, whatever its type.
            r#"{"id":1,"op":"ping","op":"stats"}"#,
            r#"{"op":1,"op":"ping","rows":"5","rows":5}"#,
            // Unknown keys, nested values, whitespace.
            " { \"x\" : {\"op\":\"stats\",\"a\":[1,\"\\n\",null]} , \"op\" : \"ping\" , \"y\":true } ",
            // Escaped keys and values.
            escaped,
            // Ids of every kind, numbers of every kind.
            r#"{"id":[1, 2.50, {"k" : null}],"op":"ping"}"#,
            r#"{"id":true,"ms":-1,"budget_ms":1e3,"rows":2.5}"#,
            r#"{"id":-0.5,"rows":3.0,"ms":0}"#,
            r#"{"id":null,"rule":"p(X) :- q(X)."}"#,
            // Not objects, and not JSON.
            "[1]",
            "5",
            r#""x""#,
            "null",
            "not json",
            r#"{"id":1,"op":"ping"} x"#,
            r#"{"op":"ping",[1]:2}"#,
        ];
        for line in lines {
            parse_is_total_on(line);
        }
        let op = |line| read_owned(line).unwrap().1[0].clone();
        assert_eq!(
            op(r#"{"id":1,"op":"ping","op":"stats"}"#).as_deref(),
            Some("ping")
        );
        let (_, [op, ..], [rows, ..]) = read_owned(lines[1]).unwrap();
        assert_eq!((op, rows), (None, None));
        let (id, [op, pattern, _], _) = read_owned(escaped).unwrap();
        assert_eq!(id, "\"é\"");
        assert_eq!(op.as_deref(), Some("query_fl"));
        assert_eq!(pattern.as_deref(), Some("\"NCMIR.pa1\"[amount -> A]"));
        for line in ["[1]", "5", r#""x""#] {
            let (id, [op, ..], _) = read_owned(line).unwrap();
            assert_eq!((id.as_str(), op), ("null", None), "{line}");
        }
        assert_eq!(
            read_owned("not json"),
            Err("unexpected byte 110 at 0".into())
        );
        assert_eq!(
            read_owned(r#"{"op":"ping",[1]:2}"#),
            Err("object key must be a string, got Arr([Num(1.0)])".into())
        );
    }

    /// Every request line the client sends, framed as `Conn::send`
    /// frames it, plus the `publish` and `stats` ops.
    fn client_request_lines() -> Vec<String> {
        let mut requests: Vec<Json> = (0..5)
            .map(|i| crate::client::workload_request(i, 0))
            .collect();
        requests.push(crate::client::workload_request(2, 250));
        requests.push(obj([("op", Json::str("publish")), ("rows", Json::int(5))]));
        requests.push(obj([("op", Json::str("stats"))]));
        requests
            .into_iter()
            .zip(1u64..)
            .map(|(fields, id)| {
                let mut pairs = vec![("id".to_string(), Json::int(id))];
                if let Json::Obj(rest) = fields {
                    pairs.extend(rest);
                }
                Json::Obj(pairs).to_string()
            })
            .collect()
    }

    #[test]
    fn parse_never_panics_on_random_or_mutated_input() {
        // 512 seeded byte strings, half their bytes drawn from JSON's own
        // punctuation so the parser gets past the first byte.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let tokens = b"{}[],:\"\\-+.0123456789eEtrufalsn u";
        for _ in 0..512 {
            let len = (next() % 48) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match next() % 2 {
                    0 => tokens[(next() % tokens.len() as u64) as usize],
                    _ => next() as u8,
                })
                .collect();
            parse_is_total_on(&String::from_utf8_lossy(&bytes));
        }
        // Every one-byte substitution, deletion and truncation of the
        // lines a client sends.
        let lines = client_request_lines();
        assert_eq!(lines.len(), 8);
        for line in &lines {
            assert!(Json::parse(line).is_ok(), "{line}");
            let b = line.as_bytes();
            for i in 0..b.len() {
                parse_is_total_on(&String::from_utf8_lossy(&b[..i]));
                let deleted = [&b[..i], &b[i + 1..]].concat();
                parse_is_total_on(&String::from_utf8_lossy(&deleted));
                let mut mutated = b.to_vec();
                for byte in 0..=255u8 {
                    mutated[i] = byte;
                    parse_is_total_on(&String::from_utf8_lossy(&mutated));
                }
            }
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
