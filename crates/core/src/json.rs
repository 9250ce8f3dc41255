//! A minimal JSON value, one streaming reader, and one writer.
//!
//! This started life as the write-only serializer behind the bench
//! artifacts (`results/BENCH_*.json`). The service layer (`gp-service`)
//! decodes requests too, so both halves live here as one audited
//! implementation. `gp-bench` re-exports [`Json`], so `gp_bench::Json`
//! remains the canonical name in experiment code.
//!
//! - [`Reader`] is the only parser: a pull reader over the bytes of a
//!   `&str`. Typed decoders walk it field by field and build their own
//!   structs without an intermediate tree; [`Json::parse`] is one such
//!   decoder, building the tree.
//! - [`write_str`] and [`write_num`] are the only renderer. [`Json::render`]
//!   uses them, and so does every typed encoder, so a value written
//!   directly is byte-identical to the same value rendered from a tree.
//!
//! The reader is strict where it matters for validation — it rejects
//! trailing garbage, bare control characters in strings, lone surrogate
//! escapes, malformed literals, and nesting deeper than
//! [`MAX_JSON_DEPTH`] — and accepts insignificant whitespace between
//! tokens like any JSON reader must. Its recursion is bounded by that
//! depth limit, so no input can overflow the stack.

use std::borrow::Cow;
use std::fmt;

/// Deepest nesting of arrays and objects a [`Reader`] accepts. A deeper
/// document is a [`JsonParseError`], never unbounded recursion.
///
/// Each expression level of a rewrite request nests two JSON levels (an
/// object holding an array), and the service's own tests send a
/// 160-term left-nested sum (depth 323), so the cap sits above that; at
/// this depth the decoders' recursion stays well inside a 2 MiB thread
/// stack.
pub const MAX_JSON_DEPTH: usize = 512;

/// JSON value: builder, renderer, and parser.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Null literal.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`).
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order preserved).
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON fragment, spliced verbatim (the caller guarantees
    /// it is valid JSON — e.g. `gp_distsim::trace_json` output). Never
    /// produced by [`Json::parse`].
    Raw(String),
}

/// A parse failure: byte position plus what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// 0-based byte offset of the failure in the input.
    pub pos: usize,
    /// Description of the malformed construct.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert a field (builder style, objects only).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object Json"),
        }
        self
    }

    /// Look up a field of an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render, reusing the string of a [`Json::Raw`] instead of copying it.
    pub fn into_rendered(self) -> String {
        match self {
            Json::Raw(s) => s,
            other => other.render(),
        }
    }

    /// Parse a complete JSON document. Strict: the entire input (modulo
    /// surrounding whitespace) must be one value; strings reject bare
    /// control characters and lone-surrogate `\u` escapes; nesting is
    /// capped at [`MAX_JSON_DEPTH`]. Never returns [`Json::Raw`].
    pub fn parse(s: &str) -> Result<Json, JsonParseError> {
        let mut r = Reader::new(s);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Raw(s) => out.push_str(s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write `s` as a JSON string literal: `"` and `\` escaped, `\n` and `\t`
/// by name, every other control character as `\u00XX`, everything else
/// verbatim.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte that needs escaping is ASCII, so `run..i` and the
        // rest of the string stay on character boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Write `x` as a JSON number: integral values below 10^15 without a
/// fraction, other finite values in Rust's shortest round-trip form,
/// and non-finite values as `null`.
pub fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write_int(out, x as i64);
    } else {
        use fmt::Write as _;
        let _ = write!(out, "{x}");
    }
}

/// Decimal digits of `n` (`|n| < 10^15`, so 16 bytes hold them). Going
/// through `fmt` instead made canonical request writing about 7% slower.
fn write_int(out: &mut String, n: i64) {
    let mut buf = [0u8; 16];
    let mut i = buf.len();
    let mut m = n.unsigned_abs();
    loop {
        i -= 1;
        buf[i] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    for &d in &buf[i..] {
        out.push(d as char);
    }
}

fn err(pos: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        pos,
        message: message.into(),
    }
}

/// A pull reader over one JSON document.
///
/// Each method consumes exactly one value (skipping whitespace before
/// it) or fails with the [`JsonParseError`] that [`Json::parse`] reports
/// for the same bytes: the first malformed construct in document order.
/// Typed decoders call [`object`](Reader::object) and
/// [`array`](Reader::array) with a callback per field or item and keep
/// what they need, so a request decodes straight into its struct.
/// Strings without escapes are borrowed from the input.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// The whole input.
    #[inline]
    pub fn src(&self) -> &'a str {
        self.src
    }

    /// Current byte offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Skip insignificant whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next value (after whitespace), if any.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Require that only whitespace remains.
    pub fn finish(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(err(self.pos, "trailing garbage after value"));
        }
        Ok(())
    }

    /// Read one value of any kind and build its tree.
    pub fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, k| {
                    fields.push((k.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r, _| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.str()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Read and discard one value, validating it.
    pub fn skip(&mut self) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()).map(drop),
            Some(b'[') => self.array(|r, _| r.skip()).map(drop),
            Some(b'"') => self.str().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// If the next value is an object, call `field` with each key in
    /// document order (duplicates included); `field` must consume the
    /// key's value. Any other value is skipped. Returns whether the
    /// value was an object.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonParseError>,
    ) -> Result<bool, JsonParseError> {
        if self.peek() != Some(b'{') {
            self.skip()?;
            return Ok(false);
        }
        self.open()?;
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.close();
            return Ok(true);
        }
        loop {
            self.skip_ws();
            let key = self.str()?;
            self.skip_ws();
            if self.byte() != Some(b':') {
                return Err(err(self.pos, format!("expected ':' after key {key:?}")));
            }
            self.pos += 1;
            field(self, key)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(true);
                }
                _ => return Err(err(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    /// If the next value is an array, call `item` with each index; `item`
    /// must consume the element. Any other value is skipped. Returns
    /// whether the value was an array.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), JsonParseError>,
    ) -> Result<bool, JsonParseError> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(false);
        }
        self.open()?;
        self.skip_ws();
        if self.byte() == Some(b']') {
            self.close();
            return Ok(true);
        }
        let mut index = 0;
        loop {
            item(self, index)?;
            index += 1;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close();
                    return Ok(true);
                }
                _ => return Err(err(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    /// The next value if it is a string; any other value is skipped.
    #[inline]
    pub fn opt_str(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        if self.peek() == Some(b'"') {
            return self.str().map(Some);
        }
        self.skip().map(|()| None)
    }

    /// The next value if it is a number; any other value is skipped.
    #[inline]
    pub fn opt_num(&mut self) -> Result<Option<f64>, JsonParseError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value if it is a boolean; any other value is skipped.
    #[inline]
    pub fn opt_bool(&mut self) -> Result<Option<bool>, JsonParseError> {
        match self.peek() {
            Some(b't' | b'f') => Ok(self.scalar()?.as_bool()),
            _ => self.skip().map(|()| None),
        }
    }

    /// Enter an array or object, enforcing [`MAX_JSON_DEPTH`].
    #[inline]
    fn open(&mut self) -> Result<(), JsonParseError> {
        if self.depth >= MAX_JSON_DEPTH {
            return Err(err(
                self.pos,
                format!("nesting deeper than {MAX_JSON_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    #[inline]
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// A literal, a number, or the error for whatever else is here.
    fn scalar(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(_) => {
                let c = self.src[self.pos..].chars().next().expect("not at the end");
                Err(err(self.pos, format!("unexpected character {c:?}")))
            }
            None => Err(err(self.pos, "unexpected end of input")),
        }
    }

    /// A number, which starts at `pos` with `-` or a digit.
    fn number(&mut self) -> Result<f64, JsonParseError> {
        let start = self.pos;
        let mut int = Some(0u64);
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' => {
                    int = int.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')))
                }
                b'-' if self.pos == start => {}
                b'+' | b'-' | b'.' | b'e' | b'E' => int = None,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let digits = text.len() - usize::from(text.starts_with('-'));
        match int {
            // Up to 15 digits is exact in an f64, and so is its negation
            // (`-0` included): the same value `parse` returns, without
            // the general algorithm.
            Some(n) if (1..=15).contains(&digits) => {
                let x = n as f64;
                Ok(if text.starts_with('-') { -x } else { x })
            }
            _ => text
                .parse()
                .map_err(|_| err(start, format!("bad number {text:?}"))),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonParseError> {
        let end = self.pos + word.len();
        if self.src.as_bytes().get(self.pos..end) != Some(word.as_bytes()) {
            return Err(err(self.pos, format!("expected literal {word}")));
        }
        self.pos = end;
        Ok(())
    }

    /// The next value, which must be a string; borrowed from the input
    /// unless it contains escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.expected_string());
        }
        let bytes = self.src.as_bytes();
        let start = self.pos + 1;
        // Fast path: no escape before the closing quote.
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            if b == b'"' {
                self.pos = end + 1;
                return Ok(Cow::Borrowed(&self.src[start..end]));
            }
            if b == b'\\' || b < 0x20 {
                break;
            }
            end += 1;
        }
        self.pos = end;
        self.escaped_str(start).map(Cow::Owned)
    }

    #[cold]
    fn expected_string(&self) -> JsonParseError {
        err(self.pos, "expected string")
    }

    /// The rest of a string from `pos`, where the fast path stopped: an
    /// escape, a control character, or the end of the input.
    #[cold]
    fn escaped_str(&mut self, start: usize) -> Result<String, JsonParseError> {
        let bytes = self.src.as_bytes();
        let mut out = String::from(&self.src[start..self.pos]);
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    self.escape(&mut out)?;
                    self.pos += 1;
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => return Err(self.bare_control(b)),
                Some(_) => self.pos += 1,
                None => return Err(err(self.pos, "unterminated string")),
            }
        }
    }

    fn bare_control(&self, b: u8) -> JsonParseError {
        err(
            self.pos,
            format!("bare control character {:?} in string", b as char),
        )
    }

    /// Decode the escape whose letter is at `pos`, leaving `pos` on its
    /// last byte.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let cp = self.hex4(self.pos + 1)?;
                self.pos += 4;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: a low surrogate escape must follow,
                    // and the pair combines.
                    let bytes = self.src.as_bytes();
                    if bytes.get(self.pos + 1) != Some(&b'\\')
                        || bytes.get(self.pos + 2) != Some(&b'u')
                    {
                        return Err(err(self.pos, "lone high surrogate in \\u escape"));
                    }
                    let lo = self.hex4(self.pos + 3)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(err(self.pos, "invalid low surrogate in \\u escape"));
                    }
                    self.pos += 6;
                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(combined).expect("valid surrogate pair")
                } else {
                    char::from_u32(cp)
                        .ok_or_else(|| err(self.pos, "lone surrogate in \\u escape"))?
                }
            }
            _ => {
                let other = self.src[self.pos..].chars().next();
                return Err(err(self.pos, format!("invalid escape \\{other:?}")));
            }
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&self, at: usize) -> Result<u32, JsonParseError> {
        let Some(hex) = self.src.as_bytes().get(at..at + 4) else {
            return Err(err(at, "truncated \\u escape"));
        };
        let hex = String::from_utf8_lossy(hex);
        u32::from_str_radix(&hex, 16).map_err(|_| err(at, format!("bad \\u escape {hex:?}")))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
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

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_valid_compact_output() {
        let j = Json::obj()
            .field("name", "exp \"quoted\"")
            .field("n", 1_000_000usize)
            .field("ms", 1.5f64)
            .field("ok", true)
            .field("series", Json::Arr(vec![Json::Num(1.0), Json::Null]));
        assert_eq!(
            j.render(),
            r#"{"name":"exp \"quoted\"","n":1000000,"ms":1.5,"ok":true,"series":[1,null]}"#
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_accepts_whitespace_between_tokens() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : null } ").unwrap();
        assert_eq!(
            j,
            Json::Obj(vec![
                ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                ("b".into(), Json::Null),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "truee",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"bare \u{1} control\"",
            "1 2",
            "[1] garbage",
            "\"\\ud800 lone\"",
            "--3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
        // Nesting past the limit is an error, however it is spelled, and
        // the error points at the bracket that went one level too deep.
        let deep = |open: &str, leaf: &str, close: &str, n: usize| {
            open.repeat(n) + leaf + &close.repeat(n)
        };
        for doc in [
            deep("[", "", "]", MAX_JSON_DEPTH + 1),
            deep("{\"a\":", "0", "}", MAX_JSON_DEPTH + 1),
            deep("[{\"k\":", "0", "}]", MAX_JSON_DEPTH / 2 + 1),
            deep("[", "", "]", 100_000),
            "[".repeat(200_000),
        ] {
            let e = Json::parse(&doc).expect_err("nesting past the limit");
            assert!(e.message.contains("nesting deeper than"), "{e}");
        }
        let e = Json::parse(&deep("[", "", "]", MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, MAX_JSON_DEPTH);
        // At the limit itself, documents still parse.
        assert!(Json::parse(&deep("[", "", "]", MAX_JSON_DEPTH)).is_ok());
        assert!(Json::parse(&deep("[{\"k\":", "0", "}]", MAX_JSON_DEPTH / 2)).is_ok());
    }

    #[test]
    fn error_positions_are_byte_offsets() {
        // 'é' is two bytes: the stray comma sits at byte 6, char 5.
        let e = Json::parse("[\"é\",]").unwrap_err();
        assert_eq!(e.pos, 6);
        assert!(e.to_string().starts_with("json parse error at byte 6:"));
    }

    #[test]
    fn reader_decodes_fields_in_document_order_and_borrows_plain_strings() {
        let src = r#" {"a": "plain", "b": "esc\"aped", "a": 2, "n": [1, "x", true]} "#;
        let mut r = Reader::new(src);
        let mut seen = Vec::new();
        let was_obj = r
            .object(|r, k| {
                match &*k {
                    "a" | "b" => {
                        let v = r.opt_str()?;
                        seen.push((k.into_owned(), format!("{v:?}")));
                        if let Some(v) = v {
                            let borrowed = matches!(v, Cow::Borrowed(_));
                            assert_eq!(borrowed, !v.contains('"'), "{v}");
                        }
                    }
                    _ => {
                        let mut items = 0;
                        assert!(r.array(|r, i| {
                            items = i + 1;
                            r.skip()
                        })?);
                        assert_eq!(items, 3);
                    }
                }
                Ok(())
            })
            .unwrap();
        assert!(was_obj);
        r.finish().unwrap();
        assert_eq!(
            seen,
            vec![
                ("a".into(), "Some(\"plain\")".into()),
                ("b".into(), "Some(\"esc\\\"aped\")".into()),
                ("a".into(), "None".into()),
            ]
        );
        // A non-object is skipped (and validated) by `object`.
        let mut r = Reader::new("[1, {\"x\": nul}]");
        assert!(r.object(|_, _| unreachable!()).is_err());
    }

    #[test]
    fn writers_match_the_tree_renderer() {
        for x in [
            0.0,
            -0.0,
            7.0,
            -42.0,
            1.5,
            -2.25,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            9_007_199_254_740_992.0,
            1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ] {
            let mut out = String::new();
            write_num(&mut out, x);
            let want = if !x.is_finite() {
                "null".to_string()
            } else if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{}", x as i64)
            } else {
                format!("{x}")
            };
            assert_eq!(out, want, "number {x}");
        }
        let all: String = (0u32..0x80).filter_map(char::from_u32).collect::<String>() + "é🚀";
        let mut out = String::new();
        write_str(&mut out, &all);
        assert_eq!(Json::parse(&out).unwrap(), Json::Str(all.clone()));
        assert!(out.contains("\\u001f") && out.contains("\\n") && out.contains("\\u000d"));
    }

    #[test]
    fn parse_combines_surrogate_pairs() {
        // U+1F680 (🚀) as the surrogate pair D83D DE80.
        let j = Json::parse("\"\\ud83d\\ude80\"").unwrap();
        assert_eq!(j, Json::Str("\u{1F680}".into()));
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let j = Json::parse(r#"{"kind":"lint","n":3,"ok":true,"rows":[1,2]}"#).unwrap();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("lint"));
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(j.get("missing"), None);
    }
}
