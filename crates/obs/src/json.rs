//! A small, dependency-free JSON value type with a *deterministic*
//! emitter and a recursive-descent parser.
//!
//! Determinism contract (the manifest/report machinery relies on it):
//!
//! * objects keep insertion order — builders insert keys in a fixed
//!   order, so re-emitting a built value is byte-stable;
//! * `u64` counters are emitted exactly (never through `f64`);
//! * floats use Rust's shortest-roundtrip `Display`, which is a pure
//!   function of the bit pattern, so identical results emit identical
//!   bytes on every host.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (emitted exactly).
    U64(u64),
    /// A signed integer (emitted exactly).
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Obj(pairs) = self else { panic!("Json::set on a non-object") };
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_owned(), value)),
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes `key` from an object and returns its value, so a caller
    /// that drops the rest of a document keeps a subtree without copying
    /// it.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => {
                let i = pairs.iter().position(|(k, _)| k == key)?;
                Some(pairs.remove(i).1)
            }
            _ => None,
        }
    }

    /// Follows a dotted path (`"sim.il1.miss"`) through nested objects.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for part in path.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// The value as an unsigned integer, accepting any numeric variant
    /// with an exact unsigned representation.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as a float (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialises without any whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_num(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
            // `Display` prints integral floats without a decimal point;
            // keep them a JSON *number* but mark the type so a
            // round-trip stays float-typed where it matters not at all
            // (numbers compare through as_f64). No suffix needed.
        } else {
            // JSON has no Inf/NaN; emit null (and never produce these
            // from counters).
            out.push_str("null");
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

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => Json::write_num(out, *v),
            Json::Str(s) => Json::write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    Json::write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            other => other.write(out, 0),
        }
    }
}

/// A JSON parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing garbage.
///
/// # Example
///
/// ```
/// use vcfr_obs::{parse_json, Json};
/// let v = parse_json(r#"{"a": [1, 2.5, "x"]}"#).unwrap();
/// assert_eq!(v.get_path("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
/// ```
pub fn parse_json(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: src.as_bytes(), at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.at, msg: msg.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // artefacts; reject them rather than decode
                            // wrongly.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            s.push(c);
                            self.at += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash at once. Both are ASCII, so the run ends
                    // on a char boundary of the `&str` input, and each
                    // byte is validated once: parsing stays linear in
                    // the document, however long the string.
                    let rest = &self.bytes[self.at..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    s.push_str(run);
                    self.at += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("digits are ascii");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError { at: start, msg: format!("bad number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty_and_compact() {
        let mut v = Json::obj();
        v.set("b", Json::U64(2));
        v.set("a", Json::Arr(vec![Json::F64(1.5), Json::Str("x\"y".into()), Json::Null]));
        v.set("neg", Json::I64(-3));
        v.set("flag", Json::Bool(true));
        for text in [v.pretty(), v.compact()] {
            assert_eq!(parse_json(&text).unwrap(), v);
        }
    }

    #[test]
    fn emission_is_deterministic_and_order_preserving() {
        let mut v = Json::obj();
        v.set("z", Json::U64(1));
        v.set("a", Json::U64(2));
        let once = v.pretty();
        assert_eq!(once, v.pretty());
        assert!(once.find("\"z\"").unwrap() < once.find("\"a\"").unwrap());
    }

    #[test]
    fn set_replaces_in_place() {
        let mut v = Json::obj();
        v.set("k", Json::U64(1));
        v.set("k", Json::U64(2));
        assert_eq!(v, {
            let mut w = Json::obj();
            w.set("k", Json::U64(2));
            w
        });
    }

    #[test]
    fn take_moves_a_value_out() {
        let mut v = parse_json(r#"{"a": 1, "b": {"c": [2]}, "d": 3}"#).unwrap();
        assert_eq!(v.take("b"), parse_json(r#"{"c": [2]}"#).ok());
        assert_eq!(v.take("b"), None);
        assert_eq!(v.compact(), r#"{"a":1,"d":3}"#, "the other keys keep their order");
        assert_eq!(Json::U64(1).take("a"), None);
    }

    #[test]
    fn u64_counters_are_exact() {
        let big = u64::MAX - 1;
        let text = Json::U64(big).compact();
        assert_eq!(parse_json(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn paths_navigate_nested_objects() {
        let v = parse_json(r#"{"sim": {"il1": {"miss": 7}}}"#).unwrap();
        assert_eq!(v.get_path("sim.il1.miss").unwrap().as_u64(), Some(7));
        assert!(v.get_path("sim.nope").is_none());
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_json("{\"a\": }").unwrap_err();
        assert_eq!(e.at, 6);
        assert!(parse_json("[1, 2] junk").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn strings_round_trip_byte_for_byte() {
        // Escapes, control characters (emitted as `\u00XX`), and 2-, 3-
        // and 4-byte UTF-8 next to each other and at both ends.
        let mixed = "\"é\\a\"b\n\r\tc\u{1}€\u{1f}𝄞\\\\x\u{7f}日本\"";
        for s in ["", "\\", "\"", "é", mixed] {
            let text = Json::Str(s.to_string()).compact();
            let back = parse_json(&text).unwrap();
            assert_eq!(back.as_str().unwrap().as_bytes(), s.as_bytes());
            assert_eq!(back.compact(), text);
        }
        // Escapes the emitter never writes still decode.
        let v = parse_json(r#""a\/b\u00e9é\u20ac€\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("a/béé€€\u{8}\u{c}"));
        for bad in [r#""abc"#, r#""a\q""#, r#""\u12""#, r#""\ud834""#] {
            assert!(parse_json(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn float_display_roundtrips() {
        for v in [0.1, 1.0 / 3.0, 1e-9, 123456.789] {
            let text = Json::F64(v).compact();
            assert_eq!(parse_json(&text).unwrap().as_f64(), Some(v));
        }
    }
}
