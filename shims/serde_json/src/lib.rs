//! Offline stand-in for `serde_json`.
//!
//! The JSON text sink and source of the `serde` shim's streaming data
//! model: `to_string` / `to_string_pretty` write any `T: Serialize`
//! straight to text, and `from_str` pulls any `T: Deserialize` straight
//! out of text, with no [`Value`] tree in between. [`parse_value`] and
//! [`json!`] serve callers that want the tree. Output is deterministic:
//! object keys keep insertion (declaration) order and floats use Rust's
//! shortest round-trip formatting — the experiment engine's
//! content-addressed cache relies on this stability.

pub use serde::Value;
use serde::{DeError, Deserialize, Kind, Number, Serialize, Sink, Source};

/// Serialization/parsing error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

/// Deepest array/object nesting the parser accepts. Parsing recurses once
/// per level, so the cap keeps hostile input (a line of `[`s) from
/// overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    text(value, false)
}

/// Serialize to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    text(value, true)
}

/// Serialize compact JSON into `writer` (for a `&mut Vec<u8>`, appended
/// in place).
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    writer: W,
    value: &T,
) -> Result<(), Error> {
    write(writer, value, false)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = Reader {
        input: s,
        pos: 0,
        depth: 0,
        first: false,
        scratch: String::new(),
    };
    let value = T::deserialize(&mut reader)?;
    reader.skip_ws();
    if reader.pos != reader.input.len() {
        return Err(Error(format!("trailing characters at byte {}", reader.pos)));
    }
    Ok(value)
}

/// Parse a complete JSON document into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    from_str(s)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn text<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<String, Error> {
    let mut out = Vec::new();
    write(&mut out, value, pretty)?;
    Ok(String::from_utf8(out).expect("the writer emits only UTF-8"))
}

fn write<W: std::io::Write, T: Serialize + ?Sized>(
    out: W,
    value: &T,
    pretty: bool,
) -> Result<(), Error> {
    let mut w = Writer {
        out,
        error: None,
        pretty,
        depth: 0,
        has_members: false,
    };
    value.serialize(&mut w);
    match w.error {
        Some(e) => Err(Error(format!("writing JSON: {e}"))),
        None => Ok(()),
    }
}

/// Writes JSON text: bytes of `str`s and ASCII punctuation, digits and
/// escapes, so the output is UTF-8 by construction.
struct Writer<W> {
    out: W,
    /// The first write error; later writes are dropped.
    error: Option<std::io::Error>,
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container already has a member.
    has_members: bool,
}

impl<W: std::io::Write> Writer<W> {
    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }

    /// Separator and indentation before the next member.
    fn member(&mut self) {
        if self.has_members {
            self.put(b",");
        }
        self.has_members = true;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.put(b"\n");
            for _ in 0..self.depth {
                self.put(b"  ");
            }
        }
    }

    fn open(&mut self, bracket: &[u8]) {
        self.put(bracket);
        self.depth += 1;
        self.has_members = false;
    }

    fn close(&mut self, bracket: &[u8]) {
        self.depth -= 1;
        if self.has_members {
            self.newline();
        }
        self.put(bracket);
        // The container just closed is a member of its parent.
        self.has_members = true;
    }

    fn write_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + n as u8;
        }
        self.put(&digits[at..]);
    }

    fn escaped(&mut self, s: &str) {
        self.put(b"\"");
        let bytes = s.as_bytes();
        let mut start = 0;
        // Branch-free scan first: almost no string needs escaping.
        let plain = !bytes.iter().fold(false, |any, &b| {
            any | (b < 0x20) | (b == b'"') | (b == b'\\')
        });
        if !plain {
            let mut unicode = *b"\\u0000";
            for (i, &b) in bytes.iter().enumerate() {
                let escape: &[u8] = match b {
                    b'"' => b"\\\"",
                    b'\\' => b"\\\\",
                    b'\n' => b"\\n",
                    b'\r' => b"\\r",
                    b'\t' => b"\\t",
                    0..=0x1f => {
                        unicode[4] = HEX[usize::from(b >> 4)];
                        unicode[5] = HEX[usize::from(b & 0xf)];
                        &unicode
                    }
                    _ => continue,
                };
                self.put(&bytes[start..i]);
                self.put(escape);
                start = i + 1;
            }
        }
        self.put(&bytes[start..]);
        self.put(b"\"");
    }
}

impl<W: std::io::Write> Sink for Writer<W> {
    fn null(&mut self) {
        self.put(b"null");
    }
    fn bool(&mut self, v: bool) {
        self.put(if v { b"true" } else { b"false" });
    }
    fn u64(&mut self, v: u64) {
        self.write_u64(v);
    }
    fn i64(&mut self, v: i64) {
        if v < 0 {
            self.put(b"-");
        }
        self.write_u64(v.unsigned_abs());
    }
    fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            self.put(b"null"); // serde_json also emits null for NaN/inf
        } else if f == f.trunc() && f.abs() < 1e15 {
            // Keep a trailing ".0" so floats stay floats on re-parse. Below
            // 1e15 the integer part is exact, so this spells `{f:.1}`.
            if f.is_sign_negative() {
                self.put(b"-");
            }
            self.write_u64(f.abs() as u64);
            self.put(b".0");
        } else if self.error.is_none() {
            if let Err(e) = write!(self.out, "{f}") {
                self.error = Some(e);
            }
        }
    }
    fn str(&mut self, v: &str) {
        self.escaped(v);
    }
    fn begin_array(&mut self) {
        self.open(b"[");
    }
    fn elem(&mut self) {
        self.member();
    }
    fn end_array(&mut self) {
        self.close(b"]");
    }
    fn begin_object(&mut self) {
        self.open(b"{");
    }
    fn key(&mut self, k: &str) {
        self.member();
        self.escaped(k);
        self.put(if self.pretty { b": " } else { b":" });
    }
    fn end_object(&mut self) {
        self.close(b"}");
    }
}

/// `"00"`, `"01"`, ..., `"99"`: two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

const HEX: &[u8; 16] = b"0123456789abcdef";

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Pull parser over one JSON document.
struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Open arrays and objects.
    depth: usize,
    /// Whether the innermost open container has yielded no member yet.
    first: bool,
    /// Decoded text of the last string that held escapes.
    scratch: String,
}

impl<'a> Reader<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes().len()
            && matches!(self.bytes()[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    /// The next non-blank byte, not consumed.
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    #[cold]
    fn unexpected(&self, want: &str) -> DeError {
        match self.bytes().get(self.pos) {
            Some(&c) => DeError(format!(
                "expected {want} at byte {}, found {:?}",
                self.pos, c as char
            )),
            None => DeError(format!(
                "expected {want} at byte {}, found the end",
                self.pos
            )),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.next_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), DeError> {
        self.skip_ws();
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.unexpected(lit))
        }
    }

    fn open(&mut self, bracket: u8) -> Result<(), DeError> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(DeError(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            )));
        }
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Whether the open container has another member: consumes the `,`
    /// before it, or the closing bracket after the last one.
    fn next_member(&mut self, close: u8) -> Result<bool, DeError> {
        let first = std::mem::replace(&mut self.first, false);
        match self.next_byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => Err(self.unexpected(&format!("`,` or `{}`", close as char))),
        }
    }

    /// Read the body of a string whose opening quote is consumed; see
    /// [`Reader::text`] for its contents.
    fn string_body(&mut self) -> Result<Text, DeError> {
        let start = self.pos;
        let mut at = start;
        let mut escaped = false;
        loop {
            let run = self.bytes()[at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| DeError("unterminated string".into()))?;
            if escaped {
                self.scratch.push_str(&self.input[at..at + run]);
            }
            at += run;
            if self.bytes()[at] == b'"' {
                self.pos = at + 1;
                return Ok(if escaped {
                    Text::Scratch
                } else {
                    Text::Input(start, at)
                });
            }
            if !escaped {
                escaped = true;
                self.scratch.clear();
                self.scratch.push_str(&self.input[start..at]);
            }
            let escape = *self
                .bytes()
                .get(at + 1)
                .ok_or_else(|| DeError("unterminated escape".into()))?;
            at += 2;
            let c = match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self
                        .input
                        .get(at..at + 4)
                        .ok_or_else(|| DeError("truncated \\u escape".into()))?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| DeError(e.to_string()))?;
                    at += 4;
                    char::from_u32(code)
                        .ok_or_else(|| DeError(format!("bad codepoint {code:#x}")))?
                }
                other => return Err(DeError(format!("bad escape \\{}", other as char))),
            };
            self.scratch.push(c);
        }
    }

    /// The contents of a string [`Reader::string_body`] read. Its bounds
    /// sit next to ASCII quotes and escapes, so they are char boundaries.
    fn text(&self, t: Text) -> &str {
        match t {
            Text::Input(start, end) => &self.input[start..end],
            Text::Scratch => &self.scratch,
        }
    }
}

/// Where the contents of the last string read live.
#[derive(Clone, Copy)]
enum Text {
    /// Unescaped: a byte range of the input.
    Input(usize, usize),
    /// Decoded into the reader's scratch buffer.
    Scratch,
}

impl Source for Reader<'_> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        match self.next_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            _ => Err(self.unexpected("a value")),
        }
    }

    fn null(&mut self) -> Result<(), DeError> {
        self.literal("null")
    }

    fn bool(&mut self) -> Result<bool, DeError> {
        match self.next_byte() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.unexpected("a boolean")),
        }
    }

    fn number(&mut self) -> Result<Number, DeError> {
        match self.next_byte() {
            Some(c) if c == b'-' || c.is_ascii_digit() => {}
            _ => return Err(self.unexpected("a number")),
        }
        let start = self.pos;
        let negative = self.bytes()[self.pos] == b'-';
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        // The digits' value, accumulated while scanning; `None` past u64.
        let mut digits = Some(0u64);
        while let Some(&c) = self.bytes().get(self.pos) {
            match c {
                b'0'..=b'9' => {
                    digits = digits
                        .and_then(|n| n.checked_mul(10))
                        .and_then(|n| n.checked_add(u64::from(c - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Digits alone are u64 when they fit, else i64, else (like
        // anything with a fraction or an exponent) f64.
        if let (false, false, Some(n)) = (is_float, negative, digits) {
            return Ok(Number::UInt(n));
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Number::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|e| DeError(format!("bad number {text:?}: {e}")))
    }

    fn str(&mut self) -> Result<&str, DeError> {
        self.expect(b'"')?;
        let text = self.string_body()?;
        Ok(self.text(text))
    }

    fn begin_array(&mut self) -> Result<(), DeError> {
        self.open(b'[')
    }

    fn next_elem(&mut self) -> Result<bool, DeError> {
        self.next_member(b']')
    }

    fn begin_object(&mut self) -> Result<(), DeError> {
        self.open(b'{')
    }

    fn next_key(&mut self) -> Result<Option<&str>, DeError> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        self.expect(b'"')?;
        let key = self.string_body()?;
        self.expect(b':')?;
        Ok(Some(self.text(key)))
    }

    fn skip(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.str().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_elem()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }
}

/// Build a [`Value`] from JSON-ish literal syntax.
///
/// Supports objects with literal keys, arrays, `null`, and arbitrary
/// `Serialize` expressions in value position — the subset this workspace
/// uses.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[test]
    fn roundtrip_scalars_and_structures() {
        let v = parse_value(
            r#"{"a": [1, -2, 3.5, "x\n", true, null], "b": {"c": 18446744073709551615}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap(),
            &Value::UInt(u64::MAX)
        );
        let text = to_string(&v).unwrap();
        let back = parse_value(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn numbers_classify_by_spelling_and_range() {
        for (text, want) in [
            ("007", Value::UInt(7)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("-0", Value::Int(0)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("-9223372036854775809", Value::Float(-9223372036854775809.0)),
            ("1.0", Value::Float(1.0)),
            ("2e3", Value::Float(2000.0)),
        ] {
            assert_eq!(parse_value(text).unwrap(), want, "{text}");
        }
        for bad in ["-", "1-2", "1e", "--1"] {
            assert!(parse_value(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn floats_keep_precision() {
        let x = 0.1234567890123456f64;
        let text = to_string(&x).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(x, back);
    }

    /// A megabyte of `[` is refused with an error at the depth cap, not
    /// by overflowing the stack; nesting up to the cap still parses.
    #[test]
    fn nesting_is_capped() {
        let deep = "[".repeat(1 << 20);
        let err = parse_value(&deep).unwrap_err();
        assert!(err.0.contains("nesting deeper than 128"), "{err}");
        assert!(from_str::<Vec<u64>>(&deep).is_err());
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_value(&objects).is_err());
    }

    /// A float decodes into an integer type only when it names one of the
    /// type's values exactly: nothing saturates or truncates.
    #[test]
    fn floats_decode_into_integers_only_when_exact_and_in_range() {
        assert!(from_str::<u64>("1e20").is_err());
        assert!(from_str::<i64>("-1e30").is_err());
        assert!(from_str::<u64>("-1.0").is_err());
        assert_eq!(
            from_str::<u64>("18446744073709549568.0").unwrap(),
            18_446_744_073_709_549_568
        );
        assert_eq!(from_str::<i64>("-9223372036854775808.0").unwrap(), i64::MIN);
        macro_rules! check {
            ($($t:ty),*) => {$(
                let t = stringify!($t);
                assert_eq!(from_str::<$t>("7.0").unwrap(), 7, "{t}");
                assert_eq!(from_str::<$t>("7e0").unwrap(), 7, "{t}");
                for bad in ["7.5", "1e20", "-1e30", "1e300", "-1e300"] {
                    assert!(from_str::<$t>(bad).is_err(), "{t} accepted {bad}");
                }
                // MAX is exact in f64 below 2^53; above, it rounds up to
                // the power of two just past the range.
                let max = <$t>::MAX as f64;
                assert_eq!(from_str::<$t>(&format!("{max:e}")).is_ok(), max < 9.007_199_254_740_992e15, "{t}");
                assert!(from_str::<$t>(&format!("{:e}", max * 2.0)).is_err(), "{t}");
                assert_eq!(<$t>::from_value(&Value::Float(-0.0)).unwrap(), 0, "{t}");
            )*};
        }
        check!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Point {
        x: u32,
        label: String,
        #[serde(default)]
        tags: Vec<String>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Empty,
        Dot(Point),
        Pair(u8, i8),
        Box { w: f64, h: Option<f64> },
    }

    /// Field matching: the first occurrence of a key wins, unknown keys
    /// (of any shape) are skipped, order does not matter, a missing field
    /// is an error unless it is `#[serde(default)]`.
    #[test]
    fn derived_decoders_match_fields_in_one_pass() {
        let p: Point =
            from_str(r#"{"label":"a","junk":{"deep":[1,{"x":9}]},"x":3,"x":4,"label":7}"#).unwrap();
        assert_eq!(
            p,
            Point {
                x: 3,
                label: "a".into(),
                tags: vec![]
            }
        );
        let err = from_str::<Point>(r#"{"x":3}"#).unwrap_err();
        assert!(err.0.contains("missing field `label`"), "{err}");
        assert!(from_str::<Point>(r#"{"x":-3,"label":"a"}"#).is_err());
        assert!(from_str::<Point>(r#"{"x":3,"label":"a"} x"#).is_err());
        assert!(from_str::<Point>(r#"{"x":3,"label":"a",}"#).is_err());
    }

    /// Typed values and `Value` trees are two sinks and sources of the
    /// same derived code: both agree on the text.
    #[test]
    fn typed_and_tree_paths_agree() {
        let shapes = vec![
            Shape::Empty,
            Shape::Dot(Point {
                x: 1,
                label: "q\"uote\\ \u{1f}é".into(),
                tags: vec!["t".into()],
            }),
            Shape::Pair(255, -128),
            Shape::Box { w: 0.5, h: None },
            Shape::Box {
                w: -0.0,
                h: Some(1e21),
            },
        ];
        let text = to_string(&shapes).unwrap();
        assert_eq!(
            text,
            r#"["Empty",{"Dot":{"x":1,"label":"q\"uote\\ \u001fé","tags":["t"]}},{"Pair":[255,-128]},{"Box":{"w":0.5,"h":null}},{"Box":{"w":-0.0,"h":1000000000000000000000}}]"#
        );
        let tree = to_value(&shapes);
        assert_eq!(to_string(&tree).unwrap(), text);
        assert_eq!(parse_value(&text).unwrap(), tree);
        assert_eq!(from_str::<Vec<Shape>>(&text).unwrap(), shapes);
        assert_eq!(Vec::<Shape>::from_value(&tree).unwrap(), shapes);
        for bad in [
            r#""Nope""#,
            r#"{"Dot":{"x":1,"label":""},"Empty":null}"#,
            r#"{"Pair":[1]}"#,
            "{}",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pretty_output_indents_two_spaces() {
        let v = json!({ "a": vec![1u64, 2], "b": Value::Object(vec![]), "c": Vec::<u8>::new() });
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({ "name": "x", "n": 3u64, "nested": vec![1u64, 2] });
        assert_eq!(v.get("n").unwrap(), &Value::UInt(3));
        assert_eq!(v.get("nested").unwrap().as_array().unwrap().len(), 2);
    }
}
