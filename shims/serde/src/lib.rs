//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no network access, so the real serde cannot
//! be fetched. This shim keeps the workspace's `#[derive(Serialize,
//! Deserialize)]` and `T: Serialize` bounds source-compatible with one
//! streaming data model (JSON's):
//!
//! - [`Serialize`] writes a type as a sequence of events into a [`Sink`];
//! - [`Deserialize`] pulls a type back out of a [`Source`];
//! - the derive macros (re-exported from `serde_derive`) generate both for
//!   plain structs and enums, using serde's externally-tagged enum format.
//!
//! The companion `serde_json` shim provides the text sink and source, so
//! typed values go to and from JSON text without an intermediate tree.
//! The self-describing [`Value`] tree is one more sink and source of the
//! same generated code ([`Serialize::to_value`], [`Deserialize::from_value`])
//! for callers that inspect documents dynamically. Only the API surface
//! this workspace uses is provided.

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so `u64::MAX` round-trips).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object: insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Numeric value as f64 (Int/UInt/Float).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(v) => Some(v as f64),
            Value::UInt(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => Kind::Number,
            Value::Str(_) => Kind::Str,
            Value::Array(_) => Kind::Array,
            Value::Object(_) => Kind::Object,
        }
    }
}

/// Error produced when a [`Source`] does not hold the requested type.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error from any message.
    pub fn custom(msg: impl std::fmt::Display) -> DeError {
        DeError(msg.to_string())
    }

    /// A required object field was absent (derive-macro support).
    pub fn missing_field(name: &str) -> DeError {
        DeError(format!("missing field `{name}`"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

// ---------------------------------------------------------------------------
// The streaming data model
// ---------------------------------------------------------------------------

/// Receiver of one value as JSON-model events, in document order.
///
/// Containers bracket their members: [`Sink::elem`] announces each array
/// element and [`Sink::key`] each object member before its value is
/// written.
pub trait Sink {
    /// `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// An unsigned integer.
    fn u64(&mut self, v: u64);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// A floating-point number.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Open an array.
    fn begin_array(&mut self);
    /// The next array element follows.
    fn elem(&mut self);
    /// Close the innermost array.
    fn end_array(&mut self);
    /// Open an object.
    fn begin_object(&mut self);
    /// The member named `k` follows.
    fn key(&mut self, k: &str);
    /// Close the innermost object.
    fn end_object(&mut self);
}

/// The JSON type of the next value a [`Source`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A number as JSON text spells it: digits alone are an integer
/// (unsigned when they fit, else signed), anything with a fraction or an
/// exponent is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Fits `u64`.
    UInt(u64),
    /// Negative and fits `i64`.
    Int(i64),
    /// Fractional, exponent form, or too large for an integer.
    Float(f64),
}

impl Number {
    /// The exact `u64` this number names, if any.
    fn to_u64(self) -> Result<u64, DeError> {
        match self {
            Number::UInt(n) => Ok(n),
            Number::Int(n) => u64::try_from(n).map_err(DeError::custom),
            // 2^64 is the first float past u64::MAX.
            Number::Float(f)
                if (0.0..18_446_744_073_709_551_616.0).contains(&f) && f.fract() == 0.0 =>
            {
                Ok(f as u64)
            }
            Number::Float(f) => Err(DeError(format!("{f} is not an unsigned integer"))),
        }
    }

    /// The exact `i64` this number names, if any.
    fn to_i64(self) -> Result<i64, DeError> {
        match self {
            Number::UInt(n) => i64::try_from(n).map_err(DeError::custom),
            Number::Int(n) => Ok(n),
            // -2^63 is exact in f64; 2^63 is the first float past i64::MAX.
            Number::Float(f)
                if (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&f)
                    && f.fract() == 0.0 =>
            {
                Ok(f as i64)
            }
            Number::Float(f) => Err(DeError(format!("{f} is not an integer"))),
        }
    }

    /// The number as `f64` (integers round to the nearest float).
    fn to_f64(self) -> f64 {
        match self {
            Number::UInt(n) => n as f64,
            Number::Int(n) => n as f64,
            Number::Float(f) => f,
        }
    }
}

/// Supplier of one value, pulled in document order.
///
/// Each read consumes the value it names and fails when the next value is
/// of another kind. Containers are walked with [`Source::next_elem`] and
/// [`Source::next_key`], which also consume the container's end.
pub trait Source {
    /// The kind of the next value, without consuming it.
    fn peek(&mut self) -> Result<Kind, DeError>;
    /// Consume `null`.
    fn null(&mut self) -> Result<(), DeError>;
    /// Consume a boolean.
    fn bool(&mut self) -> Result<bool, DeError>;
    /// Consume a number.
    fn number(&mut self) -> Result<Number, DeError>;
    /// Consume a string.
    fn str(&mut self) -> Result<&str, DeError>;
    /// Open an array.
    fn begin_array(&mut self) -> Result<(), DeError>;
    /// Whether the open array has another element; `false` consumes its
    /// end.
    fn next_elem(&mut self) -> Result<bool, DeError>;
    /// Open an object.
    fn begin_object(&mut self) -> Result<(), DeError>;
    /// The next member's key, or `None` after consuming the object's end.
    fn next_key(&mut self) -> Result<Option<&str>, DeError>;
    /// Consume the next value, whatever it is.
    fn skip(&mut self) -> Result<(), DeError>;

    /// The next member's key as an index into `names` (`names.len()` for
    /// a key not in it), or `None` at the object's end. `hint` is the
    /// index expected when members arrive in declaration order, so the
    /// usual case costs one comparison (derive-macro support).
    fn field(&mut self, names: &[&str], hint: usize) -> Result<Option<usize>, DeError> {
        let Some(key) = self.next_key()? else {
            return Ok(None);
        };
        if names.get(hint) == Some(&key) {
            return Ok(Some(hint));
        }
        Ok(Some(
            names.iter().position(|n| *n == key).unwrap_or(names.len()),
        ))
    }
}

/// Write `self` into a [`Sink`].
pub trait Serialize {
    /// Emit this value's events.
    fn serialize<S: Sink>(&self, sink: &mut S);

    /// Render this value as a [`Value`] tree.
    fn to_value(&self) -> Value {
        let mut sink = ValueSink::default();
        self.serialize(&mut sink);
        sink.out.unwrap_or(Value::Null)
    }
}

/// Read `Self` out of a [`Source`].
pub trait Deserialize: Sized {
    /// Consume one value; errors describe the first mismatch found.
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError>;

    /// Rebuild `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::deserialize(&mut ValueSource {
            next: Some(v),
            open: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Value as sink and source
// ---------------------------------------------------------------------------

/// Builds a [`Value`] tree from events.
#[derive(Default)]
struct ValueSink {
    open: Vec<OpenContainer>,
    out: Option<Value>,
}

enum OpenContainer {
    Array(Vec<Value>),
    /// Members so far and the key of the member being written.
    Object(Vec<(String, Value)>, String),
}

impl ValueSink {
    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.out = Some(v),
            Some(OpenContainer::Array(items)) => items.push(v),
            Some(OpenContainer::Object(pairs, key)) => pairs.push((std::mem::take(key), v)),
        }
    }
}

impl Sink for ValueSink {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }
    fn u64(&mut self, v: u64) {
        self.put(Value::UInt(v));
    }
    fn i64(&mut self, v: i64) {
        self.put(Value::Int(v));
    }
    fn f64(&mut self, v: f64) {
        self.put(Value::Float(v));
    }
    fn str(&mut self, v: &str) {
        self.put(Value::Str(v.to_string()));
    }
    fn begin_array(&mut self) {
        self.open.push(OpenContainer::Array(Vec::new()));
    }
    fn elem(&mut self) {}
    fn end_array(&mut self) {
        if let Some(OpenContainer::Array(items)) = self.open.pop() {
            self.put(Value::Array(items));
        }
    }
    fn begin_object(&mut self) {
        self.open
            .push(OpenContainer::Object(Vec::new(), String::new()));
    }
    fn key(&mut self, k: &str) {
        if let Some(OpenContainer::Object(_, key)) = self.open.last_mut() {
            *key = k.to_string();
        }
    }
    fn end_object(&mut self) {
        if let Some(OpenContainer::Object(pairs, _)) = self.open.pop() {
            self.put(Value::Object(pairs));
        }
    }
}

/// Walks a [`Value`] tree as a [`Source`].
struct ValueSource<'a> {
    /// The value the next read consumes.
    next: Option<&'a Value>,
    open: Vec<OpenIter<'a>>,
}

enum OpenIter<'a> {
    Array(std::slice::Iter<'a, Value>),
    Object(std::slice::Iter<'a, (String, Value)>),
}

impl<'a> ValueSource<'a> {
    fn take(&mut self, want: &str) -> Result<&'a Value, DeError> {
        self.next
            .take()
            .ok_or_else(|| DeError(format!("expected {want}, found nothing")))
    }
}

fn mismatch(want: &str, got: &Value) -> DeError {
    DeError(format!("expected {want}, got {got:?}"))
}

impl Source for ValueSource<'_> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        self.next
            .map(Value::kind)
            .ok_or_else(|| DeError("expected a value, found nothing".into()))
    }
    fn null(&mut self) -> Result<(), DeError> {
        match self.take("null")? {
            Value::Null => Ok(()),
            v => Err(mismatch("null", v)),
        }
    }
    fn bool(&mut self) -> Result<bool, DeError> {
        match self.take("bool")? {
            Value::Bool(b) => Ok(*b),
            v => Err(mismatch("bool", v)),
        }
    }
    fn number(&mut self) -> Result<Number, DeError> {
        match *self.take("number")? {
            Value::UInt(n) => Ok(Number::UInt(n)),
            Value::Int(n) => Ok(Number::Int(n)),
            Value::Float(f) => Ok(Number::Float(f)),
            ref v => Err(mismatch("number", v)),
        }
    }
    fn str(&mut self) -> Result<&str, DeError> {
        match self.take("string")? {
            Value::Str(s) => Ok(s),
            v => Err(mismatch("string", v)),
        }
    }
    fn begin_array(&mut self) -> Result<(), DeError> {
        match self.take("array")? {
            Value::Array(items) => {
                self.open.push(OpenIter::Array(items.iter()));
                Ok(())
            }
            v => Err(mismatch("array", v)),
        }
    }
    fn next_elem(&mut self) -> Result<bool, DeError> {
        let Some(OpenIter::Array(items)) = self.open.last_mut() else {
            return Err(DeError("no open array".into()));
        };
        self.next = items.next();
        if self.next.is_none() {
            self.open.pop();
        }
        Ok(self.next.is_some())
    }
    fn begin_object(&mut self) -> Result<(), DeError> {
        match self.take("object")? {
            Value::Object(pairs) => {
                self.open.push(OpenIter::Object(pairs.iter()));
                Ok(())
            }
            v => Err(mismatch("object", v)),
        }
    }
    fn next_key(&mut self) -> Result<Option<&str>, DeError> {
        let Some(OpenIter::Object(pairs)) = self.open.last_mut() else {
            return Err(DeError("no open object".into()));
        };
        match pairs.next() {
            Some((k, v)) => {
                self.next = Some(v);
                Ok(Some(k))
            }
            None => {
                self.open.pop();
                Ok(None)
            }
        }
    }
    fn skip(&mut self) -> Result<(), DeError> {
        self.take("a value").map(drop)
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_int {
    ($($t:ty => $write:ident($wide:ty), $read:ident),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.$write(*self as $wide)
            }
        }
        impl Deserialize for $t {
            fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
                <$t>::try_from(src.number()?.$read()?).map_err(DeError::custom)
            }
        }
    )*};
}

ser_de_int!(
    u8 => u64(u64), to_u64, u16 => u64(u64), to_u64, u32 => u64(u64), to_u64,
    u64 => u64(u64), to_u64, usize => u64(u64), to_u64,
    i8 => i64(i64), to_i64, i16 => i64(i64), to_i64, i32 => i64(i64), to_i64,
    i64 => i64(i64), to_i64, isize => i64(i64), to_i64
);

impl Serialize for f64 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        Ok(src.number()?.to_f64())
    }
}

impl Serialize for f32 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        Ok(src.number()?.to_f64() as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        src.bool()
    }
}

impl Serialize for String {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Deserialize for String {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        src.str().map(str::to_string)
    }
}

impl Serialize for str {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Serialize for char {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Some(v) => v.serialize(sink),
            None => sink.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        if src.peek()? == Kind::Null {
            src.null()?;
            return Ok(None);
        }
        T::deserialize(src).map(Some)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_array();
        for item in self {
            sink.elem();
            item.serialize(sink);
        }
        sink.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        self.as_slice().serialize(sink)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        src.begin_array()?;
        let mut items = Vec::new();
        while src.next_elem()? {
            items.push(T::deserialize(src)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        self.as_slice().serialize(sink)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        src.begin_array()?;
        let mut items = Vec::with_capacity(N);
        while src.next_elem()? {
            items.push(T::deserialize(src)?);
        }
        let n = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of {N} elements, got {n}")))
    }
}

macro_rules! ser_de_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.begin_array();
                $(sink.elem(); self.$idx.serialize(sink);)+
                sink.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
                let want = [$($idx,)+].len();
                src.begin_array()?;
                let value = ($({
                    if !src.next_elem()? {
                        return Err(DeError(format!("expected tuple of {want}, got {}", $idx)));
                    }
                    $t::deserialize(src)?
                },)+);
                if src.next_elem()? {
                    return Err(DeError(format!("expected tuple of {want}, got more")));
                }
                Ok(value)
            }
        }
    )*};
}

ser_de_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// A serialized map key must render as a string (JSON object keys).
fn key_string<K: Serialize>(key: &K) -> String {
    match key.to_value() {
        Value::Str(s) => s,
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("map key must serialize to a string-like value, got {other:?}"),
    }
}

fn serialize_map<'a, S: Sink, V: Serialize + 'a>(
    sink: &mut S,
    pairs: impl IntoIterator<Item = (String, &'a V)>,
) {
    sink.begin_object();
    for (k, v) in pairs {
        sink.key(&k);
        v.serialize(sink);
    }
    sink.end_object();
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_map(sink, self.iter().map(|(k, v)| (key_string(k), v)));
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        src.begin_object()?;
        let mut map = std::collections::BTreeMap::new();
        while let Some(k) = src.next_key()? {
            let key = K::from_value(&Value::Str(k.to_string()))?;
            map.insert(key, V::deserialize(src)?);
        }
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for std::collections::HashMap<K, V, H> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        // Sort keys for deterministic output.
        let mut pairs: Vec<(String, &V)> = self.iter().map(|(k, v)| (key_string(k), v)).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        serialize_map(sink, pairs);
    }
}

impl Serialize for Value {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Int(n) => sink.i64(*n),
            Value::UInt(n) => sink.u64(*n),
            Value::Float(f) => sink.f64(*f),
            Value::Str(s) => sink.str(s),
            Value::Array(items) => items.serialize(sink),
            Value::Object(pairs) => serialize_map(sink, pairs.iter().map(|(k, v)| (k.clone(), v))),
        }
    }
}

impl Deserialize for Value {
    fn deserialize<R: Source>(src: &mut R) -> Result<Self, DeError> {
        Ok(match src.peek()? {
            Kind::Null => {
                src.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(src.bool()?),
            Kind::Number => match src.number()? {
                Number::UInt(n) => Value::UInt(n),
                Number::Int(n) => Value::Int(n),
                Number::Float(f) => Value::Float(f),
            },
            Kind::Str => Value::Str(src.str()?.to_string()),
            Kind::Array => Value::Array(Vec::deserialize(src)?),
            Kind::Object => {
                src.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(k) = src.next_key()? {
                    let k = k.to_string();
                    pairs.push((k, Value::deserialize(src)?));
                }
                Value::Object(pairs)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_sink_and_source_round_trip() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::UInt(1), Value::Int(-2)]),
            ),
            ("b".into(), Value::Object(vec![])),
            ("c".into(), Value::Str("x".into())),
        ]);
        assert_eq!(v.to_value(), v);
        assert_eq!(Value::from_value(&v).unwrap(), v);
        let pair: (u8, Vec<i64>) =
            Deserialize::from_value(&Value::Array(vec![Value::UInt(7), Value::Array(vec![])]))
                .unwrap();
        assert_eq!(pair, (7, vec![]));
    }
}
