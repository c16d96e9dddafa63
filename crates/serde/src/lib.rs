//! In-tree stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of serde that memnet actually uses: a [`Serialize`] /
//! [`Deserialize`] trait pair with derive macros, backed directly by JSON.
//! Unlike real serde there is no pluggable data model — serialization writes
//! JSON text and deserialization reads a parsed [`json::Value`] tree. The
//! derive macros (enabled by the `derive` feature, like real serde) support
//! the shapes memnet defines: named-field structs, newtype/tuple structs,
//! and enums with unit or tuple variants.
//!
//! The tree borrows from the text it was parsed from:
//! [`json::parse_borrowed`] returns a `Value<'a>` whose keys, numbers and
//! escape-free strings are slices of the input, and only strings holding
//! an escape own a decoded copy. [`json::from_str`] deserializes from that
//! borrowed tree directly. [`json::parse`] copies every slice (via
//! [`json::Value::into_owned`]) and returns a `Value<'static>`, for
//! callers that keep the tree after the text is gone. Both run one
//! single-pass parser, linear in the input length.
//!
//! Numbers round-trip exactly: integers are written in full precision and
//! floats use Rust's shortest-round-trip formatting, so a serialized value
//! deserializes to a bit-identical one (non-finite floats are encoded as the
//! JSON strings `"NaN"`, `"inf"` and `"-inf"`).

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub mod ser {
    //! JSON-writing serializer.

    use core::fmt::{self, Write as _};

    /// A JSON text writer with comma/nesting bookkeeping.
    #[derive(Debug, Default)]
    pub struct Serializer {
        out: String,
        // Top of stack: whether the current container already has an entry
        // (so the next one needs a comma).
        has_entry: Vec<bool>,
    }

    impl Serializer {
        /// Creates an empty serializer.
        pub fn new() -> Self {
            Serializer::default()
        }

        /// Creates a serializer that appends to `out`'s existing text.
        pub(crate) fn with_buffer(out: String) -> Self {
            Serializer { out, has_entry: Vec::new() }
        }

        /// Consumes the serializer, returning the JSON text.
        pub fn into_string(self) -> String {
            self.out
        }

        fn sep(&mut self) {
            if let Some(top) = self.has_entry.last_mut() {
                if *top {
                    self.out.push(',');
                }
                *top = true;
            }
        }

        /// Starts a JSON object.
        pub fn begin_object(&mut self) {
            self.out.push('{');
            self.has_entry.push(false);
        }

        /// Ends a JSON object.
        pub fn end_object(&mut self) {
            self.has_entry.pop();
            self.out.push('}');
        }

        /// Writes an object key (with separating comma as needed).
        pub fn key(&mut self, name: &str) {
            self.sep();
            self.write_quoted(name);
            self.out.push(':');
        }

        /// Starts a JSON array.
        pub fn begin_array(&mut self) {
            self.out.push('[');
            self.has_entry.push(false);
        }

        /// Ends a JSON array.
        pub fn end_array(&mut self) {
            self.has_entry.pop();
            self.out.push(']');
        }

        /// Marks the start of an array element (writes the comma).
        pub fn element(&mut self) {
            self.sep();
        }

        /// Writes a raw (pre-validated) JSON token, e.g. a number.
        pub fn write_raw(&mut self, token: &str) {
            self.out.push_str(token);
        }

        /// Writes a raw token formatted by its `Display` impl straight into
        /// the output, with no intermediate `String`.
        pub(crate) fn write_display(&mut self, token: impl fmt::Display) {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{token}");
        }

        /// Writes a quoted, escaped JSON string. Only ASCII bytes ever need
        /// escaping, so the runs between them are copied whole.
        pub fn write_quoted(&mut self, s: &str) {
            self.out.push('"');
            let mut run = 0;
            for (i, &b) in s.as_bytes().iter().enumerate() {
                if b >= 0x20 && b != b'"' && b != b'\\' {
                    continue;
                }
                self.out.push_str(&s[run..i]);
                run = i + 1;
                match b {
                    b'"' => self.out.push_str("\\\""),
                    b'\\' => self.out.push_str("\\\\"),
                    b'\n' => self.out.push_str("\\n"),
                    b'\r' => self.out.push_str("\\r"),
                    b'\t' => self.out.push_str("\\t"),
                    _ => {
                        let _ = write!(self.out, "\\u{b:04x}");
                    }
                }
            }
            self.out.push_str(&s[run..]);
            self.out.push('"');
        }
    }
}

pub mod de {
    //! Deserialization error type and the label interner.

    use core::fmt;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, PoisonError};

    /// Why a JSON value could not be turned into the requested type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(pub String);

    impl Error {
        /// Creates an error with the given message.
        pub fn msg(m: impl Into<String>) -> Error {
            Error(m.into())
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "deserialization error: {}", self.0)
        }
    }

    impl std::error::Error for Error {}

    /// Every string handed out as `&'static str`, each leaked exactly once.
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

    /// The process-wide `&'static` copy of `s`, leaking it only the first
    /// time this text is seen.
    pub(crate) fn intern(s: &str) -> &'static str {
        let mut set = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&hit) = set.get(s) {
            return hit;
        }
        let leaked: &'static str = Box::leak(s.into());
        set.insert(leaked);
        leaked
    }

    /// How many distinct strings deserialization has interned (and so
    /// leaked) so far in this process.
    pub fn interned_labels() -> usize {
        INTERNED.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

pub mod json {
    //! Parsed JSON values and text parsing.

    use std::borrow::Cow;

    use super::de::Error;

    /// A parsed JSON value. Numbers keep their raw text so that integers
    /// larger than 2^53 and floats round-trip exactly.
    ///
    /// Text borrows from the parsed input where it can: keys, numbers and
    /// escape-free strings are slices of it, and only a string holding an
    /// escape owns a decoded copy. [`Value::into_owned`] detaches a value
    /// from its input.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value<'a> {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, kept as its raw JSON text.
        Num(Cow<'a, str>),
        /// A string.
        Str(Cow<'a, str>),
        /// An array.
        Arr(Vec<Value<'a>>),
        /// An object (insertion order preserved).
        Obj(Vec<(Cow<'a, str>, Value<'a>)>),
    }

    impl<'a> Value<'a> {
        /// Looks up a key in an object.
        pub fn get(&self, key: &str) -> Result<&Value<'a>, Error> {
            match self {
                Value::Obj(pairs) => pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| Error::msg(format!("missing key {key:?}"))),
                _ => Err(Error::msg(format!("expected object with key {key:?}"))),
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Result<&str, Error> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(Error::msg(format!("expected string, got {self:?}"))),
            }
        }

        /// The value as an array slice.
        pub fn as_array(&self) -> Result<&[Value<'a>], Error> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(Error::msg(format!("expected array, got {self:?}"))),
            }
        }

        /// The value's numeric text parsed as `T`.
        pub fn num<T: core::str::FromStr>(&self) -> Result<T, Error> {
            match self {
                Value::Num(raw) => {
                    raw.parse::<T>().map_err(|_| Error::msg(format!("number {raw:?} out of range")))
                }
                _ => Err(Error::msg(format!("expected number, got {self:?}"))),
            }
        }

        /// Copies every borrowed slice, detaching the value from its input.
        pub fn into_owned(self) -> Value<'static> {
            fn own(text: Cow<'_, str>) -> Cow<'static, str> {
                Cow::Owned(text.into_owned())
            }
            match self {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(b),
                Value::Num(raw) => Value::Num(own(raw)),
                Value::Str(s) => Value::Str(own(s)),
                Value::Arr(items) => Value::Arr(items.into_iter().map(Value::into_owned).collect()),
                Value::Obj(pairs) => {
                    Value::Obj(pairs.into_iter().map(|(k, v)| (own(k), v.into_owned())).collect())
                }
            }
        }
    }

    /// A `Value` serializes back to the JSON it parsed from (modulo
    /// whitespace): numbers re-emit their raw text, objects preserve
    /// insertion order. This lets callers round-trip documents they only
    /// partially understand.
    impl crate::Serialize for Value<'_> {
        fn serialize(&self, s: &mut crate::ser::Serializer) {
            match self {
                Value::Null => s.write_raw("null"),
                Value::Bool(b) => s.write_raw(if *b { "true" } else { "false" }),
                Value::Num(raw) => s.write_raw(raw),
                Value::Str(v) => s.write_quoted(v),
                Value::Arr(items) => {
                    s.begin_array();
                    for item in items {
                        s.element();
                        item.serialize(s);
                    }
                    s.end_array();
                }
                Value::Obj(pairs) => {
                    s.begin_object();
                    for (k, v) in pairs {
                        s.key(k);
                        v.serialize(s);
                    }
                    s.end_object();
                }
            }
        }
    }

    impl crate::Deserialize for Value<'_> {
        fn deserialize(v: &Value<'_>) -> Result<Self, Error> {
            Ok(v.clone().into_owned())
        }
    }

    /// Parses one JSON document into a value borrowing from `text`.
    pub fn parse_borrowed(text: &str) -> Result<Value<'_>, Error> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(Error::msg(format!("trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Parses one JSON document into an owned value (a [`parse_borrowed`]
    /// followed by [`Value::into_owned`]).
    pub fn parse(text: &str) -> Result<Value<'static>, Error> {
        parse_borrowed(text).map(Value::into_owned)
    }

    /// Serializes a value to JSON text.
    pub fn to_string<T: crate::Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        write_to(&mut out, value);
        out
    }

    /// Appends a value's JSON text to `out`.
    pub fn write_to<T: crate::Serialize + ?Sized>(out: &mut String, value: &T) {
        let mut s = crate::ser::Serializer::with_buffer(std::mem::take(out));
        value.serialize(&mut s);
        *out = s.into_string();
    }

    /// Parses JSON text into a `T`, borrowing from `text` while it builds.
    pub fn from_str<T: crate::Deserialize>(text: &str) -> Result<T, Error> {
        T::deserialize(&parse_borrowed(text)?)
    }

    struct Parser<'a> {
        text: &'a str,
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn bytes(&self) -> &'a [u8] {
            self.text.as_bytes()
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes().get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes().get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error::msg(format!("expected {:?} at byte {}", b as char, self.pos)))
            }
        }

        fn value(&mut self) -> Result<Value<'a>, Error> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(Error::msg(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                ))),
            }
        }

        fn literal(&mut self, word: &str, v: Value<'a>) -> Result<Value<'a>, Error> {
            if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(Error::msg(format!("bad literal at byte {}", self.pos)))
            }
        }

        fn number(&mut self) -> Result<Value<'a>, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(Error::msg(format!("bad number at byte {start}")));
            }
            Ok(Value::Num(Cow::Borrowed(&self.text[start..self.pos])))
        }

        /// Scans a string in one pass. Runs between escapes are cut at the
        /// ASCII bytes `"` and `\`, which are always char boundaries, so
        /// they are copied (or borrowed) whole without re-checking UTF-8.
        fn string(&mut self) -> Result<Cow<'a, str>, Error> {
            self.expect(b'"')?;
            let mut decoded: Option<String> = None;
            loop {
                let start = self.pos;
                let len = self.bytes()[start..].iter().position(|&b| b == b'"' || b == b'\\');
                let Some(len) = len else {
                    return Err(Error::msg("unterminated string"));
                };
                self.pos += len;
                let run = &self.text[start..self.pos];
                self.pos += 1;
                if self.bytes()[self.pos - 1] == b'"' {
                    return Ok(match decoded {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                let out = decoded.get_or_insert_with(String::new);
                out.push_str(run);
                let esc = self.peek().ok_or_else(|| Error::msg("unterminated escape"))?;
                self.pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = self
                            .bytes()
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                        let hex =
                            core::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error::msg("bad \\u code point"))?,
                        );
                    }
                    other => return Err(Error::msg(format!("bad escape \\{}", other as char))),
                }
            }
        }

        fn object(&mut self) -> Result<Value<'a>, Error> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(pairs));
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
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(Error::msg(format!("bad object at byte {}", self.pos))),
                }
            }
        }

        fn array(&mut self) -> Result<Value<'a>, Error> {
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
                    _ => return Err(Error::msg(format!("bad array at byte {}", self.pos))),
                }
            }
        }
    }
}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into the serializer.
    fn serialize(&self, s: &mut ser::Serializer);
}

/// Types that can be reconstructed from a parsed JSON value.
pub trait Deserialize: Sized {
    /// Builds `Self` from a JSON value.
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut ser::Serializer) {
        (**self).serialize(s);
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut ser::Serializer) {
                s.write_display(self);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
                v.num::<$t>()
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut ser::Serializer) {
                if self.is_finite() {
                    // Rust's Display prints the shortest decimal that
                    // round-trips to the same bits.
                    s.write_display(self)
                } else if self.is_nan() {
                    s.write_quoted("NaN")
                } else if *self > 0.0 {
                    s.write_quoted("inf")
                } else {
                    s.write_quoted("-inf")
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
                match v {
                    json::Value::Str(s) if s == "NaN" => Ok(<$t>::NAN),
                    json::Value::Str(s) if s == "inf" => Ok(<$t>::INFINITY),
                    json::Value::Str(s) if s == "-inf" => Ok(<$t>::NEG_INFINITY),
                    _ => v.num::<$t>(),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.write_raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
        match v {
            json::Value::Bool(b) => Ok(*b),
            _ => Err(de::Error::msg(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.write_quoted(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.write_quoted(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
        Ok(v.as_str()?.to_owned())
    }
}

/// Deserializing to `&'static str` interns the string: each distinct text
/// is leaked once per process and every later read of it returns the same
/// `&'static str`. The leak is therefore bounded by the number of distinct
/// labels (workload/policy/mechanism names in cached reports), not by how
/// often they are read — reopening a cache leaks nothing new.
impl Deserialize for &'static str {
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
        Ok(de::intern(v.as_str()?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.begin_array();
        for item in self {
            s.element();
            item.serialize(s);
        }
        s.end_array();
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
        v.as_array()?.iter().map(T::deserialize).collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut ser::Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
        let items = Vec::<T>::deserialize(v)?;
        let len = items.len();
        items.try_into().map_err(|_| de::Error::msg(format!("expected {N} elements, got {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        match self {
            None => s.write_raw("null"),
            Some(v) => v.serialize(s),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
        match v {
            json::Value::Null => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut ser::Serializer) {
                s.begin_array();
                $( s.element(); self.$n.serialize(s); )+
                s.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &json::Value<'_>) -> Result<Self, de::Error> {
                let items = v.as_array()?;
                let expected = [$($n,)+].len();
                if items.len() != expected {
                    return Err(de::Error::msg(format!(
                        "expected {expected}-tuple, got {} elements", items.len()
                    )));
                }
                Ok(($($t::deserialize(&items[$n])?,)+))
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(json::to_string(&42u64), "42");
        assert_eq!(json::from_str::<u64>("42").unwrap(), 42);
        assert_eq!(json::to_string(&u64::MAX), u64::MAX.to_string());
        assert_eq!(json::from_str::<u64>(&u64::MAX.to_string()).unwrap(), u64::MAX);
        assert_eq!(json::to_string(&true), "true");
        assert_eq!(json::to_string(&"hi\n\"x\""), "\"hi\\n\\\"x\\\"\"");
        assert_eq!(json::from_str::<String>("\"hi\\n\"").unwrap(), "hi\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.0f64, -0.0, 1.0 / 3.0, 6.02e23, 1e-300, -17.25, f64::MIN_POSITIVE] {
            let text = json::to_string(&x);
            let back: f64 = json::from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} via {text}");
        }
        let nan: f64 = json::from_str(&json::to_string(&f64::NAN)).unwrap();
        assert!(nan.is_nan());
        let inf: f64 = json::from_str(&json::to_string(&f64::INFINITY)).unwrap();
        assert_eq!(inf, f64::INFINITY);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(json::to_string(&v), "[1,2,3]");
        assert_eq!(json::from_str::<Vec<u32>>("[1,2,3]").unwrap(), v);
        let arr: [u64; 3] = json::from_str("[4,5,6]").unwrap();
        assert_eq!(arr, [4, 5, 6]);
        assert!(json::from_str::<[u64; 2]>("[4,5,6]").is_err());
        assert_eq!(json::to_string(&Option::<u32>::None), "null");
        assert_eq!(json::from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(json::from_str::<Option<u32>>("7").unwrap(), Some(7));
        let pair: (u32, String) = json::from_str("[7,\"x\"]").unwrap();
        assert_eq!(pair, (7, "x".to_owned()));
    }

    #[test]
    fn parser_handles_nesting_and_ws() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : \"d\" } ").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].num::<u32>().unwrap(), 1);
        assert!(matches!(a[1].get("b").unwrap(), Value::Null));
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "d");
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1] junk").is_err());
    }

    #[test]
    fn value_round_trips_as_canonical_text() {
        let text = "{\"a\":[1,{\"b\":null}],\"c\":\"d\",\"e\":1.5e-3,\"f\":true}";
        let v: Value = json::from_str(text).unwrap();
        assert_eq!(json::to_string(&v), text, "whitespace-free text is a fixed point");
        let spaced: Value = json::from_str(
            " { \"a\" : [ 1 , { \"b\" : null } ] , \
                                            \"c\" : \"d\" , \"e\" : 1.5e-3 , \"f\" : true } ",
        )
        .unwrap();
        assert_eq!(json::to_string(&spaced), text, "re-serialization canonicalizes whitespace");
    }

    #[test]
    fn static_str_is_interned_once_per_distinct_text() {
        let s: &'static str = json::from_str("\"mixD\"").unwrap();
        assert_eq!(s, "mixD");
        let again: &'static str = json::from_str("\"mixD\"").unwrap();
        assert!(std::ptr::eq(s, again), "a second read must return the first copy");
        let escaped: &'static str = json::from_str("\"mi\\u0078D\"").unwrap();
        assert!(std::ptr::eq(s, escaped), "interning keys on the decoded text");
    }

    /// Each malformed document and the error it must keep producing.
    #[test]
    fn reject_set_is_pinned() {
        let cases = [
            ("unterminated string", "\"abc", "unterminated string"),
            ("unterminated string after an escape", "\"a\\n", "unterminated string"),
            ("unterminated escape", "\"abc\\", "unterminated escape"),
            ("bad escape", "\"\\q\"", "bad escape \\q"),
            ("truncated \\u", "\"\\u12\"", "truncated \\u escape"),
            ("non-hex \\u", "\"\\u12g4\"", "bad \\u escape"),
            ("lone high surrogate", "\"\\ud800\"", "bad \\u code point"),
            ("lone low surrogate", "\"\\udc00x\"", "bad \\u code point"),
            ("trailing data", "{} x", "trailing data at byte 3"),
            ("trailing comma in an array", "[1,]", "unexpected Some(']') at byte 3"),
            ("trailing comma in an object", "{\"a\":1,}", "expected '\"' at byte 7"),
        ];
        for (name, text, want) in cases {
            match parse(text) {
                Ok(v) => panic!("{name}: {text:?} parsed as {v:?}"),
                Err(e) => assert!(e.0.contains(want), "{name}: got {:?}, want {want:?}", e.0),
            }
            assert_eq!(json::parse_borrowed(text).unwrap_err(), parse(text).unwrap_err());
        }
    }

    #[test]
    fn raw_control_characters_stay_accepted() {
        let v = parse("\"a\u{1}\tb\n\u{1f}\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "a\u{1}\tb\n\u{1f}");
        // The writer escapes them, so the canonical form differs.
        assert_eq!(json::to_string(&v), "\"a\\u0001\\tb\\n\\u001f\"");
    }

    #[test]
    fn escape_free_text_borrows_and_escaped_text_owns() {
        use std::borrow::Cow;
        let text = "{\"plain\":\"x\u{e9}\",\"esc\":\"a\\\"b\",\"n\":-1.5e3}";
        let v = json::parse_borrowed(text).unwrap();
        assert!(matches!(v.get("plain").unwrap(), Value::Str(Cow::Borrowed("x\u{e9}"))));
        assert!(matches!(v.get("esc").unwrap(), Value::Str(Cow::Owned(s)) if s == "a\"b"));
        assert!(matches!(v.get("n").unwrap(), Value::Num(Cow::Borrowed("-1.5e3"))));
        let Value::Obj(pairs) = &v else { panic!("not an object") };
        assert!(pairs.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert_eq!(v.clone().into_owned(), parse(text).unwrap());
    }

    /// A line holding one 256 KiB string parses in linear time. (A scan
    /// that re-validates the rest of the line per character takes tens of
    /// seconds here in the debug profile; the bound leaves 100x headroom
    /// over the linear scan.)
    #[test]
    fn a_256_kib_string_parses_in_linear_time() {
        let body: String =
            "abc\u{e9}\u{20ac}\u{1f600}".chars().cycle().take(256 * 1024 / 3).collect();
        let escaped = json::to_string(&format!("{body}\"\\\n{body}"));
        let line = format!("{{\"fp\":\"x\",\"s\":{escaped}}}");
        assert!(line.len() > 256 * 1024, "{}", line.len());
        let t = std::time::Instant::now();
        let v = json::parse_borrowed(&line).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), format!("{body}\"\\\n{body}"));
        assert_eq!(json::to_string(&v), line);
        assert!(elapsed.as_secs() < 5, "256 KiB line took {elapsed:?}");
    }

    #[test]
    fn writer_appends_to_an_existing_buffer() {
        let mut out = String::from("{\"fp\":");
        json::write_to(&mut out, "a\"b");
        out.push_str(",\"n\":");
        json::write_to(&mut out, &[1.5f64, -0.0, 0.1, f64::NAN]);
        out.push('}');
        assert_eq!(out, "{\"fp\":\"a\\\"b\",\"n\":[1.5,-0,0.1,\"NaN\"]}");
    }
}
