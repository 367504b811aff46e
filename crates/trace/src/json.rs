//! Minimal JSON value, writer, and parser.
//!
//! The container has no serde, so exporters build this value type by
//! hand. Objects preserve insertion order, which keeps emitted reports
//! stable and diffable. The parser exists so run-report schemas can be
//! round-trip tested and future tools can read `BENCH_*.json` back.
//!
//! Artifacts that are read back (chaos scenarios, regression corpora)
//! implement [`JsonCodec`]; a record declares its fields once with
//! [`json_fields!`](crate::json_fields).

use std::fmt::Write as _;

use tcc_types::{NodeId, ProtocolBugs, ProtocolKind};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A value with a codec converts to its encoding.
impl<T: JsonCodec> From<T> for Json {
    fn from(v: T) -> Self {
        v.to_json()
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
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

    fn write_num(out: &mut String, n: f64) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    }

    fn write_to(&self, out: &mut String, indent: usize, level: usize) {
        let (nl, pad, pad_in) = if indent > 0 {
            (
                "\n",
                " ".repeat(indent * level),
                " ".repeat(indent * (level + 1)),
            )
        } else {
            ("", String::new(), String::new())
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => Self::write_num(out, *n),
            Json::Str(s) => Self::write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write_to(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    Self::write_escaped(out, k);
                    out.push(':');
                    if indent > 0 {
                        out.push(' ');
                    }
                    v.write_to(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 0, 0);
        out
    }

    /// Pretty serialization with 2-space indentation plus a trailing
    /// newline (the format `BENCH_*.json` files are committed in).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 2, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// A value with a JSON encoding that reads back to itself. Records
/// implement it with [`json_fields!`](crate::json_fields).
pub trait JsonCodec: Sized {
    fn to_json(&self) -> Json;
    fn from_json(json: &Json) -> Result<Self, String>;
}

/// An encoding of `T` other than its own [`JsonCodec`], named in a
/// [`json_fields!`](crate::json_fields) list with `with`.
pub trait JsonWith<T> {
    fn to_json(value: &T) -> Json;
    fn from_json(json: &Json) -> Result<T, String>;
}

/// A `u64` as a decimal string, since [`Json::Num`] is an `f64` and
/// seeds use all 64 bits. An `Option<u64>` writes `None` as `null`.
pub struct DecimalString;

impl JsonWith<u64> for DecimalString {
    fn to_json(value: &u64) -> Json {
        Json::Str(value.to_string())
    }
    fn from_json(json: &Json) -> Result<u64, String> {
        let s = json.as_str().ok_or("expected a decimal string")?;
        s.parse().map_err(|e| format!("bad decimal {s:?}: {e}"))
    }
}

impl JsonWith<Option<u64>> for DecimalString {
    fn to_json(value: &Option<u64>) -> Json {
        value.as_ref().map_or(Json::Null, Self::to_json)
    }
    fn from_json(json: &Json) -> Result<Option<u64>, String> {
        match json {
            Json::Null => Ok(None),
            v => Self::from_json(v).map(Some),
        }
    }
}

/// A list that must hold at least one element.
pub struct NonEmpty;

impl<T: JsonCodec> JsonWith<Vec<T>> for NonEmpty {
    fn to_json(value: &Vec<T>) -> Json {
        value.to_json()
    }
    fn from_json(json: &Json) -> Result<Vec<T>, String> {
        Some(Vec::from_json(json)?)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| "expected a non-empty array".to_string())
    }
}

/// Each scalar's JSON value, and the pattern that reads it back.
macro_rules! scalar_codecs {
    ($($t:ty: $v:ident => $to:expr, $json:pat => $from:expr;)*) => {$(
        impl JsonCodec for $t {
            fn to_json(&self) -> Json {
                let $v = self;
                $to
            }
            fn from_json(json: &Json) -> Result<Self, String> {
                match json {
                    $json => $from,
                    #[allow(unreachable_patterns)]
                    _ => None,
                }
                .ok_or_else(|| format!("expected a {}", stringify!($t)))
            }
        }
    )*};
}

scalar_codecs! {
    bool: v => Json::Bool(*v), Json::Bool(b) => Some(*b);
    f64: v => Json::Num(*v), Json::Num(n) => Some(*n);
    u64: v => Json::Num(*v as f64), n => n.as_u64();
    u32: v => Json::Num(f64::from(*v)), n => n.as_u64().and_then(|n| n.try_into().ok());
    u16: v => Json::Num(f64::from(*v)), n => n.as_u64().and_then(|n| n.try_into().ok());
    usize: v => Json::Num(*v as f64), n => n.as_u64().and_then(|n| n.try_into().ok());
    String: v => Json::Str(v.clone()), Json::Str(s) => Some(s.clone());
    NodeId: v => v.0.to_json(), n => u16::from_json(n).ok().map(NodeId);
    // A backend is its stable name (`"tcc"`, `"serialized"`, `"tardis"`).
    ProtocolKind: v => v.as_str().into(), Json::Str(s) => s.parse().ok();
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        let items = json.as_arr().ok_or("expected an array")?;
        items.iter().map(T::from_json).collect()
    }
}

/// `None` is `null`.
impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

/// Mutation knobs are the list of the set knobs' catalog names.
impl JsonCodec for ProtocolBugs {
    fn to_json(&self) -> Json {
        Json::Arr(self.enabled_names().into_iter().map(Json::from).collect())
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        let mut bugs = ProtocolBugs::default();
        for name in Vec::<String>::from_json(json)? {
            if !bugs.set_by_name(&name) {
                return Err(format!("unknown bug knob {name:?}"));
            }
        }
        Ok(bugs)
    }
}

/// Refuses a record that is not an object or lacks its schema tag.
#[doc(hidden)]
pub fn check_record(json: &Json, schema: Option<&str>) -> Result<(), String> {
    let got = json.get("schema").and_then(Json::as_str);
    match schema {
        _ if !matches!(json, Json::Obj(_)) => Err("expected an object".to_string()),
        Some(want) if got != Some(want) => Err(format!("schema {got:?}, expected {want:?}")),
        _ => Ok(()),
    }
}

/// Reads field `key` of a record; a missing key reads as `absent`, and
/// is an error when that is `None`.
#[doc(hidden)]
pub fn read_field<T>(
    json: &Json,
    key: &str,
    absent: Option<T>,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    match json.get(key) {
        Some(v) => decode(v).map_err(|e| format!("{key}: {e}")),
        None => absent.ok_or_else(|| format!("missing {key}")),
    }
}

/// Implements [`JsonCodec`] for a record from one list of its fields,
/// written as a JSON object in list order and read back by key.
///
/// Each field is its name, then optionally `as "key"` (its JSON key when
/// that differs), `with Encoding` (a [`JsonWith`] replacing the field
/// type's own codec) and `= default` (what an absent key reads as;
/// without it the key is required). `#[schema = "..."]` writes a
/// `"schema"` key first and refuses any other tag. `#[omit_defaults]`
/// writes a field only when it differs from the type's `Default`, and
/// reads an absent one as that. Unknown keys are ignored.
///
/// ```
/// use tcc_trace::json::{DecimalString, JsonCodec};
/// use tcc_trace::Json;
///
/// #[derive(Debug, PartialEq)]
/// struct Rule { kind: String, seed: u64, prob: f64 }
/// tcc_trace::json_fields!(Rule { kind, seed with DecimalString, prob = 1.0 });
///
/// let rule = Rule::from_json(&Json::parse(r#"{"kind": "Mark", "seed": "7"}"#).unwrap());
/// assert_eq!(rule, Ok(Rule { kind: "Mark".into(), seed: 7, prob: 1.0 }));
/// assert_eq!(rule.unwrap().to_json().to_compact(), r#"{"kind":"Mark","seed":"7","prob":1}"#);
/// assert!(Rule::from_json(&Json::parse(r#"{"seed": "7"}"#).unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! json_fields {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@some) => { ::std::option::Option::None };
    (@some $value:expr) => { ::std::option::Option::Some($value) };
    (@write $value:expr) => { $crate::json::JsonCodec::to_json($value) };
    (@write $value:expr, $via:ty) => { <$via as $crate::json::JsonWith<_>>::to_json($value) };
    (@decode) => { $crate::json::JsonCodec::from_json };
    (@decode $via:ty) => { <$via as $crate::json::JsonWith<_>>::from_json };
    (@read $json:ident, $key:expr, $absent:expr $(, $via:ty)?) => {
        $crate::json::read_field($json, $key, $absent, $crate::json_fields!(@decode $($via)?))?
    };
    (#[omit_defaults] $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::JsonCodec for $ty {
            fn to_json(&self) -> $crate::Json {
                let d = <Self as ::std::default::Default>::default();
                let mut fields = ::std::vec::Vec::new();
                $(if self.$field != d.$field {
                    let v = $crate::json::JsonCodec::to_json(&self.$field);
                    fields.push((stringify!($field).to_string(), v));
                })+
                $crate::Json::Obj(fields)
            }
            fn from_json(json: &$crate::Json) -> ::std::result::Result<Self, ::std::string::String> {
                $crate::json::check_record(json, ::std::option::Option::None)?;
                let d = <Self as ::std::default::Default>::default();
                ::std::result::Result::Ok($ty {$(
                    $field: $crate::json_fields!(@read json, stringify!($field),
                        ::std::option::Option::Some(d.$field)),
                )+})
            }
        }
    };
    ($(#[schema = $schema:literal])? $ty:ident {
        $($field:ident $(as $key:literal)? $(with $via:ty)? $(= $default:expr)?),+ $(,)?
    }) => {
        impl $crate::json::JsonCodec for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(::std::vec![
                    $(("schema".to_string(), $crate::Json::from($schema)),)?
                    $(($crate::json_fields!(@key $field $($key)?).to_string(),
                        $crate::json_fields!(@write &self.$field $(, $via)?)),)+
                ])
            }
            fn from_json(json: &$crate::Json) -> ::std::result::Result<Self, ::std::string::String> {
                $crate::json::check_record(json, $crate::json_fields!(@some $($schema)?))?;
                ::std::result::Result::Ok($ty {$(
                    $field: $crate::json_fields!(@read json, $crate::json_fields!(@key $field $($key)?),
                        $crate::json_fields!(@some $($default)?) $(, $via)?),
                )+})
            }
        }
    };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let s = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u codepoint")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 char.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{s}': {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip() {
        let v = Json::obj(vec![
            ("name", "fig7".into()),
            ("ok", true.into()),
            ("nothing", Json::Null),
            ("speedup", 13.25.into()),
            ("cycles", 123456u64.into()),
            ("apps", Json::Arr(vec!["barnes".into(), "equake".into()])),
            (
                "nested",
                Json::obj(vec![
                    ("empty_arr", Json::Arr(vec![])),
                    ("empty_obj", Json::Obj(vec![])),
                ]),
            ),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("line\nbreak \"quoted\" back\\slash \t tab \u{1} ctl".to_string());
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42u64).to_compact(), "42");
        assert_eq!(Json::from(2.5f64).to_compact(), "2.5");
        assert_eq!(Json::from(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": [1, 2], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert!(v.get("d").is_none());
    }
}
