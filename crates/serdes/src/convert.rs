//! `ToJson` / `FromJson`: the conversion traits the impl macros target,
//! plus implementations for the std types the workspace serializes.

use crate::parse::JsonError;
use crate::value::Json;
use std::collections::{BTreeMap, HashMap};

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    /// Rebuilds `Self` from its JSON form.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] describing the first shape mismatch encountered.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Extracts and converts a struct field from an object; the helper the
/// [`crate::json_struct!`] macro expands to.
///
/// # Errors
///
/// Missing key (all fields are always written, so absence is corruption)
/// or a conversion failure in the value.
pub fn field<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    let v = obj
        .get(key)
        .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))?;
    T::from_json(v).map_err(|e| JsonError::msg(format!("field `{key}`: {e}")))
}

fn type_err(expected: &str, got: &Json) -> JsonError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "integer",
        Json::Float(_) => "float",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    JsonError::msg(format!("expected {expected}, found {kind}"))
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| type_err("bool", v))
    }
}

macro_rules! int_impls {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Int(i) => <$ty>::try_from(*i).map_err(|_| {
                        JsonError::msg(format!(
                            "integer {i} out of range for {}",
                            stringify!($ty)
                        ))
                    }),
                    _ => Err(type_err("integer", v)),
                }
            }
        }
    )+};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            /// Non-finite values serialize as `null` (see crate policy).
            fn to_json(&self) -> Json {
                if self.is_finite() {
                    Json::Float(*self as f64)
                } else {
                    Json::Null
                }
            }
        }
        impl FromJson for $ty {
            /// Accepts floats, integers (widened), and `null` (as NaN —
            /// the inverse of the non-finite write policy).
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Null => Ok(<$ty>::NAN),
                    _ => v.as_f64().map(|f| f as $ty).ok_or_else(|| type_err("number", v)),
                }
            }
        }
    )+};
}

float_impls!(f32, f64);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| type_err("string", v))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(t) => t.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| type_err("array", v))?
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json(item).map_err(|e| JsonError::msg(format!("element {i}: {e}")))
            })
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(type_err("2-element array", v)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array().map(Vec::as_slice) {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(type_err("3-element array", v)),
        }
    }
}

/// Types usable as JSON object keys. JSON keys are always strings, so map
/// keys must render to and parse from a string unambiguously.
pub trait JsonKey: Sized {
    /// The key rendered as a string.
    fn to_key(&self) -> String;
    /// Parses a key back.
    ///
    /// # Errors
    ///
    /// When the string is not a valid rendering of `Self`.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

macro_rules! int_key_impls {
    ($($ty:ty),+) => {$(
        impl JsonKey for $ty {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, JsonError> {
                key.parse().map_err(|_| {
                    JsonError::msg(format!(
                        "map key {key:?} is not a {}",
                        stringify!($ty)
                    ))
                })
            }
        }
    )+};
}

int_key_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| type_err("object", v))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_json(val)?)))
            .collect()
    }
}

impl<K: JsonKey, V: ToJson> ToJson for HashMap<K, V> {
    /// Keys are sorted on write so output is deterministic regardless of
    /// hash order.
    #[expect(
        clippy::disallowed_methods,
        reason = "DT001: the pairs are sorted by key before they are emitted"
    )]
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_json()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(pairs)
    }
}

impl<K: JsonKey + Eq + std::hash::Hash, V: FromJson> FromJson for HashMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| type_err("object", v))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_json(val)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: T) {
        let j = v.to_json();
        let text = j.to_string();
        let back = T::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, v, "via {text}");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(true);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(0.25f64);
        roundtrip(String::from("héllo\nworld"));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1i64, -2, 3]);
        roundtrip((1u8, String::from("x")));
        roundtrip((1u8, String::from("x"), 2.5f64));
    }

    #[test]
    fn nan_becomes_null_becomes_nan() {
        assert_eq!(f64::NAN.to_json(), Json::Null);
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
        assert_eq!(f64::INFINITY.to_json(), Json::Null);
    }

    #[test]
    fn int_range_checked() {
        assert!(u8::from_json(&Json::Int(300)).is_err());
        assert!(u64::from_json(&Json::Int(-1)).is_err());
        assert_eq!(
            u64::from_json(&Json::Int(u64::MAX as i128)).unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn float_accepts_int() {
        assert_eq!(f64::from_json(&Json::Int(5)).unwrap(), 5.0);
    }

    #[test]
    fn maps_use_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(3usize, String::from("c"));
        m.insert(1usize, String::from("a"));
        assert_eq!(m.to_json().to_string(), r#"{"1":"a","3":"c"}"#);
        roundtrip(m);

        let mut h = HashMap::new();
        h.insert(String::from("k"), 9u32);
        roundtrip(h);
    }

    #[test]
    fn missing_field_reported() {
        let obj = Json::parse(r#"{"a":1}"#).unwrap();
        let err = field::<u32>(&obj, "b").unwrap_err();
        assert!(err.to_string().contains("missing field `b`"));
    }
}
