//! Zero-dependency JSON serialization for the milliScope workspace.
//!
//! The build environment for this reproduction is fully offline, so the
//! workspace cannot pull `serde`/`serde_json` from a registry. This crate
//! replaces them with a deliberately small, hand-rolled stack in the same
//! spirit as milliScope's own transformer: a self-contained value model
//! ([`Json`]), a strict parser ([`Json::parse`]), a compact/pretty writer,
//! a pair of conversion traits ([`ToJson`] / [`FromJson`]), and derive-free
//! impl macros ([`json_struct!`], [`json_enum!`], [`json_newtype!`]) that
//! generate both directions from a one-line field list.
//!
//! Policy decisions (also locked in by the workspace round-trip tests):
//!
//! - Integers are kept exact through an `i128` payload, so `u64` request
//!   IDs survive a round-trip bit-for-bit.
//! - Non-finite floats (`NaN`, `±inf`) serialize as `null`; `null` parses
//!   back into a float slot as `NaN`.
//! - Object key order is preserved (insertion order, not sorted).
//!
//! # Examples
//!
//! ```
//! use mscope_serdes::{FromJson, Json, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: i64, y: i64 }
//! mscope_serdes::json_struct!(Point { x, y });
//!
//! let p = Point { x: 3, y: -4 };
//! let text = p.to_json().to_string();
//! assert_eq!(text, r#"{"x":3,"y":-4}"#);
//! assert_eq!(Point::from_json(&Json::parse(&text).unwrap()).unwrap(), p);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::iter_over_hash_type,
    clippy::needless_collect,
    clippy::redundant_clone
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::iter_over_hash_type,
        clippy::needless_collect,
        clippy::redundant_clone
    )
)]

mod convert;
mod macros;
mod parse;
mod value;
mod write;

pub use convert::{field, FromJson, JsonKey, ToJson};
pub use parse::JsonError;
pub use value::Json;

/// Serializes any [`ToJson`] value to compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes any [`ToJson`] value to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().pretty()
}

/// Parses JSON text and converts it into `T`.
///
/// # Errors
///
/// Syntax errors from the parser and shape errors from [`FromJson`].
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_level_roundtrip() {
        let v: Vec<u64> = vec![1, u64::MAX, 42];
        let text = to_string(&v);
        assert_eq!(from_str::<Vec<u64>>(&text).unwrap(), v);
    }

    #[test]
    fn pretty_is_reparseable() {
        let j = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }
}
