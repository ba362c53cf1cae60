//! Cell values and the column-type lattice used for bottom-up schema
//! inference (paper §III-B3: "the narrowest data type that can store all of
//! the values for the same XML tag is the one selected").

use std::cmp::Ordering;
use std::fmt;

/// A single cell value in an mScopeDB table.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / empty.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Microseconds since experiment start (parsed from `HH:MM:SS.ffffff`).
    Timestamp(i64),
    /// Arbitrary text.
    Text(String),
}
mscope_serdes::json_enum!(Value { Null, Bool(a), Int(a), Float(a), Timestamp(a), Text(a) });

/// Column data types, ordered by the inference lattice:
/// `Null < Bool|Int|Timestamp`, `Int < Float`, everything `< Text`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Only nulls seen so far.
    Null,
    /// Booleans.
    Bool,
    /// Integers.
    Int,
    /// Floats (also admits integers).
    Float,
    /// Timestamps.
    Timestamp,
    /// Text (admits everything).
    Text,
}
mscope_serdes::json_enum!(ColumnType {
    Null,
    Bool,
    Int,
    Float,
    Timestamp,
    Text
});

impl ColumnType {
    /// The least upper bound of two types in the inference lattice — the
    /// narrowest type that can store values of both.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_db::ColumnType;
    /// assert_eq!(ColumnType::Int.unify(ColumnType::Float), ColumnType::Float);
    /// assert_eq!(ColumnType::Int.unify(ColumnType::Bool), ColumnType::Text);
    /// assert_eq!(ColumnType::Null.unify(ColumnType::Timestamp), ColumnType::Timestamp);
    /// ```
    pub fn unify(self, other: ColumnType) -> ColumnType {
        use ColumnType::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Null, x) | (x, Null) => x,
            (Int, Float) | (Float, Int) => Float,
            _ => Text,
        }
    }

    /// `true` if a value of type `v` can be stored in a column of this type
    /// without information loss (per the same lattice).
    pub fn admits(self, v: ColumnType) -> bool {
        self.unify(v) == self
    }

    /// `true` if unifying two column types loses information — the join
    /// degenerates to [`ColumnType::Text`] even though neither side was
    /// `Text` (e.g. `Int ∪ Timestamp`). Used by declaration checking and
    /// the lint trace front to flag narrowing along the pipeline.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_db::ColumnType;
    /// assert!(ColumnType::Int.lossy_join(ColumnType::Timestamp));
    /// assert!(!ColumnType::Int.lossy_join(ColumnType::Float));
    /// assert!(!ColumnType::Text.lossy_join(ColumnType::Int));
    /// ```
    pub fn lossy_join(self, other: ColumnType) -> bool {
        self.unify(other) == ColumnType::Text
            && self != ColumnType::Text
            && other != ColumnType::Text
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Null => "null",
            ColumnType::Bool => "bool",
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Timestamp => "timestamp",
            ColumnType::Text => "text",
        };
        f.write_str(s)
    }
}

impl Value {
    /// The type of this value.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Null => ColumnType::Null,
            Value::Bool(_) => ColumnType::Bool,
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Timestamp(_) => ColumnType::Timestamp,
            Value::Text(_) => ColumnType::Text,
        }
    }

    /// Infers the narrowest value from raw text, the first step of schema
    /// inference. Empty string and `"-"` become [`Value::Null`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_db::Value;
    /// assert_eq!(Value::infer("42"), Value::Int(42));
    /// assert_eq!(Value::infer("3.5"), Value::Float(3.5));
    /// assert_eq!(Value::infer("true"), Value::Bool(true));
    /// assert_eq!(Value::infer(""), Value::Null);
    /// assert_eq!(Value::infer("00:00:01.000000"), Value::Timestamp(1_000_000));
    /// assert_eq!(Value::infer("hello"), Value::Text("hello".into()));
    /// ```
    pub fn infer(raw: &str) -> Value {
        // perf: only a cell no narrower type admits is copied into a value.
        Self::infer_scalar(raw).unwrap_or_else(|t| Value::Text(t.to_string()))
    }

    /// The type [`Value::infer`] would give `raw`, without building the
    /// value: schema inference reads only the type of every cell, and for a
    /// text cell (a request ID, a URL, an SQL statement) the value is a
    /// heap copy.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_db::{ColumnType, Value};
    /// assert_eq!(Value::infer_type(" 42 "), ColumnType::Int);
    /// assert_eq!(Value::infer_type("-"), ColumnType::Null);
    /// assert_eq!(Value::infer_type("0000a3f1"), ColumnType::Text);
    /// ```
    pub fn infer_type(raw: &str) -> ColumnType {
        Self::infer_scalar(raw).map_or(ColumnType::Text, |v| v.column_type())
    }

    /// The inference ladder, narrowest type first: the value when one of
    /// the scalar types reads the trimmed cell, else the trimmed cell itself
    /// (it is text).
    fn infer_scalar(raw: &str) -> Result<Value, &str> {
        let t = raw.trim();
        if t.is_empty() || t == "-" {
            return Ok(Value::Null);
        }
        if let Ok(i) = t.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
        match t {
            "true" | "TRUE" | "True" => return Ok(Value::Bool(true)),
            "false" | "FALSE" | "False" => return Ok(Value::Bool(false)),
            _ => {}
        }
        if let Some(ts) = mscope_sim::parse_wallclock(t) {
            return Ok(Value::Timestamp(ts.as_micros() as i64));
        }
        Err(t)
    }

    /// Numeric view: `Int`, `Float`, and `Timestamp` (as µs) convert;
    /// `Bool` maps to 0/1; `Null`/`Text` do not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(*t as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Null | Value::Text(_) => None,
        }
    }

    /// Integer view of `Int`/`Timestamp`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Text view (only for `Text`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering for sorting and range predicates: Null < Bool < Int ~
    /// Float (numeric comparison) < Timestamp < Text; numerics compare by
    /// value across Int/Float.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Timestamp(_) => 3,
                Text(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Float(a), Float(b)) => a.total_cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// A hashable key form for joins and group-by (floats keyed by bits).
    pub fn key(&self) -> ValueKey {
        match self {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::Float(f.to_bits()),
            Value::Timestamp(t) => ValueKey::Timestamp(*t),
            Value::Text(s) => ValueKey::Text(s.clone()),
        }
    }

    /// Renders the value as cell text, as `Display`, SQL group keys and
    /// printed tables show it.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Timestamp(t) => {
                mscope_sim::wallclock(mscope_sim::SimTime::from_micros((*t).max(0) as u64))
            }
            Value::Text(s) => s.clone(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

/// Hashable key form of a [`Value`] (floats by bit pattern). Ordered —
/// variant first, then payload — so distinct-counting can sort keys
/// directly instead of comparing rendered debug strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKey {
    /// Null key.
    Null,
    /// Bool key.
    Bool(bool),
    /// Int key.
    Int(i64),
    /// Float key (bit pattern).
    Float(u64),
    /// Timestamp key.
    Timestamp(i64),
    /// Text key.
    Text(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_is_commutative_and_idempotent() {
        use ColumnType::*;
        let all = [Null, Bool, Int, Float, Timestamp, Text];
        for &a in &all {
            assert_eq!(a.unify(a), a);
            for &b in &all {
                assert_eq!(a.unify(b), b.unify(a));
                // Text is the top element.
                assert_eq!(a.unify(Text), Text);
            }
        }
    }

    #[test]
    fn lattice_associative() {
        use ColumnType::*;
        let all = [Null, Bool, Int, Float, Timestamp, Text];
        for &a in &all {
            for &b in &all {
                for &c in &all {
                    assert_eq!(a.unify(b).unify(c), a.unify(b.unify(c)));
                }
            }
        }
    }

    #[test]
    fn admits_matches_unify() {
        assert!(ColumnType::Float.admits(ColumnType::Int));
        assert!(!ColumnType::Int.admits(ColumnType::Float));
        assert!(ColumnType::Text.admits(ColumnType::Timestamp));
        assert!(ColumnType::Timestamp.admits(ColumnType::Null));
    }

    #[test]
    fn inference_narrowest_first() {
        assert_eq!(Value::infer("0"), Value::Int(0));
        assert_eq!(Value::infer("-17"), Value::Int(-17));
        assert_eq!(Value::infer("2.50"), Value::Float(2.5));
        assert_eq!(Value::infer("1e3"), Value::Float(1000.0));
        assert_eq!(Value::infer("  42 "), Value::Int(42));
        assert_eq!(Value::infer("-"), Value::Null);
        assert_eq!(Value::infer("NaN"), Value::Text("NaN".into()));
        assert_eq!(
            Value::infer("01:02:03.000004"),
            Value::Timestamp(3_723_000_004)
        );
    }

    #[test]
    fn infer_type_is_the_type_of_infer() {
        // Cells built from the pieces the ladder branches on, so a random
        // draw lands on (and just beside) every rung.
        const PIECES: &[&str] = &[
            "",
            "-",
            "+",
            "0",
            "7",
            "42",
            "9223372036854775807",
            "9223372036854775808",
            ".",
            "e",
            "E",
            "1e999",
            "inf",
            "-inf",
            "Infinity",
            "nan",
            "NaN",
            "true",
            "TRUE",
            "True",
            "tRue",
            "false",
            "FALSE",
            "False",
            "00:00:01",
            "00:00:01.5",
            "12:59:59.123456789",
            "00:61:00",
            "6000000000:00:00",
            ":",
            " ",
            "  ",
            "\t",
            "x",
            "é",
            "0000a3f1",
        ];
        mscope_sim::prop::forall("infer_type is the type of infer", 2048, |g| {
            let cell = g.vec(0..=4, |g| g.choose(PIECES)).concat();
            let (fast, built) = (Value::infer_type(&cell), Value::infer(&cell).column_type());
            mscope_sim::prop_ensure!(fast == built, "{cell:?}: {fast:?} vs {built:?}");
            Ok(())
        });
        for (cell, ty) in [
            ("", ColumnType::Null),
            (" - ", ColumnType::Null),
            ("-7", ColumnType::Int),
            ("+7", ColumnType::Int),
            ("9223372036854775808", ColumnType::Float),
            ("1e999", ColumnType::Text),
            ("inf", ColumnType::Text),
            ("nan", ColumnType::Text),
            ("TRUE", ColumnType::Bool),
            ("tRue", ColumnType::Text),
            (" 00:00:01.5 ", ColumnType::Timestamp),
            ("00:61:00", ColumnType::Text),
            ("6000000000:00:00", ColumnType::Text),
            ("0000a3f1", ColumnType::Text),
        ] {
            assert_eq!(Value::infer_type(cell), ty, "{cell:?}");
        }
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Timestamp(5).as_i64(), Some(5));
        assert_eq!(Value::Text("abc".into()).as_str(), Some("abc"));
    }

    #[test]
    fn ordering_across_numerics() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Text("b".into()).total_cmp(&Value::Text("a".into())),
            Ordering::Greater
        );
    }

    #[test]
    fn render_roundtrips_through_infer() {
        for v in [
            Value::Int(7),
            Value::Float(1.25),
            Value::Bool(true),
            Value::Timestamp(1_500_000),
            Value::Null,
        ] {
            let back = Value::infer(&v.render());
            assert_eq!(v, back, "render {:?} → {:?}", v, back);
        }
    }

    #[test]
    fn float_keys_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Float(1.5).key());
        set.insert(Value::Float(1.5).key());
        set.insert(Value::Int(1).key());
        assert_eq!(set.len(), 2);
    }
}
