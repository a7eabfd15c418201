//! Minimal, dependency-free stand-in for `serde` + `serde_derive`.
//!
//! Upstream serde's zero-copy visitor architecture is far more than this
//! workspace needs: the repo (de)serializes plain config/report/model structs
//! to JSON files. This shim routes everything through an owned [`Value`]
//! tree — `T -> Value -> text` and back — which `serde_json` (the sibling
//! shim) renders and parses. The derive macros generate the same
//! field-by-field code upstream would, minus the streaming.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-shaped document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers.
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object by name.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    fn to_json_value(&self) -> Value;
}

/// Conversion from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_json_value(v: &Value) -> Result<Self, DeError>;

    /// Called by derived code when an object field is absent. `Option`
    /// overrides this to produce `None`; everything else errors.
    fn missing_field(field: &str) -> Result<Self, DeError> {
        Err(DeError(format!("missing field `{field}`")))
    }
}

fn type_err<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError(format!("expected {expected}, found {}", got.type_name())))
}

// --- scalars ---------------------------------------------------------------

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => type_err("bool", other),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                let raw: u64 = match v {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                        *f as u64
                    }
                    other => return type_err("unsigned integer", other),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                let raw: i64 = match v {
                    Value::Int(i) => *i,
                    Value::UInt(u) if *u <= i64::MAX as u64 => *u as i64,
                    Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => *f as i64,
                    other => return type_err("integer", other),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                // Non-finite values stay floats in the tree, so binary
                // encodings of it keep them; `serde_json` renders them as
                // `null`, as upstream does.
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Null => Ok(<$t>::NAN),
                    other => type_err("number", other),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

// --- containers ------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            other => type_err("array", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }

    fn missing_field(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

macro_rules! impl_tuple {
    ($len:literal => $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_json_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($t::from_json_value(&items[$idx])?,)+))
                    }
                    Value::Array(items) => Err(DeError(format!(
                        "expected tuple of {} elements, found {}", $len, items.len()
                    ))),
                    other => type_err("array (tuple)", other),
                }
            }
        }
    };
}
impl_tuple!(2 => A.0, B.1);
impl_tuple!(3 => A.0, B.1, C.2);
impl_tuple!(4 => A.0, B.1, C.2, D.3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip_and_missing_field() {
        assert_eq!(Option::<u32>::from_json_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_json_value(&Value::UInt(3)).unwrap(), Some(3));
        assert_eq!(Option::<u32>::missing_field("x").unwrap(), None);
        assert!(u32::missing_field("x").is_err());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(f32::from_json_value(&Value::UInt(2)).unwrap(), 2.0);
        assert_eq!(usize::from_json_value(&Value::Float(5.0)).unwrap(), 5);
        assert!(usize::from_json_value(&Value::Float(5.5)).is_err());
        assert!(u8::from_json_value(&Value::UInt(300)).is_err());
        assert!(f32::from_json_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn non_finite_floats_stay_floats_in_the_tree() {
        for f in [f32::INFINITY, f32::NEG_INFINITY] {
            let back = f32::from_json_value(&f.to_json_value()).unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
        assert!(f32::from_json_value(&f32::NAN.to_json_value()).unwrap().is_nan());
        assert_eq!(f64::NEG_INFINITY.to_json_value(), Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn tuple_roundtrip() {
        let v = (3usize, 7usize).to_json_value();
        assert_eq!(<(usize, usize)>::from_json_value(&v).unwrap(), (3, 7));
        assert!(<(usize, usize)>::from_json_value(&Value::Array(vec![Value::UInt(1)])).is_err());
    }

    #[test]
    fn vec_roundtrip() {
        let xs = vec![1.5f32, -2.0, 0.25];
        let back = Vec::<f32>::from_json_value(&xs.to_json_value()).unwrap();
        assert_eq!(xs, back);
    }
}
