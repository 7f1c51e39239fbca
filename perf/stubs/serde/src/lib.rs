//! Offline stand-in for the subset of `serde` 1.x that coded-curtain uses:
//! `#[derive(Serialize, Deserialize)]` on plain data types, consumed only by
//! `serde_json::{to_string, from_str}`. The data model is a JSON-shaped
//! [`Value`] tree, not the published crate's visitor API; enums are
//! externally tagged and newtype structs transparent, as upstream.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Field lookup used by the derive.
pub fn __field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Map view used by the derive.
pub fn __as_map<'a>(v: &'a Value, ty: &str) -> Result<&'a [(String, Value)], Error> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(Error(format!("{ty}: expected a map, found {other:?}"))),
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => Some(n),
                    Value::I64(n) => u64::try_from(n).ok(),
                    _ => None,
                };
                n.and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error(format!("expected {}, found {v:?}", stringify!($t))))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::I64(n) => Some(n),
                    Value::U64(n) => i64::try_from(n).ok(),
                    _ => None,
                };
                n.and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error(format!("expected {}, found {v:?}", stringify!($t))))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            ref other => Err(Error(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, found {other:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected sequence, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}
