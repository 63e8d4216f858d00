//! Offline shim for the subset of `serde` used by this workspace.
//!
//! The build is offline, so instead of the real serde's
//! `Serializer`/`Deserializer` visitor architecture this shim
//! round-trips every type through an owned [`Value`] tree; the
//! companion `serde_json` shim renders/parses that tree as JSON, and
//! the hand-rolled derive (`serde_derive_shim`) generates
//! [`Serialize::to_value`] / [`Deserialize::from_value`] impls. The
//! call-site API — `use serde::{Deserialize, Serialize}`,
//! `#[derive(Serialize, Deserialize)]`, `#[serde(tag, rename_all,
//! default)]`, `serde_json::to_string`/`from_str` — matches the real
//! crates so they can be swapped back in when a registry is available.
//!
//! Only the shapes the derived types hold have impls: `bool`, `i32`,
//! `i64`, `u8`–`u64`, `usize`, `f32`, `f64`, `String`, [`Value`],
//! `Vec<T>`, `[T; N]`, `Option<T>`, `Box<T>` and pairs `(A, B)`.

pub use serde_derive_shim::{Deserialize, Serialize};

/// An owned, JSON-shaped value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

/// A JSON number, preserving integer exactness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    I(i64),
    U(u64),
    F(f64),
}

impl Number {
    pub fn as_f64(self) -> f64 {
        match self {
            Number::I(x) => x as f64,
            Number::U(x) => x as f64,
            Number::F(x) => x,
        }
    }

    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::I(x) => Some(x),
            Number::U(x) => i64::try_from(x).ok(),
            // [-2^63, 2^63), both ends exactly representable.
            Number::F(x)
                if x.fract() == 0.0
                    && (-9223372036854775808.0..9223372036854775808.0).contains(&x) =>
            {
                Some(x as i64)
            }
            Number::F(_) => None,
        }
    }

    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::I(x) => u64::try_from(x).ok(),
            Number::U(x) => Some(x),
            // 2^64, exactly representable: the first float above u64::MAX.
            Number::F(x) if x.fract() == 0.0 && (0.0..18446744073709551616.0).contains(&x) => {
                Some(x as u64)
            }
            Number::F(_) => None,
        }
    }
}

impl Value {
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<Number> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Look up a key in a [`Value::Map`] slice (helper for derived code).
pub fn map_get<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    pub fn expected(what: &str, ty: &str) -> Self {
        DeError(format!("expected {what} while deserializing {ty}"))
    }

    pub fn missing(field: &str, ty: &str) -> Self {
        DeError(format!("missing field `{field}` while deserializing {ty}"))
    }

    pub fn unknown_variant(variant: &str, ty: &str) -> Self {
        DeError(format!("unknown variant `{variant}` for {ty}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization to the [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- primitive impls -------------------------------------------------

macro_rules! impl_serde_int {
    (signed: $($t:ty),*; unsigned: $($u:ty),*) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value { Value::Num(Number::I(*self as i64)) }
            }
            impl Deserialize for $t {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    let n = v.as_num().ok_or_else(|| DeError::expected("number", stringify!($t)))?;
                    let x = n.as_i64().ok_or_else(|| DeError::expected("integer", stringify!($t)))?;
                    <$t>::try_from(x).map_err(|_| DeError::expected("in-range integer", stringify!($t)))
                }
            }
        )*
        $(
            impl Serialize for $u {
                fn to_value(&self) -> Value { Value::Num(Number::U(*self as u64)) }
            }
            impl Deserialize for $u {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    let n = v.as_num().ok_or_else(|| DeError::expected("number", stringify!($u)))?;
                    let x = n.as_u64().ok_or_else(|| DeError::expected("unsigned integer", stringify!($u)))?;
                    <$u>::try_from(x).map_err(|_| DeError::expected("in-range integer", stringify!($u)))
                }
            }
        )*
    };
}

impl_serde_int!(signed: i32, i64; unsigned: u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_num().map(Number::as_f64).ok_or_else(|| DeError::expected("number", "f64"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self as f64))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_num().map(|n| n.as_f64() as f32).ok_or_else(|| DeError::expected("number", "f32"))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str().map(str::to_string).ok_or_else(|| DeError::expected("string", "String"))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(xs) => xs.iter().map(Deserialize::from_value).collect(),
            _ => Err(DeError::expected("sequence", "Vec")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(xs) if xs.len() == N => {
                let items: Vec<T> =
                    xs.iter().map(Deserialize::from_value).collect::<Result<_, _>>()?;
                items.try_into().map_err(|_| DeError::expected("fixed-size array", "[T; N]"))
            }
            _ => Err(DeError::expected("sequence of exact length", "[T; N]")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(xs) if xs.len() == 2 => Ok((A::from_value(&xs[0])?, B::from_value(&xs[1])?)),
            _ => Err(DeError::expected("tuple sequence", "tuple")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.25f64.to_value()).unwrap(), 1.25);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&v.to_value()).unwrap(), None);
        let t = (3u32, 4u32);
        assert_eq!(<(u32, u32)>::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn out_of_range_rejected() {
        let big = Value::Num(Number::U(300));
        assert!(u8::from_value(&big).is_err());
        let neg = Value::Num(Number::I(-1));
        assert!(u32::from_value(&neg).is_err());
        // Integral floats at or above 2^64 fail rather than clamp to u64::MAX.
        let above = Value::Num(Number::F(18500000000000000000.0));
        assert!(u64::from_value(&above).is_err());
        assert!(u64::from_value(&Value::Num(Number::F(18446744073709551616.0))).is_err());
        let below = Value::Num(Number::F(18446744073709549568.0));
        assert_eq!(u64::from_value(&below).unwrap(), 18446744073709549568);
    }

    #[test]
    fn i64_accepts_exactly_the_integral_floats_in_range() {
        let num = |x: f64| Value::Num(Number::F(x));
        assert_eq!(i64::from_value(&num(9.1e18)).unwrap(), 9_100_000_000_000_000_000);
        assert_eq!(i64::from_value(&num(-9223372036854775808.0)).unwrap(), i64::MIN);
        // 2^63 is the first float above i64::MAX.
        assert!(i64::from_value(&num(9223372036854775808.0)).is_err());
    }
}
