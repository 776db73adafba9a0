//! Offline drop-in shim for the subset of `serde` this workspace uses.
//!
//! Instead of upstream serde's visitor machinery, (de)serialization goes
//! through an explicit [`Value`] tree: `Serialize` renders a value tree,
//! `Deserialize` rebuilds from one. The `serde_json` shim then maps the
//! tree to/from JSON text. The derive macros (`serde_derive` shim) emit
//! impls of these traits with upstream-compatible representations:
//! structs as maps, newtype structs as their inner value, tuple structs
//! as sequences, and enums externally tagged.

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing tree of (de)serialized data — the interchange format
/// between `Serialize`, `Deserialize`, and the `serde_json` shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON objects preserve field order).
    Map(Vec<(String, Value)>),
}

/// Types renderable to a [`Value`] tree.
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`de::DeError`] when the tree's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, de::DeError>;
}

pub mod de {
    //! Deserialization error support.

    /// Error produced when a value tree does not match the target type.
    #[derive(Debug, Clone)]
    pub struct DeError(pub String);

    impl std::fmt::Display for DeError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for DeError {}

    /// Mirror of `serde::de::Error`: constructible from a display-able
    /// message. Implemented by [`DeError`] and by `serde_json::Error`.
    pub trait Error: Sized {
        /// Builds an error carrying `msg`.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for DeError {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            DeError(msg.to_string())
        }
    }
}

#[doc(hidden)]
pub mod __private {
    //! Helpers called by `serde_derive`-generated code. Not public API.

    use super::{de::DeError, Value};

    pub fn as_map<'a>(v: &'a Value, ty: &str) -> Result<&'a [(String, Value)], DeError> {
        match v {
            Value::Map(m) => Ok(m),
            other => Err(DeError(format!("{ty}: expected map, got {other:?}"))),
        }
    }

    pub fn as_seq<'a>(v: &'a Value, len: usize, ty: &str) -> Result<&'a [Value], DeError> {
        match v {
            Value::Seq(s) if s.len() == len => Ok(s),
            Value::Seq(s) => Err(DeError(format!(
                "{ty}: expected sequence of {len}, got {}",
                s.len()
            ))),
            other => Err(DeError(format!("{ty}: expected sequence, got {other:?}"))),
        }
    }

    pub fn field<'a>(m: &'a [(String, Value)], name: &str, ty: &str) -> Result<&'a Value, DeError> {
        m.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| DeError(format!("{ty}: missing field `{name}`")))
    }

    pub fn unknown_variant(got: &str, ty: &str) -> DeError {
        DeError(format!("{ty}: unknown variant `{got}`"))
    }

    pub fn invalid_type(ty: &str, v: &Value) -> DeError {
        DeError(format!("{ty}: value has wrong shape: {v:?}"))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(de::DeError(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, de::DeError> {
                let n = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => {
                        return Err(de::DeError(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    de::DeError(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, de::DeError> {
                let n = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) if *n <= i64::MAX as u64 => *n as i64,
                    other => {
                        return Err(de::DeError(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    de::DeError(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            other => Err(de::DeError(format!("expected float, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(de::DeError(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        match v {
            Value::Seq(s) => s.iter().map(T::from_value).collect(),
            other => Err(de::DeError(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
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
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for std::collections::BTreeMap<String, T> {
    fn from_value(v: &Value) -> Result<Self, de::DeError> {
        crate::__private::as_map(v, "BTreeMap")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_value(v)?)))
            .collect()
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident : $i:tt),+) of $n:expr;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, de::DeError> {
                let s = crate::__private::as_seq(v, $n, "tuple")?;
                Ok(($($t::from_value(&s[$i])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0) of 1;
    (A: 0, B: 1) of 2;
    (A: 0, B: 1, C: 2) of 3;
    (A: 0, B: 1, C: 2, D: 3) of 4;
}
