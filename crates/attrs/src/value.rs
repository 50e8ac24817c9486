//! Attribute values.

use std::fmt;

/// The value half of an ECho `<name, value>` quality-attribute tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

impl AttrValue {
    /// Integer view; `Float` values are truncated, others are `None`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            AttrValue::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Float view; `Int` values are widened, others are `None`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Float(f) => Some(*f),
            AttrValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(AttrValue::Int(3).as_float(), Some(3.0));
        assert_eq!(AttrValue::Float(2.9).as_int(), Some(2));
        assert_eq!(AttrValue::Bool(true).as_bool(), Some(true));
        assert_eq!(AttrValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(AttrValue::Bool(true).as_int(), None);
        assert_eq!(AttrValue::Int(1).as_str(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(AttrValue::from(5i64), AttrValue::Int(5));
        assert_eq!(AttrValue::from(0.5), AttrValue::Float(0.5));
        assert_eq!(AttrValue::from("hi"), AttrValue::Str("hi".into()));
        assert_eq!(AttrValue::from(7u32), AttrValue::Int(7));
    }

    #[test]
    fn display() {
        assert_eq!(AttrValue::Int(4).to_string(), "4");
        assert_eq!(AttrValue::Bool(false).to_string(), "false");
    }
}
