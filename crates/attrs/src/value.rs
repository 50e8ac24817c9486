//! Attribute values.

/// The value half of an ECho `<name, value>` quality-attribute tuple:
/// every attribute the mechanisms read is a number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
}

impl AttrValue {
    /// Integer view; a `Float` is truncated.
    pub fn as_int(self) -> i64 {
        match self {
            AttrValue::Int(i) => i,
            AttrValue::Float(f) => f as i64,
        }
    }

    /// Float view; an `Int` is widened.
    pub fn as_float(self) -> f64 {
        match self {
            AttrValue::Float(f) => f,
            AttrValue::Int(i) => i as f64,
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(AttrValue::Int(3).as_float(), 3.0);
        assert_eq!(AttrValue::Float(2.9).as_int(), 2);
        assert_eq!(AttrValue::Float(-2.9).as_int(), -2);
    }

    #[test]
    fn from_impls() {
        assert_eq!(AttrValue::from(5i64), AttrValue::Int(5));
        assert_eq!(AttrValue::from(0.5), AttrValue::Float(0.5));
    }
}
