//! Atomic values: integers, floats, strings, booleans.

use std::fmt;

/// An atomic object value.
///
/// Floats are compared bitwise (via `to_bits`) so that `Value` can be `Eq`,
/// `Ord`, and `Hash` — the data model never needs IEEE comparison, only
/// identity of stored constants.
#[derive(Clone, Debug)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A floating-point number (bitwise identity semantics).
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// A stable discriminant used for ordering across variants.
    fn tag(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.to_bits().cmp(&b.to_bits()),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.tag().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => {
                // The data-graph and query parsers read `\x` as `x`, so
                // only `\` and `"` are escaped; every other character
                // (newline, NUL, combining marks) is printed as is.
                f.write_str("\"")?;
                let mut rest = s.as_str();
                while let Some(i) = rest.find(['\\', '"']) {
                    f.write_str(&rest[..i])?;
                    f.write_str("\\")?;
                    f.write_str(&rest[i..=i])?;
                    rest = &rest[i + 1..];
                }
                f.write_str(rest)?;
                f.write_str("\"")
            }
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_within_variants() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Float(3.0));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn float_bitwise_identity() {
        assert_eq!(Value::Float(0.5), Value::Float(0.5));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn hashable_in_sets() {
        let mut s = HashSet::new();
        s.insert(Value::Int(1));
        s.insert(Value::Int(1));
        s.insert(Value::from("a"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.75).to_string(), "2.75");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Value::from("b"),
            Value::Int(2),
            Value::Bool(false),
            Value::Float(1.0),
            Value::Int(1),
        ];
        v.sort();
        assert_eq!(v[0], Value::Int(1));
        assert_eq!(v[1], Value::Int(2));
    }
}
