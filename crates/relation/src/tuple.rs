//! Tuples: fixed-width rows of [`Value`]s.
//!
//! A [`Tuple`] owns its values; it is how rows are built and handed to a
//! relation. A relation stores its rows flat and lends them out as
//! `&[Value]` slices (see [`crate::rows`]), which a `&Tuple` also derefs
//! to, so code that reads rows takes `&[Value]`.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

/// A row of values. The width must always equal the owning relation's
/// schema width; [`crate::relation::Relation`] enforces this on insert.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Append a value (used when a computed column is added).
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Remove the value at `idx` (used by projection on materialized rows).
    pub fn remove(&mut self, idx: usize) -> Value {
        self.values.remove(idx)
    }

    /// Concatenate two tuples (used by product/join).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Project the tuple onto the given index positions (in that order).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices.iter().map(|&i| self.values[i]).collect(),
        }
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl From<&[Value]> for Tuple {
    fn from(values: &[Value]) -> Self {
        Tuple::new(values.to_vec())
    }
}

impl Deref for Tuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl AsRef<[Value]> for Tuple {
    fn as_ref(&self) -> &[Value] {
        &self.values
    }
}

/// Hash, equality and order agree with the slice's, so maps keyed by
/// `Tuple` can be probed with a borrowed `&[Value]` row.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

/// `values()` on a borrowed `&[Value]` row, as on a [`Tuple`], so code
/// written against owned rows reads stored rows unchanged (the core
/// crate's prelude re-exports it).
pub trait RowValues {
    fn values(&self) -> &[Value];
}

impl RowValues for [Value] {
    fn values(&self) -> &[Value] {
        self
    }
}

/// Build a tuple from heterogeneous literals: `tuple![1, "Jetta", 14500]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use crate::value::Value;

    #[test]
    fn macro_builds_mixed_tuple() {
        let t = tuple![304, "Jetta", 14500.0, true];
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0), &Value::Int(304));
        assert_eq!(t.get(1), &Value::str("Jetta"));
        assert_eq!(t.get(2), &Value::Float(14500.0));
        assert_eq!(t.get(3), &Value::Bool(true));
    }

    #[test]
    fn concat_and_project() {
        let a = tuple![1, "x"];
        let b = tuple![2.5];
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        let p = c.project(&[2, 0]);
        assert_eq!(p, tuple![2.5, 1]);
    }

    #[test]
    fn push_set_remove() {
        let mut t = tuple![1, 2];
        t.push(Value::Int(3));
        t.set(0, Value::str("a"));
        assert_eq!(t, tuple!["a", 2, 3]);
        assert_eq!(t.remove(1), Value::Int(2));
        assert_eq!(t, tuple!["a", 3]);
    }

    #[test]
    fn tuples_order_lexicographically() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1, 2] < tuple![2, 0]);
        assert_eq!(tuple![1, 2], tuple![1, 2]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
    }
}
