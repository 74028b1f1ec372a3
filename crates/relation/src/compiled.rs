//! Pre-compiled expressions for the index-vector evaluation engine.
//!
//! [`crate::Expr`] resolves column names against a [`crate::Schema`] on
//! every row it touches and clones every leaf value. For a tight
//! per-row loop over 10⁵ tuples that name lookup and cloning dominate, so
//! the engine compiles an `Expr` once — resolving each column reference to
//! a *slot* id — and then evaluates against anything implementing
//! [`RowAccess`]. Leaf nodes return `Cow::Borrowed(&Value)`, so
//! comparisons and logic never clone; only arithmetic allocates (it must
//! produce a new value anyway).
//!
//! Semantics are identical to `Expr::eval`, including three-valued logic
//! and short-circuiting; the differential tests in the core crate pin
//! this.

use crate::error::{RelationError, Result};
use crate::expr::{like_match, ArithOp, CmpOp, Expr};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;

/// Row-shaped access by slot id. Implemented by a `[Value]` row and a
/// [`Tuple`] (slot = column position) and by the evaluation engine's hybrid base-plus-computed-
/// buffers row view.
pub trait RowAccess {
    fn slot(&self, idx: usize) -> &Value;
}

impl RowAccess for [Value] {
    fn slot(&self, idx: usize) -> &Value {
        &self[idx]
    }
}

impl RowAccess for Tuple {
    fn slot(&self, idx: usize) -> &Value {
        self.get(idx)
    }
}

impl RowAccess for [&Value] {
    fn slot(&self, idx: usize) -> &Value {
        self[idx]
    }
}

/// Two rows viewed as one concatenated row — left columns first, then
/// right. The join probe evaluates bound residual predicates on candidate
/// pairs through this view, so non-matching pairs never materialize a
/// concatenated [`Tuple`].
#[derive(Clone, Copy)]
pub struct PairRow<'a> {
    pub left: &'a [Value],
    pub right: &'a [Value],
    pub left_width: usize,
}

impl RowAccess for PairRow<'_> {
    fn slot(&self, idx: usize) -> &Value {
        if idx < self.left_width {
            &self.left[idx]
        } else {
            &self.right[idx - self.left_width]
        }
    }
}

/// An [`Expr`] with every column reference resolved to a slot id.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    Slot(usize),
    Lit(Value),
    Arith(Box<CompiledExpr>, ArithOp, Box<CompiledExpr>),
    Neg(Box<CompiledExpr>),
    Cmp(Box<CompiledExpr>, CmpOp, Box<CompiledExpr>),
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
    Not(Box<CompiledExpr>),
    IsNull(Box<CompiledExpr>),
    Like(Box<CompiledExpr>, String),
    If(Box<CompiledExpr>, Box<CompiledExpr>, Box<CompiledExpr>),
}

impl CompiledExpr {
    /// Compile `expr`, resolving each column name through `resolve`.
    /// Unresolvable names error with the unknown column's name.
    pub fn compile(
        expr: &Expr,
        resolve: &mut dyn FnMut(&str) -> Option<usize>,
    ) -> Result<CompiledExpr> {
        let mut go = |e: &Expr| CompiledExpr::compile(e, &mut *resolve);
        // Each arm recurses with the same resolver; boxed to keep the
        // shape parallel to `Expr`.
        Ok(match expr {
            Expr::Col(name) => match resolve(name) {
                Some(slot) => CompiledExpr::Slot(slot),
                None => {
                    return Err(RelationError::UnknownColumn { name: name.clone() });
                }
            },
            Expr::Lit(v) => CompiledExpr::Lit(*v),
            Expr::Arith(a, op, b) => CompiledExpr::Arith(Box::new(go(a)?), *op, Box::new(go(b)?)),
            Expr::Neg(a) => CompiledExpr::Neg(Box::new(go(a)?)),
            Expr::Cmp(a, op, b) => CompiledExpr::Cmp(Box::new(go(a)?), *op, Box::new(go(b)?)),
            Expr::And(a, b) => CompiledExpr::And(Box::new(go(a)?), Box::new(go(b)?)),
            Expr::Or(a, b) => CompiledExpr::Or(Box::new(go(a)?), Box::new(go(b)?)),
            Expr::Not(a) => CompiledExpr::Not(Box::new(go(a)?)),
            Expr::IsNull(a) => CompiledExpr::IsNull(Box::new(go(a)?)),
            Expr::Like(a, p) => CompiledExpr::Like(Box::new(go(a)?), p.clone()),
            Expr::If(c, t, e) => {
                CompiledExpr::If(Box::new(go(c)?), Box::new(go(t)?), Box::new(go(e)?))
            }
        })
    }

    /// Evaluate against one row. Column and literal leaves are returned
    /// borrowed; computed nodes own their result.
    pub fn eval<'a, R: RowAccess + ?Sized>(&'a self, row: &'a R) -> Result<Cow<'a, Value>> {
        match self {
            CompiledExpr::Slot(idx) => Ok(Cow::Borrowed(row.slot(*idx))),
            CompiledExpr::Lit(v) => Ok(Cow::Borrowed(v)),
            CompiledExpr::Arith(a, op, b) => {
                let (x, y) = (a.eval(row)?, b.eval(row)?);
                let v = match op {
                    ArithOp::Add => x.add(&y),
                    ArithOp::Sub => x.sub(&y),
                    ArithOp::Mul => x.mul(&y),
                    ArithOp::Div => x.div(&y),
                    ArithOp::Mod => x.rem(&y),
                }?;
                Ok(Cow::Owned(v))
            }
            CompiledExpr::Neg(a) => Ok(Cow::Owned(a.eval(row)?.neg()?)),
            CompiledExpr::Cmp(a, op, b) => {
                let (x, y) = (a.eval(row)?, b.eval(row)?);
                Ok(Cow::Owned(x.sql_cmp(&y, op.test())))
            }
            CompiledExpr::And(a, b) => {
                let x = a.eval(row)?;
                if let Value::Bool(false) = *x {
                    return Ok(Cow::Owned(Value::Bool(false)));
                }
                let y = b.eval(row)?;
                match (&*x, &*y) {
                    (_, Value::Bool(false)) => Ok(Cow::Owned(Value::Bool(false))),
                    (Value::Bool(true), Value::Bool(true)) => Ok(Cow::Owned(Value::Bool(true))),
                    (Value::Null, _) | (_, Value::Null) => Ok(Cow::Owned(Value::Null)),
                    (x, y) => Err(RelationError::TypeMismatch {
                        context: format!("AND on non-boolean operands `{x}`, `{y}`"),
                    }),
                }
            }
            CompiledExpr::Or(a, b) => {
                let x = a.eval(row)?;
                if let Value::Bool(true) = *x {
                    return Ok(Cow::Owned(Value::Bool(true)));
                }
                let y = b.eval(row)?;
                match (&*x, &*y) {
                    (_, Value::Bool(true)) => Ok(Cow::Owned(Value::Bool(true))),
                    (Value::Bool(false), Value::Bool(false)) => Ok(Cow::Owned(Value::Bool(false))),
                    (Value::Null, _) | (_, Value::Null) => Ok(Cow::Owned(Value::Null)),
                    (x, y) => Err(RelationError::TypeMismatch {
                        context: format!("OR on non-boolean operands `{x}`, `{y}`"),
                    }),
                }
            }
            CompiledExpr::Not(a) => match &*a.eval(row)? {
                Value::Bool(b) => Ok(Cow::Owned(Value::Bool(!b))),
                Value::Null => Ok(Cow::Owned(Value::Null)),
                v => Err(RelationError::TypeMismatch {
                    context: format!("NOT on non-boolean operand `{v}`"),
                }),
            },
            CompiledExpr::IsNull(a) => Ok(Cow::Owned(Value::Bool(a.eval(row)?.is_null()))),
            CompiledExpr::Like(a, pattern) => match &*a.eval(row)? {
                Value::Null => Ok(Cow::Owned(Value::Null)),
                Value::Str(s) => Ok(Cow::Owned(Value::Bool(like_match(pattern, s.as_str())))),
                v => Err(RelationError::TypeMismatch {
                    context: format!("LIKE on non-string operand `{v}`"),
                }),
            },
            CompiledExpr::If(cond, then, otherwise) => {
                if cond.eval(row)?.is_true() {
                    then.eval(row)
                } else {
                    otherwise.eval(row)
                }
            }
        }
    }

    /// Evaluate to an owned value (for filling column buffers).
    pub fn eval_owned<R: RowAccess + ?Sized>(&self, row: &R) -> Result<Value> {
        Ok(self.eval(row)?.into_owned())
    }

    /// Evaluate as a predicate: `true` iff the result is `Bool(true)`,
    /// `false` for `Bool(false)`/`Null`. Other results raise
    /// [`RelationError::NotBoolean`], mirroring [`Expr::matches`].
    pub fn matches<R: RowAccess + ?Sized>(&self, row: &R) -> Result<bool> {
        match &*self.eval(row)? {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            v => Err(RelationError::NotBoolean {
                found: v.to_string(),
            }),
        }
    }
}

/// An [`Expr`] bound to one fixed [`Schema`]: every column name resolved
/// to its index exactly once, at [`Expr::bind`] time. The hot loops of
/// the hash-join engine evaluate these against [`RowAccess`] rows and
/// never touch `Schema::index_of` per row.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundExpr {
    compiled: CompiledExpr,
}

impl Expr {
    /// Bind this expression to `schema`, resolving every column reference
    /// to its index. Unknown columns error here — once — instead of on
    /// the first row evaluated.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        let compiled = CompiledExpr::compile(self, &mut |name| schema.index_of(name).ok())?;
        Ok(BoundExpr { compiled })
    }
}

impl BoundExpr {
    /// Evaluate against one row (semantics of [`Expr::eval`]).
    pub fn eval<R: RowAccess + ?Sized>(&self, row: &R) -> Result<Value> {
        self.compiled.eval_owned(row)
    }

    /// Evaluate as a predicate (semantics of [`Expr::matches`]).
    pub fn matches<R: RowAccess + ?Sized>(&self, row: &R) -> Result<bool> {
        self.compiled.matches(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType::{Int, Str};

    fn compile_for(schema: &Schema, e: &Expr) -> CompiledExpr {
        CompiledExpr::compile(e, &mut |n| schema.index_of(n).ok()).unwrap()
    }

    #[test]
    fn compiled_matches_interpreted() {
        let schema = Schema::of(&[("Model", Str), ("Price", Int), ("Year", Int)]);
        let rows = [
            tuple!["Jetta", 14500, 2005],
            tuple!["Civic", 16000, 2006],
            tuple![Value::Null, 13000, 2004],
        ];
        let exprs = [
            Expr::col("Price").lt(Expr::lit(15000)),
            Expr::col("Model")
                .eq(Expr::lit("Jetta"))
                .or(Expr::col("Year").ge(Expr::lit(2006))),
            Expr::col("Price").add(Expr::col("Year")).mul(Expr::lit(2)),
            Expr::Neg(Box::new(Expr::col("Price"))),
            Expr::IsNull(Box::new(Expr::col("Model"))),
            Expr::Like(Box::new(Expr::col("Model")), "J%".into()),
            Expr::if_else(
                Expr::col("Year").gt(Expr::lit(2005)),
                Expr::lit("new"),
                Expr::lit("old"),
            ),
            Expr::col("Model").eq(Expr::lit("Jetta")).not(),
            Expr::col("Price")
                .gt(Expr::lit(0))
                .and(Expr::col("Year").gt(Expr::lit(2005))),
        ];
        for e in &exprs {
            let c = compile_for(&schema, e);
            for t in &rows {
                assert_eq!(
                    c.eval_owned(t).unwrap(),
                    e.eval(&schema, t).unwrap(),
                    "expr {e} on {t}"
                );
            }
        }
    }

    #[test]
    fn leaves_are_borrowed() {
        let schema = Schema::of(&[("Model", Str)]);
        let t = tuple!["Jetta"];
        let c = compile_for(&schema, &Expr::col("Model"));
        assert!(matches!(c.eval(&t).unwrap(), Cow::Borrowed(_)));
        let c = compile_for(&schema, &Expr::lit(5));
        assert!(matches!(c.eval(&t).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        let schema = Schema::of(&[("x", Int)]);
        let err = CompiledExpr::compile(&Expr::col("Ghost").gt(Expr::lit(1)), &mut |n| {
            schema.index_of(n).ok()
        })
        .unwrap_err();
        assert!(matches!(err, RelationError::UnknownColumn { .. }));
    }

    #[test]
    fn errors_match_interpreted_semantics() {
        let schema = Schema::of(&[("x", Int)]);
        let t = tuple![1];
        // AND on a non-boolean operand errors in both paths.
        let e = Expr::col("x").and(Expr::lit(true));
        let c = compile_for(&schema, &e);
        assert!(c.eval_owned(&t).is_err());
        assert!(e.eval(&schema, &t).is_err());
        // short-circuit still hides the unevaluated side
        let e = Expr::lit(false).and(Expr::col("x"));
        let c = compile_for(&schema, &e);
        assert_eq!(c.eval_owned(&t).unwrap(), Value::Bool(false));
    }

    #[test]
    fn slice_of_refs_is_a_row() {
        let a = Value::Int(10);
        let b = Value::Int(32);
        let row: Vec<&Value> = vec![&a, &b];
        let e = CompiledExpr::Arith(
            Box::new(CompiledExpr::Slot(0)),
            ArithOp::Add,
            Box::new(CompiledExpr::Slot(1)),
        );
        assert_eq!(e.eval_owned(row.as_slice()).unwrap(), Value::Int(42));
    }
}
