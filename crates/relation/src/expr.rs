//! Scalar expressions: the condition/formula language of the algebra.
//!
//! Selection conditions (Def. 5) are built from atomic predicates
//! `A OP B` — where `A`, `B` are column names or constants with optional
//! arithmetic or string operators — connected with AND/OR/NOT. Formula
//! computation (Def. 12) uses the same arithmetic core. One AST serves
//! both, so query state can uniformly attach predicates to the columns
//! they reference (Sec. V-A).

use crate::error::{RelationError, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The test applied to an [`Ordering`].
    pub fn test(self) -> fn(Ordering) -> bool {
        match self {
            CmpOp::Eq => Ordering::is_eq,
            CmpOp::Ne => Ordering::is_ne,
            CmpOp::Lt => Ordering::is_lt,
            CmpOp::Le => Ordering::is_le,
            CmpOp::Gt => Ordering::is_gt,
            CmpOp::Ge => Ordering::is_ge,
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// A scalar expression over one row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A column reference by name.
    Col(String),
    /// A constant.
    Lit(Value),
    /// Arithmetic between two sub-expressions (`+` also concatenates
    /// strings).
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Unary numeric negation.
    Neg(Box<Expr>),
    /// Comparison producing Bool (or Null when a side is NULL).
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical conjunction (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation (NULL stays NULL).
    Not(Box<Expr>),
    /// `IS NULL` test (never NULL itself).
    IsNull(Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// Conditional: `CASE WHEN cond THEN a ELSE b END` (extension — the
    /// paper's prototype did not support CASE; see DESIGN.md §7).
    /// A NULL condition selects the ELSE branch.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div build AST nodes
impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Lit(value.into())
    }

    /// `self OP other` comparison.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), op, Box::new(other))
    }

    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    pub fn lt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Lt, other)
    }

    pub fn le(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Le, other)
    }

    pub fn gt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Gt, other)
    }

    pub fn ge(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ge, other)
    }

    pub fn ne(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ne, other)
    }

    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    // The `add`/`sub`/`mul`/`div` builder methods intentionally mirror the
    // std::ops trait names — they build AST nodes rather than compute, and
    // the fluent style (`Expr::col("a").add(Expr::lit(1))`) is the point.
    /// `CASE WHEN cond THEN self ELSE otherwise END`.
    pub fn if_else(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    pub fn arith(self, op: ArithOp, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), op, Box::new(other))
    }

    pub fn add(self, other: Expr) -> Expr {
        self.arith(ArithOp::Add, other)
    }

    pub fn sub(self, other: Expr) -> Expr {
        self.arith(ArithOp::Sub, other)
    }

    pub fn mul(self, other: Expr) -> Expr {
        self.arith(ArithOp::Mul, other)
    }

    pub fn div(self, other: Expr) -> Expr {
        self.arith(ArithOp::Div, other)
    }

    /// Evaluate the expression against one row.
    pub fn eval(&self, schema: &Schema, tuple: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(name) => {
                let idx = schema.index_of(name)?;
                Ok(tuple[idx])
            }
            Expr::Lit(v) => Ok(*v),
            Expr::Arith(a, op, b) => {
                let (x, y) = (a.eval(schema, tuple)?, b.eval(schema, tuple)?);
                match op {
                    ArithOp::Add => x.add(&y),
                    ArithOp::Sub => x.sub(&y),
                    ArithOp::Mul => x.mul(&y),
                    ArithOp::Div => x.div(&y),
                    ArithOp::Mod => x.rem(&y),
                }
            }
            Expr::Neg(a) => a.eval(schema, tuple)?.neg(),
            Expr::Cmp(a, op, b) => {
                let (x, y) = (a.eval(schema, tuple)?, b.eval(schema, tuple)?);
                Ok(x.sql_cmp(&y, op.test()))
            }
            Expr::And(a, b) => {
                // Three-valued AND: false dominates, NULL otherwise infects.
                let x = a.eval(schema, tuple)?;
                if let Value::Bool(false) = x {
                    return Ok(Value::Bool(false));
                }
                let y = b.eval(schema, tuple)?;
                match (x, y) {
                    (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                    (Value::Bool(true), Value::Bool(true)) => Ok(Value::Bool(true)),
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (x, y) => Err(RelationError::TypeMismatch {
                        context: format!("AND on non-boolean operands `{x}`, `{y}`"),
                    }),
                }
            }
            Expr::Or(a, b) => {
                let x = a.eval(schema, tuple)?;
                if let Value::Bool(true) = x {
                    return Ok(Value::Bool(true));
                }
                let y = b.eval(schema, tuple)?;
                match (x, y) {
                    (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                    (Value::Bool(false), Value::Bool(false)) => Ok(Value::Bool(false)),
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (x, y) => Err(RelationError::TypeMismatch {
                        context: format!("OR on non-boolean operands `{x}`, `{y}`"),
                    }),
                }
            }
            Expr::Not(a) => match a.eval(schema, tuple)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                v => Err(RelationError::TypeMismatch {
                    context: format!("NOT on non-boolean operand `{v}`"),
                }),
            },
            Expr::IsNull(a) => Ok(Value::Bool(a.eval(schema, tuple)?.is_null())),
            Expr::Like(a, pattern) => match a.eval(schema, tuple)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(like_match(pattern, s.as_str()))),
                v => Err(RelationError::TypeMismatch {
                    context: format!("LIKE on non-string operand `{v}`"),
                }),
            },
            Expr::If(cond, then, otherwise) => {
                if cond.eval(schema, tuple)?.is_true() {
                    then.eval(schema, tuple)
                } else {
                    otherwise.eval(schema, tuple)
                }
            }
        }
    }

    /// Evaluate as a predicate: `true` iff the result is `Bool(true)`,
    /// `false` for `Bool(false)` and `Null` (SQL keeps only TRUE rows).
    /// Any other value is a malformed condition and raises
    /// [`RelationError::NotBoolean`] so the interface can report the
    /// condition itself rather than silently dropping every row.
    pub fn matches(&self, schema: &Schema, tuple: &[Value]) -> Result<bool> {
        match self.eval(schema, tuple)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            v => Err(RelationError::NotBoolean {
                found: v.to_string(),
            }),
        }
    }

    /// The set of column names this expression references. Query state
    /// attaches each selection/FC predicate to exactly these columns
    /// (Sec. V-A), and the precedence relation of Sec. IV-B is computed
    /// from them.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Col(name) => {
                out.insert(name.clone());
            }
            Expr::Lit(_) => {}
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Neg(a) | Expr::Not(a) | Expr::IsNull(a) | Expr::Like(a, _) => {
                a.collect_columns(out)
            }
            Expr::If(c, t, e) => {
                c.collect_columns(out);
                t.collect_columns(out);
                e.collect_columns(out);
            }
        }
    }

    /// Rewrite every column reference via `f` (used when columns are
    /// renamed, and by the Theorem-1 translator to qualify names).
    pub fn map_columns(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Col(name) => Expr::Col(f(name)),
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Arith(a, op, b) => {
                Expr::Arith(Box::new(a.map_columns(f)), *op, Box::new(b.map_columns(f)))
            }
            Expr::Neg(a) => Expr::Neg(Box::new(a.map_columns(f))),
            Expr::Cmp(a, op, b) => {
                Expr::Cmp(Box::new(a.map_columns(f)), *op, Box::new(b.map_columns(f)))
            }
            Expr::And(a, b) => Expr::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Not(a) => Expr::Not(Box::new(a.map_columns(f))),
            Expr::IsNull(a) => Expr::IsNull(Box::new(a.map_columns(f))),
            Expr::Like(a, p) => Expr::Like(Box::new(a.map_columns(f)), p.clone()),
            Expr::If(c, t, e) => Expr::If(
                Box::new(c.map_columns(f)),
                Box::new(t.map_columns(f)),
                Box::new(e.map_columns(f)),
            ),
        }
    }

    /// Split a conjunctive condition into its AND-ed factors, borrowed
    /// (any nesting of `And`; a non-conjunction is its own single factor).
    /// The join planner classifies these without cloning the tree.
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Split a conjunctive condition into owned AND-ed factors
    /// (used to separate join conditions from residual selections in the
    /// Theorem-1 construction, Step 2).
    pub fn conjuncts(&self) -> Vec<Expr> {
        self.split_conjuncts().into_iter().cloned().collect()
    }

    /// Factor a join condition over `combined` (the product schema whose
    /// first `left_width` columns come from the left operand) into
    /// equi-key column pairs plus a residual predicate.
    ///
    /// A conjunct of the shape `Col(a) = Col(b)` with the two columns
    /// resolving to *opposite* sides of the product contributes the pair
    /// `(left index, right index)` — the right index rebased into the
    /// right operand's own schema. Every other conjunct (non-equality,
    /// same-side equality, compound operands, unresolvable names) stays
    /// in the residual, so `keys AND residual ≡ self` row-for-row: an
    /// equality over non-NULL keys holds exactly when the hash keys
    /// collide, and a NULL on either side makes the conjunct non-TRUE,
    /// which is the hash join's "Null keys never match" rule.
    pub fn extract_equi_keys(
        &self,
        left_width: usize,
        combined: &Schema,
    ) -> (Vec<(usize, usize)>, Option<Expr>) {
        let mut keys = Vec::new();
        let mut residual = Vec::new();
        for conjunct in self.split_conjuncts() {
            let pair = match conjunct {
                Expr::Cmp(a, CmpOp::Eq, b) => match (a.as_ref(), b.as_ref()) {
                    (Expr::Col(x), Expr::Col(y)) => {
                        match (combined.index_of(x), combined.index_of(y)) {
                            (Ok(ix), Ok(iy)) if ix < left_width && iy >= left_width => {
                                Some((ix, iy - left_width))
                            }
                            (Ok(ix), Ok(iy)) if iy < left_width && ix >= left_width => {
                                Some((iy, ix - left_width))
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                },
                _ => None,
            };
            match pair {
                Some(p) => keys.push(p),
                None => residual.push(conjunct.clone()),
            }
        }
        (keys, Expr::conjoin(residual))
    }

    /// Re-join conjuncts into a single condition; `None` when empty.
    pub fn conjoin(mut factors: Vec<Expr>) -> Option<Expr> {
        let first = if factors.is_empty() {
            return None;
        } else {
            factors.remove(0)
        };
        Some(factors.into_iter().fold(first, |acc, e| acc.and(e)))
    }

    /// Conservative syntactic entailment: `true` means every row on
    /// which `self` evaluates to `TRUE` also makes `other` `TRUE` (under
    /// the three-valued semantics where only `TRUE` keeps a row), so a
    /// selection tightened from `other` to `self` can be applied by
    /// re-filtering an existing result. `false` means *unknown* — never
    /// "does not imply" — so callers must treat it as "fall back".
    ///
    /// Decomposes conjunctions/disjunctions on both sides and decides
    /// atomic `column OP literal` pairs on the same column by interval
    /// reasoning over [`Value`]'s total order (which is exactly the
    /// order [`Value::sql_cmp`] tests, so the reasoning is sound even
    /// across mixed-type literals).
    pub fn implies(&self, other: &Expr) -> bool {
        if self == other {
            return true;
        }
        // other = a AND b: must imply both halves.
        if let Expr::And(a, b) = other {
            return self.implies(a) && self.implies(b);
        }
        // self = a OR b: both alternatives must imply `other`.
        if let Expr::Or(a, b) = self {
            return a.implies(other) && b.implies(other);
        }
        // self = a AND b: either conjunct alone implying `other` suffices.
        if let Expr::And(a, b) = self {
            if a.implies(other) || b.implies(other) {
                return true;
            }
        }
        // other = a OR b: implying either alternative suffices.
        if let Expr::Or(a, b) = other {
            if self.implies(a) || self.implies(b) {
                return true;
            }
        }
        match (self.as_column_cmp(), other.as_column_cmp()) {
            (Some((col, op, v)), Some((ocol, oop, ov))) if col == ocol => {
                atom_implies(op, &v, oop, &ov)
            }
            _ => false,
        }
    }

    /// Normalize an atomic comparison between a column and a literal to
    /// `(column, op, literal)`, flipping `literal OP column` forms.
    fn as_column_cmp(&self) -> Option<(&str, CmpOp, Value)> {
        match self {
            Expr::Cmp(a, op, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => Some((c, *op, *v)),
                (Expr::Lit(v), Expr::Col(c)) => Some((c, op.flipped(), *v)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Decompose a pure conjunction of `column OP literal` atoms (any
    /// nesting of `And`, either operand order) into its normalized atom
    /// list; `None` when any leaf is something else. Engines use this to
    /// filter on direct value comparisons — `sql_cmp` semantics, no
    /// per-row expression walk — for the overwhelmingly common predicate
    /// shape.
    pub fn as_column_cmp_conjunction(&self) -> Option<Vec<(&str, CmpOp, Value)>> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<(&'a str, CmpOp, Value)>) -> bool {
            match e {
                Expr::And(a, b) => walk(a, out) && walk(b, out),
                _ => match e.as_column_cmp() {
                    Some(atom) => {
                        out.push(atom);
                        true
                    }
                    None => false,
                },
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out).then_some(out)
    }

    /// OR-join a list of alternatives (used by the `IN (…)` desugaring);
    /// `None` when empty.
    pub fn conjoin_or(mut alternatives: Vec<Expr>) -> Option<Expr> {
        let first = if alternatives.is_empty() {
            return None;
        } else {
            alternatives.remove(0)
        };
        Some(alternatives.into_iter().fold(first, |acc, e| acc.or(e)))
    }
}

/// Does `v OP1 x` entail `v OP2 y` for every non-null `v`? Set-inclusion
/// over the intervals the two atoms carve out of [`Value`]'s total order.
fn atom_implies(op: CmpOp, x: &Value, oop: CmpOp, y: &Value) -> bool {
    if x.is_null() {
        // `col OP NULL` never evaluates to TRUE: vacuously implies anything.
        return true;
    }
    if y.is_null() {
        // The consequent can never hold while the antecedent can.
        return false;
    }
    let c = x.cmp(y);
    match (op, oop) {
        // {x} ⊆ S₂ iff x itself satisfies OP2 against y.
        (CmpOp::Eq, _) => oop.test()(c),
        // "everything but x" only fits inside "everything but x".
        (CmpOp::Ne, CmpOp::Ne) => c.is_eq(),
        (CmpOp::Lt, CmpOp::Lt | CmpOp::Le | CmpOp::Ne) | (CmpOp::Le, CmpOp::Le) => c.is_le(),
        (CmpOp::Le, CmpOp::Lt | CmpOp::Ne) => c.is_lt(),
        (CmpOp::Gt, CmpOp::Gt | CmpOp::Ge | CmpOp::Ne) | (CmpOp::Ge, CmpOp::Ge) => c.is_ge(),
        (CmpOp::Ge, CmpOp::Gt | CmpOp::Ne) => c.is_gt(),
        _ => false,
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
/// Crate-visible so the compiled evaluation path shares one definition.
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Dynamic programming over pattern × text.
    let (np, nt) = (p.len(), t.len());
    let mut dp = vec![vec![false; nt + 1]; np + 1];
    dp[0][0] = true;
    for i in 1..=np {
        if p[i - 1] == '%' {
            dp[i][0] = dp[i - 1][0];
        }
    }
    for i in 1..=np {
        for j in 1..=nt {
            dp[i][j] = match p[i - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && c == t[j - 1],
            };
        }
    }
    dp[np][nt]
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => f.write_str(name),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(Value::Null) => f.write_str("NULL"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Arith(a, op, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Cmp(a, op, b) => write!(f, "{a} {} {b}", op.symbol()),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "NOT ({a})"),
            Expr::IsNull(a) => write!(f, "{a} IS NULL"),
            Expr::Like(a, p) => write!(f, "{a} LIKE '{p}'"),
            Expr::If(c, t, e) => write!(f, "CASE WHEN {c} THEN {t} ELSE {e} END"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::tuple::Tuple;
    use crate::value::ValueType::*;

    fn schema() -> Schema {
        Schema::of(&[("Model", Str), ("Price", Int), ("Year", Int), ("Note", Str)])
    }

    fn row() -> Tuple {
        tuple!["Jetta", 14500, 2005, "good value"]
    }

    #[test]
    fn column_and_literal() {
        let s = schema();
        let t = row();
        assert_eq!(
            Expr::col("Model").eval(&s, &t).unwrap(),
            Value::str("Jetta")
        );
        assert_eq!(Expr::lit(5).eval(&s, &t).unwrap(), Value::Int(5));
        assert!(Expr::col("Ghost").eval(&s, &t).is_err());
    }

    #[test]
    fn arithmetic_expression() {
        let s = schema();
        let t = row();
        // 2 * Price + 100
        let e = Expr::lit(2).mul(Expr::col("Price")).add(Expr::lit(100));
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Int(29100));
    }

    #[test]
    fn comparison_and_logic() {
        let s = schema();
        let t = row();
        let late = Expr::col("Year").ge(Expr::lit(2005));
        let cheap = Expr::col("Price").lt(Expr::lit(15000));
        assert!(late.clone().and(cheap.clone()).matches(&s, &t).unwrap());
        assert!(!late
            .clone()
            .and(cheap.clone().not())
            .matches(&s, &t)
            .unwrap());
        assert!(late.or(cheap).matches(&s, &t).unwrap());
    }

    #[test]
    fn three_valued_logic_with_null() {
        let s = Schema::of(&[("x", Int)]);
        let t = Tuple::new(vec![Value::Null]);
        let p = Expr::col("x").gt(Expr::lit(0));
        assert_eq!(p.eval(&s, &t).unwrap(), Value::Null);
        assert!(!p.clone().matches(&s, &t).unwrap());
        // NULL OR true = true; NULL AND false = false
        assert_eq!(
            p.clone().or(Expr::lit(true)).eval(&s, &t).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            p.clone().and(Expr::lit(false)).eval(&s, &t).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(p.clone().not().eval(&s, &t).unwrap(), Value::Null);
        assert_eq!(
            Expr::IsNull(Box::new(Expr::col("x"))).eval(&s, &t).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn and_or_reject_non_boolean() {
        let s = Schema::of(&[("x", Int)]);
        let t = tuple![1];
        assert!(Expr::col("x").and(Expr::lit(true)).eval(&s, &t).is_err());
        assert!(Expr::col("x").or(Expr::lit(false)).eval(&s, &t).is_err());
        assert!(Expr::col("x").not().eval(&s, &t).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%etta", "Jetta"));
        assert!(like_match("J%", "Jetta"));
        assert!(like_match("J_tta", "Jetta"));
        assert!(!like_match("J_ta", "Jetta"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("a%b%c", "aXXbYYc"));
    }

    #[test]
    fn like_expr_null_and_type() {
        let s = Schema::of(&[("m", Str), ("n", Int)]);
        let t = tuple!["Jetta", 1];
        let e = Expr::Like(Box::new(Expr::col("m")), "J%".into());
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Bool(true));
        let bad = Expr::Like(Box::new(Expr::col("n")), "J%".into());
        assert!(bad.eval(&s, &t).is_err());
    }

    #[test]
    fn columns_collects_all_references() {
        let e = Expr::col("Price")
            .lt(Expr::col("Avg_Price"))
            .and(Expr::col("Year").eq(Expr::lit(2005)));
        let cols = e.columns();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["Avg_Price".to_string(), "Price".into(), "Year".into()]
        );
    }

    #[test]
    fn map_columns_rewrites() {
        let e = Expr::col("a").add(Expr::col("b"));
        let m = e.map_columns(&|c| format!("t.{c}"));
        assert_eq!(
            m.columns().into_iter().collect::<Vec<_>>(),
            vec!["t.a".to_string(), "t.b".into()]
        );
    }

    #[test]
    fn conjuncts_split_and_rejoin() {
        let e = Expr::col("a")
            .gt(Expr::lit(1))
            .and(Expr::col("b").lt(Expr::lit(2)))
            .and(Expr::col("c").eq(Expr::lit(3)));
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        let rejoined = Expr::conjoin(parts).unwrap();
        assert_eq!(rejoined, e);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn matches_surfaces_non_boolean_condition() {
        let s = schema();
        let t = row();
        // A condition that evaluates to an Int is a malformed predicate,
        // not "false": it must raise the typed error.
        let e = Expr::col("Price").add(Expr::lit(1));
        assert!(matches!(
            e.matches(&s, &t),
            Err(RelationError::NotBoolean { .. })
        ));
        let err = e.matches(&s, &t).unwrap_err();
        assert!(err.to_string().contains("non-boolean"), "{err}");
        // Bool and Null results keep their SQL meaning.
        assert!(Expr::lit(true).matches(&s, &t).unwrap());
        assert!(!Expr::lit(Value::Null).matches(&s, &t).unwrap());
    }

    #[test]
    fn split_conjuncts_borrows_factors() {
        let e = Expr::col("a")
            .gt(Expr::lit(1))
            .and(Expr::col("b").lt(Expr::lit(2)));
        let parts = e.split_conjuncts();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], &Expr::col("a").gt(Expr::lit(1)));
        // A non-conjunction is its own single factor.
        assert_eq!(Expr::lit(true).split_conjuncts().len(), 1);
    }

    #[test]
    fn extract_equi_keys_factors_join_conditions() {
        // Combined schema: left = (Model, Price), right = (Name, Cap).
        let left = Schema::of(&[("Model", Str), ("Price", Int)]);
        let right = Schema::of(&[("Name", Str), ("Cap", Int)]);
        let combined = left.product(&right, "r");

        // Pure equi-join, either operand order.
        let e = Expr::col("Model").eq(Expr::col("Name"));
        assert_eq!(e.extract_equi_keys(2, &combined), (vec![(0, 0)], None));
        let flipped = Expr::col("Name").eq(Expr::col("Model"));
        assert_eq!(
            flipped.extract_equi_keys(2, &combined),
            (vec![(0, 0)], None)
        );

        // Multi-key plus residual: both keys extracted, residual re-joined.
        let resid = Expr::col("Price").lt(Expr::lit(100));
        let e = Expr::col("Model")
            .eq(Expr::col("Name"))
            .and(Expr::col("Price").eq(Expr::col("Cap")))
            .and(resid.clone());
        assert_eq!(
            e.extract_equi_keys(2, &combined),
            (vec![(0, 0), (1, 1)], Some(resid.clone()))
        );

        // Same-side equality, non-equality comparisons, and compound
        // operands all stay residual.
        for e in [
            Expr::col("Model").eq(Expr::col("Price")),
            Expr::col("Price").lt(Expr::col("Cap")),
            Expr::col("Price").add(Expr::lit(1)).eq(Expr::col("Cap")),
            Expr::col("Model").eq(Expr::col("Name")).or(resid.clone()),
        ] {
            let (keys, residual) = e.extract_equi_keys(2, &combined);
            assert!(keys.is_empty(), "{e}");
            assert_eq!(residual, Some(e));
        }
    }

    #[test]
    fn display_is_sql_like() {
        let e = Expr::col("Price")
            .lt(Expr::lit(15000))
            .and(Expr::col("Model").eq(Expr::lit("Jetta")));
        assert_eq!(e.to_string(), "(Price < 15000 AND Model = 'Jetta')");
    }

    #[test]
    fn if_else_selects_branch() {
        let s = Schema::of(&[("x", Int)]);
        let t = tuple![5];
        let e = Expr::if_else(
            Expr::col("x").gt(Expr::lit(3)),
            Expr::lit("big"),
            Expr::lit("small"),
        );
        assert_eq!(e.eval(&s, &t).unwrap(), Value::str("big"));
        let t = tuple![1];
        assert_eq!(e.eval(&s, &t).unwrap(), Value::str("small"));
    }

    #[test]
    fn if_else_null_condition_takes_else() {
        let s = Schema::of(&[("x", Int)]);
        let t = Tuple::new(vec![Value::Null]);
        let e = Expr::if_else(Expr::col("x").gt(Expr::lit(3)), Expr::lit(1), Expr::lit(0));
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Int(0));
    }

    #[test]
    fn if_else_columns_and_display() {
        let e = Expr::if_else(
            Expr::col("a").gt(Expr::lit(0)),
            Expr::col("b"),
            Expr::col("c"),
        );
        assert_eq!(e.columns().len(), 3);
        assert_eq!(e.to_string(), "CASE WHEN a > 0 THEN b ELSE c END");
        let m = e.map_columns(&|c| format!("t.{c}"));
        assert!(m.columns().contains("t.b"));
    }

    #[test]
    fn short_circuit_does_not_mask_errors_on_false_side() {
        // AND short-circuits on false left operand without evaluating right
        let s = Schema::of(&[("x", Int)]);
        let t = tuple![0];
        let e = Expr::lit(false).and(Expr::col("ghost").gt(Expr::lit(1)));
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Bool(false));
        let e = Expr::lit(true).or(Expr::col("ghost").gt(Expr::lit(1)));
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Bool(true));
    }

    fn price(op: fn(Expr, Expr) -> Expr, v: i64) -> Expr {
        op(Expr::col("Price"), Expr::lit(v))
    }

    #[test]
    fn implies_structural() {
        let a = price(Expr::lt, 100);
        let b = Expr::col("Year").ge(Expr::lit(2005));
        assert!(a.implies(&a));
        assert!(a.clone().and(b.clone()).implies(&a));
        assert!(a.clone().and(b.clone()).implies(&b));
        assert!(a.implies(&a.clone().or(b.clone())));
        assert!(a.clone().or(b.clone()).implies(&b.clone().or(a.clone())));
        // A conjunction is implied only when both halves are.
        assert!(!a.implies(&a.clone().and(b.clone())));
        // Different columns never entail each other.
        assert!(!a.implies(&b));
    }

    #[test]
    fn implies_intervals() {
        assert!(price(Expr::lt, 100).implies(&price(Expr::lt, 200)));
        assert!(price(Expr::lt, 100).implies(&price(Expr::le, 100)));
        assert!(price(Expr::le, 99).implies(&price(Expr::lt, 100)));
        assert!(price(Expr::gt, 200).implies(&price(Expr::ge, 200)));
        assert!(price(Expr::ge, 201).implies(&price(Expr::gt, 200)));
        assert!(price(Expr::eq, 5).implies(&price(Expr::le, 5)));
        assert!(price(Expr::eq, 5).implies(&price(Expr::ne, 6)));
        assert!(price(Expr::lt, 5).implies(&price(Expr::ne, 5)));
        assert!(price(Expr::gt, 5).implies(&price(Expr::ne, 5)));
        // Flipped literal-first atoms normalize: 100 > Price ⇔ Price < 100.
        let flipped = Expr::lit(100).gt(Expr::col("Price"));
        assert!(flipped.implies(&price(Expr::lt, 200)));
        // Widening directions must be rejected.
        assert!(!price(Expr::lt, 200).implies(&price(Expr::lt, 100)));
        assert!(!price(Expr::le, 100).implies(&price(Expr::lt, 100)));
        assert!(!price(Expr::ne, 5).implies(&price(Expr::lt, 5)));
        assert!(!price(Expr::ge, 5).implies(&price(Expr::gt, 5)));
    }

    #[test]
    fn implies_null_literals() {
        // `Price < NULL` is never TRUE: it vacuously implies anything,
        // and nothing satisfiable implies it.
        let never = Expr::col("Price").lt(Expr::lit(Value::Null));
        assert!(never.implies(&price(Expr::gt, 1_000_000)));
        assert!(!price(Expr::lt, 100).implies(&never));
    }
}
