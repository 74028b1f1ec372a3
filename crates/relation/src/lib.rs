//! # ssa-relation — relational substrate for the spreadsheet algebra
//!
//! The ICDE 2009 paper's prototype (SheetMusiq) ran against PostgreSQL.
//! This crate is the reproduction's stand-in backend: an in-memory
//! relational engine with
//!
//! * a scalar [`value::Value`] system with a total order and SQL-style
//!   NULL propagation,
//! * [`schema::Schema`] / [`tuple::Tuple`] / [`relation::Relation`]
//!   (multiset semantics) over chunked copy-on-write [`rows::Rows`],
//! * a scalar expression language ([`expr::Expr`]) with a parser
//!   ([`expr_parse`]) shared by the SheetMusiq script language and the SQL
//!   front end,
//! * aggregate functions ([`agg`]),
//! * the classical relational operators ([`ops`]) used both as reference
//!   semantics and as the machinery underneath the spreadsheet algebra,
//! * CSV I/O ([`csv`]) and a base-relation [`catalog::Catalog`].
//!
//! Everything downstream (`spreadsheet-algebra`, `ssa-sql`, `ssa-tpch`,
//! `sheetmusiq`, `ssa-study`) builds on these types.

// Test modules assert freely; the unwrap ban applies to library code only
// (see scripts/verify.sh for the scoped clippy gate).
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod agg;
pub mod catalog;
pub mod compiled;
pub mod csv;
pub mod error;
pub mod expr;
pub mod expr_parse;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod intern;
pub mod ops;
pub mod par;
pub mod relation;
pub mod rng;
pub mod rows;
pub mod schema;
pub mod tuple;
pub mod value;

/// Failpoint probe: expands to `fault::check(site)?` under the expanding
/// crate's `fault-injection` feature and to nothing otherwise, so the
/// injection sites cost zero in production builds. Each crate that hosts
/// sites forwards its own `fault-injection` feature to ssa-relation's.
#[macro_export]
macro_rules! fault_check {
    ($site:literal) => {
        #[cfg(feature = "fault-injection")]
        $crate::fault::check($site)?;
    };
}

pub use agg::{AggFunc, Fold};
pub use catalog::Catalog;
pub use compiled::{BoundExpr, CompiledExpr, PairRow, RowAccess};
pub use error::{RelationError, Result};
pub use expr::{ArithOp, CmpOp, Expr};
pub use intern::Sym;
pub use relation::{ColumnSlice, Relation};
pub use rows::Rows;
pub use schema::{Column, Schema};
pub use tuple::{RowValues, Tuple};
pub use value::{Value, ValueType};
