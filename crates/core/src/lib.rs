//! # spreadsheet-algebra
//!
//! A faithful implementation of the spreadsheet algebra from
//! *"A Spreadsheet Algebra for a Direct Data Manipulation Query
//! Interface"* (Liu & Jagadish, ICDE 2009).
//!
//! The unit of manipulation is a [`sheet::Spreadsheet`] — a recursively
//! grouped, ordered multiset of tuples `S = (R, C, G, O)` over a base
//! relation. The algebra's operators are methods on it:
//!
//! | Paper | Method | Notes |
//! |---|---|---|
//! | τ grouping (Def. 3) | [`sheet::Spreadsheet::group`] | strict-superset basis; new innermost level |
//! | λ ordering (Def. 4) | [`sheet::Spreadsheet::order`] | three cases, incl. grouping destruction |
//! | σ selection (Def. 5) | [`sheet::Spreadsheet::select`] | predicate retained in query state |
//! | π projection (Def. 6) | [`sheet::Spreadsheet::project_out`] | one column; inverse via [`sheet::Spreadsheet::reinstate`] |
//! | × product (Def. 7) | [`sheet::Spreadsheet::product`] | with a [`sheet::StoredSheet`]; non-commutativity point |
//! | ∪ / − (Defs. 8–9) | [`sheet::Spreadsheet::union`] / [`sheet::Spreadsheet::difference`] | multiset semantics |
//! | ⋈ join (Def. 10) | [`sheet::Spreadsheet::join`] | arbitrary condition |
//! | η aggregation (Def. 11) | [`sheet::Spreadsheet::aggregate`] | computed column, value repeated per group |
//! | θ formula (Def. 12) | [`sheet::Spreadsheet::formula`] | row-wise computed column |
//! | δ DE (Def. 13) | [`sheet::Spreadsheet::dedup`] | duplicates of `R`-tuples |
//! | Save/Open/Rename (III-C) | [`sheet::Spreadsheet::save`] / [`sheet::Spreadsheet::open`] / [`sheet::Spreadsheet::rename`] | |
//!
//! Unary operators edit a modifiable [`state::QueryState`]; the canonical
//! [`eval`] pipeline gives the state one deterministic meaning, which is
//! what makes the unary operators commute (Theorem 2 — see
//! [`precedence`]) and query modification equal to history rewriting
//! (Theorem 3 — see the state-editing methods and [`history::Engine`]).
//!
//! ```
//! use spreadsheet_algebra::prelude::*;
//!
//! let mut sheet = Spreadsheet::over(spreadsheet_algebra::fixtures::used_cars());
//! sheet.group(&["Model"], Direction::Desc).unwrap();
//! sheet.group(&["Model", "Year"], Direction::Asc).unwrap();
//! sheet.order("Price", Direction::Asc, 3).unwrap();
//! let avg = sheet.aggregate(AggFunc::Avg, "Price", 3).unwrap();
//! let id = sheet.select(Expr::col("Price").le(Expr::col(&avg))).unwrap();
//! let view = sheet.view().unwrap();
//! assert_eq!(view.len(), 6);
//! // later: Sam changes his mind — modify the retained predicate
//! sheet.replace_selection(id, Expr::col("Price").lt(Expr::col(&avg))).unwrap();
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod computed;
pub mod delta;
pub mod error;
pub mod eval;
pub mod fixtures;
pub mod history;
pub mod modify;
mod persist;
pub mod plan;
pub mod precedence;
pub mod render;
pub mod replica;
pub mod sheet;
pub mod spec;
pub mod state;
pub mod storage;
pub mod tree;

pub use computed::{ComputedColumn, ComputedDef};
pub use delta::StateDelta;
pub use error::{Result, SheetError};
pub use eval::{evaluate, evaluate_with, Derived, EvalOptions};
pub use history::{Engine, OpRecord};
pub use modify::RemovalPlan;
pub use plan::{join_with_pushdown, plan_tables, Plan, PlanNode, TablePlan};
pub use precedence::{may_commute, precedes, AlgebraOp, OpSignature};
pub use replica::{
    EventId, EventKey, MergeOutcome, MergePath, OpEvent, Replica, SheetOp, VersionVector,
};
pub use sheet::{Spreadsheet, StoredSheet};
pub use spec::{Direction, GroupLevel, OrderKey, Spec};
pub use state::{QueryState, SelectionEntry};
pub use storage::wal::{DurableSheet, FsyncPolicy, WalWriter};
pub use storage::{open_paged, open_sheet, save_sheet, save_sheet_json, PagedSheet, SheetFile};
pub use tree::{GroupNode, GroupTree, RowRange};

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::history::Engine;
    pub use crate::precedence::AlgebraOp;
    pub use crate::render::{render_markdown, render_table, render_tree};
    pub use crate::sheet::{Spreadsheet, StoredSheet};
    pub use crate::spec::{Direction, OrderKey};
    pub use ssa_relation::{AggFunc, CmpOp, Expr, Relation, Value};
}
