//! Typed deltas between query states — the incremental cache's brain.
//!
//! Every state-editing operator calls `Spreadsheet::invalidate`, which
//! diffs the cached content fingerprint (`ContentKey`, crate-private)
//! against the new one and records a
//! [`StateDelta`]. `view` then picks the cheapest sound path:
//!
//! * [`StateDelta::Reorganize`] — content identical; re-sort / re-hide
//!   only (the Sec. III-A "organization does not change content" rule).
//! * [`StateDelta::Narrow`] — selections were added or tightened; the
//!   cached canonical rows are re-filtered in place.
//! * [`StateDelta::Widen`] — one selection was removed, loosened or
//!   replaced by an incomparable predicate; the rows its narrowings set
//!   aside are staged back through the query state and merged in.
//! * [`StateDelta::AppendComputed`] / [`StateDelta::RemoveComputed`] —
//!   one computed column appended (rank-last), or columns nothing reads
//!   removed; one column is materialized or the columns are dropped over
//!   the cached rows.
//! * [`StateDelta::Full`] — anything else (rank-crossing, dedup toggles,
//!   mixed edits, a widening whose set-aside rows are unknown) falls back
//!   to the full pipeline.
//!
//! A state whose computed columns only *lost* columns nothing reads (a
//! multi-step undo, say) while its selections also moved classifies as
//! the selection delta: `view` drops those columns from the cache first.
//!
//! **Set-aside rows.** A widening needs the rows the widened selection
//! keeps out. The cache holds, per selection, the base ids of at least
//! every row that fails that selection alone and passes all the others,
//! and never a cached row. Each narrowing adds the rows it drops to the
//! narrowed selections' sets; other sets stay valid supersets, because
//! staging re-applies every selection. A widening stages one set and
//! drops every other (a row that failed two selections may now fail one).
//! A full evaluation knows no set, and a base edit drops them all; a
//! widening without its set is `Full`.
//!
//! **Undo and redo.** `Spreadsheet::restore` keeps the cache when the
//! snapshot's base is the sheet's own (the same `Arc`, epoch and data
//! version) and classifies the restored state like any other edit:
//! undoing an `agg` is [`StateDelta::RemoveComputed`], undoing a `select`
//! is [`StateDelta::Widen`]. A different base drops the cache with
//! `Full { reason: "undo/redo restored a different base" }`.
//!
//! The classification is deliberately conservative: a delta is only
//! non-`Full` when re-using the cache provably reproduces what the full
//! `eval` pipeline would compute (DESIGN.md §10 states the invariants).

use crate::computed::{compute_ranks, ComputedColumn};
use crate::state::{volatile_columns, QueryState, SelectionEntry};
use ssa_relation::Expr;
use std::collections::BTreeSet;

/// Fingerprint of the state components that determine the *content* of
/// the evaluated multiset. Grouping, ordering and projection are pure
/// data-*organization* ("they do not change the actual content",
/// Sec. III-A) — when only those change, a cached evaluation can be
/// reorganized instead of recomputed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContentKey {
    pub(crate) selections: Vec<SelectionEntry>,
    pub(crate) computed: Vec<ComputedColumn>,
    pub(crate) dedup: bool,
}

impl ContentKey {
    pub(crate) fn of(state: &QueryState) -> ContentKey {
        ContentKey {
            selections: state.selections.clone(),
            computed: state.computed.clone(),
            dedup: state.dedup,
        }
    }
}

/// How the current query state relates to the most recent cached
/// evaluation — computed by [`Spreadsheet::invalidate`] on every state
/// edit and readable through [`Spreadsheet::last_delta`].
///
/// [`Spreadsheet::invalidate`]: crate::sheet::Spreadsheet
/// [`Spreadsheet::last_delta`]: crate::sheet::Spreadsheet::last_delta
#[derive(Debug, Clone, PartialEq)]
pub enum StateDelta {
    /// Content is unchanged; at most grouping, ordering or projection
    /// moved. The cached rows are re-sorted (or merely re-hidden) —
    /// never recomputed.
    Reorganize,
    /// Selections were added, or replaced by provably tighter ones
    /// ([`Expr::implies`]): the surviving multiset is a subset of the
    /// cached one, so the cache is narrowed by re-filtering its rows
    /// with `predicates` and re-aggregating what the smaller multiset
    /// invalidates. The base ids of the rows it drops join the
    /// *set-aside rows* of each narrowed selection, which a later
    /// [`StateDelta::Widen`] of that selection merges back.
    Narrow {
        /// The predicates that separate the new live set from the cached
        /// one (added selections and tightened replacements).
        predicates: Vec<Expr>,
    },
    /// Exactly one selection was removed, or replaced by a predicate it
    /// does not imply (a loosening or an incomparable one), and no other
    /// selection changed. The cache keeps, per selection, the base ids
    /// of (at least) every row that fails that selection alone and
    /// passes all the others; those rows are staged through the new
    /// state and merged into canonical order by base id and into the
    /// presentation order, and every aggregate is refolded over the
    /// merged rows. Recorded only when that set is known and the
    /// base-edit gates allow it; otherwise the edit records
    /// `Full { reason }`.
    Widen {
        /// The widened selection.
        id: u64,
        /// Its new predicate, or `None` when the selection was removed.
        predicate: Option<Expr>,
    },
    /// Exactly one computed column was appended, and it lands rank-last,
    /// so materializing it over the cached rows reproduces the full
    /// pipeline's layout.
    AppendComputed {
        /// Name of the appended column.
        name: String,
    },
    /// Computed columns were removed, none of them read by a remaining
    /// column or by any selection (one `dropcol`, or a multi-step undo
    /// past several `agg`/`formula` edits); the cache drops them in
    /// place.
    RemoveComputed {
        /// Names of the removed columns, in definition order.
        names: Vec<String>,
    },
    /// Base-data rows were appended. The new rows flowed through the
    /// cached compiled selections, merge-inserted into the presentation
    /// permutation and group tree, and bumped the per-group aggregate
    /// accumulators — the query state itself is unchanged.
    RowsAppended {
        /// How many base rows the edit appended.
        count: usize,
    },
    /// Base-data rows were deleted; the cache narrowed by the survivor
    /// mask (aggregates recompute per retracted group — the
    /// recompute-on-retract rule that keeps Min/Max exact).
    RowsDeleted {
        /// How many base rows the edit removed.
        count: usize,
    },
    /// Base-data cells were updated in place (the key-change analysis
    /// proved no group membership, selection verdict or presentation
    /// position could move; otherwise the edit is modeled as
    /// delete + append and reports those deltas instead).
    CellsUpdated {
        /// How many cells the edit overwrote.
        count: usize,
    },
    /// No sound shortcut: re-run the full pipeline.
    Full {
        /// Why the classifier fell back (for tests and debugging).
        reason: &'static str,
    },
}

impl StateDelta {
    /// Shorthand used by tests: does this delta avoid the full pipeline?
    pub fn is_incremental(&self) -> bool {
        !matches!(self, StateDelta::Full { .. })
    }
}

impl std::fmt::Display for StateDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDelta::Reorganize => write!(f, "reorganize"),
            StateDelta::Narrow { predicates } => {
                write!(f, "narrow ({} predicate(s))", predicates.len())
            }
            StateDelta::AppendComputed { name } => write!(f, "append computed `{name}`"),
            StateDelta::Widen { id, predicate } => match predicate {
                None => write!(f, "widen (selection #{id} removed)"),
                Some(_) => write!(f, "widen (selection #{id} replaced)"),
            },
            StateDelta::RemoveComputed { names } => {
                write!(f, "remove computed ")?;
                for (i, name) in names.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}`{name}`")?;
                }
                Ok(())
            }
            StateDelta::RowsAppended { count } => write!(f, "rows appended ({count})"),
            StateDelta::RowsDeleted { count } => write!(f, "rows deleted ({count})"),
            StateDelta::CellsUpdated { count } => write!(f, "cells updated ({count})"),
            StateDelta::Full { reason } => write!(f, "full ({reason})"),
        }
    }
}

/// Diff a cached content key against the current one.
///
/// `base_columns` are the base relation's column names (rank 0 for the
/// precedence analysis of Sec. IV-B).
///
/// Returns the delta and the computed columns the cache drops before
/// taking it: the removed columns of a [`StateDelta::RemoveComputed`],
/// or, when the selections moved too, the columns nothing reads any more
/// that a multi-step undo took away beside a selection edit. The list is
/// empty for every other delta, `Full` included.
pub(crate) fn classify(
    old: &ContentKey,
    new: &ContentKey,
    base_columns: &BTreeSet<String>,
) -> (StateDelta, Vec<String>) {
    // Failpoint: declare no sound delta, forcing callers onto the full
    // evaluation path (exercises the fallback under fault injection).
    #[cfg(feature = "fault-injection")]
    if ssa_relation::fault::should_fire("delta.classify") {
        let reason = "fault injected";
        return (StateDelta::Full { reason }, Vec::new());
    }
    if old == new {
        return (StateDelta::Reorganize, Vec::new());
    }
    if old.dedup != new.dedup {
        // Dedup works on *base* tuples, upstream of every selection: a
        // toggle re-decides which duplicates survive — not a subset of
        // the cached rows in general.
        let reason = "duplicate elimination toggled";
        return (StateDelta::Full { reason }, Vec::new());
    }
    if old.computed == new.computed {
        return (classify_selections(old, new), Vec::new());
    }
    let Some(removed) = removed_columns(old, new) else {
        let delta = if old.selections == new.selections {
            classify_appended(old, new, base_columns)
        } else {
            StateDelta::Full {
                reason: "selections and computed columns both changed",
            }
        };
        return (delta, Vec::new());
    };
    if old.selections == new.selections {
        // Remaining columns keep their ranks (no removed column had
        // dependents), so the cached layout minus those columns is
        // exactly the fresh layout.
        let names = removed.clone();
        return (StateDelta::RemoveComputed { names }, removed);
    }
    // Selections moved too (an undo past several edits, say): the cache
    // drops the removed columns first, then takes the selection delta.
    match classify_selections(old, new) {
        full @ StateDelta::Full { .. } => (full, Vec::new()),
        delta => (delta, removed),
    }
}

/// The one computed-column edit besides a removal that the cache can
/// take: a single column appended rank-last.
fn classify_appended(
    old: &ContentKey,
    new: &ContentKey,
    base_columns: &BTreeSet<String>,
) -> StateDelta {
    let (old_cols, new_cols) = (&old.computed, &new.computed);
    if new_cols.len() != old_cols.len() + 1 || new_cols[..old_cols.len()] != **old_cols {
        return StateDelta::Full {
            reason: "computed columns changed",
        };
    }
    // The canonical layout orders computed columns by *rank* (stable
    // within a rank), not by definition order: the append shortcut is
    // only layout-preserving when the new column's rank is >= every
    // existing one, i.e. it lands in the last schema position exactly as
    // a plain append would.
    let Some(ranks) = compute_ranks(base_columns, new_cols) else {
        return StateDelta::Full {
            reason: "computed dependencies do not resolve",
        };
    };
    let max_prior = ranks[..old_cols.len()].iter().copied().max().unwrap_or(0);
    if ranks[old_cols.len()] < max_prior {
        return StateDelta::Full {
            reason: "appended computed column is not rank-last",
        };
    }
    StateDelta::AppendComputed {
        name: new_cols[old_cols.len()].name.clone(),
    }
}

/// If `new`'s computed columns are `old`'s with one or more removed
/// (order preserved), and nothing in either state still reads a removed
/// column — no remaining computed column, no selection — return the
/// removed names. The cache can then drop them in place: every other
/// column keeps its rank, values and position order.
fn removed_columns(old: &ContentKey, new: &ContentKey) -> Option<Vec<String>> {
    if new.computed.len() >= old.computed.len() {
        return None;
    }
    let mut removed = Vec::new();
    let mut j = 0;
    for c in &old.computed {
        if j < new.computed.len() && new.computed[j] == *c {
            j += 1;
        } else {
            removed.push(c.name.clone());
        }
    }
    if j != new.computed.len() {
        return None;
    }
    let read = |cols: BTreeSet<String>| cols.iter().any(|c| removed.contains(c));
    let still_read = new.computed.iter().any(|c| read(c.def.dependencies()))
        || old
            .selections
            .iter()
            .chain(&new.selections)
            .any(|s| read(s.predicate.columns()));
    (!still_read).then_some(removed)
}

fn classify_selections(old: &ContentKey, new: &ContentKey) -> StateDelta {
    // Sound narrowing needs selections to commute with the cached
    // step-3/step-4 interleaving: a predicate over an aggregate (or
    // anything downstream of one) reads values that re-aggregation over
    // the narrowed multiset will change — the Sec. IV-B rank-crossing
    // case, which must replay the full pipeline.
    let volatile = volatile_columns(&new.computed);
    let reads_volatile = |e: &Expr| e.columns().iter().any(|c| volatile.contains(c));
    if new.selections.iter().any(|s| reads_volatile(&s.predicate)) {
        return StateDelta::Full {
            reason: "a selection reads an aggregate-dependent column",
        };
    }
    let mut predicates = Vec::new();
    let mut widened: Vec<(&SelectionEntry, Option<Expr>)> = Vec::new();
    for o in &old.selections {
        match new.selections.iter().find(|n| n.id == o.id) {
            None => widened.push((o, None)),
            Some(n) if n.predicate == o.predicate => {}
            Some(n) if n.predicate.implies(&o.predicate) => {
                predicates.push(n.predicate.clone());
            }
            Some(n) => widened.push((o, Some(n.predicate.clone()))),
        }
    }
    for n in &new.selections {
        if !old.selections.iter().any(|o| o.id == n.id) {
            predicates.push(n.predicate.clone());
        }
    }
    match widened.pop() {
        None => StateDelta::Narrow { predicates },
        Some(_) if !widened.is_empty() || !predicates.is_empty() => StateDelta::Full {
            reason: "several selections edited at once, one of them widened",
        },
        Some((o, _)) if reads_volatile(&o.predicate) => StateDelta::Full {
            reason: "the widened selection read an aggregate-dependent column",
        },
        Some((o, predicate)) => StateDelta::Widen {
            id: o.id,
            predicate,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_relation::AggFunc;

    fn key(selections: Vec<(u64, Expr)>, computed: Vec<ComputedColumn>, dedup: bool) -> ContentKey {
        ContentKey {
            selections: selections
                .into_iter()
                .map(|(id, predicate)| SelectionEntry { id, predicate })
                .collect(),
            computed,
            dedup,
        }
    }

    fn base() -> BTreeSet<String> {
        ["Price", "Year", "Model"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn lt(col: &str, v: i64) -> Expr {
        Expr::col(col).lt(Expr::lit(v))
    }

    #[test]
    fn identical_content_is_reorganize() {
        let k = key(vec![(1, lt("Price", 100))], vec![], false);
        assert_eq!(classify(&k, &k.clone(), &base()).0, StateDelta::Reorganize);
    }

    #[test]
    fn added_and_tightened_selections_narrow() {
        let old = key(vec![(1, lt("Price", 100))], vec![], false);
        let added = key(
            vec![(1, lt("Price", 100)), (2, lt("Year", 2005))],
            vec![],
            false,
        );
        assert_eq!(
            classify(&old, &added, &base()).0,
            StateDelta::Narrow {
                predicates: vec![lt("Year", 2005)]
            }
        );
        let tightened = key(vec![(1, lt("Price", 50))], vec![], false);
        assert_eq!(
            classify(&old, &tightened, &base()).0,
            StateDelta::Narrow {
                predicates: vec![lt("Price", 50)]
            }
        );
    }

    #[test]
    fn widening_and_removal_classify_widen() {
        let old = key(vec![(1, lt("Price", 100))], vec![], false);
        let widened = key(vec![(1, lt("Price", 200))], vec![], false);
        assert_eq!(
            classify(&old, &widened, &base()).0,
            StateDelta::Widen {
                id: 1,
                predicate: Some(lt("Price", 200))
            }
        );
        let incomparable = key(vec![(1, lt("Year", 2005))], vec![], false);
        assert_eq!(
            classify(&old, &incomparable, &base()).0,
            StateDelta::Widen {
                id: 1,
                predicate: Some(lt("Year", 2005))
            }
        );
        let removed = key(vec![], vec![], false);
        assert_eq!(
            classify(&old, &removed, &base()).0,
            StateDelta::Widen {
                id: 1,
                predicate: None
            }
        );
    }

    #[test]
    fn widening_beside_other_selection_edits_falls_back() {
        let old = key(
            vec![(1, lt("Price", 100)), (2, lt("Year", 2005))],
            vec![],
            false,
        );
        let both = key(vec![(2, lt("Year", 2004))], vec![], false);
        assert_eq!(
            classify(&old, &both, &base()).0,
            StateDelta::Full {
                reason: "several selections edited at once, one of them widened"
            }
        );
        let two_removed = key(vec![], vec![], false);
        assert!(!classify(&old, &two_removed, &base()).0.is_incremental());
    }

    #[test]
    fn removing_several_computed_columns_with_a_selection_edit() {
        let f = ComputedColumn::formula("Double", Expr::col("Price").mul(Expr::lit(2)));
        let agg = ComputedColumn::aggregate("Avg_Price", AggFunc::Avg, "Price", 1, Vec::new());
        let old = key(vec![], vec![f.clone(), agg.clone()], false);
        let none = key(vec![], vec![], false);
        let both = vec!["Double".to_string(), "Avg_Price".to_string()];
        assert_eq!(
            classify(&old, &none, &base()),
            (
                StateDelta::RemoveComputed {
                    names: both.clone()
                },
                both.clone()
            )
        );
        // Removal plus an added selection: the selection delta, with the
        // removed columns trimmed from the cache first.
        let narrowed = key(vec![(1, lt("Price", 100))], vec![], false);
        assert_eq!(
            classify(&old, &narrowed, &base()),
            (
                StateDelta::Narrow {
                    predicates: vec![lt("Price", 100)]
                },
                both
            )
        );
        // A removal beside a selection edit the cache cannot take trims
        // nothing: the full evaluation rebuilds the entry anyway.
        let mixed = key(
            vec![(1, lt("Price", 100)), (2, lt("Year", 2005))],
            vec![f.clone()],
            false,
        );
        let (delta, trim) = classify(&mixed, &none, &base());
        assert!(!delta.is_incremental());
        assert!(trim.is_empty());
        // A removed column still read by a remaining one is not a
        // removal the cache can take.
        let quad = ComputedColumn::formula("Quad", Expr::col("Double").mul(Expr::lit(2)));
        let chained = key(vec![], vec![f.clone(), quad], false);
        let orphan = key(
            vec![],
            vec![ComputedColumn::formula(
                "Quad",
                Expr::col("Double").mul(Expr::lit(2)),
            )],
            false,
        );
        assert!(!classify(&chained, &orphan, &base()).0.is_incremental());
        // A selection over a removed column blocks the trim.
        let reads = key(
            vec![(1, Expr::col("Double").lt(Expr::lit(5)))],
            vec![f],
            false,
        );
        assert!(!classify(&reads, &narrowed, &base()).0.is_incremental());
    }

    #[test]
    fn dedup_toggle_falls_back() {
        let old = key(vec![], vec![], false);
        let new = key(vec![], vec![], true);
        assert!(!classify(&old, &new, &base()).0.is_incremental());
    }

    #[test]
    fn aggregate_reading_selection_falls_back() {
        let agg = ComputedColumn::aggregate("Avg_Price", AggFunc::Avg, "Price", 1, Vec::new());
        let old = key(vec![], vec![agg.clone()], false);
        let new = key(
            vec![(1, Expr::col("Price").le(Expr::col("Avg_Price")))],
            vec![agg],
            false,
        );
        assert_eq!(
            classify(&old, &new, &base()).0,
            StateDelta::Full {
                reason: "a selection reads an aggregate-dependent column"
            }
        );
    }

    #[test]
    fn append_and_remove_computed() {
        let f = ComputedColumn::formula("Double", Expr::col("Price").mul(Expr::lit(2)));
        let old = key(vec![], vec![], false);
        let new = key(vec![], vec![f.clone()], false);
        assert_eq!(
            classify(&old, &new, &base()).0,
            StateDelta::AppendComputed {
                name: "Double".to_string()
            }
        );
        assert_eq!(
            classify(&new, &old, &base()).0,
            StateDelta::RemoveComputed {
                names: vec!["Double".to_string()]
            }
        );
    }

    #[test]
    fn rank_crossing_append_falls_back() {
        // Existing rank-2 column (reads another computed column); a new
        // rank-1 formula would slot *before* it in the canonical layout.
        let f1 = ComputedColumn::formula("Double", Expr::col("Price").mul(Expr::lit(2)));
        let f2 = ComputedColumn::formula("Quad", Expr::col("Double").mul(Expr::lit(2)));
        let old = key(vec![], vec![f1.clone(), f2.clone()], false);
        let low = ComputedColumn::formula("Half", Expr::col("Price").div(Expr::lit(2)));
        let new = key(vec![], vec![f1, f2, low], false);
        assert_eq!(
            classify(&old, &new, &base()).0,
            StateDelta::Full {
                reason: "appended computed column is not rank-last"
            }
        );
    }
}
