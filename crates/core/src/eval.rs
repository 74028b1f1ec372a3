//! Canonical evaluation: query state × base data → evaluated spreadsheet.
//!
//! Operators in this crate edit the [`QueryState`]; this module gives the
//! state its single, deterministic meaning. Because evaluation is a pure
//! function of `(base, state)`, any two operator sequences that produce
//! the same state produce the same spreadsheet — the engine-level fact
//! behind Theorem 2 (commutativity) and Theorem 3 (state change ≡ history
//! rewrite).
//!
//! The canonical pipeline:
//!
//! 1. start from the base data (all of `R`'s columns, hidden or not);
//! 2. if duplicate elimination is in force, remove duplicate `R`-tuples;
//! 3. process *ranks* in increasing order — materialize the computed
//!    columns of each rank (aggregates are computed over the tuples that
//!    survive the selections of lower ranks), then apply the selections of
//!    that rank. A selection's rank is the maximum rank of the columns it
//!    references, so a predicate over `Avg_Price` runs only after
//!    `Avg_Price` exists: precedence (Sec. IV-B), operationalized;
//! 4. re-materialize every computed column over the final multiset — the
//!    *automatic update* property of computed columns (Sec. III-B);
//! 5. sort into presentation order (group keys level by level, then the
//!    finest-level ordering) and build the group tree.
//!
//! # Two engines
//!
//! The pipeline has two implementations with identical semantics:
//!
//! * the **index-vector engine** (default): evaluation carries a
//!   `Vec<u32>` of surviving row ids over the immutable base snapshot
//!   plus one columnar `Vec<Value>` buffer per computed column.
//!   Selections and formulas run over [`CompiledExpr`]s that read
//!   borrowed `&Value`s straight from the base tuples and buffers; a
//!   [`Relation`] is materialized exactly once, at the end. From
//!   [`PARALLEL_THRESHOLD`] live rows on, the selection, formula,
//!   aggregate and row-gather passes are chunked across threads by
//!   [`chunk_map`], the workspace's one parallel primitive; sorting and
//!   everything else stay sequential.
//! * the **naive engine** ([`EvalOptions::naive`]): the original
//!   row-cloning implementation — each step clones and rewrites whole
//!   relations. It is kept as the differential-testing oracle and the
//!   benchmark baseline, not for production use.

use crate::computed::{ComputedColumn, ComputedDef};
use crate::error::{Result, SheetError};
use crate::spec::Spec;
use crate::state::QueryState;
use crate::tree::{build_tree, GroupTree};
use ssa_relation::compiled::{CompiledExpr, RowAccess};
use ssa_relation::ops;
use ssa_relation::relation::Relation;
use ssa_relation::rows::Rows;
use ssa_relation::schema::{Column, Schema};
use ssa_relation::value::{Value, ValueType};
use ssa_relation::Expr;
use std::collections::{BTreeMap, HashMap, HashSet};

/// An evaluated spreadsheet: data in presentation order, the group tree
/// over it, and the visible columns in display order.
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// All columns (base + computed), rows in presentation order.
    pub data: Relation,
    /// Grouping materialized over `data`'s rows.
    pub tree: GroupTree,
    /// Column names shown to the user, in display order.
    pub visible: Vec<String>,
}

impl Derived {
    /// The user-facing relation: visible columns only, presentation order.
    ///
    /// Errors (rather than panicking) if a visible column is missing from
    /// the data — an internal inconsistency surfaced as a typed error so
    /// callers embedding the engine can recover.
    pub fn visible_relation(&self) -> Result<Relation> {
        let cols: Vec<&str> = self.visible.iter().map(|s| s.as_str()).collect();
        Ok(ops::project(&self.data, &cols)?)
    }

    /// Number of (surviving) tuples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Equality modulo column arrangement.
    ///
    /// Two computed columns created in either order yield the same
    /// spreadsheet *content* but different left-to-right placement ("the
    /// result column appears next to the rightmost column", Sec. VI-A).
    /// Theorem 2's commutativity is about content, so this comparison
    /// checks: same visible column set, same hidden column set, identical
    /// per-column values in presentation order, and the same group tree.
    ///
    /// Comparison is allocation-light: column names are compared as
    /// sorted `&str` slices and values are read in place — no per-call
    /// copies of column vectors.
    pub fn equivalent(&self, other: &Derived) -> bool {
        fn sorted<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
            let mut v: Vec<&str> = names.collect();
            v.sort_unstable();
            v
        }
        let mine = sorted(self.visible.iter().map(String::as_str));
        let theirs = sorted(other.visible.iter().map(String::as_str));
        if mine != theirs {
            return false;
        }
        let my_cols = sorted(self.data.schema().names().into_iter());
        let their_cols = sorted(other.data.schema().names().into_iter());
        if my_cols != their_cols || self.data.len() != other.data.len() {
            return false;
        }
        for name in my_cols {
            let (Ok(i), Ok(j)) = (
                self.data.schema().index_of(name),
                other.data.schema().index_of(name),
            ) else {
                return false;
            };
            let same = self
                .data
                .rows()
                .iter()
                .zip(other.data.rows())
                .all(|(a, b)| a[i] == b[j]);
            if !same {
                return false;
            }
        }
        self.tree == other.tree
    }
}

/// Evaluation engine selection. [`Default`] is the index-vector engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalOptions {
    /// Use the original row-cloning pipeline (differential-test oracle,
    /// bench baseline).
    pub naive: bool,
}

/// Evaluate `state` over `base` with the default engine.
pub fn evaluate(base: &Relation, state: &QueryState) -> Result<Derived> {
    evaluate_with(base, state, EvalOptions::default())
}

/// Evaluate with explicit engine options.
pub fn evaluate_with(base: &Relation, state: &QueryState, opts: EvalOptions) -> Result<Derived> {
    let plan = Plan::prepare(base, state)?;
    if opts.naive {
        evaluate_full_naive(base, state, &plan).map(|(derived, _)| derived)
    } else {
        // No caller for the canonical relation → skip its row gather
        // entirely (the presentation-ordered data is built directly).
        evaluate_indexed(base, state, &plan, false).map(|(derived, _)| derived)
    }
}

/// Evaluate, also returning the *canonical* (pre-presentation-sort) data.
/// The sheet's reorganize fast path re-sorts from this canonical order so
/// tie-breaking matches a from-scratch evaluation exactly (stable sort
/// over base insertion order). The index-vector engine additionally
/// returns the presentation permutation (derived row `j` is canonical row
/// `perm[j]`) and the surviving base row ids (canonical row `i` is base
/// row `base_ids[i]`, ascending) which the delta-aware cache maintains
/// across narrowing and base-data edits; the naive engine returns `None`
/// (its cache never takes the incremental paths).
pub(crate) type Provenance = (Vec<u32>, Vec<u32>);

pub(crate) fn evaluate_full_with(
    base: &Relation,
    state: &QueryState,
    opts: EvalOptions,
) -> Result<(Derived, Relation, Option<Provenance>)> {
    let plan = Plan::prepare(base, state)?;
    if opts.naive {
        let (derived, canonical) = evaluate_full_naive(base, state, &plan)?;
        Ok((derived, canonical, None))
    } else {
        let (derived, canonical) = evaluate_indexed(base, state, &plan, true)?;
        debug_assert!(canonical.is_some(), "canonical requested");
        let (canonical, perm, base_ids) = canonical.ok_or_else(|| SheetError::Internal {
            detail: "canonical relation requested but not produced".into(),
        })?;
        Ok((derived, canonical, Some((perm, base_ids))))
    }
}

// The shared front half of both engines — reference validation, rank
// assignment, and the Theorem-2 rewrites — lives in [`crate::plan`]. Both
// engines consume the same [`Plan`], so rewrites cannot diverge between
// the full evaluator and the incremental delta path; the naive engine
// reads only the unrewritten rank assignment and stays the oracle.
use crate::plan::Plan;

// ---------------------------------------------------------------------
// Index-vector engine
// ---------------------------------------------------------------------

/// Read the value of `slot` for base row `row`: base columns come from
/// the immutable base tuple, computed columns from their buffers.
fn slot_value<'a>(
    base_rows: &'a Rows,
    bufs: &'a [Option<Vec<Value>>],
    width: usize,
    row: u32,
    slot: usize,
) -> &'a Value {
    if slot < width {
        &base_rows[row as usize][slot]
    } else {
        computed_value(bufs, width, row, slot)
    }
}

/// The value of computed `slot` (`slot >= width`) for base row `row`.
#[inline]
fn computed_value(bufs: &[Option<Vec<Value>>], width: usize, row: u32, slot: usize) -> &Value {
    // invariant: rank order materializes dependencies first, so a
    // computed slot is only read after its buffer is filled (the plan
    // orders ranks and `needed` closes over dependencies). Read per
    // value on the hottest path — kept as an expect, not a Result.
    let buf = bufs[slot - width]
        .as_ref()
        .expect("rank order materializes dependencies first");
    &buf[row as usize]
}

/// One live row of the index-vector engine, viewed through slots: the
/// base tuple is resolved once per row, computed slots read their buffers.
#[derive(Clone, Copy)]
struct EngineRow<'a> {
    base: &'a [Value],
    bufs: &'a [Option<Vec<Value>>],
    width: usize,
    row: u32,
}

impl RowAccess for EngineRow<'_> {
    fn slot(&self, idx: usize) -> &Value {
        if idx < self.width {
            &self.base[idx]
        } else {
            computed_value(self.bufs, self.width, self.row, idx)
        }
    }
}

// Chunked scoped-thread execution is shared with the relational
// operators: one implementation, one threshold, one ordering guarantee.
use ssa_relation::par::{chunk_map, PARALLEL_THRESHOLD};

/// Canonical (rank-ordered) relation plus the presentation permutation
/// mapping derived row `j` to canonical row `perm[j]` and the surviving
/// base row ids (canonical row `i` is base row `base_ids[i]`) — handed to
/// the sheet cache when it asks for the canonical form alongside the view.
type Canonical = (Relation, Vec<u32>, Vec<u32>);

fn evaluate_indexed(
    base: &Relation,
    state: &QueryState,
    plan: &Plan,
    want_canonical: bool,
) -> Result<(Derived, Option<Canonical>)> {
    let width = base.schema().len();
    let base_rows = base.rows();

    // Slot table: base columns first, computed columns after, so a slot
    // id addresses the virtual (base ++ computed) row uniformly.
    let mut slots: HashMap<&str, usize> = HashMap::with_capacity(width + state.computed.len());
    for (i, name) in base.schema().names().into_iter().enumerate() {
        slots.insert(name, i);
    }
    for (i, col) in state.computed.iter().enumerate() {
        slots.insert(&col.name, width + i);
    }

    // One columnar buffer per computed column, filled rank by rank.
    // Buffers span the *base* row space so a row id indexes any of them.
    let mut bufs: Vec<Option<Vec<Value>>> = vec![None; state.computed.len()];

    let compiled_sels: Vec<CompiledExpr> = state
        .selections
        .iter()
        .map(|s| CompiledExpr::compile(&s.predicate, &mut |n| slots.get(n).copied()))
        .collect::<ssa_relation::Result<_>>()?;
    let fused = |idxs: &[usize]| -> Vec<&CompiledExpr> {
        idxs.iter().map(|&si| &compiled_sels[si]).collect()
    };

    // Steps 1–2: the index vector of surviving rows. The plan hoists
    // rank-0 (base-column-only) selections *above* duplicate elimination
    // — duplicate `R`-tuples agree on every base column, so filtering
    // first keeps exactly the same first occurrences while shrinking the
    // dedup hash — and fuses them into one pass. Dedup keeps the first
    // occurrence of each distinct base tuple (matching `ops::distinct`).
    let mut live: Vec<u32> = (0..base_rows.len() as u32).collect();
    if !plan.pre_dedup.is_empty() {
        live = filter_rows(base, &bufs, &fused(&plan.pre_dedup), &live)?;
    }
    if state.dedup {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(live.len());
        live.retain(|&i| seen.insert(&base_rows[i as usize]));
    }

    // Step 3: layered materialization and filtering over row ids, staged
    // by the plan. Only columns a selection (transitively) reads
    // (`plan.early`) have to exist while step 3 filters; everything else
    // is deferred to step 4, where it is computed once over the final
    // (smaller) index vector. Deferral is invisible except for
    // evaluation errors confined to rows the selections remove — those
    // are simply never raised, as in any lazy query engine. Each rank's
    // selections run as one fused, cost-ordered pass.
    for stage in &plan.stages {
        for &i in &stage.compute {
            bufs[i] = Some(materialize_buffer(
                base,
                &bufs,
                &slots,
                &live,
                &state.computed[i],
            )?);
        }
        if !stage.filters.is_empty() {
            live = filter_rows(base, &bufs, &fused(&stage.filters), &live)?;
        }
    }

    // Step 4: automatic update — recompute computed columns over the
    // final index vector, in rank order. A step-3 buffer survives when
    // recomputation could not change it: its dependencies are themselves
    // valid, and it is row-local (a formula) or no later selection shrank
    // the sheet after it was aggregated.
    let order = plan.rank_order();
    let mut valid = vec![false; state.computed.len()];
    for &i in &order {
        let col = &state.computed[i];
        let deps_valid = col.def.dependencies().iter().all(|n| {
            slots
                .get(n.as_str())
                .is_none_or(|&s| s < width || valid[s - width])
        });
        let unshrunk = plan.sel_ranks.iter().all(|&r| r < plan.ranks[i]);
        valid[i] = bufs[i].is_some() && deps_valid && (!col.def.is_aggregate() || unshrunk);
    }
    for &i in &order {
        if !valid[i] {
            bufs[i] = None;
        }
    }
    for &i in &order {
        if !valid[i] {
            bufs[i] = Some(materialize_buffer(
                base,
                &bufs,
                &slots,
                &live,
                &state.computed[i],
            )?);
        }
    }

    // Step 5 runs *on the index vector*: stable-sort the live row ids by
    // the presentation keys (reading values in place), then gather rows
    // exactly once, already in presentation order.
    let sorted = presentation_order_ids(base, state, &slots, &bufs, &live)?;
    let schema = result_schema(base, state, &order, &bufs, &live)?;
    let data = gather_rows(base, &order, &bufs, &sorted, &schema)?;
    let canonical = want_canonical
        .then(|| -> Result<Canonical> {
            let rel = gather_rows(base, &order, &bufs, &live, &schema)?;
            // Presentation permutation: `sorted` is a permutation of
            // `live` (both are base row ids), so invert `live` to map a
            // presentation position to its canonical position.
            let mut pos = vec![0u32; base.len()];
            for (i, &id) in live.iter().enumerate() {
                pos[id as usize] = i as u32;
            }
            let perm = sorted.iter().map(|&id| pos[id as usize]).collect();
            Ok((rel, perm, live.clone()))
        })
        .transpose()?;
    let level_bases: Vec<Vec<String>> = state.spec.levels.iter().map(|l| l.basis.clone()).collect();
    let tree = build_tree(&data, &level_bases);

    let visible = visible_columns(base, state);
    Ok((
        Derived {
            data,
            tree,
            visible,
        },
        canonical,
    ))
}

/// The schema of the evaluated relation: base columns followed by the
/// computed columns in rank order, each typed by unifying its surviving
/// values (matching the naive engine exactly).
fn result_schema(
    base: &Relation,
    state: &QueryState,
    order: &[usize],
    bufs: &[Option<Vec<Value>>],
    live: &[u32],
) -> Result<Schema> {
    let mut columns: Vec<Column> = base.schema().columns().to_vec();
    for &i in order {
        debug_assert!(bufs[i].is_some(), "all buffers filled in step 4");
        let buf = bufs[i].as_ref().ok_or_else(|| SheetError::Internal {
            detail: format!(
                "computed buffer `{}` missing after step 4",
                state.computed[i].name
            ),
        })?;
        let mut ty = ValueType::Null;
        for &row in live {
            ty = ty.unify(buf[row as usize].value_type());
        }
        columns.push(Column::new(state.computed[i].name.clone(), ty));
    }
    // Computed names were validated distinct by the operators; a clash
    // here surfaces as the substrate's DuplicateColumn error.
    Ok(Schema::new(columns)?)
}

/// Gather the listed base rows (plus computed buffer values, in rank
/// order) into a relation — the index-vector engine's one-and-only
/// row-cloning pass, chunked across workers for large sheets.
fn gather_rows(
    base: &Relation,
    order: &[usize],
    bufs: &[Option<Vec<Value>>],
    ids: &[u32],
    schema: &Schema,
) -> Result<Relation> {
    ssa_relation::fault_check!("eval.gather");
    let base_rows = base.rows();
    let width = base.schema().len();
    // Bind each computed buffer once, outside the per-row loop: cheaper
    // than an Option unwrap per value, and a missing buffer (broken step-4
    // invariant) degrades to a typed error instead of a worker panic.
    let ordered_bufs: Vec<&Vec<Value>> = order
        .iter()
        .map(|&i| {
            debug_assert!(bufs[i].is_some(), "all buffers filled in step 4");
            bufs[i].as_ref().ok_or_else(|| SheetError::Internal {
                detail: "computed buffer missing during row gather".into(),
            })
        })
        .collect::<Result<_>>()?;
    let parallel = ids.len() >= PARALLEL_THRESHOLD;
    let rows = Rows::build(width + order.len(), ids, parallel, |&row, vals| {
        vals.extend_from_slice(&base_rows[row as usize]);
        vals.extend(ordered_bufs.iter().map(|buf| buf[row as usize]));
    })?;
    Ok(Relation::from_rows(base.name(), schema.clone(), rows)?)
}

/// Stable-sort the live row ids into presentation order, comparing
/// values in place through the slot table. Ties keep canonical (live)
/// order, so the result matches [`sort_presentation`] over the
/// materialized relation exactly.
fn presentation_order_ids(
    base: &Relation,
    state: &QueryState,
    slots: &HashMap<&str, usize>,
    bufs: &[Option<Vec<Value>>],
    live: &[u32],
) -> Result<Vec<u32>> {
    let resolve = |name: &str| {
        slots.get(name).copied().ok_or_else(|| {
            // Same error a schema lookup in the naive engine produces.
            SheetError::Relation(ssa_relation::RelationError::UnknownColumn {
                name: name.to_string(),
            })
        })
    };
    let keys: Vec<(usize, bool)> = state
        .spec
        .sort_columns()
        .into_iter()
        .map(|(name, desc)| resolve(&name).map(|slot| (slot, desc)))
        .collect::<Result<_>>()?;
    if keys.is_empty() {
        return Ok(live.to_vec());
    }
    let width = base.schema().len();
    let base_rows = base.rows();

    // Sorting compares `Value`s many times per row (strings included), so
    // first reduce each key column to integer sort keys: an all-`Int`
    // column keeps its raw values (`Value::cmp` between Ints is integer
    // order); an all-`Str` column maps symbols to the interner's
    // lexicographic ranks (one snapshot fetch, then O(1) per row — no
    // string bytes touched); any other column gets *dense ranks* from one
    // ordered pass over its distinct values. Either way the sort then
    // compares plain `i64`s.
    let rank_column = |&(slot, desc): &(usize, bool)| -> (Vec<i64>, bool) {
        let mut raw: Vec<i64> = Vec::with_capacity(live.len());
        for &row in live {
            match slot_value(base_rows, bufs, width, row, slot) {
                Value::Int(i) => raw.push(*i),
                _ => break,
            }
        }
        if raw.len() == live.len() {
            return (raw, desc);
        }
        raw.clear();
        let str_ranks = ssa_relation::intern::rank_snapshot();
        for &row in live {
            match slot_value(base_rows, bufs, width, row, slot) {
                Value::Str(s) => raw.push(str_ranks[s.id() as usize] as i64),
                _ => break,
            }
        }
        if raw.len() == live.len() {
            return (raw, desc);
        }
        let mut distinct: BTreeMap<&Value, i64> = BTreeMap::new();
        for &row in live {
            distinct.insert(slot_value(base_rows, bufs, width, row, slot), 0);
        }
        for (i, rank) in distinct.values_mut().enumerate() {
            *rank = i as i64;
        }
        let ranks = live
            .iter()
            .map(|&row| distinct[slot_value(base_rows, bufs, width, row, slot)])
            .collect();
        (ranks, desc)
    };
    let rank_cols: Vec<(Vec<i64>, bool)> = keys.iter().map(rank_column).collect();

    // Stable sort of *positions* into `live` by the rank tuples; ties
    // keep canonical order.
    let mut pos: Vec<u32> = (0..live.len() as u32).collect();
    pos.sort_by(|&a, &b| {
        for (ranks, desc) in &rank_cols {
            let ord = ranks[a as usize].cmp(&ranks[b as usize]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(pos.into_iter().map(|p| live[p as usize]).collect())
}

/// Materialize one computed column into a columnar buffer over the base
/// row space, computing only the `live` entries (the rest stay NULL and
/// are never read).
fn materialize_buffer(
    base: &Relation,
    bufs: &[Option<Vec<Value>>],
    slots: &HashMap<&str, usize>,
    live: &[u32],
    col: &ComputedColumn,
) -> Result<Vec<Value>> {
    ssa_relation::fault_check!("eval.materialize");
    let width = base.schema().len();
    let base_rows = base.rows();
    let parallel = live.len() >= PARALLEL_THRESHOLD;
    let mut buf = vec![Value::Null; base_rows.len()];
    match &col.def {
        ComputedDef::Formula { expr } => {
            let compiled = CompiledExpr::compile(expr, &mut |n| slots.get(n).copied())?;
            let chunks = chunk_map(live, parallel, |chunk| {
                chunk
                    .iter()
                    .map(|&row| {
                        compiled.eval_owned(&EngineRow {
                            base: &base_rows[row as usize],
                            bufs,
                            width,
                            row,
                        })
                    })
                    .collect::<ssa_relation::Result<Vec<Value>>>()
            })?;
            let mut idx = 0;
            for chunk in chunks {
                for v in chunk? {
                    buf[live[idx] as usize] = v;
                    idx += 1;
                }
            }
        }
        ComputedDef::Aggregate {
            func,
            column,
            basis,
            level,
        } => {
            debug_assert!(*level >= 1);
            let resolve = |name: &str| {
                slots
                    .get(name)
                    .copied()
                    .ok_or_else(|| SheetError::UnknownColumn {
                        name: name.to_string(),
                    })
            };
            let basis_slots: Vec<usize> =
                basis.iter().map(|a| resolve(a)).collect::<Result<_>>()?;
            let col_slot = resolve(column)?;

            // Group membership over row ids. The empty basis (level 1)
            // is one whole-sheet group; a single-attribute basis groups
            // on borrowed values directly; a multi-attribute basis looks
            // its composite key up from one reused buffer and allocates
            // a key per group, not per row.
            let groups: Vec<Vec<u32>> = match basis_slots.as_slice() {
                [] => vec![live.to_vec()],
                [s] => {
                    let mut m: BTreeMap<&Value, Vec<u32>> = BTreeMap::new();
                    for &row in live {
                        m.entry(slot_value(base_rows, bufs, width, row, *s))
                            .or_default()
                            .push(row);
                    }
                    m.into_values().collect()
                }
                _ => {
                    let mut m: BTreeMap<Vec<&Value>, Vec<u32>> = BTreeMap::new();
                    let mut key: Vec<&Value> = Vec::with_capacity(basis_slots.len());
                    for &row in live {
                        key.clear();
                        key.extend(
                            basis_slots
                                .iter()
                                .map(|&s| slot_value(base_rows, bufs, width, row, s)),
                        );
                        match m.get_mut(key.as_slice()) {
                            Some(rows) => rows.push(row),
                            None => {
                                m.insert(key.clone(), vec![row]);
                            }
                        }
                    }
                    m.into_values().collect()
                }
            };

            // Aggregate each group out of the column buffers; groups are
            // distributed across workers when the sheet is large.
            let members: Vec<Vec<u32>> = groups;
            let value_chunks = chunk_map(&members, parallel && members.len() > 1, |chunk| {
                chunk
                    .iter()
                    .map(|rows| {
                        func.apply(
                            rows.iter()
                                .map(|&row| slot_value(base_rows, bufs, width, row, col_slot)),
                        )
                    })
                    .collect::<ssa_relation::Result<Vec<Value>>>()
            })?;
            let mut gi = 0;
            for chunk in value_chunks {
                for v in chunk? {
                    for &row in &members[gi] {
                        buf[row as usize] = v;
                    }
                    gi += 1;
                }
            }
        }
    }
    Ok(buf)
}

/// Filter the index vector through a fused conjunction of compiled
/// selection predicates in a single pass. The predicates come cost- and
/// selectivity-ordered from the plan; a row is kept only if every
/// predicate matches, with later predicates short-circuited — sound
/// because same-rank selections commute (Theorem 2) and `AND` is TRUE
/// exactly when all conjuncts are.
fn filter_rows(
    base: &Relation,
    bufs: &[Option<Vec<Value>>],
    compiled: &[&CompiledExpr],
    live: &[u32],
) -> Result<Vec<u32>> {
    ssa_relation::fault_check!("eval.filter");
    let width = base.schema().len();
    let base_rows = base.rows();
    let parallel = live.len() >= PARALLEL_THRESHOLD;
    let chunks = chunk_map(live, parallel, |chunk| {
        let mut keep = Vec::with_capacity(chunk.len());
        'rows: for &row in chunk {
            let engine_row = EngineRow {
                base: &base_rows[row as usize],
                bufs,
                width,
                row,
            };
            for c in compiled {
                if !c.matches(&engine_row)? {
                    continue 'rows;
                }
            }
            keep.push(row);
        }
        Ok::<_, ssa_relation::RelationError>(keep)
    })?;
    let mut out = Vec::with_capacity(live.len());
    for chunk in chunks {
        out.extend(chunk?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Incremental entry points (delta-aware cache, DESIGN.md §10)
// ---------------------------------------------------------------------

/// Resolved `column OP literal` atoms: (column index, test, literal).
type AtomTest = Vec<(usize, fn(std::cmp::Ordering) -> bool, Value)>;

/// Columnar fast path of the incremental filters: a conjunction of
/// `column OP literal` atoms — the shape every narrowing edit takes —
/// tested on a row directly with `sql_cmp` semantics (NULL never passes),
/// skipping compilation and the per-row expression walk. `None` for any
/// other predicate, or when a column does not resolve (the compiled path
/// then reports it). `col OP NULL` is never TRUE under `sql_cmp`, so a
/// null literal makes the result `Some(None)`: no row passes, and the
/// per-row test never checks literals.
fn atom_test(schema: &Schema, predicate: &Expr) -> Option<Option<AtomTest>> {
    let atoms: AtomTest = predicate
        .as_column_cmp_conjunction()?
        .into_iter()
        .map(|(c, op, v)| schema.index_of(c).ok().map(|i| (i, op.test(), v)))
        .collect::<Option<_>>()?;
    Some((!atoms.iter().any(|(_, _, lit)| lit.is_null())).then_some(atoms))
}

fn atoms_pass(atoms: &AtomTest, t: &[Value]) -> bool {
    atoms.iter().all(|(idx, test, lit)| {
        let v = &t[*idx];
        !v.is_null() && test(v.cmp(lit))
    })
}

/// The ids of `rel`'s rows satisfying `predicate`, in order — the
/// incremental cache's single-predicate index filter over an
/// already-materialized relation.
pub(crate) fn filter_relation(rel: &Relation, predicate: &Expr) -> Result<Vec<u32>> {
    let all: Vec<u32> = (0..rel.len() as u32).collect();
    filter_ids(rel, predicate, &all)
}

/// The ids in `live` (ascending rows of `rel`) whose row satisfies
/// `predicate`, in order, so rows a predicate rejects are never copied
/// out of `rel`. A conjunction of `column OP literal` atoms takes the
/// columnar fast path; anything else runs the same compiled-expression
/// machinery as step 3, with the relation's own columns as the slot
/// table. Either way the ids are chunked across threads from
/// [`PARALLEL_THRESHOLD`] of them.
pub(crate) fn filter_ids(rel: &Relation, predicate: &Expr, live: &[u32]) -> Result<Vec<u32>> {
    let schema = rel.schema();
    if let Some(atoms) = atom_test(schema, predicate) {
        let Some(atoms) = atoms else {
            return Ok(Vec::new());
        };
        let rows = rel.rows();
        let parts = chunk_map(live, live.len() >= PARALLEL_THRESHOLD, |chunk| {
            chunk
                .iter()
                .copied()
                .filter(|&i| atoms_pass(&atoms, &rows[i as usize]))
                .collect::<Vec<u32>>()
        })?;
        return Ok(parts.concat());
    }
    let compiled = CompiledExpr::compile(predicate, &mut |n| schema.index_of(n).ok())?;
    filter_rows(rel, &[], &[&compiled], live)
}

/// Materialize one computed column over `rel`'s rows — the incremental
/// cache's single-column append/refresh entry point. Returns one value
/// per row plus the unified static type, exactly as [`result_schema`]
/// would derive it for this column.
pub(crate) fn compute_column_values(
    rel: &Relation,
    col: &ComputedColumn,
) -> Result<(Vec<Value>, ValueType)> {
    let mut slots: HashMap<&str, usize> = HashMap::with_capacity(rel.schema().len());
    for (i, name) in rel.schema().names().into_iter().enumerate() {
        slots.insert(name, i);
    }
    let live: Vec<u32> = (0..rel.len() as u32).collect();
    let values = materialize_buffer(rel, &[], &slots, &live, col)?;
    let ty = values
        .iter()
        .fold(ValueType::Null, |t, v| t.unify(v.value_type()));
    Ok((values, ty))
}

// ---------------------------------------------------------------------
// Naive engine (differential-testing oracle, bench baseline)
// ---------------------------------------------------------------------

fn evaluate_full_naive(
    base: &Relation,
    state: &QueryState,
    plan: &Plan,
) -> Result<(Derived, Relation)> {
    // Step 1–2: base data, dedup on R-tuples.
    let mut data = base.clone();
    if state.dedup {
        data = ops::distinct(&data)?;
    }

    // Step 3: layered materialization and filtering.
    for rank in 0..=plan.max_rank {
        for (col, &r) in state.computed.iter().zip(&plan.ranks) {
            if r == rank {
                materialize(&mut data, col, state)?;
            }
        }
        for (sel, &r) in state.selections.iter().zip(&plan.sel_ranks) {
            if r == rank {
                data = ops::select(&data, &sel.predicate)?;
            }
        }
    }

    // Step 4: automatic update — recompute every computed column over the
    // final multiset, in rank order.
    let order = plan.rank_order();
    for &i in &order {
        data.drop_column(&state.computed[i].name)?;
    }
    for &i in &order {
        materialize(&mut data, &state.computed[i], state)?;
    }

    // Step 5: presentation order + tree.
    let canonical = data.clone();
    data = sort_presentation(&data, &state.spec)?;
    let level_bases: Vec<Vec<String>> = state.spec.levels.iter().map(|l| l.basis.clone()).collect();
    let tree = build_tree(&data, &level_bases);

    let visible = visible_columns(base, state);
    Ok((
        Derived {
            data,
            tree,
            visible,
        },
        canonical,
    ))
}

/// Display order: base columns in base order minus projected-out, then
/// computed columns in creation order minus projected-out ("result column
/// appears next to rightmost column", Sec. VI-A).
pub fn visible_columns(base: &Relation, state: &QueryState) -> Vec<String> {
    let mut out: Vec<String> = base
        .schema()
        .names()
        .iter()
        .filter(|n| !state.projected_out.contains(**n))
        .map(|n| n.to_string())
        .collect();
    for c in &state.computed {
        if !state.projected_out.contains(&c.name) {
            out.push(c.name.clone());
        }
    }
    out
}

/// Materialize one computed column over the current data (naive engine).
fn materialize(data: &mut Relation, col: &ComputedColumn, state: &QueryState) -> Result<()> {
    match &col.def {
        ComputedDef::Formula { expr } => {
            let mut ty = ValueType::Null;
            let mut values = Vec::with_capacity(data.len());
            for t in data.rows() {
                let v = expr.eval(data.schema(), t)?;
                ty = ty.unify(v.value_type());
                values.push(v);
            }
            let mut it = values.into_iter();
            // invariant: `values` holds exactly one entry per row and
            // `add_column` calls the closure exactly once per row.
            data.add_column(Column::new(col.name.clone(), ty), |_, _| {
                it.next().unwrap_or(Value::Null)
            })?;
        }
        ComputedDef::Aggregate {
            func,
            column,
            basis,
            level,
        } => {
            // Group by the aggregate's basis. An aggregate at level 1 has
            // an empty basis: one group spanning the whole sheet.
            debug_assert!(*level >= 1);
            let basis_idx: Vec<usize> = basis
                .iter()
                .map(|a| data.schema().index_of(a))
                .collect::<ssa_relation::Result<_>>()?;
            let col_idx = data.schema().index_of(column)?;
            let mut groups: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
            for (ri, t) in data.rows().iter().enumerate() {
                let key: Vec<Value> = basis_idx.iter().map(|&i| t[i]).collect();
                groups.entry(key).or_default().push(ri);
            }
            let mut per_row: Vec<Value> = vec![Value::Null; data.len()];
            let mut ty = ValueType::Null;
            for members in groups.values() {
                let v = func.apply(members.iter().map(|&ri| &data.rows()[ri][col_idx]))?;
                ty = ty.unify(v.value_type());
                for &ri in members {
                    per_row[ri] = v;
                }
            }
            let mut it = per_row.into_iter();
            // invariant: `per_row` was sized to `data.len()` above.
            data.add_column(Column::new(col.name.clone(), ty), |_, _| {
                it.next().unwrap_or(Value::Null)
            })?;
        }
    }
    // `state` is only used for debug assertions today, but threading it
    // through keeps the signature stable for future level-validation.
    let _ = state;
    Ok(())
}

// ---------------------------------------------------------------------
// Presentation order (shared)
// ---------------------------------------------------------------------

/// The permutation that puts `data`'s rows into presentation order:
/// group keys of each level (with that level's direction over the whole
/// key tuple), then the finest-level ordering keys. The sort is stable,
/// so ties keep `data`'s (canonical) order.
pub(crate) fn presentation_permutation(data: &Relation, spec: &Spec) -> Result<Vec<u32>> {
    let keys: Vec<(usize, bool)> = spec
        .sort_columns()
        .into_iter()
        .map(|(name, desc)| data.schema().index_of(&name).map(|i| (i, desc)))
        .collect::<ssa_relation::Result<_>>()?;
    let rows = data.rows();
    let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
    perm.sort_by(|&a, &b| {
        let (ra, rb) = (&rows[a as usize], &rows[b as usize]);
        for &(i, desc) in &keys {
            let ord = ra[i].cmp(&rb[i]);
            let ord = if desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(perm)
}

/// Sort rows into presentation order (see
/// [`presentation_permutation`]).
///
/// Public within the crate: the sheet's fast-reorganization path re-sorts
/// an already-evaluated relation when only `G`/`O` changed.
pub(crate) fn sort_presentation(data: &Relation, spec: &Spec) -> Result<Relation> {
    Ok(data.take_rows(&presentation_permutation(data, spec)?))
}

/// Convenience used by tests and the Theorem-1 translator: evaluate and
/// keep only the visible relation.
pub fn evaluate_visible(base: &Relation, state: &QueryState) -> Result<Relation> {
    evaluate(base, state)?.visible_relation()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Direction, GroupLevel, OrderKey};
    use ssa_relation::schema::Schema;
    use ssa_relation::ValueType::{Int, Str};
    use ssa_relation::{tuple, AggFunc, Expr};

    /// The paper's Table I data.
    pub fn table1() -> Relation {
        Relation::with_rows(
            "cars",
            Schema::of(&[
                ("ID", Int),
                ("Model", Str),
                ("Price", Int),
                ("Year", Int),
                ("Mileage", Int),
                ("Condition", Str),
            ]),
            vec![
                tuple![304, "Jetta", 14500, 2005, 76000, "Good"],
                tuple![872, "Jetta", 15000, 2005, 50000, "Excellent"],
                tuple![901, "Jetta", 16000, 2005, 40000, "Excellent"],
                tuple![423, "Jetta", 17000, 2006, 42000, "Good"],
                tuple![723, "Jetta", 17500, 2006, 39000, "Excellent"],
                tuple![725, "Jetta", 18000, 2006, 30000, "Excellent"],
                tuple![132, "Civic", 13500, 2005, 86000, "Good"],
                tuple![879, "Civic", 15000, 2006, 68000, "Good"],
                tuple![322, "Civic", 16000, 2006, 73000, "Good"],
            ],
        )
        .unwrap()
    }

    fn paper_state() -> QueryState {
        // Grouped by Model DESC then Year ASC, ordered by Price ASC.
        let mut st = QueryState::new();
        st.spec
            .levels
            .push(GroupLevel::new(["Model"], Direction::Desc));
        st.spec
            .levels
            .push(GroupLevel::new(["Year"], Direction::Asc));
        st.spec.finest_order.push(OrderKey::asc("Price"));
        st
    }

    fn ids(d: &Derived) -> Vec<i64> {
        d.data
            .rows()
            .iter()
            .map(|t| match t[0] {
                Value::Int(i) => i,
                other => panic!("ID should be int, got {other}"),
            })
            .collect()
    }

    #[test]
    fn empty_state_is_identity_modulo_order() {
        let base = table1();
        let d = evaluate(&base, &QueryState::new()).unwrap();
        assert_eq!(d.len(), 9);
        assert!(d.visible_relation().unwrap().multiset_eq(&base));
        assert_eq!(d.tree.depth(), 1);
    }

    #[test]
    fn paper_table_i_presentation_order() {
        // Table I is exactly: grouped Model DESC, Year ASC, Price ASC.
        let d = evaluate(&table1(), &paper_state()).unwrap();
        assert_eq!(ids(&d), vec![304, 872, 901, 423, 723, 725, 132, 879, 322]);
        assert_eq!(d.tree.depth(), 3);
        assert_eq!(d.tree.groups_at_level(2).len(), 2);
        assert_eq!(d.tree.groups_at_level(3).len(), 4);
    }

    #[test]
    fn selection_filters_and_retains_grouping() {
        let mut st = paper_state();
        st.add_selection(Expr::col("Condition").eq(Expr::lit("Excellent")));
        let d = evaluate(&table1(), &st).unwrap();
        assert_eq!(ids(&d), vec![872, 901, 723, 725]);
        assert_eq!(d.tree.depth(), 3);
    }

    #[test]
    fn aggregate_repeats_value_per_group_like_table_iii() {
        let mut st = QueryState::new();
        st.spec
            .levels
            .push(GroupLevel::new(["Model"], Direction::Desc));
        st.spec
            .levels
            .push(GroupLevel::new(["Year"], Direction::Asc));
        st.spec.finest_order.push(OrderKey::asc("Price"));
        st.computed.push(ComputedColumn::aggregate(
            "Avg_Price",
            AggFunc::Avg,
            "Price",
            3,
            vec!["Model".into(), "Year".into()],
        ));
        let d = evaluate(&table1(), &st).unwrap();
        let col = d.data.column_values("Avg_Price").unwrap();
        // Jetta 2005 avg = 15166.67 on first three rows
        let Value::Float(v) = &col[0] else { panic!() };
        assert!((v - 15166.6667).abs() < 0.01);
        assert_eq!(col[0], col[1]);
        assert_eq!(col[0], col[2]);
        // Jetta 2006 avg = 17500
        assert_eq!(col[3], Value::Float(17500.0));
        // Civic 2005 avg = 13500 (single row, position 6)
        assert_eq!(col[6], Value::Float(13500.0));
        // Civic 2006 avg = 15500
        assert_eq!(col[7], Value::Float(15500.0));
    }

    #[test]
    fn aggregate_level_one_spans_whole_sheet() {
        let mut st = QueryState::new();
        st.computed.push(ComputedColumn::aggregate(
            "MaxP",
            AggFunc::Max,
            "Price",
            1,
            vec![],
        ));
        let d = evaluate(&table1(), &st).unwrap();
        let col = d.data.column_values("MaxP").unwrap();
        assert!(col.iter().all(|v| v == &Value::Int(18000)));
    }

    #[test]
    fn aggregates_auto_update_after_selection() {
        // Theorem 2's key case: selection and aggregation commute because
        // aggregates recompute over surviving tuples.
        let mut st = QueryState::new();
        st.computed.push(ComputedColumn::aggregate(
            "Avg_Price",
            AggFunc::Avg,
            "Price",
            1,
            vec![],
        ));
        st.add_selection(Expr::col("Model").eq(Expr::lit("Civic")));
        let d = evaluate(&table1(), &st).unwrap();
        let col = d.data.column_values("Avg_Price").unwrap();
        // avg over the three Civics only: (13500+15000+16000)/3 = 14833.33
        let Value::Float(v) = &col[0] else { panic!() };
        assert!((v - 14833.3333).abs() < 0.01);
    }

    #[test]
    fn selection_on_aggregate_uses_pre_filter_average() {
        // Fig. 2 scenario: filter Price < Avg_Price(Model, Year).
        let mut st = QueryState::new();
        st.computed.push(ComputedColumn::aggregate(
            "Avg_Price",
            AggFunc::Avg,
            "Price",
            1,
            vec![],
        ));
        st.add_selection(Expr::col("Price").lt(Expr::col("Avg_Price")));
        let d = evaluate(&table1(), &st).unwrap();
        // global avg = (14500+15000+16000+17000+17500+18000+13500+15000+16000)/9
        // = 142500/9 = 15833.33; cars below: 14500,15000,13500,15000 → 4 rows
        assert_eq!(d.len(), 4);
        // displayed Avg_Price is recomputed over the survivors
        let col = d.data.column_values("Avg_Price").unwrap();
        let Value::Float(v) = &col[0] else { panic!() };
        assert!((v - 14500.0).abs() < 0.01); // (14500+15000+13500+15000)/4
    }

    #[test]
    fn formula_column_row_wise() {
        let mut st = QueryState::new();
        st.computed.push(ComputedColumn::formula(
            "PriceK",
            Expr::col("Price").div(Expr::lit(1000)),
        ));
        let d = evaluate(&table1(), &st).unwrap();
        assert_eq!(d.data.value_at(0, "PriceK").unwrap(), &Value::Float(14.5));
    }

    #[test]
    fn dedup_on_r_tuples_ignores_projection() {
        let base = Relation::with_rows(
            "r",
            Schema::of(&[("x", Int), ("y", Int)]),
            vec![tuple![1, 10], tuple![1, 20], tuple![1, 10]],
        )
        .unwrap();
        let mut st = QueryState::new();
        st.projected_out.insert("y".into());
        st.dedup = true;
        let d = evaluate(&base, &st).unwrap();
        // dedup on full R-tuples: (1,10) duplicated once → 2 rows remain,
        // even though the visible column x makes them look identical.
        assert_eq!(d.len(), 2);
        assert_eq!(d.visible, vec!["x".to_string()]);
        assert_eq!(d.visible_relation().unwrap().schema().names(), vec!["x"]);
    }

    #[test]
    fn hidden_column_still_filters() {
        let mut st = QueryState::new();
        st.projected_out.insert("Condition".into());
        st.add_selection(Expr::col("Condition").eq(Expr::lit("Good")));
        let d = evaluate(&table1(), &st).unwrap();
        assert_eq!(d.len(), 5);
        assert!(!d.visible.contains(&"Condition".to_string()));
    }

    #[test]
    fn unknown_selection_column_is_error() {
        let mut st = QueryState::new();
        st.add_selection(Expr::col("Ghost").eq(Expr::lit(1)));
        assert_eq!(
            evaluate(&table1(), &st),
            Err(SheetError::UnknownColumn {
                name: "Ghost".into()
            })
        );
    }

    #[test]
    fn multi_attribute_level_groups_on_key_tuple() {
        let mut st = QueryState::new();
        st.spec
            .levels
            .push(GroupLevel::new(["Model", "Year"], Direction::Asc));
        let d = evaluate(&table1(), &st).unwrap();
        assert_eq!(d.tree.groups_at_level(2).len(), 4);
        // ASC on (Model, Year): Civic 2005, Civic 2006, Jetta 2005, Jetta 2006
        let keys: Vec<String> = d
            .tree
            .groups_at_level(2)
            .iter()
            .map(|g| format!("{} {}", g.key[0].1, g.key[1].1))
            .collect();
        assert_eq!(
            keys,
            vec!["Civic 2005", "Civic 2006", "Jetta 2005", "Jetta 2006"]
        );
    }

    #[test]
    fn equivalent_ignores_computed_column_order() {
        let mut a = QueryState::new();
        a.computed.push(ComputedColumn::formula(
            "F1",
            Expr::col("Price").add(Expr::lit(1)),
        ));
        a.computed.push(ComputedColumn::formula(
            "F2",
            Expr::col("Year").add(Expr::lit(1)),
        ));
        let mut b = QueryState::new();
        b.computed.push(ComputedColumn::formula(
            "F2",
            Expr::col("Year").add(Expr::lit(1)),
        ));
        b.computed.push(ComputedColumn::formula(
            "F1",
            Expr::col("Price").add(Expr::lit(1)),
        ));
        let da = evaluate(&table1(), &a).unwrap();
        let db = evaluate(&table1(), &b).unwrap();
        assert_ne!(da, db, "column order differs");
        assert!(da.equivalent(&db), "content is the same");
        // and a genuinely different sheet is not equivalent
        let mut c = b.clone();
        c.add_selection(Expr::col("Year").eq(Expr::lit(2005)));
        let dc = evaluate(&table1(), &c).unwrap();
        assert!(!da.equivalent(&dc));
    }

    #[test]
    fn visible_columns_order_base_then_computed() {
        let mut st = QueryState::new();
        st.computed.push(ComputedColumn::formula(
            "F1",
            Expr::col("Price").add(Expr::lit(1)),
        ));
        st.projected_out.insert("Mileage".into());
        let cols = visible_columns(&table1(), &st);
        assert_eq!(
            cols,
            vec!["ID", "Model", "Price", "Year", "Condition", "F1"]
        );
    }

    /// A state exercising every pipeline stage: dedup, formula, two
    /// aggregates (one referenced by a selection), two selections at
    /// different ranks, projection, two grouping levels, ordering.
    fn full_pipeline_state() -> QueryState {
        let mut st = QueryState::new();
        st.dedup = true;
        st.spec
            .levels
            .push(GroupLevel::new(["Model"], Direction::Desc));
        st.spec
            .levels
            .push(GroupLevel::new(["Year"], Direction::Asc));
        st.spec.finest_order.push(OrderKey::asc("Mileage"));
        st.computed.push(ComputedColumn::formula(
            "PriceK",
            Expr::col("Price").div(Expr::lit(1000)),
        ));
        st.computed.push(ComputedColumn::aggregate(
            "Avg_Price",
            AggFunc::Avg,
            "Price",
            2,
            vec!["Model".into()],
        ));
        st.add_selection(Expr::col("Price").le(Expr::col("Avg_Price")));
        st.add_selection(Expr::col("Year").ge(Expr::lit(2005)));
        st.projected_out.insert("Condition".into());
        st
    }

    #[test]
    fn engines_agree_on_full_pipeline() {
        let base = table1();
        let st = full_pipeline_state();
        let naive = evaluate_with(&base, &st, EvalOptions { naive: true }).unwrap();
        let indexed = evaluate_with(&base, &st, EvalOptions::default()).unwrap();
        assert_eq!(naive, indexed);
        // canonical relations agree too (fast-reorganize path input)
        let (_, cn, _) = evaluate_full_with(&base, &st, EvalOptions { naive: true }).unwrap();
        let (_, ci, prov) = evaluate_full_with(&base, &st, EvalOptions::default()).unwrap();
        assert_eq!(cn, ci);
        // The permutation really maps presentation rows to canonical rows,
        // and base ids map canonical rows back to base rows (ascending).
        let (di, _, _) = evaluate_full_with(&base, &st, EvalOptions::default()).unwrap();
        let (perm, base_ids) = prov.expect("indexed engine returns row provenance");
        for (j, &src) in perm.iter().enumerate() {
            assert_eq!(di.data.rows()[j], ci.rows()[src as usize]);
        }
        assert_eq!(base_ids.len(), ci.len());
        assert!(base_ids.windows(2).all(|w| w[0] < w[1]));
        let width = base.schema().len();
        for (i, &b) in base_ids.iter().enumerate() {
            assert_eq!(&ci.rows()[i][..width], &base.rows()[b as usize]);
        }
    }
}
