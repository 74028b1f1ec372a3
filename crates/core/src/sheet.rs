//! The [`Spreadsheet`] — `S = (R, C, G, O)` — and every algebra operator
//! of Sec. III as a method.
//!
//! A `Spreadsheet` holds the base data `R` as of the most recent *point of
//! non-commutativity* (initially the base relation, Def. 2) plus the
//! modifiable [`QueryState`] accumulated since. Unary operators edit the
//! state; binary operators evaluate the current sheet, combine it with a
//! stored sheet, and start a fresh state epoch (selections and DE are
//! consumed; computed columns, projections, grouping and ordering carry
//! over and keep auto-updating).

use crate::computed::{compute_ranks, ComputedColumn, ComputedDef};
use crate::delta::{classify, ContentKey, StateDelta};
use crate::error::{Result, SheetError};
use crate::eval::{
    compute_column_values, evaluate_full_with, evaluate_with, filter_ids, filter_relation,
    visible_columns, Derived, EvalOptions,
};
use crate::spec::{Direction, GroupLevel, OrderKey, Spec};
use crate::state::{volatile_columns, QueryState};
use crate::tree::build_tree;
use ssa_relation::schema::{Column, Schema};
use ssa_relation::{ops, AggFunc, Expr, Fold, Relation, Rows, Tuple, Value, ValueType};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A snapshot of a spreadsheet produced by the **Save** operator
/// (Sec. III-C). Binary operators take a stored sheet as their right
/// operand; **Open** turns one back into a live [`Spreadsheet`].
///
/// The snapshot freezes the sheet's *data*: selections and duplicate
/// elimination are applied, computed columns are dropped from the data
/// (they "do not participate", Sec. III-B) but their definitions are kept
/// so re-opening restores them.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSheet {
    pub name: String,
    /// Evaluated `R` — all base columns (hidden ones included), filtered
    /// and deduplicated as of the save.
    pub relation: Relation,
    /// The surviving state: computed definitions, projections, grouping
    /// and ordering. Selections/DE are cleared (already applied).
    pub state: QueryState,
}

impl StoredSheet {
    /// Serialize to JSON (the reproduction's stand-in for the prototype's
    /// saved sheets).
    pub fn to_json(&self) -> Result<String> {
        ssa_relation::fault_check!("persist.save");
        Ok(crate::persist::stored_sheet_to_json(self))
    }

    pub fn from_json(text: &str) -> Result<StoredSheet> {
        crate::persist::stored_sheet_from_json(text)
    }

    /// Serialize to the binary columnar format (DESIGN.md §16): the
    /// default on-disk representation, readable lazily via
    /// [`crate::storage::PagedSheet`].
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        ssa_relation::fault_check!("persist.save");
        crate::storage::encode(self)
    }

    /// Decode a binary columnar image (eagerly — every column loads).
    pub fn from_binary(bytes: Vec<u8>) -> Result<StoredSheet> {
        crate::storage::SheetFile::from_bytes(bytes)?.materialize()
    }

    /// Write this sheet to `path` in the binary format via atomic
    /// temp-file + rename; a failed save never clobbers the old file.
    pub fn save_path(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        crate::storage::save_sheet(self, path)
    }

    /// Read a sheet from `path`, auto-detecting binary vs JSON from the
    /// leading magic bytes.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<StoredSheet> {
        crate::storage::open_sheet(path)
    }
}

/// Cached group membership of the canonical rows under one grouping
/// basis: `gid[i]` is the (dense, first-encounter) group id of canonical
/// row `i`. Valid as long as the basis columns' values are unchanged —
/// which, across the incremental paths, holds exactly when the basis
/// contains no volatile (aggregate-dependent) column: base values never
/// change without dropping the whole cache, and non-volatile computed
/// values are never rewritten in place. Narrowing filters `gid` by the
/// surviving rows (groups may become empty; ids are not re-densified).
#[derive(Debug, Clone)]
struct GroupCache {
    gid: Vec<u32>,
    groups: u32,
}

/// Resolve the spec's presentation sort columns against the canonical
/// schema: `(column index, descending)` per key, outermost first.
fn resolve_sort_idx(spec: &Spec, canonical: &Relation) -> Result<Vec<(usize, bool)>> {
    spec.sort_columns()
        .into_iter()
        .map(|(name, desc)| Ok((canonical.schema().index_of(&name)?, desc)))
        .collect()
}

/// Presentation positions (`derived` row indices) of the group whose
/// basis columns hold the `target` values. When the basis is a prefix of
/// the presentation sort — the base-patch gate guarantees it — the group
/// is one contiguous run found by two binary searches; otherwise fall
/// back to a scan (defensive, O(n)).
fn group_positions(
    canonical: &Relation,
    perm: &[u32],
    sort_idx: &[(usize, bool)],
    target: &[(usize, Value)],
) -> Vec<usize> {
    let rows = canonical.rows();
    let want: BTreeSet<usize> = target.iter().map(|&(i, _)| i).collect();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut prefix_len = 0;
    for &(i, _) in sort_idx {
        if seen == want {
            break;
        }
        if !want.contains(&i) {
            break;
        }
        seen.insert(i);
        prefix_len += 1;
    }
    if seen != want {
        // Not a sort prefix: scan every presentation slot for the key.
        return (0..perm.len())
            .filter(|&j| {
                let r = &rows[perm[j] as usize];
                target.iter().all(|(i, v)| r[*i] == *v)
            })
            .collect();
    }
    let value_of = |i: usize| -> Value {
        target
            .iter()
            .find(|&&(ti, _)| ti == i)
            .map(|&(_, v)| v)
            .unwrap_or(Value::Null)
    };
    let cmp_to_target = |c: u32| -> std::cmp::Ordering {
        for &(i, desc) in &sort_idx[..prefix_len] {
            let ord = rows[c as usize][i].cmp(&value_of(i));
            let ord = if desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    let lo = perm.partition_point(|&c| cmp_to_target(c) == std::cmp::Ordering::Less);
    let hi = perm.partition_point(|&c| cmp_to_target(c) != std::cmp::Ordering::Greater);
    (lo..hi).collect()
}

/// Re-aggregate one group from scratch and write its value onto every
/// member row (canonical and derived). Inputs are folded in ascending
/// canonical order — the same order the evaluator folds them — so float
/// results are bit-identical. An emptied group has no rows to receive a
/// value and is skipped, exactly as in a fresh evaluation.
#[allow(clippy::too_many_arguments)]
fn recompute_group(
    canonical: &mut Relation,
    derived: &mut Relation,
    perm: &[u32],
    sort_idx: &[(usize, bool)],
    agg_idx: usize,
    in_idx: usize,
    func: AggFunc,
    target: &[(usize, Value)],
) -> Result<()> {
    let js = group_positions(canonical, perm, sort_idx, target);
    if js.is_empty() {
        return Ok(());
    }
    let mut ids: Vec<u32> = js.iter().map(|&j| perm[j]).collect();
    ids.sort_unstable();
    let rows = canonical.rows();
    let v = func.apply(ids.iter().map(|&c| &rows[c as usize][in_idx]))?;
    for &j in &js {
        derived.rows_mut()[j][agg_idx] = v;
    }
    for &c in &ids {
        canonical.rows_mut()[c as usize][agg_idx] = v;
    }
    Ok(())
}

/// Run base rows `ids` through the query state for the base-append
/// patch, the way the full pipeline runs them: rank by rank over one
/// relation with the canonical schema, where formulas of rank r are
/// computed only for the rows that survived every selection of rank < r
/// (a row the first selection kills never evaluates later formulas, so
/// e.g. a division by zero there must not fail the append). Rank-0
/// selections read base columns only, so they filter the ids against
/// `base` before any row is copied. Returns the surviving base ids, in
/// base order, and their canonical rows in the same order.
fn stage_base_rows(
    canonical: &Schema,
    base: &Relation,
    mut ids: Vec<u32>,
    state: &QueryState,
) -> Result<(Vec<u32>, Relation)> {
    let base_columns: BTreeSet<String> = base
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let ranks =
        compute_ranks(&base_columns, &state.computed).ok_or_else(|| SheetError::Internal {
            detail: "cached state has unresolved computed dependencies".to_string(),
        })?;
    let sel_rank = |pred: &Expr| -> usize {
        pred.columns()
            .iter()
            .filter_map(|c| {
                state
                    .computed
                    .iter()
                    .position(|col| &col.name == c)
                    .map(|i| ranks[i])
            })
            .max()
            .unwrap_or(0)
    };
    let preds_at = |rank: usize| -> Option<Expr> {
        Expr::conjoin(
            state
                .selections
                .iter()
                .filter(|s| sel_rank(&s.predicate) == rank)
                .map(|s| s.predicate.clone())
                .collect(),
        )
    };
    if let Some(pred) = preds_at(0) {
        ids = filter_ids(base, &pred, &ids)?;
    }
    let computed = canonical.len() - base.schema().len();
    let rows = Rows::build(canonical.len(), &ids, false, |&i, vals| {
        vals.extend_from_slice(&base.rows()[i as usize]);
        vals.extend(std::iter::repeat_n(Value::Null, computed));
    })?;
    let mut staged = Relation::from_rows("patch-rows", canonical.clone(), rows)?;
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for rank in 1..=max_rank {
        for (col, _) in state
            .computed
            .iter()
            .zip(&ranks)
            .filter(|(_, &r)| r == rank)
        {
            // Aggregates are group-level; their value for a new row is
            // patched after insertion. Selections never read them on
            // this path (gated by `base_patch_block`), so the staged
            // Null stands.
            if let ComputedDef::Formula { .. } = col.def {
                let idx = canonical.index_of(&col.name)?;
                let (values, _) = compute_column_values(&staged, col)?;
                for (row, v) in staged.rows_mut().iter_mut().zip(values) {
                    row[idx] = v;
                }
            }
        }
        if let Some(pred) = preds_at(rank) {
            let keep = filter_relation(&staged, &pred)?;
            if keep.len() < staged.len() {
                ids = keep.iter().map(|&k| ids[k as usize]).collect();
                staged = staged.take_rows(&keep);
            }
        }
    }
    Ok((ids, staged))
}

/// Retype column `idx` on both schemas by unifying its surviving values —
/// what `result_schema` does in a fresh evaluation. Needed whenever a
/// patch *replaces* values (retraction, group-value change): unlike an
/// append, replacement can narrow the unify, so unify-up is not enough.
fn re_unify_column(canonical: &mut Relation, derived: &mut Relation, idx: usize) {
    let ty = canonical
        .rows()
        .iter()
        .fold(ValueType::Null, |t, r| t.unify(r[idx].value_type()));
    canonical.schema_mut().set_column_type(idx, ty);
    derived.schema_mut().set_column_type(idx, ty);
}

#[derive(Debug, Clone)]
struct CacheEntry {
    derived: Derived,
    /// The evaluated multiset in canonical (base-insertion) order — what
    /// the reorganize fast path re-sorts, so tie-breaking is identical to
    /// a from-scratch evaluation.
    canonical: Relation,
    content: ContentKey,
    spec: Spec,
    /// Per-column dense ranks of `canonical`'s rows (rank preserves
    /// `Value` order, ties share a rank), keyed by the column's position
    /// in the canonical schema. Computed lazily the first time a column
    /// participates in a reorganize, then reused: repeated
    /// regrouping/reordering over the same content sorts `u32` keys
    /// instead of re-comparing `Value`s. Narrowing filters the vectors in
    /// place (a subsequence of order-preserving keys is still
    /// order-preserving, just no longer dense — only comparisons matter).
    sort_keys: BTreeMap<usize, Vec<u32>>,
    /// Presentation permutation: `derived.data` row `j` is `canonical`
    /// row `perm[j]`. Produced by the index-vector engine and maintained
    /// by every delta path, it lets narrowing filter the derived rows in
    /// place instead of re-sorting. `None` for naive-engine caches,
    /// which never take the incremental paths.
    perm: Option<Vec<u32>>,
    /// Group-membership caches keyed by the resolved basis column
    /// positions in the canonical schema. Built lazily the first time a
    /// narrowing refresh re-aggregates over a basis of non-volatile
    /// columns, then filtered across narrows like `sort_keys` — repeated
    /// tightening re-buckets rows by cached `u32` ids instead of
    /// re-grouping `Value` keys through a `BTreeMap`.
    groups: BTreeMap<Vec<usize>, GroupCache>,
    /// Dense columnar copies of canonical columns that feed grouped
    /// re-aggregation, keyed by schema position. The row store lays rows
    /// out flat, so re-reading an aggregate's input column through it
    /// strides over every other column of each row; these buffers turn
    /// that into a sequential scan. Cached only for non-volatile columns
    /// (whose values the incremental paths never rewrite) and narrowed
    /// by `keep` like the rank caches.
    col_vals: BTreeMap<usize, Vec<Value>>,
    /// Row provenance: canonical row `i` came from base row
    /// `base_ids[i]` (strictly ascending — selection preserves base
    /// order). This is what lets base-data deltas address the cache:
    /// appends binary-search their insertion point, deletes translate
    /// base row ids into canonical `keep` sets. `None` for naive-engine
    /// caches, alongside `perm`.
    base_ids: Option<Vec<u32>>,
    /// Per-group running aggregate folds keyed by aggregate column
    /// position, then by the group's basis values in spec order. Built
    /// lazily on the first tail append and advanced per append. Any
    /// retraction or mid-order row clears them: a fold cannot un-push,
    /// and it must take its inputs in canonical order.
    agg_folds: BTreeMap<usize, BTreeMap<Vec<Value>, Fold>>,
    /// Set-aside rows per selection id: ascending base ids holding every
    /// row that fails that selection alone and passes all the others,
    /// and no row of `canonical` (it may hold more — rows that fail other
    /// selections too are filtered out when staged). A narrowing adds the
    /// rows it drops to the narrowed selections' sets; a widening of one
    /// selection stages its set back ([`CacheEntry::widen`]). A selection
    /// without an entry has unknown set-aside rows: a full evaluation
    /// knows none, and a base edit or a widening of another selection
    /// drops them.
    rejected: BTreeMap<u64, Vec<u32>>,
}

/// Merge two ascending, disjoint id lists into one ascending list.
fn merge_ids(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl CacheEntry {
    fn new(
        derived: Derived,
        canonical: Relation,
        content: ContentKey,
        spec: Spec,
        prov: Option<(Vec<u32>, Vec<u32>)>,
    ) -> CacheEntry {
        let (perm, base_ids) = match prov {
            Some((perm, base_ids)) => (Some(perm), Some(base_ids)),
            None => (None, None),
        };
        CacheEntry {
            derived,
            canonical,
            content,
            spec,
            sort_keys: BTreeMap::new(),
            perm,
            groups: BTreeMap::new(),
            col_vals: BTreeMap::new(),
            base_ids,
            agg_folds: BTreeMap::new(),
            rejected: BTreeMap::new(),
        }
    }

    /// Aggregate `func(column)` per group of `basis` over the cached
    /// canonical rows, using (and lazily building) the group-membership
    /// cache for `basis`. Returns the cache's key (the basis positions),
    /// each group's value and the values' unified type; a group emptied
    /// by narrowing keeps `Null` and takes no part in the type, as it has
    /// no row to receive a value.
    ///
    /// Only sound when no basis column is volatile — the caller gates on
    /// that — since cached group ids assume basis values are unchanged.
    /// Per-group input order is ascending canonical order, matching the
    /// full evaluator's, so float aggregation is bit-identical; the
    /// per-group type unify equals the full evaluator's per-row one
    /// because every row carries exactly its group's value.
    ///
    /// `input_stable` says the input column itself is non-volatile, i.e.
    /// its values are never rewritten while this cache entry lives —
    /// only then may the input be read from (and cached in) the dense
    /// columnar buffer.
    fn aggregate_grouped(
        &mut self,
        func: AggFunc,
        column: &str,
        basis: &[String],
        input_stable: bool,
    ) -> Result<(Vec<usize>, Vec<Value>, ValueType)> {
        let schema = self.canonical.schema();
        let basis_idx: Vec<usize> = basis
            .iter()
            .map(|b| schema.index_of(b))
            .collect::<ssa_relation::Result<_>>()?;
        let col_idx = schema.index_of(column)?;
        let CacheEntry {
            groups,
            canonical,
            col_vals,
            ..
        } = self;
        let rows = canonical.rows();
        let gc = groups
            .entry(basis_idx.clone())
            .or_insert_with_key(|basis_idx| {
                if basis_idx.is_empty() {
                    // Level 1: the whole sheet is one group.
                    GroupCache {
                        gid: vec![0; rows.len()],
                        groups: 1,
                    }
                } else {
                    // One reused key buffer: a key is allocated per group,
                    // not per row.
                    let mut ids: BTreeMap<Vec<&Value>, u32> = BTreeMap::new();
                    let mut gid = Vec::with_capacity(rows.len());
                    let mut key: Vec<&Value> = Vec::with_capacity(basis_idx.len());
                    for t in rows {
                        key.clear();
                        key.extend(basis_idx.iter().map(|&i| &t[i]));
                        let next = ids.len() as u32;
                        gid.push(match ids.get(key.as_slice()) {
                            Some(&g) => g,
                            None => *ids.entry(key.clone()).or_insert(next),
                        });
                    }
                    GroupCache {
                        gid,
                        groups: ids.len() as u32,
                    }
                }
            });
        // One pass over the rows, pushing each input into its group's
        // fold; a group emptied by narrowing never gets one. When the
        // input column is stable its values are read from the dense
        // columnar buffer (built on first use, narrowed thereafter)
        // instead of strided out of the row chunks.
        let mut folds: Vec<Option<Fold>> = vec![None; gc.groups as usize];
        let mut push =
            |g: u32, v: &Value| folds[g as usize].get_or_insert_with(|| func.fold()).push(v);
        if input_stable {
            let vals = col_vals
                .entry(col_idx)
                .or_insert_with(|| rows.column(col_idx));
            for (&g, v) in gc.gid.iter().zip(vals.iter()) {
                push(g, v)?;
            }
        } else {
            for (&g, t) in gc.gid.iter().zip(rows) {
                push(g, &t[col_idx])?;
            }
        }
        let mut per_group = vec![Value::Null; gc.groups as usize];
        let mut ty = ValueType::Null;
        for (g, fold) in folds.iter().enumerate() {
            if let Some(fold) = fold {
                let v = fold.value()?;
                ty = ty.unify(v.value_type());
                per_group[g] = v;
            }
        }
        Ok((basis_idx, per_group, ty))
    }

    /// Re-aggregate `func(column)` through [`Self::aggregate_grouped`]
    /// and write the refreshed values straight into column `idx` of both
    /// the canonical and the derived relation (through `perm`), setting
    /// both schemas' static type — one fused pass, no intermediate
    /// column materialization.
    fn refresh_aggregate_grouped(
        &mut self,
        idx: usize,
        func: AggFunc,
        column: &str,
        basis: &[String],
        perm: &[u32],
        input_stable: bool,
    ) -> Result<()> {
        let (key, per_group, ty) = self.aggregate_grouped(func, column, basis, input_stable)?;
        let gid = &self.groups[&key].gid;
        for (r, row) in self.canonical.rows_mut().iter_mut().enumerate() {
            row[idx] = per_group[gid[r] as usize];
        }
        for (j, row) in self.derived.data.rows_mut().iter_mut().enumerate() {
            row[idx] = per_group[gid[perm[j] as usize] as usize];
        }
        self.canonical.schema_mut().set_column_type(idx, ty);
        self.derived.data.schema_mut().set_column_type(idx, ty);
        Ok(())
    }

    /// Order-preserving sort keys for the canonical column at `idx`
    /// (equal values share a key), cached. Keyed by schema position and
    /// resolved through the entry API: a hit walks the map once and
    /// allocates nothing.
    fn ranks_for(&mut self, idx: usize) -> &[u32] {
        let CacheEntry {
            sort_keys,
            canonical,
            ..
        } = self;
        sort_keys.entry(idx).or_insert_with(|| {
            let rows = canonical.rows();
            // Fast path for string columns: keys come straight from the
            // interner's lexicographic rank snapshot — one O(1) lookup
            // per row, no row sort, no string comparisons. Same symbol ⇒
            // same key and rank order ⇒ lexicographic order, so the keys
            // satisfy the same contract as dense ranks.
            let all_str = !rows.is_empty() && rows.iter().all(|t| matches!(t[idx], Value::Str(_)));
            if all_str {
                let snap = ssa_relation::intern::rank_snapshot();
                rows.iter()
                    .map(|t| match t[idx] {
                        Value::Str(s) => snap[s.id() as usize],
                        _ => unreachable!("checked all-string above"),
                    })
                    .collect()
            } else {
                let vals: Vec<&Value> = rows.iter().map(|t| &t[idx]).collect();
                let mut order: Vec<u32> = (0..vals.len() as u32).collect();
                order.sort_by(|&a, &b| vals[a as usize].cmp(vals[b as usize]));
                let mut ranks = vec![0u32; vals.len()];
                let mut rank = 0u32;
                for (i, &row) in order.iter().enumerate() {
                    if i > 0 && vals[row as usize] != vals[order[i - 1] as usize] {
                        rank += 1;
                    }
                    ranks[row as usize] = rank;
                }
                ranks
            }
        })
    }

    /// Reorganize the cached canonical data under `spec` using the
    /// rank cache: a stable index sort over `u32` rank keys, then one
    /// row gather. Produces exactly what a full evaluation's
    /// presentation sort would (dense ranks preserve `Value` order and
    /// stability preserves canonical tie-breaking).
    fn reorganize(&mut self, spec: &Spec, visible: Vec<String>) -> Result<()> {
        let columns: Vec<(usize, bool)> = spec
            .sort_columns()
            .into_iter()
            .map(|(name, desc)| {
                self.canonical
                    .schema()
                    .index_of(&name)
                    .map(|idx| (idx, desc))
            })
            .collect::<ssa_relation::Result<_>>()?;
        for &(idx, _) in &columns {
            self.ranks_for(idx);
        }
        let keys: Vec<(&Vec<u32>, bool)> = columns
            .iter()
            .map(|(idx, desc)| (&self.sort_keys[idx], *desc))
            .collect();
        let mut perm: Vec<u32> = (0..self.canonical.len() as u32).collect();
        perm.sort_by(|&a, &b| {
            for (ranks, desc) in &keys {
                let ord = ranks[a as usize].cmp(&ranks[b as usize]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let data = self.canonical.take_rows(&perm);
        let level_bases: Vec<Vec<String>> = spec.levels.iter().map(|l| l.basis.clone()).collect();
        let tree = build_tree(&data, &level_bases);
        self.derived = Derived {
            data,
            tree,
            visible,
        };
        self.spec = spec.clone();
        self.perm = Some(perm);
        Ok(())
    }

    /// Narrow the cached multiset (DESIGN.md §10): keep only the rows
    /// satisfying every delta predicate, refresh the volatile
    /// (aggregate-dependent) computed columns over the smaller multiset,
    /// and re-unify every computed column's static type so the schema
    /// matches what a fresh evaluation would produce.
    ///
    /// Both the canonical and the derived relations are filtered *in
    /// place* through the presentation permutation — no re-sort, no rank
    /// recomputation, no row clones — so the derived view stays current
    /// under an unchanged spec (the caller reorganizes only when the
    /// spec moved too). Requires `self.perm`.
    ///
    /// `narrowed` names the selections the predicates come from (added
    /// or tightened); the dropped rows become their set-aside rows.
    fn narrow(&mut self, predicates: &[Expr], narrowed: &[u64], state: &QueryState) -> Result<()> {
        ssa_relation::fault_check!("delta.narrow");
        // Same rewrite the full evaluator's fused filter pass applies:
        // cheap and selective predicates first (the narrowed predicates
        // all commute — they tighten one already-applied conjunction).
        let ordered = crate::plan::reorder_predicates(predicates, Some(&self.canonical));
        let Some(predicate) = Expr::conjoin(ordered) else {
            return Ok(());
        };
        let keep = filter_relation(&self.canonical, &predicate)?;
        self.set_aside(narrowed, &keep);
        if keep.len() == self.canonical.len() {
            // The tightened predicates removed nothing: rows, aggregates,
            // order, tree and types all stand exactly as cached.
            return Ok(());
        }
        self.narrow_to(&keep, state)
    }

    /// Record the canonical rows a narrowing drops (those missing from
    /// the ascending `keep`) as set-aside rows of each narrowed selection.
    /// A dropped row passed every cached selection, so every row that
    /// now fails one narrowed selection alone is among them: an added
    /// selection's set is the dropped rows, a tightened one adds them to
    /// its known set (an unknown set stays unknown). Every other
    /// selection's set stays a valid superset — the rows it holds that
    /// now fail the narrowing are filtered out when a widening stages
    /// them.
    fn set_aside(&mut self, narrowed: &[u64], keep: &[u32]) {
        let Some(ids) = self.base_ids.as_ref() else {
            return;
        };
        let sets: Vec<(u64, Vec<u32>)> = narrowed
            .iter()
            .filter_map(|&id| {
                let tightened = self.content.selections.iter().any(|s| s.id == id);
                match self.rejected.remove(&id) {
                    Some(set) if tightened => Some((id, set)),
                    _ if tightened => None,
                    _ => Some((id, Vec::new())),
                }
            })
            .collect();
        if sets.is_empty() {
            return;
        }
        let mut dropped = Vec::with_capacity(ids.len() - keep.len());
        let mut k = keep.iter().peekable();
        for (i, &b) in ids.iter().enumerate() {
            if k.next_if_eq(&&(i as u32)).is_none() {
                dropped.push(b);
            }
        }
        for (id, set) in sets {
            self.rejected.insert(id, merge_ids(&set, &dropped));
        }
    }

    /// Widen the cached evaluation (DESIGN.md §10): selection `id` was
    /// removed (`replacement` is `None`) or replaced by a predicate it
    /// does not imply. Its set-aside rows are staged through the new
    /// state ([`stage_base_rows`], which also drops those failing another
    /// selection or the replacement), an incomparable replacement also
    /// filters the cached rows, and both are merged into canonical order
    /// by base id in one pass, copying each returning row once, from the
    /// staged chunks into the rebuilt ones; the group and column caches
    /// extend through the same merge. The presentation
    /// order under the cached spec is a merge too: the returning rows
    /// are sorted among themselves and merged into the surviving
    /// permutation (ties by canonical position, as the full pipeline's
    /// stable sort breaks them). Every volatile column is then refolded
    /// over the merged rows in canonical order — float `Sum`/`Avg`
    /// included, bit for bit — and every computed column retyped.
    ///
    /// Afterwards only `id` has known set-aside rows: every row that
    /// failed both `id` and another selection may now fail just the
    /// other one, which that selection's set never recorded.
    fn widen(
        &mut self,
        base: &Relation,
        id: u64,
        replacement: Option<&Expr>,
        state: &QueryState,
    ) -> Result<()> {
        ssa_relation::fault_check!("delta.widen");
        let internal = |detail: &str| SheetError::Internal {
            detail: detail.to_string(),
        };
        let old = self
            .content
            .selections
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| internal("widened selection missing from the cache"))?
            .predicate
            .clone();
        let candidates = self
            .rejected
            .remove(&id)
            .ok_or_else(|| internal("widened selection has no set-aside rows"))?;
        self.rejected.clear();
        let ids = self
            .base_ids
            .take()
            .ok_or_else(|| internal("widen requires row provenance"))?;
        let old_perm = self
            .perm
            .take()
            .ok_or_else(|| internal("widen requires the presentation permutation"))?;
        // An incomparable replacement can reject cached rows too.
        let keep = match replacement {
            Some(p) if !old.implies(p) => Some(filter_relation(&self.canonical, p)?),
            _ => None,
        };
        let (staged_ids, staged) =
            stage_base_rows(self.canonical.schema(), base, candidates.clone(), state)?;
        // The staged rows, resolved once for the merges and sorts below.
        let staged_rows: Vec<&[Value]> = staged.rows().iter().collect();
        let mut back = staged_ids.iter().copied().peekable();
        let still_out: Vec<u32> = candidates
            .iter()
            .copied()
            .filter(|&c| back.next_if_eq(&c).is_none())
            .collect();

        // One pass over the cached base ids: where each cached row goes
        // (`remap`, u32::MAX when an incomparable replacement drops it)
        // and where each staged row lands in the merged canonical order:
        // `inserts` pairs a merged position with a staged row index.
        let mut merged_ids: Vec<u32> = Vec::with_capacity(ids.len() + staged_ids.len());
        let mut inserts: Vec<(usize, usize)> = Vec::with_capacity(staged_ids.len());
        let mut remap = vec![u32::MAX; ids.len()];
        let mut dropped: Vec<u32> = Vec::new();
        let mut staged_iter = staged_ids.iter().copied().enumerate().peekable();
        let mut kept = keep.as_deref().map(|k| k.iter().peekable());
        for (i, &b) in ids.iter().enumerate() {
            while let Some((k, sb)) = staged_iter.next_if(|&(_, sb)| sb < b) {
                inserts.push((merged_ids.len(), k));
                merged_ids.push(sb);
            }
            let stays = match kept.as_mut() {
                None => true,
                Some(k) => k.next_if_eq(&&(i as u32)).is_some(),
            };
            if stays {
                remap[i] = merged_ids.len() as u32;
                merged_ids.push(b);
            } else {
                dropped.push(b);
            }
        }
        for (k, sb) in staged_iter {
            inserts.push((merged_ids.len(), k));
            merged_ids.push(sb);
        }
        let len = merged_ids.len();

        // Group and column caches extend through the merge: a cached
        // row keeps its group id and values, a returning row looks its
        // group up by basis values (one representative per group).
        for (basis, gc) in self.groups.iter_mut() {
            let mut rep: Vec<Option<usize>> = vec![None; gc.groups as usize];
            for (i, &g) in gc.gid.iter().enumerate() {
                rep[g as usize].get_or_insert(i);
            }
            let rows = self.canonical.rows();
            let key = |t: &[Value]| -> Vec<Value> { basis.iter().map(|&c| t[c]).collect() };
            let mut by_key: BTreeMap<Vec<Value>, u32> = rep
                .iter()
                .enumerate()
                .filter_map(|(g, r)| r.map(|r| (key(&rows[r]), g as u32)))
                .collect();
            let mut gid = vec![0u32; len];
            for (i, &g) in gc.gid.iter().enumerate() {
                if remap[i] != u32::MAX {
                    gid[remap[i] as usize] = g;
                }
            }
            for &(pos, k) in &inserts {
                let next = gc.groups;
                let g = *by_key.entry(key(staged_rows[k])).or_insert(next);
                if g == next {
                    gc.groups += 1;
                }
                gid[pos] = g;
            }
            gc.gid = gid;
        }
        for (&col, vals) in self.col_vals.iter_mut() {
            let mut merged = vec![Value::Null; len];
            for (i, v) in vals.iter().enumerate() {
                if remap[i] != u32::MAX {
                    merged[remap[i] as usize] = *v;
                }
            }
            for &(pos, k) in &inserts {
                merged[pos] = staged_rows[k][col];
            }
            *vals = merged;
        }
        // Rank keys cannot take values they never ranked; they rebuild
        // lazily on the next reorganize. Folds cannot take mid-order rows.
        self.sort_keys.clear();
        self.agg_folds.clear();

        // The presentation order: the surviving permutation, renumbered,
        // merged with the returning rows sorted by the spec's keys.
        let sort_idx = resolve_sort_idx(&self.spec, &self.canonical)?;
        let cmp = |a: (&[Value], u32), b: (&[Value], u32)| -> std::cmp::Ordering {
            for &(i, desc) in &sort_idx {
                let ord = a.0[i].cmp(&b.0[i]);
                let ord = if desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            a.1.cmp(&b.1)
        };
        let mut fresh: Vec<usize> = (0..inserts.len()).collect();
        let inserted = |x: usize| -> (&[Value], u32) {
            let (p, k) = inserts[x];
            (staged_rows[k], p as u32)
        };
        fresh.sort_by(|&x, &y| cmp(inserted(x), inserted(y)));
        let mut perm: Vec<u32> = Vec::with_capacity(len);
        let mut derived_inserts: Vec<(usize, usize)> = Vec::with_capacity(inserts.len());
        {
            // Derived row j is canonical row old_perm[j]; walking the
            // derived rows reads them in memory order.
            let old_rows = self.derived.data.rows();
            let mut fresh = fresh.into_iter().peekable();
            for (&c, old_row) in old_perm.iter().zip(old_rows) {
                let c_new = remap[c as usize];
                if c_new == u32::MAX {
                    continue;
                }
                while let Some(x) = fresh.next_if(|&x| cmp(inserted(x), (old_row, c_new)).is_lt()) {
                    derived_inserts.push((perm.len(), inserts[x].1));
                    perm.push(inserts[x].0 as u32);
                }
                perm.push(c_new);
            }
            for x in fresh {
                derived_inserts.push((perm.len(), inserts[x].1));
                perm.push(inserts[x].0 as u32);
            }
        }
        // Chunks before the first touched row stay shared.
        if keep.is_some() {
            self.canonical.retain_rows(|i| remap[i] != u32::MAX);
            self.derived
                .data
                .retain_rows(|j| remap[old_perm[j] as usize] != u32::MAX);
        }
        let staged_at = |&(at, k): &(usize, usize)| (at, staged_rows[k]);
        self.canonical
            .rows_mut()
            .insert_sorted(inserts.iter().map(staged_at));
        self.derived
            .data
            .rows_mut()
            .insert_sorted(derived_inserts.iter().map(staged_at));
        self.base_ids = Some(merged_ids);
        let level_bases: Vec<Vec<String>> =
            self.spec.levels.iter().map(|l| l.basis.clone()).collect();
        self.derived.tree = build_tree(&self.derived.data, &level_bases);
        self.refresh_volatile(state, &perm)?;
        self.perm = Some(perm);
        if replacement.is_some() {
            self.rejected.insert(id, merge_ids(&still_out, &dropped));
        }
        Ok(())
    }

    /// The retraction core shared by predicate narrowing and base-row
    /// deletion: keep exactly the canonical rows listed (ascending) in
    /// `keep`, filter every derived structure through the permutation,
    /// and refresh the volatile columns over the smaller multiset.
    fn narrow_to(&mut self, keep: &[u32], state: &QueryState) -> Result<()> {
        // Retraction invalidates the running folds: a fold cannot
        // un-push exactly (float SUM/AVG) and Min/Max cannot retract at
        // all — the classification rule DESIGN.md §14 documents.
        self.agg_folds.clear();
        // Row provenance narrows by the same filter: a surviving
        // canonical row keeps its base id, and ascending order survives
        // an order-preserving filter.
        if let Some(ids) = self.base_ids.as_mut() {
            *ids = keep.iter().map(|&i| ids[i as usize]).collect();
        }
        // Old canonical index → new (dense) index, u32::MAX for dropped.
        let mut remap = vec![u32::MAX; self.canonical.len()];
        for (new_idx, &old_idx) in keep.iter().enumerate() {
            remap[old_idx as usize] = new_idx as u32;
        }
        // A filtered subsequence of order-preserving keys is still
        // order-preserving, so the rank cache survives.
        for ranks in self.sort_keys.values_mut() {
            *ranks = keep.iter().map(|&i| ranks[i as usize]).collect();
        }
        // Group membership of a surviving row is unchanged, so the group
        // caches narrow the same way (some groups may become empty).
        for gc in self.groups.values_mut() {
            gc.gid = keep.iter().map(|&i| gc.gid[i as usize]).collect();
        }
        // A surviving row's stable-column values are unchanged too, so
        // the columnar buffers narrow by the same index filter.
        for vals in self.col_vals.values_mut() {
            *vals = keep.iter().map(|&i| vals[i as usize]).collect();
        }
        // The derived rows are the same multiset in presentation order:
        // drop the same rows there (in place) and renumber the
        // permutation, preserving the presentation order of survivors.
        let old_perm = self.perm.take().ok_or_else(|| {
            // The caller gates this path on `perm.is_some()`; degrade to
            // the full-evaluation fallback rather than panic if not.
            SheetError::Internal {
                detail: "narrow requires the presentation permutation".to_string(),
            }
        })?;
        let mut perm = Vec::with_capacity(keep.len());
        // Old derived (presentation) index → new, u32::MAX for dropped —
        // this is what lets the group tree be narrowed in place below.
        let mut dmap = vec![u32::MAX; old_perm.len()];
        self.canonical.retain_rows(|i| remap[i] != u32::MAX);
        self.derived.data.retain_rows(|j| {
            let mapped = remap[old_perm[j] as usize];
            if mapped != u32::MAX {
                dmap[j] = perm.len() as u32;
                perm.push(mapped);
            }
            mapped != u32::MAX
        });

        self.refresh_volatile(state, &perm)?;
        // Rows vanished: narrow the group tree in place. Grouping-basis
        // values are unchanged (a volatile basis or order column forces
        // the caller to reorganize, which rebuilds the tree from
        // scratch), so filtering each node's row list by `dmap` yields
        // exactly what `build_tree` over the filtered relation would.
        self.derived.tree.narrow(&dmap);
        self.perm = Some(perm);
        Ok(())
    }

    /// Refresh every volatile (aggregate-dependent) computed column over
    /// the current canonical rows, in dependency order — canonical and
    /// derived rows alike, through the presentation permutation `perm` —
    /// and re-unify every computed column's static type so the schema
    /// matches what a fresh evaluation would produce. Shared by narrowing
    /// (a smaller multiset) and widening (a merged one).
    fn refresh_volatile(&mut self, state: &QueryState, perm: &[u32]) -> Result<()> {
        // Step 4's automatic update, confined to the columns it can
        // actually change. Dependency order via fixpoint:
        // a volatile column is refreshed once its volatile inputs are.
        let volatile = volatile_columns(&state.computed);
        let mut refreshed: Vec<usize> = Vec::new();
        let mut grouped: BTreeSet<usize> = BTreeSet::new();
        let mut done: BTreeSet<&str> = BTreeSet::new();
        while done.len() < volatile.len() {
            let mut progressed = false;
            for col in &state.computed {
                if !volatile.contains(&col.name) || done.contains(col.name.as_str()) {
                    continue;
                }
                if col
                    .def
                    .dependencies()
                    .iter()
                    .any(|d| volatile.contains(d) && !done.contains(d.as_str()))
                {
                    continue;
                }
                let idx = self.canonical.schema().index_of(&col.name)?;
                // Aggregates over a stable basis re-bucket through the
                // group cache, writing canonical and derived (and both
                // static types) in one fused pass; everything else
                // (formulas, aggregates whose basis was itself just
                // refreshed) goes through the general single-column
                // evaluator and is mirrored/re-typed below.
                match &col.def {
                    ComputedDef::Aggregate {
                        func,
                        column,
                        basis,
                        ..
                    } if basis.iter().all(|b| !volatile.contains(b)) => {
                        let input_stable = !volatile.contains(column);
                        self.refresh_aggregate_grouped(
                            idx,
                            *func,
                            column,
                            basis,
                            perm,
                            input_stable,
                        )?;
                        grouped.insert(idx);
                    }
                    _ => {
                        let (values, _) = compute_column_values(&self.canonical, col)?;
                        for (row, v) in self.canonical.rows_mut().iter_mut().zip(&values) {
                            row[idx] = *v;
                        }
                        refreshed.push(idx);
                    }
                }
                self.sort_keys.remove(&idx);
                self.col_vals.remove(&idx);
                done.insert(&col.name);
                progressed = true;
            }
            if !progressed {
                // Unreachable for validated state (no cycles); bail to
                // the caller's full-evaluation fallback rather than spin.
                return Err(SheetError::UnknownColumn {
                    name: "cyclic computed dependencies".to_string(),
                });
            }
        }
        // Mirror the refreshed values into the derived rows through the
        // permutation (derived row j is canonical row perm[j]).
        for &idx in &refreshed {
            let canonical_rows = self.canonical.rows();
            for (j, row) in self.derived.data.rows_mut().iter_mut().enumerate() {
                row[idx] = canonical_rows[perm[j] as usize][idx];
            }
        }
        // `result_schema` types each computed column by unifying its
        // surviving values; match it so `Derived` equality holds. The
        // group-refreshed columns were already typed from their per-group
        // values (every row holds its group's value, so that unify is the
        // same), sparing a full column scan each.
        for col in &state.computed {
            let idx = self.canonical.schema().index_of(&col.name)?;
            if grouped.contains(&idx) {
                continue;
            }
            let ty = self
                .canonical
                .rows()
                .iter()
                .fold(ValueType::Null, |t, r| t.unify(r[idx].value_type()));
            self.canonical.schema_mut().set_column_type(idx, ty);
            self.derived.data.schema_mut().set_column_type(idx, ty);
        }
        Ok(())
    }

    /// Bring the derived view in line with `spec` after a narrowing or a
    /// widening. Both keep the cached presentation order (a widening
    /// merges the returning rows into it), which is only the order a
    /// fresh evaluation would produce while every spec sort/group column
    /// kept its values. A volatile (aggregate-dependent) spec column was
    /// just refreshed, so re-sort even under an unchanged spec (the
    /// refresh dropped the refreshed columns' rank caches, so the
    /// reorganize ranks from the new values).
    fn present_rows_patch(
        &mut self,
        spec: &Spec,
        visible: &[String],
        state: &QueryState,
    ) -> Result<()> {
        let volatile = volatile_columns(&state.computed);
        let spec_volatile = spec
            .sort_columns()
            .iter()
            .any(|(c, _)| volatile.contains(c));
        if self.spec != *spec || spec_volatile {
            self.reorganize(spec, visible.to_vec())
        } else {
            self.derived.visible = visible.to_vec();
            Ok(())
        }
    }

    /// Append one computed column (classified rank-last, so plain append
    /// reproduces the canonical rank-order layout) by materializing it
    /// over the cached rows. With the presentation permutation at hand
    /// the derived relation gets the same column in place — rows, order
    /// and tree are untouched by a new column; without it the caller
    /// must reorganize to rebuild the derived view.
    fn append_computed(&mut self, col: &ComputedColumn) -> Result<()> {
        ssa_relation::fault_check!("delta.append");
        let (values, ty) = compute_column_values(&self.canonical, col)?;
        if let Some(perm) = &self.perm {
            self.derived
                .data
                .add_column(Column::new(col.name.clone(), ty), |j, _| {
                    values[perm[j] as usize]
                })?;
        }
        let mut it = values.into_iter();
        self.canonical
            .add_column(Column::new(col.name.clone(), ty), |_, _| {
                // invariant: `compute_column_values` yields one value per
                // canonical row, in order.
                it.next().unwrap_or(Value::Null)
            })?;
        Ok(())
    }

    /// Append an aggregate whose basis is stable (non-volatile): group
    /// it through the cached group ids ([`Self::aggregate_grouped`])
    /// instead of regrouping composite keys, then add the column to the
    /// canonical and the derived relation (through the presentation
    /// permutation) in one restride each.
    fn append_aggregate_grouped(
        &mut self,
        name: &str,
        func: AggFunc,
        column: &str,
        basis: &[String],
        input_stable: bool,
    ) -> Result<()> {
        ssa_relation::fault_check!("delta.append");
        let (key, per_group, ty) = self.aggregate_grouped(func, column, basis, input_stable)?;
        let perm = self.perm.as_ref().ok_or_else(|| SheetError::Internal {
            detail: "grouped append requires the presentation permutation".to_string(),
        })?;
        let gid = &self.groups[&key].gid;
        self.derived
            .data
            .add_column(Column::new(name, ty), |j, _| {
                per_group[gid[perm[j] as usize] as usize]
            })?;
        self.canonical
            .add_column(Column::new(name, ty), |r, _| per_group[gid[r] as usize])?;
        Ok(())
    }

    /// Drop one computed column from the cached canonical and derived
    /// relations in place. Rows, presentation order and the group tree
    /// are untouched (the operators refuse to remove a column anything
    /// depends on), so no reorganize is needed.
    fn remove_computed(&mut self, name: &str) -> Result<()> {
        ssa_relation::fault_check!("delta.remove");
        let idx = self.canonical.schema().index_of(name)?;
        self.canonical.drop_column(name)?;
        self.derived.data.drop_column(name)?;
        let old = std::mem::take(&mut self.sort_keys);
        self.sort_keys = old
            .into_iter()
            .filter_map(|(i, v)| match i.cmp(&idx) {
                std::cmp::Ordering::Less => Some((i, v)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some((i - 1, v)),
            })
            .collect();
        // Columnar buffers are keyed by schema position too.
        let old_vals = std::mem::take(&mut self.col_vals);
        self.col_vals = old_vals
            .into_iter()
            .filter_map(|(i, v)| match i.cmp(&idx) {
                std::cmp::Ordering::Less => Some((i, v)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some((i - 1, v)),
            })
            .collect();
        // Group caches are keyed by basis positions: drop any over the
        // removed column (defensive — dependents block its removal) and
        // shift positions past it.
        let old_groups = std::mem::take(&mut self.groups);
        self.groups = old_groups
            .into_iter()
            .filter_map(|(key, gc)| {
                if key.contains(&idx) {
                    return None;
                }
                let key = key
                    .into_iter()
                    .map(|i| if i > idx { i - 1 } else { i })
                    .collect();
                Some((key, gc))
            })
            .collect();
        // Folds are keyed by schema position too; dropping a column
        // shifts every later one, so just rebuild lazily.
        self.agg_folds.clear();
        Ok(())
    }

    /// Splice `row` — base row `base_idx` as [`stage_base_rows`] ran it
    /// through the query state — into the canonical relation, the
    /// presentation permutation, the derived rows and the group tree:
    /// the streaming-append tentpole.
    ///
    /// Grouped aggregates advance per-group running folds when the row
    /// lands at the canonical tail (ascending base ids make that the
    /// common case); an out-of-order splice recomputes just the affected
    /// group.
    fn insert_base_row(
        &mut self,
        base: &Relation,
        base_idx: u32,
        row: &[Value],
        state: &QueryState,
    ) -> Result<()> {
        let internal = |detail: &str| SheetError::Internal {
            detail: detail.to_string(),
        };
        let ids = self
            .base_ids
            .as_ref()
            .ok_or_else(|| internal("insert_base_row requires row provenance"))?;
        let cpos = ids.partition_point(|&b| b < base_idx);

        // Appending can only widen a computed column's unified type
        // (unify is monotone), so unify-up matches what a fresh
        // evaluation's `result_schema` would produce over the grown
        // multiset. Base columns keep the base schema's static type
        // verbatim — `result_schema` copies them unexamined.
        let base_len = base.schema().len();
        for (idx, col) in self
            .canonical
            .schema()
            .columns()
            .to_vec()
            .iter()
            .enumerate()
        {
            if idx < base_len {
                continue;
            }
            let ty = col.ty.unify(row[idx].value_type());
            if ty != col.ty {
                self.canonical.schema_mut().set_column_type(idx, ty);
                self.derived.data.schema_mut().set_column_type(idx, ty);
            }
        }

        let CacheEntry {
            canonical,
            derived,
            perm,
            base_ids,
            spec,
            sort_keys,
            groups,
            col_vals,
            agg_folds,
            ..
        } = self;
        let perm = perm
            .as_mut()
            .ok_or_else(|| internal("insert_base_row requires the presentation permutation"))?;
        let base_ids = base_ids
            .as_mut()
            .ok_or_else(|| internal("insert_base_row requires row provenance"))?;
        canonical.rows_mut().insert(cpos, row);
        base_ids.insert(cpos, base_idx);
        // Renumber canonical positions at or after the splice point. A
        // live-feed append lands at the canonical tail (base order is
        // insertion order), where no position shifts — keep that hot
        // path free of the O(n) scan.
        if cpos + 1 < canonical.len() {
            for c in perm.iter_mut() {
                if *c as usize >= cpos {
                    *c += 1;
                }
            }
        }
        // Presentation position: first slot whose row sorts after the
        // new one; equal keys tie-break by canonical position, matching
        // the stable sort of a fresh evaluation.
        let sort_idx = resolve_sort_idx(spec, canonical)?;
        let rows = canonical.rows();
        let new_row = &rows[cpos];
        let p = perm.partition_point(|&c| {
            let existing = &rows[c as usize];
            for &(i, desc) in &sort_idx {
                let ord = existing[i].cmp(&new_row[i]);
                let ord = if desc { ord.reverse() } else { ord };
                match ord {
                    std::cmp::Ordering::Less => return true,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Equal => {}
                }
            }
            (c as usize) < cpos
        });
        perm.insert(p, cpos as u32);
        derived.data.rows_mut().insert(p, row);
        // Merge the new presentation row into the group tree: per level,
        // the absolute basis values identify (or create) its chain.
        let level_keys: Vec<Vec<(String, Value)>> = spec
            .levels
            .iter()
            .map(|l| {
                l.basis
                    .iter()
                    .map(|b| {
                        Ok((
                            b.clone(),
                            canonical.rows()[cpos][canonical.schema().index_of(b)?],
                        ))
                    })
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        derived.tree.merge_insert(p, &level_keys);
        // Rank/group/columnar caches assume a fixed row population;
        // splicing a row mid-sequence would renumber them all, so drop
        // and rebuild lazily. The running folds survive — they are keyed
        // by basis *values*, not positions.
        sort_keys.clear();
        groups.clear();
        col_vals.clear();

        // Patch the grouped aggregates.
        let at_tail = cpos + 1 == canonical.len();
        for col in &state.computed {
            let ComputedDef::Aggregate {
                func,
                column,
                basis,
                ..
            } = &col.def
            else {
                continue;
            };
            let idx = canonical.schema().index_of(&col.name)?;
            let in_idx = canonical.schema().index_of(column)?;
            let target: Vec<(usize, Value)> = basis
                .iter()
                .map(|b| {
                    let bi = canonical.schema().index_of(b)?;
                    Ok((bi, canonical.rows()[cpos][bi]))
                })
                .collect::<Result<Vec<_>>>()?;
            if !at_tail {
                agg_folds.remove(&idx);
                recompute_group(
                    canonical,
                    &mut derived.data,
                    perm,
                    &sort_idx,
                    idx,
                    in_idx,
                    *func,
                    &target,
                )?;
                re_unify_column(canonical, &mut derived.data, idx);
                continue;
            }
            // Lazily seed the fold map from the pre-append rows (in
            // ascending canonical order, so the folds equal the cached
            // group values), then advance the new row's group.
            let map = match agg_folds.entry(idx) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(slot) => {
                    let mut map: BTreeMap<Vec<Value>, Fold> = BTreeMap::new();
                    let basis_idx: Vec<usize> = target.iter().map(|&(i, _)| i).collect();
                    for r in canonical.rows().iter().take(cpos) {
                        let key: Vec<Value> = basis_idx.iter().map(|&i| r[i]).collect();
                        map.entry(key)
                            .or_insert_with(|| func.fold())
                            .push(&r[in_idx])?;
                    }
                    slot.insert(map)
                }
            };
            let key: Vec<Value> = target.iter().map(|&(_, v)| v).collect();
            let input = canonical.rows()[cpos][in_idx];
            match map.entry(key) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let fold = e.get_mut();
                    let old = fold.value()?;
                    fold.push(&input)?;
                    let new = fold.value()?;
                    if old == new {
                        // Untouched group value: only the new row needs
                        // the cell (it is at the tail, so derived row p
                        // and canonical row cpos are the only writes).
                        canonical.rows_mut()[cpos][idx] = new;
                        derived.data.rows_mut()[p][idx] = new;
                    } else {
                        for j in group_positions(canonical, perm, &sort_idx, &target) {
                            derived.data.rows_mut()[j][idx] = new;
                            canonical.rows_mut()[perm[j] as usize][idx] = new;
                        }
                        if old.value_type() != new.value_type() {
                            re_unify_column(canonical, &mut derived.data, idx);
                        }
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    let fold = e.insert(func.fold());
                    fold.push(&input)?;
                    let v = fold.value()?;
                    canonical.rows_mut()[cpos][idx] = v;
                    derived.data.rows_mut()[p][idx] = v;
                    let ty = canonical.schema().columns()[idx].ty.unify(v.value_type());
                    canonical.schema_mut().set_column_type(idx, ty);
                    derived.data.schema_mut().set_column_type(idx, ty);
                }
            }
        }
        Ok(())
    }

    /// Remove the base rows listed (ascending) in `removed` from the
    /// cached evaluation: translate base ids to surviving canonical
    /// indices, narrow every structure through the shared retraction
    /// core, and renumber the provenance for the shrunken base.
    fn delete_base_rows(&mut self, removed: &[u32], state: &QueryState) -> Result<()> {
        let ids = self.base_ids.as_ref().ok_or_else(|| SheetError::Internal {
            detail: "delete_base_rows requires row provenance".to_string(),
        })?;
        let mut keep: Vec<u32> = Vec::with_capacity(ids.len());
        let mut renumbered: Vec<u32> = Vec::with_capacity(ids.len());
        let mut k = 0usize; // removed ids seen so far (all < current b)
        for (i, &b) in ids.iter().enumerate() {
            while k < removed.len() && removed[k] < b {
                k += 1;
            }
            if k < removed.len() && removed[k] == b {
                continue; // this cached row is being deleted
            }
            keep.push(i as u32);
            renumbered.push(b - k as u32);
        }
        if keep.len() != ids.len() {
            self.narrow_to(&keep, state)?;
        }
        self.base_ids = Some(renumbered);
        Ok(())
    }

    /// Drop one canonical row (by canonical index) from every cached
    /// structure — the retraction half of update-as-delete+append. Group
    /// values are NOT refreshed here; the caller recomputes affected
    /// groups after the re-insert.
    fn remove_canonical_row(&mut self, cpos: usize) -> Result<()> {
        let internal = |detail: &str| SheetError::Internal {
            detail: detail.to_string(),
        };
        let CacheEntry {
            canonical,
            derived,
            perm,
            base_ids,
            sort_keys,
            groups,
            col_vals,
            agg_folds,
            ..
        } = self;
        let perm = perm
            .as_mut()
            .ok_or_else(|| internal("remove_canonical_row requires the permutation"))?;
        let base_ids = base_ids
            .as_mut()
            .ok_or_else(|| internal("remove_canonical_row requires row provenance"))?;
        let j = perm
            .iter()
            .position(|&c| c as usize == cpos)
            .ok_or_else(|| internal("canonical row missing from permutation"))?;
        let old_len = perm.len();
        perm.remove(j);
        for c in perm.iter_mut() {
            if *c as usize > cpos {
                *c -= 1;
            }
        }
        base_ids.remove(cpos);
        canonical.remove_rows_at(&[cpos as u32])?;
        derived.data.remove_rows_at(&[j as u32])?;
        let dmap: Vec<u32> = (0..old_len)
            .map(|oj| match oj.cmp(&j) {
                std::cmp::Ordering::Less => oj as u32,
                std::cmp::Ordering::Equal => u32::MAX,
                std::cmp::Ordering::Greater => (oj - 1) as u32,
            })
            .collect();
        derived.tree.narrow(&dmap);
        sort_keys.clear();
        groups.clear();
        col_vals.clear();
        agg_folds.clear();
        Ok(())
    }

    /// In-place cell update (Tier A): the updated column drives no
    /// selection, formula, grouping basis or sort key — the caller
    /// checked — so only the cell itself and any aggregate *reading*
    /// the column change.
    fn update_base_cell(
        &mut self,
        base: &Relation,
        row: u32,
        column: &str,
        state: &QueryState,
    ) -> Result<()> {
        let internal = |detail: &str| SheetError::Internal {
            detail: detail.to_string(),
        };
        let col_idx = self.canonical.schema().index_of(column)?;
        let ids = self
            .base_ids
            .as_ref()
            .ok_or_else(|| internal("update_base_cell requires row provenance"))?;
        let Ok(cpos) = ids.binary_search(&row) else {
            // The row was filtered out of the cached evaluation; with no
            // selection reading this column (Tier A) it stays out.
            return Ok(());
        };
        let sort_idx = resolve_sort_idx(&self.spec, &self.canonical)?;
        let newv = *base.value_at(row as usize, column)?;
        {
            let CacheEntry {
                canonical,
                derived,
                perm,
                sort_keys,
                groups,
                col_vals,
                ..
            } = self;
            let perm = perm
                .as_ref()
                .ok_or_else(|| internal("update_base_cell requires the permutation"))?;
            let j = perm
                .iter()
                .position(|&c| c as usize == cpos)
                .ok_or_else(|| internal("canonical row missing from permutation"))?;
            canonical.rows_mut()[cpos][col_idx] = newv;
            derived.data.rows_mut()[j][col_idx] = newv;
            sort_keys.remove(&col_idx);
            col_vals.remove(&col_idx);
            groups.retain(|key, _| !key.contains(&col_idx));
            // No schema retype: `column` is a base column, and
            // `result_schema` copies base static types unexamined.
        }
        for col in &state.computed {
            let ComputedDef::Aggregate {
                func,
                column: in_col,
                basis,
                ..
            } = &col.def
            else {
                continue;
            };
            if in_col != column {
                continue;
            }
            let idx = self.canonical.schema().index_of(&col.name)?;
            let in_idx = col_idx;
            let target: Vec<(usize, Value)> = basis
                .iter()
                .map(|b| {
                    let bi = self.canonical.schema().index_of(b)?;
                    Ok((bi, self.canonical.rows()[cpos][bi]))
                })
                .collect::<Result<Vec<_>>>()?;
            let CacheEntry {
                canonical,
                derived,
                perm,
                sort_keys,
                col_vals,
                agg_folds,
                ..
            } = self;
            let perm = perm
                .as_ref()
                .ok_or_else(|| internal("update_base_cell requires the permutation"))?;
            agg_folds.remove(&idx);
            recompute_group(
                canonical,
                &mut derived.data,
                perm,
                &sort_idx,
                idx,
                in_idx,
                *func,
                &target,
            )?;
            re_unify_column(canonical, &mut derived.data, idx);
            sort_keys.remove(&idx);
            col_vals.remove(&idx);
        }
        Ok(())
    }

    /// Update a base cell by delete + re-insert of its row (Tier C): the
    /// updated column drives a selection, formula, grouping basis or
    /// sort key, so the row may move, leave the view or change groups.
    fn reinsert_base_row(&mut self, base: &Relation, row: u32, state: &QueryState) -> Result<()> {
        // Record each aggregate's *old* group key first: the updated row
        // may leave its group, whose remaining rows then hold a stale
        // (wider) fold.
        let live = self
            .base_ids
            .as_ref()
            .ok_or_else(|| SheetError::Internal {
                detail: "base-data patch without row provenance".to_string(),
            })?
            .binary_search(&row)
            .ok();
        let mut old_targets: Vec<Option<Vec<(usize, Value)>>> = vec![None; state.computed.len()];
        if let Some(cpos) = live {
            for (ci, col) in state.computed.iter().enumerate() {
                let ComputedDef::Aggregate { basis, .. } = &col.def else {
                    continue;
                };
                let target: Vec<(usize, Value)> = basis
                    .iter()
                    .map(|b| {
                        let bi = self.canonical.schema().index_of(b)?;
                        Ok((bi, self.canonical.rows()[cpos][bi]))
                    })
                    .collect::<Result<Vec<_>>>()?;
                old_targets[ci] = Some(target);
            }
            self.remove_canonical_row(cpos)?;
        }
        let (ids, staged) = stage_base_rows(self.canonical.schema(), base, vec![row], state)?;
        for (&id, row) in ids.iter().zip(staged.rows()) {
            self.insert_base_row(base, id, row, state)?;
        }
        // Re-aggregate every old group unconditionally. Even when the
        // row re-enters the same group the fast "value unchanged" check
        // inside the insert is not sound here: the cached cells hold the
        // pre-removal fold while the fresh folds hold the post-removal
        // one, so equality of the latter proves nothing about the
        // former. (Pure appends never remove, which is why the check is
        // sound there.)
        let sort_idx = resolve_sort_idx(&self.spec, &self.canonical)?;
        for (ci, col) in state.computed.iter().enumerate() {
            let Some(target) = &old_targets[ci] else {
                continue;
            };
            let ComputedDef::Aggregate {
                func,
                column: in_col,
                ..
            } = &col.def
            else {
                continue;
            };
            let idx = self.canonical.schema().index_of(&col.name)?;
            let in_idx = self.canonical.schema().index_of(in_col)?;
            self.agg_folds.remove(&idx);
            let CacheEntry {
                canonical,
                derived,
                perm,
                ..
            } = self;
            let perm = perm.as_ref().ok_or_else(|| SheetError::Internal {
                detail: "base-data patch without the permutation".to_string(),
            })?;
            recompute_group(
                canonical,
                &mut derived.data,
                perm,
                &sort_idx,
                idx,
                in_idx,
                *func,
                target,
            )?;
        }
        // Retraction can narrow any computed column's unified type;
        // updates are not on the µs-gated path, so re-derive them all.
        for col in &state.computed {
            let idx = self.canonical.schema().index_of(&col.name)?;
            let CacheEntry {
                canonical, derived, ..
            } = self;
            re_unify_column(canonical, &mut derived.data, idx);
        }
        Ok(())
    }
}

/// A live spreadsheet.
///
/// The base data `R` is held behind an [`Arc`]: many sheets (concurrent
/// server sessions, undo snapshots, published reader snapshots) share one
/// immutable copy, and the base-editing operators copy-on-write via
/// [`Arc::make_mut`] — an unshared sheet mutates in place at the §14
/// streaming costs, a shared one pays one relation clone and leaves every
/// other holder's snapshot untouched.
#[derive(Debug, Clone)]
pub struct Spreadsheet {
    name: String,
    base: Arc<Relation>,
    state: QueryState,
    /// Cached evaluation; reorganized in place when only `G`/`O`/`C`
    /// changed, recomputed when the content-determining state changed,
    /// dropped when the base data changed.
    cache: Option<CacheEntry>,
    /// Whether `view` may bring the cache current without a full
    /// evaluation: the reorganize fast path and the delta-aware
    /// incremental paths (narrow / widen / append / remove /
    /// projection-toggle / base-data patches). On by default; the
    /// ablation benches and the differential tests turn it off.
    incremental: bool,
    /// How the state relates to the cached evaluation — recorded by
    /// `invalidate` on every state edit, re-derived by `view`.
    last_delta: StateDelta,
    /// Engine selection passed to every evaluation.
    eval_opts: EvalOptions,
    /// How many points of non-commutativity this sheet has passed.
    epoch: u64,
    /// Monotone count of committed base-data mutations (appends, deletes,
    /// cell updates, epoch transitions, renames) — the §12 transactional
    /// machinery extended into a *data version*: every committed change to
    /// `R` bumps it exactly once, every rolled-back change leaves it
    /// untouched. Snapshot hosts (the `ssa-server` crate) use it as the
    /// published snapshot version.
    version: u64,
    next_formula_id: u64,
    /// Cache self-audit (DESIGN.md §12): when on, every incremental
    /// cache patch in `view` is re-checked against a from-scratch
    /// evaluation. On by default in debug builds, off in release.
    audit: bool,
    /// How many incremental patches failed part-way in `view` (each fell
    /// back to a full evaluation), and the last failure's text — shown by
    /// [`Self::explain`], so a patch path that keeps failing is visible.
    failed_patches: u64,
    last_patch_error: Option<String>,
}

/// The delta recorded before any cache exists or after the base changed.
const FULL_NO_CACHE: StateDelta = StateDelta::Full {
    reason: "no cached evaluation",
};

/// A base-data edit, committed by [`Spreadsheet::edit_base`].
enum BaseEdit<'a> {
    Append(Vec<Tuple>),
    /// Ascending, deduplicated base row ids.
    Delete(Vec<u32>),
    Update {
        row: u32,
        column: &'a str,
        value: Value,
    },
    /// A rebase onto a base that extends the current one.
    Extend(Arc<Relation>),
    /// A rebase onto any other base with the same columns.
    Replace(Arc<Relation>),
}

/// A base edit as it landed in `R`: what the cache patch reads, and what
/// [`Spreadsheet::take_back`] needs to undo it.
enum Landed<'a> {
    /// Base rows `first..first + count` are new; `prior` is the base an
    /// extending rebase replaced.
    Appended {
        first: usize,
        count: usize,
        prior: Option<Arc<Relation>>,
    },
    Deleted {
        ids: Vec<u32>,
        removed: Vec<(u32, Tuple)>,
    },
    Updated {
        row: u32,
        column: &'a str,
        old: Value,
    },
    /// The base a non-extending rebase replaced.
    Replaced(Arc<Relation>),
}

/// How `apply_cached` brought (or failed to bring) the cache current —
/// `view` audits the `Patched` outcomes when the self-audit is on.
enum CachePath {
    /// The cached entry was already current; nothing was touched.
    Hit,
    /// An incremental patch (named, for the audit report) made it current.
    Patched(&'static str),
    /// No sound shortcut exists; the caller must evaluate from scratch.
    Miss,
}

impl Spreadsheet {
    /// The base spreadsheet `S^0(R, C^0, ∅, ∅)` over a relation (Def. 2).
    pub fn over(relation: Relation) -> Spreadsheet {
        Self::over_shared(Arc::new(relation))
    }

    /// The base spreadsheet over an already-shared relation: the sheet
    /// holds the `Arc` without copying the data, so forking a session off
    /// a published snapshot is O(1) regardless of row count. The paper's
    /// Sec. V split made concrete: the immutable base `R` is shared, the
    /// per-session query state is private.
    pub fn over_shared(relation: Arc<Relation>) -> Spreadsheet {
        Spreadsheet {
            name: relation.name().to_string(),
            base: relation,
            state: QueryState::new(),
            cache: None,
            incremental: true,
            last_delta: FULL_NO_CACHE,
            eval_opts: EvalOptions::default(),
            epoch: 0,
            version: 0,
            next_formula_id: 1,
            audit: cfg!(debug_assertions),
            failed_patches: 0,
            last_patch_error: None,
        }
    }

    /// Enable/disable every cache path short of a full evaluation — the
    /// reorganize fast path and the delta-aware incremental patches (for
    /// ablation benches and the differential tests; the result is
    /// identical either way, which `view` tests pin).
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Enable/disable the cache self-audit (on by default under
    /// `cfg(debug_assertions)`): after every incremental cache patch,
    /// [`Self::view`] recomputes the sheet from scratch and fails with
    /// [`SheetError::AuditDivergence`] if the patched cache differs.
    /// Roughly doubles the cost of every patched `view` — a testing and
    /// debugging tool, not a production setting.
    pub fn set_audit(&mut self, on: bool) {
        self.audit = on;
    }

    /// How the last state edit was classified against the cached
    /// evaluation (see [`StateDelta`]); tests pin that the cheap edits
    /// stay on the cheap paths.
    pub fn last_delta(&self) -> &StateDelta {
        &self.last_delta
    }

    /// Switch between the index-vector engine (default) and the naive
    /// row-cloning engine. The cache is dropped so the next `view`
    /// evaluates with the selected engine.
    pub fn set_naive_eval(&mut self, naive: bool) {
        if self.eval_opts.naive != naive {
            self.eval_opts.naive = naive;
            self.cache = None;
        }
    }

    /// The engine options currently in force.
    pub fn eval_options(&self) -> EvalOptions {
        self.eval_opts
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The current query state (read-only; operators mutate it).
    pub fn state(&self) -> &QueryState {
        &self.state
    }

    /// The base data of the current epoch.
    pub fn base(&self) -> &Relation {
        &self.base
    }

    /// The base data behind its sharing handle: cloning the returned
    /// `Arc` snapshots the current base in O(1). Readers holding the
    /// snapshot are immune to later edits (which copy-on-write).
    pub fn base_arc(&self) -> Arc<Relation> {
        Arc::clone(&self.base)
    }

    /// Number of binary-operator applications (points of
    /// non-commutativity) in this sheet's history.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monotone data version: the number of committed base-data
    /// mutations (appends, deletes, cell updates, binary operators,
    /// renames). Failed edits roll it back with everything else, so two
    /// sheets with equal version and common history hold identical base
    /// data.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Restore the data-version counter — for snapshot hosts rebuilding
    /// a writer sheet from a published snapshot after a failed publish,
    /// so version numbers stay continuous across the rollback. The
    /// editing operators manage the counter themselves; ordinary callers
    /// never need this.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Evaluate and return the derived view.
    ///
    /// Paths, cheapest first:
    /// 1. the cache is current → return it;
    /// 2. content unchanged, only the visible list moved (a projection
    ///    toggled) → swap the visible list, nothing else;
    /// 3. content unchanged, grouping/ordering moved → re-sort the cached
    ///    data via the rank cache and rebuild the group tree;
    /// 4. the state diff classifies as a sound delta (narrowed or one
    ///    widened selection, one appended or several removed computed
    ///    columns — DESIGN.md §10) → patch the cached canonical rows and
    ///    reorganize;
    /// 5. otherwise run the full canonical evaluation.
    ///
    /// `view` classifies from the content key itself rather than
    /// trusting [`Self::last_delta`], so state edits that bypass
    /// `invalidate` (the cascade module's raw access) stay correct.
    pub fn view(&mut self) -> Result<&Derived> {
        let content = ContentKey::of(&self.state);
        let visible = visible_columns(&self.base, &self.state);
        let patched = match self.apply_cached(&content, &visible) {
            Ok(CachePath::Hit) => None,
            Ok(CachePath::Patched(kind)) => Some(kind),
            Ok(CachePath::Miss) => {
                let (derived, canonical, perm) =
                    evaluate_full_with(&self.base, &self.state, self.eval_opts)?;
                self.cache = Some(CacheEntry::new(
                    derived,
                    canonical,
                    content,
                    self.state.spec.clone(),
                    perm,
                ));
                None
            }
            Err(e) => {
                // An incremental path failed part-way: the entry may be
                // inconsistent. Drop it and re-evaluate from scratch —
                // a genuine evaluation error resurfaces here. The
                // fallback and the failure are recorded, so `explain`
                // names both.
                self.failed_patches += 1;
                self.last_patch_error = Some(e.to_string());
                self.cache = None;
                self.last_delta = StateDelta::Full {
                    reason: "incremental patch failed",
                };
                let (derived, canonical, perm) =
                    evaluate_full_with(&self.base, &self.state, self.eval_opts)?;
                self.cache = Some(CacheEntry::new(
                    derived,
                    canonical,
                    content,
                    self.state.spec.clone(),
                    perm,
                ));
                None
            }
        };
        if self.audit {
            if let Some(kind) = patched {
                self.audit_cache(kind)?;
            }
        }
        match self.cache.as_ref() {
            Some(entry) => Ok(&entry.derived),
            // invariant: every arm above either fills the cache or errors.
            None => Err(SheetError::Internal {
                detail: "cache missing after evaluation".to_string(),
            }),
        }
    }

    /// Self-audit one incremental cache patch: recompute the sheet from
    /// scratch and require the patched cache to match exactly. Any
    /// divergence drops the (untrustworthy) cache and reports
    /// [`SheetError::AuditDivergence`] naming the patch path `kind`.
    fn audit_cache(&mut self, kind: &'static str) -> Result<()> {
        let (derived, canonical, _) = evaluate_full_with(&self.base, &self.state, self.eval_opts)?;
        let matches = self
            .cache
            .as_ref()
            .is_some_and(|e| e.derived == derived && e.canonical == canonical);
        if !matches {
            self.cache = None;
            return Err(SheetError::AuditDivergence {
                delta: kind.to_string(),
            });
        }
        Ok(())
    }

    /// Try to bring the cache up to date without a full evaluation.
    /// `Ok(Hit)` means the cached entry was already current;
    /// `Ok(Patched(kind))` means an incremental patch (named for the
    /// audit) brought it current; `Ok(Miss)` means no sound shortcut
    /// exists; `Err` means a shortcut failed mid-application and the
    /// entry must be discarded.
    fn apply_cached(&mut self, content: &ContentKey, visible: &Vec<String>) -> Result<CachePath> {
        let spec = self.state.spec.clone();
        let incremental = self.patches_enabled();
        let delta = match self.cache.as_ref() {
            None => return Ok(CachePath::Miss),
            Some(entry) if entry.content == *content => None,
            Some(_) if !incremental => return Ok(CachePath::Miss),
            Some(entry) => Some(self.delta_against(entry, content)),
        };
        let Some(entry) = self.cache.as_mut() else {
            return Ok(CachePath::Miss);
        };
        let Some((delta, trim)) = delta else {
            if entry.spec == spec && entry.derived.visible == *visible {
                return Ok(CachePath::Hit);
            }
            if !self.incremental {
                return Ok(CachePath::Miss);
            }
            if incremental && entry.spec == spec {
                // Only projection changed: organization-only in the
                // narrowest sense — rows, order and tree all stand.
                entry.derived.visible = visible.clone();
                return Ok(CachePath::Patched("projection-toggle"));
            }
            entry.reorganize(&spec, visible.clone())?;
            return Ok(CachePath::Patched("reorganize"));
        };
        if !trim.is_empty() {
            // `classify` found computed columns nothing reads any more
            // removed: drop them, then take the delta against the
            // trimmed key.
            for name in &trim {
                entry.remove_computed(name)?;
            }
            entry.content.computed = content.computed.clone();
        }
        let kind = match delta {
            StateDelta::Narrow { predicates } => {
                // The narrow path maintains the derived view through the
                // presentation permutation; a (naive-built) cache without
                // one takes the full evaluation instead.
                if entry.perm.is_none() {
                    return Ok(CachePath::Miss);
                }
                let narrowed: Vec<u64> = content
                    .selections
                    .iter()
                    .filter(|n| !entry.content.selections.contains(n))
                    .map(|n| n.id)
                    .collect();
                entry.narrow(&predicates, &narrowed, &self.state)?;
                entry.content = content.clone();
                entry.present_rows_patch(&spec, visible, &self.state)?;
                "narrow"
            }
            StateDelta::Widen { id, predicate } => {
                entry.widen(&self.base, id, predicate.as_ref(), &self.state)?;
                entry.content = content.clone();
                entry.present_rows_patch(&spec, visible, &self.state)?;
                "widen"
            }
            StateDelta::AppendComputed { name } => {
                let Some(col) = self.state.computed.iter().find(|c| c.name == name) else {
                    // invariant: `classify` derived the name from this
                    // very state; degrade to the full-evaluation fallback.
                    return Err(SheetError::Internal {
                        detail: format!("appended column `{name}` missing from state"),
                    });
                };
                let volatile = volatile_columns(&self.state.computed);
                match &col.def {
                    ComputedDef::Aggregate {
                        func,
                        column,
                        basis,
                        ..
                    } if entry.perm.is_some() && basis.iter().all(|b| !volatile.contains(b)) => {
                        let input_stable = !volatile.contains(column);
                        entry.append_aggregate_grouped(&name, *func, column, basis, input_stable)?
                    }
                    _ => entry.append_computed(col)?,
                }
                entry.content = content.clone();
                if entry.spec != spec || entry.perm.is_none() {
                    entry.reorganize(&spec, visible.clone())?;
                } else {
                    entry.derived.visible = visible.clone();
                }
                "append-computed"
            }
            StateDelta::RemoveComputed { .. } => {
                entry.content = content.clone();
                if entry.spec != spec {
                    entry.reorganize(&spec, visible.clone())?;
                } else {
                    entry.derived.visible = visible.clone();
                }
                "remove-computed"
            }
            // The base-data variants are recorded by the edit methods
            // themselves (`append_rows` & co patch eagerly); a state
            // *diff* never classifies as one of them.
            StateDelta::Reorganize
            | StateDelta::Full { .. }
            | StateDelta::RowsAppended { .. }
            | StateDelta::RowsDeleted { .. }
            | StateDelta::CellsUpdated { .. } => return Ok(CachePath::Miss),
        };
        Ok(CachePath::Patched(kind))
    }

    /// Classify the current state against the cached entry: the state
    /// diff of [`classify`], with a widening turned into `Full { reason }`
    /// when the widening patch cannot take it — a base-edit gate holds
    /// ([`Self::base_patch_block`]) or the selection's set-aside rows are
    /// unknown. Also returns the computed columns to drop before the
    /// delta applies (empty for `Full`).
    fn delta_against(&self, entry: &CacheEntry, content: &ContentKey) -> (StateDelta, Vec<String>) {
        let (delta, trim) = classify(&entry.content, content, &self.base_column_names());
        if let StateDelta::Widen { id, .. } = &delta {
            let unknown = "the widened selection's set-aside rows are unknown";
            let reason = self
                .base_patch_block()
                .or_else(|| (!entry.rejected.contains_key(id)).then_some(unknown));
            if let Some(reason) = reason {
                return (StateDelta::Full { reason }, Vec::new());
            }
        }
        (delta, trim)
    }

    fn base_column_names(&self) -> BTreeSet<String> {
        self.base
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Evaluate without caching (for read-only contexts).
    pub fn evaluate_now(&self) -> Result<Derived> {
        evaluate_with(&self.base, &self.state, self.eval_opts)
    }

    /// `EXPLAIN` — render the operator DAG the evaluator would execute
    /// for the current `(base, state)` pair as an indented text tree
    /// (fused filter passes, pre-dedup pushdown, deferred computed
    /// columns, presentation sort and grouping). Read-only: plans
    /// without evaluating.
    pub fn explain(&self) -> Result<String> {
        let plan = crate::plan::Plan::prepare(&self.base, &self.state)?.render();
        // Surface how the last edit was classified (including
        // `Full { reason }`) so fallbacks — e.g. a base edit a gate
        // refused to patch — are diagnosable from the session, and how
        // many patches failed part-way.
        let mut out = format!(
            "{plan}\nlast delta: {}\nfailed patches: {}",
            self.last_delta, self.failed_patches
        );
        if let Some(e) = &self.last_patch_error {
            out.push_str(&format!(" (last: {e})"));
        }
        Ok(out)
    }

    /// Visible column names in display order (cheap; no evaluation).
    pub fn visible(&self) -> Vec<String> {
        visible_columns(&self.base, &self.state)
    }

    /// Every column name that exists (base + computed), hidden or not.
    pub fn all_columns(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .base
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        out.extend(self.state.computed.iter().map(|c| c.name.clone()));
        out
    }

    /// Called by every state-editing operator: diffs the cached content
    /// key against the new state and records a typed [`StateDelta`]. The
    /// cache itself is kept — `view` re-derives the classification (so
    /// raw state edits that skip this call stay correct) and picks the
    /// cheapest sound path. Base-data edits patch or drop the cache
    /// themselves.
    pub(crate) fn invalidate(&mut self) {
        self.last_delta = match &self.cache {
            None => FULL_NO_CACHE,
            Some(entry) => self.delta_against(entry, &ContentKey::of(&self.state)).0,
        };
    }

    fn assert_column_exists(&self, name: &str) -> Result<()> {
        if self.base.schema().contains(name) || self.state.is_computed(name) {
            Ok(())
        } else {
            Err(SheetError::UnknownColumn {
                name: name.to_string(),
            })
        }
    }

    // ------------------------------------------------------------------
    // Transactional edit machinery (DESIGN.md §12)
    // ------------------------------------------------------------------

    /// Rows the trial evaluation samples on large sheets.
    const TRIAL_ROWS: usize = 256;

    /// Bounded validation pass over a just-edited state: evaluate the
    /// base (or, above [`Self::TRIAL_ROWS`] rows, a prefix sample of it)
    /// so an edit that cannot evaluate is refused before it commits.
    /// Pure — it never touches the cache or `last_delta`, so the
    /// incremental paths in [`Self::view`] see exactly the deltas they
    /// would otherwise.
    ///
    /// Most evaluation failures (unknown columns, non-boolean selection
    /// predicates, type mismatches) are data-independent and surface on
    /// any prefix. A failure that *is* data-dependent — division by zero
    /// inside a sampled aggregate, say — could be an artifact of the
    /// sample, so it is confirmed against a full evaluation before the
    /// edit is refused: sampling never rejects a valid edit.
    fn trial_eval(&self) -> Result<()> {
        if self.base.len() <= Self::TRIAL_ROWS {
            return evaluate_with(&self.base, &self.state, self.eval_opts).map(drop);
        }
        let ids: Vec<u32> = (0..Self::TRIAL_ROWS as u32).collect();
        let sample = self.base.take_rows(&ids);
        match evaluate_with(&sample, &self.state, self.eval_opts) {
            Ok(_) => Ok(()),
            Err(_) => evaluate_with(&self.base, &self.state, self.eval_opts).map(drop),
        }
    }

    /// Run a state edit transactionally: snapshot the cheap mutable
    /// fields, apply `edit`, validate the result with
    /// [`Self::trial_eval`], and on any `Err` restore the snapshot so a
    /// failed edit is a perfect no-op — state, delta classification,
    /// epoch and generated-name counter all exactly as before. The
    /// evaluation cache needs no rollback: unary edits never write it
    /// (only `view` does), which is also why nothing expensive is cloned
    /// here.
    pub(crate) fn transact<T>(
        &mut self,
        edit: impl FnOnce(&mut Spreadsheet) -> Result<T>,
    ) -> Result<T> {
        let state = self.state.clone();
        let last_delta = self.last_delta.clone();
        let epoch = self.epoch;
        let next_formula_id = self.next_formula_id;
        let result = edit(self).and_then(|value| self.trial_eval().map(|()| value));
        if result.is_err() {
            self.state = state;
            self.last_delta = last_delta;
            self.epoch = epoch;
            self.next_formula_id = next_formula_id;
        }
        result
    }

    // ------------------------------------------------------------------
    // Base-data edit operators (streaming deltas, DESIGN.md §14)
    // ------------------------------------------------------------------

    /// Whether the delta-aware patch paths may run. They reuse the
    /// index-engine machinery, so a sheet pinned to the naive oracle
    /// keeps replaying the naive pipeline.
    fn patches_enabled(&self) -> bool {
        self.incremental && !self.eval_opts.naive
    }

    /// Why the cached evaluation cannot be patched for a base-data edit,
    /// or `None` when the streaming paths are sound. The returned string
    /// doubles as the `Full { reason }` the fallback records, so a
    /// refused patch is diagnosable through [`Self::explain`].
    fn base_patch_block(&self) -> Option<&'static str> {
        if !self.patches_enabled() {
            return Some("incremental paths disabled");
        }
        let Some(entry) = self.cache.as_ref() else {
            return Some("no cached evaluation");
        };
        if entry.perm.is_none() || entry.base_ids.is_none() {
            return Some("cache lacks row provenance");
        }
        if self.state.dedup {
            // An appended duplicate must vanish and a delete can
            // resurface a previously-shadowed duplicate; both re-decide
            // survivor identity globally.
            return Some("duplicate elimination re-decides survivors");
        }
        let volatile = volatile_columns(&self.state.computed);
        if self
            .state
            .selections
            .iter()
            .any(|s| s.predicate.columns().iter().any(|c| volatile.contains(c)))
        {
            // Group membership moves with the data, so a row's survival
            // could flip without being touched itself.
            return Some("a selection reads an aggregate-dependent column");
        }
        for col in &self.state.computed {
            match &col.def {
                ComputedDef::Formula { .. } if volatile.contains(&col.name) => {
                    // Every row's value changes when the aggregate does.
                    return Some("a formula depends on an aggregate");
                }
                ComputedDef::Aggregate { column, basis, .. }
                    if volatile.contains(column) || basis.iter().any(|b| volatile.contains(b)) =>
                {
                    return Some("a nested aggregate reads another aggregate");
                }
                ComputedDef::Aggregate { basis, .. } if !self.basis_matches_spec(basis) => {
                    // Groups are no longer contiguous runs of the
                    // presentation order; patchable in principle (scan
                    // fallback) but kept off the streaming fast path.
                    return Some("an aggregate's basis no longer matches a grouping level");
                }
                _ => {}
            }
        }
        if self
            .state
            .spec
            .sort_columns()
            .iter()
            .any(|(c, _)| volatile.contains(c))
        {
            // A single append could reorder every group.
            return Some("presentation order depends on an aggregate");
        }
        None
    }

    /// Whether `basis` is the absolute basis of some current grouping
    /// level (or empty — a whole-sheet aggregate), which makes its
    /// groups contiguous runs of the presentation order.
    fn basis_matches_spec(&self, basis: &[String]) -> bool {
        let want: BTreeSet<&str> = basis.iter().map(|s| s.as_str()).collect();
        let mut acc: BTreeSet<&str> = BTreeSet::new();
        if want == acc {
            return true;
        }
        for level in &self.state.spec.levels {
            acc.extend(level.basis.iter().map(|s| s.as_str()));
            if want == acc {
                return true;
            }
        }
        false
    }

    /// Whether updating `column` can be patched in place (Tier A): the
    /// column drives no selection, no formula, no grouping basis and no
    /// sort key, so only the cell itself — plus any aggregate *reading*
    /// the column — changes. Anything else takes the delete+re-insert
    /// path, which re-runs selections and re-places the row.
    fn update_in_place_ok(&self, column: &str) -> bool {
        if self
            .state
            .selections
            .iter()
            .any(|s| s.predicate.columns().contains(column))
        {
            return false;
        }
        for col in &self.state.computed {
            match &col.def {
                // A formula reading the column must be recomputed for the
                // row; route through re-insert rather than special-case.
                ComputedDef::Formula { expr } => {
                    if expr.columns().contains(column) {
                        return false;
                    }
                }
                ComputedDef::Aggregate { basis, .. } => {
                    if basis.iter().any(|b| b == column) {
                        return false;
                    }
                }
            }
        }
        !self
            .state
            .spec
            .sort_columns()
            .iter()
            .any(|(c, _)| c == column)
    }

    /// Append rows to the base relation, patching the cached evaluation
    /// in place when sound (sublinear per row: each row runs the
    /// selections once, splices into the permutation/tree by binary
    /// search, and advances per-group aggregate folds). Returns the
    /// number of rows appended. A failed append is a perfect no-op.
    pub fn append_rows(&mut self, rows: Vec<Tuple>) -> Result<usize> {
        let count = rows.len();
        if count == 0 {
            return Ok(0);
        }
        self.edit_base(BaseEdit::Append(rows)).map(|()| count)
    }

    /// Append a single row (convenience over [`Self::append_rows`]).
    pub fn append_row(&mut self, row: Tuple) -> Result<usize> {
        self.append_rows(vec![row])
    }

    /// Delete the base rows at `ids` (positions in the base relation;
    /// duplicates ignored), narrowing the cached evaluation through the
    /// row-provenance map when sound. Returns the number of rows
    /// deleted. A failed delete is a perfect no-op.
    pub fn delete_rows(&mut self, ids: &[u32]) -> Result<usize> {
        let mut ids: Vec<u32> = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let count = ids.len();
        if count == 0 {
            return Ok(0);
        }
        self.edit_base(BaseEdit::Delete(ids)).map(|()| count)
    }

    /// Delete every base row satisfying `predicate` (over base columns
    /// only — deletes address the data, not the derived view). Returns
    /// the number of rows deleted.
    pub fn delete_where(&mut self, predicate: &Expr) -> Result<usize> {
        for c in predicate.columns() {
            if !self.base.schema().contains(&c) {
                return Err(SheetError::UnknownColumn { name: c });
            }
        }
        let ids = filter_relation(&self.base, predicate)?;
        self.delete_rows(&ids)
    }

    /// Update one base cell, patching the cached evaluation when sound:
    /// in place when the column drives nothing positional (Tier A), as
    /// delete+re-insert of the row otherwise — with key-change detection
    /// confined to the row's old and new groups, so untouched groups
    /// never re-aggregate. Returns the previous value. A failed update
    /// is a perfect no-op.
    pub fn update_cell(&mut self, row: u32, column: &str, value: Value) -> Result<Value> {
        if !self.base.schema().contains(column) {
            return Err(SheetError::UnknownColumn {
                name: column.to_string(),
            });
        }
        let current = *self.base.value_at(row as usize, column)?;
        if current == value {
            return Ok(current);
        }
        self.edit_base(BaseEdit::Update { row, column, value })
            .map(|()| current)
    }

    /// The one transaction every base-data edit commits through
    /// (DESIGN.md §12):
    /// 1. a cache left stale by an unseen state edit is brought current;
    ///    if it cannot be, it is dropped and the edit takes the full path;
    /// 2. [`Self::base_patch_block`] picks the patch or the full path;
    /// 3. the edit lands in `R`;
    /// 4. the patch path patches the cache, and the self-audit (when on)
    ///    checks it; the full path drops the cache and runs
    ///    [`Self::trial_eval`];
    /// 5. only then do the version and the recorded delta move.
    ///
    /// On any `Err` the base, version and delta are as before and the
    /// cache is dropped.
    fn edit_base(&mut self, edit: BaseEdit) -> Result<()> {
        let last_delta = self.last_delta.clone();
        let block = match edit {
            BaseEdit::Replace(_) => Some("new base does not extend the old one"),
            _ => {
                if self.patches_enabled() && self.cache.is_some() && self.view().is_err() {
                    self.cache = None;
                }
                self.base_patch_block()
            }
        };
        let landed = match self.land(edit) {
            Ok(landed) => landed,
            Err(e) => {
                self.last_delta = last_delta;
                return Err(e);
            }
        };
        let committed = match block {
            None => self.patch_base(&landed),
            Some(reason) => {
                self.cache = None;
                self.trial_eval().map(|()| StateDelta::Full { reason })
            }
        };
        match committed {
            Ok(delta) => {
                self.version += 1;
                self.last_delta = delta;
                Ok(())
            }
            Err(e) => {
                self.take_back(landed);
                self.cache = None;
                self.last_delta = last_delta;
                Err(e)
            }
        }
    }

    /// Make `edit` in the base relation (copy-on-write when shared).
    fn land<'a>(&mut self, edit: BaseEdit<'a>) -> Result<Landed<'a>> {
        Ok(match edit {
            BaseEdit::Append(rows) => {
                let count = rows.len();
                let first = Arc::make_mut(&mut self.base).append_rows(rows)?;
                Landed::Appended {
                    first,
                    count,
                    prior: None,
                }
            }
            BaseEdit::Delete(ids) => {
                let removed = Arc::make_mut(&mut self.base).remove_rows_at(&ids)?;
                Landed::Deleted { ids, removed }
            }
            BaseEdit::Update { row, column, value } => {
                let old = Arc::make_mut(&mut self.base).set_value(row as usize, column, value)?;
                Landed::Updated { row, column, old }
            }
            BaseEdit::Extend(base) => {
                let first = self.base.len();
                let count = base.len() - first;
                let prior = std::mem::replace(&mut self.base, base);
                Landed::Appended {
                    first,
                    count,
                    prior: Some(prior),
                }
            }
            BaseEdit::Replace(base) => Landed::Replaced(std::mem::replace(&mut self.base, base)),
        })
    }

    /// Undo a landed edit in the base relation.
    fn take_back(&mut self, landed: Landed) {
        match landed {
            Landed::Appended {
                prior: Some(prior), ..
            }
            | Landed::Replaced(prior) => self.base = prior,
            Landed::Appended { first, count, .. } => {
                let ids: Vec<u32> = (first..first + count).map(|i| i as u32).collect();
                // invariant: the rows were just appended at the tail, so
                // removing them cannot fail.
                let _ = Arc::make_mut(&mut self.base).remove_rows_at(&ids);
            }
            Landed::Deleted { removed, .. } => Arc::make_mut(&mut self.base).reinsert_rows(removed),
            Landed::Updated { row, column, old } => {
                // invariant: the cell was just written, so writing it back
                // succeeds.
                let _ = Arc::make_mut(&mut self.base).set_value(row as usize, column, old);
            }
        }
    }

    /// Patch the cache for a landed edit under the fault sites
    /// `delta.base_append` / `delta.base_retract` and, when the
    /// self-audit is on, check the patch. Returns the delta the edit
    /// records.
    fn patch_base(&mut self, landed: &Landed) -> Result<StateDelta> {
        let in_place =
            matches!(*landed, Landed::Updated { column, .. } if self.update_in_place_ok(column));
        let Spreadsheet {
            cache, base, state, ..
        } = self;
        let entry = cache.as_mut().ok_or_else(|| SheetError::Internal {
            detail: "base-data patch without a cached evaluation".to_string(),
        })?;
        // Set-aside rows go stale: a new row failing one selection alone
        // is in no set, deletion renumbers base ids, and an updated row's
        // selection verdicts may move.
        entry.rejected.clear();
        let (delta, kind) = match *landed {
            Landed::Appended { first, count, .. } => {
                ssa_relation::fault_check!("delta.base_append");
                let ids = (first..first + count).map(|i| i as u32).collect();
                let (ids, staged) = stage_base_rows(entry.canonical.schema(), base, ids, state)?;
                for (&id, row) in ids.iter().zip(staged.rows()) {
                    entry.insert_base_row(base, id, row, state)?;
                }
                (StateDelta::RowsAppended { count }, "rows-appended")
            }
            Landed::Deleted { ref ids, .. } => {
                ssa_relation::fault_check!("delta.base_retract");
                entry.delete_base_rows(ids, state)?;
                let count = ids.len();
                (StateDelta::RowsDeleted { count }, "rows-deleted")
            }
            Landed::Updated { row, column, .. } => {
                ssa_relation::fault_check!("delta.base_retract");
                if in_place {
                    entry.update_base_cell(base, row, column, state)?;
                } else {
                    entry.reinsert_base_row(base, row, state)?;
                }
                (StateDelta::CellsUpdated { count: 1 }, "cells-updated")
            }
            Landed::Replaced(_) => {
                return Err(SheetError::Internal {
                    detail: "a replaced base has no cache patch".to_string(),
                })
            }
        };
        if self.audit {
            self.audit_cache(kind)?;
        }
        Ok(delta)
    }

    // ------------------------------------------------------------------
    // Data organization operators (Sec. III-A)
    // ------------------------------------------------------------------

    /// τ — grouping (Def. 3). `grouping_basis` is the *absolute* basis of
    /// the new finest level and must strictly extend the current finest
    /// basis ("a new level of grouping is created when and only when
    /// grouping-basis contains a superset of attributes of any existing
    /// grouping basis"). The newly grouped attributes leave the finest
    /// ordering list (`o_L = L − grouping-basis`).
    pub fn group(&mut self, grouping_basis: &[&str], order: Direction) -> Result<()> {
        self.transact(|s| {
            for a in grouping_basis {
                s.assert_column_exists(a)?;
            }
            let current: BTreeSet<String> = s.state.spec.all_grouping_attributes();
            let requested: BTreeSet<String> =
                grouping_basis.iter().map(|a| a.to_string()).collect();
            if !requested.is_superset(&current) || requested == current {
                return Err(SheetError::NotASuperset {
                    basis: grouping_basis.iter().map(|a| a.to_string()).collect(),
                });
            }
            let relative: Vec<String> = requested.difference(&current).cloned().collect();
            s.state
                .spec
                .levels
                .push(GroupLevel::new(relative.clone(), order));
            s.state.spec.subtract_from_finest_order(&relative);
            s.invalidate();
            Ok(())
        })
    }

    /// Convenience: add `attributes` as a new innermost grouping level
    /// (the interface's "add to the existing grouping" choice,
    /// Sec. VI-A).
    pub fn group_add(&mut self, attributes: &[&str], order: Direction) -> Result<()> {
        let mut absolute: Vec<String> = self
            .state
            .spec
            .all_grouping_attributes()
            .into_iter()
            .collect();
        absolute.extend(attributes.iter().map(|s| s.to_string()));
        let refs: Vec<&str> = absolute.iter().map(|s| s.as_str()).collect();
        self.group(&refs, order)
    }

    /// The interface's other choice: "destroy the current grouping and use
    /// this new one instead" — refused while aggregates depend on the
    /// current grouping.
    pub fn regroup(&mut self, attributes: &[&str], order: Direction) -> Result<()> {
        self.transact(|s| {
            let aggs = s.state.aggregates_below_level(1);
            if !aggs.is_empty() {
                return Err(SheetError::GroupingInUse {
                    level: 1,
                    aggregates: aggs,
                });
            }
            for a in attributes {
                s.assert_column_exists(a)?;
            }
            s.state.spec.levels.clear();
            s.state
                .spec
                .levels
                .push(GroupLevel::new(attributes.iter().copied(), order));
            let grouped: Vec<String> = attributes.iter().map(|a| a.to_string()).collect();
            s.state.spec.subtract_from_finest_order(&grouped);
            s.invalidate();
            Ok(())
        })
    }

    /// Remove all grouping (refused while aggregates depend on it).
    pub fn ungroup(&mut self) -> Result<()> {
        self.transact(|s| {
            let aggs = s.state.aggregates_below_level(1);
            if !aggs.is_empty() {
                return Err(SheetError::GroupingInUse {
                    level: 1,
                    aggregates: aggs,
                });
            }
            s.state.spec.levels.clear();
            s.invalidate();
            Ok(())
        })
    }

    /// λ — ordering (Def. 4). Orders the contents of level-`l` groups by
    /// `attribute` (1-based levels; `l = level_count()` is the finest).
    ///
    /// * Case 2 — `attribute` is the relative basis of level `l+1`: only
    ///   the direction of those groups changes.
    /// * Case 1 — any other attribute at an outer level: levels deeper
    ///   than `l` are destroyed and `attribute` becomes the new finest
    ///   ordering. Refused (as in the prototype) while aggregates depend
    ///   on the doomed levels.
    /// * Case 3 — finest level: ordering by a grouping attribute is a
    ///   no-op; otherwise the attribute's direction is updated in place or
    ///   appended to the finest ordering list.
    pub fn order(&mut self, attribute: &str, direction: Direction, level: usize) -> Result<()> {
        self.transact(|s| {
            s.assert_column_exists(attribute)?;
            let n = s.state.spec.level_count();
            if level == 0 || level > n {
                return Err(SheetError::NoSuchLevel { level, levels: n });
            }
            if level < n {
                if s.state.spec.in_relative_basis(attribute, level + 1) {
                    // Case 2: flip direction of the level-(l+1) groups.
                    s.state.spec.levels[level - 1].direction = direction;
                } else {
                    if s.state.spec.all_grouping_attributes().contains(attribute) {
                        // Ordering an outer level by some *other* level's
                        // grouping attribute is meaningless.
                        return Err(SheetError::BadOrderingAttribute {
                            attribute: attribute.to_string(),
                            level,
                        });
                    }
                    // Case 1: destroy deeper levels.
                    let aggs = s.state.aggregates_below_level(level);
                    if !aggs.is_empty() {
                        return Err(SheetError::GroupingInUse {
                            level,
                            aggregates: aggs,
                        });
                    }
                    s.state.spec.truncate_levels(level);
                    s.state.spec.finest_order = vec![OrderKey::new(attribute, direction)];
                }
            } else {
                // Case 3: the finest level.
                if s.state.spec.all_grouping_attributes().contains(attribute) {
                    // No-op: all tuples in a finest group share this value.
                    return Ok(());
                }
                match s
                    .state
                    .spec
                    .finest_order
                    .iter_mut()
                    .find(|k| k.attribute == attribute)
                {
                    Some(k) => k.direction = direction,
                    None => s
                        .state
                        .spec
                        .finest_order
                        .push(OrderKey::new(attribute, direction)),
                }
            }
            s.invalidate();
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Data manipulation operators (Sec. III-B)
    // ------------------------------------------------------------------

    /// σ — selection (Def. 5). Returns the id of the retained predicate,
    /// which query modification can later replace or delete (Sec. V-B).
    pub fn select(&mut self, predicate: Expr) -> Result<u64> {
        self.transact(|s| {
            for col in predicate.columns() {
                s.assert_column_exists(&col)?;
            }
            let id = s.state.add_selection(predicate);
            s.invalidate();
            Ok(id)
        })
    }

    /// σ with a caller-assigned selection id. Replicated sheets name
    /// selections after the event that created them (see
    /// [`QueryState::add_selection_with_id`]); everything else matches
    /// [`Self::select`].
    pub fn select_with_id(&mut self, id: u64, predicate: Expr) -> Result<u64> {
        self.transact(|s| {
            for col in predicate.columns() {
                s.assert_column_exists(&col)?;
            }
            let id = s.state.add_selection_with_id(id, predicate);
            s.invalidate();
            Ok(id)
        })
    }

    /// π — projection (Def. 6): remove one column from `C`.
    ///
    /// * A **base** column is merely hidden (`R` is untouched) and can be
    ///   reinstated (Sec. V-B's inverse projection).
    /// * A **computed** column's definition is removed outright — this is
    ///   how the paper frees a grouping from its aggregates ("the
    ///   aggregates have to be projected out", Sec. III-A) — refused while
    ///   other state depends on it.
    pub fn project_out(&mut self, column: &str) -> Result<()> {
        self.transact(|s| {
            s.assert_column_exists(column)?;
            if s.state.is_computed(column) {
                let dependents = s.state.dependents_of(column);
                if !dependents.is_empty() {
                    return Err(SheetError::ColumnInUse {
                        name: column.to_string(),
                        dependents,
                    });
                }
                s.state.computed.retain(|c| c.name != column);
                s.state.projected_out.remove(column);
            } else {
                if s.state.projected_out.contains(column) {
                    return Err(SheetError::ColumnHidden {
                        name: column.to_string(),
                    });
                }
                s.state.projected_out.insert(column.to_string());
            }
            s.invalidate();
            Ok(())
        })
    }

    /// Inverse projection Π̄ (Sec. V-B): reinstate a hidden base column as
    /// if the projection never took place.
    pub fn reinstate(&mut self, column: &str) -> Result<()> {
        self.transact(|s| {
            if !s.state.projected_out.remove(column) {
                return Err(SheetError::UnknownColumn {
                    name: column.to_string(),
                });
            }
            s.invalidate();
            Ok(())
        })
    }

    /// η — aggregation (Def. 11): creates a computed column holding
    /// `func(column)` per level-`level` group, value repeated on every row
    /// of the group. Returns the generated column name (`Avg_Price`
    /// style, Table III).
    pub fn aggregate(&mut self, func: AggFunc, column: &str, level: usize) -> Result<String> {
        self.transact(|s| {
            s.assert_column_exists(column)?;
            let n = s.state.spec.level_count();
            if level == 0 || level > n {
                return Err(SheetError::NoSuchLevel { level, levels: n });
            }
            if func.requires_numeric() {
                // Base columns expose a static type; computed columns are
                // checked against their current materialization.
                let numeric = if let Ok(c) = s.base.schema().column(column) {
                    c.ty.is_numeric() || c.ty == ValueType::Null
                } else {
                    let d = s.evaluate_now()?;
                    d.data
                        .schema()
                        .column(column)
                        .map(|c| c.ty.is_numeric() || c.ty == ValueType::Null)
                        .unwrap_or(false)
                };
                if !numeric {
                    return Err(SheetError::NonNumericAggregate {
                        func: func.short_name().to_string(),
                        column: column.to_string(),
                    });
                }
            }
            let name = s.fresh_column_name(&format!("{}_{}", func.short_name(), column));
            let basis: Vec<String> = s.state.spec.absolute_basis(level).into_iter().collect();
            s.state.computed.push(ComputedColumn::aggregate(
                name.clone(),
                func,
                column,
                level,
                basis,
            ));
            s.invalidate();
            Ok(name)
        })
    }

    /// θ — formula computation (Def. 12): a row-wise computed column. With
    /// no name given the system generates one and "reminds the user of the
    /// new column" (Sec. VI-A). Returns the column name.
    pub fn formula(&mut self, name: Option<&str>, expr: Expr) -> Result<String> {
        self.transact(|s| {
            for col in expr.columns() {
                s.assert_column_exists(&col)?;
            }
            let name = match name {
                Some(n) => {
                    if s.base.schema().contains(n) || s.state.is_computed(n) {
                        return Err(SheetError::DuplicateColumn {
                            name: n.to_string(),
                        });
                    }
                    n.to_string()
                }
                None => {
                    let n = s.fresh_column_name(&format!("F{}", s.next_formula_id));
                    s.next_formula_id += 1;
                    n
                }
            };
            s.state
                .computed
                .push(ComputedColumn::formula(name.clone(), expr));
            s.invalidate();
            Ok(name)
        })
    }

    /// DE — duplicate elimination (Def. 13): removes duplicate `R`-tuples.
    /// Idempotent; computed columns recompute automatically.
    pub fn dedup(&mut self) -> Result<()> {
        self.transact(|s| {
            s.state.dedup = true;
            s.invalidate();
            Ok(())
        })
    }

    /// Housekeeping **Rename** (Sec. III-C): renames a column everywhere —
    /// data, computed definitions, predicates, grouping and ordering.
    /// Transactional like every other edit: a trial-evaluation failure
    /// renames back and restores state, cache and delta.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.assert_column_exists(from)?;
        if from == to {
            return Ok(());
        }
        if self.base.schema().contains(to) || self.state.is_computed(to) {
            return Err(SheetError::DuplicateColumn {
                name: to.to_string(),
            });
        }
        let in_base = self.base.schema().contains(from);
        if in_base {
            Arc::make_mut(&mut self.base)
                .schema_mut()
                .rename(from, to)?;
        }
        let old_state = self.state.clone();
        let old_delta = self.last_delta.clone();
        let old_cache = self.cache.take();
        self.state.rename_column(from, to);
        self.last_delta = StateDelta::Full {
            reason: "base data changed",
        };
        if let Err(e) = self.trial_eval() {
            if in_base {
                // invariant: `from` was just freed, so renaming back succeeds.
                let _ = Arc::make_mut(&mut self.base).schema_mut().rename(to, from);
            }
            self.state = old_state;
            self.last_delta = old_delta;
            self.cache = old_cache;
            return Err(e);
        }
        self.version += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Binary operators (points of non-commutativity)
    // ------------------------------------------------------------------

    /// **Save** (Sec. III-C): snapshot this sheet for later binary
    /// operations or re-opening. The current sheet is unaffected.
    pub fn save(&self, name: impl Into<String>) -> Result<StoredSheet> {
        let derived = self.evaluate_now()?;
        // Keep only R's columns (computed ones do not participate in
        // binary operators).
        let mut relation = derived.data;
        for c in &self.state.computed {
            relation.drop_column(&c.name)?;
        }
        relation.set_name(self.name.clone());
        let mut state = self.state.clone();
        state.consume_at_non_commutativity_point();
        Ok(StoredSheet {
            name: name.into(),
            relation,
            state,
        })
    }

    /// Raw durability snapshot: the live base relation and query state
    /// exactly as they stand — selections retained, nothing consumed.
    /// Unlike [`Self::save`], which evaluates and folds state for binary
    /// operators, re-opening this image via [`Self::open`] reproduces the
    /// sheet bit for bit, which is what log compaction needs.
    pub fn freeze_raw(&self) -> StoredSheet {
        StoredSheet {
            name: self.name.clone(),
            relation: (*self.base).clone(),
            state: self.state.clone(),
        }
    }

    /// **Open** (Sec. III-C): resurrect a stored sheet as the current one.
    ///
    /// The stored state is validated against the stored relation's schema
    /// first, so a hand-edited or corrupted snapshot fails here, at the
    /// open boundary, with [`SheetError::InvalidStored`] — not far from
    /// the cause at first evaluation.
    pub fn open(stored: &StoredSheet) -> Result<Spreadsheet> {
        Self::validate_stored(stored)?;
        let mut sheet = Self::over(stored.relation.clone());
        sheet.state = stored.state.clone();
        Ok(sheet)
    }

    /// Check a [`StoredSheet`]'s query state against its relation: every
    /// column referenced by selections, grouping, ordering, computed
    /// definitions and projections must exist (in the schema or among
    /// the computed columns), computed names must clash with nothing,
    /// and the computed definitions must be acyclic.
    fn validate_stored(stored: &StoredSheet) -> Result<()> {
        let schema = stored.relation.schema();
        let mut known: BTreeSet<String> = schema.names().iter().map(|s| s.to_string()).collect();
        for c in &stored.state.computed {
            if !known.insert(c.name.clone()) {
                return Err(SheetError::InvalidStored {
                    detail: format!(
                        "computed column `{}` clashes with an existing column",
                        c.name
                    ),
                });
            }
        }
        for col in stored.state.referenced_columns() {
            if !known.contains(&col) {
                return Err(SheetError::InvalidStored {
                    detail: format!("state references unknown column `{col}`"),
                });
            }
        }
        for col in &stored.state.projected_out {
            if !known.contains(col) {
                return Err(SheetError::InvalidStored {
                    detail: format!("projection hides unknown column `{col}`"),
                });
            }
        }
        // Computed definitions must resolve in some order from the base
        // columns. Unknown dependencies were rejected above, so a stuck
        // fixpoint here is a genuine cycle.
        let mut resolved: BTreeSet<String> = schema.names().iter().map(|s| s.to_string()).collect();
        let mut remaining: Vec<&ComputedColumn> = stored.state.computed.iter().collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|c| {
                if c.def.dependencies().iter().all(|d| resolved.contains(d)) {
                    resolved.insert(c.name.clone());
                    false
                } else {
                    true
                }
            });
            if remaining.len() == before {
                return Err(SheetError::InvalidStored {
                    detail: format!(
                        "cyclic computed-column definitions involving `{}`",
                        remaining[0].name
                    ),
                });
            }
        }
        Ok(())
    }

    /// The current evaluated `R` (selections and DE applied, computed
    /// columns dropped) — the left operand every binary operator consumes.
    fn evaluated_r(&self) -> Result<Relation> {
        let derived = self.evaluate_now()?;
        let mut r = derived.data;
        for c in &self.state.computed {
            r.drop_column(&c.name)?;
        }
        r.set_name(self.name.clone());
        Ok(r)
    }

    /// Commit a binary operator's result transactionally: `new_base`
    /// becomes `R`, the state is consumed at the point of
    /// non-commutativity, and the epoch advances. Validation and the
    /// trial evaluation run before the old epoch is discarded; on any
    /// `Err` the sheet — base, state, cache, delta and epoch — is
    /// exactly as before the call.
    fn enter_new_epoch(&mut self, new_base: Relation) -> Result<()> {
        let mut new_state = self.state.clone();
        new_state.consume_at_non_commutativity_point();
        // State referencing columns that vanished (set ops keep schema;
        // product/join only add) would fail evaluation — validate eagerly,
        // before anything is committed.
        let cols: BTreeSet<String> = new_base
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for c in new_state.referenced_columns() {
            if !cols.contains(&c) && !new_state.is_computed(&c) {
                return Err(SheetError::UnknownColumn { name: c });
            }
        }
        let old_base = std::mem::replace(&mut self.base, Arc::new(new_base));
        let old_state = std::mem::replace(&mut self.state, new_state);
        let old_delta = std::mem::replace(
            &mut self.last_delta,
            StateDelta::Full {
                reason: "base data changed",
            },
        );
        let old_cache = self.cache.take();
        self.epoch += 1;
        if let Err(e) = self.trial_eval() {
            self.base = old_base;
            self.state = old_state;
            self.last_delta = old_delta;
            self.cache = old_cache;
            self.epoch -= 1;
            return Err(e);
        }
        self.version += 1;
        Ok(())
    }

    /// × — Cartesian product with a stored sheet (Def. 7). Grouping,
    /// ordering, computed definitions and projections of the *current*
    /// sheet are retained and recompute over the product.
    pub fn product(&mut self, stored: &StoredSheet) -> Result<()> {
        let left = self.evaluated_r()?;
        let combined = ops::product(&left, &stored.relation)?;
        self.enter_new_epoch(combined)
    }

    /// ⋈ — join with a stored sheet on `condition` (Def. 10). The
    /// condition may reference columns of both operands; clashing right
    /// names are prefixed with the stored relation's name.
    pub fn join(&mut self, stored: &StoredSheet, condition: Expr) -> Result<()> {
        let left = self.evaluated_r()?;
        // Validate the condition against the combined schema before
        // running the join, so the user gets an immediate report
        // (Sec. VI-A "any invalid condition is reported immediately").
        let combined_schema = left
            .schema()
            .product(stored.relation.schema(), stored.relation.name());
        for c in condition.columns() {
            if !combined_schema.contains(&c) {
                return Err(SheetError::UnknownColumn { name: c });
            }
        }
        // Planned join: operand-local conjuncts are pushed below the
        // join into their side, cheap-first (crate::plan) — identical
        // rows and order to the direct `ops::join` call.
        let joined = crate::plan::join_with_pushdown(&left, &stored.relation, &condition)?;
        self.enter_new_epoch(joined)
    }

    /// ∪ — multiset union with a stored sheet (Def. 8).
    pub fn union(&mut self, stored: &StoredSheet) -> Result<()> {
        let left = self.evaluated_r()?;
        let unioned = ops::union_all(&left, &stored.relation).map_err(|e| match e {
            ssa_relation::RelationError::NotUnionCompatible { left, right } => {
                SheetError::NotCompatible {
                    detail: format!("{left} vs {right}"),
                }
            }
            other => other.into(),
        })?;
        self.enter_new_epoch(unioned)
    }

    /// − — multiset difference with a stored sheet (Def. 9):
    /// `{t, t} − {t} = {t}`.
    pub fn difference(&mut self, stored: &StoredSheet) -> Result<()> {
        let left = self.evaluated_r()?;
        let diffed = ops::difference(&left, &stored.relation).map_err(|e| match e {
            ssa_relation::RelationError::NotUnionCompatible { left, right } => {
                SheetError::NotCompatible {
                    detail: format!("{left} vs {right}"),
                }
            }
            other => other.into(),
        })?;
        self.enter_new_epoch(diffed)
    }

    // ------------------------------------------------------------------
    // Query modification (Sec. V) — state-level edits
    // ------------------------------------------------------------------

    /// Replace the predicate of a retained selection ("change previous
    /// condition of Year = 2005 to Year = 2006", Tables IV–V).
    pub fn replace_selection(&mut self, id: u64, predicate: Expr) -> Result<()> {
        self.transact(|s| {
            for col in predicate.columns() {
                s.assert_column_exists(&col)?;
            }
            if !s.state.replace_selection(id, predicate) {
                return Err(SheetError::UnknownSelection { id });
            }
            s.invalidate();
            Ok(())
        })
    }

    /// Delete a retained selection outright.
    pub fn remove_selection(&mut self, id: u64) -> Result<()> {
        self.transact(|s| {
            s.state
                .remove_selection(id)
                .ok_or(SheetError::UnknownSelection { id })?;
            s.invalidate();
            Ok(())
        })
    }

    /// Remove an aggregate/FC column through query state (same dependency
    /// rule as projection of a computed column).
    pub fn remove_computed(&mut self, name: &str) -> Result<()> {
        self.transact(|s| {
            if !s.state.is_computed(name) {
                return Err(SheetError::UnknownColumn {
                    name: name.to_string(),
                });
            }
            let dependents = s.state.dependents_of(name);
            if !dependents.is_empty() {
                return Err(SheetError::ColumnInUse {
                    name: name.to_string(),
                    dependents,
                });
            }
            s.state.computed.retain(|c| c.name != name);
            s.state.projected_out.remove(name);
            s.invalidate();
            Ok(())
        })
    }

    // ------------------------------------------------------------------

    fn fresh_column_name(&self, base: &str) -> String {
        let exists = |n: &str| self.base.schema().contains(n) || self.state.is_computed(n);
        if !exists(base) {
            return base.to_string();
        }
        let mut i = 2;
        loop {
            let candidate = format!("{base}_{i}");
            if !exists(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Re-pin this sheet to a newer version of its base data, keeping
    /// the accumulated query state (the paper's Sec. II-B: "tuples in R
    /// can be changed anytime, and the spreadsheet always retrieves the
    /// latest data"). The columns of `R` are fixed for the lifetime of a
    /// sheet, so the schemas must match exactly. Transactional: a state
    /// that cannot evaluate over the new data (a data-dependent formula
    /// failure, say) leaves the sheet on its old base.
    ///
    /// When the new base only *extends* the old one (see
    /// [`Relation::extends`]) the rebase is an append of the new rows and
    /// commits exactly as [`Self::append_rows`] would, patching the warm
    /// cache when the base-edit gates allow it. Any other rebase drops
    /// the cache and records why as `Full { reason }`.
    pub fn rebase(&mut self, base: Arc<Relation>) -> Result<()> {
        if base.schema() != self.base.schema() {
            return Err(SheetError::NotCompatible {
                detail: format!("rebase of `{}` must keep the base columns fixed", self.name),
            });
        }
        if Arc::ptr_eq(&base, &self.base) {
            return Ok(());
        }
        let edit = if base.extends(&self.base) {
            BaseEdit::Extend(base)
        } else {
            BaseEdit::Replace(base)
        };
        self.edit_base(edit)
    }

    /// Restore from a raw snapshot (used by the history/undo machinery).
    /// The base comes back as a shared handle: undo never copies data.
    ///
    /// When the snapshot holds the very base this sheet has now (the same
    /// `Arc`, epoch and version — an undo or redo of a state edit), only
    /// the query state moved: the cache stays and the restore classifies
    /// like any other state edit, so `view` patches the cache (undoing an
    /// `agg` drops the column, undoing a `select` widens). Any other base
    /// drops the cache.
    pub(crate) fn restore(
        &mut self,
        base: Arc<Relation>,
        state: QueryState,
        epoch: u64,
        version: u64,
    ) {
        let same_base =
            Arc::ptr_eq(&base, &self.base) && epoch == self.epoch && version == self.version;
        self.base = base;
        self.state = state;
        self.epoch = epoch;
        self.version = version;
        if same_base {
            self.invalidate();
        } else {
            self.cache = None;
            self.last_delta = StateDelta::Full {
                reason: "undo/redo restored a different base",
            };
        }
    }

    /// Raw snapshot of the sheet's defining data (for undo). O(1): the
    /// base is captured by `Arc` handle, so recording history costs
    /// nothing per operation regardless of sheet size; base-editing
    /// operators copy-on-write away from any held snapshot.
    pub(crate) fn snapshot(&self) -> (Arc<Relation>, QueryState, u64, u64) {
        (
            Arc::clone(&self.base),
            self.state.clone(),
            self.epoch,
            self.version,
        )
    }

    /// Crate-private mutable state access for the cascaded-modification
    /// module; `view` re-validates against the content key afterwards.
    pub(crate) fn state_mut_for_modify(&mut self) -> &mut QueryState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{dealers, used_cars};
    use ssa_relation::{tuple, Value};

    fn sheet() -> Spreadsheet {
        Spreadsheet::over(used_cars())
    }

    fn ids(s: &mut Spreadsheet) -> Vec<i64> {
        s.view()
            .unwrap()
            .data
            .column_values("ID")
            .unwrap()
            .into_iter()
            .map(|v| match v {
                Value::Int(i) => i,
                other => panic!("unexpected {other}"),
            })
            .collect()
    }

    #[test]
    fn base_spreadsheet_shows_everything() {
        let mut s = sheet();
        assert_eq!(s.view().unwrap().len(), 9);
        assert_eq!(s.visible().len(), 6);
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn grouping_requires_strict_superset() {
        let mut s = sheet();
        s.group(&["Model"], Direction::Desc).unwrap();
        // same set again: not a strict extension
        assert!(matches!(
            s.group(&["Model"], Direction::Asc),
            Err(SheetError::NotASuperset { .. })
        ));
        // non-superset
        assert!(matches!(
            s.group(&["Year"], Direction::Asc),
            Err(SheetError::NotASuperset { .. })
        ));
        // proper extension works
        s.group(&["Model", "Year"], Direction::Asc).unwrap();
        assert_eq!(s.state().spec.level_count(), 3);
    }

    #[test]
    fn group_add_extends_innermost() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Desc).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        assert_eq!(s.state().spec.level_count(), 3);
        assert!(s.state().spec.in_relative_basis("Year", 3));
    }

    #[test]
    fn grouping_removes_attribute_from_finest_order() {
        let mut s = sheet();
        s.order("Condition", Direction::Asc, 1).unwrap();
        s.order("Price", Direction::Asc, 1).unwrap();
        assert_eq!(s.state().spec.finest_order.len(), 2);
        s.group_add(&["Condition"], Direction::Asc).unwrap();
        // Condition moved into grouping; Price stays an order key.
        assert_eq!(s.state().spec.finest_order.len(), 1);
        assert_eq!(s.state().spec.finest_order[0].attribute, "Price");
    }

    #[test]
    fn table_ii_grouping_by_condition() {
        // Example 1: from Table I's arrangement, group additionally by
        // Condition ASC → Table II.
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Desc).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        s.order("Price", Direction::Asc, 3).unwrap();
        s.group(&["Year", "Model", "Condition"], Direction::Asc)
            .unwrap();
        assert_eq!(
            ids(&mut s),
            vec![872, 901, 304, 723, 725, 423, 132, 879, 322]
        );
    }

    #[test]
    fn ordering_case2_flips_group_direction() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Desc).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        // Year is the relative basis of level 3; ordering level 2 by Year
        // flips those groups.
        s.order("Year", Direction::Desc, 2).unwrap();
        assert_eq!(s.state().spec.levels[1].direction, Direction::Desc);
        assert_eq!(s.state().spec.level_count(), 3);
        let first_ids = ids(&mut s);
        // Jetta 2006 cars come before Jetta 2005 now.
        assert_eq!(first_ids[0], 423);
    }

    #[test]
    fn ordering_case1_destroys_deeper_levels() {
        // Example 2: ordering level-2 groups by Mileage destroys level 3.
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Desc).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        s.order("Mileage", Direction::Asc, 2).unwrap();
        assert_eq!(s.state().spec.level_count(), 2);
        assert_eq!(s.state().spec.finest_order[0].attribute, "Mileage");
    }

    #[test]
    fn ordering_case1_refused_with_dependent_aggregates() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Desc).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 3).unwrap();
        let err = s.order("Mileage", Direction::Asc, 2).unwrap_err();
        assert!(matches!(err, SheetError::GroupingInUse { level: 2, .. }));
        // project the aggregate out, then it works
        s.project_out("Avg_Price").unwrap();
        s.order("Mileage", Direction::Asc, 2).unwrap();
    }

    #[test]
    fn ordering_case3_append_update_noop() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Asc).unwrap();
        s.order("Price", Direction::Asc, 2).unwrap();
        s.order("Mileage", Direction::Desc, 2).unwrap();
        assert_eq!(s.state().spec.finest_order.len(), 2);
        // update in place
        s.order("Price", Direction::Desc, 2).unwrap();
        assert_eq!(s.state().spec.finest_order[0].direction, Direction::Desc);
        assert_eq!(s.state().spec.finest_order.len(), 2);
        // ordering by a grouping attribute at the finest level: no-op
        s.order("Model", Direction::Desc, 2).unwrap();
        assert_eq!(s.state().spec.finest_order.len(), 2);
    }

    #[test]
    fn ordering_level_bounds_checked() {
        let mut s = sheet();
        assert!(matches!(
            s.order("Price", Direction::Asc, 2),
            Err(SheetError::NoSuchLevel { .. })
        ));
        assert!(matches!(
            s.order("Price", Direction::Asc, 0),
            Err(SheetError::NoSuchLevel { .. })
        ));
    }

    #[test]
    fn selection_and_modification_tables_iv_v() {
        // Sam: Year = 2005, Model = Jetta, Mileage < 80000; grouped by
        // Condition, ordered by Price ASC → Table IV. Then modify the Year
        // predicate to 2006 → Table V.
        let mut s = sheet();
        let year_id = s.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        s.select(Expr::col("Model").eq(Expr::lit("Jetta"))).unwrap();
        s.select(Expr::col("Mileage").lt(Expr::lit(80000))).unwrap();
        s.group_add(&["Condition"], Direction::Asc).unwrap();
        s.order("Price", Direction::Asc, 2).unwrap();
        assert_eq!(ids(&mut s), vec![872, 901, 304]);
        s.replace_selection(year_id, Expr::col("Year").eq(Expr::lit(2006)))
            .unwrap();
        assert_eq!(ids(&mut s), vec![723, 725, 423]);
    }

    #[test]
    fn selections_listed_per_column() {
        let mut s = sheet();
        s.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        s.select(Expr::col("Price").lt(Expr::lit(16000))).unwrap();
        assert_eq!(s.state().selections_on("Year").len(), 1);
        assert_eq!(s.state().selections_on("Price").len(), 1);
        assert_eq!(s.state().selections_on("Model").len(), 0);
    }

    #[test]
    fn remove_selection_restores_rows() {
        let mut s = sheet();
        let id = s.select(Expr::col("Model").eq(Expr::lit("Civic"))).unwrap();
        assert_eq!(s.view().unwrap().len(), 3);
        s.remove_selection(id).unwrap();
        assert_eq!(s.view().unwrap().len(), 9);
        assert!(matches!(
            s.remove_selection(id),
            Err(SheetError::UnknownSelection { .. })
        ));
    }

    #[test]
    fn projection_hides_and_reinstates_base_columns() {
        let mut s = sheet();
        s.project_out("Mileage").unwrap();
        assert!(!s.visible().contains(&"Mileage".to_string()));
        // double projection is an error surfaced to the UI
        assert!(matches!(
            s.project_out("Mileage"),
            Err(SheetError::ColumnHidden { .. })
        ));
        s.reinstate("Mileage").unwrap();
        assert!(s.visible().contains(&"Mileage".to_string()));
        assert!(s.reinstate("Mileage").is_err());
    }

    #[test]
    fn projection_of_computed_column_removes_definition() {
        let mut s = sheet();
        let name = s.aggregate(AggFunc::Avg, "Price", 1).unwrap();
        assert_eq!(name, "Avg_Price");
        s.project_out(&name).unwrap();
        assert!(!s.state().is_computed(&name));
        // name can be reused afterwards
        let name2 = s.aggregate(AggFunc::Avg, "Price", 1).unwrap();
        assert_eq!(name2, "Avg_Price");
    }

    #[test]
    fn computed_column_with_dependents_cannot_be_removed() {
        let mut s = sheet();
        let avg = s.aggregate(AggFunc::Avg, "Price", 1).unwrap();
        s.select(Expr::col("Price").lt(Expr::col(&avg))).unwrap();
        assert!(matches!(
            s.project_out(&avg),
            Err(SheetError::ColumnInUse { .. })
        ));
        assert!(matches!(
            s.remove_computed(&avg),
            Err(SheetError::ColumnInUse { .. })
        ));
    }

    #[test]
    fn aggregate_names_uniquified() {
        let mut s = sheet();
        assert_eq!(s.aggregate(AggFunc::Avg, "Price", 1).unwrap(), "Avg_Price");
        assert_eq!(
            s.aggregate(AggFunc::Avg, "Price", 1).unwrap(),
            "Avg_Price_2"
        );
    }

    #[test]
    fn aggregate_rejects_non_numeric_and_bad_level() {
        let mut s = sheet();
        assert!(matches!(
            s.aggregate(AggFunc::Avg, "Model", 1),
            Err(SheetError::NonNumericAggregate { .. })
        ));
        assert!(matches!(
            s.aggregate(AggFunc::Avg, "Price", 2),
            Err(SheetError::NoSuchLevel { .. })
        ));
        // COUNT/MIN/MAX on strings are fine
        s.aggregate(AggFunc::Max, "Model", 1).unwrap();
    }

    #[test]
    fn formula_names_and_validation() {
        let mut s = sheet();
        let n1 = s
            .formula(None, Expr::col("Price").div(Expr::lit(1000)))
            .unwrap();
        assert_eq!(n1, "F1");
        let n2 = s
            .formula(Some("PriceK"), Expr::col("Price").div(Expr::lit(1000)))
            .unwrap();
        assert_eq!(n2, "PriceK");
        assert!(matches!(
            s.formula(Some("Price"), Expr::lit(1)),
            Err(SheetError::DuplicateColumn { .. })
        ));
        assert!(s.formula(None, Expr::col("Ghost")).is_err());
    }

    #[test]
    fn dedup_is_idempotent() {
        let mut s = sheet();
        s.project_out("ID").unwrap();
        s.dedup().unwrap();
        s.dedup().unwrap();
        // IDs are unique so R-tuples are all distinct: 9 rows remain.
        assert_eq!(s.view().unwrap().len(), 9);
    }

    #[test]
    fn rename_flows_through_state_and_data() {
        let mut s = sheet();
        s.select(Expr::col("Price").lt(Expr::lit(16000))).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 1).unwrap();
        s.rename("Price", "Cost").unwrap();
        assert!(s.visible().contains(&"Cost".to_string()));
        assert_eq!(s.view().unwrap().len(), 4);
        // renaming to an existing name is rejected
        assert!(s.rename("Cost", "Year").is_err());
        assert!(s.rename("Ghost", "X").is_err());
        // rename a computed column (its generated name predates the
        // Price→Cost rename, so it is still Avg_Price)
        s.rename("Avg_Price", "AvgCost").unwrap();
        assert!(s.state().is_computed("AvgCost"));
    }

    #[test]
    fn save_open_round_trip() {
        let mut s = sheet();
        s.select(Expr::col("Model").eq(Expr::lit("Jetta"))).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        let stored = s.save("jettas").unwrap();
        assert_eq!(stored.relation.len(), 6);
        // computed column not materialized in stored data
        assert!(!stored.relation.schema().contains("Avg_Price"));
        // but its definition survives re-opening
        let mut reopened = Spreadsheet::open(&stored).unwrap();
        let d = reopened.view().unwrap();
        assert!(d.data.schema().contains("Avg_Price"));
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn stored_sheet_json_round_trip() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Asc).unwrap();
        let stored = s.save("snapshot").unwrap();
        let json = stored.to_json().unwrap();
        let back = StoredSheet::from_json(&json).unwrap();
        assert_eq!(stored, back);
        assert!(StoredSheet::from_json("not json").is_err());
    }

    #[test]
    fn product_enters_new_epoch_and_keeps_presentation() {
        let mut s = sheet();
        s.select(Expr::col("Model").eq(Expr::lit("Civic"))).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        let dealers_sheet = Spreadsheet::over(dealers()).save("dealers").unwrap();
        s.product(&dealers_sheet).unwrap();
        assert_eq!(s.epoch(), 1);
        // selections consumed: 3 Civics × 3 dealers = 9 rows
        assert_eq!(s.view().unwrap().len(), 9);
        assert!(s.state().selections.is_empty());
        // grouping retained
        assert_eq!(s.state().spec.level_count(), 2);
        // clashing Model column prefixed
        assert!(s.view().unwrap().data.schema().contains("dealers.Model"));
    }

    #[test]
    fn join_validates_condition_eagerly() {
        let mut s = sheet();
        let stored = Spreadsheet::over(dealers()).save("dealers").unwrap();
        let err = s
            .join(&stored, Expr::col("Ghost").eq(Expr::col("Model")))
            .unwrap_err();
        assert!(matches!(err, SheetError::UnknownColumn { .. }));
        assert_eq!(s.epoch(), 0, "failed join must not change the sheet");
        s.join(&stored, Expr::col("Model").eq(Expr::col("dealers.Model")))
            .unwrap();
        // Jetta matches 1 dealer row, Civic matches 2: 6×1? No — Jetta rows
        // (6) × 1 match + Civic rows (3) × 2 matches = 12.
        assert_eq!(s.view().unwrap().len(), 12);
    }

    #[test]
    fn union_and_difference_multiset_semantics() {
        let mut jettas = sheet();
        jettas
            .select(Expr::col("Model").eq(Expr::lit("Jetta")))
            .unwrap();
        let stored_jettas = jettas.save("jettas").unwrap();

        let mut all = sheet();
        all.difference(&stored_jettas).unwrap();
        assert_eq!(all.view().unwrap().len(), 3); // the Civics

        let mut again = sheet();
        again.union(&stored_jettas).unwrap();
        assert_eq!(again.view().unwrap().len(), 15); // 9 + 6, duplicates kept

        // incompatible sheets refuse
        let stored_dealers = Spreadsheet::over(dealers()).save("dealers").unwrap();
        let mut s = sheet();
        assert!(matches!(
            s.union(&stored_dealers),
            Err(SheetError::NotCompatible { .. })
        ));
    }

    #[test]
    fn computed_columns_recompute_over_union_result() {
        // Def. 8: computed attributes are retained and recomputed based on
        // the new set membership.
        let mut civics = sheet();
        civics
            .select(Expr::col("Model").eq(Expr::lit("Civic")))
            .unwrap();
        let stored = civics.save("civics").unwrap();

        let mut s = sheet();
        s.select(Expr::col("Model").eq(Expr::lit("Jetta"))).unwrap();
        s.aggregate(AggFunc::Count, "ID", 1).unwrap();
        {
            let d = s.view().unwrap();
            assert_eq!(d.data.value_at(0, "Count_ID").unwrap(), &Value::Int(6));
        }
        s.union(&stored).unwrap();
        let d = s.view().unwrap();
        assert_eq!(d.len(), 9);
        assert_eq!(d.data.value_at(0, "Count_ID").unwrap(), &Value::Int(9));
    }

    #[test]
    fn regroup_and_ungroup_guarded_by_aggregates() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        assert!(matches!(
            s.regroup(&["Year"], Direction::Asc),
            Err(SheetError::GroupingInUse { .. })
        ));
        assert!(matches!(s.ungroup(), Err(SheetError::GroupingInUse { .. })));
        s.project_out("Avg_Price").unwrap();
        s.regroup(&["Year"], Direction::Asc).unwrap();
        assert!(s.state().spec.in_relative_basis("Year", 2));
        s.ungroup().unwrap();
        assert_eq!(s.state().spec.level_count(), 1);
    }

    #[test]
    fn level_one_aggregate_survives_regroup() {
        let mut s = sheet();
        s.aggregate(AggFunc::Max, "Price", 1).unwrap();
        // level-1 aggregates don't depend on grouping
        s.group_add(&["Model"], Direction::Asc).unwrap();
        s.ungroup().unwrap();
        assert!(s.state().is_computed("Max_Price"));
    }

    // ------------------------------------------------------------------
    // Streaming base-data deltas (DESIGN.md §14). Audit is on by default
    // in debug builds, so every patched view below is recompute-checked.
    // ------------------------------------------------------------------

    /// The bench scenario in miniature: grouped, aggregated, sorted.
    fn warm_grouped_sheet() -> Spreadsheet {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Asc).unwrap();
        s.group_add(&["Year"], Direction::Asc).unwrap();
        s.order("Price", Direction::Asc, 3).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        s.aggregate(AggFunc::Count, "ID", 3).unwrap();
        s.view().unwrap();
        s
    }

    fn assert_matches_fresh(s: &mut Spreadsheet) {
        let fresh = s.evaluate_now().unwrap();
        assert_eq!(s.view().unwrap(), &fresh);
    }

    #[test]
    fn append_patches_grouped_view() {
        let mut s = warm_grouped_sheet();
        s.append_row(tuple![999, "Jetta", 15500, 2005, 60000, "Good"])
            .unwrap();
        assert_eq!(s.last_delta(), &StateDelta::RowsAppended { count: 1 });
        assert_matches_fresh(&mut s);
        // The new row sorted into the Jetta/2005 group by price.
        assert_eq!(
            ids(&mut s),
            vec![132, 879, 322, 304, 872, 999, 901, 423, 723, 725]
        );
        // And the model-level AVG includes it (999 sits at position 5).
        let d = s.view().unwrap();
        let avg = d.data.value_at(5, "Avg_Price").unwrap();
        assert_eq!(avg, &Value::Float(113500.0 / 7.0));
    }

    #[test]
    fn append_lands_new_group_between_groups() {
        // "Ford" sorts between Civic and Jetta: the merge-insert must
        // create a fresh chain in the middle of the tree.
        let mut s = warm_grouped_sheet();
        s.append_row(tuple![555, "Ford", 9000, 2001, 120000, "Fair"])
            .unwrap();
        assert_eq!(s.last_delta(), &StateDelta::RowsAppended { count: 1 });
        assert_matches_fresh(&mut s);
        assert_eq!(
            ids(&mut s),
            vec![132, 879, 322, 555, 304, 872, 901, 423, 723, 725]
        );
    }

    #[test]
    fn append_respects_selections() {
        let mut s = warm_grouped_sheet();
        s.select(Expr::col("Price").lt(Expr::lit(16000))).unwrap();
        s.view().unwrap();
        let before = s.view().unwrap().len();
        // One surviving row, one filtered out.
        s.append_rows(vec![
            tuple![991, "Jetta", 15900, 2005, 1000, "Good"],
            tuple![992, "Jetta", 99000, 2005, 1000, "Good"],
        ])
        .unwrap();
        assert_eq!(s.last_delta(), &StateDelta::RowsAppended { count: 2 });
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), before + 1);
        assert_eq!(s.base().len(), 11);
    }

    #[test]
    fn append_through_rank_ordered_formulas() {
        // The selection reads a formula; a row the *first* selection
        // kills must never evaluate the formula (division by zero).
        let mut s = sheet();
        s.select(Expr::col("Mileage").gt(Expr::lit(0))).unwrap();
        s.formula(
            Some("PerMile"),
            Expr::col("Price").div(Expr::col("Mileage")),
        )
        .unwrap();
        s.select(Expr::col("PerMile").ge(Expr::lit(0))).unwrap();
        s.view().unwrap();
        s.append_row(tuple![993, "Civic", 9999, 2001, 0, "Fair"])
            .unwrap();
        assert_eq!(s.last_delta(), &StateDelta::RowsAppended { count: 1 });
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), 9);
    }

    #[test]
    fn delete_patches_grouped_view() {
        let mut s = warm_grouped_sheet();
        // Base rows 1 and 2 are the 872/901 Jettas.
        s.delete_rows(&[1, 2]).unwrap();
        assert_eq!(s.last_delta(), &StateDelta::RowsDeleted { count: 2 });
        assert_matches_fresh(&mut s);
        assert_eq!(s.base().len(), 7);
        assert_eq!(ids(&mut s), vec![132, 879, 322, 304, 423, 723, 725]);
        // Appending after a delete exercises the renumbered provenance.
        s.append_row(tuple![777, "Jetta", 15200, 2005, 1000, "Good"])
            .unwrap();
        assert_matches_fresh(&mut s);
    }

    #[test]
    fn delete_where_uses_base_predicates() {
        let mut s = warm_grouped_sheet();
        let n = s
            .delete_where(&Expr::col("Model").eq(Expr::lit("Civic")))
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(s.last_delta(), &StateDelta::RowsDeleted { count: 3 });
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), 6);
        assert!(matches!(
            s.delete_where(&Expr::col("Nope").eq(Expr::lit(1))),
            Err(SheetError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn update_in_place_keeps_row_position() {
        let mut s = warm_grouped_sheet();
        // Mileage drives nothing positional: Tier A in-place patch.
        let old = s.update_cell(0, "Mileage", Value::Int(75000)).unwrap();
        assert_eq!(old, Value::Int(76000));
        assert_eq!(s.last_delta(), &StateDelta::CellsUpdated { count: 1 });
        assert_matches_fresh(&mut s);
    }

    #[test]
    fn update_aggregate_input_recomputes_group() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Avg, "Mileage", 2).unwrap();
        s.view().unwrap();
        // Mileage feeds the aggregate but drives nothing positional:
        // still Tier A, with the touched group re-aggregated.
        s.update_cell(0, "Mileage", Value::Int(0)).unwrap();
        assert_eq!(s.last_delta(), &StateDelta::CellsUpdated { count: 1 });
        assert_matches_fresh(&mut s);
    }

    #[test]
    fn update_grouping_key_moves_row() {
        let mut s = warm_grouped_sheet();
        // Model is a grouping key: delete + re-insert, old group's
        // aggregates narrow, new group's widen.
        s.update_cell(0, "Model", Value::str("Civic")).unwrap();
        assert_eq!(s.last_delta(), &StateDelta::CellsUpdated { count: 1 });
        assert_matches_fresh(&mut s);
        assert_eq!(
            ids(&mut s),
            vec![132, 304, 879, 322, 872, 901, 423, 723, 725]
        );
    }

    #[test]
    fn update_selection_column_can_revive_row() {
        let mut s = sheet();
        s.select(Expr::col("Price").lt(Expr::lit(15000))).unwrap();
        s.view().unwrap();
        assert_eq!(s.view().unwrap().len(), 2);
        // 872 (base row 1) is filtered out at 15000; drop its price.
        s.update_cell(1, "Price", Value::Int(14000)).unwrap();
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), 3);
        // And the reverse: push a surviving row out.
        s.update_cell(0, "Price", Value::Int(20000)).unwrap();
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), 2);
    }

    #[test]
    fn min_max_retraction_recomputes() {
        let mut s = sheet();
        s.group_add(&["Model"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Min, "Price", 2).unwrap();
        s.aggregate(AggFunc::Max, "Price", 2).unwrap();
        s.view().unwrap();
        // Deleting the min-holder must re-derive the group's MIN.
        s.delete_rows(&[6]).unwrap(); // Civic 13500
        assert_matches_fresh(&mut s);
        let d = s.view().unwrap();
        assert_eq!(d.data.value_at(0, "Min_Price").unwrap(), &Value::Int(15000));
        // Updating the max-holder downward re-derives MAX.
        s.update_cell(5, "Price", Value::Int(100)).unwrap(); // Jetta 18000
        assert_matches_fresh(&mut s);
    }

    #[test]
    fn dedup_blocks_base_patch() {
        let mut s = sheet();
        s.dedup().unwrap();
        s.view().unwrap();
        s.append_row(tuple![999, "Jetta", 15500, 2005, 60000, "Good"])
            .unwrap();
        assert_eq!(
            s.last_delta(),
            &StateDelta::Full {
                reason: "duplicate elimination re-decides survivors"
            }
        );
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), 10);
    }

    #[test]
    fn naive_engine_blocks_base_patch_but_stays_correct() {
        let mut s = warm_grouped_sheet();
        s.set_naive_eval(true);
        s.view().unwrap();
        s.append_row(tuple![999, "Jetta", 15500, 2005, 60000, "Good"])
            .unwrap();
        assert!(!s.last_delta().is_incremental());
        assert_eq!(s.view().unwrap().len(), 10);
    }

    #[test]
    fn explain_surfaces_last_delta() {
        let mut s = warm_grouped_sheet();
        s.append_row(tuple![999, "Jetta", 15500, 2005, 60000, "Good"])
            .unwrap();
        assert!(s
            .explain()
            .unwrap()
            .contains("last delta: rows appended (1)"));
        s.dedup().unwrap();
        s.view().unwrap();
        s.append_row(tuple![998, "Jetta", 15600, 2005, 60000, "Good"])
            .unwrap();
        assert!(s
            .explain()
            .unwrap()
            .contains("last delta: full (duplicate elimination re-decides survivors)"));
    }

    #[test]
    fn failed_append_is_a_no_op() {
        let mut s = warm_grouped_sheet();
        let before = s.base().clone();
        // Wrong arity: refused by the relation layer before any patch.
        assert!(s.append_row(tuple![1, "Only-two"]).is_err());
        assert_eq!(s.base(), &before);
        assert_matches_fresh(&mut s);
    }

    #[test]
    fn stale_cache_is_warmed_before_patching() {
        let mut s = warm_grouped_sheet();
        // Edit the state but do NOT view: the cached entry is stale.
        s.select(Expr::col("Price").lt(Expr::lit(17000))).unwrap();
        s.append_row(tuple![999, "Jetta", 15500, 2005, 60000, "Good"])
            .unwrap();
        assert_eq!(s.last_delta(), &StateDelta::RowsAppended { count: 1 });
        assert_matches_fresh(&mut s);
        assert_eq!(s.view().unwrap().len(), 7);
    }

    #[test]
    fn sum_overflow_surfaces_on_append() {
        use ssa_relation::schema::Schema;
        let r = Relation::with_rows(
            "big",
            Schema::of(&[("K", ValueType::Str), ("V", ValueType::Int)]),
            vec![tuple!["a", i64::MAX], tuple!["a", 0]],
        )
        .unwrap();
        let mut s = Spreadsheet::over(r);
        s.group_add(&["K"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Sum, "V", 2).unwrap();
        s.view().unwrap();
        // The appended 1 overflows the all-int SUM — same error the full
        // evaluator raises, and the failed append must roll back.
        let err = s.append_row(tuple!["a", 1i64]).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(s.base().len(), 2);
        assert_matches_fresh(&mut s);
        // A float lands the group in float territory: no overflow.
        s.append_row(tuple!["a", 0.5f64]).unwrap();
        assert_matches_fresh(&mut s);
    }

    #[test]
    fn incremental_off_falls_back_on_base_edits() {
        let mut s = warm_grouped_sheet();
        s.set_incremental(false);
        s.append_row(tuple![999, "Jetta", 15500, 2005, 60000, "Good"])
            .unwrap();
        assert_eq!(
            s.last_delta(),
            &StateDelta::Full {
                reason: "incremental paths disabled"
            }
        );
        assert_eq!(s.view().unwrap().len(), 10);
    }

    /// Every base edit commits through one transaction, and the self-audit
    /// runs inside its rollback: an edit whose patch the audit rejects
    /// leaves base, version, state and delta as it found them.
    #[test]
    fn audit_divergence_rolls_back_every_base_edit() {
        type Edit = fn(&mut Spreadsheet) -> Result<()>;
        fn new_row() -> Tuple {
            tuple![999, "Jetta", 15500, 2005, 60000, "Good"]
        }
        let edits: [(&str, Edit); 5] = [
            ("append", |s| s.append_row(new_row()).map(drop)),
            ("delete", |s| s.delete_rows(&[1]).map(drop)),
            ("update in place", |s| {
                s.update_cell(2, "Mileage", Value::Int(1)).map(drop)
            }),
            ("update by re-insert", |s| {
                s.update_cell(3, "Model", Value::str("Civic")).map(drop)
            }),
            ("extending rebase", |s| {
                let mut base = s.base().clone();
                base.append_rows(vec![new_row()])?;
                s.rebase(Arc::new(base))
            }),
        ];
        for (name, edit) in edits {
            let mut s = warm_grouped_sheet();
            s.set_audit(true);
            // Corrupt a cell no edit touches, so every patch diverges.
            let entry = s.cache.as_mut().unwrap();
            let col = entry.canonical.schema().index_of("Condition").unwrap();
            entry.canonical.rows_mut()[0][col] = Value::str("Corrupt");
            let base = s.base().clone();
            let version = s.version();
            let state = s.state().clone();
            let delta = s.last_delta().clone();
            let err = edit(&mut s).unwrap_err();
            assert!(
                matches!(err, SheetError::AuditDivergence { .. }),
                "{name}: {err}"
            );
            assert_eq!(s.base(), &base, "{name}: base");
            assert_eq!(s.version(), version, "{name}: version");
            assert_eq!(s.state(), &state, "{name}: state");
            assert_eq!(s.last_delta(), &delta, "{name}: delta");
            assert_matches_fresh(&mut s);
        }
    }

    /// A formula that fails only past the trial sample leaves the cache
    /// stale and unevaluable; a base edit that removes the failing row
    /// must still go through (the view it needs is dropped, and the
    /// trial evaluation decides).
    #[test]
    fn stale_failing_cache_does_not_block_base_edits() {
        use ssa_relation::schema::Schema;
        let stale = || {
            let rows = (0..400i64)
                .map(|i| tuple![i, i64::from(i != 300)])
                .collect();
            let r = Relation::with_rows(
                "div",
                Schema::of(&[("ID", ValueType::Int), ("X", ValueType::Int)]),
                rows,
            )
            .unwrap();
            let mut s = Spreadsheet::over(r);
            s.view().unwrap();
            s.formula(Some("F"), Expr::lit(10).div(Expr::col("X")))
                .unwrap();
            // Checked on a copy: the sheet itself must see no view.
            assert!(s.clone().view().is_err(), "row 300 divides by zero");
            s
        };
        let mut s = stale();
        s.delete_rows(&[300]).unwrap();
        assert_eq!(s.view().unwrap().len(), 399);
        let mut s = stale();
        s.update_cell(300, "X", Value::Int(1)).unwrap();
        assert_eq!(s.view().unwrap().len(), 400);
    }
}
