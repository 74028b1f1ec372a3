//! Relational algebra over [`Relation`]s with multiset semantics.
//!
//! These are the classical operators (the *complete set* of Sec. III-B —
//! selection, projection, product, union, difference — plus join, distinct,
//! sort and relational group-by/aggregate). The spreadsheet algebra in
//! `spreadsheet-algebra` composes them with grouping/ordering retention;
//! the SQL reference evaluator in `ssa-sql` uses them directly.

use crate::agg::AggFunc;
use crate::compiled::{BoundExpr, PairRow};
use crate::error::{RelationError, Result};
use crate::expr::Expr;
use crate::par::{chunk_map, PARALLEL_THRESHOLD};
use crate::relation::Relation;
use crate::rows::Rows;
use crate::schema::{Column, Schema};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::collections::{BTreeMap, HashMap, HashSet};

/// σ — keep tuples satisfying `condition`.
pub fn select(rel: &Relation, condition: &Expr) -> Result<Relation> {
    let mut out = Relation::new(rel.name(), rel.schema().clone());
    for t in rel.rows() {
        if condition.matches(rel.schema(), t)? {
            out.rows_mut().push(t);
        }
    }
    Ok(out)
}

/// π (keep-list form) — project onto `columns`, in the order given.
/// No duplicate elimination (multiset semantics).
pub fn project(rel: &Relation, columns: &[&str]) -> Result<Relation> {
    let indices: Vec<usize> = columns
        .iter()
        .map(|c| rel.schema().index_of(c))
        .collect::<Result<_>>()?;
    let schema = Schema::new(
        indices
            .iter()
            .map(|&i| rel.schema().columns()[i].clone())
            .collect(),
    )?;
    let mut out = Relation::new(rel.name(), schema);
    for t in rel.rows() {
        out.rows_mut().push_values(indices.iter().map(|&i| t[i]));
    }
    Ok(out)
}

/// π (drop-one form) — remove a single column; this is the spreadsheet π
/// of Def. 6.
pub fn project_out(rel: &Relation, column: &str) -> Result<Relation> {
    let keep: Vec<&str> = rel
        .schema()
        .names()
        .into_iter()
        .filter(|n| *n != column)
        .collect();
    if keep.len() == rel.schema().len() {
        return Err(RelationError::UnknownColumn {
            name: column.to_string(),
        });
    }
    project(rel, &keep)
}

/// × — Cartesian product. Clashing right-hand names are prefixed with the
/// right relation's name (Def. 7's `C^j ∪ C^k_s`). The row gather is
/// chunked across threads when the output cardinality `|left| × |right|`
/// reaches [`PARALLEL_THRESHOLD`].
pub fn product(left: &Relation, right: &Relation) -> Result<Relation> {
    let schema = left.schema().product(right.schema(), right.name());
    let name = format!("{}_x_{}", left.name(), right.name());
    crate::fault_check!("ops.product");
    let cardinality = left.len().saturating_mul(right.len());
    let lids: Vec<u32> = (0..left.len() as u32).collect();
    let arity = schema.len();
    let parts = chunk_map(&lids, cardinality >= PARALLEL_THRESHOLD, |chunk| {
        let mut rows = Rows::new(arity);
        for &li in chunk {
            let l = &left.rows()[li as usize];
            for r in right.rows() {
                rows.push_values(l.iter().chain(r).copied());
            }
        }
        rows
    })?;
    Relation::from_rows(name, schema, concat_parts(arity, parts))
}

/// The rows of `parts`, in order: the first part's storage, extended by
/// copies of the rest.
fn concat_parts(arity: usize, parts: Vec<Rows>) -> Rows {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_else(|| Rows::new(arity));
    for part in parts {
        out.extend(&part);
    }
    out
}

/// ⋈ — join on an arbitrary condition evaluated over the concatenated row
/// (Def. 10: relational join with condition F). Row-for-row equivalent to
/// `select(product(l, r), F)` — pinned by [`oracle::join`] differentials —
/// but evaluated as a build/probe hash join on the equi-key conjuncts of
/// `F` (falling back to a bound nested loop when `F` has none).
///
/// The plan: [`Expr::extract_equi_keys`] factors `F` into equi-key column
/// pairs plus a residual, the smaller operand is hashed on its key tuple
/// (SQL semantics — a NULL in any key column never matches, so such rows
/// skip the table entirely), the larger operand probes, and only the
/// *bound* residual runs on candidate pairs. Output order is exactly the
/// nested loop's: left-major, right rows in operand order. Build
/// partitioning, probe chunks and the row gather each go parallel from
/// [`PARALLEL_THRESHOLD`] rows.
pub fn join(left: &Relation, right: &Relation, condition: &Expr) -> Result<Relation> {
    crate::fault_check!("ops.join");
    let schema = left.schema().product(right.schema(), right.name());
    let name = format!("{}_join_{}", left.name(), right.name());
    let left_width = left.schema().len();
    let (keys, residual) = condition.extract_equi_keys(left_width, &schema);
    let pairs = if keys.is_empty() {
        let bound = condition.bind(&schema)?;
        nested_pairs(left, right, &bound, left_width)?
    } else {
        let residual = residual.map(|e| e.bind(&schema)).transpose()?;
        hash_pairs(left, right, &keys, residual.as_ref(), left_width)?
    };
    gather_pairs(name, schema, left, right, &pairs)
}

/// The nested-loop join path, forced: every pair is tested with the bound
/// condition, no hash table. Kept public as the hash path's differential
/// oracle and as the baseline the `join` bench measures against.
pub fn join_nested(left: &Relation, right: &Relation, condition: &Expr) -> Result<Relation> {
    let schema = left.schema().product(right.schema(), right.name());
    let name = format!("{}_join_{}", left.name(), right.name());
    let bound = condition.bind(&schema)?;
    let pairs = nested_pairs(left, right, &bound, left.schema().len())?;
    gather_pairs(name, schema, left, right, &pairs)
}

/// All (left, right) row-index pairs satisfying `bound`, by exhaustive
/// scan; left chunks run in parallel when the pair count reaches
/// [`PARALLEL_THRESHOLD`].
fn nested_pairs(
    left: &Relation,
    right: &Relation,
    bound: &BoundExpr,
    left_width: usize,
) -> Result<Vec<(u32, u32)>> {
    let lids: Vec<u32> = (0..left.len() as u32).collect();
    let parallel = left.len().saturating_mul(right.len()) >= PARALLEL_THRESHOLD;
    let chunks = chunk_map(&lids, parallel, |chunk| -> Result<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        for &li in chunk {
            let l = &left.rows()[li as usize];
            for (ri, r) in right.rows().iter().enumerate() {
                let row = PairRow {
                    left: l,
                    right: r,
                    left_width,
                };
                if bound.matches(&row)? {
                    out.push((li, ri as u32));
                }
            }
        }
        Ok(out)
    })?;
    let mut pairs = Vec::new();
    for c in chunks {
        pairs.extend(c?);
    }
    Ok(pairs)
}

/// Decide which join operand to hash. Raw row counts alone mislead when
/// the smaller side is duplicate-heavy: probing then emits its long
/// candidate chains right-major, and (because `hash_pairs` must return
/// the nested loop's left-major order) every matched pair pays a stable
/// re-sort. Model both effects with free statistics: estimated matched
/// pairs `P = l·r / max(d_l, d_r)` from the per-key-column distinct
/// estimates, one hash operation per build/probe row, and a re-sort
/// surcharge of `P·log₂P` comparisons weighted at 1/16 of a hash
/// operation (sorting `(u32, u32)` pairs is far cheaper per step than
/// hashing a key tuple). Build left iff `l + P·log₂P/16 < r`.
pub(crate) fn choose_build_left(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
) -> bool {
    let l = left.row_count() as f64;
    let r = right.row_count() as f64;
    // A composite key is at least as selective as its most selective
    // column, so the max over per-column distincts is a safe lower bound.
    let d_l = keys
        .iter()
        .map(|&(lk, _)| left.distinct_estimate_at(lk))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let d_r = keys
        .iter()
        .map(|&(_, rk)| right.distinct_estimate_at(rk))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let pairs = l * r / d_l.max(d_r);
    let sort_penalty = pairs * pairs.max(2.0).log2() / 16.0;
    l + sort_penalty < r
}

/// Build/probe core: hash one operand on its key tuple (side chosen by
/// [`choose_build_left`]), probe the other, run the bound residual on
/// candidates. Emits pairs in the nested loop's order (left-major); when
/// the *left* side is the build side the probe emits right-major, so a
/// stable re-sort by left index restores it.
fn hash_pairs(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
    residual: Option<&BoundExpr>,
    left_width: usize,
) -> Result<Vec<(u32, u32)>> {
    let build_left = choose_build_left(left, right, keys);
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let build_keys: Vec<usize> = keys
        .iter()
        .map(|&(l, r)| if build_left { l } else { r })
        .collect();
    let probe_keys: Vec<usize> = keys
        .iter()
        .map(|&(l, r)| if build_left { r } else { l })
        .collect();

    // Partitioned build: per-chunk tables merged in chunk order, so each
    // key's candidate list stays sorted by build-row index. Rows with a
    // NULL in any key column can never satisfy the equality conjunct
    // (NULL = x is NULL, not TRUE) and stay out of the table.
    let bids: Vec<u32> = (0..build.len() as u32).collect();
    let partials = chunk_map(&bids, build.len() >= PARALLEL_THRESHOLD, |chunk| {
        let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for &bi in chunk {
            let t = &build.rows()[bi as usize];
            if build_keys.iter().any(|&k| t[k].is_null()) {
                continue;
            }
            table
                .entry(build_keys.iter().map(|&k| t[k]).collect())
                .or_default()
                .push(bi);
        }
        table
    })?;
    let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
    for partial in partials {
        for (k, mut v) in partial {
            table.entry(k).or_default().append(&mut v);
        }
    }

    let pids: Vec<u32> = (0..probe.len() as u32).collect();
    let chunks = chunk_map(
        &pids,
        probe.len() >= PARALLEL_THRESHOLD,
        |chunk| -> Result<Vec<(u32, u32)>> {
            let mut out = Vec::new();
            let mut key: Vec<Value> = Vec::with_capacity(probe_keys.len());
            for &pi in chunk {
                let t = &probe.rows()[pi as usize];
                if probe_keys.iter().any(|&k| t[k].is_null()) {
                    continue;
                }
                key.clear();
                key.extend(probe_keys.iter().map(|&k| t[k]));
                let Some(candidates) = table.get(key.as_slice()) else {
                    continue;
                };
                for &bi in candidates {
                    let (li, ri) = if build_left { (bi, pi) } else { (pi, bi) };
                    let row = PairRow {
                        left: &left.rows()[li as usize],
                        right: &right.rows()[ri as usize],
                        left_width,
                    };
                    let keep = match residual {
                        Some(e) => e.matches(&row)?,
                        None => true,
                    };
                    if keep {
                        out.push((li, ri));
                    }
                }
            }
            Ok(out)
        },
    )?;
    let mut pairs = Vec::new();
    for c in chunks {
        pairs.extend(c?);
    }
    if build_left {
        // Probing the right side emitted right-major order; the stable
        // sort keeps the per-left right order and restores left-major.
        pairs.sort_by_key(|&(li, _)| li);
    }
    Ok(pairs)
}

/// Materialize the concatenated output rows for the matched index pairs.
fn gather_pairs(
    name: String,
    schema: Schema,
    left: &Relation,
    right: &Relation,
    pairs: &[(u32, u32)],
) -> Result<Relation> {
    let parallel = pairs.len() >= PARALLEL_THRESHOLD;
    let rows = Rows::build(schema.len(), pairs, parallel, |&(li, ri), row| {
        row.extend_from_slice(&left.rows()[li as usize]);
        row.extend_from_slice(&right.rows()[ri as usize]);
    })?;
    Relation::from_rows(name, schema, rows)
}

/// ∪ — multiset union (UNION ALL): "the union of a tuple and its duplicate
/// are two identical tuples" (Sec. III-B). Columns of `right` are aligned
/// to `left`'s column order by name.
pub fn union_all(left: &Relation, right: &Relation) -> Result<Relation> {
    crate::fault_check!("ops.union");
    let mapping = alignment(left, right)?;
    let mut out = left.clone();
    for t in right.rows() {
        out.rows_mut().push_values(mapping.iter().map(|&i| t[i]));
    }
    Ok(out)
}

/// − — multiset difference: `{t, t} − {t} = {t}` (Sec. III-B). Each tuple
/// of `right` cancels at most one equal tuple of `left`. The cancellation
/// budget is a hash map over the interned values (O(1) per row) rather
/// than an ordered map of full-tuple comparisons.
pub fn difference(left: &Relation, right: &Relation) -> Result<Relation> {
    crate::fault_check!("ops.difference");
    let mapping = alignment(left, right)?;
    let mut budget: HashMap<Tuple, usize> = HashMap::with_capacity(right.len());
    for t in right.rows() {
        *budget.entry(project_row(t, &mapping)).or_insert(0) += 1;
    }
    let mut out = Relation::new(left.name(), left.schema().clone());
    for t in left.rows() {
        match budget.get_mut(t) {
            Some(n) if *n > 0 => *n -= 1,
            _ => out.rows_mut().push(t),
        }
    }
    Ok(out)
}

/// δ — duplicate elimination (DISTINCT), preserving first-occurrence order
/// via a hash set over the interned values.
pub fn distinct(rel: &Relation) -> Result<Relation> {
    let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rel.len());
    let mut out = Relation::new(rel.name(), rel.schema().clone());
    for t in rel.rows() {
        if seen.insert(t) {
            out.rows_mut().push(t);
        }
    }
    Ok(out)
}

/// Obvious-by-construction reference implementations of the operators the
/// hash engine accelerates. These are the *definitions* (Def. 7/9/10 and
/// Sec. III-B read literally) — quadratic products, ordered maps — kept
/// for the randomized differential tests and the `join` bench, never for
/// production evaluation.
pub mod oracle {
    use super::*;

    /// ⋈ as literally `select(product(l, r), F)` (Def. 10).
    pub fn join(left: &Relation, right: &Relation, condition: &Expr) -> Result<Relation> {
        let mut out = select(&product(left, right)?, condition)?;
        out.set_name(format!("{}_join_{}", left.name(), right.name()));
        Ok(out)
    }

    /// × as the sequential row-at-a-time nested loop.
    pub fn product(left: &Relation, right: &Relation) -> Result<Relation> {
        let schema = left.schema().product(right.schema(), right.name());
        let mut out = Relation::new(format!("{}_x_{}", left.name(), right.name()), schema);
        for l in left.rows() {
            for r in right.rows() {
                out.insert(Tuple::from(l).concat(&Tuple::from(r)))?;
            }
        }
        Ok(out)
    }

    /// ∪ as row-at-a-time inserts.
    pub fn union_all(left: &Relation, right: &Relation) -> Result<Relation> {
        let mapping = alignment(left, right)?;
        let mut out = Relation::new(left.name(), left.schema().clone());
        for t in left.rows() {
            out.insert(Tuple::from(t))?;
        }
        for t in right.rows() {
            out.insert(project_row(t, &mapping))?;
        }
        Ok(out)
    }

    /// − with an ordered-map budget (full-tuple comparisons).
    pub fn difference(left: &Relation, right: &Relation) -> Result<Relation> {
        let mapping = alignment(left, right)?;
        let mut budget: BTreeMap<Tuple, usize> = BTreeMap::new();
        for t in right.rows() {
            *budget.entry(project_row(t, &mapping)).or_insert(0) += 1;
        }
        let mut out = Relation::new(left.name(), left.schema().clone());
        for t in left.rows() {
            match budget.get_mut(t) {
                Some(n) if *n > 0 => *n -= 1,
                _ => out.insert(Tuple::from(t))?,
            }
        }
        Ok(out)
    }

    /// δ with an ordered map (full-tuple comparisons).
    pub fn distinct(rel: &Relation) -> Result<Relation> {
        let mut seen: BTreeMap<Tuple, ()> = BTreeMap::new();
        let mut out = Relation::new(rel.name(), rel.schema().clone());
        for t in rel.rows() {
            if seen.insert(Tuple::from(t), ()).is_none() {
                out.insert(Tuple::from(t))?;
            }
        }
        Ok(out)
    }
}

/// A sort key: column plus direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    pub column: String,
    pub ascending: bool,
}

impl SortKey {
    pub fn asc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            ascending: true,
        }
    }

    pub fn desc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            ascending: false,
        }
    }
}

/// Sort by a list of keys (stable, so previous order is the final
/// tiebreak — exactly what an interactive spreadsheet user expects when
/// clicking one column header after another).
pub fn sort(rel: &Relation, keys: &[SortKey]) -> Result<Relation> {
    let indices: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| rel.schema().index_of(&k.column).map(|i| (i, k.ascending)))
        .collect::<Result<_>>()?;
    let mut out = rel.clone();
    out.rows_mut().sort_by(|a, b| {
        for &(idx, asc) in &indices {
            let ord = a[idx].cmp(&b[idx]);
            let ord = if asc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(out)
}

/// One aggregate output: function, input column (`None` = COUNT(*)), and
/// the output column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub column: Option<String>,
    pub output: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, column: Option<&str>, output: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            column: column.map(|c| c.to_string()),
            output: output.into(),
        }
    }
}

/// Relational GROUP BY + aggregation: one output tuple per group, with the
/// grouping columns followed by the aggregate columns. This is the
/// *relational* semantics used as the SQL reference; the spreadsheet
/// algebra instead materializes aggregates as repeated computed columns
/// (Def. 11) — the contrast is the heart of the paper's aggregation
/// challenge.
pub fn group_aggregate(rel: &Relation, group_by: &[&str], aggs: &[AggSpec]) -> Result<Relation> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|c| rel.schema().index_of(c))
        .collect::<Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.column {
            Some(c) => rel.schema().index_of(c).map(Some),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    // Output schema: group columns, then aggregate result columns.
    let mut cols: Vec<Column> = group_idx
        .iter()
        .map(|&i| rel.schema().columns()[i].clone())
        .collect();
    for (spec, idx) in aggs.iter().zip(&agg_idx) {
        let ty = match spec.func {
            AggFunc::Count | AggFunc::CountNonNull | AggFunc::CountDistinct => ValueType::Int,
            AggFunc::Avg | AggFunc::StdDev => ValueType::Float,
            AggFunc::Sum => idx
                .map(|i| rel.schema().columns()[i].ty)
                .unwrap_or(ValueType::Int),
            AggFunc::Min | AggFunc::Max => idx
                .map(|i| rel.schema().columns()[i].ty)
                .unwrap_or(ValueType::Null),
        };
        cols.push(Column::new(spec.output.clone(), ty));
    }
    let schema = Schema::new(cols)?;

    // Group rows by key, preserving first-appearance order of groups.
    let mut order: Vec<Tuple> = Vec::new();
    let mut groups: BTreeMap<Tuple, Vec<usize>> = BTreeMap::new();
    for (ri, t) in rel.rows().iter().enumerate() {
        let key = project_row(t, &group_idx);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(ri);
    }

    let mut out = Relation::new(format!("{}_grouped", rel.name()), schema);
    for key in order {
        let members = &groups[&key];
        let mut values = key.clone().into_values();
        for (spec, idx) in aggs.iter().zip(&agg_idx) {
            values.push(spec.func.apply(members.iter().map(|&ri| match idx {
                Some(i) => &rel.rows()[ri][*i],
                // COUNT(*): one unit value per tuple
                None => &Value::Int(1),
            }))?);
        }
        out.insert(Tuple::new(values))?;
    }
    Ok(out)
}

/// θ helper — extend a relation with one computed column defined by an
/// expression over each row (Def. 12 core).
pub fn extend(rel: &Relation, name: &str, expr: &Expr) -> Result<Relation> {
    let mut out = rel.clone();
    // Determine the output type from the first non-null result.
    let mut ty = ValueType::Null;
    let mut values = Vec::with_capacity(rel.len());
    for t in rel.rows() {
        let v = expr.eval(rel.schema(), t)?;
        ty = ty.unify(v.value_type());
        values.push(v);
    }
    let mut iter = values.into_iter();
    out.add_column(Column::new(name, ty), |_, _| {
        iter.next().expect("row count is stable during extend")
    })?;
    Ok(out)
}

/// The values of `row` at `indices`, in that order, as an owned tuple.
fn project_row(row: &[Value], indices: &[usize]) -> Tuple {
    indices.iter().map(|&i| row[i]).collect::<Vec<_>>().into()
}

/// Column alignment mapping from `left`'s order into `right`'s indices,
/// failing unless the relations are union-compatible.
fn alignment(left: &Relation, right: &Relation) -> Result<Vec<usize>> {
    if !left.schema().union_compatible(right.schema()) {
        return Err(RelationError::NotUnionCompatible {
            left: left.schema().to_string(),
            right: right.schema().to_string(),
        });
    }
    left.schema()
        .columns()
        .iter()
        .map(|c| right.schema().index_of(&c.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType::*;

    fn cars() -> Relation {
        let schema = Schema::of(&[("ID", Int), ("Model", Str), ("Price", Int), ("Year", Int)]);
        Relation::with_rows(
            "cars",
            schema,
            vec![
                tuple![304, "Jetta", 14500, 2005],
                tuple![872, "Jetta", 15000, 2005],
                tuple![423, "Jetta", 17000, 2006],
                tuple![132, "Civic", 13500, 2005],
                tuple![879, "Civic", 15000, 2006],
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_filters() {
        let r = select(&cars(), &Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.rows().iter().all(|t| t[3] == Value::Int(2005)));
    }

    #[test]
    fn select_propagates_eval_errors() {
        assert!(select(&cars(), &Expr::col("Ghost").eq(Expr::lit(1))).is_err());
    }

    #[test]
    fn project_keeps_order_and_duplicates() {
        let r = project(&cars(), &["Model", "Year"]).unwrap();
        assert_eq!(r.schema().names(), vec!["Model", "Year"]);
        assert_eq!(r.len(), 5); // no duplicate elimination
        let r2 = project_out(&r, "Year").unwrap();
        assert_eq!(r2.schema().names(), vec!["Model"]);
        assert_eq!(r2.len(), 5);
        // Jetta appears 3 times
        assert_eq!(r2.histogram()[&tuple!["Jetta"]], 3);
    }

    #[test]
    fn project_out_unknown_column_errors() {
        assert!(project_out(&cars(), "Ghost").is_err());
    }

    #[test]
    fn product_sizes_and_names() {
        let dealers = Relation::with_rows(
            "dealers",
            Schema::of(&[("ID", Int), ("City", Str)]),
            vec![tuple![1, "Ann Arbor"], tuple![2, "Detroit"]],
        )
        .unwrap();
        let p = product(&cars(), &dealers).unwrap();
        assert_eq!(p.len(), 10);
        assert!(p.schema().contains("dealers.ID"));
        assert!(p.schema().contains("City"));
    }

    #[test]
    fn join_matches_product_plus_select() {
        let models = Relation::with_rows(
            "models",
            Schema::of(&[("Name", Str), ("Maker", Str)]),
            vec![tuple!["Jetta", "VW"], tuple!["Civic", "Honda"]],
        )
        .unwrap();
        let cond = Expr::col("Model").eq(Expr::col("Name"));
        let j = join(&cars(), &models, &cond).unwrap();
        let p = select(&product(&cars(), &models).unwrap(), &cond).unwrap();
        assert_eq!(j.len(), 5);
        assert!(j.multiset_eq(&p));
        // ... and in the same row order as the definitional nested loop.
        assert_eq!(
            j.rows(),
            oracle::join(&cars(), &models, &cond).unwrap().rows()
        );
    }

    #[test]
    fn join_null_keys_never_match() {
        // SQL semantics, pinned: NULL = NULL is NULL, not TRUE, so rows
        // with NULL keys match nothing on either side.
        let a = Relation::with_rows(
            "a",
            Schema::of(&[("k", Int)]),
            vec![tuple![1], tuple![Value::Null], tuple![2]],
        )
        .unwrap();
        let b = Relation::with_rows(
            "b",
            Schema::of(&[("j", Int)]),
            vec![tuple![Value::Null], tuple![1], tuple![1]],
        )
        .unwrap();
        let cond = Expr::col("k").eq(Expr::col("j"));
        let j = join(&a, &b, &cond).unwrap();
        assert_eq!(j.len(), 2, "only k=1 matches j=1 twice");
        assert!(j.rows().iter().all(|t| t[0] == Value::Int(1)));
        assert_eq!(j.rows(), oracle::join(&a, &b, &cond).unwrap().rows());
        // The forced nested loop agrees (it goes through sql_cmp).
        let n = join_nested(&a, &b, &cond).unwrap();
        assert_eq!(n.rows(), join(&a, &b, &cond).unwrap().rows());
    }

    #[test]
    fn join_residual_and_duplicate_keys() {
        let prices = Relation::with_rows(
            "p",
            Schema::of(&[("M", Str), ("Cap", Int)]),
            vec![
                tuple!["Jetta", 15000],
                tuple!["Jetta", 14800],
                tuple!["Civic", 14000],
            ],
        )
        .unwrap();
        // Equi-conjunct plus a residual comparison between both sides.
        let cond = Expr::col("Model")
            .eq(Expr::col("M"))
            .and(Expr::col("Price").le(Expr::col("Cap")));
        let j = join(&cars(), &prices, &cond).unwrap();
        let o = oracle::join(&cars(), &prices, &cond).unwrap();
        assert_eq!(j.rows(), o.rows());
        assert_eq!(j.len(), 4); // 14500≤{15000,14800}, 13500≤14000, 15000≤15000
    }

    #[test]
    fn join_without_equi_conjunct_falls_back() {
        let b = Relation::with_rows(
            "b",
            Schema::of(&[("lo", Int)]),
            vec![tuple![14000], tuple![16000]],
        )
        .unwrap();
        let cond = Expr::col("Price").gt(Expr::col("lo"));
        let (keys, residual) = cond.extract_equi_keys(
            cars().schema().len(),
            &cars().schema().product(b.schema(), "b"),
        );
        assert!(keys.is_empty());
        assert_eq!(residual, Some(cond.clone()));
        let j = join(&cars(), &b, &cond).unwrap();
        assert_eq!(j.rows(), oracle::join(&cars(), &b, &cond).unwrap().rows());
    }

    #[test]
    fn join_builds_on_either_side_with_same_output_order() {
        // 5-row cars joined against a 1-row and a 9-row right side: one
        // hashes the right operand, the other the left. Order must match
        // the nested loop in both regimes.
        for m in [1usize, 9] {
            let right = Relation::with_rows(
                "r",
                Schema::of(&[("Y", Int)]),
                (0..m).map(|i| tuple![2005 + (i as i64 % 2)]).collect(),
            )
            .unwrap();
            let cond = Expr::col("Year").eq(Expr::col("Y"));
            let j = join(&cars(), &right, &cond).unwrap();
            assert_eq!(
                j.rows(),
                oracle::join(&cars(), &right, &cond).unwrap().rows()
            );
        }
    }

    #[test]
    fn build_side_prefers_small_unique_side() {
        // Classic case: a small side of unique keys against a larger
        // probe side. The sort penalty is modest, so build left.
        let small = Relation::with_rows(
            "small",
            Schema::of(&[("k", Int)]),
            (0..100i64).map(|i| tuple![i]).collect(),
        )
        .unwrap();
        let big = Relation::with_rows(
            "big",
            Schema::of(&[("k", Int)]),
            (0..10_000i64).map(|i| tuple![i % 100]).collect(),
        )
        .unwrap();
        assert!(choose_build_left(&small, &big, &[(0, 0)]));
    }

    #[test]
    fn build_side_avoids_duplicate_heavy_small_side() {
        // The smaller side has only 4 distinct keys, so the estimated
        // pair count explodes and the left-major re-sort would dominate:
        // raw row counts would build left, the statistics say right.
        let dupheavy = Relation::with_rows(
            "dupheavy",
            Schema::of(&[("k", Int)]),
            (0..2_000i64).map(|i| tuple![i % 4]).collect(),
        )
        .unwrap();
        let big = Relation::with_rows(
            "big",
            Schema::of(&[("k", Int)]),
            (0..20_000i64).map(|i| tuple![i % 4]).collect(),
        )
        .unwrap();
        assert!(dupheavy.len() < big.len());
        assert!(!choose_build_left(&dupheavy, &big, &[(0, 0)]));
        // Output must stay identical to the nested loop either way.
        let cond = Expr::col("k").eq(Expr::col("big.k"));
        let take = |r: &Relation, n: usize| {
            Relation::with_rows(
                r.name(),
                r.schema().clone(),
                r.rows().iter().take(n).map(Tuple::from).collect(),
            )
            .unwrap()
        };
        let (a, b) = (take(&dupheavy, 40), take(&big, 60));
        let j = join(&a, &b, &cond).unwrap();
        assert_eq!(j.rows(), oracle::join(&a, &b, &cond).unwrap().rows());
    }

    #[test]
    fn join_condition_must_be_boolean() {
        let models =
            Relation::with_rows("m", Schema::of(&[("Name", Str)]), vec![tuple!["Jetta"]]).unwrap();
        // `Price + 1` is an Int, not a predicate.
        let bad = Expr::col("Price").add(Expr::lit(1));
        assert!(matches!(
            join(&cars(), &models, &bad),
            Err(RelationError::NotBoolean { .. })
        ));
        assert!(matches!(
            select(&cars(), &bad),
            Err(RelationError::NotBoolean { .. })
        ));
    }

    #[test]
    fn union_all_keeps_duplicates_and_aligns_columns() {
        let a = Relation::with_rows(
            "a",
            Schema::of(&[("x", Int), ("y", Str)]),
            vec![tuple![1, "p"]],
        )
        .unwrap();
        let b = Relation::with_rows(
            "b",
            Schema::of(&[("y", Str), ("x", Int)]),
            vec![tuple!["p", 1], tuple!["q", 2]],
        )
        .unwrap();
        let u = union_all(&a, &b).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.histogram()[&tuple![1, "p"]], 2);
    }

    #[test]
    fn union_requires_compatibility() {
        let a = Relation::new("a", Schema::of(&[("x", Int)]));
        let b = Relation::new("b", Schema::of(&[("z", Int)]));
        assert!(matches!(
            union_all(&a, &b),
            Err(RelationError::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn difference_is_multiset() {
        let schema = Schema::of(&[("x", Int)]);
        let a = Relation::with_rows("a", schema.clone(), vec![tuple![1], tuple![1], tuple![2]])
            .unwrap();
        let b = Relation::with_rows("b", schema, vec![tuple![1]]).unwrap();
        let d = difference(&a, &b).unwrap();
        // {1,1,2} − {1} = {1,2}
        assert_eq!(d.len(), 2);
        assert_eq!(d.histogram()[&tuple![1]], 1);
        assert_eq!(d.histogram()[&tuple![2]], 1);
    }

    #[test]
    fn distinct_preserves_first_occurrence_order() {
        let schema = Schema::of(&[("x", Int)]);
        let r = Relation::with_rows(
            "r",
            schema,
            vec![tuple![2], tuple![1], tuple![2], tuple![3], tuple![1]],
        )
        .unwrap();
        let d = distinct(&r).unwrap();
        let xs: Vec<&Value> = d.rows().iter().map(|t| &t[0]).collect();
        assert_eq!(xs, vec![&Value::Int(2), &Value::Int(1), &Value::Int(3)]);
    }

    #[test]
    fn hashed_set_operators_match_oracle() {
        let schema = Schema::of(&[("x", Int), ("s", Str)]);
        let a = Relation::with_rows(
            "a",
            schema.clone(),
            vec![
                tuple![1, "p"],
                tuple![2, "q"],
                tuple![1, "p"],
                tuple![Value::Null, "r"],
                tuple![Value::Null, "r"],
            ],
        )
        .unwrap();
        let b = Relation::with_rows(
            "b",
            schema,
            vec![tuple![1, "p"], tuple![Value::Null, "r"], tuple![3, "z"]],
        )
        .unwrap();
        assert_eq!(
            distinct(&a).unwrap().rows(),
            oracle::distinct(&a).unwrap().rows()
        );
        assert_eq!(
            difference(&a, &b).unwrap().rows(),
            oracle::difference(&a, &b).unwrap().rows()
        );
        assert_eq!(
            union_all(&a, &b).unwrap().rows(),
            oracle::union_all(&a, &b).unwrap().rows()
        );
    }

    #[test]
    fn sort_is_stable_multi_key() {
        let r = sort(&cars(), &[SortKey::asc("Model"), SortKey::desc("Price")]).unwrap();
        let ids: Vec<&Value> = r.rows().iter().map(|t| &t[0]).collect();
        assert_eq!(
            ids,
            vec![
                &Value::Int(879), // Civic 15000
                &Value::Int(132), // Civic 13500
                &Value::Int(423), // Jetta 17000
                &Value::Int(872), // Jetta 15000
                &Value::Int(304), // Jetta 14500
            ]
        );
    }

    #[test]
    fn group_aggregate_relational_semantics() {
        let r = group_aggregate(
            &cars(),
            &["Model"],
            &[
                AggSpec::new(AggFunc::Avg, Some("Price"), "Avg_Price"),
                AggSpec::new(AggFunc::Count, None, "N"),
            ],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().names(), vec!["Model", "Avg_Price", "N"]);
        // groups appear in first-appearance order: Jetta then Civic
        assert_eq!(&r.rows()[0][0], &Value::str("Jetta"));
        assert_eq!(&r.rows()[0][1], &Value::Float(15500.0));
        assert_eq!(&r.rows()[0][2], &Value::Int(3));
        assert_eq!(&r.rows()[1][1], &Value::Float(14250.0));
    }

    #[test]
    fn group_aggregate_empty_group_by_is_global() {
        let r = group_aggregate(
            &cars(),
            &[],
            &[AggSpec::new(AggFunc::Max, Some("Price"), "MaxP")],
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(&r.rows()[0][0], &Value::Int(17000));
    }

    #[test]
    fn extend_adds_computed_column() {
        let e = Expr::col("Price").div(Expr::lit(1000));
        let r = extend(&cars(), "PriceK", &e).unwrap();
        assert_eq!(r.value_at(0, "PriceK").unwrap(), &Value::Float(14.5));
        assert!(extend(&r, "PriceK", &e).is_err(), "duplicate name rejected");
    }
}
