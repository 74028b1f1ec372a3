//! Relations: schemas plus multisets of tuples.
//!
//! A [`Relation`] keeps its tuples in insertion order — callers that need a
//! particular presentation order sort explicitly. Multiset semantics follow
//! the paper (Sec. III-B): duplicates are kept by projection and set
//! operators, and `{t, t} − {t} = {t}`. The tuples live flat in chunked
//! copy-on-write [`Rows`], so a clone is `O(rows / CHUNK_ROWS)`, an edit
//! of a shared relation copies only the chunks it touches, and rows are
//! read as `&[Value]` slices.

use crate::error::{RelationError, Result};
use crate::intern::Sym;
use crate::rows::Rows;
use crate::schema::{Column, Schema};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::collections::BTreeMap;
use std::fmt;

/// Rows examined by [`Relation::distinct_estimate`] before it switches
/// from exact counting to a sampled estimate.
const DISTINCT_SAMPLE_BUDGET: usize = 1024;

/// A named multiset of tuples with a fixed schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    schema: Schema,
    rows: Rows,
}

impl Relation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Relation {
        Relation {
            name: name.into(),
            rows: Rows::new(schema.len()),
            schema,
        }
    }

    /// Create a relation from rows, validating widths.
    pub fn with_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Tuple>,
    ) -> Result<Relation> {
        let mut r = Relation::new(name, schema);
        r.append_rows(rows)?;
        Ok(r)
    }

    /// Create a relation over rows already in storage.
    pub fn from_rows(name: impl Into<String>, schema: Schema, rows: Rows) -> Result<Relation> {
        if rows.arity() != schema.len() {
            return Err(RelationError::TypeMismatch {
                context: format!(
                    "rows of width {} for a {}-column schema",
                    rows.arity(),
                    schema.len()
                ),
            });
        }
        Ok(Relation {
            name: name.into(),
            schema,
            rows,
        })
    }

    /// Create a relation from column vectors — the transpose step of a
    /// columnar reader. All columns must match the schema width and have
    /// equal lengths.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: &[&[Value]],
    ) -> Result<Relation> {
        if columns.len() != schema.len() {
            return Err(RelationError::TypeMismatch {
                context: format!(
                    "{} columns supplied for a {}-column schema",
                    columns.len(),
                    schema.len()
                ),
            });
        }
        let rows = columns.first().map_or(0, |c| c.len());
        if let Some(odd) = columns.iter().find(|c| c.len() != rows) {
            return Err(RelationError::TypeMismatch {
                context: format!("column lengths differ: {} vs {rows}", odd.len()),
            });
        }
        let mut r = Relation::new(name, schema);
        for i in 0..rows {
            r.rows.push_values(columns.iter().map(|c| c[i]));
        }
        Ok(r)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// The rows for in-place editing; every edit copies the chunks it
    /// touches if they are shared with a clone.
    pub fn rows_mut(&mut self) -> &mut Rows {
        &mut self.rows
    }

    /// Whether `self` is `older` plus zero or more appended rows: same
    /// schema, and `older`'s rows are a prefix of `self`'s. Checked in
    /// `O(chunks + CHUNK_ROWS)` by [`Rows::extends`], so it recognizes an
    /// append made to a clone of `older`, not an equal prefix built
    /// independently.
    pub fn extends(&self, older: &Relation) -> bool {
        self.schema == older.schema && self.rows.extends(&older.rows)
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one tuple, validating its width against the schema.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.len() != self.schema.len() {
            return Err(RelationError::TypeMismatch {
                context: format!(
                    "tuple width {} does not match schema width {} of `{}`",
                    tuple.len(),
                    self.schema.len(),
                    self.name
                ),
            });
        }
        self.rows.push(&tuple);
        Ok(())
    }

    /// Append a batch of tuples, validating every width **before** the
    /// first mutation so a bad batch leaves the relation untouched.
    /// String values were interned when the tuples were built, so the
    /// append itself copies values into the flat chunks, copying at most
    /// the shared tail chunk first. Returns the index of the first
    /// appended row.
    pub fn append_rows(&mut self, rows: Vec<Tuple>) -> Result<usize> {
        for t in &rows {
            if t.len() != self.schema.len() {
                return Err(RelationError::TypeMismatch {
                    context: format!(
                        "tuple width {} does not match schema width {} of `{}`",
                        t.len(),
                        self.schema.len(),
                        self.name
                    ),
                });
            }
        }
        let first = self.rows.len();
        self.rows.extend(rows);
        Ok(first)
    }

    /// Remove the rows at `indices` (any order, duplicates ignored),
    /// returning the removed `(index, tuple)` pairs in ascending index
    /// order — exactly what [`Relation::reinsert_rows`] needs to undo the
    /// removal. One retain pass; chunks before the first removed row stay
    /// shared.
    pub fn remove_rows_at(&mut self, indices: &[u32]) -> Result<Vec<(u32, Tuple)>> {
        for &i in indices {
            if i as usize >= self.rows.len() {
                return Err(RelationError::TypeMismatch {
                    context: format!(
                        "row index {i} out of range for `{}` ({} rows)",
                        self.name,
                        self.rows.len()
                    ),
                });
            }
        }
        let mut drop = vec![false; self.rows.len()];
        for &i in indices {
            drop[i as usize] = true;
        }
        let mut removed = Vec::with_capacity(indices.len());
        self.rows.retain(|i, t| {
            if drop[i] {
                removed.push((i as u32, Tuple::from(t)));
            }
            !drop[i]
        });
        Ok(removed)
    }

    /// Undo a [`Relation::remove_rows_at`]: reinsert the removed rows at
    /// their original positions. `removed` must be the pairs that call
    /// returned (ascending original indices).
    pub fn reinsert_rows(&mut self, removed: Vec<(u32, Tuple)>) {
        self.rows
            .insert_sorted(removed.iter().map(|(i, t)| (*i as usize, t.values())));
    }

    /// Overwrite one cell, returning the previous value (for rollback).
    pub fn set_value(&mut self, row: usize, column: &str, value: Value) -> Result<Value> {
        let idx = self.schema.index_of(column)?;
        if row >= self.rows.len() {
            return Err(RelationError::RowOutOfRange {
                row,
                len: self.rows.len(),
            });
        }
        let cell = &mut self.rows[row][idx];
        Ok(std::mem::replace(cell, value))
    }

    /// Value at (row, column-name).
    pub fn value_at(&self, row: usize, column: &str) -> Result<&Value> {
        let idx = self.schema.index_of(column)?;
        let tuple = self.rows.get(row).ok_or(RelationError::RowOutOfRange {
            row,
            len: self.rows.len(),
        })?;
        Ok(&tuple[idx])
    }

    /// All values in a column, in row order.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(column)?;
        Ok(self.rows.column(idx))
    }

    /// Borrowed columnar view of one column: `O(1)` access to `&Value`s
    /// without cloning. The index-vector evaluation engine reads base data
    /// through these instead of materializing intermediate relations.
    pub fn column_slice(&self, column: &str) -> Result<ColumnSlice<'_>> {
        let idx = self.schema.index_of(column)?;
        Ok(ColumnSlice {
            rows: &self.rows,
            idx,
        })
    }

    /// Gather the rows at `indices` (in that order) into a new relation
    /// with the same name and schema. This is the single materialization
    /// point of the index-vector engine: evaluation carries `Vec<u32>` row
    /// ids and only copies values here, once, at the end, into one flat
    /// buffer per chunk ([`Rows::gather`]).
    pub fn take_rows(&self, indices: &[u32]) -> Relation {
        Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.gather(indices),
        }
    }

    /// Keep only the rows whose index satisfies `keep`, preserving order.
    /// Chunks of an unshared relation are compacted in place — which is
    /// what makes narrowing a cached evaluation cheaper than
    /// re-gathering.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        self.rows.retain(|i, _| keep(i));
    }

    /// Add a column filled by `fill(row_index, row)`; every chunk is
    /// restrided once.
    pub fn add_column<F>(&mut self, column: Column, fill: F) -> Result<()>
    where
        F: FnMut(usize, &[Value]) -> Value,
    {
        if self.schema.contains(&column.name) {
            return Err(RelationError::DuplicateColumn { name: column.name });
        }
        self.schema.push(column)?;
        self.rows.push_column(fill);
        Ok(())
    }

    /// Remove a column and its values from every row.
    pub fn drop_column(&mut self, name: &str) -> Result<()> {
        let idx = self.schema.remove(name)?;
        self.rows.remove_column(idx);
        Ok(())
    }

    /// Multiset equality: same schema (same column order) and the same
    /// tuples irrespective of row order.
    pub fn multiset_eq(&self, other: &Relation) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        let mut a = self.rows.to_vec();
        let mut b = other.rows.to_vec();
        a.sort();
        b.sort();
        a == b
    }

    /// Multiset equality after aligning `other`'s columns to `self`'s
    /// column order (columns must have the same names).
    pub fn multiset_eq_unordered_columns(&self, other: &Relation) -> bool {
        if self.schema.len() != other.schema.len() || self.len() != other.len() {
            return false;
        }
        let mapping: Option<Vec<usize>> = self
            .schema
            .columns()
            .iter()
            .map(|c| other.schema.index_of(&c.name).ok())
            .collect();
        let Some(mapping) = mapping else { return false };
        let mut a = self.rows.to_vec();
        let mut b: Vec<Tuple> = other
            .rows
            .iter()
            .map(|t| mapping.iter().map(|&i| t[i]).collect::<Vec<_>>().into())
            .collect();
        a.sort();
        b.sort();
        a == b
    }

    /// Number of rows — the free cardinality statistic the planner leans
    /// on. Alias of [`Relation::len`], named for symmetry with
    /// [`Relation::distinct_estimate`].
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Estimate the number of distinct values in `column`. See
    /// [`Relation::distinct_estimate_at`] for the method.
    pub fn distinct_estimate(&self, column: &str) -> Result<usize> {
        let idx = self.schema.index_of(column)?;
        Ok(self.distinct_estimate_at(idx))
    }

    /// Estimate the number of distinct values in the column at position
    /// `idx`, deterministically and without hashing whole values:
    ///
    /// * `Str` columns are counted **exactly** with a bitset over interner
    ///   ids — symbols are dense `u32` handles (the same id space the
    ///   lexicographic rank snapshot covers), so one bit per interned
    ///   string suffices and the scan is a cheap `O(rows)` pass.
    /// * Other columns are counted exactly while the relation fits the
    ///   sample budget, and above it estimated from a low-discrepancy
    ///   sample (golden-ratio stride, so periodic data cannot alias) with
    ///   the GEE singleton scale-up, clamped to `[d_sample, row_count]`.
    ///   A sample with no repeats at all is treated as a key column.
    pub fn distinct_estimate_at(&self, idx: usize) -> usize {
        let n = self.rows.len();
        if n == 0 {
            return 0;
        }
        if self.schema.columns()[idx].ty == ValueType::Str {
            return self.distinct_str_exact(idx);
        }
        if n <= DISTINCT_SAMPLE_BUDGET {
            let mut vals: Vec<&Value> = self.rows.iter().map(|t| &t[idx]).collect();
            vals.sort();
            vals.dedup();
            return vals.len();
        }
        // Low-discrepancy row sample: multiples of the golden ratio mod n
        // cover the index space evenly without the aliasing risk of a
        // fixed stride, and stay fully deterministic.
        const GOLDEN: u128 = 0x9E37_79B9_7F4A_7C15;
        let mut picked: Vec<usize> = (0..DISTINCT_SAMPLE_BUDGET)
            .map(|k| ((k as u128 * GOLDEN) % n as u128) as usize)
            .collect();
        picked.sort_unstable();
        picked.dedup();
        let s = picked.len();
        let mut vals: Vec<&Value> = picked.iter().map(|&r| &self.rows[r][idx]).collect();
        vals.sort();
        let (mut d, mut f1) = (0usize, 0usize);
        let mut i = 0;
        while i < vals.len() {
            let mut j = i + 1;
            while j < vals.len() && vals[j] == vals[i] {
                j += 1;
            }
            d += 1;
            if j - i == 1 {
                f1 += 1;
            }
            i = j;
        }
        if f1 == d {
            // No duplicates among the sampled rows: key-like column.
            return n;
        }
        // GEE (Charikar et al.): scale the singletons by √(n/s).
        let est = ((n as f64 / s as f64).sqrt() * f1 as f64 + (d - f1) as f64).round() as usize;
        est.clamp(d, n)
    }

    /// Exact distinct count of a `Str` column via an interner-id bitset.
    fn distinct_str_exact(&self, idx: usize) -> usize {
        let mut words = vec![0u64; Sym::interned_count() / 64 + 1];
        let mut distinct = 0usize;
        let mut saw_null = false;
        // Ill-typed stragglers in a Str-declared column (possible in a
        // hand-built relation) fall back to a sorted side list.
        let mut other: Vec<&Value> = Vec::new();
        for t in &self.rows {
            match &t[idx] {
                Value::Str(s) => {
                    let id = s.id() as usize;
                    if id / 64 >= words.len() {
                        words.resize(id / 64 + 1, 0);
                    }
                    let bit = 1u64 << (id % 64);
                    if words[id / 64] & bit == 0 {
                        words[id / 64] |= bit;
                        distinct += 1;
                    }
                }
                Value::Null => saw_null = true,
                v => other.push(v),
            }
        }
        other.sort();
        other.dedup();
        distinct + usize::from(saw_null) + other.len()
    }

    /// Count of each distinct tuple (useful in multiset-semantics tests).
    pub fn histogram(&self) -> BTreeMap<Tuple, usize> {
        let mut h = BTreeMap::new();
        for t in &self.rows {
            *h.entry(Tuple::from(t)).or_insert(0) += 1;
        }
        h
    }
}

/// A borrowed view of one column of a row-store relation. Cheap to copy;
/// lives as long as the relation it was taken from.
#[derive(Clone, Copy)]
pub struct ColumnSlice<'a> {
    rows: &'a Rows,
    idx: usize,
}

impl<'a> ColumnSlice<'a> {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value at `row` — borrowed, never cloned.
    pub fn get(&self, row: usize) -> &'a Value {
        &self.rows[row][self.idx]
    }

    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + '_ {
        self.rows.iter().map(move |t| &t[self.idx])
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} [{} rows]", self.name, self.schema, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType::*;

    fn cars() -> Relation {
        let schema = Schema::of(&[("ID", Int), ("Model", Str), ("Price", Int)]);
        Relation::with_rows(
            "cars",
            schema,
            vec![
                tuple![304, "Jetta", 14500],
                tuple![872, "Jetta", 15000],
                tuple![132, "Civic", 13500],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_validates_width() {
        let mut r = cars();
        assert!(r.insert(tuple![1, "x"]).is_err());
        assert!(r.insert(tuple![1, "x", 2]).is_ok());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn value_and_column_access() {
        let r = cars();
        assert_eq!(r.value_at(0, "Model").unwrap(), &Value::str("Jetta"));
        assert_eq!(
            r.column_values("Price").unwrap(),
            vec![Value::Int(14500), Value::Int(15000), Value::Int(13500)]
        );
        assert!(r.value_at(0, "Nope").is_err());
    }

    #[test]
    fn add_and_drop_column() {
        let mut r = cars();
        r.add_column(Column::new("Discounted", Int), |_, t| {
            t[2].sub(&Value::Int(500)).unwrap()
        })
        .unwrap();
        assert_eq!(r.value_at(0, "Discounted").unwrap(), &Value::Int(14000));
        assert!(r
            .add_column(Column::new("Discounted", Int), |_, _| Value::Null)
            .is_err());
        r.drop_column("Discounted").unwrap();
        assert!(!r.schema().contains("Discounted"));
        assert_eq!(r.rows()[0].len(), 3);
    }

    #[test]
    fn take_rows_gathers_in_index_order() {
        let r = cars();
        let picked = r.take_rows(&[2, 0]);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.value_at(0, "ID").unwrap(), &Value::Int(132));
        assert_eq!(picked.value_at(1, "ID").unwrap(), &Value::Int(304));
        assert_eq!(picked.schema(), r.schema());
        assert!(r.take_rows(&[]).is_empty());
    }

    #[test]
    fn column_slice_borrows_values() {
        let r = cars();
        let prices = r.column_slice("Price").unwrap();
        assert_eq!(prices.len(), 3);
        assert_eq!(prices.get(1), &Value::Int(15000));
        let all: Vec<&Value> = prices.iter().collect();
        assert_eq!(all.len(), 3);
        assert!(r.column_slice("Ghost").is_err());
    }

    #[test]
    fn multiset_eq_ignores_row_order() {
        let a = cars();
        let mut rows = a.rows().to_vec();
        rows.reverse();
        let b = Relation::with_rows("b", a.schema().clone(), rows.clone()).unwrap();
        assert!(a.multiset_eq(&b));
        rows.pop();
        let c = Relation::with_rows("c", a.schema().clone(), rows).unwrap();
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn multiset_eq_respects_duplicates() {
        let schema = Schema::of(&[("x", Int)]);
        let a = Relation::with_rows("a", schema.clone(), vec![tuple![1], tuple![1]]).unwrap();
        let b = Relation::with_rows("b", schema.clone(), vec![tuple![1]]).unwrap();
        assert!(!a.multiset_eq(&b));
        let c = Relation::with_rows("c", schema, vec![tuple![1], tuple![1]]).unwrap();
        // names differ but schema & rows match; names are not part of equality
        assert!(a.multiset_eq(&c));
    }

    #[test]
    fn multiset_eq_unordered_columns_aligns() {
        let a = Relation::with_rows(
            "a",
            Schema::of(&[("x", Int), ("y", Str)]),
            vec![tuple![1, "p"], tuple![2, "q"]],
        )
        .unwrap();
        let b = Relation::with_rows(
            "b",
            Schema::of(&[("y", Str), ("x", Int)]),
            vec![tuple!["q", 2], tuple!["p", 1]],
        )
        .unwrap();
        assert!(a.multiset_eq_unordered_columns(&b));
    }

    #[test]
    fn row_count_is_len() {
        let r = cars();
        assert_eq!(r.row_count(), r.len());
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn distinct_exact_small_numeric() {
        let schema = Schema::of(&[("x", Int)]);
        let rows = vec![tuple![1], tuple![2], tuple![1], tuple![3], tuple![2]];
        let r = Relation::with_rows("r", schema, rows).unwrap();
        assert_eq!(r.distinct_estimate("x").unwrap(), 3);
        assert!(r.distinct_estimate("ghost").is_err());
    }

    #[test]
    fn distinct_str_counts_exactly_with_nulls() {
        let schema = Schema::of(&[("s", Str)]);
        let rows = vec![
            tuple!["alpha"],
            tuple!["beta"],
            tuple!["alpha"],
            Tuple::new(vec![Value::Null]),
            tuple!["gamma"],
            Tuple::new(vec![Value::Null]),
        ];
        let r = Relation::with_rows("r", schema, rows).unwrap();
        // 3 strings + the null bucket
        assert_eq!(r.distinct_estimate("s").unwrap(), 4);
    }

    #[test]
    fn distinct_sampled_periodic_low_cardinality_is_exact() {
        // 50k rows cycling through 7 values: a fixed-stride sample could
        // alias with the period; the golden-ratio sample must not.
        let schema = Schema::of(&[("x", Int)]);
        let rows = (0..50_000).map(|i| tuple![i % 7]).collect();
        let r = Relation::with_rows("r", schema, rows).unwrap();
        assert_eq!(r.distinct_estimate("x").unwrap(), 7);
    }

    #[test]
    fn distinct_sampled_key_column_estimates_full_cardinality() {
        let schema = Schema::of(&[("x", Int)]);
        let rows = (0..50_000i64).map(|i| tuple![i]).collect();
        let r = Relation::with_rows("r", schema, rows).unwrap();
        // All sampled rows are singletons → treated as a key column.
        assert_eq!(r.distinct_estimate("x").unwrap(), 50_000);
    }

    #[test]
    fn distinct_sampled_stays_clamped() {
        // Heavy skew: one value dominates, 500 rares. The estimate must
        // land inside [sampled distinct, row count].
        let schema = Schema::of(&[("x", Int)]);
        let rows = (0..40_000i64)
            .map(|i| if i % 80 == 0 { tuple![i] } else { tuple![-1] })
            .collect();
        let r = Relation::with_rows("r", schema, rows).unwrap();
        let est = r.distinct_estimate("x").unwrap();
        assert!(est <= 40_000, "est {est} above row count");
        assert!(est >= 2, "est {est} below sampled distinct");
    }

    #[test]
    fn append_rows_is_all_or_nothing() {
        let mut r = cars();
        let first = r
            .append_rows(vec![tuple![9, "Prius", 21000], tuple![10, "Prius", 22000]])
            .unwrap();
        assert_eq!(first, 3);
        assert_eq!(r.len(), 5);
        // One bad width in the batch: nothing is appended.
        assert!(r
            .append_rows(vec![tuple![11, "Civic", 9000], tuple![12, "short"]])
            .is_err());
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn remove_and_reinsert_roundtrip() {
        let mut r = cars();
        let before = r.clone();
        let removed = r.remove_rows_at(&[2, 0, 0]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value_at(0, "ID").unwrap(), &Value::Int(872));
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].0, 0);
        assert_eq!(removed[1].0, 2);
        r.reinsert_rows(removed);
        assert_eq!(r, before);
        assert!(r.remove_rows_at(&[99]).is_err());
        assert_eq!(r, before);
    }

    #[test]
    fn set_value_returns_old() {
        let mut r = cars();
        let old = r.set_value(1, "Price", Value::Int(9999)).unwrap();
        assert_eq!(old, Value::Int(15000));
        assert_eq!(r.value_at(1, "Price").unwrap(), &Value::Int(9999));
        assert!(r.set_value(9, "Price", Value::Int(1)).is_err());
        assert!(r.set_value(0, "Ghost", Value::Int(1)).is_err());
    }

    #[test]
    fn histogram_counts_duplicates() {
        let schema = Schema::of(&[("x", Int)]);
        let r = Relation::with_rows("r", schema, vec![tuple![1], tuple![2], tuple![1]]).unwrap();
        let h = r.histogram();
        assert_eq!(h[&tuple![1]], 2);
        assert_eq!(h[&tuple![2]], 1);
    }
}
