//! Property tests for the relational substrate: value ordering laws,
//! multiset-operator algebra, sort stability, CSV round-trips, and
//! expression-parser round-trips. Cases are drawn from the in-tree
//! [`Rng`] with fixed per-test seeds, so failures are replayable.

use ssa_relation::expr_parse::parse_expr;
use ssa_relation::ops::{self, SortKey};
use ssa_relation::rng::Rng;
use ssa_relation::schema::Schema;
use ssa_relation::ValueType::{Int, Str};
use ssa_relation::{Expr, Relation, Tuple, Value};
use std::cmp::Ordering;

fn arb_value(rng: &mut Rng) -> Value {
    match rng.gen_range(0..5usize) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-1000..1000i64)),
        3 => Value::Float(rng.gen_range(-1000..1000i64) as f64 / 4.0),
        _ => {
            let len = rng.gen_range(0..=6usize);
            Value::from(
                (0..len)
                    .map(|_| *rng.pick(&['a', 'b', 'c', 'x', 'y', 'z']))
                    .collect::<String>(),
            )
        }
    }
}

fn arb_rows(rng: &mut Rng) -> Vec<(i64, String)> {
    (0..rng.gen_range(0..30usize))
        .map(|_| {
            let len = rng.gen_range(1..=2usize);
            let s: String = (0..len).map(|_| *rng.pick(&['a', 'b', 'c'])).collect();
            (rng.gen_range(0..20i64), s)
        })
        .collect()
}

fn rel_of(name: &str, rows: &[(i64, String)]) -> Relation {
    Relation::with_rows(
        name,
        Schema::of(&[("x", Int), ("s", Str)]),
        rows.iter()
            .map(|(x, s)| Tuple::new(vec![Value::Int(*x), Value::str(s.as_str())]))
            .collect(),
    )
    .expect("widths match")
}

/// Value's Ord is a total order: antisymmetric and transitive.
#[test]
fn value_order_is_total() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x01 ^ (case << 8));
        let (a, b, c) = (
            arb_value(&mut rng),
            arb_value(&mut rng),
            arb_value(&mut rng),
        );
        // antisymmetry
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // transitivity
        if a <= b && b <= c {
            assert!(a <= c, "{a:?} <= {b:?} <= {c:?} but not {a:?} <= {c:?}");
        }
        // consistency of eq with cmp
        assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }
}

/// Hash agrees with equality.
#[test]
fn value_hash_consistent_with_eq() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x02 ^ (case << 8));
        let (a, b) = (arb_value(&mut rng), arb_value(&mut rng));
        if a == b {
            assert_eq!(h(&a), h(&b));
        }
    }
}

/// The interned representation is invisible: string values order,
/// equate and hash exactly as their text does, so Def. 1's total order
/// is byte-for-byte what it was before `Value::Str` became a `Sym`.
#[test]
fn interned_values_match_plain_string_semantics() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }
    let alphabet = ['a', 'b', 'A', 'B', 'z', ' ', '0', 'é'];
    for case in 0..512u64 {
        let mut rng = Rng::seed_from_u64(0x0D ^ (case << 8));
        let arb_s = |rng: &mut Rng| -> String {
            let len = rng.gen_range(0..=10usize);
            (0..len).map(|_| *rng.pick(&alphabet)).collect()
        };
        let (a, b) = (arb_s(&mut rng), arb_s(&mut rng));
        let (va, vb) = (Value::from(a.clone()), Value::from(b.clone()));
        // Ord/Eq/Hash delegate to the text, not the interner ids.
        assert_eq!(va.cmp(&vb), a.cmp(&b), "case {case}: {a:?} vs {b:?}");
        assert_eq!(va == vb, a == b, "case {case}");
        if va == vb {
            assert_eq!(h(&va), h(&vb), "case {case}");
        }
        // NULL-first and the cross-type rank of Def. 1 are untouched:
        // strings still sort after every non-string value.
        assert!(Value::Null < va);
        assert!(Value::Bool(true) < va);
        assert!(Value::Int(i64::MAX) < va);
        assert!(Value::Float(f64::INFINITY) < va);
    }
    // Numeric ties keep their Int-before-Float tie-break.
    assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Less);
    assert_eq!(Value::Float(2.0).cmp(&Value::Int(2)), Ordering::Greater);
}

/// Sorting interned string values is identical to sorting their texts,
/// and the interner's bulk rank snapshot induces the same order as
/// `Value`'s own comparator — the invariant the index-vector engine's
/// string sort-key fast path relies on.
#[test]
fn interned_sort_matches_text_sort() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x0E ^ (case << 8));
        let mut texts: Vec<String> = (0..rng.gen_range(0..40usize))
            .map(|_| {
                let len = rng.gen_range(0..=6usize);
                (0..len)
                    .map(|_| *rng.pick(&['m', 'a', 'z', 'M', '1', ' ']))
                    .collect()
            })
            .collect();
        let mut values: Vec<Value> = texts.iter().map(|s| Value::str(s.as_str())).collect();
        values.sort();
        texts.sort();
        let resolved: Vec<&str> = values.iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(resolved, texts, "case {case}");

        let snap = ssa_relation::intern::rank_snapshot();
        for w in values.windows(2) {
            if let (Value::Str(a), Value::Str(b)) = (&w[0], &w[1]) {
                assert!(
                    snap[a.id() as usize] <= snap[b.id() as usize],
                    "case {case}: rank snapshot disagrees with Value order"
                );
            }
        }
    }
}

/// |A ∪ B| = |A| + |B| and per-tuple counts add.
#[test]
fn union_adds_histograms() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x03 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let u = ops::union_all(&a, &b).unwrap();
        assert_eq!(u.len(), a.len() + b.len());
        let (ha, hb, hu) = (a.histogram(), b.histogram(), u.histogram());
        for (t, n) in &hu {
            let expect = ha.get(t).copied().unwrap_or(0) + hb.get(t).copied().unwrap_or(0);
            assert_eq!(*n, expect);
        }
    }
}

/// Multiset difference: count(A − B, t) = max(0, count(A,t) − count(B,t)).
#[test]
fn difference_saturating_counts() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x04 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let d = ops::difference(&a, &b).unwrap();
        let (ha, hb, hd) = (a.histogram(), b.histogram(), d.histogram());
        for (t, n) in &ha {
            let expect = n.saturating_sub(hb.get(t).copied().unwrap_or(0));
            assert_eq!(hd.get(t).copied().unwrap_or(0), expect);
        }
        // nothing new appears
        for t in hd.keys() {
            assert!(ha.contains_key(t));
        }
    }
}

/// (A ∪ B) − B == A.
#[test]
fn union_difference_inverse() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x05 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let u = ops::union_all(&a, &b).unwrap();
        let back = ops::difference(&u, &b).unwrap();
        assert!(back.multiset_eq(&a), "case {case}");
    }
}

/// distinct is idempotent and dominated by the original.
#[test]
fn distinct_idempotent() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x06 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let d1 = ops::distinct(&a).unwrap();
        let d2 = ops::distinct(&d1).unwrap();
        assert!(d1.multiset_eq(&d2));
        for (t, n) in d1.histogram() {
            assert_eq!(n, 1);
            assert!(a.histogram().contains_key(&t));
        }
    }
}

/// Selection distributes over union: σ(A ∪ B) == σ(A) ∪ σ(B).
#[test]
fn selection_distributes_over_union() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x07 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let k = rng.gen_range(0..20i64);
        let pred = Expr::col("x").lt(Expr::lit(k));
        let lhs = ops::select(&ops::union_all(&a, &b).unwrap(), &pred).unwrap();
        let rhs = ops::union_all(
            &ops::select(&a, &pred).unwrap(),
            &ops::select(&b, &pred).unwrap(),
        )
        .unwrap();
        assert!(lhs.multiset_eq(&rhs), "case {case}");
    }
}

/// Sorting is a permutation, ordered by the key, and stable.
#[test]
fn sort_is_stable_permutation() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x08 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let sorted = ops::sort(&a, &[SortKey::asc("x")]).unwrap();
        assert!(sorted.multiset_eq(&a));
        let col = sorted.column_values("x").unwrap();
        assert!(col.windows(2).all(|w| w[0] <= w[1]));
        // stability: rows with equal x keep their original relative order
        let orig = a.rows().to_vec();
        for w in sorted.rows().to_vec().windows(2) {
            if w[0].get(0) == w[1].get(0) {
                let i = orig.iter().position(|t| *t == w[0]).unwrap();
                let j = orig.iter().rposition(|t| *t == w[1]).unwrap();
                assert!(i <= j);
            }
        }
    }
}

/// Product cardinality and join-as-product-plus-selection.
#[test]
fn join_equals_filtered_product() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x09 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let mut b = rel_of("b", &arb_rows(&mut rng));
        b.schema_mut().rename("x", "y").unwrap();
        b.schema_mut().rename("s", "t").unwrap();
        let p = ops::product(&a, &b).unwrap();
        assert_eq!(p.len(), a.len() * b.len());
        let cond = Expr::col("x").eq(Expr::col("y"));
        let j = ops::join(&a, &b, &cond).unwrap();
        let filtered = ops::select(&p, &cond).unwrap();
        assert!(j.multiset_eq(&filtered), "case {case}");
    }
}

/// CSV round-trip: parse(to_csv(R)) == R for string/int relations.
#[test]
fn csv_round_trip() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0A ^ (case << 8));
        let schema = Schema::of(&[("n", Int), ("text", Str)]);
        let n_rows = rng.gen_range(1..20usize);
        let rel = Relation::with_rows(
            "r",
            schema,
            (0..n_rows)
                .map(|_| {
                    // avoid strings that parse back as numbers, empties,
                    // or values with leading/trailing whitespace (the CSV
                    // reader trims unquoted fields)
                    let len = rng.gen_range(0..=8usize);
                    let body: String = (0..len)
                        .map(|_| *rng.pick(&['q', 'W', ' ', ',', '"', 'z', 'A']))
                        .collect();
                    Tuple::new(vec![
                        Value::Int(rng.gen_range(0..1000i64)),
                        Value::from(format!("s{body}e")),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let text = ssa_relation::csv::to_csv(&rel);
        let back = ssa_relation::csv::parse_csv("r", &text).unwrap();
        assert!(rel.multiset_eq(&back), "case {case}");
    }
}

/// Expression Display output re-parses to the same AST.
#[test]
fn expr_display_round_trips() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0B ^ (case << 8));
        let k = rng.gen_range(-100..100i64);
        let m = rng.gen_range(-100..100i64);
        let exprs = [
            Expr::col("x")
                .lt(Expr::lit(k))
                .and(Expr::col("s").eq(Expr::lit("ab"))),
            Expr::col("x")
                .add(Expr::lit(m))
                .mul(Expr::lit(k))
                .ge(Expr::lit(0)),
            Expr::if_else(
                Expr::col("x").gt(Expr::lit(k)),
                Expr::lit("hi"),
                Expr::lit("lo"),
            ),
            Expr::col("s")
                .cmp(ssa_relation::CmpOp::Ne, Expr::lit("q"))
                .or(Expr::IsNull(Box::new(Expr::col("x")))),
        ];
        for e in exprs {
            let text = e.to_string();
            let back = parse_expr(&text).unwrap();
            assert_eq!(back, e, "round trip failed for `{text}`");
        }
    }
}

/// Aggregates of a concatenation: COUNT adds, SUM adds, MIN/MAX are
/// the min/max of parts.
#[test]
fn aggregate_concat_laws() {
    use ssa_relation::AggFunc;
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0C ^ (case << 8));
        let vx: Vec<Value> = (0..rng.gen_range(1..20usize))
            .map(|_| Value::Int(rng.gen_range(-100..100i64)))
            .collect();
        let vy: Vec<Value> = (0..rng.gen_range(1..20usize))
            .map(|_| Value::Int(rng.gen_range(-100..100i64)))
            .collect();
        let both: Vec<Value> = vx.iter().chain(vy.iter()).cloned().collect();
        let count = |v: &[Value]| AggFunc::Count.apply(v).unwrap();
        let sum = |v: &[Value]| AggFunc::Sum.apply(v).unwrap();
        assert_eq!(count(&both), count(&vx).add(&count(&vy)).unwrap());
        assert_eq!(sum(&both), sum(&vx).add(&sum(&vy)).unwrap());
        let min_both = AggFunc::Min.apply(&both).unwrap();
        let min_parts = std::cmp::min(
            AggFunc::Min.apply(&vx).unwrap(),
            AggFunc::Min.apply(&vy).unwrap(),
        );
        assert_eq!(min_both, min_parts);
    }
}

// ---------------------------------------------------------------------
// Chunked, flat, copy-on-write row storage
// ---------------------------------------------------------------------

use ssa_relation::rows::CHUNK_ROWS;
use ssa_relation::Column;

/// Sizes on both sides of a chunk boundary, plus several full chunks
/// with a partial tail.
const CHUNK_SIZES: [usize; 4] = [
    CHUNK_ROWS - 1,
    CHUNK_ROWS,
    CHUNK_ROWS + 1,
    3 * CHUNK_ROWS + 17,
];

/// Row widths: no columns at all (rows are only counted), one column,
/// and a `lineitem`-wide row.
const ARITIES: [usize; 3] = [0, 1, 17];

/// `n` rows of `arity` columns `c0, c1, ...`: `c0` numbers the row, `c1`
/// cycles through three strings, the rest are multiples of the number.
fn numbered(n: usize, arity: usize) -> Relation {
    let schema = Schema::new(
        (0..arity)
            .map(|c| Column::new(format!("c{c}"), if c == 1 { Str } else { Int }))
            .collect(),
    )
    .expect("distinct names");
    Relation::with_rows(
        "n",
        schema,
        (0..n).map(|i| numbered_row(i as i64, arity)).collect(),
    )
    .expect("widths match")
}

fn numbered_row(i: i64, arity: usize) -> Tuple {
    Tuple::new(
        (0..arity)
            .map(|c| match c {
                0 => Value::Int(i),
                1 => Value::str(["p", "q", "r"][i.rem_euclid(3) as usize]),
                _ => Value::Int(i * c as i64),
            })
            .collect(),
    )
}

/// No chunk is empty or over-full, and the chunks hold every row.
fn assert_chunked(r: &Relation, ctx: &str) {
    let sizes: Vec<usize> = r.rows().chunk_lens().collect();
    assert_eq!(sizes.iter().sum::<usize>(), r.len(), "{ctx}: chunk sizes");
    assert!(
        sizes.iter().all(|&n| n > 0 && n <= CHUNK_ROWS),
        "{ctx}: empty or over-full chunk: {sizes:?}"
    );
}

/// The relation reads exactly as the model: equality, indexing, `get`,
/// and iteration in both directions.
fn assert_reads_as(r: &Relation, model: &[Tuple], ctx: &str) {
    let rows = r.rows();
    assert_eq!(*rows, *model, "{ctx}: rows differ from the model");
    assert_eq!(rows.len(), model.len(), "{ctx}: length");
    for (i, want) in model.iter().enumerate() {
        assert_eq!(&rows[i], want.values(), "{ctx}: row {i} by index");
    }
    assert_eq!(rows.get(model.len()), None, "{ctx}: get past the end");
    assert!(
        rows.iter().eq(model.iter().map(|t| t.values())),
        "{ctx}: iter"
    );
    assert!(
        rows.iter().rev().eq(model.iter().rev().map(|t| t.values())),
        "{ctx}: reverse iter"
    );
    assert_eq!(rows.iter().len(), model.len(), "{ctx}: iter length");
}

/// One mutator applied both to a relation and to a plain-vector model.
/// Column edits pick their column modulo the arity and do nothing to a
/// relation without columns.
#[derive(Debug, Clone)]
enum Mutation {
    Append(usize),
    SetValue(usize),
    Remove(Vec<u32>),
    RemoveReinsert(Vec<u32>),
    IndexMut(usize),
    Insert(usize),
    IterMut,
    Retain(u64),
    AddColumn,
    DropColumn,
    Sort,
    TakeRows(Vec<u32>),
}

/// How many kinds of [`Mutation`] there are.
const MUTATION_KINDS: usize = 12;

impl Mutation {
    /// A mutation of kind `kind` with random arguments for `n` rows.
    fn arb(kind: usize, rng: &mut Rng, n: usize) -> Mutation {
        let some_rows = |rng: &mut Rng| -> Vec<u32> {
            (0..rng.gen_range(1..=5usize))
                .map(|_| rng.gen_range(0..n as u64) as u32)
                .collect()
        };
        match kind {
            0 => Mutation::Append(rng.gen_range(1..=CHUNK_ROWS + 3)),
            1 => Mutation::SetValue(rng.gen_range(0..n)),
            2 => Mutation::Remove(some_rows(rng)),
            3 => Mutation::RemoveReinsert(some_rows(rng)),
            4 => Mutation::IndexMut(rng.gen_range(0..n)),
            5 => Mutation::Insert(rng.gen_range(0..=n)),
            6 => Mutation::IterMut,
            7 => Mutation::Retain(rng.gen_range(2..7u64)),
            8 => Mutation::AddColumn,
            9 => Mutation::DropColumn,
            10 => Mutation::Sort,
            _ => {
                // A permutation of a random window, with repeats.
                let from = rng.gen_range(0..n);
                let mut ids: Vec<u32> = (from..n.min(from + 2 * CHUNK_ROWS))
                    .map(|i| i as u32)
                    .collect();
                ids.reverse();
                ids.extend(some_rows(rng));
                Mutation::TakeRows(ids)
            }
        }
    }

    fn apply(&self, r: &mut Relation) {
        let arity = r.schema().len();
        let last = arity.wrapping_sub(1);
        match self {
            Mutation::Append(k) => {
                let first = r.len() as i64;
                r.append_rows(
                    (first..first + *k as i64)
                        .map(|i| numbered_row(i, arity))
                        .collect(),
                )
                .expect("widths match");
            }
            Mutation::SetValue(i) => {
                if arity > 0 {
                    r.set_value(*i, "c0", Value::Int(-1)).expect("in range");
                }
            }
            Mutation::Remove(ids) => {
                r.remove_rows_at(ids).expect("in range");
            }
            Mutation::RemoveReinsert(ids) => {
                let removed = r.remove_rows_at(ids).expect("in range");
                r.reinsert_rows(removed);
            }
            Mutation::IndexMut(i) => {
                if arity > 0 {
                    r.rows_mut()[*i][last] = Value::str("z");
                }
            }
            Mutation::Insert(at) => r.rows_mut().insert(*at, &numbered_row(-2, arity)),
            Mutation::IterMut => {
                for t in r.rows_mut().iter_mut() {
                    let Some(Value::Int(x)) = t.first() else {
                        continue;
                    };
                    t[0] = Value::Int(x + 1);
                }
            }
            Mutation::Retain(m) => r.retain_rows(|i| !(i as u64).is_multiple_of(*m)),
            Mutation::AddColumn => r
                .add_column(Column::new("y", Int), |i, _| Value::Int(i as i64))
                .expect("fresh column"),
            Mutation::DropColumn => {
                if arity > 0 {
                    r.drop_column(&format!("c{last}")).expect("column exists");
                }
            }
            Mutation::Sort => r
                .rows_mut()
                .sort_by(|a, b| b.get(1 % arity.max(1)).cmp(&a.get(1 % arity.max(1)))),
            Mutation::TakeRows(ids) => *r = r.take_rows(ids),
        }
    }

    /// The same edit on a plain vector of rows of width `arity`.
    fn model(&self, rows: &mut Vec<Tuple>, arity: usize) {
        let last = arity.wrapping_sub(1);
        match self {
            Mutation::Append(k) => {
                let first = rows.len() as i64;
                rows.extend((first..first + *k as i64).map(|i| numbered_row(i, arity)));
            }
            Mutation::SetValue(i) => {
                if arity > 0 {
                    rows[*i].set(0, Value::Int(-1));
                }
            }
            Mutation::Remove(ids) => {
                let mut i = 0;
                rows.retain(|_| {
                    i += 1;
                    !ids.contains(&(i as u32 - 1))
                });
            }
            Mutation::RemoveReinsert(_) => {}
            Mutation::IndexMut(i) => {
                if arity > 0 {
                    rows[*i].set(last, Value::str("z"));
                }
            }
            Mutation::Insert(at) => rows.insert(*at, numbered_row(-2, arity)),
            Mutation::IterMut => {
                for t in rows.iter_mut() {
                    let Some(Value::Int(x)) = t.first() else {
                        continue;
                    };
                    t.set(0, Value::Int(x + 1));
                }
            }
            Mutation::Retain(m) => {
                let mut i = 0u64;
                rows.retain(|_| {
                    i += 1;
                    !(i - 1).is_multiple_of(*m)
                });
            }
            Mutation::AddColumn => {
                for (i, t) in rows.iter_mut().enumerate() {
                    t.push(Value::Int(i as i64));
                }
            }
            Mutation::DropColumn => {
                if arity > 0 {
                    for t in rows.iter_mut() {
                        t.remove(last);
                    }
                }
            }
            Mutation::Sort => rows.sort_by(|a, b| {
                b.values()
                    .get(1 % arity.max(1))
                    .cmp(&a.values().get(1 % arity.max(1)))
            }),
            Mutation::TakeRows(ids) => {
                *rows = ids.iter().map(|&i| rows[i as usize].clone()).collect();
            }
        }
    }
}

/// A clone shares every chunk, yet no mutator on either side leaks into
/// the other: the untouched side keeps its exact rows, and the edited
/// side reads exactly as the same edit on a plain vector and keeps the
/// chunk invariant. Every mutator runs at every size and arity.
#[test]
fn chunked_clones_are_isolated_under_every_mutator() {
    for &arity in &ARITIES {
        for (si, &n) in CHUNK_SIZES.iter().enumerate() {
            let original = numbered(n, arity);
            let before = original.rows().to_vec();
            let mut rng = Rng::seed_from_u64(0x0C ^ ((si as u64) << 8) ^ ((arity as u64) << 16));
            for case in 0..2 * MUTATION_KINDS {
                let m = Mutation::arb(case % MUTATION_KINDS, &mut rng, n);
                let ctx = format!("arity {arity} n {n} case {case} {m:?}");
                let mut edited = original.clone();
                m.apply(&mut edited);
                let mut model = before.clone();
                m.model(&mut model, arity);
                assert_reads_as(&edited, &model, &ctx);
                assert_chunked(&edited, &ctx);
                assert_eq!(
                    *original.rows(),
                    before,
                    "{ctx}: edit leaked into the original"
                );
                // And the other direction: editing the original after the
                // clone leaves the clone alone.
                let mut source = original.clone();
                let copy = source.clone();
                m.apply(&mut source);
                assert_eq!(*copy.rows(), before, "{ctx}: edit leaked into the clone");
            }
        }
    }
}

/// A run of single-row inserts in the middle of the relation splits full
/// chunks instead of shifting every later row. However the chunks end up
/// cut, the relation reads as the model, equals a freshly built copy,
/// leaves its shared snapshot alone, and `extends` still follows appends
/// and only appends.
#[test]
fn mid_relation_inserts_split_chunks() {
    for &arity in &ARITIES {
        for (si, &n) in CHUNK_SIZES.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(0x10 ^ ((si as u64) << 8) ^ ((arity as u64) << 16));
            let snapshot = numbered(n, arity);
            let mut r = snapshot.clone();
            let mut model = snapshot.rows().to_vec();
            for step in 0..64 {
                let at = rng.gen_range(0..r.len());
                let ctx = format!("arity {arity} n {n} step {step} at {at}");
                let m = Mutation::Insert(at);
                m.apply(&mut r);
                m.model(&mut model, arity);
                assert_chunked(&r, &ctx);
                if step % 16 == 15 {
                    assert_reads_as(&r, &model, &ctx);
                }
            }
            let ctx = format!("arity {arity} n {n}");
            assert_reads_as(&r, &model, &ctx);
            assert!(
                r.rows().chunk_lens().len() > n.div_ceil(CHUNK_ROWS),
                "{ctx}: no chunk split"
            );
            let fresh =
                Relation::with_rows("n", r.schema().clone(), model.clone()).expect("widths match");
            assert_eq!(r, fresh, "{ctx}: differently cut copies differ");
            let mut moved = model.clone();
            Mutation::IndexMut(n / 2).model(&mut moved, arity);
            Mutation::Insert(0).model(&mut moved, arity);
            moved.pop();
            if arity > 0 {
                let other =
                    Relation::with_rows("n", r.schema().clone(), moved).expect("widths match");
                assert_ne!(r, other, "{ctx}: equality missed a changed row");
            }
            assert_reads_as(&snapshot, &numbered(n, arity).rows().to_vec(), &ctx);

            let mut grown = r.clone();
            Mutation::Append(rng.gen_range(1..=CHUNK_ROWS + 3)).apply(&mut grown);
            assert!(grown.extends(&r), "{ctx}: append to split chunks");
            assert!(!r.extends(&grown), "{ctx}: a prefix extends its extension");
            // Without columns an inserted row is indistinguishable from an
            // appended one, so only wider rows can tell the two apart.
            if arity > 0 {
                assert!(!r.extends(&snapshot), "{ctx}: inserts seen as an append");
                let mut edited = grown.clone();
                Mutation::Insert(rng.gen_range(0..r.len())).apply(&mut edited);
                assert!(!edited.extends(&r), "{ctx}: insert then append extends");
            }
        }
    }
}

/// Appends that cross chunk boundaries keep full inner chunks, leave
/// every earlier snapshot untouched, and are recognized as extensions.
#[test]
fn append_chains_cross_chunk_boundaries() {
    for case in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0x0D ^ (case << 8));
        let arity = ARITIES[case as usize % ARITIES.len()];
        let mut r = numbered(rng.gen_range(0..CHUNK_ROWS * 2), arity);
        let mut model = r.rows().to_vec();
        for step in 0..12 {
            let snapshot = r.clone();
            let k = match rng.gen_range(0..3usize) {
                0 => rng.gen_range(1..=3usize),
                1 => rng.gen_range(1..=CHUNK_ROWS),
                _ => CHUNK_ROWS - r.len() % CHUNK_ROWS,
            };
            Mutation::Append(k).apply(&mut r);
            Mutation::Append(k).model(&mut model, arity);
            let ctx = format!("case {case} step {step} +{k}");
            assert_chunked(&r, &ctx);
            let sizes: Vec<usize> = r.rows().chunk_lens().collect();
            assert!(
                sizes.iter().rev().skip(1).all(|&n| n == CHUNK_ROWS),
                "{ctx}: inner chunk not full: {sizes:?}"
            );
            assert_eq!(*r.rows(), model, "{ctx}");
            assert_eq!(snapshot.len() + k, r.len(), "{ctx}");
            assert_eq!(
                *snapshot.rows(),
                model[..snapshot.len()],
                "{ctx}: snapshot moved"
            );
            assert!(
                r.extends(&snapshot),
                "{ctx}: append not seen as an extension"
            );
            assert!(
                !snapshot.extends(&r),
                "{ctx}: a prefix extends its extension"
            );
        }
    }
}

/// `remove_rows_at` then `reinsert_rows` restores the relation exactly,
/// at every size and for index sets spanning several chunks.
#[test]
fn remove_reinsert_round_trips_across_chunks() {
    for (si, &n) in CHUNK_SIZES.iter().enumerate() {
        let original = numbered(n, 2);
        let mut rng = Rng::seed_from_u64(0x0E ^ ((si as u64) << 8));
        for case in 0..16 {
            let ids: Vec<u32> = (0..rng.gen_range(1..=40usize))
                .map(|_| rng.gen_range(0..n as u64) as u32)
                .collect();
            let mut r = original.clone();
            let removed = r.remove_rows_at(&ids).expect("in range");
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(removed.len(), distinct.len(), "n {n} case {case}");
            assert_eq!(r.len(), n - distinct.len(), "n {n} case {case}");
            assert_chunked(&r, "after remove");
            r.reinsert_rows(removed);
            assert_eq!(r, original, "n {n} case {case}: round trip");
            assert_chunked(&r, "after reinsert");
        }
    }
}

/// `extends` holds after any append chain and fails once any row of the
/// old prefix was changed, removed or displaced — whatever is appended
/// afterwards.
#[test]
fn extension_check_detects_prefix_mutations() {
    for (si, &n) in CHUNK_SIZES.iter().enumerate() {
        let old = numbered(n, 2);
        let mut rng = Rng::seed_from_u64(0x0F ^ ((si as u64) << 8));
        for case in 0..24 {
            let mut chained = old.clone();
            for _ in 0..rng.gen_range(0..4usize) {
                Mutation::Append(rng.gen_range(1..=CHUNK_ROWS + 3)).apply(&mut chained);
            }
            assert!(chained.extends(&old), "n {n} case {case}: append chain");
            let prefix_edit = match rng.gen_range(0..4usize) {
                0 => Mutation::SetValue(rng.gen_range(0..n)),
                1 => Mutation::IndexMut(rng.gen_range(0..n)),
                2 => Mutation::Remove(vec![rng.gen_range(0..n as u64) as u32]),
                _ => Mutation::Insert(rng.gen_range(0..n)),
            };
            let mut edited = old.clone();
            prefix_edit.apply(&mut edited);
            Mutation::Append(rng.gen_range(1..=8usize)).apply(&mut edited);
            assert!(
                !edited.extends(&old),
                "n {n} case {case}: {prefix_edit:?} then append still extends"
            );
        }
    }
}
