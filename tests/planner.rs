//! Differential and pinned tests for the algebraic query planner
//! (`spreadsheet_algebra::plan`, DESIGN.md §13).
//!
//! The planner's contract is observational equivalence: every rewrite —
//! filter fusion, cheap-first ordering, pre-dedup pushdown, deferred
//! computed columns, join pushdown, greedy join ordering — must leave the
//! result bitwise identical (rows *and* presentation order) to the
//! unplanned pipeline. The randomized suites here check that against two
//! oracles: the naive row-cloning engine for the unary pipeline, and the
//! literal `σ(scan₀ × scan₁ × …)` product fold for multi-relation plans.
//! The pinned cases nail the *negative* space — points where Theorem 2
//! does not license a rewrite and the planner must decline.

mod common;

use spreadsheet_algebra::eval::{evaluate_with, EvalOptions};
use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::plan::{join_with_pushdown, plan_tables, Plan};
use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::{ComputedColumn, QueryState};
use ssa_relation::ops;
use ssa_relation::rng::Rng;
use ssa_relation::schema::Schema;
use ssa_relation::ValueType::Int;
use ssa_relation::{CmpOp, Relation, Tuple, Value};

const SEED: u64 = 0x51AC_9EED;

// ---------------------------------------------------------------------
// Multi-join plans vs the product-fold oracle
// ---------------------------------------------------------------------

/// A small Int relation: `cols` columns, values drawn from 0..6 so join
/// conditions actually match across inputs.
fn arb_rel(rng: &mut Rng, name: &str, cols: &[&str], rows: usize) -> Relation {
    let schema: Vec<(&str, ssa_relation::ValueType)> = cols.iter().map(|c| (*c, Int)).collect();
    let tuples = (0..rows)
        .map(|_| {
            Tuple::new(
                cols.iter()
                    .map(|_| Value::Int(rng.gen_range(0..6i64)))
                    .collect(),
            )
        })
        .collect();
    Relation::with_rows(name, Schema::of(&schema), tuples).expect("widths match")
}

/// The unplanned reference: fold the FROM-order product, then apply the
/// whole WHERE as one selection at the top.
fn product_select_oracle(
    inputs: &[&Relation],
    condition: Option<&Expr>,
) -> ssa_relation::Result<Relation> {
    let mut cur = inputs[0].clone();
    for r in &inputs[1..] {
        cur = ops::product(&cur, r)?;
    }
    match condition {
        Some(c) => ops::select(&cur, c),
        None => Ok(cur),
    }
}

/// Plan and oracle must agree exactly: same schema names, same rows in
/// the same order — or the same failure.
fn assert_plan_matches_oracle(inputs: &[&Relation], condition: Option<&Expr>, ctx: &str) {
    let reference = product_select_oracle(inputs, condition);
    let planned = plan_tables(inputs, condition).and_then(|p| p.execute());
    match (&reference, &planned) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.schema().names(), b.schema().names(), "{ctx}: schema");
            assert_eq!(a.rows(), b.rows(), "{ctx}: rows/order");
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{ctx}: oracle {a:?} vs planned {b:?}"),
    }
}

#[test]
fn table_plans_match_product_select_oracle() {
    // Distinct column names across inputs: exercises the zero-copy
    // borrow path and all three order-restoration strategies.
    let col_sets: [&[&str]; 4] = [&["A", "A2"], &["B", "B2"], &["C", "C2"], &["D", "D2"]];
    for case in 0..80u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ (case << 7));
        let n = rng.gen_range(2..=4usize);
        let rels: Vec<Relation> = (0..n)
            .map(|j| {
                let rows = rng.gen_range(0..14usize);
                arb_rel(&mut rng, &format!("t{j}"), col_sets[j], rows)
            })
            .collect();
        let inputs: Vec<&Relation> = rels.iter().collect();
        let mut conjs: Vec<Expr> = Vec::new();
        for _ in 0..rng.gen_range(0..5usize) {
            let i = rng.gen_range(0..n);
            let k = rng.gen_range(0..n);
            conjs.push(match rng.gen_range(0..4usize) {
                // Cross/equi conjunct between two inputs (or a self-join
                // conjunct when i == k — a plain filter in disguise).
                0 => Expr::col(col_sets[i][0]).eq(Expr::col(col_sets[k][0])),
                1 => Expr::col(col_sets[i][0]).lt(Expr::col(col_sets[k][1])),
                // Single-table conjunct — pushdown fodder.
                2 => Expr::col(col_sets[i][1]).le(Expr::lit(rng.gen_range(0..6i64))),
                // Column-free conjunct — must stay at the top.
                _ => Expr::lit(rng.gen_range(0..2i64)).eq(Expr::lit(1)),
            });
        }
        let condition = Expr::conjoin(conjs);
        assert_plan_matches_oracle(&inputs, condition.as_ref(), &format!("case {case}"));
    }
}

#[test]
fn table_plans_match_oracle_under_renaming() {
    // Every input shares the column names K/V, so the combined schema
    // prefixes the later inputs ("t1.K", …) and the planner has to run
    // its renamed (owned) path with name-translated statistics.
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ 0xC1A5 ^ (case << 7));
        let n = rng.gen_range(2..=3usize);
        let rels: Vec<Relation> = (0..n)
            .map(|j| {
                let rows = rng.gen_range(0..12usize);
                arb_rel(&mut rng, &format!("t{j}"), &["K", "V"], rows)
            })
            .collect();
        let inputs: Vec<&Relation> = rels.iter().collect();
        let mut conjs = vec![Expr::col("K").eq(Expr::col("t1.K"))];
        if n == 3 && rng.gen_bool(0.7) {
            conjs.push(Expr::col("t1.K").eq(Expr::col("t2.K")));
        }
        if rng.gen_bool(0.5) {
            conjs.push(Expr::col("t1.V").le(Expr::lit(rng.gen_range(0..6i64))));
        }
        if rng.gen_bool(0.5) {
            conjs.push(Expr::col("V").ge(Expr::lit(rng.gen_range(0..6i64))));
        }
        let condition = Expr::conjoin(conjs);
        assert_plan_matches_oracle(&inputs, condition.as_ref(), &format!("case {case}"));
    }
}

#[test]
fn flip_and_prov_strategies_match_oracle() {
    let mut rng = Rng::seed_from_u64(SEED ^ 0xF11F);
    // Chain shape (TPC-H-like): edges 0–1 and 1–2, the cheapest start is
    // the heavily-filtered input 2 → the rest chain {1,2} connects and
    // the planner takes the flip strategy (FROM head stays borrowed).
    let big = arb_rel(&mut rng, "fact", &["A", "A2"], 200);
    let mid = arb_rel(&mut rng, "mid", &["B", "B2"], 40);
    let tiny = arb_rel(&mut rng, "dim", &["C", "C2"], 30);
    let chain_cond = Expr::col("A")
        .eq(Expr::col("B"))
        .and(Expr::col("B2").eq(Expr::col("C")))
        .and(Expr::col("C2").eq(Expr::lit(3)));
    assert_plan_matches_oracle(&[&big, &mid, &tiny], Some(&chain_cond), "flip");

    // Star shape: both edges go through input 0, so once the greedy
    // order starts from the filtered dim the rest {1,2} cannot connect —
    // the planner must fall back to full provenance restoration.
    let star_cond = Expr::col("A")
        .eq(Expr::col("B"))
        .and(Expr::col("A2").eq(Expr::col("C")))
        .and(Expr::col("C2").eq(Expr::lit(3)));
    assert_plan_matches_oracle(&[&big, &mid, &tiny], Some(&star_cond), "prov");
}

#[test]
fn table_plan_errors_match_oracle_errors() {
    let mut rng = Rng::seed_from_u64(SEED ^ 0xE77);
    let a = arb_rel(&mut rng, "a", &["A"], 5);
    let b = arb_rel(&mut rng, "b", &["B"], 5);
    // A condition naming a column neither input has must fail in both
    // pipelines (at the top, not silently dropped).
    let cond = Expr::col("A").eq(Expr::col("Ghost"));
    assert_plan_matches_oracle(&[&a, &b], Some(&cond), "unknown column");
}

// ---------------------------------------------------------------------
// Binary join pushdown vs the direct join
// ---------------------------------------------------------------------

#[test]
fn pushdown_join_matches_direct_join() {
    for case in 0..60u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ 0x101A ^ (case << 7));
        let (ln, rn) = (rng.gen_range(0..20usize), rng.gen_range(0..20usize));
        let left = arb_rel(&mut rng, "l", &["L1", "L2"], ln);
        let right = arb_rel(&mut rng, "r", &["R1", "R2"], rn);
        let mut conjs: Vec<Expr> = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            conjs.push(match rng.gen_range(0..4usize) {
                0 => Expr::col("L1").eq(Expr::col("R1")),
                1 => Expr::col("L1").lt(Expr::col("R2")),
                2 => Expr::col("L2").le(Expr::lit(rng.gen_range(0..6i64))),
                _ => Expr::col("R2").ge(Expr::lit(rng.gen_range(0..6i64))),
            });
        }
        let cond = Expr::conjoin(conjs).expect("non-empty");
        let direct = ops::join(&left, &right, &cond).expect("direct join");
        let pushed = join_with_pushdown(&left, &right, &cond).expect("pushdown join");
        assert_eq!(
            direct.schema().names(),
            pushed.schema().names(),
            "case {case}"
        );
        assert_eq!(direct.rows(), pushed.rows(), "case {case}: rows/order");
    }
}

// ---------------------------------------------------------------------
// Unary pipeline: fused filters vs the naive oracle
// ---------------------------------------------------------------------

fn naive() -> EvalOptions {
    EvalOptions { naive: true }
}

#[test]
fn fused_filter_stacks_match_naive_engine() {
    // Many same-rank predicates: the planner fuses them into one pass and
    // reorders them cheap-first; the naive oracle runs them one at a
    // time in insertion order. Results must be identical.
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ 0xF05E ^ (case << 7));
        let mut st = QueryState::new();
        st.dedup = rng.gen_bool(0.5);
        for _ in 0..rng.gen_range(2..7usize) {
            st.add_selection(common::arb_predicate(&mut rng));
        }
        if rng.gen_bool(0.5) {
            st.computed.push(ComputedColumn::aggregate(
                "Avg_Price",
                AggFunc::Avg,
                "Price",
                1,
                vec![],
            ));
            st.add_selection(Expr::col("Price").le(Expr::col("Avg_Price")));
        }
        let base = used_cars();
        let reference = evaluate_with(&base, &st, naive());
        let candidate = evaluate_with(&base, &st, EvalOptions::default());
        match (&reference, &candidate) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("case {case}: naive {a:?} vs planned {b:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Pinned negative cases: where rewrites must NOT fire
// ---------------------------------------------------------------------

/// Rewrites never cross a precedence (non-commutativity) point: a
/// selection reading a computed column keeps that column's rank, and a
/// rank-0 selection hoists above dedup while the computed one cannot.
#[test]
fn computed_selection_stays_above_compute_and_dedup() {
    let mut st = QueryState::new();
    st.dedup = true;
    st.computed.push(ComputedColumn::aggregate(
        "Avg_Price",
        AggFunc::Avg,
        "Price",
        1,
        vec![],
    ));
    st.add_selection(Expr::col("Year").ge(Expr::lit(2005)));
    st.add_selection(Expr::col("Price").le(Expr::col("Avg_Price")));

    let base = used_cars();
    let text = Plan::prepare(&base, &st).expect("plan").render();
    let idx = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("missing {needle:?} in:\n{text}"))
    };
    // Render is root-first, so operators later in the pipeline appear
    // earlier in the text. Pipeline must be:
    //   Scan → Filter(Year) → Distinct → Compute(Avg) → Filter(Price≤Avg)
    assert!(idx("Filter Price <= Avg_Price") < idx("Compute [Avg_Price]"));
    assert!(idx("Compute [Avg_Price]") < idx("Distinct"));
    assert!(idx("Distinct") < idx("Filter Year >= 2005"));
    assert!(idx("Filter Year >= 2005") < idx("Scan cars"));

    // And the rewired engine still matches the oracle on this state.
    let a = evaluate_with(&base, &st, naive()).expect("naive");
    let b = evaluate_with(&base, &st, EvalOptions::default()).expect("planned");
    assert_eq!(a, b);
}

/// `σ(A − B) = σ(A) − B` holds, but `A − σ(B)` does not — the classic
/// counterexample is `{1} − σ_{x≠1}({1})`. The engine must produce the
/// selection-after-difference result, never the pushed-right one.
#[test]
fn difference_right_side_pushdown_is_declined() {
    let rel = |name: &str, vals: &[i64]| {
        Relation::with_rows(
            name,
            Schema::of(&[("X", Int)]),
            vals.iter()
                .map(|&v| Tuple::new(vec![Value::Int(v)]))
                .collect(),
        )
        .expect("widths match")
    };
    let a = rel("a", &[1, 2]);
    let b = rel("b", &[1]);
    let sel = Expr::col("X").cmp(CmpOp::Ne, Expr::lit(1));

    // The unsound rewrite would keep row 1 alive: A − σ(B) = {1, 2}.
    let pushed_right =
        ops::difference(&a, &ops::select(&b, &sel).expect("select")).expect("difference");
    assert_eq!(pushed_right.len(), 2);

    // The sheet pipeline: difference, then the selection — must be {2}.
    let mut sheet = Spreadsheet::over(a);
    let stored = Spreadsheet::over(b).save("b").expect("save");
    sheet.difference(&stored).expect("difference");
    sheet.select(sel).expect("select");
    let view = sheet.view().expect("view");
    assert_eq!(view.data.rows(), &[Tuple::new(vec![Value::Int(2)])]);
}

/// The planner's join-condition split must not push a conjunct that
/// mentions columns of both sides, nor lose one that resolves nowhere.
#[test]
fn cross_side_conjuncts_stay_in_the_join_condition() {
    let mut rng = Rng::seed_from_u64(SEED ^ 0x5217);
    let left = arb_rel(&mut rng, "l", &["L1", "L2"], 8);
    let right = arb_rel(&mut rng, "r", &["R1", "R2"], 8);
    // Mixed condition: one pushable per side, one genuinely cross-side
    // non-equi conjunct that must survive at the join.
    let cond = Expr::col("L2")
        .le(Expr::lit(4))
        .and(Expr::col("R2").ge(Expr::lit(1)))
        .and(Expr::col("L1").lt(Expr::col("R1")));
    let direct = ops::join(&left, &right, &cond).expect("direct");
    let pushed = join_with_pushdown(&left, &right, &cond).expect("pushed");
    assert_eq!(direct.rows(), pushed.rows());
}

// ---------------------------------------------------------------------
// Fault injection: planned paths stay transactional
// ---------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use ssa_relation::fault::{self, Behavior};

    /// An injected fault inside the planned join tree surfaces as an
    /// error from `execute` (no partial result), and the same plan runs
    /// clean once the site is disarmed.
    #[test]
    fn planned_join_tree_propagates_injected_faults() {
        let _guard = fault::lock();
        let mut rng = Rng::seed_from_u64(SEED ^ 0xFA17);
        let a = arb_rel(&mut rng, "a", &["A", "A2"], 30);
        let b = arb_rel(&mut rng, "b", &["B", "B2"], 10);
        let cond = Expr::col("A").eq(Expr::col("B"));
        let inputs = [&a, &b];
        let plan = plan_tables(&inputs, Some(&cond)).expect("plan");

        fault::arm("ops.join", 1, Behavior::Error);
        let tripped = plan.execute();
        fault::disarm("ops.join");
        assert!(tripped.is_err(), "armed ops.join must fail the execute");

        let clean = plan.execute().expect("clean execute");
        let oracle = super::product_select_oracle(&inputs, Some(&cond)).expect("oracle");
        assert_eq!(clean.rows(), oracle.rows());
    }

    /// A fault in the fused filter pass makes the select edit fail, and
    /// the transactional sheet rolls back to a perfect no-op.
    #[test]
    fn fused_filter_fault_rolls_back_select_edit() {
        let _guard = fault::lock();
        let mut s = Spreadsheet::over(used_cars());
        s.select(Expr::col("Year").ge(Expr::lit(2005)))
            .expect("first select");
        s.view().expect("view");
        let mut baseline = s.clone();

        fault::arm("eval.filter", 1, Behavior::Error);
        let result = s.select(Expr::col("Price").lt(Expr::lit(17_000)));
        fault::disarm("eval.filter");
        assert!(result.is_err(), "armed eval.filter must fail the edit");

        assert_eq!(s.state(), baseline.state(), "state rolled back");
        assert_eq!(s.epoch(), baseline.epoch(), "epoch rolled back");
        assert_eq!(
            s.view().expect("view"),
            baseline.view().expect("baseline view"),
            "view rolled back"
        );
    }
}
