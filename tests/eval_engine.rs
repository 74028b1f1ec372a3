//! Differential tests for the two evaluation engines.
//!
//! The index-vector engine (default) and the naive row-cloning engine
//! must be observationally identical: same `Derived` (data, tree,
//! visible list) for every state, same errors for every invalid state,
//! on either side of the parallel threshold. The naive
//! engine is the oracle — it is a direct transcription of the paper's
//! canonical pipeline over whole relations.

mod common;

use common::{arb_op, arb_sheet};
use spreadsheet_algebra::eval::{evaluate_with, EvalOptions};
use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::{ComputedColumn, QueryState};
use ssa_relation::par::PARALLEL_THRESHOLD;
use ssa_relation::rng::Rng;
use ssa_relation::schema::Schema;
use ssa_relation::tuple;
use ssa_relation::ValueType::{Int, Str};

const SEED: u64 = 0xE7A1_5EED;

fn naive() -> EvalOptions {
    EvalOptions { naive: true }
}

/// The oracle check: evaluate one (base, state) pair on both engines and
/// demand identical output (or identical failure).
fn assert_engines_agree(base: &ssa_relation::Relation, state: &QueryState, case: u64) {
    let reference = evaluate_with(base, state, naive());
    let candidate = evaluate_with(base, state, EvalOptions::default());
    match (&reference, &candidate) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "case {case}");
            assert!(a.equivalent(b), "case {case}: equal but not equivalent?");
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("case {case}: naive {a:?} vs indexed {b:?}"),
    }
}

#[test]
fn engines_agree_on_random_operator_sequences() {
    for case in 0..80u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ (case << 8));
        let mut sheet = arb_sheet(&mut rng);
        for _ in 0..rng.gen_range(0..5usize) {
            // Invalid operator draws (bad level, non-superset basis…) are
            // skipped, mirroring a user retrying in the UI.
            let _ = sheet.apply(&arb_op(&mut rng));
        }
        assert_engines_agree(sheet.base(), sheet.state(), case);
    }
}

/// Random rows over a used-cars-shaped schema, sized to exercise the
/// chunked parallel paths with more than one row per worker.
fn synthetic_cars(rng: &mut Rng, n: usize) -> ssa_relation::Relation {
    let models = ["Jetta", "Civic", "Accord", "Focus"];
    let conditions = ["Good", "Fair", "Excellent"];
    let rows = (0..n)
        .map(|i| {
            tuple![
                i as i64,
                *rng.pick(&models),
                rng.gen_range(8_000..25_000i64),
                rng.gen_range(2000..2009i64),
                rng.gen_range(10_000..120_000i64),
                *rng.pick(&conditions)
            ]
        })
        .collect();
    ssa_relation::Relation::with_rows(
        "cars",
        Schema::of(&[
            ("ID", Int),
            ("Model", Str),
            ("Price", Int),
            ("Year", Int),
            ("Mileage", Int),
            ("Condition", Str),
        ]),
        rows,
    )
    .unwrap()
}

/// A state exercising every stage at once: dedup, formula, aggregate
/// feeding a selection, plain selection, projection, grouping, ordering.
fn full_state() -> QueryState {
    let mut st = QueryState::new();
    st.dedup = true;
    st.spec.levels.push(spreadsheet_algebra::GroupLevel::new(
        ["Model"],
        Direction::Desc,
    ));
    st.spec.levels.push(spreadsheet_algebra::GroupLevel::new(
        ["Year"],
        Direction::Asc,
    ));
    st.spec.finest_order.push(OrderKey::asc("Price"));
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
    st.add_selection(Expr::col("Year").ge(Expr::lit(2002)));
    st.projected_out.insert("Condition".into());
    st
}

#[test]
fn engines_agree_on_bulk_synthetic_data() {
    let mut rng = Rng::seed_from_u64(SEED ^ 0xB01D);
    let base = synthetic_cars(&mut rng, 4096);
    assert_engines_agree(&base, &full_state(), 0xB01D);
}

/// The chunked paths: a base of four times [`PARALLEL_THRESHOLD`], so
/// the filter passes, both computed columns and the final row gather
/// (more than the threshold survive) all run across threads.
#[test]
fn engines_agree_above_the_parallel_threshold() {
    let mut rng = Rng::seed_from_u64(SEED ^ 0xC0DE);
    let base = synthetic_cars(&mut rng, 4 * PARALLEL_THRESHOLD);
    let st = full_state();
    assert_engines_agree(&base, &st, 0xC0DE);
    let derived = evaluate_with(&base, &st, EvalOptions::default()).unwrap();
    assert!(
        derived.len() >= PARALLEL_THRESHOLD,
        "{} rows",
        derived.len()
    );
}

/// String-heavy relation: four of six columns are strings, and comments
/// are mostly distinct, so the interned representation gets no help from
/// a handful of repeated values. Mirrors `ssa_bench::synthetic_listings`.
fn synthetic_listings(rng: &mut Rng, n: usize) -> ssa_relation::Relation {
    let models = ["Jetta", "Civic", "Accord", "Focus", "Corolla", "Passat"];
    let cities = ["Ann Arbor", "Ypsilanti", "Detroit", "Lansing", "Marquette"];
    let adjectives = ["excellent", "good", "fair", "rough"];
    let rows = (0..n)
        .map(|i| {
            let model = *rng.pick(&models);
            tuple![
                i as i64,
                model,
                format!("Dealer #{:03}", rng.gen_range(0..200usize)),
                *rng.pick(&cities),
                format!(
                    "{} condition {} — odo check {} (listing {})",
                    rng.pick(&adjectives),
                    model,
                    rng.gen_range(10_000..160_000i64),
                    i
                ),
                rng.gen_range(4_000..30_000i64)
            ]
        })
        .collect();
    ssa_relation::Relation::with_rows(
        "listings",
        Schema::of(&[
            ("ID", Int),
            ("Model", Str),
            ("Dealer", Str),
            ("City", Str),
            ("Comment", Str),
            ("Price", Int),
        ]),
        rows,
    )
    .unwrap()
}

/// The string-heavy counterpart of [`full_state`]: grouping, ordering,
/// aggregation, dedup and selection all keyed on string columns.
fn string_state() -> QueryState {
    let mut st = QueryState::new();
    st.dedup = true;
    st.spec.levels.push(spreadsheet_algebra::GroupLevel::new(
        ["Model"],
        Direction::Desc,
    ));
    st.spec.levels.push(spreadsheet_algebra::GroupLevel::new(
        ["City"],
        Direction::Asc,
    ));
    st.spec.finest_order.push(OrderKey::asc("Dealer"));
    st.spec.finest_order.push(OrderKey::asc("Comment"));
    st.computed.push(ComputedColumn::aggregate(
        "Best_Comment",
        AggFunc::Max,
        "Comment",
        2,
        vec!["Model".into()],
    ));
    st.add_selection(Expr::col("City").cmp(ssa_relation::CmpOp::Ne, Expr::lit("Marquette")));
    st
}

#[test]
fn engines_agree_on_string_heavy_data() {
    let mut rng = Rng::seed_from_u64(SEED ^ 0x57F1);
    let base = synthetic_listings(&mut rng, 3000);
    assert_engines_agree(&base, &string_state(), 0x57F1);
}

/// Random operator sequences whose selections, groupings, orderings and
/// aggregates all target string columns, differentially checked against
/// the naive oracle — the interning-specific analogue of
/// [`engines_agree_on_random_operator_sequences`].
#[test]
fn engines_agree_on_random_string_ops() {
    const STR_COLS: [&str; 4] = ["Model", "Dealer", "City", "Comment"];
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ 0x5AFE ^ (case << 8));
        let n = rng.gen_range(40..300usize);
        let base = synthetic_listings(&mut rng, n);
        let mut st = QueryState::new();
        st.dedup = rng.gen_bool(0.4);
        if rng.gen_bool(0.7) {
            st.spec.levels.push(spreadsheet_algebra::GroupLevel::new(
                [*rng.pick(&STR_COLS[..3])],
                if rng.gen_bool(0.5) {
                    Direction::Asc
                } else {
                    Direction::Desc
                },
            ));
        }
        let key = *rng.pick(&STR_COLS);
        st.spec.finest_order.push(if rng.gen_bool(0.5) {
            OrderKey::asc(key)
        } else {
            OrderKey::desc(key)
        });
        if rng.gen_bool(0.6) {
            st.computed.push(ComputedColumn::aggregate(
                "Agg",
                *rng.pick(&[AggFunc::Min, AggFunc::Max, AggFunc::Count]),
                *rng.pick(&STR_COLS),
                1,
                vec![],
            ));
        }
        if rng.gen_bool(0.7) {
            let op = if rng.gen_bool(0.5) {
                ssa_relation::CmpOp::Eq
            } else {
                ssa_relation::CmpOp::Ne
            };
            st.add_selection(
                Expr::col("City").cmp(op, Expr::lit(*rng.pick(&["Detroit", "Lansing", "Nowhere"]))),
            );
        }
        assert_engines_agree(&base, &st, case);
    }
}

#[test]
fn engines_agree_on_invalid_states() {
    let base = spreadsheet_algebra::fixtures::used_cars();

    // Unknown column in a selection.
    let mut st = QueryState::new();
    st.add_selection(Expr::col("Ghost").gt(Expr::lit(0)));
    assert_eq!(
        evaluate_with(&base, &st, naive()).unwrap_err(),
        evaluate_with(&base, &st, EvalOptions::default()).unwrap_err(),
    );

    // Cyclic computed column.
    let mut st = QueryState::new();
    st.computed.push(ComputedColumn::formula(
        "Loop",
        Expr::col("Loop").add(Expr::lit(1)),
    ));
    assert_eq!(
        evaluate_with(&base, &st, naive()).unwrap_err(),
        evaluate_with(&base, &st, EvalOptions::default()).unwrap_err(),
    );

    // Numeric aggregate over a string column fails in both engines.
    let mut st = QueryState::new();
    st.computed.push(ComputedColumn::aggregate(
        "Bad",
        AggFunc::Sum,
        "Model",
        1,
        vec![],
    ));
    assert!(evaluate_with(&base, &st, naive()).is_err());
    assert!(evaluate_with(&base, &st, EvalOptions::default()).is_err());
}

#[test]
fn sheet_engine_toggle_produces_identical_views() {
    for case in 0..20u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ 0xFACE ^ (case << 8));
        let mut sheet = arb_sheet(&mut rng);
        let indexed_view = sheet.view().unwrap().clone();
        sheet.set_naive_eval(true);
        let naive_view = sheet.view().unwrap().clone();
        assert_eq!(indexed_view, naive_view, "case {case}");
        sheet.set_naive_eval(false);
        assert_eq!(sheet.view().unwrap(), &indexed_view, "case {case}");
    }
}
