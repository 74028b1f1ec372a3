//! Differential tests for the delta-aware cache (DESIGN.md §10).
//!
//! A spreadsheet whose cache is patched incrementally (narrowed
//! selections, appended/removed computed columns, projection toggles)
//! must be observationally identical to a fresh evaluation of the same
//! (base, state) pair on the full indexed engine *and* on the naive
//! oracle — including the edits that must fall back (widened predicates,
//! rank-crossing selections over aggregates, dedup toggles).

mod common;

use common::{arb_column, arb_numeric_column, arb_op, arb_predicate};
use spreadsheet_algebra::eval::{evaluate_with, EvalOptions};
use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::{Derived, StateDelta};
use ssa_relation::par::PARALLEL_THRESHOLD;
use ssa_relation::rng::Rng;
use ssa_relation::{tuple, Relation};

const SEED: u64 = 0xD3_17A5;

fn naive() -> EvalOptions {
    EvalOptions { naive: true }
}

/// The oracle check: the incrementally maintained view must equal a
/// from-scratch evaluation on both engines (or fail alongside them).
fn assert_incremental_agrees(sheet: &mut Spreadsheet, context: &str) {
    let reference = evaluate_with(sheet.base(), sheet.state(), naive());
    let full_indexed = evaluate_with(sheet.base(), sheet.state(), sheet.eval_options());
    let incremental = sheet.view().cloned();
    match (&incremental, &reference) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{context}: incremental vs naive oracle");
            assert!(a.equivalent(b), "{context}: equal but not equivalent?");
            let c = full_indexed.expect("naive succeeded, indexed must too");
            assert_eq!(a, &c, "{context}: incremental vs full indexed");
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{context}: incremental {a:?} vs naive {b:?}"),
    }
}

/// One random state edit biased towards the delta-classified paths.
/// Invalid draws (unknown ids, dependent columns…) are skipped, like a
/// user retrying in the UI.
fn arb_edit(rng: &mut Rng, sheet: &mut Spreadsheet) {
    match rng.gen_range(0..12usize) {
        // Narrow: add a fresh selection.
        0 | 1 => {
            let _ = sheet.select(arb_predicate(rng));
        }
        // Narrow: tighten an existing predicate by conjunction.
        2 => {
            let sels: Vec<(u64, Expr)> = sheet
                .state()
                .selections
                .iter()
                .map(|s| (s.id, s.predicate.clone()))
                .collect();
            if !sels.is_empty() {
                let (id, pred) = sels[rng.gen_range(0..sels.len())].clone();
                let _ = sheet.replace_selection(id, pred.and(arb_predicate(rng)));
            }
        }
        // Fallback: replace with an unrelated (usually wider) predicate.
        3 => {
            let ids: Vec<u64> = sheet.state().selections.iter().map(|s| s.id).collect();
            if !ids.is_empty() {
                let id = ids[rng.gen_range(0..ids.len())];
                let _ = sheet.replace_selection(id, arb_predicate(rng));
            }
        }
        // Fallback: remove a selection (widening).
        4 => {
            let ids: Vec<u64> = sheet.state().selections.iter().map(|s| s.id).collect();
            if !ids.is_empty() {
                let _ = sheet.remove_selection(ids[rng.gen_range(0..ids.len())]);
            }
        }
        // Visible-only: toggle a base column's projection.
        5 => {
            let col = arb_column(rng);
            if sheet.state().projected_out.contains(col) {
                let _ = sheet.reinstate(col);
            } else {
                let _ = sheet.project_out(col);
            }
        }
        // Append: an aggregate at a random level.
        6 => {
            let _ = sheet.aggregate(
                *rng.pick(&[AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Count]),
                arb_numeric_column(rng),
                rng.gen_range(1..=3usize),
            );
        }
        // Append: a formula, sometimes chained onto a computed column
        // (making it volatile when the source is an aggregate).
        7 => {
            let computed: Vec<String> = sheet
                .state()
                .computed
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let src = if !computed.is_empty() && rng.gen_bool(0.5) {
                computed[rng.gen_range(0..computed.len())].clone()
            } else {
                arb_numeric_column(rng).to_string()
            };
            let _ = sheet.formula(None, Expr::col(src).add(Expr::lit(1)));
        }
        // Remove a computed column (refused while depended upon).
        8 => {
            let computed: Vec<String> = sheet
                .state()
                .computed
                .iter()
                .map(|c| c.name.clone())
                .collect();
            if !computed.is_empty() {
                let _ = sheet.remove_computed(&computed[rng.gen_range(0..computed.len())]);
            }
        }
        // Fallback: a rank-crossing selection over a computed column.
        9 => {
            let computed: Vec<String> = sheet
                .state()
                .computed
                .iter()
                .map(|c| c.name.clone())
                .collect();
            if !computed.is_empty() {
                let col = computed[rng.gen_range(0..computed.len())].clone();
                let _ = sheet.select(Expr::col(col).ge(Expr::lit(0)));
            }
        }
        // Fallback: dedup toggle (on only; there is no off operator).
        10 => {
            let _ = sheet.dedup();
        }
        // Reorganize: grouping/ordering (and whatever else arb_op draws).
        _ => {
            let _ = arb_op(rng).apply(sheet);
        }
    }
}

#[test]
fn incremental_equals_oracle_on_random_edit_sequences() {
    for case in 0..60u64 {
        // Two seed streams per case (120 sequences in all).
        for stream in [usize::MAX as u64, 1] {
            let mut rng = Rng::seed_from_u64(SEED ^ (case << 8) ^ stream);
            let mut sheet = Spreadsheet::over(used_cars());
            // Warm the cache so every subsequent edit diffs against it.
            sheet.view().expect("base sheet evaluates");
            for step in 0..rng.gen_range(3..9usize) {
                arb_edit(&mut rng, &mut sheet);
                // Occasionally skip the view so deltas compound before
                // the next classification.
                if rng.gen_bool(0.25) {
                    continue;
                }
                assert_incremental_agrees(
                    &mut sheet,
                    &format!("case {case}, stream {stream}, step {step}"),
                );
            }
            assert_incremental_agrees(&mut sheet, &format!("case {case}, stream {stream}, final"));
        }
    }
}

#[test]
fn incremental_ablation_produces_identical_views() {
    // The same edit script through an incremental and a non-incremental
    // sheet must produce identical views at every step.
    for case in 0..20u64 {
        let mut rng_a = Rng::seed_from_u64(SEED ^ (case << 16));
        let mut rng_b = Rng::seed_from_u64(SEED ^ (case << 16));
        let mut inc = Spreadsheet::over(used_cars());
        let mut full = Spreadsheet::over(used_cars());
        full.set_incremental(false);
        inc.view().unwrap();
        full.view().unwrap();
        for step in 0..6 {
            arb_edit(&mut rng_a, &mut inc);
            arb_edit(&mut rng_b, &mut full);
            let a = inc.view().cloned();
            let b = full.view().cloned();
            match (&a, &b) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case} step {step}"),
                (Err(_), Err(_)) => {}
                _ => panic!("case {case} step {step}: {a:?} vs {b:?}"),
            }
        }
    }
}

fn arranged() -> Spreadsheet {
    let mut s = Spreadsheet::over(used_cars());
    s.group(&["Model"], Direction::Asc).unwrap();
    s.order("Price", Direction::Asc, 2).unwrap();
    s
}

#[test]
fn tighten_selection_classifies_narrow() {
    let mut s = arranged();
    let id = s.select(Expr::col("Price").lt(Expr::lit(20_000))).unwrap();
    s.view().unwrap();
    s.replace_selection(id, Expr::col("Price").lt(Expr::lit(15_000)))
        .unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Narrow {
            predicates: vec![Expr::col("Price").lt(Expr::lit(15_000))]
        }
    );
    assert_incremental_agrees(&mut s, "tighten");
}

#[test]
fn add_selection_recomputes_aggregates_over_narrowed_multiset() {
    let mut s = arranged();
    let avg = s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.view().unwrap();
    s.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
    assert!(
        matches!(s.last_delta(), StateDelta::Narrow { .. }),
        "selection on a base column narrows even while {avg} exists"
    );
    assert_incremental_agrees(&mut s, "narrow with aggregate");
}

#[test]
fn selection_on_aggregate_falls_back() {
    let mut s = arranged();
    let avg = s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.view().unwrap();
    s.select(Expr::col(&avg).ge(Expr::lit(10_000))).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Full {
            reason: "a selection reads an aggregate-dependent column"
        }
    );
    assert_incremental_agrees(&mut s, "rank-crossing");
}

#[test]
fn narrow_re_sorts_when_order_key_is_volatile() {
    // Rows ordered by squared distance from the whole-sheet average
    // price: narrowing moves the average, which permutes the order even
    // though the spec itself never changed. The cache must detect the
    // volatile order key and re-sort instead of keeping the stale
    // presentation order. Prices chosen so the survivors' relative
    // order actually flips: before the tighten the distances rank them
    // [36, 20, 10, 100]; after `Price < 50` the mean drops to 22 and
    // the ranking becomes [20, 10, 36].
    let rel = ssa_relation::Relation::with_rows(
        "t",
        ssa_relation::schema::Schema::of(&[
            ("ID", ssa_relation::ValueType::Int),
            ("Price", ssa_relation::ValueType::Int),
        ]),
        vec![
            ssa_relation::tuple![1, 10],
            ssa_relation::tuple![2, 20],
            ssa_relation::tuple![3, 36],
            ssa_relation::tuple![4, 100],
        ],
    )
    .unwrap();
    let mut s = Spreadsheet::over(rel);
    let avg = s.aggregate(AggFunc::Avg, "Price", 1).unwrap();
    let dist = Expr::col("Price").sub(Expr::col(&avg));
    let dist2 = dist.clone().mul(dist);
    s.formula(Some("Dist"), dist2).unwrap();
    s.order("Dist", Direction::Asc, 1).unwrap();
    s.view().unwrap();
    s.select(Expr::col("Price").lt(Expr::lit(50))).unwrap();
    assert!(
        matches!(s.last_delta(), StateDelta::Narrow { .. }),
        "a base-column selection narrows even though the order key is volatile"
    );
    assert_incremental_agrees(&mut s, "volatile order key");
}

/// A selection added after the cache was warm, so its narrowing records
/// the rows it sets aside.
fn arranged_with_selection(predicate: Expr) -> (Spreadsheet, u64) {
    let mut s = arranged();
    s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.view().unwrap();
    let id = s.select(predicate).unwrap();
    assert!(matches!(s.last_delta(), StateDelta::Narrow { .. }));
    s.view().unwrap();
    (s, id)
}

#[test]
fn widened_selection_takes_the_widening_patch() {
    let (mut s, id) = arranged_with_selection(Expr::col("Price").lt(Expr::lit(15_000)));
    s.replace_selection(id, Expr::col("Price").lt(Expr::lit(20_000)))
        .unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Widen {
            id,
            predicate: Some(Expr::col("Price").lt(Expr::lit(20_000)))
        }
    );
    assert_incremental_agrees(&mut s, "widen");
}

#[test]
fn removed_and_incomparable_selections_take_the_widening_patch() {
    let (mut s, id) = arranged_with_selection(Expr::col("Price").lt(Expr::lit(17_000)));
    // Incomparable: some cached rows leave, some set-aside rows return.
    let other = Expr::col("Year").ge(Expr::lit(2005));
    s.replace_selection(id, other.clone()).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Widen {
            id,
            predicate: Some(other)
        }
    );
    assert_incremental_agrees(&mut s, "incomparable");
    // The replacement's set-aside rows are known: removing it widens too.
    s.remove_selection(id).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Widen {
            id,
            predicate: None
        }
    );
    assert_incremental_agrees(&mut s, "remove");
}

#[test]
fn widening_without_known_set_aside_rows_says_why() {
    // The selection predates the first evaluation: nothing recorded the
    // rows it rejects.
    let mut s = arranged();
    let id = s.select(Expr::col("Price").lt(Expr::lit(15_000))).unwrap();
    s.view().unwrap();
    s.remove_selection(id).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Full {
            reason: "the widened selection's set-aside rows are unknown"
        }
    );
    assert_incremental_agrees(&mut s, "unknown set-aside rows");
    // Widening one selection forgets the others' sets.
    let (mut s, a) = arranged_with_selection(Expr::col("Price").lt(Expr::lit(18_000)));
    let b = s.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
    s.view().unwrap();
    s.remove_selection(b).unwrap();
    assert!(matches!(s.last_delta(), StateDelta::Widen { .. }));
    s.view().unwrap();
    s.remove_selection(a).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Full {
            reason: "the widened selection's set-aside rows are unknown"
        }
    );
    assert_incremental_agrees(&mut s, "forgotten set-aside rows");
}

/// A cars-shaped base of twice [`PARALLEL_THRESHOLD`] rows, so the
/// patches' filters and column passes over it run chunked.
fn big_cars() -> Relation {
    let models = ["Jetta", "Civic", "Accord", "Focus"];
    let rows = (0..2 * PARALLEL_THRESHOLD as i64)
        .map(|i| {
            tuple![
                i,
                models[(i % 4) as usize],
                10_000 + (i * 7_919) % 15_000,
                2_000 + i % 9,
                (i * 104_729) % 150_000,
                if i % 3 == 0 { "Good" } else { "Excellent" }
            ]
        })
        .collect();
    Relation::with_rows("cars", used_cars().schema().clone(), rows).unwrap()
}

/// A narrowing, a widening and an appended formula on a sheet above
/// [`PARALLEL_THRESHOLD`], self-audited against a fresh evaluation and
/// checked against the naive oracle: the chunked patch paths are the
/// sequential ones.
#[test]
fn patches_above_the_parallel_threshold_equal_the_oracle() {
    let mut s = Spreadsheet::over(big_cars());
    s.set_audit(true);
    s.group(&["Model"], Direction::Asc).unwrap();
    s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.view().unwrap();

    let id = s.select(Expr::col("Year").ge(Expr::lit(2_002))).unwrap();
    assert!(matches!(s.last_delta(), StateDelta::Narrow { .. }));
    assert_incremental_agrees(&mut s, "narrow");
    assert!(s.view().unwrap().len() >= PARALLEL_THRESHOLD);

    s.remove_selection(id).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Widen {
            id,
            predicate: None
        }
    );
    assert_incremental_agrees(&mut s, "widen");

    let name = s
        .formula(Some("Markup"), Expr::col("Price").mul(Expr::lit(2)))
        .unwrap();
    assert_eq!(s.last_delta(), &StateDelta::AppendComputed { name });
    assert_incremental_agrees(&mut s, "append computed");
    assert!(s.explain().unwrap().contains("failed patches: 0"));
}

#[test]
fn projection_toggle_is_reorganize_only() {
    let mut s = arranged();
    s.view().unwrap();
    s.project_out("Mileage").unwrap();
    assert_eq!(s.last_delta(), &StateDelta::Reorganize);
    assert_incremental_agrees(&mut s, "project out");
    s.reinstate("Mileage").unwrap();
    assert_eq!(s.last_delta(), &StateDelta::Reorganize);
    assert_incremental_agrees(&mut s, "reinstate");
}

#[test]
fn append_and_remove_computed_classify() {
    let mut s = arranged();
    s.view().unwrap();
    let name = s
        .formula(Some("Markup"), Expr::col("Price").mul(Expr::lit(2)))
        .unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::AppendComputed { name: name.clone() }
    );
    assert_incremental_agrees(&mut s, "append");
    s.remove_computed(&name).unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::RemoveComputed { names: vec![name] }
    );
    assert_incremental_agrees(&mut s, "remove");
}

#[test]
fn dedup_toggle_falls_back() {
    let mut s = arranged();
    s.view().unwrap();
    s.dedup().unwrap();
    assert_eq!(
        s.last_delta(),
        &StateDelta::Full {
            reason: "duplicate elimination toggled"
        }
    );
    assert_incremental_agrees(&mut s, "dedup");
}

#[test]
fn cascade_removal_bypassing_invalidate_stays_correct() {
    // remove_with_cascade edits the state through raw access (several
    // edits per view); classification happens inside view, so the result
    // must still match a fresh evaluation.
    let mut s = arranged();
    let avg = s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.order(&avg, Direction::Desc, 2).unwrap();
    s.select(Expr::col(&avg).ge(Expr::lit(0))).unwrap();
    s.view().unwrap();
    s.remove_with_cascade(&avg).unwrap();
    assert_incremental_agrees(&mut s, "cascade removal");
}

#[test]
fn narrowing_keeps_rank_cache_usable_for_reorganize() {
    // Sort by Year (populating the rank cache), narrow, then re-sort by
    // Mileage and flip directions: the filtered rank vectors must still
    // order correctly.
    let mut s = arranged();
    s.view().unwrap();
    s.select(Expr::col("Price").lt(Expr::lit(18_000))).unwrap();
    s.view().unwrap();
    s.order("Mileage", Direction::Desc, 2).unwrap();
    assert_incremental_agrees(&mut s, "reorder after narrow");
    s.order("Mileage", Direction::Asc, 2).unwrap();
    assert_incremental_agrees(&mut s, "flip after narrow");
}

/// A base whose float column makes fold order visible: magnitudes from
/// 1e-3 to 1e15 in one column, so a `Sum`/`Avg` that added the rows a
/// widening merges back in any order but canonical order would differ in
/// the low bits.
fn float_base(rng: &mut Rng) -> ssa_relation::Relation {
    use ssa_relation::{schema::Schema, Tuple, Value, ValueType};
    let schema = Schema::of(&[
        ("ID", ValueType::Int),
        ("Grp", ValueType::Str),
        ("X", ValueType::Float),
        ("Y", ValueType::Int),
    ]);
    let rows = (0..48i64)
        .map(|i| {
            let scale = *rng.pick(&[1e-3, 0.1, 1.0, 1e3, 1e9, 1e15]);
            Tuple::new(vec![
                Value::Int(i),
                Value::str(*rng.pick(&["a", "b", "c"])),
                Value::Float(scale * (rng.gen_range(1..1000i64) as f64 / 7.0)),
                Value::Int(rng.gen_range(0..100i64)),
            ])
        })
        .collect();
    ssa_relation::Relation::with_rows("floats", schema, rows).unwrap()
}

fn float_predicate(rng: &mut Rng) -> Expr {
    match rng.gen_range(0..3usize) {
        0 => Expr::col("Y").lt(Expr::lit(rng.gen_range(10..90i64))),
        1 => Expr::col("X").ge(Expr::lit(*rng.pick(&[0.01, 1.0, 100.0, 1e6]))),
        _ => Expr::col("Grp").eq(Expr::lit(*rng.pick(&["a", "b", "c"]))),
    }
}

/// One random edit through the history engine, weighted towards query
/// modification: tightening, loosening and incomparable `modify`,
/// `unselect`, `undo`/`redo` of one or several steps, base appends.
/// Refused draws are skipped.
fn arb_history_edit(rng: &mut Rng, e: &mut Engine) {
    let sels: Vec<(u64, Expr)> = e
        .sheet()
        .state()
        .selections
        .iter()
        .map(|s| (s.id, s.predicate.clone()))
        .collect();
    let pick_sel = |rng: &mut Rng| sels[rng.gen_range(0..sels.len())].clone();
    match rng.gen_range(0..14usize) {
        0 | 1 => {
            let _ = e.select(float_predicate(rng));
        }
        2 if !sels.is_empty() => {
            let (id, p) = pick_sel(rng);
            let _ = e.replace_selection(id, p.and(float_predicate(rng)));
        }
        3 if !sels.is_empty() => {
            let (id, p) = pick_sel(rng);
            let _ = e.replace_selection(id, p.or(float_predicate(rng)));
        }
        4 if !sels.is_empty() => {
            let (id, _) = pick_sel(rng);
            let _ = e.replace_selection(id, float_predicate(rng));
        }
        5 if !sels.is_empty() => {
            let (id, _) = pick_sel(rng);
            let _ = e.remove_selection(id);
        }
        6 => {
            let func = *rng.pick(&[AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Count]);
            let level = rng.gen_range(1..=2usize);
            let _ = e.aggregate(func, "X", level);
        }
        7 => {
            let _ = e.formula(None, Expr::col("X").mul(Expr::lit(3)));
        }
        8 => {
            let computed: Vec<String> = e
                .sheet()
                .state()
                .computed
                .iter()
                .map(|c| c.name.clone())
                .collect();
            if !computed.is_empty() {
                let _ = e.remove_computed(&computed[rng.gen_range(0..computed.len())]);
            }
        }
        9 => {
            if e.sheet().state().spec.level_count() == 1 {
                let _ = e.group_add(&["Grp"], Direction::Asc);
            } else {
                let _ = e.order("X", Direction::Desc, 1);
            }
        }
        10 | 11 => {
            let _ = e.undo_steps(rng.gen_range(1..=4usize));
        }
        12 => {
            let _ = e.redo_steps(rng.gen_range(1..=3usize));
        }
        _ => {
            let row = ssa_relation::Tuple::new(vec![
                ssa_relation::Value::Int(rng.gen_range(100..200i64)),
                ssa_relation::Value::str(*rng.pick(&["a", "b"])),
                ssa_relation::Value::Float(rng.gen_range(1..1000i64) as f64 * 1e-3),
                ssa_relation::Value::Int(rng.gen_range(0..100i64)),
            ]);
            let _ = e.append_rows(vec![row]);
        }
    }
}

/// Every float cell of two views, bit for bit (`Value` equality alone
/// would also accept `-0.0 == 0.0`).
fn assert_float_bits(a: &Derived, b: &Derived, context: &str) {
    for (ra, rb) in a.data.rows().iter().zip(b.data.rows().iter()) {
        for (va, vb) in ra.values().iter().zip(rb.values()) {
            if let (ssa_relation::Value::Float(x), ssa_relation::Value::Float(y)) = (va, vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{context}: float bits differ");
            }
        }
    }
}

#[test]
fn query_modification_with_undo_redo_equals_oracle() {
    let mut widened = 0;
    for case in 0..300u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ 0x51DE ^ (case << 12));
        let mut e = Engine::over(float_base(&mut rng));
        e.sheet_mut().set_audit(true);
        let _ = e.group(&["Grp"], Direction::Asc);
        e.view().expect("base sheet evaluates");
        for step in 0..rng.gen_range(6..20usize) {
            arb_history_edit(&mut rng, &mut e);
            widened += usize::from(matches!(e.sheet().last_delta(), StateDelta::Widen { .. }));
            if rng.gen_bool(0.2) {
                continue;
            }
            let context = format!("case {case}, step {step}");
            let reference = evaluate_with(e.sheet().base(), e.sheet().state(), naive());
            match (e.view().cloned(), reference) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{context}: patched vs naive oracle");
                    assert_float_bits(&a, &b, &context);
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{context}: patched {a:?} vs naive {b:?}"),
            }
            let explained = e.sheet().explain().unwrap();
            assert!(
                explained.contains("failed patches: 0"),
                "{context}: a patch failed:\n{explained}"
            );
        }
    }
    assert!(widened > 100, "the widening path ran only {widened} times");
}
