//! Differential tests for streaming base-data deltas (DESIGN.md §14).
//!
//! A spreadsheet whose cached evaluation is patched in place on base
//! appends, deletes and cell updates must stay observationally identical
//! — bitwise, including presentation order — to a from-scratch naive
//! evaluation of the same (base, state) pair, across arbitrary
//! interleavings of base edits and query edits. The audit hook is on by
//! default in debug builds, so every patch below is additionally
//! recompute-checked inside the library itself.

mod common;

use common::{arb_op, arb_predicate};
use spreadsheet_algebra::eval::{evaluate_with, EvalOptions};
use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::StateDelta;
use ssa_relation::rng::Rng;
use ssa_relation::schema::Schema;
use ssa_relation::{tuple, Tuple, Value, ValueType};

const SEED: u64 = 0xBA5E_DE17A;

fn naive() -> EvalOptions {
    EvalOptions { naive: true }
}

/// The oracle check: the maintained view equals a fresh naive evaluation
/// of the sheet's current (base, state) — same rows, same order.
fn assert_agrees(sheet: &mut Spreadsheet, context: &str) {
    let reference = evaluate_with(sheet.base(), sheet.state(), naive());
    let maintained = sheet.view().cloned();
    match (&maintained, &reference) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{context}: maintained view vs naive oracle");
            assert!(a.equivalent(b), "{context}: equal but not equivalent?");
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{context}: maintained {a:?} vs naive {b:?}"),
    }
}

/// A fresh used-cars-shaped row. IDs are drawn from a disjoint range so
/// appended rows are distinguishable from the fixture's.
fn arb_row(rng: &mut Rng) -> Tuple {
    tuple![
        rng.gen_range(1000..9999i64),
        *rng.pick(&["Jetta", "Civic", "Accord", "Beetle"]),
        rng.gen_range(4_000..25_000i64),
        rng.gen_range(1999..2008i64),
        rng.gen_range(10_000..160_000i64),
        *rng.pick(&["Good", "Excellent", "Fair"])
    ]
}

/// One random base-data edit. Appends dominate (they are the streaming
/// case); deletes and updates address random base positions.
fn arb_base_edit(rng: &mut Rng, sheet: &mut Spreadsheet) {
    let len = sheet.base().len();
    match rng.gen_range(0..6usize) {
        0 | 1 => {
            let rows: Vec<Tuple> = (0..rng.gen_range(1..4usize))
                .map(|_| arb_row(rng))
                .collect();
            sheet.append_rows(rows).expect("append");
        }
        2 => {
            if len > 3 {
                let ids: Vec<u32> = (0..rng.gen_range(1..3usize))
                    .map(|_| rng.gen_range(0..len) as u32)
                    .collect();
                sheet.delete_rows(&ids).expect("delete");
            }
        }
        3 => {
            if len > 0 {
                let _ = sheet.delete_where(&arb_predicate(rng));
            }
        }
        4 => {
            if len > 0 {
                let row = rng.gen_range(0..len) as u32;
                let (col, val) = match rng.gen_range(0..3usize) {
                    0 => ("Price", Value::Int(rng.gen_range(4_000..25_000i64))),
                    1 => (
                        "Model",
                        Value::str(*rng.pick(&["Jetta", "Civic", "Accord"])),
                    ),
                    _ => ("Year", Value::Int(rng.gen_range(1999..2008i64))),
                };
                sheet.update_cell(row, col, val).expect("update");
            }
        }
        _ => {
            if len > 0 {
                // Mileage drives nothing in most drawn states: exercises
                // the in-place (Tier A) update path.
                let row = rng.gen_range(0..len) as u32;
                sheet
                    .update_cell(
                        row,
                        "Mileage",
                        Value::Int(rng.gen_range(10_000..160_000i64)),
                    )
                    .expect("update mileage");
            }
        }
    }
}

#[test]
fn base_edits_equal_oracle_on_random_interleavings() {
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(SEED ^ (case << 8));
        let mut sheet = Spreadsheet::over(used_cars());
        // Warm the cache so the first base edit patches rather than
        // evaluates from scratch.
        sheet.view().expect("base sheet evaluates");
        for step in 0..rng.gen_range(4..10usize) {
            // Interleave: ~half base-data edits, ~half query edits (the
            // latter may fail and be skipped, like a user retrying).
            if rng.gen_bool(0.5) {
                arb_base_edit(&mut rng, &mut sheet);
            } else {
                let _ = sheet.apply(&arb_op(&mut rng));
            }
            assert_agrees(&mut sheet, &format!("case {case}, step {step}"));
        }
    }
}

#[test]
fn base_edit_ablation_produces_identical_views() {
    // The same interleaved script through a patching sheet and a
    // non-incremental sheet must produce identical views at every step.
    for case in 0..15u64 {
        let mut rng_a = Rng::seed_from_u64(SEED ^ (case << 16));
        let mut rng_b = Rng::seed_from_u64(SEED ^ (case << 16));
        let mut inc = Spreadsheet::over(used_cars());
        let mut full = Spreadsheet::over(used_cars());
        full.set_incremental(false);
        inc.view().unwrap();
        full.view().unwrap();
        for step in 0..6 {
            // Keep the twin generators in lockstep: both must consume
            // the branch draw.
            let base_edit = rng_a.gen_bool(0.5);
            assert_eq!(base_edit, rng_b.gen_bool(0.5));
            if base_edit {
                arb_base_edit(&mut rng_a, &mut inc);
                arb_base_edit(&mut rng_b, &mut full);
            } else {
                let _ = inc.apply(&arb_op(&mut rng_a));
                let _ = full.apply(&arb_op(&mut rng_b));
            }
            assert_eq!(
                inc.view().unwrap(),
                full.view().unwrap(),
                "case {case} step {step}"
            );
        }
    }
}

/// The float inputs of the streamed-vs-full differential: signed zeros,
/// values whose sums round, one that overflows when squared, and NULL.
const FLOATS: [Value; 6] = [
    Value::Float(-0.0),
    Value::Float(0.0),
    Value::Float(0.5),
    Value::Float(-1.5),
    Value::Float(1e300),
    Value::Null,
];

/// Group keys: `d` is absent from the fixture, so appends open groups.
const KEYS: [&str; 4] = ["a", "b", "c", "d"];

/// Streamed aggregate folds and a fresh evaluation must agree bit for
/// bit over floats, for every aggregate function: a sheet grouped by a
/// string column, aggregating a float column, under interleaved appends
/// (the streaming tail fold), deletes (the grouped refold), in-place
/// updates of the input and re-inserting updates of the group key.
#[test]
fn streamed_and_full_aggregates_agree_over_floats() {
    for func in AggFunc::ALL {
        for case in 0..12u64 {
            let mut rng = Rng::seed_from_u64(SEED ^ 0xF10A7 ^ (case << 12));
            let row = |rng: &mut Rng| {
                Tuple::new(vec![Value::str(*rng.pick(&KEYS[..3])), *rng.pick(&FLOATS)])
            };
            let rows: Vec<Tuple> = (0..4).map(|_| row(&mut rng)).collect();
            let base = Relation::with_rows(
                "floats",
                Schema::of(&[("G", ValueType::Str), ("X", ValueType::Float)]),
                rows,
            )
            .unwrap();
            let mut sheet = Spreadsheet::over(base);
            sheet.group(&["G"], Direction::Asc).unwrap();
            sheet.aggregate(func, "X", 2).unwrap();
            sheet.view().unwrap();
            for step in 0..12 {
                let len = sheet.base().len();
                let version = sheet.version();
                let ctx = format!("{func} case {case} step {step}");
                let edit = match rng.gen_range(0..4usize) {
                    0 => {
                        let n = rng.gen_range(1..3usize);
                        let rows = (0..n)
                            .map(|_| {
                                let mut t = row(&mut rng);
                                if rng.gen_bool(0.3) {
                                    t = tuple!["d", *rng.pick(&FLOATS)];
                                }
                                t
                            })
                            .collect();
                        sheet.append_rows(rows).map(drop)
                    }
                    1 if len > 2 => sheet.delete_rows(&[rng.gen_range(0..len) as u32]).map(drop),
                    2 if len > 0 => {
                        let r = rng.gen_range(0..len) as u32;
                        sheet.update_cell(r, "X", *rng.pick(&FLOATS)).map(drop)
                    }
                    3 if len > 0 => {
                        let r = rng.gen_range(0..len) as u32;
                        let key = Value::str(*rng.pick(&KEYS));
                        sheet.update_cell(r, "G", key).map(drop)
                    }
                    _ => continue,
                };
                if let Err(e) = edit {
                    panic!("{ctx}: edit failed: {e}");
                }
                // An update to the value a cell already holds is a no-op.
                let patched = matches!(
                    sheet.last_delta(),
                    StateDelta::RowsAppended { .. }
                        | StateDelta::RowsDeleted { .. }
                        | StateDelta::CellsUpdated { .. }
                );
                assert!(
                    patched || sheet.version() == version,
                    "{ctx}: the edit must patch the cache, got {}",
                    sheet.last_delta()
                );
                assert_agrees(&mut sheet, &ctx);
            }
        }
    }
}

fn arranged() -> Spreadsheet {
    let mut s = Spreadsheet::over(used_cars());
    s.group(&["Model"], Direction::Asc).unwrap();
    s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.order("Price", Direction::Asc, 2).unwrap();
    s.view().unwrap();
    s
}

/// Pinned case: an appended row whose grouping key falls strictly
/// between two existing groups must open a fresh group at the right
/// position — merge-inserted into the group tree, not appended at the
/// tail or absorbed into a neighbour.
#[test]
fn append_opens_new_group_between_existing_groups() {
    let mut s = arranged();
    // "Civic" < "Ford" < "Jetta": the new group lands in the middle.
    s.append_row(tuple![555, "Ford", 9_000, 2001, 120_000, "Fair"])
        .unwrap();
    assert_eq!(s.last_delta(), &StateDelta::RowsAppended { count: 1 });
    let view = s.view().unwrap();
    let models: Vec<Value> = (0..view.len())
        .map(|i| *view.data.value_at(i, "Model").unwrap())
        .collect();
    assert_eq!(
        models,
        ["Civic", "Civic", "Civic", "Ford", "Jetta", "Jetta", "Jetta", "Jetta", "Jetta", "Jetta"]
            .map(Value::str)
            .to_vec(),
        "the Ford group must sit between Civic and Jetta"
    );
    // The singleton group's aggregate is its own price.
    assert_eq!(
        view.data.value_at(3, "Avg_Price").unwrap(),
        &Value::Float(9_000.0)
    );
    assert_agrees(&mut s, "new group between groups");
}

/// Pinned case: deleting the only row of a group must close the group;
/// updating a grouping key must move the row across groups.
#[test]
fn delete_closes_group_and_update_moves_across_groups() {
    let mut s = arranged();
    s.append_row(tuple![555, "Ford", 9_000, 2001, 120_000, "Fair"])
        .unwrap();
    // Kill the singleton Ford group (base position 9, the appended row).
    s.delete_rows(&[9]).unwrap();
    assert_eq!(s.last_delta(), &StateDelta::RowsDeleted { count: 1 });
    assert_agrees(&mut s, "singleton group closed");

    // Move a Civic (base row 6, ID 132) into the Jetta group.
    s.update_cell(6, "Model", Value::str("Jetta")).unwrap();
    assert_eq!(s.last_delta(), &StateDelta::CellsUpdated { count: 1 });
    let view = s.view().unwrap();
    let models: Vec<Value> = (0..view.len())
        .map(|i| *view.data.value_at(i, "Model").unwrap())
        .collect();
    assert_eq!(
        models.iter().filter(|m| **m == Value::str("Jetta")).count(),
        7,
        "the moved row must count as a Jetta"
    );
    assert_agrees(&mut s, "row moved across groups");
}
