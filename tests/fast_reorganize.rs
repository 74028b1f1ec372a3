//! The reorganize fast path: when only grouping/ordering/projection
//! changed, `view()` re-sorts the cached evaluation instead of rerunning
//! the canonical pipeline. These tests pin that the fast path is
//! *observationally identical* to full evaluation.

use sheetmusiq_repro::prelude::*;
use spreadsheet_algebra::fixtures::used_cars;
use ssa_relation::rng::Rng;

fn arb_op(rng: &mut Rng) -> SheetOp {
    match rng.gen_range(0..7usize) {
        // content-changing
        0 => SheetOp::Select {
            predicate: Expr::col("Price").lt(Expr::lit(rng.gen_range(13_000..19_000i64))),
        },
        1 => SheetOp::Aggregate {
            func: *rng.pick(&[AggFunc::Avg, AggFunc::Count, AggFunc::Max]),
            column: "Price".into(),
            level: rng.gen_range(1..=3usize),
        },
        2 => SheetOp::Dedup,
        // organization-only (the fast-path triggers)
        3 => SheetOp::Group {
            attributes: vec![rng.pick(&["Model", "Condition", "Year"]).to_string()],
            direction: Direction::Desc,
        },
        4 => SheetOp::Order {
            attribute: rng.pick(&["Price", "Mileage", "ID", "Year"]).to_string(),
            direction: Direction::Asc,
            level: rng.gen_range(1..=3usize),
        },
        5 => SheetOp::ProjectOut {
            column: rng.pick(&["Mileage", "Condition"]).to_string(),
        },
        _ => SheetOp::Reinstate {
            column: rng.pick(&["Mileage", "Condition"]).to_string(),
        },
    }
}

/// After every step of a random session, the cached/fast-path `view`
/// equals a from-scratch evaluation — with the fast path both on and
/// off.
#[test]
fn view_always_equals_full_evaluation() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xFA57 ^ case);
        let ops: Vec<SheetOp> = (0..rng.gen_range(0..10usize))
            .map(|_| arb_op(&mut rng))
            .collect();
        let fast = rng.gen_bool(0.5);
        let mut sheet = Spreadsheet::over(used_cars());
        sheet.set_incremental(fast);
        // prime the cache so later ops hit the reorganize/reuse branches
        let _ = sheet.view();
        for op in &ops {
            if sheet.apply(op).is_ok() {
                let fresh = sheet.evaluate_now().expect("state is valid");
                let viewed = sheet.view().expect("view succeeds").clone();
                assert_eq!(viewed, fresh, "case {case}");
            }
        }
    }
}

/// Interleaving reads must not change results either (cache reuse).
#[test]
fn repeated_views_are_stable() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x57AB ^ case);
        let ops: Vec<SheetOp> = (0..rng.gen_range(0..8usize))
            .map(|_| arb_op(&mut rng))
            .collect();
        let mut sheet = Spreadsheet::over(used_cars());
        for op in &ops {
            let _ = sheet.apply(op);
            let a = sheet.view().expect("view").clone();
            let b = sheet.view().expect("view").clone();
            assert_eq!(a, b, "case {case}");
        }
    }
}

#[test]
fn reorganize_path_handles_grouping_then_ordering_then_projection() {
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.select(Expr::col("Year").ge(Expr::lit(2005))).unwrap();
    sheet.aggregate(AggFunc::Avg, "Price", 1).unwrap();
    let full = sheet.view().unwrap().clone(); // primes the cache

    // Organization-only edits from here on: all fast-path.
    sheet.group(&["Model"], Direction::Asc).unwrap();
    let grouped = sheet.view().unwrap().clone();
    assert_eq!(grouped, sheet.evaluate_now().unwrap());
    assert_eq!(grouped.len(), full.len());

    sheet.order("Price", Direction::Desc, 2).unwrap();
    {
        let fresh = sheet.evaluate_now().unwrap();
        assert_eq!(*sheet.view().unwrap(), fresh);
    }

    sheet.project_out("Mileage").unwrap();
    {
        let fresh = sheet.evaluate_now().unwrap();
        assert_eq!(*sheet.view().unwrap(), fresh);
    }
    sheet.reinstate("Mileage").unwrap();
    {
        let fresh = sheet.evaluate_now().unwrap();
        assert_eq!(*sheet.view().unwrap(), fresh);
    }

    // A content change falls back to the full pipeline.
    sheet
        .select(Expr::col("Condition").eq(Expr::lit("Good")))
        .unwrap();
    {
        let fresh = sheet.evaluate_now().unwrap();
        assert_eq!(*sheet.view().unwrap(), fresh);
    }
}

#[test]
fn binary_operator_discards_cache() {
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.view().unwrap();
    let stored = Spreadsheet::over(used_cars()).save("all").unwrap();
    sheet.union(&stored).unwrap();
    assert_eq!(sheet.view().unwrap().len(), 18);
    {
        let fresh = sheet.evaluate_now().unwrap();
        assert_eq!(*sheet.view().unwrap(), fresh);
    }
}

#[test]
fn rename_discards_cache() {
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.group(&["Model"], Direction::Asc).unwrap();
    sheet.view().unwrap();
    sheet.rename("Model", "Make").unwrap();
    let fresh = sheet.evaluate_now().unwrap();
    let v = sheet.view().unwrap();
    assert!(v.visible.contains(&"Make".to_string()));
    assert_eq!(*v, fresh);
}

#[test]
fn fast_path_tiebreak_matches_full_evaluation() {
    // Regression: a grouping+ordering arrangement followed by a
    // level-destroying ordering (Def. 4 case 1) leaves ties in the new
    // key; the fast path must break them by base order (like a full
    // evaluation), not by the previous presentation order.
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.view().unwrap(); // prime cache
    sheet.group(&["Condition"], Direction::Asc).unwrap();
    sheet.order("Price", Direction::Desc, 2).unwrap();
    sheet.view().unwrap(); // presentation now Condition/Price-ordered
                           // destroys the Condition grouping; new finest order = Year only,
                           // which has many ties
    sheet.order("Year", Direction::Asc, 1).unwrap();
    let fresh = sheet.evaluate_now().unwrap();
    assert_eq!(*sheet.view().unwrap(), fresh);
}
