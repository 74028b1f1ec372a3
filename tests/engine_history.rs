//! History/undo properties of the [`Engine`] — "rapid incremental
//! reversible operations" (direct-manipulation desideratum iii).
//!
//! * undoing everything returns exactly to the base spreadsheet;
//! * undo then redo is an identity;
//! * the history listing always matches the operations that succeeded.

use sheetmusiq_repro::prelude::*;
use spreadsheet_algebra::fixtures::{dealers, used_cars};
use ssa_relation::rng::Rng;
use ssa_relation::tuple;

fn arb_op(rng: &mut Rng) -> SheetOp {
    match rng.gen_range(0..7usize) {
        0 => SheetOp::Select {
            predicate: Expr::col("Price").lt(Expr::lit(rng.gen_range(13_000..19_000i64))),
        },
        1 => SheetOp::Select {
            predicate: Expr::col("Model").eq(Expr::lit(*rng.pick(&["Jetta", "Civic"]))),
        },
        2 => SheetOp::Group {
            attributes: vec![rng.pick(&["Model", "Condition", "Year"]).to_string()],
            direction: Direction::Asc,
        },
        3 => SheetOp::Aggregate {
            func: *rng.pick(&[AggFunc::Avg, AggFunc::Count]),
            column: "Price".into(),
            level: rng.gen_range(1..=2usize),
        },
        4 => SheetOp::ProjectOut {
            column: rng.pick(&["Mileage", "Condition", "ID"]).to_string(),
        },
        5 => SheetOp::Dedup,
        _ => SheetOp::Order {
            attribute: rng.pick(&["Price", "Mileage"]).to_string(),
            direction: Direction::Desc,
            level: rng.gen_range(1..=2usize),
        },
    }
}

fn arb_ops(rng: &mut Rng, lo: usize, hi: usize) -> Vec<SheetOp> {
    (0..rng.gen_range(lo..hi)).map(|_| arb_op(rng)).collect()
}

/// Apply an op through the engine, counting only successes.
fn apply(engine: &mut Engine, op: &SheetOp) -> bool {
    engine.apply(op.clone()).is_ok()
}

#[test]
fn undo_everything_restores_base() {
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0x0A11 ^ case);
        let ops = arb_ops(&mut rng, 0, 10);
        let mut engine = Engine::over(used_cars());
        let baseline = engine.sheet().evaluate_now().unwrap();
        let succeeded = ops.iter().filter(|op| apply(&mut engine, op)).count();
        assert_eq!(engine.history().len(), succeeded, "case {case}");
        engine.undo_steps(succeeded).unwrap();
        assert_eq!(
            engine.sheet().evaluate_now().unwrap(),
            baseline,
            "case {case}"
        );
        assert!(engine.history().is_empty(), "case {case}");
    }
}

#[test]
fn undo_redo_round_trip() {
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0x0B22 ^ case);
        let ops = arb_ops(&mut rng, 1, 10);
        let k = rng.gen_range(1..5usize);
        let mut engine = Engine::over(used_cars());
        let succeeded = ops.iter().filter(|op| apply(&mut engine, op)).count();
        if succeeded == 0 {
            continue;
        }
        let before = engine.sheet().evaluate_now().unwrap();
        let k = k.min(succeeded);
        engine.undo_steps(k).unwrap();
        engine.redo_steps(k).unwrap();
        assert_eq!(
            engine.sheet().evaluate_now().unwrap(),
            before,
            "case {case}"
        );
        // redo stack is exhausted again
        assert!(engine.redo().is_err(), "case {case}");
    }
}

#[test]
fn history_entries_are_numbered_and_named() {
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0x0C33 ^ case);
        let ops = arb_ops(&mut rng, 0, 8);
        let mut engine = Engine::over(used_cars());
        for op in &ops {
            apply(&mut engine, op);
        }
        for (i, line) in engine.history().iter().enumerate() {
            assert!(
                line.starts_with(&format!("{}. ", i + 1)),
                "bad numbering: {line}"
            );
            assert!(line.len() > 4, "entry has a name: {line}");
        }
    }
}

#[test]
fn failed_ops_never_change_the_sheet() {
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0x0D44 ^ case);
        let ops = arb_ops(&mut rng, 0, 8);
        let mut engine = Engine::over(used_cars());
        for op in &ops {
            let before = engine.sheet().evaluate_now();
            if !apply(&mut engine, op) {
                assert_eq!(engine.sheet().evaluate_now(), before, "case {case}");
            }
        }
    }
}

#[test]
fn undo_across_save_does_not_affect_stored_snapshot() {
    let mut engine = Engine::over(used_cars());
    engine
        .apply(SheetOp::Select {
            predicate: Expr::col("Model").eq(Expr::lit("Jetta")),
        })
        .unwrap();
    let stored = engine.save("jettas").unwrap();
    engine.undo().unwrap();
    // the live sheet is back to 9 rows, the snapshot still has 6
    assert_eq!(engine.view().unwrap().len(), 9);
    assert_eq!(stored.relation.len(), 6);
}

/// Every `SheetOp` kind, each binary operator and cascading removal,
/// applied through the engine: the exact History line of each.
#[test]
fn every_recorded_operator_has_its_history_line() {
    let col = |name: &str| name.to_string();
    let mut e = Engine::over(used_cars());
    let id = e
        .apply(SheetOp::Select {
            predicate: Expr::col("Year").ge(Expr::lit(2005)),
        })
        .unwrap()
        .selection()
        .unwrap();
    let group = |attribute: &str| SheetOp::Group {
        attributes: vec![col(attribute)],
        direction: Direction::Asc,
    };
    let ops = [
        SheetOp::ReplaceSelection {
            target: id,
            predicate: Expr::col("Year").ge(Expr::lit(2004)),
        },
        group("Model"),
        SheetOp::Regroup {
            attributes: vec![col("Year")],
            direction: Direction::Desc,
        },
        SheetOp::Ungroup,
        group("Model"),
        SheetOp::Order {
            attribute: col("Price"),
            direction: Direction::Desc,
            level: 2,
        },
        SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: col("Price"),
            level: 2,
        },
        SheetOp::Formula {
            name: Some(col("Delta")),
            expr: Expr::col("Price").sub(Expr::col("Avg_Price")),
        },
        SheetOp::Formula {
            name: None,
            expr: Expr::col("Price").mul(Expr::lit(2)),
        },
        SheetOp::RemoveComputed { name: col("F1") },
        SheetOp::ProjectOut {
            column: col("Mileage"),
        },
        SheetOp::Reinstate {
            column: col("Mileage"),
        },
        SheetOp::Dedup,
        SheetOp::Rename {
            from: col("Condition"),
            to: col("State"),
        },
        SheetOp::RemoveSelection { target: id },
        SheetOp::AppendRows {
            rows: vec![tuple![999, "Jetta", 15500, 2005, 60000, "Good"]],
        },
        SheetOp::UpdateCell {
            row: 9,
            column: col("Price"),
            value: Value::Int(15750),
        },
        SheetOp::DeleteRows { ids: vec![9] },
    ];
    for op in ops {
        e.apply(op).unwrap();
    }
    e.remove_with_cascade("Delta").unwrap();
    let dealers = Engine::over(dealers()).save("dealers").unwrap();
    e.product(&dealers).unwrap();
    e.join(&dealers, Expr::col("Model").eq(Expr::col("dealers.Model")))
        .unwrap();
    let all = Engine::over(used_cars()).save("all").unwrap();
    let mut u = Engine::over(used_cars());
    u.union(&all).unwrap();
    u.difference(&all).unwrap();
    assert_eq!(
        e.history(),
        [
            "1. Select [Year >= 2005] (#0)",
            "2. Modify selection #0 to [Year >= 2004]",
            "3. Group by {Model} ASC",
            "4. Regroup by {Year} DESC",
            "5. Remove grouping",
            "6. Group by {Model} ASC",
            "7. Order level 2 by Price DESC",
            "8. Aggregate Avg_Price = Avg(Price) at level 2",
            "9. Formula Delta = (Price - Avg_Price)",
            "10. Formula F1 = (Price * 2)",
            "11. Remove column F1",
            "12. Project out Mileage",
            "13. Reinstate Mileage",
            "14. Remove duplicates",
            "15. Rename Condition to State",
            "16. Remove selection #0",
            "17. Append 1 row(s)",
            "18. Update Price of base row 9",
            "19. Delete 1 row(s)",
            "20. Cascade: remove column Delta",
            "21. Product with dealers",
            "22. Join with dealers on Model = dealers.Model",
        ]
    );
    assert_eq!(u.history(), ["1. Union with all", "2. Difference with all"]);
    assert_eq!(
        e.undo().unwrap(),
        "Join with dealers on Model = dealers.Model"
    );
}
