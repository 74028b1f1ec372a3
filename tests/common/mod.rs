//! Shared randomized generators for the integration tests, driven by the
//! in-tree [`Rng`] (the workspace builds offline, without a property-test
//! crate). Each test derives its cases from a fixed base seed, so runs are
//! reproducible; on failure, tests print the case seed to replay.

#![allow(dead_code)]

use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::prelude::*;
use ssa_relation::rng::Rng;
use ssa_relation::AggFunc;

pub const COLUMNS: [&str; 6] = ["ID", "Model", "Price", "Year", "Mileage", "Condition"];
pub const NUMERIC_COLUMNS: [&str; 4] = ["ID", "Price", "Year", "Mileage"];

pub fn arb_column(rng: &mut Rng) -> &'static str {
    COLUMNS[rng.gen_range(0..COLUMNS.len())]
}

pub fn arb_numeric_column(rng: &mut Rng) -> &'static str {
    NUMERIC_COLUMNS[rng.gen_range(0..NUMERIC_COLUMNS.len())]
}

pub fn arb_direction(rng: &mut Rng) -> Direction {
    if rng.gen_bool(0.5) {
        Direction::Asc
    } else {
        Direction::Desc
    }
}

pub fn arb_predicate(rng: &mut Rng) -> Expr {
    match rng.gen_range(0..4usize) {
        0 => Expr::col(arb_numeric_column(rng)).lt(Expr::lit(rng.gen_range(13_000..19_000i64))),
        1 => Expr::col(arb_numeric_column(rng)).ge(Expr::lit(rng.gen_range(2004..2008i64))),
        2 => Expr::col("Model").eq(Expr::lit(*rng.pick(&["Jetta", "Civic", "Accord"]))),
        _ => Expr::col("Condition").eq(Expr::lit(*rng.pick(&["Good", "Excellent"]))),
    }
}

/// One random unary operator instance over the used-car columns — the same
/// distribution the proptest-based suite originally drew from. Grouping
/// adds a level under the current grouping (`SheetOp::Group` is relative).
pub fn arb_op(rng: &mut Rng) -> SheetOp {
    match rng.gen_range(0..7usize) {
        0 => SheetOp::Select {
            predicate: arb_predicate(rng),
        },
        1 => SheetOp::ProjectOut {
            column: arb_column(rng).to_string(),
        },
        2 => SheetOp::Aggregate {
            func: *rng.pick(&[
                AggFunc::Avg,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Count,
            ]),
            column: arb_numeric_column(rng).to_string(),
            level: rng.gen_range(1..=3usize),
        },
        3 => SheetOp::Formula {
            name: Some(rng.pick(&["Fa", "Fb", "Fc"]).to_string()),
            expr: Expr::col(arb_numeric_column(rng)).add(Expr::lit(1)),
        },
        4 => SheetOp::Dedup,
        5 => SheetOp::Group {
            attributes: vec![arb_column(rng).to_string()],
            direction: arb_direction(rng),
        },
        _ => SheetOp::Order {
            attribute: arb_column(rng).to_string(),
            direction: arb_direction(rng),
            level: rng.gen_range(1..=3usize),
        },
    }
}

/// A starting sheet with 0–2 preparatory operators applied (so pairs are
/// tested against grouped/filtered states too). Invalid preparatory steps
/// are simply skipped.
pub fn arb_sheet(rng: &mut Rng) -> Spreadsheet {
    let mut s = Spreadsheet::over(used_cars());
    for _ in 0..rng.gen_range(0..3usize) {
        let _ = s.apply(&arb_op(rng));
    }
    s
}
