//! Theorem 2, property-tested: whenever [`may_commute`] approves a pair
//! of unary operator instances, applying them in either order yields the
//! *identical* evaluated spreadsheet (data, grouping tree, and visible
//! columns).
//!
//! The generator draws from every unary operator of the algebra —
//! selection, projection, aggregation, formula computation, duplicate
//! elimination, grouping and ordering — over the paper's used-car data.

mod common;

use common::{arb_op, arb_sheet};
use sheetmusiq_repro::prelude::*;
use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::{may_commute, SheetError};
use ssa_relation::rng::Rng;

type Outcome = Result<spreadsheet_algebra::Derived, SheetError>;

fn run(sheet: &Spreadsheet, first: &SheetOp, second: &SheetOp) -> Outcome {
    let mut s = sheet.clone();
    s.apply(first)?;
    s.apply(second)?;
    s.evaluate_now()
}

#[test]
fn theorem2_commuting_pairs_agree() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x7E02 ^ case);
        let sheet = arb_sheet(&mut rng);
        let a = arb_op(&mut rng);
        let b = arb_op(&mut rng);
        if may_commute(&a, &b, &sheet) {
            let ab = run(&sheet, &a, &b);
            let ba = run(&sheet, &b, &a);
            match (ab, ba) {
                (Ok(x), Ok(y)) => assert!(
                    x.equivalent(&y),
                    "case {case}: approved pair produced different sheets: {a:?} / {b:?}"
                ),
                // An approved pair must at least fail identically in both
                // orders (e.g. an aggregate level that does not exist).
                (Err(_), Err(_)) => {}
                (x, y) => panic!(
                    "case {case}: approved pair {a:?} / {b:?} succeeded in one order only: \
                     {:?} vs {:?}",
                    x.is_ok(),
                    y.is_ok()
                ),
            }
        }
    }
}

#[test]
fn evaluation_is_pure() {
    // Same state evaluated twice gives the same result — the engine
    // fact underlying both theorems.
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x9E01 ^ case);
        let sheet = arb_sheet(&mut rng);
        let a = sheet.evaluate_now();
        let b = sheet.evaluate_now();
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn operators_never_panic() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0xA703 ^ case);
        let sheet = arb_sheet(&mut rng);
        let op = arb_op(&mut rng);
        let mut s = sheet.clone();
        // Result may be Ok or a typed error, but never a panic.
        let _ = s.apply(&op);
        let _ = s.evaluate_now();
    }
}

#[test]
fn known_noncommuting_pair_is_rejected() {
    // Regression guard: aggregation then dependent selection must never be
    // approved (precedence).
    let sheet = Spreadsheet::over(used_cars());
    let agg = SheetOp::Aggregate {
        func: AggFunc::Avg,
        column: "Price".into(),
        level: 1,
    };
    let dep = SheetOp::Select {
        predicate: Expr::col("Price").lt(Expr::col("Avg_Price")),
    };
    assert!(!may_commute(&agg, &dep, &sheet));
}

#[test]
fn relative_grouping_conflicts_with_hiding_its_current_basis() {
    // `Group` adds a level under the current grouping, so it requires the
    // whole resulting basis: hiding `Model` must not commute with it.
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.group(&["Model"], Direction::Asc).unwrap();
    let group_year = SheetOp::Group {
        attributes: vec!["Year".into()],
        direction: Direction::Asc,
    };
    let hide = |column: &str| SheetOp::ProjectOut {
        column: column.into(),
    };
    assert!(!may_commute(&group_year, &hide("Model"), &sheet));
    assert!(may_commute(&group_year, &hide("Mileage"), &sheet));
}
