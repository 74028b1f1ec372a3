//! Binary operators (Defs. 7–10) and points of non-commutativity:
//! asymmetry, multiset semantics, computed-column survival, and the
//! freezing of earlier state.

use sheetmusiq_repro::prelude::*;
use spreadsheet_algebra::fixtures::{dealers, used_cars};
use ssa_relation::schema::Schema;
use ssa_relation::ValueType::Int;
use ssa_relation::{Relation, Tuple};

fn store(mut sheet: Spreadsheet, name: &str) -> StoredSheet {
    let _ = &mut sheet;
    sheet.save(name).expect("save succeeds")
}

#[test]
fn product_is_asymmetric_in_presentation() {
    // "product is not symmetric … since the grouping and ordering would
    // be different" (Def. 7 discussion).
    let mut left = Spreadsheet::over(used_cars());
    left.group(&["Model"], Direction::Desc).unwrap();
    let left_stored = store(left.clone(), "cars_grouped");

    let mut right = Spreadsheet::over(dealers());
    right.group(&["City"], Direction::Asc).unwrap();
    let right_stored = store(right.clone(), "dealers_grouped");

    left.product(&right_stored).unwrap();
    right.product(&left_stored).unwrap();

    // same multiset of combined tuples (modulo column naming/order) …
    assert_eq!(left.view().unwrap().len(), right.view().unwrap().len());
    // … but different grouping: left groups by Model, right by City.
    assert!(left.state().spec.in_relative_basis("Model", 2));
    assert!(right.state().spec.in_relative_basis("City", 2));
}

#[test]
fn union_uses_current_sheets_presentation() {
    let mut jettas = Spreadsheet::over(used_cars());
    jettas
        .select(Expr::col("Model").eq(Expr::lit("Jetta")))
        .unwrap();
    let jettas_stored = store(jettas, "jettas");

    let mut current = Spreadsheet::over(used_cars());
    current
        .select(Expr::col("Model").eq(Expr::lit("Civic")))
        .unwrap();
    current.group(&["Year"], Direction::Desc).unwrap();
    current.union(&jettas_stored).unwrap();

    // grouping of the *current* sheet survives the union
    assert!(current.state().spec.in_relative_basis("Year", 2));
    let view = current.view().unwrap();
    assert_eq!(view.len(), 9);
    // 2006 group first (DESC): 423, 723, 725 (Jetta) + 879, 322 (Civic)
    let years = view.data.column_values("Year").unwrap();
    assert_eq!(years[0], Value::Int(2006));
    assert_eq!(years[8], Value::Int(2005));
}

#[test]
fn difference_cancels_one_duplicate_per_tuple() {
    // {t, t} − {t} = {t} (Sec. III-B).
    let schema = Schema::of(&[("x", Int)]);
    let doubled = Relation::with_rows(
        "doubled",
        schema.clone(),
        vec![
            ssa_relation::tuple![1],
            ssa_relation::tuple![1],
            ssa_relation::tuple![2],
        ],
    )
    .unwrap();
    let single = Relation::with_rows("single", schema, vec![ssa_relation::tuple![1]]).unwrap();

    let mut sheet = Spreadsheet::over(doubled);
    let stored = store(Spreadsheet::over(single), "single");
    sheet.difference(&stored).unwrap();
    let view = sheet.view().unwrap();
    assert_eq!(view.len(), 2);
    let xs = view.data.column_values("x").unwrap();
    assert!(xs.contains(&Value::Int(1)) && xs.contains(&Value::Int(2)));
}

#[test]
fn join_condition_can_mix_both_sides_arithmetic() {
    let mut sheet = Spreadsheet::over(used_cars());
    let stored = store(Spreadsheet::over(dealers()), "dealers");
    // join on Model equality AND a price floor — arbitrary SQL-supported F
    sheet
        .join(
            &stored,
            Expr::col("Model")
                .eq(Expr::col("dealers.Model"))
                .and(Expr::col("Price").gt(Expr::lit(15000))),
        )
        .unwrap();
    let view = sheet.view().unwrap();
    // cars > 15000: 901, 423, 723, 725 (Jetta ×1 dealer), 322 (Civic ×2)
    assert_eq!(view.len(), 4 + 2);
}

#[test]
fn epoch_counts_points_of_non_commutativity() {
    let mut sheet = Spreadsheet::over(used_cars());
    let stored = store(Spreadsheet::over(used_cars()), "all");
    assert_eq!(sheet.epoch(), 0);
    sheet.union(&stored).unwrap();
    assert_eq!(sheet.epoch(), 1);
    sheet.difference(&stored).unwrap();
    assert_eq!(sheet.epoch(), 2);
}

#[test]
fn selections_before_binary_are_baked_into_data() {
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
    let stored = store(Spreadsheet::over(used_cars()), "all");
    sheet.union(&stored).unwrap();
    // the 2005 filter was applied to the left operand before the union:
    // 4 + 9 = 13 rows, and the filter is no longer in the state.
    assert_eq!(sheet.view().unwrap().len(), 13);
    assert!(sheet.state().selections.is_empty());
    // removing rows now requires a *new* selection, which applies to the
    // whole union result.
    sheet.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
    assert_eq!(sheet.view().unwrap().len(), 8); // 4 + 4
}

#[test]
fn projections_survive_binary_operators() {
    let mut sheet = Spreadsheet::over(used_cars());
    sheet.project_out("Mileage").unwrap();
    let stored = store(Spreadsheet::over(used_cars()), "all");
    sheet.union(&stored).unwrap();
    assert!(!sheet
        .view()
        .unwrap()
        .visible
        .contains(&"Mileage".to_string()));
    // and the hidden column still exists in R for later reinstatement
    sheet.reinstate("Mileage").unwrap();
    assert!(sheet
        .view()
        .unwrap()
        .visible
        .contains(&"Mileage".to_string()));
}

/// Multiset identity: (A ∪ B) − B == A, for random small relations.
#[test]
fn union_then_difference_is_identity() {
    use ssa_relation::rng::Rng;
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0xB1AA ^ case);
        let xs: Vec<i64> = (0..rng.gen_range(0..12usize))
            .map(|_| rng.gen_range(0..5i64))
            .collect();
        let ys: Vec<i64> = (0..rng.gen_range(0..12usize))
            .map(|_| rng.gen_range(0..5i64))
            .collect();
        let schema = Schema::of(&[("x", Int)]);
        let a = Relation::with_rows(
            "a",
            schema.clone(),
            xs.iter()
                .map(|&x| Tuple::new(vec![Value::Int(x)]))
                .collect(),
        )
        .unwrap();
        let b = Relation::with_rows(
            "b",
            schema,
            ys.iter()
                .map(|&y| Tuple::new(vec![Value::Int(y)]))
                .collect(),
        )
        .unwrap();

        let mut sheet = Spreadsheet::over(a.clone());
        let stored_b = Spreadsheet::over(b).save("b").unwrap();
        sheet.union(&stored_b).unwrap();
        sheet.difference(&stored_b).unwrap();
        let result = sheet.evaluate_now().unwrap().visible_relation().unwrap();
        assert!(result.multiset_eq(&a), "case {case}");
    }
}

mod join_differentials {
    //! Randomized differentials for the hash-join engine:
    //! `join(l, r, F)` must equal `select(product(l, r), F)` — the
    //! definitional oracle — *row for row*, across conditions with
    //! single/multi equi-keys, residuals, no equi-conjunct at all,
    //! NULL keys and duplicate keys, sequentially and parallel.

    use ssa_relation::ops::{self, oracle};
    use ssa_relation::rng::Rng;
    use ssa_relation::schema::Schema;
    use ssa_relation::ValueType::{Int, Str};
    use ssa_relation::{Expr, Relation, Tuple, Value};

    /// Small domains so every case has duplicate keys; ~1/6 NULLs so
    /// every case exercises the Null-keys-never-match rule.
    fn arb_rows(rng: &mut Rng, n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|_| {
                let key = if rng.gen_bool(1.0 / 6.0) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..6i64))
                };
                let s = if rng.gen_bool(1.0 / 6.0) {
                    Value::Null
                } else {
                    Value::str(*rng.pick(&["a", "b", "c"]))
                };
                let v = Value::Int(rng.gen_range(-20..20i64));
                Tuple::new(vec![key, s, v])
            })
            .collect()
    }

    fn operands(rng: &mut Rng) -> (Relation, Relation) {
        let nl = rng.gen_range(0..40usize);
        let nr = rng.gen_range(0..40usize);
        let left = Relation::with_rows(
            "l",
            Schema::of(&[("k", Int), ("s", Str), ("v", Int)]),
            arb_rows(rng, nl),
        )
        .unwrap();
        let right = Relation::with_rows(
            "r",
            Schema::of(&[("j", Int), ("t", Str), ("w", Int)]),
            arb_rows(rng, nr),
        )
        .unwrap();
        (left, right)
    }

    /// The condition shapes the planner must get right: pure equi,
    /// multi-key, equi + residual, disjunction (no extractable key),
    /// pure inequality (nested-loop fallback).
    fn arb_condition(case: u64) -> Expr {
        match case % 5 {
            0 => Expr::col("k").eq(Expr::col("j")),
            1 => Expr::col("k")
                .eq(Expr::col("j"))
                .and(Expr::col("s").eq(Expr::col("t"))),
            2 => Expr::col("k")
                .eq(Expr::col("j"))
                .and(Expr::col("v").lt(Expr::col("w"))),
            3 => Expr::col("k")
                .eq(Expr::col("j"))
                .or(Expr::col("v").add(Expr::col("w")).gt(Expr::lit(30))),
            _ => Expr::col("v").lt(Expr::col("w")),
        }
    }

    #[test]
    fn hash_join_equals_select_of_product() {
        for case in 0..200u64 {
            let mut rng = Rng::seed_from_u64(0x10A5 ^ (case << 7));
            let (left, right) = operands(&mut rng);
            let cond = arb_condition(case);
            let expected = oracle::join(&left, &right, &cond).unwrap();
            // The hash plan and the forced nested loop both agree with
            // the oracle, in the oracle's row order.
            for joined in [
                ops::join(&left, &right, &cond).unwrap(),
                ops::join_nested(&left, &right, &cond).unwrap(),
            ] {
                assert_eq!(
                    joined.rows(),
                    expected.rows(),
                    "case {case} condition {cond}"
                );
                assert_eq!(joined.schema(), expected.schema(), "case {case}");
            }
        }
    }

    #[test]
    fn hashed_distinct_difference_union_match_oracle() {
        for case in 0..200u64 {
            let mut rng = Rng::seed_from_u64(0xD1FF ^ (case << 7));
            let (a, _) = operands(&mut rng);
            // Same columns, reversed order: alignment by name must hold.
            let nb = rng.gen_range(0..40usize);
            let b = Relation::with_rows(
                "b",
                Schema::of(&[("v", Int), ("s", Str), ("k", Int)]),
                arb_rows(&mut rng, nb)
                    .into_iter()
                    .map(|t| t.project(&[2, 1, 0]))
                    .collect(),
            )
            .unwrap();
            assert_eq!(
                ops::distinct(&a).unwrap().rows(),
                oracle::distinct(&a).unwrap().rows(),
                "case {case}"
            );
            assert_eq!(
                ops::difference(&a, &b).unwrap().rows(),
                oracle::difference(&a, &b).unwrap().rows(),
                "case {case}"
            );
            assert_eq!(
                ops::union_all(&a, &b).unwrap().rows(),
                oracle::union_all(&a, &b).unwrap().rows(),
                "case {case}"
            );
        }
    }

    #[test]
    fn product_matches_oracle() {
        for case in 0..32u64 {
            let mut rng = Rng::seed_from_u64(0xF00D ^ (case << 7));
            let (left, right) = operands(&mut rng);
            assert_eq!(
                ops::product(&left, &right).unwrap().rows(),
                oracle::product(&left, &right).unwrap().rows(),
                "case {case}"
            );
        }
    }
}

/// Product cardinality: |A × B| = |A|·|B| with retained selections
/// applied first.
#[test]
fn product_cardinality() {
    use ssa_relation::rng::Rng;
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0xCA4D ^ case);
        let threshold = rng.gen_range(13_000..19_000i64);
        let mut sheet = Spreadsheet::over(used_cars());
        sheet
            .select(Expr::col("Price").lt(Expr::lit(threshold)))
            .unwrap();
        let kept = sheet.evaluate_now().unwrap().len();
        let stored = Spreadsheet::over(dealers()).save("d").unwrap();
        sheet.product(&stored).unwrap();
        assert_eq!(sheet.evaluate_now().unwrap().len(), kept * 3, "case {case}");
    }
}
