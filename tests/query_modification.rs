//! Theorem 3, property-tested: "modifying an operation in a sequence of
//! operations without point of non-commutativity through query state
//! change is the same as rewriting query history."
//!
//! We generate random operator histories over the used-car data, pick a
//! selection in the middle, and compare
//!
//! * path A — apply the whole history, then edit the retained predicate
//!   through query state ([`Spreadsheet::replace_selection`] /
//!   [`Spreadsheet::remove_selection`]);
//! * path B — replay the history from scratch with the edit applied at
//!   the original position.

use sheetmusiq_repro::prelude::*;
use spreadsheet_algebra::fixtures::used_cars;
use ssa_relation::rng::Rng;

fn arb_predicate(rng: &mut Rng) -> Expr {
    match rng.gen_range(0..4usize) {
        0 => Expr::col("Price").lt(Expr::lit(rng.gen_range(13_000..19_000i64))),
        1 => Expr::col("Year").eq(Expr::lit(rng.gen_range(2004..2008i64))),
        2 => Expr::col("Mileage").lt(Expr::lit(rng.gen_range(20_000..100_000i64))),
        _ => Expr::col("Model").eq(Expr::lit(*rng.pick(&["Jetta", "Civic"]))),
    }
}

/// History steps, selection-weighted 4:5 like the original generator.
/// Aggregates use base numeric columns only so that their applicability
/// never depends on the data (only on the grouping depth, which selections
/// cannot change) — a failed step then fails identically on both paths.
fn arb_step(rng: &mut Rng) -> SheetOp {
    match rng.gen_range(0..9usize) {
        0..=3 => SheetOp::Select {
            predicate: arb_predicate(rng),
        },
        4 => SheetOp::Group {
            attributes: vec![rng.pick(&["Model", "Condition", "Year"]).to_string()],
            direction: Direction::Asc,
        },
        5 => SheetOp::Aggregate {
            func: *rng.pick(&[AggFunc::Avg, AggFunc::Count, AggFunc::Max]),
            column: rng.pick(&["Price", "Mileage"]).to_string(),
            level: rng.gen_range(1..=2usize),
        },
        6 => SheetOp::Order {
            attribute: rng.pick(&["Price", "Mileage", "ID"]).to_string(),
            direction: Direction::Desc,
            level: 1,
        },
        7 => SheetOp::ProjectOut {
            column: rng.pick(&["Mileage", "Condition"]).to_string(),
        },
        _ => SheetOp::Dedup,
    }
}

fn arb_steps(rng: &mut Rng, lo: usize, hi: usize) -> Vec<SheetOp> {
    (0..rng.gen_range(lo..hi)).map(|_| arb_step(rng)).collect()
}

/// Apply a history; selections return their ids in order.
fn apply_history(sheet: &mut Spreadsheet, steps: &[SheetOp]) -> Vec<Option<u64>> {
    steps
        .iter()
        .map(|op| sheet.apply(op).ok()?.selection().ok())
        .collect()
}

#[test]
fn theorem3_replace_equals_replay() {
    for case in 0..192u64 {
        let mut rng = Rng::seed_from_u64(0x3A01 ^ case);
        let steps = arb_steps(&mut rng, 1, 8);
        let new_pred = arb_predicate(&mut rng);
        // Path A: full history, then state edit.
        let mut a = Spreadsheet::over(used_cars());
        let ids = apply_history(&mut a, &steps);
        let selections: Vec<(usize, u64)> = ids
            .iter()
            .enumerate()
            .filter_map(|(i, id)| id.map(|id| (i, id)))
            .collect();
        if selections.is_empty() {
            continue;
        }
        let (step_idx, sel_id) = selections[rng.gen_range(0..selections.len())];
        a.replace_selection(sel_id, new_pred.clone())
            .expect("id is live");

        // Path B: replay with the edit at the original position.
        let mut b = Spreadsheet::over(used_cars());
        let mut edited = steps.clone();
        edited[step_idx] = SheetOp::Select {
            predicate: new_pred,
        };
        apply_history(&mut b, &edited);

        assert_eq!(a.evaluate_now(), b.evaluate_now(), "case {case}");
    }
}

#[test]
fn theorem3_remove_equals_replay_without() {
    for case in 0..192u64 {
        let mut rng = Rng::seed_from_u64(0x3B02 ^ case);
        let steps = arb_steps(&mut rng, 1, 8);
        let mut a = Spreadsheet::over(used_cars());
        let ids = apply_history(&mut a, &steps);
        let selections: Vec<(usize, u64)> = ids
            .iter()
            .enumerate()
            .filter_map(|(i, id)| id.map(|id| (i, id)))
            .collect();
        if selections.is_empty() {
            continue;
        }
        let (step_idx, sel_id) = selections[rng.gen_range(0..selections.len())];
        a.remove_selection(sel_id).expect("id is live");

        let mut b = Spreadsheet::over(used_cars());
        let mut edited = steps.clone();
        edited.remove(step_idx);
        apply_history(&mut b, &edited);

        assert_eq!(a.evaluate_now(), b.evaluate_now(), "case {case}");
    }
}

#[test]
fn reinstate_makes_projection_never_happen() {
    // Sec. V-B: "the semantics of the reinstatement are to rewrite
    // history, and make it as if the projection never took place."
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x3C03 ^ case);
        let steps = arb_steps(&mut rng, 0, 6);
        let mut a = Spreadsheet::over(used_cars());
        apply_history(&mut a, &steps);
        let hidden_before = a.state().projected_out.clone();
        if a.project_out("Price").is_ok() {
            a.reinstate("Price").expect("just hidden");
        }
        let mut b = Spreadsheet::over(used_cars());
        apply_history(&mut b, &steps);
        assert_eq!(a.evaluate_now(), b.evaluate_now(), "case {case}");
        assert_eq!(&a.state().projected_out, &hidden_before, "case {case}");
    }
}

#[test]
fn modification_blocked_behind_binary_operator() {
    // Selections made before a union are consumed at the point of
    // non-commutativity: they are no longer in the modifiable state.
    let mut s = Spreadsheet::over(used_cars());
    let id = s.select(Expr::col("Model").eq(Expr::lit("Jetta"))).unwrap();
    let stored = Spreadsheet::over(used_cars()).save("all").unwrap();
    s.union(&stored).unwrap();
    assert!(matches!(
        s.replace_selection(id, Expr::col("Model").eq(Expr::lit("Civic"))),
        Err(spreadsheet_algebra::SheetError::UnknownSelection { .. })
    ));
    // New selections after the point are modifiable as usual.
    let id2 = s.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
    s.replace_selection(id2, Expr::col("Year").eq(Expr::lit(2006)))
        .unwrap();
}

/// Apply one history step through the recording engine (so it can be
/// undone); `Some(id)` for a selection that took.
fn apply_recorded(e: &mut Engine, op: &SheetOp) -> Option<u64> {
    e.apply(op.clone()).ok()?.selection().ok()
}

/// The view of a warm, incrementally patched sheet must equal the naive
/// engine's fresh evaluation of the same state; the self-audit is on, so
/// a patch that diverges from the full pipeline fails inside `view`.
fn assert_view_matches_naive(e: &mut Engine, context: &str) {
    let naive = spreadsheet_algebra::EvalOptions { naive: true };
    let reference = spreadsheet_algebra::evaluate_with(e.sheet().base(), e.sheet().state(), naive);
    match (e.view().cloned(), reference) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{context}"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{context}: patched {a:?} vs naive {b:?}"),
    }
    let explained = e.sheet().explain().unwrap();
    assert!(
        explained.contains("failed patches: 0"),
        "{context}: a patch failed:\n{explained}"
    );
}

/// Theorem 3 on a warm cache: every history step is viewed as it lands
/// (so narrowings record the rows they set aside), then a retained
/// selection is loosened, replaced by an incomparable predicate, or
/// removed. The patched view must equal the replay with the edit at the
/// original position, and the naive engine.
#[test]
fn theorem3_on_a_warm_cache_equals_replay() {
    let mut widened = 0;
    for case in 0..192u64 {
        let mut rng = Rng::seed_from_u64(0x3D04 ^ case);
        let steps = arb_steps(&mut rng, 1, 8);
        let mut a = Engine::over(used_cars());
        a.sheet_mut().set_audit(true);
        a.view().unwrap();
        let mut ids = Vec::new();
        for op in &steps {
            ids.push(apply_recorded(&mut a, op));
            let _ = a.view();
        }
        let selections: Vec<(usize, u64)> = ids
            .iter()
            .enumerate()
            .filter_map(|(i, id)| id.map(|id| (i, id)))
            .collect();
        if selections.is_empty() {
            continue;
        }
        let (step_idx, sel_id) = selections[rng.gen_range(0..selections.len())];
        let SheetOp::Select { predicate: old } = &steps[step_idx] else {
            unreachable!("selection ids come from select steps");
        };
        let mut edited = steps.clone();
        match rng.gen_range(0..3usize) {
            0 => {
                let looser = old.clone().or(arb_predicate(&mut rng));
                a.apply(SheetOp::ReplaceSelection {
                    target: sel_id,
                    predicate: looser.clone(),
                })
                .unwrap();
                edited[step_idx] = SheetOp::Select { predicate: looser };
            }
            1 => {
                let other = arb_predicate(&mut rng);
                a.apply(SheetOp::ReplaceSelection {
                    target: sel_id,
                    predicate: other.clone(),
                })
                .unwrap();
                edited[step_idx] = SheetOp::Select { predicate: other };
            }
            _ => {
                a.apply(SheetOp::RemoveSelection { target: sel_id })
                    .unwrap();
                edited.remove(step_idx);
            }
        }
        widened += usize::from(matches!(
            a.sheet().last_delta(),
            spreadsheet_algebra::StateDelta::Widen { .. }
        ));
        let context = format!("case {case}");
        assert_view_matches_naive(&mut a, &context);
        let mut b = Spreadsheet::over(used_cars());
        apply_history(&mut b, &edited);
        assert_eq!(a.view().cloned(), b.evaluate_now(), "{context}: vs replay");
    }
    assert!(widened > 40, "the widening path ran only {widened} times");
}

/// Undo and redo of one or several steps on a warm cache: after each,
/// the state is exactly the recorded one and the patched view equals
/// the naive engine.
#[test]
fn undo_and_redo_on_a_warm_cache_match_the_recorded_states() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x3E05 ^ case);
        let steps = arb_steps(&mut rng, 2, 10);
        let mut e = Engine::over(used_cars());
        e.sheet_mut().set_audit(true);
        let mut states = vec![e.sheet().state().clone()];
        e.view().unwrap();
        for op in &steps {
            let before = e.records().len();
            apply_recorded(&mut e, op);
            if e.records().len() > before {
                states.push(e.sheet().state().clone());
            }
            let _ = e.view();
        }
        let mut at = states.len() - 1;
        for round in 0..6 {
            let context = format!("case {case}, round {round}");
            if rng.gen_bool(0.6) && at > 0 {
                let n = rng.gen_range(1..=at);
                e.undo_steps(n).unwrap();
                at -= n;
            } else if at + 1 < states.len() {
                let n = rng.gen_range(1..=states.len() - 1 - at);
                e.redo_steps(n).unwrap();
                at += n;
            }
            assert_eq!(e.sheet().state(), &states[at], "{context}: state");
            assert!(
                !matches!(
                    e.sheet().last_delta(),
                    spreadsheet_algebra::StateDelta::Full {
                        reason: "undo/redo restored a different base"
                    }
                ),
                "{context}: a state-only undo kept the base"
            );
            if rng.gen_bool(0.75) {
                assert_view_matches_naive(&mut e, &context);
            }
        }
    }
}
