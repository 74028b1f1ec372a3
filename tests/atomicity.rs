//! Transactional-edit guarantees (DESIGN.md §12).
//!
//! Every mutating `Spreadsheet` operation is atomic: if it returns `Err`
//! — whether from its own validation, from the bounded trial evaluation,
//! or from an injected fault — the sheet is a perfect no-op versus its
//! pre-edit self: same state, same epoch, and a subsequent `view()`
//! yields the identical derived result.
//!
//! The `injected` module (compiled under `--features fault-injection`)
//! drives randomized edit sequences where every operation is attempted
//! twice: once with a failpoint armed, once clean, with a naive-engine
//! oracle replaying the clean applications alongside.

mod common;

#[cfg(feature = "fault-injection")]
use common::{arb_op, arb_sheet};
use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::{ComputedColumn, SheetError};

/// Serialize against the fault-injection registry when it is compiled
/// in: armed sites are process-global, so tests that arm (or might trip)
/// them must not interleave. Without the feature there is nothing to
/// serialize.
#[cfg(feature = "fault-injection")]
fn test_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
    Some(ssa_relation::fault::lock())
}
#[cfg(not(feature = "fault-injection"))]
fn test_lock() -> Option<()> {
    None
}

/// The two sheets are indistinguishable: same base data and data
/// version, same query state, same epoch, and the same evaluated view.
fn assert_identical(a: &mut Spreadsheet, b: &mut Spreadsheet, ctx: &str) {
    assert_eq!(a.base(), b.base(), "{ctx}: base diverged");
    assert_eq!(a.version(), b.version(), "{ctx}: version diverged");
    assert_eq!(a.state(), b.state(), "{ctx}: state diverged");
    assert_eq!(a.epoch(), b.epoch(), "{ctx}: epoch diverged");
    let va = a.view().expect("left view").clone();
    let vb = b.view().expect("right view");
    assert_eq!(&va, vb, "{ctx}: view diverged");
}

#[test]
fn naturally_failing_edits_are_perfect_no_ops() {
    let _guard = test_lock();
    let mut s = Spreadsheet::over(used_cars());
    s.group(&["Model"], Direction::Asc).unwrap();
    let avg = s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.view().unwrap();
    let mut baseline = s.clone();

    // One representative failure per operator family.
    assert!(s.select(Expr::col("Ghost").lt(Expr::lit(1))).is_err());
    assert!(s.group(&["Model"], Direction::Asc).is_err()); // not a strict superset
    assert!(s.ungroup().is_err()); // aggregate depends on the grouping
    assert!(s.regroup(&["Year"], Direction::Asc).is_err()); // ditto
    assert!(s.aggregate(AggFunc::Avg, "Model", 2).is_err()); // non-numeric
    assert!(s.formula(Some(&avg), Expr::lit(1)).is_err()); // duplicate name
    assert!(s
        .formula(None, Expr::col("Ghost").add(Expr::lit(1)))
        .is_err());
    assert!(s.order("Price", Direction::Asc, 9).is_err()); // no such level
    assert!(s.project_out("Ghost").is_err());
    assert!(s.reinstate("Price").is_err()); // not hidden
    assert!(s.rename("Ghost", "G2").is_err());
    assert!(s.rename("Price", "Model").is_err()); // target exists
    assert!(s.remove_selection(999).is_err());
    assert!(s.replace_selection(999, Expr::lit(true)).is_err());
    assert!(s.remove_computed("Price").is_err()); // not computed

    assert_identical(&mut s, &mut baseline, "after natural failures");
}

#[test]
fn trial_evaluation_rejects_edits_that_cannot_evaluate() {
    let _guard = test_lock();
    let mut s = Spreadsheet::over(used_cars());
    s.view().unwrap();
    let mut baseline = s.clone();

    // Columns all exist, so static validation passes — only the trial
    // evaluation can catch the division by zero. Before edits were
    // transactional this committed and poisoned every later `view`.
    let zero = Expr::col("Year").sub(Expr::col("Year"));
    let res = s.formula(Some("Bad"), Expr::col("Price").div(zero));
    assert!(res.is_err(), "divide-by-zero formula must be refused");
    assert_identical(&mut s, &mut baseline, "after rejected formula");

    // The sheet is fully usable afterwards.
    s.select(Expr::col("Price").lt(Expr::lit(20_000))).unwrap();
    assert!(s.view().is_ok());
}

#[test]
fn failed_binary_operator_leaves_epoch_and_state_alone() {
    let _guard = test_lock();
    let mut s = Spreadsheet::over(used_cars());
    s.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
    s.view().unwrap();
    let mut baseline = s.clone();

    // Dealers has a different schema: union/difference are incompatible.
    let other = Spreadsheet::over(spreadsheet_algebra::fixtures::dealers())
        .save("dealers")
        .unwrap();
    assert!(matches!(
        s.union(&other),
        Err(SheetError::NotCompatible { .. })
    ));
    assert!(matches!(
        s.difference(&other),
        Err(SheetError::NotCompatible { .. })
    ));
    assert!(s.join(&other, Expr::col("Ghost").eq(Expr::lit(1))).is_err());
    assert_identical(&mut s, &mut baseline, "after failed binary operators");
}

#[test]
fn open_validates_stored_sheets() {
    let _guard = test_lock();
    let s = Spreadsheet::over(used_cars());
    let stored = s.save("cars").unwrap();
    assert!(Spreadsheet::open(&stored).is_ok());

    // A computed column referencing a column the relation doesn't have.
    let mut bad = stored.clone();
    bad.state.computed.push(ComputedColumn::formula(
        "Broken",
        Expr::col("Ghost").add(Expr::lit(1)),
    ));
    assert!(matches!(
        Spreadsheet::open(&bad),
        Err(SheetError::InvalidStored { .. })
    ));

    // A computed column clashing with a base column.
    let mut clash = stored.clone();
    clash
        .state
        .computed
        .push(ComputedColumn::formula("Price", Expr::lit(1)));
    assert!(matches!(
        Spreadsheet::open(&clash),
        Err(SheetError::InvalidStored { .. })
    ));

    // Mutually recursive computed definitions.
    let mut cyclic = stored.clone();
    cyclic.state.computed.push(ComputedColumn::formula(
        "A",
        Expr::col("B").add(Expr::lit(1)),
    ));
    cyclic.state.computed.push(ComputedColumn::formula(
        "B",
        Expr::col("A").add(Expr::lit(1)),
    ));
    assert!(matches!(
        Spreadsheet::open(&cyclic),
        Err(SheetError::InvalidStored { .. })
    ));

    // An ordering key over a ghost column.
    let mut bad_order = stored.clone();
    bad_order
        .state
        .spec
        .finest_order
        .push(OrderKey::new("Ghost", Direction::Asc));
    assert!(matches!(
        Spreadsheet::open(&bad_order),
        Err(SheetError::InvalidStored { .. })
    ));
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use spreadsheet_algebra::StateDelta;
    use ssa_relation::fault::{self, Behavior};
    use ssa_relation::rng::Rng;
    use ssa_relation::{Relation, RelationError, Schema, Tuple, Value, ValueType};
    use std::sync::Arc;

    /// One step of the randomized atomicity suite: a unary operator, or
    /// a rebase onto an extension of the current base — `k` rows
    /// appended to a clone of `base_arc()`, as a snapshot host publishes
    /// them — so the armed sites also meet the rebase patch path.
    #[derive(Debug)]
    enum Step {
        Op(SheetOp),
        Extend(Vec<Tuple>),
    }

    impl Step {
        fn apply(&self, sheet: &mut Spreadsheet) -> spreadsheet_algebra::Result<()> {
            match self {
                Step::Op(op) => sheet.apply(op).map(drop),
                Step::Extend(rows) => {
                    let mut base = (*sheet.base_arc()).clone();
                    base.append_rows(rows.clone())?;
                    sheet.rebase(Arc::new(base))
                }
            }
        }
    }

    fn arb_step(rng: &mut Rng) -> Step {
        if rng.gen_range(0..4usize) > 0 {
            return Step::Op(arb_op(rng));
        }
        let k = rng.gen_range(1..=3usize);
        let rows = (0..k)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int(rng.gen_range(900..999i64)),
                    Value::str(*rng.pick(&["Jetta", "Civic", "Accord"])),
                    Value::Int(rng.gen_range(12_000..19_000i64)),
                    Value::Int(rng.gen_range(2003..2008i64)),
                    Value::Int(rng.gen_range(20_000..90_000i64)),
                    Value::str(*rng.pick(&["Good", "Excellent"])),
                ])
            })
            .collect();
        Step::Extend(rows)
    }

    /// Every named failpoint the library crates expose.
    const SITES: &[&str] = &[
        "eval.filter",
        "eval.materialize",
        "eval.gather",
        "delta.classify",
        "delta.narrow",
        "delta.widen",
        "delta.append",
        "delta.remove",
        "delta.base_append",
        "delta.base_retract",
        "ops.product",
        "ops.join",
        "ops.union",
        "ops.difference",
        "par.chunk",
        "persist.save",
        "persist.open",
        "persist.bin_write",
        "persist.bin_read",
    ];

    /// The tentpole pin: randomized edit sequences where every operation
    /// is attempted twice — once against a scratch clone with a failpoint
    /// armed, once clean against the main sheet and a naive-engine
    /// oracle. An injected `Err` must be a perfect no-op; an `Ok` (the
    /// site was off-path, or `view`'s fallback masked it) must match the
    /// clean application exactly.
    #[test]
    fn randomized_injected_edits_are_atomic() {
        let _guard = fault::lock();
        let mut rng = Rng::seed_from_u64(0xA70_311C_17E5);
        for case in 0..40u64 {
            let mut sheet = arb_sheet(&mut rng);
            sheet.view().unwrap(); // warm the cache so delta sites are reachable
            let mut oracle = sheet.clone();
            oracle.set_naive_eval(true);
            for step in 0..4u64 {
                let op = arb_step(&mut rng);
                let site = SITES[rng.gen_range(0..SITES.len())];
                let nth = rng.gen_range(1..=2u64);
                let ctx = format!("case {case} step {step} op {op:?} site {site}@{nth}");

                // Attempt 1: fault-injected, on a scratch clone.
                let mut scratch = sheet.clone();
                fault::arm(site, nth, Behavior::Error);
                let injected = op.apply(&mut scratch);
                fault::disarm(site);
                if injected.is_err() {
                    assert_identical(&mut scratch, &mut sheet.clone(), &ctx);
                }

                // Attempt 2: clean, on the main sheet and the oracle.
                let clean = op.apply(&mut sheet);
                let oracle_res = op.apply(&mut oracle);
                assert_eq!(clean.is_ok(), oracle_res.is_ok(), "{ctx}: outcome split");
                if clean.is_ok() {
                    let view = sheet.view().unwrap().clone();
                    let oracle_view = oracle.view().unwrap();
                    assert_eq!(&view, oracle_view, "{ctx}: engines diverged");
                    if injected.is_ok() {
                        // The armed attempt committed; it must have
                        // produced exactly the clean result.
                        assert_identical(&mut scratch, &mut sheet.clone(), &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn injected_binary_operator_failures_roll_back_completely() {
        let _guard = fault::lock();
        let mut base = Spreadsheet::over(used_cars());
        base.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
        base.view().unwrap();
        let stored = Spreadsheet::over(used_cars()).save("other").unwrap();

        for site in ["ops.union", "eval.filter", "eval.materialize"] {
            let mut s = base.clone();
            fault::arm(site, 1, Behavior::Error);
            let res = s.union(&stored);
            fault::disarm(site);
            if res.is_err() {
                assert_identical(&mut s, &mut base.clone(), site);
            } else {
                // Only sites off the evaluation path may be missed.
                assert_ne!(site, "ops.union", "ops.union must be on the union path");
            }
        }

        // A fault *after* the combine — in the trial evaluation of the
        // committed epoch — must also restore the pre-union sheet.
        let mut s = base.clone();
        fault::arm("eval.filter", 2, Behavior::Error);
        let res = s.union(&stored);
        fault::disarm("eval.filter");
        if res.is_err() {
            assert_identical(&mut s, &mut base.clone(), "trial-eval fault");
        }
    }

    /// Satellite pin (DESIGN.md §14): a fault injected mid-way through a
    /// streaming base-data patch must leave the sheet at its pre-edit
    /// snapshot — base relation, query state, epoch and evaluated view
    /// all bitwise identical — even though the base row was already
    /// appended (or removed, or overwritten) when the failpoint tripped.
    #[test]
    fn injected_base_edit_failures_roll_back_completely() {
        let _guard = fault::lock();
        let mut base = Spreadsheet::over(used_cars());
        base.group(&["Model"], Direction::Asc).unwrap();
        base.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        base.order("Price", Direction::Asc, 2).unwrap();
        base.view().unwrap(); // warm: the failing edits patch, not re-evaluate

        // Append: the row is in the base when the failpoint fires; the
        // rollback must pull it back out.
        let mut s = base.clone();
        fault::arm("delta.base_append", 1, Behavior::Error);
        let res = s.append_rows(vec![ssa_relation::tuple![
            999, "Jetta", 15_500, 2005, 60_000, "Good"
        ]]);
        fault::disarm("delta.base_append");
        assert!(res.is_err(), "armed append must surface the fault");
        assert_eq!(s.base().len(), 9, "appended row must be rolled back");
        assert_identical(&mut s, &mut base.clone(), "failed append");

        // Delete: the rows are already out of the base; the rollback
        // reinserts them at their original positions.
        let mut s = base.clone();
        fault::arm("delta.base_retract", 1, Behavior::Error);
        let res = s.delete_rows(&[1, 4]);
        fault::disarm("delta.base_retract");
        assert!(res.is_err(), "armed delete must surface the fault");
        assert_eq!(s.base().len(), 9, "deleted rows must be reinserted");
        assert_identical(&mut s, &mut base.clone(), "failed delete");

        // Update: the cell already holds the new value; the rollback
        // restores the old one.
        let mut s = base.clone();
        fault::arm("delta.base_retract", 1, Behavior::Error);
        let res = s.update_cell(0, "Price", Value::Int(1));
        fault::disarm("delta.base_retract");
        assert!(res.is_err(), "armed update must surface the fault");
        assert_eq!(
            s.base().value_at(0, "Price").unwrap(),
            base.base().value_at(0, "Price").unwrap(),
            "updated cell must be restored"
        );
        assert_identical(&mut s, &mut base.clone(), "failed update");

        // All three sheets remain fully usable: a clean replay of each
        // edit succeeds and matches a naive-engine application.
        let mut s = base.clone();
        let mut oracle = base.clone();
        oracle.set_naive_eval(true);
        s.append_rows(vec![ssa_relation::tuple![
            999, "Jetta", 15_500, 2005, 60_000, "Good"
        ]])
        .unwrap();
        oracle
            .append_rows(vec![ssa_relation::tuple![
                999, "Jetta", 15_500, 2005, 60_000, "Good"
            ]])
            .unwrap();
        s.update_cell(9, "Price", Value::Int(15_750)).unwrap();
        oracle.update_cell(9, "Price", Value::Int(15_750)).unwrap();
        s.delete_rows(&[2]).unwrap();
        oracle.delete_rows(&[2]).unwrap();
        assert_eq!(
            s.view().unwrap(),
            oracle.view().unwrap(),
            "clean replay diverged from the naive oracle"
        );
    }

    /// A failed incremental patch inside `view` is not silent: the view
    /// still succeeds through the full re-evaluation, equals the naive
    /// oracle, and `last_delta`/`explain` name the fallback instead of
    /// the patch that failed.
    #[test]
    fn failed_view_patch_falls_back_and_says_so() {
        let _guard = fault::lock();
        let mut s = Spreadsheet::over(used_cars());
        s.group(&["Model"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        s.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
        s.view().unwrap();
        let mut oracle = s.clone();
        oracle.set_naive_eval(true);

        let narrowing = Expr::col("Price").lt(Expr::lit(17_000));
        s.select(narrowing.clone()).unwrap();
        oracle.select(narrowing).unwrap();
        assert!(
            matches!(s.last_delta(), StateDelta::Narrow { .. }),
            "the edit must classify as a narrowing, got {}",
            s.last_delta()
        );
        fault::arm("delta.narrow", 1, Behavior::Error);
        let view = s.view().cloned();
        fault::disarm("delta.narrow");
        let view = view.expect("view falls back to a full evaluation");
        assert_eq!(
            &view,
            oracle.view().unwrap(),
            "fallback diverged from the oracle"
        );
        let fallback = StateDelta::Full {
            reason: "incremental patch failed",
        };
        assert_eq!(s.last_delta(), &fallback);
        assert!(
            s.explain().unwrap().contains("incremental patch failed"),
            "explain must name the fallback"
        );
    }

    /// A failed widening patch rolls back to a full evaluation: the view
    /// equals the naive oracle, and `explain` names the fallback, counts
    /// the failed patch and quotes its error. The next widening of the
    /// rebuilt cache has no set-aside rows to merge, and says so.
    #[test]
    fn failed_widen_patch_falls_back_and_counts_it() {
        let _guard = fault::lock();
        let mut s = Spreadsheet::over(used_cars());
        s.group(&["Model"], Direction::Asc).unwrap();
        s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        s.view().unwrap();
        let id = s.select(Expr::col("Price").lt(Expr::lit(15_000))).unwrap();
        s.view().unwrap();
        assert!(s.explain().unwrap().contains("failed patches: 0"));
        let mut oracle = s.clone();
        oracle.set_naive_eval(true);

        let loosened = Expr::col("Price").lt(Expr::lit(18_000));
        s.replace_selection(id, loosened.clone()).unwrap();
        oracle.replace_selection(id, loosened).unwrap();
        assert!(
            matches!(s.last_delta(), StateDelta::Widen { .. }),
            "the edit must classify as a widening, got {}",
            s.last_delta()
        );
        fault::arm("delta.widen", 1, Behavior::Error);
        let view = s.view().cloned();
        fault::disarm("delta.widen");
        let view = view.expect("view falls back to a full evaluation");
        assert_eq!(
            &view,
            oracle.view().unwrap(),
            "fallback diverged from the oracle"
        );
        assert_eq!(
            s.last_delta(),
            &StateDelta::Full {
                reason: "incremental patch failed",
            }
        );
        let explained = s.explain().unwrap();
        assert!(
            explained.contains("failed patches: 1 (last: fault injected at `delta.widen`)"),
            "explain must count and quote the failed patch:\n{explained}"
        );

        s.remove_selection(id).unwrap();
        oracle.remove_selection(id).unwrap();
        assert_eq!(
            s.last_delta(),
            &StateDelta::Full {
                reason: "the widened selection's set-aside rows are unknown",
            }
        );
        assert_eq!(s.view().unwrap(), oracle.view().unwrap());
    }

    /// Satellite pin: a worker panic inside a parallel chunk surfaces as
    /// a typed `WorkerPanicked` error — no process abort — and the sheet
    /// is fully usable afterwards.
    #[test]
    fn worker_panic_surfaces_as_typed_error_and_sheet_survives() {
        let _guard = fault::lock();
        let rows: Vec<Tuple> = (0..10_000i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .collect();
        let relation = Relation::with_rows(
            "big",
            Schema::of(&[("A", ValueType::Int), ("B", ValueType::Int)]),
            rows,
        )
        .unwrap();
        let mut s = Spreadsheet::over(relation);
        s.select(Expr::col("B").lt(Expr::lit(5))).unwrap();
        let mut witness = s.clone();
        let expected = witness.view().unwrap().clone();

        // 10k rows is above `par::PARALLEL_THRESHOLD` (8192), so
        // evaluation fans out and the armed failpoint panics a worker
        // thread (below it, the same failpoint panics `chunk_map`'s
        // inline path, with the same typed error).
        fault::arm("par.chunk", 1, Behavior::Panic);
        let err = s.view().expect_err("worker panic must surface as Err");
        match err {
            SheetError::Relation(RelationError::WorkerPanicked { site }) => {
                assert!(site.contains("par.chunk"), "payload names the site: {site}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        fault::disarm("par.chunk");

        // The sheet recovers: the next view evaluates from scratch.
        assert_eq!(s.view().unwrap(), &expected);
        assert_eq!(s.state(), witness.state());
    }

    /// The uniform panic policy below the threshold: a sheet too small
    /// to go parallel still runs its narrow patch's `column OP literal`
    /// filter through `chunk_map`, so a panic there fails the patch with
    /// a typed `WorkerPanicked` instead of unwinding. `view` counts the
    /// failed patch, falls back to a full evaluation equal to the clean
    /// witness, and `explain` quotes the error.
    #[test]
    fn worker_panic_below_the_threshold_fails_the_patch_and_falls_back() {
        let _guard = fault::lock();
        let rows: Vec<Tuple> = (0..1_000i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .collect();
        let relation = Relation::with_rows(
            "small",
            Schema::of(&[("A", ValueType::Int), ("B", ValueType::Int)]),
            rows,
        )
        .unwrap();
        assert!(relation.len() < ssa_relation::par::PARALLEL_THRESHOLD);
        let mut s = Spreadsheet::over(relation);
        s.view().unwrap(); // warm: the selection below patches
        s.select(Expr::col("B").lt(Expr::lit(5))).unwrap();
        assert!(
            matches!(s.last_delta(), StateDelta::Narrow { .. }),
            "the edit must classify as a narrowing, got {}",
            s.last_delta()
        );
        let mut witness = s.clone();
        let expected = witness.view().unwrap().clone();

        fault::arm("par.chunk", 1, Behavior::Panic);
        let view = s.view().cloned();
        fault::disarm("par.chunk");
        let view = view.expect("view falls back to a full evaluation");
        assert_eq!(view, expected, "fallback diverged from the clean witness");
        assert_eq!(
            s.last_delta(),
            &StateDelta::Full {
                reason: "incremental patch failed",
            }
        );
        let explained = s.explain().unwrap();
        let typed = RelationError::WorkerPanicked {
            site: "fault injected at `par.chunk`".to_string(),
        };
        assert!(
            explained.contains(&format!("failed patches: 1 (last: {typed})")),
            "explain must count and quote the worker panic:\n{explained}"
        );
    }

    #[test]
    fn persist_failpoints_surface_typed_errors() {
        let _guard = fault::lock();
        let stored = Spreadsheet::over(used_cars()).save("cars").unwrap();

        fault::arm("persist.save", 1, Behavior::Error);
        assert!(stored.to_json().is_err());
        let json = stored.to_json().unwrap(); // failpoint auto-disarmed

        fault::arm("persist.open", 1, Behavior::Error);
        assert!(StoredSheet::from_json(&json).is_err());
        assert_eq!(StoredSheet::from_json(&json).unwrap(), stored);

        // The binary codec's sites surface the same way.
        fault::arm("persist.save", 1, Behavior::Error);
        assert!(stored.to_binary().is_err());
        let bin = stored.to_binary().unwrap();

        fault::arm("persist.bin_read", 1, Behavior::Error);
        let path =
            std::env::temp_dir().join(format!("ssa_binread_fp_{}.sheet", std::process::id()));
        std::fs::write(&path, &bin).unwrap();
        assert!(StoredSheet::open_path(&path).is_err());
        assert_eq!(StoredSheet::open_path(&path).unwrap(), stored);
        std::fs::remove_file(&path).ok();
    }

    /// The §16 atomic-save pin: a save that fails at either
    /// `persist.bin_write` arming point — before the temp file is
    /// written (hit 1) or after it is written but before the rename
    /// (hit 2) — leaves the previous file byte-identical and leaves no
    /// temp file behind.
    #[test]
    fn failed_binary_save_never_clobbers_previous_file() {
        let _guard = fault::lock();
        let dir = std::env::temp_dir().join(format!("ssa_atomic_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cars.sheet");

        let first = Spreadsheet::over(used_cars()).save("cars-v1").unwrap();
        first.save_path(&path).unwrap();
        let baseline = std::fs::read(&path).unwrap();

        let mut changed = Spreadsheet::over(used_cars());
        changed
            .select(Expr::col("Price").lt(Expr::lit(15_000)))
            .unwrap();
        let second = changed.save("cars-v2").unwrap();

        for nth in 1..=2u64 {
            fault::arm("persist.bin_write", nth, Behavior::Error);
            let err = second.save_path(&path).expect_err("armed save must fail");
            assert!(
                matches!(
                    err,
                    SheetError::Relation(RelationError::FaultInjected { .. })
                ),
                "hit {nth}: {err}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                baseline,
                "hit {nth} clobbered the previous file"
            );
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n != "cars.sheet")
                .collect();
            assert!(
                leftovers.is_empty(),
                "hit {nth} left temp files: {leftovers:?}"
            );
        }

        // Disarmed, the save goes through and replaces the file whole.
        second.save_path(&path).unwrap();
        let reopened = StoredSheet::open_path(&path).unwrap();
        assert_eq!(reopened, second);
        std::fs::remove_dir_all(&dir).ok();
    }
}
