//! Incremental delta evaluation vs full re-evaluation for state edits.
//!
//! Measures the latency of one interactive edit — apply the operator,
//! then `view()` — on a spreadsheet whose cache is already warm, in two
//! modes: incremental (the delta-aware cache patches the cached
//! canonical relation) and full (`set_incremental(false)`, so every
//! edit replays the whole pipeline). Six edit scenarios, matching DESIGN.md §10:
//!
//! - `add_selection`: a fresh predicate lands on the sheet (Narrow).
//! - `tighten_selection`: an existing predicate is replaced by a
//!   strictly tighter one (Narrow via `Expr::implies`).
//! - `toggle_projection`: a column is hidden (Reorganize — the cached
//!   canonical is reused wholesale, only visibility changes).
//! - `loosen_selection`: a selection added on the warm sheet is replaced
//!   by a looser one (Widen — the rows it set aside are staged back).
//! - `remove_selection`: the same selection is removed (Widen).
//! - `undo_aggregate`: an `agg` recorded on the warm sheet is undone
//!   (RemoveComputed — undo keeps the cache).
//!
//! Every scenario but `undo_aggregate` edits the bare sheet;
//! `undo_aggregate` runs on a history [`Engine`] so the edit can be
//! undone. Every sample starts from a warm sheet built afresh for it
//! (the template plus the scenario's own preparation), outside the timed
//! region: a clone of one shared template would share its row chunks, so
//! the timed edit would also pay the copy-on-write of every chunk it
//! touches, which a live session editing its own sheet never does. The
//! full and incremental samples alternate. Results go to console and to
//! `BENCH_incremental.json` at the repository root. `SSA_BENCH_FAST=1`
//! runs a tiny smoke configuration (the JSON is then marked
//! `"fast": true`).

use spreadsheet_algebra::eval::evaluate_with;
use spreadsheet_algebra::prelude::*;
use ssa_bench::synthetic_cars;
use std::hint::black_box;
use std::time::Instant;

/// The warm template: grouped by Model then Year, ordered by Price, one
/// aggregate (recomputed on narrowing) and one coarse selection so
/// `tighten_selection` has something to tighten.
fn template(n: usize) -> (Spreadsheet, u64) {
    let mut s = Spreadsheet::over(synthetic_cars(n));
    s.group(&["Model"], Direction::Asc).unwrap();
    s.group_add(&["Year"], Direction::Asc).unwrap();
    s.order("Price", Direction::Asc, 3).unwrap();
    s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    let sel = s.select(Expr::col("Price").lt(Expr::lit(24_000))).unwrap();
    s.view().expect("template evaluates");
    // One small tighten + view so the lazily built caches (sort keys,
    // group membership) are warm: the timed edits then measure the
    // steady interactive state, not first-touch cache construction.
    s.replace_selection(sel, Expr::col("Price").lt(Expr::lit(23_500)))
        .unwrap();
    s.view().expect("template pre-warm evaluates");
    (s, sel)
}

/// What a scenario edits: the bare sheet, or a history [`Engine`] when
/// the edit is an undo.
trait Editable {
    fn sheet_mut(&mut self) -> &mut Spreadsheet;
}

impl Editable for Spreadsheet {
    fn sheet_mut(&mut self) -> &mut Spreadsheet {
        self
    }
}

impl Editable for Engine {
    fn sheet_mut(&mut self) -> &mut Spreadsheet {
        Engine::sheet_mut(self)
    }
}

struct Scenario<S> {
    name: &'static str,
    /// Brings the warm template into the scenario's starting state (not
    /// timed); returns the argument `edit` receives.
    prepare: fn(&mut S, u64) -> u64,
    edit: fn(&mut S, u64),
}

/// The preparation of the scenarios that edit the warm template as is.
fn as_is(_: &mut Spreadsheet, sel: u64) -> u64 {
    sel
}

/// A selection the widening scenarios add on the warm sheet, so its
/// narrowing records the rows it sets aside (~13% of them).
const SET_ASIDE: i64 = 140_000;

/// Add the `Mileage` selection the widening scenarios loosen or remove.
fn add_mileage_selection(s: &mut Spreadsheet, _: u64) -> u64 {
    s.select(Expr::col("Mileage").lt(Expr::lit(SET_ASIDE)))
        .unwrap()
}

const SHEET_SCENARIOS: &[Scenario<Spreadsheet>] = &[
    Scenario {
        name: "add_selection",
        prepare: as_is,
        edit: |s, _| {
            s.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
        },
    },
    Scenario {
        name: "tighten_selection",
        prepare: as_is,
        edit: |s, sel| {
            s.replace_selection(sel, Expr::col("Price").lt(Expr::lit(16_000)))
                .unwrap();
        },
    },
    Scenario {
        name: "toggle_projection",
        prepare: as_is,
        edit: |s, _| {
            s.project_out("Mileage").unwrap();
        },
    },
    Scenario {
        name: "loosen_selection",
        prepare: add_mileage_selection,
        edit: |s, sel| {
            s.replace_selection(sel, Expr::col("Mileage").lt(Expr::lit(150_000)))
                .unwrap();
        },
    },
    Scenario {
        name: "remove_selection",
        prepare: add_mileage_selection,
        edit: |s, sel| {
            s.remove_selection(sel).unwrap();
        },
    },
];

const HISTORY_SCENARIOS: &[Scenario<Engine>] = &[Scenario {
    name: "undo_aggregate",
    prepare: |e, sel| {
        e.aggregate(AggFunc::Sum, "Mileage", 2).unwrap();
        sel
    },
    edit: |e, _| {
        e.undo().unwrap();
    },
}];

/// Median wall times of (edit + view) in milliseconds, full mode first,
/// then incremental. The two modes' samples are interleaved, alternating
/// which runs first, so drift in the machine's load lands on both alike.
/// Each sample's warm sheet comes from `warm()`, built outside the timed
/// region.
fn time_edit<S: Editable>(
    warm: &dyn Fn() -> (S, u64),
    edit: fn(&mut S, u64),
    samples: usize,
) -> (f64, f64) {
    let mut times = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
    // Warm-up iterations (code paths, allocator) are discarded.
    for i in 0..samples + 2 {
        for incremental in [i % 2 == 1, i % 2 == 0] {
            let (mut e, arg) = warm();
            e.sheet_mut().set_incremental(incremental);
            let t = Instant::now();
            edit(&mut e, arg);
            black_box(e.sheet_mut().view().expect("edited sheet evaluates"));
            if i >= 2 {
                times[usize::from(incremental)].push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let [mut full, mut inc] = times;
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (median(&mut full), median(&mut inc))
}

struct Row {
    rows: usize,
    scenario: &'static str,
    full_ms: f64,
    incremental_ms: f64,
}

/// Check one scenario against the naive oracle, then time it in both
/// modes. `template` builds the warm template and its selection id.
fn run<S: Editable>(
    template: &dyn Fn() -> (S, u64),
    n: usize,
    sc: &Scenario<S>,
    samples: usize,
) -> Row {
    let warm = || {
        let (mut s, sel) = template();
        let arg = (sc.prepare)(&mut s, sel);
        s.sheet_mut().view().expect("prepared template evaluates");
        (s, arg)
    };
    // The delta path must agree with a fresh full evaluation and with the
    // naive oracle before its timing means anything.
    let (mut a, arg) = warm();
    (sc.edit)(&mut a, arg);
    let a = a.sheet_mut();
    let naive = evaluate_with(
        a.base(),
        a.state(),
        spreadsheet_algebra::EvalOptions { naive: true },
    )
    .expect("naive oracle");
    assert!(
        a.last_delta().is_incremental(),
        "{} at {n} rows classified {} — bench aborted",
        sc.name,
        a.last_delta()
    );
    let incremental = a.view().expect("incremental view");
    assert_eq!(
        incremental, &naive,
        "incremental != oracle for {} at {n} rows — bench aborted",
        sc.name
    );

    let (full_ms, incremental_ms) = time_edit(&warm, sc.edit, samples);
    println!(
        "incremental/{:>6} rows/{:18}  full {:8.3} ms  incremental {:8.3} ms  speedup {:5.2}x",
        n,
        sc.name,
        full_ms,
        incremental_ms,
        full_ms / incremental_ms,
    );
    Row {
        rows: n,
        scenario: sc.name,
        full_ms,
        incremental_ms,
    }
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // A 1k-row edit is the shortest sample (tens of µs for some), so its
    // median needs the most samples to read steadily; it is also the only
    // size the smoke run reads.
    let samples = |n: usize| if n <= 1_000 { 101 } else { 25 };

    let mut rows = Vec::new();
    for &n in sizes {
        for sc in SHEET_SCENARIOS {
            rows.push(run(&|| template(n), n, sc, samples(n)));
        }
        let history = || {
            let (sheet, sel) = template(n);
            (Engine::from_sheet(sheet), sel)
        };
        for sc in HISTORY_SCENARIOS {
            rows.push(run(&history, n, sc, samples(n)));
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"incremental\",\n");
    json.push_str(
        "  \"workload\": \"warm 2-level grouped sheet + Avg aggregate + selection; one edit then view()\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"edits\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"full_ms\": {:.3}, \"incremental_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.rows,
            r.scenario,
            r.full_ms,
            r.incremental_ms,
            r.full_ms / r.incremental_ms,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(path, &json).expect("write BENCH_incremental.json at repo root");
    println!("wrote {path}");
}
