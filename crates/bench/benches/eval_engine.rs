//! Index-vector engine vs the naive row-cloning pipeline on the
//! standard workload (selection + formula + aggregate + grouping +
//! presentation sort) at 1k / 10k / 100k rows.
//!
//! Besides the usual console report, this bench writes `BENCH_eval.json`
//! at the repository root: per size, the median evaluation time of the
//! naive oracle and of the index-vector engine, plus the resulting
//! speedup. The two engines' samples are interleaved, so a change in
//! the machine's load moves both alike, and the small sizes, where one
//! sample is shortest, take more of them. Run with `SSA_BENCH_FAST=1`
//! for a smoke test (the JSON is then marked `"fast": true`).

use spreadsheet_algebra::eval::{evaluate_with, EvalOptions};
use spreadsheet_algebra::{ComputedColumn, Direction, GroupLevel, OrderKey, QueryState};
use ssa_bench::harness::measure_interleaved;
use ssa_bench::{synthetic_cars, synthetic_listings};
use ssa_relation::{AggFunc, Expr, Relation};
use std::hint::black_box;
use std::time::Duration;

/// The measured workload: every pipeline stage at once. Selections land
/// at two different ranks (one references the aggregate), so step 3 runs
/// two filter passes and step 4 recomputes both computed columns.
fn workload_state() -> QueryState {
    let mut st = QueryState::new();
    st.spec
        .levels
        .push(GroupLevel::new(["Model"], Direction::Desc));
    st.spec
        .levels
        .push(GroupLevel::new(["Year"], Direction::Asc));
    st.spec.finest_order.push(OrderKey::asc("Price"));
    st.computed.push(ComputedColumn::formula(
        "PriceK",
        Expr::col("Price").div(Expr::lit(1000)),
    ));
    st.computed.push(ComputedColumn::aggregate(
        "Avg_Price",
        AggFunc::Avg,
        "Price",
        2,
        vec!["Model".into()],
    ));
    st.add_selection(Expr::col("Price").le(Expr::col("Avg_Price")));
    st.add_selection(Expr::col("Year").ge(Expr::lit(2002)));
    st
}

/// String-heavy workload (satellite of the interning PR): dedup over
/// tuples whose identity is dominated by string columns, a selection on a
/// string column, a string-basis aggregate, two-level grouping on string
/// keys and a presentation sort on two string columns. Every stage either
/// hashes, compares, or clones strings.
fn string_workload_state() -> QueryState {
    let mut st = QueryState::new();
    st.dedup = true;
    st.spec
        .levels
        .push(GroupLevel::new(["Model"], Direction::Desc));
    st.spec
        .levels
        .push(GroupLevel::new(["City"], Direction::Asc));
    st.spec.finest_order.push(OrderKey::asc("Dealer"));
    st.spec.finest_order.push(OrderKey::asc("Comment"));
    st.computed.push(ComputedColumn::aggregate(
        "Best_Comment",
        AggFunc::Max,
        "Comment",
        2,
        vec!["Model".into()],
    ));
    st.add_selection(Expr::col("City").ne(Expr::lit("Marquette")));
    st
}

struct Row {
    rows: usize,
    naive_ms: f64,
    indexed_ms: f64,
}

/// Median indexed-engine times of the string-heavy workload measured at
/// the commit *before* string interning (PR 1's engine, `Value::Str`
/// holding an owned `String`), on this harness with the same sizes. The
/// interning speedup reported in `BENCH_intern.json` is the trajectory
/// `indexed_pre_ms / indexed_ms`. That ratio divides a constant recorded
/// once on another machine, so it is a record, not a regression gate
/// (`scripts/bench_delta.sh` skips it).
const PRE_INTERNING_INDEXED_MS: &[(usize, f64)] =
    &[(1_000, 1.344), (10_000, 22.487), (100_000, 491.803)];

fn run_workload(
    name: &str,
    make_base: fn(usize) -> Relation,
    st: &QueryState,
    sizes: &[usize],
    fast: bool,
) -> Vec<Row> {
    let naive = EvalOptions { naive: true };
    let indexed = EvalOptions::default();

    let mut results = Vec::new();
    for &n in sizes {
        let base = make_base(n);

        // The engines must agree before their timings mean anything.
        let a = evaluate_with(&base, st, naive).expect("naive evaluation");
        let b = evaluate_with(&base, st, indexed).expect("indexed evaluation");
        assert_eq!(a, b, "engines disagree at {n} rows — bench aborted");

        let (target, samples) = match (fast, n) {
            (true, _) => (Duration::from_millis(5), 3),
            (false, n) if n <= 10_000 => (Duration::from_millis(60), 40),
            (false, _) => (Duration::from_millis(60), 10),
        };
        let (naive_ns, indexed_ns) = measure_interleaved(
            || black_box(evaluate_with(&base, st, naive)),
            || black_box(evaluate_with(&base, st, indexed)),
            target,
            samples,
        );

        let row = Row {
            rows: n,
            naive_ms: naive_ns / 1e6,
            indexed_ms: indexed_ns / 1e6,
        };
        println!(
            "{name}/{:>6} rows  naive {:8.3} ms  indexed {:8.3} ms  speedup {:4.2}x",
            row.rows,
            row.naive_ms,
            row.indexed_ms,
            row.naive_ms / row.indexed_ms,
        );
        results.push(row);
    }
    results
}

fn sizes_json(results: &[Row]) -> String {
    let mut json = String::new();
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"naive_ms\": {:.3}, \"indexed_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.rows,
            r.naive_ms,
            r.indexed_ms,
            r.naive_ms / r.indexed_ms,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    // Numeric workload → BENCH_eval.json (regression gate for interning).
    let st = workload_state();
    let results = run_workload("eval_engine", synthetic_cars, &st, sizes, fast);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"eval_engine\",\n");
    json.push_str(
        "  \"workload\": \"2 selections + formula + level-2 aggregate + 2-level grouping + sort\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"sizes\": [\n");
    json.push_str(&sizes_json(&results));
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    std::fs::write(path, &json).expect("write BENCH_eval.json at repo root");
    println!("wrote {path}");

    // String-heavy workload → BENCH_intern.json, including the recorded
    // pre-interning trajectory for the interning speedup.
    let st = string_workload_state();
    let results = run_workload("eval_engine_strings", synthetic_listings, &st, sizes, fast);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"eval_engine_strings\",\n");
    json.push_str(
        "  \"workload\": \"dedup + string selection + Max(Comment) by Model + 2-level string grouping + sort(Dealer, Comment)\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"sizes\": [\n");
    json.push_str(&sizes_json(&results));
    json.push_str("  ],\n");
    json.push_str("  \"interning_trajectory\": [\n");
    let traj: Vec<String> = results
        .iter()
        .filter_map(|r| {
            let pre = PRE_INTERNING_INDEXED_MS
                .iter()
                .find(|(n, _)| *n == r.rows)
                .map(|(_, ms)| *ms)?;
            if !pre.is_finite() {
                return None;
            }
            Some(format!(
                "    {{\"rows\": {}, \"indexed_pre_intern_ms\": {:.3}, \"indexed_ms\": {:.3}, \"interning_speedup\": {:.2}}}",
                r.rows, pre, r.indexed_ms, pre / r.indexed_ms,
            ))
        })
        .collect();
    json.push_str(&traj.join(",\n"));
    json.push_str("\n  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_intern.json");
    std::fs::write(path, &json).expect("write BENCH_intern.json at repo root");
    println!("wrote {path}");
}
