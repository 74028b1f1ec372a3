//! Durability tax of the write-ahead log (DESIGN.md §17).
//!
//! Measures the latency of one acked append — `DurableSheet::commit`
//! of an `AppendRows` event, then `view()` — on a warm grouped orders
//! sheet, across the fsync spectrum:
//!
//! - `append_full`: no WAL and no streaming (`set_incremental(false)`)
//!   — the PR 7 full re-evaluation floor the §14 speedup is gated
//!   against.
//! - `append_nowal`: in-memory replica, no log at all — the streaming
//!   ceiling the WAL's overhead is measured from.
//! - `append_wal_never` / `append_wal_batch` / `append_wal_always`:
//!   logged commits with fsync per policy.
//!
//! Two gates ride on this file (`scripts/bench_delta.sh`): the batch
//! policy must keep the §14 ≥10x append speedup over full re-eval at
//! 100k rows — durability must not eat the streaming win — and its
//! `overhead_ratio` (logged / unlogged append) must stay ≤ 2x.
//!
//! Results go to console and `BENCH_wal.json` at the repository root.
//! `SSA_BENCH_FAST=1` runs a tiny smoke configuration (the JSON is then
//! marked `"fast": true`).

use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::{DurableSheet, FsyncPolicy, SheetOp};
use ssa_relation::Relation;
use ssa_tpch::{schema, FeedConfig, OrderFeed};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

fn feed_for(n: usize) -> OrderFeed {
    OrderFeed::new(
        FeedConfig {
            customers: (n / 100).max(10),
            ..FeedConfig::default()
        },
        0x5712_EA11,
    )
}

fn orders(n: usize, feed: &mut OrderFeed) -> Relation {
    let mut orders = Relation::new("orders", schema::orders());
    orders
        .append_rows(feed.batch(n))
        .expect("feed rows match the orders schema");
    orders
}

/// The §14 query state, expressed as replicated ops: two grouping
/// levels, a sort, two aggregates and a selection — every append lands
/// in one bounded group of the warm cache.
fn query_ops() -> Vec<SheetOp> {
    vec![
        SheetOp::Group {
            attributes: vec!["o_orderstatus".into()],
            direction: Direction::Asc,
        },
        SheetOp::Group {
            attributes: vec!["o_custkey".into()],
            direction: Direction::Asc,
        },
        SheetOp::Order {
            attribute: "o_totalprice".into(),
            direction: Direction::Asc,
            level: 3,
        },
        SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "o_totalprice".into(),
            level: 3,
        },
        SheetOp::Aggregate {
            func: AggFunc::Count,
            column: "o_orderkey".into(),
            level: 3,
        },
        SheetOp::Select {
            predicate: Expr::col("o_totalprice").lt(Expr::lit(179_000.0)),
        },
    ]
}

/// Warm a durable sheet: commit the query state, evaluate, and burn one
/// pre-warm append+view so the timed loop measures steady state.
fn warm(sheet: &mut DurableSheet, feed: &mut OrderFeed) {
    for op in query_ops() {
        sheet.commit(op).expect("query op commits");
    }
    sheet.view().expect("template evaluates");
    sheet
        .commit(SheetOp::AppendRows {
            rows: feed.batch(1),
        })
        .expect("pre-warm append");
    sheet.view().expect("pre-warm evaluates");
}

/// Median wall time of one acked append (commit + view) in ms.
fn time_durable(sheet: &mut DurableSheet, feed: &mut OrderFeed, samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for i in 0..samples + 2 {
        let rows = feed.batch(1);
        let t = Instant::now();
        sheet
            .commit(SheetOp::AppendRows { rows })
            .expect("timed append commits");
        black_box(sheet.view().expect("timed append evaluates"));
        if i >= 2 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median wall time of one append on the no-WAL, no-streaming floor.
fn time_full(n: usize, samples: usize) -> f64 {
    let mut feed = feed_for(n);
    let mut s = Spreadsheet::over(orders(n, &mut feed));
    s.group(&["o_orderstatus"], Direction::Asc).expect("group");
    s.group_add(&["o_custkey"], Direction::Asc).expect("group");
    s.order("o_totalprice", Direction::Asc, 3).expect("order");
    s.aggregate(AggFunc::Avg, "o_totalprice", 3).expect("agg");
    s.aggregate(AggFunc::Count, "o_orderkey", 3).expect("agg");
    s.select(Expr::col("o_totalprice").lt(Expr::lit(179_000.0)))
        .expect("select");
    s.set_incremental(false);
    s.view().expect("full template evaluates");
    let mut times = Vec::with_capacity(samples);
    for i in 0..samples + 2 {
        let rows = feed.batch(1);
        let t = Instant::now();
        s.append_rows(rows).expect("full append");
        black_box(s.view().expect("full append evaluates"));
        if i >= 2 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssa-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    dir
}

struct Row {
    rows: usize,
    scenario: &'static str,
    ms: f64,
    speedup: f64,
    overhead_ratio: f64,
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let samples = if fast { 5 } else { 25 };
    let dir = bench_dir();

    // Oracle check before anything is timed: a logged replica must end
    // bitwise equal to an unlogged one fed the same events.
    {
        let mut feed_a = feed_for(1_000);
        let mut feed_b = feed_for(1_000);
        let mut logged = DurableSheet::create(
            dir.join("oracle.sheet"),
            1,
            orders(1_000, &mut feed_a),
            FsyncPolicy::Always,
        )
        .expect("create oracle");
        let mut plain =
            DurableSheet::in_memory(1, orders(1_000, &mut feed_b)).expect("in-memory oracle");
        warm(&mut logged, &mut feed_a);
        warm(&mut plain, &mut feed_b);
        assert_eq!(
            logged.replica().fingerprint(),
            plain.replica().fingerprint(),
            "logged and unlogged replicas diverged — bench aborted"
        );
    }

    let policies: &[(&'static str, Option<FsyncPolicy>)] = &[
        ("append_nowal", None),
        ("append_wal_never", Some(FsyncPolicy::Never)),
        (
            "append_wal_batch",
            Some(FsyncPolicy::Batch(std::time::Duration::from_millis(25))),
        ),
        ("append_wal_always", Some(FsyncPolicy::Always)),
    ];

    let mut results = Vec::new();
    for &n in sizes {
        let full_ms = time_full(n, samples);
        println!("wal/{n:>6} rows/append_full       {full_ms:9.3} ms");
        results.push(Row {
            rows: n,
            scenario: "append_full",
            ms: full_ms,
            speedup: 1.0,
            overhead_ratio: 0.0,
        });

        let mut nowal_ms = f64::NAN;
        for (name, policy) in policies {
            let mut feed = feed_for(n);
            let base = orders(n, &mut feed);
            let mut sheet = match policy {
                None => DurableSheet::in_memory(1, base).expect("in-memory sheet"),
                Some(p) => {
                    let path = dir.join(format!("{name}_{n}.sheet"));
                    let _ = std::fs::remove_file(&path);
                    let _ = std::fs::remove_file(path.with_extension("sheet.wal"));
                    DurableSheet::create(&path, 1, base, *p).expect("durable sheet")
                }
            };
            warm(&mut sheet, &mut feed);
            let ms = time_durable(&mut sheet, &mut feed, samples);
            if policy.is_none() {
                nowal_ms = ms;
            }
            let overhead = ms / nowal_ms;
            println!(
                "wal/{n:>6} rows/{name:18} {ms:9.3} ms  speedup {:6.2}x  overhead {overhead:5.2}x",
                full_ms / ms,
            );
            results.push(Row {
                rows: n,
                scenario: name,
                ms,
                speedup: full_ms / ms,
                overhead_ratio: overhead,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"wal\",\n");
    json.push_str(
        "  \"workload\": \"warm 2-level grouped orders sheet; one acked append (commit + view) per sample, across fsync policies\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"appends\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"ms\": {:.3}, \"speedup\": {:.2}, \"overhead_ratio\": {:.2}}}{}\n",
            r.rows,
            r.scenario,
            r.ms,
            r.speedup,
            r.overhead_ratio,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal.json");
    std::fs::write(path, &json).expect("write BENCH_wal.json at repo root");
    println!("wrote {path}");
}
