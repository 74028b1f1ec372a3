//! Binary columnar persistence vs the JSON codec (DESIGN.md §16).
//!
//! Measures, on an orders-shaped table:
//!
//! * `save` — atomic binary save vs atomic JSON save;
//! * `cold_open_query_1col` — from a cold handle, open the file and
//!   answer a selective filter that touches **one** column. The binary
//!   side pays head + footer + meta + one column's chunks; the JSON
//!   baseline must parse the entire dump before it can look at anything.
//!   This is the tentpole claim: cold open-to-first-answer is O(touched
//!   columns), gated at ≥5x by `scripts/bench_delta.sh` at 1M rows;
//! * `cold_open_query_all` — the same query projecting every column
//!   (the binary side's worst case: all chunks load).
//!
//! Peak resident-set sizes are measured in fresh child processes (the
//! bench re-execs itself with `SSA_PERSIST_RSS_MODE` set, does one cold
//! open + query, and reports its own `VmHWM`), so the paged path's
//! footprint is not polluted by the parent's table generation — showing
//! the paged open serving its first answer with far less memory than
//! full materialization. Results go to console and `BENCH_persist.json`
//! at the repository root; `SSA_BENCH_FAST=1` runs a smoke size (JSON
//! marked `"fast": true`).

use spreadsheet_algebra::storage::{save_sheet_json, PagedSheet};
use spreadsheet_algebra::{QueryState, StoredSheet};
use ssa_relation::rng::Rng;
use ssa_relation::{Expr, Relation, Schema, Tuple, Value, ValueType};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const PRICE_CUTOFF: f64 = 500.0; // ~5% of the uniform [0, 10k) prices

fn orders_sheet(rows: usize) -> StoredSheet {
    let statuses = ["open", "paid", "shipped", "done", "void"];
    let mut rng = Rng::seed_from_u64(0x9E55_1057);
    let relation = Relation::with_rows(
        "orders",
        Schema::of(&[
            ("o_id", ValueType::Int),
            ("o_cust", ValueType::Int),
            ("o_price", ValueType::Float),
            ("o_qty", ValueType::Int),
            ("o_status", ValueType::Str),
            ("o_comment", ValueType::Str),
        ]),
        (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::Int(rng.gen_range(0..(rows / 100).max(10) as i64)),
                    Value::Float((rng.next_u64() % 10_000_000) as f64 / 1_000.0),
                    Value::Int(rng.gen_range(1..50i64)),
                    Value::str(statuses[rng.gen_range(0..statuses.len())]),
                    Value::from(format!("comment-{}", rng.gen_range(0..1_000u64))),
                ])
            })
            .collect(),
    )
    .expect("orders relation");
    StoredSheet {
        name: "orders".into(),
        relation,
        state: QueryState::new(),
    }
}

fn temp_path(ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssa_persist_bench_{}.{ext}", std::process::id()))
}

/// Median wall time of `f` in milliseconds.
fn time_ms(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// A field from /proc/self/status in MB (0.0 off Linux).
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The JSON baseline's cold open + 1-column filter: parse everything,
/// then count matching prices.
fn json_open_count(path: &PathBuf) -> usize {
    let text = std::fs::read_to_string(path).expect("read json sheet");
    let stored = StoredSheet::from_json(&text).expect("parse json sheet");
    let pi = stored
        .relation
        .schema()
        .index_of("o_price")
        .expect("o_price exists");
    stored
        .relation
        .rows()
        .iter()
        .filter(|t| matches!(t[pi], Value::Float(p) if p < PRICE_CUTOFF))
        .count()
}

/// The JSON baseline's all-columns variant: parse, filter, materialize
/// the matching rows as a relation (what the binary side's scan returns).
fn json_open_rows(path: &PathBuf) -> Relation {
    let text = std::fs::read_to_string(path).expect("read json sheet");
    let stored = StoredSheet::from_json(&text).expect("parse json sheet");
    let pi = stored
        .relation
        .schema()
        .index_of("o_price")
        .expect("o_price exists");
    let ids: Vec<u32> = stored
        .relation
        .rows()
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t[pi], Value::Float(p) if p < PRICE_CUTOFF))
        .map(|(i, _)| i as u32)
        .collect();
    stored.relation.take_rows(&ids)
}

/// Child-process entry: one cold open + 1-column query, then report
/// this process's peak RSS. Keeps the measurement free of the parent's
/// table-generation and oracle footprint.
fn rss_child(mode: &str) {
    let path = PathBuf::from(std::env::var("SSA_PERSIST_RSS_PATH").expect("child needs path"));
    let pred = Expr::col("o_price").lt(Expr::lit(PRICE_CUTOFF));
    let matched = match mode {
        "paged" => {
            let paged = PagedSheet::open(&path).expect("paged open");
            paged.scan(Some(&pred), &["o_price"]).expect("scan").len()
        }
        "json" => json_open_count(&path),
        other => panic!("bad SSA_PERSIST_RSS_MODE {other:?}"),
    };
    println!("matched={matched} peak_mb={:.1}", proc_status_mb("VmHWM"));
}

/// Run the cold 1-column query in a fresh process; (matches, peak MB).
fn child_peak(mode: &str, path: &PathBuf) -> (usize, f64) {
    let out = std::process::Command::new(std::env::current_exe().expect("current exe"))
        .env("SSA_PERSIST_RSS_MODE", mode)
        .env("SSA_PERSIST_RSS_PATH", path)
        .output()
        .expect("spawn rss child");
    assert!(out.status.success(), "rss child ({mode}) failed");
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        text.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("rss child ({mode}) output {text:?} lacks {key}"))
    };
    (field("matched=") as usize, field("peak_mb="))
}

struct Row {
    rows: usize,
    scenario: &'static str,
    json_ms: f64,
    binary_ms: f64,
}

/// Side facts recorded once for the largest size (top-level dicts in
/// the JSON are informational — `bench_delta.sh` gates only the
/// scenario list).
struct SizeInfo {
    binary_bytes: u64,
    json_bytes: u64,
    lazy_bytes_read: u64,
    paged_peak_mb: f64,
    json_peak_mb: f64,
}

fn run_size(rows: usize, samples: usize, results: &mut Vec<Row>) -> SizeInfo {
    println!("persist: generating {rows}-row orders table...");
    let stored = orders_sheet(rows);
    let pred = Expr::col("o_price").lt(Expr::lit(PRICE_CUTOFF));
    let all_cols = [
        "o_id",
        "o_cust",
        "o_price",
        "o_qty",
        "o_status",
        "o_comment",
    ];

    let bin_path = temp_path("bin");
    let json_path = temp_path("json");

    // -- correctness oracle, before any timing ---------------------------
    stored.save_path(&bin_path).expect("binary save");
    save_sheet_json(&stored, &json_path).expect("json save");
    {
        let paged = PagedSheet::open(&bin_path).expect("paged open");
        let narrow = paged.scan(Some(&pred), &["o_price"]).expect("scan");
        assert_eq!(
            narrow.len(),
            json_open_count(&json_path),
            "paged scan and JSON baseline disagree — bench aborted"
        );
        let wide = paged.scan(Some(&pred), &all_cols).expect("scan all");
        assert!(wide.multiset_eq(&json_open_rows(&json_path)));
        let reopened = paged.materialize().expect("materialize");
        assert_eq!(reopened, stored, "binary round trip — bench aborted");
    }

    // -- save ------------------------------------------------------------
    let save_binary_ms = time_ms(samples, || {
        stored.save_path(&bin_path).expect("binary save");
    });
    let save_json_ms = time_ms(samples, || {
        save_sheet_json(&stored, &json_path).expect("json save");
    });
    let binary_bytes = std::fs::metadata(&bin_path).expect("stat").len();
    let json_bytes = std::fs::metadata(&json_path).expect("stat").len();
    println!(
        "persist/{rows} rows/save               json {save_json_ms:9.1} ms ({json_bytes:>11} B)  binary {save_binary_ms:9.1} ms ({binary_bytes:>11} B)  speedup {:5.2}x",
        save_json_ms / save_binary_ms
    );
    results.push(Row {
        rows,
        scenario: "save",
        json_ms: save_json_ms,
        binary_ms: save_binary_ms,
    });

    // -- cold open + queries ---------------------------------------------
    let mut lazy_bytes_read = 0u64;
    let binary_1col_ms = time_ms(samples, || {
        let paged = PagedSheet::open(&bin_path).expect("paged open");
        let narrow = paged.scan(Some(&pred), &["o_price"]).expect("scan");
        black_box(narrow.len());
        lazy_bytes_read = paged.bytes_read();
    });
    let binary_all_ms = time_ms(samples, || {
        let paged = PagedSheet::open(&bin_path).expect("paged open");
        let wide = paged.scan(Some(&pred), &all_cols).expect("scan all");
        black_box(wide.len());
    });

    let json_1col_ms = time_ms(samples, || {
        black_box(json_open_count(&json_path));
    });
    let json_all_ms = time_ms(samples, || {
        black_box(json_open_rows(&json_path).len());
    });

    // -- peak RSS of a cold open, in fresh processes ---------------------
    let (paged_matched, paged_peak_mb) = child_peak("paged", &bin_path);
    let (json_matched, json_peak_mb) = child_peak("json", &json_path);
    assert_eq!(paged_matched, json_matched, "rss children disagree");

    println!(
        "persist/{rows} rows/cold_open_query_1col  json {json_1col_ms:9.1} ms  binary {binary_1col_ms:9.1} ms  speedup {:5.2}x  (read {lazy_bytes_read} of {binary_bytes} B)",
        json_1col_ms / binary_1col_ms
    );
    println!(
        "persist/{rows} rows/cold_open_query_all   json {json_all_ms:9.1} ms  binary {binary_all_ms:9.1} ms  speedup {:5.2}x",
        json_all_ms / binary_all_ms
    );
    println!(
        "persist/{rows} rows/peak_rss            paged 1-col open {paged_peak_mb:.0} MB  full JSON open {json_peak_mb:.0} MB"
    );
    results.push(Row {
        rows,
        scenario: "cold_open_query_1col",
        json_ms: json_1col_ms,
        binary_ms: binary_1col_ms,
    });
    results.push(Row {
        rows,
        scenario: "cold_open_query_all",
        json_ms: json_all_ms,
        binary_ms: binary_all_ms,
    });

    std::fs::remove_file(&bin_path).ok();
    std::fs::remove_file(&json_path).ok();
    SizeInfo {
        binary_bytes,
        json_bytes,
        lazy_bytes_read,
        paged_peak_mb,
        json_peak_mb,
    }
}

fn main() {
    if let Ok(mode) = std::env::var("SSA_PERSIST_RSS_MODE") {
        rss_child(&mode);
        return;
    }
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    // The full run records the smoke size too, so fast-mode CI keys
    // always exist in the committed baseline (bench_delta.sh contract).
    let sizes: &[usize] = if fast {
        &[20_000]
    } else {
        &[20_000, 1_000_000]
    };
    let samples = if fast { 2 } else { 3 };

    let mut results = Vec::new();
    let mut info = None;
    for &rows in sizes {
        info = Some(run_size(rows, samples, &mut results));
    }
    let info = info.expect("at least one size");
    let SizeInfo {
        binary_bytes,
        json_bytes,
        lazy_bytes_read,
        paged_peak_mb,
        json_peak_mb,
    } = info;

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"persist\",\n");
    json.push_str(
        "  \"workload\": \"6-column orders table; atomic save and cold open + 5%-selective price filter, binary columnar (paged, lazy) vs JSON codec\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!(
        "  \"files\": {{\"binary_bytes\": {binary_bytes}, \"json_bytes\": {json_bytes}, \"lazy_bytes_read_1col\": {lazy_bytes_read}}},\n"
    ));
    json.push_str(&format!(
        "  \"peak_rss_mb\": {{\"paged_1col_open\": {paged_peak_mb:.1}, \"json_open\": {json_peak_mb:.1}}},\n"
    ));
    json.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"json_ms\": {:.3}, \"binary_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.rows,
            r.scenario,
            r.json_ms,
            r.binary_ms,
            r.json_ms / r.binary_ms,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(path, &json).expect("write BENCH_persist.json at repo root");
    println!("wrote {path}");
}
