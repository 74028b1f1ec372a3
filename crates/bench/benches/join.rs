//! Hash join vs the forced nested-loop path on equi-join workloads.
//!
//! Two key distributions per size, both joined on `K = K2`:
//!
//! - `selective`: the build side's keys are unique and cover half the
//!   probe side's key domain, so each probe row matches 0 or 1 build row
//!   (output ≈ |probe| / 2).
//! - `fanout`: each build key repeats 8 times and every probe row
//!   matches, so candidate lists are long (output = 8 × |probe|).
//!
//! The probe side has `rows` tuples; the build side `rows / 10` — the
//! classic big-fact/small-dimension shape. Both paths run with the
//! default parallel threshold, so the comparison is hash table vs
//! exhaustive scan, not serial vs parallel. Before timing, the hash
//! output is asserted row-for-row equal to the nested loop's.
//!
//! Results go to console and `BENCH_join.json` at the repository root.
//! `SSA_BENCH_FAST=1` runs the 1k size only (JSON marked `"fast": true`).

use ssa_relation::ops;
use ssa_relation::schema::Schema;
use ssa_relation::ValueType::Int;
use ssa_relation::{Expr, Relation, Tuple, Value};
use std::hint::black_box;
use std::time::Instant;

fn relation(name: &str, key_col: &str, keys: impl Iterator<Item = i64>) -> Relation {
    let rows: Vec<Tuple> = keys
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int(k), Value::Int(i as i64)]))
        .collect();
    Relation::with_rows(name, Schema::of(&[(key_col, Int), ("V", Int)]), rows)
        .expect("widths match")
}

struct Scenario {
    name: &'static str,
    /// (probe side, build side) for `rows` probe tuples.
    operands: fn(usize) -> (Relation, Relation),
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "selective",
        operands: |n| {
            let m = (n / 10).max(1) as i64;
            // build keys unique in 0..m; probe keys uniform in 0..2m
            let probe = relation("fact", "K", (0..n as i64).map(move |i| (i * 7) % (2 * m)));
            let build = relation("dim", "K2", 0..m);
            (probe, build)
        },
    },
    Scenario {
        name: "fanout",
        operands: |n| {
            let m = (n / 10).max(8) as i64;
            let domain = (m / 8).max(1);
            // every build key repeats 8×, every probe row matches 8 rows
            let probe = relation("fact", "K", (0..n as i64).map(move |i| (i * 13) % domain));
            let build = relation("dim", "K2", (0..m).map(move |i| i % domain));
            (probe, build)
        },
    },
    Scenario {
        name: "dupheavy",
        operands: |n| {
            // Build-side-choice regression case: the left operand is the
            // *smaller* side (rows/10) but duplicate-heavy (~10 rows per
            // key), and the right side repeats each key ~100×. Raw row
            // counts would build left — and then stably re-sort every
            // output pair back into left-major order; the statistics-based
            // cost model sees the pair estimate and builds right instead.
            let d = (n / 100).max(1) as i64;
            let left = relation("fact", "K", (0..(n / 10).max(1) as i64).map(move |i| i % d));
            let right = relation("dim", "K2", (0..n as i64).map(move |i| (i * 13) % d));
            (left, right)
        },
    },
];

/// Median wall time in milliseconds; one warm-up iteration discarded.
fn time_join(f: impl Fn() -> Relation, samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for i in 0..samples + 1 {
        let t = Instant::now();
        black_box(f());
        if i >= 1 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

struct Row {
    rows: usize,
    scenario: &'static str,
    nested_ms: f64,
    hash_ms: f64,
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let samples = if fast { 3 } else { 5 };

    let mut results = Vec::new();
    for &n in sizes {
        for sc in SCENARIOS {
            let (probe, build) = (sc.operands)(n);
            let cond = Expr::col("K").eq(Expr::col("K2"));

            // The hash plan must agree with the nested loop row-for-row
            // before its timing means anything.
            let hash = ops::join(&probe, &build, &cond).expect("hash join");
            let nested = ops::join_nested(&probe, &build, &cond).expect("nested join");
            assert_eq!(
                hash.rows(),
                nested.rows(),
                "hash != nested for {} at {n} rows — bench aborted",
                sc.name
            );

            let nested_ms = time_join(
                || ops::join_nested(&probe, &build, &cond).expect("nested join"),
                samples,
            );
            let hash_ms = time_join(
                || ops::join(&probe, &build, &cond).expect("hash join"),
                samples,
            );
            println!(
                "join/{:>6} rows/{:10}  nested {:10.3} ms  hash {:8.3} ms  speedup {:7.2}x  ({} output rows)",
                n,
                sc.name,
                nested_ms,
                hash_ms,
                nested_ms / hash_ms,
                hash.len(),
            );
            results.push(Row {
                rows: n,
                scenario: sc.name,
                nested_ms,
                hash_ms,
            });
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"join\",\n");
    json.push_str(
        "  \"workload\": \"equi-join K = K2, probe side `rows` tuples, build side rows/10; selective = unique keys covering half the probe domain, fanout = 8 duplicates per build key, dupheavy = small duplicate-heavy left side (build-side-choice regression case)\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"joins\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"nested_ms\": {:.3}, \"hash_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.rows,
            r.scenario,
            r.nested_ms,
            r.hash_ms,
            r.nested_ms / r.hash_ms,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    std::fs::write(path, &json).expect("write BENCH_join.json at repo root");
    println!("wrote {path}");
}
