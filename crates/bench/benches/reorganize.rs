//! A5 — ablation of the reorganize fast path: data-organization
//! operators (grouping/ordering/projection) "do not change the actual
//! content" (Sec. III-A), so the engine re-sorts the cached evaluation
//! instead of re-running the canonical pipeline. This bench measures an
//! ordering change on a sheet with selections + an aggregate, with the
//! fast path on vs off (`set_incremental`, the engine's one ablation
//! switch for every cache path short of a full evaluation).

use spreadsheet_algebra::{Direction, Spreadsheet};
use ssa_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssa_bench::synthetic_cars;
use ssa_relation::{AggFunc, Expr};
use std::hint::black_box;

fn prepared(n: usize, fast: bool) -> Spreadsheet {
    let mut s = Spreadsheet::over(synthetic_cars(n));
    s.set_incremental(fast);
    s.select(Expr::col("Price").lt(Expr::lit(24_000))).unwrap();
    s.group(&["Model"], Direction::Asc).unwrap();
    s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    s.view().unwrap(); // prime the cache
    s
}

fn bench_reorder(c: &mut Criterion, name: &str, fast: bool) {
    let mut g = c.benchmark_group(name);
    for n in [1_000usize, 10_000] {
        let sheet = prepared(n, fast);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut s = sheet.clone();
            let mut desc = false;
            b.iter(|| {
                // flip the ordering each iteration so the spec always
                // changes and the reorganize path actually runs
                desc = !desc;
                let dir = if desc {
                    Direction::Desc
                } else {
                    Direction::Asc
                };
                s.order("Mileage", dir, 2).unwrap();
                black_box(s.view().unwrap().len())
            })
        });
    }
    g.finish();
}

fn fast_path(c: &mut Criterion) {
    bench_reorder(c, "reorder_fast_path", true);
}

fn full_reeval(c: &mut Criterion) {
    bench_reorder(c, "reorder_full_reeval", false);
}

criterion_group!(benches, fast_path, full_reeval);
criterion_main!(benches);
