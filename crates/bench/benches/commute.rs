//! A3 — commutativity machinery: the cost of deciding `may_commute`
//! (pure metadata work, independent of data size) versus actually
//! applying operator pairs in both orders and comparing results.

use spreadsheet_algebra::{may_commute, Direction, SheetOp, Spreadsheet};
use ssa_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssa_bench::synthetic_cars;
use ssa_relation::{AggFunc, Expr};
use std::hint::black_box;

fn ops() -> Vec<SheetOp> {
    vec![
        SheetOp::Select {
            predicate: Expr::col("Price").lt(Expr::lit(20_000)),
        },
        SheetOp::Select {
            predicate: Expr::col("Year").ge(Expr::lit(2004)),
        },
        SheetOp::ProjectOut {
            column: "Mileage".into(),
        },
        SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "Price".into(),
            level: 1,
        },
        SheetOp::Formula {
            name: Some("PriceK".into()),
            expr: Expr::col("Price").div(Expr::lit(1000)),
        },
        SheetOp::Dedup,
        SheetOp::Group {
            attributes: vec!["Model".into()],
            direction: Direction::Asc,
        },
        SheetOp::Order {
            attribute: "Price".into(),
            direction: Direction::Asc,
            level: 1,
        },
    ]
}

fn bench_decision(c: &mut Criterion) {
    let sheet = Spreadsheet::over(synthetic_cars(1_000));
    let ops = ops();
    c.bench_function("may_commute_all_pairs", |b| {
        b.iter(|| {
            let mut yes = 0usize;
            for a in &ops {
                for d in &ops {
                    if may_commute(a, d, &sheet) {
                        yes += 1;
                    }
                }
            }
            black_box(yes)
        })
    });
}

fn bench_both_orders(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply_both_orders");
    for n in [100usize, 1_000] {
        let sheet = Spreadsheet::over(synthetic_cars(n));
        let ops = ops();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut agreements = 0usize;
                for a in &ops {
                    for d in &ops {
                        if !may_commute(a, d, &sheet) {
                            continue;
                        }
                        let mut s1 = sheet.clone();
                        if s1.apply(a).is_err() || s1.apply(d).is_err() {
                            continue;
                        }
                        let mut s2 = sheet.clone();
                        if s2.apply(d).is_err() || s2.apply(a).is_err() {
                            continue;
                        }
                        if s1.evaluate_now().unwrap() == s2.evaluate_now().unwrap() {
                            agreements += 1;
                        }
                    }
                }
                black_box(agreements)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_decision, bench_both_orders);
criterion_main!(benches);
