//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                  # everything
//! repro table1           # Table I   — sample used-car database
//! repro table2           # Table II  — after grouping by Condition
//! repro table3           # Table III — Avg_Price computed column
//! repro table4_5         # Tables IV–V — query modification
//! repro table6           # Table VI  — subjective results
//! repro fig3 fig4 fig5   # user-study figures
//! repro significance     # Mann-Whitney + Fisher claims
//! repro sensitivity      # robustness of the study shape across seeds
//! repro theorems         # Theorem 1–3 spot checks
//! ```

use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::prelude::*;
use spreadsheet_algebra::render::render_table;
use ssa_study::{
    correctness_significance, fig3_speed, fig4_stddev, fig5_correctness, run_study,
    speed_significance, table6_subjective, StudyConfig,
};
use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        section("Table I — sample used-car database (grouped by Model DESC, Year ASC; Price ASC)");
        print!("{}", render(table1_sheet()));
    }
    if want("table2") {
        section("Table II — after grouping by {Year, Model, Condition} ASC (Example 1)");
        let mut sheet = table1_sheet();
        sheet
            .group(&["Year", "Model", "Condition"], Direction::Asc)
            .expect("grouping extends the paper's arrangement");
        print!("{}", render(sheet));
    }
    if want("table3") {
        section("Table III — Avg_Price per (Model, Year) as a computed column");
        let mut sheet = table1_sheet();
        sheet
            .aggregate(AggFunc::Avg, "Price", 3)
            .expect("level 3 exists");
        sheet.project_out("Condition").expect("Condition exists");
        print!("{}", render(sheet));
    }
    if want("table4_5") {
        section("Tables IV–V — query modification (Year = 2005 → 2006)");
        let mut sheet = Spreadsheet::over(used_cars());
        let year = sheet
            .select(Expr::col("Year").eq(Expr::lit(2005)))
            .expect("Year exists");
        sheet
            .select(Expr::col("Model").eq(Expr::lit("Jetta")))
            .expect("Model exists");
        sheet
            .select(Expr::col("Mileage").lt(Expr::lit(80000)))
            .expect("Mileage exists");
        sheet
            .group(&["Condition"], Direction::Asc)
            .expect("Condition exists");
        sheet
            .order("Price", Direction::Asc, 2)
            .expect("finest level");
        println!("Before modification (Table IV):");
        print!("{}", render(sheet.clone()));
        sheet
            .replace_selection(year, Expr::col("Year").eq(Expr::lit(2006)))
            .expect("the retained predicate is replaceable");
        println!("\nAfter modifying the retained Year predicate (Table V):");
        print!("{}", render(sheet));
    }

    let study =
        if want("fig3") || want("fig4") || want("fig5") || want("table6") || want("significance") {
            println!("\nRunning the simulated user study (10 subjects × 10 TPC-H tasks × 2 tools,");
            println!("system answers verified against the SQL reference first)…");
            Some(run_study(&StudyConfig::default()))
        } else {
            None
        };

    if let Some(result) = &study {
        if want("fig3") {
            section("Fig. 3 — average time per query (seconds)");
            println!("{:>5} {:>10} {:>10}", "query", "Navicat", "SheetMusiq");
            for s in fig3_speed(result) {
                println!("{:>5} {:>10.1} {:>10.1}", s.task, s.navicat, s.sheetmusiq);
            }
        }
        if want("fig4") {
            section("Fig. 4 — standard deviation of speeds (seconds)");
            println!("{:>5} {:>10} {:>10}", "query", "Navicat", "SheetMusiq");
            for s in fig4_stddev(result) {
                println!("{:>5} {:>10.1} {:>10.1}", s.task, s.navicat, s.sheetmusiq);
            }
        }
        if want("fig5") {
            section("Fig. 5 — users (of 10) completing each query correctly");
            println!("{:>5} {:>10} {:>10}", "query", "Navicat", "SheetMusiq");
            for s in fig5_correctness(result) {
                println!("{:>5} {:>10} {:>10}", s.task, s.navicat, s.sheetmusiq);
            }
        }
        if want("significance") {
            section("Significance — Mann-Whitney per query (speed), Fisher (correctness)");
            let paired = ssa_study::speed_significance_paired(result);
            for ((task, mw), (_, w)) in speed_significance(result).into_iter().zip(paired) {
                println!(
                    "query {:>2}: min-U = {:>5.1}, two-sided p = {:.6}{}  (paired Wilcoxon p = {:.5})",
                    task,
                    mw.u1.min(mw.u2),
                    mw.p_two_sided,
                    if mw.p_two_sided < 0.002 { "  << 0.002 (significant)" } else { "" },
                    w.p_two_sided
                );
            }
            let (musiq, navicat, p) = correctness_significance(result);
            println!(
                "correct totals: SheetMusiq {musiq}/100 vs Navicat {navicat}/100; Fisher p = {p:.6}"
            );
        }
        if want("table6") {
            section("Table VI — subjective results");
            let t6 = table6_subjective(result);
            println!(
                "Which package do you prefer to use?             SheetMusiq {} / Navicat {}",
                t6.prefer.0, t6.prefer.1
            );
            println!(
                "Seeing data helps formulate queries             yes {} / no {}",
                t6.seeing_data_helps.0, t6.seeing_data_helps.1
            );
            println!(
                "Progressive refinement better than all-at-once  yes {} / no {}",
                t6.progressive_better.0, t6.progressive_better.1
            );
            println!(
                "Database concepts easier in SheetMusiq          yes {} / no {}",
                t6.concepts_easier.0, t6.concepts_easier.1
            );
        }
    }

    if want("sensitivity") {
        section("Sensitivity — study conclusions across 10 participant-panel seeds");
        let rows = ssa_study::sweep(&(1..=10).collect::<Vec<u64>>(), 0.02);
        print!("{}", ssa_study::render_sweep(&rows));
    }

    if want("theorems") {
        section("Theorems 1–3 — spot checks (full property tests live in tests/)");
        theorem1_check();
        theorem2_check();
        theorem3_check();
    }
}

fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table I's arrangement: grouped Model DESC then Year ASC, Price ASC.
fn table1_sheet() -> Spreadsheet {
    let mut sheet = Spreadsheet::over(used_cars());
    sheet
        .group(&["Model"], Direction::Desc)
        .expect("Model exists");
    sheet
        .group(&["Model", "Year"], Direction::Asc)
        .expect("superset basis");
    sheet
        .order("Price", Direction::Asc, 3)
        .expect("finest level");
    sheet
}

fn render(sheet: Spreadsheet) -> String {
    render_table(&sheet.evaluate_now().expect("fixture sheets evaluate"))
}

fn theorem1_check() {
    use ssa_sql::{eval_select, parse_select, translate};
    let (catalog, tasks) = ssa_tpch::study_setup(0.05, 2009);
    let mut ok = 0;
    for task in &tasks {
        let stmt = parse_select(task.sql).expect("task SQL parses");
        let reference = eval_select(&stmt, &catalog).expect("reference evaluates");
        let translated = translate(&stmt, &catalog).expect("translation succeeds");
        let sheet_result = translated.result().expect("sheet evaluates");
        assert!(ssa_sql::equivalent(&stmt, &reference, &sheet_result));
        ok += 1;
    }
    println!("Theorem 1: all {ok}/10 study queries translate to equivalent spreadsheet programs");
}

fn theorem2_check() {
    use spreadsheet_algebra::may_commute;
    let sheet = Spreadsheet::over(used_cars());
    let pairs = [
        (
            SheetOp::Select {
                predicate: Expr::col("Year").eq(Expr::lit(2005)),
            },
            SheetOp::Aggregate {
                func: AggFunc::Avg,
                column: "Price".into(),
                level: 1,
            },
        ),
        (
            SheetOp::Dedup,
            SheetOp::ProjectOut {
                column: "Mileage".into(),
            },
        ),
    ];
    for (a, b) in pairs {
        assert!(may_commute(&a, &b, &sheet));
        let mut ab = Engine::from_sheet(sheet.clone());
        ab.apply(a.clone()).expect("op applies");
        ab.apply(b.clone()).expect("op applies");
        let mut ba = Engine::from_sheet(sheet.clone());
        ba.apply(b).expect("op applies");
        ba.apply(a).expect("op applies");
        let (first, second) = (&ab.records()[0].line, &ab.records()[1].line);
        assert_eq!(
            ab.sheet().evaluate_now().expect("evaluates"),
            ba.sheet().evaluate_now().expect("evaluates"),
            "{first} and {second} must commute"
        );
        println!("Theorem 2: {first} then {second}  ==  {second} then {first}   [ok]");
    }
}

fn theorem3_check() {
    // State-change modification equals replaying an edited history.
    let mut modified = Spreadsheet::over(used_cars());
    let id = modified
        .select(Expr::col("Year").eq(Expr::lit(2005)))
        .expect("select");
    modified
        .group(&["Condition"], Direction::Asc)
        .expect("group");
    modified
        .aggregate(AggFunc::Avg, "Price", 2)
        .expect("aggregate");
    modified
        .replace_selection(id, Expr::col("Year").eq(Expr::lit(2006)))
        .expect("modification");

    let mut replayed = Spreadsheet::over(used_cars());
    replayed
        .select(Expr::col("Year").eq(Expr::lit(2006)))
        .expect("select");
    replayed
        .group(&["Condition"], Direction::Asc)
        .expect("group");
    replayed
        .aggregate(AggFunc::Avg, "Price", 2)
        .expect("aggregate");

    assert_eq!(
        modified.evaluate_now().expect("evaluates"),
        replayed.evaluate_now().expect("evaluates")
    );
    println!("Theorem 3: query-state modification == rewriting history   [ok]");
}
