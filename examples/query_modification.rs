//! Query modification end-to-end (Sec. V): the retained query state, the
//! per-column predicate list, replace/delete/reinstate, cascaded removal
//! of dependent columns, and the point of non-commutativity.
//!
//! ```sh
//! cargo run --example query_modification
//! ```

use sheetmusiq_repro::prelude::*;
use spreadsheet_algebra::fixtures::used_cars;
use spreadsheet_algebra::render::render_table;

fn show(engine: &mut Engine, title: &str) {
    println!("— {title} —");
    println!("{}", render_table(engine.view().expect("sheet evaluates")));
}

fn main() {
    let mut engine = Engine::over(used_cars());

    // Build up Sam's query one step at a time.
    let select = |engine: &mut Engine, predicate: Expr| {
        engine
            .apply(SheetOp::Select { predicate })
            .and_then(Applied::selection)
            .expect("column exists")
    };
    let year = select(&mut engine, Expr::col("Year").eq(Expr::lit(2005)));
    select(&mut engine, Expr::col("Model").eq(Expr::lit("Jetta")));
    select(&mut engine, Expr::col("Mileage").lt(Expr::lit(80_000)));
    engine
        .apply(SheetOp::Group {
            attributes: vec!["Condition".into()],
            direction: Direction::Asc,
        })
        .expect("group");
    engine
        .apply(SheetOp::Order {
            attribute: "Price".into(),
            direction: Direction::Asc,
            level: 2,
        })
        .expect("order");
    show(&mut engine, "Table IV: Year = 2005, Jetta, mileage < 80k");

    // The query state, as the History menu would describe it:
    println!("query state:");
    for line in engine.sheet().state().describe() {
        println!("  · {line}");
    }

    // Sam's budget grows: modify the retained Year predicate. Everything
    // else — model filter, grouping, ordering — stays in force.
    engine
        .apply(SheetOp::ReplaceSelection {
            target: year,
            predicate: Expr::col("Year").eq(Expr::lit(2006)),
        })
        .expect("the predicate is still modifiable");
    show(&mut engine, "Table V: the same query with Year = 2006");

    // The modification is itself an undoable history entry.
    println!("history:");
    for line in engine.history() {
        println!("  {line}");
    }
    engine.undo().expect("undo the modification");
    println!(
        "after undo, back to {} rows\n",
        engine.view().expect("evaluates").len()
    );
    engine.redo().expect("redo it");

    // Cascaded removal: an aggregate with dependents cannot be dropped
    // one-shot; the plan lists what must go first.
    let avg = engine
        .apply(SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "Price".into(),
            level: 2,
        })
        .and_then(Applied::column)
        .expect("aggregate");
    select(&mut engine, Expr::col("Price").le(Expr::col(&avg)));
    let err = engine
        .apply(SheetOp::RemoveComputed { name: avg.clone() })
        .expect_err("dependents block removal");
    println!("one-shot removal refused: {err}");
    let plan = engine.remove_with_cascade(&avg).expect("cascade succeeds");
    println!("cascade executed: {plan}\n");
    show(&mut engine, "after cascade (aggregate and dependents gone)");

    // A binary operator ends the rewritable region.
    let snapshot = engine.save("before-union").expect("save");
    engine.union(&snapshot).expect("union");
    println!(
        "after union, earlier selections are consumed: {} remain modifiable",
        engine.sheet().state().selections.len()
    );
}
