//! Reference evaluator: core single-block SQL executed with classical
//! relational semantics over the `ssa-relation` substrate.
//!
//! This is the ground truth the Theorem-1 translation is checked against
//! (the paper's equivalence claim): GROUP BY produces **one row per
//! group**, aggregates are computed over the finest grouping, HAVING
//! filters groups, ORDER BY sorts the result.

use crate::ast::{OutputItem, SelectStmt};
use spreadsheet_algebra::plan::plan_tables;
use spreadsheet_algebra::Direction;
use ssa_relation::ops::{self, AggSpec, SortKey};
use ssa_relation::{Catalog, Relation, Result};

/// Evaluate a statement against a catalog of base relations.
pub fn eval_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<Relation> {
    stmt.validate()?;

    // FROM: left-deep product of the named relations.
    let mut data = catalog.get(&stmt.from[0])?.clone();
    for name in &stmt.from[1..] {
        data = ops::product(&data, catalog.get(name)?)?;
    }

    // WHERE.
    if let Some(w) = &stmt.where_clause {
        data = ops::select(&data, w)?;
    }

    finish_select(stmt, data)
}

/// Evaluate through the algebraic planner: single-table WHERE conjuncts
/// are pushed below the joins into their relation, multi-table equi
/// conjuncts become hash joins ordered by estimated selectivity, and the
/// provenance sort restores the exact nested-loop row order — so the
/// result is bitwise-identical to [`eval_select`] (rows *and* order),
/// only faster on selective multi-join workloads.
pub fn eval_select_planned(stmt: &SelectStmt, catalog: &Catalog) -> Result<Relation> {
    stmt.validate()?;
    let inputs: Vec<&Relation> = stmt
        .from
        .iter()
        .map(|n| catalog.get(n))
        .collect::<Result<_>>()?;
    let plan = plan_tables(&inputs, stmt.where_clause.as_ref())?;
    let data = plan.execute()?;
    finish_select(stmt, data)
}

/// `EXPLAIN` — render the planned FROM/WHERE operator tree for a
/// statement without executing it.
pub fn explain_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<String> {
    stmt.validate()?;
    let inputs: Vec<&Relation> = stmt
        .from
        .iter()
        .map(|n| catalog.get(n))
        .collect::<Result<_>>()?;
    Ok(plan_tables(&inputs, stmt.where_clause.as_ref())?.render())
}

/// The shared back half: grouping, HAVING, ORDER BY, projection and
/// DISTINCT over the already-filtered FROM data.
fn finish_select(stmt: &SelectStmt, mut data: Relation) -> Result<Relation> {
    // GROUP BY + aggregation: one row per group.
    if stmt.is_grouped() {
        let group_cols: Vec<&str> = stmt.group_by.iter().map(|s| s.as_str()).collect();
        let aggs: Vec<AggSpec> = stmt
            .aggregates
            .iter()
            .map(|a| AggSpec::new(a.func, a.column.as_deref(), a.output.clone()))
            .collect();
        data = ops::group_aggregate(&data, &group_cols, &aggs)?;
        if let Some(h) = &stmt.having {
            data = ops::select(&data, h)?;
        }
    }

    // ORDER BY before projection (targets are all in the SELECT list, so
    // they survive projection; sorting first keeps this simple).
    if !stmt.order_by.is_empty() {
        let keys: Vec<SortKey> = stmt
            .order_by
            .iter()
            .map(|(c, d)| match d {
                Direction::Asc => SortKey::asc(c.clone()),
                Direction::Desc => SortKey::desc(c.clone()),
            })
            .collect();
        data = ops::sort(&data, &keys)?;
    }

    // Projection onto the SELECT items, in order.
    let outputs: Vec<&str> = stmt
        .items
        .iter()
        .map(|i| match i {
            OutputItem::Column(c) => c.as_str(),
            OutputItem::Agg(a) => a.output.as_str(),
        })
        .collect();
    let mut result = ops::project(&data, &outputs)?;
    if stmt.distinct {
        result = ops::distinct(&result)?;
    }
    result.set_name("result");
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use spreadsheet_algebra::fixtures::{dealers, used_cars};
    use ssa_relation::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(used_cars()).unwrap();
        c.register(dealers()).unwrap();
        c
    }

    fn run(sql: &str) -> Relation {
        eval_select(&parse_select(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn plain_selection_projection() {
        let r = run("SELECT Model, Price FROM cars WHERE Year = 2005");
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema().names(), vec!["Model", "Price"]);
    }

    #[test]
    fn grouped_aggregate_one_row_per_group() {
        let r = run("SELECT Model, AVG(Price) FROM cars GROUP BY Model");
        assert_eq!(r.len(), 2);
        let jetta = r
            .rows()
            .iter()
            .find(|t| t.get(0) == &Value::str("Jetta"))
            .unwrap();
        assert_eq!(jetta.get(1), &Value::Float(16333.333333333334));
    }

    #[test]
    fn having_filters_groups() {
        let r = run("SELECT Model, COUNT(*) FROM cars GROUP BY Model HAVING COUNT(*) > 3");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0].get(0), &Value::str("Jetta"));
        assert_eq!(r.rows()[0].get(1), &Value::Int(6));
    }

    #[test]
    fn order_by_descending_aggregate() {
        let r = run("SELECT Model, MAX(Price) FROM cars GROUP BY Model ORDER BY MAX(Price) DESC");
        assert_eq!(r.rows()[0].get(0), &Value::str("Jetta"));
        assert_eq!(r.rows()[1].get(0), &Value::str("Civic"));
    }

    #[test]
    fn multi_relation_product_with_join_predicate_in_where() {
        let r =
            run("SELECT City FROM cars, dealers WHERE Model = \"dealers.Model\" AND Year = 2006");
        // 2006 cars: 3 Jettas (1 dealer) + 2 Civics (2 dealers) = 7
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let r = run("SELECT COUNT(*), MIN(Price) FROM cars");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0].get(0), &Value::Int(9));
        assert_eq!(r.rows()[0].get(1), &Value::Int(13500));
    }

    #[test]
    fn multi_level_grouping() {
        let r = run(
            "SELECT Model, Year, AVG(Price) FROM cars GROUP BY Model, Year \
             ORDER BY Model, Year",
        );
        assert_eq!(r.len(), 4);
        assert_eq!(r.rows()[0].get(0), &Value::str("Civic"));
        assert_eq!(r.rows()[0].get(1), &Value::Int(2005));
        assert_eq!(r.rows()[3].get(2), &Value::Float(17500.0));
    }

    #[test]
    fn unknown_relation_errors() {
        assert!(eval_select(&parse_select("SELECT x FROM ghost").unwrap(), &catalog()).is_err());
    }

    /// The planned evaluator must be bitwise-identical to the reference
    /// evaluator — same rows in the same order — on every statement
    /// shape, including the multi-relation product where the planner
    /// actually rewrites (pushdown + hash join + provenance re-order).
    #[test]
    fn planned_matches_reference_bitwise() {
        let c = catalog();
        for sql in [
            "SELECT Model, Price FROM cars WHERE Year = 2005",
            "SELECT Model, AVG(Price) FROM cars GROUP BY Model ORDER BY Model",
            "SELECT City FROM cars, dealers WHERE Model = \"dealers.Model\" AND Year = 2006",
            "SELECT City FROM cars, dealers WHERE Model = \"dealers.Model\" AND Price < 17000 \
             AND City = 'Ann Arbor'",
            "SELECT Model, City FROM cars, dealers",
            "SELECT DISTINCT Model FROM cars, dealers WHERE Model = \"dealers.Model\"",
        ] {
            let stmt = parse_select(sql).unwrap();
            let reference = eval_select(&stmt, &c).unwrap();
            let planned = eval_select_planned(&stmt, &c).unwrap();
            assert_eq!(reference.schema(), planned.schema(), "{sql}");
            assert_eq!(reference.rows(), planned.rows(), "{sql}");
        }
    }

    #[test]
    fn explain_renders_pushdown_and_join() {
        let stmt = parse_select(
            "SELECT City FROM cars, dealers WHERE Model = \"dealers.Model\" AND Year = 2006",
        )
        .unwrap();
        let text = explain_select(&stmt, &catalog()).unwrap();
        assert!(text.contains("Join"), "join node rendered: {text}");
        assert!(
            text.contains("Filter Year = 2006"),
            "single-table conjunct pushed below the join: {text}"
        );
        assert!(text.contains("Scan cars"), "{text}");
        assert!(text.contains("Scan dealers"), "{text}");
    }
}
