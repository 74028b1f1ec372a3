//! The Theorem-1 construction: compile a core single-block SQL statement
//! into a sequence of spreadsheet-algebra operations.
//!
//! The seven steps of the paper's proof, verbatim:
//!
//! 1. product the FROM relations one at a time;
//! 2. specify the WHERE clause with the selection operator (one selection
//!    per conjunct — small direct-manipulation steps);
//! 3. one grouping operator per GROUP BY item, left to right;
//! 4. one aggregation operator per aggregate, at the finest level;
//! 5. the HAVING clause as a selection over the aggregate columns;
//! 6. the ORDER BY clause with the ordering operator at the finest level
//!    (a target that is a grouping attribute flips its group level's
//!    direction instead — Def. 4 case 2);
//! 7. project out every column not in the output, one at a time.
//!
//! ## Equivalence, precisely
//!
//! Under SQL semantics a grouped query returns **one row per group**; the
//! spreadsheet keeps *all* tuples with aggregate values repeated within
//! each group (Def. 11), and projection never removes tuples (Def. 6
//! leaves `R` intact). The two results are therefore equal only after
//! collapsing the spreadsheet's identical visible rows — which is exactly
//! what [`equivalent`] checks (and what a user sees after an explicit DE).
//! For ungrouped queries the results are equal as multisets outright.
//! This makes the gap in the paper's proof sketch explicit instead of
//! hiding it.

use crate::ast::{OutputItem, SelectStmt};
use spreadsheet_algebra::{Direction, SheetError, Spreadsheet};
use ssa_relation::{ops, Catalog, Relation};

/// The result of translating a statement: the driven spreadsheet and the
/// mapping from SQL output names to spreadsheet column names.
#[derive(Debug)]
pub struct Translated {
    pub sheet: Spreadsheet,
    /// `(sql_output_name, sheet_column_name)` in SELECT order.
    pub outputs: Vec<(String, String)>,
}

impl Translated {
    /// The spreadsheet's answer projected onto the SQL output columns, in
    /// presentation order.
    pub fn result(&self) -> Result<Relation, SheetError> {
        let derived = self.sheet.evaluate_now()?;
        let cols: Vec<&str> = self.outputs.iter().map(|(_, c)| c.as_str()).collect();
        let mut rel = ops::project(&derived.data, &cols)?;
        // Rename to the SQL-side output names so schemas align.
        for (sql, sheet_col) in &self.outputs {
            if sql != sheet_col {
                rel.schema_mut().rename(sheet_col, sql)?;
            }
        }
        rel.set_name("result");
        Ok(rel)
    }
}

/// Run the seven-step construction.
pub fn translate(stmt: &SelectStmt, catalog: &Catalog) -> Result<Translated, SheetError> {
    stmt.validate()?;

    // Step 1: product of the FROM relations.
    let mut sheet = Spreadsheet::over(catalog.get(&stmt.from[0])?.clone());
    for name in &stmt.from[1..] {
        let stored = Spreadsheet::over(catalog.get(name)?.clone()).save(name.clone())?;
        sheet.product(&stored)?;
    }

    // Step 2: WHERE as selections, one conjunct at a time.
    if let Some(w) = &stmt.where_clause {
        for conjunct in w.conjuncts() {
            sheet.select(conjunct)?;
        }
    }

    // Step 3: grouping, one GROUP BY item at a time, left to right.
    for item in &stmt.group_by {
        sheet.group_add(&[item.as_str()], Direction::Asc)?;
    }

    // Step 4: aggregations at the finest level.
    let finest = sheet.state().spec.level_count();
    let mut outputs: Vec<(String, String)> = Vec::new();
    let mut agg_names: Vec<(String, String)> = Vec::new(); // canonical → sheet
    for agg in &stmt.aggregates {
        // COUNT(*) counts tuples; any column works under AggFunc::Count
        // (NULLs included). Use the first base column.
        let input = match &agg.column {
            Some(c) => c.clone(),
            None => sheet
                .base()
                .schema()
                .names()
                .first()
                .expect("relations have at least one column")
                .to_string(),
        };
        let name = sheet.aggregate(agg.func, &input, finest)?;
        agg_names.push((agg.output.clone(), name));
    }
    let sheet_name_of = |canonical: &str| -> String {
        agg_names
            .iter()
            .find(|(c, _)| c == canonical)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| canonical.to_string())
    };

    // Step 5: HAVING as a selection over the aggregate columns.
    if let Some(h) = &stmt.having {
        let rewritten = h.map_columns(&|c| sheet_name_of(c));
        for conjunct in rewritten.conjuncts() {
            sheet.select(conjunct)?;
        }
    }

    // Step 6: ORDER BY. A plain attribute (or aggregate column) orders the
    // finest level; a grouping attribute flips the direction of the level
    // it defines (Def. 4 case 2 — ordering level i−1 groups by the
    // relative basis of level i).
    for (target, dir) in &stmt.order_by {
        let sheet_col = sheet_name_of(target);
        let spec = &sheet.state().spec;
        let mut handled = false;
        for level in 2..=spec.level_count() {
            if spec.in_relative_basis(&sheet_col, level) {
                sheet.order(&sheet_col, *dir, level - 1)?;
                handled = true;
                break;
            }
        }
        if !handled {
            let finest = sheet.state().spec.level_count();
            sheet.order(&sheet_col, *dir, finest)?;
        }
    }

    // Step 7: project out everything not in the output, one at a time.
    let mut keep: Vec<String> = Vec::new();
    for item in &stmt.items {
        let col = match item {
            OutputItem::Column(c) => c.clone(),
            OutputItem::Agg(a) => sheet_name_of(&a.output),
        };
        outputs.push((item.output_name().to_string(), col.clone()));
        keep.push(col);
    }
    for col in sheet.visible() {
        if keep.contains(&col) {
            continue;
        }
        match sheet.project_out(&col) {
            Ok(()) => {}
            // A computed column the HAVING clause depends on cannot be
            // removed (precedence); leaving it visible does not affect
            // the projected result.
            Err(SheetError::ColumnInUse { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Extension: SELECT DISTINCT maps to the algebra's DE operator. Note
    // DE removes duplicate *R-tuples* (Def. 13); the projected visible
    // rows may still repeat when hidden columns differ — `equivalent`
    // collapses both sides, the same gloss as for grouped queries.
    if stmt.distinct {
        sheet.dedup()?;
    }

    Ok(Translated { sheet, outputs })
}

/// Theorem-1 equivalence check between the SQL reference result and the
/// spreadsheet result (see module docs for the duplicate-collapse rule).
pub fn equivalent(stmt: &SelectStmt, sql_result: &Relation, sheet_result: &Relation) -> bool {
    if stmt.is_grouped() || stmt.distinct {
        let a = ops::distinct(sql_result).expect("distinct cannot fail");
        let b = ops::distinct(sheet_result).expect("distinct cannot fail");
        a.multiset_eq_unordered_columns(&b)
    } else {
        sql_result.multiset_eq_unordered_columns(sheet_result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_select;
    use crate::parser::parse_select;
    use spreadsheet_algebra::fixtures::{dealers, used_cars};
    use ssa_relation::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(used_cars()).unwrap();
        c.register(dealers()).unwrap();
        c
    }

    fn check(sql: &str) {
        let stmt = parse_select(sql).unwrap();
        let cat = catalog();
        let reference = eval_select(&stmt, &cat).unwrap();
        let translated = translate(&stmt, &cat).unwrap();
        let sheet_result = translated.result().unwrap();
        assert!(
            equivalent(&stmt, &reference, &sheet_result),
            "not equivalent for `{sql}`\nSQL: {reference:?}\nsheet: {sheet_result:?}"
        );
    }

    #[test]
    fn theorem1_plain_selection() {
        check("SELECT Model, Price FROM cars WHERE Year = 2005 AND Price < 16000");
    }

    #[test]
    fn theorem1_projection_only() {
        check("SELECT Model FROM cars");
    }

    #[test]
    fn theorem1_distinct_and_between_in() {
        check("SELECT DISTINCT Model FROM cars");
        check("SELECT DISTINCT Model, Year FROM cars WHERE Price BETWEEN 14000 AND 17000");
        check("SELECT ID, Model FROM cars WHERE Model IN ('Jetta', 'Civic') AND Year IN (2006)");
    }

    #[test]
    fn theorem1_grouped_aggregate() {
        check("SELECT Model, AVG(Price) FROM cars GROUP BY Model");
    }

    #[test]
    fn theorem1_having() {
        check("SELECT Model, COUNT(*) FROM cars GROUP BY Model HAVING COUNT(*) > 3");
    }

    #[test]
    fn theorem1_multi_level_grouping_with_order() {
        check(
            "SELECT Model, Year, AVG(Price) FROM cars GROUP BY Model, Year \
             ORDER BY Model DESC, Year",
        );
    }

    #[test]
    fn theorem1_multi_relation_join_in_where() {
        check("SELECT City FROM cars, dealers WHERE Model = \"dealers.Model\" AND Year = 2006");
    }

    #[test]
    fn theorem1_global_aggregate() {
        check("SELECT COUNT(*), MAX(Price) FROM cars");
    }

    #[test]
    fn translated_presentation_respects_grouping_direction() {
        // ORDER BY Model DESC flips the Model grouping level.
        let stmt =
            parse_select("SELECT Model, AVG(Price) FROM cars GROUP BY Model ORDER BY Model DESC")
                .unwrap();
        let t = translate(&stmt, &catalog()).unwrap();
        let r = t.result().unwrap();
        assert_eq!(&r.rows()[0][0], &Value::str("Jetta"));
        assert_eq!(&r.rows()[r.len() - 1][0], &Value::str("Civic"));
    }

    #[test]
    fn having_only_aggregate_stays_but_projected_result_matches() {
        // MIN(Price) is used only in HAVING; the sheet cannot drop the
        // computed column (the selection depends on it) but the projected
        // result still matches SQL.
        check("SELECT Model FROM cars GROUP BY Model HAVING MIN(Price) < 14000");
    }

    #[test]
    fn outputs_mapping_aligns_names() {
        let stmt = parse_select("SELECT Model, COUNT(*) FROM cars GROUP BY Model").unwrap();
        let t = translate(&stmt, &catalog()).unwrap();
        assert_eq!(t.outputs[0], ("Model".to_string(), "Model".into()));
        assert_eq!(t.outputs[1].0, "Count");
        let r = t.result().unwrap();
        assert_eq!(r.schema().names(), vec!["Model", "Count"]);
    }
}
