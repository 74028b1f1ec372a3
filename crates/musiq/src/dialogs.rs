//! Dialog models — the small windows of Sec. VI-A, as inspectable data.
//!
//! * **Aggregation** (Fig. 1): after right-clicking a cell and choosing
//!   "aggregation", the user picks a function and — under grouping — the
//!   level, phrased in terms of the current grouping ("over all the cars"
//!   vs "cars of the same Model and Year").
//! * **Selection / comparison** (Fig. 2): the predicate dialog offers the
//!   comparison operators valid for the column's type and lets the user
//!   compare against a constant *or another column* ("compare Price with
//!   Avg_Price"), and lists the predicates already on the column so one
//!   can be replaced or deleted (query modification, Sec. V-B).
//! * **Join**: choosing a stored sheet, the dialog proposes valid join
//!   column pairs and validates the condition before running.
//! * **Formula**: lists the columns and operators available for a
//!   computed column.
//!
//! Dialogs are pure *views* over the sheet state: `open` computes what
//! the prototype would display; `submit` turns the user's choice into the
//! corresponding algebra operation.

use spreadsheet_algebra::{Engine, Result, SheetError, SheetOp, StoredSheet};
use ssa_relation::{AggFunc, CmpOp, Expr, Value, ValueType};

/// Fig. 1 — the aggregation dialog.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationDialog {
    pub column: String,
    /// Functions valid for the column's type.
    pub functions: Vec<AggFunc>,
    /// One entry per grouping level, phrased like the prototype:
    /// `(level, "over the entire sheet" / "per {Model}" / …)`.
    pub level_choices: Vec<(usize, String)>,
}

impl AggregationDialog {
    /// What the dialog shows for a right-click on `column`.
    pub fn open(engine: &Engine, column: &str) -> Result<AggregationDialog> {
        let sheet = engine.sheet();
        let derived = sheet.evaluate_now()?;
        let ty = derived.data.schema().column(column)?.ty;
        let functions: Vec<AggFunc> = AggFunc::ALL
            .into_iter()
            .filter(|f| !f.requires_numeric() || ty.is_numeric() || ty == ValueType::Null)
            .collect();
        let spec = &sheet.state().spec;
        let mut level_choices = vec![(1, "over the entire sheet".to_string())];
        for level in 2..=spec.level_count() {
            let basis: Vec<String> = spec.absolute_basis(level).into_iter().collect();
            level_choices.push((level, format!("per {{{}}}", basis.join(", "))));
        }
        Ok(AggregationDialog {
            column: column.to_string(),
            functions,
            level_choices,
        })
    }

    /// Apply the user's choice. Returns the new column's name.
    pub fn submit(&self, engine: &mut Engine, func: AggFunc, level: usize) -> Result<String> {
        if !self.functions.contains(&func) {
            return Err(SheetError::NonNumericAggregate {
                func: func.short_name().to_string(),
                column: self.column.clone(),
            });
        }
        engine
            .apply(SheetOp::Aggregate {
                func,
                column: self.column.clone(),
                level,
            })?
            .column()
    }
}

/// What the right side of a comparison can be (Fig. 2's "compare with").
#[derive(Debug, Clone, PartialEq)]
pub enum CompareWith {
    Constant(Value),
    Column(String),
}

/// Fig. 2 — the selection dialog for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionDialog {
    pub column: String,
    /// Comparison operators offered (equality always; range operators for
    /// orderable values — every type here, per the total order).
    pub comparisons: Vec<CmpOp>,
    /// Other columns of compatible type the user may compare against
    /// (this is how "Price < Avg_Price" is specified by clicks alone).
    pub comparable_columns: Vec<String>,
    /// Predicates already applied to this column, as `(id, text)` — the
    /// query-modification list of Sec. V-B.
    pub existing: Vec<(u64, String)>,
}

impl SelectionDialog {
    pub fn open(engine: &Engine, column: &str) -> Result<SelectionDialog> {
        let sheet = engine.sheet();
        let derived = sheet.evaluate_now()?;
        let ty = derived.data.schema().column(column)?.ty;
        let comparable_columns = derived
            .visible
            .iter()
            .filter(|c| c.as_str() != column)
            .filter(|c| {
                derived
                    .data
                    .schema()
                    .column(c)
                    .map(|col| {
                        col.ty == ty
                            || (col.ty.is_numeric() && ty.is_numeric())
                            || col.ty == ValueType::Null
                            || ty == ValueType::Null
                    })
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        let existing = sheet
            .state()
            .selections_on(column)
            .into_iter()
            .map(|s| (s.id, s.predicate.to_string()))
            .collect();
        Ok(SelectionDialog {
            column: column.to_string(),
            comparisons: vec![
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ],
            comparable_columns,
            existing,
        })
    }

    fn predicate(&self, op: CmpOp, with: &CompareWith) -> Expr {
        let rhs = match with {
            CompareWith::Constant(v) => Expr::Lit(*v),
            CompareWith::Column(c) => Expr::col(c.clone()),
        };
        Expr::col(&self.column).cmp(op, rhs)
    }

    /// Add a new predicate ("specify the new predicate in addition to
    /// those previously specified"). Returns its id.
    pub fn submit_new(&self, engine: &mut Engine, op: CmpOp, with: CompareWith) -> Result<u64> {
        let predicate = self.predicate(op, &with);
        engine.apply(SheetOp::Select { predicate })?.selection()
    }

    /// Replace a previously applied predicate (history is rewritten).
    pub fn submit_replace(
        &self,
        engine: &mut Engine,
        existing_id: u64,
        op: CmpOp,
        with: CompareWith,
    ) -> Result<()> {
        if !self.existing.iter().any(|(id, _)| *id == existing_id) {
            return Err(SheetError::UnknownSelection { id: existing_id });
        }
        let predicate = self.predicate(op, &with);
        engine
            .apply(SheetOp::ReplaceSelection {
                target: existing_id,
                predicate,
            })
            .map(drop)
    }

    /// Delete a previously applied predicate "without specifying a new
    /// predicate at all".
    pub fn submit_delete(&self, engine: &mut Engine, existing_id: u64) -> Result<()> {
        if !self.existing.iter().any(|(id, _)| *id == existing_id) {
            return Err(SheetError::UnknownSelection { id: existing_id });
        }
        engine
            .apply(SheetOp::RemoveSelection {
                target: existing_id,
            })
            .map(drop)
    }
}

/// The join dialog: stored-sheet choice plus graphically proposed
/// equi-join pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinDialog {
    pub stored_name: String,
    /// `(left column, right column)` pairs with compatible types —
    /// right-side names are as they will appear after the join (prefixed
    /// when clashing).
    pub proposed_pairs: Vec<(String, String)>,
}

impl JoinDialog {
    pub fn open(engine: &Engine, stored: &StoredSheet) -> Result<JoinDialog> {
        let left = engine.sheet().evaluate_now()?;
        let mut proposed_pairs = Vec::new();
        for lc in left.data.schema().columns() {
            for rc in stored.relation.schema().columns() {
                let compatible = lc.ty == rc.ty || (lc.ty.is_numeric() && rc.ty.is_numeric());
                if !compatible {
                    continue;
                }
                // name the right column as the combined schema will
                let rname = if left.data.schema().contains(&rc.name) {
                    format!("{}.{}", stored.relation.name(), rc.name)
                } else {
                    rc.name.clone()
                };
                // propose only plausible pairs: same (suffix) name
                let plausible = lc.name == rc.name
                    || lc
                        .name
                        .to_ascii_lowercase()
                        .contains(&rc.name.to_ascii_lowercase())
                    || rc
                        .name
                        .to_ascii_lowercase()
                        .contains(&lc.name.to_ascii_lowercase());
                if plausible {
                    proposed_pairs.push((lc.name.clone(), rname));
                }
            }
        }
        Ok(JoinDialog {
            stored_name: stored.name.clone(),
            proposed_pairs,
        })
    }

    /// Run the join on one of the proposed pairs (or any custom pair —
    /// the engine validates and "any invalid condition is reported to the
    /// user immediately").
    pub fn submit(
        &self,
        engine: &mut Engine,
        stored: &StoredSheet,
        left_column: &str,
        right_column: &str,
    ) -> Result<()> {
        engine.join(stored, Expr::col(left_column).eq(Expr::col(right_column)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spreadsheet_algebra::fixtures::{dealers, used_cars};
    use spreadsheet_algebra::{Direction, Engine, Spreadsheet};

    fn engine() -> Engine {
        Engine::over(used_cars())
    }

    #[test]
    fn aggregation_dialog_matches_fig1() {
        let mut e = engine();
        for attribute in ["Model", "Year"] {
            e.apply(SheetOp::Group {
                attributes: vec![attribute.into()],
                direction: Direction::Asc,
            })
            .unwrap();
        }
        let d = AggregationDialog::open(&e, "Price").unwrap();
        assert!(d.functions.contains(&AggFunc::Avg));
        // Fig. 1's choice: over all the cars, or per Model, or per
        // (Model, Year)
        assert_eq!(d.level_choices.len(), 3);
        assert_eq!(d.level_choices[0].1, "over the entire sheet");
        assert!(d.level_choices[2].1.contains("Model"));
        assert!(d.level_choices[2].1.contains("Year"));
        let name = d.submit(&mut e, AggFunc::Avg, 3).unwrap();
        assert_eq!(name, "Avg_Price");
        let view = e.view().unwrap();
        assert!(view.data.schema().contains("Avg_Price"));
    }

    #[test]
    fn aggregation_dialog_blocks_invalid_function() {
        let mut e = engine();
        let d = AggregationDialog::open(&e, "Model").unwrap();
        assert!(!d.functions.contains(&AggFunc::Sum));
        assert!(d.submit(&mut e, AggFunc::Sum, 1).is_err());
        assert!(d.submit(&mut e, AggFunc::Count, 1).is_ok());
    }

    #[test]
    fn selection_dialog_compares_price_with_avg_price_like_fig2() {
        let mut e = engine();
        e.apply(SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "Price".into(),
            level: 1,
        })
        .unwrap();
        let d = SelectionDialog::open(&e, "Price").unwrap();
        // the computed column is offered as a comparison target
        assert!(d.comparable_columns.contains(&"Avg_Price".to_string()));
        // strings are not
        assert!(!d.comparable_columns.contains(&"Model".to_string()));
        d.submit_new(&mut e, CmpOp::Lt, CompareWith::Column("Avg_Price".into()))
            .unwrap();
        assert_eq!(e.view().unwrap().len(), 4);
    }

    #[test]
    fn selection_dialog_lists_and_replaces_existing() {
        let mut e = engine();
        let predicate = Expr::col("Year").eq(Expr::lit(2005));
        let id = e
            .apply(SheetOp::Select { predicate })
            .unwrap()
            .selection()
            .unwrap();
        let d = SelectionDialog::open(&e, "Year").unwrap();
        assert_eq!(d.existing.len(), 1);
        assert_eq!(d.existing[0].0, id);
        assert!(d.existing[0].1.contains("Year = 2005"));
        d.submit_replace(
            &mut e,
            id,
            CmpOp::Eq,
            CompareWith::Constant(Value::Int(2006)),
        )
        .unwrap();
        assert_eq!(e.view().unwrap().len(), 5);
        // deleting through the dialog restores everything
        let d = SelectionDialog::open(&e, "Year").unwrap();
        d.submit_delete(&mut e, id).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
        // stale ids are rejected
        assert!(d.submit_delete(&mut e, 999).is_err());
        assert!(d
            .submit_replace(&mut e, 999, CmpOp::Eq, CompareWith::Constant(Value::Int(1)))
            .is_err());
    }

    #[test]
    fn join_dialog_proposes_model_pair() {
        let e = engine();
        let stored = Spreadsheet::over(dealers()).save("dealers").unwrap();
        let d = JoinDialog::open(&e, &stored).unwrap();
        // Model exists on both sides with a clash → right side prefixed.
        assert!(d
            .proposed_pairs
            .contains(&("Model".to_string(), "dealers.Model".to_string())));
        let mut e = engine();
        d.submit(&mut e, &stored, "Model", "dealers.Model").unwrap();
        assert_eq!(e.view().unwrap().len(), 12);
    }

    #[test]
    fn join_dialog_invalid_pair_reported_immediately() {
        let mut e = engine();
        let stored = Spreadsheet::over(dealers()).save("dealers").unwrap();
        let d = JoinDialog::open(&e, &stored).unwrap();
        let err = d.submit(&mut e, &stored, "Ghost", "City").unwrap_err();
        assert!(matches!(err, SheetError::UnknownColumn { .. }));
        // sheet untouched by the failed join
        assert_eq!(e.sheet().epoch(), 0);
    }
}
