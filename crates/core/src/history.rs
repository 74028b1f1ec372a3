//! Operation history: the "History" menu of Sec. VI — a numbered list of
//! all manipulations with meaningful names, one-step and multi-step
//! undo/redo — wrapped around a [`Spreadsheet`] as the [`Engine`].
//!
//! Every unary operator and base edit enters as a [`SheetOp`] through
//! [`Engine::apply`]. The binary operators and cascading column removal
//! are not `SheetOp`s (see DESIGN.md §19) and have methods of their own;
//! all of them record through one private path: snapshot, run, push an
//! entry, or roll back.
//!
//! Undo is snapshot-based: every operation records the sheet's defining
//! data (base + state) beforehand, making all user actions reversible
//! (direct-manipulation desideratum iii). Query *modification* (Sec. V)
//! is applied through the engine too, so that state edits are themselves
//! undoable history entries. An entry keeps the History line, rendered
//! when the operator ran, not the op: an appended batch's rows are not
//! held a second time on the undo stack.

use crate::error::{Result, SheetError};
use crate::eval::Derived;
use crate::modify::RemovalPlan;
use crate::replica::{Applied, SheetOp};
use crate::sheet::{Spreadsheet, StoredSheet};
use crate::spec::Direction;
use crate::state::QueryState;
use ssa_relation::{AggFunc, Expr, Relation};
use std::sync::Arc;

/// One History-menu entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// The line the menu shows, e.g. `Select [Year = 2005] (#0)`.
    pub line: String,
    /// For σ: the new selection's id and its predicate text.
    pub selection: Option<(u64, String)>,
    /// A binary operator: a point of non-commutativity.
    pub binary: bool,
}

impl HistoryEntry {
    fn new(line: String, binary: bool) -> HistoryEntry {
        HistoryEntry {
            line,
            selection: None,
            binary,
        }
    }

    /// The entry for `op`, which produced `applied`.
    fn of(op: &SheetOp, applied: &Applied) -> HistoryEntry {
        // What the op created: a selection id or a column name.
        let made = match applied {
            Applied::Selection(id) => id.to_string(),
            Applied::Column(name) => name.clone(),
            Applied::Done => String::new(),
        };
        let line = match op {
            SheetOp::AppendRows { rows } => format!("Append {} row(s)", rows.len()),
            SheetOp::DeleteRows { ids } => format!("Delete {} row(s)", ids.len()),
            SheetOp::UpdateCell { row, column, .. } => {
                format!("Update {column} of base row {row}")
            }
            SheetOp::Rename { from, to } => format!("Rename {from} to {to}"),
            SheetOp::Select { predicate } => format!("Select [{predicate}] (#{made})"),
            SheetOp::ReplaceSelection { target, predicate } => {
                format!("Modify selection #{target} to [{predicate}]")
            }
            SheetOp::RemoveSelection { target } => format!("Remove selection #{target}"),
            SheetOp::Group {
                attributes,
                direction,
            } => format!("Group by {{{}}} {direction}", attributes.join(", ")),
            SheetOp::Regroup {
                attributes,
                direction,
            } => format!("Regroup by {{{}}} {direction}", attributes.join(", ")),
            SheetOp::Ungroup => "Remove grouping".to_string(),
            SheetOp::Order {
                attribute,
                direction,
                level,
            } => format!("Order level {level} by {attribute} {direction}"),
            SheetOp::ProjectOut { column } => format!("Project out {column}"),
            SheetOp::Reinstate { column } => format!("Reinstate {column}"),
            SheetOp::Aggregate {
                func,
                column,
                level,
            } => format!("Aggregate {made} = {func}({column}) at level {level}"),
            SheetOp::Formula { expr, .. } => format!("Formula {made} = {expr}"),
            SheetOp::RemoveComputed { name } => format!("Remove column {name}"),
            SheetOp::Dedup => "Remove duplicates".to_string(),
        };
        let selection = match (op, applied) {
            (SheetOp::Select { predicate }, Applied::Selection(id)) => {
                Some((*id, predicate.to_string()))
            }
            _ => None,
        };
        HistoryEntry {
            line,
            selection,
            binary: false,
        }
    }
}

/// O(1): the base is held by `Arc`, so recording history never
/// copies data (base edits copy-on-write away from held snapshots).
type Snapshot = (Arc<Relation>, QueryState, u64, u64);

/// A spreadsheet with history: every operator of the algebra, recorded,
/// undoable and redoable.
#[derive(Debug, Clone)]
pub struct Engine {
    sheet: Spreadsheet,
    undo_stack: Vec<(HistoryEntry, Snapshot)>,
    redo_stack: Vec<(HistoryEntry, Snapshot)>,
}

impl Engine {
    pub fn over(relation: Relation) -> Engine {
        Engine::from_sheet(Spreadsheet::over(relation))
    }

    /// An engine over an already-shared base relation: the session holds
    /// the `Arc` without copying data (see [`Spreadsheet::over_shared`]).
    pub fn over_shared(relation: Arc<Relation>) -> Engine {
        Engine::from_sheet(Spreadsheet::over_shared(relation))
    }

    pub fn from_sheet(sheet: Spreadsheet) -> Engine {
        Engine {
            sheet,
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
        }
    }

    pub fn sheet(&self) -> &Spreadsheet {
        &self.sheet
    }

    pub fn sheet_mut(&mut self) -> &mut Spreadsheet {
        &mut self.sheet
    }

    /// Evaluated view of the current sheet.
    pub fn view(&mut self) -> Result<&Derived> {
        self.sheet.view()
    }

    /// The numbered history listing (most recent last).
    pub fn history(&self) -> Vec<String> {
        self.undo_stack
            .iter()
            .enumerate()
            .map(|(i, (entry, _))| format!("{}. {}", i + 1, entry.line))
            .collect()
    }

    /// The entries of the undo stack, oldest first.
    pub fn records(&self) -> Vec<&HistoryEntry> {
        self.undo_stack.iter().map(|(entry, _)| entry).collect()
    }

    /// Apply one operator and record it: the path every unary operator,
    /// query modification and base edit takes. A failed operator
    /// records nothing and leaves the sheet as it was.
    pub fn apply(&mut self, op: SheetOp) -> Result<Applied> {
        let result = self.record(|sheet| {
            let applied = sheet.apply(&op)?;
            Ok((HistoryEntry::of(&op, &applied), applied))
        });
        match op {
            SheetOp::ReplaceSelection { target, .. } | SheetOp::RemoveSelection { target } => {
                result.map_err(|e| self.diagnose_missing_selection(target, e))
            }
            _ => result,
        }
    }

    /// × with a stored sheet (a point of non-commutativity, like the
    /// other binary operators).
    pub fn product(&mut self, stored: &StoredSheet) -> Result<()> {
        self.record_binary(format!("Product with {}", stored.name), |s| {
            s.product(stored)
        })
    }

    pub fn join(&mut self, stored: &StoredSheet, condition: Expr) -> Result<()> {
        let line = format!("Join with {} on {condition}", stored.name);
        self.record_binary(line, |s| s.join(stored, condition))
    }

    pub fn union(&mut self, stored: &StoredSheet) -> Result<()> {
        self.record_binary(format!("Union with {}", stored.name), |s| s.union(stored))
    }

    pub fn difference(&mut self, stored: &StoredSheet) -> Result<()> {
        self.record_binary(format!("Difference with {}", stored.name), |s| {
            s.difference(stored)
        })
    }

    /// Remove computed column `column` and everything that depends on it
    /// (Sec. V-B) as one history entry, so one undo brings it all back.
    pub fn remove_with_cascade(&mut self, column: &str) -> Result<RemovalPlan> {
        self.record(|sheet| {
            let plan = sheet.remove_with_cascade(column)?;
            Ok((HistoryEntry::new(format!("Cascade: {plan}"), false), plan))
        })
    }

    fn record_binary(
        &mut self,
        line: String,
        f: impl FnOnce(&mut Spreadsheet) -> Result<()>,
    ) -> Result<()> {
        self.record(|sheet| f(sheet).map(|()| (HistoryEntry::new(line, true), ())))
    }

    /// The one recording path: snapshot, run `f`, and push the entry it
    /// returns; on failure, restore the snapshot and record nothing.
    fn record<T>(
        &mut self,
        f: impl FnOnce(&mut Spreadsheet) -> Result<(HistoryEntry, T)>,
    ) -> Result<T> {
        let snapshot = self.sheet.snapshot();
        match f(&mut self.sheet) {
            Ok((entry, value)) => {
                self.undo_stack.push((entry, snapshot));
                self.redo_stack.clear();
                Ok(value)
            }
            Err(e) => {
                // A failed operator must leave the sheet untouched; the
                // operators are transactional, but restore defensively.
                let (b, s, ep, ver) = snapshot;
                self.sheet.restore(b, s, ep, ver);
                Err(e)
            }
        }
    }

    /// Undo the most recent operation. Returns its History line.
    pub fn undo(&mut self) -> Result<String> {
        self.step(false)
    }

    /// Redo the most recently undone operation.
    pub fn redo(&mut self) -> Result<String> {
        self.step(true)
    }

    /// Move one entry from one stack to the other, restoring the
    /// snapshot it carries and leaving the current one in its place.
    fn step(&mut self, redo: bool) -> Result<String> {
        let (from, to) = if redo {
            (&mut self.redo_stack, &mut self.undo_stack)
        } else {
            (&mut self.undo_stack, &mut self.redo_stack)
        };
        let (entry, snapshot) = from.pop().ok_or(SheetError::HistoryExhausted { redo })?;
        let line = entry.line.clone();
        to.push((entry, self.sheet.snapshot()));
        let (b, s, ep, ver) = snapshot;
        self.sheet.restore(b, s, ep, ver);
        Ok(line)
    }

    /// Multi-step undo.
    pub fn undo_steps(&mut self, steps: usize) -> Result<Vec<String>> {
        (0..steps).map(|_| self.undo()).collect()
    }

    /// Multi-step redo.
    pub fn redo_steps(&mut self, steps: usize) -> Result<Vec<String>> {
        (0..steps).map(|_| self.redo()).collect()
    }

    /// If a selection id is gone because a binary operator consumed it,
    /// say so precisely: "where data from other sheets has been pulled in
    /// we cannot go back beyond" (Sec. V-A).
    fn diagnose_missing_selection(&self, id: u64, err: SheetError) -> SheetError {
        if !matches!(err, SheetError::UnknownSelection { .. }) {
            return err;
        }
        let mut described: Option<&str> = None;
        for (entry, _) in &self.undo_stack {
            match (&entry.selection, described) {
                (Some((sid, predicate)), _) if *sid == id => described = Some(predicate),
                (_, Some(description)) if entry.binary => {
                    return SheetError::BehindNonCommutativityPoint {
                        description: description.to_string(),
                    };
                }
                _ => {}
            }
        }
        err
    }

    /// Save the current sheet (Sec. III-C): the right operand of a later
    /// binary operator. Not an edit, so nothing is recorded.
    pub fn save(&self, name: impl Into<String>) -> Result<StoredSheet> {
        self.sheet.save(name)
    }

    // --- wrappers over `apply`, kept for `perfbench/` --------------------

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn select(&mut self, predicate: Expr) -> Result<u64> {
        self.apply(SheetOp::Select { predicate })?.selection()
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn replace_selection(&mut self, target: u64, predicate: Expr) -> Result<()> {
        self.apply(SheetOp::ReplaceSelection { target, predicate })
            .map(drop)
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn remove_selection(&mut self, target: u64) -> Result<()> {
        self.apply(SheetOp::RemoveSelection { target }).map(drop)
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn formula(&mut self, name: Option<&str>, expr: Expr) -> Result<String> {
        let name = name.map(str::to_string);
        self.apply(SheetOp::Formula { name, expr })?.column()
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn aggregate(&mut self, func: AggFunc, column: &str, level: usize) -> Result<String> {
        let column = column.to_string();
        self.apply(SheetOp::Aggregate {
            func,
            column,
            level,
        })?
        .column()
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn group_add(&mut self, attributes: &[&str], direction: Direction) -> Result<()> {
        let attributes = attributes.iter().map(|a| a.to_string()).collect();
        self.apply(SheetOp::Group {
            attributes,
            direction,
        })
        .map(drop)
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn order(&mut self, attribute: &str, direction: Direction, level: usize) -> Result<()> {
        let attribute = attribute.to_string();
        self.apply(SheetOp::Order {
            attribute,
            direction,
            level,
        })
        .map(drop)
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn project_out(&mut self, column: &str) -> Result<()> {
        let column = column.to_string();
        self.apply(SheetOp::ProjectOut { column }).map(drop)
    }

    /// Kept for `perfbench/`; everything else calls [`Self::apply`].
    pub fn reinstate(&mut self, column: &str) -> Result<()> {
        let column = column.to_string();
        self.apply(SheetOp::Reinstate { column }).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::used_cars;

    fn engine() -> Engine {
        Engine::over(used_cars())
    }

    fn select(predicate: Expr) -> SheetOp {
        SheetOp::Select { predicate }
    }

    fn year_is(year: i64) -> SheetOp {
        select(Expr::col("Year").eq(Expr::lit(year)))
    }

    fn model_is(model: &str) -> SheetOp {
        select(Expr::col("Model").eq(Expr::lit(model)))
    }

    fn group(attribute: &str) -> SheetOp {
        SheetOp::Group {
            attributes: vec![attribute.into()],
            direction: Direction::Asc,
        }
    }

    fn avg_price(level: usize) -> SheetOp {
        SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "Price".into(),
            level,
        }
    }

    fn selection_id(e: &mut Engine, op: SheetOp) -> u64 {
        e.apply(op).unwrap().selection().unwrap()
    }

    #[test]
    fn history_is_a_numbered_list_with_meaningful_names() {
        let mut e = engine();
        e.apply(year_is(2005)).unwrap();
        e.apply(group("Model")).unwrap();
        e.apply(avg_price(2)).unwrap();
        let h = e.history();
        assert_eq!(h.len(), 3);
        assert!(h[0].starts_with("1. Select [Year = 2005]"));
        assert!(h[1].contains("Group by {Model} ASC"));
        assert!(h[2].contains("Avg_Price = Avg(Price) at level 2"));
    }

    #[test]
    fn undo_redo_single_step() {
        let mut e = engine();
        e.apply(model_is("Civic")).unwrap();
        assert_eq!(e.view().unwrap().len(), 3);
        let line = e.undo().unwrap();
        assert!(line.starts_with("Select "), "{line}");
        assert_eq!(e.view().unwrap().len(), 9);
        e.redo().unwrap();
        assert_eq!(e.view().unwrap().len(), 3);
    }

    #[test]
    fn undo_redo_multi_step() {
        let mut e = engine();
        e.apply(year_is(2005)).unwrap();
        e.apply(model_is("Jetta")).unwrap();
        e.apply(SheetOp::ProjectOut {
            column: "Mileage".into(),
        })
        .unwrap();
        e.undo_steps(3).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
        assert_eq!(e.view().unwrap().visible.len(), 6);
        e.redo_steps(2).unwrap();
        assert_eq!(e.view().unwrap().len(), 3);
        assert!(matches!(
            e.redo_steps(2),
            Err(SheetError::HistoryExhausted { redo: true })
        ));
    }

    #[test]
    fn new_operation_clears_redo() {
        let mut e = engine();
        e.apply(year_is(2005)).unwrap();
        e.undo().unwrap();
        e.apply(SheetOp::Dedup).unwrap();
        assert!(matches!(
            e.redo(),
            Err(SheetError::HistoryExhausted { redo: true })
        ));
    }

    #[test]
    fn undo_on_empty_history_errors() {
        let mut e = engine();
        assert!(matches!(
            e.undo(),
            Err(SheetError::HistoryExhausted { redo: false })
        ));
    }

    #[test]
    fn failed_operation_records_nothing() {
        let mut e = engine();
        assert!(e
            .apply(select(Expr::col("Ghost").eq(Expr::lit(1))))
            .is_err());
        let avg_model = SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "Model".into(),
            level: 1,
        };
        assert!(e.apply(avg_model).is_err());
        let order = SheetOp::Order {
            attribute: "Price".into(),
            direction: Direction::Asc,
            level: 5,
        };
        assert!(e.apply(order).is_err());
        assert!(e.history().is_empty());
        assert_eq!(e.view().unwrap().len(), 9);
    }

    #[test]
    fn undo_restores_binary_operator_epoch() {
        let mut e = engine();
        let stored = e.save("all").unwrap();
        e.union(&stored).unwrap();
        assert_eq!(e.sheet().epoch(), 1);
        assert_eq!(e.view().unwrap().len(), 18);
        e.undo().unwrap();
        assert_eq!(e.sheet().epoch(), 0);
        assert_eq!(e.view().unwrap().len(), 9);
    }

    #[test]
    fn modification_ops_are_history_entries() {
        let mut e = engine();
        let id = selection_id(&mut e, year_is(2005));
        e.apply(SheetOp::ReplaceSelection {
            target: id,
            predicate: Expr::col("Year").eq(Expr::lit(2006)),
        })
        .unwrap();
        assert_eq!(e.view().unwrap().len(), 5);
        assert!(e.history()[1].contains("Modify selection"));
        e.undo().unwrap();
        assert_eq!(e.view().unwrap().len(), 4);
        e.apply(SheetOp::RemoveSelection { target: id }).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
    }

    #[test]
    fn modifying_behind_a_binary_operator_is_diagnosed() {
        let mut e = engine();
        let id = selection_id(&mut e, model_is("Jetta"));
        let stored = e.save("all").unwrap();
        e.union(&stored).unwrap();
        let err = e
            .apply(SheetOp::ReplaceSelection {
                target: id,
                predicate: Expr::col("Model").eq(Expr::lit("Civic")),
            })
            .unwrap_err();
        assert!(
            matches!(err, SheetError::BehindNonCommutativityPoint { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("point of non-commutativity"));
        let err = e
            .apply(SheetOp::RemoveSelection { target: id })
            .unwrap_err();
        assert!(matches!(
            err,
            SheetError::BehindNonCommutativityPoint { .. }
        ));
        // a genuinely unknown id stays UnknownSelection
        let err = e
            .apply(SheetOp::RemoveSelection { target: 999 })
            .unwrap_err();
        assert!(matches!(err, SheetError::UnknownSelection { .. }));
    }

    #[test]
    fn binary_records_flagged() {
        let mut e = engine();
        let stored = e.save("x").unwrap();
        e.union(&stored).unwrap();
        e.apply(SheetOp::Dedup).unwrap();
        let binary: Vec<bool> = e.records().iter().map(|r| r.binary).collect();
        assert_eq!(binary, [true, false]);
    }

    #[test]
    fn base_edits_are_recorded_and_undoable() {
        use ssa_relation::{tuple, Value};
        let mut e = engine();
        e.apply(group("Model")).unwrap();
        e.view().unwrap();
        e.apply(SheetOp::AppendRows {
            rows: vec![tuple![999, "Jetta", 15500, 2005, 60000, "Good"]],
        })
        .unwrap();
        assert_eq!(e.view().unwrap().len(), 10);
        e.apply(SheetOp::UpdateCell {
            row: 9,
            column: "Price".into(),
            value: Value::Int(15750),
        })
        .unwrap();
        let base = e.sheet().base();
        let civics: Vec<u32> = (0..base.len() as u32)
            .filter(|&i| base.value_at(i as usize, "Model").unwrap() == &Value::str("Civic"))
            .collect();
        e.apply(SheetOp::DeleteRows { ids: civics }).unwrap();
        assert_eq!(e.view().unwrap().len(), 7);
        let h = e.history();
        assert!(h[1].contains("Append 1 row(s)"));
        assert!(h[2].contains("Update Price of base row 9"));
        assert!(h[3].contains("Delete 3 row(s)"));
        e.undo_steps(3).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
        assert_eq!(e.sheet().base().len(), 9);
        e.redo_steps(3).unwrap();
        assert_eq!(e.view().unwrap().len(), 7);
    }

    #[test]
    fn failed_base_edit_records_nothing() {
        let mut e = engine();
        let short_row = SheetOp::AppendRows {
            rows: vec![ssa_relation::tuple![1]],
        };
        assert!(e.apply(short_row).is_err());
        assert!(e.history().is_empty());
        assert_eq!(e.view().unwrap().len(), 9);
    }
}
