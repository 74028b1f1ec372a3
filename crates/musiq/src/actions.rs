//! Direct-manipulation user actions (Sec. VI-A) and their mapping onto
//! algebra operators.
//!
//! * clicking a column header sorts ascending; clicking again flips to
//!   descending (the header shows an up/down arrow);
//! * unchecking the checkbox left of a header projects the column out;
//!   re-checking (via the drop-down) reinstates it;
//! * right-click on a cell → "filter by this value" applies an equality
//!   selection with the cell's value, result shown immediately.

use crate::session::Session;
use spreadsheet_algebra::{Direction, Result, SheetError, SheetOp};
use ssa_relation::{Expr, Tuple, Value};
use std::collections::BTreeMap;

/// One user gesture.
#[derive(Debug, Clone, PartialEq)]
pub enum UserAction {
    /// Click the column header; under grouping the interface prompts for
    /// the level, carried here.
    ClickHeader {
        column: String,
        level: Option<usize>,
    },
    /// Uncheck the projection checkbox.
    UncheckColumn { column: String },
    /// Re-check a projected-out column from the drop-down.
    CheckColumn { column: String },
    /// Right-click a cell, choose "filter by this value".
    FilterByCellValue { column: String, row: usize },
    /// A live feed (or an editing user) appends base rows; the cached
    /// view is patched incrementally (DESIGN.md §14).
    FeedRows { rows: Vec<Tuple> },
    /// Delete base rows by base position.
    DeleteRows { ids: Vec<u32> },
    /// Edit one base cell in place.
    EditCell {
        row: u32,
        column: String,
        value: Value,
    },
}

/// Tracks the asc/desc toggle per column, like the header arrows.
#[derive(Debug, Default)]
pub struct HeaderToggles {
    directions: BTreeMap<String, Direction>,
}

impl HeaderToggles {
    pub fn new() -> HeaderToggles {
        HeaderToggles::default()
    }

    /// Direction the next click on `column` applies (and records).
    fn next(&mut self, column: &str) -> Direction {
        let next = match self.directions.get(column) {
            Some(Direction::Asc) => Direction::Desc,
            Some(Direction::Desc) | None => Direction::Asc,
        };
        self.directions.insert(column.to_string(), next);
        next
    }

    /// The arrow currently shown on a header, if any.
    pub fn shown(&self, column: &str) -> Option<Direction> {
        self.directions.get(column).copied()
    }
}

/// Apply one gesture to the session's current sheet.
pub fn apply_action(
    session: &mut Session,
    toggles: &mut HeaderToggles,
    action: &UserAction,
) -> Result<()> {
    let engine = session.engine()?;
    let op = match action {
        UserAction::ClickHeader { column, level } => SheetOp::Order {
            attribute: column.clone(),
            direction: toggles.next(column),
            level: level.unwrap_or_else(|| engine.sheet().state().spec.level_count()),
        },
        UserAction::UncheckColumn { column } => SheetOp::ProjectOut {
            column: column.clone(),
        },
        UserAction::CheckColumn { column } => SheetOp::Reinstate {
            column: column.clone(),
        },
        UserAction::FilterByCellValue { column, row } => {
            let view = engine.view()?;
            if *row >= view.len() {
                return Err(SheetError::Relation(
                    ssa_relation::RelationError::TypeMismatch {
                        context: format!("row {row} out of range"),
                    },
                ));
            }
            let value = *view.data.value_at(*row, column)?;
            SheetOp::Select {
                predicate: Expr::col(column).eq(Expr::Lit(value)),
            }
        }
        UserAction::FeedRows { rows } => SheetOp::AppendRows { rows: rows.clone() },
        UserAction::DeleteRows { ids } => SheetOp::DeleteRows { ids: ids.clone() },
        UserAction::EditCell { row, column, value } => SheetOp::UpdateCell {
            row: *row,
            column: column.clone(),
            value: *value,
        },
    };
    engine.apply(op).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spreadsheet_algebra::fixtures::used_cars;
    use ssa_relation::Catalog;

    fn session() -> Session {
        let mut c = Catalog::new();
        c.register(used_cars()).unwrap();
        let mut s = Session::new(c);
        s.load("cars").unwrap();
        s
    }

    #[test]
    fn header_click_toggles_asc_then_desc() {
        let mut s = session();
        let mut t = HeaderToggles::new();
        let click = UserAction::ClickHeader {
            column: "Price".into(),
            level: None,
        };
        apply_action(&mut s, &mut t, &click).unwrap();
        assert_eq!(t.shown("Price"), Some(Direction::Asc));
        {
            let v = s.engine().unwrap().view().unwrap();
            assert_eq!(v.data.value_at(0, "Price").unwrap(), &Value::Int(13500));
        }
        apply_action(&mut s, &mut t, &click).unwrap();
        assert_eq!(t.shown("Price"), Some(Direction::Desc));
        let v = s.engine().unwrap().view().unwrap();
        assert_eq!(v.data.value_at(0, "Price").unwrap(), &Value::Int(18000));
    }

    #[test]
    fn checkbox_projects_and_reinstates() {
        let mut s = session();
        let mut t = HeaderToggles::new();
        apply_action(
            &mut s,
            &mut t,
            &UserAction::UncheckColumn {
                column: "Mileage".into(),
            },
        )
        .unwrap();
        assert!(!s
            .engine()
            .unwrap()
            .view()
            .unwrap()
            .visible
            .contains(&"Mileage".to_string()));
        apply_action(
            &mut s,
            &mut t,
            &UserAction::CheckColumn {
                column: "Mileage".into(),
            },
        )
        .unwrap();
        assert!(s
            .engine()
            .unwrap()
            .view()
            .unwrap()
            .visible
            .contains(&"Mileage".to_string()));
    }

    #[test]
    fn filter_by_cell_value() {
        let mut s = session();
        let mut t = HeaderToggles::new();
        // Row 0 of the unsorted sheet is ID 304, a Jetta.
        apply_action(
            &mut s,
            &mut t,
            &UserAction::FilterByCellValue {
                column: "Model".into(),
                row: 0,
            },
        )
        .unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 6);
        // result shown immediately and recorded in history
        assert!(s.engine().unwrap().history()[0].contains("Model = 'Jetta'"));
    }

    #[test]
    fn feed_actions_edit_the_base() {
        use ssa_relation::tuple;
        let mut s = session();
        let mut t = HeaderToggles::new();
        apply_action(
            &mut s,
            &mut t,
            &UserAction::FeedRows {
                rows: vec![tuple![999, "Jetta", 15500, 2005, 60000, "Good"]],
            },
        )
        .unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 10);
        apply_action(
            &mut s,
            &mut t,
            &UserAction::EditCell {
                row: 9,
                column: "Price".into(),
                value: Value::Int(15750),
            },
        )
        .unwrap();
        apply_action(&mut s, &mut t, &UserAction::DeleteRows { ids: vec![9] }).unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 9);
        let h = s.engine().unwrap().history();
        assert!(h[0].contains("Append 1 row(s)"));
        assert!(h[1].contains("Update Price of base row 9"));
        assert!(h[2].contains("Delete 1 row(s)"));
        // Undo unwinds the whole feed burst.
        s.engine().unwrap().undo_steps(3).unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 9);
        assert_eq!(s.engine().unwrap().sheet().base().len(), 9);
    }

    #[test]
    fn filter_by_out_of_range_row_errors() {
        let mut s = session();
        let mut t = HeaderToggles::new();
        let r = apply_action(
            &mut s,
            &mut t,
            &UserAction::FilterByCellValue {
                column: "Model".into(),
                row: 99,
            },
        );
        assert!(r.is_err());
    }
}
