//! A SheetMusiq session: one *current* spreadsheet plus a store of saved
//! sheets, over a catalog of base relations.
//!
//! "The spreadsheet is designed such that it should be sufficient to
//! present only one spreadsheet to the user at any time" (Sec. III-B);
//! binary operators pick their right operand from the store of previously
//! saved sheets, exactly as the prototype's pop-up menu does (Sec. VI-A).

use spreadsheet_algebra::{Engine, Result, SheetError, Spreadsheet, StoredSheet};
use ssa_relation::{Catalog, Relation};
use std::collections::BTreeMap;

/// The interface-level session state.
#[derive(Debug)]
pub struct Session {
    catalog: Catalog,
    current: Option<Engine>,
    stored: BTreeMap<String, StoredSheet>,
}

impl Session {
    pub fn new(catalog: Catalog) -> Session {
        Session {
            catalog,
            current: None,
            stored: BTreeMap::new(),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register another base relation mid-session.
    pub fn register(&mut self, relation: Relation) -> ssa_relation::Result<()> {
        self.catalog.register(relation)
    }

    /// Load a base relation as the current spreadsheet (replacing any
    /// current sheet — the prototype's Close-then-Open flow).
    pub fn load(&mut self, relation_name: &str) -> Result<()> {
        let rel = self
            .catalog
            .get(relation_name)
            .map_err(SheetError::from)?
            .clone();
        self.current = Some(Engine::over(rel));
        Ok(())
    }

    /// The current engine, or an error the UI shows as "no sheet open".
    pub fn engine(&mut self) -> Result<&mut Engine> {
        self.current.as_mut().ok_or(SheetError::UnknownSheet {
            name: "<current>".into(),
        })
    }

    /// Read-only view of the current engine.
    pub fn engine_ref(&self) -> Result<&Engine> {
        self.current.as_ref().ok_or(SheetError::UnknownSheet {
            name: "<current>".into(),
        })
    }

    pub fn has_current(&self) -> bool {
        self.current.is_some()
    }

    /// **Save**: snapshot the current sheet under a name.
    pub fn save(&mut self, name: &str) -> Result<()> {
        let stored = self.engine()?.save(name.to_string())?;
        self.stored.insert(name.to_string(), stored);
        Ok(())
    }

    /// **Open**: make a stored sheet the current one.
    pub fn open(&mut self, name: &str) -> Result<()> {
        let stored = self
            .stored
            .get(name)
            .ok_or_else(|| SheetError::UnknownSheet {
                name: name.to_string(),
            })?;
        self.current = Some(Engine::from_sheet(Spreadsheet::open(stored)?));
        Ok(())
    }

    /// **Close**: drop the current sheet (stored sheets survive).
    pub fn close(&mut self) {
        self.current = None;
    }

    /// Make an externally built engine the current sheet (used by the
    /// `sql` script command, which builds a sheet through the Theorem-1
    /// translation).
    pub fn adopt(&mut self, engine: Engine) {
        self.current = Some(engine);
    }

    /// Names of stored sheets — what the binary-operator pop-up lists.
    pub fn stored_names(&self) -> Vec<&str> {
        self.stored.keys().map(|s| s.as_str()).collect()
    }

    pub fn stored(&self, name: &str) -> Result<&StoredSheet> {
        self.stored
            .get(name)
            .ok_or_else(|| SheetError::UnknownSheet {
                name: name.to_string(),
            })
    }

    /// Remove a stored sheet.
    pub fn discard_stored(&mut self, name: &str) -> Result<()> {
        self.stored
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SheetError::UnknownSheet {
                name: name.to_string(),
            })
    }

    // Binary operators take the stored sheet by name.

    pub fn product(&mut self, stored_name: &str) -> Result<()> {
        let stored = self.stored(stored_name)?.clone();
        self.engine()?.product(&stored)
    }

    pub fn union(&mut self, stored_name: &str) -> Result<()> {
        let stored = self.stored(stored_name)?.clone();
        self.engine()?.union(&stored)
    }

    pub fn difference(&mut self, stored_name: &str) -> Result<()> {
        let stored = self.stored(stored_name)?.clone();
        self.engine()?.difference(&stored)
    }

    pub fn join(&mut self, stored_name: &str, condition: ssa_relation::Expr) -> Result<()> {
        let stored = self.stored(stored_name)?.clone();
        self.engine()?.join(&stored, condition)
    }

    /// `EXPLAIN` — the operator DAG the evaluator would execute for the
    /// current sheet, rendered as an indented text tree. A read-only
    /// debug action: plans without evaluating.
    pub fn explain(&self) -> Result<String> {
        self.engine_ref()?.sheet().explain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spreadsheet_algebra::fixtures::{dealers, used_cars};
    use spreadsheet_algebra::{Direction, SheetOp};
    use ssa_relation::Expr;

    fn session() -> Session {
        let mut c = Catalog::new();
        c.register(used_cars()).unwrap();
        c.register(dealers()).unwrap();
        Session::new(c)
    }

    #[test]
    fn load_and_view() {
        let mut s = session();
        assert!(!s.has_current());
        assert!(s.engine().is_err());
        s.load("cars").unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 9);
        assert!(s.load("ghost").is_err());
    }

    #[test]
    fn save_open_close_cycle() {
        let mut s = session();
        s.load("cars").unwrap();
        s.engine()
            .unwrap()
            .apply(SheetOp::Select {
                predicate: Expr::col("Model").eq(Expr::lit("Jetta")),
            })
            .unwrap();
        s.save("jettas").unwrap();
        s.close();
        assert!(!s.has_current());
        s.open("jettas").unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 6);
        assert_eq!(s.stored_names(), vec!["jettas"]);
        assert!(s.open("ghost").is_err());
    }

    #[test]
    fn binary_operators_by_stored_name() {
        let mut s = session();
        s.load("cars").unwrap();
        s.engine()
            .unwrap()
            .apply(SheetOp::Select {
                predicate: Expr::col("Model").eq(Expr::lit("Jetta")),
            })
            .unwrap();
        s.save("jettas").unwrap();
        s.load("cars").unwrap();
        s.difference("jettas").unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 3);

        s.load("cars").unwrap();
        s.union("jettas").unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 15);

        s.load("dealers").unwrap();
        s.save("dealers_snap").unwrap();
        s.load("cars").unwrap();
        s.join(
            "dealers_snap",
            Expr::col("Model").eq(Expr::col("dealers.Model")),
        )
        .unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 12);

        assert!(s.product("ghost").is_err());
    }

    #[test]
    fn discard_stored_sheet() {
        let mut s = session();
        s.load("cars").unwrap();
        s.save("a").unwrap();
        s.discard_stored("a").unwrap();
        assert!(s.stored("a").is_err());
        assert!(s.discard_stored("a").is_err());
    }

    #[test]
    fn register_mid_session() {
        let mut s = session();
        let mut extra = Relation::new(
            "extra",
            ssa_relation::Schema::of(&[("x", ssa_relation::ValueType::Int)]),
        );
        extra.insert(ssa_relation::tuple![1]).unwrap();
        s.register(extra).unwrap();
        s.load("extra").unwrap();
        assert_eq!(s.engine().unwrap().view().unwrap().len(), 1);
    }

    #[test]
    fn undo_after_load_works_through_session() {
        let mut s = session();
        s.load("cars").unwrap();
        let e = s.engine().unwrap();
        e.apply(SheetOp::Group {
            attributes: vec!["Model".into()],
            direction: Direction::Asc,
        })
        .unwrap();
        e.undo().unwrap();
        assert_eq!(e.sheet().state().spec.level_count(), 1);
    }
}
