//! Out-of-core sheet access: query a stored sheet touching only the
//! columns the query needs.
//!
//! [`PagedSheet`] wraps a lazily-loaded [`SheetFile`] and answers
//! filter + projection scans by loading *only* the columns referenced by
//! the predicate and the projection — cold open-to-first-answer is
//! O(touched columns), not O(sheet). The server's sheet hosting opens
//! from here and defers full materialization to the first session that
//! needs a live writer.

use super::reader::SheetFile;
use crate::error::{Result, SheetError};
use crate::eval::filter_relation;
use crate::sheet::{Spreadsheet, StoredSheet};
use crate::state::QueryState;
use ssa_relation::{Expr, Relation, Schema};
use std::path::Path;

/// A stored sheet that stays on disk until touched, column by column.
#[derive(Debug)]
pub struct PagedSheet {
    file: SheetFile,
}

impl PagedSheet {
    /// Open a binary sheet file, reading only its head, footer and meta
    /// frames (schema + query state; no row data).
    pub fn open(path: impl AsRef<Path>) -> Result<PagedSheet> {
        Ok(PagedSheet {
            file: SheetFile::open(path)?,
        })
    }

    /// Open an in-memory binary image the same lazy way.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<PagedSheet> {
        Ok(PagedSheet {
            file: SheetFile::from_bytes(bytes)?,
        })
    }

    /// The sheet's saved name.
    pub fn name(&self) -> &str {
        self.file.name()
    }

    /// Schema of the stored relation (available without loading rows).
    pub fn schema(&self) -> &Schema {
        self.file.schema()
    }

    /// Stored row count (from the footer; no row data loaded).
    pub fn row_count(&self) -> usize {
        self.file.row_count()
    }

    /// The saved query state (computed definitions, grouping, ordering).
    pub fn state(&self) -> &QueryState {
        self.file.state()
    }

    /// Columns currently resident in memory.
    pub fn columns_loaded(&self) -> usize {
        self.file.columns_loaded()
    }

    /// Bytes fetched from the file so far.
    pub fn bytes_read(&self) -> u64 {
        self.file.bytes_read()
    }

    /// Total size of the underlying file.
    pub fn file_len(&self) -> u64 {
        self.file.file_len()
    }

    /// Filter + project touching only the needed columns: loads the
    /// union of predicate and projection columns, evaluates the
    /// predicate over that narrow relation, and returns the surviving
    /// rows restricted to `project` (in the order given).
    ///
    /// Column names must exist in the stored schema; computed columns
    /// are not available on this path (they need a live
    /// [`Spreadsheet`]).
    pub fn scan(&self, predicate: Option<&Expr>, project: &[&str]) -> Result<Relation> {
        let schema = self.file.schema();
        let mut needed: Vec<usize> = Vec::new();
        let need = |name: &str| -> Result<usize> {
            let idx = schema
                .index_of(name)
                .map_err(|_| SheetError::UnknownColumn {
                    name: name.to_string(),
                })?;
            Ok(idx)
        };
        let mut project_idx = Vec::with_capacity(project.len());
        for name in project {
            let idx = need(name)?;
            project_idx.push(idx);
            if !needed.contains(&idx) {
                needed.push(idx);
            }
        }
        if let Some(pred) = predicate {
            for name in pred.columns() {
                let idx = need(&name)?;
                if !needed.contains(&idx) {
                    needed.push(idx);
                }
            }
        }
        needed.sort_unstable();
        let narrow = self.file.project_relation(&needed)?;
        let kept: Relation = match predicate {
            Some(pred) => {
                let ids = filter_relation(&narrow, pred)?;
                narrow.take_rows(&ids)
            }
            None => narrow,
        };
        // Restrict to the requested projection, in the requested order.
        let mut cols: Vec<Vec<ssa_relation::Value>> = Vec::with_capacity(project_idx.len());
        let mut columns = Vec::with_capacity(project_idx.len());
        for (&idx, name) in project_idx.iter().zip(project) {
            cols.push(kept.column_values(name).map_err(SheetError::Relation)?);
            let c = schema
                .columns()
                .get(idx)
                .ok_or_else(|| SheetError::UnknownColumn {
                    name: (*name).to_string(),
                })?;
            columns.push(c.clone());
        }
        let refs: Vec<&[ssa_relation::Value]> = cols.iter().map(|c| c.as_slice()).collect();
        let schema = Schema::new(columns).map_err(SheetError::Relation)?;
        Relation::from_columns(self.file.relation_name().to_string(), schema, &refs)
            .map_err(SheetError::Relation)
    }

    /// Load everything and rebuild the eager [`StoredSheet`].
    pub fn materialize(&self) -> Result<StoredSheet> {
        self.file.materialize()
    }

    /// Materialize and open as a live [`Spreadsheet`] (validates the
    /// stored state, restores computed columns, grouping and ordering).
    pub fn into_spreadsheet(self) -> Result<Spreadsheet> {
        let stored = self.file.materialize()?;
        Spreadsheet::open(&stored)
    }
}
