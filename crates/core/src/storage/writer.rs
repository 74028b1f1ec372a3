//! Encoder: [`StoredSheet`] → binary columnar bytes (DESIGN.md §16).
//!
//! Layout, in file order:
//!
//! ```text
//! "SSAB" u32:version                          -- fixed 8-byte head
//! META frame                                  -- names, schema, rows, state
//! DICT frame                                  -- sheet-local string table
//! CHUNK frame *                               -- per column, pages of 64Ki rows
//! FOOTER frame                                -- offsets of all of the above
//! u64:footer_offset "SSAE"                    -- fixed 12-byte tail
//! ```
//!
//! Every frame is `kind, len, crc32(payload), payload`; the reader
//! verifies the CRC before parsing a single payload byte. Interner ids
//! never reach disk: string cells are written as indexes into the DICT
//! frame, which holds resolved text.

use super::codec::{
    put_i64, put_str, put_u32, put_u64, write_bitmap, write_frame, FrameKind, BINARY_VERSION,
    MAGIC, TAIL_MAGIC,
};
use crate::error::Result;
use crate::persist;
use crate::replica::VersionVector;
use crate::sheet::StoredSheet;
use ssa_relation::{Value, ValueType};
use std::collections::HashMap;

/// Rows per column chunk. Small enough that a point query over one
/// column reads a bounded slice; large enough that frame overhead
/// (9 bytes + footer entry) is noise.
pub(crate) const PAGE_ROWS: usize = 65_536;

/// Per-chunk value encodings. A chunk is encoded by the narrowest layout
/// that fits the values actually present — relations are dynamically
/// typed per cell, so this is decided per chunk, not per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkEncoding {
    /// Null bitmap + `i64` per row.
    Int = 0,
    /// Null bitmap + `f64::to_bits` per row (exact, NaN payloads kept).
    Float = 1,
    /// Null bitmap + `u32` local dictionary id per row.
    Str = 2,
    /// Null bitmap + value bitmap.
    Bool = 3,
    /// Tagged per-value encoding for mixed-type chunks.
    Mixed = 4,
}

impl ChunkEncoding {
    pub(crate) fn from_u8(b: u8) -> Result<ChunkEncoding> {
        match b {
            0 => Ok(ChunkEncoding::Int),
            1 => Ok(ChunkEncoding::Float),
            2 => Ok(ChunkEncoding::Str),
            3 => Ok(ChunkEncoding::Bool),
            4 => Ok(ChunkEncoding::Mixed),
            other => Err(super::codec::corrupt(format!(
                "unknown chunk encoding {other}"
            ))),
        }
    }
}

pub(crate) fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Null => 0,
        ValueType::Bool => 1,
        ValueType::Int => 2,
        ValueType::Float => 3,
        ValueType::Str => 4,
    }
}

pub(crate) fn type_from_tag(tag: u8) -> Result<ValueType> {
    match tag {
        0 => Ok(ValueType::Null),
        1 => Ok(ValueType::Bool),
        2 => Ok(ValueType::Int),
        3 => Ok(ValueType::Float),
        4 => Ok(ValueType::Str),
        other => Err(super::codec::corrupt(format!(
            "unknown column type tag {other}"
        ))),
    }
}

/// Sheet-local string dictionary: maps global interner ids (process
/// lifetime only) to dense local ids (what the file stores).
struct Dict {
    local_of: HashMap<u32, u32>,
    strings: Vec<&'static str>,
}

impl Dict {
    fn build(sheet: &StoredSheet) -> Dict {
        let mut dict = Dict {
            local_of: HashMap::new(),
            strings: Vec::new(),
        };
        for row in sheet.relation.rows() {
            for v in row.iter() {
                if let Value::Str(s) = v {
                    dict.local_of.entry(s.id()).or_insert_with(|| {
                        dict.strings.push(s.as_str());
                        (dict.strings.len() - 1) as u32
                    });
                }
            }
        }
        dict
    }

    fn local(&self, sym: ssa_relation::Sym) -> u32 {
        // Built from the same relation being encoded, so every string
        // cell has an entry; a miss would be a writer bug and 0 merely
        // mis-points within the dictionary (caught by round-trip tests).
        self.local_of.get(&sym.id()).copied().unwrap_or(0)
    }

    fn payload(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        put_u32(&mut out, self.strings.len() as u32);
        for s in &self.strings {
            put_str(&mut out, s)?;
        }
        Ok(out)
    }
}

fn meta_payload(sheet: &StoredSheet, vv: &VersionVector) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_str(&mut out, &sheet.name)?;
    put_str(&mut out, sheet.relation.name())?;
    let columns = sheet.relation.schema().columns();
    put_u32(&mut out, columns.len() as u32);
    for c in columns {
        put_str(&mut out, &c.name)?;
        out.push(type_tag(c.ty));
    }
    put_u64(&mut out, sheet.relation.len() as u64);
    // The query state rides along as the JSON codec's state object: it is
    // tiny (no row data), structurally lossless, and reusing it keeps one
    // source of truth for expression encoding across both formats.
    put_str(&mut out, &persist::state_to_json(&sheet.state).render())?;
    // Optional trailing section: the replication version vector of a
    // compaction snapshot (count + (replica, seq) pairs). Written only
    // when non-empty, so ordinary sheets keep the original byte layout;
    // the reader treats an exhausted cursor as an empty vector.
    if !vv.is_empty() {
        put_u32(&mut out, vv.iter().count() as u32);
        for (replica, seq) in vv.iter() {
            put_u64(&mut out, replica);
            put_u64(&mut out, seq);
        }
    }
    Ok(out)
}

/// Pick the narrowest encoding that covers every value in the page.
fn choose_encoding(page: &[&Value]) -> ChunkEncoding {
    let mut ty: Option<ValueType> = None;
    for v in page {
        let vt = v.value_type();
        if vt == ValueType::Null {
            continue;
        }
        match ty {
            None => ty = Some(vt),
            Some(t) if t == vt => {}
            Some(_) => return ChunkEncoding::Mixed,
        }
    }
    match ty {
        // All-null pages use the Int layout: bitmap of zeros, no bodies.
        None | Some(ValueType::Null) => ChunkEncoding::Int,
        Some(ValueType::Int) => ChunkEncoding::Int,
        Some(ValueType::Float) => ChunkEncoding::Float,
        Some(ValueType::Str) => ChunkEncoding::Str,
        Some(ValueType::Bool) => ChunkEncoding::Bool,
    }
}

fn chunk_payload(col: u32, first_row: u64, page: &[&Value], dict: &Dict) -> Vec<u8> {
    let enc = choose_encoding(page);
    let mut out = Vec::new();
    put_u32(&mut out, col);
    put_u64(&mut out, first_row);
    put_u32(&mut out, page.len() as u32);
    out.push(enc as u8);
    match enc {
        ChunkEncoding::Int => {
            write_bitmap(&mut out, page.len(), |i| !matches!(page[i], Value::Null));
            for v in page {
                put_i64(&mut out, if let Value::Int(n) = v { *n } else { 0 });
            }
        }
        ChunkEncoding::Float => {
            write_bitmap(&mut out, page.len(), |i| !matches!(page[i], Value::Null));
            for v in page {
                let bits = if let Value::Float(f) = v {
                    f.to_bits()
                } else {
                    0
                };
                put_u64(&mut out, bits);
            }
        }
        ChunkEncoding::Str => {
            write_bitmap(&mut out, page.len(), |i| !matches!(page[i], Value::Null));
            for v in page {
                let id = if let Value::Str(s) = v {
                    dict.local(*s)
                } else {
                    0
                };
                put_u32(&mut out, id);
            }
        }
        ChunkEncoding::Bool => {
            write_bitmap(&mut out, page.len(), |i| !matches!(page[i], Value::Null));
            write_bitmap(&mut out, page.len(), |i| {
                matches!(page[i], Value::Bool(true))
            });
        }
        ChunkEncoding::Mixed => {
            for v in page {
                match v {
                    Value::Null => out.push(0),
                    Value::Bool(false) => out.push(1),
                    Value::Bool(true) => out.push(2),
                    Value::Int(n) => {
                        out.push(3);
                        put_i64(&mut out, *n);
                    }
                    Value::Float(f) => {
                        out.push(4);
                        put_u64(&mut out, f.to_bits());
                    }
                    Value::Str(s) => {
                        out.push(5);
                        put_u32(&mut out, dict.local(*s));
                    }
                }
            }
        }
    }
    out
}

/// Encode a stored sheet into the full binary file image.
pub(crate) fn encode(sheet: &StoredSheet) -> Result<Vec<u8>> {
    encode_with_vv(sheet, &VersionVector::new())
}

/// [`encode`], stamping a replication version vector into the meta frame
/// (compaction snapshots record which events are baked in).
pub(crate) fn encode_with_vv(sheet: &StoredSheet, vv: &VersionVector) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());

    let meta_off = write_frame(&mut out, FrameKind::Meta, &meta_payload(sheet, vv)?)?;
    let dict = Dict::build(sheet);
    let dict_off = write_frame(&mut out, FrameKind::Dict, &dict.payload()?)?;

    let rows = sheet.relation.rows();
    let ncols = sheet.relation.schema().len();
    // (offset, first_row, nrows) per chunk, per column.
    let mut index: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); ncols];
    let mut page: Vec<&Value> = Vec::with_capacity(PAGE_ROWS.min(rows.len().max(1)));
    for (col, chunks) in index.iter_mut().enumerate() {
        let mut first_row = 0usize;
        while first_row < rows.len() {
            let end = (first_row + PAGE_ROWS).min(rows.len());
            page.clear();
            page.extend(
                rows.iter()
                    .skip(first_row)
                    .take(end - first_row)
                    .map(|t| &t[col]),
            );
            let payload = chunk_payload(col as u32, first_row as u64, &page, &dict);
            let off = write_frame(&mut out, FrameKind::Chunk, &payload)?;
            chunks.push((off, first_row as u64, page.len() as u32));
            first_row = end;
        }
    }

    let mut footer = Vec::new();
    put_u64(&mut footer, meta_off);
    put_u64(&mut footer, dict_off);
    put_u64(&mut footer, rows.len() as u64);
    put_u32(&mut footer, ncols as u32);
    for chunks in &index {
        put_u32(&mut footer, chunks.len() as u32);
        for &(off, first, n) in chunks {
            put_u64(&mut footer, off);
            put_u64(&mut footer, first);
            put_u32(&mut footer, n);
        }
    }
    let footer_off = write_frame(&mut out, FrameKind::Footer, &footer)?;

    put_u64(&mut out, footer_off);
    out.extend_from_slice(&TAIL_MAGIC);
    Ok(out)
}
