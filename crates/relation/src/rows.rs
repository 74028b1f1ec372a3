//! Chunked, flat, copy-on-write row storage.
//!
//! A relation's rows live in chunks of at most [`CHUNK_ROWS`] rows. A
//! chunk is one flat `Vec<Value>` behind its own [`Arc`], holding its rows
//! back to back with a stride of the relation's arity, plus an explicit
//! row count (so a zero-column relation still knows its length). Reads
//! hand out rows as `&[Value]` slices of that buffer; [`Tuple`] stays the
//! owned row type for building rows and for appends.
//!
//! Cloning a [`Rows`] copies only the chunk list, so a relation shared
//! with published snapshots (DESIGN.md §15) can be edited by its writer at
//! the cost of the chunks the edit touches: an append copies at most the
//! shared tail chunk, a cell update the one chunk holding the cell. A
//! gather, an append, a copy or a drop costs one allocation per chunk, not
//! one per row.
//!
//! Every chunk but the last is full until a single-row [`Rows::insert`]
//! lands in a full chunk: that chunk splits in two rather than push a row
//! through every later chunk. While the chunks are *uniform* (every one
//! but the last full) a row's chunk and offset are a shift and a mask of
//! its index; otherwise they are found by binary search over the chunk
//! starts. [`Rows::retain`] likewise compacts only the chunks that lose
//! rows, and tops up a chunk left less than half full from the chunks
//! after it; [`Rows::insert_sorted`] rebuilds the chunks from its first
//! index on into full chunks.

use crate::error::Result;
use crate::par::chunk_map;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

const CHUNK_SHIFT: usize = 12;
const CHUNK_MASK: usize = CHUNK_ROWS - 1;

/// Rows per storage chunk: no chunk holds more, and every chunk but the
/// last holds exactly this many unless an insert split one.
pub const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// One storage chunk: `rows` rows of `arity` values each, back to back.
#[derive(Clone)]
struct Chunk {
    rows: usize,
    values: Vec<Value>,
}

impl Chunk {
    fn with_capacity(rows: usize, arity: usize) -> Chunk {
        Chunk {
            rows: 0,
            values: Vec::with_capacity(rows * arity),
        }
    }

    /// A chunk of one row per item, each written by `fill`, which must
    /// push exactly `arity` values.
    fn filled<T>(arity: usize, items: &[T], fill: impl Fn(&T, &mut Vec<Value>)) -> Chunk {
        let mut values = Vec::with_capacity(items.len() * arity);
        for item in items {
            fill(item, &mut values);
        }
        assert_eq!(
            values.len(),
            items.len() * arity,
            "row width does not match the arity"
        );
        Chunk {
            rows: items.len(),
            values,
        }
    }
}

/// The rows of a relation, in insertion order (see the module docs).
///
/// Read it like a slice of rows — `rows[i][c]`, [`Rows::get`],
/// [`Rows::iter`], [`Rows::len`]. Equality and `Debug` are by content:
/// two `Rows` with the same rows are equal however their chunks are cut.
#[derive(Clone)]
pub struct Rows {
    arity: usize,
    len: usize,
    chunks: Vec<Arc<Chunk>>,
    /// The index of each chunk's first row.
    starts: Vec<usize>,
    /// Every chunk but the last holds exactly [`CHUNK_ROWS`] rows.
    uniform: bool,
}

impl Rows {
    /// No rows of `arity` values each.
    pub fn new(arity: usize) -> Rows {
        Rows {
            arity,
            len: 0,
            chunks: Vec::new(),
            starts: Vec::new(),
            uniform: true,
        }
    }

    /// The number of values in every row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk holding row `i < len` and the row's offset in it.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        if self.uniform {
            (i >> CHUNK_SHIFT, i & CHUNK_MASK)
        } else {
            let k = self.starts.partition_point(|&s| s <= i) - 1;
            (k, i - self.starts[k])
        }
    }

    /// The row at `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[Value]> {
        (i < self.len).then(|| &self[i])
    }

    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            arity: self.arity,
            chunks: self.chunks.iter(),
            front: ChunkIter::EMPTY,
            back: ChunkIter::EMPTY,
        }
    }

    /// The row count of each chunk, in order.
    pub fn chunk_lens(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.chunks.iter().map(|c| c.rows)
    }

    /// Every row written through a mutable slice; copies each shared
    /// chunk first.
    pub fn iter_mut(&mut self) -> IterMut<'_> {
        IterMut {
            arity: self.arity,
            chunks: self.chunks.iter_mut(),
            values: &mut [],
            rows: 0,
        }
    }

    /// The rows as owned tuples.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.iter().map(Tuple::from).collect()
    }

    /// The values of column `c`, in row order.
    pub fn column(&self, c: usize) -> Vec<Value> {
        assert!(
            c < self.arity,
            "column {c} out of range for arity {}",
            self.arity
        );
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend(chunk.values.iter().skip(c).step_by(self.arity));
        }
        out
    }

    /// Recompute the chunk starts, the row count and the uniform flag
    /// after the chunk list changed shape.
    fn reindex(&mut self) {
        self.starts.clear();
        let mut at = 0;
        for c in &self.chunks {
            self.starts.push(at);
            at += c.rows;
        }
        self.len = at;
        let last = self.chunks.len().saturating_sub(1);
        self.uniform = self.chunks[..last].iter().all(|c| c.rows == CHUNK_ROWS);
    }

    /// Append a finished chunk (non-empty, at most [`CHUNK_ROWS`] rows)
    /// after a full tail, or after no chunk at all.
    fn push_chunk(&mut self, chunk: Chunk) {
        debug_assert!(chunk.rows > 0 && chunk.rows <= CHUNK_ROWS);
        debug_assert_eq!(chunk.values.len(), chunk.rows * self.arity);
        if self.chunks.last().is_some_and(|c| c.rows < CHUNK_ROWS) {
            self.uniform = false;
        }
        self.starts.push(self.len);
        self.len += chunk.rows;
        self.chunks.push(Arc::new(chunk));
    }

    /// The tail chunk, copied if shared, after opening a new one if the
    /// tail is full. A new chunk reserves `hint` rows, or a whole chunk
    /// once a full one exists: rows are then arriving in bulk, and the
    /// buffer need not grow by doubling.
    fn tail_with_room(&mut self, hint: usize) -> &mut Chunk {
        if self.chunks.last().is_none_or(|c| c.rows == CHUNK_ROWS) {
            let rows = if self.chunks.is_empty() {
                hint
            } else {
                CHUNK_ROWS
            };
            let rows = rows.clamp(1, CHUNK_ROWS);
            self.starts.push(self.len);
            self.chunks
                .push(Arc::new(Chunk::with_capacity(rows, self.arity)));
        }
        let tail = self
            .chunks
            .last_mut()
            .expect("a tail chunk was just ensured");
        Arc::make_mut(tail)
    }

    /// Append one row.
    ///
    /// # Panics
    /// If the row does not have [`Rows::arity`] values.
    pub fn push(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row width does not match the arity");
        let tail = self.tail_with_room(1);
        tail.values.extend_from_slice(row);
        tail.rows += 1;
        self.len += 1;
    }

    /// Append one row given as its values in order — the way to append a
    /// concatenated or projected row without building a [`Tuple`].
    ///
    /// # Panics
    /// If `values` does not yield [`Rows::arity`] values.
    pub fn push_values(&mut self, values: impl IntoIterator<Item = Value>) {
        let arity = self.arity;
        let tail = self.tail_with_room(1);
        let before = tail.values.len();
        tail.values.extend(values);
        assert_eq!(
            tail.values.len() - before,
            arity,
            "row width does not match the arity"
        );
        tail.rows += 1;
        self.len += 1;
    }

    /// The rows at `indices`, in that order, as new storage: one flat
    /// buffer per chunk, filled by copying each row's values.
    ///
    /// # Panics
    /// If an index is out of range.
    pub fn gather(&self, indices: &[u32]) -> Rows {
        let mut out = Rows::new(self.arity);
        for ids in indices.chunks(CHUNK_ROWS) {
            out.push_chunk(Chunk::filled(self.arity, ids, |&i, values| {
                values.extend_from_slice(&self[i as usize])
            }));
        }
        out
    }

    /// One row per item, in item order, each written by `fill`, which
    /// must push exactly `arity` values. With `parallel` the items are
    /// split across threads at chunk boundaries (see [`chunk_map`]), so
    /// the chunks come out cut exactly as a sequential build cuts them.
    ///
    /// # Errors
    /// [`crate::RelationError::WorkerPanicked`] if `fill` panics, or
    /// pushes the wrong number of values.
    pub fn build<T: Sync>(
        arity: usize,
        items: &[T],
        parallel: bool,
        fill: impl Fn(&T, &mut Vec<Value>) + Sync,
    ) -> Result<Rows> {
        let groups: Vec<&[T]> = items.chunks(CHUNK_ROWS).collect();
        let parts = chunk_map(&groups, parallel, |groups| {
            groups
                .iter()
                .map(|group| Chunk::filled(arity, group, &fill))
                .collect::<Vec<_>>()
        })?;
        let mut out = Rows::new(arity);
        for chunk in parts.into_iter().flatten() {
            out.push_chunk(chunk);
        }
        Ok(out)
    }

    /// Insert `row` before position `pos`, shifting later rows up by one.
    /// Only the chunk that receives the row is touched: if it has room
    /// the row is spliced in, and if it is full it splits into two
    /// half-full chunks first, so the cost is one chunk-sized move
    /// whatever the position.
    ///
    /// # Panics
    /// If `pos > len`, like [`Vec::insert`], or if the row does not have
    /// [`Rows::arity`] values.
    pub fn insert(&mut self, pos: usize, row: &[Value]) {
        assert!(
            pos <= self.len,
            "insertion index {pos} out of range for {} rows",
            self.len
        );
        assert_eq!(row.len(), self.arity, "row width does not match the arity");
        if pos == self.len {
            self.push(row);
            return;
        }
        let (k, at) = self.locate(pos);
        let arity = self.arity;
        let splice = |chunk: &mut Chunk, at: usize| {
            chunk
                .values
                .splice(at * arity..at * arity, row.iter().copied());
            chunk.rows += 1;
        };
        if self.chunks[k].rows < CHUNK_ROWS {
            splice(Arc::make_mut(&mut self.chunks[k]), at);
            for s in &mut self.starts[k + 1..] {
                *s += 1;
            }
            self.len += 1;
            return;
        }
        // Each half gets room to fill up again, so later inserts
        // reallocate neither; an unshared chunk's buffer becomes the left
        // half, a shared one is copied half by half, never whole.
        let half = CHUNK_ROWS / 2;
        let half_of = |values: &[Value], rows: usize| Chunk {
            rows,
            values: {
                let mut v = Vec::with_capacity(CHUNK_ROWS * arity);
                v.extend_from_slice(values);
                v
            },
        };
        let (mut left, mut right) = match Arc::try_unwrap(self.chunks.remove(k)) {
            Ok(mut whole) => {
                let right = half_of(&whole.values[half * arity..], whole.rows - half);
                whole.values.truncate(half * arity);
                whole.rows = half;
                (whole, right)
            }
            Err(shared) => (
                half_of(&shared.values[..half * arity], half),
                half_of(&shared.values[half * arity..], shared.rows - half),
            ),
        };
        if at <= half {
            splice(&mut left, at);
        } else {
            splice(&mut right, at - half);
        }
        self.chunks.splice(k..k, [Arc::new(left), Arc::new(right)]);
        self.reindex();
    }

    /// Keep only the rows for which `keep(index, row)` holds, preserving
    /// order; `keep` sees every row once, in order. Chunks before the
    /// first dropped row stay shared, and so does every later chunk that
    /// loses no row and follows a chunk at least half full. A chunk that
    /// loses rows is compacted in place (copied first if shared); one
    /// left less than half full takes the next chunks' rows until it is
    /// full. So removing a few rows costs the chunks they were in, and a
    /// narrowing leaves every chunk but the last at least half full.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &[Value]) -> bool) {
        let Some(first) = self.iter().enumerate().position(|(i, row)| !keep(i, row)) else {
            return;
        };
        let arity = self.arity;
        let (k, _) = self.locate(first);
        let mut i = self.starts[k];
        let tail = self.chunks.split_off(k);
        let mut open: Option<Chunk> = None;
        let mut kept = Vec::with_capacity(CHUNK_ROWS);
        for arc in tail {
            kept.clear();
            for row in ChunkIter::new(&arc, arity) {
                kept.push(i < first || (i > first && keep(i, row)));
                i += 1;
            }
            let open_settled = open.as_ref().is_none_or(|c| c.rows >= CHUNK_ROWS / 2);
            if open_settled && kept.iter().all(|&k| k) {
                // Nothing to drop and nothing to fill: share the chunk.
                if let Some(fill) = open.take() {
                    self.chunks.push(Arc::new(fill));
                }
                self.chunks.push(arc);
                continue;
            }
            let mut chunk = Arc::unwrap_or_clone(arc);
            let mut rows = 0;
            for (r, _) in kept.iter().enumerate().filter(|(_, &k)| k) {
                chunk
                    .values
                    .copy_within(r * arity..(r + 1) * arity, rows * arity);
                rows += 1;
            }
            chunk.values.truncate(rows * arity);
            chunk.rows = rows;
            if rows == 0 {
                continue;
            }
            match open.take() {
                None => open = Some(chunk),
                Some(fill) if fill.rows >= CHUNK_ROWS / 2 => {
                    self.chunks.push(Arc::new(fill));
                    open = Some(chunk);
                }
                Some(mut fill) => {
                    let room = CHUNK_ROWS - fill.rows;
                    if chunk.rows <= room {
                        fill.values.append(&mut chunk.values);
                        fill.rows += chunk.rows;
                        open = Some(fill);
                    } else {
                        fill.values.extend(chunk.values.drain(..room * arity));
                        fill.rows = CHUNK_ROWS;
                        chunk.rows -= room;
                        self.chunks.push(Arc::new(fill));
                        open = Some(chunk);
                    }
                }
            }
        }
        if let Some(fill) = open {
            self.chunks.push(Arc::new(fill));
        }
        self.reindex();
    }

    /// Sort the rows with a comparator (stable, like `slice::sort_by`).
    pub fn sort_by(&mut self, mut compare: impl FnMut(&[Value], &[Value]) -> std::cmp::Ordering) {
        let mut order: Vec<u32> = (0..self.len as u32).collect();
        order.sort_by(|&a, &b| compare(&self[a as usize], &self[b as usize]));
        *self = self.gather(&order);
    }

    /// Put `rows` back at their indices, given as ascending
    /// `(index, row)` pairs in the final numbering (the inverse of
    /// removing them). Chunks before the first index stay shared; the
    /// rest are rebuilt into full chunks, copying each run of old rows
    /// between two insertions at once, into the buffers of old chunks
    /// already copied where they are not shared.
    ///
    /// # Panics
    /// If the indices are not ascending, an index lies past the end of
    /// the result, or a row does not have [`Rows::arity`] values.
    pub fn insert_sorted<'r>(&mut self, rows: impl IntoIterator<Item = (usize, &'r [Value])>) {
        let mut rows = rows.into_iter().peekable();
        let Some(&(first, _)) = rows.peek() else {
            return;
        };
        // Rebuild from the chunk holding the first index (or the tail, so
        // that a partial tail fills up before a new chunk opens).
        let k = match self.len {
            0 => 0,
            len => self.locate(first.min(len - 1)).0,
        };
        let old = self.chunks.split_off(k);
        self.reindex();
        let arity = self.arity;
        let mut at = self.len;
        // Buffers of old chunks already copied, reused for new ones.
        let mut spare: Vec<Vec<Value>> = Vec::new();
        let fresh = |spare: &mut Vec<Vec<Value>>| match spare.pop() {
            Some(mut values) => {
                values.clear();
                values.reserve(CHUNK_ROWS * arity);
                Chunk { rows: 0, values }
            }
            None => Chunk::with_capacity(CHUNK_ROWS, arity),
        };
        let mut out = fresh(&mut spare);
        for chunk in old {
            let mut r = 0;
            while r < chunk.rows {
                if let Some((_, row)) = rows.next_if(|&(idx, _)| idx == at) {
                    assert_eq!(row.len(), arity, "row width does not match the arity");
                    out.values.extend_from_slice(row);
                    out.rows += 1;
                    at += 1;
                } else {
                    let next = rows.peek().map_or(usize::MAX, |&(idx, _)| idx);
                    assert!(next > at, "reinsertion indices not ascending at {next}");
                    let run = (chunk.rows - r).min(next - at).min(CHUNK_ROWS - out.rows);
                    out.values
                        .extend_from_slice(&chunk.values[r * arity..(r + run) * arity]);
                    out.rows += run;
                    r += run;
                    at += run;
                }
                if out.rows == CHUNK_ROWS {
                    self.push_chunk(std::mem::replace(&mut out, fresh(&mut spare)));
                }
            }
            if let Ok(copied) = Arc::try_unwrap(chunk) {
                spare.push(copied.values);
            }
        }
        for (idx, row) in rows {
            assert_eq!(idx, at, "reinsertion index {idx} past {at} rows");
            assert_eq!(row.len(), arity, "row width does not match the arity");
            out.values.extend_from_slice(row);
            out.rows += 1;
            at += 1;
            if out.rows == CHUNK_ROWS {
                self.push_chunk(std::mem::replace(&mut out, fresh(&mut spare)));
            }
        }
        if out.rows > 0 {
            self.push_chunk(out);
        }
    }

    /// Append a column to every row, filled by `fill(index, row)` in row
    /// order. Each chunk is restrided once: an unshared chunk in place,
    /// its buffer grown by one value per row and its rows moved up from
    /// the back; a shared one into a new buffer.
    pub fn push_column(&mut self, mut fill: impl FnMut(usize, &[Value]) -> Value) {
        let arity = self.arity;
        let mut i = 0;
        let mut column = Vec::new();
        for chunk in &mut self.chunks {
            let rows = chunk.rows;
            column.clear();
            column.extend(ChunkIter::new(chunk, arity).map(|row| {
                i += 1;
                fill(i - 1, row)
            }));
            match Arc::get_mut(chunk) {
                Some(unshared) => {
                    let values = &mut unshared.values;
                    values.resize(rows * (arity + 1), Value::Null);
                    for (r, &v) in column.iter().enumerate().rev() {
                        values.copy_within(r * arity..(r + 1) * arity, r * (arity + 1));
                        values[r * (arity + 1) + arity] = v;
                    }
                }
                None => {
                    let mut values = Vec::with_capacity(rows * (arity + 1));
                    for (row, &v) in ChunkIter::new(chunk, arity).zip(&column) {
                        values.extend_from_slice(row);
                        values.push(v);
                    }
                    *chunk = Arc::new(Chunk { rows, values });
                }
            }
        }
        self.arity += 1;
    }

    /// Remove column `c` from every row; each chunk is restrided once.
    ///
    /// # Panics
    /// If `c` is not a column.
    pub fn remove_column(&mut self, c: usize) {
        let arity = self.arity;
        assert!(c < arity, "column {c} out of range for arity {arity}");
        for chunk in &mut self.chunks {
            let chunk = Arc::make_mut(chunk);
            let mut at = 0;
            chunk.values.retain(|_| {
                at += 1;
                (at - 1) % arity != c
            });
        }
        self.arity -= 1;
    }

    /// Whether `self` holds `older`'s rows followed by zero or more more
    /// rows. Costs `O(chunks + CHUNK_ROWS)`: every chunk of `older` but
    /// its last must be the *same allocation* here (which an append
    /// leaves shared, and any edit of it would have copied), and only
    /// `older`'s tail chunk, which an append may have copied, is compared
    /// by value.
    pub fn extends(&self, older: &Rows) -> bool {
        let Some((old_tail, old_inner)) = older.chunks.split_last() else {
            return true;
        };
        if self.len < older.len || self.arity != older.arity {
            return false;
        }
        let k = old_inner.len();
        old_inner
            .iter()
            .zip(&self.chunks)
            .all(|(old, new)| Arc::ptr_eq(old, new))
            && self.chunks.get(k).is_some_and(|new| {
                Arc::ptr_eq(old_tail, new)
                    || (new.rows >= old_tail.rows
                        && new.values[..old_tail.values.len()] == old_tail.values[..])
            })
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    #[inline]
    fn index(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} out of range for {} rows", self.len);
        let (k, at) = self.locate(i);
        &self.chunks[k].values[at * self.arity..(at + 1) * self.arity]
    }
}

impl IndexMut<usize> for Rows {
    fn index_mut(&mut self, i: usize) -> &mut [Value] {
        assert!(i < self.len, "row {i} out of range for {} rows", self.len);
        let (k, at) = self.locate(i);
        let arity = self.arity;
        let chunk = Arc::make_mut(&mut self.chunks[k]);
        &mut chunk.values[at * arity..(at + 1) * arity]
    }
}

/// Appends each row (a [`Tuple`] or a `&[Value]`), reserving room for
/// the iterator's lower size bound.
///
/// # Panics
/// If a row does not have [`Rows::arity`] values.
impl<T: AsRef<[Value]>> Extend<T> for Rows {
    fn extend<I: IntoIterator<Item = T>>(&mut self, rows: I) {
        let rows = rows.into_iter();
        let mut hint = rows.size_hint().0;
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), self.arity, "row width does not match the arity");
            let tail = self.tail_with_room(hint);
            tail.values.extend_from_slice(row);
            tail.rows += 1;
            self.len += 1;
            hint = hint.saturating_sub(1);
        }
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.len == 0 || (self.arity == 0 && other.arity == 0) {
            return true;
        }
        if self.arity != other.arity {
            return false;
        }
        if self.starts == other.starts {
            return self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.values == b.values);
        }
        // The chunks are cut at different rows: compare the value streams.
        let mut mine = self.chunks.iter().map(|c| c.values.as_slice());
        let mut theirs = other.chunks.iter().map(|c| c.values.as_slice());
        let (mut a, mut b): (&[Value], &[Value]) = (&[], &[]);
        loop {
            if a.is_empty() {
                match mine.next() {
                    Some(next) => a = next,
                    None => return true,
                }
            }
            if b.is_empty() {
                match theirs.next() {
                    Some(next) => b = next,
                    None => return true,
                }
            }
            let n = a.len().min(b.len());
            if a[..n] != b[..n] {
                return false;
            }
            a = &a[n..];
            b = &b[n..];
        }
    }
}

impl Eq for Rows {}

impl PartialEq<[Tuple]> for Rows {
    fn eq(&self, other: &[Tuple]) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == b.values())
    }
}

impl<const N: usize> PartialEq<[Tuple; N]> for Rows {
    fn eq(&self, other: &[Tuple; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<Tuple>> for Rows {
    fn eq(&self, other: &Vec<Tuple>) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The rows of one chunk, front to back.
#[derive(Clone)]
struct ChunkIter<'a> {
    values: &'a [Value],
    rows: usize,
    arity: usize,
}

impl ChunkIter<'static> {
    const EMPTY: ChunkIter<'static> = ChunkIter {
        values: &[],
        rows: 0,
        arity: 0,
    };
}

impl<'a> ChunkIter<'a> {
    fn new(chunk: &'a Chunk, arity: usize) -> ChunkIter<'a> {
        ChunkIter {
            values: &chunk.values,
            rows: chunk.rows,
            arity,
        }
    }
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.rows == 0 {
            return None;
        }
        self.rows -= 1;
        let (row, rest) = self.values.split_at(self.arity);
        self.values = rest;
        Some(row)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.rows, Some(self.rows))
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<&'a [Value]> {
        let skip = n.min(self.rows);
        self.values = &self.values[skip * self.arity..];
        self.rows -= skip;
        self.next()
    }
}

impl DoubleEndedIterator for ChunkIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.rows == 0 {
            return None;
        }
        self.rows -= 1;
        let (rest, row) = self.values.split_at(self.values.len() - self.arity);
        self.values = rest;
        Some(row)
    }
}

/// Borrowing iterator over the rows of [`Rows`], chunk by chunk.
#[derive(Clone)]
pub struct Iter<'a> {
    arity: usize,
    chunks: std::slice::Iter<'a, Arc<Chunk>>,
    front: ChunkIter<'a>,
    back: ChunkIter<'a>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        loop {
            if let Some(row) = self.front.next() {
                return Some(row);
            }
            match self.chunks.next() {
                Some(c) => self.front = ChunkIter::new(c, self.arity),
                None => return self.back.next(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mid: usize = self.chunks.as_slice().iter().map(|c| c.rows).sum();
        let n = self.front.rows + mid + self.back.rows;
        (n, Some(n))
    }

    fn nth(&mut self, mut n: usize) -> Option<&'a [Value]> {
        loop {
            let here = self.front.rows;
            if n < here {
                return self.front.nth(n);
            }
            n -= here;
            match self.chunks.next() {
                Some(c) => self.front = ChunkIter::new(c, self.arity),
                None => {
                    self.front = ChunkIter::EMPTY;
                    return self.back.nth(n);
                }
            }
        }
    }

    fn fold<B, F: FnMut(B, &'a [Value]) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = self.front.fold(init, &mut f);
        for c in self.chunks {
            acc = ChunkIter::new(c, self.arity).fold(acc, &mut f);
        }
        self.back.fold(acc, f)
    }
}

impl DoubleEndedIterator for Iter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.back.next_back() {
                return Some(row);
            }
            match self.chunks.next_back() {
                Some(c) => self.back = ChunkIter::new(c, self.arity),
                None => return self.front.next_back(),
            }
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl std::iter::FusedIterator for Iter<'_> {}

/// Mutable iterator over the rows of [`Rows`]; each chunk is copied (if
/// shared) when the iterator reaches it.
pub struct IterMut<'a> {
    arity: usize,
    chunks: std::slice::IterMut<'a, Arc<Chunk>>,
    values: &'a mut [Value],
    rows: usize,
}

impl<'a> Iterator for IterMut<'a> {
    type Item = &'a mut [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a mut [Value]> {
        while self.rows == 0 {
            let chunk = Arc::make_mut(self.chunks.next()?);
            self.rows = chunk.rows;
            self.values = &mut chunk.values;
        }
        self.rows -= 1;
        let (row, rest) = std::mem::take(&mut self.values).split_at_mut(self.arity);
        self.values = rest;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Rows {
        let mut out = Rows::new(arity);
        out.extend(tuples);
        out
    }

    fn rows(n: usize) -> Rows {
        from_tuples(1, (0..n as i64).map(|i| tuple![i]))
    }

    fn ids(r: &Rows) -> Vec<i64> {
        r.iter()
            .map(|t| match t[0] {
                Value::Int(i) => i,
                other => panic!("not an int: {other}"),
            })
            .collect()
    }

    fn lens(r: &Rows) -> Vec<usize> {
        r.chunk_lens().collect()
    }

    #[test]
    fn chunks_are_full_except_the_last() {
        let r = rows(2 * CHUNK_ROWS + 5);
        assert_eq!(lens(&r), vec![CHUNK_ROWS, CHUNK_ROWS, 5]);
        assert_eq!(r[CHUNK_ROWS + 1], [Value::Int(CHUNK_ROWS as i64 + 1)]);
        assert_eq!(r.get(2 * CHUNK_ROWS + 5), None);
        assert_eq!(
            r.get(2 * CHUNK_ROWS + 4),
            Some(&[Value::Int(2 * CHUNK_ROWS as i64 + 4)][..])
        );
    }

    #[test]
    fn iterator_is_exact_and_double_ended() {
        let r = rows(CHUNK_ROWS + 3);
        let mut it = r.iter();
        assert_eq!(it.len(), CHUNK_ROWS + 3);
        assert_eq!(
            it.next_back(),
            Some(&[Value::Int(CHUNK_ROWS as i64 + 2)][..])
        );
        assert_eq!(
            it.nth(CHUNK_ROWS),
            Some(&[Value::Int(CHUNK_ROWS as i64)][..])
        );
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), Some(&[Value::Int(CHUNK_ROWS as i64 + 1)][..]));
        assert_eq!(it.next(), None);
        let back: Vec<i64> = ids(&r).into_iter().rev().collect();
        let rev: Vec<&[Value]> = r.iter().rev().collect();
        assert_eq!(rev.len(), back.len());
        assert_eq!(rev[0], [Value::Int(back[0])]);
    }

    #[test]
    fn insert_into_a_full_chunk_splits_it() {
        let n = 2 * CHUNK_ROWS;
        let mut r = rows(n);
        let shared = r.clone();
        r.insert(3, &[Value::Int(-1)]);
        let mut want: Vec<i64> = (0..n as i64).collect();
        want.insert(3, -1);
        assert_eq!(ids(&r), want);
        assert_eq!(
            lens(&r),
            vec![CHUNK_ROWS / 2 + 1, CHUNK_ROWS / 2, CHUNK_ROWS]
        );
        // Only the split chunk was copied; the indexing falls back to the
        // chunk starts and still finds every row.
        assert!(Arc::ptr_eq(&r.chunks[2], &shared.chunks[1]));
        assert!(!r.uniform);
        assert!(r.iter().enumerate().all(|(i, row)| r[i] == *row));
        r.insert(r.len(), &[Value::Int(-2)]);
        assert_eq!(r.get(r.len() - 1), Some(&[Value::Int(-2)][..]));
        assert_eq!(ids(&shared), (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn equality_ignores_chunk_cuts() {
        let mut a = rows(CHUNK_ROWS + 1);
        a.insert(0, &[Value::Int(-1)]);
        let b = from_tuples(1, a.to_vec());
        assert_ne!(lens(&a), lens(&b));
        assert_eq!(a, b);
        let mut c = b.clone();
        c[CHUNK_ROWS + 1][0] = Value::Int(7);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_arity_rows_keep_their_count() {
        let mut r = from_tuples(0, (0..CHUNK_ROWS + 2).map(|_| Tuple::new(vec![])));
        assert_eq!(r.len(), CHUNK_ROWS + 2);
        assert_eq!(r.iter().count(), CHUNK_ROWS + 2);
        r.insert(1, &[]);
        r.retain(|i, _| i % 2 == 0);
        assert_eq!(r.len(), (CHUNK_ROWS + 4) / 2);
        r.push_column(|i, _| Value::Int(i as i64));
        assert_eq!(ids(&r), (0..r.len() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn retain_and_insert_sorted_round_trip() {
        let n = 3 * CHUNK_ROWS + 17;
        let before = rows(n);
        let mut r = before.clone();
        let drop = [5usize, CHUNK_ROWS, 2 * CHUNK_ROWS + 9, n - 1];
        r.retain(|i, _| !drop.contains(&i));
        assert_eq!(r.len(), n - drop.len());
        // Each chunk lost one row and stayed more than half full, so none
        // took rows from the next.
        assert_eq!(
            lens(&r),
            vec![CHUNK_ROWS - 1, CHUNK_ROWS - 1, CHUNK_ROWS - 1, 16]
        );
        assert!(!r.uniform);
        let back: Vec<(usize, Tuple)> = drop.iter().map(|&i| (i, before[i].into())).collect();
        r.insert_sorted(back.iter().map(|(i, t)| (*i, t.values())));
        assert_eq!(r, before);
    }

    #[test]
    fn retain_shares_untouched_chunks_and_tops_up_small_ones() {
        let n = 4 * CHUNK_ROWS;
        let before = rows(n);
        let mut r = before.clone();
        r.retain(|i, _| i != 5);
        assert_eq!(
            lens(&r),
            vec![CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS]
        );
        assert!((1..4).all(|k| Arc::ptr_eq(&r.chunks[k], &before.chunks[k])));
        assert!(r.iter().enumerate().all(|(i, row)| r[i] == *row));
        // Keeping one row in eight leaves small chunks, merged until full.
        let mut narrow = before.clone();
        narrow.retain(|i, _| i % 8 == 0);
        assert_eq!(lens(&narrow), vec![CHUNK_ROWS / 2]);
        assert!(narrow.uniform);
        assert_eq!(ids(&narrow), (0..n as i64).step_by(8).collect::<Vec<_>>());
    }

    #[test]
    fn columns_restride_every_chunk() {
        let mut r = rows(CHUNK_ROWS + 5);
        let shared = r.clone();
        r.push_column(|i, row| row[0].add(&Value::Int(i as i64)).expect("ints add"));
        assert_eq!(r.arity(), 2);
        assert_eq!(
            r[CHUNK_ROWS + 4],
            [
                Value::Int(CHUNK_ROWS as i64 + 4),
                Value::Int(2 * (CHUNK_ROWS as i64 + 4))
            ]
        );
        assert_eq!(r.column(1)[3], Value::Int(6));
        r.remove_column(0);
        assert_eq!(r[2], [Value::Int(4)]);
        assert_eq!(shared, rows(CHUNK_ROWS + 5));
    }

    #[test]
    fn extends_follows_appends_only() {
        let old = rows(CHUNK_ROWS + 10);
        let mut new = old.clone();
        new.extend((0..5).map(|i| tuple![i]));
        assert!(new.extends(&old));
        assert!(old.extends(&old));
        assert!(!old.extends(&new));
        let mut edited = new.clone();
        edited[0][0] = Value::Int(-7);
        assert!(!edited.extends(&old));
    }
}
