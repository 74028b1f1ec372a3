//! Chunked copy-on-write row storage.
//!
//! A relation's rows live in fixed-size chunks, each behind its own
//! [`Arc`]. Cloning a [`Rows`] copies only the chunk list, so a relation
//! shared with published snapshots (DESIGN.md §15) can be edited by its
//! writer at the cost of the chunks the edit touches: an append copies at
//! most the shared tail chunk, a cell update the one chunk holding the
//! cell. Every chunk but the last holds exactly [`CHUNK_ROWS`] rows, so a
//! row's chunk and offset are a shift and a mask of its index, and two
//! `Rows` always cut their chunks at the same row positions.

use crate::tuple::Tuple;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

const CHUNK_SHIFT: usize = 12;
const CHUNK_MASK: usize = CHUNK_ROWS - 1;

/// Rows per storage chunk: every chunk but the last is exactly this full.
pub const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// The rows of a relation, in insertion order (see the module docs).
///
/// Read it like a slice — `rows[i]`, [`Rows::get`], [`Rows::iter`],
/// [`Rows::len`] — or chunk by chunk through [`Rows::chunks`] in hot
/// loops. Equality and `Debug` are by content, exactly as for the
/// `Vec<Tuple>` this type replaces.
#[derive(Clone, Default)]
pub struct Rows {
    chunks: Vec<Arc<Vec<Tuple>>>,
    len: usize,
}

impl Rows {
    pub fn new() -> Rows {
        Rows::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row at `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Tuple> {
        self.chunks.get(i >> CHUNK_SHIFT)?.get(i & CHUNK_MASK)
    }

    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            front: [].iter(),
            back: [].iter(),
        }
    }

    /// The rows as consecutive slices of at most [`CHUNK_ROWS`] rows —
    /// the fast path for loops that touch every row.
    #[inline]
    pub fn chunks(&self) -> impl DoubleEndedIterator<Item = &[Tuple]> + ExactSizeIterator + '_ {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// Every row written through a mutable reference; copies each shared
    /// chunk first.
    pub fn iter_mut(&mut self) -> IterMut<'_> {
        IterMut {
            chunks: self.chunks.iter_mut(),
            front: [].iter_mut(),
        }
    }

    pub fn to_vec(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// The rows as one vector, moving them out of unshared chunks.
    fn into_vec(self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks {
            out.extend(Arc::unwrap_or_clone(c));
        }
        out
    }

    pub fn push(&mut self, row: Tuple) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK_ROWS => Arc::make_mut(tail).push(row),
            _ => self.chunks.push(Arc::new(vec![row])),
        }
        self.len += 1;
    }

    /// Insert `row` before position `pos`, shifting later rows up by one.
    /// Each chunk from `pos` on passes its last row to the next, so the
    /// cost is one chunk-sized move per later chunk and nothing is
    /// reallocated.
    ///
    /// # Panics
    /// If `pos > len`, like [`Vec::insert`].
    pub fn insert(&mut self, pos: usize, row: Tuple) {
        assert!(
            pos <= self.len,
            "insertion index {pos} out of range for {} rows",
            self.len
        );
        let mut k = pos >> CHUNK_SHIFT;
        let mut at = pos & CHUNK_MASK;
        let mut carry = row;
        loop {
            if k == self.chunks.len() {
                self.chunks.push(Arc::new(vec![carry]));
                break;
            }
            let chunk = Arc::make_mut(&mut self.chunks[k]);
            let spill = if chunk.len() == CHUNK_ROWS {
                chunk.pop()
            } else {
                None
            };
            chunk.insert(at, carry);
            match spill {
                Some(next) => carry = next,
                None => break,
            }
            k += 1;
            at = 0;
        }
        self.len += 1;
    }

    /// Keep only the rows for which `keep(index, row)` holds, preserving
    /// order; `keep` sees every row once, in order. Chunks before the
    /// first dropped row stay shared. From there on each chunk is
    /// filtered in place (copied first if shared) and the survivors are
    /// packed back into full chunks, reusing the chunks' allocations.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &Tuple) -> bool) {
        let mut first_drop = None;
        'scan: for (k, chunk) in self.chunks.iter().enumerate() {
            for (j, row) in chunk.iter().enumerate() {
                let i = (k << CHUNK_SHIFT) + j;
                if !keep(i, row) {
                    first_drop = Some(i);
                    break 'scan;
                }
            }
        }
        let Some(first) = first_drop else { return };
        let k = first >> CHUNK_SHIFT;
        let tail = self.chunks.split_off(k);
        self.len = k << CHUNK_SHIFT;
        let mut i = self.len;
        let mut open: Option<Vec<Tuple>> = None;
        for chunk in tail {
            let mut rows = Arc::unwrap_or_clone(chunk);
            rows.retain(|row| {
                let at = i;
                i += 1;
                at < first || (at > first && keep(at, row))
            });
            let Some(mut fill) = open.take() else {
                open = Some(rows);
                continue;
            };
            let room = CHUNK_ROWS - fill.len();
            if rows.len() < room {
                fill.append(&mut rows);
                open = Some(fill);
            } else {
                fill.extend(rows.drain(..room));
                self.len += fill.len();
                self.chunks.push(Arc::new(fill));
                open = Some(rows);
            }
        }
        if let Some(fill) = open.filter(|f| !f.is_empty()) {
            self.len += fill.len();
            self.chunks.push(Arc::new(fill));
        }
    }

    /// Sort the rows with a comparator (stable, like `slice::sort_by`).
    pub fn sort_by(&mut self, compare: impl FnMut(&Tuple, &Tuple) -> std::cmp::Ordering) {
        let mut rows = std::mem::take(self).into_vec();
        rows.sort_by(compare);
        *self = Rows::from(rows);
    }

    /// Detach every row from chunk `k` on, returning them in order (moved
    /// out of unshared chunks, cloned out of shared ones).
    fn split_off_chunks(&mut self, k: usize) -> Vec<Tuple> {
        let tail = self.chunks.split_off(k);
        self.len = self.chunks.iter().map(|c| c.len()).sum();
        let mut out = Vec::with_capacity(tail.iter().map(|c| c.len()).sum());
        for c in tail {
            out.extend(Arc::unwrap_or_clone(c));
        }
        out
    }

    /// Put `rows` back at their indices, given as ascending `(index, row)`
    /// pairs in the final numbering (the inverse of removing them).
    /// Chunks before the first index stay shared.
    ///
    /// # Panics
    /// If an index lies past the end of the result.
    pub fn insert_sorted(&mut self, rows: Vec<(usize, Tuple)>) {
        let Some(&(first, _)) = rows.first() else {
            return;
        };
        let k = first.min(self.len) >> CHUNK_SHIFT;
        let tail = self.split_off_chunks(k);
        let mut tail = tail.into_iter();
        for (idx, row) in rows {
            while self.len < idx {
                match tail.next() {
                    Some(t) => self.push(t),
                    None => panic!("reinsertion index {idx} past {} rows", self.len),
                }
            }
            self.push(row);
        }
        self.extend(tail);
    }

    /// Whether `self` holds `older`'s rows followed by zero or more more
    /// rows. Costs `O(chunks + CHUNK_ROWS)`: every full chunk of `older`
    /// must be the *same allocation* here (which an append leaves shared,
    /// and any edit of it would have copied), and only `older`'s partial
    /// tail chunk, which an append may have copied, is compared by value.
    pub fn extends(&self, older: &Rows) -> bool {
        if self.len < older.len {
            return false;
        }
        older.chunks.iter().zip(&self.chunks).all(|(old, new)| {
            Arc::ptr_eq(old, new)
                || (old.len() < CHUNK_ROWS && new.get(..old.len()) == Some(old.as_slice()))
        })
    }
}

impl Index<usize> for Rows {
    type Output = Tuple;

    #[inline]
    fn index(&self, i: usize) -> &Tuple {
        &self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }
}

impl IndexMut<usize> for Rows {
    fn index_mut(&mut self, i: usize) -> &mut Tuple {
        &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_SHIFT])[i & CHUNK_MASK]
    }
}

impl Extend<Tuple> for Rows {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, rows: I) {
        let mut rows = rows.into_iter();
        if let Some(tail) = self.chunks.last_mut() {
            let room = CHUNK_ROWS - tail.len();
            if room > 0 {
                let tail = Arc::make_mut(tail);
                let before = tail.len();
                tail.extend(rows.by_ref().take(room));
                self.len += tail.len() - before;
            }
        }
        loop {
            let mut chunk = Vec::with_capacity(rows.size_hint().0.min(CHUNK_ROWS));
            chunk.extend(rows.by_ref().take(CHUNK_ROWS));
            if chunk.is_empty() {
                break;
            }
            let full = chunk.len() == CHUNK_ROWS;
            self.len += chunk.len();
            self.chunks.push(Arc::new(chunk));
            if !full {
                break;
            }
        }
    }
}

impl FromIterator<Tuple> for Rows {
    fn from_iter<I: IntoIterator<Item = Tuple>>(rows: I) -> Rows {
        let mut out = Rows::new();
        out.extend(rows);
        out
    }
}

impl From<Vec<Tuple>> for Rows {
    fn from(rows: Vec<Tuple>) -> Rows {
        if rows.is_empty() {
            return Rows::new();
        }
        if rows.len() <= CHUNK_ROWS {
            // Fits one chunk: adopt the vector's allocation as is.
            return Rows {
                len: rows.len(),
                chunks: vec![Arc::new(rows)],
            };
        }
        rows.into_iter().collect()
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        // Equal lengths imply equal chunk boundaries.
        self.len == other.len
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for Rows {}

impl PartialEq<[Tuple]> for Rows {
    fn eq(&self, other: &[Tuple]) -> bool {
        self.len == other.len() && self.iter().eq(other)
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
    type Item = &'a Tuple;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Borrowing iterator over [`Rows`], chunk by chunk.
#[derive(Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Arc<Vec<Tuple>>>,
    front: std::slice::Iter<'a, Tuple>,
    back: std::slice::Iter<'a, Tuple>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(row) = self.front.next() {
                return Some(row);
            }
            match self.chunks.next() {
                Some(c) => self.front = c.iter(),
                None => return self.back.next(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mid: usize = self.chunks.as_slice().iter().map(|c| c.len()).sum();
        let n = self.front.len() + mid + self.back.len();
        (n, Some(n))
    }

    fn nth(&mut self, mut n: usize) -> Option<&'a Tuple> {
        loop {
            let here = self.front.len();
            if n < here {
                return self.front.nth(n);
            }
            n -= here;
            match self.chunks.next() {
                Some(c) => self.front = c.iter(),
                None => {
                    self.front = [].iter();
                    return self.back.nth(n);
                }
            }
        }
    }

    fn fold<B, F: FnMut(B, &'a Tuple) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = self.front.fold(init, &mut f);
        for c in self.chunks {
            acc = c.iter().fold(acc, &mut f);
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
                Some(c) => self.back = c.iter(),
                None => return self.front.next_back(),
            }
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl std::iter::FusedIterator for Iter<'_> {}

/// Mutable iterator over [`Rows`]; each chunk is copied (if shared) when
/// the iterator reaches it.
pub struct IterMut<'a> {
    chunks: std::slice::IterMut<'a, Arc<Vec<Tuple>>>,
    front: std::slice::IterMut<'a, Tuple>,
}

impl<'a> Iterator for IterMut<'a> {
    type Item = &'a mut Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a mut Tuple> {
        loop {
            if let Some(row) = self.front.next() {
                return Some(row);
            }
            self.front = Arc::make_mut(self.chunks.next()?).iter_mut();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rows(n: usize) -> Rows {
        (0..n as i64).map(|i| tuple![i]).collect()
    }

    fn ids(r: &Rows) -> Vec<i64> {
        r.iter()
            .map(|t| match t.get(0) {
                crate::Value::Int(i) => *i,
                other => panic!("not an int: {other}"),
            })
            .collect()
    }

    #[test]
    fn chunks_are_full_except_the_last() {
        let r = rows(2 * CHUNK_ROWS + 5);
        let sizes: Vec<usize> = r.chunks().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![CHUNK_ROWS, CHUNK_ROWS, 5]);
        assert_eq!(r[CHUNK_ROWS + 1], tuple![CHUNK_ROWS as i64 + 1]);
        assert_eq!(r.get(2 * CHUNK_ROWS + 5), None);
        assert_eq!(
            r.get(2 * CHUNK_ROWS + 4),
            Some(&tuple![2 * CHUNK_ROWS as i64 + 4])
        );
    }

    #[test]
    fn iterator_is_exact_and_double_ended() {
        let r = rows(CHUNK_ROWS + 3);
        let mut it = r.iter();
        assert_eq!(it.len(), CHUNK_ROWS + 3);
        assert_eq!(it.next_back(), Some(&tuple![CHUNK_ROWS as i64 + 2]));
        assert_eq!(it.nth(CHUNK_ROWS), Some(&tuple![CHUNK_ROWS as i64]));
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), Some(&tuple![CHUNK_ROWS as i64 + 1]));
        assert_eq!(it.next(), None);
        let back: Vec<i64> = ids(&r).into_iter().rev().collect();
        let rev: Vec<&Tuple> = r.iter().rev().collect();
        assert_eq!(rev.len(), back.len());
        assert_eq!(rev[0], &tuple![back[0]]);
    }

    #[test]
    fn insert_carries_across_chunks() {
        let n = 2 * CHUNK_ROWS;
        let mut r = rows(n);
        r.insert(3, tuple![-1]);
        let mut want: Vec<i64> = (0..n as i64).collect();
        want.insert(3, -1);
        assert_eq!(ids(&r), want);
        assert_eq!(
            r.chunks().map(|c| c.len()).collect::<Vec<_>>(),
            vec![CHUNK_ROWS, CHUNK_ROWS, 1]
        );
        r.insert(r.len(), tuple![-2]);
        assert_eq!(r.get(r.len() - 1), Some(&tuple![-2]));
    }

    #[test]
    fn retain_and_insert_sorted_round_trip() {
        let n = 3 * CHUNK_ROWS + 17;
        let before = rows(n);
        let mut r = before.clone();
        let drop = [5usize, CHUNK_ROWS, 2 * CHUNK_ROWS + 9, n - 1];
        r.retain(|i, _| !drop.contains(&i));
        assert_eq!(r.len(), n - drop.len());
        assert!(!r.chunks().rev().skip(1).any(|c| c.len() != CHUNK_ROWS));
        let back: Vec<(usize, Tuple)> = drop.iter().map(|&i| (i, before[i].clone())).collect();
        r.insert_sorted(back);
        assert_eq!(r, before);
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
        edited[0] = tuple![-7];
        assert!(!edited.extends(&old));
    }
}
