//! The recursively grouped multiset, materialized: a tree of groups over
//! the rows of an evaluated spreadsheet.
//!
//! "A recursively grouped set of tuples is a set of tuples with grouping
//! information... Each level of group is a relational group" (Sec. II-A).
//! The root is the spreadsheet itself (level 1, grouped by NULL); each
//! deeper level splits its parent on that level's relative grouping basis.

use ssa_relation::{Relation, Value};
use std::fmt;

/// A contiguous run `[start, start+len)` of presentation positions.
///
/// A group's members are always consecutive rows of the evaluated
/// relation — the evaluator sorts by the grouping basis before building
/// the tree, and every in-place maintenance operation (narrow,
/// merge-insert) preserves contiguity. Storing the run as a range
/// instead of a per-row index list is what makes splicing one row into
/// the tree O(#groups) rather than O(rows × depth): a splice shifts
/// range starts, not every stored index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    start: usize,
    len: usize,
}

impl RowRange {
    /// An empty range is canonically `[0, 0)` so trees compare equal
    /// regardless of where their empty groups used to sit.
    pub fn new(start: usize, len: usize) -> RowRange {
        RowRange {
            start: if len == 0 { 0 } else { start },
            len,
        }
    }

    pub fn empty() -> RowRange {
        RowRange::new(0, 0)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First presentation position of the run.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last presentation position of the run.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    pub fn contains(&self, row: usize) -> bool {
        row >= self.start && row < self.end()
    }

    /// The positions of the run, ascending.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.start..self.end()
    }

    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// One group node. The root has an empty `key`; every other node's `key`
/// holds the (attribute, value) pairs of its level's relative basis.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupNode {
    /// 1-based level in the paper's numbering (root = 1).
    pub level: usize,
    /// Relative-basis values identifying this group within its parent.
    pub key: Vec<(String, Value)>,
    /// Sub-groups (empty at the finest level).
    pub children: Vec<GroupNode>,
    /// The contiguous run of presentation positions this group covers.
    pub rows: RowRange,
}

impl GroupNode {
    /// Number of tuples in the group.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Depth-first traversal of this subtree (self included).
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a GroupNode>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// The materialized grouping of an evaluated spreadsheet.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTree {
    pub root: GroupNode,
}

impl GroupTree {
    /// A flat tree over `n` rows (grouped by NULL only).
    pub fn flat(n: usize) -> GroupTree {
        GroupTree {
            root: GroupNode {
                level: 1,
                key: Vec::new(),
                children: Vec::new(),
                rows: RowRange::new(0, n),
            },
        }
    }

    /// All groups at a given (1-based) level, in presentation order.
    pub fn groups_at_level(&self, level: usize) -> Vec<&GroupNode> {
        let mut all = Vec::new();
        self.root.walk(&mut all);
        all.into_iter().filter(|g| g.level == level).collect()
    }

    /// The deepest level present.
    pub fn depth(&self) -> usize {
        let mut all = Vec::new();
        self.root.walk(&mut all);
        all.into_iter().map(|g| g.level).max().unwrap_or(1)
    }

    /// The finest-level group containing a row.
    pub fn finest_group_of(&self, row: usize) -> &GroupNode {
        let mut node = &self.root;
        loop {
            match node.children.iter().find(|c| c.rows.contains(row)) {
                Some(c) => node = c,
                None => return node,
            }
        }
    }

    /// Row indices in presentation order (the root's run).
    pub fn row_order(&self) -> std::ops::Range<usize> {
        self.root.rows.iter()
    }

    /// Narrow the tree in place after rows were filtered out of the
    /// relation it indexes: `dmap[j]` is row `j`'s new index, or
    /// `u32::MAX` if the row was dropped. Groups left empty disappear
    /// (the root always stays), group keys and nesting are untouched —
    /// exactly what [`build_tree`] over the filtered relation produces,
    /// as long as the filtering did not change any grouping-basis value.
    pub fn narrow(&mut self, dmap: &[u32]) {
        fn rec(node: &mut GroupNode, dmap: &[u32]) {
            // The kept rows of a contiguous run stay contiguous after
            // compaction (dmap is monotone on survivors), so the new
            // run is (first survivor's new index, survivor count).
            let mut first = None;
            let mut kept = 0;
            for r in node.rows.iter() {
                let m = dmap[r];
                if m != u32::MAX {
                    if first.is_none() {
                        first = Some(m as usize);
                    }
                    kept += 1;
                }
            }
            node.rows = RowRange::new(first.unwrap_or(0), kept);
            node.children.retain_mut(|c| {
                rec(c, dmap);
                !c.rows.is_empty()
            });
        }
        rec(&mut self.root, dmap);
    }

    /// Insert one row at presentation position `p`: every existing index
    /// `>= p` shifts up by one, then `p` joins the group chain whose
    /// per-level relative keys equal `level_keys` (one `(attribute,
    /// value)` vector per non-root level, coarsest first), creating new
    /// nodes at the sibling position presentation order dictates.
    ///
    /// Produces exactly the tree [`build_tree`] yields over the relation
    /// with the row spliced in at `p`, provided `p` is
    /// presentation-consistent: rows with equal grouping keys stay
    /// contiguous, which the caller guarantees by deriving `p` from the
    /// spec's sort columns (grouping attributes lead the sort).
    pub fn merge_insert(&mut self, p: usize, level_keys: &[Vec<(String, Value)>]) {
        // Ranges entirely at or past `p` slide up by one; ranges
        // containing `p` belong to the insertion chain (groups are
        // contiguous and `p` is presentation-consistent) and grow when
        // `insert` reaches them. O(#groups), not O(rows).
        fn shift(node: &mut GroupNode, p: usize) {
            if !node.rows.is_empty() && node.rows.start() >= p {
                node.rows = RowRange::new(node.rows.start() + 1, node.rows.len());
            }
            for c in &mut node.children {
                shift(c, p);
            }
        }
        /// A fresh single-row chain for the levels below `level`.
        fn chain(
            level: usize,
            key: Vec<(String, Value)>,
            p: usize,
            level_keys: &[Vec<(String, Value)>],
            depth: usize,
        ) -> GroupNode {
            let children = match level_keys.get(depth) {
                Some(rel) => {
                    let mut k = key.clone();
                    k.extend(rel.iter().cloned());
                    vec![chain(level + 1, k, p, level_keys, depth + 1)]
                }
                None => Vec::new(),
            };
            GroupNode {
                level,
                key,
                children,
                rows: RowRange::new(p, 1),
            }
        }
        fn insert(
            node: &mut GroupNode,
            p: usize,
            level_keys: &[Vec<(String, Value)>],
            depth: usize,
        ) {
            // Grow the chain node's run to absorb `p`. A run that was
            // shifted past `p` (it started exactly at `p`) swallows it
            // back by extending downwards.
            node.rows = if node.rows.is_empty() {
                RowRange::new(p, 1)
            } else {
                RowRange::new(node.rows.start().min(p), node.rows.len() + 1)
            };
            let Some(rel_key) = level_keys.get(depth) else {
                return;
            };
            // A child's key accumulates the whole path; its own relative
            // part is the tail.
            let matching = node
                .children
                .iter_mut()
                .find(|c| c.key[c.key.len() - rel_key.len()..] == rel_key[..]);
            if let Some(c) = matching {
                insert(c, p, level_keys, depth + 1);
                return;
            }
            let mut key = node.key.clone();
            key.extend(rel_key.iter().cloned());
            let child = chain(node.level + 1, key, p, level_keys, depth + 1);
            // Siblings hold disjoint contiguous row ranges; the new
            // single-row group slots before the first sibling past `p`.
            let at = node.children.partition_point(|c| c.rows.start() < p);
            node.children.insert(at, child);
        }
        shift(&mut self.root, p);
        insert(&mut self.root, p, level_keys, 0);
    }
}

/// Build a group tree from a relation already sorted in presentation
/// order. `level_bases` holds, per non-root level, the relative-basis
/// attribute names (canonically sorted). Rows with equal basis values must
/// be contiguous — the evaluator guarantees this by sorting first.
pub fn build_tree(data: &Relation, level_bases: &[Vec<String>]) -> GroupTree {
    fn split(
        data: &Relation,
        rows: RowRange,
        level_bases: &[Vec<String>],
        depth: usize, // index into level_bases
        level: usize,
        key: Vec<(String, Value)>,
    ) -> GroupNode {
        let mut node = GroupNode {
            level,
            key,
            children: Vec::new(),
            rows,
        };
        if depth >= level_bases.len() || rows.is_empty() {
            return node;
        }
        let basis = &level_bases[depth];
        let idx: Vec<usize> = basis
            .iter()
            .map(|a| data.schema().index_of(a).expect("basis column exists"))
            .collect();
        // Boundary detection compares values in place; keys are cloned
        // only once per group, not once per row.
        let same_key = |a: usize, b: usize| {
            let (ra, rb) = (&data.rows()[a], &data.rows()[b]);
            idx.iter().all(|&i| ra[i] == rb[i])
        };
        let mut start = rows.start();
        while start < rows.end() {
            let mut end = start + 1;
            while end < rows.end() && same_key(start, end) {
                end += 1;
            }
            // Accumulate the parent's key so a node names its group fully
            // (e.g. L3 key = [Model=Jetta, Year=2005]).
            let mut child_key = node.key.clone();
            child_key.extend(
                basis
                    .iter()
                    .cloned()
                    .zip(idx.iter().map(|&i| data.rows()[start][i])),
            );
            node.children.push(split(
                data,
                RowRange::new(start, end - start),
                level_bases,
                depth + 1,
                level + 1,
                child_key,
            ));
            start = end;
        }
        node
    }

    GroupTree {
        root: split(
            data,
            RowRange::new(0, data.len()),
            level_bases,
            0,
            1,
            Vec::new(),
        ),
    }
}

impl fmt::Display for GroupTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(node: &GroupNode, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let indent = "  ".repeat(node.level - 1);
            let key = node
                .key
                .iter()
                .map(|(a, v)| format!("{a}={v}"))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                f,
                "{indent}L{} [{}] ({} rows)",
                node.level,
                key,
                node.rows.len()
            )?;
            for c in &node.children {
                rec(c, f)?;
            }
            Ok(())
        }
        rec(&self.root, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_relation::schema::Schema;
    use ssa_relation::tuple;
    use ssa_relation::ValueType::*;

    fn cars_sorted() -> Relation {
        // Sorted: Model DESC (Jetta before Civic), Year ASC inside.
        Relation::with_rows(
            "cars",
            Schema::of(&[("Model", Str), ("Year", Int), ("Price", Int)]),
            vec![
                tuple!["Jetta", 2005, 14500],
                tuple!["Jetta", 2005, 15000],
                tuple!["Jetta", 2006, 17000],
                tuple!["Civic", 2005, 13500],
                tuple!["Civic", 2006, 15000],
                tuple!["Civic", 2006, 16000],
            ],
        )
        .unwrap()
    }

    fn two_level_tree() -> GroupTree {
        build_tree(
            &cars_sorted(),
            &[vec!["Model".to_string()], vec!["Year".to_string()]],
        )
    }

    #[test]
    fn flat_tree_has_all_rows_at_root() {
        let t = GroupTree::flat(4);
        assert_eq!(t.root.rows.to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(t.depth(), 1);
        assert!(t.root.children.is_empty());
    }

    #[test]
    fn builds_recursive_groups() {
        let t = two_level_tree();
        assert_eq!(t.depth(), 3);
        let l2 = t.groups_at_level(2);
        assert_eq!(l2.len(), 2);
        assert_eq!(l2[0].key, vec![("Model".to_string(), "Jetta".into())]);
        assert_eq!(l2[0].rows.to_vec(), vec![0, 1, 2]);
        assert_eq!(l2[1].key, vec![("Model".to_string(), "Civic".into())]);
        let l3 = t.groups_at_level(3);
        assert_eq!(l3.len(), 4); // Jetta05, Jetta06, Civic05, Civic06
        assert_eq!(l3[0].rows.to_vec(), vec![0, 1]);
        assert_eq!(l3[1].rows.to_vec(), vec![2]);
    }

    #[test]
    fn finest_group_of_row() {
        let t = two_level_tree();
        let g = t.finest_group_of(1);
        assert_eq!(g.level, 3);
        assert_eq!(g.rows.to_vec(), vec![0, 1]);
        let g = t.finest_group_of(3);
        assert_eq!(g.key[1], ("Year".to_string(), 2005.into()));
    }

    #[test]
    fn empty_relation_tree() {
        let empty = Relation::new("e", Schema::of(&[("x", Int)]));
        let t = build_tree(&empty, &[vec!["x".to_string()]]);
        assert!(t.root.is_empty());
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn row_order_is_root_rows() {
        let t = two_level_tree();
        assert_eq!(t.row_order(), 0..6);
        assert_eq!(t.root.len(), 6);
    }

    #[test]
    fn narrow_matches_fresh_build() {
        let data = cars_sorted();
        let mut t = two_level_tree();
        // Drop rows 1 ("Jetta" 2005) and 3 (the only "Civic" 2005): one
        // finest group shrinks, another disappears entirely.
        let keep = [0usize, 2, 4, 5];
        let mut dmap = vec![u32::MAX; data.len()];
        for (new, &old) in keep.iter().enumerate() {
            dmap[old] = new as u32;
        }
        t.narrow(&dmap);
        let filtered = data.take_rows(&keep.iter().map(|&i| i as u32).collect::<Vec<_>>());
        let fresh = build_tree(
            &filtered,
            &[vec!["Model".to_string()], vec!["Year".to_string()]],
        );
        assert_eq!(t, fresh);
    }

    #[test]
    fn narrow_to_empty_keeps_root() {
        let mut t = two_level_tree();
        t.narrow(&[u32::MAX; 6]);
        assert!(t.root.is_empty());
        assert!(t.root.children.is_empty());
        assert_eq!(t.depth(), 1);
    }

    /// Oracle for merge_insert: splice the row into the sorted relation
    /// at `p`, rebuild from scratch, and compare trees.
    fn assert_merge_matches_fresh(p: usize, row: ssa_relation::Tuple) {
        let bases = [vec!["Model".to_string()], vec!["Year".to_string()]];
        let level_keys: Vec<Vec<(String, Value)>> = bases
            .iter()
            .map(|basis| {
                basis
                    .iter()
                    .map(|a| {
                        let i = cars_sorted().schema().index_of(a).unwrap();
                        (a.clone(), row[i])
                    })
                    .collect()
            })
            .collect();
        let mut t = two_level_tree();
        t.merge_insert(p, &level_keys);
        let mut data = cars_sorted();
        data.rows_mut().insert(p, &row);
        assert_eq!(t, build_tree(&data, &bases), "insert at {p}");
    }

    #[test]
    fn merge_insert_into_existing_group() {
        // A third Jetta 2005 lands at position 2, inside the existing
        // finest group.
        assert_merge_matches_fresh(2, tuple!["Jetta", 2005, 14800]);
    }

    #[test]
    fn merge_insert_new_group_between_groups() {
        // Jetta 2007 opens a new finest group between Jetta 2006 and the
        // Civic block; Prius opens a whole new level-2 group between the
        // Jetta and Civic blocks.
        assert_merge_matches_fresh(3, tuple!["Jetta", 2007, 19000]);
        assert_merge_matches_fresh(3, tuple!["Prius", 2006, 21000]);
    }

    #[test]
    fn merge_insert_at_the_ends() {
        assert_merge_matches_fresh(0, tuple!["Jetta", 2004, 12000]);
        assert_merge_matches_fresh(6, tuple!["Civic", 2007, 17500]);
    }

    #[test]
    fn merge_insert_into_flat_tree() {
        let mut t = GroupTree::flat(3);
        t.merge_insert(1, &[]);
        assert_eq!(t.row_order(), 0..4);
        assert!(t.root.children.is_empty());
    }

    #[test]
    fn display_shows_structure() {
        let text = two_level_tree().to_string();
        assert!(text.contains("L2 [Model=Jetta] (3 rows)"));
        assert!(text.contains("L3 [Model=Civic, Year=2006] (2 rows)"));
    }
}
