//! Precedence and commutativity between operator instances (Sec. IV-B).
//!
//! "We say that a spreadsheet operator instance p *precedes* operator
//! instance q if q requires columns created by p or q removes a column
//! that p requires. In order for two operator instances to commute,
//! neither of them can precede the other." Binary operators create a
//! *point of non-commutativity*.
//!
//! This module makes those notions executable over [`SheetOp`], the one
//! description of an operator instance that history, replication and
//! the tests share: [`SheetOp::signature`] captures what an instance
//! creates / requires / removes, and [`may_commute`] is a conservative
//! decision procedure — when it says `true`, applying the two operators
//! in either order provably yields the same spreadsheet (the property
//! tests in `tests/commutativity.rs` check this against the evaluator).
//! Beyond the paper's column-based rule we also track *grouping levels*,
//! since an aggregate instance additionally requires its grouping level
//! to exist and keep its basis. Binary operators are not `SheetOp`s:
//! they are points of non-commutativity by definition.

use crate::replica::SheetOp;
use crate::sheet::Spreadsheet;
use std::collections::BTreeSet;

impl SheetOp {
    /// Compute the signature of this instance against the sheet it would
    /// be applied to.
    pub fn signature(&self, sheet: &Spreadsheet) -> OpSignature {
        let mut sig = OpSignature::default();
        match self {
            SheetOp::Select { predicate } => {
                sig.requires = predicate.columns();
            }
            SheetOp::ProjectOut { column } => {
                // Removing a computed column kills its definition; hiding a
                // base column is treated as a removal too for conflict
                // purposes (conservative).
                sig.removes.insert(column.clone());
            }
            SheetOp::Reinstate { column } => {
                sig.creates.insert(column.clone());
            }
            SheetOp::Aggregate {
                func,
                column,
                level,
            } => {
                sig.requires.insert(column.clone());
                sig.requires
                    .extend(sheet.state().spec.absolute_basis(*level));
                sig.creates.insert(predicted_name(
                    sheet,
                    &format!("{}_{}", func.short_name(), column),
                ));
                sig.needs_level = Some(*level);
            }
            SheetOp::Formula { name, expr } => {
                sig.requires = expr.columns();
                let base = match name {
                    Some(n) => n.clone(),
                    None => "F?".to_string(), // auto-names always conflict
                };
                sig.creates.insert(predicted_name(sheet, &base));
            }
            SheetOp::Dedup => {}
            SheetOp::Group { attributes, .. } => {
                // Relative: the new level's absolute basis is the current
                // grouping plus `attributes`, and all of it is required.
                sig.requires = sheet.state().spec.all_grouping_attributes();
                sig.requires.extend(attributes.iter().cloned());
                sig.structural = true;
                // Adding a level never disturbs existing levels' bases.
                sig.creates_level = Some(sheet.state().spec.level_count() + 1);
            }
            SheetOp::Order {
                attribute, level, ..
            } => {
                sig.requires.insert(attribute.clone());
                sig.structural = true;
                let spec = &sheet.state().spec;
                let n = spec.level_count();
                if *level < n && !spec.in_relative_basis(attribute, level + 1) {
                    // Def. 4 case 1: destroys levels deeper than `level`.
                    sig.destroys_levels_above = Some(*level);
                }
            }
            // Base edits, renames, query modification, regrouping and
            // column removal are outside Theorem 2's unary operators.
            _ => sig.barrier = true,
        }
        sig
    }
}

fn predicted_name(sheet: &Spreadsheet, base: &str) -> String {
    let exists = |n: &str| sheet.base().schema().contains(n) || sheet.state().is_computed(n);
    if !exists(base) {
        return base.to_string();
    }
    let mut i = 2;
    loop {
        let candidate = format!("{base}_{i}");
        if !exists(&candidate) {
            return candidate;
        }
        i += 1;
    }
}

/// What one operator instance touches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpSignature {
    /// Columns this instance creates.
    pub creates: BTreeSet<String>,
    /// Columns this instance reads.
    pub requires: BTreeSet<String>,
    /// Columns this instance removes (or hides).
    pub removes: BTreeSet<String>,
    /// Grouping/ordering instance (these never commute with each other).
    pub structural: bool,
    /// For aggregates: the grouping level that must exist and keep its
    /// basis.
    pub needs_level: Option<usize>,
    /// For grouping: the new level it introduces.
    pub creates_level: Option<usize>,
    /// For ordering case 1: every level above this one is destroyed.
    pub destroys_levels_above: Option<usize>,
    /// An op outside Theorem 2's unary operators: commutes with nothing.
    pub barrier: bool,
}

/// The paper's precedence relation: does `p` precede `q`?
pub fn precedes(p: &OpSignature, q: &OpSignature) -> bool {
    // q requires columns created by p
    if q.requires.intersection(&p.creates).next().is_some() {
        return true;
    }
    // q removes a column that p requires
    if q.removes.intersection(&p.requires).next().is_some() {
        return true;
    }
    // level-structure refinement: q needs a level p creates
    if let (Some(need), Some(created)) = (q.needs_level, p.creates_level) {
        if need >= created {
            return true;
        }
    }
    false
}

/// Conservative commutativity check for two instances against the sheet
/// both would start from. `true` ⇒ the two orders produce identical
/// spreadsheets (Theorem 2, with precedence satisfied).
pub fn may_commute(a: &SheetOp, b: &SheetOp, sheet: &Spreadsheet) -> bool {
    let sa = a.signature(sheet);
    let sb = b.signature(sheet);
    // Grouping and ordering do not commute with each other (Sec. IV-B).
    if sa.barrier || sb.barrier || (sa.structural && sb.structural) {
        return false;
    }
    if precedes(&sa, &sb) || precedes(&sb, &sa) {
        return false;
    }
    // Name conflicts: creating/removing/touching the same column.
    if sa.creates.intersection(&sb.creates).next().is_some() {
        return false;
    }
    if sa.removes.intersection(&sb.removes).next().is_some() {
        return false;
    }
    if sa.creates.intersection(&sb.removes).next().is_some()
        || sb.creates.intersection(&sa.removes).next().is_some()
    {
        return false;
    }
    // An aggregate whose level would be destroyed by an ordering: those
    // two conflict (the engine refuses one order and allows the other).
    for (x, y) in [(&sa, &sb), (&sb, &sa)] {
        if let (Some(level), Some(destroyed_above)) = (x.needs_level, y.destroys_levels_above) {
            if level > destroyed_above {
                return false;
            }
        }
        // An aggregate at a level that does not exist yet cannot run first.
        if let Some(level) = x.needs_level {
            if level > sheet.state().spec.level_count() {
                return false;
            }
        }
        let _ = y;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::used_cars;
    use crate::spec::Direction;
    use ssa_relation::{AggFunc, Expr};

    fn sheet() -> Spreadsheet {
        Spreadsheet::over(used_cars())
    }

    fn sel(col: &str, v: i64) -> SheetOp {
        SheetOp::Select {
            predicate: Expr::col(col).lt(Expr::lit(v)),
        }
    }

    fn avg_price(level: usize) -> SheetOp {
        SheetOp::Aggregate {
            func: AggFunc::Avg,
            column: "Price".into(),
            level,
        }
    }

    fn group(attribute: &str) -> SheetOp {
        SheetOp::Group {
            attributes: vec![attribute.into()],
            direction: Direction::Asc,
        }
    }

    #[test]
    fn independent_selections_commute() {
        let s = sheet();
        assert!(may_commute(&sel("Price", 16000), &sel("Year", 2006), &s));
    }

    #[test]
    fn aggregation_then_dependent_selection_is_precedence() {
        let s = sheet();
        let agg = avg_price(1);
        let dep = SheetOp::Select {
            predicate: Expr::col("Price").lt(Expr::col("Avg_Price")),
        };
        assert!(!may_commute(&agg, &dep, &s));
        let sa = agg.signature(&s);
        let sd = dep.signature(&s);
        assert!(precedes(&sa, &sd));
        assert!(!precedes(&sd, &sa));
    }

    #[test]
    fn aggregation_and_independent_selection_commute() {
        // The surprising pair from Theorem 2's proof sketch.
        let s = sheet();
        assert!(may_commute(&avg_price(1), &sel("Year", 2006), &s));
    }

    #[test]
    fn projection_conflicts_with_selection_on_same_column() {
        let s = sheet();
        let p = SheetOp::ProjectOut {
            column: "Price".into(),
        };
        assert!(!may_commute(&p, &sel("Price", 16000), &s));
        // but projection of an unrelated column commutes
        let p2 = SheetOp::ProjectOut {
            column: "Mileage".into(),
        };
        assert!(may_commute(&p2, &sel("Price", 16000), &s));
    }

    #[test]
    fn two_aggregates_with_same_generated_name_conflict() {
        let s = sheet();
        let a = avg_price(1);
        assert!(!may_commute(&a, &a.clone(), &s));
        let b = SheetOp::Aggregate {
            func: AggFunc::Max,
            column: "Price".into(),
            level: 1,
        };
        assert!(may_commute(&a, &b, &s));
    }

    #[test]
    fn grouping_and_ordering_do_not_commute() {
        let s = sheet();
        let o = SheetOp::Order {
            attribute: "Price".into(),
            direction: Direction::Asc,
            level: 1,
        };
        assert!(!may_commute(&group("Model"), &o, &s));
    }

    #[test]
    fn grouping_commutes_with_dedup_and_selection() {
        let s = sheet();
        assert!(may_commute(&group("Model"), &SheetOp::Dedup, &s));
        assert!(may_commute(&group("Model"), &sel("Price", 16000), &s));
    }

    #[test]
    fn ops_outside_the_unary_algebra_commute_with_nothing() {
        let s = sheet();
        let rename = SheetOp::Rename {
            from: "Mileage".into(),
            to: "Miles".into(),
        };
        assert!(!may_commute(&rename, &SheetOp::Dedup, &s));
        assert!(!may_commute(&sel("Price", 1), &SheetOp::Ungroup, &s));
    }

    #[test]
    fn aggregate_needing_new_level_is_preceded_by_group() {
        let s = sheet();
        let g = group("Model");
        let a = avg_price(2);
        assert!(!may_commute(&g, &a, &s));
        let sg = g.signature(&s);
        let sa = a.signature(&s);
        assert!(precedes(&sg, &sa));
    }

    #[test]
    fn ordering_that_destroys_levels_conflicts_with_deep_aggregate() {
        let mut s = sheet();
        s.group(&["Model"], Direction::Asc).unwrap();
        s.group(&["Model", "Year"], Direction::Asc).unwrap();
        let destroyer = SheetOp::Order {
            attribute: "Mileage".into(),
            direction: Direction::Asc,
            level: 2,
        };
        assert!(!may_commute(&destroyer, &avg_price(3), &s));
        // a level-1 aggregate is untouched by the destruction
        assert!(may_commute(&destroyer, &avg_price(1), &s));
    }
}
