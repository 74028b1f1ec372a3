//! Text rendering of evaluated spreadsheets — the continuously-presented
//! data view of a direct-manipulation interface, in plain text.
//!
//! The plain renderer reproduces the look of the paper's tables (I–V);
//! the tree renderer makes the recursive grouping explicit with
//! indentation, and the markdown renderer serves documentation and the
//! `repro` harness.
//!
//! The plain table is re-presented after every gesture, so it is built in
//! one formatting pass (DESIGN.md §18): every visible non-string cell is
//! formatted once into a shared text buffer (strings are read in place
//! from the interner), column widths fall out of that pass, and the rows
//! are copied into an output string sized exactly from the widths. All
//! three renderers format cells through `push_value`.

use crate::eval::Derived;
use crate::tree::GroupNode;
use ssa_relation::Value;
use std::fmt::Write as _;

/// Column-aligned plain-text table of the visible spreadsheet, with a
/// rule line between level-2 groups (when grouping exists).
///
/// Widths are counted in bytes and padding in chars (`{:width$}`
/// semantics), so a non-ASCII cell pads short of its column's width.
pub fn render_table(view: &Derived) -> String {
    let idx = visible_indices(view);
    let rows = view.data.rows();

    // One pass formats every visible non-string cell into `text`; `ends[r
    // * ncols + k]` is where cell (r, k) stops there (string cells take no
    // room). `multibyte` counts the bytes beyond one per char, which the
    // padding does not absorb.
    let mut widths: Vec<usize> = view.visible.iter().map(|c| c.len()).collect();
    let mut text = String::new();
    let mut ends = Vec::with_capacity(rows.len() * idx.len());
    let mut multibyte = 0;
    for row in rows {
        for (w, &i) in widths.iter_mut().zip(&idx) {
            let start = text.len();
            let v = row.get(i);
            if !matches!(v, Value::Str(_)) {
                push_value(&mut text, v);
            }
            let cell = cell_text(v, &text[start..]);
            *w = (*w).max(cell.len());
            multibyte += cell.len() - cell.chars().count();
            ends.push(text.len());
        }
    }

    // Row blocks follow the level-2 groups when present.
    let blocks: Vec<std::ops::Range<usize>> = if view.tree.root.children.is_empty() {
        vec![view.tree.root.rows.iter()]
    } else {
        view.tree
            .root
            .children
            .iter()
            .map(|g| g.rows.iter())
            .collect()
    };

    // Every line — header, rule or row — is `w + 3` bytes per column plus
    // the closing `|` and newline, before multi-byte chars.
    let line_len = widths.iter().map(|w| w + 3).sum::<usize>() + 2;
    let row_lines: usize = blocks.iter().map(|b| b.len()).sum();
    let header_multibyte: usize = view
        .visible
        .iter()
        .map(|c| c.len() - c.chars().count())
        .sum();
    let mut out = String::with_capacity(
        line_len * (row_lines + blocks.len() + 1) + multibyte + header_multibyte,
    );
    let spaces = " ".repeat(widths.iter().copied().max().unwrap_or(0));

    for (c, &w) in view.visible.iter().zip(&widths) {
        push_cell(&mut out, c, w, &spaces);
    }
    out.push_str("|\n");
    let mut rule = String::with_capacity(line_len);
    for &w in &widths {
        rule.push('|');
        rule.extend(std::iter::repeat_n('-', w + 2));
    }
    rule.push_str("|\n");
    out.push_str(&rule);

    let ncols = idx.len();
    for (bi, block) in blocks.into_iter().enumerate() {
        if bi > 0 {
            out.push_str(&rule);
        }
        for r in block {
            let row = &rows[r];
            let first = r * ncols;
            let mut start = first.checked_sub(1).map_or(0, |p| ends[p]);
            let cells = ends[first..first + ncols].iter().zip(&widths).zip(&idx);
            for ((&end, &w), &i) in cells {
                push_cell(
                    &mut out,
                    cell_text(row.get(i), &text[start..end]),
                    w,
                    &spaces,
                );
                start = end;
            }
            out.push_str("|\n");
        }
    }
    out
}

/// A cell's text: an interned string is read in place (it already is a
/// `&'static str`), any other value from its `formatted` run.
fn cell_text<'a>(v: &Value, formatted: &'a str) -> &'a str {
    match v {
        Value::Str(s) => s.as_str(),
        _ => formatted,
    }
}

/// `| cell<pad> ` — the cell left-aligned in a column `width` bytes wide,
/// padded by chars as `{:width$}` does.
fn push_cell(out: &mut String, cell: &str, width: usize, spaces: &str) {
    out.push_str("| ");
    out.push_str(cell);
    out.push_str(&spaces[..width - cell.chars().count()]);
    out.push(' ');
}

/// GitHub-flavoured markdown table (no group separators).
pub fn render_markdown(view: &Derived) -> String {
    let idx = visible_indices(view);
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&view.visible.join(" | "));
    out.push_str(" |\n|");
    for _ in &view.visible {
        out.push_str("---|");
    }
    out.push('\n');
    for row in view.data.rows() {
        out.push_str("| ");
        for (k, &i) in idx.iter().enumerate() {
            if k > 0 {
                out.push_str(" | ");
            }
            push_value(&mut out, row.get(i));
        }
        out.push_str(" |\n");
    }
    out
}

/// Indented group-tree rendering: each group header shows its key, each
/// leaf row its visible values.
pub fn render_tree(view: &Derived) -> String {
    fn rec(view: &Derived, idx: &[usize], node: &GroupNode, out: &mut String) {
        let indent = "  ".repeat(node.level.saturating_sub(1));
        if !node.key.is_empty() {
            out.push_str(&indent);
            out.push('[');
            for (k, (a, v)) in node.key.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(a);
                out.push('=');
                push_value(out, v);
            }
            let _ = writeln!(out, "] ({} rows)", node.rows.len());
        }
        if node.children.is_empty() {
            for r in node.rows.iter() {
                out.push_str(&indent);
                out.push_str("  ");
                for (k, &i) in idx.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    push_value(out, view.data.rows()[r].get(i));
                }
                out.push('\n');
            }
        } else {
            for c in &node.children {
                rec(view, idx, c, out);
            }
        }
    }
    let idx = visible_indices(view);
    let mut out = String::new();
    rec(view, &idx, &view.tree.root, &mut out);
    out
}

/// Schema positions of the visible columns, in display order.
fn visible_indices(view: &Derived) -> Vec<usize> {
    view.visible
        .iter()
        .map(|c| {
            view.data
                .schema()
                .index_of(c)
                .expect("visible column exists")
        })
        .collect()
}

/// Append a value the way the paper's tables show it: NULL as empty,
/// floats with a fraction rounded to two places, everything else as its
/// `Display` form.
fn push_value(out: &mut String, v: &Value) {
    // Writing into a `String` cannot fail.
    let _ = match v {
        Value::Float(f) if f.fract().abs() > 1e-9 => write!(out, "{f:.2}"),
        Value::Str(s) => {
            out.push_str(s.as_str());
            Ok(())
        }
        other => write!(out, "{other}"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::used_cars;
    use crate::sheet::Spreadsheet;
    use crate::spec::Direction;
    use crate::tree::{build_tree, GroupTree};
    use ssa_relation::rng::Rng;
    use ssa_relation::{AggFunc, Relation, Schema, Tuple, ValueType};

    fn grouped_view() -> Derived {
        let mut s = Spreadsheet::over(used_cars());
        s.group(&["Model"], Direction::Desc).unwrap();
        s.group(&["Model", "Year"], Direction::Asc).unwrap();
        s.order("Price", Direction::Asc, 3).unwrap();
        s.evaluate_now().unwrap()
    }

    fn cell(v: &Value) -> String {
        let mut s = String::new();
        push_value(&mut s, v);
        s
    }

    #[test]
    fn table_contains_all_rows_and_headers() {
        let t = render_table(&grouped_view());
        assert!(t.contains("| ID "));
        assert!(t.contains("Jetta"));
        assert_eq!(t.lines().filter(|l| l.contains("Jetta")).count(), 6);
        // one separator between the two Model groups + header rule
        assert!(
            t.lines()
                .filter(|l| l.starts_with("|--") || l.starts_with("|-"))
                .count()
                >= 2
        );
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let m = render_markdown(&grouped_view());
        assert!(m.starts_with("| ID | Model |"));
        assert_eq!(m.lines().count(), 2 + 9);
    }

    #[test]
    fn tree_rendering_shows_group_keys() {
        let t = render_tree(&grouped_view());
        assert!(t.contains("[Model=Jetta] (6 rows)"));
        assert!(t.contains("[Model=Jetta, Year=2005] (3 rows)"));
    }

    #[test]
    fn ungrouped_sheet_renders_single_block() {
        let s = Spreadsheet::over(used_cars());
        let v = s.evaluate_now().unwrap();
        let t = render_table(&v);
        assert_eq!(t.lines().count(), 2 + 9);
    }

    #[test]
    fn aggregate_column_renders_rounded() {
        let mut s = Spreadsheet::over(used_cars());
        s.aggregate(AggFunc::Avg, "Price", 1).unwrap();
        let v = s.evaluate_now().unwrap();
        let t = render_table(&v);
        assert!(t.contains("15833.33"), "got:\n{t}");
    }

    #[test]
    fn push_value_cases() {
        assert_eq!(cell(&Value::Null), "");
        assert_eq!(cell(&Value::Bool(true)), "true");
        assert_eq!(cell(&Value::Int(5)), "5");
        assert_eq!(cell(&Value::Int(-12)), "-12");
        assert_eq!(cell(&Value::Float(1.5)), "1.50");
        assert_eq!(cell(&Value::Float(-1.555)), "-1.55");
        assert_eq!(cell(&Value::Float(2.0)), "2.0");
        assert_eq!(cell(&Value::Float(3.0 + 1e-12)), "3.000000000001");
        assert_eq!(cell(&Value::Float(1e15)), "1000000000000000");
        assert_eq!(cell(&Value::Float(f64::NAN)), "NaN");
        assert_eq!(cell(&Value::Float(f64::NEG_INFINITY)), "-inf");
        assert_eq!(cell(&"ünï".into()), "ünï");
    }

    #[test]
    fn markdown_and_tree_match_the_per_cell_joins() {
        // The string-joining forms these renderers had before they moved
        // onto `push_value`.
        let view = grouped_view();
        let idx = visible_indices(&view);
        let fields = |r: usize| -> Vec<String> {
            idx.iter()
                .map(|&i| reference::format_value(view.data.rows()[r].get(i)))
                .collect()
        };
        let mut md = format!("| {} |\n", view.visible.join(" | "));
        md.push_str(&format!(
            "|{}\n",
            view.visible.iter().map(|_| "---|").collect::<String>()
        ));
        for r in 0..view.data.len() {
            md.push_str(&format!("| {} |\n", fields(r).join(" | ")));
        }
        assert_eq!(render_markdown(&view), md);

        let tree = render_tree(&view);
        for g in view.tree.groups_at_level(3) {
            let key = g
                .key
                .iter()
                .map(|(a, v)| format!("{a}={}", reference::format_value(v)))
                .collect::<Vec<_>>()
                .join(", ");
            assert!(tree.contains(&format!("    [{key}] ({} rows)\n", g.rows.len())));
            for r in g.rows.iter() {
                assert!(tree.contains(&format!("      {}\n", fields(r).join(", "))));
            }
        }
    }

    /// The renderer as it was before the single-pass rewrite, kept
    /// verbatim as the differential oracle.
    mod reference {
        use super::*;

        pub fn render_table(view: &Derived) -> String {
            let cols = &view.visible;
            let idx: Vec<usize> = cols
                .iter()
                .map(|c| {
                    view.data
                        .schema()
                        .index_of(c)
                        .expect("visible column exists")
                })
                .collect();

            let mut widths: Vec<usize> = cols.iter().map(|c| c.len()).collect();
            let cell =
                |r: usize, k: usize| -> String { format_value(view.data.rows()[r].get(idx[k])) };
            for r in 0..view.data.len() {
                for (k, w) in widths.iter_mut().enumerate() {
                    *w = (*w).max(cell(r, k).len());
                }
            }

            let mut out = String::new();
            let mut line = String::new();
            for (k, c) in cols.iter().enumerate() {
                line.push_str(&format!("| {:width$} ", c, width = widths[k]));
            }
            line.push('|');
            out.push_str(&line);
            out.push('\n');
            let mut rule = String::new();
            for w in &widths {
                rule.push_str(&format!("|{}", "-".repeat(w + 2)));
            }
            rule.push('|');
            out.push_str(&rule);
            out.push('\n');

            // Row blocks follow the level-2 groups when present.
            let blocks: Vec<std::ops::Range<usize>> = if view.tree.root.children.is_empty() {
                vec![view.tree.root.rows.iter()]
            } else {
                view.tree
                    .root
                    .children
                    .iter()
                    .map(|g| g.rows.iter())
                    .collect()
            };
            for (bi, block) in blocks.iter().enumerate() {
                if bi > 0 {
                    out.push_str(&rule);
                    out.push('\n');
                }
                for r in block.clone() {
                    let mut line = String::new();
                    for (k, width) in widths.iter().enumerate() {
                        line.push_str(&format!("| {:width$} ", cell(r, k), width = width));
                    }
                    line.push('|');
                    out.push_str(&line);
                    out.push('\n');
                }
            }
            out
        }

        pub fn format_value(v: &Value) -> String {
            match v {
                Value::Float(f) if f.fract().abs() > 1e-9 => format!("{f:.2}"),
                other => other.to_string(),
            }
        }
    }

    /// A random cell drawn to hit every formatting rule: NULL, booleans,
    /// signed ints, floats with and without a visible fraction, huge and
    /// non-finite floats, and ASCII, empty and multi-byte strings.
    fn random_value(rng: &mut Rng) -> Value {
        const STRS: [&str; 8] = [
            "Jetta",
            "",
            "ünïcode",
            "日本語",
            "🗂 files",
            "a",
            "Golf",
            "é",
        ];
        const FLOATS: [f64; 10] = [
            0.5,
            -2.25,
            7.0,
            -0.0,
            1.0 + 1e-10,
            1e15,
            -3.5e17,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match rng.gen_range(0..7u32) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_range(-100_000..100_000i64)),
            3 => Value::Float(*rng.pick(&FLOATS)),
            4 => Value::Float(rng.gen_range(-1e4..1e4f64)),
            _ => (*rng.pick(&STRS)).into(),
        }
    }

    /// A random view: a relation over some named columns, a random
    /// subset of them visible in random order, and either a flat tree or
    /// one grouped on the leading column(s). Group keys are drawn from a
    /// small pool so runs of equal keys form multi-row groups.
    fn random_view(rng: &mut Rng) -> Derived {
        const NAMES: [&str; 6] = [
            "ID",
            "Model",
            "Prëis",
            "x",
            "A_header_wider_than_any_cell",
            "Ω",
        ];
        let ncols = rng.gen_range(1..=NAMES.len());
        let cols: Vec<(&str, ValueType)> = NAMES[..ncols]
            .iter()
            .map(|n| (*n, ValueType::Str))
            .collect();
        let schema = Schema::of(&cols);
        let nrows = rng.gen_range(0..=12usize);
        let keys: Vec<Value> = (0..3).map(|_| random_value(rng)).collect();
        let rows: Vec<Tuple> = (0..nrows)
            .map(|_| {
                Tuple::new(
                    (0..ncols)
                        .map(|c| {
                            if c == 0 {
                                *rng.pick(&keys)
                            } else {
                                random_value(rng)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let data = Relation::with_rows("r", schema, rows).unwrap();
        let tree = match rng.gen_range(0..3u32) {
            0 => GroupTree::flat(data.len()),
            1 => build_tree(&data, &[vec![NAMES[0].to_string()]]),
            _ => build_tree(
                &data,
                &[
                    vec![NAMES[0].to_string()],
                    vec![NAMES[ncols - 1].to_string()],
                ],
            ),
        };
        let mut visible: Vec<String> = NAMES[..ncols].iter().map(|n| n.to_string()).collect();
        rng.shuffle(&mut visible);
        visible.truncate(rng.gen_range(0..=ncols));
        Derived {
            data,
            tree,
            visible,
        }
    }

    #[test]
    fn render_table_matches_reference_on_random_views() {
        let mut rng = Rng::seed_from_u64(0x7AB1E);
        for case in 0..500 {
            let view = random_view(&mut rng);
            let fast = render_table(&view);
            let slow = reference::render_table(&view);
            assert_eq!(
                fast,
                slow,
                "case {case}: visible {:?}, {} rows",
                view.visible,
                view.data.len()
            );
            assert_eq!(fast.len(), fast.capacity(), "case {case}: exact pre-size");
        }
    }

    #[test]
    fn render_table_matches_reference_on_fixture_views() {
        let empty = Derived {
            data: Relation::new("e", Schema::of(&[("Name", ValueType::Str)])),
            tree: GroupTree::flat(0),
            visible: vec!["Name".to_string()],
        };
        let ungrouped = Spreadsheet::over(used_cars()).evaluate_now().unwrap();
        for view in [empty, ungrouped, grouped_view()] {
            assert_eq!(render_table(&view), reference::render_table(&view));
        }
    }
}
