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
//! three renderers format cells through `push_value`, which writes ints
//! and most floats digit by digit instead of going through `core::fmt`.

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

    // One pass formats every visible non-string cell into `text`; row r
    // starts at `starts[r]` there and cell (r, k) is `lens[r * ncols + k]`
    // bytes long (string cells take no room). `multibyte` counts the bytes
    // beyond one per char, which the padding does not absorb; only string
    // cells can have any.
    let mut widths: Vec<usize> = view.visible.iter().map(|c| c.len()).collect();
    let mut text = String::new();
    let mut starts = Vec::with_capacity(rows.len());
    let mut lens = Vec::with_capacity(rows.len() * idx.len());
    let mut multibyte = 0;
    for row in rows {
        starts.push(text.len());
        for (w, &i) in widths.iter_mut().zip(&idx) {
            let start = text.len();
            let v = &row[i];
            if !matches!(v, Value::Str(_)) {
                push_value(&mut text, v);
            }
            let (cell, chars) = cell_text(v, &text[start..]);
            *w = (*w).max(cell.len());
            multibyte += cell.len() - chars;
            lens.push(
                u16::try_from(text.len() - start)
                    .expect("a formatted non-string value is at most 327 bytes"),
            );
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
        push_cell(&mut out, c, c.chars().count(), w, &spaces);
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
            let mut start = starts[r];
            let cells = lens[r * ncols..(r + 1) * ncols]
                .iter()
                .zip(&widths)
                .zip(&idx);
            for ((&len, &w), &i) in cells {
                let end = start + usize::from(len);
                let (cell, chars) = cell_text(&row[i], &text[start..end]);
                push_cell(&mut out, cell, chars, w, &spaces);
                start = end;
            }
            out.push_str("|\n");
        }
    }
    out
}

/// A cell's text and its length in chars: an interned string is read in
/// place (it already is a `&'static str`) and its chars counted; any other
/// value is its `formatted` run, which is ASCII, so its chars are its bytes.
fn cell_text<'a>(v: &Value, formatted: &'a str) -> (&'a str, usize) {
    match v {
        Value::Str(s) => {
            let s = s.as_str();
            (s, s.chars().count())
        }
        _ => (formatted, formatted.len()),
    }
}

/// `| cell<pad> ` — the cell (`chars` chars long) left-aligned in a column
/// `width` bytes wide, padded by chars as `{:width$}` does.
fn push_cell(out: &mut String, cell: &str, chars: usize, width: usize, spaces: &str) {
    out.push_str("| ");
    out.push_str(cell);
    out.push_str(&spaces[..width - chars]);
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
            push_value(&mut out, &row[i]);
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
                    push_value(out, &view.data.rows()[r][i]);
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
/// `Display` form. Ints, integral floats and most fractions are written
/// digit by digit (DESIGN.md §18); the rest go through `core::fmt`. Every
/// form but a string is ASCII.
fn push_value(out: &mut String, v: &Value) {
    match *v {
        Value::Null => {}
        Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        Value::Int(i) => push_digits(out, i < 0, i.unsigned_abs()),
        Value::Float(f) if f.fract().abs() > 1e-9 => push_cents(out, f),
        // `Display` prints these as `{:.1}`: the digits and `.0`. Below
        // 1e15 the value is an exact integer that fits a `u64`.
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
            push_digits(out, f.is_sign_negative(), f.abs() as u64);
            out.push_str(".0");
        }
        Value::Str(s) => out.push_str(s.as_str()),
        other => {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{other}");
        }
    }
}

/// Append `n` in decimal, after a `-` when `negative`.
fn push_digits(out: &mut String, negative: bool, mut n: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Magnitudes below this take the fast `{:.2}` path: `|f| * 100` is then
/// below 2^44, so the rounded product is within 2^-10 of the exact one.
const CENTS_FAST_BELOW: f64 = 1e11;

/// How far (> 2^-10) the rounded product must be from a `.5` tie for its
/// nearest integer to be the exact product's.
const CENTS_TIE_MARGIN: f64 = 1e-3;

/// Append `f` as `{:.2}` does: the exact value rounded to the nearest
/// hundredth. The rounded product `f * 100` decides when it provably
/// agrees with the exact one (DESIGN.md §18); near a tie, or for a large
/// `f`, `core::fmt` does.
fn push_cents(out: &mut String, f: f64) {
    let abs = f.abs();
    if abs < CENTS_FAST_BELOW {
        let scaled = abs * 100.0;
        let whole = scaled.floor();
        let frac = scaled - whole;
        if (frac - 0.5).abs() > CENTS_TIE_MARGIN {
            let cents = whole as u64 + u64::from(frac > 0.5);
            push_digits(out, f.is_sign_negative(), cents / 100);
            let cents = (cents % 100) as u8;
            out.push('.');
            out.push(char::from(b'0' + cents / 10));
            out.push(char::from(b'0' + cents % 10));
            return;
        }
    }
    let _ = write!(out, "{f:.2}");
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
        assert_eq!(cell(&Value::Float(-0.001)), "-0.00");
        assert_eq!(cell(&Value::Float(-0.0)), "-0.0");
        assert_eq!(cell(&Value::Float(0.125)), "0.12");
        assert_eq!(cell(&Value::Float(0.375)), "0.38");
        assert_eq!(cell(&Value::Int(i64::MIN)), "-9223372036854775808");
        assert_eq!(cell(&"ünï".into()), "ünï");
    }

    /// `render_table` stores each formatted cell's length as a `u16`. The
    /// longest non-string cells are the floats `Display` spells out in
    /// full: the largest magnitudes and the smallest subnormals.
    #[test]
    fn formatted_cells_fit_a_u16_length() {
        let longest = [f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324, -5e-324]
            .map(|f| cell(&Value::Float(f)).len());
        assert_eq!(longest, [309, 310, 326, 326, 327]);
        assert!(longest.iter().all(|&n| u16::try_from(n).is_ok()));
        assert_eq!(cell(&Value::Int(i64::MIN)).len(), 20);
    }

    /// Floats the fast paths must get exactly right or hand to
    /// `core::fmt`: exact `.5` ties, decimal ties that are not exact in
    /// binary, both sides of the fast-path bound and of the 1e-9
    /// fraction cut, the 1e15 `Display` switch, zeros and non-finites.
    const EDGE_FLOATS: [f64; 26] = [
        0.125,
        0.375,
        2.675,
        1.005,
        0.005,
        0.015,
        1234.565,
        99_999_999_999.995,
        CENTS_FAST_BELOW,
        CENTS_FAST_BELOW - 0.125,
        CENTS_FAST_BELOW + 0.125,
        CENTS_FAST_BELOW - 0.015,
        1e-9,
        1e-9 + 1e-12,
        1.0 + 1e-9,
        1.0 + 2e-9,
        1e15 - 1.0,
        1e15,
        1e15 + 1.0,
        1e15 - 0.5,
        0.0,
        -0.0,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// `push_value` against the plain `core::fmt` forms of
    /// `reference::format_value` on ~1.2M seeded values.
    #[test]
    fn push_value_matches_core_fmt_on_seeded_values() {
        let mut out = String::new();
        let mut check = |v: Value| {
            out.clear();
            push_value(&mut out, &v);
            assert_eq!(out, reference::format_value(&v), "{v:?}");
        };
        for f in EDGE_FLOATS {
            check(Value::Float(f));
            check(Value::Float(-f));
            check(Value::Float(f64::from_bits(f.to_bits() + 1)));
            check(Value::Float(f64::from_bits(f.to_bits().saturating_sub(1))));
        }
        for i in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX] {
            check(Value::Int(i));
        }
        let mut rng = Rng::seed_from_u64(0xF0_27A7);
        for _ in 0..150_000 {
            let bits = rng.next_u64();
            check(Value::Int(bits as i64));
            check(Value::Float(f64::from_bits(bits)));
            // Cents grids and their midpoints (x.xx5), at every scale
            // the fast path takes.
            let cents = rng.gen_range(-10_000_000_000_000..10_000_000_000_000i64);
            let cents = cents >> rng.gen_range(0..44u32);
            check(Value::Float(cents as f64 / 100.0));
            check(Value::Float((cents as f64 * 10.0 + 5.0) / 1000.0));
            // Exact binary ties: an odd multiple of 1/8 is an exact .5 in
            // hundredths.
            let eighths = rng.gen_range(-1_000_000_000..1_000_000_000i64) | 1;
            check(Value::Float(eighths as f64 / 8.0));
            // Around the fast-path bound.
            let near = CENTS_FAST_BELOW + rng.gen_range(-1000.0..1000.0f64);
            check(Value::Float(near));
            // Fractions straddling the 1e-9 cut, and integral floats on
            // both sides of 1e15.
            let whole = rng.gen_range(-1_000_000..1_000_000i64) as f64;
            check(Value::Float(whole + rng.gen_range(-2e-9..2e-9f64)));
            let big = 1e15 + rng.gen_range(-1000..1000i64) as f64;
            check(Value::Float(big.copysign(whole)));
        }
    }

    #[test]
    fn markdown_and_tree_match_the_per_cell_joins() {
        // The string-joining forms these renderers had before they moved
        // onto `push_value`.
        let view = grouped_view();
        let idx = visible_indices(&view);
        let fields = |r: usize| -> Vec<String> {
            idx.iter()
                .map(|&i| reference::format_value(&view.data.rows()[r][i]))
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
                |r: usize, k: usize| -> String { format_value(&view.data.rows()[r][idx[k]]) };
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
    /// signed ints, floats with and without a visible fraction, rounding
    /// ties, the fast-path bound, huge and non-finite floats, and ASCII,
    /// empty and multi-byte strings.
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
        const FLOATS: [f64; 7] = [0.5, -2.25, 7.0, 1.0 + 1e-10, 1e15, -3.5e17, -0.001];
        match rng.gen_range(0..8u32) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_range(-100_000..100_000i64)),
            3 => Value::Float(*rng.pick(&FLOATS)),
            4 => Value::Float(rng.gen_range(-1e4..1e4f64)),
            5 => Value::Float(*rng.pick(&EDGE_FLOATS)),
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
