//! The binary columnar persistence format (DESIGN.md §16): JSON↔binary
//! round-trip equivalence, bitwise value fidelity, corruption
//! robustness, paged lazy loading, and format auto-detection.

mod common;

use common::arb_sheet;
use spreadsheet_algebra::storage::{
    open_paged, open_sheet, save_sheet_json, PagedSheet, SheetFile,
};
use spreadsheet_algebra::{QueryState, Spreadsheet, StoredSheet};
use ssa_relation::rng::Rng;
use ssa_relation::{Expr, Relation, Schema, Tuple, Value, ValueType};

fn temp_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ssa_persist_{tag}_{}.sheet", std::process::id()))
}

/// Per-cell bitwise equality: stricter than `Value`'s `total_cmp`-based
/// `Eq` in exactly one place — float cells must keep their bit pattern,
/// NaN payloads included.
fn assert_bitwise_eq(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.schema(), b.schema(), "{ctx}: schema");
    assert_eq!(a.len(), b.len(), "{ctx}: row count");
    for (i, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
        for (j, (va, vb)) in ra.iter().zip(rb).enumerate() {
            match (va, vb) {
                (Value::Float(fa), Value::Float(fb)) => assert_eq!(
                    fa.to_bits(),
                    fb.to_bits(),
                    "{ctx}: float bits at row {i} col {j}"
                ),
                _ => assert_eq!(va, vb, "{ctx}: value at row {i} col {j}"),
            }
        }
    }
}

/// Any sheet savable in either format reopens identically from both:
/// schema, rows, query state (computed definitions, grouping, ordering,
/// projections) — and the two decoders agree with each other.
#[test]
fn json_and_binary_round_trips_agree() {
    let mut rng = Rng::seed_from_u64(0xB1_9A17);
    for case in 0..40u64 {
        let sheet = arb_sheet(&mut rng);
        let stored = sheet.save(format!("case-{case}")).expect("save");

        let bin = stored.to_binary().expect("encode binary");
        let from_bin = StoredSheet::from_binary(bin).expect("decode binary");
        assert_eq!(from_bin, stored, "case {case}: binary round trip");
        assert_bitwise_eq(&from_bin.relation, &stored.relation, "binary");

        let json = stored.to_json().expect("encode json");
        let from_json = StoredSheet::from_json(&json).expect("decode json");
        assert_eq!(from_json, stored, "case {case}: json round trip");

        assert_eq!(from_bin, from_json, "case {case}: decoders agree");
        // Both reopen into working spreadsheets with the same view.
        let mut a = Spreadsheet::open(&from_bin).expect("open binary copy");
        let mut b = Spreadsheet::open(&from_json).expect("open json copy");
        assert_eq!(a.view().expect("view"), b.view().expect("view"));
    }
}

/// The values the JSON codec handles specially — NaN/inf floats, 64-bit
/// extremes, quoted/unicode strings, nulls, booleans, mixed-type and
/// all-null columns — survive both formats; the binary format
/// additionally keeps NaN payload bits that JSON canonicalizes.
#[test]
fn special_values_round_trip_bitwise() {
    let weird_nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
    let relation = Relation::with_rows(
        "specials",
        Schema::of(&[
            ("i", ValueType::Int),
            ("f", ValueType::Float),
            ("s", ValueType::Str),
            ("b", ValueType::Bool),
            ("mixed", ValueType::Str),
            ("empty", ValueType::Null),
        ]),
        vec![
            Tuple::new(vec![
                Value::Int(i64::MAX),
                Value::Float(f64::NAN),
                Value::str("it's got 'quotes' and \"doubles\""),
                Value::Bool(true),
                Value::Int(7),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(i64::MIN),
                Value::Float(f64::NEG_INFINITY),
                Value::str("newline\nand\ttab and ünïcödé"),
                Value::Bool(false),
                Value::str("seven"),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Float(-0.0),
                Value::str(""),
                Value::Null,
                Value::Bool(true),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(0),
                Value::Float(f64::INFINITY),
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(-1),
                Value::Float(0.1 + 0.2),
                Value::str("plain"),
                Value::Bool(false),
                Value::Null,
                Value::Null,
            ]),
        ],
    )
    .expect("specials relation");
    let stored = StoredSheet {
        name: "specials".into(),
        relation,
        state: QueryState::new(),
    };

    let from_bin = StoredSheet::from_binary(stored.to_binary().expect("encode")).expect("decode");
    assert_bitwise_eq(&from_bin.relation, &stored.relation, "specials binary");

    let from_json =
        StoredSheet::from_json(&stored.to_json().expect("encode")).expect("decode json");
    assert_bitwise_eq(&from_json.relation, &stored.relation, "specials json");

    // Binary-only guarantee: a NaN with a nonstandard payload keeps its
    // exact bits (JSON's `Display` canonicalizes every NaN to one bit
    // pattern, which `Value`'s total_cmp equality would reject).
    let mut nan_sheet = stored.clone();
    nan_sheet
        .relation
        .set_value(0, "f", Value::Float(weird_nan))
        .expect("set");
    let back = StoredSheet::from_binary(nan_sheet.to_binary().expect("encode")).expect("decode");
    match back.relation.value_at(0, "f").expect("cell") {
        Value::Float(f) => assert_eq!(f.to_bits(), weird_nan.to_bits(), "NaN payload"),
        other => panic!("expected float, got {other:?}"),
    }
}

/// Page-boundary row counts (empty, one, exactly one page, one past).
#[test]
fn page_boundary_row_counts_round_trip() {
    for rows in [0usize, 1, 65_536, 65_537] {
        let relation = Relation::with_rows(
            "pages",
            Schema::of(&[("n", ValueType::Int), ("tag", ValueType::Str)]),
            (0..rows)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i as i64),
                        Value::from(format!("t{}", i % 3)),
                    ])
                })
                .collect(),
        )
        .expect("relation");
        let stored = StoredSheet {
            name: format!("pages-{rows}"),
            relation,
            state: QueryState::new(),
        };
        let back = StoredSheet::from_binary(stored.to_binary().expect("encode")).expect("decode");
        assert_eq!(back, stored, "rows={rows}");
    }
}

/// §12's corruption-fuzzing harness pointed at the new codec: randomized
/// truncation, bit flips, deletions, zeroed ranges and targeted
/// magic/version/checksum damage must yield typed errors, never panics
/// (a panic would abort the test harness here).
#[test]
fn corrupted_binary_images_never_panic() {
    let sheet = arb_sheet(&mut Rng::seed_from_u64(0xC0FFEE));
    let stored = sheet.save("fuzz").expect("save");
    let bytes = stored.to_binary().expect("encode");
    assert!(StoredSheet::from_binary(bytes.clone()).is_ok());

    let mut rng = Rng::seed_from_u64(0x5EED_B17E);
    for case in 0..600u64 {
        let mut mutated = bytes.clone();
        match case % 4 {
            0 => mutated.truncate(rng.gen_range(0..bytes.len())),
            1 => {
                let at = rng.gen_range(0..bytes.len());
                mutated[at] ^= 1 << (rng.gen_range(0..8u64) as u8);
            }
            2 => {
                let at = rng.gen_range(0..bytes.len());
                mutated.remove(at);
            }
            _ => {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..64usize).min(bytes.len() - at);
                for b in &mut mutated[at..at + len] {
                    *b = 0;
                }
            }
        }
        // Every outcome must be a Result — decode eagerly so all chunks
        // and the dictionary are visited.
        let _ = StoredSheet::from_binary(mutated);
    }

    // Targeted damage reports recognizable errors.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    let err = StoredSheet::from_binary(bad_magic).expect_err("bad magic");
    assert!(err.to_string().contains("magic"), "{err}");

    let mut bad_version = bytes.clone();
    bad_version[4] = 99;
    let err = StoredSheet::from_binary(bad_version).expect_err("bad version");
    assert!(err.to_string().contains("version"), "{err}");

    let mut bad_tail = bytes.clone();
    let n = bad_tail.len();
    bad_tail[n - 1] = b'?';
    let err = StoredSheet::from_binary(bad_tail).expect_err("bad tail");
    assert!(err.to_string().contains("truncated"), "{err}");

    // Flip one payload byte far from the head: the frame CRC catches it.
    let mut bad_payload = bytes.clone();
    let mid = bytes.len() / 2;
    bad_payload[mid] ^= 0xFF;
    let err = StoredSheet::from_binary(bad_payload).expect_err("payload flip");
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("binary sheet"),
        "{msg}"
    );
}

/// The tentpole guarantee: opening reads only head/footer/meta, and a
/// query touching a strict subset of columns loads exactly those
/// columns' chunks.
#[test]
fn paged_open_reads_only_touched_columns() {
    let rows = 70_000usize;
    let relation = Relation::with_rows(
        "wide",
        Schema::of(&[
            ("id", ValueType::Int),
            ("price", ValueType::Int),
            ("qty", ValueType::Int),
            ("tag", ValueType::Str),
            ("score", ValueType::Float),
        ]),
        (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::Int((i as i64 * 37) % 10_000),
                    Value::Int((i as i64) % 50),
                    Value::from(format!("tag-{}", i % 11)),
                    Value::Float(i as f64 / 7.0),
                ])
            })
            .collect(),
    )
    .expect("wide relation");
    let stored = StoredSheet {
        name: "wide".into(),
        relation: relation.clone(),
        state: QueryState::new(),
    };
    let path = temp_file("lazy");
    stored.save_path(&path).expect("save");
    let file_len = std::fs::metadata(&path).expect("stat").len();

    let paged = PagedSheet::open(&path).expect("open paged");
    assert_eq!(paged.row_count(), rows);
    assert_eq!(paged.schema().len(), 5);
    assert_eq!(paged.columns_loaded(), 0, "open must not load columns");
    let open_bytes = paged.bytes_read();
    assert!(
        open_bytes * 20 < file_len,
        "open read {open_bytes} of {file_len} bytes — not lazy"
    );

    // Predicate and projection both on `price`: exactly one column loads.
    let pred = Expr::col("price").lt(Expr::lit(500));
    let narrow = paged.scan(Some(&pred), &["price"]).expect("scan");
    assert_eq!(paged.columns_loaded(), 1, "scan touched extra columns");
    let after_scan = paged.bytes_read();
    assert!(
        after_scan * 3 < file_len,
        "1-column scan read {after_scan} of {file_len} bytes"
    );

    // Oracle: the same filter over the eager relation.
    let expected: Vec<i64> = relation
        .rows()
        .iter()
        .filter_map(|t| match t[1] {
            Value::Int(p) if p < 500 => Some(p),
            _ => None,
        })
        .collect();
    assert_eq!(narrow.len(), expected.len());
    for (row, want) in narrow.rows().iter().zip(&expected) {
        assert_eq!(row[0], Value::Int(*want));
    }

    // A scan over different columns loads only what it needs.
    let wide_scan = paged
        .scan(Some(&pred), &["id", "tag", "score"])
        .expect("scan wide");
    assert_eq!(wide_scan.len(), expected.len());
    assert_eq!(paged.columns_loaded(), 4, "qty must stay on disk");

    // Full materialization equals the original sheet.
    let materialized = paged.materialize().expect("materialize");
    assert_eq!(materialized, stored);
    assert_eq!(paged.columns_loaded(), 5);

    // Unknown columns are typed errors, not panics.
    assert!(paged.scan(None, &["nope"]).is_err());

    std::fs::remove_file(&path).ok();
}

/// `save` writes binary by default; `open` auto-detects binary vs the
/// JSON compat format from the leading bytes.
#[test]
fn format_auto_detection_routes_both_codecs() {
    let stored = Spreadsheet::over(spreadsheet_algebra::fixtures::used_cars())
        .save("cars")
        .expect("save");

    let bin_path = temp_file("auto_bin");
    stored.save_path(&bin_path).expect("save binary");
    let head = std::fs::read(&bin_path).expect("read")[..4].to_vec();
    assert_eq!(&head, b"SSAB", "binary is the default format");
    assert_eq!(open_sheet(&bin_path).expect("open binary"), stored);
    assert_eq!(StoredSheet::open_path(&bin_path).expect("open"), stored);

    let json_path = temp_file("auto_json");
    save_sheet_json(&stored, &json_path).expect("save json");
    let head = std::fs::read(&json_path).expect("read")[..1].to_vec();
    assert_eq!(head[0], b'{', "compat path is plain JSON");
    assert_eq!(open_sheet(&json_path).expect("open json"), stored);

    // The lazy reader refuses JSON (no paged representation) with a
    // typed error naming the magic check.
    let err = open_paged(&json_path).expect_err("json is not paged");
    assert!(err.to_string().contains("magic"), "{err}");
    let err = SheetFile::open(&json_path).expect_err("json is not binary");
    assert!(err.to_string().contains("magic"), "{err}");

    std::fs::remove_file(&bin_path).ok();
    std::fs::remove_file(&json_path).ok();
}
