//! Minimal CSV reader/writer for loading datasets into relations.
//!
//! Supports quoted fields (RFC-4180 style double quotes with `""` escapes),
//! type inference per column (the most specific type that fits every
//! non-empty field), and round-tripping. Good enough for the used-car
//! sample data and generated TPC-H tables; deliberately not a general CSV
//! library.

use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::rows::Rows;
use crate::schema::{Column, Schema};
use crate::value::{Value, ValueType};

/// Split one CSV line into raw fields, honouring quotes. Public so
/// wire-format parsers (the HTTP server's row bodies) can reuse the
/// exact quoting rules of this module instead of approximating them.
pub fn split_line(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(RelationError::Csv {
                            line: line_no,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                }
                ',' => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(RelationError::Csv {
            line: line_no,
            message: "unterminated quoted field".into(),
        });
    }
    fields.push(cur);
    Ok(fields)
}

/// Parse CSV text (first row = header) into a relation with inferred
/// column types. Delegates to the streaming reader path.
pub fn parse_csv(name: &str, text: &str) -> Result<Relation> {
    parse_csv_reader(name, text.as_bytes())
}

/// Parse CSV from any buffered reader, one line at a time — the input is
/// never materialized as a whole `String`, so import memory tracks the
/// parsed rows (which become the relation) plus one line buffer.
///
/// Values are parsed into typed cells as lines arrive; the single
/// retroactive pass at EOF unifies column types (mixed numeric/string
/// columns degrade to strings, int/float widen to float) exactly as the
/// in-memory parser always has.
pub fn parse_csv_reader<R: std::io::BufRead>(name: &str, reader: R) -> Result<Relation> {
    let io_err = |line: usize, e: std::io::Error| RelationError::Csv {
        line,
        message: format!("read failed: {e}"),
    };
    let mut lines = reader.lines().enumerate();
    // Header: first non-blank line. Line numbers are 1-based over the
    // raw input, blank lines included, matching the string parser.
    let (hno, header) = loop {
        match lines.next() {
            None => {
                return Err(RelationError::Csv {
                    line: 0,
                    message: "empty input".into(),
                })
            }
            Some((lno, line)) => {
                let line = line.map_err(|e| io_err(lno + 1, e))?;
                if !line.trim().is_empty() {
                    break (lno, line);
                }
            }
        }
    };
    let names = split_line(&header, hno + 1)?;
    let mut rows = Rows::new(names.len());
    // Running column types, unified as rows stream in; columns whose
    // values need a retroactive rewrite (to Str or Float) are flagged so
    // the EOF pass only touches columns that actually changed type.
    let mut types = vec![ValueType::Null; names.len()];
    for (lno, line) in lines {
        let line = line.map_err(|e| io_err(lno + 1, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(&line, lno + 1)?;
        if fields.len() != names.len() {
            return Err(RelationError::Csv {
                line: lno + 1,
                message: format!("expected {} fields, found {}", names.len(), fields.len()),
            });
        }
        rows.push_values(fields.iter().zip(&mut types).map(|(f, ty)| {
            let v = Value::infer_parse(f);
            *ty = ty.unify(v.value_type());
            v
        }));
    }
    for row in rows.iter_mut() {
        for (i, v) in row.iter_mut().enumerate() {
            if types[i] == ValueType::Str && !matches!(v, Value::Str(_) | Value::Null) {
                *v = Value::from(v.to_string());
            } else if types[i] == ValueType::Float {
                if let Value::Int(n) = v {
                    *v = Value::Float(*n as f64);
                }
            }
        }
    }
    let schema = Schema::new(
        names
            .iter()
            .zip(&types)
            .map(|(n, t)| Column::new(n.clone(), *t))
            .collect(),
    )?;
    Relation::from_rows(name, schema, rows)
}

/// Load a CSV file through the streaming reader: the file is read in
/// `BufReader`-sized chunks, never held in memory whole.
pub fn load_csv_path(name: &str, path: impl AsRef<std::path::Path>) -> Result<Relation> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| RelationError::Csv {
        line: 0,
        message: format!("open {} failed: {e}", path.display()),
    })?;
    parse_csv_reader(name, std::io::BufReader::new(file))
}

/// Serialize a relation to CSV text (header + rows).
pub fn to_csv(rel: &Relation) -> String {
    fn escape(field: &str) -> String {
        if field.contains(',') || field.contains('"') || field.contains('\n') {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }
    let mut out = String::new();
    let names: Vec<String> = rel.schema().names().iter().map(|n| escape(n)).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for t in rel.rows() {
        let fields: Vec<String> = t.iter().map(|v| escape(&v.to_string())).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CARS: &str = "\
ID,Model,Price,Year
304,Jetta,14500,2005
872,Jetta,15000,2005
132,Civic,13500,2005
";

    #[test]
    fn parses_typed_columns() {
        let r = parse_csv("cars", CARS).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema().column("ID").unwrap().ty, ValueType::Int);
        assert_eq!(r.schema().column("Model").unwrap().ty, ValueType::Str);
        assert_eq!(r.value_at(0, "Price").unwrap(), &Value::Int(14500));
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let text = "name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n";
        let r = parse_csv("t", text).unwrap();
        assert_eq!(r.value_at(0, "name").unwrap(), &Value::str("Smith, John"));
        assert_eq!(r.value_at(0, "notes").unwrap(), &Value::str("said \"hi\""));
    }

    #[test]
    fn mixed_column_degrades_to_string() {
        let text = "x\n1\nabc\n";
        let r = parse_csv("t", text).unwrap();
        assert_eq!(r.schema().column("x").unwrap().ty, ValueType::Str);
        assert_eq!(r.value_at(0, "x").unwrap(), &Value::str("1"));
    }

    #[test]
    fn int_and_float_widen_to_float() {
        let text = "x\n1\n2.5\n";
        let r = parse_csv("t", text).unwrap();
        assert_eq!(r.schema().column("x").unwrap().ty, ValueType::Float);
        assert_eq!(r.value_at(0, "x").unwrap(), &Value::Float(1.0));
    }

    #[test]
    fn empty_fields_are_null() {
        let text = "x,y\n1,\n,2\n";
        let r = parse_csv("t", text).unwrap();
        assert_eq!(r.value_at(0, "y").unwrap(), &Value::Null);
        assert_eq!(r.value_at(1, "x").unwrap(), &Value::Null);
        // column types come from the non-null values
        assert_eq!(r.schema().column("x").unwrap().ty, ValueType::Int);
    }

    #[test]
    fn ragged_rows_rejected() {
        let text = "x,y\n1\n";
        assert!(matches!(
            parse_csv("t", text),
            Err(RelationError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse_csv("t", "x\n\"abc\n").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_csv("t", "").is_err());
        assert!(parse_csv("t", "\n\n").is_err());
    }

    #[test]
    fn round_trip() {
        let r = parse_csv("cars", CARS).unwrap();
        let text = to_csv(&r);
        let r2 = parse_csv("cars", &text).unwrap();
        assert!(r.multiset_eq(&r2));
    }

    /// A reader that hands out the input a few bytes at a time, so the
    /// streaming path is exercised across chunk boundaries.
    struct Trickle<'a> {
        rest: &'a [u8],
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.rest.len().min(buf.len()).min(3);
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn streaming_reader_matches_string_parser() {
        let text = "x,y,note\n1,2.5,\"a,b\"\n\n3,4,plain\n,5.5,\"q\"\"q\"\n";
        let eager = parse_csv("t", text).unwrap();
        let streamed = parse_csv_reader(
            "t",
            std::io::BufReader::with_capacity(
                4,
                Trickle {
                    rest: text.as_bytes(),
                },
            ),
        )
        .unwrap();
        assert_eq!(eager, streamed);
        assert_eq!(streamed.schema().column("x").unwrap().ty, ValueType::Int);
        assert_eq!(streamed.schema().column("y").unwrap().ty, ValueType::Float);
    }

    #[test]
    fn streaming_reader_reports_line_numbers() {
        let text = "x,y\n1,2\n3\n";
        assert!(matches!(
            parse_csv_reader("t", text.as_bytes()),
            Err(RelationError::Csv { line: 3, .. })
        ));
    }

    #[test]
    fn load_csv_path_streams_from_disk() {
        let path = std::env::temp_dir().join(format!("ssa_csv_stream_{}.csv", std::process::id()));
        std::fs::write(&path, CARS).unwrap();
        let from_disk = load_csv_path("cars", &path).unwrap();
        std::fs::remove_file(&path).ok();
        let from_text = parse_csv("cars", CARS).unwrap();
        assert_eq!(from_disk, from_text);
        assert!(load_csv_path("cars", "/nonexistent/nope.csv").is_err());
    }

    #[test]
    fn round_trip_with_commas_in_values() {
        let text = "name\n\"a,b\"\n";
        let r = parse_csv("t", text).unwrap();
        let r2 = parse_csv("t", &to_csv(&r)).unwrap();
        assert!(r.multiset_eq(&r2));
    }
}
