//! Aggregate functions (Def. 11's `f` parameter).
//!
//! Aggregates apply to individual tuples, never to sub-groups: "the result
//! of COUNT is the number of tuples in the group being counted, and not the
//! number of sub-groups" (Sec. III-B). NULLs are ignored by every function
//! except COUNT(*); empty (or all-NULL) inputs yield NULL, except COUNT
//! which yields 0 — SQL semantics, which the PostgreSQL-backed prototype
//! inherited.
//!
//! Every function is computed by one streaming [`Fold`]: the evaluators,
//! the grouping operator and the cache patches that keep an aggregate
//! column current under base edits (Sec. III-B's automatic update) all
//! push values into it, so a streamed value and a fresh evaluation agree.

use crate::error::{RelationError, Result};
use crate::value::Value;
use std::fmt;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of tuples (NULLs included — COUNT(*) semantics).
    Count,
    /// Number of non-NULL values (COUNT(col)).
    CountNonNull,
    /// Number of distinct non-NULL values.
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
    /// Population standard deviation (used by the evaluation harness for
    /// Fig. 4-style reporting over data columns).
    StdDev,
}

impl AggFunc {
    /// All functions, for UI menus and property-test generators.
    pub const ALL: [AggFunc; 8] = [
        AggFunc::Count,
        AggFunc::CountNonNull,
        AggFunc::CountDistinct,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::StdDev,
    ];

    /// The short name used in generated column names (`Avg_Price`),
    /// matching the paper's Table III.
    pub fn short_name(self) -> &'static str {
        match self {
            AggFunc::Count => "Count",
            AggFunc::CountNonNull => "CountNN",
            AggFunc::CountDistinct => "CountD",
            AggFunc::Sum => "Sum",
            AggFunc::Avg => "Avg",
            AggFunc::Min => "Min",
            AggFunc::Max => "Max",
            AggFunc::StdDev => "StdDev",
        }
    }

    /// Whether this function needs numeric input.
    pub fn requires_numeric(self) -> bool {
        matches!(self, AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev)
    }

    /// An empty streaming fold of this function.
    pub fn fold(self) -> Fold {
        Fold(match self {
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountNonNull => Acc::CountNonNull(0),
            AggFunc::CountDistinct => Acc::CountDistinct(Vec::new()),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                float: -0.0,
                all_int: true,
                overflow: false,
                non_null: 0,
            },
            AggFunc::Avg => Acc::Avg {
                sum: -0.0,
                count: 0,
            },
            AggFunc::Min => Acc::Min(Value::Null),
            AggFunc::Max => Acc::Max(Value::Null),
            AggFunc::StdDev => Acc::StdDev(Vec::new()),
        })
    }

    /// Apply the aggregate to the values of one group, in order.
    pub fn apply<'a>(self, values: impl IntoIterator<Item = &'a Value>) -> Result<Value> {
        let mut fold = self.fold();
        for v in values {
            fold.push(v)?;
        }
        fold.value()
    }
}

/// A streaming fold of one aggregate over one group: [`Fold::push`] takes
/// the next input and [`Fold::value`] reads the result so far without
/// consuming the fold. It is the only aggregate implementation, so a value
/// streamed into a cache one row at a time equals a fresh evaluation of
/// the whole group bit for bit, provided the inputs arrive in the same
/// order (float addition is not associative).
#[derive(Debug, Clone)]
pub struct Fold(Acc);

#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    CountNonNull(i64),
    /// The non-NULL inputs, counted distinct when read.
    CountDistinct(Vec<Value>),
    Sum {
        int: i64,
        /// Starts at `-0.0`, the identity of float addition, so the sum
        /// of `[-0.0]` is `-0.0`.
        float: f64,
        all_int: bool,
        /// Integer overflow fails SUM only when *every* input is an
        /// integer, and a later float input switches the group to the
        /// float sum: remember it, and fail at read time.
        overflow: bool,
        non_null: i64,
    },
    Avg {
        sum: f64,
        count: i64,
    },
    Min(Value),
    Max(Value),
    /// The non-NULL inputs as floats; the deviation needs their mean.
    StdDev(Vec<f64>),
}

impl Fold {
    /// Fold in the next value. NULLs count only for COUNT(*); a
    /// non-numeric value fails SUM, AVG and STDDEV.
    #[inline]
    pub fn push(&mut self, v: &Value) -> Result<()> {
        let number = |func: &str| {
            v.as_f64().ok_or_else(|| RelationError::BadAggregate {
                context: format!("{func} on non-numeric value `{v}`"),
            })
        };
        match &mut self.0 {
            // COUNT(*) never reads the value.
            Acc::Count(n) => *n += 1,
            _ if v.is_null() => {}
            Acc::CountNonNull(n) => *n += 1,
            Acc::CountDistinct(seen) => seen.push(*v),
            Acc::Sum {
                int,
                float,
                all_int,
                overflow,
                non_null,
            } => {
                *float += number("SUM")?;
                *non_null += 1;
                match v {
                    Value::Int(i) if *all_int => match int.checked_add(*i) {
                        Some(s) => *int = s,
                        None => *overflow = true,
                    },
                    Value::Int(_) => {}
                    _ => *all_int = false,
                }
            }
            Acc::Avg { sum, count } => {
                *sum += number("AVG")?;
                *count += 1;
            }
            Acc::Min(m) => {
                if m.is_null() || v < m {
                    *m = *v;
                }
            }
            Acc::Max(m) => {
                if m.is_null() || v > m {
                    *m = *v;
                }
            }
            Acc::StdDev(xs) => xs.push(number("STDDEV")?),
        }
        Ok(())
    }

    /// The aggregate of everything pushed so far: NULL for an empty (or
    /// all-NULL) input, except the counts, which give 0.
    pub fn value(&self) -> Result<Value> {
        Ok(match &self.0 {
            Acc::Count(n) | Acc::CountNonNull(n) => Value::Int(*n),
            Acc::CountDistinct(seen) => {
                let mut seen = seen.clone();
                seen.sort_unstable();
                seen.dedup();
                Value::Int(seen.len() as i64)
            }
            Acc::Sum { non_null: 0, .. } | Acc::Avg { count: 0, .. } => Value::Null,
            Acc::Sum {
                overflow: true,
                all_int: true,
                ..
            } => {
                return Err(RelationError::BadAggregate {
                    context: "integer overflow in SUM".into(),
                })
            }
            Acc::Sum {
                int, all_int: true, ..
            } => Value::Int(*int),
            Acc::Sum { float, .. } => Value::Float(*float),
            Acc::Avg { sum, count } => Value::Float(*sum / *count as f64),
            Acc::Min(m) | Acc::Max(m) => *m,
            Acc::StdDev(xs) if xs.is_empty() => Value::Null,
            Acc::StdDev(xs) => {
                let n = xs.len() as f64;
                let mean = xs.iter().sum::<f64>() / n;
                let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
                Value::Float(var.sqrt())
            }
        })
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Parse an aggregate function name, accepting SQL spellings
/// (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`, `STDDEV`, `COUNT_DISTINCT`).
pub fn parse_agg_func(name: &str) -> Result<AggFunc> {
    let up = name.to_ascii_uppercase();
    Ok(match up.as_str() {
        "COUNT" => AggFunc::Count,
        "COUNT_NON_NULL" | "COUNTNN" => AggFunc::CountNonNull,
        "COUNT_DISTINCT" | "COUNTD" => AggFunc::CountDistinct,
        "SUM" => AggFunc::Sum,
        "AVG" | "AVERAGE" => AggFunc::Avg,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        "STDDEV" | "STDEV" => AggFunc::StdDev,
        _ => {
            return Err(RelationError::BadAggregate {
                context: format!("unknown aggregate function `{name}`"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn count_variants() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(AggFunc::Count.apply(&vals).unwrap(), Value::Int(4));
        assert_eq!(AggFunc::CountNonNull.apply(&vals).unwrap(), Value::Int(3));
        assert_eq!(AggFunc::CountDistinct.apply(&vals).unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_preserves_int_typing() {
        assert_eq!(
            AggFunc::Sum.apply(&ints(&[1, 2, 3])).unwrap(),
            Value::Int(6)
        );
        let mixed = vec![Value::Int(1), Value::Float(0.5)];
        assert_eq!(AggFunc::Sum.apply(&mixed).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn avg_matches_paper_table_iii() {
        // Jetta 2005: 14500, 15000, 16000 → 15166.67 (paper rounds to 15,167)
        let avg = AggFunc::Avg.apply(&ints(&[14500, 15000, 16000])).unwrap();
        let Value::Float(f) = avg else {
            panic!("avg must be float")
        };
        assert!((f - 15166.666666).abs() < 1e-3);
        assert_eq!(f.round() as i64, 15167);
    }

    #[test]
    fn min_max_work_on_strings() {
        let vals = vec![Value::str("Jetta"), Value::str("Civic")];
        assert_eq!(AggFunc::Min.apply(&vals).unwrap(), Value::str("Civic"));
        assert_eq!(AggFunc::Max.apply(&vals).unwrap(), Value::str("Jetta"));
    }

    #[test]
    fn empty_and_all_null_inputs() {
        assert_eq!(AggFunc::Count.apply(&[]).unwrap(), Value::Int(0));
        assert_eq!(AggFunc::Sum.apply(&[]).unwrap(), Value::Null);
        assert_eq!(AggFunc::Avg.apply(&[Value::Null]).unwrap(), Value::Null);
        assert_eq!(AggFunc::Min.apply(&[]).unwrap(), Value::Null);
        assert_eq!(AggFunc::StdDev.apply(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn nulls_ignored_by_sum_avg() {
        let vals = vec![Value::Int(2), Value::Null, Value::Int(4)];
        assert_eq!(AggFunc::Sum.apply(&vals).unwrap(), Value::Int(6));
        assert_eq!(AggFunc::Avg.apply(&vals).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn stddev_population() {
        let v = AggFunc::StdDev
            .apply(&ints(&[2, 4, 4, 4, 5, 5, 7, 9]))
            .unwrap();
        let Value::Float(f) = v else { panic!() };
        assert!((f - 2.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_aggregates_reject_strings() {
        let vals = vec![Value::str("a")];
        assert!(AggFunc::Sum.apply(&vals).is_err());
        assert!(AggFunc::Avg.apply(&vals).is_err());
        assert!(AggFunc::StdDev.apply(&vals).is_err());
        // but MIN/MAX/COUNT are fine
        assert!(AggFunc::Min.apply(&vals).is_ok());
        assert!(AggFunc::Count.apply(&vals).is_ok());
    }

    #[test]
    fn sum_overflow_is_error() {
        assert!(AggFunc::Sum.apply(&ints(&[i64::MAX, 1])).is_err());
    }

    #[test]
    fn float_sums_start_at_negative_zero() {
        for func in [AggFunc::Sum, AggFunc::Avg] {
            let v = func.apply(&[Value::Float(-0.0)]).unwrap();
            // Float equality is bitwise (total order): +0.0 would differ.
            assert_eq!(v, Value::Float(-0.0), "{func}");
            assert_ne!(v, Value::Float(0.0), "{func}");
        }
    }

    /// The streaming cache path reads a group's value before and after
    /// every push; reading must not disturb the fold.
    #[test]
    fn reading_a_fold_midway_equals_folding_the_whole_input() {
        let input = vec![
            Value::Int(3),
            Value::Null,
            Value::Float(-0.0),
            Value::Float(0.5),
            Value::Int(3),
            Value::Float(-1.5),
            Value::Null,
            Value::Float(1e300),
        ];
        for func in AggFunc::ALL {
            let mut fold = func.fold();
            for (i, v) in input.iter().enumerate() {
                assert_eq!(
                    fold.value().unwrap(),
                    func.apply(&input[..i]).unwrap(),
                    "{func} after {i} inputs"
                );
                fold.push(v).unwrap();
            }
            assert_eq!(fold.value().unwrap(), func.apply(&input).unwrap(), "{func}");
        }
    }

    #[test]
    fn sum_overflow_is_forgiven_by_a_later_float() {
        let mut fold = AggFunc::Sum.fold();
        fold.push(&Value::Int(i64::MAX)).unwrap();
        fold.push(&Value::Int(1)).unwrap();
        assert!(fold.value().is_err());
        fold.push(&Value::Float(0.5)).unwrap();
        assert_eq!(
            fold.value().unwrap(),
            Value::Float(i64::MAX as f64 + 1.0 + 0.5)
        );
    }

    #[test]
    fn parse_names() {
        assert_eq!(parse_agg_func("avg").unwrap(), AggFunc::Avg);
        assert_eq!(parse_agg_func("COUNT").unwrap(), AggFunc::Count);
        assert_eq!(
            parse_agg_func("count_distinct").unwrap(),
            AggFunc::CountDistinct
        );
        assert!(parse_agg_func("median").is_err());
    }

    #[test]
    fn short_names_match_paper_style() {
        assert_eq!(AggFunc::Avg.short_name(), "Avg");
        // Table III's generated column is "Avg_Price"
        assert_eq!(format!("{}_{}", AggFunc::Avg, "Price"), "Avg_Price");
    }
}
