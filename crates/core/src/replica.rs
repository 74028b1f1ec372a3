//! Replicated operation log: the spreadsheet algebra as an
//! operation-based CRDT.
//!
//! The paper already does most of the work. Query state is an *unordered*
//! set of operator instances (Sec. IV): Theorem 2 says unary operators
//! commute outside explicit non-commutativity points, and Theorem 3 says
//! any modification of a past operator is equivalent to rewriting history
//! and replaying. Those two theorems are exactly the obligations of a
//! convergent replicated log:
//!
//! * every committed mutation becomes an [`OpEvent`] carrying a replica
//!   id, a per-replica sequence number, and a version vector;
//! * replicas exchange events in any order, any number of times;
//! * a replica's sheet is always the **pure function** of its genesis
//!   snapshot and its event *set*, replayed in one canonical total order
//!   — `(version-vector weight, replica id, seq)` — which respects
//!   causality (an event's vector covers everything its author had seen,
//!   so causes always weigh strictly less than effects).
//!
//! Merging is therefore: union the event sets, and reconcile. Three paths,
//! cheapest first:
//!
//! 1. **Fast-forward** — all incoming events sort after the local tail:
//!    apply them in order (replay-from-genesis would do the same).
//! 2. **Direct commute** (Theorem 2) — incoming events are all σ and the
//!    local events they sort *before* are all selection-family and none
//!    were skipped: selections are kept sorted by id
//!    ([`crate::state::QueryState::add_selection_with_id`]), so applying
//!    out of order lands bitwise-identical state.
//! 3. **History rewrite** (Theorem 3) — anything else: restore the
//!    genesis snapshot and replay the whole log in canonical order.
//!
//! An event whose operator fails to apply (e.g. a selection on a column a
//! causally-concurrent event renamed away) is **deterministically
//! skipped**: the failure is a pure function of the replayed state, so
//! every replica skips the same events and still converges. Binary
//! operators (product/join/union/difference) are points of
//! non-commutativity in the paper and are deliberately *not* replicated
//! ops — they seal history, which is what [`Replica::mark_compacted`]
//! models explicitly.
//!
//! [`SheetOp`] is also the one description of an operator instance
//! outside replication (DESIGN.md §19): [`Spreadsheet::apply`], defined
//! here, is the only place an op becomes an operator call, and the
//! history engine, the script host and the tests all build `SheetOp`s.

use crate::error::{Result, SheetError};
use crate::persist::{
    self, agg_func_from_name, expr_from_json, expr_to_json, value_from_json, value_to_json, Json,
};
use crate::sheet::{Spreadsheet, StoredSheet};
use crate::spec::Direction;
use crate::state::QueryState;
use ssa_relation::{AggFunc, Expr, Relation, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Replica ids are packed into the upper bits of selection ids, so they
/// are capped at 16 bits; sequence numbers get the remaining 48.
pub const MAX_REPLICA_ID: u64 = (1 << 16) - 1;
const SEQ_BITS: u64 = 48;
const MAX_SEQ: u64 = (1 << SEQ_BITS) - 1;

fn bad_event(detail: impl std::fmt::Display) -> SheetError {
    SheetError::Persist {
        message: format!("op event: {detail}"),
    }
}

// ---------------------------------------------------------------------------
// Event identity and version vectors
// ---------------------------------------------------------------------------

/// Globally unique identity of one event: which replica created it, and
/// its position in that replica's local sequence (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    pub replica: u64,
    pub seq: u64,
}

impl EventId {
    /// Pack into one u64 — used as the selection id for σ events, so a
    /// selection's id is a pure function of the event that created it
    /// and all replicas agree on it without coordination.
    pub fn packed(self) -> u64 {
        (self.replica << SEQ_BITS) | self.seq
    }
}

/// Map from replica id to the highest sequence number seen from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionVector {
    entries: BTreeMap<u64, u64>,
}

impl VersionVector {
    pub fn new() -> VersionVector {
        VersionVector::default()
    }

    pub fn get(&self, replica: u64) -> u64 {
        self.entries.get(&replica).copied().unwrap_or(0)
    }

    /// Whether this vector claims to have seen `id`.
    pub fn covers(&self, id: EventId) -> bool {
        self.get(id.replica) >= id.seq
    }

    /// Raise the entry for `id.replica` to at least `id.seq`.
    pub fn record(&mut self, id: EventId) {
        let e = self.entries.entry(id.replica).or_insert(0);
        *e = (*e).max(id.seq);
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VersionVector) {
        for (&r, &s) in &other.entries {
            let e = self.entries.entry(r).or_insert(0);
            *e = (*e).max(s);
        }
    }

    /// Pointwise ≥: everything `other` has seen, this vector has too.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        other.entries.iter().all(|(&r, &s)| self.get(r) >= s)
    }

    /// Sum of all entries — the scalar spine of the canonical total
    /// order. Causality is respected because an event's vector covers
    /// its causes' vectors pointwise, and strictly exceeds them at the
    /// author's own entry.
    pub fn weight(&self) -> u64 {
        self.entries.values().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() || self.entries.values().all(|&s| s == 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&r, &s)| (r, s))
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(r, s)| Json::Arr(vec![Json::num(r), Json::num(s)]))
                .collect(),
        )
    }

    pub(crate) fn from_json(j: &Json) -> Result<VersionVector> {
        let mut vv = VersionVector::new();
        for pair in j.arr_value()? {
            let pair = pair.arr_value()?;
            if pair.len() != 2 {
                return Err(bad_event(
                    "version vector entry is not a [replica, seq] pair",
                ));
            }
            let (r, s) = (pair[0].u64_value()?, pair[1].u64_value()?);
            vv.record(EventId { replica: r, seq: s });
        }
        Ok(vv)
    }
}

/// Canonical total-order key of an event: `(vv weight, replica, seq)`.
pub type EventKey = (u64, u64, u64);

// ---------------------------------------------------------------------------
// Replicated operators
// ---------------------------------------------------------------------------

/// One mutation: a base-data delta (Sec. §14's streaming deltas), a
/// unary query-state operator (Sec. III) or a query modification
/// (Sec. V). History records it, replicas exchange it, and
/// [`crate::may_commute`] reasons about it. Binary operators are
/// excluded — they are points of non-commutativity and seal history via
/// compaction instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SheetOp {
    AppendRows {
        rows: Vec<Tuple>,
    },
    DeleteRows {
        ids: Vec<u32>,
    },
    UpdateCell {
        row: u32,
        column: String,
        value: Value,
    },
    Rename {
        from: String,
        to: String,
    },
    /// σ — the new selection's id is the creating event's packed id.
    Select {
        predicate: Expr,
    },
    /// Query modification: swap the predicate of selection `target`.
    ReplaceSelection {
        target: u64,
        predicate: Expr,
    },
    RemoveSelection {
        target: u64,
    },
    /// Extend the grouping basis (relative, like `group_add`).
    Group {
        attributes: Vec<String>,
        direction: Direction,
    },
    Regroup {
        attributes: Vec<String>,
        direction: Direction,
    },
    Ungroup,
    Order {
        attribute: String,
        direction: Direction,
        level: usize,
    },
    ProjectOut {
        column: String,
    },
    Reinstate {
        column: String,
    },
    /// The aggregate's column name is derived deterministically from the
    /// query state at its canonical position, so replicas agree on it.
    Aggregate {
        func: AggFunc,
        column: String,
        level: usize,
    },
    /// θ — with no name, the sheet generates one (`F1`, ...), as
    /// [`Spreadsheet::formula`] does.
    Formula {
        name: Option<String>,
        expr: Expr,
    },
    RemoveComputed {
        name: String,
    },
    Dedup,
}

impl SheetOp {
    /// Short tag used in the wire encoding and in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            SheetOp::AppendRows { .. } => "append",
            SheetOp::DeleteRows { .. } => "delete",
            SheetOp::UpdateCell { .. } => "setcell",
            SheetOp::Rename { .. } => "rename",
            SheetOp::Select { .. } => "select",
            SheetOp::ReplaceSelection { .. } => "replace-selection",
            SheetOp::RemoveSelection { .. } => "remove-selection",
            SheetOp::Group { .. } => "group",
            SheetOp::Regroup { .. } => "regroup",
            SheetOp::Ungroup => "ungroup",
            SheetOp::Order { .. } => "order",
            SheetOp::ProjectOut { .. } => "project-out",
            SheetOp::Reinstate { .. } => "reinstate",
            SheetOp::Aggregate { .. } => "aggregate",
            SheetOp::Formula { .. } => "formula",
            SheetOp::RemoveComputed { .. } => "remove-computed",
            SheetOp::Dedup => "dedup",
        }
    }

    /// Ops that only touch the selection set. This is the Theorem-2
    /// σσ′-commuting family the direct merge path reasons about: none of
    /// them changes the schema, grouping, or base data.
    pub fn is_selection_family(&self) -> bool {
        matches!(
            self,
            SheetOp::Select { .. }
                | SheetOp::ReplaceSelection { .. }
                | SheetOp::RemoveSelection { .. }
        )
    }

    pub(crate) fn to_json(&self) -> Result<Json> {
        let tag = |fields: Vec<(&str, Json)>| {
            let mut all = vec![("t", Json::Str(self.kind().to_string()))];
            all.extend(fields);
            Json::obj(all)
        };
        Ok(match self {
            SheetOp::AppendRows { rows } => tag(vec![(
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|t| Json::Arr(t.values().iter().map(value_to_json).collect()))
                        .collect(),
                ),
            )]),
            SheetOp::DeleteRows { ids } => tag(vec![(
                "ids",
                Json::Arr(ids.iter().map(|&i| Json::num(i)).collect()),
            )]),
            SheetOp::UpdateCell { row, column, value } => tag(vec![
                ("row", Json::num(row)),
                ("col", Json::Str(column.clone())),
                ("value", value_to_json(value)),
            ]),
            SheetOp::Rename { from, to } => tag(vec![
                ("from", Json::Str(from.clone())),
                ("to", Json::Str(to.clone())),
            ]),
            SheetOp::Select { predicate } => tag(vec![("pred", expr_to_json(predicate))]),
            SheetOp::ReplaceSelection { target, predicate } => tag(vec![
                ("target", Json::num(target)),
                ("pred", expr_to_json(predicate)),
            ]),
            SheetOp::RemoveSelection { target } => tag(vec![("target", Json::num(target))]),
            SheetOp::Group {
                attributes,
                direction,
            }
            | SheetOp::Regroup {
                attributes,
                direction,
            } => tag(vec![
                (
                    "attrs",
                    Json::Arr(attributes.iter().map(|a| Json::Str(a.clone())).collect()),
                ),
                ("dir", Json::Str(direction.to_string())),
            ]),
            SheetOp::Ungroup | SheetOp::Dedup => tag(vec![]),
            SheetOp::Order {
                attribute,
                direction,
                level,
            } => tag(vec![
                ("attr", Json::Str(attribute.clone())),
                ("dir", Json::Str(direction.to_string())),
                ("level", Json::num(level)),
            ]),
            SheetOp::ProjectOut { column } | SheetOp::Reinstate { column } => {
                tag(vec![("col", Json::Str(column.clone()))])
            }
            SheetOp::Aggregate {
                func,
                column,
                level,
            } => tag(vec![
                ("func", Json::Str(func.short_name().to_string())),
                ("col", Json::Str(column.clone())),
                ("level", Json::num(level)),
            ]),
            // An unnamed formula omits `name`, so named ones encode as before.
            SheetOp::Formula { name, expr } => tag(name
                .iter()
                .map(|n| ("name", Json::Str(n.clone())))
                .chain([("expr", expr_to_json(expr))])
                .collect()),
            SheetOp::RemoveComputed { name } => tag(vec![("name", Json::Str(name.clone()))]),
        })
    }

    pub(crate) fn from_json(j: &Json) -> Result<SheetOp> {
        let tag = j.field("t")?.str_value()?;
        let s = |key: &str| -> Result<String> { Ok(j.field(key)?.str_value()?.to_string()) };
        let n = |key: &str| -> Result<u64> { j.field(key)?.u64_value() };
        let dir = |key: &str| -> Result<Direction> { parse_direction(j.field(key)?.str_value()?) };
        let attrs = |key: &str| -> Result<Vec<String>> {
            j.field(key)?
                .arr_value()?
                .iter()
                .map(|a| Ok(a.str_value()?.to_string()))
                .collect()
        };
        Ok(match tag {
            "append" => {
                let mut rows = Vec::new();
                for row in j.field("rows")?.arr_value()? {
                    let values: Result<Vec<Value>> =
                        row.arr_value()?.iter().map(value_from_json).collect();
                    rows.push(Tuple::new(values?));
                }
                SheetOp::AppendRows { rows }
            }
            "delete" => {
                let ids: Result<Vec<u32>> = j
                    .field("ids")?
                    .arr_value()?
                    .iter()
                    .map(|i| {
                        u32::try_from(i.u64_value()?).map_err(|_| bad_event("row id overflows u32"))
                    })
                    .collect();
                SheetOp::DeleteRows { ids: ids? }
            }
            "setcell" => SheetOp::UpdateCell {
                row: u32::try_from(n("row")?).map_err(|_| bad_event("row id overflows u32"))?,
                column: s("col")?,
                value: value_from_json(j.field("value")?)?,
            },
            "rename" => SheetOp::Rename {
                from: s("from")?,
                to: s("to")?,
            },
            "select" => SheetOp::Select {
                predicate: expr_from_json(j.field("pred")?)?,
            },
            "replace-selection" => SheetOp::ReplaceSelection {
                target: n("target")?,
                predicate: expr_from_json(j.field("pred")?)?,
            },
            "remove-selection" => SheetOp::RemoveSelection {
                target: n("target")?,
            },
            "group" => SheetOp::Group {
                attributes: attrs("attrs")?,
                direction: dir("dir")?,
            },
            "regroup" => SheetOp::Regroup {
                attributes: attrs("attrs")?,
                direction: dir("dir")?,
            },
            "ungroup" => SheetOp::Ungroup,
            "order" => SheetOp::Order {
                attribute: s("attr")?,
                direction: dir("dir")?,
                level: n("level")? as usize,
            },
            "project-out" => SheetOp::ProjectOut { column: s("col")? },
            "reinstate" => SheetOp::Reinstate { column: s("col")? },
            "aggregate" => SheetOp::Aggregate {
                func: agg_func_from_name(j.field("func")?.str_value()?)?,
                column: s("col")?,
                level: n("level")? as usize,
            },
            "formula" => SheetOp::Formula {
                name: match j.get("name") {
                    Some(name) => Some(name.str_value()?.to_string()),
                    None => None,
                },
                expr: expr_from_json(j.field("expr")?)?,
            },
            "remove-computed" => SheetOp::RemoveComputed { name: s("name")? },
            "dedup" => SheetOp::Dedup,
            other => return Err(bad_event(format!("unknown op tag {other:?}"))),
        })
    }

    /// Parse one textual op command, the grammar of the server's
    /// `/sheets/{name}/ops` endpoint (one command per line):
    ///
    /// ```text
    /// select <expr>                      replace <sel-id> <expr>
    /// unselect <sel-id>                  group <a,b,...> [asc|desc]
    /// regroup <a,b,...> [asc|desc]       ungroup
    /// order <attr> <asc|desc> <level>    hide <col>
    /// show <col>                         agg <func> <col> <level>
    /// formula <name> = <expr>            unformula <name>
    /// dedup                              rename <from> <to>
    /// ```
    pub fn parse_command(line: &str) -> Result<SheetOp> {
        let line = line.trim();
        let (word, rest) = match line.split_once(char::is_whitespace) {
            Some((w, r)) => (w, r.trim()),
            None => (line, ""),
        };
        let bad = |detail: String| SheetError::Persist { message: detail };
        let need = |what: &str| bad(format!("op `{word}` needs {what}"));
        let grouping = |rest: &str| -> Result<(Vec<String>, Direction)> {
            let (attrs, dir) = match rest.rsplit_once(char::is_whitespace) {
                Some((a, d)) if d.eq_ignore_ascii_case("asc") || d.eq_ignore_ascii_case("desc") => {
                    (a.trim(), parse_direction(d)?)
                }
                _ => (rest, Direction::Asc),
            };
            let attrs: Vec<String> = attrs
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if attrs.is_empty() {
                return Err(bad_event("grouping needs at least one attribute"));
            }
            Ok((attrs, dir))
        };
        match word.to_ascii_lowercase().as_str() {
            "select" => Ok(SheetOp::Select {
                predicate: ssa_relation::expr_parse::parse_expr(rest)?,
            }),
            "replace" => {
                let (id, expr) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| need("<sel-id> <expr>"))?;
                Ok(SheetOp::ReplaceSelection {
                    target: id
                        .parse()
                        .map_err(|_| bad(format!("bad selection id {id:?}")))?,
                    predicate: ssa_relation::expr_parse::parse_expr(expr)?,
                })
            }
            "unselect" => Ok(SheetOp::RemoveSelection {
                target: rest
                    .parse()
                    .map_err(|_| bad(format!("bad selection id {rest:?}")))?,
            }),
            "group" => {
                let (attributes, direction) = grouping(rest)?;
                Ok(SheetOp::Group {
                    attributes,
                    direction,
                })
            }
            "regroup" => {
                let (attributes, direction) = grouping(rest)?;
                Ok(SheetOp::Regroup {
                    attributes,
                    direction,
                })
            }
            "ungroup" => Ok(SheetOp::Ungroup),
            "order" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [attr, dir, level] = parts.as_slice() else {
                    return Err(need("<attr> <asc|desc> <level>"));
                };
                Ok(SheetOp::Order {
                    attribute: attr.to_string(),
                    direction: parse_direction(dir)?,
                    level: level
                        .parse()
                        .map_err(|_| bad(format!("bad level {level:?}")))?,
                })
            }
            "hide" => Ok(SheetOp::ProjectOut {
                column: rest.to_string(),
            }),
            "show" => Ok(SheetOp::Reinstate {
                column: rest.to_string(),
            }),
            "agg" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [func, col, level] = parts.as_slice() else {
                    return Err(need("<func> <col> <level>"));
                };
                Ok(SheetOp::Aggregate {
                    func: ssa_relation::agg::parse_agg_func(func)?,
                    column: col.to_string(),
                    level: level
                        .parse()
                        .map_err(|_| bad(format!("bad level {level:?}")))?,
                })
            }
            "formula" => {
                let (name, expr) = rest
                    .split_once('=')
                    .ok_or_else(|| need("<name> = <expr>"))?;
                Ok(SheetOp::Formula {
                    name: Some(name.trim().to_string()),
                    expr: ssa_relation::expr_parse::parse_expr(expr)?,
                })
            }
            "unformula" => Ok(SheetOp::RemoveComputed {
                name: rest.to_string(),
            }),
            "dedup" => Ok(SheetOp::Dedup),
            "rename" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [from, to] = parts.as_slice() else {
                    return Err(need("<from> <to>"));
                };
                Ok(SheetOp::Rename {
                    from: from.to_string(),
                    to: to.to_string(),
                })
            }
            other => Err(bad(format!("unknown op command {other:?}"))),
        }
    }
}

fn parse_direction(s: &str) -> Result<Direction> {
    if s.eq_ignore_ascii_case("asc") {
        Ok(Direction::Asc)
    } else if s.eq_ignore_ascii_case("desc") {
        Ok(Direction::Desc)
    } else {
        Err(bad_event(format!("bad direction {s:?}")))
    }
}

/// What applying one [`SheetOp`] produced besides the new sheet: the
/// value its operator method returns, for the caller's reply and the
/// History line.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// The operator returns nothing to report.
    Done,
    /// σ: the new selection's id.
    Selection(u64),
    /// η and θ: the name of the created column.
    Column(String),
}

impl Applied {
    /// The id a σ produced.
    pub fn selection(self) -> Result<u64> {
        match self {
            Applied::Selection(id) => Ok(id),
            other => Err(not_produced("a selection id", &other)),
        }
    }

    /// The column an η or θ created.
    pub fn column(self) -> Result<String> {
        match self {
            Applied::Column(name) => Ok(name),
            other => Err(not_produced("a column", &other)),
        }
    }
}

fn not_produced(what: &str, applied: &Applied) -> SheetError {
    SheetError::Internal {
        detail: format!("expected the op to produce {what}, got {applied:?}"),
    }
}

impl Spreadsheet {
    /// Apply one operator: the one place where a [`SheetOp`] becomes a
    /// call of an operator method. Errors are the operator's own
    /// (unknown column, bad level, ...), deterministic functions of the
    /// sheet, and leave it as it was.
    pub fn apply(&mut self, op: &SheetOp) -> Result<Applied> {
        self.apply_as(op, None)
    }

    /// [`Self::apply`], except that a σ takes `selection_id` instead of
    /// the sheet's next local id: a replica names each selection after
    /// the event that created it, so that all replicas agree on it.
    pub(crate) fn apply_as(&mut self, op: &SheetOp, selection_id: Option<u64>) -> Result<Applied> {
        fn done<T>(result: Result<T>) -> Result<Applied> {
            result.map(|_| Applied::Done)
        }
        match op {
            SheetOp::AppendRows { rows } => done(self.append_rows(rows.clone())),
            SheetOp::DeleteRows { ids } => done(self.delete_rows(ids)),
            SheetOp::UpdateCell { row, column, value } => {
                done(self.update_cell(*row, column, *value))
            }
            SheetOp::Rename { from, to } => done(self.rename(from, to)),
            SheetOp::Select { predicate } => match selection_id {
                Some(id) => self.select_with_id(id, predicate.clone()),
                None => self.select(predicate.clone()),
            }
            .map(Applied::Selection),
            SheetOp::ReplaceSelection { target, predicate } => {
                done(self.replace_selection(*target, predicate.clone()))
            }
            SheetOp::RemoveSelection { target } => done(self.remove_selection(*target)),
            SheetOp::Group {
                attributes,
                direction,
            } => done(self.group_add(&str_refs(attributes), *direction)),
            SheetOp::Regroup {
                attributes,
                direction,
            } => done(self.regroup(&str_refs(attributes), *direction)),
            SheetOp::Ungroup => done(self.ungroup()),
            SheetOp::Order {
                attribute,
                direction,
                level,
            } => done(self.order(attribute, *direction, *level)),
            SheetOp::ProjectOut { column } => done(self.project_out(column)),
            SheetOp::Reinstate { column } => done(self.reinstate(column)),
            SheetOp::Aggregate {
                func,
                column,
                level,
            } => self.aggregate(*func, column, *level).map(Applied::Column),
            SheetOp::Formula { name, expr } => self
                .formula(name.as_deref(), expr.clone())
                .map(Applied::Column),
            SheetOp::RemoveComputed { name } => done(self.remove_computed(name)),
            SheetOp::Dedup => done(self.dedup()),
        }
    }
}

fn str_refs(strings: &[String]) -> Vec<&str> {
    strings.iter().map(String::as_str).collect()
}

/// A formula must carry its name to be replicated: an unnamed one takes
/// the sheet's next generated name (`F1`, ...) from a counter that
/// replay does not rewind, so replicas could name it differently.
fn check_replicable(op: &SheetOp) -> Result<()> {
    match op {
        SheetOp::Formula { name: None, .. } => Err(bad_event("a replicated formula needs a name")),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One committed mutation, stamped with its origin and causal context.
#[derive(Debug, Clone, PartialEq)]
pub struct OpEvent {
    pub replica: u64,
    pub seq: u64,
    /// Everything the author had seen when committing, *including* this
    /// event itself.
    pub vv: VersionVector,
    pub op: SheetOp,
}

impl OpEvent {
    pub fn id(&self) -> EventId {
        EventId {
            replica: self.replica,
            seq: self.seq,
        }
    }

    /// Canonical total-order key. Causality-respecting: if `a` happened
    /// before `b`, then `b.vv` covers `a.vv` and exceeds it at `b`'s own
    /// entry, so `a.key() < b.key()`. Concurrent events tie-break by
    /// `(replica, seq)`, which every replica computes identically.
    pub fn key(&self) -> EventKey {
        (self.vv.weight(), self.replica, self.seq)
    }

    pub(crate) fn to_json(&self) -> Result<Json> {
        Ok(Json::obj(vec![
            ("replica", Json::num(self.replica)),
            ("seq", Json::num(self.seq)),
            ("vv", self.vv.to_json()),
            ("op", self.op.to_json()?),
        ]))
    }

    pub(crate) fn from_json(j: &Json) -> Result<OpEvent> {
        let event = OpEvent {
            replica: j.field("replica")?.u64_value()?,
            seq: j.field("seq")?.u64_value()?,
            vv: VersionVector::from_json(j.field("vv")?)?,
            op: SheetOp::from_json(j.field("op")?)?,
        };
        if event.replica > MAX_REPLICA_ID || event.seq == 0 || event.seq > MAX_SEQ {
            return Err(bad_event(format!(
                "event identity out of range (replica {}, seq {})",
                event.replica, event.seq
            )));
        }
        if !event.vv.covers(event.id()) {
            return Err(bad_event("event's version vector does not cover itself"));
        }
        Ok(event)
    }

    /// Wire/WAL encoding (one JSON object).
    pub fn encode(&self) -> Result<String> {
        Ok(self.to_json()?.render())
    }

    pub fn decode(text: &str) -> Result<OpEvent> {
        OpEvent::from_json(&Json::parse(text)?)
    }
}

/// Encode a sync exchange payload: the sender's contiguous frontier plus
/// the events it believes the receiver lacks.
pub fn encode_sync(vv: &VersionVector, events: &[OpEvent]) -> Result<String> {
    let events: Result<Vec<Json>> = events.iter().map(OpEvent::to_json).collect();
    Ok(Json::obj(vec![("vv", vv.to_json()), ("events", Json::Arr(events?))]).render())
}

pub fn decode_sync(text: &str) -> Result<(VersionVector, Vec<OpEvent>)> {
    let j = Json::parse(text)?;
    let vv = VersionVector::from_json(j.field("vv")?)?;
    let events: Result<Vec<OpEvent>> = j
        .field("events")?
        .arr_value()?
        .iter()
        .map(OpEvent::from_json)
        .collect();
    Ok((vv, events?))
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// Which reconciliation path a merge took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePath {
    /// Nothing new arrived.
    Empty,
    /// All fresh events sorted after the local tail.
    FastForward,
    /// Theorem 2: fresh σ events commuted directly into place.
    DirectCommute,
    /// Theorem 3: history rewritten and replayed from genesis.
    Rewritten,
}

/// What a merge did, including the events actually adopted (in canonical
/// order) — the durable layer appends exactly these to the WAL.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    pub path: MergePath,
    pub added: Vec<OpEvent>,
    pub duplicates: usize,
    /// Events in the log (old and new) whose operator currently fails to
    /// apply and is deterministically skipped.
    pub skipped: usize,
}

/// One replica of a replicated sheet: a genesis snapshot, the event log
/// in canonical order, and the materialized [`Spreadsheet`] those two
/// determine.
pub struct Replica {
    id: u64,
    sheet: Spreadsheet,
    genesis_base: Arc<Relation>,
    genesis_state: QueryState,
    /// Canonical order (sorted by [`OpEvent::key`]).
    log: Vec<OpEvent>,
    /// Identities of everything in `log` (events may arrive with gaps,
    /// so dedup needs the exact set, not a vector frontier).
    known: BTreeSet<EventId>,
    /// Max sequence seen per replica (may cover gaps).
    seen: VersionVector,
    /// Events at or below this frontier are baked into the genesis
    /// snapshot and no longer replayable.
    compacted_vv: VersionVector,
    frontier: EventKey,
    /// Keys of logged events currently skipped (apply failed).
    skipped: BTreeSet<EventKey>,
}

impl Replica {
    /// A fresh replica over genesis data with an empty query state.
    pub fn new(id: u64, base: Relation) -> Result<Replica> {
        if id > MAX_REPLICA_ID {
            return Err(SheetError::Internal {
                detail: format!("replica id {id} exceeds {MAX_REPLICA_ID}"),
            });
        }
        let sheet = Spreadsheet::over(base);
        let genesis_base = sheet.base_arc();
        let genesis_state = sheet.state().clone();
        Ok(Replica {
            id,
            sheet,
            genesis_base,
            genesis_state,
            log: Vec::new(),
            known: BTreeSet::new(),
            seen: VersionVector::new(),
            compacted_vv: VersionVector::new(),
            frontier: (0, 0, 0),
            skipped: BTreeSet::new(),
        })
    }

    /// Rebuild a replica whose genesis is a compaction snapshot:
    /// `compacted_vv` covers every event baked into `stored`, and
    /// `frontier` is the canonical key of the last such event.
    pub fn recover(
        id: u64,
        stored: &StoredSheet,
        compacted_vv: VersionVector,
        frontier: EventKey,
    ) -> Result<Replica> {
        if id > MAX_REPLICA_ID {
            return Err(SheetError::Internal {
                detail: format!("replica id {id} exceeds {MAX_REPLICA_ID}"),
            });
        }
        let sheet = Spreadsheet::open(stored)?;
        let genesis_base = sheet.base_arc();
        let genesis_state = sheet.state().clone();
        let seen = compacted_vv.clone();
        Ok(Replica {
            id,
            sheet,
            genesis_base,
            genesis_state,
            log: Vec::new(),
            known: BTreeSet::new(),
            seen,
            compacted_vv,
            frontier,
            skipped: BTreeSet::new(),
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The materialized sheet (always equal to replaying `log` over the
    /// genesis snapshot).
    pub fn sheet(&self) -> &Spreadsheet {
        &self.sheet
    }

    /// Evaluate the sheet's current view (delegates to
    /// [`Spreadsheet::view`]; needs `&mut` for the evaluation cache).
    pub fn view(&mut self) -> Result<&crate::eval::Derived> {
        self.sheet.view()
    }

    pub fn log(&self) -> &[OpEvent] {
        &self.log
    }

    pub fn compacted_vv(&self) -> &VersionVector {
        &self.compacted_vv
    }

    pub fn frontier(&self) -> EventKey {
        self.frontier
    }

    pub fn skipped_count(&self) -> usize {
        self.skipped.len()
    }

    /// Per-replica *contiguous* frontier: for each replica, the largest
    /// `n` such that every event `1..=n` is held (counting compacted
    /// history). This — not `seen`, which may cover gaps — is what a
    /// peer may safely use to decide which events we lack.
    pub fn frontier_vv(&self) -> VersionVector {
        let mut vv = self.compacted_vv.clone();
        // Walk each replica's held sequence numbers upward from the
        // compacted bound; BTreeSet iteration gives them in order.
        for id in &self.known {
            if id.seq == vv.get(id.replica) + 1 {
                vv.record(*id);
            }
        }
        vv
    }

    /// Commit a local mutation: apply it to the sheet (errors propagate
    /// and no event is recorded), then log the event. The event's vector
    /// is everything this replica has seen, so it sorts after the entire
    /// current log.
    pub fn commit(&mut self, op: SheetOp) -> Result<OpEvent> {
        check_replicable(&op)?;
        let seq = self.seen.get(self.id) + 1;
        if seq > MAX_SEQ {
            return Err(SheetError::Internal {
                detail: format!("replica {} exhausted its sequence space", self.id),
            });
        }
        let id = EventId {
            replica: self.id,
            seq,
        };
        let mut vv = self.seen.clone();
        vv.record(id);
        let event = OpEvent {
            replica: self.id,
            seq,
            vv,
            op,
        };
        self.sheet.apply_as(&event.op, Some(id.packed()))?;
        self.adopt(event.clone());
        Ok(event)
    }

    /// Remove the most recent *local* commit (durable-layer rollback when
    /// the WAL append fails after the in-memory apply). Rebuilds by
    /// replay, so the error path stays simple and obviously correct.
    pub fn rollback_last(&mut self) -> Result<()> {
        let Some(pos) = self
            .log
            .iter()
            .rposition(|e| e.replica == self.id && e.seq == self.seen.get(self.id))
        else {
            return Err(SheetError::Internal {
                detail: "rollback_last: no local event to roll back".to_string(),
            });
        };
        let event = self.log.remove(pos);
        self.known.remove(&event.id());
        self.seen = self.recompute_seen();
        self.replay()
    }

    /// Drop a set of previously adopted events (durable-layer rollback
    /// when persisting a merge fails partway) and replay.
    pub fn retract(&mut self, ids: &[EventId]) -> Result<()> {
        let drop: BTreeSet<EventId> = ids.iter().copied().collect();
        self.log.retain(|e| !drop.contains(&e.id()));
        for id in &drop {
            self.known.remove(id);
        }
        self.seen = self.recompute_seen();
        self.replay()
    }

    fn recompute_seen(&self) -> VersionVector {
        let mut vv = self.compacted_vv.clone();
        for id in &self.known {
            vv.record(*id);
        }
        vv
    }

    /// Record an event as held: log (canonical position), identity set,
    /// seen-vector. Does not touch the sheet.
    fn adopt(&mut self, event: OpEvent) {
        self.known.insert(event.id());
        self.seen.record(event.id());
        let key = event.key();
        let pos = self.log.partition_point(|e| e.key() < key);
        self.log.insert(pos, event);
    }

    /// The events a peer with contiguous frontier `peer_vv` is missing.
    /// Errors with [`SheetError::BehindCompaction`] when some of those
    /// events are already baked into our genesis snapshot — the peer
    /// must re-seed from a snapshot instead.
    pub fn events_since(&self, peer_vv: &VersionVector) -> Result<Vec<OpEvent>> {
        if !peer_vv.dominates(&self.compacted_vv) {
            return Err(SheetError::BehindCompaction {
                detail: format!(
                    "peer frontier {:?} predates this replica's compaction {:?}",
                    peer_vv.iter().collect::<Vec<_>>(),
                    self.compacted_vv.iter().collect::<Vec<_>>(),
                ),
            });
        }
        Ok(self
            .log
            .iter()
            .filter(|e| !peer_vv.covers(e.id()))
            .cloned()
            .collect())
    }

    /// Merge a batch of events from a peer. Idempotent (duplicates are
    /// dropped by identity) and order-insensitive: whatever order batches
    /// arrive in, replicas holding the same event set hold bitwise-equal
    /// sheets.
    pub fn merge(&mut self, incoming: &[OpEvent]) -> Result<MergeOutcome> {
        ssa_relation::fault_check!("sync.merge");
        let mut duplicates = 0;
        let mut fresh: Vec<OpEvent> = Vec::new();
        let mut fresh_ids: BTreeSet<EventId> = BTreeSet::new();
        for event in incoming {
            let id = event.id();
            if event.replica > MAX_REPLICA_ID || event.seq == 0 || !event.vv.covers(id) {
                return Err(bad_event(format!(
                    "malformed event from replica {} seq {}",
                    event.replica, event.seq
                )));
            }
            check_replicable(&event.op)?;
            if self.known.contains(&id) || self.compacted_vv.covers(id) || fresh_ids.contains(&id) {
                duplicates += 1;
                continue;
            }
            if event.key() <= self.frontier {
                return Err(SheetError::BehindCompaction {
                    detail: format!(
                        "event (replica {}, seq {}) sorts at or before the compaction frontier",
                        event.replica, event.seq
                    ),
                });
            }
            fresh_ids.insert(id);
            fresh.push(event.clone());
        }
        if fresh.is_empty() {
            return Ok(MergeOutcome {
                path: MergePath::Empty,
                added: fresh,
                duplicates,
                skipped: self.skipped.len(),
            });
        }
        fresh.sort_by_key(OpEvent::key);

        let tail = self.log.last().map(OpEvent::key);
        let path = if tail.is_none_or(|t| fresh[0].key() > t) {
            // Fast-forward: appending in canonical order is exactly what
            // a replay from genesis would do.
            for event in &fresh {
                self.apply_live(event);
            }
            MergePath::FastForward
        } else if self.commutes_directly(&fresh) {
            // Theorem 2: σ commutes with the selection-family suffix it
            // logically precedes; sorted-by-id selection storage makes
            // the out-of-order application bitwise identical.
            for event in &fresh {
                self.apply_live(event);
            }
            MergePath::DirectCommute
        } else {
            // Theorem 3: rewrite history — adopt everything, replay all.
            for event in &fresh {
                self.adopt(event.clone());
            }
            self.replay()?;
            MergePath::Rewritten
        };
        Ok(MergeOutcome {
            path,
            added: fresh,
            duplicates,
            skipped: self.skipped.len(),
        })
    }

    /// Whether `fresh` (canonically sorted, known non-empty) may be
    /// applied directly to the live sheet: every fresh event is a pure σ
    /// insertion, and every logged event sorting after the earliest
    /// insertion point is selection-family and not currently skipped.
    /// (A skipped event could be un-skipped by what we insert before it
    /// — e.g. a ReplaceSelection waiting for its target σ — which only a
    /// replay would notice.)
    fn commutes_directly(&self, fresh: &[OpEvent]) -> bool {
        if !fresh.iter().all(|e| matches!(e.op, SheetOp::Select { .. })) {
            return false;
        }
        let min_key = fresh[0].key();
        self.log
            .iter()
            .rev()
            .take_while(|e| e.key() > min_key)
            .all(|e| e.op.is_selection_family() && !self.skipped.contains(&e.key()))
    }

    /// Adopt and apply one event to the live sheet, recording a
    /// deterministic skip when its operator fails.
    fn apply_live(&mut self, event: &OpEvent) {
        if self
            .sheet
            .apply_as(&event.op, Some(event.id().packed()))
            .is_err()
        {
            self.skipped.insert(event.key());
        }
        self.adopt(event.clone());
    }

    /// Rebuild the sheet as the pure function of (genesis, log): restore
    /// the genesis snapshot and apply the log in canonical order,
    /// re-deciding every skip.
    fn replay(&mut self) -> Result<()> {
        let name = self.sheet.name().to_string();
        self.sheet.restore(
            Arc::clone(&self.genesis_base),
            self.genesis_state.clone(),
            0,
            0,
        );
        self.sheet.set_name(name);
        self.skipped.clear();
        let log = std::mem::take(&mut self.log);
        for event in &log {
            if self
                .sheet
                .apply_as(&event.op, Some(event.id().packed()))
                .is_err()
            {
                self.skipped.insert(event.key());
            }
        }
        self.log = log;
        Ok(())
    }

    /// Raw durability snapshot of the current sheet (see
    /// [`Spreadsheet::freeze_raw`]).
    pub fn freeze_raw(&self) -> StoredSheet {
        self.sheet.freeze_raw()
    }

    /// Whether the log is gap-free, i.e. the contiguous frontier covers
    /// everything held. Compaction requires this: a baked-in gap could
    /// never be filled afterwards.
    pub fn can_compact(&self) -> bool {
        let frontier = self.frontier_vv();
        self.known.iter().all(|id| frontier.covers(*id))
    }

    /// Seal current history into the genesis snapshot: the live sheet
    /// becomes genesis, the log empties, and events at or before the new
    /// frontier are no longer accepted. The caller persists the snapshot
    /// *before* calling this (see the durable layer).
    pub fn mark_compacted(&mut self) -> Result<()> {
        if !self.can_compact() {
            return Err(SheetError::BehindCompaction {
                detail: "log has causal gaps; fill them before compacting".to_string(),
            });
        }
        if let Some(last) = self.log.last() {
            self.frontier = last.key();
        }
        self.genesis_base = self.sheet.base_arc();
        self.genesis_state = self.sheet.state().clone();
        self.compacted_vv = self.frontier_vv();
        self.seen = self.compacted_vv.clone();
        self.log.clear();
        self.known.clear();
        self.skipped.clear();
        Ok(())
    }

    /// Canonical content fingerprint: the rendered JSON of base data and
    /// query state. Converged replicas match byte for byte (epoch and
    /// version counters are bookkeeping, not content, and are excluded).
    pub fn fingerprint(&self) -> String {
        let stored = self.sheet.freeze_raw();
        Json::obj(vec![
            ("base", persist::relation_to_json(&stored.relation)),
            ("state", persist::state_to_json(&stored.state)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_relation::schema::Schema;
    use ssa_relation::ValueType::{Int, Str};

    fn base() -> Relation {
        let rows = (0..6)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "ann arbor" } else { "detroit" }),
                    Value::Int(100 * i),
                ])
            })
            .collect();
        Relation::with_rows(
            "cars",
            Schema::of(&[("id", Int), ("city", Str), ("price", Int)]),
            rows,
        )
        .expect("fixture")
    }

    #[test]
    fn packed_event_ids_are_unique_and_ordered_per_replica() {
        let a = EventId { replica: 1, seq: 7 };
        let b = EventId { replica: 2, seq: 1 };
        assert_ne!(a.packed(), b.packed());
        assert!(EventId { replica: 1, seq: 8 }.packed() > a.packed());
    }

    #[test]
    fn ops_round_trip_through_json() {
        let ops = vec![
            SheetOp::AppendRows {
                rows: vec![Tuple::new(vec![
                    Value::Int(9),
                    Value::str("x"),
                    Value::Null,
                ])],
            },
            SheetOp::DeleteRows { ids: vec![1, 3] },
            SheetOp::UpdateCell {
                row: 2,
                column: "price".into(),
                value: Value::Int(42),
            },
            SheetOp::Rename {
                from: "price".into(),
                to: "cost".into(),
            },
            SheetOp::Select {
                predicate: Expr::col("price").gt(Expr::lit(100)),
            },
            SheetOp::ReplaceSelection {
                target: 7,
                predicate: Expr::col("price").lt(Expr::lit(10)),
            },
            SheetOp::RemoveSelection { target: 7 },
            SheetOp::Group {
                attributes: vec!["city".into()],
                direction: Direction::Desc,
            },
            SheetOp::Regroup {
                attributes: vec!["city".into(), "id".into()],
                direction: Direction::Asc,
            },
            SheetOp::Ungroup,
            SheetOp::Order {
                attribute: "price".into(),
                direction: Direction::Desc,
                level: 1,
            },
            SheetOp::ProjectOut {
                column: "id".into(),
            },
            SheetOp::Reinstate {
                column: "id".into(),
            },
            SheetOp::Aggregate {
                func: AggFunc::Avg,
                column: "price".into(),
                level: 1,
            },
            SheetOp::Formula {
                name: Some("double".into()),
                expr: Expr::col("price").mul(Expr::lit(2)),
            },
            SheetOp::Formula {
                name: None,
                expr: Expr::col("price").mul(Expr::lit(3)),
            },
            SheetOp::RemoveComputed {
                name: "double".into(),
            },
            SheetOp::Dedup,
        ];
        for op in ops {
            let event = OpEvent {
                replica: 3,
                seq: 5,
                vv: {
                    let mut vv = VersionVector::new();
                    vv.record(EventId { replica: 3, seq: 5 });
                    vv.record(EventId { replica: 1, seq: 2 });
                    vv
                },
                op: op.clone(),
            };
            let text = event.encode().expect("encode");
            let back = OpEvent::decode(&text).expect("decode");
            assert_eq!(back.op, op, "round trip for {}", op.kind());
            assert_eq!(back.key(), event.key());
        }
    }

    #[test]
    fn formula_frames_carry_a_name_only_when_given() {
        let expr = Expr::col("price").mul(Expr::lit(2));
        let named = SheetOp::Formula {
            name: Some("double".into()),
            expr: expr.clone(),
        };
        let text = named.to_json().expect("encode").render();
        // Named frames keep the layout older logs were written with.
        assert!(
            text.starts_with(r#"{"t":"formula","name":"double","expr":"#),
            "{text}"
        );
        let unnamed = text.replace(r#""name":"double","#, "");
        let back = SheetOp::from_json(&Json::parse(&unnamed).expect("parse")).expect("decode");
        assert_eq!(back, SheetOp::Formula { name: None, expr });
    }

    #[test]
    fn parse_command_covers_the_grammar() {
        for (line, kind) in [
            ("select price > 100", "select"),
            ("replace 7 price < 10", "replace-selection"),
            ("unselect 7", "remove-selection"),
            ("group city desc", "group"),
            ("regroup city,id", "regroup"),
            ("ungroup", "ungroup"),
            ("order price desc 1", "order"),
            ("hide id", "project-out"),
            ("show id", "reinstate"),
            ("agg avg price 1", "aggregate"),
            ("formula double = price * 2", "formula"),
            ("unformula double", "remove-computed"),
            ("dedup", "dedup"),
            ("rename price cost", "rename"),
        ] {
            let op = SheetOp::parse_command(line).expect(line);
            assert_eq!(op.kind(), kind, "{line}");
        }
        assert!(SheetOp::parse_command("frobnicate 1").is_err());
    }

    #[test]
    fn commit_then_merge_fast_forwards_and_converges() {
        let mut a = Replica::new(1, base()).expect("a");
        let mut b = Replica::new(2, base()).expect("b");
        a.commit(SheetOp::Select {
            predicate: Expr::col("price").gt(Expr::lit(0)),
        })
        .expect("commit");
        a.commit(SheetOp::AppendRows {
            rows: vec![Tuple::new(vec![
                Value::Int(100),
                Value::str("ypsilanti"),
                Value::Int(1),
            ])],
        })
        .expect("commit");
        let events = a.events_since(&b.frontier_vv()).expect("events");
        assert_eq!(events.len(), 2);
        let outcome = b.merge(&events).expect("merge");
        assert_eq!(outcome.path, MergePath::FastForward);
        assert_eq!(outcome.added.len(), 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Idempotent redelivery.
        let outcome = b.merge(&events).expect("remerge");
        assert_eq!(outcome.path, MergePath::Empty);
        assert_eq!(outcome.duplicates, 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn unnamed_formulas_are_not_replicated() {
        // Its generated name would come from a per-sheet counter that a
        // history rewrite does not rewind: replica 2 would replay it as
        // `F2` after merging replica 1's earlier-sorting event, while
        // replica 1 fast-forwards it as `F1`.
        let unnamed = SheetOp::Formula {
            name: None,
            expr: Expr::col("price").mul(Expr::lit(2)),
        };
        let mut a = Replica::new(2, base()).expect("a");
        assert!(a.commit(unnamed.clone()).is_err());
        assert!(a.log().is_empty());
        let mut vv = VersionVector::new();
        vv.record(EventId { replica: 1, seq: 1 });
        let event = OpEvent {
            replica: 1,
            seq: 1,
            vv,
            op: unnamed,
        };
        assert!(a.merge(&[event]).is_err());
        assert!(a.sheet().state().computed.is_empty());
    }

    #[test]
    fn concurrent_selects_take_the_direct_commute_path() {
        let mut a = Replica::new(1, base()).expect("a");
        let mut b = Replica::new(2, base()).expect("b");
        // Concurrent σs: same weight, a's sorts first by replica id.
        b.commit(SheetOp::Select {
            predicate: Expr::col("city").eq(Expr::lit("detroit")),
        })
        .expect("b select");
        let from_a = {
            a.commit(SheetOp::Select {
                predicate: Expr::col("price").gt(Expr::lit(100)),
            })
            .expect("a select");
            a.events_since(&VersionVector::new()).expect("events")
        };
        // a's event sorts before b's logged tail → not a fast-forward.
        let outcome = b.merge(&from_a).expect("merge");
        assert_eq!(outcome.path, MergePath::DirectCommute);
        let from_b = b.events_since(&a.frontier_vv()).expect("events");
        a.merge(&from_b).expect("merge back");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Oracle: a single site applying the union in canonical order.
        let mut oracle = Replica::new(9, base()).expect("oracle");
        let mut all = b.log().to_vec();
        all.sort_by_key(OpEvent::key);
        oracle.merge(&all).expect("oracle merge");
        assert_eq!(oracle.fingerprint(), b.fingerprint());
    }

    #[test]
    fn non_commuting_pairs_rewrite_history_per_theorem_3() {
        let mut a = Replica::new(1, base()).expect("a");
        let mut b = Replica::new(2, base()).expect("b");
        a.commit(SheetOp::Rename {
            from: "price".into(),
            to: "cost".into(),
        })
        .expect("a rename");
        b.commit(SheetOp::Select {
            predicate: Expr::col("price").gt(Expr::lit(100)),
        })
        .expect("b select");
        b.commit(SheetOp::Group {
            attributes: vec!["city".into()],
            direction: Direction::Asc,
        })
        .expect("b group");
        let from_a = a.events_since(&VersionVector::new()).expect("ev");
        let outcome = b.merge(&from_a).expect("merge");
        assert_eq!(outcome.path, MergePath::Rewritten);
        let from_b = b.events_since(&a.frontier_vv()).expect("ev");
        a.merge(&from_b).expect("merge");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // The select referenced `price`, renamed concurrently before it
        // in canonical order (rename has equal weight, lower replica id);
        // both replicas deterministically skip it.
        assert_eq!(a.skipped_count(), b.skipped_count());
    }

    #[test]
    fn compaction_seals_history_and_rejects_stale_events() {
        let mut a = Replica::new(1, base()).expect("a");
        let mut b = Replica::new(2, base()).expect("b");
        b.commit(SheetOp::Select {
            predicate: Expr::col("price").gt(Expr::lit(0)),
        })
        .expect("b select");
        let stale = b.events_since(&VersionVector::new()).expect("ev");
        a.commit(SheetOp::Dedup).expect("a dedup");
        a.commit(SheetOp::Ungroup).expect("a ungroup");
        a.mark_compacted().expect("compact");
        assert!(a.log().is_empty());
        // b's concurrent event (weight 1) now sorts below a's frontier
        // (weight 2): its canonical position is inside sealed history.
        let err = a.merge(&stale).expect_err("stale merge");
        assert!(matches!(err, SheetError::BehindCompaction { .. }), "{err}");
        // And a can no longer serve a peer from before the compaction.
        let err = a.events_since(&VersionVector::new()).expect_err("since");
        assert!(matches!(err, SheetError::BehindCompaction { .. }), "{err}");
        // But new events on top of the compacted snapshot still flow.
        a.commit(SheetOp::Select {
            predicate: Expr::col("price").lt(Expr::lit(1000)),
        })
        .expect("post-compaction commit");
    }

    #[test]
    fn rollback_last_undoes_a_local_commit() {
        let mut a = Replica::new(1, base()).expect("a");
        let before = a.fingerprint();
        a.commit(SheetOp::Select {
            predicate: Expr::col("price").gt(Expr::lit(100)),
        })
        .expect("commit");
        assert_ne!(a.fingerprint(), before);
        a.rollback_last().expect("rollback");
        assert_eq!(a.fingerprint(), before);
        assert!(a.log().is_empty());
        // The sequence number is reusable: no gap is left behind.
        let e = a.commit(SheetOp::Dedup).expect("recommit");
        assert_eq!(e.seq, 1);
    }
}
