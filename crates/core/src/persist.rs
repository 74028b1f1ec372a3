//! Hand-rolled JSON persistence for [`StoredSheet`](crate::sheet::StoredSheet).
//!
//! The workspace builds with no registry access, so this module replaces
//! serde/serde_json with a small JSON encoder/decoder tailored to exactly
//! the types a saved sheet contains. Every encoding is lossless:
//! * `Value::Int` is written as a decimal string (`{"i":"42"}`) so 64-bit
//!   integers never pass through an f64;
//! * `Value::Float` uses Rust's shortest round-trip `Display` (also as a
//!   string, which additionally covers NaN/inf);
//! * expressions are encoded *structurally*, not via `Display`/re-parse,
//!   so string literals containing quotes survive.

use crate::computed::{ComputedColumn, ComputedDef};
use crate::error::{Result, SheetError};
use crate::sheet::StoredSheet;
use crate::spec::{Direction, GroupLevel, OrderKey, Spec};
use crate::state::QueryState;
use ssa_relation::expr::{ArithOp, CmpOp};
use ssa_relation::schema::Column;
use ssa_relation::{AggFunc, Expr, Relation, Schema, Tuple, Value, ValueType};

// ---------------------------------------------------------------------------
// Minimal JSON document model
// ---------------------------------------------------------------------------

/// A parsed JSON document. Numbers keep their raw literal text so integer
/// precision is caller-controlled.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub(crate) fn num(n: impl ToString) -> Json {
        Json::Num(n.to_string())
    }

    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn field<'a>(&'a self, key: &str) -> Result<&'a Json> {
        self.get(key)
            .ok_or_else(|| persist_err(format!("missing field `{key}`")))
    }

    pub(crate) fn str_value(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(persist_err(format!("expected string, got {other:?}"))),
        }
    }

    pub(crate) fn bool_value(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(persist_err(format!("expected bool, got {other:?}"))),
        }
    }

    pub(crate) fn arr_value(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(persist_err(format!("expected array, got {other:?}"))),
        }
    }

    pub(crate) fn u64_value(&self) -> Result<u64> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| persist_err(format!("bad integer literal `{raw}`"))),
            other => Err(persist_err(format!("expected number, got {other:?}"))),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub(crate) fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            chars: text.chars().collect(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(persist_err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn persist_err(message: impl Into<String>) -> SheetError {
    SheetError::Persist {
        message: message.into(),
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn eat(&mut self, expected: char) -> Result<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(persist_err(format!(
                "expected `{expected}` at position {}",
                self.pos
            )))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.chars[self.pos..].starts_with(&word.chars().collect::<Vec<_>>()[..]) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some('n') if self.eat_word("null") => Ok(Json::Null),
            Some('t') if self.eat_word("true") => Ok(Json::Bool(true)),
            Some('f') if self.eat_word("false") => Ok(Json::Bool(false)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('[') => {
                self.eat('[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.pos += 1,
                        Some(']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(persist_err("expected `,` or `]` in array")),
                    }
                }
            }
            Some('{') => {
                self.eat('{')?;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(':')?;
                    let value = self.value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.pos += 1,
                        Some('}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(persist_err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Ok(Json::Num(self.chars[start..self.pos].iter().collect()))
            }
            _ => Err(persist_err(format!(
                "unexpected input at position {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let c = self
                .peek()
                .ok_or_else(|| persist_err("unterminated string"))?;
            self.pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| persist_err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            if self.pos + 4 > self.chars.len() {
                                return Err(persist_err("truncated \\u escape"));
                            }
                            let hex: String = self.chars[self.pos..self.pos + 4].iter().collect();
                            self.pos += 4;
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| persist_err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| persist_err("bad \\u code point"))?,
                            );
                        }
                        other => return Err(persist_err(format!("bad escape `\\{other}`"))),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding/decoding the saved-sheet types
// ---------------------------------------------------------------------------

pub(crate) fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::obj(vec![("i", Json::Str(i.to_string()))]),
        Value::Float(f) => Json::obj(vec![("f", Json::Str(f.to_string()))]),
        // Always the resolved text — interner ids must never reach disk.
        Value::Str(s) => Json::obj(vec![("s", Json::Str(s.as_str().to_string()))]),
    }
}

pub(crate) fn value_from_json(j: &Json) -> Result<Value> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Obj(_) => {
            if let Some(i) = j.get("i") {
                let raw = i.str_value()?;
                Ok(Value::Int(raw.parse().map_err(|_| {
                    persist_err(format!("bad int literal `{raw}`"))
                })?))
            } else if let Some(f) = j.get("f") {
                let raw = f.str_value()?;
                Ok(Value::Float(raw.parse().map_err(|_| {
                    persist_err(format!("bad float literal `{raw}`"))
                })?))
            } else if let Some(s) = j.get("s") {
                Ok(Value::from(s.str_value()?.to_string()))
            } else {
                Err(persist_err("value object needs an `i`, `f`, or `s` field"))
            }
        }
        other => Err(persist_err(format!("bad value encoding: {other:?}"))),
    }
}

fn type_to_json(ty: ValueType) -> Json {
    Json::Str(ty.to_string())
}

fn type_from_json(j: &Json) -> Result<ValueType> {
    match j.str_value()? {
        "null" => Ok(ValueType::Null),
        "bool" => Ok(ValueType::Bool),
        "int" => Ok(ValueType::Int),
        "float" => Ok(ValueType::Float),
        "str" => Ok(ValueType::Str),
        other => Err(persist_err(format!("unknown value type `{other}`"))),
    }
}

pub(crate) fn relation_to_json(r: &Relation) -> Json {
    Json::obj(vec![
        ("name", Json::Str(r.name().to_string())),
        (
            "schema",
            Json::Arr(
                r.schema()
                    .columns()
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::Str(c.name.clone())),
                            ("ty", type_to_json(c.ty)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                r.rows()
                    .iter()
                    .map(|t| Json::Arr(t.iter().map(value_to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn relation_from_json(j: &Json) -> Result<Relation> {
    let name = j.field("name")?.str_value()?;
    let mut columns = Vec::new();
    for c in j.field("schema")?.arr_value()? {
        columns.push(Column::new(
            c.field("name")?.str_value()?,
            type_from_json(c.field("ty")?)?,
        ));
    }
    let schema = Schema::new(columns).map_err(|e| persist_err(e.to_string()))?;
    let mut rows = Vec::new();
    for row in j.field("rows")?.arr_value()? {
        let values: Result<Vec<Value>> = row.arr_value()?.iter().map(value_from_json).collect();
        rows.push(Tuple::new(values?));
    }
    Relation::with_rows(name, schema, rows).map_err(|e| persist_err(e.to_string()))
}

pub(crate) fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Col(name) => Json::obj(vec![("col", Json::Str(name.clone()))]),
        Expr::Lit(v) => Json::obj(vec![("lit", value_to_json(v))]),
        Expr::Arith(a, op, b) => Json::obj(vec![(
            "arith",
            Json::Arr(vec![
                expr_to_json(a),
                Json::Str(op.symbol().to_string()),
                expr_to_json(b),
            ]),
        )]),
        Expr::Neg(a) => Json::obj(vec![("neg", expr_to_json(a))]),
        Expr::Cmp(a, op, b) => Json::obj(vec![(
            "cmp",
            Json::Arr(vec![
                expr_to_json(a),
                Json::Str(op.symbol().to_string()),
                expr_to_json(b),
            ]),
        )]),
        Expr::And(a, b) => Json::obj(vec![(
            "and",
            Json::Arr(vec![expr_to_json(a), expr_to_json(b)]),
        )]),
        Expr::Or(a, b) => Json::obj(vec![(
            "or",
            Json::Arr(vec![expr_to_json(a), expr_to_json(b)]),
        )]),
        Expr::Not(a) => Json::obj(vec![("not", expr_to_json(a))]),
        Expr::IsNull(a) => Json::obj(vec![("is_null", expr_to_json(a))]),
        Expr::Like(a, pattern) => Json::obj(vec![(
            "like",
            Json::Arr(vec![expr_to_json(a), Json::Str(pattern.clone())]),
        )]),
        Expr::If(c, t, e) => Json::obj(vec![(
            "if",
            Json::Arr(vec![expr_to_json(c), expr_to_json(t), expr_to_json(e)]),
        )]),
    }
}

fn arith_op_from_symbol(sym: &str) -> Result<ArithOp> {
    [
        ArithOp::Add,
        ArithOp::Sub,
        ArithOp::Mul,
        ArithOp::Div,
        ArithOp::Mod,
    ]
    .into_iter()
    .find(|op| op.symbol() == sym)
    .ok_or_else(|| persist_err(format!("unknown arithmetic operator `{sym}`")))
}

fn cmp_op_from_symbol(sym: &str) -> Result<CmpOp> {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ]
    .into_iter()
    .find(|op| op.symbol() == sym)
    .ok_or_else(|| persist_err(format!("unknown comparison operator `{sym}`")))
}

fn expr_pair(j: &Json) -> Result<(Expr, Expr)> {
    let items = j.arr_value()?;
    if items.len() != 2 {
        return Err(persist_err("expected a two-element expression pair"));
    }
    Ok((expr_from_json(&items[0])?, expr_from_json(&items[1])?))
}

pub(crate) fn expr_from_json(j: &Json) -> Result<Expr> {
    if let Some(c) = j.get("col") {
        return Ok(Expr::Col(c.str_value()?.to_string()));
    }
    if let Some(v) = j.get("lit") {
        return Ok(Expr::Lit(value_from_json(v)?));
    }
    if let Some(t) = j.get("arith") {
        let items = t.arr_value()?;
        if items.len() != 3 {
            return Err(persist_err("arith needs [lhs, op, rhs]"));
        }
        return Ok(Expr::Arith(
            Box::new(expr_from_json(&items[0])?),
            arith_op_from_symbol(items[1].str_value()?)?,
            Box::new(expr_from_json(&items[2])?),
        ));
    }
    if let Some(t) = j.get("cmp") {
        let items = t.arr_value()?;
        if items.len() != 3 {
            return Err(persist_err("cmp needs [lhs, op, rhs]"));
        }
        return Ok(Expr::Cmp(
            Box::new(expr_from_json(&items[0])?),
            cmp_op_from_symbol(items[1].str_value()?)?,
            Box::new(expr_from_json(&items[2])?),
        ));
    }
    if let Some(t) = j.get("and") {
        let (a, b) = expr_pair(t)?;
        return Ok(Expr::And(Box::new(a), Box::new(b)));
    }
    if let Some(t) = j.get("or") {
        let (a, b) = expr_pair(t)?;
        return Ok(Expr::Or(Box::new(a), Box::new(b)));
    }
    if let Some(t) = j.get("neg") {
        return Ok(Expr::Neg(Box::new(expr_from_json(t)?)));
    }
    if let Some(t) = j.get("not") {
        return Ok(Expr::Not(Box::new(expr_from_json(t)?)));
    }
    if let Some(t) = j.get("is_null") {
        return Ok(Expr::IsNull(Box::new(expr_from_json(t)?)));
    }
    if let Some(t) = j.get("like") {
        let items = t.arr_value()?;
        if items.len() != 2 {
            return Err(persist_err("like needs [expr, pattern]"));
        }
        return Ok(Expr::Like(
            Box::new(expr_from_json(&items[0])?),
            items[1].str_value()?.to_string(),
        ));
    }
    if let Some(t) = j.get("if") {
        let items = t.arr_value()?;
        if items.len() != 3 {
            return Err(persist_err("if needs [cond, then, else]"));
        }
        return Ok(Expr::If(
            Box::new(expr_from_json(&items[0])?),
            Box::new(expr_from_json(&items[1])?),
            Box::new(expr_from_json(&items[2])?),
        ));
    }
    Err(persist_err("unrecognized expression encoding"))
}

pub(crate) fn agg_func_from_name(name: &str) -> Result<AggFunc> {
    AggFunc::ALL
        .into_iter()
        .find(|f| f.short_name() == name)
        .ok_or_else(|| persist_err(format!("unknown aggregate function `{name}`")))
}

pub(crate) fn direction_to_json(d: Direction) -> Json {
    Json::Str(d.to_string())
}

pub(crate) fn direction_from_json(j: &Json) -> Result<Direction> {
    match j.str_value()? {
        "ASC" => Ok(Direction::Asc),
        "DESC" => Ok(Direction::Desc),
        other => Err(persist_err(format!("unknown direction `{other}`"))),
    }
}

fn string_array(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn strings_from_json(j: &Json) -> Result<Vec<String>> {
    j.arr_value()?
        .iter()
        .map(|s| Ok(s.str_value()?.to_string()))
        .collect()
}

fn computed_to_json(c: &ComputedColumn) -> Json {
    let def = match &c.def {
        ComputedDef::Aggregate {
            func,
            column,
            level,
            basis,
        } => Json::obj(vec![(
            "aggregate",
            Json::obj(vec![
                ("func", Json::Str(func.short_name().to_string())),
                ("column", Json::Str(column.clone())),
                ("level", Json::num(level)),
                ("basis", string_array(basis)),
            ]),
        )]),
        ComputedDef::Formula { expr } => Json::obj(vec![("formula", expr_to_json(expr))]),
    };
    Json::obj(vec![("name", Json::Str(c.name.clone())), ("def", def)])
}

fn computed_from_json(j: &Json) -> Result<ComputedColumn> {
    let name = j.field("name")?.str_value()?.to_string();
    let def = j.field("def")?;
    let def = if let Some(a) = def.get("aggregate") {
        ComputedDef::Aggregate {
            func: agg_func_from_name(a.field("func")?.str_value()?)?,
            column: a.field("column")?.str_value()?.to_string(),
            level: a.field("level")?.u64_value()? as usize,
            basis: strings_from_json(a.field("basis")?)?,
        }
    } else if let Some(f) = def.get("formula") {
        ComputedDef::Formula {
            expr: expr_from_json(f)?,
        }
    } else {
        return Err(persist_err("computed def needs `aggregate` or `formula`"));
    };
    Ok(ComputedColumn { name, def })
}

fn spec_to_json(spec: &Spec) -> Json {
    Json::obj(vec![
        (
            "levels",
            Json::Arr(
                spec.levels
                    .iter()
                    .map(|l| {
                        Json::obj(vec![
                            ("basis", string_array(&l.basis)),
                            ("direction", direction_to_json(l.direction)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "finest_order",
            Json::Arr(
                spec.finest_order
                    .iter()
                    .map(|k| {
                        Json::obj(vec![
                            ("attribute", Json::Str(k.attribute.clone())),
                            ("direction", direction_to_json(k.direction)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn spec_from_json(j: &Json) -> Result<Spec> {
    let mut spec = Spec::empty();
    for l in j.field("levels")?.arr_value()? {
        spec.levels.push(GroupLevel {
            basis: strings_from_json(l.field("basis")?)?,
            direction: direction_from_json(l.field("direction")?)?,
        });
    }
    for k in j.field("finest_order")?.arr_value()? {
        spec.finest_order.push(OrderKey {
            attribute: k.field("attribute")?.str_value()?.to_string(),
            direction: direction_from_json(k.field("direction")?)?,
        });
    }
    Ok(spec)
}

pub(crate) fn state_to_json(state: &QueryState) -> Json {
    Json::obj(vec![
        (
            "selections",
            Json::Arr(
                state
                    .selections
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("id", Json::num(s.id)),
                            ("predicate", expr_to_json(&s.predicate)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "computed",
            Json::Arr(state.computed.iter().map(computed_to_json).collect()),
        ),
        (
            "projected_out",
            Json::Arr(
                state
                    .projected_out
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
        ("dedup", Json::Bool(state.dedup)),
        ("spec", spec_to_json(&state.spec)),
        (
            "next_selection_id",
            Json::num(state.next_selection_id_raw()),
        ),
    ])
}

pub(crate) fn state_from_json(j: &Json) -> Result<QueryState> {
    let mut state = QueryState::new();
    for s in j.field("selections")?.arr_value()? {
        state.selections.push(crate::state::SelectionEntry {
            id: s.field("id")?.u64_value()?,
            predicate: expr_from_json(s.field("predicate")?)?,
        });
    }
    for c in j.field("computed")?.arr_value()? {
        state.computed.push(computed_from_json(c)?);
    }
    for p in j.field("projected_out")?.arr_value()? {
        state.projected_out.insert(p.str_value()?.to_string());
    }
    state.dedup = j.field("dedup")?.bool_value()?;
    state.spec = spec_from_json(j.field("spec")?)?;
    state.set_next_selection_id_raw(j.field("next_selection_id")?.u64_value()?);
    Ok(state)
}

/// On-disk format version, written as the leading `v` field and checked
/// on open. Bump when the encoding changes incompatibly, so an old
/// binary reports a clear error instead of misreading a newer snapshot.
pub(crate) const FORMAT_VERSION: u64 = 1;

pub(crate) fn stored_sheet_to_json(sheet: &StoredSheet) -> String {
    Json::obj(vec![
        ("v", Json::num(FORMAT_VERSION)),
        ("name", Json::Str(sheet.name.clone())),
        ("relation", relation_to_json(&sheet.relation)),
        ("state", state_to_json(&sheet.state)),
    ])
    .render()
}

pub(crate) fn stored_sheet_from_json(text: &str) -> Result<StoredSheet> {
    ssa_relation::fault_check!("persist.open");
    let j = Json::parse(text)?;
    let version = j.field("v")?.u64_value()?;
    if version != FORMAT_VERSION {
        return Err(persist_err(format!(
            "unsupported format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    Ok(StoredSheet {
        name: j.field("name")?.str_value()?.to_string(),
        relation: relation_from_json(j.field("relation")?)?,
        state: state_from_json(j.field("state")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_round_trips() {
        let doc = Json::obj(vec![
            ("a", Json::Null),
            ("b", Json::Bool(true)),
            ("n", Json::num(-42)),
            ("s", Json::Str("quote \" slash \\ tab\t".into())),
            ("arr", Json::Arr(vec![Json::num(1), Json::Str("x".into())])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn values_round_trip_losslessly() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(0.1 + 0.2),
            Value::Float(f64::NAN),
            Value::Str("it's got 'quotes' and \"doubles\"".into()),
        ];
        for v in values {
            let back = value_from_json(&Json::parse(&value_to_json(&v).render()).unwrap()).unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{v:?}")
                }
                _ => assert_eq!(v, back),
            }
        }
    }

    /// Regression guard for the interned-string representation: the
    /// on-disk format carries resolved text, never interner ids (ids are
    /// first-seen order and meaningless across processes).
    #[test]
    fn interned_strings_persist_as_text_never_ids() {
        use crate::state::QueryState;
        let v = Value::from("persist-intern-sentinel".to_string());
        assert_eq!(
            value_to_json(&v).render(),
            r#"{"s":"persist-intern-sentinel"}"#
        );

        // A sheet full of interned strings round-trips by value even
        // though loading re-interns under fresh (different) ids.
        let relation = Relation::with_rows(
            "dealers",
            Schema::of(&[("Dealer", ValueType::Str), ("City", ValueType::Str)]),
            (0..64u32)
                .map(|i| {
                    Tuple::new(vec![
                        Value::from(format!("persist-dealer-{}", (i * 37) % 64)),
                        Value::from(format!("persist-city-{}", i % 7)),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let sheet = StoredSheet {
            name: "dealers".into(),
            relation: relation.clone(),
            state: QueryState::new(),
        };
        let text = stored_sheet_to_json(&sheet);
        assert!(
            text.contains("persist-dealer-63"),
            "text cells must be literal"
        );
        let back = stored_sheet_from_json(&text).unwrap();
        assert_eq!(back.relation, relation);
        assert!(back.relation.multiset_eq(&relation));
    }

    #[test]
    fn version_field_is_written_and_checked() {
        let sheet = StoredSheet {
            name: "s".into(),
            relation: Relation::with_rows(
                "r",
                Schema::of(&[("A", ValueType::Int)]),
                vec![Tuple::new(vec![Value::Int(1)])],
            )
            .unwrap(),
            state: crate::state::QueryState::new(),
        };
        let text = stored_sheet_to_json(&sheet);
        assert!(text.starts_with(r#"{"v":1,"#));
        let bumped = text.replacen(r#""v":1"#, r#""v":2"#, 1);
        let err = stored_sheet_from_json(&bumped).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
        let missing = text.replacen(r#""v":1,"#, "", 1);
        assert!(stored_sheet_from_json(&missing).is_err());
    }

    /// Robustness sweep: a snapshot truncated or mutated at an arbitrary
    /// byte must never panic the decoder — every outcome is either a
    /// successful parse (the mutation hit don't-care bytes) or a typed
    /// [`SheetError`]. Deterministically seeded, several hundred cases.
    #[test]
    fn corrupted_snapshots_never_panic() {
        let relation = Relation::with_rows(
            "cars",
            Schema::of(&[
                ("Model", ValueType::Str),
                ("Price", ValueType::Int),
                ("Rating", ValueType::Float),
            ]),
            (0..24u32)
                .map(|i| {
                    Tuple::new(vec![
                        Value::from(format!("model-{}", i % 5)),
                        Value::Int(i64::from(i) * 997),
                        Value::Float(f64::from(i) / 3.0),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let mut state = crate::state::QueryState::new();
        state.computed.push(ComputedColumn {
            name: "Half".into(),
            def: ComputedDef::Formula {
                expr: Expr::col("Price").div(Expr::lit(2)),
            },
        });
        state.spec.levels.push(GroupLevel {
            basis: vec!["Model".into()],
            direction: Direction::Asc,
        });
        let sheet = StoredSheet {
            name: "cars".into(),
            relation,
            state,
        };
        let text = stored_sheet_to_json(&sheet);
        assert!(stored_sheet_from_json(&text).is_ok());

        let bytes = text.as_bytes();
        let mut rng = ssa_relation::rng::Rng::seed_from_u64(0x5EED_CAFE);
        for case in 0..400 {
            let mut mutated = bytes.to_vec();
            match case % 3 {
                // Truncate at a random byte.
                0 => mutated.truncate(rng.gen_range(0..bytes.len())),
                // Overwrite one byte with random printable ASCII.
                1 => {
                    let at = rng.gen_range(0..bytes.len());
                    mutated[at] = 0x20 + (rng.next_u64() % 0x5f) as u8;
                }
                // Delete one byte.
                _ => {
                    let at = rng.gen_range(0..bytes.len());
                    mutated.remove(at);
                }
            }
            // Mutations that break UTF-8 can't even reach the parser
            // (it takes &str); skip those.
            let Ok(mutated) = String::from_utf8(mutated) else {
                continue;
            };
            // Must return, not panic; both outcomes are acceptable.
            let _ = stored_sheet_from_json(&mutated);
        }
    }

    #[test]
    fn exprs_round_trip_structurally() {
        let exprs = [
            Expr::col("Price").lt(Expr::lit(15_000)),
            Expr::col("Model").eq(Expr::lit("it's a 'Jetta'")),
            Expr::col("a")
                .add(Expr::col("b"))
                .mul(Expr::lit(2.5))
                .ge(Expr::lit(0)),
            Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col("x"))))),
            Expr::Like(Box::new(Expr::col("s")), "%x_%".into()),
            Expr::if_else(
                Expr::col("x").gt(Expr::lit(1)),
                Expr::lit("hi"),
                Expr::lit("lo"),
            ),
            Expr::Neg(Box::new(Expr::col("n"))),
            Expr::col("a")
                .eq(Expr::lit(1))
                .or(Expr::col("b").eq(Expr::lit(2))),
        ];
        for e in exprs {
            let back = expr_from_json(&Json::parse(&expr_to_json(&e).render()).unwrap()).unwrap();
            assert_eq!(back, e);
        }
    }
}
