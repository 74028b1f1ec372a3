//! The in-process side: a `ServerState` built from the same CSV bytes the
//! server receives, driven through `ssa_server::route` with the same
//! requests, plus the gesture vocabulary applied straight to an
//! `Engine` for the traced run's shadow calls.

use crate::inputs::Table;
use spreadsheet_algebra::{Direction, Engine, Result, SheetError};
use ssa_relation::agg::parse_agg_func;
use ssa_relation::expr_parse::parse_expr;
use ssa_server::{Request, ServerState};
use std::collections::{BTreeMap, HashMap};

/// An in-memory server state hosting `tables`.
pub fn local_state(tables: &[&Table]) -> ServerState {
    let state = ServerState::new();
    host_all(&state, tables);
    state
}

pub fn host_all(state: &ServerState, tables: &[&Table]) {
    for t in tables {
        state
            .create_sheet(t.parse())
            .expect("fresh state accepts every table");
    }
}

/// Route one request in-process; returns (status, body).
pub fn call(state: &ServerState, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        ),
        None => (target.to_string(), HashMap::new()),
    };
    let req = Request {
        method: method.to_string(),
        path,
        query,
        body: body.to_vec(),
        keep_alive: true,
    };
    let resp = ssa_server::route(state, &req);
    (resp.status, resp.body)
}

/// The unsigned integer after `"key":` in a JSON reply body.
fn json_uint(body: &str, key: &str) -> Option<u64> {
    let rest = body.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The session id in a `POST /sessions` reply body.
pub fn session_id(body: &str) -> Option<u64> {
    json_uint(body, "session")
}

/// The `"version": N` field of a reply body.
pub fn version_of(body: &str) -> Option<u64> {
    json_uint(body, "version")
}

/// The `"rows": N` field of a sheet-metadata body.
pub fn rows_of(body: &str) -> Option<usize> {
    json_uint(body, "rows").and_then(|n| usize::try_from(n).ok())
}

/// A `POST /sessions` reply with its session id blanked, so replies from
/// two servers that numbered their sessions differently compare equal.
pub fn without_session_id(body: &str) -> String {
    match session_id(body) {
        Some(id) => body.replacen(&format!("\"session\": {id}"), "\"session\": _", 1),
        None => body.to_string(),
    }
}

/// The script command of a gesture line (`select`, `undo`, ...).
pub fn command_of(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

/// Header-arrow state of one session, mirrored outside `ScriptHost`:
/// the first click on a column sorts ascending, the next descending.
#[derive(Debug, Default, Clone)]
pub struct Arrows(BTreeMap<String, Direction>);

impl Arrows {
    pub fn click(&mut self, column: &str) -> Direction {
        let next = match self.0.get(column) {
            Some(Direction::Asc) => Direction::Desc,
            _ => Direction::Asc,
        };
        self.0.insert(column.to_string(), next);
        next
    }
}

fn usage(what: &str) -> SheetError {
    SheetError::Persist {
        message: format!("cannot apply gesture `{what}`"),
    }
}

fn direction(word: Option<&str>) -> Direction {
    match word {
        Some(d) if d.eq_ignore_ascii_case("desc") => Direction::Desc,
        _ => Direction::Asc,
    }
}

/// Apply one gesture line straight to an engine, without the view that
/// `ScriptHost::execute` runs after it. Covers the commands this
/// benchmark sends.
pub fn apply_gesture(engine: &mut Engine, arrows: &mut Arrows, line: &str) -> Result<()> {
    let line = line.trim();
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    let rest = rest.trim();
    let words: Vec<&str> = rest.split_whitespace().collect();
    let finest = engine.sheet().state().spec.level_count();
    match cmd {
        "select" => engine.select(parse_expr(rest)?).map(drop),
        "modify" => {
            let (id, pred) = rest.split_once(' ').ok_or_else(|| usage(line))?;
            let id: u64 = id.parse().map_err(|_| usage(line))?;
            engine.replace_selection(id, parse_expr(pred)?)
        }
        "unselect" => engine.remove_selection(rest.parse().map_err(|_| usage(line))?),
        "formula" => {
            let (name, expr) = rest.split_once('=').ok_or_else(|| usage(line))?;
            engine
                .formula(Some(name.trim()), parse_expr(expr.trim())?)
                .map(drop)
        }
        "dropcol" => engine.sheet_mut().remove_with_cascade(rest).map(drop),
        "agg" => {
            let func = parse_agg_func(words.first().ok_or_else(|| usage(line))?)?;
            let column = words.get(1).ok_or_else(|| usage(line))?;
            engine.aggregate(func, column, finest).map(drop)
        }
        "group" => {
            let column = words.first().ok_or_else(|| usage(line))?;
            engine.group_add(&[column], direction(words.get(1).copied()))
        }
        "order" => {
            let column = words.first().ok_or_else(|| usage(line))?;
            engine.order(column, direction(words.get(1).copied()), finest)
        }
        "sortclick" => {
            let dir = arrows.click(rest);
            engine.order(rest, dir, finest)
        }
        "project" => engine.project_out(rest),
        "reinstate" => engine.reinstate(rest),
        "undo" => engine.undo_steps(rest.parse().unwrap_or(1)).map(drop),
        "redo" => engine.redo_steps(rest.parse().unwrap_or(1)).map(drop),
        _ => Err(usage(line)),
    }
}
