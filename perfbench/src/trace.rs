//! The traced run's per-layer breakdown.
//!
//! A traced run (`--trace 1`) measures one untraced window and one traced
//! window over TCP, each on a freshly booted server, then replays the
//! traced window's requests in-process
//! against a fresh `ServerState` built from the same CSV bytes. Each
//! request is timed at `ssa_server::route`; the nested public calls
//! (`ScriptHost::execute`, `Spreadsheet::view`, `Plan::prepare`,
//! `evaluate_with`, `render_table`, ...) are timed on shadow copies of
//! the session's engine taken just before the request, so the replayed
//! state itself advances exactly once per request.
//!
//! Spans carry a name, start, end, parent and request id; they stay in
//! memory and are written to `.bench_work/spans-<workload>.tsv` when the
//! run ends. The shadow calls run one after another rather than nested
//! in time, so a span's self time is its duration minus the summed
//! durations of its children, floored at zero.

use crate::inputs::Table;
use crate::replay::{self, apply_gesture, call, session_id, Arrows};
use crate::run::{Class, Rec, WindowFacts};
use crate::stats::{mean, Metrics};
use crate::Config;
use sheetmusiq::{ScriptHost, Session};
use spreadsheet_algebra::render::render_table;
use spreadsheet_algebra::{evaluate_with, Engine, Plan, StateDelta};
use ssa_relation::Catalog;
use ssa_server::ServerState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::time::{Duration, Instant};

/// Script commands with their own `script.execute_us.<cmd>` metric.
pub const COMMANDS: [&str; 13] = [
    "select",
    "modify",
    "unselect",
    "formula",
    "dropcol",
    "agg",
    "order",
    "sortclick",
    "project",
    "reinstate",
    "undo",
    "redo",
    "group",
];

/// `last_delta()` kinds counted by `sheet.views.<kind>`.
pub const VIEW_KINDS: [&str; 5] = [
    "full",
    "narrow",
    "reorganize",
    "append_computed",
    "remove_computed",
];

/// Every per-layer metric, with its unit: a traced run prints all of
/// them on every workload, 0 where the workload never reaches the layer.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("http.overhead_us.gesture", "us");
    add("http.overhead_us.view", "us");
    add("http.resp_bytes.view", "bytes");
    add("http.shed_503", "count");
    for c in Class::ALL {
        add(&format!("api.route_us.{}", c.route()), "us");
    }
    add("host.session_open_us", "us");
    add("host.refresh_us", "us");
    add("host.commit_us", "us");
    add("relation.clone_us", "us");
    for c in COMMANDS {
        add(&format!("script.execute_us.{c}"), "us");
    }
    add("sheet.view_us.full", "us");
    add("sheet.view_us.patched", "us");
    for k in VIEW_KINDS {
        add(&format!("sheet.views.{k}"), "count");
    }
    add("sheet.incremental_ratio", "ratio");
    add("plan.prepare_us", "us");
    add("eval.full_us", "us");
    add("eval.rows_in_per_row_out", "ratio");
    add("render.us", "us");
    add("render.bytes", "bytes");
    add("history.undo_us", "us");
    add("history.redo_us", "us");
    add("wal.commit_us", "us");
    add("wal.sync_us", "us");
    add("wal.bytes_per_commit", "bytes");
    add("csv.parse_ms_per_mb", "ms/MB");
    add("load.feed_late_ms_p99", "ms");
    add("load.client_busy_pct", "%");
    for c in Class::ALL {
        add(&format!("trace.coverage.{}", c.name()), "ratio");
    }
    add("trace.overhead_pct", "%");
    add("tasks_per_s", "1/s");
    add("task_p50_ms", "ms");
    add("task_p90_ms", "ms");
    add("gesture_p50_ms", "ms");
    add("gesture_p99_ms", "ms");
    add("commit_p50_ms", "ms");
    add("commit_p99_ms", "ms");
    add("refresh_p50_ms", "ms");
    add("refresh_p99_ms", "ms");
    add("wal_bytes_per_user_byte", "ratio");
    add("fail_ratio", "ratio");
    add("lost_acked_ops", "count");
    v
}

/// End-to-end metric names, as every untraced run prints them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("actions_per_s", "1/s"),
    ("action_mean_ms", "ms"),
    ("request_mean_ms", "ms"),
    ("view_mean_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("server_rss_mb", "MB"),
];

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// In-memory span store plus per-name sums.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    sums: BTreeMap<String, (f64, u64)>,
    pub counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Time `f` as span `name` of request `req`; returns its value and
    /// the span id.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed();
        let value = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        let id = self.spans.len();
        let span = Span {
            req,
            id,
            parent,
            name: name.to_string(),
            start,
            end,
        };
        self.add_sample(name, span.us());
        self.spans.push(span);
        (value, id)
    }

    /// A span measured elsewhere (the client's view of a request).
    pub fn record(&mut self, req: u64, name: &str, start: Duration, end: Duration) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            req,
            id,
            parent: None,
            name: name.to_string(),
            start,
            end,
        });
        id
    }

    pub fn add_sample(&mut self, name: &str, value: f64) {
        let e = self.sums.entry(name.to_string()).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    pub fn bump(&mut self, name: &str, by: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += by;
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |(s, n)| if *n == 0 { 0.0 } else { s / *n as f64 })
    }

    pub fn duration_us(&self, id: usize) -> f64 {
        self.spans[id].us()
    }

    /// Self time of every span (duration minus children's durations,
    /// floored at zero), summed per request id, over in-process spans.
    fn self_time_per_request(&self) -> HashMap<u64, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out: HashMap<u64, f64> = HashMap::new();
        for s in &self.spans {
            if s.name.starts_with("client.") {
                continue;
            }
            *out.entry(s.req).or_insert(0.0) += (s.us() - child_us[s.id]).max(0.0);
        }
        out
    }

    /// Write every span as TSV.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "request\tspan\tparent\tname\tstart_us\tend_us")?;
        for s in &self.spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{:.1}\t{:.1}",
                s.req,
                s.id,
                s.parent.map_or(String::from("-"), |p| p.to_string()),
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        f.flush()
    }
}

/// The in-process side of a traced run over session workloads.
pub struct Replayer<'a> {
    pub state: &'a ServerState,
    pub tracer: Tracer,
    sids: HashMap<u64, u64>,
    arrows: HashMap<u64, Arrows>,
    /// Local session → a twin session in the same state, refreshed in
    /// its place to time `refresh_session`.
    shadows: HashMap<u64, u64>,
    /// Local sessions refreshed since their last view.
    stale: HashSet<u64>,
    pub replayed: Vec<Replayed>,
}

/// One replayed request: its class and request id, its latency over TCP
/// and its time in `route`.
pub struct Replayed {
    pub class: Class,
    pub req: u64,
    pub client_us: f64,
    pub route_us: f64,
}

impl<'a> Replayer<'a> {
    pub fn new(state: &'a ServerState) -> Replayer<'a> {
        Replayer {
            state,
            tracer: Tracer::new(),
            sids: HashMap::new(),
            arrows: HashMap::new(),
            shadows: HashMap::new(),
            stale: HashSet::new(),
            replayed: Vec::new(),
        }
    }

    /// Rewrite the server's session id in `target` to the local one.
    fn local_target(&self, target: &str) -> (String, Option<u64>) {
        let Some(rest) = target.strip_prefix("/sessions/") else {
            return (target.to_string(), None);
        };
        let (id, tail) = rest.split_once('/').map_or((rest, ""), |(i, t)| (i, t));
        let Some(local) = id.parse::<u64>().ok().and_then(|i| self.sids.get(&i)) else {
            return (target.to_string(), None);
        };
        let tail = if tail.is_empty() {
            String::new()
        } else {
            format!("/{tail}")
        };
        (format!("/sessions/{local}{tail}"), Some(*local))
    }

    fn engine(&self, sid: u64) -> Option<Engine> {
        let slot = self.state.session(sid).ok()?;
        let mut slot = slot.lock().ok()?;
        slot.script.session.engine().ok().cloned()
    }

    /// Replay one recorded request with its shadow calls.
    pub fn replay(&mut self, rec: &Rec) {
        let req = rec.id();
        let client = self.tracer.record(
            req,
            &format!("client.{}", rec.class.name()),
            rec.start,
            rec.end,
        );
        let (target, sid) = self.local_target(&rec.target);
        let pre = sid.and_then(|s| self.engine(s));
        let state = self.state;
        let ((_, body), route) = self.tracer.time(
            req,
            Some(client),
            &format!("api.route.{}", rec.class.route()),
            || call(state, rec.method, &target, &rec.body),
        );
        self.replayed.push(Replayed {
            class: rec.class,
            req,
            client_us: rec.latency_ms() * 1e3,
            route_us: self.tracer.duration_us(route),
        });
        match rec.class {
            Class::SessionOpen => {
                if let (Some(tcp), Some(local)) = (rec.session, session_id(&body)) {
                    self.sids.insert(tcp, local);
                }
                let sheet = target.split("sheet=").nth(1).unwrap_or("").to_string();
                let (opened, _) = self.tracer.time(req, Some(route), "host.session_open", || {
                    state.create_session(&sheet)
                });
                if let Ok((shadow, _)) = opened {
                    state.drop_session(shadow);
                }
            }
            Class::Gesture => {
                if let (Some(pre), Some(sid)) = (pre, sid) {
                    let line = String::from_utf8_lossy(&rec.body).to_string();
                    self.shadow_gesture(req, route, pre, sid, &line);
                }
            }
            Class::View => {
                if let (Some(mut pre), Some(sid)) = (pre, sid) {
                    // A view right after a refresh evaluates the new base;
                    // after a gesture it renders the already-current cache.
                    let parent = if self.stale.remove(&sid) {
                        self.shadow_view(req, route, &mut pre)
                    } else {
                        route
                    };
                    if let Ok(view) = pre.view() {
                        let (text, _) = self
                            .tracer
                            .time(req, Some(parent), "render", || render_table(view));
                        self.tracer.add_sample("render.bytes", text.len() as f64);
                    }
                }
            }
            Class::Refresh => {
                if let Some(sid) = sid {
                    if let Some(&shadow) = self.shadows.get(&sid) {
                        let _ = self.tracer.time(req, Some(route), "host.refresh", || {
                            state.refresh_session(shadow)
                        });
                    }
                    self.stale.insert(sid);
                }
            }
            _ => {}
        }
    }

    /// Time `Spreadsheet::view` on `engine`, and for a full evaluation
    /// also `Plan::prepare` and `evaluate_with`; returns the view span.
    fn shadow_view(&mut self, req: u64, parent: usize, engine: &mut Engine) -> usize {
        let kind = delta_kind(engine.sheet().last_delta());
        let path = if kind == "full" { "full" } else { "patched" };
        let (_, view) = self
            .tracer
            .time(req, Some(parent), &format!("sheet.view.{path}"), || {
                engine.view().map(|d| d.len())
            });
        self.tracer.bump(&format!("sheet.views.{kind}"), 1.0);
        if kind == "full" {
            let sheet = engine.sheet();
            let (base, st, opts) = (sheet.base(), sheet.state(), sheet.eval_options());
            let _ = self.tracer.time(req, Some(view), "plan.prepare", || {
                Plan::prepare(base, st).map(drop)
            });
            let (derived, _) = self.tracer.time(req, Some(view), "eval.full", || {
                evaluate_with(base, st, opts)
            });
            if let Ok(d) = derived {
                self.tracer.bump("eval.rows_in", base.len() as f64);
                self.tracer.bump("eval.rows_out", d.len() as f64);
            }
        }
        view
    }

    fn shadow_gesture(&mut self, req: u64, route: usize, pre: Engine, sid: u64, line: &str) {
        let cmd = replay::command_of(line).to_string();
        let mut host = {
            let mut session = Session::new(Catalog::new());
            session.adopt(pre.clone());
            ScriptHost::new(session)
        };
        let (_, exec) =
            self.tracer
                .time(req, Some(route), &format!("script.execute.{cmd}"), || {
                    host.execute(line)
                });
        drop(host);
        let mut engine = pre;
        let arrows = self.arrows.entry(sid).or_default();
        let applied = if cmd == "undo" || cmd == "redo" {
            let span = format!("history.{cmd}");
            let apply = || apply_gesture(&mut engine, arrows, line);
            self.tracer.time(req, Some(exec), &span, apply).0
        } else {
            apply_gesture(&mut engine, arrows, line)
        };
        if applied.is_ok() {
            self.shadow_view(req, exec, &mut engine);
        }
    }

    /// Per-layer metrics common to the session workloads.
    pub fn layer_metrics(&self, m: &mut Metrics, recs: &[Rec]) {
        for (name, unit) in per_layer_names() {
            m.put(name, 0.0, unit);
        }
        let t = &self.tracer;
        for c in Class::ALL {
            let r = c.route();
            m.put(
                format!("api.route_us.{r}"),
                t.mean(&format!("api.route.{r}")),
                "us",
            );
        }
        for c in COMMANDS {
            m.put(
                format!("script.execute_us.{c}"),
                t.mean(&format!("script.execute.{c}")),
                "us",
            );
        }
        m.put("host.session_open_us", t.mean("host.session_open"), "us");
        m.put("host.refresh_us", t.mean("host.refresh"), "us");
        m.put("sheet.view_us.full", t.mean("sheet.view.full"), "us");
        m.put("sheet.view_us.patched", t.mean("sheet.view.patched"), "us");
        let mut views = 0.0;
        for k in VIEW_KINDS {
            let n = t
                .counts
                .get(&format!("sheet.views.{k}"))
                .copied()
                .unwrap_or(0.0);
            views += n;
            m.put(format!("sheet.views.{k}"), n, "count");
        }
        let full = t.counts.get("sheet.views.full").copied().unwrap_or(0.0);
        m.put(
            "sheet.incremental_ratio",
            if views > 0.0 { 1.0 - full / views } else { 0.0 },
            "ratio",
        );
        m.put("plan.prepare_us", t.mean("plan.prepare"), "us");
        m.put("eval.full_us", t.mean("eval.full"), "us");
        let rows_in = t.counts.get("eval.rows_in").copied().unwrap_or(0.0);
        let rows_out = t.counts.get("eval.rows_out").copied().unwrap_or(0.0);
        m.put(
            "eval.rows_in_per_row_out",
            rows_in / rows_out.max(1.0),
            "ratio",
        );
        m.put("render.us", t.mean("render"), "us");
        m.put("render.bytes", t.mean("render.bytes"), "bytes");
        m.put("history.undo_us", t.mean("history.undo"), "us");
        m.put("history.redo_us", t.mean("history.redo"), "us");
        // HTTP overhead: client latency minus route time, same request.
        for (c, name) in [(Class::Gesture, "gesture"), (Class::View, "view")] {
            let diffs: Vec<f64> = self
                .replayed
                .iter()
                .filter(|r| r.class == c)
                .map(|r| r.client_us - r.route_us)
                .collect();
            m.put(format!("http.overhead_us.{name}"), mean(&diffs), "us");
        }
        let view_bytes: Vec<f64> = recs
            .iter()
            .filter(|r| r.class == Class::View)
            .map(|r| r.resp_len as f64)
            .collect();
        m.put("http.resp_bytes.view", mean(&view_bytes), "bytes");
        m.put(
            "http.shed_503",
            recs.iter().filter(|r| r.status == 503).count() as f64,
            "count",
        );
        // Coverage: in-process self time over client latency, per class.
        let selfs = self.tracer.self_time_per_request();
        for c in Class::ALL {
            let (mut covered, mut client) = (0.0, 0.0);
            for r in self.replayed.iter().filter(|r| r.class == c) {
                covered += selfs.get(&r.req).copied().unwrap_or(0.0);
                client += r.client_us;
            }
            let ratio = if client > 0.0 { covered / client } else { 0.0 };
            m.put(format!("trace.coverage.{}", c.name()), ratio, "ratio");
        }
    }
}

/// The `sheet.views.<kind>` name of a recorded delta.
pub fn delta_kind(delta: &StateDelta) -> &'static str {
    match delta {
        StateDelta::Full { .. } => "full",
        StateDelta::Narrow { .. } => "narrow",
        StateDelta::Reorganize => "reorganize",
        StateDelta::AppendComputed { .. } => "append_computed",
        StateDelta::RemoveComputed { .. } => "remove_computed",
        _ => "full",
    }
}

/// `csv.parse_ms_per_mb`: parse the tables the way the server does.
pub fn csv_parse_ms_per_mb(tables: &[&Table]) -> f64 {
    let bytes: usize = tables.iter().map(|t| t.csv.len()).sum();
    let t0 = Instant::now();
    for t in tables {
        std::hint::black_box(t.parse());
    }
    t0.elapsed().as_secs_f64() * 1e3 / (bytes as f64 / 1e6)
}

/// Replay `recs` (sorted by start) until `budget` runs out.
pub fn replay_all(replayer: &mut Replayer, recs: &[Rec], budget: Duration) {
    let t0 = Instant::now();
    let mut order: Vec<&Rec> = recs.iter().collect();
    order.sort_by_key(|r| r.start);
    for rec in order {
        if t0.elapsed() >= budget {
            break;
        }
        replayer.replay(rec);
    }
}

pub fn overhead_pct(untraced: WindowFacts, traced: WindowFacts) -> f64 {
    if untraced.mean_request_ms > 0.0 {
        (traced.mean_request_ms / untraced.mean_request_ms - 1.0) * 100.0
    } else {
        0.0
    }
}

pub fn write_spans(cfg: &Config, tracer: &Tracer) {
    let path = cfg.work_root.join(format!("spans-{}.tsv", cfg.workload));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

impl<'a> Replayer<'a> {
    /// Map a server session id to a local one opened outside the replay.
    pub fn map_session(&mut self, tcp: u64, local: u64) {
        self.sids.insert(tcp, local);
    }

    /// Refresh `shadow` wherever the replay refreshes `local`.
    pub fn shadow_session(&mut self, local: u64, shadow: u64) {
        self.shadows.insert(local, shadow);
    }
}
