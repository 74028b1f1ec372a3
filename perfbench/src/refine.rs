//! `refine`: query modification on two long-lived sessions.
//!
//! Each connection holds one session over the scale-10 `v_lineitem`
//! sheet, narrowed to about 4% of its rows, and sends a cycle of
//! modification gestures, one request each, with a `GET /view` after
//! every [`VIEW_EVERY`]th gesture. The cycle ends by undoing everything it
//! recorded (and re-clicking any header clicked an odd number of times),
//! so the session returns to its starting state and the cycle repeats
//! with identical replies; the in-process replay checks that it does.

use crate::inputs::Table;
use crate::replay::{call, local_state, session_id, without_session_id};
use crate::run::{
    body_is, class_latency, median_of, timed_setup, Class, Client, Rec, Window, WindowFacts,
};
use crate::server::Server;
use crate::server::WorkDir;
use crate::stats::{Metrics, Tally};
use crate::trace::{csv_parse_ms_per_mb, overhead_pct, replay_all, write_spans, Replayer};
use crate::{Config, Outcome};
use ssa_relation::rng::Rng;
use ssa_server::ServerState;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The gesture that narrows the sheet before the cycle starts.
pub const NARROW: &str = "select l_quantity <= 2";
/// A `GET /view` follows every this-many gestures.
pub const VIEW_EVERY: usize = 4;
/// Blocks of twelve gestures per cycle.
const BLOCKS: usize = 4;

/// Columns the cycle sorts on; never projected out.
const SORTABLE: [&str; 5] = [
    "l_shipdate",
    "l_extendedprice",
    "l_quantity",
    "l_discount",
    "l_orderkey",
];
/// Columns the cycle hides and reinstates.
const PROJECTABLE: [&str; 4] = ["l_partkey", "l_suppkey", "l_shipmode", "l_returnflag"];
const AGG_INPUTS: [&str; 4] = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"];
const FORMULAS: [&str; 3] = [
    "l_extendedprice * (1 - l_discount)",
    "l_quantity * 2",
    "l_extendedprice * (1 + l_tax)",
];
/// Selection thresholds: `column <= t` with `t` drawn from the middle of
/// the range, so a `modify` can always tighten or loosen it by one step
/// and the selection keeps roughly half to three quarters of the rows.
const THRESHOLDS: [(&str, &[&str]); 3] = [
    ("l_discount", &["0.04", "0.05", "0.06", "0.07", "0.08"]),
    ("l_tax", &["0.03", "0.04", "0.05", "0.06", "0.07"]),
    ("l_linenumber", &["3", "4", "5", "6", "7"]),
];

/// One step of a cycle: a gesture line, or a view (`line` is `None`),
/// with the reply the in-process replay gave.
#[derive(Debug, Clone)]
pub struct Step {
    pub line: Option<String>,
    pub reply: String,
}

pub struct Refine {
    pub table: Table,
    pub open_reply: String,
    pub narrow_reply: String,
    pub cycles: [Vec<Step>; 2],
}

/// Number of operations on the session's undo stack.
fn undo_depth(state: &ServerState, sid: u64) -> Result<usize, String> {
    let slot = state.session(sid).map_err(|e| e.to_string())?;
    let slot = slot.lock().map_err(|_| "session lock poisoned")?;
    let engine = slot
        .script
        .session
        .engine_ref()
        .map_err(|e| e.to_string())?;
    Ok(engine.records().len())
}

/// One block: every gesture kind once, in an order that is always valid.
/// The seed picks columns, thresholds and directions; the kinds, and so
/// the share of gestures that force a full evaluation (`modify` when it
/// loosens, `undo`, `redo`, `unselect`), are the same for every seed.
/// Returns the gestures and applies them to the in-process session.
fn block(state: &ServerState, sid: u64, b: usize, rng: &mut Rng) -> Result<Vec<String>, String> {
    let apply = format!("/sessions/{sid}/apply");
    let mut lines = Vec::new();
    let mut send = |line: String| -> Result<String, String> {
        let (status, reply) = call(state, "POST", &apply, line.as_bytes());
        if status != 200 {
            return Err(format!("cycle gesture `{line}` got {status}: {reply}"));
        }
        lines.push(line);
        Ok(reply)
    };
    let (column, steps) = *rng.pick(&THRESHOLDS);
    let t = rng.gen_range(1..steps.len() - 1);
    let reply = send(format!("select {column} <= {}", steps[t]))?;
    let id: u64 = reply
        .split('#')
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no selection id in {reply:?}"))?;
    send(format!("formula F{b}x = {}", rng.pick(&FORMULAS)))?;
    let func = rng.pick(&["sum", "avg", "min", "max"]);
    send(format!("agg {func} {}", rng.pick(&AGG_INPUTS)))?;
    let dir = rng.pick(&["asc", "desc"]);
    send(format!("order {} {dir}", rng.pick(&SORTABLE)))?;
    send(format!("sortclick {}", rng.pick(&SORTABLE)))?;
    let hidden = *rng.pick(&PROJECTABLE);
    send(format!("project {hidden}"))?;
    // Even blocks tighten the selection (a narrowing patch), odd blocks
    // loosen it (a full evaluation).
    let to = if b.is_multiple_of(2) { t - 1 } else { t + 1 };
    send(format!("modify {id} {column} <= {}", steps[to]))?;
    send(format!("reinstate {hidden}"))?;
    send("undo".to_string())?;
    send("redo".to_string())?;
    send(format!("dropcol F{b}x"))?;
    send(format!("unselect {id}"))?;
    Ok(lines)
}

/// Build one cycle on the in-process session `sid` (already narrowed),
/// then record every reply on a pass from the starting state and
/// require a second pass to repeat them: the cycle is periodic.
fn cycle(state: &ServerState, sid: u64, rng: &mut Rng) -> Result<Vec<Step>, String> {
    let apply = format!("/sessions/{sid}/apply");
    let view = format!("/sessions/{sid}/view");
    let base_depth = undo_depth(state, sid)?;
    let mut lines: Vec<String> = Vec::new();
    for b in 0..BLOCKS {
        lines.extend(block(state, sid, b, rng)?);
    }
    let mut clicks: BTreeMap<&str, usize> = BTreeMap::new();
    for line in &lines {
        if let Some(col) = line.strip_prefix("sortclick ") {
            *clicks.entry(col).or_insert(0) += 1;
        }
    }
    let mut closing: Vec<String> = clicks
        .into_iter()
        .filter(|(_, n)| n % 2 == 1)
        .map(|(col, _)| format!("sortclick {col}"))
        .collect();
    for line in &closing {
        call(state, "POST", &apply, line.as_bytes());
    }
    let recorded = undo_depth(state, sid)? - base_depth;
    if recorded > 0 {
        closing.push(format!("undo {recorded}"));
        call(state, "POST", &apply, closing[closing.len() - 1].as_bytes());
    }
    lines.extend(closing);
    let run_pass = || -> Vec<Step> {
        let mut steps = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let (_, reply) = call(state, "POST", &apply, line.as_bytes());
            steps.push(Step {
                line: Some(line.clone()),
                reply,
            });
            if (i + 1) % VIEW_EVERY == 0 {
                let (_, reply) = call(state, "GET", &view, b"");
                steps.push(Step { line: None, reply });
            }
        }
        steps
    };
    let first = run_pass();
    let second = run_pass();
    for (a, b) in first.iter().zip(&second) {
        if a.reply != b.reply {
            return Err(format!(
                "cycle is not periodic at {:?}: {:.80} vs {:.80}",
                a.line, a.reply, b.reply
            ));
        }
    }
    Ok(first)
}

/// Build the sheet and both connections' cycles in-process.
pub fn prepare(scale: f64, seed: u64, tally: &mut Tally) -> Refine {
    let data = ssa_tpch::generate(&ssa_tpch::GenConfig::scale(scale), seed);
    let table = Table::of(&ssa_tpch::views::v_lineitem(&data).expect("v_lineitem builds"));
    crate::inputs::describe(&[&table]);
    let state = local_state(&[&table]);
    let mut open_reply = String::new();
    let mut narrow_reply = String::new();
    let mut cycles: [Vec<Step>; 2] = [Vec::new(), Vec::new()];
    for (conn, out) in cycles.iter_mut().enumerate() {
        let (status, open) = call(&state, "POST", "/sessions?sheet=v_lineitem", b"");
        tally.check(status == 201, || format!("local open got {status}"));
        let sid = session_id(&open).unwrap_or(0);
        open_reply = without_session_id(&open);
        let (status, narrow) = call(
            &state,
            "POST",
            &format!("/sessions/{sid}/apply"),
            NARROW.as_bytes(),
        );
        tally.check(status == 200, || format!("local narrowing got {status}"));
        narrow_reply = narrow;
        let mut rng = Rng::seed_from_u64(seed ^ (0xc0ffee + conn as u64));
        match cycle(&state, sid, &mut rng) {
            Ok(steps) => *out = steps,
            Err(e) => tally.fail(e),
        }
    }
    Refine {
        table,
        open_reply,
        narrow_reply,
        cycles,
    }
}

/// Boot, upload the sheet, and open and narrow both sessions.
pub fn setup(
    r: &Refine,
    bin: &std::path::Path,
    log: &std::path::Path,
) -> Result<(Server, [u64; 2]), String> {
    let server = Server::boot(bin, &["--pool".into(), "2".into()], log)?;
    let mut c = Client::open(server.addr, 0, Instant::now(), false)?;
    c.setup_call(
        "PUT",
        &format!("/sheets/{}", r.table.name),
        r.table.csv.as_bytes(),
    )?;
    let mut sids = [0u64; 2];
    for sid in &mut sids {
        let open = c.setup_call("POST", "/sessions?sheet=v_lineitem", b"")?;
        if without_session_id(open.text()) != r.open_reply {
            return Err(format!("open reply {:?}", open.text()));
        }
        *sid = session_id(open.text()).ok_or("no session id")?;
        let narrow = c.setup_call("POST", &format!("/sessions/{sid}/apply"), NARROW.as_bytes())?;
        if narrow.text() != r.narrow_reply {
            return Err(format!("narrowing reply {:?}", narrow.text()));
        }
    }
    Ok((server, sids))
}

/// Drive both cycles, whole cycles only, until `deadline`. Returns the
/// records, gesture latencies (ms) and tally.
pub fn run(
    r: &Refine,
    addr: SocketAddr,
    sids: &[u64; 2],
    epoch: Instant,
    deadline: Duration,
    traced: bool,
) -> (Vec<Rec>, Vec<f64>, Tally) {
    let outs: Vec<Result<(Client, Vec<f64>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let sid = sids[conn];
                s.spawn(move || connection(r, addr, conn, sid, epoch, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut recs = Vec::new();
    let mut gestures = Vec::new();
    let mut tally = Tally::default();
    for out in outs {
        match out {
            Ok((c, g)) => {
                recs.extend(c.recs);
                tally.merge(c.tally);
                gestures.extend(g);
            }
            Err(e) => tally.fail(e),
        }
    }
    (recs, gestures, tally)
}

fn connection(
    r: &Refine,
    addr: SocketAddr,
    conn: usize,
    sid: u64,
    epoch: Instant,
    deadline: Duration,
    traced: bool,
) -> Result<(Client, Vec<f64>), String> {
    let mut c = Client::open(addr, conn, epoch, traced)?;
    let steps = &r.cycles[conn];
    if steps.is_empty() {
        return Err("no cycle to run".into());
    }
    let apply = format!("/sessions/{sid}/apply");
    let view = format!("/sessions/{sid}/view");
    let mut latencies = Vec::new();
    // Only whole cycles run, so the gesture mix is the cycle's, and the
    // session ends each window in its starting state.
    let mut pos = 0usize;
    while !pos.is_multiple_of(steps.len()) || c.now() < deadline {
        let step = &steps[pos % steps.len()];
        pos += 1;
        let passed = match &step.line {
            Some(line) => {
                let t0 = c.now();
                let ok = c
                    .timed(
                        Class::Gesture,
                        "POST",
                        &apply,
                        line.as_bytes(),
                        None,
                        body_is(&step.reply),
                    )
                    .is_some();
                if ok {
                    latencies.push((c.now() - t0).as_secs_f64() * 1e3);
                }
                ok
            }
            None => c
                .timed(Class::View, "GET", &view, b"", None, body_is(&step.reply))
                .is_some(),
        };
        if !passed {
            // The session may have diverged from the cycle; stop rather
            // than count every later reply as a second failure.
            break;
        }
    }
    Ok((c, latencies))
}

/// Bring the replayer's state to where a window starts: one local
/// session per connection, opened and narrowed. (Windows run whole
/// cycles, which end where they began.)
pub fn restore_sessions(replayer: &mut Replayer, sids: &[u64; 2]) {
    for sid in sids {
        let (_, open) = call(replayer.state, "POST", "/sessions?sheet=v_lineitem", b"");
        let local = session_id(&open).unwrap_or(0);
        replayer.map_session(*sid, local);
        call(
            replayer.state,
            "POST",
            &format!("/sessions/{local}/apply"),
            NARROW.as_bytes(),
        );
    }
}

/// Run the workload, untraced or traced.
pub fn main(cfg: &Config) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let prepared = prepare(cfg.scale, cfg.seed, &mut tally);
    let work = WorkDir::create(&cfg.work_root, &format!("refine-{}", std::process::id()))?;
    let log = work.path.join("server.log");
    let window = cfg.window();
    #[allow(clippy::type_complexity)]
    let mut measure =
        |traced: bool| -> Result<(Metrics, WindowFacts, Vec<Rec>, Vec<f64>, [u64; 2]), String> {
            let ((server, sids), setup_s) =
                timed_setup(|| setup(&prepared, &cfg.server_bin, &log))?;
            let epoch = Instant::now();
            let win = Window::open(&server, epoch);
            let (recs, gestures, t) = run(&prepared, server.addr, &sids, epoch, window, traced);
            tally.merge(t);
            let (m, facts) = win.close(&server, epoch, &recs, &gestures, setup_s);
            Ok((m, facts, recs, gestures, sids))
        };
    if !cfg.trace {
        let runs = (0..cfg.windows)
            .map(|_| measure(false).map(|r| r.0))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Outcome {
            metrics: median_of(&runs),
            tally,
        });
    }
    let (_, untraced, _, _, _) = measure(false)?;
    let (_, traced, recs, _, sids) = measure(true)?;
    let mut m = Metrics::default();
    let parse = csv_parse_ms_per_mb(&[&prepared.table]);
    let state = local_state(&[&prepared.table]);
    let mut replayer = Replayer::new(&state);
    restore_sessions(&mut replayer, &sids);
    replay_all(&mut replayer, &recs, window);
    replayer.layer_metrics(&mut m, &recs);
    m.put("csv.parse_ms_per_mb", parse, "ms/MB");
    m.put("load.client_busy_pct", traced.client_busy_pct, "%");
    m.put("trace.overhead_pct", overhead_pct(untraced, traced), "%");
    class_latency(&mut m, &recs, Class::Gesture, "gesture", 99.0);
    m.put(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    write_spans(cfg, &replayer.tracer);
    Ok(Outcome { metrics: m, tally })
}
