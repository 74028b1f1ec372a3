//! `live_orders`: an open-loop `OrderFeed` writer beside closed-loop
//! readers on a durable server (`--durable DIR --fsync batch:25`).
//!
//! One connection posts [`FEED_BATCH_ROWS`]-row batches to
//! `/sheets/orders/rows` on a fixed schedule, each timed from when it was
//! due. The other cycles `POST /refresh` → `GET /view` over two reader
//! sessions that hold study tasks 7 and 8, refreshing a session whenever
//! rows it has not seen are acked. Afterwards the server is
//! SIGKILLed and reopened from its snapshot + WAL to count acked rows
//! that did not survive.

use crate::inputs::{feed_batch_csv, order_feed, task_scripts, Table, TaskScript, FEED_BATCH_ROWS};
use crate::replay::{self, call, session_id, without_session_id};
use crate::run::{
    body_is, class_latency, median_of, timed_setup, Class, Client, Rec, Window, WindowFacts,
};
use crate::server::{Server, WorkDir};
use crate::stats::{percentile, Metrics, Tally};
use crate::trace::{csv_parse_ms_per_mb, overhead_pct, Replayed, Replayer};
use crate::{Config, Outcome};
use spreadsheet_algebra::{DurableSheet, FsyncPolicy, SheetOp};
use ssa_relation::rng::Rng;
use ssa_relation::Relation;
use ssa_server::{DurabilityConfig, ServerState, SheetSnapshot};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The server's flush policy on this workload (its default).
pub const FSYNC: &str = "batch:25";
/// `OrderFeed` batches due per second: well inside what the server
/// sustains without a growing backlog.
const FEED_RATE: f64 = 20.0;
/// Study tasks the readers hold (1-based ids).
const READER_TASKS: [usize; 2] = [7, 8];

/// A reader task and what the in-process replay says it returns at the
/// sheet's initial version.
struct Reader {
    script: TaskScript,
    open: String,
    gestures: Vec<String>,
    view: String,
}

struct Prepared {
    table: Table,
    batches: Vec<String>,
    readers: Vec<Reader>,
}

fn prepare(cfg: &Config, tally: &mut Tally) -> Prepared {
    let (table, mut feed) = order_feed(cfg.live_rows, cfg.seed);
    // Enough batches for one window at the configured rate, plus slack.
    let n = (FEED_RATE * cfg.window().as_secs_f64()).ceil() as usize + 8;
    let batches = (0..n).map(|_| feed_batch_csv(&mut feed)).collect();
    crate::inputs::describe(&[&table]);
    let state = replay::local_state(&[&table]);
    let readers = task_scripts()
        .into_iter()
        .filter(|s| READER_TASKS.contains(&s.task.id))
        .map(|script| {
            let (status, open) = call(&state, "POST", "/sessions?sheet=orders", b"");
            tally.check(status == 201, || format!("local open got {status}"));
            let sid = session_id(&open).unwrap_or(0);
            let gestures = script
                .gestures
                .iter()
                .map(|g| {
                    call(
                        &state,
                        "POST",
                        &format!("/sessions/{sid}/apply"),
                        g.as_bytes(),
                    )
                    .1
                })
                .collect();
            let (_, view) = call(&state, "GET", &format!("/sessions/{sid}/view"), b"");
            Reader {
                open: without_session_id(&open),
                script,
                gestures,
                view,
            }
        })
        .collect();
    Prepared {
        table,
        batches,
        readers,
    }
}

fn server_args(dir: &Path, open: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--pool".to_string(),
        "2".into(),
        "--durable".into(),
        dir.display().to_string(),
        "--fsync".into(),
        FSYNC.into(),
    ];
    if let Some(path) = open {
        args.push("--open".into());
        args.push(path.display().to_string());
    }
    args
}

/// Boot a durable server, upload the sheet, open the reader sessions and
/// show each once. Returns the server with the sessions and version.
fn setup(
    p: &Prepared,
    bin: &Path,
    dir: &Path,
    log: &Path,
) -> Result<(Server, ([u64; 2], u64)), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let server = Server::boot(bin, &server_args(dir, None), log)?;
    let mut c = Client::open(server.addr, 0, Instant::now(), false)?;
    let created = c.setup_call("PUT", "/sheets/orders", p.table.csv.as_bytes())?;
    let version = replay::version_of(created.text()).ok_or("no version in create reply")?;
    let mut sids = [0u64; 2];
    for (sid, r) in sids.iter_mut().zip(&p.readers) {
        let open = c.setup_call("POST", "/sessions?sheet=orders", b"")?;
        if without_session_id(open.text()) != r.open {
            return Err(format!("reader open reply {:?}", open.text()));
        }
        *sid = session_id(open.text()).ok_or("no session id")?;
        for (g, want) in r.script.gestures.iter().zip(&r.gestures) {
            let got = c.setup_call("POST", &format!("/sessions/{sid}/apply"), g.as_bytes())?;
            if got.text() != want {
                return Err(format!("reader gesture `{g}` reply {:?}", got.text()));
            }
        }
        let view = c.setup_call("GET", &format!("/sessions/{sid}/view"), b"")?;
        if view.text() != r.view {
            return Err("reader view differs from the in-process view".into());
        }
    }
    Ok((server, (sids, version)))
}

/// What one window did.
struct WindowRun {
    recs: Vec<Rec>,
    /// refresh + view latencies (ms).
    cycles: Vec<f64>,
    views: Vec<Served>,
    acked: usize,
    posted_bytes: usize,
    late_ms: Vec<f64>,
    tally: Tally,
}

/// One view the reader was served: which reader session, at which
/// version, and the body's FNV-1a hash and length.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Served {
    reader: usize,
    version: u64,
    hash: u64,
    len: usize,
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The latest version the writer has had acknowledged, for the reader to
/// wait on.
struct Latest {
    version: Mutex<u64>,
    changed: Condvar,
}

impl Latest {
    fn publish(&self, version: u64) {
        *self.version.lock().expect("version lock poisoned") = version;
        self.changed.notify_all();
    }

    /// Wait until the acknowledged version passes `seen`; false if
    /// `deadline` (an offset from `epoch`) comes first.
    fn wait_past(&self, seen: u64, epoch: Instant, deadline: Duration) -> bool {
        let mut version = self.version.lock().expect("version lock poisoned");
        while *version <= seen {
            let Some(left) = deadline.checked_sub(epoch.elapsed()) else {
                return false;
            };
            version = self
                .changed
                .wait_timeout(version, left)
                .expect("version lock poisoned")
                .0;
        }
        true
    }
}

/// The writer: batch `k` is due at `k / rate` seconds.
fn writer(
    p: &Prepared,
    addr: SocketAddr,
    version0: u64,
    latest: &Latest,
    epoch: Instant,
    deadline: Duration,
    traced: bool,
) -> Result<(Client, usize, usize, Vec<f64>), String> {
    let mut c = Client::open(addr, 0, epoch, traced)?;
    let start = c.now();
    let mut acked = 0usize;
    let mut bytes = 0usize;
    let mut late = Vec::new();
    for k in 0.. {
        let due = start + Duration::from_secs_f64(k as f64 / FEED_RATE);
        if due >= deadline || k >= p.batches.len() {
            break;
        }
        let now = c.now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(c.now().saturating_sub(due).as_secs_f64() * 1e3);
        let body = &p.batches[k];
        let want = format!(
            "{{\"appended\": {FEED_BATCH_ROWS}, \"version\": {}}}\n",
            version0 + k as u64 + 1
        );
        let ok = c
            .timed(
                Class::Rows,
                "POST",
                "/sheets/orders/rows",
                body.as_bytes(),
                Some(due),
                body_is(&want),
            )
            .is_some();
        bytes += body.len();
        if !ok {
            break;
        }
        acked += 1;
        latest.publish(version0 + acked as u64);
    }
    Ok((c, acked, bytes, late))
}

/// The reader: refresh then view each session in turn, each time the
/// feed has acked rows the session has not yet seen, like a dashboard
/// that redraws on change. Every refresh therefore rebases and
/// re-evaluates; none is a no-op.
fn reader(
    addr: SocketAddr,
    sids: [u64; 2],
    version0: u64,
    latest: &Latest,
    epoch: Instant,
    deadline: Duration,
    traced: bool,
) -> Result<(Client, Vec<f64>, Vec<Served>), String> {
    let mut c = Client::open(addr, 1, epoch, traced)?;
    let mut cycles = Vec::new();
    let mut views = Vec::new();
    let mut seen = [version0; 2];
    'outer: while c.now() < deadline {
        for (i, sid) in sids.iter().enumerate() {
            if !latest.wait_past(seen[i], epoch, deadline) {
                break 'outer;
            }
            let t0 = c.now();
            let floor = seen[i] + 1;
            let refreshed = c.timed(
                Class::Refresh,
                "POST",
                &format!("/sessions/{sid}/refresh"),
                b"",
                None,
                |r| match replay::version_of(r.text()) {
                    Some(v) if v >= floor => None,
                    other => Some(format!("refresh version {other:?} below {floor}")),
                },
            );
            let Some(v) = refreshed.and_then(|r| replay::version_of(r.text())) else {
                break 'outer;
            };
            seen[i] = v;
            let Some(view) = c.timed(
                Class::View,
                "GET",
                &format!("/sessions/{sid}/view"),
                b"",
                None,
                |_| None,
            ) else {
                break 'outer;
            };
            cycles.push((c.now() - t0).as_secs_f64() * 1e3);
            views.push(Served {
                reader: i,
                version: v,
                hash: fnv(&view.body),
                len: view.body.len(),
            });
        }
    }
    Ok((c, cycles, views))
}

#[allow(clippy::too_many_arguments)]
fn window(
    p: &Prepared,
    cfg: &Config,
    addr: SocketAddr,
    sids: [u64; 2],
    version0: u64,
    epoch: Instant,
    traced: bool,
) -> WindowRun {
    let deadline = epoch.elapsed() + cfg.window();
    let latest = Latest {
        version: Mutex::new(version0),
        changed: Condvar::new(),
    };
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(p, addr, version0, &latest, epoch, deadline, traced));
        let r = s.spawn(|| reader(addr, sids, version0, &latest, epoch, deadline, traced));
        (
            w.join().unwrap_or_else(|_| Err("writer panicked".into())),
            r.join().unwrap_or_else(|_| Err("reader panicked".into())),
        )
    });
    let mut out = WindowRun {
        recs: Vec::new(),
        cycles: Vec::new(),
        views: Vec::new(),
        acked: 0,
        posted_bytes: 0,
        late_ms: Vec::new(),
        tally: Tally::default(),
    };
    match w {
        Ok((c, acked, bytes, late)) => {
            out.recs.extend(c.recs);
            out.tally.merge(c.tally);
            out.acked = acked;
            out.posted_bytes = bytes;
            out.late_ms = late;
        }
        Err(e) => out.tally.fail(e),
    }
    match r {
        Ok((c, cycles, views)) => {
            out.recs.extend(c.recs);
            out.tally.merge(c.tally);
            out.cycles = cycles;
            out.views = views;
        }
        Err(e) => out.tally.fail(e),
    }
    out
}

/// Check served views: one body per (reader, version), and for a seeded
/// sample of versions the body the in-process replay renders over the
/// initial rows plus the batches acked up to that version.
fn check_views(p: &Prepared, views: &[Served], version0: u64, seed: u64, tally: &mut Tally) {
    let mut by_version: BTreeMap<(usize, u64), Served> = BTreeMap::new();
    for view in views {
        let first = *by_version
            .entry((view.reader, view.version))
            .or_insert(*view);
        tally.check(first == *view, || {
            format!(
                "reader {} saw two bodies at version {}",
                view.reader, view.version
            )
        });
    }
    let keys: Vec<(usize, u64)> = by_version.keys().copied().collect();
    if keys.is_empty() {
        return;
    }
    // Both readers' first and last versions plus four seeded picks,
    // checked in version order so the base only ever grows.
    let mut rng = Rng::seed_from_u64(seed ^ 0x71e5);
    let mut sample: Vec<(usize, u64)> = (0..4).map(|_| *rng.pick(&keys)).collect();
    for reader in 0..2 {
        let mut versions = keys.iter().filter(|k| k.0 == reader);
        sample.extend(versions.next());
        sample.extend(versions.next_back());
    }
    sample.sort_by_key(|&(i, v)| (v, i));
    sample.dedup();
    let mut base = p.table.parse();
    let mut applied = 0usize;
    for (i, v) in sample {
        let need = (v - version0) as usize;
        while applied < need && applied < p.batches.len() {
            let rows = ssa_server::wire::rows_from_csv(base.schema(), &p.batches[applied])
                .expect("feed batch parses");
            base.append_rows(rows).expect("feed rows append");
            applied += 1;
        }
        let want = render_reader(&p.readers[i], &base, v);
        let got = by_version[&(i, v)];
        tally.check(
            fnv(want.as_bytes()) == got.hash && want.len() == got.len,
            || format!("reader {i} view at version {v} differs from the in-process view"),
        );
    }
}

/// The reader's view over `base`, as a fresh session renders it.
fn render_reader(r: &Reader, base: &Relation, version: u64) -> String {
    let mut slot = ssa_server::session_over(&SheetSnapshot {
        name: "orders".into(),
        base: Arc::new(base.clone()),
        version,
    });
    for g in &r.script.gestures {
        let _ = slot.script.execute(g);
    }
    slot.script.execute("show").unwrap_or_default()
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("orders.sheet.wal")).map_or(0, |m| m.len())
}

/// Rows the server reports for the sheet.
fn rows_on(addr: SocketAddr) -> Result<usize, String> {
    let mut c = Client::open(addr, 9, Instant::now(), false)?;
    let meta = c.setup_call("GET", "/sheets/orders", b"")?;
    replay::rows_of(meta.text()).ok_or_else(|| "no row count in sheet metadata".into())
}

/// One server's life: set up, one window, the row-count check, then
/// SIGKILL and reopen from the snapshot + WAL to count acked batches
/// that did not survive.
struct ServerRun {
    metrics: Metrics,
    facts: WindowFacts,
    run: WindowRun,
    sids: [u64; 2],
    wal_ratio: f64,
    lost: usize,
}

fn server_run(
    p: &Prepared,
    cfg: &Config,
    dir: &Path,
    log: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<ServerRun, String> {
    let ((server, (sids, version0)), setup_s) =
        timed_setup(|| setup(p, &cfg.server_bin, dir, log))?;
    let epoch = Instant::now();
    let wal0 = wal_len(dir);
    let win = Window::open(&server, epoch);
    let mut run = window(p, cfg, server.addr, sids, version0, epoch, traced);
    let (metrics, facts) = win.close(&server, epoch, &run.recs, &run.cycles, setup_s);
    let wal_ratio = (wal_len(dir) - wal0) as f64 / run.posted_bytes.max(1) as f64;
    tally.merge(std::mem::take(&mut run.tally));
    check_views(p, &run.views, version0, cfg.seed, tally);
    // Every acked row is on the live sheet, and survives a SIGKILL.
    let want_rows = p.table.rows + run.acked * FEED_BATCH_ROWS;
    let live_rows = rows_on(server.addr)?;
    tally.check(live_rows == want_rows, || {
        format!("sheet has {live_rows} rows, acked {want_rows}")
    });
    Server::kill(server);
    let reopened = Server::boot(
        &cfg.server_bin,
        &server_args(dir, Some(&dir.join("orders.sheet"))),
        log,
    )?;
    let recovered = rows_on(reopened.addr)?;
    Server::kill(reopened);
    let lost = want_rows
        .saturating_sub(recovered)
        .div_ceil(FEED_BATCH_ROWS);
    tally.check(lost == 0, || {
        format!("{lost} acked batches lost across SIGKILL")
    });
    tally.check(recovered <= want_rows, || {
        format!("recovered {recovered} rows, acked {want_rows}")
    });
    Ok(ServerRun {
        metrics,
        facts,
        run,
        sids,
        wal_ratio,
        lost,
    })
}

pub fn main(cfg: &Config) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let p = prepare(cfg, &mut tally);
    let work = WorkDir::create(
        &cfg.work_root,
        &format!("live_orders-{}", std::process::id()),
    )?;
    let dir = work.path.join("durable");
    let log = work.path.join("server.log");
    if !cfg.trace {
        let runs = (0..cfg.windows)
            .map(|_| server_run(&p, cfg, &dir, &log, false, &mut tally).map(|r| r.metrics))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Outcome {
            metrics: median_of(&runs),
            tally,
        });
    }
    let untraced = server_run(&p, cfg, &dir, &log, false, &mut tally)?.facts;
    let traced = server_run(&p, cfg, &dir, &log, true, &mut tally)?;
    let mut metrics = Metrics::default();
    replay_layers(&p, cfg, &work.path, &traced.sids, &traced.run, &mut metrics);
    let m = &mut metrics;
    let run = &traced.run;
    m.put(
        "load.feed_late_ms_p99",
        percentile(&run.late_ms, 99.0),
        "ms",
    );
    m.put("load.client_busy_pct", traced.facts.client_busy_pct, "%");
    m.put(
        "trace.overhead_pct",
        overhead_pct(untraced, traced.facts),
        "%",
    );
    class_latency(m, &run.recs, Class::Rows, "commit", 99.0);
    m.put("refresh_p50_ms", percentile(&run.cycles, 50.0), "ms");
    m.put("refresh_p99_ms", percentile(&run.cycles, 99.0), "ms");
    m.put("wal_bytes_per_user_byte", traced.wal_ratio, "ratio");
    m.put(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m.put("lost_acked_ops", traced.lost as f64, "count");
    Ok(Outcome { metrics, tally })
}

/// Replay the traced window in-process. Three copies of the sheet: the
/// replay state (timed at `route`); a durable twin whose `append_rows`
/// times the host commit (its published snapshot shares the base, so it
/// pays the same copy-on-write clone as the server); and a bare
/// `DurableSheet` logging with `fsync never`, so that its `commit` times
/// the in-memory apply plus WAL append and `sync_now` the fsync alone.
fn replay_layers(
    p: &Prepared,
    cfg: &Config,
    work: &Path,
    sids: &[u64; 2],
    run: &WindowRun,
    m: &mut Metrics,
) {
    let durable = |name: &str| -> ServerState {
        let dir = work.join(name);
        let _ = std::fs::create_dir_all(&dir);
        let state = ServerState::durable(DurabilityConfig {
            dir,
            policy: FsyncPolicy::parse(FSYNC).expect("valid fsync policy"),
            replica: 0,
        });
        replay::host_all(&state, &[&p.table]);
        state
    };
    let parse = csv_parse_ms_per_mb(&[&p.table]);
    let state = durable("replay");
    let twin = durable("twin");
    let bare_dir = work.join("bare");
    let _ = std::fs::create_dir_all(&bare_dir);
    let mut bare = DurableSheet::create(
        bare_dir.join("orders.sheet"),
        0,
        p.table.parse(),
        FsyncPolicy::Never,
    )
    .expect("bare durable sheet");
    let schema = p.table.parse().schema().clone();
    let mut replayer = Replayer::new(&state);
    for (r, sid) in p.readers.iter().zip(sids) {
        let open = || {
            let (_, body) = call(&state, "POST", "/sessions?sheet=orders", b"");
            let local = session_id(&body).unwrap_or(0);
            for g in &r.script.gestures {
                call(
                    &state,
                    "POST",
                    &format!("/sessions/{local}/apply"),
                    g.as_bytes(),
                );
            }
            local
        };
        let (local, shadow) = (open(), open());
        replayer.map_session(*sid, local);
        replayer.shadow_session(local, shadow);
    }
    let mut order: Vec<&Rec> = run.recs.iter().collect();
    order.sort_by_key(|r| r.start);
    let rows: Vec<&Rec> = order
        .iter()
        .copied()
        .filter(|r| r.class == Class::Rows)
        .collect();
    let mut committed = 0usize;
    let mut wal_bytes = Vec::new();
    let t0 = Instant::now();
    for rec in &order {
        if t0.elapsed() >= cfg.window() {
            break;
        }
        // Commits replay in order; a refresh first catches the replay up
        // to the version it saw over TCP.
        let upto = match rec.class {
            Class::Rows => committed + 1,
            Class::Refresh => {
                let now = state.host("orders").map_or(0, |h| h.snapshot().version);
                committed + rec.version.unwrap_or(0).saturating_sub(now) as usize
            }
            _ => committed,
        };
        while committed < upto.min(rows.len()) {
            let rec = rows[committed];
            let req = rec.id();
            let body = &p.batches[committed];
            let client = replayer
                .tracer
                .record(req, "client.rows", rec.start, rec.end);
            let (_, route) = replayer
                .tracer
                .time(req, Some(client), "api.route.rows", || {
                    call(&state, "POST", "/sheets/orders/rows", body.as_bytes())
                });
            replayer.replayed.push(Replayed {
                class: Class::Rows,
                req,
                client_us: rec.latency_ms() * 1e3,
                route_us: replayer.tracer.duration_us(route),
            });
            let batch = ssa_server::wire::rows_from_csv(&schema, body).expect("batch parses");
            if let (Ok(h), Ok(s)) = (twin.host("orders"), state.host("orders")) {
                let base = Arc::clone(&s.snapshot().base);
                let (_, commit) = replayer.tracer.time(req, Some(route), "host.commit", || {
                    h.append_rows(batch.clone())
                });
                let _ = replayer
                    .tracer
                    .time(req, Some(commit), "relation.clone", || {
                        (*base).clone().len()
                    });
                let before = bare.wal_len();
                let (_, wal) = replayer.tracer.time(req, Some(commit), "wal.commit", || {
                    bare.commit(SheetOp::AppendRows { rows: batch }).map(drop)
                });
                let _ = replayer
                    .tracer
                    .time(req, Some(wal), "wal.sync", || bare.sync_now());
                wal_bytes.push((bare.wal_len() - before) as f64);
            }
            committed += 1;
        }
        if rec.class != Class::Rows {
            replayer.replay(rec);
        }
    }
    replayer.layer_metrics(m, &run.recs);
    let t = &replayer.tracer;
    m.put("host.commit_us", t.mean("host.commit"), "us");
    m.put("relation.clone_us", t.mean("relation.clone"), "us");
    m.put("wal.commit_us", t.mean("wal.commit"), "us");
    m.put("wal.sync_us", t.mean("wal.sync"), "us");
    m.put(
        "wal.bytes_per_commit",
        crate::stats::mean(&wal_bytes),
        "bytes",
    );
    m.put("csv.parse_ms_per_mb", parse, "ms/MB");
    let path = cfg.work_root.join(format!("spans-{}.tsv", cfg.workload));
    if let Err(e) = replayer.tracer.write(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}
