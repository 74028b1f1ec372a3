//! `study_tasks`: the ten Sec. VII tasks as gesture scripts over the
//! TPC-H tables and study views, closed loop on two connections.

use crate::inputs::{study_tables, task_scripts, Table, TaskScript};
use crate::replay::{call, local_state, session_id, without_session_id};
use crate::run::{
    body_is, class_latency, median_of, timed_setup, Class, Client, Rec, Window, WindowFacts,
};
use crate::server::Server;
use crate::server::WorkDir;
use crate::stats::{percentile, Metrics, Tally};
use crate::trace::{csv_parse_ms_per_mb, overhead_pct, replay_all, write_spans, Replayer};
use crate::{Config, Outcome};
use ssa_relation::rng::Rng;
use ssa_relation::{ops, Catalog};
use ssa_server::ServerState;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What the in-process replay says each request of a task returns.
pub struct TaskReplies {
    pub open: String,
    pub gestures: Vec<String>,
    pub view: String,
}

pub struct Study {
    pub tables: Vec<Table>,
    pub scripts: Vec<TaskScript>,
    pub replies: Vec<TaskReplies>,
}

/// Generate the inputs and replay every task in-process: record each
/// reply, and check each task's answer against the SQL reference
/// evaluator under Theorem-1 equivalence.
pub fn prepare(scale: f64, seed: u64, tally: &mut Tally) -> Study {
    let tables = study_tables(scale, seed);
    crate::inputs::describe(&tables.iter().collect::<Vec<_>>());
    let state = local_state(&tables.iter().collect::<Vec<_>>());
    let mut catalog = Catalog::new();
    for t in &tables {
        let snapshot = state.host(&t.name).expect("hosted").snapshot();
        catalog
            .register((*snapshot.base).clone())
            .expect("table names are distinct");
    }
    let scripts = task_scripts();
    let replies = scripts
        .iter()
        .map(|s| replay_task(&state, &catalog, s, tally))
        .collect();
    Study {
        tables,
        scripts,
        replies,
    }
}

fn replay_task(
    state: &ServerState,
    catalog: &Catalog,
    script: &TaskScript,
    tally: &mut Tally,
) -> TaskReplies {
    let id = script.task.id;
    let (status, open) = call(
        state,
        "POST",
        &format!("/sessions?sheet={}", script.sheet),
        b"",
    );
    tally.check(status == 201, || {
        format!("task {id}: local open got {status}")
    });
    let sid = session_id(&open).unwrap_or(0);
    let gestures = script
        .gestures
        .iter()
        .map(|g| {
            let (status, body) = call(
                state,
                "POST",
                &format!("/sessions/{sid}/apply"),
                g.as_bytes(),
            );
            tally.check(status == 200, || {
                format!("task {id}: `{g}` got {status} {body}")
            });
            body
        })
        .collect();
    let (_, view) = call(state, "GET", &format!("/sessions/{sid}/view"), b"");
    let sql_ok = matches_sql(state, sid, catalog, script);
    tally.check(sql_ok.is_ok(), || {
        format!(
            "task {id}: sheet answer differs from SQL: {}",
            sql_ok.clone().err().unwrap_or_default()
        )
    });
    call(state, "DELETE", &format!("/sessions/{sid}"), b"");
    TaskReplies {
        open: without_session_id(&open),
        gestures,
        view,
    }
}

/// The session's answer, projected onto the task's SELECT items and
/// renamed to the SQL output names, against `eval_select`.
fn matches_sql(
    state: &ServerState,
    sid: u64,
    catalog: &Catalog,
    script: &TaskScript,
) -> Result<(), String> {
    let stmt = script.task.stmt();
    let reference = ssa_sql::eval_select(&stmt, catalog).map_err(|e| e.to_string())?;
    let slot = state.session(sid).map_err(|e| e.to_string())?;
    let mut slot = slot
        .lock()
        .map_err(|_| "session lock poisoned".to_string())?;
    let view = slot
        .script
        .session
        .engine()
        .and_then(|e| e.view().cloned())
        .map_err(|e| e.to_string())?;
    let mut answer = ops::project(&view.data, &script.outputs).map_err(|e| e.to_string())?;
    for (item, col) in stmt.items.iter().zip(&script.outputs) {
        if item.output_name() != *col {
            answer
                .schema_mut()
                .rename(col, item.output_name())
                .map_err(|e| e.to_string())?;
        }
    }
    if ssa_sql::equivalent(&stmt, &reference, &answer) {
        Ok(())
    } else {
        Err(format!(
            "{} SQL rows vs {} sheet rows",
            reference.len(),
            answer.len()
        ))
    }
}

/// Boot a server and upload every table.
pub fn setup(
    study: &Study,
    bin: &std::path::Path,
    log: &std::path::Path,
) -> Result<Server, String> {
    let server = Server::boot(bin, &["--pool".into(), "2".into()], log)?;
    let mut c = Client::open(server.addr, 0, Instant::now(), false)?;
    for t in &study.tables {
        c.setup_call("PUT", &format!("/sheets/{}", t.name), t.csv.as_bytes())?;
    }
    Ok(server)
}

/// The seeded task order of one connection: shuffled rounds of all ten.
fn task_order(seed: u64, conn: usize, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ (0x5eed_0000 + conn as u64));
    let mut order = Vec::new();
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
}

/// Run tasks on two connections until `deadline`; returns the request
/// records, task latencies (ms) and tallies.
pub fn run(
    study: &Study,
    addr: SocketAddr,
    seed: u64,
    epoch: Instant,
    deadline: Duration,
    traced: bool,
) -> (Vec<Rec>, Vec<f64>, Tally) {
    let outs: Vec<Result<(Client, Vec<f64>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                s.spawn(move || connection(study, addr, seed, conn, epoch, deadline, traced))
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
    let mut tasks = Vec::new();
    let mut tally = Tally::default();
    for out in outs {
        match out {
            Ok((c, t)) => {
                recs.extend(c.recs);
                tally.merge(c.tally);
                tasks.extend(t);
            }
            Err(e) => tally.fail(e),
        }
    }
    (recs, tasks, tally)
}

fn connection(
    study: &Study,
    addr: SocketAddr,
    seed: u64,
    conn: usize,
    epoch: Instant,
    deadline: Duration,
    traced: bool,
) -> Result<(Client, Vec<f64>), String> {
    let mut c = Client::open(addr, conn, epoch, traced)?;
    let mut latencies = Vec::new();
    let order = task_order(seed, conn, 1000);
    for (i, &t) in order.iter().enumerate() {
        // Only whole rounds run, so every task has the same share.
        if i.is_multiple_of(10) && c.now() >= deadline {
            break;
        }
        let script = &study.scripts[t];
        let want = &study.replies[t];
        let t0 = c.now();
        let open = c.timed(
            Class::SessionOpen,
            "POST",
            &format!("/sessions?sheet={}", script.sheet),
            b"",
            None,
            |r| {
                let got = without_session_id(r.text());
                (got != want.open).then(|| format!("open reply {got:?}, want {:?}", want.open))
            },
        );
        let Some(sid) = open.and_then(|r| session_id(r.text())) else {
            return Ok((c, latencies));
        };
        let mut ok = true;
        for (g, reply) in script.gestures.iter().zip(&want.gestures) {
            let path = format!("/sessions/{sid}/apply");
            ok &= c
                .timed(
                    Class::Gesture,
                    "POST",
                    &path,
                    g.as_bytes(),
                    None,
                    body_is(reply),
                )
                .is_some();
        }
        let path = format!("/sessions/{sid}/view");
        ok &= c
            .timed(Class::View, "GET", &path, b"", None, body_is(&want.view))
            .is_some();
        let path = format!("/sessions/{sid}");
        ok &= c
            .timed(
                Class::SessionClose,
                "DELETE",
                &path,
                b"",
                None,
                body_is("{\"closed\": true}\n"),
            )
            .is_some();
        if ok {
            latencies.push((c.now() - t0).as_secs_f64() * 1e3);
        }
    }
    Ok((c, latencies))
}

/// Run the workload, untraced or traced.
pub fn main(cfg: &Config) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let prepared = prepare(cfg.scale, cfg.seed, &mut tally);
    let work = WorkDir::create(
        &cfg.work_root,
        &format!("study_tasks-{}", std::process::id()),
    )?;
    let log = work.path.join("server.log");
    let window = cfg.window();
    // One window on a freshly booted server.
    let mut measure = |traced: bool| -> Result<(Metrics, WindowFacts, Vec<Rec>, Vec<f64>), String> {
        let (server, setup_s) = timed_setup(|| setup(&prepared, &cfg.server_bin, &log))?;
        let epoch = Instant::now();
        let win = Window::open(&server, epoch);
        let (recs, tasks, t) = run(&prepared, server.addr, cfg.seed, epoch, window, traced);
        tally.merge(t);
        let (m, facts) = win.close(&server, epoch, &recs, &tasks, setup_s);
        Ok((m, facts, recs, tasks))
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
    let (_, untraced, _, _) = measure(false)?;
    let (_, traced, recs, tasks) = measure(true)?;
    let tables: Vec<&Table> = prepared.tables.iter().collect();
    let mut m = Metrics::default();
    let parse = csv_parse_ms_per_mb(&tables);
    let state = local_state(&tables);
    let mut replayer = Replayer::new(&state);
    replay_all(&mut replayer, &recs, window);
    replayer.layer_metrics(&mut m, &recs);
    m.put("csv.parse_ms_per_mb", parse, "ms/MB");
    m.put("load.client_busy_pct", traced.client_busy_pct, "%");
    m.put("trace.overhead_pct", overhead_pct(untraced, traced), "%");
    m.put("tasks_per_s", tasks.len() as f64 / traced.wall_s, "1/s");
    m.put("task_p50_ms", percentile(&tasks, 50.0), "ms");
    m.put("task_p90_ms", percentile(&tasks, 90.0), "ms");
    class_latency(&mut m, &recs, Class::Gesture, "gesture", 99.0);
    m.put(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    write_spans(cfg, &replayer.tracer);
    Ok(Outcome { metrics: m, tally })
}
