//! Concurrent snapshot isolation for the sheet server (DESIGN.md §15).
//!
//! The server's contract: a session pinned to a published snapshot sees
//! *bitwise-identical* results no matter what the writer does — before,
//! during and after `append_rows`/`update_cell` commits — until the
//! session explicitly refreshes. Randomized interleavings are checked
//! against a single-site oracle (the same script replayed on a private
//! deep copy of the pinned base), and the fault-injected publish path
//! proves a failed write never corrupts what readers see.

use spreadsheet_algebra::Spreadsheet;
use ssa_relation::rng::Rng;
use ssa_relation::{Relation, Tuple};
use ssa_server::{session_over, SheetHost};
use ssa_tpch::{schema, FeedConfig, OrderFeed};
use std::sync::Arc;

/// Serialize against the process-global failpoint registry when it is
/// compiled in (armed sites leak across tests otherwise).
#[cfg(feature = "fault-injection")]
fn test_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
    Some(ssa_relation::fault::lock())
}
#[cfg(not(feature = "fault-injection"))]
fn test_lock() -> Option<()> {
    None
}

fn orders(n: usize, seed: u64) -> (Relation, OrderFeed) {
    let mut feed = OrderFeed::new(
        FeedConfig {
            customers: (n / 50).max(5),
            ..FeedConfig::default()
        },
        seed,
    );
    let mut rel = Relation::new("orders", schema::orders());
    rel.append_rows(feed.batch(n))
        .expect("feed rows fit schema");
    (rel, feed)
}

/// Query-state ops a session may apply; invalid sequences are fine —
/// failed ops are transactional no-ops on both session and oracle.
const OPS: &[&str] = &[
    "group o_orderstatus asc",
    "group o_custkey asc",
    "regroup o_orderpriority desc",
    "ungroup",
    "order o_totalprice desc",
    "select o_totalprice < 150000",
    "select o_totalprice > 50000",
    "agg avg o_totalprice",
    "agg count o_orderkey",
    "formula margin = o_totalprice * 0.1",
    "dedup",
    "undo",
    "redo",
];

#[test]
fn reader_view_is_bitwise_stable_across_writer_commits() {
    let _guard = test_lock();
    let (base, mut feed) = orders(800, 11);
    let host = SheetHost::new(base);

    let mut slot = session_over(&host.snapshot());
    for op in [
        "group o_orderstatus asc",
        "agg avg o_totalprice",
        "select o_totalprice < 150000",
        "order o_totalprice desc",
    ] {
        slot.script.execute(op).expect("session op");
    }
    let baseline = slot.script.execute("show").expect("baseline view");

    // Writer streams commits on another thread; the pinned reader
    // re-evaluates its view between commits and must never see drift.
    std::thread::scope(|scope| {
        let host = &host;
        let rows: Vec<Tuple> = feed.batch(60);
        scope.spawn(move || {
            for (i, chunk) in rows.chunks(10).enumerate() {
                host.append_rows(chunk.to_vec()).expect("append commits");
                let version = host.snapshot().version;
                // A fresh value every round: a no-op update (same value)
                // rightly skips the commit + publish entirely.
                host.update_cell(
                    3,
                    "o_totalprice",
                    ssa_relation::Value::Float(10_000.5 + i as f64),
                )
                .expect("update commits");
                assert_eq!(host.snapshot().version, version + 1, "version is monotone");
            }
        });
        for _ in 0..12 {
            let view = slot.script.execute("show").expect("pinned view");
            assert_eq!(view, baseline, "pinned session saw a writer commit");
        }
    });
    assert_eq!(host.snapshot().version, 12, "6 appends + 6 updates");

    // Refresh re-pins to the latest snapshot: the query state survives
    // (Sec. V: it references base columns, not base rows) and the new
    // rows appear.
    slot.script
        .session
        .engine()
        .expect("engine")
        .sheet_mut()
        .rebase(Arc::clone(&host.snapshot().base))
        .expect("rebase onto latest snapshot");
    let refreshed = slot.script.execute("show").expect("refreshed view");
    assert_ne!(refreshed, baseline, "refresh must surface writer commits");
}

#[test]
fn interleaved_sessions_match_single_site_oracle() {
    let _guard = test_lock();
    let (base, mut feed) = orders(400, 23);
    let host = Arc::new(SheetHost::new(base));
    let mut rng = Rng::seed_from_u64(0x5EED_5E55);

    // Stagger session creation with writer commits so the sessions pin
    // different versions, then run their scripts concurrently.
    let mut planned = Vec::new();
    for _ in 0..6 {
        host.append_rows(feed.batch(25))
            .expect("interleaved append");
        let snapshot = host.snapshot();
        let script: Vec<&str> = (0..10).map(|_| *rng.pick(OPS)).collect();
        planned.push((snapshot, script));
    }

    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (snapshot, script) in &planned {
            let host = Arc::clone(&host);
            handles.push(scope.spawn(move || {
                let mut slot = session_over(snapshot);
                let outputs: Vec<Option<String>> = script
                    .iter()
                    .map(|op| slot.script.execute(op).ok())
                    .collect();
                // Keep the writer busy underneath the readers.
                host.update_cell(1, "o_orderpriority", ssa_relation::Value::str("1-URGENT"))
                    .expect("concurrent update");
                let view = slot.script.execute("show").expect("session view");
                (outputs, view)
            }));
        }
        for h in handles {
            results.push(h.join().expect("session thread"));
        }
    });

    // Oracle: the same script on a private single-site copy of exactly
    // the base the session pinned.
    for ((snapshot, script), (outputs, view)) in planned.iter().zip(&results) {
        let mut oracle = session_over(snapshot);
        // Sever sharing: the oracle runs over its own deep copy.
        oracle
            .script
            .session
            .adopt(spreadsheet_algebra::Engine::from_sheet(Spreadsheet::over(
                (*snapshot.base).clone(),
            )));
        for (op, out) in script.iter().zip(outputs) {
            assert_eq!(
                &oracle.script.execute(op).ok(),
                out,
                "op `{op}` diverged from the single-site oracle"
            );
        }
        assert_eq!(
            &oracle.script.execute("show").expect("oracle view"),
            view,
            "final view diverged from the single-site oracle"
        );
    }
}

/// Refresh differential: a session refreshed onto a newer snapshot shows
/// exactly what a fresh session replaying its script over that snapshot
/// shows, across random interleavings of appends, deletes, cell updates
/// and a replica sync exchange. And when only appends happened since the
/// session's pin, the refresh patches the warm cache (`RowsAppended`)
/// whenever appending the same rows to the pinned sheet would.
#[test]
fn refreshed_sessions_match_fresh_sessions() {
    use spreadsheet_algebra::{DurableSheet, StateDelta};
    use ssa_relation::Value;
    use ssa_server::ServerState;

    let _guard = test_lock();
    let mut rng = Rng::seed_from_u64(0x2EF2_E5B0);
    let mut patched = 0;
    for case in 0..3u64 {
        let (base, mut feed) = orders(300, 40 + case);
        let state = ServerState::new();
        state.create_sheet(base.clone()).expect("host sheet");
        let host = state.host("orders").expect("hosted");
        let peer = SheetHost::from_durable(DurableSheet::in_memory(1, base).expect("peer replica"));

        // Each session: id, the script it ran, and whether every commit
        // since its pin was an append.
        let mut sessions: Vec<(u64, Vec<&str>, bool)> = Vec::new();
        for _ in 0..4 {
            let (id, _) = state.create_session("orders").expect("open session");
            let script: Vec<&str> = (0..rng.gen_range(0..6usize))
                .map(|_| *rng.pick(OPS))
                .collect();
            let slot = state.session(id).expect("session");
            let mut slot = slot.lock().expect("session lock");
            for op in &script {
                let _ = slot.script.execute(op);
            }
            slot.script.execute("show").expect("warm view");
            sessions.push((id, script, true));
        }
        let sync_step = rng.gen_range(4..16usize);
        for step in 0..20usize {
            let ctx = format!("case {case} step {step}");
            let len = host.snapshot().base.len();
            let appended_only = match rng.gen_range(0..6usize) {
                0..=2 => {
                    host.append_rows(feed.batch(rng.gen_range(1..12usize)))
                        .expect("append");
                    true
                }
                3 => {
                    let ids: Vec<u32> = (0..rng.gen_range(1..4usize))
                        .map(|_| rng.gen_range(0..len as u64) as u32)
                        .collect();
                    host.delete_rows(&ids).expect("delete");
                    false
                }
                4 => {
                    let row = rng.gen_range(0..len as u64) as u32;
                    let price = Value::Float(rng.gen_range(1_000..400_000i64) as f64);
                    host.update_cell(row, "o_totalprice", price)
                        .expect("update");
                    false
                }
                _ => true,
            };
            let synced = step == sync_step;
            if synced {
                peer.append_rows(feed.batch(4)).expect("peer append");
                peer.update_cell(2, "o_orderpriority", Value::str("1-URGENT"))
                    .expect("peer update");
                host.sync_exchange(&peer.sync_pull().expect("peer pull"))
                    .expect("sync exchange");
            }
            for s in sessions.iter_mut() {
                s.2 &= appended_only && !synced;
            }

            let pick = rng.gen_range(0..sessions.len());
            let (id, script, only_appends) = &mut sessions[pick];
            if rng.gen_bool(0.4) {
                // Another gesture before the refresh; history commands
                // stay in the opening script, since undo restores the
                // base its snapshot captured.
                let op = *rng.pick(&OPS[..OPS.len() - 2]);
                let slot = state.session(*id).expect("session");
                let _ = slot.lock().expect("session lock").script.execute(op);
                script.push(op);
            }
            let slot = state.session(*id).expect("session");
            let snapshot = host.snapshot();
            // What appending the same rows to the pinned sheet would do.
            let mut probe = {
                let mut slot = slot.lock().expect("session lock");
                slot.script
                    .session
                    .engine()
                    .expect("engine")
                    .sheet()
                    .clone()
            };
            let pinned_len = probe.base().len();
            let expect_patch = *only_appends && pinned_len < snapshot.base.len() && {
                let fresh_rows = snapshot
                    .base
                    .rows()
                    .iter()
                    .skip(pinned_len)
                    .map(Tuple::from);
                probe.append_rows(fresh_rows.collect()).is_ok()
                    && matches!(probe.last_delta(), StateDelta::RowsAppended { .. })
            };
            state.refresh_session(*id).expect("refresh");
            *only_appends = true;
            let (refreshed, delta) = {
                let mut slot = slot.lock().expect("session lock");
                let view = slot.script.execute("show").expect("refreshed view");
                let engine = slot.script.session.engine().expect("engine");
                (view, engine.sheet().last_delta().clone())
            };

            let mut fresh = session_over(&snapshot);
            for op in script.iter() {
                let _ = fresh.script.execute(op);
            }
            let want = fresh.script.execute("show").expect("fresh view");
            assert_eq!(
                refreshed, want,
                "{ctx}: refreshed view diverged from a fresh session"
            );
            if expect_patch {
                assert!(
                    matches!(delta, StateDelta::RowsAppended { .. }),
                    "{ctx}: append-only refresh took {delta}"
                );
                patched += 1;
            }
        }
    }
    assert!(patched > 0, "no refresh reached the append patch path");
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use spreadsheet_algebra::SheetError;
    use ssa_relation::fault::{self, Behavior};
    use ssa_relation::RelationError;

    /// A publish failure (error or panic) after the write was applied
    /// must leave writer and readers agreeing on the pre-write state.
    #[test]
    fn failed_publish_never_corrupts_reader_snapshots() {
        let _guard = fault::lock();
        for behavior in [Behavior::Error, Behavior::Panic] {
            let (base, mut feed) = orders(200, 7);
            let host = SheetHost::new(base);
            let mut slot = session_over(&host.snapshot());
            slot.script
                .execute("group o_orderstatus asc")
                .expect("session op");
            let baseline = slot.script.execute("show").expect("baseline view");
            let before = host.snapshot();

            fault::arm("server.publish", 1, behavior);
            let err = host
                .append_rows(feed.batch(5))
                .expect_err("armed publish must fail");
            match behavior {
                Behavior::Error => assert!(
                    matches!(
                        err,
                        SheetError::Relation(RelationError::FaultInjected { .. })
                    ),
                    "got: {err}"
                ),
                Behavior::Panic => assert!(
                    matches!(
                        err,
                        SheetError::Relation(RelationError::WorkerPanicked { .. })
                    ),
                    "got: {err}"
                ),
                // This test only arms Error/Panic; Abort kills the
                // process and is exercised by the child-process crash
                // suite (crates/server/tests/crash_recovery.rs).
                Behavior::Abort => unreachable!("not armed here"),
            }

            // Readers: same snapshot object, same version, same view.
            let after = host.snapshot();
            assert_eq!(after.version, before.version, "version moved on failure");
            assert!(
                Arc::ptr_eq(&after.base, &before.base),
                "published base swapped on failure"
            );
            assert_eq!(
                slot.script.execute("show").expect("view after failure"),
                baseline,
                "reader view changed across a failed publish"
            );

            // The writer recovered: the failed rows are gone and the
            // next commit publishes exactly one batch at version+1.
            let (appended, version) = host.append_rows(feed.batch(3)).expect("next write");
            assert_eq!(appended, 3);
            assert_eq!(version, before.version + 1);
            assert_eq!(host.snapshot().base.len(), 200 + 3, "failed rows leaked");
        }
    }

    /// A fault on the accept path drops one connection; the server keeps
    /// serving every later connection.
    #[test]
    fn accept_fault_does_not_kill_the_server() {
        use std::io::{Read, Write};
        use std::net::TcpStream;

        let _guard = fault::lock();
        let state = Arc::new(ssa_server::ServerState::new());
        let (base, _) = orders(50, 3);
        state.create_sheet(base).expect("host sheet");
        let handle = ssa_server::serve(Arc::clone(&state), ("127.0.0.1", 0), 2)
            .expect("bind ephemeral port");
        let addr = handle.addr();

        let health = |expect_ok: bool| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(
                stream,
                "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .expect("send");
            let mut out = String::new();
            let got = stream.read_to_string(&mut out).unwrap_or(0);
            if expect_ok {
                assert!(out.contains("200 OK"), "healthy response, got: {out:?}");
            } else {
                assert_eq!(got, 0, "faulted connection should be dropped: {out:?}");
            }
        };

        health(true);
        fault::arm("server.accept", 1, Behavior::Error);
        health(false); // this one is dropped by the armed accept fault
        for _ in 0..3 {
            health(true); // and the server is still alive
        }
        handle.shutdown();
    }
}
