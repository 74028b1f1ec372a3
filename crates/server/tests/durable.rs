//! Durability and replication over real TCP (DESIGN.md §17): the WAL-
//! backed writer behind the HTTP API, crash-free recovery via `--open`
//! semantics (`ServerState::open_durable_sheet`), two-replica sync
//! convergence through `/sheets/{name}/sync`, and bounded-backlog load
//! shedding. The fault-gated tests at the bottom pin the ack-ordering
//! contract: an op that was never acked is never in the log.

#[cfg(feature = "fault-injection")]
use spreadsheet_algebra::DurableSheet;
use spreadsheet_algebra::FsyncPolicy;
use ssa_server::{serve, serve_with, DurabilityConfig, ServerHandle, ServerState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

const CARS_CSV: &str = "\
Id,Model,Price,Year
1,Jetta,15500,2005
2,Golf,13990,2004
3,Jetta,16990,2006
4,Passat,22400,2006
";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssa-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn durable_state(dir: &std::path::Path, replica: u64) -> Arc<ServerState> {
    Arc::new(ServerState::durable(DurabilityConfig {
        dir: dir.to_path_buf(),
        policy: FsyncPolicy::Always,
        replica,
    }))
}

/// Read one HTTP response, returning status, headers, and body.
fn read_response_full(reader: &mut BufReader<TcpStream>) -> (u16, Vec<String>, String) {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .expect("read status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code present")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("read header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric content-length");
            }
        }
        headers.push(header.to_string());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (
        status,
        headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .expect("write request");
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, body, true);
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response_full(&mut reader);
    (status, body)
}

fn boot(state: &Arc<ServerState>) -> ServerHandle {
    serve(Arc::clone(state), ("127.0.0.1", 0), 2).expect("bind ephemeral port")
}

#[test]
fn durable_lifecycle_ops_and_reopen_recovery() {
    let dir = tmp_dir("lifecycle");
    let fingerprint = {
        let state = durable_state(&dir, 1);
        let handle = boot(&state);
        let addr = handle.addr();

        let (status, body) = request(addr, "PUT", "/sheets/cars", CARS_CSV);
        assert_eq!(status, 201, "create: {body}");
        assert!(dir.join("cars.sheet").exists(), "snapshot file created");
        assert!(dir.join("cars.sheet.wal").exists(), "wal file created");

        // Base writes and query-state ops all flow through the log.
        let (status, body) = request(addr, "POST", "/sheets/cars/rows", "5,Beetle,9900,2001\n");
        assert_eq!(status, 200, "append: {body}");
        assert!(body.contains("\"version\": 1"), "append body: {body}");

        let (status, body) = request(
            addr,
            "POST",
            "/sheets/cars/ops",
            "select Price < 20000\ngroup Model asc\nagg avg Price 1\n",
        );
        assert_eq!(status, 200, "ops: {body}");
        assert!(body.contains("\"applied\": 3"), "ops body: {body}");
        assert!(body.contains("[1, 2]"), "events tagged replica 1: {body}");

        // A bad line rejects the whole batch: nothing is acked or logged.
        let (status, body) = request(
            addr,
            "POST",
            "/sheets/cars/ops",
            "select Price > 1\nbogus op here\n",
        );
        assert_eq!(status, 400, "bad batch: {body}");

        let (status, fp) = request(addr, "GET", "/sheets/cars/fingerprint", "");
        assert_eq!(status, 200);
        handle.shutdown();
        fp
    };

    // A fresh server recovers snapshot + WAL tail to the same state.
    let state = durable_state(&dir, 1);
    let (name, rows) = state
        .open_durable_sheet(dir.join("cars.sheet"))
        .expect("recover");
    assert_eq!(name, "cars");
    assert_eq!(rows, 5, "acked append survived the reopen");
    let handle = boot(&state);
    let (status, fp) = request(handle.addr(), "GET", "/sheets/cars/fingerprint", "");
    assert_eq!(status, 200);
    assert_eq!(fp, fingerprint, "recovered state is bitwise identical");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_truncates_wal_and_recovery_still_works() {
    let dir = tmp_dir("compact");
    let state = durable_state(&dir, 1);
    let handle = boot(&state);
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);
    request(addr, "POST", "/sheets/cars/ops", "select Price < 20000\n");
    request(addr, "POST", "/sheets/cars/rows", "5,Beetle,9900,2001\n");

    let (status, body) = request(addr, "POST", "/sheets/cars/compact", "");
    assert_eq!(status, 200, "compact: {body}");
    assert!(body.contains("\"compacted\": true"), "compact body: {body}");
    let (_, fp) = request(addr, "GET", "/sheets/cars/fingerprint", "");

    // After compaction a full pull is refused: the peer is behind the
    // compaction horizon and must bootstrap from the snapshot file.
    let (status, body) = request(addr, "GET", "/sheets/cars/sync", "");
    assert_eq!(status, 409, "stale pull after compaction: {body}");
    handle.shutdown();

    let state = durable_state(&dir, 1);
    state
        .open_durable_sheet(dir.join("cars.sheet"))
        .expect("recover compacted");
    let handle = boot(&state);
    let (_, fp2) = request(handle.addr(), "GET", "/sheets/cars/fingerprint", "");
    assert_eq!(fp2, fp, "compacted snapshot recovers the same state");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two durable replicas diverge, then converge bitwise through one
/// pull + two POST exchanges of `/sheets/{name}/sync` (the README
/// quick-start flow).
#[test]
fn two_replica_sync_converges_bitwise() {
    let dir_a = tmp_dir("sync-a");
    let dir_b = tmp_dir("sync-b");
    let state_a = durable_state(&dir_a, 1);
    let state_b = durable_state(&dir_b, 2);
    let handle_a = boot(&state_a);
    let handle_b = boot(&state_b);
    let (addr_a, addr_b) = (handle_a.addr(), handle_b.addr());

    // Same genesis on both; then they diverge independently.
    request(addr_a, "PUT", "/sheets/cars", CARS_CSV);
    request(addr_b, "PUT", "/sheets/cars", CARS_CSV);
    let (status, body) = request(
        addr_a,
        "POST",
        "/sheets/cars/ops",
        "select Price < 20000\nhide Year\n",
    );
    assert_eq!(status, 200, "ops on A: {body}");
    let (status, body) = request(
        addr_b,
        "POST",
        "/sheets/cars/ops",
        "group Model asc\nagg avg Price 1\n",
    );
    assert_eq!(status, 200, "ops on B: {body}");
    let (_, fp_a) = request(addr_a, "GET", "/sheets/cars/fingerprint", "");
    let (_, fp_b) = request(addr_b, "GET", "/sheets/cars/fingerprint", "");
    assert_ne!(fp_a, fp_b, "replicas diverged before sync");

    // Pull A's log, exchange it into B, feed B's reply back into A.
    let (status, pull_a) = request(addr_a, "GET", "/sheets/cars/sync", "");
    assert_eq!(status, 200, "pull A: {pull_a}");
    let (status, reply_b) = request(addr_b, "POST", "/sheets/cars/sync", &pull_a);
    assert_eq!(status, 200, "exchange into B: {reply_b}");
    let (status, reply_a) = request(addr_a, "POST", "/sheets/cars/sync", &reply_b);
    assert_eq!(status, 200, "exchange into A: {reply_a}");

    let (_, fp_a) = request(addr_a, "GET", "/sheets/cars/fingerprint", "");
    let (_, fp_b) = request(addr_b, "GET", "/sheets/cars/fingerprint", "");
    assert_eq!(fp_a, fp_b, "replicas converged bitwise after sync");

    // Sync is idempotent: replaying the same payload changes nothing.
    let (status, _) = request(addr_b, "POST", "/sheets/cars/sync", &pull_a);
    assert_eq!(status, 200, "duplicate delivery");
    let (_, fp_b2) = request(addr_b, "GET", "/sheets/cars/fingerprint", "");
    assert_eq!(fp_b2, fp_b, "duplicate delivery is a no-op");

    handle_a.shutdown();
    handle_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Saturate a pool-of-one, backlog-of-one server: the first connection
/// parks on the only worker, the second fills the accept queue, and the
/// third is shed inline with 503 + Retry-After instead of queueing
/// without bound.
#[test]
fn saturated_accept_queue_sheds_with_503_retry_after() {
    let state = Arc::new(ServerState::new());
    let handle =
        serve_with(Arc::clone(&state), ("127.0.0.1", 0), 1, 1).expect("bind ephemeral port");
    let addr = handle.addr();

    // Pin the single worker to a keep-alive connection: after this
    // response the worker stays in the connection's read loop.
    let busy = TcpStream::connect(addr).expect("connect busy");
    let mut busy_writer = busy.try_clone().expect("clone stream");
    let mut busy_reader = BufReader::new(busy);
    send_request(&mut busy_writer, "GET", "/health", "", false);
    let (status, _, _) = read_response_full(&mut busy_reader);
    assert_eq!(status, 200, "worker pinned");

    // Fill the single backlog slot (never read — it just sits queued).
    let queued = TcpStream::connect(addr).expect("connect queued");

    // The next connection must be shed on the accept thread. Connects
    // race the accept loop's try_send, so allow a few attempts.
    let mut shed = None;
    for _ in 0..50 {
        let stream = TcpStream::connect(addr).expect("connect shed");
        let mut reader = BufReader::new(stream);
        let (status, headers, body) = read_response_full(&mut reader);
        if status == 503 {
            shed = Some((headers, body));
            break;
        }
        // Not shed: this connection consumed the freed backlog slot.
        // It is never served (worker still pinned), so drop it and let
        // the next connect find the queue full again.
    }
    let (headers, body) = shed.expect("a connection was shed with 503");
    assert!(body.contains("saturated"), "shed body: {body}");
    assert!(
        headers
            .iter()
            .any(|h| h.to_ascii_lowercase().starts_with("retry-after:")),
        "Retry-After header present: {headers:?}"
    );

    drop(queued);
    handle.shutdown();
    drop(busy_writer);
    drop(busy_reader);
}

/// §17 ack-ordering pin (fault-gated): a crash between the WAL append
/// and the snapshot publish must not ack — and the un-acked op must not
/// be replayed into recovered state.
#[cfg(feature = "fault-injection")]
#[test]
fn publish_failure_never_acks_and_leaves_no_trace() {
    use ssa_relation::fault;
    let dir = tmp_dir("publish-fault");
    let state = durable_state(&dir, 1);
    state
        .create_sheet(ssa_relation::csv::parse_csv("cars", CARS_CSV).expect("csv"))
        .expect("create");
    let host = state.host("cars").expect("host");
    let before = host.fingerprint();
    let version_before = host.snapshot().version;

    let _guard = fault::lock();
    fault::reset();
    fault::arm("server.publish", 1, fault::Behavior::Error);
    let err = host
        .append_rows(vec![ssa_relation::csv::parse_csv(
            "x",
            "Id,Model,Price,Year\n9,Ghost,1,1999\n",
        )
        .expect("csv")
        .rows()[0]
            .to_vec()
            .into()])
        .expect_err("publish failure must not ack");
    fault::reset();
    assert!(err.to_string().contains("server.publish"), "{err}");

    // No trace anywhere: writer state, published snapshot, or log.
    assert_eq!(host.fingerprint(), before, "writer rolled back");
    assert_eq!(host.snapshot().version, version_before, "snapshot kept");
    let recovered =
        DurableSheet::open(dir.join("cars.sheet"), 1, FsyncPolicy::Always).expect("reopen");
    assert!(
        recovered.replica().log().is_empty(),
        "un-acked op is not in the log"
    );
    assert_eq!(recovered.replica().sheet().base_arc().len(), 4);

    // The host is healthy afterwards; the retried op acks and persists.
    let (_, version) = host
        .append_rows(vec![ssa_relation::csv::parse_csv(
            "x",
            "Id,Model,Price,Year\n9,Ghost,1,1999\n",
        )
        .expect("csv")
        .rows()[0]
            .to_vec()
            .into()])
        .expect("retry");
    assert_eq!(version, version_before + 1);
    drop(host);
    drop(state);
    let recovered =
        DurableSheet::open(dir.join("cars.sheet"), 1, FsyncPolicy::Always).expect("reopen");
    assert_eq!(recovered.replica().log().len(), 1, "acked op is in the log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// §17 ack-ordering pin (fault-gated): a failed WAL append surfaces as
/// a client error with the in-memory apply rolled back — version and
/// snapshot unchanged.
#[cfg(feature = "fault-injection")]
#[test]
fn wal_append_failure_rejects_without_applying() {
    use spreadsheet_algebra::SheetOp;
    use ssa_relation::fault;
    let dir = tmp_dir("append-fault");
    let state = durable_state(&dir, 1);
    state
        .create_sheet(ssa_relation::csv::parse_csv("cars", CARS_CSV).expect("csv"))
        .expect("create");
    let host = state.host("cars").expect("host");
    let before = host.fingerprint();

    let _guard = fault::lock();
    fault::reset();
    fault::arm("wal.append", 1, fault::Behavior::Error);
    let err = host
        .apply_op(SheetOp::parse_command("select Price < 20000").expect("parse"))
        .expect_err("append failure must reject");
    fault::reset();
    assert!(err.to_string().contains("wal.append"), "{err}");
    assert_eq!(host.fingerprint(), before, "apply rolled back");
    assert_eq!(host.snapshot().version, 0, "snapshot untouched");

    host.apply_op(SheetOp::parse_command("select Price < 20000").expect("parse"))
        .expect("retry succeeds");
    let _ = std::fs::remove_dir_all(&dir);
}
