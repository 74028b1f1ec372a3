//! End-to-end tests over real TCP: boot the server on an ephemeral
//! port, drive the wire protocol with a minimal HTTP/1.1 client, and
//! check the session model — shared-snapshot reads, serialized writes,
//! refresh, and the error→status mapping of DESIGN.md §15.

use ssa_server::{serve, ServerHandle, ServerState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const CARS_CSV: &str = "\
Id,Model,Price,Year
1,Jetta,15500,2005
2,Golf,13990,2004
3,Jetta,16990,2006
4,Passat,22400,2006
";

/// Read one HTTP response off a (possibly keep-alive) connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
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
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// Send a request in one write: `write!` straight onto the socket would
/// send each formatted piece as its own segment, and the client's own
/// Nagle stall would then show up in the timings.
fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    stream.write_all(request.as_bytes()).expect("write request");
}

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, body, true);
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

fn boot() -> (Arc<ServerState>, ServerHandle) {
    let state = Arc::new(ServerState::new());
    let handle = serve(Arc::clone(&state), ("127.0.0.1", 0), 4).expect("bind ephemeral port");
    (state, handle)
}

#[test]
fn sheet_lifecycle_and_error_mapping() {
    let (_state, handle) = boot();
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "health body: {body}");

    let (status, body) = request(addr, "PUT", "/sheets/cars", CARS_CSV);
    assert_eq!(status, 201, "create: {body}");
    assert!(body.contains("\"rows\": 4"), "create body: {body}");

    let (status, body) = request(addr, "PUT", "/sheets/cars", CARS_CSV);
    assert_eq!(status, 409, "duplicate create: {body}");

    let (status, body) = request(addr, "GET", "/sheets/cars", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"version\": 0"), "meta body: {body}");

    let (status, body) = request(addr, "GET", "/sheets/nope", "");
    assert_eq!(status, 404, "unknown sheet: {body}");

    let (status, body) = request(addr, "GET", "/sheets/cars/csv", "");
    assert_eq!(status, 200);
    assert!(body.starts_with("Id,Model,Price,Year"), "csv body: {body}");

    // Writer endpoints bump the published version each commit.
    let (status, body) = request(addr, "POST", "/sheets/cars/rows", "5,Beetle,9900,2001\n");
    assert_eq!(status, 200, "append: {body}");
    assert!(body.contains("\"version\": 1"), "append body: {body}");

    let (status, body) = request(addr, "POST", "/sheets/cars/cells", "0 Price 14999");
    assert_eq!(status, 200, "update: {body}");
    assert!(body.contains("\"version\": 2"), "update body: {body}");

    let (status, body) = request(addr, "POST", "/sheets/cars/delete", "4");
    assert_eq!(status, 200, "delete: {body}");
    assert!(body.contains("\"version\": 3"), "delete body: {body}");

    // Client mistakes map to 400/404, not 500.
    let (status, _) = request(addr, "POST", "/sheets/cars/rows", "not,enough\n");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/sheets/cars/cells", "0 NoSuchCol 1");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "PATCH", "/sheets/cars", "");
    assert_eq!(status, 405);

    handle.shutdown();
}

#[test]
fn session_flow_reads_pinned_snapshot_until_refresh() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    let (status, body) = request(addr, "POST", "/sessions?sheet=cars", "");
    assert_eq!(status, 201, "session: {body}");
    assert!(body.contains("\"session\": 1"), "session body: {body}");

    // Query-state ops work and the view reflects them.
    let (status, body) = request(
        addr,
        "POST",
        "/sessions/1/apply",
        "select Price < 20000\ngroup Model asc\nagg avg Price\n",
    );
    assert_eq!(status, 200, "apply: {body}");
    let (status, view) = request(addr, "GET", "/sessions/1/view", "");
    assert_eq!(status, 200);
    assert!(view.contains("Jetta"), "view: {view}");
    assert!(!view.contains("Passat"), "filtered out: {view}");

    let (status, explain) = request(addr, "GET", "/sessions/1/explain", "");
    assert_eq!(status, 200);
    assert!(!explain.is_empty());

    // A writer appends; the session still reads its pinned snapshot.
    request(addr, "POST", "/sheets/cars/rows", "6,Jetta,12000,2003\n");
    let (_, view_before) = request(addr, "GET", "/sessions/1/view", "");
    assert_eq!(view_before, view, "pinned snapshot must not move");

    // Refresh re-pins to the latest snapshot, keeping query state.
    let (status, body) = request(addr, "POST", "/sessions/1/refresh", "");
    assert_eq!(status, 200, "refresh: {body}");
    assert!(body.contains("\"version\": 1"), "refresh body: {body}");
    let (_, view_after) = request(addr, "GET", "/sessions/1/view", "");
    assert!(view_after.contains("12000"), "refreshed view: {view_after}");
    assert!(
        !view_after.contains("Passat"),
        "selection kept: {view_after}"
    );

    // Base edits through a session are refused with 409.
    let (status, body) = request(addr, "POST", "/sessions/1/apply", "feed 7, 'X', 1, 2000");
    assert_eq!(status, 409, "write via session: {body}");
    for cmd in [
        "setcell 0 Price 1",
        "delrows 0",
        "load cars",
        "sql SELECT * FROM cars",
    ] {
        let (status, _) = request(addr, "POST", "/sessions/1/apply", cmd);
        assert_eq!(status, 409, "write command not refused: {cmd}");
    }

    // Bad script input is the client's 400; unknown session is 404.
    let (status, _) = request(addr, "POST", "/sessions/1/apply", "select NoSuchCol > 1");
    assert_eq!(status, 404, "unknown column");
    let (status, _) = request(addr, "POST", "/sessions/1/apply", "bogus");
    assert_eq!(status, 400, "unknown command");
    let (status, _) = request(addr, "GET", "/sessions/99/view", "");
    assert_eq!(status, 404);

    let (status, _) = request(addr, "DELETE", "/sessions/1", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", "/sessions/1/view", "");
    assert_eq!(status, 404, "closed session is gone");

    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    for i in 0..5 {
        send_request(&mut writer, "GET", "/sheets/cars", "", false);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i} on one connection");
        assert!(body.contains("\"sheet\": \"cars\""), "body {i}: {body}");
    }
    // Shutdown must complete even though this keep-alive connection is
    // still open and idle (the worker's read timeout checks the stop
    // flag); the streams are dropped only after the join.
    handle.shutdown();
    drop(writer);
    drop(reader);
}

#[test]
fn concurrent_sessions_see_consistent_views() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    // Several client threads each open a session and read repeatedly
    // while a writer streams appends; every view a session sees must be
    // one of its own pinned states, never a torn intermediate.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, body) = request(addr, "POST", "/sessions?sheet=cars", "");
                assert_eq!(status, 201, "session: {body}");
                let id: u64 = body
                    .split("\"session\": ")
                    .nth(1)
                    .and_then(|r| r.split(',').next())
                    .and_then(|n| n.trim().parse().ok())
                    .expect("session id in body");
                let (_, baseline) = request(addr, "GET", &format!("/sessions/{id}/view"), "");
                for _ in 0..10 {
                    let (status, view) = request(addr, "GET", &format!("/sessions/{id}/view"), "");
                    assert_eq!(status, 200);
                    assert_eq!(view, baseline, "pinned view drifted");
                }
            })
        })
        .collect();
    let writer = std::thread::spawn(move || {
        for i in 0..10 {
            let (status, body) = request(
                addr,
                "POST",
                "/sheets/cars/rows",
                &format!("{},Filler,{},2000\n", 100 + i, 1000 + i),
            );
            assert_eq!(status, 200, "append {i}: {body}");
        }
    });
    for r in readers {
        r.join().expect("reader thread");
    }
    writer.join().expect("writer thread");

    let (_, body) = request(addr, "GET", "/sheets/cars", "");
    assert!(body.contains("\"rows\": 14"), "final rows: {body}");
    assert!(body.contains("\"version\": 10"), "final version: {body}");
    handle.shutdown();
}

/// A CSV upload whose headers and body travel separately, the way curl
/// sends a large PUT: the body follows only once the server has said
/// `100 Continue`.
#[test]
fn expect_continue_upload_waits_for_interim_response() {
    let (_state, handle) = boot();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    // A server that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set client read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    write!(
        writer,
        "PUT /sheets/cars HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
         Expect: 100-continue\r\nConnection: close\r\n\r\n",
        CARS_CSV.len()
    )
    .expect("write headers");

    let mut interim = String::new();
    reader.read_line(&mut interim).expect("read interim status");
    assert_eq!(interim, "HTTP/1.1 100 Continue\r\n");
    let mut blank = String::new();
    reader.read_line(&mut blank).expect("read interim end");
    assert_eq!(blank, "\r\n");

    writer.write_all(CARS_CSV.as_bytes()).expect("write body");
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 201, "upload: {body}");
    assert!(body.contains("\"rows\": 4"), "upload body: {body}");
    handle.shutdown();
}

/// A client that pauses longer than the server's 200 ms read timeout
/// inside a request — mid-headers and between headers and body — is
/// slow, not idle: the request must still be read whole.
#[test]
fn request_paused_past_read_timeout_is_not_split() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set client read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let pause = std::time::Duration::from_millis(450);

    writer
        .write_all(b"PUT /sheets/cars HTTP/1.1\r\nHost: te")
        .expect("write request line");
    std::thread::sleep(pause);
    write!(
        writer,
        "st\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        CARS_CSV.len()
    )
    .expect("write headers");
    std::thread::sleep(pause);
    let (head, tail) = CARS_CSV.split_at(10);
    writer.write_all(head.as_bytes()).expect("write body head");
    std::thread::sleep(pause);
    writer.write_all(tail.as_bytes()).expect("write body tail");

    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 201, "slow upload: {body}");
    assert!(body.contains("\"rows\": 4"), "slow upload body: {body}");

    // The connection stays in step: the next request is read as one.
    send_request(&mut writer, "GET", "/sheets/cars", "", true);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "follow-up: {body}");
    assert!(body.contains("\"rows\": 4"), "follow-up body: {body}");
    handle.shutdown();
}

/// Read everything left on a connection the server should have closed;
/// a server that keeps it open fails the test on the read timeout.
fn read_rest(reader: &mut BufReader<TcpStream>) -> String {
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("server closes the connection");
    String::from_utf8_lossy(&rest).into_owned()
}

fn connect_with_timeout(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set client read timeout");
    let writer = stream.try_clone().expect("clone stream");
    (writer, BufReader::new(stream))
}

/// A chunked body is not read as an empty `Content-Length` body followed
/// by its chunk lines as further requests: the request is refused with
/// one 501, unrouted, and the connection closes.
#[test]
fn transfer_encoding_body_is_refused_once_and_closed() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    let (mut writer, mut reader) = connect_with_timeout(addr);
    let chunk = "Id,Name\n1,a\n";
    write!(
        writer,
        "PUT /sheets/t HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\
         Connection: keep-alive\r\n\r\n{:x}\r\n{chunk}\r\n0\r\n\r\n",
        chunk.len()
    )
    .expect("write chunked request");

    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 501, "chunked upload: {body}");
    assert_eq!(
        read_rest(&mut reader),
        "",
        "a second reply followed the 501"
    );
    let (status, _) = request(addr, "GET", "/sheets/t", "");
    assert_eq!(status, 404, "the refused request must not be routed");
    handle.shutdown();
}

/// The request head is bounded: a 1 MiB header line is refused with 431
/// instead of being buffered whole, and the connection closes.
#[test]
fn oversized_request_head_is_refused() {
    let (_state, handle) = boot();
    let (mut writer, mut reader) = connect_with_timeout(handle.addr());
    // The server stops reading partway, so send from another thread: a
    // blocked or reset write must not hang the test or mask the reply.
    let sender = std::thread::spawn(move || {
        let mut head = b"GET /health HTTP/1.1\r\nHost: test\r\nX-Big: ".to_vec();
        head.resize(head.len() + (1 << 20), b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let _ = writer.write_all(&head);
    });
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 431, "oversized head: {body}");
    assert_eq!(read_rest(&mut reader), "", "connection must close");
    sender.join().expect("sender thread");
    handle.shutdown();
}

/// A `/view` reply too large for the server's 8 KiB write buffer but
/// smaller than one loopback segment (~64 KiB) left in two writes; with
/// Nagle's algorithm on, the second waited for the client's delayed ACK
/// of the first, ~40 ms per view. Nine keep-alive views of a ~28 KB
/// sheet must each take far less.
#[test]
fn mid_size_views_do_not_stall_on_nagle() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    let mut csv = String::from("Id,Name,Price\n");
    for i in 0..1000 {
        csv.push_str(&format!("{i},item_{},{}.{:02}\n", i % 37, i * 7, i % 100));
    }
    let (status, body) = request(addr, "PUT", "/sheets/items", &csv);
    assert_eq!(status, 201, "create: {body}");
    let (status, body) = request(addr, "POST", "/sessions?sheet=items", "");
    assert_eq!(status, 201, "session: {body}");

    let (mut writer, mut reader) = connect_with_timeout(addr);
    let mut times = Vec::new();
    for i in 0..9 {
        let start = std::time::Instant::now();
        send_request(&mut writer, "GET", "/sessions/1/view", "", false);
        let (status, view) = read_response(&mut reader);
        times.push(start.elapsed());
        assert_eq!(status, 200, "view {i}");
        assert!(
            (8 << 10..64 << 10).contains(&view.len()),
            "view {i} is {} bytes, outside the stall window",
            view.len()
        );
    }
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(15),
        "median keep-alive view took {median:?} (all: {times:?})"
    );
    handle.shutdown();
}
