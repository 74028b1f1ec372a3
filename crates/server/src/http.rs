//! Hand-rolled HTTP/1.1 over `std::net` (the workspace is offline — no
//! hyper, no tokio). Just enough of RFC 7230 for the wire protocol in
//! DESIGN.md §15: request line, headers, `Content-Length` bodies,
//! `Expect: 100-continue`, keep-alive, and a bounded
//! thread-per-connection pool fed by an accept loop. A request with a
//! `Transfer-Encoding` body is refused with 501, and one whose head
//! passes `MAX_HEAD` with 431; either way the connection closes.
//!
//! Accepted sockets run with `TCP_NODELAY`: replies are assembled in a
//! `BufWriter`, so Nagle's algorithm only ever delayed the tail of a
//! reply too large for that buffer — by the peer's delayed ACK, ~40 ms.
//!
//! The accept loop carries the `server.accept` failpoint: an injected
//! accept failure drops that one connection attempt and keeps serving —
//! robustness tests prove a transient accept error never kills the
//! server.
//!
//! A worker counts as busy while it routes a request
//! (`ssa_relation::par::Busy`), so a query running on another worker
//! splits its work only onto cores no request occupies. A worker reading
//! a request, writing a reply or idling between keep-alive requests
//! waits on its socket and occupies none.
//!
//! Load shedding: accepted connections queue in a *bounded* channel
//! between the accept loop and the worker pool. When every worker is
//! busy and the backlog is full, the accept loop answers the overflow
//! connection inline with `503 Service Unavailable` + `Retry-After` and
//! closes it — bounded memory under overload, and clients get an
//! explicit retry signal instead of an unbounded queue or a silent
//! reset (`scripts/server_smoke.sh` retries on it with jittered
//! backoff).

use crate::api;
use crate::host::ServerState;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Largest request body accepted (64 MiB): bounds memory per connection.
const MAX_BODY: usize = 64 << 20;

/// Largest request head accepted (64 KiB): the request line plus every
/// header line, line endings included.
const MAX_HEAD: usize = 64 << 10;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/sessions/3/view`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// One response; `write_to` renders the status line + headers + body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Seconds for a `Retry-After` header (load-shedding 503s).
    pub retry_after: Option<u32>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// The load-shedding response: the worker pool and its bounded
    /// backlog are saturated, come back after `retry_after` seconds.
    pub fn unavailable(retry_after: u32) -> Response {
        let mut resp = Response::json(
            503,
            format!(
                "{{\"error\": \"server saturated, retry after {retry_after}s\", \"status\": 503}}\n"
            ),
        );
        resp.retry_after = Some(retry_after);
        resp
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        if let Some(secs) = self.retry_after {
            write!(out, "Retry-After: {secs}\r\n")?;
        }
        out.write_all(b"\r\n")?;
        out.write_all(self.body.as_bytes())
    }
}

/// Percent-decode a query component (enough for `%20`/`+` style input).
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> HashMap<String, String> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Whether a read error is the connection's read timeout firing.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Why no request came off the connection.
enum ReadError {
    /// The socket failed or timed out, or the client hung up mid-request.
    Io(std::io::Error),
    /// The request is refused, unrouted, with this status and reply body.
    Refused(u16, String),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn bad_request(msg: String) -> ReadError {
    ReadError::Refused(400, format!("bad request: {msg}\n"))
}

fn head_too_large() -> ReadError {
    ReadError::Refused(
        431,
        format!("request head larger than {} KiB\n", MAX_HEAD >> 10),
    )
}

/// Read one line of at most `*budget` bytes and take its length off the
/// budget, keeping what was read across read timeouts. Only a timeout
/// before the first byte of a request (`started == false`, `buf` still
/// empty) is an idle keep-alive gap and reaches the caller; once a
/// request has begun, a timeout just means the client is slow, so the
/// read resumes unless the server is stopping. Returns the line without
/// its line ending, or `None` at end of stream.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    started: bool,
    stop: &AtomicBool,
    budget: &mut usize,
) -> Result<Option<String>, ReadError> {
    let mut buf = Vec::new();
    loop {
        let room = *budget - buf.len();
        if room == 0 {
            return Err(head_too_large());
        }
        match reader
            .by_ref()
            .take(room as u64)
            .read_until(b'\n', &mut buf)
        {
            Ok(_) => break,
            Err(e)
                if is_timeout(&e)
                    && (started || !buf.is_empty())
                    && !stop.load(Ordering::SeqCst) => {}
            Err(e) => return Err(e.into()),
        }
    }
    if buf.len() == *budget && buf.last() != Some(&b'\n') {
        return Err(head_too_large());
    }
    *budget -= buf.len();
    if buf.is_empty() {
        return Ok(None);
    }
    let line = String::from_utf8(buf).map_err(|_| bad_request("request is not UTF-8".into()))?;
    Ok(Some(line.trim_end().to_string()))
}

/// Read one request off the connection. `Ok(None)` means the client
/// closed the connection cleanly between requests (keep-alive end); a
/// timeout error means no request has started yet. A client that sent
/// `Expect: 100-continue` is told to go ahead (on `writer`) before the
/// body is read. A body framed by `Transfer-Encoding` is refused before
/// any of it is read: its framing would otherwise be read as the next
/// request.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut impl Write,
    stop: &AtomicBool,
) -> Result<Option<Request>, ReadError> {
    let mut budget = MAX_HEAD;
    let Some(line) = read_line(reader, false, stop, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(bad_request(format!("malformed request line: {line:?}"))),
    };
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut expect_continue = false;
    let mut transfer_encoding = false;
    loop {
        let Some(header) = read_line(reader, true, stop, &mut budget)? else {
            return Ok(None);
        };
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| bad_request(format!("bad Content-Length: {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("expect") {
                expect_continue = value.eq_ignore_ascii_case("100-continue");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                transfer_encoding = true;
            }
        }
    }
    if transfer_encoding {
        return Err(ReadError::Refused(
            501,
            "Transfer-Encoding is not supported; send a Content-Length body\n".into(),
        ));
    }
    if content_length > MAX_BODY {
        return Err(bad_request("request body too large".into()));
    }
    if expect_continue && content_length > 0 {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < body.len() {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(ReadError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && !stop.load(Ordering::SeqCst) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, HashMap::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// Serve one connection until the client closes it, asks to, or the
/// server is stopping. A short read timeout keeps idle keep-alive
/// connections from wedging shutdown: between requests the worker wakes
/// every 200 ms to check the stop flag. Inside a request the same
/// timeout only polls the flag; the partial request is kept.
fn serve_connection(stream: TcpStream, state: &ServerState, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    // Without it, the last segment of a reply larger than the `BufWriter`
    // waits for the ACK of the one before (DESIGN.md §15).
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(writer);
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, &mut writer, stop) {
            Ok(Some(req)) => {
                let keep = req.keep_alive;
                // Intra-query threads leave this worker's core alone
                // while it routes the request (`ssa_relation::par`).
                let resp = {
                    let _busy = ssa_relation::par::Busy::enter();
                    api::route(state, &req)
                };
                if resp
                    .write_to(&mut writer, keep)
                    .and_then(|()| writer.flush())
                    .is_err()
                    || !keep
                {
                    return;
                }
            }
            Ok(None) => return,
            Err(ReadError::Io(e)) if is_timeout(&e) => {
                // Idle between keep-alive requests (or stopping mid-
                // request): wait more unless the server is shutting down.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) => {
                // Best-effort refusal of a malformed or unsupported
                // request, then close.
                let (status, body) = match e {
                    ReadError::Io(e) => (400, format!("bad request: {e}\n")),
                    ReadError::Refused(status, body) => (status, body),
                };
                let _ = Response::text(status, body).write_to(&mut writer, false);
                let _ = writer.flush();
                linger_close(writer.get_ref(), &mut reader);
                return;
            }
        }
    }
}

/// Longest a refused connection is drained before it is dropped.
const LINGER: std::time::Duration = std::time::Duration::from_secs(1);

/// Close after a refusal without losing the reply: send FIN, then read
/// and discard what the client is still sending, for at most `LINGER`,
/// until it hangs up or pauses past the read timeout. Dropping a socket
/// with unread input resets the connection, and the reset can destroy
/// the reply before the client reads it.
fn linger_close(stream: &TcpStream, reader: &mut BufReader<TcpStream>) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = std::time::Instant::now() + LINGER;
    let mut sink = [0u8; 8192];
    while std::time::Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// A running server: accept loop + bounded worker pool, stoppable.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the pool, and join all threads. In-flight
    /// requests finish; queued connections are served before exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The `server.accept` failpoint: a transient fault on one accepted
/// connection. Returns true when the connection should be dropped.
fn accept_fault() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        ssa_relation::fault::check("server.accept").is_err()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        false
    }
}

/// Seconds a shed client is told to wait before retrying.
const SHED_RETRY_AFTER_SECS: u32 = 1;

/// Bind and serve `state` on `addr` with `pool` worker threads and a
/// default accept backlog of `pool * 16 + 16` queued connections.
/// Returns once the listener is live; use the handle to stop.
pub fn serve(
    state: Arc<ServerState>,
    addr: impl ToSocketAddrs,
    pool: usize,
) -> std::io::Result<ServerHandle> {
    let backlog = pool.max(1) * 16 + 16;
    serve_with(state, addr, pool, backlog)
}

/// [`serve`] with an explicit accept-backlog bound: at most `backlog`
/// accepted connections wait for a worker; the overflow connection is
/// answered inline with a 503 + `Retry-After` and closed.
pub fn serve_with(
    state: Arc<ServerState>,
    addr: impl ToSocketAddrs,
    pool: usize,
    backlog: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(backlog.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<JoinHandle<()>> = (0..pool.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("ssa-server-worker-{i}"))
                .spawn(move || loop {
                    let next = {
                        let guard = match rx.lock() {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        guard.recv()
                    };
                    match next {
                        Ok(stream) => serve_connection(stream, &state, &stop),
                        Err(_) => return, // sender dropped: shutdown
                    }
                })
                .expect("spawn worker thread")
        })
        .collect();

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("ssa-server-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                if accept_fault() {
                    continue; // transient fault: drop this connection only
                }
                match stream {
                    Ok(s) => match tx.try_send(s) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(s)) => {
                            // Pool + backlog saturated: shed this
                            // connection with an explicit retry signal
                            // instead of queueing without bound.
                            let mut s = s;
                            let _ = Response::unavailable(SHED_RETRY_AFTER_SECS)
                                .write_to(&mut s, false);
                            let _ = s.flush();
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => break,
                    },
                    Err(_) => continue, // transient OS-level accept error
                }
            }
            // Dropping `tx` here lets the workers drain and exit.
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        workers,
    })
}
