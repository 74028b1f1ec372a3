//! What every workload shares: request classes, per-request records, a
//! connection wrapper that times and checks each request, the repeated
//! set-up measurement and the end-to-end metrics of a timed window.

use crate::client::{Conn, Reply};
use crate::server::Server;
use crate::stats::{mean, median, percentile, Metrics, Tally};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The kinds of request the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Gesture,
    View,
    SessionOpen,
    SessionClose,
    Refresh,
    Rows,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Gesture,
        Class::View,
        Class::SessionOpen,
        Class::SessionClose,
        Class::Refresh,
        Class::Rows,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Gesture => "gesture",
            Class::View => "view",
            Class::SessionOpen => "session_open",
            Class::SessionClose => "session_close",
            Class::Refresh => "refresh",
            Class::Rows => "rows",
        }
    }

    /// The `api.route_us.<route>` name of this class.
    pub fn route(self) -> &'static str {
        match self {
            Class::Gesture => "apply",
            other => other.name(),
        }
    }
}

/// One request as sent over TCP. `target` and `body` are kept only in
/// traced runs, where the in-process replay needs them.
#[derive(Debug, Clone)]
pub struct Rec {
    pub conn: usize,
    pub seq: u64,
    pub class: Class,
    pub method: &'static str,
    pub target: String,
    pub body: Vec<u8>,
    /// Offsets from the run's epoch. `due` is when an open-loop request
    /// was scheduled; closed-loop requests are due when sent.
    pub due: Duration,
    pub start: Duration,
    pub end: Duration,
    pub status: u16,
    pub resp_len: usize,
    pub version: Option<u64>,
    /// The session id a `POST /sessions` reply assigned.
    pub session: Option<u64>,
}

impl Rec {
    /// Latency as the user sees it: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.end.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    /// Request id shared by every span of this request.
    pub fn id(&self) -> u64 {
        ((self.conn as u64) << 40) | self.seq
    }
}

/// One client connection that records and checks what it sends.
pub struct Client {
    conn: Conn,
    pub index: usize,
    epoch: Instant,
    traced: bool,
    seq: u64,
    pub recs: Vec<Rec>,
    pub tally: Tally,
}

impl Client {
    pub fn open(
        addr: SocketAddr,
        index: usize,
        epoch: Instant,
        traced: bool,
    ) -> Result<Client, String> {
        Ok(Client {
            conn: Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            index,
            epoch,
            traced,
            seq: 0,
            recs: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// Send an untimed request (set-up); any non-2xx status is an error.
    pub fn setup_call(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Reply, String> {
        let reply = self
            .conn
            .request(method, target, body)
            .map_err(|e| format!("{method} {target}: {e}"))?;
        if !(200..300).contains(&reply.status) {
            return Err(format!(
                "{method} {target}: {} {}",
                reply.status,
                reply.text()
            ));
        }
        Ok(reply)
    }

    /// Send one timed request due at `due` (an offset from the epoch),
    /// record it, and check its reply with `check`, which returns why a
    /// reply is wrong. I/O errors and any status >= 400 count as failures
    /// too. Returns the reply when it passed.
    #[allow(clippy::too_many_arguments)]
    pub fn timed(
        &mut self,
        class: Class,
        method: &'static str,
        target: &str,
        body: &[u8],
        due: Option<Duration>,
        check: impl FnOnce(&Reply) -> Option<String>,
    ) -> Option<Reply> {
        let start = self.epoch.elapsed();
        let result = self.conn.request(method, target, body);
        let end = self.epoch.elapsed();
        self.seq += 1;
        let (status, resp_len, version, session) = match &result {
            Ok(r) => (
                r.status,
                r.body.len(),
                crate::replay::version_of(r.text()),
                crate::replay::session_id(r.text()),
            ),
            Err(_) => (0, 0, None, None),
        };
        self.recs.push(Rec {
            conn: self.index,
            seq: self.seq,
            class,
            method,
            target: if self.traced {
                target.to_string()
            } else {
                String::new()
            },
            body: if self.traced {
                body.to_vec()
            } else {
                Vec::new()
            },
            due: due.unwrap_or(start),
            start,
            end,
            status,
            resp_len,
            version,
            session,
        });
        match result {
            Err(e) => {
                self.tally.fail(format!("{method} {target}: {e}"));
                None
            }
            Ok(reply) if reply.status >= 400 => {
                self.tally.fail(format!(
                    "{method} {target}: {} {}",
                    reply.status,
                    reply.text()
                ));
                None
            }
            Ok(reply) => match check(&reply) {
                Some(why) => {
                    self.tally.fail(format!("{method} {target}: {why}"));
                    None
                }
                None => {
                    self.tally.ok();
                    Some(reply)
                }
            },
        }
    }

    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// Reply check: the body must equal `expected` byte for byte.
pub fn body_is(expected: &str) -> impl FnOnce(&Reply) -> Option<String> + '_ {
    move |reply: &Reply| {
        if reply.body == expected.as_bytes() {
            None
        } else {
            Some(format!(
                "body differs from the in-process reply ({} vs {} bytes): {:.120}",
                reply.body.len(),
                expected.len(),
                reply.text()
            ))
        }
    }
}

/// Run `setup` (boot a server and bring it to the state a window starts
/// from) and time it.
pub fn timed_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let value = setup()?;
    Ok((value, t0.elapsed().as_secs_f64()))
}

/// Each metric's median over independent windows, each on its own
/// freshly booted server: one slow stretch of a shared machine, or one
/// unlucky process, moves a single window but not the median.
pub fn median_of(runs: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    if let Some(first) = runs.first() {
        for (name, _, unit) in first.entries() {
            let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
            out.put(name.clone(), median(&values), unit);
        }
    }
    out
}

/// Resource readings around a timed window.
pub struct Window {
    cpu0: f64,
    client_cpu0: f64,
    pub start: Duration,
}

impl Window {
    pub fn open(server: &Server, epoch: Instant) -> Window {
        Window {
            cpu0: server.cpu_secs(),
            client_cpu0: crate::server::proc_cpu_secs("/proc/self/stat"),
            start: epoch.elapsed(),
        }
    }

    /// Close the window: end-to-end metrics common to every workload.
    /// `actions` are the workload's user-action latencies (ms).
    pub fn close(
        self,
        server: &Server,
        epoch: Instant,
        recs: &[Rec],
        actions: &[f64],
        setup_s: f64,
    ) -> (Metrics, WindowFacts) {
        let wall = (epoch.elapsed() - self.start).as_secs_f64();
        let cpu = server.cpu_secs() - self.cpu0;
        let client_cpu = crate::server::proc_cpu_secs("/proc/self/stat") - self.client_cpu0;
        let lat: Vec<f64> = recs.iter().map(Rec::latency_ms).collect();
        let views: Vec<f64> = recs
            .iter()
            .filter(|r| r.class == Class::View)
            .map(Rec::latency_ms)
            .collect();
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        m.put("actions_per_s", actions.len() as f64 / wall, "1/s");
        m.put("action_mean_ms", mean(actions), "ms");
        m.put("request_mean_ms", mean(&lat), "ms");
        m.put("view_mean_ms", mean(&views), "ms");
        m.put(
            "cpu_ms_per_request",
            cpu * 1e3 / recs.len().max(1) as f64,
            "ms",
        );
        m.put("server_rss_mb", server.peak_rss_mb(), "MB");
        let facts = WindowFacts {
            wall_s: wall,
            client_busy_pct: client_cpu / wall * 100.0,
            mean_request_ms: mean(&lat),
        };
        (m, facts)
    }
}

/// What a window measured besides its metrics.
#[derive(Debug, Clone, Copy)]
pub struct WindowFacts {
    pub wall_s: f64,
    pub client_busy_pct: f64,
    pub mean_request_ms: f64,
}

/// Per-class latency percentiles of a traced window, under
/// workload-specific names (`gesture_p50_ms`, ...).
pub fn class_latency(m: &mut Metrics, recs: &[Rec], class: Class, name: &str, tail: f64) {
    let lat: Vec<f64> = recs
        .iter()
        .filter(|r| r.class == class)
        .map(Rec::latency_ms)
        .collect();
    m.put(format!("{name}_p50_ms"), percentile(&lat, 50.0), "ms");
    m.put(format!("{name}_p{tail}_ms"), percentile(&lat, tail), "ms");
}
