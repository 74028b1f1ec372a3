//! A raw HTTP/1.1 keep-alive client on `std::net::TcpStream`.
//!
//! Each request goes out as one buffer: request line, headers and the
//! whole `Content-Length` body, written with a single `write_all`. There
//! is no `Expect: 100-continue` handshake and no retry: a failed or
//! refused request is reported to the caller, which counts it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and raw body bytes.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("<non-utf8 body>")
    }
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Send one request and read its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        let mut out = Vec::with_capacity(128 + body.len());
        write!(
            out,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        out.extend_from_slice(body);
        self.writer.write_all(&out)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before a response".into()));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length: Option<usize> = None;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed inside headers".into()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}
