//! A std-only HTTP/1.1 client: one request per connection, read to EOF,
//! with a deadline covering connect, write and read.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest response the client accepts (the biggest `stream-serve` answer,
/// a full sweep, is well under this).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// The `X-Request-Id` header, if present.
    pub request_id: Option<String>,
    /// The body (exactly `Content-Length` bytes when that header is sent).
    pub body: String,
}

/// Why a request produced no response.
#[derive(Debug)]
pub enum Error {
    /// The connection could not be opened (refused, unreachable).
    Connect(io::Error),
    /// The deadline passed before the response was complete.
    Timeout,
    /// The connection failed after it was opened.
    Io(io::Error),
    /// The bytes received are not an HTTP/1.x response.
    Malformed(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Connect(e) => write!(f, "connect failed: {e}"),
            Error::Timeout => f.write_str("timed out"),
            Error::Io(e) => write!(f, "connection failed: {e}"),
            Error::Malformed(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl std::error::Error for Error {}

fn remaining(deadline: Instant) -> Result<Duration, Error> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or(Error::Timeout)
}

fn io_error(e: io::Error) -> Error {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Error::Timeout,
        _ => Error::Io(e),
    }
}

/// Sends `method path` (with `body`, if any) to `addr` on a new connection
/// and reads the response to EOF, all within `timeout`.
///
/// # Errors
///
/// [`Error::Connect`] when the connection is refused, [`Error::Timeout`]
/// past the deadline, [`Error::Io`] on a dropped connection, and
/// [`Error::Malformed`] for bytes that do not parse as a response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, Error> {
    let deadline = Instant::now() + timeout;
    let mut conn = TcpStream::connect_timeout(&addr, timeout).map_err(|e| match e.kind() {
        io::ErrorKind::TimedOut => Error::Timeout,
        _ => Error::Connect(e),
    })?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body.as_bytes());
    conn.set_write_timeout(Some(remaining(deadline)?))
        .map_err(Error::Io)?;
    conn.write_all(&wire).map_err(io_error)?;

    let mut received = Vec::new();
    let mut buf = [0u8; 16 << 10];
    loop {
        conn.set_read_timeout(Some(remaining(deadline)?))
            .map_err(Error::Io)?;
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                received.extend_from_slice(&buf[..n]);
                if received.len() > MAX_RESPONSE_BYTES {
                    return Err(Error::Malformed("response exceeds the size limit"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    parse_response(&received)
}

/// Parses a complete `Connection: close` response.
///
/// # Errors
///
/// [`Error::Malformed`] when the status line, headers or body length are
/// not those of an HTTP/1.x response.
pub fn parse_response(wire: &[u8]) -> Result<Response, Error> {
    let split = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(Error::Malformed("no end of headers"))?;
    let head =
        std::str::from_utf8(&wire[..split]).map_err(|_| Error::Malformed("head is not UTF-8"))?;
    let body = &wire[split + 4..];
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(Error::Malformed("not an HTTP/1.x status line"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|s| (100..=599).contains(s))
        .ok_or(Error::Malformed("bad status code"))?;
    let mut request_id = None;
    let mut content_length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(Error::Malformed("header without a colon"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("x-request-id") {
            request_id = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| Error::Malformed("bad content-length"))?,
            );
        }
    }
    if content_length.is_some_and(|n| n != body.len()) {
        return Err(Error::Malformed("body length differs from content-length"));
    }
    let body =
        String::from_utf8(body.to_vec()).map_err(|_| Error::Malformed("body is not UTF-8"))?;
    Ok(Response {
        status,
        request_id,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use stream_serve::{start, ServerConfig};

    const T: Duration = Duration::from_secs(10);

    #[test]
    fn talks_to_an_in_process_daemon() {
        let handle = start(&ServerConfig {
            addr: None,
            workers: Some(1),
            cache_root: None,
        })
        .unwrap();
        let addr = handle.addr();

        let health = request(addr, "GET", "/health", None, T).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, "{\"ok\":true}");
        let first_id: u64 = health.request_id.as_deref().unwrap().parse().unwrap();

        let missing = request(addr, "GET", "/nope", None, T).unwrap();
        assert_eq!(missing.status, 404);
        let second_id: u64 = missing.request_id.as_deref().unwrap().parse().unwrap();
        assert!(second_id > first_id);

        let query = request(
            addr,
            "POST",
            "/v1/query",
            Some("{\"minimize\":\"area_per_alu\"}"),
            T,
        )
        .unwrap();
        assert_eq!(query.status, 200, "{}", query.body);
        assert!(query
            .body
            .contains("\"schema\":\"stream-scaling.space.v1\""));

        let bad = request(addr, "POST", "/v1/query", Some("{not json"), T).unwrap();
        assert_eq!(bad.status, 400);

        let stop = request(addr, "POST", "/v1/shutdown", None, T).unwrap();
        assert_eq!(stop.status, 200);
        handle.join();
    }

    #[test]
    fn refused_connection_is_a_connect_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let err = request(addr, "GET", "/health", None, T).unwrap_err();
        assert!(matches!(err, Error::Connect(_)), "{err}");
    }

    #[test]
    fn silent_server_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let err = request(addr, "GET", "/health", None, Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, Error::Timeout), "{err}");
        drop(listener);
    }

    #[test]
    fn parser_rejects_truncated_and_foreign_bytes() {
        let ok =
            parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nX-Request-Id: 7\r\n\r\nhi")
                .unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.request_id.as_deref(), Some("7"));
        assert_eq!(ok.body, "hi");
        for wire in [
            &b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhi"[..],
            b"HTTP/1.1 200 OK\r\n",
            b"SSH-2.0\r\n\r\n",
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nbroken header\r\n\r\n",
        ] {
            assert!(matches!(parse_response(wire), Err(Error::Malformed(_))));
        }
    }
}
