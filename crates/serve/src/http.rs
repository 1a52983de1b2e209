//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`]: enough
//! to parse one request (line + headers + `Content-Length` body) and write
//! one response, with hard limits on every dimension so a misbehaving
//! client cannot wedge a worker. Connections are `Connection: close` — one
//! request per connection keeps the daemon's concurrency model identical to
//! its permit accounting.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request line + headers, bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body, bytes.
const MAX_BODY: usize = 1024 * 1024;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Decoded path, query string stripped (`/v1/run/fig13`).
    pub path: String,
    /// Raw query string after `?`, empty if absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

impl Request {
    /// The value of `key` in the query string (`?format=text&x=1`),
    /// percent-decoding not applied (the daemon's values are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be served as HTTP.
#[derive(Debug)]
pub enum RequestError {
    /// Socket-level failure; no response is possible.
    Io(io::Error),
    /// Malformed or over-limit request; respond with this status.
    Bad {
        /// HTTP status code to answer with.
        status: u16,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`RequestError::Bad`] for malformed/over-limit requests (the caller
/// should answer with the carried status), [`RequestError::Io`] when the
/// socket itself failed.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    parse_request(&mut BufReader::new(stream))
}

/// Parses one request from `reader`; [`read_request`] without the socket.
fn parse_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    // The head is read through a cap one byte past the limit, so a line
    // that never ends is cut off there instead of buffered for as long as
    // the client keeps sending.
    let mut head = Vec::new();
    let mut capped = reader.by_ref().take(MAX_HEAD as u64 + 1);
    loop {
        let start = head.len();
        let n = capped.read_until(b'\n', &mut head)?;
        if head.len() > MAX_HEAD {
            return Err(RequestError::Bad {
                status: 431,
                reason: "request head too large",
            });
        }
        if n == 0 {
            return Err(RequestError::Bad {
                status: 400,
                reason: "truncated request",
            });
        }
        if matches!(&head[start..], b"\r\n" | b"\n") {
            break;
        }
    }
    let head = String::from_utf8(head).map_err(|_| RequestError::Bad {
        status: 400,
        reason: "request head is not UTF-8",
    })?;

    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Bad {
            status: 400,
            reason: "malformed request line",
        });
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad {
            status: 505,
            reason: "unsupported HTTP version",
        });
    }

    let mut content_length = 0usize;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| RequestError::Bad {
                status: 400,
                reason: "bad content-length",
            })?;
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::Bad {
            status: 413,
            reason: "request body too large",
        });
    }

    let mut body_bytes = vec![0u8; content_length];
    reader.read_exact(&mut body_bytes)?;
    let body = String::from_utf8(body_bytes).map_err(|_| RequestError::Bad {
        status: 400,
        reason: "request body is not UTF-8",
    })?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
    })
}

/// One response to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra response headers (name, value); names must be lowercase
    /// ASCII tokens. `X-Request-Id` rides here.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body,
        }
    }

    /// A response in Prometheus text exposition format 0.0.4.
    pub fn prometheus(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body,
        }
    }

    /// Adds a response header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Writes `response` and flushes; the connection is then closed by drop.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: impl AsRef<[u8]>) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.as_ref().to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A rejected request is closed before the client finishes
            // sending, so the writer may see the connection reset.
            let _ = s.write_all(&raw).and_then(|()| s.flush());
            s // keep alive until the reader is done
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        drop(conn);
        drop(writer.join().unwrap());
        req
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = roundtrip("GET /v1/run/fig13?format=text&x=1 HTTP/1.1\r\nhost: h\r\n\r\n")
            .expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/run/fig13");
        assert_eq!(req.query_param("format"), Some("text"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("absent"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body() {
        let body = "{\"a\":1}";
        let raw = format!(
            "POST /v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = roundtrip(&raw).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body);
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            roundtrip("NOT-HTTP\r\n\r\n"),
            Err(RequestError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            roundtrip("GET / HTTP/2.0\r\n\r\n"),
            Err(RequestError::Bad { status: 505, .. })
        ));
        let huge = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "y".repeat(MAX_HEAD));
        assert!(matches!(
            roundtrip(&huge),
            Err(RequestError::Bad { status: 431, .. })
        ));
        // A head line with no newline is cut off at the limit, not
        // buffered until the socket times out.
        assert!(matches!(
            roundtrip("G".repeat(64 * 1024)),
            Err(RequestError::Bad { status: 431, .. })
        ));
        assert!(matches!(
            roundtrip(b"GET /\xff\xfe HTTP/1.1\r\n\r\n"),
            Err(RequestError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            roundtrip("POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"),
            Err(RequestError::Bad { status: 413, .. })
        ));
    }

    #[test]
    fn response_wire_format() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            buf
        });
        let (mut conn, _) = listener.accept().unwrap();
        write_response(
            &mut conn,
            &Response::json(200, "{\"ok\":true}".to_string())
                .with_header("x-request-id", "7".to_string()),
        )
        .unwrap();
        drop(conn);
        let wire = reader.join().unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "{wire}");
        assert!(wire.contains("content-type: application/json\r\n"));
        assert!(wire.contains("content-length: 11\r\n"));
        assert!(wire.contains("x-request-id: 7\r\n"));
        assert!(wire.ends_with("{\"ok\":true}"));
    }

    /// Request-shaped pieces and garbage that the fuzzer strings together,
    /// so inputs reach the header and body parsers and not only the
    /// request-line rejection.
    const FRAGMENTS: [&[u8]; 14] = [
        b"GET / HTTP/1.1\r\n",
        b"POST /v1/query?x=1 HTTP/1.0\r\n",
        b"GET / HTTP/2.0\r\n",
        b"content-length: 5\r\n",
        b"content-length: 2000000\r\n",
        b"Content-Length: 99999999999999999999999\r\n",
        b"content-length: five\r\n",
        b"\r\n",
        b"\n",
        b"\xff\xfe",
        b"x: y",
        b"ab",
        b" ",
        b"\0",
    ];

    /// An input strung together from [`FRAGMENTS`], one per script byte.
    fn spliced(script: &[u8]) -> Vec<u8> {
        script
            .iter()
            .flat_map(|&b| FRAGMENTS[usize::from(b) % FRAGMENTS.len()].iter().copied())
            .collect()
    }

    /// Characters the round-trip property draws each request part from.
    const METHOD_CHARS: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const PATH_CHARS: &str = "abcxyz0189/-_.%~";
    const QUERY_CHARS: &str = "abz019=&-_.%/";
    const BODY_CHARS: &str = "ab{}[]\":,  \r\n\té€😀";

    fn pick(bytes: &[u8], alphabet: &str) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        bytes
            .iter()
            .map(|&b| chars[usize::from(b) % chars.len()])
            .collect()
    }

    /// The wire form of `req`, as a client sends it.
    fn render(req: &Request) -> Vec<u8> {
        let target = if req.query.is_empty() {
            req.path.clone()
        } else {
            format!("{}?{}", req.path, req.query)
        };
        format!(
            "{} {target} HTTP/1.1\r\nhost: h\r\ncontent-length: {}\r\n\r\n{}",
            req.method,
            req.body.len(),
            req.body
        )
        .into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_are_rejected_cleanly(
            raw in vec(any::<u8>(), 0..20_000),
            script in vec(any::<u8>(), 0..32),
        ) {
            // Without a newline the head never ends: truncated below the
            // limit, too large past it.
            let line: Vec<u8> = raw.iter().copied().filter(|&b| b != b'\n').collect();
            let expected = if line.len() > MAX_HEAD { 431 } else { 400 };
            let r = parse_request(&mut line.as_slice());
            prop_assert!(
                matches!(r, Err(RequestError::Bad { status, .. }) if status == expected),
                "{} newline-free bytes gave {:?}",
                line.len(),
                r
            );
            for input in [raw, spliced(&script)] {
                let mut reader = Cursor::new(input.as_slice());
                let r = parse_request(&mut reader);
                prop_assert!(
                    matches!(
                        r,
                        Ok(_) | Err(RequestError::Io(_))
                            | Err(RequestError::Bad { status: 400 | 413 | 431 | 505, .. })
                    ),
                    "{:?} gave {:?}",
                    String::from_utf8_lossy(&input),
                    r
                );
                // Reads stay inside the head and body limits.
                prop_assert!(reader.position() <= (MAX_HEAD + 1 + MAX_BODY) as u64);
            }
        }

        #[test]
        fn oversize_content_length_is_413_before_the_body_is_read(
            excess in any::<u64>(),
            shift in 0u32..64,
            body in vec(any::<u8>(), 0..64),
        ) {
            // Values up to `usize::MAX`: a body buffer sized from one
            // before the check would abort the test process.
            let len = (MAX_BODY as u64 + 1)
                .saturating_add(excess >> shift)
                .min(usize::MAX as u64);
            let head = format!("POST /v1/query HTTP/1.1\r\ncontent-length: {len}\r\n\r\n");
            let input = [head.as_bytes(), &body].concat();
            let mut reader = Cursor::new(input.as_slice());
            let r = parse_request(&mut reader);
            prop_assert!(
                matches!(r, Err(RequestError::Bad { status: 413, .. })),
                "content-length {} gave {:?}",
                len,
                r
            );
            prop_assert_eq!(reader.position(), head.len() as u64);
        }

        #[test]
        fn a_rendered_request_parses_back_to_itself(
            method in vec(any::<u8>(), 1..8),
            path in vec(any::<u8>(), 0..24),
            query in vec(any::<u8>(), 0..24),
            body in vec(any::<u8>(), 0..64),
        ) {
            let req = Request {
                method: pick(&method, METHOD_CHARS),
                path: format!("/{}", pick(&path, PATH_CHARS)),
                query: pick(&query, QUERY_CHARS),
                body: pick(&body, BODY_CHARS),
            };
            let wire = render(&req);
            let parsed = parse_request(&mut wire.as_slice());
            prop_assert!(
                matches!(&parsed, Ok(r) if *r == req),
                "{:?} parsed as {:?}",
                req,
                parsed
            );
        }
    }
}
