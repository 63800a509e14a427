//! Hand-rolled HTTP/1.1 framing on `std::io` — request parsing with
//! hard limits, and response writing. No registry crates, no async
//! runtime: the front runs on blocking sockets, which is exactly what
//! the hand-rolled-future serving layer beneath it expects.
//!
//! The parser is deliberately strict and bounded — this is the
//! process's network-facing edge:
//!
//! * the request line + headers must fit in
//!   [`MAX_HEADER_BYTES`] (`431` otherwise);
//! * bodies are framed by `Content-Length` only (chunked encoding is
//!   refused with `501`), must be declared (`411`), and must fit the
//!   server's body cap (`413`) **before** a byte of body is read;
//! * truncated requests (client hangs up mid-headers or mid-body) are
//!   typed `400`s, so the connection handler can answer what is
//!   answerable and close — never tear down the listener.
//!
//! ## Streamed responses
//!
//! *Responses* may additionally be written with `Transfer-Encoding:
//! chunked` framing ([`write_chunked_head`] / [`write_chunk`] /
//! [`finish_chunked`]) — the server uses this to stream sweep budget
//! points as they complete. Mid-stream errors — after the status line
//! is long gone — are reported in the terminating trailer section as an
//! `x-fc-error` trailer; [`finish_chunked`] writes it.
//!
//! Connection reuse after a stream follows one rule: a **complete**
//! stream (its terminal chunk written, with or without the error
//! trailer) leaves the connection open for the next request, like any
//! other response; an **abandoned** one closes it. Keep-alive after a
//! stream is safe because every response the client side reads is
//! framed by one incremental reader ([`Conn`](super::client::Conn)'s)
//! that consumes exactly the terminal chunk and its trailer section and
//! keeps any bytes past them for the next head, so the next response's
//! framing never depends on a guess about where the stream ended. A
//! stream the server stops part-way (the client hung up, a write
//! failed) has no terminal chunk, so its connection cannot be reused
//! and is closed — which is also how a hangup cancels the points still
//! solving. A client that asked for `Connection: close`, and every
//! connection during shutdown, still closes after the stream.
//!
//! ## One write per message
//!
//! Every writer here ([`write_response`], [`write_chunked_head`],
//! [`write_chunk`], [`finish_chunked`], and the client's
//! [`write_request`](super::client::write_request)) assembles its whole
//! message in one buffer and hands it to the socket in a single
//! `write_all`. Both ends set `TCP_NODELAY`, so every `write` on a
//! socket leaves as its own segment: a head formatted piece by piece
//! onto the socket cost about ten sends. A caller with several messages
//! ready at once (a chunked head, its opening chunk and every budget
//! point already solved; or the chunks one upstream read brought into
//! the router) stages them in a `Vec<u8>` and writes that once. The
//! bytes on the wire are the same either way.

use std::io::{self, BufRead, Write};

/// Cap on the request line + headers, bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, as sent (e.g. `GET`).
    pub method: String,
    /// The request target, path + optional query, as sent.
    pub target: String,
    /// Headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (query stripped).
    pub fn path(&self) -> &str {
        self.target.split(['?', '#']).next().unwrap_or("")
    }

    /// The value of query parameter `name` (`""` for a bare flag like
    /// `?stream`); `None` when absent. No percent-decoding — the
    /// parameters this front defines are plain tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.target.split('#').next().unwrap_or("");
        let (_, query) = query.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first byte of a request — the client is
    /// simply done with the connection. Not an error to report.
    Closed,
    /// The socket idled past its read timeout between requests (no
    /// request bytes consumed). The handler decides whether to keep
    /// waiting or reap the connection.
    IdleTimeout,
    /// An I/O failure mid-request (reset, mid-request timeout).
    Io(io::Error),
    /// A malformed or unacceptable request. `status`/`reason` map
    /// straight onto the 4xx/5xx response; the connection must close
    /// afterwards (framing is unknown past the error point).
    Malformed {
        /// Response status code.
        status: u16,
        /// Short machine-readable slug (also the response `error`
        /// field).
        reason: &'static str,
    },
}

impl HttpError {
    fn malformed(status: u16, reason: &'static str) -> Self {
        Self::Malformed { status, reason }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::IdleTimeout => write!(f, "idle timeout"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Malformed { status, reason } => write!(f, "{status} {reason}"),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request. `max_body` caps the declared `Content-Length`.
///
/// Timeout semantics: a timeout before the first byte is
/// [`HttpError::IdleTimeout`] (the connection is merely idle); a
/// timeout after is a `408` [`HttpError::Malformed`] — the client
/// started a request and stalled.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let head = read_head(reader)?;
    let mut lines = head.split(|&b| b == b'\n').map(|line| {
        // Tolerate bare-LF clients; strict CRLF is the common case.
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        std::str::from_utf8(line)
    });

    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::malformed(400, "empty request"))?
        .map_err(|_| HttpError::malformed(400, "request line is not UTF-8"))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(HttpError::malformed(400, "malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::malformed(400, "malformed method"));
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(HttpError::malformed(505, "http version not supported")),
    };

    let mut headers = Vec::new();
    for line in lines {
        let line = line.map_err(|_| HttpError::malformed(400, "header is not UTF-8"))?;
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::malformed(400, "malformed header"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::malformed(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let connection = header("connection").unwrap_or("").to_ascii_lowercase();
    let close = connection.split(',').any(|t| t.trim() == "close")
        || (http10 && !connection.split(',').any(|t| t.trim() == "keep-alive"));

    if header("transfer-encoding").is_some() {
        return Err(HttpError::malformed(501, "transfer-encoding not supported"));
    }
    let body = match header("content-length") {
        Some(value) => {
            let declared: usize = value
                .trim()
                .parse()
                .map_err(|_| HttpError::malformed(400, "malformed content-length"))?;
            if declared > max_body {
                // Reject on the declaration — never buffer an oversized
                // body just to refuse it.
                return Err(HttpError::malformed(413, "body too large"));
            }
            let mut body = vec![0u8; declared];
            reader.read_exact(&mut body).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    HttpError::malformed(400, "truncated body")
                } else if is_timeout(&e) {
                    HttpError::malformed(408, "body read timed out")
                } else {
                    HttpError::Io(e)
                }
            })?;
            body
        }
        None if matches!(method, "POST" | "PUT" | "PATCH") => {
            return Err(HttpError::malformed(411, "content-length required"));
        }
        None => Vec::new(),
    };

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
        close,
    })
}

/// Reads up to and including the blank line terminating the header
/// block, capped at [`MAX_HEADER_BYTES`].
fn read_head(reader: &mut impl BufRead) -> Result<Vec<u8>, HttpError> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    HttpError::Closed
                } else {
                    HttpError::malformed(400, "truncated headers")
                });
            }
            Ok(_) => {
                head.push(byte[0]);
                if head.len() > MAX_HEADER_BYTES {
                    return Err(HttpError::malformed(431, "headers too large"));
                }
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    return Ok(head);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(if head.is_empty() {
                    HttpError::IdleTimeout
                } else {
                    HttpError::malformed(408, "headers read timed out")
                });
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// The standard reason phrase for the status codes this front emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Hands one complete message to `w` in a single `write_all` and
/// flushes: on a `TCP_NODELAY` socket every `write` is its own segment,
/// so a message assembled piece by piece on the socket would cost one
/// send per piece.
fn send(w: &mut impl Write, message: &[u8]) -> io::Result<()> {
    w.write_all(message)?;
    w.flush()
}

/// Writes one `application/json` response with `Content-Length`
/// framing; `close` adds `Connection: close`.
pub fn write_response(w: &mut impl Write, status: u16, body: &str, close: bool) -> io::Result<()> {
    let mut message = Vec::with_capacity(128 + body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n",
        status,
        reason_phrase(status),
        body.len(),
        if close { "connection: close\r\n" } else { "" },
    )?;
    message.extend_from_slice(body.as_bytes());
    send(w, &message)
}

/// Name of the trailer carrying a mid-stream error (see
/// [`finish_chunked`]).
pub const ERROR_TRAILER: &str = "x-fc-error";

/// Starts a `Transfer-Encoding: chunked` response, declaring the
/// [`ERROR_TRAILER`] so clients know to look for it. The connection
/// stays open once the stream completes (see the [module docs](self)
/// for the keep-alive rule). Flushed immediately: the client sees the
/// status line before the first chunk's data exists.
pub fn write_chunked_head(w: &mut impl Write, status: u16) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\n\
         transfer-encoding: chunked\r\ntrailer: {ERROR_TRAILER}\r\n\r\n",
        status,
        reason_phrase(status),
    );
    send(w, head.as_bytes())
}

/// Writes one chunk (hex size line, data, CRLF) and flushes, so each
/// budget point is on the wire the moment it completes. Empty data is
/// skipped — a zero-length chunk would terminate the stream; that is
/// [`finish_chunked`]'s job.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let mut message = Vec::with_capacity(20 + data.len());
    write!(message, "{:x}\r\n", data.len())?;
    message.extend_from_slice(data);
    message.extend_from_slice(b"\r\n");
    send(w, &message)
}

/// Terminates a chunked response: the zero-length chunk, then the
/// trailer section. A mid-stream failure — the status line already said
/// `200` — is conveyed as an [`ERROR_TRAILER`] trailer (newlines
/// stripped: a trailer value must stay on its line). A client that
/// concatenates chunk bodies without reading trailers still never sees
/// a half-valid document silently: the stream ends mid-JSON.
pub fn finish_chunked(w: &mut impl Write, error: Option<&str>) -> io::Result<()> {
    let mut message = String::from("0\r\n");
    if let Some(error) = error {
        message.push_str(ERROR_TRAILER);
        message.push_str(": ");
        message.extend(
            error
                .chars()
                .map(|c| if c == '\r' || c == '\n' { ' ' } else { c }),
        );
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    send(w, message.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::client::write_request;
    use proptest::prelude::*;
    use std::io::{BufReader, Read};

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /v1/recommend?x=1 HTTP/1.1\r\nHost: h\r\nX-Tenant: alice\r\n\
              Content-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/recommend?x=1");
        assert_eq!(req.path(), "/v1/recommend");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.header("X-TENANT"), Some("alice"));
        assert_eq!(req.body, b"body");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_semantics() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.close);
    }

    #[test]
    fn malformed_requests_map_to_statuses() {
        let status = |raw: &[u8]| match parse(raw) {
            Err(HttpError::Malformed { status, .. }) => status,
            other => panic!("expected Malformed, got {other:?}"),
        };
        assert_eq!(status(b"garbage\r\n\r\n"), 400);
        assert_eq!(status(b"GET noslash HTTP/1.1\r\n\r\n"), 400);
        assert_eq!(status(b"get / HTTP/1.1\r\n\r\n"), 400, "lowercase method");
        assert_eq!(status(b"GET / HTTP/2.0\r\n\r\n"), 505);
        assert_eq!(status(b"GET / HTTP/1.1\r\nbad header\r\n\r\n"), 400);
        assert_eq!(status(b"POST / HTTP/1.1\r\n\r\n"), 411);
        assert_eq!(
            status(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            400
        );
        assert_eq!(
            status(b"POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"),
            413
        );
        assert_eq!(
            status(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            400,
            "over-declared body (client sent fewer bytes than declared)"
        );
        assert_eq!(
            status(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501
        );
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(status(huge.as_bytes()), 431);
    }

    #[test]
    fn eof_before_and_mid_request_differ() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(
            parse(b"GET / HT"),
            Err(HttpError::Malformed { status: 400, .. })
        ));
    }

    #[test]
    fn query_params_parse_without_disturbing_the_path() {
        let req = parse(b"POST /v1/sweep?stream=1&x=a%20b HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        assert_eq!(req.path(), "/v1/sweep");
        assert_eq!(req.query_param("stream"), Some("1"));
        assert_eq!(req.query_param("x"), Some("a%20b"), "no percent-decoding");
        assert_eq!(req.query_param("missing"), None);
        let req = parse(b"GET /v1/stats?stream HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("stream"), Some(""), "bare flag");
        let req = parse(b"GET /v1/stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("stream"), None);
    }

    #[test]
    fn chunked_writer_frames_and_keeps_the_connection() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200).unwrap();
        write_chunk(&mut out, b"{\"plans\":[").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not terminal
        write_chunk(&mut out, b"]}").unwrap();
        finish_chunked(&mut out, None).unwrap();
        // A second response on the same connection, right after the
        // terminal chunk.
        write_response(&mut out, 200, "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (head, rest) = text.split_once("\r\n\r\n").unwrap();
        assert_eq!(
            head,
            format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                 transfer-encoding: chunked\r\ntrailer: {ERROR_TRAILER}"
            ),
            "a chunked head declares no close"
        );
        let (body, next) = rest.split_once("0\r\n\r\n").unwrap();
        assert_eq!(body, "a\r\n{\"plans\":[\r\n2\r\n]}\r\n");
        assert!(
            next.starts_with("HTTP/1.1 200 OK\r\n"),
            "the next response follows the terminal chunk directly: {next:?}"
        );
    }

    #[test]
    fn chunked_error_trailer_is_newline_safe() {
        let mut out = Vec::new();
        finish_chunked(&mut out, Some("solver failed\r\nx-sneaky: yes")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            format!("0\r\n{ERROR_TRAILER}: solver failed  x-sneaky: yes\r\n\r\n"),
            "newlines in the message cannot forge extra trailers"
        );
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        write_response(&mut out, 429, "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("429 Too Many Requests"));
    }

    /// A `Write` that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The bytes `message` writes, asserting it wrote them in one call.
    fn one_write(message: impl FnOnce(&mut Counting) -> io::Result<()>) -> String {
        let mut w = Counting::default();
        message(&mut w).unwrap();
        assert_eq!(w.writes, 1, "one `write` per message");
        String::from_utf8(w.bytes).unwrap()
    }

    #[test]
    fn every_message_leaves_in_one_write() {
        assert_eq!(
            one_write(|w| write_response(w, 200, "{\"ok\":true}", false)),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
             content-length: 11\r\n\r\n{\"ok\":true}"
        );
        assert_eq!(
            one_write(|w| write_response(w, 429, "{}", true)),
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
             content-length: 2\r\nconnection: close\r\n\r\n{}"
        );
        assert_eq!(
            one_write(|w| write_chunked_head(w, 200)),
            format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                 transfer-encoding: chunked\r\ntrailer: {ERROR_TRAILER}\r\n\r\n"
            )
        );
        assert_eq!(
            one_write(|w| write_chunked_head(w, 503)),
            format!(
                "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
                 transfer-encoding: chunked\r\ntrailer: {ERROR_TRAILER}\r\n\r\n"
            ),
            "no status makes a chunked head close"
        );
        assert_eq!(
            one_write(|w| write_chunk(w, b"{\"plans\":[")),
            "a\r\n{\"plans\":[\r\n"
        );
        assert_eq!(one_write(|w| finish_chunked(w, None)), "0\r\n\r\n");
        assert_eq!(
            one_write(|w| finish_chunked(w, Some("503 drained\nx-sneaky: yes"))),
            format!("0\r\n{ERROR_TRAILER}: 503 drained x-sneaky: yes\r\n\r\n")
        );
        assert_eq!(
            one_write(|w| write_request(
                w,
                "POST",
                "/v1/recommend",
                &[("x-tenant", "alice")],
                "{}"
            )),
            "POST /v1/recommend HTTP/1.1\r\nhost: fc\r\nx-tenant: alice\r\n\
             content-length: 2\r\n\r\n{}"
        );
        let mut w = Counting::default();
        write_chunk(&mut w, b"").unwrap();
        assert_eq!(w.writes, 0, "an empty chunk is skipped, not written");
    }

    /// A reader over `data` that yields at most `step` bytes per read.
    struct Dribble<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn dribbled(data: &[u8], step: usize) -> BufReader<Dribble<'_>> {
        BufReader::with_capacity(step, Dribble { data, step })
    }

    /// Fragments the fuzz property strings together, so random input
    /// reaches past the request line into headers and bodies.
    const FUZZ_PIECES: &[&[u8]] = &[
        b"GET ",
        b"POST ",
        b"/",
        b"/v1/sweep?stream=1",
        b" HTTP/1.1",
        b" HTTP/1.0",
        b"\r\n",
        b"\r\n\r\n",
        b"\n",
        b"content-length: ",
        b"transfer-encoding: chunked",
        b"connection: close",
        b"0",
        b"5",
        b"99999999999999999999",
        b":",
        b" ",
        b"a",
        b"\xff",
    ];

    /// Header names, value pieces and body pieces for the round trip.
    const NAMES: &[&str] = &["x-tenant", "accept", "x-trace-id", "x-a"];
    const VALUES: &[&str] = &["alice", "1", "a b", "application/json", "é", "=;,"];
    const BODY_PIECES: &[&str] = &["{\"x\":1}", ",", "\r\n", "\r\n\r\n", "GET / HTTP/1.1", "→"];
    const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE", "PATCH"];
    const SEGMENTS: &[&str] = &["v1", "sweep", "streams", "a-b", "?stream=1", "&x=2"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, read any number at a time, parse into
        /// requests until a typed error; never a panic, and every
        /// refusal carries an error status.
        #[test]
        fn arbitrary_request_bytes_never_panic(
            raw in prop::collection::vec(0u8..=255, 0..96),
            pieces in prop::collection::vec(0usize..FUZZ_PIECES.len(), 0..40),
            step in 1usize..24,
        ) {
            let mut input = Vec::new();
            for piece in pieces {
                input.extend_from_slice(FUZZ_PIECES[piece]);
            }
            input.extend_from_slice(&raw);
            let mut reader = dribbled(&input, step);
            let error = loop {
                match read_request(&mut reader, 64) {
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            if let HttpError::Malformed { status, .. } = error {
                prop_assert!((400..600).contains(&status), "status {status}");
            }
        }

        /// A request written by the client parses back to the same
        /// method, target, headers and body under any read size.
        #[test]
        fn written_requests_parse_back(
            method in 0usize..METHODS.len(),
            segments in prop::collection::vec(0usize..SEGMENTS.len(), 0..5),
            headers in prop::collection::vec(
                (0usize..NAMES.len(), prop::collection::vec(0usize..VALUES.len(), 0..3)),
                0..4,
            ),
            body in prop::collection::vec(0usize..BODY_PIECES.len(), 0..8),
            step in 1usize..24,
        ) {
            let method = METHODS[method];
            let target: String =
                std::iter::once("/").chain(segments.iter().map(|&s| SEGMENTS[s])).collect();
            let headers: Vec<(&str, String)> = headers
                .iter()
                .map(|(name, value)| (NAMES[*name], value.iter().map(|&v| VALUES[v]).collect()))
                .collect();
            let body: String = body.iter().map(|&b| BODY_PIECES[b]).collect();
            let sent: Vec<(&str, &str)> =
                headers.iter().map(|(name, value)| (*name, value.as_str())).collect();
            let mut raw = Vec::new();
            write_request(&mut raw, method, &target, &sent, &body).unwrap();

            let request = read_request(&mut dribbled(&raw, step), 1024)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(request.method.as_str(), method);
            prop_assert_eq!(&request.target, &target);
            let mut expected = vec![("host".to_string(), "fc".to_string())];
            expected.extend(headers.iter().map(|(n, v)| (n.to_string(), v.clone())));
            expected.push(("content-length".to_string(), body.len().to_string()));
            prop_assert_eq!(&request.headers, &expected);
            prop_assert_eq!(request.body, body.into_bytes());
            prop_assert!(!request.close);
        }
    }
}
