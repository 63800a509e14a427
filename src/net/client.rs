//! A minimal blocking HTTP/1.1 client for the front —
//! `Content-Length` and chunked response framing, no redirects, no
//! TLS. This is the counterpart the examples, integration tests, CI
//! gates, and the load harness drive the server with (the environment
//! has no `curl` guarantee and no registry client crates); it is
//! deliberately small, not a general HTTP client.
//!
//! Two tiers: the free functions ([`post`], [`get`], [`request`]) open
//! a fresh connection per request — fine for one-shot smoke checks;
//! [`Conn`] holds one keep-alive connection across requests, and
//! [`ClientPool`] parks idle [`Conn`]s for reuse across calls (and
//! threads), which is what a replayer issuing thousands of requests
//! needs to avoid paying connect latency — and burning ephemeral
//! ports — per request.
//!
//! Streamed sweeps have a third shape: [`SweepStream`] holds a
//! dedicated (never pooled) connection to `POST /v1/sweep?stream=1`
//! and yields each plan as its chunk arrives, so a caller can act on
//! the first budget point while later ones are still solving. The
//! buffered readers also decode chunked responses — by concatenating
//! every chunk — which is exactly the byte-identity gate: a streamed
//! sweep read through [`post`] must equal the buffered response.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::api::{
    AdoptRequest, ApiError, CleanRequest, CleanResponse, CreateStreamRequest, PlanView,
    RecommendRequest, SnapshotTransfer, StatsResponse, StreamInfo, SweepRequest,
};
use super::http::ERROR_TRAILER;
use super::json::Json;

/// Read timeout applied by [`read_response`] when the socket has none.
const DEFAULT_RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// Longest acceptable chunk-size line (hex digits); a `usize` is at
/// most 16 nibbles, so anything longer is garbage, not a big chunk.
const MAX_CHUNK_SIZE_LINE: usize = 16;

/// Largest single chunk payload accepted (matches the order of the
/// server's own body cap; a hostile size line must not make the client
/// allocate unboundedly).
const MAX_CHUNK_SIZE: usize = 1 << 26;

/// Longest acceptable trailer line after the terminal chunk.
const MAX_TRAILER_LINE: usize = 1024;

/// Writes one request on `sock` (keep-alive framing: the connection
/// stays usable for [`read_response`] and further requests). `headers`
/// are extra headers, e.g. `[("x-tenant", "alice")]`.
pub fn write_request(
    sock: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: fc\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    sock.write_all(head.as_bytes())?;
    sock.write_all(body.as_bytes())
}

/// Reads one framed response off `reader`: (status, body, close) where
/// `close` reports a `connection: close` header — the server will not
/// serve another request on this connection. Chunked responses are
/// decoded by concatenating every chunk (and always report `close`:
/// the server ends the connection after a stream); a mid-stream error
/// trailer surfaces as an [`io::ErrorKind::InvalidData`] error, since
/// the body it interrupted is incomplete.
fn read_framed_response(reader: &mut impl BufRead) -> io::Result<(u16, String, bool)> {
    let mut raw: Vec<u8> = Vec::new();
    loop {
        if let Some(response) = parse_framed_response(&raw)? {
            return Ok(response);
        }
        // The server answers in lockstep (no pipelining), so consuming
        // everything buffered never eats into a next response.
        let eof = raw_eof_error(&raw);
        fill(reader, &mut raw, eof)?;
    }
}

/// One blocking read appended onto `raw`; EOF maps to `eof` (callers
/// phrase it for their framing position).
fn fill(reader: &mut impl BufRead, raw: &mut Vec<u8>, eof: &str) -> io::Result<()> {
    loop {
        match reader.fill_buf() {
            Ok([]) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    eof.to_string(),
                ))
            }
            Ok(chunk) => {
                raw.extend_from_slice(chunk);
                let n = chunk.len();
                reader.consume(n);
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// EOF phrasing for the buffered reader: a close before any bytes is
/// the stale-keep-alive signal pools retry on; a close mid-response is
/// a harder failure.
fn raw_eof_error(raw: &[u8]) -> &'static str {
    if raw.is_empty() {
        "connection closed before response"
    } else {
        "connection closed mid-response"
    }
}

/// Reads one response from `sock`: returns (status, body). Applies a
/// generous read timeout when the caller has not set one.
///
/// The internal read buffer is discarded afterwards, so this is for
/// one-response-then-close use; a connection serving *multiple*
/// responses must hold its buffer across reads — use [`Conn`].
pub fn read_response(sock: &mut TcpStream) -> io::Result<(u16, String)> {
    if sock.read_timeout()?.is_none() {
        sock.set_read_timeout(Some(DEFAULT_RESPONSE_TIMEOUT))?;
    }
    let mut reader = BufReader::new(sock.try_clone()?);
    let (status, body, _close) = read_framed_response(&mut reader)?;
    Ok((status, body))
}

/// Connects to `addr`, bounding each address's connect by `timeout`
/// when one is given — a host that drops SYNs fails within it instead
/// of after the OS's minutes of retries.
fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr);
    };
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to");
    for addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(sock) => return Ok(sock),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One keep-alive connection: request/response exchanges in lockstep,
/// with the read buffer held across responses so framing never loses
/// bytes between exchanges.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    close: bool,
}

impl Conn {
    /// Connects to `addr`. `timeout` bounds the connect and every read
    /// and write on the connection (default: a generous 120s on reads,
    /// unbounded connect and writes).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Self> {
        let sock = connect(addr, timeout)?;
        sock.set_read_timeout(timeout.or(Some(DEFAULT_RESPONSE_TIMEOUT)))?;
        sock.set_write_timeout(timeout)?;
        sock.set_nodelay(true)?;
        let reader = BufReader::new(sock.try_clone()?);
        Ok(Self {
            reader,
            writer: sock,
            close: false,
        })
    }

    /// One request/response exchange; returns (status, body).
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<(u16, String)> {
        write_request(&mut self.writer, method, path, headers, body)?;
        let (status, body, close) = read_framed_response(&mut self.reader)?;
        self.close = close;
        Ok((status, body))
    }

    /// Whether the server will accept another request on this
    /// connection (no `connection: close` seen yet).
    pub fn reusable(&self) -> bool {
        !self.close
    }

    /// Like [`Conn::send`], but while waiting for the response the
    /// socket is polled every `poll` and `alive` is consulted; when it
    /// reports `false` the exchange is abandoned and `Ok(None)` is
    /// returned. The connection must then be **dropped**, not reused:
    /// the response is still in flight, and — more importantly —
    /// closing the socket is the signal that propagates a downstream
    /// hangup to the server, whose own disconnect probe cancels the
    /// request. This is how a routing front relays
    /// cancellation-on-disconnect instead of absorbing it.
    pub fn send_with_probe(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        poll: Duration,
        alive: &mut dyn FnMut() -> bool,
    ) -> io::Result<Option<(u16, String)>> {
        write_request(&mut self.writer, method, path, headers, body)?;
        let overall = self
            .writer
            .read_timeout()?
            .unwrap_or(DEFAULT_RESPONSE_TIMEOUT);
        let deadline = Instant::now() + overall;
        // Short read timeouts turn the blocking read into a poll loop;
        // the original timeout is restored before returning the
        // connection to normal use.
        self.writer.set_read_timeout(Some(poll))?;
        let result = self.read_response_probing(deadline, alive);
        let restore = self.writer.set_read_timeout(Some(overall));
        if let Some((_, _, close)) = result.as_ref().ok().and_then(|r| r.as_ref()) {
            self.close = *close || restore.is_err();
        }
        result.map(|r| r.map(|(status, body, _)| (status, body)))
    }

    /// Accumulates raw bytes until a full framed response parses,
    /// probing `alive` on every read timeout.
    fn read_response_probing(
        &mut self,
        deadline: Instant,
        alive: &mut dyn FnMut() -> bool,
    ) -> io::Result<Option<(u16, String, bool)>> {
        let mut raw: Vec<u8> = Vec::new();
        loop {
            if let Some(response) = parse_framed_response(&raw)? {
                return Ok(Some(response));
            }
            match self.reader.fill_buf() {
                Ok([]) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before response",
                    ))
                }
                Ok(chunk) => {
                    raw.extend_from_slice(chunk);
                    let n = chunk.len();
                    self.reader.consume(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if !alive() {
                        return Ok(None);
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "response timed out",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A parsed response head: everything before the body bytes. Shared
/// with the router, which relays response framing it did not author.
#[derive(Debug)]
pub(crate) struct Head {
    pub(crate) status: u16,
    pub(crate) content_length: usize,
    pub(crate) chunked: bool,
    pub(crate) close: bool,
    /// Offset of the first body byte in the raw buffer.
    pub(crate) body_start: usize,
}

/// Attempts to parse a response head from `raw`: `Ok(None)` when the
/// blank line has not arrived yet.
pub(crate) fn parse_head(raw: &[u8]) -> io::Result<Option<Head>> {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("malformed status line"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut chunked = false;
    let mut close = false;
    for line in lines {
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
        } else if let Some(v) = lower.strip_prefix("transfer-encoding:") {
            chunked = v.trim() == "chunked";
        } else if let Some(v) = lower.strip_prefix("connection:") {
            close = v.trim() == "close";
        }
    }
    Ok(Some(Head {
        status,
        content_length,
        chunked,
        close,
        body_start: head_end + 4,
    }))
}

/// Attempts to parse one complete framed response from `raw`:
/// `Ok(None)` when more bytes are needed, `Ok(Some((status, body,
/// close)))` on success, and the same typed errors as the blocking
/// reader on malformed framing. A chunked body is concatenated whole
/// (and forces `close` — the server ends the connection after a
/// stream); its error trailer, if any, becomes an
/// [`io::ErrorKind::InvalidData`] error.
fn parse_framed_response(raw: &[u8]) -> io::Result<Option<(u16, String, bool)>> {
    let Some(head) = parse_head(raw)? else {
        return Ok(None);
    };
    if head.chunked {
        return match parse_chunked_body(&raw[head.body_start..])? {
            None => Ok(None),
            Some((_, Some(error))) => Err(bad(&format!("mid-stream error: {error}"))),
            Some((body, None)) => Ok(Some((head.status, body, true))),
        };
    }
    if raw.len() < head.body_start + head.content_length {
        return Ok(None);
    }
    let body = std::str::from_utf8(&raw[head.body_start..head.body_start + head.content_length])
        .map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Some((head.status, body.to_string(), head.close)))
}

/// One frame of a chunked response body.
#[derive(Debug, PartialEq)]
pub(crate) enum ChunkFrame {
    /// A data chunk's payload.
    Data(Vec<u8>),
    /// The zero-length terminal chunk, with the error trailer when the
    /// server aborted the stream mid-way.
    End { error: Option<String> },
}

/// Attempts to parse one chunk frame from `raw`: `Ok(None)` when more
/// bytes are needed, otherwise the frame plus how many bytes it
/// consumed. Rejects garbage or oversized size lines *before* the
/// line terminator arrives, so a hostile peer cannot stall or balloon
/// the client.
pub(crate) fn parse_chunk_frame(raw: &[u8]) -> io::Result<Option<(ChunkFrame, usize)>> {
    let Some(line_end) = find_crlf(raw) else {
        if raw.len() > MAX_CHUNK_SIZE_LINE {
            return Err(bad("chunk size line too long"));
        }
        return Ok(None);
    };
    if line_end > MAX_CHUNK_SIZE_LINE {
        return Err(bad("chunk size line too long"));
    }
    let line = std::str::from_utf8(&raw[..line_end]).map_err(|_| bad("bad chunk size"))?;
    if line.is_empty() || !line.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad("bad chunk size"));
    }
    let size = usize::from_str_radix(line, 16).map_err(|_| bad("bad chunk size"))?;
    if size > MAX_CHUNK_SIZE {
        return Err(bad("chunk too large"));
    }
    let data_start = line_end + 2;
    if size == 0 {
        return parse_trailers(raw, data_start);
    }
    let end = data_start + size;
    if raw.len() < end + 2 {
        return Ok(None);
    }
    if &raw[end..end + 2] != b"\r\n" {
        return Err(bad("chunk missing terminator"));
    }
    Ok(Some((
        ChunkFrame::Data(raw[data_start..end].to_vec()),
        end + 2,
    )))
}

/// Parses the trailer section after a terminal chunk (zero or more
/// header lines, then a blank line), capturing the error trailer.
fn parse_trailers(raw: &[u8], mut at: usize) -> io::Result<Option<(ChunkFrame, usize)>> {
    let mut error = None;
    loop {
        let Some(line_end) = find_crlf(&raw[at..]) else {
            if raw.len() - at > MAX_TRAILER_LINE {
                return Err(bad("trailer line too long"));
            }
            return Ok(None);
        };
        if line_end > MAX_TRAILER_LINE {
            return Err(bad("trailer line too long"));
        }
        let line =
            std::str::from_utf8(&raw[at..at + line_end]).map_err(|_| bad("non-UTF-8 trailer"))?;
        at += line_end + 2;
        if line.is_empty() {
            return Ok(Some((ChunkFrame::End { error }, at)));
        }
        let prefix = format!("{ERROR_TRAILER}:");
        if line.to_ascii_lowercase().starts_with(&prefix) {
            error = Some(line[prefix.len()..].trim().to_string());
        }
    }
}

/// Position of the first `\r\n` in `raw`.
fn find_crlf(raw: &[u8]) -> Option<usize> {
    raw.windows(2).position(|w| w == b"\r\n")
}

/// Attempts to parse a whole chunked body from `raw`: `Ok(None)` when
/// more bytes are needed, otherwise the concatenated payload and the
/// error trailer (if the stream was aborted).
fn parse_chunked_body(raw: &[u8]) -> io::Result<Option<(String, Option<String>)>> {
    let mut at = 0;
    let mut body: Vec<u8> = Vec::new();
    loop {
        match parse_chunk_frame(&raw[at..])? {
            None => return Ok(None),
            Some((ChunkFrame::Data(data), used)) => {
                body.extend_from_slice(&data);
                at += used;
            }
            Some((ChunkFrame::End { error }, _)) => {
                let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
                return Ok(Some((body, error)));
            }
        }
    }
}

/// An in-flight streamed sweep (`POST /v1/sweep?stream=1`): iterate to
/// receive each budget point's plan as its chunk arrives — ascending
/// budget order, first point available while later ones are still
/// solving. Runs on a dedicated connection (never pooled: the server
/// closes it after the stream), and dropping the iterator mid-stream
/// closes that connection, which the server's disconnect probe turns
/// into cancellation of the remaining points.
///
/// A mid-stream server failure arrives as the error trailer and is
/// yielded as one final `Err`; after any `Err` (or the clean end) the
/// iterator is fused.
#[derive(Debug)]
pub struct SweepStream {
    reader: BufReader<TcpStream>,
    raw: Vec<u8>,
    prologue_seen: bool,
    epilogue_seen: bool,
    done: bool,
}

impl SweepStream {
    /// Opens a dedicated connection to `addr` and submits `request`
    /// with `stream=1`. A refusal (non-2xx, delivered buffered) is
    /// decoded and returned here, so a constructed stream is live.
    pub fn open(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        request: &SweepRequest,
        tenant: Option<&str>,
    ) -> Result<Self, ClientError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_read_timeout(timeout.or(Some(DEFAULT_RESPONSE_TIMEOUT)))?;
        sock.set_write_timeout(timeout)?;
        sock.set_nodelay(true)?;
        let mut writer = sock.try_clone()?;
        let headers: &[(&str, &str)] = match tenant {
            Some(tenant) => &[("x-tenant", tenant)],
            None => &[],
        };
        write_request(
            &mut writer,
            "POST",
            "/v1/sweep?stream=1",
            headers,
            &request.encode(),
        )?;
        let mut reader = BufReader::new(sock);
        let mut raw: Vec<u8> = Vec::new();
        let head = loop {
            if let Some(head) = parse_head(&raw)? {
                break head;
            }
            fill(&mut reader, &mut raw, "connection closed before response")?;
        };
        if !(200..300).contains(&head.status) {
            // Refusals are sent up front with an ordinary buffered body.
            loop {
                if let Some((status, body, _)) = parse_framed_response(&raw)? {
                    let message = Json::parse(&body)
                        .ok()
                        .as_ref()
                        .and_then(|json| json.get("error"))
                        .and_then(Json::as_str)
                        .unwrap_or("unexplained error")
                        .to_string();
                    return Err(ClientError::Api(ApiError { status, message }));
                }
                fill(&mut reader, &mut raw, "connection closed mid-response")?;
            }
        }
        if !head.chunked {
            return Err(ClientError::Decode(
                "streamed sweep response is not chunked".to_string(),
            ));
        }
        raw.drain(..head.body_start);
        Ok(Self {
            reader,
            raw,
            prologue_seen: false,
            epilogue_seen: false,
            done: false,
        })
    }
}

/// Decodes the error trailer's `"{status} {message}"` payload into the
/// typed service error.
fn trailer_error(trailer: &str) -> ClientError {
    if let Some((status, message)) = trailer.split_once(' ') {
        if let Ok(status) = status.parse::<u16>() {
            return ClientError::Api(ApiError {
                status,
                message: message.to_string(),
            });
        }
    }
    ClientError::Decode(format!("stream aborted: {trailer}"))
}

impl Iterator for SweepStream {
    type Item = Result<PlanView, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let frame = match parse_chunk_frame(&self.raw) {
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                Ok(None) => {
                    let filled = fill(
                        &mut self.reader,
                        &mut self.raw,
                        "connection closed mid-stream",
                    );
                    if let Err(e) = filled {
                        self.done = true;
                        return Some(Err(e.into()));
                    }
                    continue;
                }
                Ok(Some((frame, used))) => {
                    self.raw.drain(..used);
                    frame
                }
            };
            match frame {
                ChunkFrame::End {
                    error: Some(trailer),
                } => {
                    self.done = true;
                    return Some(Err(trailer_error(&trailer)));
                }
                ChunkFrame::End { error: None } => {
                    self.done = true;
                    if !self.epilogue_seen {
                        return Some(Err(ClientError::Decode(
                            "stream ended before its epilogue".to_string(),
                        )));
                    }
                    return None;
                }
                ChunkFrame::Data(data) => {
                    let Ok(text) = String::from_utf8(data) else {
                        self.done = true;
                        return Some(Err(ClientError::Decode("non-UTF-8 chunk".to_string())));
                    };
                    if !self.prologue_seen {
                        if text != "{\"plans\":[" {
                            self.done = true;
                            return Some(Err(ClientError::Decode(format!(
                                "unexpected stream prologue: {text}"
                            ))));
                        }
                        self.prologue_seen = true;
                        continue;
                    }
                    if text == "]}" {
                        self.epilogue_seen = true;
                        continue;
                    }
                    if self.epilogue_seen {
                        self.done = true;
                        return Some(Err(ClientError::Decode(
                            "data chunk after the epilogue".to_string(),
                        )));
                    }
                    let point = text.strip_prefix(',').unwrap_or(&text);
                    let result = Json::parse(point)
                        .map_err(|e| ClientError::Decode(format!("undecodable plan chunk: {e}")))
                        .and_then(|json| {
                            PlanView::from_json(&json).map_err(|e| ClientError::Decode(e.message))
                        });
                    if result.is_err() {
                        self.done = true;
                    }
                    return Some(result);
                }
            }
        }
    }
}

/// A keep-alive connection pool over one server address: requests
/// reuse a parked [`Conn`] when one is idle, connect otherwise, and
/// park the connection back afterwards. Shareable across threads
/// (each in-flight request holds its connection exclusively; the lock
/// guards only the idle list, never I/O).
///
/// A request that fails on a *reused* connection is retried once on a
/// fresh one — the server reaps idle keep-alive connections at its
/// read timeout, so a stale-connection error is expected, not
/// exceptional. Caveat: if the server executed the request but died
/// mid-response, the retry re-executes it; acceptable for this
/// bench/test client, whose requests are safe to repeat.
#[derive(Debug)]
pub struct ClientPool {
    addr: SocketAddr,
    timeout: Option<Duration>,
    max_idle: usize,
    idle: Mutex<Vec<Conn>>,
}

impl ClientPool {
    /// A pool over `addr` (resolved once, up front).
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        Ok(Self {
            addr,
            timeout: None,
            max_idle: 16,
            idle: Mutex::new(Vec::new()),
        })
    }

    /// Bounds every read and write on pooled connections.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Caps parked idle connections (default 16); beyond it, finished
    /// connections are closed instead of parked.
    pub fn with_max_idle(mut self, max_idle: usize) -> Self {
        self.max_idle = max_idle;
        self
    }

    /// The resolved address this pool connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently parked idle.
    pub fn idle_connections(&self) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// One request on a pooled connection; returns (status, body).
    /// See the type docs for the stale-keep-alive retry semantics.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<(u16, String)> {
        let reused = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        if let Some(mut conn) = reused {
            if let Ok(response) = conn.send(method, path, headers, body) {
                self.park(conn);
                return Ok(response);
            }
            // Stale keep-alive (server reaped it while parked): fall
            // through to a fresh connection.
        }
        let mut conn = Conn::connect(self.addr, self.timeout)?;
        let response = conn.send(method, path, headers, body)?;
        self.park(conn);
        Ok(response)
    }

    /// `POST` a JSON body on a pooled connection.
    pub fn post(
        &self,
        path: &str,
        json: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<(u16, String)> {
        self.request("POST", path, headers, json)
    }

    /// `GET` on a pooled connection.
    pub fn get(&self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, &[], "")
    }

    /// [`ClientPool::request`] with downstream-liveness probing
    /// ([`Conn::send_with_probe`]): `Ok(None)` means `alive` reported
    /// the downstream client gone — the upstream connection is dropped
    /// (not parked), closing the socket so the server's disconnect
    /// probe cancels the request. Only safe for requests that may
    /// re-execute (the stale-keep-alive retry applies here too).
    pub fn request_with_probe(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        poll: Duration,
        alive: &mut dyn FnMut() -> bool,
    ) -> io::Result<Option<(u16, String)>> {
        let reused = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        if let Some(mut conn) = reused {
            match conn.send_with_probe(method, path, headers, body, poll, alive) {
                Ok(Some(response)) => {
                    self.park(conn);
                    return Ok(Some(response));
                }
                // Downstream gone mid-exchange: drop the connection to
                // propagate the hangup upstream.
                Ok(None) => return Ok(None),
                // Stale keep-alive: fall through to a fresh connection.
                Err(_) => {}
            }
        }
        let mut conn = Conn::connect(self.addr, self.timeout)?;
        match conn.send_with_probe(method, path, headers, body, poll, alive)? {
            Some(response) => {
                self.park(conn);
                Ok(Some(response))
            }
            None => Ok(None),
        }
    }

    fn park(&self, conn: Conn) {
        if !conn.reusable() {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }
}

/// A registry of [`ClientPool`]s keyed by **resolved** socket address,
/// so spellings of the same backend (`localhost:p`, `127.0.0.1:p`) map
/// to one pool instead of holding duplicate idle sockets. An address
/// resolving to several socket addresses claims all of them: whichever
/// spelling arrives first wins, and later spellings that share any
/// resolved address reuse its pool.
#[derive(Debug, Default)]
pub struct ClientPools {
    timeout: Option<Duration>,
    pools: Mutex<HashMap<SocketAddr, Arc<ClientPool>>>,
}

impl ClientPools {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds reads and writes on every pool created by this registry.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// The pool for `addr`, created on first use. Two addresses that
    /// share any resolved [`SocketAddr`] get the same pool.
    pub fn pool(&self, addr: impl ToSocketAddrs) -> io::Result<Arc<ClientPool>> {
        let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if resolved.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved empty",
            ));
        }
        let mut pools = self.pools.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pool) = resolved.iter().find_map(|a| pools.get(a)) {
            return Ok(Arc::clone(pool));
        }
        let mut pool = ClientPool::new(resolved[0])?;
        if let Some(timeout) = self.timeout {
            pool = pool.with_timeout(timeout);
        }
        let pool = Arc::new(pool);
        for a in resolved {
            pools.insert(a, Arc::clone(&pool));
        }
        Ok(pool)
    }

    /// Pools currently registered (distinct pools, not distinct keys).
    pub fn len(&self) -> usize {
        let pools = self.pools.lock().unwrap_or_else(PoisonError::into_inner);
        let mut seen: Vec<*const ClientPool> = pools.values().map(Arc::as_ptr).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Whether no pool has been created yet.
    pub fn is_empty(&self) -> bool {
        self.pools
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

/// What a typed [`ApiClient`] call can fail with: transport trouble,
/// a structured error response from the service, or a `200` whose body
/// did not decode as the expected type (a contract violation, not a
/// user error).
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing, or reading failed.
    Io(io::Error),
    /// The service answered with a non-2xx structured error.
    Api(ApiError),
    /// The response body did not match the expected shape.
    Decode(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Api(e) => write!(f, "service error ({}): {}", e.status, e.message),
            ClientError::Decode(what) => write!(f, "undecodable response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The typed client over the [`api`](super::api) surface: requests are
/// built from the typed structs and responses decoded back into them,
/// so callers never assemble JSON by hand (the raw [`post`]/[`get`]
/// tier stays public for malformed-input tests). Runs over a shared
/// [`ClientPool`], so clones and threads reuse keep-alive connections.
#[derive(Debug, Clone)]
pub struct ApiClient {
    pool: Arc<ClientPool>,
}

impl ApiClient {
    /// A client over its own pool to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self::over(Arc::new(ClientPool::new(addr)?)))
    }

    /// A client over an existing (possibly shared) pool.
    pub fn over(pool: Arc<ClientPool>) -> Self {
        Self { pool }
    }

    /// The underlying pool (e.g. to inspect idle connections).
    pub fn pool(&self) -> &Arc<ClientPool> {
        &self.pool
    }

    fn exchange(
        &self,
        method: &str,
        path: &str,
        tenant: Option<&str>,
        body: &str,
    ) -> Result<Json, ClientError> {
        let headers: &[(&str, &str)] = match tenant {
            Some(tenant) => &[("x-tenant", tenant)],
            None => &[],
        };
        let (status, text) = self.pool.request(method, path, headers, body)?;
        let json = Json::parse(&text)
            .map_err(|e| ClientError::Decode(format!("{status} body is not JSON: {e}")))?;
        if !(200..300).contains(&status) {
            let message = json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unexplained error")
                .to_string();
            return Err(ClientError::Api(ApiError { status, message }));
        }
        Ok(json)
    }

    /// `POST /v1/recommend` — one plan at one budget (the target
    /// stream rides in the body).
    pub fn recommend(
        &self,
        request: &RecommendRequest,
        tenant: Option<&str>,
    ) -> Result<PlanView, ClientError> {
        let json = self.exchange("POST", "/v1/recommend", tenant, &request.encode())?;
        PlanView::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `POST /v1/sweep` — one plan per budget.
    pub fn sweep(
        &self,
        request: &SweepRequest,
        tenant: Option<&str>,
    ) -> Result<Vec<PlanView>, ClientError> {
        let json = self.exchange("POST", "/v1/sweep", tenant, &request.encode())?;
        json.get("plans")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Decode("sweep response missing plans".to_string()))?
            .iter()
            .map(|p| PlanView::from_json(p).map_err(|e| ClientError::Decode(e.message)))
            .collect()
    }

    /// `POST /v1/sweep?stream=1` — the same sweep, streamed: yields
    /// each budget point's plan as it completes (ascending budget) on
    /// a dedicated connection. Dropping the iterator early cancels the
    /// points still solving server-side.
    pub fn sweep_streaming(
        &self,
        request: &SweepRequest,
        tenant: Option<&str>,
    ) -> Result<SweepStream, ClientError> {
        SweepStream::open(self.pool.addr(), self.pool.timeout, request, tenant)
    }

    /// `POST /v1/streams` — create a stream from an uploaded dataset;
    /// answers the created stream's description.
    pub fn create_stream(&self, request: &CreateStreamRequest) -> Result<StreamInfo, ClientError> {
        let body = request.encode().map_err(ClientError::Api)?;
        let json = self.exchange("POST", "/v1/streams", None, &body)?;
        StreamInfo::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `GET /v1/streams/{id}` — describe one registered stream.
    pub fn stream_info(&self, id: &str) -> Result<StreamInfo, ClientError> {
        let json = self.exchange("GET", &format!("/v1/streams/{id}"), None, "")?;
        StreamInfo::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `DELETE /v1/streams/{id}` — drop a stream from the registry
    /// (in-flight solves finish; cached results stay warm for a
    /// re-created identical dataset).
    pub fn delete_stream(&self, id: &str) -> Result<(), ClientError> {
        self.exchange("DELETE", &format!("/v1/streams/{id}"), None, "")?;
        Ok(())
    }

    /// `POST /v1/streams/{stream}/clean` — reveal cleaned values.
    pub fn clean(
        &self,
        stream: &str,
        request: &CleanRequest,
        tenant: Option<&str>,
    ) -> Result<CleanResponse, ClientError> {
        let path = format!("/v1/streams/{stream}/clean");
        let json = self.exchange("POST", &path, tenant, &request.encode())?;
        CleanResponse::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `GET /v1/streams/{id}/snapshot` — the stream's definition plus
    /// its warm per-stream cache slice, ready to [`adopt`] on a peer.
    ///
    /// [`adopt`]: ApiClient::adopt
    pub fn snapshot(&self, id: &str) -> Result<SnapshotTransfer, ClientError> {
        let json = self.exchange("GET", &format!("/v1/streams/{id}/snapshot"), None, "")?;
        SnapshotTransfer::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `POST /v1/streams/{id}/adopt` — install a replicated stream
    /// from a peer's [`snapshot`](ApiClient::snapshot) without
    /// re-uploading the dataset. Answers how many warm entries were
    /// restored; adopting onto an id that already hosts the same
    /// definition merges the slice idempotently.
    pub fn adopt(&self, id: &str, transfer: &SnapshotTransfer) -> Result<usize, ClientError> {
        let body = AdoptRequest {
            transfer: transfer.clone(),
        }
        .encode()
        .map_err(ClientError::Api)?;
        let json = self.exchange("POST", &format!("/v1/streams/{id}/adopt"), None, &body)?;
        json.get("restored_entries")
            .and_then(Json::as_usize)
            .ok_or_else(|| ClientError::Decode("adopt response missing restored_entries".into()))
    }

    /// `GET /v1/stats` — service, store, and tenant counters.
    pub fn stats(&self) -> Result<StatsResponse, ClientError> {
        let json = self.exchange("GET", "/v1/stats", None, "")?;
        StatsResponse::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `GET /v1/streams` — registered stream names.
    pub fn streams(&self) -> Result<Vec<String>, ClientError> {
        let json = self.exchange("GET", "/v1/streams", None, "")?;
        json.get("streams")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Decode("streams response missing streams".to_string()))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ClientError::Decode("non-string stream name".to_string()))
            })
            .collect()
    }
}

/// One request on a fresh connection; returns (status, body).
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<(u16, String)> {
    let mut sock = TcpStream::connect(addr)?;
    write_request(&mut sock, method, path, headers, body)?;
    read_response(&mut sock)
}

/// `POST` a JSON body on a fresh connection.
pub fn post(
    addr: impl ToSocketAddrs,
    path: &str,
    json: &str,
    headers: &[(&str, &str)],
) -> io::Result<(u16, String)> {
    request(addr, "POST", path, headers, json)
}

/// `GET` on a fresh connection.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    request(addr, "GET", path, &[], "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_normalize_address_spellings() {
        let pools = ClientPools::new();
        // Port 9 (discard) — never connected to, only resolved.
        let a = pools.pool(("127.0.0.1", 9)).unwrap();
        let b = pools.pool("127.0.0.1:9").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same resolved addr must share a pool");
        assert_eq!(pools.len(), 1);

        // `localhost` shares the pool iff it resolves to 127.0.0.1
        // (dual-stack resolvers may add ::1 — still the same pool, now
        // keyed under both).
        let localhost: Vec<SocketAddr> = match ("localhost", 9u16).to_socket_addrs() {
            Ok(addrs) => addrs.collect(),
            Err(_) => return, // no resolver in this environment
        };
        if localhost.iter().any(|a| a.ip().is_loopback()) {
            let c = pools.pool(("localhost", 9)).unwrap();
            if localhost.contains(&a.addr()) {
                assert!(
                    Arc::ptr_eq(&a, &c),
                    "localhost must reuse the 127.0.0.1 pool"
                );
                assert_eq!(pools.len(), 1);
            }
        }

        let other = pools.pool("127.0.0.1:10").unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(pools.len(), 2);
    }

    #[test]
    fn parse_framed_response_is_incremental() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: close\r\n\r\nhello";
        for cut in 0..full.len() {
            assert!(
                parse_framed_response(&full[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let (status, body, close) = parse_framed_response(full).unwrap().unwrap();
        assert_eq!((status, body.as_str(), close), (200, "hello", true));

        // Trailing bytes from a pipelined next response don't confuse it.
        let mut extra = full.to_vec();
        extra.extend_from_slice(b"HTTP/1.1 2");
        let (status, body, _) = parse_framed_response(&extra).unwrap().unwrap();
        assert_eq!((status, body.as_str()), (200, "hello"));

        for bad in [
            &b"BROKEN\r\n\r\n"[..],
            &b"HTTP/1.1 abc OK\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n"[..],
        ] {
            assert_eq!(
                parse_framed_response(bad).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
    }

    /// A full chunked response as the server writes it.
    fn chunked_response(chunks: &[&str], trailer: Option<&str>) -> Vec<u8> {
        let mut raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\
            trailer: x-fc-error\r\nconnection: close\r\n\r\n"
            .to_vec();
        for chunk in chunks {
            raw.extend_from_slice(format!("{:x}\r\n{chunk}\r\n", chunk.len()).as_bytes());
        }
        raw.extend_from_slice(b"0\r\n");
        if let Some(error) = trailer {
            raw.extend_from_slice(format!("x-fc-error: {error}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw
    }

    #[test]
    fn chunked_response_concatenates_and_forces_close() {
        let raw = chunked_response(&["{\"plans\":[", "{\"x\":1}", ",{\"x\":2}", "]}"], None);
        // Every strict prefix asks for more — a truncated chunk body
        // or missing terminal chunk never parses as complete.
        for cut in 0..raw.len() {
            assert!(
                parse_framed_response(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let (status, body, close) = parse_framed_response(&raw).unwrap().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"plans\":[{\"x\":1},{\"x\":2}]}");
        assert!(close, "chunked responses always close the connection");
    }

    #[test]
    fn chunked_error_trailer_surfaces_as_typed_failure() {
        let raw = chunked_response(&["{\"plans\":[", "{\"x\":1}"], Some("500 solver exploded"));
        let err = parse_framed_response(&raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("500 solver exploded"));

        // The trailer decoder recovers the structured service error.
        match trailer_error("429 tenant over quota") {
            ClientError::Api(e) => {
                assert_eq!((e.status, e.message.as_str()), (429, "tenant over quota"));
            }
            other => panic!("expected Api error, got {other}"),
        }
        assert!(matches!(
            trailer_error("not a status"),
            ClientError::Decode(_)
        ));
    }

    #[test]
    fn chunk_size_line_abuse_is_rejected() {
        // Garbage size line.
        assert_eq!(
            parse_chunk_frame(b"zz\r\nhi\r\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Empty size line.
        assert_eq!(
            parse_chunk_frame(b"\r\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Oversized size line is rejected even before its CRLF arrives,
        // so a hostile peer cannot stall the reader with an endless line.
        let long = vec![b'f'; MAX_CHUNK_SIZE_LINE + 1];
        assert_eq!(
            parse_chunk_frame(&long).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A syntactically valid but enormous chunk size is refused.
        assert_eq!(
            parse_chunk_frame(b"ffffffffffff\r\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Chunk data must end with CRLF.
        assert_eq!(
            parse_chunk_frame(b"2\r\nhiXX").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn terminal_chunk_parses_with_and_without_trailer() {
        let (frame, used) = parse_chunk_frame(b"0\r\n\r\n").unwrap().unwrap();
        assert_eq!((frame, used), (ChunkFrame::End { error: None }, 5));

        let raw = b"0\r\nx-fc-error: 503 backend drained\r\n\r\n";
        let (frame, used) = parse_chunk_frame(raw).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(
            frame,
            ChunkFrame::End {
                error: Some("503 backend drained".to_string())
            }
        );

        // Unknown trailers are tolerated and skipped.
        let raw = b"0\r\nx-other: 1\r\n\r\n";
        let (frame, _) = parse_chunk_frame(raw).unwrap().unwrap();
        assert_eq!(frame, ChunkFrame::End { error: None });

        // An unterminated trailer section keeps asking for more bytes.
        assert!(parse_chunk_frame(b"0\r\nx-fc-error: 500 x")
            .unwrap()
            .is_none());
    }
}
