//! A minimal blocking HTTP/1.1 client for the front —
//! `Content-Length` and chunked response framing, no redirects, no
//! TLS. The examples, integration tests, CI gates, the benchmark
//! and the router's upstream hop all drive the server with it (the
//! environment has no `curl` guarantee and no registry client crates);
//! it is deliberately small, not a general HTTP client.
//!
//! Every response is framed by one incremental reader owned by
//! [`Conn`], so the framing limits live in one place: a head capped at
//! [`MAX_HEADER_BYTES`], capped chunk and trailer lines, and a declared
//! `Content-Length` that is never added to or allocated from. An
//! optional probe checks a downstream client's liveness on every read
//! timeout, which is how the router relays a hangup upstream.
//! [`ClientPool`] parks idle [`Conn`]s for reuse across calls and
//! threads; the free functions ([`post`], [`get`], [`request`]) run one
//! exchange on a fresh [`Conn`]; and [`SweepStream`] wraps a dedicated
//! [`Conn`], yielding each plan of a streamed sweep as its chunk
//! arrives. A chunked response read whole is its chunks concatenated —
//! the byte-identity gate: a streamed sweep read through [`post`] must
//! equal the buffered response.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::api::{
    AdoptRequest, ApiError, CleanRequest, CleanResponse, CreateStreamRequest, PlanView,
    RecommendRequest, SnapshotTransfer, StatsResponse, StreamInfo, SweepRequest,
};
use super::http::{ERROR_TRAILER, MAX_HEADER_BYTES};
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

/// Reads one response from `sock`: returns (status, body). Applies a
/// generous read timeout when the caller has not set one.
///
/// Bytes read past the response are discarded, so this is for
/// one-response-then-lockstep use; a connection that may receive more
/// than one response at a time must hold its reader — use [`Conn`].
pub fn read_response(sock: &mut TcpStream) -> io::Result<(u16, String)> {
    if sock.read_timeout()?.is_none() {
        sock.set_read_timeout(Some(DEFAULT_RESPONSE_TIMEOUT))?;
    }
    let mut reader = Reader::new(BufReader::new(sock));
    let head = reader.head(None)?;
    Ok((head.status, reader.body(&head, None)?))
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
/// with the response reader held across responses so framing never
/// loses bytes between exchanges.
#[derive(Debug)]
pub struct Conn {
    pub(crate) reader: Reader<BufReader<TcpStream>>,
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
        Ok(Self {
            reader: Reader::new(BufReader::new(sock.try_clone()?)),
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
        self.exchange(method, path, headers, body, None)
    }

    /// Whether the server will accept another request on this
    /// connection (no `connection: close` seen, and the last exchange
    /// framed a whole response).
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
        let wait = self.writer.read_timeout()?;
        let mut probe = Probe::new(poll, alive, wait.unwrap_or(DEFAULT_RESPONSE_TIMEOUT));
        match self.exchange(method, path, headers, body, Some(&mut probe)) {
            Err(e) if is_gone(&e) => Ok(None),
            response => response.map(Some),
        }
    }

    /// Writes one request whose response the caller reads through
    /// [`Conn::reader`]. With a `probe`, reads time out every poll
    /// interval so the probe is consulted between them.
    pub(crate) fn write(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        probe: Option<&Probe<'_>>,
    ) -> io::Result<()> {
        if let Some(probe) = probe {
            self.writer.set_read_timeout(Some(probe.poll))?;
        }
        write_request(&mut self.writer, method, path, headers, body)
    }

    /// One exchange, consulting `probe` while the response is pending;
    /// a probed exchange restores the read timeout afterwards.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        mut probe: Option<&mut Probe<'_>>,
    ) -> io::Result<(u16, String)> {
        // Not reusable until a whole response has framed.
        self.close = true;
        let timeout = self.writer.read_timeout()?;
        self.write(method, path, headers, body, probe.as_deref())?;
        let head = self.reader.head(probe.as_deref_mut())?;
        let response = (head.status, self.reader.body(&head, probe.as_deref_mut())?);
        let restored = probe.is_none() || self.writer.set_read_timeout(timeout).is_ok();
        self.close = head.close || !restored;
        Ok(response)
    }
}

/// A downstream-liveness probe for a pending response: reads time out
/// every `poll`, and each timeout consults `alive` and checks the
/// overall deadline.
pub(crate) struct Probe<'a> {
    poll: Duration,
    alive: &'a mut dyn FnMut() -> bool,
    deadline: Instant,
}

impl<'a> Probe<'a> {
    /// A probe polling `alive` every `poll` that gives up on the
    /// response after `wait`.
    pub(crate) fn new(poll: Duration, alive: &'a mut dyn FnMut() -> bool, wait: Duration) -> Self {
        Self {
            poll,
            alive,
            deadline: Instant::now() + wait,
        }
    }
}

/// The payload of the error a probed read fails with once its probe
/// reports the downstream client gone; see [`is_gone`].
#[derive(Debug)]
struct DownstreamGone;

impl std::fmt::Display for DownstreamGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("downstream client gone")
    }
}

impl std::error::Error for DownstreamGone {}

/// Whether `e` is a probed read abandoned because the downstream
/// client hung up (as opposed to an upstream failure).
pub(crate) fn is_gone(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<DownstreamGone>())
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The one incremental response reader: holds the received bytes not
/// yet consumed, and frames heads, bodies and chunks out of them,
/// reading more only when a frame is incomplete. Pure parsers
/// ([`parse_head`], [`parse_chunk_frame`]) do the framing; this type
/// owns the reading and the limits.
#[derive(Debug)]
pub(crate) struct Reader<R> {
    inner: R,
    raw: Vec<u8>,
}

impl<R: BufRead> Reader<R> {
    pub(crate) fn new(inner: R) -> Self {
        Self {
            inner,
            raw: Vec::new(),
        }
    }

    /// Appends one read's bytes. EOF is [`io::ErrorKind::UnexpectedEof`];
    /// a read timeout is returned as is without a `probe`, and with one
    /// consults it: a gone client fails the read (see [`is_gone`]), a
    /// passed deadline is [`io::ErrorKind::TimedOut`], and otherwise
    /// the read is retried.
    fn fill(&mut self, mut probe: Option<&mut Probe<'_>>) -> io::Result<()> {
        loop {
            match self.inner.fill_buf() {
                Ok([]) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the response was complete",
                    ))
                }
                Ok(chunk) => {
                    self.raw.extend_from_slice(chunk);
                    let n = chunk.len();
                    self.inner.consume(n);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    let Some(probe) = probe.as_deref_mut() else {
                        return Err(e);
                    };
                    if !(probe.alive)() {
                        return Err(io::Error::other(DownstreamGone));
                    }
                    if Instant::now() >= probe.deadline {
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

    /// Reads and consumes one response head. The blank line must
    /// arrive within [`MAX_HEADER_BYTES`]; each byte is scanned once.
    pub(crate) fn head(&mut self, mut probe: Option<&mut Probe<'_>>) -> io::Result<Head> {
        let mut scanned = 0usize;
        loop {
            let window = &self.raw[..self.raw.len().min(MAX_HEADER_BYTES)];
            let from = scanned.saturating_sub(3);
            if let Some(at) = window[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                let end = from + at + 4;
                let head = parse_head(&self.raw[..end])?;
                self.raw.drain(..end);
                return Ok(head);
            }
            if window.len() == MAX_HEADER_BYTES {
                return Err(bad("response head too large"));
            }
            scanned = window.len();
            self.fill(probe.as_deref_mut())?;
        }
    }

    /// Reads and consumes the body `head` announces: `Content-Length`
    /// bytes, or every chunk concatenated, where an error trailer
    /// becomes an [`io::ErrorKind::InvalidData`] error, since the body
    /// it interrupted is incomplete.
    pub(crate) fn body(
        &mut self,
        head: &Head,
        mut probe: Option<&mut Probe<'_>>,
    ) -> io::Result<String> {
        let body = if head.chunked {
            let mut body = Vec::new();
            loop {
                match self.frame(probe.as_deref_mut())? {
                    ChunkFrame::Data(data) => body.extend_from_slice(&data),
                    ChunkFrame::End { error: Some(error) } => {
                        return Err(bad(&format!("mid-stream error: {error}")))
                    }
                    ChunkFrame::End { error: None } => break body,
                }
            }
        } else {
            // No arithmetic on (or allocation from) the declared
            // length: a hostile one runs into EOF as a short body.
            while self.raw.len() < head.content_length {
                self.fill(probe.as_deref_mut())?;
            }
            let rest = self.raw.split_off(head.content_length);
            std::mem::replace(&mut self.raw, rest)
        };
        String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))
    }

    /// Reads and consumes the next frame of a chunked body.
    pub(crate) fn frame(&mut self, mut probe: Option<&mut Probe<'_>>) -> io::Result<ChunkFrame> {
        loop {
            if let Some((frame, used)) = parse_chunk_frame(&self.raw)? {
                self.raw.drain(..used);
                return Ok(frame);
            }
            self.fill(probe.as_deref_mut())?;
        }
    }
}

/// A parsed response head.
#[derive(Debug)]
pub(crate) struct Head {
    pub(crate) status: u16,
    pub(crate) content_length: usize,
    pub(crate) chunked: bool,
    /// The connection ends after this response: a `connection: close`
    /// header, or a chunked body (the server closes after a stream).
    pub(crate) close: bool,
}

/// Parses a complete response head (status line and header lines, up
/// to and including the blank line).
fn parse_head(raw: &[u8]) -> io::Result<Head> {
    let head = std::str::from_utf8(raw).map_err(|_| bad("malformed status line"))?;
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
    Ok(Head {
        status,
        content_length,
        chunked,
        close: close || chunked,
    })
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
fn parse_chunk_frame(raw: &[u8]) -> io::Result<Option<(ChunkFrame, usize)>> {
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
    conn: Conn,
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
        let mut conn = Conn::connect(addr, timeout)?;
        let tenant = tenant.map(|tenant| ("x-tenant", tenant));
        let body = request.encode();
        conn.write("POST", "/v1/sweep?stream=1", tenant.as_slice(), &body, None)?;
        let head = conn.reader.head(None)?;
        if !(200..300).contains(&head.status) {
            // Refusals are sent up front with an ordinary buffered body.
            let body = conn.reader.body(&head, None)?;
            let json = Json::parse(&body).unwrap_or(Json::Null);
            return Err(api_error(head.status, &json));
        }
        if !head.chunked {
            return Err(ClientError::Decode(
                "streamed sweep response is not chunked".to_string(),
            ));
        }
        Ok(Self {
            conn,
            prologue_seen: false,
            epilogue_seen: false,
            done: false,
        })
    }

    /// Reads frames up to the next plan, the clean end, or a failure.
    fn next_point(&mut self) -> Option<Result<PlanView, ClientError>> {
        loop {
            let text = match self.conn.reader.frame(None) {
                Err(e) => return Some(Err(e.into())),
                Ok(ChunkFrame::End {
                    error: Some(trailer),
                }) => return Some(Err(trailer_error(&trailer))),
                Ok(ChunkFrame::End { error: None }) if self.epilogue_seen => return None,
                Ok(ChunkFrame::End { error: None }) => {
                    return Some(Err(ClientError::Decode(
                        "stream ended before its epilogue".into(),
                    )))
                }
                Ok(ChunkFrame::Data(data)) => match String::from_utf8(data) {
                    Ok(text) => text,
                    Err(_) => return Some(Err(ClientError::Decode("non-UTF-8 chunk".into()))),
                },
            };
            if !self.prologue_seen {
                if text != "{\"plans\":[" {
                    return Some(Err(ClientError::Decode(format!(
                        "unexpected stream prologue: {text}"
                    ))));
                }
                self.prologue_seen = true;
            } else if text == "]}" {
                self.epilogue_seen = true;
            } else if self.epilogue_seen {
                return Some(Err(ClientError::Decode(
                    "data chunk after the epilogue".into(),
                )));
            } else {
                let point = text.strip_prefix(',').unwrap_or(&text);
                return Some(
                    Json::parse(point)
                        .map_err(|e| ClientError::Decode(format!("undecodable plan chunk: {e}")))
                        .and_then(|json| {
                            PlanView::from_json(&json).map_err(|e| ClientError::Decode(e.message))
                        }),
                );
            }
        }
    }
}

/// The typed service error a non-2xx `status` with JSON `body` decodes
/// to (`"unexplained error"` when the body carries no message).
fn api_error(status: u16, body: &Json) -> ClientError {
    let message = body
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("unexplained error")
        .to_string();
    ClientError::Api(ApiError { status, message })
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
        let point = self.next_point();
        // Fused after any error and after the clean end.
        self.done = !matches!(point, Some(Ok(_)));
        point
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
        self.exchange(method, path, headers, body, None)
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
        let wait = self.timeout.unwrap_or(DEFAULT_RESPONSE_TIMEOUT);
        let mut probe = Probe::new(poll, alive, wait);
        match self.exchange(method, path, headers, body, Some(&mut probe)) {
            Err(e) if is_gone(&e) => Ok(None),
            response => response.map(Some),
        }
    }

    /// One exchange on a parked connection, retried once on a fresh
    /// one when the parked one fails (but not when the downstream
    /// client is gone: that connection is dropped to relay the hangup).
    fn exchange(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        mut probe: Option<&mut Probe<'_>>,
    ) -> io::Result<(u16, String)> {
        let reused = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut retry = reused.is_some();
        let mut conn = match reused {
            Some(conn) => conn,
            None => Conn::connect(self.addr, self.timeout)?,
        };
        loop {
            match conn.exchange(method, path, headers, body, probe.as_deref_mut()) {
                Ok(response) => {
                    self.park(conn);
                    return Ok(response);
                }
                // Stale keep-alive (the server reaped it while parked):
                // once more on a fresh connection.
                Err(e) if retry && !is_gone(&e) => {
                    retry = false;
                    conn = Conn::connect(self.addr, self.timeout)?;
                }
                Err(e) => return Err(e),
            }
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
        let tenant = tenant.map(|tenant| ("x-tenant", tenant));
        let (status, text) = self.pool.request(method, path, tenant.as_slice(), body)?;
        let json = Json::parse(&text)
            .map_err(|e| ClientError::Decode(format!("{status} body is not JSON: {e}")))?;
        if !(200..300).contains(&status) {
            return Err(api_error(status, &json));
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
    Conn::connect(addr, None)?.send(method, path, headers, body)
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
    use proptest::prelude::*;

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

    /// A reader over `data` that yields at most `step` bytes per read.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Trickle<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(&self.data[..self.data.len().min(self.step)])
        }

        fn consume(&mut self, n: usize) {
            self.data = &self.data[n..];
        }
    }

    fn reader(data: &[u8], step: usize) -> Reader<Trickle<'_>> {
        Reader::new(Trickle { data, step })
    }

    /// One whole response through the reader: (status, body, close).
    fn read_whole(reader: &mut Reader<Trickle<'_>>) -> io::Result<(u16, String, bool)> {
        let head = reader.head(None)?;
        let body = reader.body(&head, None)?;
        Ok((head.status, body, head.close))
    }

    #[test]
    fn reader_is_incremental() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: close\r\n\r\nhello";
        for cut in 0..full.len() {
            assert_eq!(
                read_whole(&mut reader(&full[..cut], usize::MAX))
                    .unwrap_err()
                    .kind(),
                io::ErrorKind::UnexpectedEof,
                "prefix of {cut} bytes must ask for more"
            );
        }
        let (status, body, close) = read_whole(&mut reader(full, 1)).unwrap();
        assert_eq!((status, body.as_str(), close), (200, "hello", true));

        // Trailing bytes from a pipelined next response don't confuse
        // it, and stay buffered for the next read.
        let mut extra = full.to_vec();
        extra.extend_from_slice(b"HTTP/1.1 2");
        let mut pipelined = reader(&extra, usize::MAX);
        let (status, body, _) = read_whole(&mut pipelined).unwrap();
        assert_eq!((status, body.as_str()), (200, "hello"));
        assert_eq!(pipelined.raw, b"HTTP/1.1 2");

        for bad in [
            &b"BROKEN\r\n\r\n"[..],
            &b"HTTP/1.1 abc OK\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n"[..],
        ] {
            assert_eq!(
                read_whole(&mut reader(bad, usize::MAX)).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
    }

    #[test]
    fn response_heads_are_capped() {
        let mut head = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
        head.resize(MAX_HEADER_BYTES - 4, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let (status, _, _) = read_whole(&mut reader(&head, 7)).unwrap();
        assert_eq!(status, 200, "a head of exactly the cap frames");

        head.insert(head.len() - 4, b'a');
        assert_eq!(
            read_whole(&mut reader(&head, 7)).unwrap_err().kind(),
            io::ErrorKind::InvalidData,
            "one byte past the cap is refused"
        );
    }

    /// A full chunked response as the server writes it.
    fn chunked_response(chunks: &[&str], trailer: Option<&str>) -> Vec<u8> {
        let chunks: Vec<&[u8]> = chunks.iter().map(|c| c.as_bytes()).collect();
        chunked_bytes(&chunks, trailer)
    }

    fn chunked_bytes(chunks: &[&[u8]], trailer: Option<&str>) -> Vec<u8> {
        let mut raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\
            trailer: x-fc-error\r\nconnection: close\r\n\r\n"
            .to_vec();
        for chunk in chunks {
            raw.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            raw.extend_from_slice(chunk);
            raw.extend_from_slice(b"\r\n");
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
        // or missing terminal chunk never reads as complete.
        for cut in 0..raw.len() {
            assert_eq!(
                read_whole(&mut reader(&raw[..cut], usize::MAX))
                    .unwrap_err()
                    .kind(),
                io::ErrorKind::UnexpectedEof,
                "prefix of {cut} bytes must ask for more"
            );
        }
        let (status, body, close) = read_whole(&mut reader(&raw, 3)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"plans\":[{\"x\":1},{\"x\":2}]}");
        assert!(close, "chunked responses always close the connection");
    }

    #[test]
    fn chunked_error_trailer_surfaces_as_typed_failure() {
        let raw = chunked_response(&["{\"plans\":[", "{\"x\":1}"], Some("500 solver exploded"));
        let err = read_whole(&mut reader(&raw, usize::MAX)).unwrap_err();
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

    /// Bytes the fuzz property draws from: framing punctuation, hex
    /// digits, a few header fragments and non-UTF-8, so random strings
    /// reach deep into the head, body and chunk parsers.
    const FUZZ_PIECES: &[&[u8]] = &[
        b"\r\n",
        b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n",
        b"content-length: ",
        b"transfer-encoding: chunked\r\n",
        b"x-fc-error: 500 x\r\n",
        b"18446744073709551615",
        b"content-length: 18446744073709551615\r\n\r\n",
        b"0",
        b"7",
        b"f",
        b"ffffffffffffffffff",
        b":",
        b" ",
        b"a",
        b"\xff",
    ];

    /// The pieces of the valid-response property's bodies, UTF-8
    /// multi-byte characters included so chunk splits cut through them.
    const BODY_PIECES: &[&str] = &["a", "{\"x\":1}", ",", "\r\n", "0", "é", "→"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary input, read any number of bytes at a time, ends in
        /// a response, a chunk sequence, or a typed error, never a
        /// panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            raw in prop::collection::vec(0u8..=255, 0..128),
            pieces in prop::collection::vec(0usize..FUZZ_PIECES.len(), 0..48),
            prefixed in 0usize..3,
            step in 1usize..32,
        ) {
            let mut input: Vec<u8> = match prefixed {
                0 => Vec::new(),
                1 => b"HTTP/1.1 200 OK\r\n".to_vec(),
                _ => b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec(),
            };
            for piece in pieces {
                input.extend_from_slice(FUZZ_PIECES[piece]);
            }
            input.extend_from_slice(&raw);
            let _ = read_whole(&mut reader(&input, step));
            let mut frames = reader(&input, step);
            while let Ok(ChunkFrame::Data(_)) = frames.frame(None) {}
        }

        /// A valid response survives any read size, down to one byte
        /// per read: a `Content-Length` body reads back whole, chunks
        /// arrive as sent and concatenate to the body, and an error
        /// trailer becomes the typed failure.
        #[test]
        fn valid_responses_round_trip_under_any_read_size(
            pieces in prop::collection::vec(0usize..BODY_PIECES.len(), 0..64),
            cuts in prop::collection::vec(1usize..24, 0..12),
            framing in 0usize..3,
            step in 1usize..16,
        ) {
            let body: String = pieces.iter().map(|&p| BODY_PIECES[p]).collect();
            if framing == 0 {
                let raw = format!(
                    "HTTP/1.1 201 Created\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                );
                let (status, read, close) = read_whole(&mut reader(raw.as_bytes(), step))
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!((status, read.as_str(), close), (201, body.as_str(), false));
                return Ok(());
            }
            let mut chunks: Vec<&[u8]> = Vec::new();
            let mut rest = body.as_bytes();
            for cut in cuts {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                chunks.push(chunk);
                rest = tail;
            }
            if !rest.is_empty() {
                chunks.push(rest);
            }
            let trailer = (framing == 2).then_some("503 backend drained");
            let raw = chunked_bytes(&chunks, trailer);

            let mut frames = reader(&raw, step);
            let head = frames.head(None).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert!(head.chunked && head.close);
            for chunk in &chunks {
                let frame = frames.frame(None).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(frame, ChunkFrame::Data(chunk.to_vec()));
            }
            let end = frames.frame(None).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(end, ChunkFrame::End { error: trailer.map(str::to_string) });

            match (read_whole(&mut reader(&raw, step)), trailer) {
                (Ok((200, read, true)), None) => prop_assert_eq!(read, body),
                (Err(e), Some(trailer)) => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    prop_assert!(e.to_string().contains(trailer));
                }
                (other, _) => prop_assert!(false, "unexpected read: {other:?}"),
            }
        }
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
