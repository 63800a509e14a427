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
//! exchange on a fresh [`Conn`]; and [`SweepStream`] borrows a pooled
//! [`Conn`], yielding each plan of a streamed sweep as its chunk
//! arrives and parking the connection after the terminal chunk. A
//! chunked response read whole is its chunks concatenated — the
//! byte-identity gate: a streamed sweep read through [`post`] must
//! equal the buffered response.
//!
//! A connection stays reusable after a chunked response once its
//! terminal chunk has framed: the reader consumes exactly the terminal
//! chunk and its trailers and keeps whatever follows for the next head.
//! Only `connection: close`, or a response not read to its end, retires
//! a connection. Every pooled exchange, [`SweepStream`], the router's
//! streamed relay and its broadcast run through one in-flight request
//! type, `InFlight`, which owns the stale-connection retry and parks
//! the connection once the response is whole.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::api::{
    ApiError, CleanRequest, CleanResponse, CreateStreamRequest, PlanView, RecommendRequest,
    StatsResponse, StreamInfo, SweepRequest,
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

/// Pools [`SweepStream::open`] keeps, most recently used first; the
/// least recently used one is dropped (closing its idle connections)
/// when a new address or timeout needs a pool.
const SWEEP_POOLS: usize = 8;

/// Idle connections each of those pools parks. With [`SWEEP_POOLS`] it
/// bounds the process-wide set at 32 sockets, however many servers a
/// process talks to over its life.
const SWEEP_POOL_IDLE: usize = 4;

/// The process-wide idle set behind [`SweepStream::open`]: one
/// [`ClientPool`] per resolved address and timeout, most recently used
/// first.
static SWEEP_POOL_SET: Mutex<Vec<Arc<ClientPool>>> = Mutex::new(Vec::new());

/// Writes one request on `sock` (keep-alive framing: the connection
/// stays usable for [`read_response`] and further requests), head and
/// body in one `write_all`. `headers` are extra headers, e.g.
/// `[("x-tenant", "alice")]`.
pub fn write_request(
    sock: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut message = format!("{method} {path} HTTP/1.1\r\nhost: fc\r\n");
    for (name, value) in headers {
        message.push_str(&format!("{name}: {value}\r\n"));
    }
    message.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    message.push_str(body);
    sock.write_all(message.as_bytes())
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
    /// The read timeout the socket was built with; a probed exchange
    /// restores it, so no exchange has to ask the socket for it.
    timeout: Duration,
    /// The socket's read timeout is a probe's poll interval until the
    /// response frames (see [`Conn::framed`]).
    polling: bool,
    close: bool,
}

impl Conn {
    /// Connects to `addr`. `timeout` bounds the connect and every read
    /// and write on the connection (default: a generous 120s on reads,
    /// unbounded connect and writes).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Self> {
        let sock = connect(addr, timeout)?;
        let read_timeout = timeout.unwrap_or(DEFAULT_RESPONSE_TIMEOUT);
        sock.set_read_timeout(Some(read_timeout))?;
        sock.set_write_timeout(timeout)?;
        sock.set_nodelay(true)?;
        Ok(Self {
            reader: Reader::new(BufReader::new(sock.try_clone()?)),
            writer: sock,
            timeout: read_timeout,
            polling: false,
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
        self.write(method, path, headers, body, None)?;
        let head = self.reader.head(None)?;
        let body = self.reader.body(&head, None)?;
        self.framed(&head);
        Ok((head.status, body))
    }

    /// Whether the server will accept another request on this
    /// connection (no `connection: close` seen, and the last exchange
    /// framed a whole response).
    pub fn reusable(&self) -> bool {
        !self.close
    }

    /// Writes one request whose response the caller reads through
    /// [`Conn::reader`]. With a `probe`, reads time out every poll
    /// interval so the probe is consulted between them. The connection
    /// is not reusable until [`Conn::framed`] sees the whole response.
    pub(crate) fn write(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        probe: Option<&Probe<'_>>,
    ) -> io::Result<()> {
        self.close = true;
        if let Some(probe) = probe {
            self.writer.set_read_timeout(Some(probe.poll))?;
            self.polling = true;
        }
        write_request(&mut self.writer, method, path, headers, body)
    }

    /// Records that the response `head` announced has been read whole
    /// (chunked or not): the connection is reusable unless the server
    /// said `connection: close`, and a probed exchange gets its read
    /// timeout back.
    pub(crate) fn framed(&mut self, head: &Head) {
        let restored = !std::mem::take(&mut self.polling)
            || self.writer.set_read_timeout(Some(self.timeout)).is_ok();
        self.close = head.close || !restored;
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
            if let Some(frame) = self.buffered_frame()? {
                return Ok(frame);
            }
            self.fill(probe.as_deref_mut())?;
        }
    }

    /// Consumes the next frame of a chunked body if it has already
    /// arrived whole; `Ok(None)` otherwise. Never reads: a relay uses
    /// it to batch every frame one read brought in before it writes.
    pub(crate) fn buffered_frame(&mut self) -> io::Result<Option<ChunkFrame>> {
        let Some((frame, used)) = parse_chunk_frame(&self.raw)? else {
            return Ok(None);
        };
        self.raw.drain(..used);
        Ok(Some(frame))
    }
}

/// A parsed response head.
#[derive(Debug)]
pub(crate) struct Head {
    pub(crate) status: u16,
    pub(crate) content_length: usize,
    pub(crate) chunked: bool,
    /// The connection ends after this response: the server sent
    /// `connection: close`. A chunked body alone does not close it: once
    /// its terminal chunk has framed, the next response may follow on
    /// the same connection.
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
        close,
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

/// The pool [`SweepStream::open`] takes a connection to `addr` from:
/// the process-wide set's pool for the resolved address and `timeout`,
/// created (evicting the least recently used past [`SWEEP_POOLS`]) on
/// first use.
fn sweep_pool(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Arc<ClientPool>> {
    let fresh = ClientPool::new(addr)?;
    let mut pools = SWEEP_POOL_SET
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let pool = match pools
        .iter()
        .position(|pool| pool.addr == fresh.addr && pool.timeout == timeout)
    {
        Some(at) => pools.remove(at),
        None => Arc::new(ClientPool {
            timeout,
            max_idle: SWEEP_POOL_IDLE,
            ..fresh
        }),
    };
    pools.insert(0, Arc::clone(&pool));
    pools.truncate(SWEEP_POOLS);
    Ok(pool)
}

/// An in-flight streamed sweep (`POST /v1/sweep?stream=1`): iterate to
/// receive each budget point's plan as its chunk arrives — ascending
/// budget order, first point available while later ones are still
/// solving. Runs on a connection borrowed from a [`ClientPool`] and
/// parked back there once the terminal chunk frames, with or without
/// an error trailer (a buffered refusal parks it too). A stream dropped
/// before its terminal chunk closes its connection instead, which the
/// server's disconnect probe turns into cancellation of the remaining
/// points.
///
/// A mid-stream server failure arrives as the error trailer and is
/// yielded as one final `Err`; after any `Err` (or the clean end) the
/// iterator is fused.
#[derive(Debug)]
pub struct SweepStream {
    /// The borrowed connection until the terminal chunk parks it (or a
    /// failure closes it).
    conn: Option<Conn>,
    pool: Arc<ClientPool>,
    head: Head,
    prologue_seen: bool,
    epilogue_seen: bool,
    done: bool,
}

impl SweepStream {
    /// Submits `request` with `stream=1` to `addr` on a keep-alive
    /// connection from a process-wide idle set, keyed by the resolved
    /// address and `timeout` (which bounds the connect and every read
    /// and write). A refusal (non-2xx, delivered buffered) is decoded
    /// and returned here, so a constructed stream is live.
    pub fn open(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        request: &SweepRequest,
        tenant: Option<&str>,
    ) -> Result<Self, ClientError> {
        Self::over(sweep_pool(addr, timeout)?, request, tenant)
    }

    /// [`SweepStream::open`] on a connection from `pool`.
    fn over(
        pool: Arc<ClientPool>,
        request: &SweepRequest,
        tenant: Option<&str>,
    ) -> Result<Self, ClientError> {
        let tenant = tenant.map(|tenant| ("x-tenant", tenant));
        let body = request.encode();
        let mut call = pool.start("POST", "/v1/sweep?stream=1", tenant.as_slice(), &body, None)?;
        let head = call.head(None)?;
        if !(200..300).contains(&head.status) {
            // Refusals are sent up front with an ordinary buffered body.
            let body = call.reader().body(&head, None)?;
            call.finish(&head);
            let json = Json::parse(&body).unwrap_or(Json::Null);
            return Err(api_error(head.status, &json));
        }
        if !head.chunked {
            return Err(ClientError::Decode(
                "streamed sweep response is not chunked".to_string(),
            ));
        }
        Ok(Self {
            conn: Some(call.into_conn()),
            pool,
            head,
            prologue_seen: false,
            epilogue_seen: false,
            done: false,
        })
    }

    /// Reads frames up to the next plan, the clean end, or a failure.
    fn next_point(&mut self) -> Option<Result<PlanView, ClientError>> {
        loop {
            let conn = self.conn.as_mut()?;
            let frame = conn.reader.frame(None);
            if let Ok(ChunkFrame::End { .. }) = frame {
                // The response is whole: the connection can carry the
                // next request.
                conn.framed(&self.head);
                self.pool.park(self.conn.take()?);
            }
            let text = match frame {
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
        // Fused after any error and after the clean end; a connection
        // the terminal chunk did not park is closed here.
        self.done = !matches!(point, Some(Ok(_)));
        if self.done {
            self.conn = None;
        }
        point
    }
}

/// A keep-alive connection pool over one server address: requests
/// reuse a parked [`Conn`] when one is idle, connect otherwise, and
/// park the connection back afterwards. Shareable across threads
/// (each in-flight request holds its connection exclusively; the lock
/// guards only the idle list, never I/O).
///
/// A request that fails on a *reused* connection before its response
/// head arrives is retried once on a fresh one — the server reaps idle
/// keep-alive connections at its read timeout, so a stale-connection
/// error is expected, not exceptional. Caveat: if the server executed
/// the request but died before answering, the retry re-executes it;
/// acceptable for this client, whose requests are safe to repeat.
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

    /// [`ClientPool::request`] with downstream-liveness probing: while
    /// the response is pending the socket is polled every `poll` and
    /// `alive` is consulted. `Ok(None)` means `alive` reported the
    /// downstream client gone — the upstream connection is dropped (not
    /// parked), closing the socket so the server's disconnect probe
    /// cancels the request. This is how a routing front relays
    /// cancellation-on-disconnect instead of absorbing it. Only safe
    /// for requests that may re-execute (the stale-keep-alive retry
    /// applies here too).
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

    /// One exchange on a pooled connection (see [`InFlight`]).
    fn exchange(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        probe: Option<&mut Probe<'_>>,
    ) -> io::Result<(u16, String)> {
        self.start(method, path, headers, body, probe.as_deref())?
            .response(probe)
    }

    /// Writes one request on a parked connection, or a fresh one when
    /// none is parked, and hands back the [`InFlight`] request whose
    /// response the caller reads. A parked connection the write fails
    /// on is replaced by a fresh one once. With a `probe`, reads on the
    /// connection time out every poll interval (see [`Conn::write`]).
    pub(crate) fn start<'a>(
        &'a self,
        method: &'a str,
        path: &'a str,
        headers: &'a [(&'a str, &'a str)],
        body: &'a str,
        probe: Option<&Probe<'_>>,
    ) -> io::Result<InFlight<'a>> {
        let parked = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let retry = parked.is_some();
        let conn = match parked {
            Some(conn) => conn,
            None => Conn::connect(self.addr, self.timeout)?,
        };
        let mut call = InFlight {
            pool: self,
            conn,
            retry,
            method,
            path,
            headers,
            body,
        };
        if let Err(e) = call.conn.write(method, path, headers, body, probe) {
            call.retry(e, probe)?;
        }
        Ok(call)
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

/// One request written on a [`ClientPool`] connection whose response
/// is still to be read: the one path every pooled exchange, the
/// router's streamed relay and its pipelined broadcast go through.
///
/// Until the response head arrives, a failure on a connection that
/// came parked is retried once on a fresh connection carrying the same
/// request (never when the downstream client is gone, see
/// [`is_gone`]). [`InFlight::finish`] parks the connection after a
/// whole response; dropping the request instead closes the connection,
/// which is how an abandoned response relays a hangup upstream.
pub(crate) struct InFlight<'a> {
    pool: &'a ClientPool,
    conn: Conn,
    /// `conn` came parked and has not been replaced yet.
    retry: bool,
    method: &'a str,
    path: &'a str,
    headers: &'a [(&'a str, &'a str)],
    body: &'a str,
}

impl InFlight<'_> {
    /// Replaces a failed parked connection with a fresh one carrying
    /// the same request, once; any other failure is returned as is.
    fn retry(&mut self, e: io::Error, probe: Option<&Probe<'_>>) -> io::Result<()> {
        if !std::mem::take(&mut self.retry) || is_gone(&e) {
            return Err(e);
        }
        self.conn = Conn::connect(self.pool.addr, self.pool.timeout)?;
        self.conn
            .write(self.method, self.path, self.headers, self.body, probe)
    }

    /// Reads the response head, retrying a stale parked connection.
    pub(crate) fn head(&mut self, mut probe: Option<&mut Probe<'_>>) -> io::Result<Head> {
        loop {
            match self.conn.reader.head(probe.as_deref_mut()) {
                Ok(head) => {
                    self.retry = false;
                    return Ok(head);
                }
                Err(e) => self.retry(e, probe.as_deref())?,
            }
        }
    }

    /// The reader the response body or chunks come from.
    pub(crate) fn reader(&mut self) -> &mut Reader<BufReader<TcpStream>> {
        &mut self.conn.reader
    }

    /// The whole response as (status, body); parks the connection.
    pub(crate) fn response(
        mut self,
        mut probe: Option<&mut Probe<'_>>,
    ) -> io::Result<(u16, String)> {
        let head = self.head(probe.as_deref_mut())?;
        let body = self.conn.reader.body(&head, probe)?;
        self.finish(&head);
        Ok((head.status, body))
    }

    /// Parks the connection once the response `head` announced has been
    /// read whole (its terminal chunk included).
    pub(crate) fn finish(mut self, head: &Head) {
        self.conn.framed(head);
        self.pool.park(self.conn);
    }

    /// The connection, for a response read past this request's
    /// lifetime; its reader parks it through [`ClientPool::park`].
    fn into_conn(self) -> Conn {
        self.conn
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
    /// a connection from this client's pool, parked back after the
    /// terminal chunk (see [`SweepStream`]). Dropping the iterator
    /// early closes the connection, which cancels the points still
    /// solving server-side.
    pub fn sweep_streaming(
        &self,
        request: &SweepRequest,
        tenant: Option<&str>,
    ) -> Result<SweepStream, ClientError> {
        SweepStream::over(Arc::clone(&self.pool), request, tenant)
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

    /// `GET /v1/streams/{id}/snapshot` — the stream's definition,
    /// ready to [`adopt`] on a peer.
    ///
    /// [`adopt`]: ApiClient::adopt
    pub fn snapshot(&self, id: &str) -> Result<CreateStreamRequest, ClientError> {
        let json = self.exchange("GET", &format!("/v1/streams/{id}/snapshot"), None, "")?;
        CreateStreamRequest::from_json(&json).map_err(|e| ClientError::Decode(e.message))
    }

    /// `POST /v1/streams/{id}/adopt` — install a replicated stream
    /// from a peer's [`snapshot`](ApiClient::snapshot) without
    /// re-uploading the dataset. Answers whether the id already hosted
    /// the same definition (adopt is idempotent).
    pub fn adopt(&self, id: &str, definition: &CreateStreamRequest) -> Result<bool, ClientError> {
        let body = definition.encode().map_err(ClientError::Api)?;
        let json = self.exchange("POST", &format!("/v1/streams/{id}/adopt"), None, &body)?;
        json.get("merged")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Decode("adopt response missing merged".into()))
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
    use super::super::http::{finish_chunked, write_chunk, write_chunked_head, write_response};
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

    /// A `Content-Length` response as the server writes it.
    fn response_bytes(status: u16, body: &str, close: bool) -> Vec<u8> {
        let mut raw = Vec::new();
        write_response(&mut raw, status, body, close).unwrap();
        raw
    }

    #[test]
    fn reader_is_incremental() {
        let full = &response_bytes(200, "hello", true)[..];
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
        let mut raw = Vec::new();
        write_chunked_head(&mut raw, 200).unwrap();
        for chunk in chunks {
            write_chunk(&mut raw, chunk).unwrap();
        }
        finish_chunked(&mut raw, trailer).unwrap();
        raw
    }

    #[test]
    fn chunked_response_concatenates_and_keeps_the_connection() {
        let stream = chunked_response(&["{\"plans\":[", "{\"x\":1}", ",{\"x\":2}", "]}"], None);
        // A keep-alive response right behind the stream's terminal
        // chunk, as the front sends it to the connection's next request.
        let mut raw = stream.clone();
        raw.extend_from_slice(&response_bytes(200, "{\"next\":1}", false));
        // Every strict prefix of the stream asks for more — a truncated
        // chunk body or missing terminal chunk never reads as complete
        // — and every prefix past it frames the stream but not the
        // response behind it.
        for cut in 0..raw.len() {
            let mut prefix = reader(&raw[..cut], usize::MAX);
            let first = read_whole(&mut prefix);
            if cut < stream.len() {
                assert_eq!(
                    first.unwrap_err().kind(),
                    io::ErrorKind::UnexpectedEof,
                    "prefix of {cut} bytes must ask for more"
                );
            } else {
                assert!(first.is_ok(), "prefix of {cut} bytes frames the stream");
                assert_eq!(
                    read_whole(&mut prefix).unwrap_err().kind(),
                    io::ErrorKind::UnexpectedEof,
                    "prefix of {cut} bytes must ask for more of the next response"
                );
            }
        }
        let mut both = reader(&raw, 3);
        let (status, body, close) = read_whole(&mut both).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"plans\":[{\"x\":1},{\"x\":2}]}");
        assert!(!close, "a complete stream leaves the connection open");
        let (status, body, close) = read_whole(&mut both).unwrap();
        assert_eq!((status, body.as_str(), close), (200, "{\"next\":1}", false));
        assert!(both.raw.is_empty(), "nothing is left over");

        // Only an explicit `connection: close` retires the connection.
        let mut closing = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\
                            connection: close\r\n\r\n"
            .to_vec();
        finish_chunked(&mut closing, None).unwrap();
        let (_, body, close) = read_whole(&mut reader(&closing, 2)).unwrap();
        assert_eq!((body.as_str(), close), ("", true));
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
        /// trailer becomes the typed failure. A chunked response keeps
        /// the connection, and the response behind it on the same
        /// reader (either framing) reads back whole too, whether or not
        /// the stream ended with an error trailer.
        #[test]
        fn valid_responses_round_trip_under_any_read_size(
            pieces in prop::collection::vec(0usize..BODY_PIECES.len(), 0..64),
            cuts in prop::collection::vec(1usize..24, 0..12),
            framing in 0usize..3,
            next_pieces in prop::collection::vec(0usize..BODY_PIECES.len(), 0..16),
            next_chunked in 0usize..2,
            step in 1usize..16,
        ) {
            let body: String = pieces.iter().map(|&p| BODY_PIECES[p]).collect();
            if framing == 0 {
                let raw = response_bytes(201, &body, false);
                let (status, read, close) = read_whole(&mut reader(&raw, step))
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
            let mut raw = chunked_bytes(&chunks, trailer);
            let next: String = next_pieces.iter().map(|&p| BODY_PIECES[p]).collect();
            if next_chunked == 1 {
                raw.extend_from_slice(&chunked_bytes(&[next.as_bytes()], None));
            } else {
                raw.extend_from_slice(&response_bytes(202, &next, false));
            }
            let next_status = if next_chunked == 1 { 200 } else { 202 };

            let mut frames = reader(&raw, step);
            let head = frames.head(None).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert!(head.chunked && !head.close);
            for chunk in &chunks {
                let frame = frames.frame(None).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(frame, ChunkFrame::Data(chunk.to_vec()));
            }
            let end = frames.frame(None).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(end, ChunkFrame::End { error: trailer.map(str::to_string) });
            let after = read_whole(&mut frames).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(after, (next_status, next.clone(), false));

            let mut whole = reader(&raw, step);
            match (read_whole(&mut whole), trailer) {
                (Ok((200, read, false)), None) => prop_assert_eq!(read, body),
                (Err(e), Some(trailer)) => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    prop_assert!(e.to_string().contains(trailer));
                }
                (other, _) => prop_assert!(false, "unexpected read: {other:?}"),
            }
            let after = read_whole(&mut whole).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(after, (next_status, next, false));
            prop_assert!(whole.raw.is_empty());
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
