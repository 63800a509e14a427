//! The connection front shared by the [`PlannerServer`](super::PlannerServer)
//! and the [`RouterServer`](super::RouterServer): a blocking accept loop
//! over [`TcpListener`], handler threads that serve one connection at a
//! time (at most `max_connections` live; a refusal `503` past the cap),
//! the keep-alive read → route → respond loop, and the `405`/`404`
//! answers for requests no route takes.
//!
//! Handler threads outlive their connections: when a connection ends,
//! its handler releases the connection's slot and parks, waiting up to
//! the read timeout for the next accepted socket. The accept loop hands
//! a new socket to a parked handler when one is free and spawns a
//! thread only when none is, so a burst of short connections (a
//! plain `client::post` opens one per call) costs no thread spawn each.
//! A connection outlives a complete streamed response too: the
//! keep-alive loop reads the next request after the terminal chunk, and
//! only a stream abandoned part-way closes it.
//!
//! Shutdown stops accepting, wakes parked handlers, which then exit,
//! and closes every keep-alive connection whose handler is waiting for
//! its next request with nothing read yet; requests already read are
//! answered (with `connection: close`) before the drain returns. So a
//! pooled client's idle connection never holds shutdown for the read
//! timeout.
//!
//! Each front supplies only its shared state and a route table; the
//! request-lifecycle rules — timeouts, framing errors, connection
//! reaping, graceful drain — live here once.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use super::api::ApiError;
use super::http::{read_request, write_response, HttpError, Request};
use super::json::Json;

/// What a route handler decided.
pub(crate) enum Outcome {
    Respond {
        status: u16,
        body: String,
    },
    /// The route wrote a complete chunked response directly to the
    /// socket, terminal chunk included (with or without an error
    /// trailer); the keep-alive loop carries on.
    Streamed,
    /// The client is gone, or a response was abandoned part-way: there
    /// is nobody to answer, and the connection closes.
    ClientGone,
}

impl Outcome {
    pub(crate) fn ok(body: Json) -> Self {
        Self::Respond {
            status: 200,
            body: body.to_string(),
        }
    }
}

impl From<ApiError> for Outcome {
    fn from(e: ApiError) -> Self {
        Self::Respond {
            status: e.status,
            body: e.body(),
        }
    }
}

/// One request as a route handler sees it.
pub(crate) struct Call<'a> {
    pub(crate) request: &'a Request,
    /// The client socket (for disconnect probes and chunked writes).
    pub(crate) sock: &'a TcpStream,
    /// The path segments the route's `*` segments captured, in order.
    pub(crate) params: Vec<&'a str>,
}

/// One route: method, path segments (`*` captures one segment), and
/// the handler over the front's shared state `C`.
pub(crate) type Route<C> = (
    &'static str,
    &'static [&'static str],
    fn(&C, &Call<'_>) -> Outcome,
);

/// The connection limits both fronts take from their configs.
pub(crate) struct Limits {
    pub(crate) max_body_bytes: usize,
    pub(crate) max_connections: usize,
    /// Client socket read and write timeout, doubling as the keep-alive
    /// idle timeout.
    pub(crate) read_timeout: Duration,
}

/// Tracks live connection handlers so shutdown can drain them.
#[derive(Default)]
struct LiveConnections {
    count: Mutex<usize>,
    drained: Condvar,
}

impl LiveConnections {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims a slot, or `None` at the connection cap.
    fn try_claim(self: &Arc<Self>, cap: usize) -> Option<ConnSlot> {
        let mut count = self.lock();
        (*count < cap).then(|| {
            *count += 1;
            ConnSlot(Arc::clone(self))
        })
    }

    fn wait_drained(&self) {
        let mut count = self.lock();
        while *count > 0 {
            count = self
                .drained
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// RAII claim on a [`LiveConnections`] slot: released on drop, so a
/// panicking handler (or a failed thread spawn, which drops the
/// closure unrun) still frees its slot. Leaking one would wedge
/// [`LiveConnections::wait_drained`] — and, once `max_connections`
/// leaks accumulate, turn the front into a permanent `503`.
struct ConnSlot(Arc<LiveConnections>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        *self.0.lock() -= 1;
        self.0.drained.notify_all();
    }
}

/// An accepted socket with the slot it was admitted under.
type Accepted = (TcpStream, ConnSlot);

/// The hand-off between the accept loop and parked handlers. Every
/// queued socket has a parked handler bound to take it:
/// `queue.len() <= parked` always holds, because the accept loop queues
/// only past that check and a parked handler leaves on its timeout only
/// with the queue empty.
#[derive(Default)]
struct Handoff {
    queue: VecDeque<Accepted>,
    /// Handlers waiting for a socket; they hold no slot.
    parked: usize,
}

/// What every connection handler shares.
struct Shared<C: 'static> {
    app: Arc<C>,
    routes: &'static [Route<C>],
    limits: Limits,
    shutdown: AtomicBool,
    live: Arc<LiveConnections>,
    handoff: Mutex<Handoff>,
    handed: Condvar,
    /// A handle on each connection whose handler waits for the first
    /// byte of its next request, keyed by the handler thread (which
    /// serves one connection at a time); shutdown closes their read
    /// halves.
    waiting: Mutex<HashMap<ThreadId, TcpStream>>,
}

impl<C: 'static> Shared<C> {
    fn handoff(&self) -> MutexGuard<'_, Handoff> {
        self.handoff.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn waiting(&self) -> MutexGuard<'_, HashMap<ThreadId, TcpStream>> {
        self.waiting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until the next request's first byte is buffered in
    /// `reader`, with `closer` (a handle on the same socket) registered
    /// so shutdown can end the wait. `false` when the connection should
    /// close instead: the client closed it, it sat idle past the read
    /// timeout, or shutdown is under way with nothing read.
    fn await_request(
        &self,
        closer: &mut Option<TcpStream>,
        reader: &mut BufReader<TcpStream>,
    ) -> bool {
        if !reader.buffer().is_empty() {
            return true; // a pipelined request is already read
        }
        let Some(handle) = closer.take() else {
            return false;
        };
        let handler = std::thread::current().id();
        {
            // Checked under the lock shutdown closes the waiting set
            // under, so no handler registers after that sweep.
            let mut waiting = self.waiting();
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            waiting.insert(handler, handle);
        }
        let arrived = loop {
            match reader.fill_buf() {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                filled => break filled.is_ok_and(|bytes| !bytes.is_empty()),
            }
        };
        // Gone when shutdown closed it meanwhile: the request that may
        // have arrived first is still answered, then the connection ends.
        *closer = self.waiting().remove(&handler);
        arrived
    }

    /// Queues `accepted` for a parked handler, or gives it back when
    /// every parked handler already has a socket coming.
    fn hand_off(&self, accepted: Accepted) -> Option<Accepted> {
        let mut handoff = self.handoff();
        if handoff.parked <= handoff.queue.len() {
            return Some(accepted);
        }
        handoff.queue.push_back(accepted);
        self.handed.notify_one();
        None
    }

    /// Parks a handler whose connection ended until the accept loop
    /// hands it the next socket. `None` after the read timeout with
    /// nothing handed over, or on shutdown: the handler then exits.
    fn park(&self) -> Option<Accepted> {
        let deadline = Instant::now() + self.limits.read_timeout;
        let mut handoff = self.handoff();
        handoff.parked += 1;
        let next = loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break None;
            }
            if let Some(next) = handoff.queue.pop_front() {
                break Some(next);
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break None;
            };
            handoff = self
                .handed
                .wait_timeout(handoff, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        handoff.parked -= 1;
        next
    }
}

/// A running front: its bound address, accept thread, and drain.
pub(crate) struct Front<C: 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<C>>,
    accept: Option<JoinHandle<()>>,
}

impl<C: Send + Sync + 'static> Front<C> {
    /// Starts the accept loop on `listener` (threads named after
    /// `name`): every connection is served on a handler thread, fresh
    /// or parked (see the [module docs](self)), through `routes` over
    /// `app`.
    pub(crate) fn serve(
        name: &str,
        listener: TcpListener,
        limits: Limits,
        app: Arc<C>,
        routes: &'static [Route<C>],
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            app,
            routes,
            limits,
            shutdown: AtomicBool::new(false),
            live: Arc::default(),
            handoff: Mutex::default(),
            handed: Condvar::new(),
            waiting: Mutex::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let name = name.to_string();
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&name, listener, &accept_shared))?;
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

impl<C: 'static> Front<C> {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections being served right now.
    pub(crate) fn live_connections(&self) -> usize {
        *self.shared.live.lock()
    }

    /// Graceful shutdown: stop accepting, close every keep-alive
    /// connection waiting for its next request with nothing read, then
    /// wait until every other connection's handler has answered the
    /// request it read. Parked handlers are woken to exit, and a socket
    /// still queued for one is closed unserved. Returns `false` when
    /// the front was already shut down.
    pub(crate) fn shutdown(&mut self) -> bool {
        let Some(accept) = self.accept.take() else {
            return false;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        let queued = std::mem::take(&mut self.shared.handoff().queue);
        self.shared.handed.notify_all();
        // The queued sockets' slots must be released before the drain
        // waits on them.
        drop(queued);
        // A closed read half wakes the waiting handler to an EOF.
        for (_, sock) in self.shared.waiting().drain() {
            let _ = sock.shutdown(Shutdown::Read);
        }
        self.shared.live.wait_drained();
        true
    }
}

fn accept_loop<C: Send + Sync + 'static>(
    name: &str,
    listener: TcpListener,
    shared: &Arc<Shared<C>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(sock) = stream else { continue };
        let Some(slot) = shared.live.try_claim(shared.limits.max_connections) else {
            refuse_saturated(name, sock, shared.limits.read_timeout);
            continue;
        };
        let Some(accepted) = shared.hand_off((sock, slot)) else {
            continue;
        };
        let conn_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || serve_connections(accepted, &conn_shared));
    }
}

/// A handler thread's life: serve a connection, release its slot, park
/// for the next one, until a park comes back empty.
fn serve_connections<C: 'static>(mut accepted: Accepted, shared: &Shared<C>) {
    loop {
        let (sock, slot) = accepted;
        handle_connection(sock, shared);
        drop(slot);
        match shared.park() {
            Some(next) => accepted = next,
            None => return,
        }
    }
}

/// Writes the saturation `503` on a short-lived detached thread, with
/// a write timeout much shorter than a handler's: a refused client
/// that never reads must stall only its refusal thread. Writing the
/// refusal synchronously on the accept thread would let one slow
/// client block *every* accept for up to the full write timeout —
/// under a sustained 503 storm, a self-inflicted outage.
fn refuse_saturated(name: &str, mut sock: TcpStream, read_timeout: Duration) {
    const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(250);
    let timeout = read_timeout.min(REFUSAL_WRITE_TIMEOUT);
    let body = ApiError {
        status: 503,
        message: "connection limit reached".into(),
    }
    .body();
    // Spawn failure (thread exhaustion) still refuses — dropping the
    // socket just skips the courtesy body.
    let _ = std::thread::Builder::new()
        .name(format!("{name}-refuse"))
        .spawn(move || {
            let _ = sock.set_write_timeout(Some(timeout));
            let _ = write_response(&mut sock, 503, &body, true);
        });
}

/// Serves one connection: a keep-alive loop of read → route →
/// respond. Returns (closing the socket) on client close, malformed
/// framing, write failure, or shutdown.
fn handle_connection<C: 'static>(sock: TcpStream, shared: &Shared<C>) {
    let limits = &shared.limits;
    let _ = sock.set_read_timeout(Some(limits.read_timeout));
    let _ = sock.set_write_timeout(Some(limits.read_timeout));
    let _ = sock.set_nodelay(true);
    let (Ok(read_half), Ok(closer)) = (sock.try_clone(), sock.try_clone()) else {
        return;
    };
    let mut closer = Some(closer);
    let mut reader = BufReader::new(read_half);
    let mut writer = sock;
    loop {
        if !shared.await_request(&mut closer, &mut reader) {
            return;
        }
        let request = match read_request(&mut reader, limits.max_body_bytes) {
            Ok(request) => request,
            // Closed, broken, or idle past the keep-alive window: reap
            // the connection — a silent client must not pin a slot
            // (and block shutdown) indefinitely. Reconnecting is cheap.
            Err(HttpError::Closed | HttpError::Io(_) | HttpError::IdleTimeout) => return,
            Err(HttpError::Malformed { status, reason }) => {
                // Answer what is answerable, then close: past a framing
                // error the byte stream is unparseable.
                let body = ApiError {
                    status,
                    message: reason.to_string(),
                }
                .body();
                let _ = write_response(&mut writer, status, &body, true);
                return;
            }
        };
        let close_after = request.close || shared.shutdown.load(Ordering::SeqCst);
        match route(shared, &request, &writer) {
            Outcome::Respond { status, body } => {
                if write_response(&mut writer, status, &body, close_after).is_err() {
                    return;
                }
            }
            // The terminal chunk framed the stream's end, so the next
            // request can follow on this connection.
            Outcome::Streamed => {}
            Outcome::ClientGone => return,
        }
        if close_after {
            return;
        }
    }
}

/// Runs the first route whose method and path match; a path some route
/// knows under another method is `405`, any other path `404`.
fn route<C: 'static>(shared: &Shared<C>, request: &Request, sock: &TcpStream) -> Outcome {
    let path = request.path();
    let segments: Vec<&str> = path.strip_prefix('/').unwrap_or(path).split('/').collect();
    let mut known_path = false;
    for (method, pattern, handler) in shared.routes {
        let matches = pattern.len() == segments.len()
            && pattern
                .iter()
                .zip(&segments)
                .all(|(p, s)| *p == "*" || p == s);
        if !matches {
            continue;
        }
        if *method != request.method {
            known_path = true;
            continue;
        }
        let params = pattern
            .iter()
            .zip(&segments)
            .filter(|(p, _)| **p == "*")
            .map(|(_, s)| *s)
            .collect();
        return handler(
            &shared.app,
            &Call {
                request,
                sock,
                params,
            },
        );
    }
    if known_path {
        ApiError {
            status: 405,
            message: format!("method {} not allowed on {path}", request.method),
        }
        .into()
    } else {
        ApiError::not_found(format!("no route for {path}")).into()
    }
}

/// Probes whether the client half of `sock` is still there: a
/// non-blocking `peek` distinguishes "no bytes yet" (connected) from
/// EOF/reset (gone). Pipelined request bytes also read as connected.
pub(crate) fn client_connected(sock: &TcpStream) -> bool {
    if sock.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let connected = match sock.peek(&mut probe) {
        Ok(0) => false, // orderly shutdown
        Ok(_) => true,  // pipelined bytes waiting
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
        Err(_) => false, // reset
    };
    let _ = sock.set_nonblocking(false);
    connected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the handler-thread slot leak: a panicking
    /// handler must still release its connection slot (via
    /// [`ConnSlot`]'s drop), or `wait_drained` wedges shutdown and
    /// repeated leaks turn the cap into a permanent `503`.
    #[test]
    fn conn_slot_released_even_when_the_holder_panics() {
        let live = Arc::new(LiveConnections::default());
        let slot = live.try_claim(1).expect("cap of one, nothing live");
        assert!(
            live.try_claim(1).is_none(),
            "second claim must be refused at the cap"
        );
        let handler = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler blew up mid-connection");
        });
        assert!(handler.join().is_err(), "the handler must have panicked");
        let reclaimed = live
            .try_claim(1)
            .expect("the panicked handler's slot must have been released");
        drop(reclaimed);
        // With every slot released, the drain returns immediately.
        live.wait_drained();
    }

    /// A front over no state whose routes report the serving thread
    /// or panic.
    fn test_front(max_connections: usize, read_timeout: Duration) -> Front<()> {
        const ROUTES: &[Route<()>] = &[
            ("GET", &["thread"], |_, _| {
                Outcome::ok(Json::Str(format!("{:?}", std::thread::current().id())))
            }),
            ("GET", &["panic"], |_, _| panic!("route blew up")),
        ];
        let limits = Limits {
            max_body_bytes: 1024,
            max_connections,
            read_timeout,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Front::serve("fc-front-test", listener, limits, Arc::new(()), ROUTES).unwrap()
    }

    fn parked(front: &Front<()>) -> usize {
        front.shared.handoff().parked
    }

    /// Polls `done` for up to five seconds.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The serving thread's id, asked on a connection of its own.
    fn serving_thread(front: &Front<()>) -> String {
        let (status, body) = super::super::client::get(front.addr(), "/thread").unwrap();
        assert_eq!(status, 200, "{body}");
        body
    }

    #[test]
    fn sequential_connections_are_served_by_one_thread() {
        let mut front = test_front(4, Duration::from_secs(5));
        let first = serving_thread(&front);
        eventually("the handler parks", || parked(&front) == 1);
        assert_eq!(
            front.live_connections(),
            0,
            "a parked handler holds no slot"
        );
        let second = serving_thread(&front);
        assert_eq!(first, second, "the parked handler took the next connection");
        eventually("the handler parks again", || parked(&front) == 1);
        assert!(front.shutdown());
    }

    #[test]
    fn a_panicked_handler_frees_its_slot_and_the_next_connection_is_served() {
        let mut front = test_front(1, Duration::from_secs(5));
        assert!(
            super::super::client::get(front.addr(), "/panic").is_err(),
            "the panicking route never answers"
        );
        eventually("the panicked handler's slot is released", || {
            front.live_connections() == 0
        });
        assert_eq!(parked(&front), 0, "a panicked handler does not park");
        serving_thread(&front);
        assert!(front.shutdown());
    }

    #[test]
    fn shutdown_with_parked_handlers_leaves_no_live_connections() {
        // A read timeout far past the test: only shutdown can end the parks.
        let mut front = test_front(4, Duration::from_secs(600));
        let mut conns: Vec<_> = (0..2)
            .map(|_| super::super::client::Conn::connect(front.addr(), None).unwrap())
            .collect();
        for conn in &mut conns {
            assert_eq!(conn.send("GET", "/thread", &[], "").unwrap().0, 200);
        }
        drop(conns);
        eventually("both handlers park", || parked(&front) == 2);
        let started = Instant::now();
        assert!(front.shutdown());
        assert!(started.elapsed() < Duration::from_secs(60));
        assert_eq!(front.live_connections(), 0);
        eventually("the parked handlers exit", || parked(&front) == 0);
    }

    #[test]
    fn shutdown_closes_a_queued_socket_unserved() {
        // No handler is parked, so nothing takes the socket queued here:
        // it models one accepted just before shutdown and not yet taken.
        let mut front = test_front(4, Duration::from_secs(600));
        let side = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(side.local_addr().unwrap()).unwrap();
        let (accepted, _) = side.accept().unwrap();
        let slot = front.shared.live.try_claim(4).unwrap();
        front.shared.handoff().queue.push_back((accepted, slot));
        assert_eq!(front.live_connections(), 1);

        assert!(front.shutdown());
        assert_eq!(front.live_connections(), 0, "the queued slot is released");
        assert!(front.shared.handoff().queue.is_empty());
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            io::Read::read(&mut client, &mut [0u8; 1]).unwrap(),
            0,
            "the queued socket was closed unanswered"
        );
    }

    #[test]
    fn the_connection_cap_counts_live_connections_not_parked_handlers() {
        let mut front = test_front(1, Duration::from_secs(5));
        serving_thread(&front);
        eventually("the handler parks", || parked(&front) == 1);
        // The parked handler holds no slot, so the cap of one admits this.
        let mut held = super::super::client::Conn::connect(front.addr(), None).unwrap();
        assert_eq!(held.send("GET", "/thread", &[], "").unwrap().0, 200);
        // One live connection fills the cap.
        let (status, _) = super::super::client::get(front.addr(), "/thread").unwrap();
        assert_eq!(status, 503);
        drop(held);
        eventually("the held connection's slot is released", || {
            front.live_connections() == 0
        });
        serving_thread(&front);
        assert!(front.shutdown());
    }

    #[test]
    fn conn_slot_released_when_spawn_never_runs_the_closure() {
        let live = Arc::new(LiveConnections::default());
        let slot = live.try_claim(2).expect("slot");
        // A failed `Builder::spawn` drops the unrun closure — and with
        // it the captured slot. Model that by dropping directly.
        drop(slot);
        live.wait_drained();
        assert!(live.try_claim(2).is_some());
    }
}
