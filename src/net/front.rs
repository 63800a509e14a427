//! The connection front shared by the [`PlannerServer`](super::PlannerServer)
//! and the [`RouterServer`](super::RouterServer): a blocking accept loop
//! over [`TcpListener`], one handler thread per connection (bounded; a
//! refusal `503` past the cap), the keep-alive read → route → respond
//! loop, and the `405`/`404` answers for requests no route takes.
//!
//! Each front supplies only its shared state and a route table; the
//! request-lifecycle rules — timeouts, framing errors, connection
//! reaping, graceful drain — live here once.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::api::ApiError;
use super::http::{read_request, write_response, HttpError, Request};
use super::json::Json;

/// What a route handler decided.
pub(crate) enum Outcome {
    Respond {
        status: u16,
        body: String,
    },
    /// The route wrote a chunked response directly to the socket
    /// (complete or aborted); the connection closes either way.
    Streamed,
    /// The client is gone; there is nobody to answer.
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

/// What every connection handler shares.
struct Shared<C: 'static> {
    app: Arc<C>,
    routes: &'static [Route<C>],
    limits: Limits,
    shutdown: AtomicBool,
    live: Arc<LiveConnections>,
}

/// A running front: its bound address, accept thread, and drain.
pub(crate) struct Front<C: 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<C>>,
    accept: Option<JoinHandle<()>>,
}

impl<C: Send + Sync + 'static> Front<C> {
    /// Starts the accept loop on `listener` (threads named after
    /// `name`): every connection is served on its own handler thread
    /// through `routes` over `app`.
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

    /// Graceful shutdown: stop accepting, then wait until every
    /// accepted connection's handler has finished its request. Idle
    /// keep-alive connections are released at their next read-timeout
    /// tick. Returns `false` when the front was already shut down.
    pub(crate) fn shutdown(&mut self) -> bool {
        let Some(accept) = self.accept.take() else {
            return false;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
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
        let conn_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || {
                let _slot = slot;
                handle_connection(sock, &conn_shared);
            });
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
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = sock;
    loop {
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
            // A chunked response went out with `connection: close`, or
            // the client is gone: either way the connection is over.
            Outcome::Streamed | Outcome::ClientGone => return,
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
