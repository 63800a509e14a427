//! `fc::net::router` — the consistent-hash shard front.
//!
//! One [`PlannerServer`](super::PlannerServer) scales until one box
//! saturates; past that, the paper's interactive workload shards
//! naturally *by stream* — every recommend/sweep/clean names the
//! claim stream it operates on, and streams share nothing but the
//! cache store. [`RouterServer`] exploits that: it speaks the same
//! HTTP surface as a backend and consistent-hashes each request's
//! stream id onto one of N backends, so a fact-checker's session
//! sticks to one replica (warm scoped tables, warm benefits) while
//! the fleet shares the load.
//!
//! ## Routing and failure semantics
//!
//! * **Consistent hashing with virtual nodes** — each backend owns
//!   [`VNODES`] points on a 64-bit FNV-1a ring; a stream maps to the
//!   first point at or after its own hash. Adding or removing one
//!   backend moves only the streams that hashed to it.
//! * **Health probes** — a prober thread `GET`s `/v1/health` on every
//!   backend each [`RouterConfig::probe_interval`] (falling back to
//!   `/v1/stats` for backends without the health route). A probe
//!   failure marks the backend unhealthy; a later success restores it.
//! * **Drain / rotate** — a backend is *draining* when the operator
//!   flags it on the router (`POST /v1/admin/backends/{name}/drain`)
//!   or the backend advertises it (`draining: true` in its health
//!   body). Draining backends receive no new streams — requests
//!   rehash to the next live replica — but keep finishing whatever is
//!   in flight on them, and cleans still reach the streams they hold
//!   so their state stays byte-identical for an undrain.
//! * **Bounded retry for idempotent reads** — recommend, sweep, and
//!   the `GET` routes are safe to re-execute, so a transport error
//!   marks the backend unhealthy and retries the next distinct
//!   replica on the ring, each backend at most once. Cleans are
//!   mutations: they are **broadcast** to every copy of the stream (see
//!   *Replica sets*) and never retried; divergent outcomes surface as
//!   `502`.
//! * **Cancellation relays** — while a solve is in flight upstream the
//!   router probes its own client socket; a hangup drops the upstream
//!   connection, which the backend's disconnect probe turns into a
//!   cancel. The router never absorbs a disconnect.
//! * **Streamed sweeps pass through unbuffered** — `POST
//!   /v1/sweep?stream=1` is relayed chunk by chunk on a dedicated
//!   upstream connection: each budget point's chunk is forwarded (and
//!   flushed) the moment it arrives, so time-to-first-point through
//!   the router tracks the backend's, not the whole sweep. Failover
//!   happens only *before* response bytes reach the client; once the
//!   stream has started, an upstream failure is surfaced on the error
//!   trailer, and a client hangup mid-stream drops the upstream
//!   connection so the backend cancels the points still solving.
//! * **Stream lifecycle is ring-routed** — `POST /v1/streams` hashes
//!   the uploaded dataset's `id` onto the ring, so a created stream
//!   lands exactly where later solves for it will route; if that
//!   replica dies, re-creating the stream lands on the next one — the
//!   same replica the solves now route to. `GET /v1/streams/{id}`
//!   follows the same order.
//! * **Replica sets** — each stream's home is a *replica set*: the
//!   first [`RouterConfig::replication_factor`] distinct, usable
//!   backends of its ring walk (one backend at the default `R = 1`).
//!   Creates fan out to the whole set (unanimity required; a `409`
//!   member holding an identical-definition leftover copy is
//!   reconciled via an empty-slice adopt, any other divergence is a
//!   `502`). Cleans and deletes share one target rule: the set plus
//!   every healthy backend whose probed residency holds the stream, so
//!   a copy outside the set — left by ring churn, or registered on a
//!   backend up front — is never skipped. A delete leaves a tombstone.
//!   Reads prefer the primary but fail over to secondaries that
//!   already host the stream — same session, byte-identical plans, no
//!   recreate round-trip. A background repair pass (or `POST
//!   /v1/admin/repair` for a synchronous one) re-replicates
//!   under-replicated streams onto the next ring successor and
//!   re-warms cold secondaries by relaying `GET
//!   /v1/streams/{id}/snapshot` bodies into `POST
//!   /v1/streams/{id}/adopt` — so a failover lands on a warm replica
//!   (`store_misses == 0`). The pass prefers in-set donors, purges
//!   lingering copies of tombstoned (deleted) streams instead of
//!   adopting them back, and backs off a re-warm that restored
//!   nothing (a capacity-bound target) until the donor grows warmer.
//!   [`RouterServer::serve`] probes every backend once before it
//!   accepts, so residency is known from the first request.
//!
//! Aggregate observability: `GET /v1/stats` sums the per-backend
//! stats into the single-box shape (sums preserve the invariants the
//! load test checks), and `GET /v1/topology` reports the ring.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use fc_core::planner::Fnv1a;

use super::api::{ApiError, StatsResponse};
use super::client::{is_gone, ChunkFrame, ClientPool, ClientPools, Conn, Probe};
use super::front::{client_connected, Call, Front, Limits, Outcome, Route};
use super::http::{finish_chunked, write_chunk, write_chunked_head, Request};
use super::json::Json;

/// Virtual nodes per backend on the hash ring: enough that removing
/// one backend spreads its streams across the survivors instead of
/// dumping them on one neighbour.
pub const VNODES: usize = 64;

/// Tuning knobs for a [`RouterServer`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RouterConfig {
    /// Cap on a request body's declared `Content-Length` (`413` past
    /// it). Default: 256 KiB.
    pub max_body_bytes: usize,
    /// Cap on concurrently served client connections (`503` past it).
    /// Default: 64.
    pub max_connections: usize,
    /// Client-side socket read/write timeout (doubles as the
    /// keep-alive idle timeout, as on the backend). Default: 5s.
    pub read_timeout: Duration,
    /// Bounds reads and writes on upstream (backend) connections —
    /// effectively the longest solve the router will wait out.
    /// Default: 120s.
    pub upstream_timeout: Duration,
    /// How often an in-flight upstream wait probes the *client* socket
    /// for disconnect. Default: 50ms.
    pub disconnect_poll: Duration,
    /// Health-probe cadence (and the worst-case latency for noticing a
    /// dead or drained backend without traffic). Default: 250ms.
    pub probe_interval: Duration,
    /// How many distinct ring backends host each stream: the size of
    /// its replica set. Creates fan out to the set; cleans and deletes
    /// reach the set plus every healthy backend whose probed residency
    /// holds the stream; the repair pass keeps the set at strength via
    /// snapshot transfer. Default: 1, a replica set of one.
    pub replication_factor: usize,
    /// Background repair-pass cadence (`POST /v1/admin/repair` forces
    /// a synchronous pass). Default: 1s.
    pub repair_interval: Duration,
}

impl RouterConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        Self {
            max_body_bytes: 256 * 1024,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            upstream_timeout: Duration::from_secs(120),
            disconnect_poll: Duration::from_millis(50),
            probe_interval: Duration::from_millis(250),
            replication_factor: 1,
            repair_interval: Duration::from_secs(1),
        }
    }

    /// Sets the body-size cap.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Sets the concurrent-connection cap.
    pub fn with_max_connections(mut self, connections: usize) -> Self {
        self.max_connections = connections;
        self
    }

    /// Sets the client-side socket timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the upstream socket timeout.
    pub fn with_upstream_timeout(mut self, timeout: Duration) -> Self {
        self.upstream_timeout = timeout;
        self
    }

    /// Sets the client disconnect-probe cadence.
    pub fn with_disconnect_poll(mut self, poll: Duration) -> Self {
        self.disconnect_poll = poll;
        self
    }

    /// Sets the health-probe cadence.
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.probe_interval = interval;
        self
    }

    /// Sets the per-stream replication factor (clamped to at least 1;
    /// values past the fleet size degrade to the fleet size).
    pub fn with_replication_factor(mut self, replicas: usize) -> Self {
        self.replication_factor = replicas.max(1);
        self
    }

    /// Sets the background repair-pass cadence.
    pub fn with_repair_interval(mut self, interval: Duration) -> Self {
        self.repair_interval = interval;
        self
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One upstream backend: its keep-alive pool plus live health state.
struct Backend {
    name: String,
    addr: SocketAddr,
    pool: Arc<ClientPool>,
    /// Set by a successful probe (the first runs before the router
    /// accepts), cleared by a transport failure or failed probe.
    healthy: AtomicBool,
    /// Operator-set on the router (`/v1/admin/backends/{name}/drain`).
    draining: AtomicBool,
    /// The backend's own advisory drain flag, read off its health
    /// probe.
    advertised_draining: AtomicBool,
    /// Per-stream residency off the last health probe: `(stream id,
    /// warm entry count)` for every stream the backend hosts. The
    /// repair pass reads this to spot under-replicated or cold
    /// replicas; `/v1/topology` surfaces it to operators.
    residency: Mutex<Vec<(String, u64)>>,
}

impl Backend {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || self.advertised_draining.load(Ordering::Relaxed)
    }

    /// Eligible for *new* streams: healthy and not draining.
    fn available(&self) -> bool {
        self.healthy.load(Ordering::Relaxed) && !self.draining()
    }
}

/// Shared state of a running router.
struct RouterCtx {
    backends: Vec<Backend>,
    /// ring point → backend index.
    ring: BTreeMap<u64, usize>,
    config: RouterConfig,
    /// Set on shutdown; wakes the prober and repair threads early.
    stopping: (Mutex<bool>, Condvar),
    /// Deleted streams. The repair pass consults these so a copy the
    /// delete could not reach (a member dead at delete time, revived
    /// later) is purged rather than re-replicated — without the
    /// tombstone the pass would use the leftover copy as a donor and
    /// silently resurrect the stream. A tombstone is dropped when the
    /// id is re-created, or once a fully-healthy fleet reports no copy
    /// left.
    tombstones: Mutex<BTreeSet<String>>,
    /// Re-warm attempts that made no progress: `(stream id, target
    /// backend name)` → the donor's warm count when an adopt-merge
    /// restored nothing. A target whose store is at capacity can
    /// never catch up to the donor (restores don't evict), so without
    /// this memo the pass would re-fetch and re-adopt the full
    /// snapshot every interval, forever. Retried only once the donor
    /// has grown warmer than the recorded level.
    repair_stalls: Mutex<BTreeMap<(String, String), u64>>,
}

impl RouterCtx {
    /// Backend indices in ring order starting at `key`'s hash point —
    /// the try order for idempotent requests. Every backend appears
    /// exactly once; availability is checked at *try* time, not here,
    /// so health flips between routing and forwarding still land on
    /// the next replica.
    fn route_order(&self, key: &str) -> Vec<usize> {
        let mut h = Fnv1a::new();
        h.write_str(key);
        let point = mix64(h.finish());
        let mut order = Vec::with_capacity(self.backends.len());
        for &idx in self
            .ring
            .range(point..)
            .chain(self.ring.range(..point))
            .map(|(_, idx)| idx)
        {
            if !order.contains(&idx) {
                order.push(idx);
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }

    /// The stream's *effective replica set*: the first
    /// `replication_factor` distinct backends of the ring walk that are
    /// currently usable — available ones first, then (to keep the set
    /// full through a drain) draining-but-healthy ones. A dead member
    /// is skipped, so its slot falls to the next ring successor — the
    /// same backend the repair pass re-replicates onto.
    fn replica_set(&self, order: &[usize]) -> Vec<usize> {
        let want = self.config.replication_factor.min(self.backends.len());
        self.candidates(order)
            .map(|(idx, _)| idx)
            .take(want)
            .collect()
    }

    /// `order`'s backends in try order: available ones first, then —
    /// drain is a preference, not a partition — draining but healthy
    /// ones. Health is read as the walk advances, so a backend marked
    /// unhealthy mid-walk is not offered again.
    fn candidates<'a>(&'a self, order: &'a [usize]) -> impl Iterator<Item = (usize, &'a Backend)> {
        [false, true].into_iter().flat_map(move |admit_draining| {
            order
                .iter()
                .map(|&idx| (idx, &self.backends[idx]))
                .filter(move |(_, b)| {
                    if admit_draining {
                        b.healthy.load(Ordering::Relaxed) && b.draining()
                    } else {
                        b.available()
                    }
                })
        })
    }
}

/// FNV-1a has weak avalanche on short inputs — a backend's 64 vnode
/// points would cluster on the ring. A splitmix64-style finalizer over
/// the digest spreads them; both ring points and stream keys go
/// through it, so placement stays consistent.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Ring points for one backend's virtual nodes.
fn vnode_points(name: &str) -> impl Iterator<Item = u64> + '_ {
    (0..VNODES as u64).map(move |v| {
        let mut h = Fnv1a::new();
        h.write_str(name);
        h.write_u64(v);
        mix64(h.finish())
    })
}

/// The routing front: builder for a running [`RouterHandle`]. Register
/// backends by name and address, then [`RouterServer::serve`].
///
/// | route | behaviour |
/// |---|---|
/// | `POST /v1/recommend`, `/v1/sweep` | hash the body's stream id → forward, retrying the next replica on transport error |
/// | `POST /v1/sweep?stream=1` | same routing, relayed chunk-by-chunk as points complete upstream |
/// | `POST /v1/streams` | hash the body's `id` → create on every member of its replica set (a dead member's slot falls to the next ring backend); `502` on divergent outcomes |
/// | `GET /v1/streams/{id}` | relayed from the stream's replica (ring order, failing over to secondaries) |
/// | `DELETE /v1/streams/{id}` | broadcast to the stream's replica set plus every probed holder; unanimous `404` relays as `404`; tombstoned for the repair pass |
/// | `POST /v1/streams/{id}/clean` | broadcast to the stream's replica set plus every probed holder; a `404` from a member with no copy is ignored, other divergent outcomes are a `502` |
/// | `GET /v1/stats` | per-backend stats summed into the single-box shape |
/// | `GET /v1/streams` | relayed from the first live backend |
/// | `GET /v1/topology` | the ring: backends, health, drain flags, per-stream residency |
/// | `GET /v1/health` | router liveness + live-backend count + replication factor |
/// | `POST /v1/admin/backends/{name}/drain` (`/undrain`) | flip the router-side drain flag |
/// | `POST /v1/admin/repair` | run one synchronous repair pass; answers its transfer report |
///
/// See the [module docs](self) for routing and failure semantics.
pub struct RouterServer {
    backends: Vec<(String, String)>,
    config: RouterConfig,
}

impl RouterServer {
    /// A router with no backends yet (serve requires at least one).
    pub fn new() -> Self {
        Self {
            backends: Vec::new(),
            config: RouterConfig::new(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: RouterConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers a backend under `name` (the ring identity — keep it
    /// stable across that backend's restarts so its streams rehash
    /// back to it) at `addr`.
    pub fn with_backend(mut self, name: impl Into<String>, addr: impl Into<String>) -> Self {
        self.backends.push((name.into(), addr.into()));
        self
    }

    /// Probes every backend once, then binds `addr` and starts the
    /// accept loop, the health prober and the repair pass on
    /// background threads.
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<RouterHandle> {
        if self.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let pools = ClientPools::new().with_timeout(self.config.upstream_timeout);
        let mut backends = Vec::with_capacity(self.backends.len());
        let mut ring = BTreeMap::new();
        for (idx, (name, addr)) in self.backends.into_iter().enumerate() {
            if backends.iter().any(|b: &Backend| b.name == name) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate backend name {name:?}"),
                ));
            }
            let pool = pools.pool(addr.as_str())?;
            for point in vnode_points(&name) {
                // Collisions across backends are astronomically rare
                // with 64-bit points; first insertion wins.
                ring.entry(point).or_insert(idx);
            }
            backends.push(Backend {
                name,
                addr: pool.addr(),
                pool,
                healthy: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                advertised_draining: AtomicBool::new(false),
                residency: Mutex::new(Vec::new()),
            });
        }
        // Health and residency are known before the first request:
        // writes reach every probed holder of a stream, so a copy
        // registered on a backend up front is never missed.
        probe_fleet(&backends, self.config.read_timeout);
        let listener = TcpListener::bind(addr)?;
        let limits = Limits {
            max_body_bytes: self.config.max_body_bytes,
            max_connections: self.config.max_connections,
            read_timeout: self.config.read_timeout,
        };
        let ctx = Arc::new(RouterCtx {
            backends,
            ring,
            config: self.config,
            stopping: (Mutex::new(false), Condvar::new()),
            tombstones: Mutex::new(BTreeSet::new()),
            repair_stalls: Mutex::new(BTreeMap::new()),
        });
        let front = Front::serve("fc-router", listener, limits, Arc::clone(&ctx), ROUTES)?;
        let probe_ctx = Arc::clone(&ctx);
        let prober = std::thread::Builder::new()
            .name("fc-router-probe".into())
            .spawn(move || prober_loop(&probe_ctx))?;
        let repair_ctx = Arc::clone(&ctx);
        let repairer = std::thread::Builder::new()
            .name("fc-router-repair".into())
            .spawn(move || repairer_loop(&repair_ctx))?;
        Ok(RouterHandle {
            ctx,
            front,
            prober: Some(prober),
            repairer: Some(repairer),
        })
    }
}

impl Default for RouterServer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterServer")
            .field("backends", &self.backends)
            .field("config", &self.config)
            .finish()
    }
}

/// A running router: its bound address plus graceful shutdown.
/// Dropping the handle shuts it down (draining in-flight relays).
pub struct RouterHandle {
    ctx: Arc<RouterCtx>,
    front: Front<RouterCtx>,
    prober: Option<JoinHandle<()>>,
    repairer: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Runs one synchronous repair pass (the same thing `POST
    /// /v1/admin/repair` does over the wire): re-probes the fleet,
    /// then re-replicates and re-warms every under-replicated stream
    /// via snapshot transfer. Answers the pass's report.
    pub fn repair(&self) -> Json {
        repair_pass(&self.ctx)
    }

    /// Flips the router-side drain flag for `name`; `false` if no such
    /// backend. (The HTTP admin route does the same over the wire.)
    pub fn set_draining(&self, name: &str, draining: bool) -> bool {
        match self.ctx.backends.iter().find(|b| b.name == name) {
            Some(backend) => {
                backend.draining.store(draining, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight relays, stop
    /// the prober.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if !self.front.shutdown() {
            return;
        }
        let (stopping, alarm) = &self.ctx.stopping;
        *stopping.lock().unwrap_or_else(PoisonError::into_inner) = true;
        alarm.notify_all();
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        if let Some(repairer) = self.repairer.take() {
            let _ = repairer.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("addr", &self.addr())
            .field("live_connections", &self.front.live_connections())
            .finish()
    }
}

/// Sleeps `interval`; `false` once the router is shutting down.
fn nap(ctx: &RouterCtx, interval: Duration) -> bool {
    let (stopping, alarm) = &ctx.stopping;
    let stopping = stopping.lock().unwrap_or_else(PoisonError::into_inner);
    let (stopping, _) = alarm
        .wait_timeout_while(stopping, interval, |stopping| !*stopping)
        .unwrap_or_else(PoisonError::into_inner);
    !*stopping
}

/// Sleeps, probes every backend, repeats; exits on shutdown.
fn prober_loop(ctx: &RouterCtx) {
    while nap(ctx, ctx.config.probe_interval) {
        probe_fleet(&ctx.backends, ctx.config.read_timeout);
    }
}

/// Probes every backend at once, each on a fresh connection bounded by
/// `timeout` (connect included), never the relay pools: neither a
/// wedged pool connection nor a host that drops SYNs can blind the
/// prober, and a fleet costs one probe's time, not one per backend.
fn probe_fleet(backends: &[Backend], timeout: Duration) {
    std::thread::scope(|scope| {
        for backend in backends {
            let probe = move || {
                let mut conn = Conn::connect(backend.addr, Some(timeout));
                probe_backend(backend, |path| match conn.as_mut() {
                    Ok(conn) => conn.send("GET", path, &[], ""),
                    Err(e) => Err(e.kind().into()),
                });
            };
            let spawned = std::thread::Builder::new()
                .name("fc-router-probe".into())
                .spawn_scoped(scope, probe);
            if spawned.is_err() {
                probe();
            }
        }
    });
}

/// One health probe over `get`: `GET /v1/health`, falling back to
/// `/v1/stats` on backends without the health route. A `200` marks
/// healthy, updates the advertised drain flag, and refreshes the
/// backend's per-stream residency; anything else marks unhealthy.
fn probe_backend(backend: &Backend, mut get: impl FnMut(&str) -> io::Result<(u16, String)>) {
    let exchange = get("/v1/health").and_then(|(status, body)| match status {
        404 => get("/v1/stats").map(|(s, b)| (s, b, false)),
        _ => Ok((status, body, true)),
    });
    match exchange {
        Ok((200, body, has_health)) => {
            let health = has_health.then(|| Json::parse(&body).ok()).flatten();
            let advertised = health
                .as_ref()
                .and_then(|j| j.get("draining").and_then(Json::as_bool))
                .unwrap_or(false);
            backend
                .advertised_draining
                .store(advertised, Ordering::Relaxed);
            let residency = health
                .as_ref()
                .and_then(|j| j.get("streams").and_then(Json::as_array))
                .unwrap_or_default()
                .iter()
                .filter_map(|s| {
                    let id = s.get("id").and_then(Json::as_str)?;
                    let warm = s.get("warm_entries").and_then(Json::as_u64)?;
                    Some((id.to_string(), warm))
                })
                .collect();
            *backend
                .residency
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = residency;
            backend.healthy.store(true, Ordering::Relaxed);
        }
        _ => {
            backend.healthy.store(false, Ordering::Relaxed);
            // Drop the stale residency vector too, so `/v1/topology`
            // stops reporting streams as resident on a dead backend;
            // the next successful probe rebuilds it.
            backend
                .residency
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
    }
}

/// Runs a repair pass each `repair_interval`; exits on shutdown.
fn repairer_loop(ctx: &RouterCtx) {
    while nap(ctx, ctx.config.repair_interval) {
        let _ = repair_pass(ctx);
    }
}

/// One repair pass: re-probe the fleet for a current health/residency
/// view, then for every hosted stream bring its effective replica set
/// up to strength — a member that lacks the stream adopts a snapshot
/// from the warmest holder (re-replication after a host loss), and a
/// member that hosts it colder than the donor adopts the same slice as
/// an idempotent merge (re-warming, so a later failover serves with
/// `store_misses == 0`). Copies of *deleted* streams (tombstoned by
/// the router's `DELETE`) are purged from whoever still holds them
/// rather than re-replicated, and a re-warm that restored nothing is
/// not retried until the donor grows warmer. Answers a report of what
/// moved.
fn repair_pass(ctx: &RouterCtx) -> Json {
    probe_fleet(&ctx.backends, ctx.config.read_timeout);
    // stream id → healthy holders as (backend index, warm entries).
    let mut hosts: BTreeMap<String, Vec<(usize, u64)>> = BTreeMap::new();
    for (idx, backend) in ctx.backends.iter().enumerate() {
        if !backend.healthy.load(Ordering::Relaxed) {
            continue;
        }
        let residency = backend
            .residency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for (id, warm) in residency {
            hosts.entry(id).or_default().push((idx, warm));
        }
    }
    // Settle tombstones against the fresh residency view. A tombstone
    // is forgotten only once *every* backend answered its probe and
    // none reports a copy — while any member is unreachable it may
    // still hold one, and forgetting early would let that copy
    // resurrect the stream on revival.
    let fleet_healthy = ctx
        .backends
        .iter()
        .all(|b| b.healthy.load(Ordering::Relaxed));
    let tombstoned: BTreeSet<String> = {
        let mut tombs = ctx
            .tombstones
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if fleet_healthy {
            tombs.retain(|id| hosts.contains_key(id));
        }
        tombs.clone()
    };
    ctx.repair_stalls
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|(id, _), _| hosts.contains_key(id) && !tombstoned.contains(id));
    let mut transfers: Vec<Json> = Vec::new();
    let mut purges: Vec<Json> = Vec::new();
    let mut conflicts: Vec<Json> = Vec::new();
    let mut failures: Vec<Json> = Vec::new();
    let failure = |step: &str, id: &str, backend: &Backend, status: Option<u16>, body: &str| {
        Json::obj([
            ("step", Json::Str(step.to_string())),
            ("stream", Json::Str(id.to_string())),
            ("backend", Json::Str(backend.name.clone())),
            (
                "status",
                status.map_or(Json::Str("transport".into()), |s| Json::Num(f64::from(s))),
            ),
            ("detail", Json::Str(body.chars().take(200).collect())),
        ])
    };
    for (id, holders) in &hosts {
        if tombstoned.contains(id) {
            // The stream was deleted; every surviving copy is a
            // leftover the delete could not reach. Purge it instead of
            // using it as a donor.
            for &(holder, _) in holders {
                let backend = &ctx.backends[holder];
                match backend
                    .pool
                    .request("DELETE", &format!("/v1/streams/{id}"), &[], "")
                {
                    Ok((200 | 404, _)) => purges.push(Json::obj([
                        ("stream", Json::Str(id.clone())),
                        ("backend", Json::Str(backend.name.clone())),
                    ])),
                    Ok((status, body)) => {
                        failures.push(failure("purge", id.as_str(), backend, Some(status), &body));
                    }
                    Err(_) => {
                        backend.healthy.store(false, Ordering::Relaxed);
                        failures.push(failure("purge", id.as_str(), backend, None, ""));
                    }
                }
            }
            continue;
        }
        let order = ctx.route_order(id);
        let targets = ctx.replica_set(&order);
        // Donor: the warmest *in-set* holder, ring order breaking ties
        // — so the primary donates unless a secondary is strictly
        // warmer, and a straggler copy outside the set (which scoped
        // mutations no longer reach) never donates over a live member.
        // Only when no set member hosts the stream at all — the true
        // host-loss case — does an out-of-set copy donate.
        let in_set: Vec<(usize, u64)> = holders
            .iter()
            .copied()
            .filter(|(idx, _)| targets.contains(idx))
            .collect();
        let candidates: &[(usize, u64)] = if in_set.is_empty() { holders } else { &in_set };
        let donor_warm = candidates.iter().map(|&(_, warm)| warm).max().unwrap_or(0);
        let Some(&donor) = order
            .iter()
            .filter_map(|idx| candidates.iter().find(|(h, _)| h == idx))
            .find(|(_, warm)| *warm == donor_warm)
            .map(|(idx, _)| idx)
        else {
            continue;
        };
        // The snapshot is fetched once, lazily, and adopted verbatim —
        // the adopt body *is* the snapshot body.
        let mut snapshot: Option<String> = None;
        for &target in &targets {
            let resident_warm = holders.iter().find(|(idx, _)| *idx == target);
            let stall_key = (id.clone(), ctx.backends[target].name.clone());
            let needs = match resident_warm {
                None => true,
                // A re-warm recorded as stalled is skipped until the
                // donor has grown warmer — a target at store capacity
                // can never catch up, and re-adopting the same
                // snapshot every interval is unbounded churn.
                Some(&(_, warm)) => {
                    warm < donor_warm
                        && ctx
                            .repair_stalls
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get(&stall_key)
                            .is_none_or(|&at| donor_warm > at)
                }
            };
            if !needs || target == donor {
                continue;
            }
            let body = match &snapshot {
                Some(body) => body,
                None => match ctx.backends[donor]
                    .pool
                    .get(&format!("/v1/streams/{id}/snapshot"))
                {
                    Ok((200, body)) => snapshot.insert(body),
                    Ok((status, body)) => {
                        failures.push(failure(
                            "snapshot",
                            id.as_str(),
                            &ctx.backends[donor],
                            Some(status),
                            &body,
                        ));
                        break;
                    }
                    Err(_) => {
                        ctx.backends[donor].healthy.store(false, Ordering::Relaxed);
                        failures.push(failure(
                            "snapshot",
                            id.as_str(),
                            &ctx.backends[donor],
                            None,
                            "",
                        ));
                        break;
                    }
                },
            };
            match ctx.backends[target].pool.request(
                "POST",
                &format!("/v1/streams/{id}/adopt"),
                &[],
                body,
            ) {
                Ok((status @ (200 | 201), response)) => {
                    let restored = Json::parse(&response)
                        .ok()
                        .and_then(|j| j.get("restored_entries").and_then(Json::as_u64))
                        .unwrap_or(0);
                    // An adopt-merge that restored nothing is a
                    // stalled transfer: note the donor's warm level so
                    // the pass stops retrying until the donor grows
                    // past it.
                    let mut stalls = ctx
                        .repair_stalls
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if status == 200 && restored == 0 {
                        stalls.insert(stall_key.clone(), donor_warm);
                    } else {
                        stalls.remove(&stall_key);
                    }
                    drop(stalls);
                    transfers.push(Json::obj([
                        ("stream", Json::Str(id.clone())),
                        ("from", Json::Str(ctx.backends[donor].name.clone())),
                        ("to", Json::Str(ctx.backends[target].name.clone())),
                        ("installed", Json::Bool(status == 201)),
                        ("restored_entries", Json::Num(restored as f64)),
                    ]));
                }
                Ok((409, body)) => {
                    conflicts.push(failure(
                        "adopt",
                        id.as_str(),
                        &ctx.backends[target],
                        Some(409),
                        &body,
                    ));
                }
                Ok((status, body)) => {
                    failures.push(failure(
                        "adopt",
                        id.as_str(),
                        &ctx.backends[target],
                        Some(status),
                        &body,
                    ));
                }
                Err(_) => {
                    ctx.backends[target].healthy.store(false, Ordering::Relaxed);
                    failures.push(failure(
                        "adopt",
                        id.as_str(),
                        &ctx.backends[target],
                        None,
                        "",
                    ));
                }
            }
        }
    }
    Json::obj([
        (
            "replication_factor",
            Json::Num(ctx.config.replication_factor as f64),
        ),
        ("streams_seen", Json::Num(hosts.len() as f64)),
        ("transfers", Json::Arr(transfers)),
        ("purges", Json::Arr(purges)),
        ("conflicts", Json::Arr(conflicts)),
        ("failures", Json::Arr(failures)),
    ])
}

/// The route table (see [`RouterServer`]); the shared front answers
/// `405` for a known path under another method and `404` otherwise.
const ROUTES: &[Route<RouterCtx>] = &[
    ("GET", &["v1", "stats"], |ctx, _| relay_stats(ctx)),
    ("GET", &["v1", "streams"], |ctx, _| {
        relay_get(ctx, "/v1/streams", "/v1/streams")
    }),
    ("GET", &["v1", "topology"], |ctx, _| topology(ctx)),
    ("GET", &["v1", "health"], |ctx, _| {
        let live = ctx.backends.iter().filter(|b| b.available()).count();
        Outcome::ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("backends_live", Json::Num(live as f64)),
            ("backends", Json::Num(ctx.backends.len() as f64)),
            (
                "replication_factor",
                Json::Num(ctx.config.replication_factor as f64),
            ),
        ]))
    }),
    ("POST", &["v1", "recommend"], relay_solve),
    ("POST", &["v1", "sweep"], relay_solve),
    ("POST", &["v1", "streams"], |ctx, call| {
        relay_create_stream(ctx, call.request)
    }),
    ("GET", &["v1", "streams", "*"], |ctx, call| {
        relay_get(ctx, call.params[0], call.request.path())
    }),
    ("DELETE", &["v1", "streams", "*"], |ctx, call| {
        relay_delete_stream(ctx, call.request, call.params[0])
    }),
    ("POST", &["v1", "streams", "*", "clean"], |ctx, call| {
        relay_clean(ctx, call.request, call.params[0])
    }),
    (
        "POST",
        &["v1", "admin", "backends", "*", "drain"],
        |ctx, call| set_drain(ctx, call.params[0], true),
    ),
    (
        "POST",
        &["v1", "admin", "backends", "*", "undrain"],
        |ctx, call| set_drain(ctx, call.params[0], false),
    ),
    ("POST", &["v1", "admin", "repair"], |ctx, _| {
        Outcome::ok(repair_pass(ctx))
    }),
];

/// `GET /v1/topology`: the ring as the operator sees it, including
/// each backend's per-stream residency from its last health probe —
/// the view the repair pass acts on, so under-replication is visible
/// where it is fixed.
fn topology(ctx: &RouterCtx) -> Outcome {
    Outcome::ok(Json::obj([
        ("vnodes_per_backend", Json::Num(VNODES as f64)),
        (
            "replication_factor",
            Json::Num(ctx.config.replication_factor as f64),
        ),
        (
            "backends",
            Json::Arr(
                ctx.backends
                    .iter()
                    .map(|b| {
                        let residency = b
                            .residency
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .iter()
                            .map(|(id, warm)| {
                                Json::obj([
                                    ("id", Json::Str(id.clone())),
                                    ("warm_entries", Json::Num(*warm as f64)),
                                ])
                            })
                            .collect();
                        Json::obj([
                            ("name", Json::Str(b.name.clone())),
                            ("addr", Json::Str(b.addr.to_string())),
                            ("healthy", Json::Bool(b.healthy.load(Ordering::Relaxed))),
                            ("draining", Json::Bool(b.draining())),
                            (
                                "drained_by_operator",
                                Json::Bool(b.draining.load(Ordering::Relaxed)),
                            ),
                            ("streams", Json::Arr(residency)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

fn set_drain(ctx: &RouterCtx, name: &str, draining: bool) -> Outcome {
    match ctx.backends.iter().find(|b| b.name == name) {
        Some(backend) => {
            backend.draining.store(draining, Ordering::Relaxed);
            Outcome::ok(Json::obj([
                ("name", Json::Str(backend.name.clone())),
                ("draining", Json::Bool(draining)),
            ]))
        }
        None => ApiError::not_found(format!("no backend named {name:?}")).into(),
    }
}

/// The stream id a request body names in `field` (the ring key):
/// `"stream"` on solves, `"id"` on stream creation — the same value,
/// so a created stream lands on the replica its solves route to. A
/// body the router cannot read keys as `""` — it still forwards, and
/// the backend produces the canonical `400`/`404`, byte-identical to
/// single-box.
fn stream_key(body: &[u8], field: &str) -> String {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| json.get(field).and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Forwards an idempotent request along `order`'s
/// [candidates](RouterCtx::candidates), trying each at most once; a
/// transport error marks the backend unhealthy and moves on. `alive`
/// probes the client while a response is pending: a hangup drops the
/// upstream request (which the backend turns into a cancel).
fn forward_idempotent(
    ctx: &RouterCtx,
    order: &[usize],
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    alive: &mut dyn FnMut() -> bool,
) -> Outcome {
    for (_, backend) in ctx.candidates(order) {
        match backend.pool.request_with_probe(
            method,
            path,
            headers,
            body,
            ctx.config.disconnect_poll,
            alive,
        ) {
            Ok(Some((status, body))) => return Outcome::Respond { status, body },
            Ok(None) => return Outcome::ClientGone,
            Err(_) => backend.healthy.store(false, Ordering::Relaxed),
        }
    }
    ApiError::unavailable("no live backend").into()
}

fn relay_solve(ctx: &RouterCtx, call: &Call<'_>) -> Outcome {
    let request = call.request;
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return ApiError::bad_request("body is not UTF-8").into();
    };
    let key = stream_key(&request.body, "stream");
    let order = ctx.route_order(&key);
    let tenant = request.header("x-tenant");
    let headers: Vec<(&str, &str)> = tenant.map(|t| ("x-tenant", t)).into_iter().collect();
    let path = request.path();
    if request.query_param("stream").is_some() {
        return relay_solve_streamed(ctx, &order, path, &headers, body, call.sock);
    }
    let mut alive = || client_connected(call.sock);
    forward_idempotent(ctx, &order, "POST", path, &headers, body, &mut alive)
}

/// What one backend attempt of a streamed relay produced.
enum StreamRelay {
    /// The exchange ran to a decision — possibly after response bytes
    /// already reached the client, so no other replica may be tried.
    Done(Outcome),
    /// Transport trouble before any downstream bytes: safe to mark the
    /// backend unhealthy and try the next replica.
    Retry,
}

/// Relays `POST {path}?stream=1` chunk by chunk: the backend's chunks
/// are forwarded (and flushed) as they arrive, so the client holds the
/// first budget point while later ones are still solving upstream.
/// Replica failover stops the moment response bytes go downstream;
/// from then on an upstream failure becomes an error trailer, and a
/// client hangup drops the upstream connection (the cancellation
/// relay).
fn relay_solve_streamed(
    ctx: &RouterCtx,
    order: &[usize],
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    sock: &TcpStream,
) -> Outcome {
    let target = format!("{path}?stream=1");
    for (_, backend) in ctx.candidates(order) {
        match stream_from_backend(ctx, backend, &target, headers, body, sock) {
            StreamRelay::Done(outcome) => return outcome,
            StreamRelay::Retry => backend.healthy.store(false, Ordering::Relaxed),
        }
    }
    ApiError::unavailable("no live backend").into()
}

/// One streamed-relay attempt against `backend`, on a fresh dedicated
/// connection bounded by `upstream_timeout` (never pooled: the backend
/// closes it after the stream, and dropping it mid-way is how
/// cancellation propagates). Every upstream read probes the client
/// socket for disconnect.
fn stream_from_backend(
    ctx: &RouterCtx,
    backend: &Backend,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
    sock: &TcpStream,
) -> StreamRelay {
    let wait = ctx.config.upstream_timeout;
    let mut alive = || client_connected(sock);
    let mut probe = Probe::new(ctx.config.disconnect_poll, &mut alive, wait);
    let opened = Conn::connect(backend.addr, Some(wait)).and_then(|mut upstream| {
        upstream.write("POST", target, headers, body, Some(&probe))?;
        Ok(upstream)
    });
    let Ok(mut upstream) = opened else {
        return StreamRelay::Retry;
    };
    let head = match upstream.reader.head(Some(&mut probe)) {
        Ok(head) => head,
        Err(e) if is_gone(&e) => return StreamRelay::Done(Outcome::ClientGone),
        Err(_) => return StreamRelay::Retry,
    };
    if !head.chunked {
        // A refusal (quota, bad request, …) arrives buffered; relay it
        // as such — the keep-alive loop stays usable.
        return match upstream.reader.body(&head, Some(&mut probe)) {
            Ok(body) => StreamRelay::Done(Outcome::Respond {
                status: head.status,
                body,
            }),
            Err(e) if is_gone(&e) => StreamRelay::Done(Outcome::ClientGone),
            Err(_) => StreamRelay::Retry,
        };
    }
    let mut w = sock;
    if write_chunked_head(&mut w, head.status).is_err() {
        return StreamRelay::Done(Outcome::ClientGone);
    }
    loop {
        match upstream.reader.frame(Some(&mut probe)) {
            Ok(ChunkFrame::Data(data)) => {
                if write_chunk(&mut w, &data).is_err() {
                    // Client gone mid-stream: dropping the upstream
                    // connection cancels the points still solving.
                    return StreamRelay::Done(Outcome::ClientGone);
                }
            }
            Ok(ChunkFrame::End { error }) => {
                let _ = finish_chunked(&mut w, error.as_deref());
                return StreamRelay::Done(Outcome::Streamed);
            }
            Err(e) if is_gone(&e) => return StreamRelay::Done(Outcome::ClientGone),
            // The head is already downstream, so an upstream failure
            // surfaces as the abort trailer.
            Err(e) => {
                let trailer = if e.kind() == io::ErrorKind::InvalidData {
                    "502 upstream stream broke"
                } else {
                    "502 upstream failed mid-stream"
                };
                let _ = finish_chunked(&mut w, Some(trailer));
                return StreamRelay::Done(Outcome::Streamed);
            }
        }
    }
}

/// `POST /v1/streams`: create the uploaded stream on the effective
/// replica set its `id` hashes to — the backends later solves route
/// to — walking on to the next ring backend when a member is down
/// (which is also where the solves will have moved). Each member
/// installs the stream, so reads can fail over to a secondary without
/// a recreate round-trip. Unanimity is required (the canonical `400`/
/// `409` included); divergent replica answers are a `502`. A member
/// that drops mid-fan-out is skipped — the create still succeeds on
/// the survivors, and the repair pass restores full strength. One
/// divergence self-heals instead of festering: a `409` member amid
/// `201`s may hold an identical-definition leftover copy (a partial
/// create, ring churn), so it is probed with an empty-slice adopt —
/// the backend's definition-equality gate answers `200` for an
/// identical copy, which counts as success, and `409` for a genuine
/// conflict, which stays a `502`.
fn relay_create_stream(ctx: &RouterCtx, request: &Request) -> Outcome {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return ApiError::bad_request("body is not UTF-8").into();
    };
    let key = stream_key(&request.body, "id");
    let order = ctx.route_order(&key);
    let want = ctx.config.replication_factor.min(ctx.backends.len());
    let mut responses: Vec<(usize, u16, String)> = Vec::new();
    // Walk the ring past transport failures: a dead member's slot
    // falls to the next successor, keeping the set at full strength
    // when enough backends survive.
    for (idx, backend) in ctx.candidates(&order) {
        if responses.len() == want {
            break;
        }
        match backend.pool.request("POST", "/v1/streams", &[], body) {
            Ok((status, response)) => responses.push((idx, status, response)),
            Err(_) => backend.healthy.store(false, Ordering::Relaxed),
        }
    }
    let Some(&(_, first_status, ref first_body)) = responses.first() else {
        return ApiError::unavailable("no live backend").into();
    };
    let unanimous = responses
        .iter()
        .all(|&(_, status, _)| status == first_status);
    // A mixed 201/409 fan-out need not be a dead end: each 409 member
    // may hold an identical-definition leftover copy, so probe it with
    // an empty-slice adopt. A 200 merge proves the copy matches — the
    // member effectively hosts the created stream, so the create as a
    // whole converges instead of answering 502 to every retry forever.
    let reconciled = !unanimous
        && responses.iter().all(|&(_, s, _)| matches!(s, 201 | 409))
        && match Json::parse(body).ok() {
            None => false,
            Some(definition) => {
                let adopt_body = Json::obj([
                    ("definition", definition),
                    ("cache_slice", Json::Str(String::new())),
                    ("warm_entries", Json::Num(0.0)),
                ])
                .to_string();
                responses
                    .iter()
                    .filter(|&&(_, s, _)| s == 409)
                    .all(|&(idx, _, _)| {
                        matches!(
                            ctx.backends[idx].pool.request(
                                "POST",
                                &format!("/v1/streams/{key}/adopt"),
                                &[],
                                &adopt_body,
                            ),
                            Ok((200, _))
                        )
                    })
            }
        };
    if unanimous || reconciled {
        let (status, response) = responses
            .iter()
            .find(|&&(_, s, _)| s == 201)
            .map_or((first_status, first_body.clone()), |&(_, s, ref b)| {
                (s, b.clone())
            });
        // A live stream and a tombstone cannot coexist — the repair
        // pass would purge what the client just created.
        if status == 201 || status == 409 {
            ctx.tombstones
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&key);
        }
        return Outcome::Respond {
            status,
            body: response,
        };
    }
    ApiError::bad_gateway("replicas diverged creating the stream").into()
}

/// Relays a `GET` along `key`'s ring order: a stream id for `GET
/// /v1/streams/{id}`, so it lands on a replica that hosts the stream;
/// the path otherwise, so repeated calls stick while the fleet is
/// stable.
fn relay_get(ctx: &RouterCtx, key: &str, path: &str) -> Outcome {
    forward_idempotent(
        ctx,
        &ctx.route_order(key),
        "GET",
        path,
        &[],
        "",
        &mut || true,
    )
}

/// `DELETE /v1/streams/{id}`: broadcast to the stream's
/// [write targets](write_targets). `404`s from set members that missed
/// the create are tolerated as long as every hosting member agreed —
/// but when *no* member hosts the stream the unanimous `404` is
/// relayed as a real `404`, never a silent success. A successful
/// delete is tombstoned so the repair pass purges copies on members it
/// could not reach (dead now, back later) instead of adopting them
/// back.
fn relay_delete_stream(ctx: &RouterCtx, request: &Request, id: &str) -> Outcome {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return ApiError::bad_request("body is not UTF-8").into();
    };
    let targets = write_targets(ctx, id);
    let outcome = broadcast(ctx, &targets, "DELETE", request.path(), &[], body, |_| true);
    if let Outcome::Respond {
        status: 200..=299, ..
    } = outcome
    {
        ctx.tombstones
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.to_string());
    }
    outcome
}

/// Cleans are mutations: broadcast to the stream's [write
/// targets](write_targets) — a draining holder included, so it stays
/// byte-identical for its undrain. A `404` from a set member the probe
/// never saw holding the stream (it has no copy yet for the repairer
/// to refresh) is ignored; any other disagreement among the replicas
/// is a `502`, not a guess. Never retried.
fn relay_clean(ctx: &RouterCtx, request: &Request, id: &str) -> Outcome {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return ApiError::bad_request("body is not UTF-8").into();
    };
    let tenant = request.header("x-tenant");
    let headers: Vec<(&str, &str)> = tenant.map(|t| ("x-tenant", t)).into_iter().collect();
    let targets = write_targets(ctx, id);
    let not_a_holder = |idx: usize| !holds(&ctx.backends[idx], id);
    broadcast(
        ctx,
        &targets,
        "POST",
        request.path(),
        &headers,
        body,
        not_a_holder,
    )
}

/// The backends a clean or delete on `id` must reach: the stream's
/// effective replica set plus every healthy backend whose probed
/// residency holds the stream. Ring churn (a create fanned out while a
/// member was down, a revived host) or registration on a backend up
/// front can leave copies outside the current set; a clean that missed
/// one would leave it stale, and a delete that missed one would let the
/// repair pass resurrect the stream from it.
fn write_targets(ctx: &RouterCtx, id: &str) -> Vec<usize> {
    let mut targets = ctx.replica_set(&ctx.route_order(id));
    for (idx, backend) in ctx.backends.iter().enumerate() {
        let live = backend.healthy.load(Ordering::Relaxed);
        if live && !targets.contains(&idx) && holds(backend, id) {
            targets.push(idx);
        }
    }
    targets
}

/// Whether `backend`'s last probed residency lists stream `id`.
fn holds(backend: &Backend, id: &str) -> bool {
    backend
        .residency
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .any(|(resident, _)| resident == id)
}

/// Broadcasts a mutation to the healthy members of `targets`, never
/// retrying. A unanimous answer (success or the same canonical
/// rejection) is relayed as-is; anything else is a `502` — except
/// that a `404` from a target for which `tolerates_404` holds (a
/// replica that simply doesn't host the stream) is ignored as long as
/// every other replica agreed. A unanimous `404` (nobody hosts it) is
/// relayed as the `404` it is.
fn broadcast(
    ctx: &RouterCtx,
    targets: &[usize],
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    tolerates_404: impl Fn(usize) -> bool,
) -> Outcome {
    let mut responses: Vec<(usize, u16, String)> = Vec::new();
    for &idx in targets {
        let backend = &ctx.backends[idx];
        if !backend.healthy.load(Ordering::Relaxed) {
            continue;
        }
        match backend.pool.request(method, path, headers, body) {
            Ok((status, body)) => responses.push((idx, status, body)),
            Err(_) => backend.healthy.store(false, Ordering::Relaxed),
        }
    }
    let Some((_, first_status, first_body)) = responses.first().cloned() else {
        return ApiError::unavailable("no live backend").into();
    };
    if responses
        .iter()
        .all(|(_, status, _)| *status == first_status)
    {
        // Unanimous — success or the same canonical rejection.
        return Outcome::Respond {
            status: first_status,
            body: first_body,
        };
    }
    let counted: Vec<&(usize, u16, String)> = responses
        .iter()
        .filter(|(idx, status, _)| *status != 404 || !tolerates_404(*idx))
        .collect();
    if let Some(((_, status, body), rest)) = counted.split_first() {
        if rest.iter().all(|(_, s, _)| s == status) {
            return Outcome::Respond {
                status: *status,
                body: body.clone(),
            };
        }
    }
    ApiError::bad_gateway("replicas diverged applying the mutation").into()
}

/// `GET /v1/stats`: sums every live backend's stats into one
/// single-box-shaped body. Sums preserve the per-backend invariants
/// (e.g. `completed + cancelled + panics ≤ submitted`), so harness
/// checks written against one server hold against the fleet.
fn relay_stats(ctx: &RouterCtx) -> Outcome {
    let mut aggregate: Option<StatsResponse> = None;
    for backend in &ctx.backends {
        if !backend.healthy.load(Ordering::Relaxed) {
            continue;
        }
        let (status, body) = match backend.pool.get("/v1/stats") {
            Ok(response) => response,
            Err(_) => {
                backend.healthy.store(false, Ordering::Relaxed);
                continue;
            }
        };
        if status != 200 {
            continue;
        }
        let stats = Json::parse(&body)
            .ok()
            .and_then(|json| StatsResponse::from_json(&json).ok());
        let Some(stats) = stats else {
            return ApiError::bad_gateway(format!(
                "backend {} returned undecodable stats",
                backend.name
            ))
            .into();
        };
        match aggregate.as_mut() {
            Some(total) => total.absorb(&stats),
            None => aggregate = Some(stats),
        }
    }
    match aggregate {
        Some(total) => Outcome::ok(total.to_json()),
        None => ApiError::unavailable("no live backend").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx(names: &[&str]) -> RouterCtx {
        let pools = ClientPools::new();
        let mut backends = Vec::new();
        let mut ring = BTreeMap::new();
        for (idx, name) in names.iter().enumerate() {
            // Port 9 (discard): resolved, never connected to.
            let pool = pools.pool(("127.0.0.1", 9)).unwrap();
            for point in vnode_points(name) {
                ring.entry(point).or_insert(idx);
            }
            backends.push(Backend {
                name: name.to_string(),
                addr: pool.addr(),
                pool,
                healthy: AtomicBool::new(true),
                draining: AtomicBool::new(false),
                advertised_draining: AtomicBool::new(false),
                residency: Mutex::new(Vec::new()),
            });
        }
        RouterCtx {
            backends,
            ring,
            config: RouterConfig::new(),
            stopping: (Mutex::new(false), Condvar::new()),
            tombstones: Mutex::new(BTreeSet::new()),
            repair_stalls: Mutex::new(BTreeMap::new()),
        }
    }

    #[test]
    fn route_order_is_stable_and_covers_every_backend() {
        let ctx = test_ctx(&["a", "b", "c"]);
        for key in ["s0", "s1", "claims", ""] {
            let order = ctx.route_order(key);
            assert_eq!(order.len(), 3, "{key}: every backend appears");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "{key}: each exactly once");
            assert_eq!(order, ctx.route_order(key), "{key}: deterministic");
        }
    }

    #[test]
    fn streams_spread_across_backends() {
        let ctx = test_ctx(&["a", "b", "c"]);
        let mut first_choice = [0usize; 3];
        for i in 0..200 {
            first_choice[ctx.route_order(&format!("stream-{i}"))[0]] += 1;
        }
        for (idx, count) in first_choice.iter().enumerate() {
            assert!(
                *count > 0,
                "backend {idx} never first across 200 streams: {first_choice:?}"
            );
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_streams() {
        let full = test_ctx(&["a", "b", "c"]);
        let reduced = test_ctx(&["a", "b"]);
        for i in 0..100 {
            let key = format!("stream-{i}");
            let before = full.route_order(&key)[0];
            let after = reduced.route_order(&key)[0];
            if before != 2 {
                assert_eq!(
                    before, after,
                    "{key}: removing c must not move streams off a/b"
                );
            }
        }
    }

    #[test]
    fn replica_set_takes_ring_successors_and_skips_the_dead() {
        let mut ctx = test_ctx(&["a", "b", "c"]);
        ctx.config.replication_factor = 2;
        let order = ctx.route_order("stream-x");
        let set = ctx.replica_set(&order);
        assert_eq!(set, order[..2].to_vec(), "first two ring backends");

        // The primary dies: its slot falls to the next ring successor,
        // exactly where the repair pass re-replicates.
        ctx.backends[order[0]]
            .healthy
            .store(false, Ordering::Relaxed);
        assert_eq!(ctx.replica_set(&order), order[1..].to_vec());

        // A draining (but healthy) member still fills the set when
        // nothing better is available.
        ctx.backends[order[0]]
            .healthy
            .store(true, Ordering::Relaxed);
        ctx.backends[order[1]]
            .draining
            .store(true, Ordering::Relaxed);
        let through_drain = ctx.replica_set(&order);
        assert_eq!(through_drain[0], order[0]);
        assert_eq!(through_drain.len(), 2);

        // Factor past the fleet size degrades to the fleet.
        ctx.config.replication_factor = 9;
        ctx.backends[order[1]]
            .draining
            .store(false, Ordering::Relaxed);
        assert_eq!(ctx.replica_set(&order).len(), 3);
    }

    #[test]
    fn write_targets_are_the_set_plus_probed_holders_minus_the_dead() {
        let mut ctx = test_ctx(&["a", "b", "c"]);
        let order = ctx.route_order("stream-x");
        let hold = |ctx: &RouterCtx, idx: usize, ids: &[&str]| {
            *ctx.backends[idx]
                .residency
                .lock()
                .unwrap_or_else(PoisonError::into_inner) =
                ids.iter().map(|id| (id.to_string(), 1)).collect();
        };
        for replicas in [1, 2] {
            ctx.config.replication_factor = replicas;
            let set = order[..replicas].to_vec();
            for idx in 0..3 {
                hold(&ctx, idx, &[]);
                ctx.backends[idx].healthy.store(true, Ordering::Relaxed);
            }
            // Nothing probed: the replica set alone.
            assert_eq!(write_targets(&ctx, "stream-x"), set, "R={replicas}");

            // Every probed holder joins — in-set holders once — and a
            // holder of another stream only if it is in the set.
            for idx in 0..3 {
                hold(&ctx, idx, &["stream-x"]);
            }
            hold(&ctx, order[1], &["stream-y"]);
            let mut want = set.clone();
            want.push(order[2]);
            assert_eq!(write_targets(&ctx, "stream-x"), want, "R={replicas}");

            // A dead holder is not a target; a dead set member's slot
            // falls to the next ring backend.
            ctx.backends[order[2]]
                .healthy
                .store(false, Ordering::Relaxed);
            let alive: Vec<usize> = want.iter().copied().filter(|&i| i != order[2]).collect();
            assert_eq!(write_targets(&ctx, "stream-x"), alive, "R={replicas}");
            ctx.backends[order[2]]
                .healthy
                .store(true, Ordering::Relaxed);
            ctx.backends[order[0]]
                .healthy
                .store(false, Ordering::Relaxed);
            let targets = write_targets(&ctx, "stream-x");
            assert!(!targets.contains(&order[0]), "R={replicas}: {targets:?}");
            assert_eq!(targets[..replicas], order[1..=replicas], "R={replicas}");
        }
    }

    #[test]
    fn delete_targets_widen_to_known_straggler_copies() {
        let mut ctx = test_ctx(&["a", "b", "c"]);
        ctx.config.replication_factor = 2;
        let order = ctx.route_order("stream-x");
        let set = ctx.replica_set(&order);
        let outsider = order[2];
        assert!(!set.contains(&outsider));

        // No residency anywhere: the delete stays scoped to the set.
        assert_eq!(write_targets(&ctx, "stream-x"), set);

        // A healthy out-of-set backend reporting a copy is included —
        // a copy the delete misses would resurrect via repair.
        *ctx.backends[outsider]
            .residency
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = vec![("stream-x".to_string(), 3)];
        let widened = write_targets(&ctx, "stream-x");
        assert!(widened.contains(&outsider), "straggler copy is reached");
        assert_eq!(widened.len(), set.len() + 1);
        // ...but only for the stream it actually hosts: another
        // stream's delete stays scoped to that stream's own set.
        assert_eq!(
            write_targets(&ctx, "stream-y"),
            ctx.replica_set(&ctx.route_order("stream-y"))
        );

        // A dead backend is not a target (the tombstone covers it).
        ctx.backends[outsider]
            .healthy
            .store(false, Ordering::Relaxed);
        assert!(!write_targets(&ctx, "stream-x").contains(&outsider));
    }

    #[test]
    fn drain_flags_gate_availability_not_membership() {
        let ctx = test_ctx(&["a", "b"]);
        assert!(ctx.backends[0].available());
        ctx.backends[0].draining.store(true, Ordering::Relaxed);
        assert!(!ctx.backends[0].available());
        assert!(ctx.backends[0].healthy.load(Ordering::Relaxed));
        ctx.backends[0].draining.store(false, Ordering::Relaxed);
        ctx.backends[0]
            .advertised_draining
            .store(true, Ordering::Relaxed);
        assert!(!ctx.backends[0].available(), "advertised drain also gates");
        // Ring membership is unchanged: the stream still *hashes* to
        // it; skipping happens at try time.
        assert_eq!(ctx.route_order("x").len(), 2);
    }
}
