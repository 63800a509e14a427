//! The HTTP server: the route table onto the serving layer, behind the
//! connection front it shares with the [`router`](super::router).
//!
//! ## Threading model
//!
//! Connection I/O runs on dedicated handler threads (bounded by
//! [`ServerConfig::max_connections`]; excess connections get `503`),
//! **not** on the solver [`WorkerPool`](fc_core::WorkerPool): a handler
//! spends its life blocked — reading a socket or waiting on a
//! [`SweepHandle`] — and parking those waits on the pool that must
//! *complete* them would deadlock it at saturation. What the accept
//! loop feeds the pool is the requests themselves: every solve route
//! lands in [`PlannerService::submit_sweep`] (a recommend is a
//! one-point sweep), so solver work rides the same lanes, quotas, and
//! cancellation as in-process callers, and plans served over the wire
//! are byte-identical to in-process plans.
//!
//! ## Request lifecycle on the wire
//!
//! * The tenant is taken from the `x-tenant` header (falling back to
//!   the stream's own [`TenantId`]); a submit past the tenant's quota
//!   is `429` with nothing queued.
//! * While a solve is in flight the handler probes the client socket
//!   every [`ServerConfig::disconnect_poll`]
//!   ([`SweepHandle::wait_or_cancel`]): a client that hangs up
//!   cancels its request — observable in
//!   [`ServiceStats::cancelled`](fc_core::planner::service::ServiceStats) —
//!   instead of burning worker time on an unobservable plan.
//! * [`ServerHandle::shutdown`] is graceful: stop accepting, then
//!   drain — every in-flight request completes and its response is
//!   written before the handler exits.
//!
//! ## Streaming and the wire-native stream lifecycle
//!
//! `POST /v1/sweep?stream=1` answers with `Transfer-Encoding: chunked`
//! and emits one JSON object per budget point *as each point
//! completes* ([`SweepHandle::wait_next_point_or_cancel`]), so a
//! client sees the cheap early points while the expensive tail is
//! still solving. Concatenating the chunk bodies reproduces the
//! buffered `/v1/sweep` response byte-for-byte. A client hangup
//! between chunks cancels the remaining points; a mid-stream solver
//! error arrives as an `x-fc-error` trailer (the status line already
//! said `200`).
//!
//! Streams themselves are wire-native too: `POST /v1/streams` creates
//! one from an uploaded dataset (decoded and validated by
//! [`CreateStreamRequest`]), `GET /v1/streams/{id}` summarizes it,
//! `DELETE /v1/streams/{id}` removes it. The snapshot scope
//! fingerprint is computed from the *live* stream set at write time,
//! so a snapshot taken after dynamic creates only restores into a
//! server with the same topology.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use fc_core::planner::cache::snapshot::{
    restore_snapshot, restore_stream_bytes, snapshot_stream_bytes, stream_entry_count,
    write_snapshot,
};
use fc_core::planner::service::{PlannerService, PointOutcome, SweepHandle, TenantId};
use fc_core::planner::Fnv1a;
use fc_core::CoreError;

use super::api::{
    decode_body, plan_json, stats_json, AdoptRequest, ApiError, CleanRequest, CleanResponse,
    CreateStreamRequest, RecommendRequest, SnapshotTransfer, StreamInfo, SweepRequest,
};
use super::front::{client_connected, Call, Front, Limits, Outcome, Route};
use super::http::{finish_chunked, write_chunk, write_chunked_head, Request};
use super::json::Json;
use crate::builder::SessionBuilder;
use crate::serve::ClaimStream;
use crate::session::DataModel;

/// Tuning knobs for a [`PlannerServer`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Cap on a request body's declared `Content-Length` (`413` past
    /// it). Default: 256 KiB.
    pub max_body_bytes: usize,
    /// Cap on concurrently served connections (`503` past it).
    /// Default: 64.
    pub max_connections: usize,
    /// Socket read **and write** timeout. Doubles as the keep-alive
    /// idle timeout: a connection with no request for this long is
    /// closed (so silent clients cannot pin
    /// [`ServerConfig::max_connections`] slots forever), a client that
    /// stalls *mid-request* longer than this gets `408`, and a client
    /// that stops *reading* its response unblocks the handler with a
    /// write error instead of wedging it (and graceful shutdown)
    /// indefinitely. Default: 5s.
    pub read_timeout: Duration,
    /// How often an in-flight wait probes the client socket for
    /// disconnect (the cancel-on-hangup latency). Default: 50ms.
    pub disconnect_poll: Duration,
    /// Where this server persists its [`CacheStore`](fc_core::CacheStore)
    /// snapshot. When set: [`PlannerServer::serve`] restores from the
    /// file if present (warm boot — corruption or a topology mismatch
    /// falls back to a cold start), `POST /v1/admin/snapshot` writes
    /// it on demand, and graceful shutdown writes it so a successor
    /// process boots warm. Default: none (no persistence).
    pub snapshot_path: Option<PathBuf>,
}

impl ServerConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        Self {
            max_body_bytes: 256 * 1024,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            disconnect_poll: Duration::from_millis(50),
            snapshot_path: None,
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

    /// Sets the socket read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the disconnect-probe cadence.
    pub fn with_disconnect_poll(mut self, poll: Duration) -> Self {
        self.disconnect_poll = poll;
        self
    }

    /// Sets the snapshot file (see [`ServerConfig::snapshot_path`]).
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared state of a running server.
struct ServerCtx {
    service: PlannerService,
    /// The live stream registry. Behind a lock because `POST
    /// /v1/streams` and `DELETE /v1/streams/{id}` mutate it at runtime;
    /// request routes take the read side and clone the `Arc` out, so
    /// the registry lock is never held across a solve.
    streams: RwLock<HashMap<String, Arc<RwLock<ClaimStream>>>>,
    config: ServerConfig,
    /// Operator-set drain flag, reported through `GET /v1/health` so a
    /// routing front rehashes new work away while in-flight finishes.
    draining: AtomicBool,
    /// Entries rehydrated from the snapshot at boot (0 on cold start).
    restored: usize,
}

impl ServerCtx {
    fn streams(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<RwLock<ClaimStream>>>> {
        self.streams.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The snapshot scope of the *current* stream set. Dynamically
    /// created or deleted streams change it, so a snapshot written
    /// after a topology change only restores into a matching topology.
    fn live_scope(&self) -> u64 {
        scope_fingerprint(&self.streams())
    }
}

/// FNV-1a over the sorted stream ids: stable across restarts and
/// insertion order, changed by any topology change.
fn scope_fingerprint(streams: &HashMap<String, Arc<RwLock<ClaimStream>>>) -> u64 {
    let mut ids: Vec<&str> = streams.keys().map(String::as_str).collect();
    ids.sort_unstable();
    let mut h = Fnv1a::new();
    h.write_usize(ids.len());
    for id in ids {
        h.write_str(id);
    }
    h.finish()
}

/// The scope a *per-stream* snapshot slice is cut and restored under:
/// FNV-1a over a domain tag plus the one stream id. Both ends of a
/// snapshot transfer compute it independently, so a slice cut for one
/// stream can never restore as another's (or as a full-topology
/// snapshot — the tag keeps the domains apart).
fn stream_scope_fingerprint(id: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("stream-slice");
    h.write_str(id);
    h.finish()
}

/// The dependency-free HTTP/1.1 front over a [`PlannerService`] and its
/// named [`ClaimStream`]s. Build one, register streams, then
/// [`PlannerServer::serve`].
///
/// | route | maps to |
/// |---|---|
/// | `POST /v1/recommend` | [`ClaimStream::submit_sweep_as`] with one budget point |
/// | `POST /v1/sweep` | [`ClaimStream::submit_sweep_as`] → [`PlannerService::submit_sweep`] (`?stream=1` streams each budget point as a chunk) |
/// | `POST /v1/streams` | create a stream from an uploaded dataset ([`CreateStreamRequest`]) |
/// | `GET /v1/streams/{id}` | one stream's summary ([`StreamInfo`]) |
/// | `DELETE /v1/streams/{id}` | remove a stream |
/// | `POST /v1/streams/{id}/clean` | [`ClaimStream::mark_cleaned`] |
/// | `GET /v1/streams` | the registered stream ids |
/// | `GET /v1/stats` | service counters + saturation gauges, store counters, per-tenant usage |
///
/// See the [module docs](self) for the threading model and the
/// on-the-wire request lifecycle.
pub struct PlannerServer {
    service: PlannerService,
    streams: HashMap<String, Arc<RwLock<ClaimStream>>>,
    config: ServerConfig,
}

impl PlannerServer {
    /// A server over `service` with the default [`ServerConfig`].
    pub fn new(service: PlannerService) -> Self {
        Self {
            service,
            streams: HashMap::new(),
            config: ServerConfig::new(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers `stream` under `id` (the `{id}` of the routes).
    /// Streams submitted to over HTTP should share this server's
    /// service so quotas, stats, and the store tell one story.
    pub fn with_stream(mut self, id: impl Into<String>, stream: ClaimStream) -> Self {
        self.streams
            .insert(id.into(), Arc::new(RwLock::new(stream)));
        self
    }

    /// The service this server fronts.
    pub fn service(&self) -> &PlannerService {
        &self.service
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread. The returned handle reports
    /// the bound address and owns graceful shutdown.
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let scope = scope_fingerprint(&self.streams);
        // Warm boot: rehydrate the store from the snapshot when one is
        // configured and valid. Every failure (missing file, torn
        // write, different topology) is a cold start, never an error —
        // the snapshot is an optimization, not state of record.
        let restored = match &self.config.snapshot_path {
            Some(path) => restore_snapshot(self.service.store(), path, scope)
                .map(|stats| stats.entries)
                .unwrap_or(0),
            None => 0,
        };
        let limits = Limits {
            max_body_bytes: self.config.max_body_bytes,
            max_connections: self.config.max_connections,
            read_timeout: self.config.read_timeout,
        };
        let ctx = Arc::new(ServerCtx {
            service: self.service,
            streams: RwLock::new(self.streams),
            config: self.config,
            draining: AtomicBool::new(false),
            restored,
        });
        let front = Front::serve("fc-net", listener, limits, Arc::clone(&ctx), ROUTES)?;
        Ok(ServerHandle { ctx, front })
    }
}

impl std::fmt::Debug for PlannerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ids: Vec<&str> = self.streams.keys().map(String::as_str).collect();
        ids.sort_unstable();
        f.debug_struct("PlannerServer")
            .field("streams", &ids)
            .field("config", &self.config)
            .finish()
    }
}

/// A running server: its bound address plus graceful shutdown.
/// Dropping the handle shuts the server down (draining in-flight
/// requests); call [`ServerHandle::shutdown`] to do it explicitly.
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    front: Front<ServerCtx>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The service behind the server (stats, quotas, store).
    pub fn service(&self) -> &PlannerService {
        &self.ctx.service
    }

    /// Graceful shutdown: stop accepting, then drain — every accepted
    /// request completes and its response is written before this
    /// returns. Idle keep-alive connections are released at the next
    /// [`ServerConfig::read_timeout`] tick.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if !self.front.shutdown() {
            return;
        }
        // Every in-flight request has resolved: the store is settled,
        // so persist it for a warm successor. Best-effort — a failed
        // write costs the successor a cold start, nothing more. The
        // scope reflects streams created or deleted over the wire.
        if let Some(path) = &self.ctx.config.snapshot_path {
            let _ = write_snapshot(self.ctx.service.store(), path, self.ctx.live_scope());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr())
            .field("live_connections", &self.front.live_connections())
            .finish()
    }
}

/// The route table (see [`PlannerServer`]); the shared front answers
/// `405` for a known path under another method and `404` otherwise.
const ROUTES: &[Route<ServerCtx>] = &[
    ("GET", &["v1", "stats"], |ctx, _| {
        let service = &ctx.service;
        Outcome::ok(stats_json(
            &service.stats(),
            &service.store().stats(),
            &service.tenant_usages(),
        ))
    }),
    ("GET", &["v1", "streams"], |ctx, _| {
        let streams = ctx.streams();
        let mut ids: Vec<&String> = streams.keys().collect();
        ids.sort_unstable();
        let ids = ids.iter().map(|id| Json::Str((*id).clone())).collect();
        Outcome::ok(Json::obj([("streams", Json::Arr(ids))]))
    }),
    ("GET", &["v1", "streams", "*"], |ctx, call| {
        stream_info_route(ctx, call.params[0])
    }),
    ("GET", &["v1", "streams", "*", "snapshot"], |ctx, call| {
        stream_snapshot_route(ctx, call.params[0])
    }),
    ("POST", &["v1", "streams", "*", "adopt"], |ctx, call| {
        adopt_stream_route(ctx, call.request, call.params[0])
    }),
    ("GET", &["v1", "health"], |ctx, _| {
        Outcome::ok(health_json(ctx))
    }),
    ("POST", &["v1", "recommend"], |ctx, call| {
        solve_route(ctx, call, false)
    }),
    ("POST", &["v1", "sweep"], |ctx, call| {
        solve_route(ctx, call, true)
    }),
    ("POST", &["v1", "streams"], |ctx, call| {
        create_stream_route(ctx, call.request)
    }),
    ("DELETE", &["v1", "streams", "*"], |ctx, call| {
        delete_stream_route(ctx, call.params[0])
    }),
    ("POST", &["v1", "streams", "*", "clean"], |ctx, call| {
        clean_route(ctx, call.request, call.params[0])
    }),
    ("POST", &["v1", "admin", "drain"], |ctx, _| {
        set_draining(ctx, true)
    }),
    ("POST", &["v1", "admin", "undrain"], |ctx, _| {
        set_draining(ctx, false)
    }),
    ("POST", &["v1", "admin", "snapshot"], |ctx, _| {
        snapshot_route(ctx)
    }),
];

/// `POST /v1/streams`: builds a session from the uploaded dataset and
/// registers it as a live stream. The payload arrives fully validated
/// from [`CreateStreamRequest::from_json`]; a duplicate id is `409`
/// (creation is not idempotent — two uploads under one id could carry
/// different data). The new session shares the service's engine store,
/// so repeated datasets boot warm.
fn create_stream_route(ctx: &ServerCtx, request: &Request) -> Outcome {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return ApiError::bad_request("body is not UTF-8").into(),
    };
    let req = match decode_body(text, CreateStreamRequest::from_json) {
        Ok(req) => req,
        Err(e) => return e.into(),
    };
    let mut builder = SessionBuilder::new()
        .data(req.data)
        .claims(req.claims)
        .cache_store(Arc::clone(ctx.service.store()));
    if let Some(theta) = req.theta {
        builder = builder.theta(theta);
    }
    if let Some(k) = req.discretize_support {
        builder = builder.discretize_support(k);
    }
    let session = match builder.build() {
        Ok(session) => session,
        Err(e) => return ApiError::from(e).into(),
    };
    let mut stream = ClaimStream::open(session, ctx.service.clone());
    if let Some(tenant) = &req.tenant {
        stream = stream.with_tenant(tenant.as_str());
    }
    let info = stream_info(&req.id, &stream);
    let mut streams = ctx.streams.write().unwrap_or_else(PoisonError::into_inner);
    if streams.contains_key(&req.id) {
        return ApiError {
            status: 409,
            message: format!("stream {:?} already exists", req.id),
        }
        .into();
    }
    streams.insert(req.id, Arc::new(RwLock::new(stream)));
    drop(streams);
    Outcome::Respond {
        status: 201,
        body: info.to_json().to_string(),
    }
}

/// `GET /v1/streams/{id}`: one stream's summary.
fn stream_info_route(ctx: &ServerCtx, id: &str) -> Outcome {
    let Some(stream) = ctx.streams().get(id).cloned() else {
        return ApiError::not_found(format!("unknown stream {id:?}")).into();
    };
    let guard = stream.read().unwrap_or_else(PoisonError::into_inner);
    Outcome::ok(stream_info(id, &guard).to_json())
}

/// `DELETE /v1/streams/{id}`: drops the stream from the registry.
/// In-flight solves on it complete (they hold their own `Arc`); the
/// engine store keeps its entries — they are keyed on the dataset
/// fingerprint, so re-creating the same dataset boots warm.
fn delete_stream_route(ctx: &ServerCtx, id: &str) -> Outcome {
    let mut streams = ctx.streams.write().unwrap_or_else(PoisonError::into_inner);
    if streams.remove(id).is_none() {
        return ApiError::not_found(format!("unknown stream {id:?}")).into();
    }
    drop(streams);
    Outcome::ok(Json::obj([("deleted", Json::Str(id.to_string()))]))
}

fn stream_info(id: &str, stream: &ClaimStream) -> StreamInfo {
    let session = stream.session();
    StreamInfo {
        id: id.to_string(),
        tenant: stream.tenant().name().to_string(),
        model: match session.data() {
            DataModel::Discrete(_) => "discrete".to_string(),
            DataModel::Gaussian(_) => "gaussian".to_string(),
        },
        objects: session.data().len(),
        total_cost: session.data().total_cost(),
        theta: session.original_value(),
        perturbations: session.claims().len(),
    }
}

/// Reconstructs the full wire definition of a live stream — the exact
/// [`CreateStreamRequest`] a peer must replay to derive byte-identical
/// cache fingerprints. `θ` and the discretization width are pinned
/// explicitly (not left to defaults), so the replica cannot re-resolve
/// them differently; comparing two *reconstructed* definitions is
/// therefore a normalized equality.
fn stream_definition(id: &str, stream: &ClaimStream) -> CreateStreamRequest {
    let session = stream.session();
    CreateStreamRequest {
        id: id.to_string(),
        tenant: Some(stream.tenant().name().to_string()),
        theta: Some(session.original_value()),
        discretize_support: Some(session.discretize_support()),
        data: session.data().clone(),
        claims: session.claims().clone(),
    }
}

/// Names the fields on which two reconstructed definitions disagree,
/// so an adopt conflict's 409 says *what* diverged — a repair operator
/// staring at "different definition" alone cannot tell a θ drift from
/// a dataset swap.
fn definition_diff(a: &CreateStreamRequest, b: &CreateStreamRequest) -> Vec<&'static str> {
    let mut fields = Vec::new();
    if a.tenant != b.tenant {
        fields.push("tenant");
    }
    if a.theta != b.theta {
        fields.push("theta");
    }
    if a.discretize_support != b.discretize_support {
        fields.push("discretize_support");
    }
    if a.data != b.data {
        fields.push("data");
    }
    if a.claims != b.claims {
        fields.push("claims");
    }
    fields
}

/// The `GET /v1/health` body: liveness, drain flag, boot restore
/// count, and per-stream residency — which streams this replica hosts
/// and how many warm store entries each currently owns. A routing
/// front's repair pass reads the residency to spot under-replicated
/// streams; the warm counts use the fingerprints *derived so far*
/// (cheap — no problem is lowered on the probe path), so a stream
/// reads `0` until its first solve or adopt.
fn health_json(ctx: &ServerCtx) -> Json {
    let streams = ctx.streams();
    let mut ids: Vec<&String> = streams.keys().collect();
    ids.sort_unstable();
    let residency: Vec<Json> = ids
        .iter()
        .map(|id| {
            let stream = streams.get(*id).expect("listed id is resident");
            let guard = stream.read().unwrap_or_else(PoisonError::into_inner);
            let fps = guard.session().active_instance_fingerprints();
            let warm = stream_entry_count(ctx.service.store(), &fps);
            Json::obj([
                ("id", Json::Str((*id).clone())),
                ("warm_entries", Json::Num(warm as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("draining", Json::Bool(ctx.draining.load(Ordering::Relaxed))),
        ("restored_entries", Json::Num(ctx.restored as f64)),
        ("streams", Json::Arr(residency)),
    ])
}

/// `GET /v1/streams/{id}/snapshot`: the stream's full definition plus
/// its warm per-stream cache slice — one checksummed body a peer can
/// `adopt` verbatim, with no dataset re-upload. The slice is cut under
/// the per-stream scope fingerprint and filtered to the session's
/// instance fingerprints, so it carries exactly this stream's warm
/// state.
fn stream_snapshot_route(ctx: &ServerCtx, id: &str) -> Outcome {
    let Some(stream) = ctx.streams().get(id).cloned() else {
        return ApiError::not_found(format!("unknown stream {id:?}")).into();
    };
    let guard = stream.read().unwrap_or_else(PoisonError::into_inner);
    let definition = stream_definition(id, &guard);
    let fingerprints = guard.session().all_instance_fingerprints();
    drop(guard);
    let (cache_slice, warm_entries) = snapshot_stream_bytes(
        ctx.service.store(),
        stream_scope_fingerprint(id),
        &fingerprints,
    );
    let transfer = SnapshotTransfer {
        definition,
        cache_slice,
        warm_entries,
    };
    match transfer.to_json() {
        Ok(body) => Outcome::ok(body),
        // Only data with no wire encoding (a correlated Gaussian
        // model) lands here — the server's limitation, not the
        // client's request.
        Err(e) => ApiError {
            status: 500,
            message: format!("stream {id:?} has no wire snapshot: {}", e.message),
        }
        .into(),
    }
}

/// `POST /v1/streams/{id}/adopt`: installs a replicated stream from a
/// peer's [`SnapshotTransfer`].
///
/// * path id ≠ definition id → `400`;
/// * occupied id with a **different** definition → `409` (live state
///   is never silently replaced);
/// * occupied id with a **matching** definition → idempotent
///   warm-slice merge, `200` — the repair pass uses this to re-warm a
///   replica that already hosts the stream;
/// * free id → install the stream and restore the slice, `201`.
///
/// A corrupt, foreign, or wrong-scope slice is refused with a typed
/// `400` before anything lands — neither the registry nor the store is
/// touched (the slice restore itself is all-or-nothing).
fn adopt_stream_route(ctx: &ServerCtx, request: &Request, id: &str) -> Outcome {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return ApiError::bad_request("body is not UTF-8").into(),
    };
    let req = match decode_body(text, AdoptRequest::from_json) {
        Ok(req) => req,
        Err(e) => return e.into(),
    };
    let transfer = req.transfer;
    if transfer.definition.id != id {
        return ApiError::bad_request(format!(
            "adopt id mismatch: path says {id:?}, definition says {:?}",
            transfer.definition.id
        ))
        .into();
    }
    let CreateStreamRequest {
        tenant,
        theta,
        discretize_support,
        data,
        claims,
        ..
    } = transfer.definition;
    let mut builder = SessionBuilder::new()
        .data(data)
        .claims(claims)
        .cache_store(Arc::clone(ctx.service.store()));
    if let Some(theta) = theta {
        builder = builder.theta(theta);
    }
    if let Some(k) = discretize_support {
        builder = builder.discretize_support(k);
    }
    let session = match builder.build() {
        Ok(session) => session,
        Err(e) => return ApiError::from(e).into(),
    };
    // Derive the full fingerprint set up front: it validates the slice
    // and leaves the adopted session's keys memoized, so the health
    // report attributes the restored entries to this stream at once.
    let fingerprints = session.all_instance_fingerprints();
    let mut stream = ClaimStream::open(session, ctx.service.clone());
    if let Some(tenant) = &tenant {
        stream = stream.with_tenant(tenant.as_str());
    }

    // Hold the registry write lock across conflict check, restore, and
    // insert so a racing create cannot interleave. The restore only
    // takes store shard locks — never a solve — so the hold is short.
    let mut streams = ctx.streams.write().unwrap_or_else(PoisonError::into_inner);
    let merged = match streams.get(id) {
        Some(existing) => {
            let guard = existing.read().unwrap_or_else(PoisonError::into_inner);
            let resident = stream_definition(id, &guard);
            let incoming = stream_definition(id, &stream);
            if resident != incoming {
                return ApiError {
                    status: 409,
                    message: format!(
                        "stream {id:?} already exists with a different definition (fields: {})",
                        definition_diff(&resident, &incoming).join(", ")
                    ),
                }
                .into();
            }
            // Force the resident session's fingerprints too, so the
            // health residency attributes the merged entries to it —
            // otherwise a never-solved replica keeps reporting cold
            // and the repair pass re-merges forever.
            let _ = guard.session().all_instance_fingerprints();
            true
        }
        None => false,
    };
    let restored = if transfer.cache_slice.is_empty() {
        0
    } else {
        match restore_stream_bytes(
            ctx.service.store(),
            &transfer.cache_slice,
            stream_scope_fingerprint(id),
            &fingerprints,
        ) {
            Ok(stats) => stats.entries,
            Err(e) => return ApiError::bad_request(format!("cache slice refused: {e}")).into(),
        }
    };
    if !merged {
        streams.insert(id.to_string(), Arc::new(RwLock::new(stream)));
    }
    drop(streams);
    Outcome::Respond {
        status: if merged { 200 } else { 201 },
        body: Json::obj([
            ("adopted", Json::Str(id.to_string())),
            ("merged", Json::Bool(merged)),
            ("restored_entries", Json::Num(restored as f64)),
            ("slice_entries", Json::Num(transfer.warm_entries as f64)),
        ])
        .to_string(),
    }
}

/// `POST /v1/admin/drain` / `undrain`: flips the advisory drain flag.
/// The server keeps serving whatever arrives — the flag's consumer is
/// a routing front's health probe, which rehashes *new* work away
/// while in-flight requests finish here.
fn set_draining(ctx: &ServerCtx, draining: bool) -> Outcome {
    ctx.draining.store(draining, Ordering::Relaxed);
    Outcome::ok(Json::obj([("draining", Json::Bool(draining))]))
}

/// `POST /v1/admin/snapshot`: persists the store now (rotate hook — a
/// successor process pointed at the same path boots warm).
fn snapshot_route(ctx: &ServerCtx) -> Outcome {
    let Some(path) = &ctx.config.snapshot_path else {
        return ApiError::bad_request("no snapshot path configured").into();
    };
    match write_snapshot(ctx.service.store(), path, ctx.live_scope()) {
        Ok(stats) => Outcome::ok(Json::obj([
            ("entries", Json::Num(stats.entries as f64)),
            ("bytes", Json::Num(stats.bytes as f64)),
        ])),
        Err(e) => ApiError {
            status: 500,
            message: format!("snapshot failed: {e}"),
        }
        .into(),
    }
}

/// Parses the body as JSON and resolves the target stream first (an
/// unknown stream is a `404` even when the rest of the body is also
/// bad), then decodes the typed request with `decode`.
fn typed_request<T>(
    ctx: &ServerCtx,
    request: &Request,
    decode: impl FnOnce(&Json) -> Result<T, ApiError>,
) -> Result<(T, Arc<RwLock<ClaimStream>>), ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let body = Json::parse(text).map_err(|e| ApiError::bad_request(format!("bad JSON: {e}")))?;
    let stream_id = body
        .get("stream")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("missing \"stream\" (a stream id)"))?;
    // Clone the `Arc` out so the registry lock drops before any solve
    // (and a concurrent create/delete never waits on a request).
    let stream = ctx
        .streams()
        .get(stream_id)
        .cloned()
        .ok_or_else(|| ApiError::not_found(format!("unknown stream {stream_id:?}")))?;
    Ok((decode(&body)?, stream))
}

/// `POST /v1/recommend` and `/v1/sweep`: a recommend is a one-point
/// sweep, so both submit through [`ClaimStream::submit_sweep_as`] and
/// wait on the same handle, probing the client socket — a hangup
/// cancels the request ([`SweepHandle::wait_or_cancel`], the
/// disconnect-driven cancel hook).
fn solve_route(ctx: &ServerCtx, call: &Call<'_>, sweep: bool) -> Outcome {
    let request = call.request;
    let tenant = request.header("x-tenant").map(TenantId::from);
    let decoded = if sweep {
        typed_request(ctx, request, |body| {
            SweepRequest::from_json(body).map(|req| (req.spec, req.budgets))
        })
    } else {
        typed_request(ctx, request, |body| {
            RecommendRequest::from_json(body).map(|req| (req.spec, vec![req.budget]))
        })
    };
    let ((spec, budgets), stream) = match decoded {
        Ok(parts) => parts,
        Err(e) => return e.into(),
    };
    // Hold the stream lock only to *submit* (lowering is memoized and
    // fast); a concurrent `clean` therefore waits behind submissions,
    // never behind solves.
    let guard = stream.read().unwrap_or_else(PoisonError::into_inner);
    let total_cost = guard.session().data().total_cost();
    let tenant = tenant.unwrap_or_else(|| guard.tenant().clone());
    let budgets = match budgets
        .iter()
        .map(|b| b.resolve(total_cost))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(budgets) => budgets,
        Err(e) => return e.into(),
    };
    let handle = guard.submit_sweep_as(tenant, &spec, &budgets);
    drop(guard);
    let handle = match handle {
        Ok(handle) => handle,
        Err(e) => return ApiError::from(e).into(),
    };
    if sweep && request.query_param("stream").is_some() {
        return stream_sweep_response(ctx, call.sock, handle);
    }
    match handle.wait_or_cancel(ctx.config.disconnect_poll, || client_connected(call.sock)) {
        Ok(plans) if sweep => Outcome::ok(Json::obj([(
            "plans",
            Json::Arr(plans.iter().map(plan_json).collect()),
        )])),
        Ok(plans) => Outcome::ok(plan_json(&plans[0])),
        Err(CoreError::Cancelled) => Outcome::ClientGone,
        Err(e) => ApiError::from(e).into(),
    }
}

/// `POST /v1/sweep?stream=1`: writes the response incrementally, one
/// chunk per budget point, as each point completes. The chunk bodies
/// concatenate to exactly the buffered response (`{"plans":[` …
/// `,plan` … `]}`), so a streamed sweep is byte-identical to a
/// buffered one — the determinism gate holds per point.
///
/// The client socket is probed between points: a hangup cancels the
/// remaining budget points ([`SweepHandle::wait_next_point_or_cancel`]),
/// as does a failed chunk write. A solver error on a later point —
/// the `200` status line is long gone — terminates the stream with an
/// `x-fc-error` trailer and an unclosed JSON document, so no client
/// mistakes the truncation for success.
fn stream_sweep_response(ctx: &ServerCtx, sock: &TcpStream, mut handle: SweepHandle) -> Outcome {
    let mut w = sock;
    if write_chunked_head(&mut w, 200).is_err() || write_chunk(&mut w, b"{\"plans\":[").is_err() {
        handle.cancel();
        return Outcome::ClientGone;
    }
    let mut yielded = 0usize;
    loop {
        match handle
            .wait_next_point_or_cancel(ctx.config.disconnect_poll, || client_connected(sock))
        {
            PointOutcome::Point(Ok(plan)) => {
                let mut body = String::new();
                if yielded > 0 {
                    body.push(',');
                }
                body.push_str(&plan_json(&plan).to_string());
                yielded += 1;
                if write_chunk(&mut w, body.as_bytes()).is_err() {
                    handle.cancel();
                    return Outcome::ClientGone;
                }
            }
            PointOutcome::Point(Err(e)) => {
                handle.cancel();
                let e = ApiError::from(e);
                let _ = finish_chunked(&mut w, Some(&format!("{} {}", e.status, e.message)));
                return Outcome::Streamed;
            }
            PointOutcome::Done => {
                if write_chunk(&mut w, b"]}").is_err() {
                    return Outcome::ClientGone;
                }
                let _ = finish_chunked(&mut w, None);
                return Outcome::Streamed;
            }
            PointOutcome::Cancelled => return Outcome::ClientGone,
            // `wait_next_point_or_cancel` retries timeouts internally.
            PointOutcome::TimedOut => {}
        }
    }
}

fn clean_route(ctx: &ServerCtx, request: &Request, id: &str) -> Outcome {
    let Some(stream) = ctx.streams().get(id).cloned() else {
        return ApiError::not_found(format!("unknown stream {id:?}")).into();
    };
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return ApiError::bad_request("body is not UTF-8").into(),
    };
    let req = match decode_body(text, CleanRequest::from_json) {
        Ok(req) => req,
        Err(e) => return e.into(),
    };
    let mut guard = stream.write().unwrap_or_else(PoisonError::into_inner);
    match guard.mark_cleaned(&req.objects, &req.revealed) {
        Ok(invalidated) => Outcome::ok(
            CleanResponse {
                invalidated,
                objects: req.objects.len(),
            }
            .to_json(),
        ),
        Err(e) => ApiError::from(e).into(),
    }
}
