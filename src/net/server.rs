//! The HTTP server: the route table onto the serving layer, behind the
//! connection front it shares with the [`router`](super::router).
//!
//! ## Threading model
//!
//! Connection I/O runs on the front's handler threads (at most
//! [`ServerConfig::max_connections`] live connections, `503` past that;
//! a handler whose connection ends parks for the next one instead of
//! exiting), **not** on the solver [`WorkerPool`](fc_core::WorkerPool):
//! a handler spends its life blocked — reading a socket or waiting on a
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
//! still solving. An inline-lane sweep solves its points on the
//! handler thread, one between each send and the next, so its first
//! point leaves before its second is solved. Concatenating the chunk
//! bodies reproduces the
//! buffered `/v1/sweep` response byte-for-byte. A client hangup
//! between chunks cancels the remaining points; a mid-stream solver
//! error arrives as an `x-fc-error` trailer (the status line already
//! said `200`). Points that are already solved when a send goes out
//! share that send, and the connection stays open for the next request
//! once the terminal chunk is out.
//!
//! Streams themselves are wire-native too: `POST /v1/streams` creates
//! one from an uploaded dataset (decoded and validated by
//! [`CreateStreamRequest`]), `GET /v1/streams/{id}` summarizes it,
//! `DELETE /v1/streams/{id}` removes it. Replication carries the
//! definition only: `GET /v1/streams/{id}/snapshot` answers the
//! stream's [`CreateStreamRequest`], and a peer `adopt`s that body. A
//! replica rebuilds its own tables on its first read.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use fc_core::planner::service::{PlannerService, PointOutcome, SweepHandle, TenantId};
use fc_core::CoreError;

use super::api::{
    decode_body, plan_json, stats_json, ApiError, CleanRequest, CleanResponse, CreateStreamRequest,
    RecommendRequest, StreamInfo, SweepRequest,
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
    /// indefinitely. It is also how long a handler thread whose
    /// connection ended stays parked for the next one. Default: 5s.
    pub read_timeout: Duration,
    /// How often an in-flight wait probes the client socket for
    /// disconnect (the cancel-on-hangup latency). Default: 50ms.
    pub disconnect_poll: Duration,
}

impl ServerConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        Self {
            max_body_bytes: 256 * 1024,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            disconnect_poll: Duration::from_millis(50),
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
}

impl ServerCtx {
    fn streams(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<RwLock<ClaimStream>>>> {
        self.streams.read().unwrap_or_else(PoisonError::into_inner)
    }
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

    /// Graceful shutdown: stop accepting, close idle keep-alive
    /// connections (those waiting for a next request with nothing
    /// read), then drain — every request already read completes and
    /// its response is written before this returns.
    pub fn shutdown(mut self) {
        self.front.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.front.shutdown();
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
];

/// `POST /v1/streams`: builds a session from the uploaded dataset and
/// registers it as a live stream. The payload arrives fully validated
/// from [`CreateStreamRequest::from_json`]; a duplicate id is `409`
/// (creation is not idempotent — two uploads under one id could carry
/// different data). The new session shares the service's engine store,
/// so repeated datasets boot warm.
fn create_stream_route(ctx: &ServerCtx, request: &Request) -> Outcome {
    let (id, stream) = match open_stream(ctx, request) {
        Ok(opened) => opened,
        Err(e) => return e.into(),
    };
    let info = stream_info(&id, &stream);
    let mut streams = ctx.streams.write().unwrap_or_else(PoisonError::into_inner);
    if streams.contains_key(&id) {
        return ApiError {
            status: 409,
            message: format!("stream {id:?} already exists"),
        }
        .into();
    }
    streams.insert(id, Arc::new(RwLock::new(stream)));
    drop(streams);
    Outcome::Respond {
        status: 201,
        body: info.to_json().to_string(),
    }
}

/// Decodes a [`CreateStreamRequest`] body and opens its stream over the
/// service's store, unregistered: the shared half of create and adopt.
fn open_stream(ctx: &ServerCtx, request: &Request) -> Result<(String, ClaimStream), ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let req = decode_body(text, CreateStreamRequest::from_json)?;
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
    let mut stream = ClaimStream::open(builder.build()?, ctx.service.clone());
    if let Some(tenant) = &req.tenant {
        stream = stream.with_tenant(tenant.as_str());
    }
    Ok((req.id, stream))
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
/// [`CreateStreamRequest`] a peer must replay to serve byte-identical
/// plans. `θ` and the discretization width are pinned
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

/// The `GET /v1/health` body: liveness, drain flag, and residency —
/// the ids of the streams this replica hosts, one `{"id": …}` object
/// each. A routing front's repair pass reads the residency to spot
/// under-replicated streams.
fn health_json(ctx: &ServerCtx) -> Json {
    let streams = ctx.streams();
    let mut ids: Vec<&String> = streams.keys().collect();
    ids.sort_unstable();
    let residency = ids
        .iter()
        .map(|id| Json::obj([("id", Json::Str((*id).clone()))]))
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("draining", Json::Bool(ctx.draining.load(Ordering::Relaxed))),
        ("streams", Json::Arr(residency)),
    ])
}

/// `GET /v1/streams/{id}/snapshot`: the stream's full definition, the
/// body a peer `adopt`s verbatim to host a replica with no dataset
/// re-upload.
fn stream_snapshot_route(ctx: &ServerCtx, id: &str) -> Outcome {
    let Some(stream) = ctx.streams().get(id).cloned() else {
        return ApiError::not_found(format!("unknown stream {id:?}")).into();
    };
    let guard = stream.read().unwrap_or_else(PoisonError::into_inner);
    match stream_definition(id, &guard).to_json() {
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

/// `POST /v1/streams/{id}/adopt`: installs a replica of a peer's stream
/// from its [`CreateStreamRequest`] (a snapshot body).
///
/// * path id ≠ definition id → `400`;
/// * occupied id with a **different** definition → `409` naming the
///   fields (live state is never silently replaced);
/// * occupied id with a **matching** definition → `200`, nothing
///   changes (adopt is idempotent);
/// * free id → install the stream, `201`.
fn adopt_stream_route(ctx: &ServerCtx, request: &Request, id: &str) -> Outcome {
    let (adopted, stream) = match open_stream(ctx, request) {
        Ok(opened) => opened,
        Err(e) => return e.into(),
    };
    if adopted != id {
        return ApiError::bad_request(format!(
            "adopt id mismatch: path says {id:?}, definition says {adopted:?}"
        ))
        .into();
    }
    // Hold the registry write lock across the conflict check and the
    // insert so a racing create cannot interleave.
    let mut streams = ctx.streams.write().unwrap_or_else(PoisonError::into_inner);
    let merged = match streams.get(id) {
        Some(existing) => {
            let resident =
                stream_definition(id, &existing.read().unwrap_or_else(PoisonError::into_inner));
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
            true
        }
        None => {
            streams.insert(id.to_string(), Arc::new(RwLock::new(stream)));
            false
        }
    };
    drop(streams);
    Outcome::Respond {
        status: if merged { 200 } else { 201 },
        body: Json::obj([
            ("adopted", Json::Str(id.to_string())),
            ("merged", Json::Bool(merged)),
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
/// Every point that has already resolved when a send goes out rides in
/// that send: the head and the opening chunk are staged with the points
/// ready at submit (an inline sweep has its first point there, plus any
/// the plan memo holds), and after each wait the point that ended it is
/// staged with any that resolved behind it. The handler blocks only
/// when nothing is ready to send; for an inline sweep that wait is the
/// next point's solve, on this thread, after the previous send is out.
///
/// The client socket is probed between points: a hangup cancels the
/// remaining budget points ([`SweepHandle::wait_next_point_or_cancel`],
/// which for an inline sweep probes before each solve), as does a
/// failed write. A solver error on a later point — the `200`
/// status line is long gone — terminates the stream with an
/// `x-fc-error` trailer and an unclosed JSON document, so no client
/// mistakes the truncation for success. Either way a stream whose
/// terminal chunk went out is [`Outcome::Streamed`] and keeps the
/// connection; one abandoned part-way is [`Outcome::ClientGone`].
fn stream_sweep_response(ctx: &ServerCtx, sock: &TcpStream, mut handle: SweepHandle) -> Outcome {
    let mut w = sock;
    // Staging into a `Vec` cannot fail; each batch leaves in one send
    // (see `http`'s one-write rule).
    let mut batch = Vec::new();
    let _ = write_chunked_head(&mut batch, 200);
    let _ = write_chunk(&mut batch, b"{\"plans\":[");
    let mut yielded = 0usize;
    let mut next = handle.try_next_point();
    loop {
        let finished = loop {
            match next {
                PointOutcome::Point(Ok(plan)) => {
                    let mut body = String::new();
                    if yielded > 0 {
                        body.push(',');
                    }
                    body.push_str(&plan_json(&plan).to_string());
                    yielded += 1;
                    let _ = write_chunk(&mut batch, body.as_bytes());
                    next = handle.try_next_point();
                }
                // Nothing more is ready: send what is staged, then wait.
                PointOutcome::TimedOut => break false,
                PointOutcome::Point(Err(e)) => {
                    handle.cancel();
                    let e = ApiError::from(e);
                    let _ =
                        finish_chunked(&mut batch, Some(&format!("{} {}", e.status, e.message)));
                    break true;
                }
                PointOutcome::Done => {
                    let _ = write_chunk(&mut batch, b"]}");
                    let _ = finish_chunked(&mut batch, None);
                    break true;
                }
                PointOutcome::Cancelled => return Outcome::ClientGone,
            }
        };
        if w.write_all(&batch).is_err() {
            handle.cancel();
            return Outcome::ClientGone;
        }
        if finished {
            return Outcome::Streamed;
        }
        batch.clear();
        next =
            handle.wait_next_point_or_cancel(ctx.config.disconnect_poll, || client_connected(sock));
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
