//! The typed API surface of the HTTP front: request and response
//! structs with explicit [`Json`] codecs.
//!
//! Everything that crosses the wire has a struct here —
//! [`RecommendRequest`], [`SweepRequest`], [`CleanRequest`] /
//! [`CleanResponse`], [`CreateStreamRequest`] / [`StreamInfo`],
//! [`PlanView`], [`StatsResponse`] — with `from_json`/`to_json` (and
//! `encode`/`decode` string conveniences) that are the **single**
//! source of truth for field names and validation messages. The
//! server routes decode requests through these types, the
//! [`ApiClient`](super::client::ApiClient) and the load drivers
//! encode through them, and the shard router decodes responses
//! through them to aggregate and compare — so a renamed field breaks
//! loudly at one definition instead of silently at N hand-built call
//! sites. The raw [`post`](super::client::post) /
//! [`get`](super::client::get) helpers stay public precisely so tests
//! can still send malformed bodies past the typed layer.
//!
//! The response encoders whose *bytes* are contracts also live here:
//! [`plan_identity_json`] covers exactly the fields
//! [`Plan::divergence`](fc_core::Plan::divergence) covers (selection,
//! cost, goal, bit-exact objectives, strategy), with floats written
//! shortest-round-trip — so two plans encode to the same bytes iff
//! `divergence` reports `None`. The full [`plan_json`] adds the
//! diagnostics counters, which are observability, not plan content
//! (`divergence` ignores them; so do the gates).

use fc_claims::{ClaimSet, Direction, LinearClaim};
use fc_core::planner::service::{QuotaUsage, ServiceStats, TenantId};
use fc_core::{Budget, CacheStats, CoreError, GaussianInstance, Instance, Plan};
use fc_uncertain::DiscreteDist;

use super::json::Json;
use crate::planner::{Goal, Measure, ObjectiveSpec, Strategy};
use crate::session::DataModel;

/// A request that cannot be served, mapped to an HTTP status.
#[derive(Debug)]
pub struct ApiError {
    /// The response status code.
    pub status: u16,
    /// Human-readable detail (the response `error` field).
    pub message: String,
}

impl ApiError {
    /// A 400 with the given detail.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// A 404 with the given detail.
    pub fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            message: message.into(),
        }
    }

    /// A 502 with the given detail (a routing front could not get an
    /// answer from any upstream backend).
    pub fn bad_gateway(message: impl Into<String>) -> Self {
        Self {
            status: 502,
            message: message.into(),
        }
    }

    /// A 503 with the given detail (nothing available to serve the
    /// request right now — retrying later may succeed).
    pub fn unavailable(message: impl Into<String>) -> Self {
        Self {
            status: 503,
            message: message.into(),
        }
    }

    /// The `{"error": …}` response body.
    pub fn body(&self) -> String {
        Json::obj([("error", Json::Str(self.message.clone()))]).to_string()
    }
}

impl From<CoreError> for ApiError {
    /// Maps solver/service errors onto statuses: quota exhaustion is
    /// `429` (retry after in-flight work resolves); a contained worker
    /// panic is `500`, as is `Cancelled` (a request the *server*
    /// abandoned while the client still waits — unreachable through
    /// the normal disconnect path, which never responds at all);
    /// everything else — bad strategies, bad objects, refused problem
    /// shapes — is a `400` request error.
    fn from(e: CoreError) -> Self {
        let status = match &e {
            CoreError::QuotaExceeded { .. } => 429,
            CoreError::WorkerPanicked { .. } | CoreError::Cancelled => 500,
            _ => 400,
        };
        Self {
            status,
            message: e.to_string(),
        }
    }
}

/// Encodes a [`Goal`] the way every route writes it: `"minvar"` or
/// `{"maxpr": τ}`.
pub fn goal_json(goal: Goal) -> Json {
    match goal {
        Goal::MinVar => Json::Str("minvar".to_string()),
        Goal::MaxPr { tau } => Json::obj([("maxpr", Json::Num(tau))]),
        // `Goal` is non-exhaustive upstream; an unknown goal cannot be
        // submitted through this front, so this arm is unreachable
        // today and merely future-proof.
        _ => Json::Str("unknown".to_string()),
    }
}

fn goal_from_json(v: Option<&Json>) -> Result<Goal, ApiError> {
    match v {
        None => Ok(Goal::MinVar),
        Some(Json::Str(s)) if s == "minvar" => Ok(Goal::MinVar),
        Some(v) => match v.get("maxpr").and_then(Json::as_f64) {
            Some(tau) => Ok(Goal::MaxPr { tau }),
            None => Err(ApiError::bad_request(
                "bad \"goal\" (expected \"minvar\" or {\"maxpr\": τ})",
            )),
        },
    }
}

/// Parses the request body's `measure`/`goal`/`strategy` fields into
/// an [`ObjectiveSpec`]. `goal` defaults to MinVar (`"minvar"`); a
/// counterargument hunt is `{"maxpr": τ}`.
pub fn spec_from_json(body: &Json) -> Result<ObjectiveSpec, ApiError> {
    let measure = match body.get("measure").and_then(Json::as_str) {
        Some("bias") => Measure::Bias,
        Some("dup") => Measure::Dup,
        Some("frag") => Measure::Frag,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown measure {other:?} (expected \"bias\", \"dup\", or \"frag\")"
            )))
        }
        None => {
            return Err(ApiError::bad_request(
                "missing \"measure\" (\"bias\", \"dup\", or \"frag\")",
            ))
        }
    };
    let goal = goal_from_json(body.get("goal"))?;
    let mut spec = ObjectiveSpec::new(measure, goal);
    match body.get("strategy") {
        None => {}
        Some(Json::Str(name)) if name == "auto" => {}
        Some(Json::Str(name)) => spec = spec.with_strategy(name.clone()),
        Some(_) => {
            return Err(ApiError::bad_request(
                "bad \"strategy\" (expected a string)",
            ))
        }
    }
    Ok(spec)
}

/// Writes a spec's `measure`/`goal`/`strategy` fields into `fields`
/// (the shared half of recommend and sweep bodies).
fn push_spec_fields(fields: &mut Vec<(String, Json)>, spec: &ObjectiveSpec) {
    fields.push((
        "measure".to_string(),
        Json::Str(spec.measure.name().to_string()),
    ));
    fields.push(("goal".to_string(), goal_json(spec.goal)));
    if let Strategy::Named(name) = &spec.strategy {
        fields.push(("strategy".to_string(), Json::Str(name.clone())));
    }
}

/// A budget as it appears on the wire — possibly relative to a
/// stream's total cleaning cost, which only the server knows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetSpec {
    /// An absolute cleaning-cost budget.
    Absolute(u64),
    /// A fraction of the stream's total cleaning cost.
    Fraction(f64),
}

impl BudgetSpec {
    /// Parses one budget: a bare number, `{"absolute": n}`, or
    /// `{"fraction": f}`.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        if let Some(n) = v.as_u64() {
            return Ok(Self::Absolute(n));
        }
        if let Some(frac) = v.get("fraction").and_then(Json::as_f64) {
            return Ok(Self::Fraction(frac));
        }
        if let Some(n) = v.get("absolute").and_then(Json::as_u64) {
            return Ok(Self::Absolute(n));
        }
        Err(ApiError::bad_request(
            "bad budget (expected a non-negative integer, {\"absolute\": n}, or {\"fraction\": f})",
        ))
    }

    /// The wire encoding (inverse of [`BudgetSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        match *self {
            Self::Absolute(n) => Json::Num(n as f64),
            Self::Fraction(f) => Json::obj([("fraction", Json::Num(f))]),
        }
    }

    /// Resolves against a stream's total cleaning cost.
    pub fn resolve(&self, total_cost: u64) -> Result<Budget, ApiError> {
        match *self {
            Self::Absolute(n) => Ok(Budget::absolute(n)),
            Self::Fraction(f) => Budget::try_fraction(total_cost, f).map_err(ApiError::from),
        }
    }
}

/// Parses one budget value and resolves it against `total_cost`.
pub fn budget_from_json(v: &Json, total_cost: u64) -> Result<Budget, ApiError> {
    BudgetSpec::from_json(v)?.resolve(total_cost)
}

/// The required `budget` field of a recommend request, resolved.
pub fn budget_field(body: &Json, total_cost: u64) -> Result<Budget, ApiError> {
    match body.get("budget") {
        Some(v) => budget_from_json(v, total_cost),
        None => Err(ApiError::bad_request("missing \"budget\"")),
    }
}

/// The required `budgets` array of a sweep request, resolved.
pub fn budgets_field(body: &Json, total_cost: u64) -> Result<Vec<Budget>, ApiError> {
    match body.get("budgets").and_then(Json::as_array) {
        Some(items) if !items.is_empty() => items
            .iter()
            .map(|v| budget_from_json(v, total_cost))
            .collect(),
        Some(_) => Err(ApiError::bad_request("\"budgets\" must be non-empty")),
        None => Err(ApiError::bad_request("missing \"budgets\" (an array)")),
    }
}

fn stream_field(body: &Json) -> Result<String, ApiError> {
    body.get("stream")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request("missing \"stream\" (a stream id)"))
}

/// `POST /v1/recommend`: one budget point on one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendRequest {
    /// The target stream id.
    pub stream: String,
    /// Measure, goal, and strategy.
    pub spec: ObjectiveSpec,
    /// The cleaning budget.
    pub budget: BudgetSpec,
}

impl RecommendRequest {
    /// The wire body.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("stream".to_string(), Json::Str(self.stream.clone()))];
        push_spec_fields(&mut fields, &self.spec);
        fields.push(("budget".to_string(), self.budget.to_json()));
        Json::Obj(fields)
    }

    /// Parses and validates a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let stream = stream_field(body)?;
        let spec = spec_from_json(body)?;
        let budget = match body.get("budget") {
            Some(v) => BudgetSpec::from_json(v)?,
            None => return Err(ApiError::bad_request("missing \"budget\"")),
        };
        Ok(Self {
            stream,
            spec,
            budget,
        })
    }

    /// The serialized body string.
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }
}

/// `POST /v1/sweep`: a budget sweep on one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The target stream id.
    pub stream: String,
    /// Measure, goal, and strategy.
    pub spec: ObjectiveSpec,
    /// The budget points (non-empty).
    pub budgets: Vec<BudgetSpec>,
}

impl SweepRequest {
    /// The wire body.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("stream".to_string(), Json::Str(self.stream.clone()))];
        push_spec_fields(&mut fields, &self.spec);
        fields.push((
            "budgets".to_string(),
            Json::Arr(self.budgets.iter().map(BudgetSpec::to_json).collect()),
        ));
        Json::Obj(fields)
    }

    /// Parses and validates a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let stream = stream_field(body)?;
        let spec = spec_from_json(body)?;
        let budgets = match body.get("budgets").and_then(Json::as_array) {
            Some(items) if !items.is_empty() => items
                .iter()
                .map(BudgetSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(ApiError::bad_request("\"budgets\" must be non-empty")),
            None => return Err(ApiError::bad_request("missing \"budgets\" (an array)")),
        };
        Ok(Self {
            stream,
            spec,
            budgets,
        })
    }

    /// The serialized body string.
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }
}

/// `POST /v1/streams/{id}/clean`: reveal cleaned values (the stream id
/// rides in the path, not the body).
#[derive(Debug, Clone, PartialEq)]
pub struct CleanRequest {
    /// The cleaned object indices.
    pub objects: Vec<usize>,
    /// The revealed true values, parallel to `objects`.
    pub revealed: Vec<f64>,
}

impl CleanRequest {
    /// The wire body.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "objects",
                Json::Arr(self.objects.iter().map(|&o| Json::Num(o as f64)).collect()),
            ),
            (
                "revealed",
                Json::Arr(self.revealed.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    /// Parses and validates a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let objects: Vec<usize> = match body
            .get("objects")
            .and_then(Json::as_array)
            .map(|items| items.iter().map(Json::as_usize).collect::<Option<Vec<_>>>())
        {
            Some(Some(objects)) => objects,
            _ => {
                return Err(ApiError::bad_request(
                    "missing \"objects\" (an array of object indices)",
                ))
            }
        };
        let revealed: Vec<f64> = match body
            .get("revealed")
            .and_then(Json::as_array)
            .map(|items| items.iter().map(Json::as_f64).collect::<Option<Vec<_>>>())
        {
            Some(Some(revealed)) => revealed,
            _ => {
                return Err(ApiError::bad_request(
                    "missing \"revealed\" (an array of cleaned values)",
                ))
            }
        };
        Ok(Self { objects, revealed })
    }

    /// The serialized body string.
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }
}

/// The `200` body of a clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanResponse {
    /// Store entries invalidated by the re-fingerprinting.
    pub invalidated: usize,
    /// Objects marked cleaned.
    pub objects: usize,
}

impl CleanResponse {
    /// The wire body.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("invalidated", Json::Num(self.invalidated as f64)),
            ("objects", Json::Num(self.objects as f64)),
        ])
    }

    /// Parses a clean response body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let field = |name: &str| {
            body.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| ApiError::bad_request(format!("clean response missing {name:?}")))
        };
        Ok(Self {
            invalidated: field("invalidated")?,
            objects: field("objects")?,
        })
    }
}

/// The observability half of a plan response — *excluded* from plan
/// identity (two byte-identical plans may differ here, e.g. a warm
/// replica reports `store_misses == 0` where a cold one rebuilt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanDiagnosticsView {
    /// Query-term evaluations spent solving.
    pub engine_evals: u64,
    /// Candidate selections examined.
    pub candidates: u64,
    /// Engine lookups served warm by the shared store.
    pub store_hits: u64,
    /// Engine lookups that had to build.
    pub store_misses: u64,
}

/// A decoded plan response: the divergence-relevant identity fields
/// plus diagnostics. [`PlanView::identity_json`] re-encodes exactly
/// the fields [`Plan::divergence`](fc_core::Plan::divergence) covers,
/// so two plans are byte-identical there iff `divergence` is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    /// The strategy that produced the plan.
    pub strategy: String,
    /// The goal solved.
    pub goal: Goal,
    /// The selected object indices.
    pub objects: Vec<usize>,
    /// The selection's cleaning cost.
    pub cost: u64,
    /// Objective value before cleaning.
    pub before: f64,
    /// Objective value after cleaning the selection.
    pub after: f64,
    /// Observability counters (not identity).
    pub diagnostics: PlanDiagnosticsView,
}

impl PlanView {
    /// Parses a plan object from a recommend response (or one element
    /// of a sweep response's `plans`).
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let missing = |name: &str| ApiError::bad_request(format!("plan missing {name:?}"));
        let strategy = v
            .get("strategy")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("strategy"))?
            .to_string();
        let goal = goal_from_json(v.get("goal"))?;
        let objects = v
            .get("objects")
            .and_then(Json::as_array)
            .map(|items| items.iter().map(Json::as_usize).collect::<Option<Vec<_>>>())
            .ok_or_else(|| missing("objects"))?
            .ok_or_else(|| ApiError::bad_request("plan \"objects\" must be indices"))?;
        let cost = v
            .get("cost")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("cost"))?;
        let before = v
            .get("before")
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("before"))?;
        let after = v
            .get("after")
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("after"))?;
        let d = v.get("diagnostics").ok_or_else(|| missing("diagnostics"))?;
        let counter = |name: &str| {
            d.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::bad_request(format!("diagnostics missing {name:?}")))
        };
        Ok(Self {
            strategy,
            goal,
            objects,
            cost,
            before,
            after,
            diagnostics: PlanDiagnosticsView {
                engine_evals: counter("engine_evals")?,
                candidates: counter("candidates")?,
                store_hits: counter("store_hits")?,
                store_misses: counter("store_misses")?,
            },
        })
    }

    /// Re-encodes the identity fields in the server's canonical order
    /// and float formatting — the byte string the determinism gates
    /// compare. Diagnostics are deliberately absent.
    pub fn identity_json(&self) -> Json {
        Json::obj([
            ("strategy", Json::Str(self.strategy.clone())),
            ("goal", goal_json(self.goal)),
            (
                "objects",
                Json::Arr(self.objects.iter().map(|&o| Json::Num(o as f64)).collect()),
            ),
            ("cost", Json::Num(self.cost as f64)),
            ("before", Json::Num(self.before)),
            ("after", Json::Num(self.after)),
        ])
    }
}

/// The divergence-relevant fields of a plan (see the module docs):
/// equal encodings ⇔ [`Plan::divergence`](fc_core::Plan::divergence)
/// `None`.
pub fn plan_identity_json(plan: &Plan) -> Json {
    Json::obj([
        ("strategy", Json::Str(plan.strategy.clone())),
        ("goal", goal_json(plan.goal)),
        (
            "objects",
            Json::Arr(
                plan.selection
                    .objects()
                    .iter()
                    .map(|&o| Json::Num(o as f64))
                    .collect(),
            ),
        ),
        ("cost", Json::Num(plan.selection.cost() as f64)),
        ("before", Json::Num(plan.before)),
        ("after", Json::Num(plan.after)),
    ])
}

/// Full plan encoding: the identity fields plus the observability
/// diagnostics.
pub fn plan_json(plan: &Plan) -> Json {
    let Json::Obj(mut fields) = plan_identity_json(plan) else {
        unreachable!("plan_identity_json returns an object")
    };
    fields.push((
        "diagnostics".to_string(),
        Json::obj([
            (
                "engine_evals",
                Json::Num(plan.diagnostics.engine_evals as f64),
            ),
            ("candidates", Json::Num(plan.diagnostics.candidates as f64)),
            ("store_hits", Json::Num(plan.diagnostics.store_hits as f64)),
            (
                "store_misses",
                Json::Num(plan.diagnostics.store_misses as f64),
            ),
        ]),
    ));
    Json::Obj(fields)
}

/// `GET /v1/stats` body: the service counters and gauges, the shared
/// store's counters, and per-tenant saturation (every tenant with
/// in-flight work or an explicit quota policy).
pub fn stats_json(
    service: &ServiceStats,
    store: &CacheStats,
    tenants: &[(TenantId, QuotaUsage)],
) -> Json {
    Json::obj([
        (
            "service",
            Json::obj([
                ("submitted", Json::Num(service.submitted as f64)),
                ("completed", Json::Num(service.completed as f64)),
                ("inline", Json::Num(service.inline as f64)),
                ("interactive", Json::Num(service.interactive as f64)),
                ("bulk", Json::Num(service.bulk as f64)),
                ("panics", Json::Num(service.panics as f64)),
                ("cancelled", Json::Num(service.cancelled as f64)),
                ("quota_rejected", Json::Num(service.quota_rejected as f64)),
                (
                    "queued_interactive",
                    Json::Num(service.queued_interactive as f64),
                ),
                ("queued_bulk", Json::Num(service.queued_bulk as f64)),
                ("in_flight", Json::Num(service.in_flight as f64)),
                (
                    "running_interactive",
                    Json::Num(service.running_interactive as f64),
                ),
                ("running_bulk", Json::Num(service.running_bulk as f64)),
            ]),
        ),
        (
            "tenants",
            Json::Obj(
                tenants
                    .iter()
                    .map(|(tenant, usage)| {
                        (
                            tenant.name().to_string(),
                            Json::obj([
                                ("in_flight", Json::Num(usage.in_flight as f64)),
                                (
                                    "outstanding_evals",
                                    Json::Num(usage.outstanding_evals as f64),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "store",
            Json::obj([
                ("hits", Json::Num(store.hits as f64)),
                ("misses", Json::Num(store.misses as f64)),
                ("evictions", Json::Num(store.evictions as f64)),
                ("scoped_builds", Json::Num(store.scoped_builds as f64)),
                (
                    "scoped_build_evals",
                    Json::Num(store.scoped_build_evals as f64),
                ),
                ("invalidations", Json::Num(store.invalidations as f64)),
                ("rekeys", Json::Num(store.rekeys as f64)),
                ("plan_hits", Json::Num(store.plan_hits as f64)),
                ("plan_misses", Json::Num(store.plan_misses as f64)),
                ("entries", Json::Num(store.entries as f64)),
            ]),
        ),
    ])
}

/// A decoded `GET /v1/stats` body: service counters, store counters,
/// and per-tenant saturation. The shard router aggregates these across
/// backends into one body of the same shape, so every invariant a
/// load test checks against a single box holds against a topology.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsResponse {
    /// The serving-layer counters and gauges.
    pub service: ServiceStats,
    /// The shared engine store's counters.
    pub store: CacheStats,
    /// Per-tenant usage, keyed by tenant name.
    pub tenants: Vec<(String, QuotaUsage)>,
}

impl StatsResponse {
    /// The wire body (the exact shape `GET /v1/stats` serves).
    pub fn to_json(&self) -> Json {
        let tenants: Vec<(TenantId, QuotaUsage)> = self
            .tenants
            .iter()
            .map(|(name, usage)| (TenantId::from(name.as_str()), *usage))
            .collect();
        stats_json(&self.service, &self.store, &tenants)
    }

    /// Parses a stats body.
    // `ServiceStats`/`CacheStats`/`QuotaUsage` are `#[non_exhaustive]`
    // upstream, so field-by-field assignment over `Default` is the only
    // way to construct them here.
    #[allow(clippy::field_reassign_with_default)]
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let section = |name: &str| {
            body.get(name)
                .ok_or_else(|| ApiError::bad_request(format!("stats missing {name:?}")))
        };
        let u64_field = |obj: &Json, name: &str| {
            obj.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::bad_request(format!("stats missing counter {name:?}")))
        };
        let usize_field = |obj: &Json, name: &str| u64_field(obj, name).map(|v| v as usize);

        let svc = section("service")?;
        let mut service = ServiceStats::default();
        service.submitted = u64_field(svc, "submitted")?;
        service.completed = u64_field(svc, "completed")?;
        service.inline = u64_field(svc, "inline")?;
        service.interactive = u64_field(svc, "interactive")?;
        service.bulk = u64_field(svc, "bulk")?;
        service.panics = u64_field(svc, "panics")?;
        service.cancelled = u64_field(svc, "cancelled")?;
        service.quota_rejected = u64_field(svc, "quota_rejected")?;
        service.queued_interactive = usize_field(svc, "queued_interactive")?;
        service.queued_bulk = usize_field(svc, "queued_bulk")?;
        service.in_flight = u64_field(svc, "in_flight")?;
        service.running_interactive = usize_field(svc, "running_interactive")?;
        service.running_bulk = usize_field(svc, "running_bulk")?;

        let st = section("store")?;
        let mut store = CacheStats::default();
        store.hits = u64_field(st, "hits")?;
        store.misses = u64_field(st, "misses")?;
        store.evictions = u64_field(st, "evictions")?;
        store.scoped_builds = u64_field(st, "scoped_builds")?;
        store.scoped_build_evals = u64_field(st, "scoped_build_evals")?;
        store.invalidations = u64_field(st, "invalidations")?;
        store.rekeys = u64_field(st, "rekeys")?;
        store.plan_hits = u64_field(st, "plan_hits")?;
        store.plan_misses = u64_field(st, "plan_misses")?;
        store.entries = usize_field(st, "entries")?;

        let mut tenants = Vec::new();
        if let Some(Json::Obj(fields)) = body.get("tenants") {
            for (name, usage) in fields {
                let mut u = QuotaUsage::default();
                u.in_flight = usize_field(usage, "in_flight")?;
                u.outstanding_evals = u64_field(usage, "outstanding_evals")?;
                tenants.push((name.clone(), u));
            }
        }
        Ok(Self {
            service,
            store,
            tenants,
        })
    }

    /// Merges another stats body into this one by summing every
    /// counter and gauge (tenants merge by name). This is how the
    /// router aggregates backends: sums preserve the serving-layer
    /// invariants (`completed + cancelled == submitted`, zero gauges
    /// at drain) because each holds per backend.
    pub fn absorb(&mut self, other: &StatsResponse) {
        let s = &mut self.service;
        let o = &other.service;
        s.submitted += o.submitted;
        s.completed += o.completed;
        s.inline += o.inline;
        s.interactive += o.interactive;
        s.bulk += o.bulk;
        s.panics += o.panics;
        s.cancelled += o.cancelled;
        s.quota_rejected += o.quota_rejected;
        s.queued_interactive += o.queued_interactive;
        s.queued_bulk += o.queued_bulk;
        s.in_flight += o.in_flight;
        s.running_interactive += o.running_interactive;
        s.running_bulk += o.running_bulk;
        let t = &mut self.store;
        let u = &other.store;
        t.hits += u.hits;
        t.misses += u.misses;
        t.evictions += u.evictions;
        t.scoped_builds += u.scoped_builds;
        t.scoped_build_evals += u.scoped_build_evals;
        t.invalidations += u.invalidations;
        t.rekeys += u.rekeys;
        t.plan_hits += u.plan_hits;
        t.plan_misses += u.plan_misses;
        t.entries += u.entries;
        for (name, usage) in &other.tenants {
            match self.tenants.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    mine.in_flight += usage.in_flight;
                    mine.outstanding_evals += usage.outstanding_evals;
                }
                None => self.tenants.push((name.clone(), *usage)),
            }
        }
    }
}

/// Parses a body string and decodes it with `decode` — the shared
/// "UTF-8 → JSON → typed" prologue of every typed route and client.
pub fn decode_body<T>(
    text: &str,
    decode: impl FnOnce(&Json) -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    let body = Json::parse(text).map_err(|e| ApiError::bad_request(format!("bad JSON: {e}")))?;
    decode(&body)
}

fn f64_array(v: Option<&Json>, what: &str) -> Result<Vec<f64>, ApiError> {
    v.and_then(Json::as_array)
        .and_then(|items| items.iter().map(Json::as_f64).collect::<Option<Vec<_>>>())
        .ok_or_else(|| ApiError::bad_request(format!("missing {what:?} (an array of numbers)")))
}

fn u64_array(v: Option<&Json>, what: &str) -> Result<Vec<u64>, ApiError> {
    v.and_then(Json::as_array)
        .and_then(|items| items.iter().map(Json::as_u64).collect::<Option<Vec<_>>>())
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "missing {what:?} (an array of non-negative integers)"
            ))
        })
}

fn claim_json(claim: &LinearClaim) -> Json {
    Json::obj([
        (
            "terms",
            Json::Arr(
                claim
                    .terms()
                    .iter()
                    .map(|&(i, w)| Json::Arr(vec![Json::Num(i as f64), Json::Num(w)]))
                    .collect(),
            ),
        ),
        ("bias", Json::Num(claim.bias_term())),
    ])
}

fn claim_from_json(v: &Json) -> Result<LinearClaim, ApiError> {
    let terms = v
        .get("terms")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request("claim missing \"terms\" (an array of pairs)"))?
        .iter()
        .map(|pair| {
            let items = pair.as_array()?;
            match items {
                [object, weight] => Some((object.as_usize()?, weight.as_f64()?)),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| {
            ApiError::bad_request("claim \"terms\" must be [object index, weight] pairs")
        })?;
    let bias = match v.get("bias") {
        None => 0.0,
        Some(b) => b
            .as_f64()
            .ok_or_else(|| ApiError::bad_request("claim \"bias\" must be a number"))?,
    };
    LinearClaim::new(terms, bias).map_err(|e| ApiError::bad_request(e.to_string()))
}

/// Encodes a [`ClaimSet`] for the wire: the original claim, the
/// perturbation family, the (normalized) sensibilities, and the
/// strength direction. Inverse of [`claims_from_json`].
pub fn claims_json(claims: &ClaimSet) -> Json {
    Json::obj([
        ("original", claim_json(claims.original())),
        (
            "perturbations",
            Json::Arr(claims.perturbations().iter().map(claim_json).collect()),
        ),
        (
            "sensibilities",
            Json::Arr(
                claims
                    .sensibilities()
                    .iter()
                    .map(|&s| Json::Num(s))
                    .collect(),
            ),
        ),
        (
            "direction",
            Json::Str(
                match claims.direction() {
                    Direction::HigherIsStronger => "higher",
                    Direction::LowerIsStronger => "lower",
                }
                .to_string(),
            ),
        ),
    ])
}

/// Parses and validates a wire [`ClaimSet`]: perturbations and
/// sensibilities must be parallel, sensibilities non-negative with a
/// positive total. Raw sensibilities are normalized to sum to 1; an
/// already-normalized vector decodes bit for bit, so every round trip
/// is a fixed point.
pub fn claims_from_json(v: &Json) -> Result<ClaimSet, ApiError> {
    let original = claim_from_json(
        v.get("original")
            .ok_or_else(|| ApiError::bad_request("claims missing \"original\""))?,
    )?;
    let perturbations = v
        .get("perturbations")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request("claims missing \"perturbations\" (an array)"))?
        .iter()
        .map(claim_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let sensibilities = f64_array(v.get("sensibilities"), "sensibilities")?;
    let direction = match v.get("direction").and_then(Json::as_str) {
        Some("higher") => Direction::HigherIsStronger,
        Some("lower") => Direction::LowerIsStronger,
        _ => {
            return Err(ApiError::bad_request(
                "claims missing \"direction\" (\"higher\" or \"lower\")",
            ))
        }
    };
    ClaimSet::new(original, perturbations, sensibilities, direction)
        .map_err(|e| ApiError::bad_request(e.to_string()))
}

/// Encodes a [`DataModel`] for the wire: discrete marginals as
/// `{"discrete": {dists, current, costs}}`, independent Gaussians as
/// `{"gaussian": {means, sds, current, costs}}`. Correlated Gaussian
/// models have no wire encoding (covariance never crosses this front)
/// and are refused.
pub fn data_model_json(data: &DataModel) -> Result<Json, ApiError> {
    match data {
        DataModel::Discrete(instance) => Ok(Json::obj([(
            "discrete",
            Json::obj([
                (
                    "dists",
                    Json::Arr(
                        (0..instance.len())
                            .map(|i| {
                                let dist = instance.dist(i);
                                Json::obj([
                                    (
                                        "values",
                                        Json::Arr(
                                            dist.values().iter().map(|&v| Json::Num(v)).collect(),
                                        ),
                                    ),
                                    (
                                        "probs",
                                        Json::Arr(
                                            dist.probs().iter().map(|&p| Json::Num(p)).collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "current",
                    Json::Arr(instance.current().iter().map(|&v| Json::Num(v)).collect()),
                ),
                (
                    "costs",
                    Json::Arr(
                        instance
                            .costs()
                            .iter()
                            .map(|&c| Json::Num(c as f64))
                            .collect(),
                    ),
                ),
            ]),
        )])),
        DataModel::Gaussian(instance) => {
            if !instance.is_independent() {
                return Err(ApiError::bad_request(
                    "correlated Gaussian models have no wire encoding",
                ));
            }
            Ok(Json::obj([(
                "gaussian",
                Json::obj([
                    (
                        "means",
                        Json::Arr(
                            (0..instance.len())
                                .map(|i| Json::Num(instance.mean(i)))
                                .collect(),
                        ),
                    ),
                    (
                        "sds",
                        Json::Arr(
                            (0..instance.len())
                                .map(|i| Json::Num(instance.sd(i)))
                                .collect(),
                        ),
                    ),
                    (
                        "current",
                        Json::Arr(instance.current().iter().map(|&v| Json::Num(v)).collect()),
                    ),
                    (
                        "costs",
                        Json::Arr(
                            instance
                                .costs()
                                .iter()
                                .map(|&c| Json::Num(c as f64))
                                .collect(),
                        ),
                    ),
                ]),
            )]))
        }
    }
}

/// Parses and validates a wire [`DataModel`]. All the instance
/// invariants (parallel lengths, positive costs, valid probability
/// tables) are enforced here, so a decoded model is ready to build a
/// session from; violations map to typed 400s.
pub fn data_model_from_json(v: &Json) -> Result<DataModel, ApiError> {
    if let Some(d) = v.get("discrete") {
        let dists = d
            .get("dists")
            .and_then(Json::as_array)
            .ok_or_else(|| ApiError::bad_request("discrete data missing \"dists\" (an array)"))?
            .iter()
            .map(|dist| {
                let values = f64_array(dist.get("values"), "values")?;
                let probs = f64_array(dist.get("probs"), "probs")?;
                DiscreteDist::from_parts(&values, &probs)
                    .map_err(|e| ApiError::from(CoreError::from(e)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let current = f64_array(d.get("current"), "current")?;
        let costs = u64_array(d.get("costs"), "costs")?;
        return Instance::new(dists, current, costs)
            .map(DataModel::Discrete)
            .map_err(ApiError::from);
    }
    if let Some(g) = v.get("gaussian") {
        let means = f64_array(g.get("means"), "means")?;
        let sds = f64_array(g.get("sds"), "sds")?;
        let current = f64_array(g.get("current"), "current")?;
        let costs = u64_array(g.get("costs"), "costs")?;
        if sds.len() != means.len() {
            return Err(ApiError::from(CoreError::LengthMismatch {
                what: "sds",
                expected: means.len(),
                got: sds.len(),
            }));
        }
        return GaussianInstance::independent(means, &sds, current, costs)
            .map(DataModel::Gaussian)
            .map_err(ApiError::from);
    }
    Err(ApiError::bad_request(
        "data must be {\"discrete\": …} or {\"gaussian\": …}",
    ))
}

/// Most support points per object a stream may ask Gaussian
/// discretization for (`discretize_support`). The first dup or frag
/// read allocates that many points for every object, so an unbounded
/// value lets one create abort the server.
pub const MAX_DISCRETIZE_SUPPORT: usize = 64;

/// `POST /v1/streams`: create a stream from an uploaded dataset (and,
/// unchanged, the `adopt` body that replicates one). The
/// decoded payload is fully validated — the server only has to build a
/// session around it.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateStreamRequest {
    /// The new stream's id.
    pub id: String,
    /// Default tenant for the stream's submissions (optional).
    pub tenant: Option<String>,
    /// Reference value `θ` override (default: the original claim's
    /// value on the current data).
    pub theta: Option<f64>,
    /// Support size for Gaussian discretization under non-affine
    /// measures (optional, at most [`MAX_DISCRETIZE_SUPPORT`]).
    pub discretize_support: Option<usize>,
    /// The uncertain data.
    pub data: DataModel,
    /// The claim family under check.
    pub claims: ClaimSet,
}

impl CreateStreamRequest {
    /// The wire body. Fails only for data with no wire encoding
    /// (a correlated Gaussian model).
    pub fn to_json(&self) -> Result<Json, ApiError> {
        let mut fields = vec![("id".to_string(), Json::Str(self.id.clone()))];
        if let Some(tenant) = &self.tenant {
            fields.push(("tenant".to_string(), Json::Str(tenant.clone())));
        }
        if let Some(theta) = self.theta {
            fields.push(("theta".to_string(), Json::Num(theta)));
        }
        if let Some(k) = self.discretize_support {
            fields.push(("discretize_support".to_string(), Json::Num(k as f64)));
        }
        fields.push(("data".to_string(), data_model_json(&self.data)?));
        fields.push(("claims".to_string(), claims_json(&self.claims)));
        Ok(Json::Obj(fields))
    }

    /// Parses and validates a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let id = body
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ApiError::bad_request("missing \"id\" (the new stream's id)"))?;
        // The id is a URL path segment in every later route.
        let path_safe = |c: char| c.is_ascii_alphanumeric() || "._~-".contains(c);
        if id.is_empty() || !id.chars().all(path_safe) {
            return Err(ApiError::bad_request(
                "\"id\" must be non-empty [A-Za-z0-9._~-] (it is a URL path segment)",
            ));
        }
        let tenant = match body.get("tenant") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ApiError::bad_request("\"tenant\" must be a string"))?
                    .to_string(),
            ),
        };
        let theta = match body.get("theta") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| ApiError::bad_request("\"theta\" must be a number"))?,
            ),
        };
        let discretize_support = match body.get("discretize_support") {
            None => None,
            Some(v) => Some(
                v.as_usize()
                    .filter(|&k| k <= MAX_DISCRETIZE_SUPPORT)
                    .ok_or_else(|| {
                        ApiError::bad_request(format!(
                            "\"discretize_support\" must be an integer in 0..={MAX_DISCRETIZE_SUPPORT}"
                        ))
                    })?,
            ),
        };
        let data = data_model_from_json(
            body.get("data")
                .ok_or_else(|| ApiError::bad_request("missing \"data\""))?,
        )?;
        let claims = claims_from_json(
            body.get("claims")
                .ok_or_else(|| ApiError::bad_request("missing \"claims\""))?,
        )?;
        if let Some(&object) = claims
            .original()
            .objects()
            .iter()
            .chain(claims.perturbations().iter().flat_map(|p| {
                // Indices live in sorted sparse terms; borrow-friendly
                // iteration over each perturbation's objects.
                p.terms().iter().map(|(i, _)| i)
            }))
            .find(|&&i| i >= data.len())
        {
            return Err(ApiError::from(CoreError::BadObject {
                object,
                len: data.len(),
            }));
        }
        Ok(Self {
            id,
            tenant,
            theta,
            discretize_support,
            data,
            claims,
        })
    }

    /// The serialized body string (fallible like
    /// [`CreateStreamRequest::to_json`]).
    pub fn encode(&self) -> Result<String, ApiError> {
        Ok(self.to_json()?.to_string())
    }
}

/// The `GET /v1/streams/{id}` body (and the `201` body of a create):
/// a summary of one live stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// The stream id.
    pub id: String,
    /// The default tenant its submissions are accounted to.
    pub tenant: String,
    /// `"discrete"` or `"gaussian"`.
    pub model: String,
    /// Number of objects in the dataset.
    pub objects: usize,
    /// Total cost of cleaning everything.
    pub total_cost: u64,
    /// The original claim's reference value `θ`.
    pub theta: f64,
    /// Number of perturbations in the claim family.
    pub perturbations: usize,
}

impl StreamInfo {
    /// The wire body.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("tenant", Json::Str(self.tenant.clone())),
            ("model", Json::Str(self.model.clone())),
            ("objects", Json::Num(self.objects as f64)),
            ("total_cost", Json::Num(self.total_cost as f64)),
            ("theta", Json::Num(self.theta)),
            ("perturbations", Json::Num(self.perturbations as f64)),
        ])
    }

    /// Parses a stream summary body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let missing = |name: &str| ApiError::bad_request(format!("stream info missing {name:?}"));
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing(name))
        };
        Ok(Self {
            id: str_field("id")?,
            tenant: str_field("tenant")?,
            model: str_field("model")?,
            objects: v
                .get("objects")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("objects"))?,
            total_cost: v
                .get("total_cost")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("total_cost"))?,
            theta: v
                .get("theta")
                .and_then(Json::as_f64)
                .ok_or_else(|| missing("theta"))?,
            perturbations: v
                .get("perturbations")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("perturbations"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{
        prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError,
    };

    #[test]
    fn spec_parsing_covers_measures_goals_strategies() {
        let spec = spec_from_json(&Json::parse(r#"{"measure":"dup"}"#).unwrap()).unwrap();
        assert_eq!(spec.measure, Measure::Dup);
        assert_eq!(spec.goal, Goal::MinVar);
        assert_eq!(spec.strategy, Strategy::Auto);

        let spec = spec_from_json(
            &Json::parse(r#"{"measure":"bias","goal":{"maxpr":5.5},"strategy":"greedy"}"#).unwrap(),
        )
        .unwrap();
        assert!(matches!(spec.goal, Goal::MaxPr { tau } if tau == 5.5));
        assert_eq!(spec.strategy.key(), "greedy");

        let spec = spec_from_json(
            &Json::parse(r#"{"measure":"frag","goal":"minvar","strategy":"auto"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(spec.strategy, Strategy::Auto);

        for bad in [
            r#"{}"#,
            r#"{"measure":"nope"}"#,
            r#"{"measure":"dup","goal":"nope"}"#,
            r#"{"measure":"dup","goal":{"maxpr":"x"}}"#,
            r#"{"measure":"dup","strategy":3}"#,
        ] {
            let err = spec_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert_eq!(err.status, 400, "{bad}");
        }
    }

    #[test]
    fn budget_parsing() {
        assert_eq!(
            budget_from_json(&Json::Num(3.0), 10).unwrap(),
            Budget::absolute(3)
        );
        assert_eq!(
            budget_from_json(&Json::parse(r#"{"absolute":4}"#).unwrap(), 10).unwrap(),
            Budget::absolute(4)
        );
        assert_eq!(
            budget_from_json(&Json::parse(r#"{"fraction":0.5}"#).unwrap(), 10).unwrap(),
            Budget::absolute(5)
        );
        for bad in ["-1", "1.5", r#"{"fraction":"x"}"#, "\"x\""] {
            assert!(
                budget_from_json(&Json::parse(bad).unwrap(), 10).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn core_errors_map_to_statuses() {
        assert_eq!(
            ApiError::from(CoreError::QuotaExceeded {
                tenant: "t".into(),
                reason: "r".into()
            })
            .status,
            429
        );
        assert_eq!(
            ApiError::from(CoreError::WorkerPanicked { detail: "d".into() }).status,
            500
        );
        assert_eq!(
            ApiError::from(CoreError::UnknownStrategy { name: "n".into() }).status,
            400
        );
    }

    #[test]
    fn recommend_round_trips() {
        let req = RecommendRequest {
            stream: "cdc".into(),
            spec: ObjectiveSpec::new(Measure::Dup, Goal::MaxPr { tau: 5.5 })
                .with_strategy("greedy"),
            budget: BudgetSpec::Fraction(0.25),
        };
        let decoded = decode_body(&req.encode(), RecommendRequest::from_json).unwrap();
        assert_eq!(decoded, req);

        // Auto strategy and absolute budgets omit/append fields.
        let req = RecommendRequest {
            stream: "s".into(),
            spec: ObjectiveSpec::new(Measure::Bias, Goal::MinVar),
            budget: BudgetSpec::Absolute(4),
        };
        let body = req.encode();
        assert!(!body.contains("strategy"), "{body}");
        assert_eq!(
            decode_body(&body, RecommendRequest::from_json).unwrap(),
            req
        );
    }

    #[test]
    fn sweep_round_trips_and_validates() {
        let req = SweepRequest {
            stream: "cdc".into(),
            spec: ObjectiveSpec::new(Measure::Frag, Goal::MinVar),
            budgets: vec![BudgetSpec::Absolute(1), BudgetSpec::Fraction(0.5)],
        };
        let decoded = decode_body(&req.encode(), SweepRequest::from_json).unwrap();
        assert_eq!(decoded, req);
        for bad in [
            r#"{"stream":"s","measure":"dup","budgets":[]}"#,
            r#"{"stream":"s","measure":"dup"}"#,
            r#"{"measure":"dup","budgets":[1]}"#,
        ] {
            assert!(decode_body(bad, SweepRequest::from_json).is_err(), "{bad}");
        }
    }

    #[test]
    fn clean_round_trips() {
        let req = CleanRequest {
            objects: vec![3, 1],
            revealed: vec![0.5, -2.0],
        };
        let decoded = decode_body(&req.encode(), CleanRequest::from_json).unwrap();
        assert_eq!(decoded, req);
        let resp = CleanResponse {
            invalidated: 2,
            objects: 2,
        };
        assert_eq!(
            CleanResponse::from_json(&Json::parse(&resp.to_json().to_string()).unwrap()).unwrap(),
            resp
        );
    }

    #[test]
    fn plan_view_identity_excludes_diagnostics() {
        let body = r#"{"strategy":"greedy","goal":"minvar","objects":[2,0],"cost":3,
            "before":1.5,"after":0.25,
            "diagnostics":{"engine_evals":10,"candidates":4,"store_hits":2,"store_misses":1}}"#;
        let plan = decode_body(body, PlanView::from_json).unwrap();
        assert_eq!(plan.objects, vec![2, 0]);
        assert_eq!(plan.diagnostics.store_misses, 1);
        let identity = plan.identity_json().to_string();
        assert!(!identity.contains("diagnostics"));
        // A warm twin (different diagnostics) has identical identity bytes.
        let warm = PlanView {
            diagnostics: PlanDiagnosticsView::default(),
            ..plan.clone()
        };
        assert_eq!(identity, warm.identity_json().to_string());
    }

    fn discrete_model() -> DataModel {
        DataModel::Discrete(
            Instance::new(
                vec![
                    DiscreteDist::from_parts(&[9.0, 10.0, 11.0], &[0.25, 0.5, 0.25]).unwrap(),
                    DiscreteDist::from_parts(&[19.0, 21.0], &[0.5, 0.5]).unwrap(),
                ],
                vec![10.0, 20.0],
                vec![1, 2],
            )
            .unwrap(),
        )
    }

    fn two_object_claims() -> ClaimSet {
        ClaimSet::new(
            LinearClaim::new([(0, 1.0), (1, 1.0)], 0.0).unwrap(),
            vec![
                LinearClaim::new([(0, 1.0)], 2.5).unwrap(),
                LinearClaim::new([(1, -1.0)], 0.0).unwrap(),
            ],
            vec![3.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    /// Every wire hop of a claim set is a fixed point: decoding
    /// normalized sensibilities must not rescale them again, or each
    /// snapshot → adopt hop moves the last bits and replicas disagree
    /// on the stream's definition.
    #[test]
    fn claims_codec_is_a_bitwise_fixed_point() {
        let bits = |claims: &ClaimSet| -> Vec<u64> {
            claims.sensibilities().iter().map(|s| s.to_bits()).collect()
        };
        for m in 2..16 {
            let claims = ClaimSet::new(
                LinearClaim::new([(0, 1.0)], 0.0).unwrap(),
                (0..m)
                    .map(|k| LinearClaim::new([(k, 1.0)], 1.0).unwrap())
                    .collect(),
                (0..m)
                    .map(|k| 0.9f64.powi(k as i32) + 0.1 / (k as f64 + 3.0))
                    .collect(),
                Direction::LowerIsStronger,
            )
            .unwrap();
            let mut hop = claims.clone();
            for _ in 0..3 {
                let text = claims_json(&hop).to_string();
                hop = claims_from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(bits(&hop), bits(&claims), "m = {m}");
                assert_eq!(hop, claims, "m = {m}");
            }
        }
    }

    #[test]
    fn create_stream_round_trips_both_models() {
        let req = CreateStreamRequest {
            id: "cdc".into(),
            tenant: Some("newsroom".into()),
            theta: Some(30.0),
            discretize_support: Some(4),
            data: discrete_model(),
            claims: two_object_claims(),
        };
        let body = req.encode().unwrap();
        let decoded = decode_body(&body, CreateStreamRequest::from_json).unwrap();
        assert_eq!(decoded, req);
        // Re-encoding the decoded request is byte-stable (sensibilities
        // land normalized, term lists sorted).
        assert_eq!(decoded.encode().unwrap(), body);

        let req = CreateStreamRequest {
            id: "gauss".into(),
            tenant: None,
            theta: None,
            discretize_support: None,
            data: DataModel::Gaussian(
                GaussianInstance::independent(
                    vec![10.0, 20.0],
                    &[1.0, 0.5],
                    vec![10.5, 19.5],
                    vec![2, 3],
                )
                .unwrap(),
            ),
            claims: two_object_claims(),
        };
        let body = req.encode().unwrap();
        assert!(!body.contains("tenant"), "{body}");
        let decoded = decode_body(&body, CreateStreamRequest::from_json).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn create_stream_rejections_are_typed_400s() {
        let good = CreateStreamRequest {
            id: "s".into(),
            tenant: None,
            theta: None,
            discretize_support: None,
            data: discrete_model(),
            claims: two_object_claims(),
        };
        let Json::Obj(fields) = good.to_json().unwrap() else {
            unreachable!()
        };
        let without = |name: &str| {
            Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != name)
                    .cloned()
                    .collect::<Vec<_>>(),
            )
            .to_string()
        };
        let with_id = |id: &str| {
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| match k.as_str() {
                        "id" => (k.clone(), Json::Str(id.to_string())),
                        _ => (k.clone(), v.clone()),
                    })
                    .collect::<Vec<_>>(),
            )
            .to_string()
        };
        for (body, needle) in [
            (without("id"), "\"id\""),
            (without("data"), "\"data\""),
            (without("claims"), "\"claims\""),
            // Ids must survive as one URL path segment.
            (with_id(""), "\"id\""),
            (with_id("a/b"), "\"id\""),
            (with_id("a b"), "\"id\""),
            (with_id("a?x"), "\"id\""),
            (with_id("%2F"), "\"id\""),
        ] {
            let err = decode_body(&body, CreateStreamRequest::from_json).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{}", err.message);
        }

        // Instance invariants surface as 400s: mismatched lengths, zero
        // costs, bad probability tables, out-of-range claim objects.
        for bad in [
            r#"{"discrete":{"dists":[{"values":[1],"probs":[1]}],"current":[1,2],"costs":[1]}}"#,
            r#"{"discrete":{"dists":[{"values":[1],"probs":[1]}],"current":[1],"costs":[0]}}"#,
            r#"{"discrete":{"dists":[{"values":[1],"probs":[0.4]}],"current":[1],"costs":[1]}}"#,
            r#"{"gaussian":{"means":[1,2],"sds":[1],"current":[1,2],"costs":[1,1]}}"#,
            r#"{"nope":{}}"#,
        ] {
            let err = data_model_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert_eq!(err.status, 400, "{bad}");
        }
        let wide_claim = Json::parse(
            r#"{"id":"s","data":{"discrete":{"dists":[{"values":[1],"probs":[1]}],
                "current":[1],"costs":[1]}},
                "claims":{"original":{"terms":[[7,1]],"bias":0},
                "perturbations":[],"sensibilities":[],"direction":"higher"}}"#,
        )
        .unwrap();
        // An empty perturbation family is also invalid, but the
        // out-of-range object is checked against a 1-object dataset
        // only after the claims parse, so give it one perturbation.
        let wide_claim = Json::parse(
            &wide_claim
                .to_string()
                .replace(
                    "\"perturbations\":[]",
                    "\"perturbations\":[{\"terms\":[[0,1]]}]",
                )
                .replace("\"sensibilities\":[]", "\"sensibilities\":[1]"),
        )
        .unwrap();
        let err = CreateStreamRequest::from_json(&wide_claim).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("out of range"), "{}", err.message);

        // The discretization support is capped: one past the cap is a
        // 400 before any allocation, the cap itself decodes.
        for (k, ok) in [
            (MAX_DISCRETIZE_SUPPORT, true),
            (MAX_DISCRETIZE_SUPPORT + 1, false),
        ] {
            let req = CreateStreamRequest {
                discretize_support: Some(k),
                ..good.clone()
            };
            match decode_body(&req.encode().unwrap(), CreateStreamRequest::from_json) {
                Ok(decoded) => assert!(ok && decoded == req, "{k}"),
                Err(e) => {
                    assert!(!ok, "{k}: {}", e.message);
                    assert_eq!(e.status, 400);
                    assert!(e.message.contains("discretize_support"), "{}", e.message);
                }
            }
        }
    }

    #[test]
    fn correlated_gaussian_has_no_wire_encoding() {
        let mvn = fc_uncertain::MultivariateNormal::new(
            vec![0.0, 0.0],
            fc_uncertain::SymMatrix::from_rows(2, &[1.0, 0.5, 0.5, 1.0]).unwrap(),
        )
        .unwrap();
        let data = DataModel::Gaussian(
            GaussianInstance::with_mvn(mvn, vec![0.0, 0.0], vec![1, 1]).unwrap(),
        );
        let err = data_model_json(&data).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn stream_info_round_trips() {
        let info = StreamInfo {
            id: "cdc".into(),
            tenant: "newsroom".into(),
            model: "discrete".into(),
            objects: 5,
            total_cost: 9,
            theta: 30.5,
            perturbations: 3,
        };
        let decoded =
            StreamInfo::from_json(&Json::parse(&info.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(decoded, info);
        assert!(StreamInfo::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[allow(clippy::field_reassign_with_default)]
    fn usage(in_flight: usize, outstanding_evals: u64) -> QuotaUsage {
        // `QuotaUsage` is `#[non_exhaustive]` upstream: no literals.
        let mut u = QuotaUsage::default();
        u.in_flight = in_flight;
        u.outstanding_evals = outstanding_evals;
        u
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn stats_round_trip_and_absorb() {
        let mut a = StatsResponse::default();
        a.service.submitted = 5;
        a.service.completed = 4;
        a.service.cancelled = 1;
        a.store.hits = 7;
        a.store.rekeys = 4;
        a.store.plan_hits = 5;
        a.store.plan_misses = 6;
        a.store.entries = 2;
        a.tenants.push(("newsroom".into(), usage(1, 10)));
        let decoded =
            StatsResponse::from_json(&Json::parse(&a.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(decoded, a);

        let mut b = StatsResponse::default();
        b.service.submitted = 2;
        b.service.completed = 2;
        b.store.misses = 3;
        b.store.rekeys = 1;
        b.store.plan_hits = 2;
        b.store.plan_misses = 3;
        b.tenants.push(("newsroom".into(), usage(2, 1)));
        b.tenants.push(("api".into(), QuotaUsage::default()));
        a.absorb(&b);
        assert_eq!(a.service.submitted, 7);
        assert_eq!(a.service.completed, 6);
        assert_eq!(a.store.misses, 3);
        assert_eq!(a.store.rekeys, 5);
        assert_eq!(a.store.plan_hits, 7);
        assert_eq!(a.store.plan_misses, 9);
        assert_eq!(a.tenants.len(), 2);
        assert_eq!(a.tenants[0].1.in_flight, 3);
        assert_eq!(a.tenants[0].1.outstanding_evals, 11);
    }

    /// Draws for the create-body generator, taken in order (zeros once
    /// the draws run out).
    struct Draws(std::vec::IntoIter<u64>);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0.next().unwrap_or(0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A finite float: an awkward fixed value, a small decimal, or
        /// any finite bit pattern.
        fn float(&mut self) -> f64 {
            const AWKWARD: &[f64] = &[
                0.0,
                -0.0,
                0.1,
                1.0 / 3.0,
                -2.5,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                5e-324,
                f64::EPSILON,
                9_007_199_254_740_993.0,
            ];
            let bits = self.next();
            match bits % 3 {
                0 => AWKWARD[(bits >> 2) as usize % AWKWARD.len()],
                1 => (bits >> 2) as f64 / 1e12 - 1e6,
                _ => {
                    let n = f64::from_bits(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    if n.is_finite() {
                        n
                    } else {
                        f64::from_bits(n.to_bits() & !(0x7ff << 52))
                    }
                }
            }
        }

        /// A positive weight in (0, 1000].
        fn weight(&mut self) -> f64 {
            (self.below(1000) + 1) as f64 / 3.0
        }

        fn maybe(&mut self) -> bool {
            self.below(2) == 1
        }
    }

    /// A discrete create definition: 1–6 objects with 1–4 support
    /// values each, window-sum claims over them, and optional θ,
    /// tenant and discretization support.
    fn generated_definition(draws: &mut Draws) -> CreateStreamRequest {
        let n = draws.below(6) as usize + 1;
        let dists = (0..n)
            .map(|_| {
                let support = draws.below(4) + 1;
                let pairs: Vec<(f64, f64)> = (0..support)
                    .map(|_| (draws.float(), draws.weight()))
                    .collect();
                DiscreteDist::from_weights(pairs).expect("finite values, positive weights")
            })
            .collect();
        let current = (0..n).map(|_| draws.float()).collect();
        let costs = (0..n).map(|_| draws.below((1 << 53) - 1) + 1).collect();
        let window = |draws: &mut Draws| {
            let start = draws.below(n as u64) as usize;
            let width = draws.below((n - start) as u64) as usize + 1;
            LinearClaim::window_sum(start, width).expect("window fits")
        };
        let original = window(draws);
        let family = draws.below(4) as usize + 1;
        let perturbations = (0..family).map(|_| window(draws)).collect();
        let sensibilities = (0..family).map(|_| draws.weight()).collect();
        let direction = if draws.maybe() {
            Direction::HigherIsStronger
        } else {
            Direction::LowerIsStronger
        };
        const ID_CHARS: &[u8] = b"azAZ09._~-";
        const TENANT_PIECES: &[&str] = &["a", "newsroom", "\"", "\\", "\n", "\u{1}", "é→𝄞", " "];
        let id_len = draws.below(8) + 1;
        CreateStreamRequest {
            id: (0..id_len)
                .map(|_| ID_CHARS[draws.below(ID_CHARS.len() as u64) as usize] as char)
                .collect(),
            tenant: draws.maybe().then(|| {
                (0..draws.below(4))
                    .map(|_| TENANT_PIECES[draws.below(TENANT_PIECES.len() as u64) as usize])
                    .collect()
            }),
            theta: draws.maybe().then(|| draws.float()),
            discretize_support: draws
                .maybe()
                .then(|| draws.below(MAX_DISCRETIZE_SUPPORT as u64 + 1) as usize),
            data: DataModel::Discrete(
                Instance::new(dists, current, costs).expect("valid instance"),
            ),
            claims: ClaimSet::new(original, perturbations, sensibilities, direction)
                .expect("positive sensibilities"),
        }
    }

    /// How many [`replacement`]s the decoder fuzz draws from.
    const REPLACEMENTS: usize = 15;

    /// A value the decoder fuzz swaps into a body node: the wrong type,
    /// an out-of-range number, an unroutable id, or (`None`) a dropped
    /// field.
    fn replacement(k: usize) -> Option<Json> {
        Some(match k {
            0 => Json::Null,
            1 => Json::Bool(true),
            2 => Json::Num(-1.0),
            3 => Json::Num(0.5),
            4 => Json::Num(1e308),
            5 => Json::Num((MAX_DISCRETIZE_SUPPORT + 1) as f64),
            6 => Json::Num(9_007_199_254_740_992.0),
            7 => Json::Num(1e13),
            8 => Json::Str("a/b".into()),
            9 => Json::Str(String::new()),
            10 => Json::Arr(Vec::new()),
            11 => Json::Arr(vec![Json::Num(0.0)]),
            12 => Json::Arr(vec![Json::Arr(vec![Json::Num(9.0), Json::Num(1.0)])]),
            13 => Json::Obj(Vec::new()),
            _ => return None,
        })
    }

    /// Replaces the `target`-th node of `value` in preorder with `with`;
    /// whether a node was replaced.
    fn replace_node(value: &mut Json, target: &mut usize, with: &Json) -> bool {
        if *target == 0 {
            *value = with.clone();
            return true;
        }
        *target -= 1;
        match value {
            Json::Arr(items) => items.iter_mut().any(|m| replace_node(m, target, with)),
            Json::Obj(fields) => fields
                .iter_mut()
                .any(|(_, m)| replace_node(m, target, with)),
            _ => false,
        }
    }

    /// Removes the `target`-th object field of `value`, counting the
    /// fields of each object before descending; whether one was removed.
    fn drop_field(value: &mut Json, target: &mut usize) -> bool {
        match value {
            Json::Obj(fields) if *target < fields.len() => {
                fields.remove(*target);
                true
            }
            Json::Obj(fields) => {
                *target -= fields.len();
                fields.iter_mut().any(|(_, m)| drop_field(m, target))
            }
            Json::Arr(items) => items.iter_mut().any(|m| drop_field(m, target)),
            _ => false,
        }
    }

    /// Pieces the decoder fuzz splices into the text of a create body:
    /// JSON punctuation and values of the wrong type or out of range.
    const CREATE_PIECES: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "0", "-1", "0.5", "65", "1e999", "null", "true", "[]",
        "{}", "[[0,1]]", "\"a/b\"",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text never panics the create (and adopt) decoder:
        /// a valid discrete or Gaussian body with random nodes replaced
        /// by values of the wrong type or out of range, fields dropped,
        /// and then random pieces inserted, spans cut out, or spans
        /// replaced in its text either decodes or is a typed 4xx.
        #[test]
        fn arbitrary_text_never_panics_the_create_decoder(
            ops in prop::collection::vec(0u64..u64::MAX, 96),
            gaussian in 0u8..2,
            swaps in prop::collection::vec((0usize..200, 0usize..REPLACEMENTS), 1..6),
            edits in prop::collection::vec(
                (0usize..usize::MAX, 0u8..3, 0usize..CREATE_PIECES.len()),
                0..3,
            ),
        ) {
            let mut draws = Draws(ops.into_iter());
            let mut definition = generated_definition(&mut draws);
            if gaussian == 1 {
                let n = definition.data.len();
                let means = (0..n).map(|_| draws.float()).collect();
                let sds: Vec<f64> = (0..n).map(|_| draws.weight()).collect();
                let current = (0..n).map(|_| draws.float()).collect();
                definition.data = DataModel::Gaussian(
                    GaussianInstance::independent(means, &sds, current, vec![1; n])
                        .map_err(|e| TestCaseError::fail(e.to_string()))?,
                );
            }
            let mut body = definition.to_json().map_err(|e| TestCaseError::fail(e.message))?;
            for (node, with) in swaps {
                match replacement(with) {
                    Some(value) => replace_node(&mut body, &mut { node }, &value),
                    None => drop_field(&mut body, &mut { node }),
                };
            }
            let mut text = body.to_string();
            for (at, kind, piece) in edits {
                let mut at = at % (text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let mut end = (at + piece % 8 + 1).min(text.len());
                while !text.is_char_boundary(end) {
                    end += 1;
                }
                match kind {
                    0 => text.insert_str(at, CREATE_PIECES[piece]),
                    1 => text.replace_range(at..end, ""),
                    _ => text.replace_range(at..end, CREATE_PIECES[piece]),
                }
            }
            if let Ok(json) = Json::parse(&text) {
                if let Err(e) = CreateStreamRequest::from_json(&json) {
                    prop_assert!((400..500).contains(&e.status), "{}: {text}", e.status);
                }
            }
        }

        /// Generated discrete definitions (random supports,
        /// probabilities, costs and current values, window-sum claims,
        /// optional θ, tenant and support) round-trip bit for bit:
        /// decoding the encoding gives the definition back, and it
        /// re-encodes to the same text.
        #[test]
        fn generated_definitions_round_trip_bit_for_bit(
            ops in prop::collection::vec(0u64..u64::MAX, 96),
        ) {
            let definition = generated_definition(&mut Draws(ops.into_iter()));
            let text = definition.encode().map_err(|e| TestCaseError::fail(e.message))?;
            let json = Json::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let back = CreateStreamRequest::from_json(&json)
                .map_err(|e| TestCaseError::fail(format!("{}: {text}", e.message)))?;
            prop_assert_eq!(&back, &definition);
            prop_assert_eq!(back.encode().map_err(|e| TestCaseError::fail(e.message))?, text);
        }

        /// Independent Gaussian definitions with `sds` drawn over a
        /// wide log range (1e-200 to 1e200, each independent of the
        /// others): one that constructs round-trips bit for bit and
        /// re-encodes to the same text; one that construction refuses
        /// decodes from the wire to a typed 4xx.
        #[test]
        fn generated_gaussian_definitions_round_trip_or_are_refused(
            ops in prop::collection::vec(0u64..u64::MAX, 128),
        ) {
            let mut draws = Draws(ops.into_iter());
            let mut definition = generated_definition(&mut draws);
            let n = definition.data.len();
            let means: Vec<f64> = (0..n).map(|_| draws.float()).collect();
            let sds: Vec<f64> = (0..n)
                .map(|_| draws.weight() * 10f64.powi(draws.below(401) as i32 - 200))
                .collect();
            let current: Vec<f64> = (0..n).map(|_| draws.float()).collect();
            let costs: Vec<u64> = (0..n).map(|_| draws.below(1000) + 1).collect();
            match GaussianInstance::independent(means.clone(), &sds, current.clone(), costs.clone()) {
                Ok(instance) => {
                    definition.data = DataModel::Gaussian(instance);
                    let text = definition.encode().map_err(|e| TestCaseError::fail(e.message))?;
                    let json = Json::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    let back = CreateStreamRequest::from_json(&json)
                        .map_err(|e| TestCaseError::fail(format!("{}: {text}", e.message)))?;
                    prop_assert_eq!(&back, &definition);
                    prop_assert_eq!(
                        back.encode().map_err(|e| TestCaseError::fail(e.message))?,
                        text
                    );
                }
                Err(_) => {
                    // The body a client would send for the refused model.
                    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
                    let data = Json::obj([(
                        "gaussian",
                        Json::obj([
                            ("means", nums(&means)),
                            ("sds", nums(&sds)),
                            ("current", nums(&current)),
                            ("costs", Json::Arr(costs.iter().map(|&c| Json::Num(c as f64)).collect())),
                        ]),
                    )]);
                    let mut body = definition.to_json().map_err(|e| TestCaseError::fail(e.message))?;
                    if let Json::Obj(fields) = &mut body {
                        for (name, value) in fields.iter_mut() {
                            if name == "data" {
                                *value = data.clone();
                            }
                        }
                    }
                    let text = body.to_string();
                    let json = Json::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    match CreateStreamRequest::from_json(&json) {
                        Ok(_) => prop_assert!(false, "a refused model decoded: {text}"),
                        Err(e) => prop_assert!((400..500).contains(&e.status), "{}: {text}", e.status),
                    }
                }
            }
        }
    }
}
