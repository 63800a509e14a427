//! The long-lived serving front: [`PlannerService`].
//!
//! The paper frames cleaning-selection as an *interactive loop* — a
//! fact-checker streams claims against a dataset whose values keep
//! getting cleaned — but `solve_batch`/`sweep` are one-shot: the caller
//! blocks until the whole batch returns. This module adds the
//! request/response front the ROADMAP calls for, with no async runtime
//! (none is available offline): a [`PlannerService`] owns an
//! `Arc<SolverRegistry>`, a [`CacheStore`], and a [`WorkerPool`], and
//! callers hand it work via [`PlannerService::submit_sweep`], getting
//! back a [`SweepHandle`] — a hand-rolled future over the request's
//! budget points. Every query is indexed by budget, so a single
//! recommend is a sweep with one point: [`PlannerService::submit`]
//! returns a [`RequestHandle`], a thin view over a one-point
//! [`SweepHandle`] whose [`RequestHandle::wait`] yields the one
//! [`Plan`]. A handle yields each point the moment it completes
//! ([`SweepHandle::wait_next_point`], ascending budget order) while
//! later points are still solving, or all of them at once
//! ([`SweepHandle::wait`]).
//!
//! ## Admission control and fair scheduling
//!
//! Every request is costed by [`Problem::estimated_engine_evals`]
//! (times the number of budget points) and routed to a [`Lane`]:
//!
//! * **Inline** — below [`ServiceOptions::inline_threshold`] the
//!   request runs on its caller's thread; queueing a pool job would
//!   cost more than the solve (the same admission rule as the batch
//!   executor). `submit` solves the first budget point, and each later
//!   point is solved on the same resuming chain when the handle is
//!   waited on, so a streamed sweep can send its first point before it
//!   solves the second, and a consumer that goes away leaves the rest
//!   unsolved. Points the plan memo holds are replayed as soon as the
//!   chain reaches them; [`SweepHandle::try_next_point`] never solves.
//! * **Interactive** — below
//!   [`ServiceOptions::interactive_threshold`]: the latency-sensitive
//!   lane.
//! * **Bulk** — everything else (big sweeps, audits).
//!
//! Pool workers always take queued interactive work before queued bulk
//! work, so a claim submitted behind a queue of big sweeps overtakes
//! them. A queued sweep runs as at most `pool.threads()` chain tasks,
//! each solving its share of the budget points in order.
//!
//! ## Determinism
//!
//! Service plans are byte-identical to their synchronous counterparts
//! ([`SolverRegistry::solve`]/[`SolverRegistry::sweep`]): solvers are
//! pure functions of (problem, budget, engine tables), and the tables
//! are shared through the same fingerprint-keyed [`CacheStore`]. The
//! only fields that may differ are the store-observability counters in
//! [`PlanDiagnostics`](super::PlanDiagnostics), which
//! [`Plan::divergence`] deliberately ignores.
//!
//! The same determinism makes finished plans reusable: a point whose
//! (store key, strategy name, goal, budget) was already solved without
//! error is replayed from the [`CacheStore`]'s plan memo instead of
//! solved again (see the [cache module docs](super::cache)). A replayed
//! plan is the stored plan byte for byte, `engine_evals` and
//! `candidates` included, except that it reports one warm store lookup
//! (`store_hits: 1, store_misses: 0`). Errors and contained panics are
//! never memoized. Requests without a key memoize into their private
//! store, so only repeated budgets within one sweep replay.
//!
//! Panics inside a request are contained: the worker survives and the
//! point resolves to [`CoreError::WorkerPanicked`].
//!
//! ## Request lifecycle: cancellation
//!
//! Every in-flight request is cancellable: call
//! [`SweepHandle::cancel`], or simply drop the handle — an abandoned
//! request is cancelled automatically, so work nobody will observe is
//! never solved. Cancellation is cooperative and takes effect at
//! budget-point granularity: a queued task is dropped *at dispatch* (it
//! never reaches a solver, and performs zero engine builds), and a
//! running sweep stops after the point currently being solved. Once
//! cancelled, a handle never yields another point.
//!
//! Waiting is typed by [`PointOutcome`]: the point waits distinguish
//! `Point` / `Done` / `TimedOut` / `Cancelled`, and a timeout consumes
//! nothing, so a caller that times out once can retry and still
//! retrieve the plan. [`SweepHandle::wait_or_cancel`] couples a wait to
//! a liveness probe — the network front's disconnect-driven cancel
//! hook: when the probe reports the client gone, the request is
//! cancelled instead of solved for nobody.
//!
//! ## Per-tenant quotas
//!
//! Requests carry a [`TenantId`] (default: `"default"`), and the
//! service enforces a [`QuotaPolicy`] per tenant — a cap on concurrent
//! in-flight requests and on the summed admission-control estimates
//! ([`SweepHandle::estimate`]) outstanding at once. Quota is acquired
//! at submit ([`PlannerService::submit_sweep`] returns a typed
//! [`CoreError::QuotaExceeded`] *before* anything is queued) and
//! released exactly once, when the request settles — completed or
//! cancelled — so a tenant that saturates its quota is throttled at the
//! door and can never crowd another tenant's interactive lane.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use super::cache::{CacheKey, CacheStore, PlanKey};
use super::exec::{CancelToken, ExecOptions};
use super::pool::{TwoLaneQueue, WorkerPool};
use super::{EngineCache, ParkedCache, Plan, Problem, Solver, SolverRegistry};
use crate::budget::Budget;
use crate::{CoreError, Result};

/// Which path a request took through the service (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Solved on the caller's thread (admission control): the first
    /// point at `submit`, the others as the handle is waited on.
    Inline,
    /// Queued on the latency-sensitive lane.
    Interactive,
    /// Queued on the throughput lane.
    Bulk,
}

/// The tenant a request is accounted to. Cheap to clone (shared
/// string); two ids with the same name are the same tenant. The
/// default tenant is `"default"` — single-tenant deployments never
/// need to mention it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant id with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        Self::new("default")
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        Self::new(name)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-tenant admission limits, enforced at submit time (see the
/// [module docs](self)). The default is [`QuotaPolicy::unlimited`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct QuotaPolicy {
    /// Maximum requests (a sweep counts once) in flight — queued or
    /// running — at any moment.
    pub max_in_flight: usize,
    /// Maximum summed admission-control estimates
    /// ([`Problem::estimated_engine_evals`], × budget points for
    /// sweeps) outstanding at any moment. Caps the *volume* of engine
    /// work a tenant can have queued, not just the request count.
    pub max_outstanding_evals: u64,
}

impl QuotaPolicy {
    /// A policy with both limits.
    pub fn new(max_in_flight: usize, max_outstanding_evals: u64) -> Self {
        Self {
            max_in_flight,
            max_outstanding_evals,
        }
    }

    /// No limits (the default for tenants without an explicit policy).
    pub fn unlimited() -> Self {
        Self::new(usize::MAX, u64::MAX)
    }

    /// Caps concurrent in-flight requests.
    pub fn with_max_in_flight(mut self, requests: usize) -> Self {
        self.max_in_flight = requests;
        self
    }

    /// Caps outstanding estimated engine evaluations.
    pub fn with_max_outstanding_evals(mut self, evals: u64) -> Self {
        self.max_outstanding_evals = evals;
        self
    }
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A tenant's live accounting snapshot ([`PlannerService::quota_usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct QuotaUsage {
    /// Requests currently in flight (queued or running).
    pub in_flight: usize,
    /// Summed admission-control estimates currently outstanding.
    pub outstanding_evals: u64,
}

/// Per-tenant quota ledger entry.
struct TenantState {
    policy: QuotaPolicy,
    usage: QuotaUsage,
}

/// Configuration for a [`PlannerService`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceOptions {
    /// Requests whose total estimated engine evaluations fall below
    /// this run on their caller's thread, the inline lane (default:
    /// [`ExecOptions::DEFAULT_INLINE_THRESHOLD`]).
    pub inline_threshold: u64,
    /// Queued requests below this estimate ride the interactive lane;
    /// the rest ride bulk (default:
    /// [`ServiceOptions::DEFAULT_INTERACTIVE_THRESHOLD`]).
    pub interactive_threshold: u64,
    /// The worker pool requests run on (`None` — the default — uses
    /// [`WorkerPool::global`]).
    pub pool: Option<Arc<WorkerPool>>,
}

impl ServiceOptions {
    /// Default [`ServiceOptions::interactive_threshold`]: requests
    /// estimated under ~1M engine evaluations are treated as
    /// latency-sensitive.
    pub const DEFAULT_INTERACTIVE_THRESHOLD: u64 = 1 << 20;

    /// Capacity of the [`CacheStore`] that [`PlannerService::new`]
    /// creates (a service that needs another size takes one through
    /// [`PlannerService::with_store`]).
    pub const DEFAULT_STORE_CAPACITY: usize = 256;

    /// The default configuration.
    pub fn new() -> Self {
        Self {
            inline_threshold: ExecOptions::DEFAULT_INLINE_THRESHOLD,
            interactive_threshold: Self::DEFAULT_INTERACTIVE_THRESHOLD,
            pool: None,
        }
    }

    /// Sets the inline-admission threshold.
    pub fn with_inline_threshold(mut self, evals: u64) -> Self {
        self.inline_threshold = evals;
        self
    }

    /// Sets the interactive/bulk lane boundary.
    pub fn with_interactive_threshold(mut self, evals: u64) -> Self {
        self.interactive_threshold = evals;
        self
    }

    /// Runs requests on a dedicated pool instead of the global one.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }
}

impl Default for ServiceOptions {
    /// Hand-written so `default()` agrees with `new()` on the
    /// thresholds (a derived Default would zero them and disable
    /// admission control entirely).
    fn default() -> Self {
        Self::new()
    }
}

/// One solve request: `strategy` on `problem` under `budget`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SolveRequest {
    /// Registry strategy name (`"auto"`, `"greedy"`, …).
    pub strategy: String,
    /// The lowered problem, shared so queued tasks can outlive the
    /// submitting stack frame.
    pub problem: Arc<Problem>,
    /// The cleaning budget.
    pub budget: Budget,
    /// Persistence identity for store lookups (see
    /// [`cache`](super::cache)'s fingerprint contract); `None` opts the
    /// request out of the persistent store.
    pub key: Option<CacheKey>,
    /// The tenant this request is quota-accounted to.
    pub tenant: TenantId,
}

impl SolveRequest {
    /// A request with no store key, accounted to the default tenant.
    pub fn new(strategy: impl Into<String>, problem: Arc<Problem>, budget: Budget) -> Self {
        Self {
            strategy: strategy.into(),
            problem,
            budget,
            key: None,
            tenant: TenantId::default(),
        }
    }

    /// Attaches the persistence identity.
    pub fn with_key(mut self, key: CacheKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Accounts the request to `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// One budget-sweep request: `strategy` on `problem` across `budgets`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepRequest {
    /// Registry strategy name.
    pub strategy: String,
    /// The lowered problem.
    pub problem: Arc<Problem>,
    /// The budget grid; plans come back in this order.
    pub budgets: Vec<Budget>,
    /// Persistence identity (as in [`SolveRequest::key`]). Without a
    /// key the sweep still shares its prefix work internally, through
    /// a store private to the request.
    pub key: Option<CacheKey>,
    /// The tenant this request is quota-accounted to.
    pub tenant: TenantId,
}

impl SweepRequest {
    /// A request with no store key, accounted to the default tenant.
    pub fn new(strategy: impl Into<String>, problem: Arc<Problem>, budgets: Vec<Budget>) -> Self {
        Self {
            strategy: strategy.into(),
            problem,
            budgets,
            key: None,
            tenant: TenantId::default(),
        }
    }

    /// Attaches the persistence identity.
    pub fn with_key(mut self, key: CacheKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Accounts the request to `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// Counter snapshot from [`PlannerService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests accepted (a sweep counts once).
    pub submitted: u64,
    /// Requests whose handle has resolved.
    pub completed: u64,
    /// Requests solved on their caller's thread (the inline lane).
    pub inline: u64,
    /// Requests queued on the interactive lane.
    pub interactive: u64,
    /// Requests queued on the bulk lane.
    pub bulk: u64,
    /// Requests that panicked (resolved to
    /// [`CoreError::WorkerPanicked`]).
    pub panics: u64,
    /// Requests cancelled before completing (explicitly or by handle
    /// drop). A request counts in exactly one of
    /// [`ServiceStats::completed`] / `cancelled`, so
    /// `completed + cancelled == submitted` once everything in flight
    /// has resolved.
    pub cancelled: u64,
    /// Submits rejected at the door with
    /// [`CoreError::QuotaExceeded`] (never counted in
    /// [`ServiceStats::submitted`]).
    pub quota_rejected: u64,
    /// Tasks waiting on the interactive lane right now.
    pub queued_interactive: usize,
    /// Tasks waiting on the bulk lane right now.
    pub queued_bulk: usize,
    /// Requests currently unresolved (submitted − completed −
    /// cancelled): queued *or* running. The saturation gauge a load
    /// harness records alongside the queue depths.
    pub in_flight: u64,
    /// Interactive-lane tasks executing on a worker right now (a
    /// queued sweep counts once per running chain task).
    pub running_interactive: usize,
    /// Bulk-lane tasks executing on a worker right now.
    pub running_bulk: usize,
}

/// The outcome of waiting for a handle's next budget point — the
/// service's one wait outcome. `TimedOut` consumes nothing: retrying
/// (or blocking on [`SweepHandle::wait`]) still retrieves the point.
#[derive(Debug)]
pub enum PointOutcome {
    /// The next budget point (ascending budget order) resolved with
    /// this result; this wait took it.
    Point(Result<Plan>),
    /// Every budget point has already been taken.
    Done,
    /// The next point is still solving (nothing was consumed).
    TimedOut,
    /// The request was cancelled; remaining points will never resolve.
    Cancelled,
}

impl PointOutcome {
    /// The per-point result, if this outcome carried one.
    pub fn point(self) -> Option<Result<Plan>> {
        match self {
            Self::Point(r) => Some(r),
            _ => None,
        }
    }

    /// Whether all points have been taken.
    pub fn is_done(&self) -> bool {
        matches!(self, Self::Done)
    }

    /// Whether the wait timed out (next point still solving).
    pub fn is_timed_out(&self) -> bool {
        matches!(self, Self::TimedOut)
    }

    /// Whether the request was cancelled.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Self::Cancelled)
    }
}

/// Locks a state-only mutex, recovering from poisoning. The mutexes
/// this guards (a request's point slots, the tenant ledger) protect
/// plain data whose invariants hold between statements — no critical
/// section leaves them mid-update — so a panic on one thread says
/// nothing about the data's integrity. Propagating the poison instead
/// would cascade one contained [`CoreError::WorkerPanicked`] request
/// into panics in every sibling waiter *and into quota release*,
/// leaking the tenant's ledger entries forever.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a wait is allowed to block on a pending point.
#[derive(Debug, Clone, Copy)]
enum WaitLimit {
    /// Report [`PointOutcome::TimedOut`] immediately.
    Poll,
    /// Block until the deadline, then report `TimedOut`.
    Until(Instant),
    /// Block until the point resolves (or a timeout whose deadline
    /// overflows [`Instant`]).
    Forever,
}

impl WaitLimit {
    /// A deadline `timeout` from now. `Instant + Duration` panics on
    /// overflow, so a timeout too large to represent (e.g.
    /// [`Duration::MAX`]) waits forever instead — it can never elapse.
    fn after(timeout: Duration) -> Self {
        Instant::now()
            .checked_add(timeout)
            .map_or(Self::Forever, Self::Until)
    }
}

/// A hand-rolled future for an in-flight request: one result slot per
/// budget point. [`SweepHandle::try_next_point`] /
/// [`SweepHandle::wait_next_point`] take each [`Plan`] as its point
/// completes, in ascending budget order, while later points are still
/// solving; [`SweepHandle::wait`] takes every remaining point at once.
/// Plans are moved out of their slots, never cloned, and each is
/// byte-identical ([`Plan::divergence`]) to its synchronous
/// counterpart — streaming changes delivery, never bytes.
///
/// **Dropping the handle cancels the request** (see the [module
/// docs](self)): a request nobody can observe any more is never worth
/// solving. Call [`SweepHandle::cancel`] to abandon it explicitly while
/// keeping the handle around.
#[must_use = "dropping a SweepHandle cancels the request"]
pub struct SweepHandle {
    state: Arc<SweepState>,
    /// Points already taken, from the front of the grid.
    next: usize,
    /// An inline sweep's chain while it has points left to resolve.
    inline: Option<InlineChain>,
}

/// An inline sweep's resuming chain between two of its consumer's
/// waits: the next point to resolve, whether the plan memo already
/// missed it, and the engine cache the points before it left behind.
#[derive(Default)]
struct InlineChain {
    next: usize,
    missed: bool,
    cache: Option<ParkedCache>,
}

impl SweepHandle {
    /// Which lane the request was routed to ([`Lane::Inline`] handles
    /// have their first point ready at submit and solve the rest as
    /// they are waited on).
    pub fn lane(&self) -> Lane {
        self.state.lane
    }

    /// The admission-control estimate (points × per-point evals) the
    /// routing and quota accounting were keyed on.
    pub fn estimate(&self) -> u64 {
        self.state.estimate
    }

    /// The tenant the request is accounted to.
    pub fn tenant(&self) -> &TenantId {
        &self.state.tenant
    }

    /// Number of budget points in the grid.
    pub fn points(&self) -> usize {
        self.state.budgets.len()
    }

    /// Number of points already taken.
    pub fn points_yielded(&self) -> usize {
        self.next
    }

    /// Whether the request has settled: every point resolved, or it was
    /// cancelled. Individual points may be ready much earlier.
    pub fn is_ready(&self) -> bool {
        self.state.lock().settled
    }

    /// Whether the request was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.state.cancel.is_cancelled()
    }

    /// Cancels the request: queued points are dropped at dispatch, a
    /// running chain stops after its current point, and the tenant's
    /// quota is released immediately. Waiters wake with
    /// [`PointOutcome::Cancelled`]. Returns `true` when this call
    /// cancelled the request, `false` when every point had already
    /// resolved (untaken points stay retrievable) or it was already
    /// cancelled. Idempotent.
    pub fn cancel(&self) -> bool {
        self.state.cancel()
    }

    /// Takes the next point if it already resolved; otherwise reports —
    /// without consuming anything — that it is still solving, that
    /// every point was taken, or that the request was cancelled. It
    /// never solves: an inline sweep's later points are solved by the
    /// waits, and replayed as soon as its chain reaches them when the
    /// plan memo holds them, which is when a poll can take them.
    pub fn try_next_point(&mut self) -> PointOutcome {
        self.next_point(WaitLimit::Poll)
    }

    /// Blocks until the next point resolves and takes it; returns
    /// [`PointOutcome::Done`] once every point was taken and
    /// [`PointOutcome::Cancelled`] if the request was cancelled.
    pub fn wait_next_point(&mut self) -> PointOutcome {
        self.next_point(WaitLimit::Forever)
    }

    /// Like [`SweepHandle::wait_next_point`], waiting at most
    /// `timeout`. [`PointOutcome::TimedOut`] does not consume the
    /// point. A `timeout` too large to represent as a deadline (e.g.
    /// [`Duration::MAX`]) waits forever — it can never elapse. An inline
    /// sweep solves the point on this thread, whatever the timeout.
    pub fn wait_next_point_timeout(&mut self, timeout: Duration) -> PointOutcome {
        self.next_point(WaitLimit::after(timeout))
    }

    /// Like [`SweepHandle::wait_next_point`], but re-checks `alive()`
    /// every `poll` interval and cancels the request the moment it
    /// returns `false`, so a client that hangs up stops the points
    /// still solving. An inline sweep solves the point on this thread,
    /// so `alive()` runs once before that solve starts.
    pub fn wait_next_point_or_cancel(
        &mut self,
        poll: Duration,
        mut alive: impl FnMut() -> bool,
    ) -> PointOutcome {
        if self.inline.is_some() {
            match self.try_next_point() {
                PointOutcome::TimedOut if !alive() => {
                    self.cancel();
                    return PointOutcome::Cancelled;
                }
                PointOutcome::TimedOut => {}
                outcome => return outcome,
            }
        }
        loop {
            match self.wait_next_point_timeout(poll) {
                PointOutcome::TimedOut => {
                    if !alive() {
                        self.cancel();
                        return PointOutcome::Cancelled;
                    }
                }
                outcome => return outcome,
            }
        }
    }

    fn next_point(&mut self, limit: WaitLimit) -> PointOutcome {
        if self.next == self.points() {
            return PointOutcome::Done;
        }
        if !matches!(limit, WaitLimit::Poll) {
            self.advance_inline(self.next);
        }
        let outcome = self.state.wait_point(self.next, limit);
        if matches!(outcome, PointOutcome::Point(_)) {
            self.next += 1;
        }
        outcome
    }

    /// Moves an inline sweep's chain forward on this thread: it solves
    /// the points through `through`, then resolves each following point
    /// that needs no solve (the plan memo holds it, or the lookup
    /// failed) and stops at the first that does, or at a cancel. The
    /// memo is asked about each point once.
    fn advance_inline(&mut self, through: usize) {
        let Some(chain) = &mut self.inline else {
            return;
        };
        let state = &*self.state;
        let mut cache = chain.cache.take().map(EngineCache::unpark);
        while chain.next < state.budgets.len() && !state.cancel.is_cancelled() {
            let index = chain.next;
            let free = if chain.missed {
                None
            } else {
                state.resolved_without_solve(index)
            };
            let result = match free {
                Some(result) => result,
                None if index <= through => state.solve(index, &mut cache),
                None => {
                    chain.missed = true;
                    break;
                }
            };
            state.finish_point(index, Some(result));
            chain.next += 1;
            chain.missed = false;
        }
        if chain.next == state.budgets.len() || state.cancel.is_cancelled() {
            self.inline = None;
        } else {
            chain.cache = cache.map(EngineCache::park);
        }
    }

    /// [`SweepHandle::wait`] with a liveness probe: re-checks `alive()`
    /// every `poll` interval and cancels the request the moment it
    /// returns `false` — the network front's disconnect-driven cancel
    /// hook, so a client that hangs up mid-solve stops burning worker
    /// time. An inline sweep's remaining points are solved here, on
    /// this thread, without probing: together they cost less than the
    /// queue hop the inline lane saves.
    pub fn wait_or_cancel(
        mut self,
        poll: Duration,
        mut alive: impl FnMut() -> bool,
    ) -> Result<Vec<Plan>> {
        self.advance_inline(usize::MAX);
        let all_resolved = |points: &Points| points.resolved == points.slots.len();
        let mut points = loop {
            // Only settling can satisfy this wait, so no point wakes it.
            match self
                .state
                .wait_until(usize::MAX, WaitLimit::after(poll), all_resolved)
            {
                Ok(points) => break points,
                Err(PointOutcome::TimedOut) if alive() => {}
                Err(PointOutcome::TimedOut) => {
                    self.cancel();
                    return Err(CoreError::Cancelled);
                }
                Err(_) => return Err(CoreError::Cancelled),
            }
        };
        let taken = self.next;
        self.next = points.slots.len();
        points.slots[taken..]
            .iter_mut()
            .map(|slot| slot.take().expect("a settled request resolved every point"))
            .collect()
    }

    /// Blocks until every point not yet taken resolves and returns
    /// their plans in budget order — or the first error by index, as
    /// the sequential sweep reports it. Cancellation surfaces as
    /// [`CoreError::Cancelled`]. Points already taken by the point
    /// waits are not returned again.
    pub fn wait(self) -> Result<Vec<Plan>> {
        // A poll too large for a deadline waits forever, so the probe
        // never runs.
        self.wait_or_cancel(Duration::MAX, || true)
    }
}

impl Drop for SweepHandle {
    /// Cancellation-on-drop; a no-op once every point resolved.
    fn drop(&mut self) {
        self.cancel();
    }
}

impl std::fmt::Debug for SweepHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepHandle")
            .field("lane", &self.lane())
            .field("estimate", &self.estimate())
            .field("tenant", self.tenant())
            .field("points", &self.points())
            .field("yielded", &self.next)
            .field("ready", &self.is_ready())
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// What [`PlannerService::submit`] returns: a thin view over a
/// one-point [`SweepHandle`] — it derefs to it for the lane,
/// cancellation and the point waits — whose [`RequestHandle::wait`]
/// yields the one [`Plan`]. Dropping it cancels the request.
#[must_use = "dropping a RequestHandle cancels the request"]
#[derive(Debug)]
pub struct RequestHandle(SweepHandle);

impl RequestHandle {
    /// Blocks until the plan resolves and returns it; cancellation
    /// surfaces as [`CoreError::Cancelled`].
    ///
    /// # Panics
    /// If a point wait already took the plan.
    pub fn wait(self) -> Result<Plan> {
        let plan = self.0.wait()?.pop();
        Ok(plan.expect("the plan was already taken by a point wait"))
    }
}

impl Deref for RequestHandle {
    type Target = SweepHandle;

    fn deref(&self) -> &SweepHandle {
        &self.0
    }
}

impl DerefMut for RequestHandle {
    fn deref_mut(&mut self) -> &mut SweepHandle {
        &mut self.0
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    inline: AtomicU64,
    interactive: AtomicU64,
    bulk: AtomicU64,
    panics: AtomicU64,
    cancelled: AtomicU64,
    quota_rejected: AtomicU64,
    /// Lane-occupancy gauges: tasks executing on a worker right now.
    running_interactive: AtomicUsize,
    running_bulk: AtomicUsize,
}

impl Counters {
    fn running_gauge(&self, lane: Lane) -> &AtomicUsize {
        match lane {
            Lane::Interactive => &self.running_interactive,
            // Inline work never reaches a worker; charging it to the
            // bulk gauge would misreport occupancy, and no caller
            // passes Inline here.
            Lane::Bulk | Lane::Inline => &self.running_bulk,
        }
    }
}

/// RAII occupancy marker: increments a lane's running gauge for the
/// lifetime of one executing task, decrementing even when the solver
/// panics (the panic is contained by [`SweepState::run_chain`], but the
/// guard's `Drop` makes the gauge robust to any unwind path).
struct RunningGuard<'c>(&'c AtomicUsize);

impl<'c> RunningGuard<'c> {
    fn enter(counters: &'c Counters, lane: Lane) -> Self {
        let gauge = counters.running_gauge(lane);
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

struct ServiceInner {
    registry: Arc<SolverRegistry>,
    store: Arc<CacheStore>,
    pool: Arc<WorkerPool>,
    queue: Arc<TwoLaneQueue>,
    inline_threshold: u64,
    interactive_threshold: u64,
    stats: Counters,
    /// Per-tenant quota ledger. Tenants without an explicit
    /// [`QuotaPolicy`] run unlimited (but are still metered).
    tenants: Mutex<HashMap<TenantId, TenantState>>,
}

impl ServiceInner {
    fn lane_for(&self, estimate: u64) -> Lane {
        if estimate < self.inline_threshold {
            Lane::Inline
        } else if estimate < self.interactive_threshold {
            Lane::Interactive
        } else {
            Lane::Bulk
        }
    }

    /// Reserves quota for one request of `estimate` evals, or rejects
    /// with a typed [`CoreError::QuotaExceeded`] (nothing is queued on
    /// rejection).
    fn acquire_quota(&self, tenant: &TenantId, estimate: u64) -> Result<()> {
        let mut tenants = lock_recover(&self.tenants);
        let state = tenants
            .entry(tenant.clone())
            .or_insert_with(|| TenantState {
                policy: QuotaPolicy::unlimited(),
                usage: QuotaUsage::default(),
            });
        let reason = if state.usage.in_flight >= state.policy.max_in_flight {
            Some(format!(
                "in-flight requests {}/{} (limit reached)",
                state.usage.in_flight, state.policy.max_in_flight
            ))
        } else if state.usage.outstanding_evals.saturating_add(estimate)
            > state.policy.max_outstanding_evals
        {
            Some(format!(
                "outstanding estimated engine evals {} + {} would exceed {}",
                state.usage.outstanding_evals, estimate, state.policy.max_outstanding_evals
            ))
        } else {
            None
        };
        match reason {
            Some(reason) => {
                self.stats.quota_rejected.fetch_add(1, Ordering::Relaxed);
                Err(CoreError::QuotaExceeded {
                    tenant: tenant.name().to_string(),
                    reason,
                })
            }
            None => {
                state.usage.in_flight += 1;
                state.usage.outstanding_evals =
                    state.usage.outstanding_evals.saturating_add(estimate);
                Ok(())
            }
        }
    }

    /// Returns one request's reservation (only ever called when the
    /// request settles, which happens exactly once). An idle entry with
    /// the default (unlimited) policy is evicted — the ledger must not
    /// grow without bound when tenant ids are derived from request
    /// input; entries installed via [`PlannerService::set_quota`] are
    /// kept.
    fn release_quota(&self, tenant: &TenantId, estimate: u64) {
        let mut tenants = lock_recover(&self.tenants);
        let state = tenants
            .get_mut(tenant)
            .expect("released quota for a tenant that never acquired");
        state.usage.in_flight = state.usage.in_flight.saturating_sub(1);
        state.usage.outstanding_evals = state.usage.outstanding_evals.saturating_sub(estimate);
        if state.usage == QuotaUsage::default() && state.policy == QuotaPolicy::unlimited() {
            tenants.remove(tenant);
        }
    }

    /// Queues `task` on `lane` and hands the pool one token for it.
    /// Tokens execute the highest-priority task available when they
    /// run, so interactive work overtakes queued bulk work; tasks whose
    /// `cancel` token has flipped by dispatch time are dropped un-run.
    fn enqueue(
        self: &Arc<Self>,
        lane: Lane,
        cancel: CancelToken,
        task: impl FnOnce() + Send + 'static,
    ) {
        debug_assert!(lane != Lane::Inline);
        self.queue
            .push(lane == Lane::Interactive, Some(cancel), Box::new(task));
        let queue = Arc::clone(&self.queue);
        self.pool.submit(move || queue.run_next());
    }
}

/// Renders a panic payload for [`CoreError::WorkerPanicked`].
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A request's point slots, behind [`SweepState`]'s lock.
struct Points {
    /// A point's result, from the moment it resolves until a wait
    /// takes it.
    slots: Vec<Option<Result<Plan>>>,
    /// Points solved or skipped so far.
    resolved: usize,
    /// Every point resolved or the request was cancelled: it has been
    /// counted and its quota released.
    settled: bool,
    /// The point the handle's (only) waiter last blocked on;
    /// `usize::MAX` when it waits for every point. Finishers wake it
    /// only when it can make progress.
    wake_at: usize,
}

/// One request in flight: the job, its per-point result slots — the
/// only result state the service keeps — and its lifecycle. Settling
/// (completion or cancellation, whichever comes first) happens exactly
/// once under the slot lock, so a waiter that takes the last point
/// already sees the request counted, and dropping the handle after
/// that can never count it cancelled.
struct SweepState {
    inner: Arc<ServiceInner>,
    tenant: TenantId,
    estimate: u64,
    lane: Lane,
    cancel: CancelToken,
    /// The registry lookup; a failed one resolves every point with its
    /// error.
    solver: Result<Arc<dyn Solver>>,
    /// The strategy name the solver was looked up by — the plan memo's
    /// strategy identity.
    strategy: Arc<str>,
    problem: Arc<Problem>,
    budgets: Vec<Budget>,
    /// Where the points share prefix work: the service store under the
    /// request's key, a request-private store for an unkeyed multi-point
    /// sweep (mirroring `exec::sweep`), or nothing for an unkeyed
    /// single point.
    store: Option<(Arc<CacheStore>, CacheKey)>,
    points: Mutex<Points>,
    point_ready: Condvar,
}

impl SweepState {
    fn lock(&self) -> MutexGuard<'_, Points> {
        lock_recover(&self.points)
    }

    /// A queued request's chain task: solves every `chains`-th point
    /// from `chain`, in budget order, on one engine cache — a
    /// multi-point chain carries the greedy trajectory memo from point
    /// to point, with plans byte-identical to independent solves (see
    /// [`super::exec::SweepMode`]). A point whose plan the store has
    /// memoized is replayed instead of solved, and a point solved
    /// without error is memoized. Once the request is cancelled the
    /// remaining points are skipped, so abandoning a 50-point sweep
    /// stops after the point being solved.
    fn run_chain(&self, chain: usize, chains: usize) {
        let mut running = None;
        let mut cache = None;
        for index in (chain..self.budgets.len()).step_by(chains) {
            if self.cancel.is_cancelled() {
                self.finish_point(index, None);
                continue;
            }
            running.get_or_insert_with(|| RunningGuard::enter(&self.inner.stats, self.lane));
            let result = self
                .resolved_without_solve(index)
                .unwrap_or_else(|| self.solve(index, &mut cache));
            self.finish_point(index, Some(result));
        }
    }

    /// Point `index`'s result when it needs no solve: the failed
    /// registry lookup's error, or the plan the store has memoized.
    fn resolved_without_solve(&self, index: usize) -> Option<Result<Plan>> {
        match &self.solver {
            Ok(_) => {
                let (store, key) = self.store.as_ref()?;
                let plan_key =
                    PlanKey::new(&self.strategy, self.problem.goal(), self.budgets[index]);
                store.plan(*key, &plan_key).map(Ok)
            }
            Err(e) => Some(Err(e.clone())),
        }
    }

    /// Solves point `index` on the chain's engine `cache` (built on
    /// first use), containing a panic, and memoizes a plan in the
    /// request's store.
    fn solve<'s>(&'s self, index: usize, cache: &mut Option<EngineCache<'s>>) -> Result<Plan> {
        let solver = self.solver.as_ref().expect("a failed lookup never solves");
        let budget = self.budgets[index];
        let result = catch_unwind(AssertUnwindSafe(|| {
            let cache = cache.get_or_insert_with(|| self.engine_cache());
            solver.solve_with_cache(&self.problem, budget, cache)
        }))
        .unwrap_or_else(|payload| {
            self.inner.stats.panics.fetch_add(1, Ordering::Relaxed);
            // The panic may have torn the resume chain mid-update; the
            // next point starts from a fresh cache.
            *cache = None;
            Err(CoreError::WorkerPanicked {
                detail: panic_detail(payload.as_ref()),
            })
        });
        if let (Ok(plan), Some((store, key))) = (&result, &self.store) {
            let plan_key = PlanKey::new(&self.strategy, self.problem.goal(), budget);
            store.memoize_plan(*key, plan_key, plan.clone());
        }
        result
    }

    fn engine_cache(&self) -> EngineCache<'_> {
        let cache = match &self.store {
            Some((store, key)) => EngineCache::with_store(Arc::clone(store), *key),
            None => EngineCache::new(),
        };
        // A lone point has no successor to resume into.
        if self.budgets.len() > 1 {
            cache.enable_sweep_resume();
        }
        cache
    }

    /// Publishes point `index` (`None`: skipped after a cancel) and
    /// settles the request once every point resolved.
    fn finish_point(&self, index: usize, result: Option<Result<Plan>>) {
        let mut points = self.lock();
        points.slots[index] = result;
        points.resolved += 1;
        self.settle_if_complete(&mut points);
        if index == points.wake_at || points.resolved == points.slots.len() {
            self.point_ready.notify_all();
        }
    }

    /// Counts a fully resolved request completed and releases its quota
    /// — before any waiter can wake on the last point.
    fn settle_if_complete(&self, points: &mut Points) {
        if points.resolved == points.slots.len() && !points.settled {
            points.settled = true;
            self.inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            self.inner.release_quota(&self.tenant, self.estimate);
        }
    }

    /// See [`SweepHandle::cancel`].
    fn cancel(&self) -> bool {
        let mut points = self.lock();
        if points.settled {
            return false;
        }
        points.settled = true;
        self.cancel.cancel();
        self.inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        self.inner.release_quota(&self.tenant, self.estimate);
        self.point_ready.notify_all();
        true
    }

    /// Takes point `index` once it resolves, unless the request is
    /// cancelled or `limit` elapses first.
    fn wait_point(&self, index: usize, limit: WaitLimit) -> PointOutcome {
        match self.wait_until(index, limit, |points| points.slots[index].is_some()) {
            Ok(mut points) => {
                PointOutcome::Point(points.slots[index].take().expect("just resolved"))
            }
            Err(outcome) => outcome,
        }
    }

    /// Blocks until `ready` holds, returning the locked slots, or
    /// reports [`PointOutcome::Cancelled`] / [`PointOutcome::TimedOut`].
    /// `wake_at` is the point whose resolution can make `ready` hold
    /// (see [`Points::wake_at`]).
    fn wait_until(
        &self,
        wake_at: usize,
        limit: WaitLimit,
        ready: impl Fn(&Points) -> bool,
    ) -> std::result::Result<MutexGuard<'_, Points>, PointOutcome> {
        let mut points = self.lock();
        loop {
            if self.cancel.is_cancelled() {
                return Err(PointOutcome::Cancelled);
            }
            if ready(&points) {
                return Ok(points);
            }
            points.wake_at = wake_at;
            points = match limit {
                WaitLimit::Poll => return Err(PointOutcome::TimedOut),
                WaitLimit::Until(deadline) => {
                    let now = Instant::now();
                    if deadline <= now {
                        return Err(PointOutcome::TimedOut);
                    }
                    self.point_ready
                        .wait_timeout(points, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                WaitLimit::Forever => self
                    .point_ready
                    .wait(points)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// The long-lived serving front over a [`SolverRegistry`]: owns the
/// registry, a fingerprint-keyed [`CacheStore`], and a [`WorkerPool`],
/// and serves [`SolveRequest`]s / [`SweepRequest`]s asynchronously
/// through [`SweepHandle`]s. Cheap to clone (all state is shared);
/// share one service per process or tenant.
///
/// See the [module docs](self) for admission control, fairness, and
/// determinism.
#[derive(Clone)]
pub struct PlannerService {
    inner: Arc<ServiceInner>,
}

impl PlannerService {
    /// A service with its own [`CacheStore`] (capacity
    /// [`ServiceOptions::DEFAULT_STORE_CAPACITY`]).
    pub fn new(registry: Arc<SolverRegistry>, opts: ServiceOptions) -> Self {
        let store = Arc::new(CacheStore::new(ServiceOptions::DEFAULT_STORE_CAPACITY));
        Self::with_store(registry, store, opts)
    }

    /// A service sharing an existing store (e.g. one warmed by batch
    /// jobs, or shared across services).
    pub fn with_store(
        registry: Arc<SolverRegistry>,
        store: Arc<CacheStore>,
        opts: ServiceOptions,
    ) -> Self {
        let pool = opts.pool.unwrap_or_else(WorkerPool::global);
        Self {
            inner: Arc::new(ServiceInner {
                registry,
                store,
                pool,
                queue: Arc::new(TwoLaneQueue::default()),
                inline_threshold: opts.inline_threshold,
                interactive_threshold: opts.interactive_threshold,
                stats: Counters::default(),
                tenants: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The registry serving this service.
    pub fn registry(&self) -> &Arc<SolverRegistry> {
        &self.inner.registry
    }

    /// The persistent engine store (inspect
    /// [`CacheStore::stats`] for warm/cold behavior, or invalidate
    /// entries after cleaning steps).
    pub fn store(&self) -> &Arc<CacheStore> {
        &self.inner.store
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let (queued_interactive, queued_bulk) = self.inner.queue.depths();
        let c = &self.inner.stats;
        let submitted = c.submitted.load(Ordering::Relaxed);
        let completed = c.completed.load(Ordering::Relaxed);
        let cancelled = c.cancelled.load(Ordering::Relaxed);
        ServiceStats {
            submitted,
            completed,
            inline: c.inline.load(Ordering::Relaxed),
            interactive: c.interactive.load(Ordering::Relaxed),
            bulk: c.bulk.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            cancelled,
            quota_rejected: c.quota_rejected.load(Ordering::Relaxed),
            queued_interactive,
            queued_bulk,
            // Gauge from independently-racing counters: saturate
            // rather than wrap when a completion lands between loads.
            in_flight: submitted.saturating_sub(completed.saturating_add(cancelled)),
            running_interactive: c.running_interactive.load(Ordering::Relaxed),
            running_bulk: c.running_bulk.load(Ordering::Relaxed),
        }
    }

    /// Live per-tenant accounting, sorted by tenant name: every tenant
    /// with in-flight work or an explicit [`QuotaPolicy`]. The load
    /// harness scrapes this (via `GET /v1/stats`) to record per-tenant
    /// saturation; idle default-policy tenants are evicted on release,
    /// so the listing stays bounded.
    pub fn tenant_usages(&self) -> Vec<(TenantId, QuotaUsage)> {
        let tenants = lock_recover(&self.inner.tenants);
        let mut usages: Vec<(TenantId, QuotaUsage)> = tenants
            .iter()
            .map(|(tenant, state)| (tenant.clone(), state.usage))
            .collect();
        usages.sort_by(|a, b| a.0.name().cmp(b.0.name()));
        usages
    }

    /// Installs (or replaces) `tenant`'s [`QuotaPolicy`]. In-flight
    /// accounting is preserved: tightening a policy below the current
    /// usage rejects new submits until enough requests resolve.
    pub fn set_quota(&self, tenant: impl Into<TenantId>, policy: QuotaPolicy) {
        let mut tenants = lock_recover(&self.inner.tenants);
        tenants
            .entry(tenant.into())
            .and_modify(|state| state.policy = policy)
            .or_insert(TenantState {
                policy,
                usage: QuotaUsage::default(),
            });
    }

    /// `tenant`'s live accounting (zeroes for a tenant that never
    /// submitted).
    pub fn quota_usage(&self, tenant: &TenantId) -> QuotaUsage {
        lock_recover(&self.inner.tenants)
            .get(tenant)
            .map(|state| state.usage)
            .unwrap_or_default()
    }

    /// Submits one solve: a one-point [`PlannerService::submit_sweep`]
    /// (see there for quotas, lanes and errors).
    pub fn submit(&self, request: SolveRequest) -> Result<RequestHandle> {
        let SolveRequest {
            strategy,
            problem,
            budget,
            key,
            tenant,
        } = request;
        self.submit_sweep(SweepRequest {
            strategy,
            problem,
            budgets: vec![budget],
            key,
            tenant,
        })
        .map(RequestHandle)
    }

    /// Submits a budget sweep. Quota is checked first: a tenant over
    /// its [`QuotaPolicy`] gets a typed [`CoreError::QuotaExceeded`]
    /// and nothing is queued. The request is costed by its *total*
    /// estimate (points × per-point). A small request rides the inline
    /// lane: its first point is solved before this returns, and each
    /// later one on the waiting thread when the handle is waited on. An
    /// unknown strategy resolves every point with
    /// [`CoreError::UnknownStrategy`] before this returns. Prefix work
    /// is shared across points through the service store when a key is
    /// supplied, or a request-private store otherwise — plans are
    /// byte-identical to [`SolverRegistry::sweep`] either way. The
    /// returned [`SweepHandle`] yields each plan as its point completes
    /// ([`SweepHandle::wait_next_point`]) or the whole grid at once
    /// ([`SweepHandle::wait`]).
    pub fn submit_sweep(&self, request: SweepRequest) -> Result<SweepHandle> {
        let inner = &self.inner;
        let points = request.budgets.len();
        let estimate = request
            .problem
            .estimated_engine_evals()
            .saturating_mul(points as u64);
        inner.acquire_quota(&request.tenant, estimate)?;
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let solver = inner.registry.get(&request.strategy);
        let strategy = Arc::from(request.strategy);
        // A failed lookup and an empty grid resolve at submit like a
        // small request, so the lane counters always sum to
        // `submitted`.
        let lane = if solver.is_err() || points == 0 {
            Lane::Inline
        } else {
            inner.lane_for(estimate)
        };
        let lane_counter = match lane {
            Lane::Inline => &inner.stats.inline,
            Lane::Interactive => &inner.stats.interactive,
            Lane::Bulk => &inner.stats.bulk,
        };
        lane_counter.fetch_add(1, Ordering::Relaxed);
        let store = match request.key {
            Some(key) => Some((Arc::clone(&inner.store), key)),
            None if points > 1 => Some((Arc::new(CacheStore::new(1)), CacheKey::new(0, 0))),
            None => None,
        };
        let state = Arc::new(SweepState {
            inner: Arc::clone(inner),
            tenant: request.tenant,
            estimate,
            lane,
            cancel: CancelToken::new(),
            solver,
            strategy,
            problem: request.problem,
            budgets: request.budgets,
            store,
            points: Mutex::new(Points {
                slots: (0..points).map(|_| None).collect(),
                resolved: 0,
                settled: false,
                wake_at: usize::MAX,
            }),
            point_ready: Condvar::new(),
        });
        let mut handle = SweepHandle {
            state,
            next: 0,
            inline: None,
        };
        if lane == Lane::Inline {
            // Point 0 is solved here, and the consumer's waits solve the
            // rest on the same resuming chain.
            handle.inline = Some(InlineChain::default());
            handle.advance_inline(0);
            // An empty grid has no point whose resolution settles it.
            handle.state.settle_if_complete(&mut handle.state.lock());
        } else {
            // Deal the points round-robin to at most `pool.threads()`
            // chain tasks, each solving its points in order on one
            // sweep-resuming cache.
            let chains = inner.pool.threads().min(points);
            for chain in 0..chains {
                let task = Arc::clone(&handle.state);
                inner.enqueue(lane, handle.state.cancel.clone(), move || {
                    task.run_chain(chain, chains);
                });
            }
        }
        Ok(handle)
    }
}

impl std::fmt::Debug for PlannerService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannerService")
            .field("strategies", &self.inner.registry.names().len())
            .field("pool_threads", &self.inner.pool.threads())
            .field("inline_threshold", &self.inner.inline_threshold)
            .field("interactive_threshold", &self.inner.interactive_threshold)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use fc_claims::{BiasQuery, ClaimSet, Direction, DupQuery, LinearClaim};
    use fc_uncertain::{rng_from_seed, DiscreteDist};
    use rand::Rng;

    fn claims(n: usize) -> ClaimSet {
        let perturbations: Vec<LinearClaim> = (0..n - 1)
            .map(|i| LinearClaim::window_sum(i, 2).unwrap())
            .collect();
        let weights = vec![1.0; perturbations.len()];
        ClaimSet::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            perturbations,
            weights,
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    fn random_instance(n: usize, seed: u64) -> Instance {
        let mut rng = rng_from_seed(seed);
        let dists = (0..n)
            .map(|_| {
                let k = rng.gen_range(2..=3);
                let vals: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..10.0)).collect();
                DiscreteDist::uniform_over(&vals).unwrap()
            })
            .collect::<Vec<_>>();
        let current = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let costs = (0..n).map(|_| rng.gen_range(1..5)).collect();
        Instance::new(dists, current, costs).unwrap()
    }

    fn dup_problem(n: usize, seed: u64) -> Arc<Problem> {
        Arc::new(
            Problem::discrete_min_var(
                random_instance(n, seed),
                Arc::new(DupQuery::new(claims(n), 6.0)),
            )
            .unwrap(),
        )
    }

    fn service(opts: ServiceOptions) -> PlannerService {
        PlannerService::new(Arc::new(SolverRegistry::with_defaults()), opts)
    }

    #[test]
    fn tiny_request_is_solved_inline_at_submit() {
        let svc = service(ServiceOptions::new());
        let problem = dup_problem(6, 1);
        let expected = svc
            .registry()
            .solve("greedy", &problem, Budget::absolute(2))
            .unwrap();
        let handle = svc
            .submit(SolveRequest::new(
                "greedy",
                Arc::clone(&problem),
                Budget::absolute(2),
            ))
            .unwrap();
        assert_eq!(handle.lane(), Lane::Inline);
        assert!(
            handle.is_ready(),
            "inline handles resolve before submit returns"
        );
        let plan = handle.wait().unwrap();
        assert_eq!(plan.divergence(&expected), None);
        let stats = svc.stats();
        assert_eq!(stats.inline, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn queued_request_matches_synchronous_solve() {
        // Threshold 0 forces the queue even for a small problem.
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(10, 2);
        let expected = svc
            .registry()
            .solve("auto", &problem, Budget::absolute(3))
            .unwrap();
        let handle = svc
            .submit(SolveRequest::new(
                "auto",
                Arc::clone(&problem),
                Budget::absolute(3),
            ))
            .unwrap();
        assert_eq!(handle.lane(), Lane::Interactive);
        let plan = handle.wait().unwrap();
        assert_eq!(plan.divergence(&expected), None);
    }

    #[test]
    fn sweep_matches_registry_sweep_bytes() {
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(12, 3);
        let budgets: Vec<Budget> = (0..8).map(Budget::absolute).collect();
        let expected = svc.registry().sweep("greedy", &problem, &budgets).unwrap();
        let handle = svc
            .submit_sweep(SweepRequest::new(
                "greedy",
                Arc::clone(&problem),
                budgets.clone(),
            ))
            .unwrap();
        let plans = handle.wait().unwrap();
        assert_eq!(plans.len(), expected.len());
        for (i, (a, b)) in plans.iter().zip(&expected).enumerate() {
            assert_eq!(a.divergence(b), None, "budget point {i}");
        }
    }

    #[test]
    fn streamed_sweep_yields_points_in_budget_order_with_identical_bytes() {
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(12, 31);
        let budgets: Vec<Budget> = (0..8).map(Budget::absolute).collect();
        let expected = svc.registry().sweep("greedy", &problem, &budgets).unwrap();
        let mut handle = svc
            .submit_sweep(SweepRequest::new(
                "greedy",
                Arc::clone(&problem),
                budgets.clone(),
            ))
            .unwrap();
        assert_eq!(handle.points(), budgets.len());
        let mut streamed = Vec::new();
        loop {
            match handle.wait_next_point() {
                PointOutcome::Point(r) => streamed.push(r.unwrap()),
                PointOutcome::Done => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(handle.points_yielded(), budgets.len());
        assert!(
            handle.wait_next_point().is_done(),
            "a drained stream stays Done"
        );
        assert_eq!(streamed.len(), expected.len());
        for (i, (a, b)) in streamed.iter().zip(&expected).enumerate() {
            assert_eq!(a.divergence(b), None, "streamed budget point {i}");
        }
        // Plans move out of their slots: a fully streamed handle has
        // nothing left for wait() to return.
        assert!(handle.wait().unwrap().is_empty());
    }

    #[test]
    fn inline_sweep_points_are_ready_at_submit() {
        // An inline-lane sweep solves point 0 at submit, so it can be
        // taken without blocking; a poll never solves the later points,
        // and wait() solves and takes the rest.
        let svc = service(ServiceOptions::new());
        let problem = dup_problem(6, 32);
        let budgets: Vec<Budget> = (1..=3).map(Budget::absolute).collect();
        let expected = svc.registry().sweep("greedy", &problem, &budgets).unwrap();
        let mut handle = svc
            .submit_sweep(SweepRequest::new(
                "greedy",
                Arc::clone(&problem),
                budgets.clone(),
            ))
            .unwrap();
        assert_eq!(handle.lane(), Lane::Inline);
        assert!(!handle.is_ready(), "later points wait for the consumer");
        let first = handle
            .try_next_point()
            .point()
            .expect("inline point 0 is ready at submit")
            .unwrap();
        assert_eq!(first.divergence(&expected[0]), None);
        assert!(
            handle.try_next_point().is_timed_out(),
            "a poll never solves"
        );
        let rest = handle.wait().unwrap();
        assert_eq!(rest.len(), expected.len() - 1, "wait() takes only the rest");
        for (i, (a, b)) in rest.iter().zip(&expected[1..]).enumerate() {
            assert_eq!(a.divergence(b), None, "inline point {}", i + 1);
        }
        let stats = svc.stats();
        assert_eq!((stats.completed, stats.cancelled), (1, 0));
    }

    #[test]
    fn a_paused_inline_chain_reports_what_an_unbroken_chain_does() {
        // Point by point, the inline chain parks its engine cache between
        // waits; the plans, store counters included, equal those of one
        // queued chain that never pauses.
        let problem = dup_problem(8, 35);
        let budgets: Vec<Budget> = (1..=4).map(Budget::absolute).collect();
        let request = || SweepRequest::new("greedy", Arc::clone(&problem), budgets.clone());
        let queued = service(
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_pool(Arc::new(WorkerPool::new(1))),
        )
        .submit_sweep(request())
        .unwrap()
        .wait()
        .unwrap();
        let inline = service(ServiceOptions::new());
        let mut handle = inline.submit_sweep(request()).unwrap();
        assert_eq!(handle.lane(), Lane::Inline);
        for (i, expected) in queued.iter().enumerate() {
            let plan = handle.wait_next_point().point().unwrap().unwrap();
            assert_eq!(plan.divergence(expected), None, "point {i}");
            assert_eq!(plan.diagnostics, expected.diagnostics, "point {i}");
        }
    }

    #[test]
    fn memoized_inline_points_are_taken_by_polls() {
        // A poll never solves, but it replays what the plan memo holds:
        // a repeated keyed inline sweep is whole without a wait.
        let svc = service(ServiceOptions::new());
        let problem = dup_problem(6, 34);
        let key = CacheKey::new(problem.instance_fingerprint(), 1);
        let budgets: Vec<Budget> = (1..=3).map(Budget::absolute).collect();
        let request =
            || SweepRequest::new("greedy", Arc::clone(&problem), budgets.clone()).with_key(key);
        let cold = svc.submit_sweep(request()).unwrap().wait().unwrap();
        let mut warm = svc.submit_sweep(request()).unwrap();
        for (i, expected) in cold.iter().enumerate() {
            let plan = warm
                .try_next_point()
                .point()
                .unwrap_or_else(|| panic!("memoized point {i} is taken by a poll"))
                .unwrap();
            assert_eq!(plan.divergence(expected), None, "point {i}");
        }
        assert!(warm.is_ready());
        assert!(warm.try_next_point().is_done());
    }

    #[test]
    fn empty_and_error_sweeps_stream_deterministically() {
        let svc = service(ServiceOptions::new());
        let problem = dup_problem(6, 33);
        let mut empty = svc
            .submit_sweep(SweepRequest::new("greedy", Arc::clone(&problem), vec![]))
            .unwrap();
        assert_eq!(empty.points(), 0);
        assert!(empty.try_next_point().is_done());
        empty.wait().unwrap();

        let mut unknown = svc
            .submit_sweep(SweepRequest::new(
                "no-such-strategy",
                Arc::clone(&problem),
                vec![Budget::absolute(1), Budget::absolute(2)],
            ))
            .unwrap();
        assert_eq!(unknown.lane(), Lane::Inline);
        for _ in 0..2 {
            let err = unknown
                .wait_next_point()
                .point()
                .expect("a failed lookup resolves every point")
                .unwrap_err();
            assert!(
                matches!(err, CoreError::UnknownStrategy { .. }),
                "got {err}"
            );
        }
        assert!(unknown.wait_next_point().is_done());
    }

    /// Parks every solve after the first `free` until the gate opens;
    /// delegates to `greedy`. With a single-threaded pool the sweep
    /// chain solves points in index order, so "first point done, second
    /// point parked mid-solve" is a deterministic state.
    #[derive(Debug)]
    struct StepSolver {
        gate: Arc<Gate>,
        free: usize,
        calls: AtomicUsize,
    }

    impl Solver for StepSolver {
        fn name(&self) -> &'static str {
            "step"
        }
        fn solve_with_cache<'p>(
            &self,
            problem: &'p Problem,
            budget: Budget,
            cache: &EngineCache<'p>,
        ) -> Result<Plan> {
            if self.calls.fetch_add(1, Ordering::SeqCst) >= self.free {
                {
                    let mut entered = self.gate.entered.lock().unwrap();
                    *entered += 1;
                    self.gate.entered_cv.notify_all();
                }
                let mut open = self.gate.open.lock().unwrap();
                while !*open {
                    open = self.gate.opened.wait(open).unwrap();
                }
            }
            crate::planner::GreedySolver.solve_with_cache(problem, budget, cache)
        }
    }

    fn stepped_service(free: usize) -> (PlannerService, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let mut registry = SolverRegistry::with_defaults();
        registry.register_solver(Arc::new(StepSolver {
            gate: Arc::clone(&gate),
            free,
            calls: AtomicUsize::new(0),
        }));
        let svc = PlannerService::new(
            Arc::new(registry),
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_interactive_threshold(0)
                .with_pool(Arc::new(WorkerPool::new(1))),
        );
        (svc, gate)
    }

    #[test]
    fn first_point_streams_while_later_points_still_solve() {
        let (svc, gate) = stepped_service(1);
        let problem = dup_problem(10, 34);
        let budgets: Vec<Budget> = (1..=4).map(Budget::absolute).collect();
        let expected = svc.registry().sweep("greedy", &problem, &budgets).unwrap();
        let mut handle = svc
            .submit_sweep(SweepRequest::new("step", Arc::clone(&problem), budgets))
            .unwrap();
        // Point 0 solves freely; point 1 parks on the gate.
        let first = handle
            .wait_next_point()
            .point()
            .expect("first point streams before the sweep resolves")
            .unwrap();
        assert_eq!(first.divergence(&expected[0]), None);
        gate.wait_entered(1); // point 1 is deterministically mid-solve
        assert!(!handle.is_ready(), "the request has not settled");
        assert_eq!(
            svc.stats().completed,
            0,
            "the sweep counts as completed only once every point resolved"
        );
        assert!(
            handle.try_next_point().is_timed_out(),
            "the parked point is not ready"
        );
        gate.open_up();
        let mut streamed = vec![first];
        loop {
            match handle.wait_next_point() {
                PointOutcome::Point(r) => streamed.push(r.unwrap()),
                PointOutcome::Done => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        for (i, (a, b)) in streamed.iter().zip(&expected).enumerate() {
            assert_eq!(a.divergence(b), None, "budget point {i}");
        }
        // Taking the last point synchronizes with settling, so the
        // sweep is already counted.
        assert_eq!(svc.stats().completed, 1);
        assert!(handle.wait().unwrap().is_empty());
    }

    #[test]
    fn draining_to_done_then_dropping_counts_completed_not_cancelled() {
        // Regression: a consumer that drains the stream and
        // immediately drops the handle must never race the drop-cancel
        // into flipping a fully-delivered sweep to cancelled — the
        // last point is published and the request settled under one
        // lock.
        let svc = PlannerService::new(
            Arc::new(SolverRegistry::with_defaults()),
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_pool(Arc::new(WorkerPool::new(2))),
        );
        let rounds = 20;
        for round in 0..rounds {
            let problem = dup_problem(10, 50 + round);
            let budgets: Vec<Budget> = (1..=3).map(Budget::absolute).collect();
            let mut handle = svc
                .submit_sweep(SweepRequest::new("greedy", problem, budgets))
                .unwrap();
            loop {
                match handle.wait_next_point() {
                    PointOutcome::Point(r) => {
                        r.unwrap();
                    }
                    PointOutcome::Done => break,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            drop(handle);
        }
        let stats = svc.stats();
        assert_eq!(stats.cancelled, 0, "drop after Done must never cancel");
        assert_eq!(stats.completed, rounds);
    }

    #[test]
    fn cancelling_mid_stream_skips_the_remaining_points() {
        let (svc, gate) = stepped_service(1);
        let problem = dup_problem(10, 35);
        let budgets: Vec<Budget> = (1..=6).map(Budget::absolute).collect();
        let mut handle = svc
            .submit_sweep(SweepRequest::new("step", Arc::clone(&problem), budgets))
            .unwrap();
        handle
            .wait_next_point()
            .point()
            .expect("first point streams")
            .unwrap();
        gate.wait_entered(1); // point 1 mid-solve
        assert!(handle.cancel());
        assert!(handle.wait_next_point().is_cancelled());
        gate.open_up();
        // Drain the single worker past the skipped points.
        svc.submit(SolveRequest::new(
            "greedy",
            dup_problem(8, 36),
            Budget::absolute(1),
        ))
        .unwrap()
        .wait()
        .unwrap();
        assert_eq!(
            *gate.entered.lock().unwrap(),
            1,
            "only the mid-solve point ran to completion; the rest were skipped"
        );
        assert_eq!(svc.stats().cancelled, 1);
        assert_eq!(svc.quota_usage(&TenantId::default()), QuotaUsage::default());
    }

    #[test]
    fn stream_disconnect_cancels_via_wait_next_point_or_cancel() {
        let (svc, gate) = stepped_service(1);
        let problem = dup_problem(10, 37);
        let budgets: Vec<Budget> = (1..=4).map(Budget::absolute).collect();
        let mut handle = svc
            .submit_sweep(SweepRequest::new("step", Arc::clone(&problem), budgets))
            .unwrap();
        handle
            .wait_next_point_or_cancel(Duration::from_millis(5), || true)
            .point()
            .expect("a live client streams the first point")
            .unwrap();
        gate.wait_entered(1);
        // The "client" hangs up: the next wait observes it and cancels.
        let outcome = handle.wait_next_point_or_cancel(Duration::from_millis(5), || false);
        assert!(outcome.is_cancelled());
        assert!(handle.is_cancelled());
        gate.open_up();
        assert_eq!(svc.stats().cancelled, 1);
    }

    #[test]
    fn lane_routing_follows_estimates() {
        let svc = service(
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_interactive_threshold(0),
        );
        let handle = svc
            .submit(SolveRequest::new(
                "greedy",
                dup_problem(10, 4),
                Budget::absolute(2),
            ))
            .unwrap();
        assert_eq!(handle.lane(), Lane::Bulk);
        handle.wait().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.bulk, 1);
        assert_eq!(stats.interactive, 0);
    }

    #[test]
    fn unknown_strategy_resolves_immediately() {
        let svc = service(ServiceOptions::new());
        let handle = svc
            .submit(SolveRequest::new(
                "nope",
                dup_problem(6, 5),
                Budget::absolute(1),
            ))
            .unwrap();
        assert!(handle.is_ready());
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, CoreError::UnknownStrategy { name } if name == "nope"));
        // Error-resolved requests still keep the lane accounting
        // consistent: inline + interactive + bulk == submitted.
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.inline, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn strategy_refusal_is_a_typed_error_not_a_hang() {
        // "best" refuses MaxPr problems; the handle must resolve to the
        // typed refusal.
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let inst = random_instance(8, 6);
        let problem = Arc::new(
            Problem::discrete_max_pr(inst, Arc::new(BiasQuery::new(claims(8), 4.0)), 0.5).unwrap(),
        );
        let handle = svc
            .submit(SolveRequest::new("best", problem, Budget::absolute(2)))
            .unwrap();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, CoreError::StrategyUnsupported { .. }));
    }

    #[test]
    fn panicking_solver_is_contained() {
        #[derive(Debug)]
        struct PanickySolver;
        impl Solver for PanickySolver {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn solve_with_cache<'p>(
                &self,
                _problem: &'p Problem,
                _budget: Budget,
                _cache: &EngineCache<'p>,
            ) -> Result<Plan> {
                panic!("solver exploded");
            }
        }
        let mut registry = SolverRegistry::with_defaults();
        registry.register_solver(Arc::new(PanickySolver));
        let svc = PlannerService::new(
            Arc::new(registry),
            ServiceOptions::new().with_inline_threshold(0),
        );
        let problem = dup_problem(6, 7);
        let key = CacheKey::new(problem.instance_fingerprint(), 1);
        for attempt in 1..=2 {
            let err = svc
                .submit(
                    SolveRequest::new("panicky", Arc::clone(&problem), Budget::absolute(1))
                        .with_key(key),
                )
                .unwrap()
                .wait()
                .unwrap_err();
            assert!(
                matches!(&err, CoreError::WorkerPanicked { detail } if detail.contains("exploded")),
                "got {err}"
            );
            // A contained panic is never memoized: the solver runs again.
            assert_eq!(svc.stats().panics, attempt);
        }
        assert_eq!(svc.store().stats().plan_hits, 0);
        // The service (and its pool) keep serving after the panic.
        let problem = dup_problem(6, 8);
        let ok = svc
            .submit(SolveRequest::new(
                "greedy",
                Arc::clone(&problem),
                Budget::absolute(1),
            ))
            .unwrap()
            .wait();
        assert!(ok.is_ok());
    }

    #[test]
    fn try_wait_takes_exactly_once() {
        let svc = service(ServiceOptions::new());
        let mut handle = svc
            .submit(SolveRequest::new(
                "greedy",
                dup_problem(6, 9),
                Budget::absolute(1),
            ))
            .unwrap();
        let plan = handle.try_next_point().point().expect("inline: ready");
        assert!(plan.is_ok());
        assert!(
            handle.try_next_point().is_done(),
            "second take reports Done, not a timeout"
        );
        assert!(handle.is_ready(), "taken still reads as ready");
        assert!(!handle.cancel(), "a resolved request cannot be cancelled");
    }

    #[test]
    fn concurrent_submitters_get_identical_plans() {
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(14, 10);
        let budget = Budget::absolute(4);
        let expected = svc.registry().solve("auto", &problem, budget).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = svc.clone();
                let problem = Arc::clone(&problem);
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..3 {
                        let plan = svc
                            .submit(SolveRequest::new("auto", Arc::clone(&problem), budget))
                            .unwrap()
                            .wait()
                            .unwrap();
                        assert_eq!(plan.divergence(expected), None);
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.completed, 12);
    }

    #[test]
    fn keyed_requests_share_the_store() {
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(12, 11);
        let key = CacheKey::new(problem.instance_fingerprint(), 99);
        for _ in 0..3 {
            svc.submit(
                SolveRequest::new("greedy", Arc::clone(&problem), Budget::absolute(3))
                    .with_key(key),
            )
            .unwrap()
            .wait()
            .unwrap();
        }
        assert_eq!(
            svc.store().stats().scoped_builds,
            1,
            "repeat keyed requests reuse one table build"
        );
        let stats = svc.store().stats();
        assert_eq!(
            (stats.plan_hits, stats.plan_misses),
            (2, 1),
            "repeats replay the memoized plan"
        );
    }

    #[test]
    fn store_misses_are_table_builds_only() {
        let svc = service(ServiceOptions::new());
        let dup = dup_problem(12, 17);
        let bias = Arc::new(
            Problem::discrete_min_var(
                random_instance(12, 17),
                Arc::new(BiasQuery::new(claims(12), 6.0)),
            )
            .unwrap(),
        );
        let fp = dup.instance_fingerprint();
        let budgets: Vec<Budget> = (0..4).map(Budget::absolute).collect();
        svc.submit_sweep(
            SweepRequest::new("greedy", Arc::clone(&dup), budgets).with_key(CacheKey::new(fp, 1)),
        )
        .unwrap()
        .wait()
        .unwrap();
        let plan = svc
            .submit(
                SolveRequest::new("greedy", Arc::clone(&bias), Budget::absolute(3))
                    .with_key(CacheKey::new(fp, 2)),
            )
            .unwrap()
            .wait()
            .unwrap();
        let stats = svc.store().stats();
        assert_eq!(stats.scoped_builds, 1, "one table build for the dup sweep");
        assert_eq!(stats.misses, stats.scoped_builds, "every miss is a build");
        assert_eq!(
            (plan.diagnostics.store_hits, plan.diagnostics.store_misses),
            (0, 0),
            "a modular solve looks nothing up"
        );
        let expected = svc
            .registry()
            .solve("greedy", &bias, Budget::absolute(3))
            .unwrap();
        assert_eq!(plan.divergence(&expected), None);
    }

    /// A solver that parks every solve until the gate opens, then
    /// delegates to `greedy`. Lets tests pin the (single-threaded)
    /// pool in a known state: requests submitted behind a closed gate
    /// are deterministically still queued.
    #[derive(Debug, Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
        entered: Mutex<usize>,
        entered_cv: Condvar,
    }

    impl Gate {
        fn open_up(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }

        /// Blocks until `n` solves have reached the gate.
        fn wait_entered(&self, n: usize) {
            let mut entered = self.entered.lock().unwrap();
            while *entered < n {
                entered = self.entered_cv.wait(entered).unwrap();
            }
        }
    }

    #[derive(Debug)]
    struct GateSolver {
        gate: Arc<Gate>,
    }

    impl Solver for GateSolver {
        fn name(&self) -> &'static str {
            "gate"
        }
        fn solve_with_cache<'p>(
            &self,
            problem: &'p Problem,
            budget: Budget,
            cache: &EngineCache<'p>,
        ) -> Result<Plan> {
            {
                let mut entered = self.gate.entered.lock().unwrap();
                *entered += 1;
                self.gate.entered_cv.notify_all();
            }
            let mut open = self.gate.open.lock().unwrap();
            while !*open {
                open = self.gate.opened.wait(open).unwrap();
            }
            drop(open);
            crate::planner::GreedySolver.solve_with_cache(problem, budget, cache)
        }
    }

    /// A service whose single-threaded pool can be pinned via the
    /// returned gate.
    fn gated_service(opts: ServiceOptions) -> (PlannerService, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let mut registry = SolverRegistry::with_defaults();
        registry.register_solver(Arc::new(GateSolver {
            gate: Arc::clone(&gate),
        }));
        let svc = PlannerService::new(
            Arc::new(registry),
            opts.with_pool(Arc::new(WorkerPool::new(1))),
        );
        (svc, gate)
    }

    #[test]
    fn timed_out_wait_does_not_lose_the_result() {
        // The PR-3 API returned `None` for both "timed out" and
        // "already taken", so one timeout could lose a completed plan
        // forever. Regression: a 0-duration timeout reports TimedOut
        // and a later wait() still gets the plan.
        let (svc, gate) = gated_service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(8, 21);
        let expected = svc
            .registry()
            .solve("greedy", &problem, Budget::absolute(2))
            .unwrap();
        let mut handle = svc
            .submit(SolveRequest::new(
                "gate",
                Arc::clone(&problem),
                Budget::absolute(2),
            ))
            .unwrap();
        gate.wait_entered(1); // deterministically pending
        assert!(
            handle
                .wait_next_point_timeout(Duration::ZERO)
                .is_timed_out(),
            "a pending request times out"
        );
        assert!(
            handle.try_next_point().is_timed_out(),
            "try_next_point on a pending request is a zero-wait timeout"
        );
        gate.open_up();
        let plan = handle.wait().expect("the timed-out wait consumed nothing");
        assert_eq!(plan.strategy, expected.strategy);
        assert_eq!(plan.selection.objects(), expected.selection.objects());
    }

    #[test]
    fn dropped_queued_sweep_performs_zero_engine_builds() {
        // A handle dropped before dispatch must never reach a worker:
        // the dispatcher drops the cancelled point tasks un-run, so the
        // keyed sweep performs zero scoped-table builds in the store.
        let (svc, gate) = gated_service(
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_interactive_threshold(0),
        );
        // Pin the only worker behind the gate (unkeyed: no store I/O).
        let blocker = svc
            .submit(SolveRequest::new(
                "gate",
                dup_problem(8, 22),
                Budget::absolute(2),
            ))
            .unwrap();
        gate.wait_entered(1);

        let problem = dup_problem(12, 23);
        let key = CacheKey::new(problem.instance_fingerprint(), 7);
        let budgets: Vec<Budget> = (0..6).map(Budget::absolute).collect();
        let sweep = svc
            .submit_sweep(SweepRequest::new("greedy", Arc::clone(&problem), budgets).with_key(key))
            .unwrap();
        assert_eq!(sweep.lane(), Lane::Bulk);
        drop(sweep); // cancellation-on-drop, while every point is queued

        let stats = svc.stats();
        assert_eq!(stats.cancelled, 1, "the drop registered as a cancel");
        assert_eq!(
            svc.quota_usage(&TenantId::default()).in_flight,
            1,
            "only the blocker still holds quota"
        );

        gate.open_up();
        blocker.wait().unwrap();
        // Drain the queue behind the cancelled point tasks: this
        // request's token runs after theirs have been discarded.
        svc.submit(SolveRequest::new(
            "greedy",
            dup_problem(8, 24),
            Budget::absolute(1),
        ))
        .unwrap()
        .wait()
        .unwrap();

        assert_eq!(
            svc.store().stats().scoped_builds,
            0,
            "a cancelled queued sweep never builds an engine"
        );
        assert_eq!(svc.quota_usage(&TenantId::default()), QuotaUsage::default());
    }

    #[test]
    fn cancelling_mid_sweep_stops_after_the_current_point() {
        // Route the sweep itself through the gate solver: point 0 parks
        // on the worker; the cancel lands while it solves; the
        // remaining points are dropped at dispatch.
        let (svc, gate) = gated_service(
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_interactive_threshold(0),
        );
        let problem = dup_problem(10, 25);
        let budgets: Vec<Budget> = (1..=8).map(Budget::absolute).collect();
        let mut handle = svc
            .submit_sweep(SweepRequest::new("gate", Arc::clone(&problem), budgets))
            .unwrap();
        gate.wait_entered(1); // point 0 is mid-solve
        assert!(handle.cancel(), "first cancel lands");
        assert!(!handle.cancel(), "cancel is idempotent");
        assert!(handle.is_cancelled());
        assert!(handle.try_next_point().is_cancelled());
        gate.open_up();
        // Drain: everything after point 0 must have been discarded.
        svc.submit(SolveRequest::new(
            "greedy",
            dup_problem(8, 26),
            Budget::absolute(1),
        ))
        .unwrap()
        .wait()
        .unwrap();
        assert_eq!(
            *gate.entered.lock().unwrap(),
            1,
            "only the in-flight budget point ran; cancellation stopped the rest"
        );
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "got {err}");
        assert_eq!(svc.quota_usage(&TenantId::default()), QuotaUsage::default());
    }

    #[test]
    fn quota_rejects_at_submit_with_a_typed_error() {
        let (svc, gate) = gated_service(ServiceOptions::new().with_inline_threshold(0));
        svc.set_quota("alice", QuotaPolicy::default().with_max_in_flight(2));
        let problem = dup_problem(8, 27);
        let a1 = svc
            .submit(
                SolveRequest::new("gate", Arc::clone(&problem), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap();
        let a2 = svc
            .submit(
                SolveRequest::new("greedy", Arc::clone(&problem), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap();
        let err = svc
            .submit(
                SolveRequest::new("greedy", Arc::clone(&problem), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::QuotaExceeded { tenant, .. } if tenant == "alice"),
            "got {err}"
        );
        // Other tenants are unaffected by alice's exhaustion.
        let b = svc
            .submit(SolveRequest::new(
                "greedy",
                Arc::clone(&problem),
                Budget::absolute(1),
            ))
            .unwrap();
        let stats = svc.stats();
        assert_eq!(stats.quota_rejected, 1);
        assert_eq!(stats.submitted, 3, "the rejected submit never existed");
        gate.open_up();
        a1.wait().unwrap();
        a2.wait().unwrap();
        b.wait().unwrap();
        assert_eq!(
            svc.quota_usage(&TenantId::new("alice")),
            QuotaUsage::default()
        );
        // Quota freed: alice can submit again.
        svc.submit(SolveRequest::new("greedy", problem, Budget::absolute(1)).with_tenant("alice"))
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn quota_caps_outstanding_evals_not_just_request_count() {
        let svc = service(ServiceOptions::new());
        let problem = dup_problem(10, 28);
        let per_request = problem.estimated_engine_evals();
        assert!(per_request > 0);
        svc.set_quota(
            "metered",
            QuotaPolicy::default().with_max_outstanding_evals(per_request - 1),
        );
        let err = svc
            .submit(
                SolveRequest::new("greedy", Arc::clone(&problem), Budget::absolute(1))
                    .with_tenant("metered"),
            )
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::QuotaExceeded { reason, .. } if reason.contains("evals")),
            "got {err}"
        );
    }

    #[test]
    fn quota_is_released_on_panic() {
        #[derive(Debug)]
        struct PanickySolver;
        impl Solver for PanickySolver {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn solve_with_cache<'p>(
                &self,
                _problem: &'p Problem,
                _budget: Budget,
                _cache: &EngineCache<'p>,
            ) -> Result<Plan> {
                panic!("solver exploded");
            }
        }
        let mut registry = SolverRegistry::with_defaults();
        registry.register_solver(Arc::new(PanickySolver));
        let svc = PlannerService::new(
            Arc::new(registry),
            ServiceOptions::new().with_inline_threshold(0),
        );
        svc.set_quota("alice", QuotaPolicy::default().with_max_in_flight(1));
        let err = svc
            .submit(
                SolveRequest::new("panicky", dup_problem(6, 29), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanicked { .. }));
        assert_eq!(
            svc.quota_usage(&TenantId::new("alice")),
            QuotaUsage::default(),
            "the WorkerPanicked path released the lease"
        );
        // The freed quota admits the next request.
        svc.submit(
            SolveRequest::new("greedy", dup_problem(6, 30), Budget::absolute(1))
                .with_tenant("alice"),
        )
        .unwrap()
        .wait()
        .unwrap();
    }

    #[test]
    fn quota_is_released_on_cancellation() {
        let (svc, gate) = gated_service(ServiceOptions::new().with_inline_threshold(0));
        svc.set_quota("alice", QuotaPolicy::default().with_max_in_flight(1));
        // Pin the worker with a default-tenant request so alice's
        // request stays queued.
        let blocker = svc
            .submit(SolveRequest::new(
                "gate",
                dup_problem(8, 31),
                Budget::absolute(1),
            ))
            .unwrap();
        gate.wait_entered(1);
        let queued = svc
            .submit(
                SolveRequest::new("greedy", dup_problem(8, 32), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap();
        assert!(svc
            .submit(
                SolveRequest::new("greedy", dup_problem(8, 33), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .is_err());
        assert!(queued.cancel());
        assert_eq!(
            svc.quota_usage(&TenantId::new("alice")),
            QuotaUsage::default(),
            "cancel released the lease immediately, before dispatch"
        );
        // The freed slot admits a new request straight away.
        let again = svc
            .submit(
                SolveRequest::new("greedy", dup_problem(8, 34), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap();
        gate.open_up();
        blocker.wait().unwrap();
        again.wait().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(
            stats.completed + stats.cancelled,
            stats.submitted,
            "every request resolved exactly one way"
        );
    }

    #[test]
    fn wait_timeout_with_huge_duration_waits_instead_of_panicking() {
        // `Instant::now() + Duration::MAX` overflows and used to panic
        // inside wait_timeout; the overflow must degrade to
        // wait-forever (a deadline past the representable range can
        // never elapse).
        let (svc, gate) = gated_service(ServiceOptions::new().with_inline_threshold(0));
        let mut handle = svc
            .submit(SolveRequest::new(
                "gate",
                dup_problem(8, 40),
                Budget::absolute(2),
            ))
            .unwrap();
        gate.wait_entered(1); // deterministically pending at wait time
        std::thread::scope(|s| {
            let waiter = s.spawn(|| handle.wait_next_point_timeout(Duration::MAX));
            gate.open_up();
            let outcome = waiter.join().expect("waiter must not panic");
            assert!(
                matches!(outcome, PointOutcome::Point(Ok(_))),
                "the overflowing timeout waited for the result"
            );
        });
    }

    #[test]
    fn wait_or_cancel_cancels_when_the_liveness_probe_fails() {
        let (svc, gate) = gated_service(ServiceOptions::new().with_inline_threshold(0));
        let handle = svc
            .submit_sweep(SweepRequest::new(
                "gate",
                dup_problem(8, 41),
                vec![Budget::absolute(2)],
            ))
            .unwrap();
        gate.wait_entered(1);
        // First poll reports alive, second reports the client gone.
        let mut polls = 0;
        let err = handle
            .wait_or_cancel(Duration::from_millis(1), || {
                polls += 1;
                polls < 2
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "got {err}");
        assert_eq!(polls, 2);
        assert_eq!(svc.stats().cancelled, 1);
        assert_eq!(svc.quota_usage(&TenantId::default()).in_flight, 0);
        gate.open_up();
    }

    #[test]
    fn wait_or_cancel_returns_the_result_while_the_client_lives() {
        let svc = service(ServiceOptions::new().with_inline_threshold(0));
        let problem = dup_problem(8, 42);
        let expected = svc
            .registry()
            .solve("greedy", &problem, Budget::absolute(2))
            .unwrap();
        let handle = svc
            .submit_sweep(SweepRequest::new(
                "greedy",
                Arc::clone(&problem),
                vec![Budget::absolute(2)],
            ))
            .unwrap();
        let plans = handle
            .wait_or_cancel(Duration::from_millis(1), || true)
            .unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].divergence(&expected), None);
    }

    #[test]
    fn panicked_request_leaves_siblings_waitable_and_ledger_releasable() {
        // One contained WorkerPanicked request must not poison the
        // slot/ledger locks for anyone else: the sibling handle stays
        // waitable and the tenant's quota still releases to zero.
        #[derive(Debug)]
        struct PanickySolver;
        impl Solver for PanickySolver {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn solve_with_cache<'p>(
                &self,
                _problem: &'p Problem,
                _budget: Budget,
                _cache: &EngineCache<'p>,
            ) -> Result<Plan> {
                panic!("solver exploded");
            }
        }
        let gate = Arc::new(Gate::default());
        let mut registry = SolverRegistry::with_defaults();
        registry.register_solver(Arc::new(GateSolver {
            gate: Arc::clone(&gate),
        }));
        registry.register_solver(Arc::new(PanickySolver));
        let svc = PlannerService::new(
            Arc::new(registry),
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_pool(Arc::new(WorkerPool::new(1))),
        );
        svc.set_quota("alice", QuotaPolicy::default().with_max_in_flight(3));
        let sibling = svc
            .submit(
                SolveRequest::new("gate", dup_problem(8, 43), Budget::absolute(2))
                    .with_tenant("alice"),
            )
            .unwrap();
        gate.wait_entered(1); // the sibling is mid-solve on the worker
        let doomed = svc
            .submit(
                SolveRequest::new("panicky", dup_problem(8, 44), Budget::absolute(1))
                    .with_tenant("alice"),
            )
            .unwrap();
        gate.open_up();
        let err = doomed.wait().unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanicked { .. }));
        assert!(
            sibling.wait().is_ok(),
            "the sibling handle resolved normally after the panic"
        );
        assert_eq!(
            svc.quota_usage(&TenantId::new("alice")),
            QuotaUsage::default(),
            "both leases released despite the panic"
        );
        // The ledger keeps admitting work.
        svc.submit(
            SolveRequest::new("greedy", dup_problem(8, 45), Budget::absolute(1))
                .with_tenant("alice"),
        )
        .unwrap()
        .wait()
        .unwrap();
    }

    #[test]
    fn poisoned_slot_lock_recovers() {
        // Deliberately poison a pending request's point-slot mutex (a
        // waiter panicking while holding it), then verify completion
        // and a later wait both recover instead of cascading the panic.
        let (svc, gate) = gated_service(ServiceOptions::new().with_inline_threshold(0));
        let handle = svc
            .submit(SolveRequest::new(
                "gate",
                dup_problem(8, 46),
                Budget::absolute(2),
            ))
            .unwrap();
        gate.wait_entered(1);
        let state = Arc::clone(&handle.state);
        let _ = std::thread::spawn(move || {
            let _guard = state.points.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        gate.open_up();
        assert!(
            handle.wait().is_ok(),
            "a poisoned slot lock recovers for both the completer and the waiter"
        );
    }

    #[test]
    fn poisoned_tenant_ledger_recovers() {
        let svc = service(ServiceOptions::new());
        let inner = Arc::clone(&svc.inner);
        let _ = std::thread::spawn(move || {
            let _guard = inner.tenants.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        // Quota bookkeeping keeps working on the recovered lock.
        svc.set_quota("alice", QuotaPolicy::default().with_max_in_flight(1));
        svc.submit(
            SolveRequest::new("greedy", dup_problem(8, 47), Budget::absolute(1))
                .with_tenant("alice"),
        )
        .unwrap()
        .wait()
        .unwrap();
        assert_eq!(
            svc.quota_usage(&TenantId::new("alice")),
            QuotaUsage::default()
        );
    }

    #[test]
    fn tenant_quotas_hold_under_concurrent_hammering() {
        // Tenant A hammers the bulk lane into (and past) its quota
        // while tenant B streams interactive claims; B must never be
        // rejected or served a wrong plan, and both ledgers must read
        // zero once the dust settles.
        let svc = PlannerService::new(
            Arc::new(SolverRegistry::with_defaults()),
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_pool(Arc::new(WorkerPool::new(2))),
        );
        svc.set_quota("a", QuotaPolicy::new(3, u64::MAX));
        let problem = dup_problem(12, 35);
        let budgets: Vec<Budget> = (0..5).map(Budget::absolute).collect();
        let expected = svc
            .registry()
            .solve("auto", &problem, Budget::absolute(3))
            .unwrap();
        let rejected = AtomicU64::new(0);
        std::thread::scope(|s| {
            let svc_a = svc.clone();
            let problem_a = Arc::clone(&problem);
            let budgets = &budgets;
            let rejected = &rejected;
            s.spawn(move || {
                for i in 0..20 {
                    match svc_a.submit_sweep(
                        SweepRequest::new("greedy", Arc::clone(&problem_a), budgets.clone())
                            .with_tenant("a"),
                    ) {
                        Ok(handle) if i % 3 == 0 => drop(handle), // churn: abandon
                        Ok(handle) => {
                            handle.wait().unwrap();
                        }
                        Err(CoreError::QuotaExceeded { .. }) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            });
            for _ in 0..2 {
                let svc_b = svc.clone();
                let problem_b = Arc::clone(&problem);
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..8 {
                        let plan = svc_b
                            .submit(
                                SolveRequest::new(
                                    "auto",
                                    Arc::clone(&problem_b),
                                    Budget::absolute(3),
                                )
                                .with_tenant("b"),
                            )
                            .expect("tenant B is never rejected by A's quota")
                            .wait()
                            .unwrap();
                        assert_eq!(plan.divergence(expected), None);
                    }
                });
            }
        });
        assert_eq!(svc.quota_usage(&TenantId::new("a")), QuotaUsage::default());
        assert_eq!(svc.quota_usage(&TenantId::new("b")), QuotaUsage::default());
        let stats = svc.stats();
        assert_eq!(stats.quota_rejected, rejected.load(Ordering::Relaxed));
        // Cancelled sweeps may still be discarding tasks, but the
        // ledger and the counters must already balance.
        assert_eq!(stats.completed + stats.cancelled, stats.submitted);
    }
}
