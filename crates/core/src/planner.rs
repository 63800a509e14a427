//! The unified `Planner` API: one problem abstraction over discrete and
//! Gaussian instances, a [`Solver`] trait, and a string-keyed
//! [`SolverRegistry`] wrapping every algorithm in [`crate::algo`] as a
//! named strategy.
//!
//! The paper defines a single problem family — select a cleaning set
//! under a budget to **MinVar** a claim-quality measure or **MaxPr** a
//! surprise — but solves it with a zoo of algorithms whose applicability
//! depends on the error model (discrete vs. Gaussian) and the query
//! shape (affine vs. merely decomposable). This module makes that
//! routing a first-class, pluggable object:
//!
//! * [`Problem`] — an instance (discrete [`Instance`] or
//!   [`GaussianInstance`]), its query (a shared [`DecomposableQuery`]
//!   or a linear-weight vector), and a [`Goal`];
//! * [`Solver`] — `solve(&self, problem, budget) -> Result<Plan>`;
//! * [`SolverRegistry`] — resolves strategy names (`"greedy"`,
//!   `"optimum-knapsack"`, `"best"`, …) to solvers; unknown names are a
//!   typed [`CoreError::UnknownStrategy`], unsupported combinations a
//!   typed [`CoreError::StrategyUnsupported`];
//! * [`EngineCache`] — memoizes the expensive prefix work (the scoped
//!   Theorem 3.8 engine build, affine extraction, modular benefits) so
//!   budget sweeps and multi-objective batches reuse it — this is the
//!   hot path of every figure binary;
//! * [`Plan`] — the outcome: selection, objective before/after,
//!   resolved strategy name, and evaluation-count diagnostics;
//! * [`exec`] — the sharded parallel batch executor
//!   ([`solve_batch`](exec::solve_batch) / [`sweep`](exec::sweep) with
//!   a [`Parallelism`] knob and admission control);
//! * [`cache`] — the fingerprint-keyed [`CacheStore`] persisting engine
//!   prefix work across call chains and sessions.
//!
//! The original free functions in [`crate::algo`] remain available and
//! are what the solvers delegate to.

pub mod cache;
pub mod exec;
pub mod pool;
pub mod service;

pub use cache::snapshot::{SnapshotError, SnapshotStats};
pub use cache::{CacheKey, CacheStats, CacheStore, Fnv1a};
pub use exec::{BatchJob, CancelToken, ExecOptions, Parallelism, SweepMode};
pub use pool::WorkerPool;
pub use service::{
    Lane, PlannerService, PointOutcome, QuotaPolicy, QuotaUsage, RequestHandle, ServiceOptions,
    ServiceStats, SolveRequest, SweepHandle, SweepRequest, TenantId,
};

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::algo;
use crate::algo::greedy::{greedy_static, GreedyConfig};
use crate::budget::Budget;
use crate::ev::gaussian::MvnSemantics;
use crate::ev::modular::{ev_modular, modular_benefits_gaussian};
use crate::ev::scoped::{ScopedEv, ScopedTables};
use crate::instance::{GaussianInstance, Instance};
use crate::maxpr::{surprise_prob_convolution, surprise_prob_gaussian};
use crate::selection::Selection;
use crate::{CoreError, Result};
use fc_claims::DecomposableQuery;

/// A query shared across solvers and engine caches.
pub type SharedQuery = Arc<dyn DecomposableQuery + Send + Sync>;

/// What the cleaning should optimize.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Goal {
    /// Minimize the expected post-cleaning variance `EV(T)` of the
    /// query (ascertain claim quality).
    MinVar,
    /// Maximize `Pr[f < f(u) − τ]` after cleaning (surface a
    /// counterargument).
    MaxPr {
        /// Surprise threshold `τ ≥ 0`.
        tau: f64,
    },
}

impl Goal {
    /// Whether larger objective values are better under this goal.
    pub fn maximizing(self) -> bool {
        matches!(self, Goal::MaxPr { .. })
    }
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::MinVar => write!(f, "MinVar"),
            Goal::MaxPr { tau } => write!(f, "MaxPr(τ={tau})"),
        }
    }
}

/// The error model + query side of a [`Problem`].
pub(crate) enum Model {
    /// Discrete marginals with a decomposable query.
    Discrete {
        /// The instance.
        instance: Instance,
        /// The query (quality measure) under optimization.
        query: SharedQuery,
    },
    /// (Multivariate) normal errors with a linear query `wᵀX`.
    Gaussian {
        /// The instance.
        instance: GaussianInstance,
        /// Dense query weights (length `n`).
        weights: Vec<f64>,
        /// Covariance semantics used when evaluating objectives.
        semantics: MvnSemantics,
    },
}

/// A fully specified cleaning-selection problem: error model, query,
/// and goal. Solvers never see anything else, which is what lets one
/// registry serve every workload shape.
pub struct Problem {
    pub(crate) model: Model,
    goal: Goal,
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("kind", &self.kind_name())
            .field("n", &self.len())
            .field("goal", &self.goal)
            .finish()
    }
}

/// Validates that a query's object ids fit the instance.
fn check_query_scope(instance: &Instance, query: &SharedQuery) -> Result<()> {
    let n = instance.len();
    if let Some(&object) = query.objects().iter().find(|&&o| o >= n) {
        return Err(CoreError::BadObject { object, len: n });
    }
    Ok(())
}

/// Validates that a weight vector lines up with the instance.
fn check_weights(instance: &GaussianInstance, weights: &[f64]) -> Result<()> {
    if weights.len() != instance.len() {
        return Err(CoreError::LengthMismatch {
            what: "query weights",
            expected: instance.len(),
            got: weights.len(),
        });
    }
    Ok(())
}

impl Problem {
    /// A MinVar problem over a discrete instance. Errors with
    /// [`CoreError::BadObject`] when the query references objects the
    /// instance does not have — a serving system must not panic on
    /// caller input.
    pub fn discrete_min_var(instance: Instance, query: SharedQuery) -> Result<Self> {
        check_query_scope(&instance, &query)?;
        Ok(Self {
            model: Model::Discrete { instance, query },
            goal: Goal::MinVar,
        })
    }

    /// A MaxPr problem over a discrete instance (requires an affine
    /// query at solve time; the convolution engine rejects others).
    /// Validates the query scope like [`Problem::discrete_min_var`].
    pub fn discrete_max_pr(instance: Instance, query: SharedQuery, tau: f64) -> Result<Self> {
        check_query_scope(&instance, &query)?;
        Ok(Self {
            model: Model::Discrete { instance, query },
            goal: Goal::MaxPr { tau },
        })
    }

    /// A MinVar problem over a Gaussian instance with linear query
    /// weights (conditional-posterior evaluation semantics). Errors
    /// with [`CoreError::LengthMismatch`] when the weight vector does
    /// not line up with the instance.
    pub fn gaussian_min_var(instance: GaussianInstance, weights: Vec<f64>) -> Result<Self> {
        check_weights(&instance, &weights)?;
        Ok(Self {
            model: Model::Gaussian {
                instance,
                weights,
                semantics: MvnSemantics::Conditional,
            },
            goal: Goal::MinVar,
        })
    }

    /// A MaxPr problem over a Gaussian instance (Lemma 3.3 territory).
    /// Validates the weight vector like [`Problem::gaussian_min_var`].
    pub fn gaussian_max_pr(
        instance: GaussianInstance,
        weights: Vec<f64>,
        tau: f64,
    ) -> Result<Self> {
        check_weights(&instance, &weights)?;
        Ok(Self {
            model: Model::Gaussian {
                instance,
                weights,
                semantics: MvnSemantics::Conditional,
            },
            goal: Goal::MaxPr { tau },
        })
    }

    /// Overrides the covariance semantics used for Gaussian objective
    /// evaluation (no-op for discrete problems).
    pub fn with_semantics(mut self, s: MvnSemantics) -> Self {
        if let Model::Gaussian { semantics, .. } = &mut self.model {
            *semantics = s;
        }
        self
    }

    /// The optimization goal.
    pub fn goal(&self) -> Goal {
        self.goal
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        match &self.model {
            Model::Discrete { instance, .. } => instance.len(),
            Model::Gaussian { instance, .. } => instance.len(),
        }
    }

    /// Whether the problem has no objects (never true once validated).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cleaning costs.
    pub fn costs(&self) -> &[u64] {
        match &self.model {
            Model::Discrete { instance, .. } => instance.costs(),
            Model::Gaussian { instance, .. } => instance.costs(),
        }
    }

    /// Total cost of cleaning everything.
    pub fn total_cost(&self) -> u64 {
        self.costs().iter().sum()
    }

    /// The discrete instance, when this is a discrete problem.
    pub fn discrete_instance(&self) -> Option<&Instance> {
        match &self.model {
            Model::Discrete { instance, .. } => Some(instance),
            Model::Gaussian { .. } => None,
        }
    }

    /// The Gaussian instance, when this is a Gaussian problem.
    pub fn gaussian_instance(&self) -> Option<&GaussianInstance> {
        match &self.model {
            Model::Gaussian { instance, .. } => Some(instance),
            Model::Discrete { .. } => None,
        }
    }

    /// `"discrete"` / `"gaussian"` — used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match &self.model {
            Model::Discrete { .. } => "discrete",
            Model::Gaussian { .. } => "gaussian",
        }
    }

    /// Dense affine weights of the query, when it has an affine form.
    pub fn affine_weights(&self) -> Option<Vec<f64>> {
        match &self.model {
            Model::Discrete { instance, query } => query.as_affine(instance.len()).map(|(w, _)| w),
            Model::Gaussian { weights, .. } => Some(weights.clone()),
        }
    }

    /// Order-of-magnitude estimate of the engine evaluations a solve of
    /// this problem costs — the admission-control signal of the
    /// parallel executor (problems under
    /// [`ExecOptions::inline_threshold`](exec::ExecOptions) stay on the
    /// caller thread). Affine/modular problems are `O(n)`; non-affine
    /// discrete problems pay per-term outcome enumeration; correlated
    /// Gaussian problems pay dense covariance work.
    pub fn estimated_engine_evals(&self) -> u64 {
        match &self.model {
            Model::Discrete { instance, query } => {
                let n = instance.len() as u64;
                if matches!(self.goal, Goal::MaxPr { .. }) {
                    // MaxPr solves probe `surprise_prob_convolution`,
                    // and every probe pays a bins-wide DP per active
                    // object — orders of magnitude above the O(n)
                    // affine-MinVar path, so charge one full-width
                    // probe. (The greedy solver then probes per step ×
                    // candidate; one probe already dwarfs any sensible
                    // inline threshold.)
                    return n.saturating_mul(crate::maxpr::convolution::DEFAULT_BINS as u64);
                }
                if query.as_affine(instance.len()).is_some() {
                    n
                } else {
                    // The scoped build enumerates Π_{i∈S_k} |support(i)|
                    // outcomes per term k (ScopedTables::build is
                    // O(Σ_k V^{|S_k|})), so charge each term its actual
                    // scope product rather than a flat V².
                    let mut evals = n;
                    for k in 0..query.num_terms() {
                        let term: u64 = query
                            .term_objects(k)
                            .iter()
                            .map(|&i| instance.dist(i).support_size() as u64)
                            .fold(1, u64::saturating_mul);
                        evals = evals.saturating_add(term);
                    }
                    evals
                }
            }
            Model::Gaussian { instance, .. } => {
                let n = instance.len() as u64;
                if instance.is_independent() {
                    n
                } else {
                    n.saturating_mul(n)
                }
            }
        }
    }

    /// FNV-1a fingerprint of the underlying instance contents — the
    /// instance half of a [`CacheKey`]. The query half is the caller's
    /// responsibility (see [`cache`]'s module docs).
    pub fn instance_fingerprint(&self) -> u64 {
        match &self.model {
            Model::Discrete { instance, .. } => cache::fingerprint_instance(instance),
            Model::Gaussian { instance, .. } => cache::fingerprint_gaussian(instance),
        }
    }

    /// Whether a Gaussian instance is centered at its current values
    /// with independent errors — the Lemma 3.3 exact-DP setting.
    fn gaussian_centered_independent(&self) -> bool {
        match &self.model {
            Model::Gaussian { instance, .. } => {
                instance.is_independent()
                    && instance
                        .current()
                        .iter()
                        .enumerate()
                        .all(|(i, &u)| (instance.mean(i) - u).abs() < 1e-12)
            }
            Model::Discrete { .. } => false,
        }
    }

    /// The objective value of cleaning `cleaned`, using the cheapest
    /// exact engine available through `cache`.
    pub fn objective_value<'p>(
        &'p self,
        cache: &EngineCache<'p>,
        cleaned: &[usize],
    ) -> Result<f64> {
        match (&self.model, self.goal) {
            (Model::Discrete { .. }, Goal::MinVar) => {
                if let Some(benefits) = cache.modular_benefits(self) {
                    Ok(ev_modular(benefits, cleaned))
                } else {
                    Ok(cache.scoped(self)?.ev_of(cleaned))
                }
            }
            (Model::Discrete { instance, query }, Goal::MaxPr { tau }) => {
                surprise_prob_convolution(instance, query.as_ref(), cleaned, tau, None)
            }
            (
                Model::Gaussian {
                    instance,
                    weights,
                    semantics,
                },
                Goal::MinVar,
            ) => crate::ev::gaussian::ev_gaussian_linear(instance, weights, cleaned, *semantics),
            (
                Model::Gaussian {
                    instance,
                    weights,
                    semantics,
                },
                Goal::MaxPr { tau },
            ) => surprise_prob_gaussian(instance, weights, cleaned, tau, *semantics),
        }
    }
}

/// Memoized engine state shared across solver calls on the *same*
/// [`Problem`] — build once per problem, pass to every
/// [`Solver::solve_with_cache`] in a budget sweep or objective batch.
/// The scoped Theorem 3.8 engine's precomputation (conditional
/// expectation tables over claim scopes) dominates single-solve latency
/// on uniqueness/robustness workloads; amortizing it is the planner's
/// main serving-path win.
///
/// A cache binds to the first [`Problem`] it is used with; passing a
/// *different* problem to the same cache afterwards panics (it would
/// otherwise silently serve the first problem's engines — a correctness
/// bug, so it is treated like `RefCell` misuse rather than a runtime
/// error).
///
/// A cache built with [`EngineCache::with_store`] additionally checks a
/// persistent [`CacheStore`] before building: the scoped tables and
/// modular benefits are fetched (or built once and published) under the
/// given [`CacheKey`], so repeated sessions over the same dataset skip
/// the scoped-EV prefix work entirely. The key must fingerprint the
/// problem's instance *and* query — see [`cache`]'s module docs.
#[derive(Default)]
pub struct EngineCache<'p> {
    scoped: OnceCell<ScopedEv<'p, dyn DecomposableQuery + Send + Sync>>,
    benefits: OnceCell<Option<Arc<Vec<f64>>>>,
    /// Identity of the problem this cache is bound to.
    bound: std::cell::Cell<Option<*const Problem>>,
    /// Persistent backing, when this cache participates in one.
    store: Option<(Arc<CacheStore>, CacheKey)>,
    /// Store lookups served warm / cold through this cache (feeds
    /// [`PlanDiagnostics::store_hits`] / `store_misses`).
    store_hits: std::cell::Cell<u64>,
    store_misses: std::cell::Cell<u64>,
    /// Sweep-resumption state (`Some` once enabled): carries the
    /// greedy's commit trajectory and benefit memo between budget
    /// points solved through this cache, so a budget sweep replays heap
    /// maintenance instead of re-scoring candidates. Plans stay
    /// byte-identical to independent solves — see
    /// [`algo::greedy::SweepEngine`].
    sweep: std::cell::RefCell<Option<algo::SweepEngine>>,
}

impl<'p> EngineCache<'p> {
    /// An empty cache; engines are built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache backed by a persistent [`CacheStore`]: engine prefix
    /// work is looked up under `key` and published there after a build.
    pub fn with_store(store: Arc<CacheStore>, key: CacheKey) -> Self {
        Self {
            store: Some((store, key)),
            ..Self::default()
        }
    }

    /// Binds the cache to `problem` on first use; panics on a second,
    /// different problem (see the type docs).
    fn bind(&self, problem: &'p Problem) {
        let ptr = problem as *const Problem;
        match self.bound.get() {
            None => self.bound.set(Some(ptr)),
            Some(bound) => assert!(
                std::ptr::eq(bound, ptr),
                "EngineCache reused with a different Problem; \
                 create one cache per problem"
            ),
        }
    }

    /// The scoped Theorem 3.8 engine for a discrete problem (errors on
    /// Gaussian problems, which have closed forms instead).
    pub fn scoped(
        &self,
        problem: &'p Problem,
    ) -> Result<&ScopedEv<'p, dyn DecomposableQuery + Send + Sync>> {
        self.bind(problem);
        match &problem.model {
            Model::Discrete { instance, query } => {
                Ok(self.scoped.get_or_init(|| match &self.store {
                    Some((store, key)) => {
                        let (tables, warm) = store
                            .tables_tracked(*key, || ScopedTables::build(instance, query.as_ref()));
                        self.record_store_lookup(warm);
                        ScopedEv::with_tables(instance, query.as_ref(), tables)
                    }
                    None => ScopedEv::new(instance, query.as_ref()),
                }))
            }
            Model::Gaussian { .. } => Err(CoreError::StrategyUnsupported {
                strategy: "scoped-engine".into(),
                reason: "Gaussian problems use closed forms, not the scoped EV engine".into(),
            }),
        }
    }

    /// Modular (Lemma 3.1) benefits when the problem admits them:
    /// affine discrete queries and all Gaussian linear queries.
    pub fn modular_benefits(&self, problem: &'p Problem) -> Option<&[f64]> {
        self.bind(problem);
        let compute = || match &problem.model {
            Model::Discrete { instance, query } => {
                crate::ev::modular::modular_benefits(instance, query.as_ref()).ok()
            }
            Model::Gaussian {
                instance, weights, ..
            } => Some(modular_benefits_gaussian(instance, weights)),
        };
        self.benefits
            .get_or_init(|| match &self.store {
                Some((store, key)) => {
                    let (benefits, warm) = store.benefits_tracked(*key, compute);
                    self.record_store_lookup(warm);
                    benefits
                }
                None => compute().map(Arc::new),
            })
            .as_ref()
            .map(|v| v.as_slice())
    }

    fn record_store_lookup(&self, warm: bool) {
        let cell = if warm {
            &self.store_hits
        } else {
            &self.store_misses
        };
        cell.set(cell.get() + 1);
    }

    /// Persistent-store lookups this cache served warm (see
    /// [`PlanDiagnostics::store_hits`]).
    pub fn store_hits(&self) -> u64 {
        self.store_hits.get()
    }

    /// Persistent-store lookups this cache had to build for (see
    /// [`PlanDiagnostics::store_misses`]).
    pub fn store_misses(&self) -> u64 {
        self.store_misses.get()
    }

    /// Engine evaluations recorded by the scoped engine so far (zero
    /// when the scoped engine was never built).
    pub fn scoped_evals(&self) -> u64 {
        self.scoped.get().map_or(0, |e| e.eval_count())
    }

    /// Enables sweep-to-sweep greedy resumption for solves through this
    /// cache: budget points share a [`algo::SweepEngine`], so each
    /// point after the first replays the previous trajectory instead of
    /// re-scoring every candidate. Plans are byte-identical to
    /// independent solves (the executor's and service's divergence
    /// gates run over this path), so the only observable difference is
    /// speed. Idempotent.
    pub fn enable_sweep_resume(&self) {
        let mut slot = self.sweep.borrow_mut();
        if slot.is_none() {
            *slot = Some(algo::SweepEngine::new());
        }
    }

    /// The sweep-resumption engine, when enabled.
    fn sweep_engine(&self) -> Option<std::cell::RefMut<'_, algo::SweepEngine>> {
        std::cell::RefMut::filter_map(self.sweep.borrow_mut(), Option::as_mut).ok()
    }
}

/// Evaluation-count diagnostics attached to every [`Plan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PlanDiagnostics {
    /// Objective/engine evaluations attributable to this solve (scoped
    /// engine deltas, probability evaluations, or benefit computations,
    /// depending on the strategy). Best-effort: strategies delegating
    /// to closed-form DPs report the benefit-vector length.
    pub engine_evals: u64,
    /// Candidate objects the strategy considered.
    pub candidates: usize,
    /// Persistent-store lookups the solve's engine cache served warm —
    /// service clients observe warm-vs-cold behavior from the plan
    /// itself instead of reaching into [`CacheStore::stats`]. Zero when
    /// no store was attached. Cumulative over the cache the solve ran
    /// with, so call chains sharing a cache (budget sweeps) report the
    /// chain's counts; a single serving request reports exactly its
    /// own. **Observability, not plan content**: which runner performs
    /// a lookup is scheduling-dependent, so [`Plan::divergence`]
    /// deliberately ignores these two fields.
    pub store_hits: u64,
    /// Persistent-store lookups that had to build (cold). See
    /// [`PlanDiagnostics::store_hits`] for semantics and the
    /// determinism caveat.
    pub store_misses: u64,
}

/// A cleaning recommendation with its predicted effect.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Plan {
    /// The objects to clean.
    pub selection: Selection,
    /// The goal this plan optimizes.
    pub goal: Goal,
    /// Objective value with no cleaning.
    pub before: f64,
    /// Predicted objective value after cleaning the selection.
    pub after: f64,
    /// The resolved strategy that produced the selection (e.g.
    /// `"auto:optimum-knapsack"`).
    pub strategy: String,
    /// Evaluation-count diagnostics.
    pub diagnostics: PlanDiagnostics,
}

impl Plan {
    /// The objective improvement (positive is better for both goals).
    pub fn improvement(&self) -> f64 {
        if self.goal.maximizing() {
            self.after - self.before
        } else {
            self.before - self.after
        }
    }

    /// The first field in which `other` differs from this plan at the
    /// byte level (`f64`s compared by bit pattern), or `None` when the
    /// plans are identical. This is the parallel executor's and the
    /// serving layer's determinism contract — plans produced under any
    /// [`Parallelism`] mode or through the
    /// [`PlannerService`] must compare
    /// identical to the sequential ones — and the one comparison their
    /// tests and CI gates share. The exhaustive destructuring makes
    /// the compiler flag this method when `Plan` (or
    /// [`PlanDiagnostics`]) grows a field, so the gate can never
    /// silently stop covering one.
    ///
    /// The store-observability counters
    /// ([`PlanDiagnostics::store_hits`] / `store_misses`) are the one
    /// deliberate exception: which runner warms the store first is
    /// scheduling-dependent, so they are not plan *content* and are
    /// ignored here.
    pub fn divergence(&self, other: &Plan) -> Option<String> {
        let Plan {
            selection,
            goal,
            before,
            after,
            strategy,
            diagnostics,
        } = self;
        if selection.objects() != other.selection.objects() {
            return Some("selections differ".into());
        }
        if selection.cost() != other.selection.cost() {
            return Some(format!(
                "selection costs differ ({} vs {})",
                selection.cost(),
                other.selection.cost()
            ));
        }
        if *goal != other.goal {
            return Some(format!("goals differ ({} vs {})", goal, other.goal));
        }
        if before.to_bits() != other.before.to_bits() {
            return Some(format!(
                "before-objectives differ ({} vs {})",
                before, other.before
            ));
        }
        if after.to_bits() != other.after.to_bits() {
            return Some(format!(
                "after-objectives differ ({} vs {})",
                after, other.after
            ));
        }
        if strategy != &other.strategy {
            return Some(format!(
                "strategies differ ({} vs {})",
                strategy, other.strategy
            ));
        }
        let PlanDiagnostics {
            engine_evals,
            candidates,
            store_hits: _,   // observability, scheduling-dependent
            store_misses: _, // (see the method docs)
        } = diagnostics;
        if *engine_evals != other.diagnostics.engine_evals
            || *candidates != other.diagnostics.candidates
        {
            return Some(format!(
                "diagnostics differ ({:?} vs {:?})",
                diagnostics, other.diagnostics
            ));
        }
        None
    }
}

fn finish_plan<'p>(
    problem: &'p Problem,
    cache: &EngineCache<'p>,
    selection: Selection,
    strategy: String,
    engine_evals: u64,
    candidates: usize,
) -> Result<Plan> {
    let before = problem.objective_value(cache, &[])?;
    let after = problem.objective_value(cache, selection.objects())?;
    Ok(Plan {
        selection,
        goal: problem.goal(),
        before,
        after,
        strategy,
        diagnostics: PlanDiagnostics {
            engine_evals,
            candidates,
            store_hits: cache.store_hits(),
            store_misses: cache.store_misses(),
        },
    })
}

fn unsupported(strategy: &str, problem: &Problem, detail: &str) -> CoreError {
    CoreError::StrategyUnsupported {
        strategy: strategy.to_string(),
        reason: format!(
            "{} {} problems: {detail}",
            problem.goal(),
            problem.kind_name()
        ),
    }
}

/// A named cleaning-selection algorithm, pluggable into the
/// [`SolverRegistry`].
pub trait Solver: Send + Sync {
    /// The canonical registry name.
    fn name(&self) -> &'static str;

    /// Solves `problem` under `budget` with a fresh engine cache.
    fn solve(&self, problem: &Problem, budget: Budget) -> Result<Plan> {
        let cache = EngineCache::new();
        self.solve_with_cache(problem, budget, &cache)
    }

    /// Solves `problem` under `budget`, reusing `cache` for the
    /// engine prefix work (pass the same cache across a budget sweep).
    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan>;
}

// ---------------------------------------------------------------------
// Named solvers.
// ---------------------------------------------------------------------

/// `auto`: the paper's routing policy. Modular fast paths (exact
/// knapsack DP) whenever the query is affine, the scoped Theorem 3.8
/// greedy for general decomposable MinVar, binned convolution greedy
/// for discrete MaxPr, and the Lemma 3.3 closed form for Gaussian MaxPr
/// (exact DP in the centered-independent setting, exhaustive greedy
/// otherwise).
#[derive(Debug, Default, Clone, Copy)]
pub struct AutoSolver;

impl Solver for AutoSolver {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        let inner: &dyn Solver = match (&problem.model, problem.goal()) {
            (Model::Discrete { .. }, Goal::MinVar) => {
                if cache.modular_benefits(problem).is_some() {
                    &OptimumSolver
                } else {
                    &GreedySolver
                }
            }
            (Model::Discrete { .. }, Goal::MaxPr { .. }) => &GreedySolver,
            (Model::Gaussian { instance, .. }, Goal::MinVar) => {
                if instance.is_independent() {
                    &OptimumSolver
                } else {
                    // With correlations the diagonal knapsack benefits
                    // are wrong; use the covariance-aware greedy (§4.5).
                    &GreedyDepSolver
                }
            }
            (Model::Gaussian { .. }, Goal::MaxPr { .. }) => {
                if problem.gaussian_centered_independent() {
                    &OptimumSolver
                } else {
                    &GreedySolver
                }
            }
        };
        let mut plan = inner.solve_with_cache(problem, budget, cache)?;
        plan.strategy = format!("auto:{}", plan.strategy);
        Ok(plan)
    }
}

/// `greedy`: the Algorithm 1 template with exact marginal benefits —
/// `GreedyMinVar` (modular or scoped-incremental) for MinVar,
/// `GreedyMaxPr` (convolution / Gaussian closed form) for MaxPr.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (Model::Discrete { instance, .. }, Goal::MinVar) => {
                if let Some(benefits) = cache.modular_benefits(problem) {
                    let sel =
                        greedy_static(benefits, instance.costs(), budget, GreedyConfig::default());
                    let n = benefits.len() as u64;
                    finish_plan(
                        problem,
                        cache,
                        sel,
                        "greedy(modular)".into(),
                        n,
                        instance.len(),
                    )
                } else {
                    let eng = cache.scoped(problem)?;
                    let evals0 = eng.eval_count();
                    let sel = match cache.sweep_engine() {
                        Some(mut sweep) => {
                            algo::greedy_min_var_resumed(instance, eng, budget, &mut sweep)
                        }
                        None => algo::greedy_min_var_with_engine(instance, eng, budget),
                    };
                    let evals = eng.eval_count() - evals0;
                    let candidates = eng.relevant_objects().len();
                    finish_plan(
                        problem,
                        cache,
                        sel,
                        "greedy(scoped)".into(),
                        evals,
                        candidates,
                    )
                }
            }
            (Model::Discrete { instance, query }, Goal::MaxPr { tau }) => {
                let sel =
                    algo::greedy_max_pr_discrete(instance, query.as_ref(), budget, tau, None)?;
                let candidates = problem
                    .affine_weights()
                    .map_or(0, |w| w.iter().filter(|&&x| x != 0.0).count());
                finish_plan(
                    problem,
                    cache,
                    sel,
                    "greedy(convolution)".into(),
                    0,
                    candidates,
                )
            }
            (
                Model::Gaussian {
                    instance, weights, ..
                },
                Goal::MinVar,
            ) => {
                let sel = algo::greedy_min_var_gaussian(instance, weights, budget);
                finish_plan(
                    problem,
                    cache,
                    sel,
                    "greedy(gaussian-modular)".into(),
                    instance.len() as u64,
                    instance.len(),
                )
            }
            (
                Model::Gaussian {
                    instance,
                    weights,
                    semantics,
                },
                Goal::MaxPr { tau },
            ) => {
                let sel = algo::greedy_max_pr(instance, weights, budget, tau, *semantics);
                let candidates = weights.iter().filter(|&&x| x != 0.0).count();
                finish_plan(
                    problem,
                    cache,
                    sel,
                    "greedy(gaussian-closed-form)".into(),
                    0,
                    candidates,
                )
            }
        }
    }
}

/// `greedy-from-scratch`: the ablation `GreedyMinVar` that recomputes
/// every candidate benefit per iteration (no incremental state).
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyFromScratchSolver;

impl Solver for GreedyFromScratchSolver {
    fn name(&self) -> &'static str {
        "greedy-from-scratch"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (Model::Discrete { instance, query }, Goal::MinVar) => {
                let sel = algo::greedy_min_var_from_scratch(instance, query.as_ref(), budget);
                finish_plan(
                    problem,
                    cache,
                    sel,
                    "greedy-from-scratch".into(),
                    0,
                    instance.len(),
                )
            }
            _ => Err(unsupported(
                self.name(),
                problem,
                "only discrete MinVar has the from-scratch ablation",
            )),
        }
    }
}

/// `greedy-naive`: benefit = marginal variance per unit cost, blind to
/// the query's structure (§4.1 baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyNaiveSolver;

impl Solver for GreedyNaiveSolver {
    fn name(&self) -> &'static str {
        "greedy-naive"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        let sel = match &problem.model {
            Model::Discrete { instance, query } => {
                algo::greedy_naive(instance, query.as_ref(), budget)
            }
            Model::Gaussian {
                instance, weights, ..
            } => {
                let benefits: Vec<f64> = (0..instance.len())
                    .map(|i| {
                        if weights[i] != 0.0 {
                            instance.variance(i)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                greedy_static(&benefits, instance.costs(), budget, GreedyConfig::default())
            }
        };
        let n = problem.len();
        finish_plan(problem, cache, sel, "greedy-naive".into(), n as u64, n)
    }
}

/// `greedy-naive-cost-blind`: descending marginal variance, ignoring
/// costs entirely (§4.1 baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyNaiveCostBlindSolver;

impl Solver for GreedyNaiveCostBlindSolver {
    fn name(&self) -> &'static str {
        "greedy-naive-cost-blind"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        let sel = match &problem.model {
            Model::Discrete { instance, query } => {
                algo::greedy_naive_cost_blind(instance, query.as_ref(), budget)
            }
            Model::Gaussian {
                instance, weights, ..
            } => {
                let mut order: Vec<usize> =
                    (0..instance.len()).filter(|&i| weights[i] != 0.0).collect();
                order.sort_by(|&a, &b| instance.variance(b).total_cmp(&instance.variance(a)));
                let mut sel = Selection::empty();
                for i in order {
                    if budget.fits(sel.cost(), instance.cost(i)) {
                        sel.insert(i, instance.cost(i));
                    }
                }
                sel
            }
        };
        let n = problem.len();
        finish_plan(
            problem,
            cache,
            sel,
            "greedy-naive-cost-blind".into(),
            n as u64,
            n,
        )
    }
}

/// `random`: shuffle and take what fits — the §4.1 floor baseline.
/// Deterministic per configured seed.
#[derive(Debug, Clone, Copy)]
pub struct RandomSolver {
    /// RNG seed (the default registry uses a fixed seed so batch runs
    /// are reproducible).
    pub seed: u64,
}

impl Default for RandomSolver {
    fn default() -> Self {
        Self { seed: 0x5EED }
    }
}

impl Solver for RandomSolver {
    fn name(&self) -> &'static str {
        "random"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        use rand::seq::SliceRandom;
        let mut rng = fc_uncertain::rng_from_seed(self.seed);
        let costs = problem.costs();
        let mut order: Vec<usize> = (0..problem.len()).collect();
        order.shuffle(&mut rng);
        let mut sel = Selection::empty();
        for i in order {
            if budget.fits(sel.cost(), costs[i]) {
                sel.insert(i, costs[i]);
            }
        }
        let n = problem.len();
        finish_plan(problem, cache, sel, "random".into(), 0, n)
    }
}

/// `optimum-knapsack`: the exact pseudo-polynomial DP of Lemma 3.2 /
/// Lemma 3.3 — requires a modularizable objective (affine query, or
/// Gaussian MaxPr centered at the current values with independent
/// errors).
#[derive(Debug, Default, Clone, Copy)]
pub struct OptimumSolver;

impl Solver for OptimumSolver {
    fn name(&self) -> &'static str {
        "optimum-knapsack"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        if matches!(problem.goal(), Goal::MaxPr { .. })
            && matches!(&problem.model, Model::Gaussian { .. })
            && !problem.gaussian_centered_independent()
        {
            return Err(unsupported(
                self.name(),
                problem,
                "the Lemma 3.3 DP is exact only for independent normals centered at the \
                 current values",
            ));
        }
        if matches!(problem.goal(), Goal::MaxPr { .. })
            && matches!(&problem.model, Model::Discrete { .. })
        {
            return Err(unsupported(
                self.name(),
                problem,
                "discrete MaxPr has no knapsack reduction; use \"greedy\" or \"brute\"",
            ));
        }
        if let Model::Gaussian { instance, .. } = &problem.model {
            if !instance.is_independent() {
                return Err(unsupported(
                    self.name(),
                    problem,
                    "the knapsack benefits assume a diagonal covariance; use \"greedy-dep\" \
                     or \"brute\" for correlated errors",
                ));
            }
        }
        let benefits = cache
            .modular_benefits(problem)
            .ok_or(CoreError::NotAffine)?;
        let (chosen, _) = algo::max_knapsack_dp(benefits, problem.costs(), budget.get());
        let sel = Selection::from_objects(chosen, problem.costs());
        let n = problem.len();
        finish_plan(problem, cache, sel, "optimum-knapsack".into(), n as u64, n)
    }
}

/// `fptas`: the (1−ε)-approximate knapsack of Lemma 3.2, for
/// modularizable objectives.
#[derive(Debug, Clone, Copy)]
pub struct FptasSolver {
    /// Approximation parameter ε ∈ (0, 1).
    pub epsilon: f64,
}

impl Default for FptasSolver {
    fn default() -> Self {
        Self { epsilon: 0.1 }
    }
}

impl Solver for FptasSolver {
    fn name(&self) -> &'static str {
        "fptas"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        if matches!(problem.goal(), Goal::MaxPr { .. }) && !problem.gaussian_centered_independent()
        {
            return Err(unsupported(
                self.name(),
                problem,
                "the knapsack reduction for MaxPr needs centered independent normals",
            ));
        }
        let benefits = cache
            .modular_benefits(problem)
            .ok_or(CoreError::NotAffine)?;
        let (chosen, _) =
            algo::fptas_max_knapsack(benefits, problem.costs(), budget.get(), self.epsilon);
        let sel = Selection::from_objects(chosen, problem.costs());
        let n = problem.len();
        finish_plan(
            problem,
            cache,
            sel,
            format!("fptas(ε={})", self.epsilon),
            n as u64,
            n,
        )
    }
}

/// `best`: Theorem 3.7's submodular-optimization yardstick
/// (majorization–minimization over min-knapsack covers).
#[derive(Debug, Default, Clone, Copy)]
pub struct BestSolver {
    /// Iteration budget per bound family.
    pub config: algo::BestConfig,
}

impl Solver for BestSolver {
    fn name(&self) -> &'static str {
        "best"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (Model::Discrete { instance, .. }, Goal::MinVar) => {
                let eng = cache.scoped(problem)?;
                let evals0 = eng.eval_count();
                let sel = algo::best_min_var_with_engine(instance, eng, budget, self.config);
                let evals = eng.eval_count() - evals0;
                finish_plan(problem, cache, sel, "best".into(), evals, instance.len())
            }
            _ => Err(unsupported(
                self.name(),
                problem,
                "Best targets discrete MinVar (Theorem 3.7)",
            )),
        }
    }
}

/// `bicriteria`: budget-relaxed MinVar (§3.3) — may exceed the budget
/// by the slack factor `1/(1−α)` in exchange for objective quality.
#[derive(Debug, Clone, Copy)]
pub struct BicriteriaSolver {
    /// Quality/slack trade-off `α ∈ (0, 1)`.
    pub alpha: f64,
}

impl Default for BicriteriaSolver {
    fn default() -> Self {
        Self { alpha: 0.5 }
    }
}

impl Solver for BicriteriaSolver {
    fn name(&self) -> &'static str {
        "bicriteria"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (Model::Discrete { instance, .. }, Goal::MinVar) => {
                let eng = cache.scoped(problem)?;
                let evals0 = eng.eval_count();
                let alpha = self.alpha.clamp(1e-6, 0.95);
                let inflated = (budget.get() as f64 / (1.0 - alpha)).floor() as u64;
                let sel =
                    algo::greedy_min_var_with_engine(instance, eng, Budget::absolute(inflated));
                let evals = eng.eval_count() - evals0;
                finish_plan(
                    problem,
                    cache,
                    sel,
                    format!("bicriteria(α={alpha})"),
                    evals,
                    instance.len(),
                )
            }
            _ => Err(unsupported(
                self.name(),
                problem,
                "the bi-criteria relaxation targets discrete MinVar",
            )),
        }
    }
}

/// `brute`: exhaustive subset search — the exact yardstick for small
/// instances, any model and goal.
#[derive(Debug, Clone, Copy)]
pub struct BruteSolver {
    /// Maximum instance size (capped at
    /// [`algo::brute::BRUTE_FORCE_MAX_N`]).
    pub max_n: usize,
}

impl Default for BruteSolver {
    fn default() -> Self {
        Self {
            max_n: crate::algo::brute::BRUTE_FORCE_MAX_N,
        }
    }
}

impl Solver for BruteSolver {
    fn name(&self) -> &'static str {
        "brute"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        let mut evals = 0u64;
        let maximizing = problem.goal().maximizing();
        let sel = algo::brute_force_best(
            problem.costs(),
            budget,
            |s| {
                evals += 1;
                problem
                    .objective_value(cache, s.objects())
                    .unwrap_or(if maximizing {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    })
            },
            !maximizing,
            self.max_n,
        )?;
        let n = problem.len();
        finish_plan(problem, cache, sel, "brute".into(), evals, n)
    }
}

/// `greedy-dep`: the §4.5 covariance-aware greedy over the Gaussian
/// conditional posterior.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyDepSolver;

impl Solver for GreedyDepSolver {
    fn name(&self) -> &'static str {
        "greedy-dep"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (
                Model::Gaussian {
                    instance, weights, ..
                },
                Goal::MinVar,
            ) => {
                let sel = algo::greedy_dep(instance, weights, budget);
                finish_plan(problem, cache, sel, "greedy-dep".into(), 0, instance.len())
            }
            _ => Err(unsupported(
                self.name(),
                problem,
                "GreedyDep targets Gaussian MinVar with dependency knowledge",
            )),
        }
    }
}

/// `adaptive`: the §6 sequential MaxPr policy, planned against the
/// expectation — the simulation reveals each cleaned object at its
/// distribution mean, standing in for the unknown truth. Use
/// [`algo::adaptive_max_pr_simulate`] directly to replay real outcomes.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptiveSolver;

impl Solver for AdaptiveSolver {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (Model::Discrete { instance, query }, Goal::MaxPr { tau }) => {
                let means: Vec<f64> = (0..instance.len())
                    .map(|i| instance.dist(i).mean())
                    .collect();
                let outcome =
                    algo::adaptive_max_pr_simulate(instance, query.as_ref(), budget, tau, &means)?;
                finish_plan(
                    problem,
                    cache,
                    outcome.selection,
                    "adaptive(mean-truth)".into(),
                    0,
                    instance.len(),
                )
            }
            _ => Err(unsupported(
                self.name(),
                problem,
                "adaptive cleaning targets discrete MaxPr",
            )),
        }
    }
}

/// `partial-greedy`: MinVar under the §6 partial-cleaning model —
/// cleaning shrinks uncertainty by a uniform residual factor `ρ`
/// instead of eliminating it. Affine queries only.
#[derive(Debug, Clone, Copy)]
pub struct PartialGreedySolver {
    /// Uniform residual factor `ρ ∈ [0, 1]` (0 = full cleaning).
    pub rho: f64,
}

impl Default for PartialGreedySolver {
    fn default() -> Self {
        Self { rho: 0.5 }
    }
}

impl Solver for PartialGreedySolver {
    fn name(&self) -> &'static str {
        "partial-greedy"
    }

    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        match (&problem.model, problem.goal()) {
            (Model::Discrete { instance, query }, Goal::MinVar) => {
                let residual = algo::ResidualModel::uniform(instance.len(), self.rho)?;
                let sel =
                    algo::greedy_min_var_partial(instance, query.as_ref(), &residual, budget)?;
                // Under partial cleaning the post-cleaning EV keeps the
                // ρ² residue of each cleaned object's contribution.
                let full = cache
                    .modular_benefits(problem)
                    .ok_or(CoreError::NotAffine)?;
                let before: f64 = full.iter().sum();
                let removed: f64 = sel
                    .objects()
                    .iter()
                    .map(|&i| full[i] * (1.0 - self.rho * self.rho))
                    .sum();
                let n = instance.len();
                Ok(Plan {
                    after: (before - removed).max(0.0),
                    before,
                    selection: sel,
                    goal: problem.goal(),
                    strategy: format!("partial-greedy(ρ={})", self.rho),
                    diagnostics: PlanDiagnostics {
                        engine_evals: n as u64,
                        candidates: n,
                        store_hits: cache.store_hits(),
                        store_misses: cache.store_misses(),
                    },
                })
            }
            _ => Err(unsupported(
                self.name(),
                problem,
                "partial cleaning targets discrete MinVar with affine queries",
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// String-keyed solver registry. [`SolverRegistry::with_defaults`]
/// registers every algorithm in the reproduction as a named strategy;
/// [`SolverRegistry::register`] adds or overrides entries (custom
/// engines plug in without touching call sites).
pub struct SolverRegistry {
    solvers: BTreeMap<String, Arc<dyn Solver>>,
}

impl SolverRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            solvers: BTreeMap::new(),
        }
    }

    /// The full default lineup.
    pub fn with_defaults() -> Self {
        let mut r = Self::empty();
        r.register_solver(Arc::new(AutoSolver));
        r.register_solver(Arc::new(GreedySolver));
        r.register_solver(Arc::new(GreedyFromScratchSolver));
        r.register_solver(Arc::new(GreedyNaiveSolver));
        r.register_solver(Arc::new(GreedyNaiveCostBlindSolver));
        r.register_solver(Arc::new(RandomSolver::default()));
        r.register_solver(Arc::new(OptimumSolver));
        r.register_solver(Arc::new(FptasSolver::default()));
        r.register_solver(Arc::new(BestSolver::default()));
        r.register_solver(Arc::new(BicriteriaSolver::default()));
        r.register_solver(Arc::new(BruteSolver::default()));
        r.register_solver(Arc::new(GreedyDepSolver));
        r.register_solver(Arc::new(AdaptiveSolver));
        r.register_solver(Arc::new(PartialGreedySolver::default()));
        r
    }

    /// Registers `solver` under its canonical name.
    pub fn register_solver(&mut self, solver: Arc<dyn Solver>) {
        self.solvers.insert(solver.name().to_string(), solver);
    }

    /// Registers `solver` under an explicit `name` (overrides).
    pub fn register(&mut self, name: impl Into<String>, solver: Arc<dyn Solver>) {
        self.solvers.insert(name.into(), solver);
    }

    /// Resolves a strategy name.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Solver>> {
        self.solvers
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownStrategy {
                name: name.to_string(),
            })
    }

    /// Registered strategy names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.solvers.keys().map(String::as_str).collect()
    }

    /// Resolves `strategy` and solves with a fresh cache.
    pub fn solve(&self, strategy: &str, problem: &Problem, budget: Budget) -> Result<Plan> {
        self.get(strategy)?.solve(problem, budget)
    }

    /// Resolves `strategy` and solves with a shared cache.
    pub fn solve_with_cache<'p>(
        &self,
        strategy: &str,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> Result<Plan> {
        self.get(strategy)?.solve_with_cache(problem, budget, cache)
    }

    /// Solves the same problem across a budget sweep, sharing one
    /// engine cache — the hot path of the figure binaries.
    pub fn sweep(
        &self,
        strategy: &str,
        problem: &Problem,
        budgets: &[Budget],
    ) -> Result<Vec<Plan>> {
        let solver = self.get(strategy)?;
        let cache = EngineCache::new();
        budgets
            .iter()
            .map(|&b| solver.solve_with_cache(problem, b, &cache))
            .collect()
    }

    /// [`SolverRegistry::sweep`] through the parallel executor: budget
    /// points are sharded across workers per `opts`, sharing the engine
    /// prefix work, and the plans come back in budget order,
    /// byte-identical to the sequential ones (see [`exec`]).
    ///
    /// `key` is the problem's persistence identity for
    /// [`ExecOptions::store`] lookups (see [`cache`]'s module docs for
    /// the fingerprint contract); pass `None` to skip the persistent
    /// store — the prefix work is then shared only within this call.
    pub fn sweep_with(
        &self,
        strategy: &str,
        problem: &Problem,
        budgets: &[Budget],
        opts: &ExecOptions,
        key: Option<CacheKey>,
    ) -> Result<Vec<Plan>> {
        exec::sweep(self, strategy, problem, budgets, opts, key)
    }

    /// Solves a heterogeneous batch of jobs through the parallel
    /// executor (see [`exec::solve_batch`]).
    pub fn solve_batch(&self, jobs: &[BatchJob<'_>], opts: &ExecOptions) -> Result<Vec<Plan>> {
        exec::solve_batch(self, jobs, opts)
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("strategies", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_claims::{BiasQuery, ClaimSet, Direction, DupQuery, LinearClaim};
    use fc_uncertain::DiscreteDist;

    fn claims() -> ClaimSet {
        ClaimSet::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            vec![
                LinearClaim::window_sum(0, 2).unwrap(),
                LinearClaim::window_sum(2, 2).unwrap(),
            ],
            vec![0.5, 0.5],
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    fn discrete_instance() -> Instance {
        Instance::new(
            vec![
                DiscreteDist::uniform_over(&[0.0, 4.0]).unwrap(),
                DiscreteDist::uniform_over(&[1.0, 3.0]).unwrap(),
                DiscreteDist::uniform_over(&[0.0, 6.0]).unwrap(),
                DiscreteDist::uniform_over(&[2.0, 4.0]).unwrap(),
            ],
            vec![2.0, 2.0, 3.0, 3.0],
            vec![1, 1, 2, 1],
        )
        .unwrap()
    }

    fn bias_min_var_problem() -> Problem {
        Problem::discrete_min_var(discrete_instance(), Arc::new(BiasQuery::new(claims(), 5.0)))
            .unwrap()
    }

    #[test]
    fn auto_routes_affine_to_optimum() {
        let p = bias_min_var_problem();
        let plan = SolverRegistry::with_defaults()
            .solve("auto", &p, Budget::absolute(2))
            .unwrap();
        assert_eq!(plan.strategy, "auto:optimum-knapsack");
        assert!(plan.selection.cost() <= 2);
        assert!(plan.after <= plan.before + 1e-12);
    }

    #[test]
    fn auto_routes_decomposable_to_scoped_greedy() {
        let p =
            Problem::discrete_min_var(discrete_instance(), Arc::new(DupQuery::new(claims(), 5.0)))
                .unwrap();
        let plan = SolverRegistry::with_defaults()
            .solve("auto", &p, Budget::absolute(2))
            .unwrap();
        assert_eq!(plan.strategy, "auto:greedy(scoped)");
        assert!(plan.diagnostics.engine_evals > 0, "scoped evals tracked");
    }

    #[test]
    fn unknown_strategy_is_typed() {
        let p = bias_min_var_problem();
        let err = SolverRegistry::with_defaults()
            .solve("no-such-solver", &p, Budget::absolute(1))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownStrategy { name } if name == "no-such-solver"));
    }

    #[test]
    fn unsupported_combination_is_typed() {
        // Best on a Gaussian problem is a typed refusal, not a panic.
        let g = GaussianInstance::centered_independent(vec![0.0; 3], &[1.0, 2.0, 3.0], vec![1; 3])
            .unwrap();
        let p = Problem::gaussian_min_var(g, vec![1.0, 1.0, 1.0]).unwrap();
        let err = SolverRegistry::with_defaults()
            .solve("best", &p, Budget::absolute(1))
            .unwrap_err();
        assert!(matches!(err, CoreError::StrategyUnsupported { .. }));
    }

    #[test]
    fn malformed_problem_inputs_are_typed_errors() {
        // Wrong-length weight vectors must not panic inside solvers.
        let g =
            GaussianInstance::centered_independent(vec![0.0; 4], &[1.0; 4], vec![1; 4]).unwrap();
        let err = Problem::gaussian_min_var(g.clone(), vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::LengthMismatch {
                expected: 4,
                got: 2,
                ..
            }
        ));
        let err = Problem::gaussian_max_pr(g, vec![1.0; 7], 0.5).unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { got: 7, .. }));
        // A query referencing objects beyond the instance is rejected
        // at construction, not at first engine access.
        let err = Problem::discrete_min_var(
            discrete_instance(), // 4 objects; claims() references 0..4 only
            Arc::new(BiasQuery::new(
                ClaimSet::new(
                    LinearClaim::window_sum(0, 2).unwrap(),
                    vec![LinearClaim::window_sum(6, 2).unwrap()],
                    vec![1.0],
                    Direction::HigherIsStronger,
                )
                .unwrap(),
                0.0,
            )),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadObject { object: 6, len: 4 }));
    }

    #[test]
    fn correlated_gaussian_min_var_routes_to_greedy_dep() {
        // Near-duplicate objects 0/1 (γ = 0.95) with an expensive
        // decoy: the diagonal knapsack would mislabel its answer as
        // "optimum"; auto must route to the covariance-aware greedy
        // and the optimum-knapsack strategy must refuse outright.
        let mvn = fc_uncertain::MultivariateNormal::with_geometric_dependency(
            vec![0.0; 4],
            &[1.0, 1.0, 1.0, 10.0],
            0.95,
        )
        .unwrap();
        let g = GaussianInstance::with_mvn(mvn, vec![0.0; 4], vec![1, 1, 1, 100]).unwrap();
        let p = Problem::gaussian_min_var(g, vec![1.0; 4]).unwrap();
        let reg = SolverRegistry::with_defaults();
        let plan = reg.solve("auto", &p, Budget::absolute(2)).unwrap();
        assert_eq!(plan.strategy, "auto:greedy-dep");
        let err = reg
            .solve("optimum-knapsack", &p, Budget::absolute(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::StrategyUnsupported { .. }));
        // And the dep-aware plan beats the blind diagonal greedy.
        let blind = reg.solve("greedy", &p, Budget::absolute(2)).unwrap();
        assert!(plan.after <= blind.after + 1e-9);
    }

    #[test]
    #[should_panic(expected = "EngineCache reused with a different Problem")]
    fn engine_cache_rejects_problem_swap() {
        let p1 = bias_min_var_problem();
        let p2 = bias_min_var_problem();
        let cache = EngineCache::new();
        let _ = cache.modular_benefits(&p1);
        let _ = cache.modular_benefits(&p2);
    }

    #[test]
    fn sweep_shares_engine_and_is_monotone() {
        let p =
            Problem::discrete_min_var(discrete_instance(), Arc::new(DupQuery::new(claims(), 5.0)))
                .unwrap();
        let budgets: Vec<Budget> = (0..=5).map(Budget::absolute).collect();
        let plans = SolverRegistry::with_defaults()
            .sweep("greedy", &p, &budgets)
            .unwrap();
        assert_eq!(plans.len(), budgets.len());
        for w in plans.windows(2) {
            assert!(
                w[1].after <= w[0].after + 1e-9,
                "EV after cleaning must not grow with budget"
            );
        }
        // All plans share one `before`.
        for plan in &plans {
            assert!((plan.before - plans[0].before).abs() < 1e-12);
        }
    }

    #[test]
    fn gaussian_min_var_and_max_pr_through_registry() {
        let g = GaussianInstance::centered_independent(
            vec![10.0, 20.0, 30.0],
            &[3.0, 1.0, 2.0],
            vec![1, 1, 1],
        )
        .unwrap();
        let reg = SolverRegistry::with_defaults();

        let p = Problem::gaussian_min_var(g.clone(), vec![1.0, 1.0, 1.0]).unwrap();
        let plan = reg.solve("auto", &p, Budget::absolute(2)).unwrap();
        assert_eq!(plan.strategy, "auto:optimum-knapsack");
        // Cleans the two highest-variance objects.
        assert_eq!(plan.selection.objects(), &[0, 2]);
        assert!(plan.after < plan.before);

        let p = Problem::gaussian_max_pr(g, vec![1.0, 1.0, 1.0], 0.5).unwrap();
        let plan = reg.solve("auto", &p, Budget::absolute(2)).unwrap();
        assert_eq!(plan.strategy, "auto:optimum-knapsack");
        assert_eq!(plan.selection.objects(), &[0, 2]);
        assert!(plan.after > plan.before, "surprise probability grows");
        assert!(plan.after <= 1.0);
    }

    #[test]
    fn brute_matches_optimum_on_modular_problem() {
        let p = bias_min_var_problem();
        let reg = SolverRegistry::with_defaults();
        for b in 1..=4u64 {
            let brute = reg.solve("brute", &p, Budget::absolute(b)).unwrap();
            let opt = reg
                .solve("optimum-knapsack", &p, Budget::absolute(b))
                .unwrap();
            assert!(
                (brute.after - opt.after).abs() < 1e-9,
                "budget {b}: {} vs {}",
                brute.after,
                opt.after
            );
        }
    }

    #[test]
    fn every_default_strategy_solves_something_and_respects_budget() {
        let reg = SolverRegistry::with_defaults();
        // Problems covering all (model, goal) quadrants.
        let problems = [
            bias_min_var_problem(),
            Problem::discrete_min_var(discrete_instance(), Arc::new(DupQuery::new(claims(), 5.0)))
                .unwrap(),
            Problem::discrete_max_pr(
                discrete_instance(),
                Arc::new(BiasQuery::new(claims(), 5.0)),
                0.5,
            )
            .unwrap(),
            Problem::gaussian_min_var(
                GaussianInstance::centered_independent(
                    vec![0.0; 4],
                    &[1.0, 2.0, 3.0, 4.0],
                    vec![1, 2, 1, 2],
                )
                .unwrap(),
                vec![1.0, -1.0, 1.0, 1.0],
            )
            .unwrap(),
            Problem::gaussian_max_pr(
                GaussianInstance::centered_independent(
                    vec![0.0; 4],
                    &[1.0, 2.0, 3.0, 4.0],
                    vec![1, 2, 1, 2],
                )
                .unwrap(),
                vec![1.0, -1.0, 1.0, 1.0],
                0.25,
            )
            .unwrap(),
        ];
        let budget = Budget::absolute(3);
        for name in reg.names() {
            let mut solved = 0;
            for p in &problems {
                match reg.solve(name, p, budget) {
                    Ok(plan) => {
                        solved += 1;
                        assert!(!plan.strategy.is_empty());
                        let cap = if name == "bicriteria" {
                            // Documented slack: c(T) ≤ C/(1−α), α = 0.5.
                            budget.get() * 2
                        } else {
                            budget.get()
                        };
                        assert!(
                            plan.selection.cost() <= cap,
                            "{name} on {p:?}: cost {} > {cap}",
                            plan.selection.cost()
                        );
                    }
                    Err(CoreError::StrategyUnsupported { .. }) | Err(CoreError::NotAffine) => {}
                    Err(e) => panic!("{name} on {p:?}: unexpected error {e}"),
                }
            }
            assert!(solved > 0, "{name} solved none of the canonical problems");
        }
    }
}
