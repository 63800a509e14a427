//! # fc-core — cleaning-selection optimization (MinVar & MaxPr)
//!
//! The primary contribution of Sintos, Agarwal & Yang (VLDB 2019): given a
//! database of objects with uncertain true values, per-object cleaning
//! costs, a budget, and a query function `f`, choose which objects to
//! clean so as to
//!
//! * **MinVar** — minimize the expected variance of `f(X)` remaining after
//!   cleaning (ascertain claim quality), or
//! * **MaxPr** — maximize the probability that `f` after cleaning lands
//!   more than `τ` below its pre-cleaning value (find a counterargument).
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`instance`] | [`Instance`] (discrete marginals) and [`GaussianInstance`] (normal / multivariate-normal error models) |
//! | [`selection`] | [`Selection`] — a chosen cleaning set with its cost |
//! | [`budget`]   | [`Budget`] helpers (absolute / fraction-of-total) |
//! | [`ev`]       | `EV(T)` engines: exact joint enumeration, the scoped Theorem 3.8 engine, the modular Lemma 3.1 fast path, Monte Carlo, and Gaussian closed forms |
//! | [`maxpr`]    | surprise-probability engines: Gaussian closed form (Lemma 3.3), exact enumeration, binned convolution, Monte Carlo |
//! | [`algo`]     | Algorithm 1 greedy template and all algorithm variants: `Random`, `GreedyNaive(CostBlind)`, `GreedyMinVar`, `GreedyMaxPr`, knapsack `Optimum` + FPTAS, submodular `Best` (Theorem 3.7), bi-criteria, brute-force `OPT`, dependency-aware `GreedyDep`, and an adaptive MaxPr policy (§6 future work) |

pub mod algo;
pub mod budget;
pub mod ev;
pub mod instance;
pub mod maxpr;
pub mod planner;
pub mod selection;

pub use budget::Budget;
pub use instance::{GaussianInstance, Instance};
pub use planner::{
    BatchJob, CacheKey, CacheStats, CacheStore, CancelToken, EngineCache, ExecOptions, Goal, Lane,
    Parallelism, Plan, PlanDiagnostics, PlannerService, PointOutcome, Problem, QuotaPolicy,
    QuotaUsage, RequestHandle, ServiceOptions, ServiceStats, SnapshotError, SnapshotStats,
    SolveRequest, Solver, SolverRegistry, SweepHandle, SweepMode, SweepRequest, TenantId,
    WorkerPool,
};
pub use selection::Selection;

use std::fmt;

/// Errors from optimization-problem construction or solving.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm so future variants are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Instance vectors had inconsistent lengths.
    LengthMismatch {
        /// Field with the offending length.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// An instance had zero objects.
    EmptyInstance,
    /// A cleaning cost was zero (benefit/cost ratios would be undefined).
    ZeroCost {
        /// Object with zero cost.
        object: usize,
    },
    /// An object index was out of range.
    BadObject {
        /// The offending index.
        object: usize,
        /// Number of objects.
        len: usize,
    },
    /// Brute-force search was asked to enumerate too many subsets.
    TooLargeForBruteForce {
        /// Number of objects requested.
        n: usize,
        /// Maximum supported.
        max: usize,
    },
    /// The query is not affine, but an affine-only algorithm was invoked.
    NotAffine,
    /// An error bubbled up from the uncertainty substrate.
    Uncertain(fc_uncertain::UncertainError),
    /// A strategy name did not resolve in the [`SolverRegistry`].
    UnknownStrategy {
        /// The unresolved name.
        name: String,
    },
    /// A named strategy cannot solve the given problem shape.
    StrategyUnsupported {
        /// The strategy that refused.
        strategy: String,
        /// Why (problem kind, goal, or query shape).
        reason: String,
    },
    /// A budget fraction was NaN or otherwise non-finite.
    NonFiniteBudgetFraction,
    /// A builder was finalized before a required component was set.
    BuilderIncomplete {
        /// The missing component.
        what: &'static str,
    },
    /// A serving-layer worker panicked while executing a request. The
    /// panic is contained to the request (the pool and the service keep
    /// running); its payload is reported here.
    WorkerPanicked {
        /// The panic payload, rendered to text.
        detail: String,
    },
    /// The request was cancelled (explicitly, or by dropping its
    /// [`RequestHandle`]) before a result was produced.
    Cancelled,
    /// A submit would push the tenant past its [`planner::service::QuotaPolicy`].
    /// The request was rejected before any work was queued; retry after
    /// in-flight requests complete (or are cancelled).
    QuotaExceeded {
        /// The tenant whose quota was exhausted.
        tenant: String,
        /// Which limit tripped, with the observed and allowed values.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected length {expected}, got {got}"),
            Self::EmptyInstance => write!(f, "instance has no objects"),
            Self::ZeroCost { object } => write!(f, "object {object} has zero cleaning cost"),
            Self::BadObject { object, len } => {
                write!(f, "object index {object} out of range (n = {len})")
            }
            Self::TooLargeForBruteForce { n, max } => {
                write!(f, "brute force supports at most {max} objects, got {n}")
            }
            Self::NotAffine => write!(f, "query function is not affine"),
            Self::Uncertain(e) => write!(f, "uncertainty substrate: {e}"),
            Self::UnknownStrategy { name } => {
                write!(f, "unknown solver strategy {name:?}")
            }
            Self::StrategyUnsupported { strategy, reason } => {
                write!(
                    f,
                    "strategy {strategy:?} cannot solve this problem: {reason}"
                )
            }
            Self::NonFiniteBudgetFraction => {
                write!(f, "budget fraction must be finite")
            }
            Self::BuilderIncomplete { what } => {
                write!(f, "builder is missing a required component: {what}")
            }
            Self::WorkerPanicked { detail } => {
                write!(f, "serving worker panicked: {detail}")
            }
            Self::Cancelled => write!(f, "request was cancelled"),
            Self::QuotaExceeded { tenant, reason } => {
                write!(f, "quota exceeded for tenant {tenant:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Uncertain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fc_uncertain::UncertainError> for CoreError {
    fn from(e: fc_uncertain::UncertainError) -> Self {
        Self::Uncertain(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
