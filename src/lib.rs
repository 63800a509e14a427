//! # fact-clean
//!
//! A full Rust reproduction of *"Selecting Data to Clean for Fact
//! Checking: Minimizing Uncertainty vs. Maximizing Surprise"* (Sintos,
//! Agarwal, Yang; VLDB 2019): given a claim over a database with
//! uncertain values and a cleaning budget, decide **which values to
//! clean** so as to either minimize the remaining uncertainty in a
//! claim-quality measure (**MinVar**) or maximize the probability of
//! surfacing a counterargument (**MaxPr**).
//!
//! This crate is the public façade over the substrate crates
//! (`fc-uncertain`, `fc-claims`, `fc-core`, `fc-datasets`). Its
//! serving surface is the **unified planner API**:
//!
//! * [`SessionBuilder`] constructs a
//!   [`CleaningSession`] over either error model — discrete marginals
//!   or Gaussian — with an optional custom
//!   [`SolverRegistry`](fc_core::SolverRegistry);
//! * [`ObjectiveSpec`] describes a request:
//!   measure (`bias`/`dup`/`frag`) × goal (`MinVar`/`MaxPr{τ}`) ×
//!   strategy (`Auto` routing per the paper, or any named registry
//!   strategy such as `"best"`, `"optimum-knapsack"`, `"brute"`);
//! * [`CleaningSession::recommend`],
//!   [`recommend_many`](CleaningSession::recommend_many), and
//!   [`recommend_sweep`](CleaningSession::recommend_sweep) serve one
//!   objective, an objective batch, or a budget sweep (sharing engine
//!   prefix work across the sweep);
//! * results are [`Plan`](fc_core::Plan)s: the selection, objective
//!   before/after, the resolved strategy name, and evaluation
//!   diagnostics;
//! * batches and sweeps are sharded across a worker pool
//!   ([`SessionBuilder::parallelism`](builder::SessionBuilder::parallelism)
//!   with a [`Parallelism`](fc_core::Parallelism) knob — plans stay
//!   byte-identical to sequential execution), and a shared
//!   [`CacheStore`](fc_core::CacheStore)
//!   ([`SessionBuilder::cache_store`](builder::SessionBuilder::cache_store))
//!   persists the scoped-EV prefix work across sessions, keyed on
//!   (instance fingerprint, measure identity).
//!
//! ```
//! use fact_clean::prelude::*;
//!
//! // Five years of crime counts with uncertain true values (Example 2).
//! let current = vec![9010.0, 9275.0, 9300.0, 9125.0, 9430.0];
//! let dists: Vec<DiscreteDist> = current
//!     .iter()
//!     .map(|&u| DiscreteDist::uniform_over(&[u - 40.0, u, u + 40.0]).unwrap())
//!     .collect();
//! let instance = Instance::new(dists, current, vec![1; 5]).unwrap();
//!
//! // "Crimes went up by more than 300 from last year" and its
//! // window perturbations.
//! let claims = ClaimSet::new(
//!     LinearClaim::window_comparison(3, 4, 1).unwrap(),
//!     vec![
//!         LinearClaim::window_comparison(2, 3, 1).unwrap(),
//!         LinearClaim::window_comparison(1, 2, 1).unwrap(),
//!     ],
//!     vec![1.0, 1.0],
//!     Direction::HigherIsStronger,
//! )
//! .unwrap();
//!
//! let session = SessionBuilder::new()
//!     .discrete(instance)
//!     .claims(claims)
//!     .build()
//!     .unwrap();
//!
//! // One batched request: ascertain all three measures and hunt a
//! // counterargument, all through the same solver registry.
//! let plans = session
//!     .recommend_many(
//!         &[
//!             ObjectiveSpec::ascertain(Measure::Bias),
//!             ObjectiveSpec::ascertain(Measure::Dup),
//!             ObjectiveSpec::ascertain(Measure::Frag),
//!             ObjectiveSpec::find_counter(10.0),
//!         ],
//!         Budget::absolute(2),
//!     )
//!     .unwrap();
//! assert_eq!(plans.len(), 4);
//! for plan in &plans {
//!     assert!(plan.selection.cost() <= 2);
//!     assert!(!plan.strategy.is_empty());
//! }
//! ```

pub mod builder;
pub mod net;
pub mod planner;
pub mod serve;
pub mod session;

pub use fc_claims as claims;
pub use fc_core as core;
pub use fc_datasets as datasets;
pub use fc_uncertain as uncertain;

pub use builder::SessionBuilder;
pub use net::{PlannerServer, ServerConfig, ServerHandle};
pub use planner::{Goal, Measure, ObjectiveSpec, Strategy};
pub use serve::ClaimStream;
pub use session::{CleaningSession, DataModel};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::builder::SessionBuilder;
    pub use crate::net::{PlannerServer, ServerConfig, ServerHandle};
    pub use crate::planner::{Goal, Measure, ObjectiveSpec, Strategy};
    pub use crate::serve::ClaimStream;
    pub use crate::session::{CleaningSession, DataModel};
    pub use fc_claims::{
        quality::{BiasQuery, DupQuery, FragQuery},
        ClaimSet, Direction, LinearClaim,
    };
    pub use fc_core::planner::service::{
        Lane, PlannerService, PointOutcome, QuotaPolicy, QuotaUsage, RequestHandle, ServiceOptions,
        SolveRequest, SweepHandle, SweepRequest, TenantId,
    };
    pub use fc_core::CancelToken;
    pub use fc_core::{
        Budget, CacheStore, GaussianInstance, Instance, Parallelism, Plan, Problem, Selection,
        Solver, SolverRegistry,
    };
    pub use fc_datasets as datasets;
    pub use fc_uncertain::{DiscreteDist, Normal};
}
