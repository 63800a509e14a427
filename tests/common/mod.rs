//! Fixtures shared by the integration tests: the 5-object crime
//! session, window-sum sessions over the paper's datasets, and a
//! deliberately slow solver.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::sync::Arc;
use std::time::Duration;

use fact_clean::prelude::*;
use fc_claims::window_sum_family;
use fc_core::{EngineCache, Result as CoreResult, SolverRegistry};
use fc_datasets::workloads::LAMBDA;

/// The crime session over all five objects of the test series.
pub fn session() -> CleaningSession {
    session_over(5)
}

/// The first `n` (3 to 5) objects of the test series; the claim
/// compares the last two, each perturbation an earlier adjacent pair.
pub fn session_over(n: usize) -> CleaningSession {
    let current = [9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0][..n].to_vec();
    let dists: Vec<DiscreteDist> = current
        .iter()
        .map(|&u| DiscreteDist::uniform_over(&[u - 40.0, u, u + 40.0]).unwrap())
        .collect();
    let instance = Instance::new(dists, current, vec![1; n]).unwrap();
    let claims = ClaimSet::new(
        LinearClaim::window_comparison(n - 2, n - 1, 1).unwrap(),
        (0..n - 2)
            .rev()
            .map(|i| LinearClaim::window_comparison(i, i + 1, 1).unwrap())
            .collect(),
        vec![1.0; n - 2],
        Direction::HigherIsStronger,
    )
    .unwrap();
    CleaningSession::new(instance, claims)
}

/// A sequential session over `instance` with the window-sum claim
/// family (every `window`-wide sum against the last one), the family
/// all three measures and MaxPr solve quickly on.
pub fn window_session(instance: &Instance, window: usize) -> CleaningSession {
    let n = instance.len();
    let claims = window_sum_family(n, window, n - window, Direction::LowerIsStronger, LAMBDA)
        .expect("window fits the instance");
    SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims)
        .parallelism(Parallelism::Sequential)
        .build()
        .expect("data and claims are set")
}

/// A solver that sleeps before delegating to greedy — long enough for
/// a disconnect probe to land mid-solve or between budget points.
pub struct SlowSolver {
    pub delegate: Arc<dyn Solver>,
    pub delay: Duration,
}

impl std::fmt::Debug for SlowSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowSolver")
            .field("delay", &self.delay)
            .finish()
    }
}

impl Solver for SlowSolver {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> CoreResult<Plan> {
        std::thread::sleep(self.delay);
        self.delegate.solve_with_cache(problem, budget, cache)
    }
}

/// The default registry plus a `"slow"` strategy: greedy after
/// `delay`.
pub fn registry_with_slow(delay: Duration) -> Arc<SolverRegistry> {
    let mut registry = SolverRegistry::with_defaults();
    let delegate = registry.get("greedy").unwrap();
    registry.register_solver(Arc::new(SlowSolver { delegate, delay }));
    Arc::new(registry)
}
