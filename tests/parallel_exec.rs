//! Integration tests for the sharded parallel executor and the
//! fingerprint-keyed engine store, at the façade level: plans must be
//! **byte-identical** across `Parallelism` modes, and a warm
//! `CacheStore` must serve repeat sessions with zero scoped-EV
//! rebuilds.

use std::sync::Arc;

use fact_clean::prelude::*;
use fc_core::CacheStore;
use fc_uncertain::rng_from_seed;
use rand::Rng;

mod common;

/// A randomized discrete workload with a *dense* overlapping claim
/// family (one width-2 window per start index), so the dup/frag
/// estimate is `~(n−1) · E[|support|²] + n` (supports of 2–3 values ⇒
/// ~6.25 per term) and big `n` pushes past the executor's
/// inline-admission threshold into the worker pool.
fn workload(n: usize, seed: u64) -> (Instance, ClaimSet) {
    let mut rng = rng_from_seed(seed);
    let dists: Vec<DiscreteDist> = (0..n)
        .map(|_| {
            let k = rng.gen_range(2..=3);
            let vals: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..20.0)).collect();
            DiscreteDist::uniform_over(&vals).unwrap()
        })
        .collect();
    let current: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..20.0)).collect();
    let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(1..6)).collect();
    let instance = Instance::new(dists, current, costs).unwrap();
    let perturbations: Vec<LinearClaim> = (0..n - 1)
        .map(|i| LinearClaim::window_sum(i, 2).unwrap())
        .collect();
    let weights = vec![1.0; perturbations.len()];
    let claims = ClaimSet::new(
        LinearClaim::window_sum(0, 2).unwrap(),
        perturbations,
        weights,
        Direction::HigherIsStronger,
    )
    .unwrap();
    (instance, claims)
}

/// Guard against a vacuous parallelism test: the non-affine lowered
/// problems must actually clear the executor's inline threshold, or
/// `Fixed(4)` would silently take the sequential path and the
/// determinism assertions would compare sequential against itself.
fn assert_reaches_worker_pool(instance: &Instance, claims: &ClaimSet) {
    let problem = fc_core::Problem::discrete_min_var(
        instance.clone(),
        Arc::new(fc_claims::DupQuery::new(claims.clone(), 0.0)),
    )
    .unwrap();
    assert!(
        problem.estimated_engine_evals() >= fc_core::ExecOptions::DEFAULT_INLINE_THRESHOLD,
        "workload too small to exercise the pool: estimate {} < threshold {}",
        problem.estimated_engine_evals(),
        fc_core::ExecOptions::DEFAULT_INLINE_THRESHOLD
    );
}

fn session_with(
    instance: &Instance,
    claims: &ClaimSet,
    parallelism: Parallelism,
    store: Option<Arc<CacheStore>>,
) -> CleaningSession {
    let mut b = SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims.clone())
        .parallelism(parallelism);
    if let Some(store) = store {
        b = b.cache_store(store);
    }
    b.build().unwrap()
}

fn assert_byte_identical(a: &[Plan], b: &[Plan]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.divergence(y), None, "plan {i}");
    }
}

fn batch_specs() -> Vec<ObjectiveSpec> {
    vec![
        ObjectiveSpec::ascertain(Measure::Bias),
        ObjectiveSpec::ascertain(Measure::Dup),
        ObjectiveSpec::ascertain(Measure::Frag),
        ObjectiveSpec::ascertain(Measure::Dup).with_strategy("greedy"),
        ObjectiveSpec::find_counter(5.0),
    ]
}

/// Determinism property: across random workloads, `recommend_many`
/// under `Fixed(4)` is byte-identical to `Sequential`.
#[test]
fn recommend_many_is_deterministic_across_parallelism() {
    for seed in [1u64, 7, 23] {
        let (instance, claims) = workload(800, seed);
        assert_reaches_worker_pool(&instance, &claims);
        let budget = Budget::absolute(instance.total_cost() / 30);
        let seq = session_with(&instance, &claims, Parallelism::Sequential, None)
            .recommend_many(&batch_specs(), budget)
            .unwrap();
        let par = session_with(&instance, &claims, Parallelism::Fixed(4), None)
            .recommend_many(&batch_specs(), budget)
            .unwrap();
        assert_byte_identical(&seq, &par);
    }
}

/// Determinism property: `recommend_sweep` under `Fixed(4)` is
/// byte-identical to `Sequential`, across measures.
#[test]
fn recommend_sweep_is_deterministic_across_parallelism() {
    let (instance, claims) = workload(800, 5);
    assert_reaches_worker_pool(&instance, &claims);
    let total = instance.total_cost();
    let budgets: Vec<Budget> = (0..10).map(|i| Budget::absolute(i * total / 30)).collect();
    for measure in [Measure::Bias, Measure::Dup, Measure::Frag] {
        let spec = ObjectiveSpec::ascertain(measure);
        let seq = session_with(&instance, &claims, Parallelism::Sequential, None)
            .recommend_sweep(&spec, &budgets)
            .unwrap();
        let par = session_with(&instance, &claims, Parallelism::Fixed(4), None)
            .recommend_sweep(&spec, &budgets)
            .unwrap();
        assert_byte_identical(&seq, &par);
        // Sanity: the sweep itself is meaningful (monotone MinVar).
        for w in seq.windows(2) {
            assert!(w[1].after <= w[0].after + 1e-9);
        }
    }
}

/// A second session over the same instance must report **zero**
/// scoped-EV rebuilds: the store serves the tables built by the first.
#[test]
fn warm_cache_store_rebuilds_nothing() {
    let (instance, claims) = workload(40, 11);
    let store = Arc::new(CacheStore::new(32));
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let budget = Budget::absolute(6);

    let first = session_with(
        &instance,
        &claims,
        Parallelism::Sequential,
        Some(store.clone()),
    );
    let cold_plan = first.recommend(spec.clone(), budget).unwrap();
    let cold = store.stats();
    assert_eq!(cold.scoped_builds, 1, "first session builds the tables");
    assert!(cold.scoped_build_evals > 0);
    drop(first);

    let second = session_with(
        &instance,
        &claims,
        Parallelism::Sequential,
        Some(store.clone()),
    );
    let warm_plan = second.recommend(spec, budget).unwrap();
    let warm = store.stats();
    assert_eq!(
        warm.scoped_builds, cold.scoped_builds,
        "second session over the same instance rebuilds nothing"
    );
    assert_eq!(
        warm.scoped_build_evals, cold.scoped_build_evals,
        "zero scoped-EV rebuild evals on the warm path"
    );
    assert!(warm.hits > cold.hits, "the warm session hits the store");
    assert_byte_identical(&[cold_plan], &[warm_plan]);
}

/// Different measures, θ, and data must key different entries — and a
/// *changed* instance must never be served stale tables.
#[test]
fn cache_store_distinguishes_measures_and_data() {
    let (instance, claims) = workload(40, 13);
    let store = Arc::new(CacheStore::new(32));
    let budget = Budget::absolute(6);
    let s = session_with(
        &instance,
        &claims,
        Parallelism::Sequential,
        Some(store.clone()),
    );
    s.recommend(ObjectiveSpec::ascertain(Measure::Dup), budget)
        .unwrap();
    s.recommend(ObjectiveSpec::ascertain(Measure::Frag), budget)
        .unwrap();
    assert_eq!(
        store.stats().scoped_builds,
        2,
        "dup and frag have distinct engine tables"
    );

    // Clean one object: the updated instance has a new fingerprint, so
    // the store builds fresh tables instead of serving stale ones.
    let plan = s
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), budget)
        .unwrap();
    let revealed: Vec<f64> = plan
        .selection
        .objects()
        .iter()
        .map(|&i| s.instance().dist(i).mean())
        .collect();
    let cleaned = s.after_cleaning(&plan.selection, &revealed).unwrap();
    cleaned
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), budget)
        .unwrap();
    assert_eq!(
        store.stats().scoped_builds,
        3,
        "cleaned instance gets its own entry"
    );
}

/// The eviction cap bounds resident entries and is visible in stats.
#[test]
fn cache_store_eviction_cap_holds() {
    let store = Arc::new(CacheStore::with_shards(2, 1));
    let budget = Budget::absolute(4);
    for seed in 0..4u64 {
        let (instance, claims) = workload(24, 100 + seed);
        let s = session_with(
            &instance,
            &claims,
            Parallelism::Sequential,
            Some(store.clone()),
        );
        s.recommend(ObjectiveSpec::ascertain(Measure::Dup), budget)
            .unwrap();
    }
    let stats = store.stats();
    assert!(stats.entries <= 2, "cap holds: {} entries", stats.entries);
    assert!(stats.evictions >= 2, "old entries were evicted");
}

/// Parallel + store composes: a sweep on a parallel session sharing a
/// store stays byte-identical and still avoids rebuilds on reuse.
#[test]
fn parallel_sweep_with_store_is_deterministic_and_warm() {
    let (instance, claims) = workload(800, 29);
    assert_reaches_worker_pool(&instance, &claims);
    let total = instance.total_cost();
    let budgets: Vec<Budget> = (1..=8).map(|i| Budget::absolute(i * total / 40)).collect();
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let store = Arc::new(CacheStore::new(32));

    let seq = session_with(&instance, &claims, Parallelism::Sequential, None)
        .recommend_sweep(&spec, &budgets)
        .unwrap();
    let par_session = session_with(
        &instance,
        &claims,
        Parallelism::Fixed(4),
        Some(store.clone()),
    );
    let par = par_session.recommend_sweep(&spec, &budgets).unwrap();
    assert_byte_identical(&seq, &par);
    assert_eq!(store.stats().scoped_builds, 1, "workers shared one build");

    let again = par_session.recommend_sweep(&spec, &budgets).unwrap();
    assert_byte_identical(&seq, &again);
    assert_eq!(store.stats().scoped_builds, 1, "second sweep is warm");
}

/// The sweep-delta resume chain is a pure speedup: on a façade-lowered
/// dup/MinVar ladder (urx60 under window-4 sums, 8 points) every point
/// of the chain is byte-identical to an independent solve.
#[test]
fn resume_chain_matches_independent_solves_on_a_lowered_dup_ladder() {
    use fc_core::planner::exec::{self, ExecOptions, SweepMode};

    let instance = fc_datasets::synthetic::urx(60, 42 ^ 0xA).unwrap();
    let session = common::window_session(&instance, 4);
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let problem = session.build_problem(&spec).unwrap();
    let total = instance.total_cost();
    let budgets: Vec<Budget> = (1..=8)
        .map(|i| Budget::fraction(total, f64::from(i) / 16.0))
        .collect();
    let run = |mode: SweepMode| {
        let opts = ExecOptions::new(Parallelism::Sequential).with_sweep_mode(mode);
        exec::sweep(
            session.registry(),
            spec.strategy.key(),
            &problem,
            &budgets,
            &opts,
            None,
        )
        .unwrap()
    };
    let independent = run(SweepMode::Independent);
    assert_eq!(independent.len(), 8);
    assert_byte_identical(&independent, &run(SweepMode::ResumeChain));
}
