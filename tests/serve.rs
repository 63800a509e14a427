//! Integration tests for the long-lived serving layer:
//! [`PlannerService`] + [`ClaimStream`] at the façade level.
//!
//! The contracts under test:
//!
//! * **Determinism** — plans served asynchronously (from any number of
//!   concurrent submitters) are byte-identical to the synchronous
//!   `recommend_many` path ([`fc_core::Plan::divergence`] is the shared
//!   gate).
//! * **Incremental invalidation** — after `mark_cleaned`, the changed
//!   instance has a new fingerprint (no stale plan can ever be
//!   served), its old store entries are surgically dropped, and
//!   *untouched* instances' tables are never rebuilt: a warm stream
//!   reports zero scoped-EV rebuilds on resubmit after an unrelated
//!   stream is invalidated.

use std::sync::{Arc, Condvar, Mutex};

use fact_clean::prelude::*;
use fc_core::planner::cache::fingerprint_instance;
use fc_core::{EngineCache, Result as CoreResult, SolverRegistry};
use fc_uncertain::rng_from_seed;
use rand::Rng;

/// A randomized discrete workload with a dense overlapping claim
/// family (same shape as `tests/parallel_exec.rs`).
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

fn session_of(instance: &Instance, claims: &ClaimSet) -> CleaningSession {
    SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims.clone())
        .build()
        .unwrap()
}

/// A service that queues everything (inline threshold 0), so even the
/// small test workloads exercise the pool + lane machinery.
fn queued_service() -> PlannerService {
    PlannerService::new(
        Arc::new(SolverRegistry::with_defaults()),
        ServiceOptions::new().with_inline_threshold(0),
    )
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

/// N concurrent submitters through one shared stream: every plan is
/// byte-identical to the sequential `recommend_many` fold — the
/// acceptance scenario's first half.
#[test]
fn concurrent_submissions_match_sequential_recommend_many() {
    let (instance, claims) = workload(60, 3);
    let session = session_of(&instance, &claims);
    let budget = Budget::absolute(8);
    let specs = batch_specs();
    // Sequential ground truth (no store, no pool).
    let sequential = SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims.clone())
        .parallelism(Parallelism::Sequential)
        .build()
        .unwrap()
        .recommend_many(&specs, budget)
        .unwrap();

    let stream = Arc::new(ClaimStream::open(session, queued_service()));
    std::thread::scope(|s| {
        for submitter in 0..4 {
            let stream = Arc::clone(&stream);
            let specs = specs.clone();
            let sequential = &sequential;
            s.spawn(move || {
                // Stagger submission order per thread so the queue sees
                // genuinely interleaved requests.
                let offset = submitter % specs.len();
                let handles: Vec<_> = (0..specs.len())
                    .map(|i| {
                        let spec = specs[(i + offset) % specs.len()].clone();
                        stream.submit(spec, budget).unwrap()
                    })
                    .collect();
                for (i, handle) in handles.into_iter().enumerate() {
                    let plan = handle.wait().unwrap();
                    let expected = &sequential[(i + offset) % specs.len()];
                    assert_eq!(
                        plan.divergence(expected),
                        None,
                        "submitter {submitter}, request {i}"
                    );
                }
            });
        }
    });
    let stats = stream.service().stats();
    assert_eq!(stats.submitted, 20);
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.inline, 0, "threshold 0 queues everything");
}

/// Sweeps through the stream equal the synchronous sweep, point for
/// point.
#[test]
fn stream_sweep_matches_synchronous_sweep() {
    let (instance, claims) = workload(40, 5);
    let session = session_of(&instance, &claims);
    let budgets: Vec<Budget> = (0..8).map(|i| Budget::absolute(i * 3)).collect();
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let sequential = SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims.clone())
        .parallelism(Parallelism::Sequential)
        .build()
        .unwrap()
        .recommend_sweep(&spec, &budgets)
        .unwrap();
    let stream = ClaimStream::open(session, queued_service());
    let plans = stream
        .submit_sweep(&spec, &budgets)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(plans.len(), sequential.len());
    for (i, (a, b)) in plans.iter().zip(&sequential).enumerate() {
        assert_eq!(a.divergence(b), None, "budget point {i}");
    }
    // The serving plans carry warm/cold provenance: the first pass over
    // a cold store must have recorded at least one store miss somewhere.
    assert!(
        plans
            .iter()
            .any(|p| p.diagnostics.store_misses > 0 || p.diagnostics.store_hits > 0),
        "store-backed sweeps report store lookups in diagnostics"
    );
}

/// Cleaning changes the instance fingerprint (the no-stale-plans
/// invariant) and surgically drops exactly the old fingerprint's
/// entries.
#[test]
fn mark_cleaned_changes_fingerprint_and_invalidates() {
    let (instance, claims) = workload(40, 7);
    let fp_before = fingerprint_instance(&instance);
    let mut stream = ClaimStream::open(session_of(&instance, &claims), queued_service());
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let budget = Budget::absolute(6);

    let cold = stream.submit(spec.clone(), budget).unwrap().wait().unwrap();
    let store = Arc::clone(stream.service().store());
    assert_eq!(store.stats().entries, 1);

    let objects = cold.selection.objects().to_vec();
    assert!(!objects.is_empty());
    let revealed: Vec<f64> = objects
        .iter()
        .map(|&i| stream.session().instance().dist(i).max_value())
        .collect();
    let invalidated = stream.mark_cleaned(&objects, &revealed).unwrap();
    assert_eq!(invalidated, 1, "exactly the stale entry is dropped");
    assert_eq!(store.stats().entries, 0);
    assert_eq!(store.stats().invalidations, 1);

    let fp_after = fingerprint_instance(stream.session().instance());
    assert_ne!(fp_before, fp_after, "changed rows change the fingerprint");

    // The post-cleaning answer matches a from-scratch session over the
    // cleaned data — served warm or cold, never stale.
    let expected = stream.session().recommend(spec.clone(), budget).unwrap();
    let after = stream.submit(spec, budget).unwrap().wait().unwrap();
    assert_eq!(after.divergence(&expected), None);
}

/// The acceptance scenario's second half: a warm `ClaimStream` reports
/// **zero scoped-EV rebuilds** on resubmit after an *unrelated*
/// instance is invalidated — invalidation is surgical, not a flush.
#[test]
fn warm_stream_survives_unrelated_invalidation() {
    let service = queued_service();
    let store = Arc::clone(service.store());
    let (instance_a, claims_a) = workload(40, 11);
    let (instance_b, claims_b) = workload(36, 13);
    let mut stream_a = ClaimStream::open(session_of(&instance_a, &claims_a), service.clone());
    let stream_b = ClaimStream::open(session_of(&instance_b, &claims_b), service.clone());
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let budget = Budget::absolute(6);

    // Warm both streams.
    let plan_a = stream_a
        .submit(spec.clone(), budget)
        .unwrap()
        .wait()
        .unwrap();
    let warm_b = stream_b
        .submit(spec.clone(), budget)
        .unwrap()
        .wait()
        .unwrap();
    let builds_warm = store.stats().scoped_builds;
    assert_eq!(builds_warm, 2, "one table build per stream");

    // Clean stream A — stream B's entries must be untouched.
    let objects = plan_a.selection.objects().to_vec();
    let revealed: Vec<f64> = objects
        .iter()
        .map(|&i| stream_a.session().instance().dist(i).mean())
        .collect();
    let invalidated = stream_a.mark_cleaned(&objects, &revealed).unwrap();
    assert_eq!(invalidated, 1);

    // Stream B resubmits: zero rebuilds, answers unchanged, and the
    // plan itself reports the warm serve.
    let again_b = stream_b
        .submit(spec.clone(), budget)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        store.stats().scoped_builds,
        builds_warm,
        "unrelated invalidation must not cold stream B"
    );
    assert_eq!(again_b.divergence(&warm_b), None);
    assert!(
        again_b.diagnostics.store_hits > 0 && again_b.diagnostics.store_misses == 0,
        "warm provenance visible in PlanDiagnostics: {:?}",
        again_b.diagnostics
    );

    // Stream A's next request rebuilds exactly its own tables.
    stream_a.submit(spec, budget).unwrap().wait().unwrap();
    assert_eq!(store.stats().scoped_builds, builds_warm + 1);
}

/// `update_values` (softer evidence than a full cleaning) also
/// re-fingerprints and invalidates.
#[test]
fn update_values_invalidates_like_cleaning() {
    let (instance, claims) = workload(30, 17);
    let mut stream = ClaimStream::open(session_of(&instance, &claims), queued_service());
    let spec = ObjectiveSpec::ascertain(Measure::Frag);
    let budget = Budget::absolute(5);
    stream.submit(spec.clone(), budget).unwrap().wait().unwrap();
    let fp_before = fingerprint_instance(stream.session().instance());

    let narrowed = DiscreteDist::uniform_over(&[4.0, 5.0]).unwrap();
    let invalidated = stream.update_values(&[(2, narrowed, 4.5)]).unwrap();
    assert_eq!(invalidated, 1);
    assert_ne!(fp_before, fingerprint_instance(stream.session().instance()));

    let expected = stream.session().recommend(spec.clone(), budget).unwrap();
    let plan = stream.submit(spec, budget).unwrap().wait().unwrap();
    assert_eq!(plan.divergence(&expected), None);
}

/// Admission control at the façade: a default-threshold service solves
/// tiny claims inline (handle ready at submit), and big sweeps ride the
/// bulk lane.
#[test]
fn lanes_route_by_estimate() {
    let (instance, claims) = workload(24, 19);
    let session = session_of(&instance, &claims);
    // Default thresholds: this small workload sits under the inline bar.
    let inline_stream = ClaimStream::open(
        session.clone(),
        PlannerService::new(
            Arc::new(SolverRegistry::with_defaults()),
            ServiceOptions::new(),
        ),
    );
    let handle = inline_stream
        .submit(ObjectiveSpec::ascertain(Measure::Bias), Budget::absolute(3))
        .unwrap();
    assert_eq!(handle.lane(), Lane::Inline);
    assert!(handle.is_ready());
    handle.wait().unwrap();

    // Interactive threshold 0: everything queued lands on bulk.
    let bulk_stream = ClaimStream::open(
        session,
        PlannerService::new(
            Arc::new(SolverRegistry::with_defaults()),
            ServiceOptions::new()
                .with_inline_threshold(0)
                .with_interactive_threshold(0),
        ),
    );
    let handle = bulk_stream
        .submit(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(3))
        .unwrap();
    assert_eq!(handle.lane(), Lane::Bulk);
    handle.wait().unwrap();
}

/// A solver that parks every solve until the shared flag is raised,
/// then delegates to greedy — pins submissions provably in flight so
/// quota assertions are race-free.
struct GateSolver {
    delegate: Arc<dyn Solver>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl std::fmt::Debug for GateSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateSolver").finish()
    }
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
    ) -> CoreResult<Plan> {
        let (open, released) = &*self.gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = released.wait(open).unwrap();
        }
        drop(open);
        self.delegate.solve_with_cache(problem, budget, cache)
    }
}

/// Two tenant streams over one service: tenant A exhausting its quota
/// is rejected at submit (typed), never delaying tenant B's
/// interactive lane; the ledgers return to zero after a mixed
/// complete/cancel workload.
#[test]
fn tenant_streams_are_quota_isolated() {
    let (instance, claims) = workload(40, 7);
    // A's sweeps ride the "gate" strategy, which blocks until released
    // — without it, a fast pool could complete a sweep (freeing its
    // quota slot) before the third submit arrives, and the rejection
    // assertion would race.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut registry = SolverRegistry::with_defaults();
    registry.register_solver(Arc::new(GateSolver {
        delegate: registry.get("greedy").unwrap(),
        gate: Arc::clone(&gate),
    }));
    let service = PlannerService::new(
        Arc::new(registry),
        ServiceOptions::new().with_inline_threshold(0),
    );
    service.set_quota("analyst-a", QuotaPolicy::default().with_max_in_flight(2));
    let stream_a = session_of(&instance, &claims).into_stream_as(service.clone(), "analyst-a");
    let stream_b = session_of(&instance, &claims).into_stream(service.clone());
    assert_eq!(stream_a.tenant().name(), "analyst-a");

    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let gated_spec = spec.clone().with_strategy("gate");
    let budgets: Vec<Budget> = (1..=4).map(Budget::absolute).collect();
    let expected = stream_b
        .session()
        .recommend(spec.clone(), Budget::absolute(3))
        .unwrap();

    // A fills its two in-flight slots with sweeps held open by the
    // gate...
    let a1 = stream_a.submit_sweep(&gated_spec, &budgets).unwrap();
    let a2 = stream_a.submit_sweep(&gated_spec, &budgets).unwrap();
    // ...and the third submit bounces with a typed error, pre-queue.
    let err = stream_a.submit_sweep(&gated_spec, &budgets).unwrap_err();
    assert!(
        matches!(&err, fc_core::CoreError::QuotaExceeded { tenant, .. } if tenant == "analyst-a"),
        "got {err}"
    );

    // Release the gate so A's sweeps (and everything queued behind
    // them) can proceed.
    {
        let (open, released) = &*gate;
        *open.lock().unwrap() = true;
        released.notify_all();
    }

    // B is a different tenant: never rejected, answers byte-identical.
    let plan_b = stream_b
        .submit(spec.clone(), Budget::absolute(3))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(plan_b.divergence(&expected), None);

    // One sweep completes, one is cancelled (or — if the pool drained
    // it first — completes); either path releases the quota.
    a1.wait().unwrap();
    let _ = a2.cancel();
    drop(a2);
    assert_eq!(
        service.quota_usage(&TenantId::new("analyst-a")),
        QuotaUsage::default()
    );
    // The freed quota admits new submissions immediately.
    stream_a
        .submit(spec, Budget::absolute(3))
        .unwrap()
        .wait()
        .unwrap();
}

/// The interactive-loop shape the cancellation machinery exists for: a
/// sweep superseded by a cleaning step is cancelled, the handle
/// resolves `Cancelled` (never `Ready`), and the post-cleaning
/// submission matches a fresh synchronous session.
#[test]
fn superseded_sweep_cancels_cleanly_across_a_cleaning_step() {
    let (instance, claims) = workload(50, 11);
    let mut stream = session_of(&instance, &claims).into_stream(queued_service());
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let budgets: Vec<Budget> = (1..=6).map(Budget::absolute).collect();

    let first = stream
        .submit(spec.clone(), Budget::absolute(2))
        .unwrap()
        .wait()
        .unwrap();
    let stale_sweep = stream.submit_sweep(&spec, &budgets).unwrap();

    // The checker cleans the recommended set: the in-flight sweep is
    // now answering yesterday's question.
    let objects = first.selection.objects().to_vec();
    let revealed: Vec<f64> = objects
        .iter()
        .map(|&i| stream.session().instance().dist(i).mean())
        .collect();
    stream.mark_cleaned(&objects, &revealed).unwrap();
    let landed = stale_sweep.cancel();
    assert_eq!(stale_sweep.is_cancelled(), landed);
    match stale_sweep.wait() {
        Err(fc_core::CoreError::Cancelled) => {
            assert!(landed, "a Cancelled outcome implies the cancel landed")
        }
        plans => {
            // Lost the race: the sweep completed before the cancel —
            // then (and only then) the real result surfaces.
            assert!(!landed, "a cancelled handle must never surface a result");
            plans.unwrap();
        }
    }

    let expected = stream
        .session()
        .recommend(spec.clone(), Budget::absolute(2))
        .unwrap();
    let after = stream
        .submit(spec, Budget::absolute(2))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(after.divergence(&expected), None);
}
