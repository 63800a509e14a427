//! `serve_smoke` — the serving-layer counterpart of `par_sweep`: a CI
//! gate over the long-lived [`PlannerService`] + [`ClaimStream`] stack.
//!
//! Builds two synthetic uniqueness datasets, opens a claim stream over
//! each (sharing one service, one store, one worker pool), and drives a
//! **mixed interactive + sweep workload** through them:
//!
//! 1. concurrent single-objective submissions (bias/dup/frag/counter)
//!    racing a budget sweep, from multiple submitter threads;
//! 2. a cleaning step on stream A (`mark_cleaned`), then resubmission
//!    on both streams.
//!
//! The binary **fails (exit 1)** if
//!
//! * any served plan diverges from its synchronous
//!   `recommend`/`recommend_many`/`recommend_sweep` twin
//!   ([`Plan::divergence`] is the shared byte-identity gate), or
//! * a stale cache entry survives invalidation — detected both
//!   structurally (stream A's post-cleaning plans must match a fresh
//!   session over the cleaned data) and by the store counters (stream
//!   B must report **zero** scoped-table rebuilds after stream A's
//!   invalidation), or
//! * the **cancellation storm** (phase 3: submit/cancel churn from
//!   concurrent submitters under a tight tenant quota) produces a
//!   diverging plan, a cancelled request that reports `Ready`, a
//!   stale serve afterwards, or quota accounting that does not return
//!   to zero once the churn drains.
//!
//! Run `--quick` for the CI-sized instance.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fact_clean::prelude::*;
use fc_bench::HarnessCfg;
use fc_claims::window_sum_family;
use fc_core::SolverRegistry;
use fc_datasets::synthetic::urx;
use fc_datasets::workloads::LAMBDA;

fn dataset(n: usize, seed: u64) -> (Instance, ClaimSet) {
    let instance = urx(n, seed).expect("synthetic instance");
    let claims =
        window_sum_family(n, 4, n - 4, Direction::LowerIsStronger, LAMBDA).expect("claim family");
    (instance, claims)
}

fn sequential_session(instance: &Instance, claims: &ClaimSet) -> CleaningSession {
    SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims.clone())
        .parallelism(Parallelism::Sequential)
        .build()
        .expect("data and claims are set")
}

fn specs() -> Vec<ObjectiveSpec> {
    vec![
        ObjectiveSpec::ascertain(Measure::Bias),
        ObjectiveSpec::ascertain(Measure::Dup),
        ObjectiveSpec::ascertain(Measure::Frag),
        ObjectiveSpec::find_counter(5.0),
    ]
}

fn main() -> ExitCode {
    let cfg = HarnessCfg::from_args();
    // The mixed workload includes MaxPr (convolution) claims, whose
    // greedy probes are O(budget · n · bins) — size accordingly.
    let n = if cfg.quick { 100 } else { 400 };
    let (instance_a, claims_a) = dataset(n, cfg.seed);
    let (instance_b, claims_b) = dataset(n.saturating_sub(8), cfg.seed ^ 0xB);
    let budget = Budget::fraction(instance_a.total_cost(), 0.2);
    let budgets: Vec<Budget> = (1..=6)
        .map(|i| Budget::fraction(instance_a.total_cost(), i as f64 / 20.0))
        .collect();
    let specs = specs();

    // Inline threshold 0 so even the quick workload exercises the
    // queue, the lanes, and the pool — the paths this gate exists for.
    let service = PlannerService::new(
        Arc::new(SolverRegistry::with_defaults()),
        ServiceOptions::new().with_inline_threshold(0),
    );
    let store = Arc::clone(service.store());
    let mut stream_a =
        ClaimStream::open(sequential_session(&instance_a, &claims_a), service.clone());
    let stream_b = ClaimStream::open(sequential_session(&instance_b, &claims_b), service.clone());

    let failed = AtomicBool::new(false);
    let check = |what: &str, seq: &[Plan], served: &[Plan]| {
        if seq.len() != served.len() {
            eprintln!("FAIL {what}: plan count {} vs {}", seq.len(), served.len());
            failed.store(true, Ordering::Relaxed);
            return;
        }
        for (i, (s, p)) in seq.iter().zip(served).enumerate() {
            if let Some(why) = s.divergence(p) {
                eprintln!("FAIL {what}: served plan {i} diverges: {why}");
                failed.store(true, Ordering::Relaxed);
            }
        }
    };

    // --- 1. mixed interactive + sweep workload, concurrent submitters ---
    let seq_a = sequential_session(&instance_a, &claims_a);
    let seq_many = seq_a
        .recommend_many(&specs, budget)
        .expect("sequential batch");
    let sweep_spec = ObjectiveSpec::ascertain(Measure::Dup);
    let seq_sweep = seq_a
        .recommend_sweep(&sweep_spec, &budgets)
        .expect("sequential sweep");

    let t = Instant::now();
    let sweep_handle = stream_a
        .submit_sweep(&sweep_spec, &budgets)
        .expect("sweep submission");
    let served_many: Vec<Plan> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let stream_a = &stream_a;
                let specs = &specs;
                s.spawn(move || {
                    specs
                        .iter()
                        .map(|spec| {
                            stream_a
                                .submit(spec.clone(), budget)
                                .expect("submission")
                                .wait()
                                .expect("interactive claim")
                        })
                        .collect::<Vec<Plan>>()
                })
            })
            .collect();
        let mut first: Option<Vec<Plan>> = None;
        for handle in handles {
            let plans = handle.join().expect("submitter thread");
            match &first {
                None => first = Some(plans),
                Some(reference) => {
                    // Every submitter must see identical answers.
                    for (i, (a, b)) in reference.iter().zip(&plans).enumerate() {
                        if let Some(why) = a.divergence(b) {
                            eprintln!("FAIL cross-submitter: plan {i} diverges: {why}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        }
        first.expect("at least one submitter")
    });
    let served_sweep = sweep_handle.wait().expect("sweep result");
    let mixed_time = t.elapsed();
    check("interactive claims", &seq_many, &served_many);
    check("budget sweep", &seq_sweep, &served_sweep);
    let stats = service.stats();
    println!(
        "serve_smoke: n = {n}, mixed workload ({} requests, {} inline / {} interactive / {} bulk) \
         in {:.3}s",
        stats.submitted,
        stats.inline,
        stats.interactive,
        stats.bulk,
        mixed_time.as_secs_f64(),
    );

    // --- 2. cleaning step: surgical invalidation, no stale serves ---
    // Warm stream B, remember the build count.
    let warm_b = stream_b
        .submit(sweep_spec.clone(), budget)
        .expect("submission")
        .wait()
        .expect("stream B warm-up");
    let builds_before = store.stats().scoped_builds;

    // Clean stream A's recommended set at the distribution means.
    let cleaned_objects = seq_many[1].selection.objects().to_vec();
    let revealed: Vec<f64> = cleaned_objects
        .iter()
        .map(|&i| stream_a.session().instance().dist(i).mean())
        .collect();
    let invalidated = stream_a
        .mark_cleaned(&cleaned_objects, &revealed)
        .expect("cleaning step");

    // Stream A resubmits: must match a fresh session over the cleaned
    // data — a stale cache serve would diverge here.
    let fresh = stream_a
        .session()
        .recommend_many(&specs, budget)
        .expect("fresh post-cleaning batch");
    let after: Vec<Plan> = specs
        .iter()
        .map(|spec| {
            stream_a
                .submit(spec.clone(), budget)
                .expect("submission")
                .wait()
                .expect("post-cleaning claim")
        })
        .collect();
    check("post-cleaning claims", &fresh, &after);

    // Stream B resubmits: zero rebuilds (surgical invalidation), same
    // answer.
    let again_b = stream_b
        .submit(sweep_spec, budget)
        .expect("submission")
        .wait()
        .expect("stream B resubmit");
    check(
        "unrelated stream",
        std::slice::from_ref(&warm_b),
        std::slice::from_ref(&again_b),
    );
    let builds_after = store.stats().scoped_builds;
    // Stream B's own warmth is read from its plan's provenance — the
    // per-plan counters, unlike the global build delta, cannot be
    // polluted by stream A's expected post-cleaning rebuilds.
    println!(
        "cleaning step: {invalidated} store entries invalidated, scoped builds {} -> {} \
         (stream B store misses: {})",
        builds_before, builds_after, again_b.diagnostics.store_misses,
    );
    if again_b.diagnostics.store_misses != 0 {
        eprintln!(
            "FAIL stale-cache gate: stream B rebuilt after an unrelated invalidation \
             (diagnostics: {:?})",
            again_b.diagnostics
        );
        failed.store(true, Ordering::Relaxed);
    }
    if invalidated == 0 {
        eprintln!("FAIL stale-cache gate: cleaning invalidated no store entries");
        failed.store(true, Ordering::Relaxed);
    }

    // --- 2b. delta-resolve: out-of-scope cleaning rekeys, not rebuilds ---
    // A stream whose claim family leaves the last four objects
    // unreferenced: cleaning one of them re-fingerprints the instance
    // but changes no cached table value, so the store entries must be
    // *carried* to the new key — zero invalidations, zero scoped
    // rebuilds, zero store misses on the resubmit.
    let instance_d = urx(n, cfg.seed ^ 0xD).expect("synthetic instance");
    let claims_d = window_sum_family(n - 4, 4, n - 8, Direction::LowerIsStronger, LAMBDA)
        .expect("truncated claim family");
    let mut stream_d =
        ClaimStream::open(sequential_session(&instance_d, &claims_d), service.clone());
    let delta_spec = ObjectiveSpec::ascertain(Measure::Dup);
    stream_d
        .submit(delta_spec.clone(), budget)
        .expect("submission")
        .wait()
        .expect("delta stream warm-up");
    let before_delta = store.stats();
    let out_of_scope = n - 1;
    let delta_invalidated = stream_d
        .mark_cleaned(&[out_of_scope], &[instance_d.dist(out_of_scope).mean()])
        .expect("out-of-scope cleaning step");
    let fresh_d = stream_d
        .session()
        .recommend(delta_spec.clone(), budget)
        .expect("fresh post-delta twin");
    let after_d = stream_d
        .submit(delta_spec, budget)
        .expect("submission")
        .wait()
        .expect("post-delta claim");
    check(
        "delta-resolve stream",
        std::slice::from_ref(&fresh_d),
        std::slice::from_ref(&after_d),
    );
    let after_delta = store.stats();
    println!(
        "delta-resolve: {delta_invalidated} invalidated, {} rekeyed, scoped builds {} -> {} \
         (store misses: {})",
        after_delta.rekeys - before_delta.rekeys,
        before_delta.scoped_builds,
        after_delta.scoped_builds,
        after_d.diagnostics.store_misses,
    );
    if delta_invalidated != 0 || after_delta.rekeys == before_delta.rekeys {
        eprintln!(
            "FAIL delta-resolve gate: out-of-scope cleaning invalidated {delta_invalidated} \
             entries ({} rekeyed) instead of carrying them",
            after_delta.rekeys - before_delta.rekeys,
        );
        failed.store(true, Ordering::Relaxed);
    }
    if after_d.diagnostics.store_misses != 0
        || after_delta.scoped_builds != before_delta.scoped_builds
    {
        eprintln!(
            "FAIL delta-resolve gate: resubmit after an out-of-scope clean rebuilt \
             (scoped builds {} -> {}, store misses {})",
            before_delta.scoped_builds, after_delta.scoped_builds, after_d.diagnostics.store_misses,
        );
        failed.store(true, Ordering::Relaxed);
    }

    // --- 3. cancellation storm: submit/cancel churn under quota -------
    // A third stream over stream A's *cleaned* data, quota-capped, is
    // hammered by concurrent submitters that cancel roughly a third of
    // their requests mid-flight. Gates: surviving plans stay
    // byte-identical to their sequential twins, a cancelled request
    // never reports Ready, quota accounting returns to zero, and
    // stream B still serves warm, identical answers afterwards.
    let storm_tenant = TenantId::new("storm");
    service.set_quota(
        storm_tenant.clone(),
        QuotaPolicy::default().with_max_in_flight(2),
    );
    let storm_stream = ClaimStream::open(stream_a.session().clone(), service.clone())
        .with_tenant(storm_tenant.clone());
    let storm_sweep_spec = ObjectiveSpec::ascertain(Measure::Dup);
    let expected_sweep = stream_a
        .session()
        .recommend_sweep(&storm_sweep_spec, &budgets)
        .expect("sequential storm-sweep twin");
    let rejected = AtomicU64::new(0);
    let cancelled_live = AtomicU64::new(0);
    let stats_before_storm = service.stats();
    let t = Instant::now();
    std::thread::scope(|s| {
        for thread in 0..3usize {
            let storm_stream = &storm_stream;
            let storm_sweep_spec = &storm_sweep_spec;
            let budgets = &budgets;
            let specs = &specs;
            let fresh = &fresh;
            let expected_sweep = &expected_sweep;
            let storm_failed = &failed;
            let rejected = &rejected;
            let cancelled_live = &cancelled_live;
            s.spawn(move || {
                let rounds = 6usize;
                for i in 0..rounds {
                    if (thread + i) % 3 == 0 {
                        // A sweep, cancelled mid-flight (or dropped).
                        match storm_stream.submit_sweep(storm_sweep_spec, budgets) {
                            Ok(handle) if i % 2 == 0 => {
                                if handle.cancel() {
                                    cancelled_live.fetch_add(1, Ordering::Relaxed);
                                    match handle.wait() {
                                        Err(fc_core::CoreError::Cancelled) => {}
                                        other => {
                                            eprintln!(
                                                "FAIL storm: cancelled sweep resolved to {:?}",
                                                other.map(|plans| plans.len())
                                            );
                                            storm_failed.store(true, Ordering::Relaxed);
                                        }
                                    }
                                } else {
                                    // Lost the race: it completed first —
                                    // then the result must be the real one.
                                    let plans = handle.wait().expect("completed before the cancel");
                                    for (a, b) in plans.iter().zip(expected_sweep) {
                                        if let Some(why) = a.divergence(b) {
                                            eprintln!("FAIL storm sweep: {why}");
                                            storm_failed.store(true, Ordering::Relaxed);
                                        }
                                    }
                                }
                            }
                            Ok(handle) => drop(handle), // cancellation-on-drop churn
                            Err(fc_core::CoreError::QuotaExceeded { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("FAIL storm: unexpected submit error: {e}");
                                storm_failed.store(true, Ordering::Relaxed);
                            }
                        }
                    } else {
                        let spec = &specs[i % specs.len()];
                        match storm_stream.submit(spec.clone(), budget) {
                            Ok(handle) => match handle.wait() {
                                Ok(plan) => {
                                    if let Some(why) = plan.divergence(&fresh[i % specs.len()]) {
                                        eprintln!("FAIL storm claim: {why}");
                                        storm_failed.store(true, Ordering::Relaxed);
                                    }
                                }
                                Err(e) => {
                                    eprintln!("FAIL storm claim: {e}");
                                    storm_failed.store(true, Ordering::Relaxed);
                                }
                            },
                            Err(fc_core::CoreError::QuotaExceeded { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("FAIL storm: unexpected submit error: {e}");
                                storm_failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let storm_time = t.elapsed();

    // Quota-accounting drift: the ledger must read zero once the churn
    // has drained (cancel releases immediately; completion releases
    // before the handle resolves).
    let usage = service.quota_usage(&storm_tenant);
    if usage != QuotaUsage::default() {
        eprintln!("FAIL storm: quota accounting drifted: {usage:?}");
        failed.store(true, Ordering::Relaxed);
    }
    let stats = service.stats();
    let delta_submitted = stats.submitted - stats_before_storm.submitted;
    let delta_resolved = (stats.completed + stats.cancelled)
        - (stats_before_storm.completed + stats_before_storm.cancelled);
    if delta_submitted != delta_resolved {
        eprintln!(
            "FAIL storm: {delta_submitted} requests submitted but {delta_resolved} resolved \
             (completed+cancelled)"
        );
        failed.store(true, Ordering::Relaxed);
    }
    // Stale-serve gate, post-storm: stream B must still serve its warm,
    // byte-identical answer.
    let b_after_storm = stream_b
        .submit(ObjectiveSpec::ascertain(Measure::Dup), budget)
        .expect("submission")
        .wait()
        .expect("stream B post-storm");
    check(
        "post-storm unrelated stream",
        std::slice::from_ref(&warm_b),
        std::slice::from_ref(&b_after_storm),
    );
    println!(
        "cancellation storm: {} cancelled live, {} quota-rejected, {} cancelled total, \
         in {:.3}s",
        cancelled_live.load(Ordering::Relaxed),
        rejected.load(Ordering::Relaxed),
        stats.cancelled,
        storm_time.as_secs_f64(),
    );

    if failed.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        println!(
            "OK: served plans byte-identical to sequential; invalidation surgical; \
             cancellation/quota accounting clean"
        );
        ExitCode::SUCCESS
    }
}
