//! A long-lived claim stream: submit → clean → resubmit, staying warm.
//!
//! The paper's fact-checking loop is interactive — claims stream in
//! against a dataset whose values keep getting cleaned. This example
//! runs that loop through the serving layer: a [`PlannerService`]
//! (shared registry + cache store + worker pool) serving a
//! [`ClaimStream`] that holds the crime-counts dataset open, with the
//! cleaning step invalidating exactly the stale cache entries.
//!
//! Run with: `cargo run --release --example serve_stream`

use std::sync::Arc;

use fact_clean::prelude::*;
use fc_core::SolverRegistry;

fn main() {
    // The Example-2 crime-counts data: five yearly counts, each
    // possibly off by ±40 coding errors.
    let current = vec![9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0];
    let dists: Vec<DiscreteDist> = current
        .iter()
        .map(|&u| DiscreteDist::uniform_over(&[u - 40.0, u, u + 40.0]).unwrap())
        .collect();
    let instance = Instance::new(dists, current, vec![1, 1, 2, 3, 3]).unwrap();
    let claims = ClaimSet::new(
        LinearClaim::window_comparison(3, 4, 1).unwrap(),
        vec![
            LinearClaim::window_comparison(2, 3, 1).unwrap(),
            LinearClaim::window_comparison(1, 2, 1).unwrap(),
            LinearClaim::window_comparison(0, 1, 1).unwrap(),
        ],
        vec![1.0; 3],
        Direction::HigherIsStronger,
    )
    .unwrap();

    // One service per process: registry + fingerprint-keyed store +
    // worker pool. `inline_threshold 0` forces even this tiny demo
    // through the queue so the handles are real.
    let service = PlannerService::new(
        Arc::new(SolverRegistry::with_defaults()),
        ServiceOptions::new().with_inline_threshold(0),
    );
    let store = Arc::clone(service.store());
    let mut stream = SessionBuilder::new()
        .discrete(instance)
        .claims(claims)
        .build()
        .unwrap()
        .into_stream(service);

    let budget = Budget::absolute(2);
    let spec = ObjectiveSpec::ascertain(Measure::Dup);

    // --- 1. submit: the handle is a hand-rolled future -------------
    let handle = stream.submit(spec.clone(), budget).unwrap();
    println!(
        "submitted uniqueness claim (lane {:?}, est. {} engine evals)",
        handle.lane(),
        handle.estimate()
    );
    let cold = handle.wait().unwrap();
    println!(
        "cold plan:   clean {:?}, EV {:.3} -> {:.3}   [{} | store misses {}]",
        cold.selection.objects(),
        cold.before,
        cold.after,
        cold.strategy,
        cold.diagnostics.store_misses,
    );

    // Resubmitting the same claim is served from the warm store — the
    // plan itself reports it.
    let warm = stream.submit(spec.clone(), budget).unwrap().wait().unwrap();
    println!(
        "warm plan:   identical: {}   [store hits {}]",
        warm.divergence(&cold).is_none(),
        warm.diagnostics.store_hits,
    );

    // --- 2. clean: reveal the recommended values -------------------
    // A budget sweep is still in flight when the cleaning lands — its
    // plans would answer yesterday's question, so cancel it instead of
    // letting it burn worker time (dropping the handle would do the
    // same implicitly).
    let budgets: Vec<Budget> = (1..=5).map(Budget::absolute).collect();
    let stale_sweep = stream.submit_sweep(&spec, &budgets).unwrap();
    let objects = cold.selection.objects().to_vec();
    let revealed: Vec<f64> = objects
        .iter()
        .map(|&i| stream.session().instance().dist(i).max_value())
        .collect();
    let invalidated = stream.mark_cleaned(&objects, &revealed).unwrap();
    let landed = stale_sweep.cancel();
    println!(
        "superseded sweep cancelled: {} (outcome: {})",
        landed,
        if stale_sweep.is_cancelled() {
            "Cancelled — no stale plans will surface"
        } else {
            "completed before the cancel (its plans are pre-cleaning answers)"
        }
    );
    println!(
        "\ncleaned {:?} -> revealed {:?} ({} stale store entr{} invalidated, {} resident)",
        objects,
        revealed,
        invalidated,
        if invalidated == 1 { "y" } else { "ies" },
        store.stats().entries,
    );

    // --- 3. resubmit: fresh fingerprint, fresh answer --------------
    let after = stream.submit(spec, budget).unwrap().wait().unwrap();
    println!(
        "post-clean:  clean {:?}, EV {:.3} -> {:.3}   [store misses {}]",
        after.selection.objects(),
        after.before,
        after.after,
        after.diagnostics.store_misses,
    );
    println!(
        "\nservice stats: {:?}\nstore stats:   {:?}",
        stream.service().stats(),
        store.stats()
    );
}
