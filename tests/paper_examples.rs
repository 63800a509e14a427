//! End-to-end encodings of the paper's worked examples, exercised
//! through the public API across crates.

use fact_clean::prelude::*;
use fc_claims::query::IndicatorSense;
use fc_claims::{ClaimSet, Direction, ThresholdIndicatorQuery};
use fc_core::algo::{
    greedy_max_pr_discrete, greedy_min_var, greedy_min_var_from_scratch, greedy_naive,
    knapsack_optimum_min_var,
};
use fc_core::ev::{ev_exact, ScopedEv};
use fc_core::maxpr::surprise_prob_exact;

/// Example 3: cleaning can *conditionally* increase uncertainty in an
/// indicator query, yet the expected variance always shrinks.
#[test]
fn example3_bernoulli_indicator() {
    let inst = Instance::new(
        vec![
            DiscreteDist::bernoulli(0.5).unwrap(),
            DiscreteDist::bernoulli(1.0 / 3.0).unwrap(),
            DiscreteDist::bernoulli(0.25).unwrap(),
        ],
        vec![0.0; 3],
        vec![1; 3],
    )
    .unwrap();
    let q = ThresholdIndicatorQuery::new(
        LinearClaim::window_sum(0, 3).unwrap(),
        3.0,
        IndicatorSense::Below,
    );
    // Pr[f = 0] = 1/24 without cleaning.
    let ev0 = ev_exact(&inst, &q, &[]);
    assert!((ev0 - (1.0 / 24.0) * (23.0 / 24.0)).abs() < 1e-12);
    // Conditioned on X1 = 1 the indicator is nearer a toss-up (1/12)…
    let var_x1_one = (1.0f64 / 12.0) * (11.0 / 12.0);
    assert!(var_x1_one > ev0);
    // …but in expectation cleaning X1 still helps (Lemma 3.4).
    assert!(ev_exact(&inst, &q, &[0]) < ev0);
}

/// Example 5: the two fact-checking objectives pick *different* objects.
#[test]
fn example5_objectives_disagree() {
    let inst = Instance::new(
        vec![
            DiscreteDist::uniform_over(&[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap(),
            DiscreteDist::uniform_over(&[1.0 / 3.0, 1.0, 5.0 / 3.0]).unwrap(),
        ],
        vec![1.0, 1.0],
        vec![1, 1],
    )
    .unwrap();
    let cs = ClaimSet::new(
        LinearClaim::window_sum(0, 2).unwrap(),
        vec![LinearClaim::window_sum(0, 2).unwrap()],
        vec![1.0],
        Direction::HigherIsStronger,
    )
    .unwrap();
    let q = BiasQuery::new(cs, 2.0);
    let budget = Budget::absolute(1);

    // MinVar (exact knapsack) cleans X1: Var[X1] = 1/2 > 8/27 = Var[X2].
    let minvar = knapsack_optimum_min_var(&inst, &q, budget).unwrap();
    assert_eq!(minvar.objects(), &[0]);

    // MaxPr with τ = 7/12 cleans X2: Pr = 1/3 > 1/5.
    let tau = 7.0 / 12.0;
    let maxpr = greedy_max_pr_discrete(&inst, &q, budget, tau, None).unwrap();
    assert_eq!(maxpr.objects(), &[1]);
    let p1 = surprise_prob_exact(&inst, &q, &[0], tau, None).unwrap();
    let p2 = surprise_prob_exact(&inst, &q, &[1], tau, None).unwrap();
    assert!((p1 - 0.2).abs() < 1e-12);
    assert!((p2 - 1.0 / 3.0).abs() < 1e-12);
}

/// Example 6: GreedyMinVar beats GreedyNaive by optimizing the actual
/// objective — constants verified exactly.
#[test]
fn example6_greedy_min_var_vs_naive() {
    let inst = Instance::new(
        vec![
            DiscreteDist::uniform_over(&[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap(),
            DiscreteDist::uniform_over(&[1.0 / 3.0, 1.0, 5.0 / 3.0]).unwrap(),
        ],
        vec![1.0, 1.0],
        vec![1, 1],
    )
    .unwrap();
    let q = ThresholdIndicatorQuery::new(
        LinearClaim::window_sum(0, 2).unwrap(),
        11.0 / 12.0,
        IndicatorSense::Below,
    );
    let eng = ScopedEv::new(&inst, &q);
    assert!((eng.ev_of(&[]) - 26.0 / 225.0).abs() < 1e-12);
    assert!((eng.ev_of(&[0]) - 4.0 / 45.0).abs() < 1e-12);
    assert!((eng.ev_of(&[1]) - 2.0 / 25.0).abs() < 1e-12);

    // GreedyNaive cleans X1 (higher variance), GreedyMinVar cleans X2.
    let naive = greedy_naive(&inst, &q, Budget::absolute(1));
    assert_eq!(naive.objects(), &[0]);
    let gmv = greedy_min_var(&inst, &q, Budget::absolute(1));
    assert_eq!(gmv.objects(), &[1]);
    // And GreedyMinVar's end state is strictly better.
    assert!(eng.ev_of(gmv.objects()) < eng.ev_of(naive.objects()));
    // From-scratch ablation agrees with the incremental engine.
    let scratch = greedy_min_var_from_scratch(&inst, &q, Budget::absolute(1));
    assert_eq!(scratch, gmv);
}

/// Example 2's session flow: a fact-checker inspects the crime claim,
/// cleans what matters, and surfaces the counterargument.
#[test]
fn example2_session_flow() {
    use fact_clean::planner::{Measure, ObjectiveSpec};
    use fact_clean::CleaningSession;
    let current = vec![9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0];
    let dists: Vec<DiscreteDist> = current
        .iter()
        .map(|&u| DiscreteDist::uniform_over(&[u - 40.0, u, u + 40.0]).unwrap())
        .collect();
    let instance = Instance::new(dists, current, vec![1; 5]).unwrap();
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
    let session = CleaningSession::new(instance, claims);
    assert_eq!(session.original_value(), 305.0);

    let rec = session
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
        .unwrap();
    assert!(rec.selection.cost() <= 2);
    assert!(rec.after <= rec.before);

    // Reveal upper-support outcomes for the cleaned objects and verify
    // the session updates coherently.
    let revealed: Vec<f64> = rec
        .selection
        .objects()
        .iter()
        .map(|&i| session.instance().dist(i).max_value())
        .collect();
    let after = session.after_cleaning(&rec.selection, &revealed).unwrap();
    for &i in rec.selection.objects() {
        assert!(after.instance().dist(i).is_certain());
    }
}
