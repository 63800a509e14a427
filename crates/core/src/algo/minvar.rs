//! `GreedyMinVar` and the knapsack `Optimum` for MinVar.

use crate::algo::greedy::{
    greedy_exhaustive, greedy_incremental, greedy_incremental_resumed, greedy_static, GreedyConfig,
    IncrementalOracle, SweepEngine,
};
use crate::algo::knapsack::max_knapsack_dp;
use crate::budget::Budget;
use crate::ev::gaussian::MvnSemantics;
use crate::ev::modular::{modular_benefits, modular_benefits_gaussian};
use crate::ev::scoped::{EvState, ScopedEv};
use crate::instance::{GaussianInstance, Instance};
use crate::selection::Selection;
use crate::Result;
use fc_claims::{DecomposableQuery, QueryFunction};

/// Benefit oracle backed by the scoped Theorem 3.8 engine with
/// incremental state — benefits are exact objective deltas
/// `EV(T) − EV(T ∪ {i})`.
struct ScopedOracle<'e, 'a, Q: DecomposableQuery + ?Sized> {
    eng: &'e ScopedEv<'a, Q>,
    st: EvState,
}

impl<Q: DecomposableQuery + ?Sized> IncrementalOracle for ScopedOracle<'_, '_, Q> {
    fn benefit(&mut self, candidate: usize) -> f64 {
        self.eng.delta(&self.st, candidate)
    }
    fn commit(&mut self, obj: usize) {
        self.eng.apply(&mut self.st, obj);
    }
    fn affected(&self, obj: usize) -> Vec<usize> {
        self.eng.affected_by(obj)
    }
    fn note_memoized_benefit(&mut self) {
        // A memo hit replaces exactly one `delta` evaluation; count it
        // so resumed plans report identical diagnostics.
        self.eng.count_cached_eval();
    }
}

/// `GreedyMinVar` (§3.1): the benefit of each candidate is its actual
/// marginal reduction of `EV`, per unit cost.
///
/// Fast paths:
/// * affine query ⇒ Lemma 3.1 modular benefits, single sort
///   (`O(n(t + log n))`);
/// * otherwise ⇒ scoped Theorem 3.8 engine + versioned-heap incremental
///   greedy, exact via claim-scope locality. (Benefits *grow* as the
///   chosen set grows — Lemma 3.5's reversed-sense submodularity — so a
///   classic lazy heap would be unsound here.)
pub fn greedy_min_var<Q: DecomposableQuery + ?Sized>(
    instance: &Instance,
    query: &Q,
    budget: Budget,
) -> Selection {
    if let Ok(benefits) = modular_benefits(instance, query) {
        return greedy_static(&benefits, instance.costs(), budget, GreedyConfig::default());
    }
    let eng = ScopedEv::new(instance, query);
    greedy_min_var_with_engine(instance, &eng, budget)
}

/// `GreedyMinVar` reusing a prebuilt scoped engine (lets callers amortize
/// the engine across budget sweeps).
pub fn greedy_min_var_with_engine<Q: DecomposableQuery + ?Sized>(
    instance: &Instance,
    eng: &ScopedEv<'_, Q>,
    budget: Budget,
) -> Selection {
    let candidates = eng.relevant_objects();
    let mut oracle = ScopedOracle {
        eng,
        st: eng.initial_state(),
    };
    greedy_incremental(
        &candidates,
        instance.costs(),
        budget,
        &mut oracle,
        GreedyConfig::default(),
    )
}

/// [`greedy_min_var_with_engine`] with sweep-to-sweep resumption: the
/// [`SweepEngine`] carries the previous budget point's commit
/// trajectory and benefit memo, so adjacent points replay heap
/// maintenance instead of re-evaluating the scoped engine. Selections
/// (and evaluation diagnostics) are byte-identical to independent
/// solves at every budget, in any sweep order.
pub fn greedy_min_var_resumed<Q: DecomposableQuery + ?Sized>(
    instance: &Instance,
    eng: &ScopedEv<'_, Q>,
    budget: Budget,
    sweep: &mut SweepEngine,
) -> Selection {
    let candidates = eng.relevant_objects();
    let mut oracle = ScopedOracle {
        eng,
        st: eng.initial_state(),
    };
    greedy_incremental_resumed(
        &candidates,
        instance.costs(),
        budget,
        &mut oracle,
        GreedyConfig::default(),
        sweep,
    )
}

/// The ablation variant: a straightforward `O(n²γ)` greedy that
/// recomputes every candidate's `EV` delta from scratch each iteration
/// (no incremental state, no heap maintenance, and the full-pass
/// [`ScopedEv::ev_of_mask`], so every term is recomputed). Kept for the
/// `ablate_incremental_ev` benchmark and as a correctness cross-check.
pub fn greedy_min_var_from_scratch<Q: DecomposableQuery + ?Sized>(
    instance: &Instance,
    query: &Q,
    budget: Budget,
) -> Selection {
    let eng = ScopedEv::new(instance, query);
    let candidates = eng.relevant_objects();
    greedy_exhaustive(
        &candidates,
        instance.costs(),
        budget,
        |sel, i| {
            let mut mask = vec![false; instance.len()];
            for &o in sel.objects() {
                mask[o] = true;
            }
            let base = eng.ev_of_mask(&mask);
            mask[i] = true;
            base - eng.ev_of_mask(&mask)
        },
        GreedyConfig::default(),
    )
}

/// `Optimum` (Lemma 3.2): the exact pseudo-polynomial solution for
/// modular (affine-query) MinVar, via the max-knapsack DP on the
/// benefits. Errors with [`CoreError::NotAffine`](crate::CoreError::NotAffine) otherwise.
pub fn knapsack_optimum_min_var(
    instance: &Instance,
    query: &dyn QueryFunction,
    budget: Budget,
) -> Result<Selection> {
    let benefits = modular_benefits(instance, query)?;
    let (chosen, _) = max_knapsack_dp(&benefits, instance.costs(), budget.get());
    Ok(Selection::from_objects(chosen, instance.costs()))
}

/// `GreedyMinVar` over a Gaussian instance with a linear query: modular
/// benefits `wᵢ = aᵢ²σᵢ²` (exact for diagonal covariance; the paper's
/// independence-assuming algorithm when correlations exist but are
/// unknown to it).
pub fn greedy_min_var_gaussian(
    instance: &GaussianInstance,
    weights: &[f64],
    budget: Budget,
) -> Selection {
    let benefits = modular_benefits_gaussian(instance, weights);
    greedy_static(&benefits, instance.costs(), budget, GreedyConfig::default())
}

/// `Optimum` over a Gaussian instance with a linear query (same caveats
/// as [`greedy_min_var_gaussian`]).
pub fn knapsack_optimum_min_var_gaussian(
    instance: &GaussianInstance,
    weights: &[f64],
    budget: Budget,
) -> Selection {
    let benefits = modular_benefits_gaussian(instance, weights);
    let (chosen, _) = max_knapsack_dp(&benefits, instance.costs(), budget.get());
    Selection::from_objects(chosen, instance.costs())
}

/// Dependency-*aware* exact `EV` objective value for a cleaned set over a
/// Gaussian instance (conditional semantics) — the quantity the §4.5
/// figures plot.
pub fn gaussian_ev_conditional(
    instance: &GaussianInstance,
    weights: &[f64],
    selection: &Selection,
) -> Result<f64> {
    crate::ev::gaussian::ev_gaussian_linear(
        instance,
        weights,
        selection.objects(),
        MvnSemantics::Conditional,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_claims::query::IndicatorSense;
    use fc_claims::{
        BiasQuery, ClaimSet, Direction, DupQuery, LinearClaim, ThresholdIndicatorQuery,
    };
    use fc_uncertain::DiscreteDist;

    fn example6_instance() -> Instance {
        Instance::new(
            vec![
                DiscreteDist::uniform_over(&[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap(),
                DiscreteDist::uniform_over(&[1.0 / 3.0, 1.0, 5.0 / 3.0]).unwrap(),
            ],
            vec![1.0, 1.0],
            vec![1, 1],
        )
        .unwrap()
    }

    #[test]
    fn example6_greedy_min_var_picks_x2() {
        // GreedyMinVar must clean X2 (improvement 0.0355 > 0.0266), the
        // opposite of GreedyNaive's variance-based choice.
        let inst = example6_instance();
        let q = ThresholdIndicatorQuery::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            11.0 / 12.0,
            IndicatorSense::Below,
        );
        let sel = greedy_min_var(&inst, &q, Budget::absolute(1));
        assert_eq!(sel.objects(), &[1]);
        // The from-scratch ablation agrees.
        let sel2 = greedy_min_var_from_scratch(&inst, &q, Budget::absolute(1));
        assert_eq!(sel2.objects(), &[1]);
    }

    #[test]
    fn example5_modular_picks_x1() {
        // For the affine bias query, MinVar cleans X1 (larger variance).
        let inst = example6_instance();
        let cs = ClaimSet::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            vec![LinearClaim::window_sum(0, 2).unwrap()],
            vec![1.0],
            Direction::HigherIsStronger,
        )
        .unwrap();
        let q = BiasQuery::new(cs, 2.0);
        let sel = greedy_min_var(&inst, &q, Budget::absolute(1));
        assert_eq!(sel.objects(), &[0]);
        let opt = knapsack_optimum_min_var(&inst, &q, Budget::absolute(1)).unwrap();
        assert_eq!(opt.objects(), &[0]);
    }

    #[test]
    fn incremental_matches_from_scratch_on_overlapping_claims() {
        let dists = vec![
            DiscreteDist::uniform_over(&[0.0, 3.0, 7.0]).unwrap(),
            DiscreteDist::uniform_over(&[1.0, 2.0]).unwrap(),
            DiscreteDist::uniform_over(&[0.0, 5.0, 9.0]).unwrap(),
            DiscreteDist::uniform_over(&[2.0, 4.0]).unwrap(),
            DiscreteDist::uniform_over(&[0.0, 8.0]).unwrap(),
        ];
        let inst = Instance::new(dists, vec![3.0; 5], vec![2, 1, 3, 1, 2]).unwrap();
        let cs = ClaimSet::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            vec![
                LinearClaim::window_sum(0, 2).unwrap(),
                LinearClaim::window_sum(1, 2).unwrap(),
                LinearClaim::window_sum(2, 2).unwrap(),
                LinearClaim::window_sum(3, 2).unwrap(),
            ],
            vec![1.0; 4],
            Direction::HigherIsStronger,
        )
        .unwrap();
        let q = DupQuery::new(cs, 8.0);
        for budget in [1u64, 3, 5, 9] {
            let a = greedy_min_var(&inst, &q, Budget::absolute(budget));
            let b = greedy_min_var_from_scratch(&inst, &q, Budget::absolute(budget));
            assert_eq!(a, b, "budget {budget}");
        }
    }

    #[test]
    fn gaussian_modular_paths_agree() {
        let g = GaussianInstance::centered_independent(
            vec![10.0, 20.0, 30.0, 40.0],
            &[4.0, 1.0, 3.0, 2.0],
            vec![2, 1, 2, 1],
        )
        .unwrap();
        let w = [1.0, 1.0, -1.0, 1.0];
        // With enough budget both clean everything relevant.
        let sel = greedy_min_var_gaussian(&g, &w, Budget::absolute(6));
        let opt = knapsack_optimum_min_var_gaussian(&g, &w, Budget::absolute(6));
        assert_eq!(sel.objects(), &[0, 1, 2, 3]);
        assert_eq!(opt.objects(), &[0, 1, 2, 3]);
        // Tight budget: optimum ≥ greedy in achieved benefit.
        let benefits = modular_benefits_gaussian(&g, &w);
        for b in [1u64, 2, 3, 4] {
            let gsel = greedy_min_var_gaussian(&g, &w, Budget::absolute(b));
            let osel = knapsack_optimum_min_var_gaussian(&g, &w, Budget::absolute(b));
            let gval: f64 = gsel.objects().iter().map(|&i| benefits[i]).sum();
            let oval: f64 = osel.objects().iter().map(|&i| benefits[i]).sum();
            assert!(oval >= gval - 1e-12, "budget {b}");
            assert!(oval <= 2.0 * gval + 1e-12, "2-approx, budget {b}");
        }
    }
}
