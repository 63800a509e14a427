//! Linear claim functions and claim sets (original + perturbations).

use crate::{ClaimError, Result};
use serde::{Deserialize, Serialize};

/// A linear claim function `q(X) = b + Σ_{i ∈ objs} a_i · X_i`.
///
/// Window aggregate comparison claims (Example 4), window sums, and any
/// SQL aggregation over selections/joins with certain predicates are of
/// this form (§3.4). Weights are stored sparsely as `(object, weight)`
/// pairs sorted by object index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearClaim {
    terms: Vec<(usize, f64)>,
    bias: f64,
}

impl LinearClaim {
    /// Builds a claim from `(object index, weight)` pairs and an additive
    /// constant. Duplicate object indices have their weights summed;
    /// zero-weight terms are dropped.
    pub fn new(terms: impl IntoIterator<Item = (usize, f64)>, bias: f64) -> Result<Self> {
        let mut terms: Vec<(usize, f64)> = terms.into_iter().collect();
        terms.sort_by_key(|&(i, _)| i);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for (i, w) in terms {
            match merged.last_mut() {
                Some((j, acc)) if *j == i => *acc += w,
                _ => merged.push((i, w)),
            }
        }
        merged.retain(|&(_, w)| w != 0.0);
        if merged.is_empty() {
            return Err(ClaimError::EmptyClaim);
        }
        Ok(Self {
            terms: merged,
            bias,
        })
    }

    /// A claim summing the objects in `[start, start + width)` with unit
    /// weights (e.g. "injuries over the last two years").
    pub fn window_sum(start: usize, width: usize) -> Result<Self> {
        Self::new((start..start + width).map(|i| (i, 1.0)), 0.0)
    }

    /// A window *comparison* claim: `Σ later window − Σ earlier window`
    /// (positive = increase). Both windows have length `width`.
    pub fn window_comparison(
        earlier_start: usize,
        later_start: usize,
        width: usize,
    ) -> Result<Self> {
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(2 * width);
        terms.extend((earlier_start..earlier_start + width).map(|i| (i, -1.0)));
        terms.extend((later_start..later_start + width).map(|i| (i, 1.0)));
        Self::new(terms, 0.0)
    }

    /// Sparse `(object, weight)` terms sorted by object.
    #[inline]
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// Additive constant `b`.
    #[inline]
    pub fn bias_term(&self) -> f64 {
        self.bias
    }

    /// Sorted object indices referenced by the claim.
    pub fn objects(&self) -> Vec<usize> {
        self.terms.iter().map(|&(i, _)| i).collect()
    }

    /// Number of referenced objects (the paper's `W`).
    #[inline]
    pub fn width(&self) -> usize {
        self.terms.len()
    }

    /// Weight on object `i` (0 when not referenced).
    pub fn weight_of(&self, i: usize) -> f64 {
        self.terms
            .binary_search_by_key(&i, |&(j, _)| j)
            .map(|pos| self.terms[pos].1)
            .unwrap_or(0.0)
    }

    /// Evaluates on a full value vector (indexed by object id).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.bias + self.terms.iter().map(|&(i, w)| w * values[i]).sum::<f64>()
    }

    /// Evaluates on values aligned with [`Self::objects`] (scoped form,
    /// used by the enumeration engines).
    pub fn eval_scoped(&self, scoped: &[f64]) -> f64 {
        debug_assert_eq!(scoped.len(), self.terms.len());
        self.bias
            + self
                .terms
                .iter()
                .zip(scoped)
                .map(|(&(_, w), &v)| w * v)
                .sum::<f64>()
    }

    /// Densifies the weights into a length-`n` vector.
    pub fn dense_weights(&self, n: usize) -> Vec<f64> {
        let mut w = vec![0.0; n];
        for &(i, a) in &self.terms {
            w[i] = a;
        }
        w
    }

    /// Whether the claim references object `i`.
    pub fn references(&self, i: usize) -> bool {
        self.terms.binary_search_by_key(&i, |&(j, _)| j).is_ok()
    }
}

/// Which direction makes a claim *stronger*.
///
/// "Crime went up by 300" is strengthened by larger differences
/// ([`Direction::HigherIsStronger`]); "injuries are as low as Γ" is
/// strengthened by smaller sums ([`Direction::LowerIsStronger`]).
/// The signed relative strength used throughout is
/// `Δ_k(x) = dir · (q_k(x) − θ)` with `dir ∈ {+1, −1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Larger claim-function values are stronger.
    HigherIsStronger,
    /// Smaller claim-function values are stronger.
    LowerIsStronger,
}

impl Direction {
    /// The sign folded into `Δ`.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Self::HigherIsStronger => 1.0,
            Self::LowerIsStronger => -1.0,
        }
    }
}

/// Sensibility-mass error below which a vector counts as *already*
/// normalized and is stored bit-exactly — the same cutoff
/// `DiscreteDist::new` applies to a pmf. One rescale leaves `Σs`
/// within a few ulps of 1, so normalization is idempotent and a claim
/// set that round-trips through a wire codec re-enters construction
/// unchanged. Without the cutoff every decode divides by a total ≠ 1.0
/// and moves the last bits, so replicas disagree on the definition.
const SENSIBILITY_RENORM_TOL: f64 = 1e-12;

/// An original claim with its perturbation family and sensibilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimSet {
    original: LinearClaim,
    perturbations: Vec<LinearClaim>,
    sensibilities: Vec<f64>,
    direction: Direction,
}

impl ClaimSet {
    /// Assembles a claim set; sensibilities are validated (non-negative,
    /// positive total) and normalized to sum to 1 as the paper requires.
    /// A vector already within `SENSIBILITY_RENORM_TOL` (1e-12) of unit
    /// mass is kept bit for bit.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // !(x >= 0) is the NaN-safe check
    pub fn new(
        original: LinearClaim,
        perturbations: Vec<LinearClaim>,
        sensibilities: Vec<f64>,
        direction: Direction,
    ) -> Result<Self> {
        if perturbations.len() != sensibilities.len() {
            return Err(ClaimError::SensibilityMismatch {
                perturbations: perturbations.len(),
                sensibilities: sensibilities.len(),
            });
        }
        let total: f64 = sensibilities.iter().sum();
        if !(total > 0.0) || sensibilities.iter().any(|&s| !(s >= 0.0) || !s.is_finite()) {
            return Err(ClaimError::InvalidSensibility);
        }
        let sensibilities = if (total - 1.0).abs() > SENSIBILITY_RENORM_TOL {
            sensibilities.iter().map(|s| s / total).collect()
        } else {
            sensibilities
        };
        Ok(Self {
            original,
            perturbations,
            sensibilities,
            direction,
        })
    }

    /// The original claim `q°`.
    #[inline]
    pub fn original(&self) -> &LinearClaim {
        &self.original
    }

    /// The perturbations `q_1 … q_m`.
    #[inline]
    pub fn perturbations(&self) -> &[LinearClaim] {
        &self.perturbations
    }

    /// Normalized sensibilities (sum to 1).
    #[inline]
    pub fn sensibilities(&self) -> &[f64] {
        &self.sensibilities
    }

    /// Claim strength direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of perturbations (`m`).
    #[inline]
    pub fn len(&self) -> usize {
        self.perturbations.len()
    }

    /// Whether the perturbation family is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.perturbations.is_empty()
    }

    /// `q°` evaluated on a concrete value vector (typically the current
    /// database values `u`); this is the reference `θ` for `Δ`.
    pub fn original_value(&self, values: &[f64]) -> f64 {
        self.original.eval(values)
    }

    /// Signed relative strength of perturbation `k` at concrete values
    /// `x`, against reference `theta`: `dir · (q_k(x) − θ)`.
    pub fn delta(&self, k: usize, x: &[f64], theta: f64) -> f64 {
        self.direction.sign() * (self.perturbations[k].eval(x) - theta)
    }

    /// Fairness measure: `bias(θ, x) = Σ_k s_k · Δ_k(x)`.
    /// Zero ⇒ fair; negative ⇒ the original exaggerates; positive ⇒ it
    /// understates (§2.2).
    pub fn bias(&self, x: &[f64], theta: f64) -> f64 {
        self.sensibilities
            .iter()
            .enumerate()
            .map(|(k, s)| s * self.delta(k, x, theta))
            .sum()
    }

    /// Uniqueness measure: `dup(θ, x) = Σ_k 1[Δ_k(x) ≥ 0]` — the number of
    /// perturbations at least as strong as the original. Lower ⇒ more
    /// unique.
    pub fn dup(&self, x: &[f64], theta: f64) -> f64 {
        (0..self.len())
            .filter(|&k| self.delta(k, x, theta) >= 0.0)
            .count() as f64
    }

    /// Robustness measure: `frag(θ, x) = Σ_k s_k · min{Δ_k(x), 0}²`.
    /// Low fragility ⇒ hard to find weakening perturbations ⇒ robust.
    pub fn frag(&self, x: &[f64], theta: f64) -> f64 {
        self.sensibilities
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let d = self.delta(k, x, theta).min(0.0);
                s * d * d
            })
            .sum()
    }

    /// The perturbation that most *weakens* the original at `x` (most
    /// negative `Δ`), if any weakens it: a counterargument candidate.
    pub fn strongest_counter(&self, x: &[f64], theta: f64) -> Option<(usize, f64)> {
        (0..self.len())
            .map(|k| (k, self.delta(k, x, theta)))
            .filter(|&(_, d)| d < 0.0)
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The perturbation that most *out-does* the original at `x`
    /// (largest strictly positive `Δ`), if any: the §4.3 uniqueness-style
    /// counterargument ("another period with even fewer injuries").
    pub fn strongest_duplicate(&self, x: &[f64], theta: f64) -> Option<(usize, f64)> {
        (0..self.len())
            .map(|k| (k, self.delta(k, x, theta)))
            .filter(|&(_, d)| d > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// A copy of this claim set with the strength direction replaced.
    /// `with_direction(HigherIsStronger)` yields the *plain subtraction*
    /// `Δ(q_k, θ) = q_k − θ` of §2.2 regardless of the original claim's
    /// direction — the form the MaxPr/bias machinery of §4.3 works with.
    pub fn with_direction(&self, direction: Direction) -> Self {
        Self {
            original: self.original.clone(),
            perturbations: self.perturbations.clone(),
            sensibilities: self.sensibilities.clone(),
            direction,
        }
    }

    /// Union of all object indices referenced by `q°` or any perturbation,
    /// sorted ascending.
    pub fn all_objects(&self) -> Vec<usize> {
        let mut objs: Vec<usize> = self.original.objects();
        for p in &self.perturbations {
            objs.extend(p.objects());
        }
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// Maximum number of objects referenced by any single claim (the
    /// paper's `W`).
    pub fn max_width(&self) -> usize {
        self.perturbations
            .iter()
            .map(LinearClaim::width)
            .chain(std::iter::once(self.original.width()))
            .max()
            .unwrap_or(0)
    }

    /// Degree of the claim set: the maximum, over perturbations, of the
    /// number of *other* perturbations sharing at least one object
    /// (the paper's `L`, used in the Theorem 3.8 complexity discussion).
    pub fn degree(&self) -> usize {
        (0..self.len())
            .map(|k| {
                (0..self.len())
                    .filter(|&k2| k2 != k && self.shares_object(k, k2))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether perturbations `k` and `k2` reference a common object.
    pub fn shares_object(&self, k: usize, k2: usize) -> bool {
        let a = &self.perturbations[k];
        let b = &self.perturbations[k2];
        // Merge-walk over the sorted term lists.
        let (mut i, mut j) = (0, 0);
        let (ta, tb) = (a.terms(), b.terms());
        while i < ta.len() && j < tb.len() {
            match ta[i].0.cmp(&tb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_claim_merges_and_drops_zeros() {
        let c = LinearClaim::new([(3, 1.0), (1, 2.0), (3, -1.0), (0, 0.0)], 5.0).unwrap();
        assert_eq!(c.terms(), &[(1, 2.0)]);
        assert_eq!(c.bias_term(), 5.0);
    }

    #[test]
    fn empty_claim_rejected() {
        assert_eq!(
            LinearClaim::new([(0, 1.0), (0, -1.0)], 0.0).unwrap_err(),
            ClaimError::EmptyClaim
        );
    }

    #[test]
    fn window_comparison_weights() {
        // Example 2: X2018 − X2017 with years indexed 0..5 (2014..2018).
        let c = LinearClaim::window_comparison(3, 4, 1).unwrap();
        let u = [9010.0, 9275.0, 9300.0, 9125.0, 9430.0];
        assert_eq!(c.eval(&u), 305.0);
        assert_eq!(c.weight_of(3), -1.0);
        assert_eq!(c.weight_of(4), 1.0);
        assert_eq!(c.weight_of(0), 0.0);
    }

    #[test]
    fn eval_scoped_matches_eval() {
        let c = LinearClaim::new([(1, 2.0), (4, -1.0)], 3.0).unwrap();
        let full = [0.0, 10.0, 0.0, 0.0, 4.0];
        assert_eq!(c.eval(&full), c.eval_scoped(&[10.0, 4.0]));
    }

    fn example2_claimset() -> ClaimSet {
        // q° = X2018 − X2017, perturbations = yearly differences.
        let original = LinearClaim::window_comparison(3, 4, 1).unwrap();
        let perturbations = vec![
            LinearClaim::window_comparison(2, 3, 1).unwrap(), // 2017-2016
            LinearClaim::window_comparison(1, 2, 1).unwrap(), // 2016-2015
            LinearClaim::window_comparison(0, 1, 1).unwrap(), // 2015-2014
        ];
        ClaimSet::new(
            original,
            perturbations,
            vec![1.0, 1.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    #[test]
    fn sensibilities_normalized() {
        let cs = example2_claimset();
        let total: f64 = cs.sensibilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((cs.sensibilities()[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dup_counts_stronger_perturbations() {
        let cs = example2_claimset();
        let u = [9010.0, 9275.0, 9300.0, 9125.0, 9430.0];
        let theta = cs.original_value(&u); // 305
        assert_eq!(theta, 305.0);
        // Yearly increases: 2016−2017: −175, 2015−2016: 25, 2014−2015: 265.
        // None ≥ 305 ⇒ dup = 0 (the claim looks unique on current data).
        assert_eq!(cs.dup(&u, theta), 0.0);
        // If cleaning revealed X2015 = 9315, the 2014→2015 increase
        // becomes 305 ⇒ dup = 1 (Example 2's counterargument).
        let cleaned = [9010.0, 9315.0, 9300.0, 9125.0, 9430.0];
        assert_eq!(cs.dup(&cleaned, theta), 1.0);
    }

    #[test]
    fn bias_is_sensibility_weighted_mean_delta() {
        let cs = example2_claimset();
        let u = [9010.0, 9275.0, 9300.0, 9125.0, 9430.0];
        let theta = 305.0;
        let want = ((-175.0 - 305.0) + (25.0 - 305.0) + (265.0 - 305.0)) / 3.0;
        assert!((cs.bias(&u, theta) - want).abs() < 1e-12);
    }

    #[test]
    fn frag_squares_only_weakenings() {
        let cs = example2_claimset();
        let u = [9010.0, 9275.0, 9300.0, 9125.0, 9430.0];
        let theta = 0.0; // all Δ = raw increases: −175, 25, 265.
        let want = (175.0 * 175.0) / 3.0; // only the −175 weakens
        assert!((cs.frag(&u, theta) - want).abs() < 1e-9);
    }

    #[test]
    fn direction_flips_delta() {
        let original = LinearClaim::window_sum(0, 2).unwrap();
        let p = LinearClaim::window_sum(2, 2).unwrap();
        let cs = ClaimSet::new(original, vec![p], vec![1.0], Direction::LowerIsStronger).unwrap();
        let x = [10.0, 10.0, 3.0, 4.0];
        let theta = 20.0;
        // q1(x) = 7 < 20, and lower is stronger ⇒ Δ = +13.
        assert!((cs.delta(0, &x, theta) - 13.0).abs() < 1e-12);
        assert_eq!(cs.dup(&x, theta), 1.0);
    }

    #[test]
    fn strongest_counter() {
        let cs = example2_claimset();
        let u = [9010.0, 9275.0, 9300.0, 9125.0, 9430.0];
        let (k, d) = cs.strongest_counter(&u, 305.0).unwrap();
        assert_eq!(k, 0); // 2016→2017 dropped by 175: weakest delta −480.
        assert!((d + 480.0).abs() < 1e-12);
    }

    #[test]
    fn shares_object_and_degree() {
        let cs = example2_claimset();
        // Adjacent yearly diffs share an endpoint year.
        assert!(cs.shares_object(0, 1));
        assert!(!cs.shares_object(0, 2));
        assert_eq!(cs.degree(), 2); // middle perturbation touches both ends
    }

    #[test]
    fn invalid_sensibility_rejected() {
        let original = LinearClaim::window_sum(0, 1).unwrap();
        let p = LinearClaim::window_sum(1, 1).unwrap();
        let r = ClaimSet::new(
            original.clone(),
            vec![p.clone()],
            vec![-1.0],
            Direction::HigherIsStronger,
        );
        assert_eq!(r.unwrap_err(), ClaimError::InvalidSensibility);
        let r = ClaimSet::new(original, vec![p], vec![], Direction::HigherIsStronger);
        assert!(matches!(
            r.unwrap_err(),
            ClaimError::SensibilityMismatch { .. }
        ));
    }

    #[test]
    fn all_objects_union() {
        let cs = example2_claimset();
        assert_eq!(cs.all_objects(), vec![0, 1, 2, 3, 4]);
        assert_eq!(cs.max_width(), 2);
    }
}
