//! High-level fact-checker workflow over the unified planner.
//!
//! [`CleaningSession`] pairs uncertain data — discrete **or** Gaussian
//! ([`DataModel`]) — with the [`ClaimSet`] under scrutiny and answers
//! the practitioner's question directly: *given my budget and goal,
//! which values should I clean?* Objectives are requested as
//! [`ObjectiveSpec`]s (measure × goal × strategy) and solved through a
//! pluggable [`SolverRegistry`]; results come back as [`Plan`]s carrying
//! the selection, the objective before/after, the resolved strategy
//! name, and evaluation diagnostics.
//!
//! Serving entry points:
//!
//! * [`CleaningSession::recommend`] — one objective, one budget;
//! * [`CleaningSession::recommend_many`] — a batch of objectives at one
//!   budget (one request per measure the checker cares about);
//! * [`CleaningSession::recommend_sweep`] — one objective across a
//!   budget sweep, sharing the engine prefix work across all points
//!   (the hot path of every figure binary).
//!
//! Batches and sweeps run through the planner's sharded executor:
//! independent lowered problems (and sweep budget points) are dealt to
//! a worker pool sized by the builder's
//! [`parallelism`](crate::builder::SessionBuilder::parallelism) knob,
//! and the plans come back in input order, byte-identical to the
//! sequential ones. With a
//! [`cache_store`](crate::builder::SessionBuilder::cache_store)
//! installed, the expensive scoped-EV prefix work is additionally keyed
//! on (instance fingerprint, measure identity) and survives the
//! session — repeat sessions over the same dataset rebuild nothing.

use std::sync::Arc;

use fc_claims::{BiasQuery, ClaimSet, DupQuery, FragQuery, QueryFunction};
use fc_core::planner::{EngineCache, Fnv1a, SharedQuery};
use fc_core::{
    BatchJob, Budget, CacheKey, CacheStore, CoreError, ExecOptions, GaussianInstance, Instance,
    Parallelism, Plan, Problem, Result, Selection, SolverRegistry,
};

use crate::builder::SessionBuilder;
use crate::planner::{Goal, Measure, ObjectiveSpec};

/// The uncertain data underlying a session: the paper's discrete
/// marginals, or a (multivariate) normal error model.
#[derive(Debug, Clone, PartialEq)]
pub enum DataModel {
    /// Discrete, mutually independent marginals (§2.1).
    Discrete(Instance),
    /// Normal / multivariate-normal errors (§3.2, §4.5).
    Gaussian(GaussianInstance),
}

impl DataModel {
    /// Current (pre-cleaning) values `u`.
    pub fn current(&self) -> &[f64] {
        match self {
            Self::Discrete(i) => i.current(),
            Self::Gaussian(g) => g.current(),
        }
    }

    /// Cleaning costs `c`.
    pub fn costs(&self) -> &[u64] {
        match self {
            Self::Discrete(i) => i.costs(),
            Self::Gaussian(g) => g.costs(),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        match self {
            Self::Discrete(i) => i.len(),
            Self::Gaussian(g) => g.len(),
        }
    }

    /// Whether the model has no objects (never true once validated).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cost of cleaning everything.
    pub fn total_cost(&self) -> u64 {
        self.costs().iter().sum()
    }
}

fn unknown_goal(goal: Goal) -> CoreError {
    CoreError::StrategyUnsupported {
        strategy: "session".into(),
        reason: format!("goal {goal} is not supported by this session version"),
    }
}

impl From<Instance> for DataModel {
    fn from(i: Instance) -> Self {
        Self::Discrete(i)
    }
}

impl From<GaussianInstance> for DataModel {
    fn from(g: GaussianInstance) -> Self {
        Self::Gaussian(g)
    }
}

/// A fact-checking session: uncertain data + the claim under scrutiny +
/// the solver registry serving it.
#[derive(Clone)]
pub struct CleaningSession {
    data: DataModel,
    claims: ClaimSet,
    theta: f64,
    registry: Arc<SolverRegistry>,
    discretize_support: usize,
    parallelism: Parallelism,
    cache_store: Option<Arc<CacheStore>>,
    /// Memoized per-measure [`CacheKey`]s (indexed Bias/Dup/Frag);
    /// each is computed once per data version. Clones share the memo —
    /// they share the data it fingerprints. Data-updating operations
    /// ([`CleaningSession::after_cleaning`] /
    /// [`CleaningSession::with_updated_values`]) replace this memo in
    /// the returned session: the cleaned instance must be
    /// re-fingerprinted.
    cache_keys: Arc<[std::sync::OnceLock<CacheKey>; 3]>,
    /// Memoized per-measure query digests (the non-instance half of a
    /// [`CacheKey`]: measure, θ, claim family, discretization width).
    /// All of that is immutable for the session's lifetime, so — unlike
    /// `cache_keys` — this memo is *carried across* data updates:
    /// cleaning a value re-fingerprints only the touched instance,
    /// never re-hashes the claims.
    query_digests: Arc<[std::sync::OnceLock<u64>; 3]>,
}

impl std::fmt::Debug for CleaningSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleaningSession")
            .field("data", &self.data)
            .field("theta", &self.theta)
            .field("strategies", &self.registry.names().len())
            .field("parallelism", &self.parallelism)
            .field("cache_store", &self.cache_store.is_some())
            .finish()
    }
}

impl CleaningSession {
    /// Starts a discrete session with the default registry; the claim's
    /// reference value `θ` is its result on the current data. (The
    /// builder form, [`CleaningSession::builder`], also accepts
    /// Gaussian instances, a custom registry, and a θ override.)
    pub fn new(instance: Instance, claims: ClaimSet) -> Self {
        SessionBuilder::new()
            .discrete(instance)
            .claims(claims)
            .build()
            .expect("data and claims are set")
    }

    /// A fresh [`SessionBuilder`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    pub(crate) fn from_parts(
        data: DataModel,
        claims: ClaimSet,
        theta: f64,
        registry: Arc<SolverRegistry>,
        discretize_support: usize,
        parallelism: Parallelism,
        cache_store: Option<Arc<CacheStore>>,
    ) -> Self {
        Self {
            data,
            claims,
            theta,
            registry,
            discretize_support,
            parallelism,
            cache_store,
            cache_keys: Arc::new(Default::default()),
            query_digests: Arc::new(Default::default()),
        }
    }

    /// The underlying data model.
    pub fn data(&self) -> &DataModel {
        &self.data
    }

    /// The underlying discrete instance.
    ///
    /// # Panics
    /// For Gaussian sessions; use [`CleaningSession::data`] when the
    /// error model is not statically known.
    pub fn instance(&self) -> &Instance {
        match &self.data {
            DataModel::Discrete(i) => i,
            DataModel::Gaussian(_) => {
                panic!("instance(): session uses the Gaussian error model; use data()")
            }
        }
    }

    /// The claim family under check.
    pub fn claims(&self) -> &ClaimSet {
        &self.claims
    }

    /// The solver registry serving this session.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The original claim's reference value (`θ`).
    pub fn original_value(&self) -> f64 {
        self.theta
    }

    /// The support width a Gaussian session discretizes onto for the
    /// non-affine measures (§4.2). Part of a stream's full definition:
    /// a replica must adopt the same width to derive the same cache
    /// fingerprints.
    pub fn discretize_support(&self) -> usize {
        self.discretize_support
    }

    /// Claim-quality measures `(bias, dup, frag)` evaluated on the
    /// current data.
    pub fn current_quality(&self) -> (f64, f64, f64) {
        let u = self.data.current();
        (
            self.claims.bias(u, self.theta),
            self.claims.dup(u, self.theta),
            self.claims.frag(u, self.theta),
        )
    }

    /// Lowers an [`ObjectiveSpec`] onto a concrete [`Problem`]:
    /// measure → query (discrete) or weights (Gaussian), goal → goal.
    /// Gaussian data with a non-affine measure (`dup`/`frag`) is
    /// discretized per §4.2 so the scoped engines apply.
    pub fn build_problem(&self, spec: &ObjectiveSpec) -> Result<Problem> {
        let goal = spec.goal;
        match (&self.data, spec.measure) {
            (DataModel::Discrete(instance), measure) => {
                self.discrete_problem(instance.clone(), measure, goal)
            }
            (DataModel::Gaussian(g), Measure::Bias) => {
                let q = BiasQuery::new(self.claims.clone(), self.theta);
                let (weights, _) = q
                    .as_affine(g.len())
                    .expect("bias is affine for linear claims");
                match goal {
                    Goal::MinVar => Problem::gaussian_min_var(g.clone(), weights),
                    Goal::MaxPr { tau } => Problem::gaussian_max_pr(g.clone(), weights, tau),
                    _ => Err(unknown_goal(goal)),
                }
            }
            (DataModel::Gaussian(g), measure) => {
                // dup/frag need the discrete engines; discretize the
                // normal marginals (§4.2: "6 and 4 discrete values").
                let discrete = g.discretize(self.discretize_support)?;
                self.discrete_problem(discrete, measure, goal)
            }
        }
    }

    fn discrete_problem(
        &self,
        instance: Instance,
        measure: Measure,
        goal: Goal,
    ) -> Result<Problem> {
        let query: SharedQuery = match measure {
            Measure::Bias => Arc::new(BiasQuery::new(self.claims.clone(), self.theta)),
            Measure::Dup => Arc::new(DupQuery::new(self.claims.clone(), self.theta)),
            Measure::Frag => Arc::new(FragQuery::new(self.claims.clone(), self.theta)),
        };
        match goal {
            Goal::MinVar => Problem::discrete_min_var(instance, query),
            Goal::MaxPr { tau } => Problem::discrete_max_pr(instance, query, tau),
            _ => Err(unknown_goal(goal)),
        }
    }

    /// The executor options this session solves batches and sweeps
    /// with (builder-configured parallelism + optional engine store).
    fn exec_options(&self) -> ExecOptions {
        let mut opts = ExecOptions::new(self.parallelism);
        if let Some(store) = &self.cache_store {
            opts = opts.with_store(Arc::clone(store));
        }
        opts
    }

    /// The persistence identity of a lowered problem: the instance
    /// fingerprint paired with a digest of everything the engines
    /// depend on besides it — measure, θ, the claim family, and the
    /// discretization width (for Gaussian data lowered onto discrete
    /// engines). Goal and budget are deliberately excluded: scoped
    /// tables and modular benefits are valid for every goal. Memoized
    /// per measure and per data version, with the two halves memoized
    /// independently: after a cleaning step only the instance half is
    /// recomputed ([`ClaimStream`](crate::serve::ClaimStream) relies on
    /// this to keep incremental updates cheap).
    pub(crate) fn cache_key(&self, problem: &Problem, measure: Measure) -> CacheKey {
        let index = Self::measure_index(measure);
        *self.cache_keys[index].get_or_init(|| {
            let query = *self.query_digests[index].get_or_init(|| self.query_digest(measure));
            CacheKey::new(problem.instance_fingerprint(), query)
        })
    }

    fn measure_index(measure: Measure) -> usize {
        match measure {
            Measure::Bias => 0,
            Measure::Dup => 1,
            Measure::Frag => 2,
        }
    }

    /// The distinct instance fingerprints under which this session's
    /// data may have [`CacheStore`] entries — i.e. the instance halves
    /// of the cache keys actually derived so far. Data-updating
    /// operations invalidate exactly these (see
    /// [`ClaimStream::mark_cleaned`](crate::serve::ClaimStream::mark_cleaned)).
    pub(crate) fn active_instance_fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> = self
            .cache_keys
            .iter()
            .filter_map(|slot| slot.get().map(|key| key.instance))
            .collect();
        fps.sort_unstable();
        fps.dedup();
        fps
    }

    /// Derives (and memoizes) the cache keys for **all three**
    /// measures, then returns the full fingerprint set. Unlike
    /// [`CleaningSession::active_instance_fingerprints`] — which only
    /// reports keys derived by earlier solves — this covers every
    /// store entry the session's data could own, which is what a
    /// snapshot-slice export or adopt needs to cut/validate a complete
    /// per-stream slice. Discrete sessions derive without lowering;
    /// Gaussian sessions lower one problem per measure (bias
    /// fingerprints the Gaussian instance, dup/frag a derived
    /// discretization).
    pub(crate) fn all_instance_fingerprints(&self) -> Vec<u64> {
        for (index, measure) in [Measure::Bias, Measure::Dup, Measure::Frag]
            .into_iter()
            .enumerate()
        {
            if self.prederive_cache_key(index).is_none() {
                if let Ok(problem) = self.build_problem(&ObjectiveSpec::ascertain(measure)) {
                    let _ = self.cache_key(&problem, measure);
                }
            }
        }
        self.active_instance_fingerprints()
    }

    /// The measure-indexed cache keys actually derived so far — the
    /// candidate entries for a [`CacheStore::rekey`] carry after a
    /// data update whose touched objects sit outside every claim
    /// scope (see [`ClaimStream::mark_cleaned`](crate::serve::ClaimStream::mark_cleaned)).
    pub(crate) fn derived_cache_keys(&self) -> Vec<(usize, CacheKey)> {
        self.cache_keys
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.get().map(|&key| (index, key)))
            .collect()
    }

    /// Derives (and memoizes) the cache key for measure index `index`
    /// directly from this session's discrete instance, without
    /// lowering a [`Problem`]. Matches [`CleaningSession::cache_key`]
    /// exactly: discrete problems clone the session instance, so the
    /// fingerprint of the session data *is* the lowered problem's
    /// instance fingerprint. Returns `None` for Gaussian sessions
    /// (bias problems fingerprint the Gaussian instance there, and
    /// dup/frag fingerprint a derived discretization).
    pub(crate) fn prederive_cache_key(&self, index: usize) -> Option<CacheKey> {
        let DataModel::Discrete(instance) = &self.data else {
            return None;
        };
        let measure = [Measure::Bias, Measure::Dup, Measure::Frag][index];
        Some(*self.cache_keys[index].get_or_init(|| {
            let query = *self.query_digests[index].get_or_init(|| self.query_digest(measure));
            CacheKey::new(
                fc_core::planner::cache::fingerprint_instance(instance),
                query,
            )
        }))
    }

    /// The non-instance half of a [`CacheKey`] (see
    /// [`CleaningSession::cache_key`]).
    fn query_digest(&self, measure: Measure) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(measure.name());
        h.write_f64(self.theta);
        h.write_usize(self.discretize_support);
        fn claim(h: &mut Fnv1a, c: &fc_claims::LinearClaim) {
            h.write_usize(c.terms().len());
            for &(obj, w) in c.terms() {
                h.write_usize(obj);
                h.write_f64(w);
            }
            h.write_f64(c.bias_term());
        }
        claim(&mut h, self.claims.original());
        h.write_usize(self.claims.len());
        for p in self.claims.perturbations() {
            claim(&mut h, p);
        }
        h.write_f64s(self.claims.sensibilities());
        h.write_str(match self.claims.direction() {
            fc_claims::Direction::HigherIsStronger => "higher",
            fc_claims::Direction::LowerIsStronger => "lower",
        });
        h.finish()
    }

    /// Recommends what to clean under `budget` for one objective.
    pub fn recommend(&self, spec: impl Into<ObjectiveSpec>, budget: Budget) -> Result<Plan> {
        let spec = spec.into();
        let problem = self.build_problem(&spec)?;
        let cache = match &self.cache_store {
            Some(store) => {
                EngineCache::with_store(Arc::clone(store), self.cache_key(&problem, spec.measure))
            }
            None => EngineCache::new(),
        };
        self.registry
            .solve_with_cache(spec.strategy.key(), &problem, budget, &cache)
    }

    /// Recommends for a batch of objectives at one budget — one request
    /// per measure/goal the fact-checker cares about. Specs sharing a
    /// measure and goal are lowered to one problem and share its engine
    /// cache (so strategy A/B comparisons pay the scoped-EV prefix work
    /// once); distinct problems are sharded across the session's worker
    /// pool and the plans come back in spec order.
    pub fn recommend_many(&self, specs: &[ObjectiveSpec], budget: Budget) -> Result<Vec<Plan>> {
        let mut keys: Vec<(Measure, Goal)> = Vec::new();
        let mut problems: Vec<Problem> = Vec::new();
        let mut index = Vec::with_capacity(specs.len());
        for spec in specs {
            match keys
                .iter()
                .position(|&(m, g)| m == spec.measure && g == spec.goal)
            {
                Some(i) => index.push(i),
                None => {
                    keys.push((spec.measure, spec.goal));
                    problems.push(self.build_problem(spec)?);
                    index.push(problems.len() - 1);
                }
            }
        }
        let cache_keys: Vec<Option<CacheKey>> = problems
            .iter()
            .zip(&keys)
            .map(|(p, &(measure, _))| {
                self.cache_store
                    .as_ref()
                    .map(|_| self.cache_key(p, measure))
            })
            .collect();
        let jobs: Vec<BatchJob<'_>> = specs
            .iter()
            .zip(index)
            .map(|(spec, i)| BatchJob {
                strategy: spec.strategy.key(),
                problem: &problems[i],
                budget,
                key: cache_keys[i],
            })
            .collect();
        self.registry.solve_batch(&jobs, &self.exec_options())
    }

    /// Recommends for one objective across a budget sweep, sharing the
    /// engine prefix work (scoped-EV tables, modular benefits) across
    /// all points and sharding the budget points across the session's
    /// worker pool.
    pub fn recommend_sweep(&self, spec: &ObjectiveSpec, budgets: &[Budget]) -> Result<Vec<Plan>> {
        let problem = self.build_problem(spec)?;
        let key = self
            .cache_store
            .as_ref()
            .map(|_| self.cache_key(&problem, spec.measure));
        self.registry.sweep_with(
            spec.strategy.key(),
            &problem,
            budgets,
            &self.exec_options(),
            key,
        )
    }

    /// Applies a cleaning outcome: pins the selected objects at their
    /// revealed values (`revealed[k]` corresponds to
    /// `selection.objects()[k]`) and returns the updated session.
    ///
    /// Errors with [`CoreError::LengthMismatch`] when the revealed
    /// values do not line up with the selection — a serving system must
    /// not panic on caller input.
    pub fn after_cleaning(&self, selection: &Selection, revealed: &[f64]) -> Result<Self> {
        if revealed.len() != selection.len() {
            return Err(CoreError::LengthMismatch {
                what: "revealed values (one per cleaned object)",
                expected: selection.len(),
                got: revealed.len(),
            });
        }
        let instance = match &self.data {
            DataModel::Discrete(i) => i,
            DataModel::Gaussian(_) => {
                return Err(CoreError::StrategyUnsupported {
                    strategy: "after_cleaning".into(),
                    reason: "pinning revealed values requires the discrete error model; \
                             discretize the Gaussian instance first"
                        .into(),
                })
            }
        };
        let mut dists = instance.joint().dists().to_vec();
        let mut current = instance.current().to_vec();
        for (&obj, &v) in selection.objects().iter().zip(revealed) {
            if obj >= dists.len() {
                return Err(CoreError::BadObject {
                    object: obj,
                    len: dists.len(),
                });
            }
            dists[obj] = fc_uncertain::DiscreteDist::point(v);
            current[obj] = v;
        }
        let instance = Instance::new(dists, current, instance.costs().to_vec())?;
        Ok(self.with_data(DataModel::Discrete(instance)))
    }

    /// Replaces the marginal distribution and current value of selected
    /// objects — the incremental-update primitive for long-lived claim
    /// streams: new evidence narrows (or shifts) an object's
    /// uncertainty without pinning it to a point the way
    /// [`CleaningSession::after_cleaning`] does. Returns the updated
    /// session; like `after_cleaning`, the original is untouched.
    ///
    /// Errors with [`CoreError::BadObject`] on an out-of-range index
    /// and refuses Gaussian sessions (same contract as
    /// `after_cleaning`).
    pub fn with_updated_values(
        &self,
        updates: &[(usize, fc_uncertain::DiscreteDist, f64)],
    ) -> Result<Self> {
        let instance = match &self.data {
            DataModel::Discrete(i) => i,
            DataModel::Gaussian(_) => {
                return Err(CoreError::StrategyUnsupported {
                    strategy: "with_updated_values".into(),
                    reason: "incremental value updates require the discrete error model; \
                             discretize the Gaussian instance first"
                        .into(),
                })
            }
        };
        let mut dists = instance.joint().dists().to_vec();
        let mut current = instance.current().to_vec();
        for (obj, dist, value) in updates {
            if *obj >= dists.len() {
                return Err(CoreError::BadObject {
                    object: *obj,
                    len: dists.len(),
                });
            }
            dists[*obj] = dist.clone();
            current[*obj] = *value;
        }
        let instance = Instance::new(dists, current, instance.costs().to_vec())?;
        Ok(self.with_data(DataModel::Discrete(instance)))
    }

    /// A session over `data` sharing everything else with `self`. The
    /// updated data has a new fingerprint, so sharing the store stays
    /// correct — entries never collide. The cache-key memo is NOT
    /// shared for the same reason (it caches keys derived from the old
    /// instance's fingerprint), but the query-digest memo IS: claims,
    /// θ, and the discretization width are untouched, so only the
    /// instance gets re-fingerprinted on the next request.
    fn with_data(&self, data: DataModel) -> Self {
        Self {
            data,
            claims: self.claims.clone(),
            theta: self.theta,
            registry: Arc::clone(&self.registry),
            discretize_support: self.discretize_support,
            parallelism: self.parallelism,
            cache_store: self.cache_store.clone(),
            cache_keys: Arc::new(Default::default()),
            query_digests: Arc::clone(&self.query_digests),
        }
    }

    /// The strongest counterargument visible on the *current* data, if
    /// any perturbation already weakens the claim.
    pub fn visible_counter(&self) -> Option<(usize, f64)> {
        self.claims
            .strongest_counter(self.data.current(), self.theta)
    }

    /// Opens a long-lived [`ClaimStream`](crate::serve::ClaimStream)
    /// over this session, served by `service` and accounted to the
    /// default tenant.
    pub fn into_stream(
        self,
        service: fc_core::planner::service::PlannerService,
    ) -> crate::serve::ClaimStream {
        crate::serve::ClaimStream::open(self, service)
    }

    /// [`CleaningSession::into_stream`], with every submission
    /// quota-accounted to `tenant` (see
    /// [`PlannerService::set_quota`](fc_core::PlannerService::set_quota)).
    pub fn into_stream_as(
        self,
        service: fc_core::planner::service::PlannerService,
        tenant: impl Into<fc_core::TenantId>,
    ) -> crate::serve::ClaimStream {
        crate::serve::ClaimStream::open(self, service).with_tenant(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_claims::{Direction, LinearClaim};
    use fc_uncertain::DiscreteDist;

    fn session() -> CleaningSession {
        // Example 2-style: 5 years of crime counts, yearly-increase claim.
        let dists = vec![
            DiscreteDist::uniform_over(&[8_990.0, 9_010.0, 9_030.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_235.0, 9_275.0, 9_315.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_280.0, 9_300.0, 9_320.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_105.0, 9_125.0, 9_145.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_410.0, 9_430.0, 9_450.0]).unwrap(),
        ];
        let current = vec![9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0];
        let instance = Instance::new(dists, current, vec![1; 5]).unwrap();
        CleaningSession::new(instance, example_claims())
    }

    fn example_claims() -> ClaimSet {
        ClaimSet::new(
            LinearClaim::window_comparison(3, 4, 1).unwrap(),
            vec![
                LinearClaim::window_comparison(2, 3, 1).unwrap(),
                LinearClaim::window_comparison(1, 2, 1).unwrap(),
                LinearClaim::window_comparison(0, 1, 1).unwrap(),
            ],
            vec![1.0, 1.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    #[test]
    fn quality_on_current_data() {
        let s = session();
        assert_eq!(s.original_value(), 305.0);
        let (_bias, dup, _frag) = s.current_quality();
        assert_eq!(dup, 0.0, "no perturbation matches +305 on current data");
    }

    #[test]
    fn recommendations_respect_budget_and_reduce_ev() {
        let s = session();
        for measure in [Measure::Bias, Measure::Dup, Measure::Frag] {
            let plan = s
                .recommend(ObjectiveSpec::ascertain(measure), Budget::absolute(2))
                .unwrap();
            assert!(plan.selection.cost() <= 2, "{measure:?}");
            assert!(plan.after <= plan.before + 1e-12, "{measure:?}");
            assert!(
                plan.strategy.starts_with("auto:"),
                "{measure:?}: auto-routing reported ({})",
                plan.strategy
            );
        }
    }

    #[test]
    fn counter_recommendation_probability() {
        let s = session();
        let plan = s
            .recommend(ObjectiveSpec::find_counter(10.0), Budget::absolute(2))
            .unwrap();
        assert!(plan.after >= plan.before);
        assert!(plan.after <= 1.0);
        assert_eq!(plan.strategy, "auto:greedy(convolution)");
    }

    #[test]
    fn strategy_override_is_honored() {
        let s = session();
        let plan = s
            .recommend(
                ObjectiveSpec::ascertain(Measure::Dup).with_strategy("best"),
                Budget::absolute(2),
            )
            .unwrap();
        assert_eq!(plan.strategy, "best");
        let err = s
            .recommend(
                ObjectiveSpec::ascertain(Measure::Dup).with_strategy("nope"),
                Budget::absolute(2),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownStrategy { .. }));
    }

    #[test]
    fn after_cleaning_pins_values() {
        let s = session();
        let plan = s
            .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
            .unwrap();
        let revealed: Vec<f64> = plan
            .selection
            .objects()
            .iter()
            .map(|&i| s.instance().dist(i).max_value())
            .collect();
        let s2 = s.after_cleaning(&plan.selection, &revealed).unwrap();
        for (&obj, &v) in plan.selection.objects().iter().zip(&revealed) {
            assert!(s2.instance().dist(obj).is_certain());
            assert_eq!(s2.instance().current()[obj], v);
        }
        // θ stays anchored at the original claim's value on the original
        // current data.
        assert_eq!(s2.original_value(), s.original_value());
    }

    #[test]
    fn after_cleaning_length_mismatch_is_typed() {
        let s = session();
        let plan = s
            .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
            .unwrap();
        let err = s.after_cleaning(&plan.selection, &[]).unwrap_err();
        assert!(
            matches!(err, CoreError::LengthMismatch { expected, got, .. }
                if expected == plan.selection.len() && got == 0),
            "typed error instead of a panic"
        );
    }

    #[test]
    fn sweep_shares_before_and_is_monotone() {
        let s = session();
        let budgets: Vec<Budget> = (0..=5).map(Budget::absolute).collect();
        let plans = s
            .recommend_sweep(&ObjectiveSpec::ascertain(Measure::Dup), &budgets)
            .unwrap();
        for w in plans.windows(2) {
            assert!(w[1].after <= w[0].after + 1e-9);
        }
    }
}
