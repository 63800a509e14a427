//! Long-lived claim streams over the serving layer.
//!
//! A fact-checking session is not one request: a checker streams
//! claims against a dataset *whose values keep getting cleaned* (the
//! paper's interactive loop; see also the assisted fact-checking
//! surveys in `PAPERS.md`). [`ClaimStream`] is that workflow as an
//! object — it holds a dataset open across requests and connects it to
//! a shared [`PlannerService`]:
//!
//! * [`ClaimStream::submit_sweep`] hands a budget sweep to the service
//!   and returns its [`SweepHandle`] immediately;
//!   [`ClaimStream::submit`] is the one-point case. Lowered
//!   [`Problem`]s are memoized per
//!   (measure, goal), so a stream of claims over the same measure pays
//!   the lowering once.
//! * [`ClaimStream::mark_cleaned`] applies a cleaning outcome (pin
//!   objects at their revealed values); [`ClaimStream::update_values`]
//!   applies softer evidence (replace an object's marginal and current
//!   value). Both **re-fingerprint only the touched instance** — the
//!   claim-family digests are memoized and carried over — and
//!   **surgically invalidate** exactly the stale
//!   [`CacheStore`](fc_core::CacheStore) entries
//!   ([`CacheStore::invalidate_instance`](fc_core::CacheStore::invalidate_instance))
//!   instead of flushing, so every *other* stream sharing the service
//!   stays warm after each cleaning step.
//!
//! Plans served through a stream are byte-identical to the synchronous
//! [`CleaningSession`] paths ([`Plan::divergence`](fc_core::Plan::divergence)
//! is the shared gate); the stream adds asynchrony, admission control,
//! and cache lifecycle — never different answers.
//!
//! Every stream carries a [`TenantId`] ([`ClaimStream::with_tenant`]):
//! its submissions are quota-accounted by the service, and a submit
//! past the tenant's [`QuotaPolicy`](fc_core::QuotaPolicy) is rejected
//! with a typed [`CoreError::QuotaExceeded`](fc_core::CoreError)
//! before anything is queued. Handles are cancellable (explicitly or
//! by drop) — a plan superseded by a cleaning step should be cancelled
//! rather than awaited, so the workers move on to the post-cleaning
//! submission immediately.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fc_core::planner::service::{
    PlannerService, RequestHandle, SolveRequest, SweepHandle, SweepRequest, TenantId,
};
use fc_core::{Budget, CacheKey, Problem, Result, Selection};

use crate::planner::{Goal, Measure, ObjectiveSpec};
use crate::session::CleaningSession;

/// Memo key for lowered problems: measure × goal (τ by bit pattern —
/// the same identity [`CacheKey`] fingerprints use for floats).
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
enum GoalKey {
    MinVar,
    MaxPr(u64),
}

/// `None` for goals this module does not know — `Goal` is
/// non-exhaustive upstream, and an unknown goal must *skip* the memo
/// (falling through to `build_problem`, which rejects it with a typed
/// error) rather than alias another goal's cached problem.
fn goal_key(goal: Goal) -> Option<GoalKey> {
    match goal {
        Goal::MinVar => Some(GoalKey::MinVar),
        Goal::MaxPr { tau } => Some(GoalKey::MaxPr(tau.to_bits())),
        _ => None,
    }
}

/// A claim-stream session: a [`CleaningSession`] held open across
/// requests, served asynchronously by a shared [`PlannerService`], with
/// incremental cache invalidation as the data gets cleaned. See the
/// [module docs](self) for the lifecycle.
pub struct ClaimStream {
    session: CleaningSession,
    service: PlannerService,
    /// The tenant every submission through this stream is
    /// quota-accounted to.
    tenant: TenantId,
    /// Lowered problems memoized per (measure, goal); cleared whenever
    /// the data changes.
    problems: Mutex<HashMap<(Measure, GoalKey), Arc<Problem>>>,
}

impl ClaimStream {
    /// Opens a stream over `session`, served by `service`, accounted
    /// to the default tenant. The session's own
    /// `cache_store`/`parallelism` knobs keep governing its
    /// *synchronous* methods; submissions through the stream use the
    /// service's store and pool.
    pub fn open(session: CleaningSession, service: PlannerService) -> Self {
        Self {
            session,
            service,
            tenant: TenantId::default(),
            problems: Mutex::new(HashMap::new()),
        }
    }

    /// Accounts every submission through this stream to `tenant`
    /// (quota enforced by the service at submit time — see
    /// [`PlannerService::set_quota`]).
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The underlying session (current data version).
    pub fn session(&self) -> &CleaningSession {
        &self.session
    }

    /// The service this stream submits to.
    pub fn service(&self) -> &PlannerService {
        &self.service
    }

    /// The tenant this stream's submissions are accounted to.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// The lowered problem for `spec`, memoized per (measure, goal).
    fn problem_for(&self, spec: &ObjectiveSpec) -> Result<(Arc<Problem>, CacheKey)> {
        let problem = match goal_key(spec.goal) {
            Some(goal) => {
                let memo_key = (spec.measure, goal);
                let mut problems = self.problems.lock().expect("problem memo poisoned");
                match problems.get(&memo_key) {
                    Some(problem) => Arc::clone(problem),
                    None => {
                        let problem = Arc::new(self.session.build_problem(spec)?);
                        problems.insert(memo_key, Arc::clone(&problem));
                        problem
                    }
                }
            }
            // Unknown goal: no memo entry; the session rejects it with
            // a typed error (see `goal_key`).
            None => Arc::new(self.session.build_problem(spec)?),
        };
        let key = self.session.cache_key(&problem, spec.measure);
        Ok((problem, key))
    }

    /// Submits one objective at one budget — a one-point
    /// [`ClaimStream::submit_sweep`] whose [`RequestHandle::wait`]
    /// yields the one plan.
    pub fn submit(&self, spec: impl Into<ObjectiveSpec>, budget: Budget) -> Result<RequestHandle> {
        let spec = spec.into();
        let (problem, key) = self.problem_for(&spec)?;
        self.service.submit(
            SolveRequest::new(spec.strategy.key(), problem, budget)
                .with_key(key)
                .with_tenant(self.tenant.clone()),
        )
    }

    /// Submits one objective across a budget sweep; returns immediately
    /// with a handle that streams each plan as its budget point
    /// completes ([`SweepHandle::wait_next_point`], ascending budget
    /// order) or resolves the whole grid at once
    /// ([`SweepHandle::wait`]). Specs that fail to *lower* (bad query
    /// scope, unsupported goal) and submits past the stream tenant's
    /// quota ([`fc_core::CoreError::QuotaExceeded`]) are rejected here
    /// as `Err` — before anything is queued — while solve-time failures
    /// (unknown strategy, solver refusal) resolve through the handle.
    /// Dropping the handle (or calling [`SweepHandle::cancel`])
    /// abandons the request, stopping after the point being solved.
    pub fn submit_sweep(&self, spec: &ObjectiveSpec, budgets: &[Budget]) -> Result<SweepHandle> {
        self.submit_sweep_as(self.tenant.clone(), spec, budgets)
    }

    /// [`ClaimStream::submit_sweep`], accounted to `tenant` instead of
    /// the stream's own. The network front uses this to map a
    /// per-request tenant header onto one shared stream; library
    /// callers usually want [`ClaimStream::with_tenant`] instead.
    pub fn submit_sweep_as(
        &self,
        tenant: impl Into<TenantId>,
        spec: &ObjectiveSpec,
        budgets: &[Budget],
    ) -> Result<SweepHandle> {
        let (problem, key) = self.problem_for(spec)?;
        self.service.submit_sweep(
            SweepRequest::new(spec.strategy.key(), problem, budgets.to_vec())
                .with_key(key)
                .with_tenant(tenant),
        )
    }

    /// Applies a cleaning outcome — pins `objects[k]` at
    /// `revealed[k]` — and surgically invalidates the service-store
    /// entries of the *previous* data version. Only the touched
    /// instance is re-fingerprinted (the claim-family digests are
    /// memoized); every other instance's entries stay warm. Returns
    /// the number of store entries invalidated.
    ///
    /// **Delta-resolve:** when every cleaned object sits outside every
    /// claim's scope, nothing is invalidated at all — the warm entries
    /// are carried to the new fingerprint intact (scoped tables depend
    /// only on the dists of their scope objects, and modular benefits
    /// are zero off-scope), so the next submission replays the cached
    /// prefix work with zero scoped rebuilds. The return value is `0`
    /// on that path.
    ///
    /// Submissions already in flight keep their pre-cleaning problem
    /// (and produce pre-cleaning plans); submissions after this call
    /// see the cleaned data.
    pub fn mark_cleaned(&mut self, objects: &[usize], revealed: &[f64]) -> Result<usize> {
        let selection = self.selection_of(objects)?;
        let next = self.session.after_cleaning(&selection, revealed)?;
        Ok(self.install(next, objects))
    }

    /// Applies softer evidence: replaces the marginal distribution and
    /// current value of each `(object, dist, value)` triple (cleaning
    /// that narrows uncertainty without eliminating it). Invalidates
    /// (or delta-resolves) like [`ClaimStream::mark_cleaned`]; returns
    /// the number of store entries invalidated.
    pub fn update_values(
        &mut self,
        updates: &[(usize, fc_uncertain::DiscreteDist, f64)],
    ) -> Result<usize> {
        let next = self.session.with_updated_values(updates)?;
        let touched: Vec<usize> = updates.iter().map(|(object, _, _)| *object).collect();
        Ok(self.install(next, &touched))
    }

    /// Swaps in the updated session, dropping the stale problem memo.
    /// Store entries of the previous data version are *rekeyed* to the
    /// new fingerprint when every touched object is provably out of
    /// every claim scope (the cached tables and benefits are
    /// value-identical in that case), and invalidated otherwise.
    /// Returns the number of entries invalidated — `0` on the rekey
    /// path.
    fn install(&mut self, next: CleaningSession, touched: &[usize]) -> usize {
        // The fingerprints that may hold store entries are exactly the
        // ones requests actually derived (memoized on the *old*
        // session).
        let stale = self.session.active_instance_fingerprints();
        // Delta-resolve precondition: scoped tables depend only on the
        // dists of their scope objects, and modular benefits are zero
        // for objects no claim references — so a data update touching
        // only out-of-scope objects leaves every cached engine
        // value-identical under the new fingerprint.
        let scoped = self.session.claims().all_objects();
        let out_of_scope = touched
            .iter()
            .all(|object| scoped.binary_search(object).is_err());
        if out_of_scope {
            let moves: Option<Vec<(CacheKey, CacheKey)>> = self
                .session
                .derived_cache_keys()
                .into_iter()
                .map(|(index, old)| next.prederive_cache_key(index).map(|new| (old, new)))
                .collect();
            if let Some(moves) = moves {
                self.session = next;
                self.problems.lock().expect("problem memo poisoned").clear();
                for (old, new) in moves {
                    self.service.store().rekey(old, new);
                }
                return 0;
            }
        }
        self.session = next;
        self.problems.lock().expect("problem memo poisoned").clear();
        stale
            .into_iter()
            .map(|fp| self.service.store().invalidate_instance(fp))
            .sum()
    }

    /// Builds a validated [`Selection`] over the session's costs.
    fn selection_of(&self, objects: &[usize]) -> Result<Selection> {
        let costs = self.session.data().costs();
        for &object in objects {
            if object >= costs.len() {
                return Err(fc_core::CoreError::BadObject {
                    object,
                    len: costs.len(),
                });
            }
        }
        Ok(Selection::from_objects(objects.to_vec(), costs))
    }
}

impl std::fmt::Debug for ClaimStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClaimStream")
            .field("session", &self.session)
            .field("tenant", &self.tenant)
            .field(
                "lowered_problems",
                &self.problems.lock().expect("problem memo poisoned").len(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_claims::{ClaimSet, Direction, LinearClaim};
    use fc_core::planner::service::ServiceOptions;
    use fc_core::SolverRegistry;
    use fc_uncertain::DiscreteDist;

    fn session() -> CleaningSession {
        let dists = vec![
            DiscreteDist::uniform_over(&[8_990.0, 9_010.0, 9_030.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_235.0, 9_275.0, 9_315.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_280.0, 9_300.0, 9_320.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_105.0, 9_125.0, 9_145.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_410.0, 9_430.0, 9_450.0]).unwrap(),
        ];
        let current = vec![9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0];
        let instance = fc_core::Instance::new(dists, current, vec![1; 5]).unwrap();
        let claims = ClaimSet::new(
            LinearClaim::window_comparison(3, 4, 1).unwrap(),
            vec![
                LinearClaim::window_comparison(2, 3, 1).unwrap(),
                LinearClaim::window_comparison(1, 2, 1).unwrap(),
                LinearClaim::window_comparison(0, 1, 1).unwrap(),
            ],
            vec![1.0, 1.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap();
        CleaningSession::new(instance, claims)
    }

    fn service() -> PlannerService {
        PlannerService::new(
            Arc::new(SolverRegistry::with_defaults()),
            ServiceOptions::new(),
        )
    }

    #[test]
    fn stream_plans_match_synchronous_session() {
        let s = session();
        let stream = ClaimStream::open(s.clone(), service());
        for measure in [Measure::Bias, Measure::Dup, Measure::Frag] {
            let spec = ObjectiveSpec::ascertain(measure);
            let expected = s.recommend(spec.clone(), Budget::absolute(2)).unwrap();
            let plan = stream
                .submit(spec, Budget::absolute(2))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(plan.divergence(&expected), None, "{measure:?}");
        }
    }

    #[test]
    fn mark_cleaned_invalidates_and_reroutes() {
        let mut stream = ClaimStream::open(session(), service());
        let spec = ObjectiveSpec::ascertain(Measure::Dup);
        let cold = stream
            .submit(spec.clone(), Budget::absolute(2))
            .unwrap()
            .wait()
            .unwrap();
        assert!(stream.service.store().stats().entries > 0);
        let objects = cold.selection.objects().to_vec();
        let revealed: Vec<f64> = objects
            .iter()
            .map(|&i| stream.session().instance().dist(i).max_value())
            .collect();
        let invalidated = stream.mark_cleaned(&objects, &revealed).unwrap();
        assert!(invalidated > 0, "the old fingerprint's entry was dropped");
        // Post-cleaning plan equals a fresh synchronous session's.
        let expected = stream
            .session()
            .recommend(spec.clone(), Budget::absolute(2))
            .unwrap();
        let warm = stream
            .submit(spec, Budget::absolute(2))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(warm.divergence(&expected), None);
        for (&obj, &v) in objects.iter().zip(&revealed) {
            assert!(stream.session().instance().dist(obj).is_certain());
            assert_eq!(stream.session().instance().current()[obj], v);
        }
    }

    #[test]
    fn update_values_narrows_without_pinning() {
        let mut stream = ClaimStream::open(session(), service());
        stream
            .submit(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
            .unwrap()
            .wait()
            .unwrap();
        let narrowed = DiscreteDist::uniform_over(&[9_270.0, 9_280.0]).unwrap();
        stream.update_values(&[(1, narrowed, 9_275.0)]).unwrap();
        let d = stream.session().instance().dist(1);
        assert!(!d.is_certain(), "narrowed, not pinned");
        assert_eq!(d.support_size(), 2);
        // Out-of-range objects are typed errors, not panics.
        let bad = DiscreteDist::point(1.0);
        let err = stream.update_values(&[(99, bad, 1.0)]).unwrap_err();
        assert!(matches!(
            err,
            fc_core::CoreError::BadObject { object: 99, .. }
        ));
    }

    #[test]
    fn lowered_problems_are_memoized_until_data_changes() {
        let mut stream = ClaimStream::open(session(), service());
        let spec = ObjectiveSpec::ascertain(Measure::Dup);
        for budget in 1..=2 {
            stream
                .submit(spec.clone(), Budget::absolute(budget))
                .unwrap()
                .wait()
                .unwrap();
        }
        assert_eq!(
            stream.problems.lock().unwrap().len(),
            1,
            "same measure/goal lowers once"
        );
        stream
            .submit(ObjectiveSpec::find_counter(5.0), Budget::absolute(1))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(stream.problems.lock().unwrap().len(), 2);
        stream.mark_cleaned(&[0], &[9_010.0]).unwrap();
        assert_eq!(
            stream.problems.lock().unwrap().len(),
            0,
            "data change drops the memo"
        );
    }

    /// [`session`] plus a sixth object no claim references — the
    /// delta-resolve setting.
    fn session_with_unreferenced_object() -> CleaningSession {
        let dists = vec![
            DiscreteDist::uniform_over(&[8_990.0, 9_010.0, 9_030.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_235.0, 9_275.0, 9_315.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_280.0, 9_300.0, 9_320.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_105.0, 9_125.0, 9_145.0]).unwrap(),
            DiscreteDist::uniform_over(&[9_410.0, 9_430.0, 9_450.0]).unwrap(),
            DiscreteDist::uniform_over(&[100.0, 200.0, 300.0]).unwrap(),
        ];
        let current = vec![9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0, 200.0];
        let instance = fc_core::Instance::new(dists, current, vec![1; 6]).unwrap();
        let claims = ClaimSet::new(
            LinearClaim::window_comparison(3, 4, 1).unwrap(),
            vec![
                LinearClaim::window_comparison(2, 3, 1).unwrap(),
                LinearClaim::window_comparison(1, 2, 1).unwrap(),
                LinearClaim::window_comparison(0, 1, 1).unwrap(),
            ],
            vec![1.0, 1.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap();
        CleaningSession::new(instance, claims)
    }

    #[test]
    fn out_of_scope_cleaning_rekeys_instead_of_invalidating() {
        let mut stream = ClaimStream::open(session_with_unreferenced_object(), service());
        let spec = ObjectiveSpec::ascertain(Measure::Dup);
        stream
            .submit(spec.clone(), Budget::absolute(2))
            .unwrap()
            .wait()
            .unwrap();
        let cold = stream.service.store().stats();
        assert!(cold.entries > 0 && cold.scoped_builds > 0);
        // Cleaning the unreferenced object changes the fingerprint but
        // not a single cached table value: nothing is invalidated.
        let invalidated = stream.mark_cleaned(&[5], &[250.0]).unwrap();
        assert_eq!(invalidated, 0, "scope-disjoint cleaning rekeys");
        let moved = stream.service.store().stats();
        assert!(moved.rekeys >= 1);
        assert_eq!(moved.invalidations, cold.invalidations);
        assert_eq!(moved.entries, cold.entries, "entries carried, not dropped");
        // The next submission replays the carried entry — zero store
        // misses, zero new scoped builds — and still matches a fresh
        // solve over the cleaned data byte-for-byte.
        let warm = stream
            .submit(spec.clone(), Budget::absolute(2))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(warm.diagnostics.store_misses, 0, "no cold store touch");
        assert_eq!(
            stream.service.store().stats().scoped_builds,
            cold.scoped_builds,
            "zero scoped rebuilds after a scope-disjoint clean"
        );
        let expected = stream
            .session()
            .recommend(spec, Budget::absolute(2))
            .unwrap();
        assert_eq!(warm.divergence(&expected), None);
        assert!(stream.session().instance().dist(5).is_certain());
    }

    #[test]
    fn out_of_scope_update_values_rekeys_too() {
        let mut stream = ClaimStream::open(session_with_unreferenced_object(), service());
        let spec = ObjectiveSpec::ascertain(Measure::Bias);
        stream
            .submit(spec.clone(), Budget::absolute(1))
            .unwrap()
            .wait()
            .unwrap();
        let cold = stream.service.store().stats();
        let narrowed = DiscreteDist::uniform_over(&[180.0, 220.0]).unwrap();
        let invalidated = stream.update_values(&[(5, narrowed, 200.0)]).unwrap();
        assert_eq!(invalidated, 0);
        assert!(stream.service.store().stats().rekeys >= 1);
        let warm = stream
            .submit(spec, Budget::absolute(1))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(warm.diagnostics.store_misses, 0);
        assert_eq!(
            stream.service.store().stats().scoped_builds,
            cold.scoped_builds
        );
        // In-scope updates still take the invalidation path.
        let shifted = DiscreteDist::uniform_over(&[9_270.0, 9_280.0]).unwrap();
        let invalidated = stream.update_values(&[(1, shifted, 9_275.0)]).unwrap();
        assert!(invalidated > 0, "in-scope update invalidates");
    }

    #[test]
    fn bad_cleaning_input_is_a_typed_error() {
        let mut stream = ClaimStream::open(session(), service());
        let err = stream.mark_cleaned(&[99], &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            fc_core::CoreError::BadObject { object: 99, len: 5 }
        ));
        let err = stream.mark_cleaned(&[0, 1], &[1.0]).unwrap_err();
        assert!(matches!(err, fc_core::CoreError::LengthMismatch { .. }));
    }
}
