//! Fingerprint-keyed persistence for engine prefix work.
//!
//! An [`EngineCache`](super::EngineCache) lives for one call chain: a
//! budget sweep or an objective batch over one [`Problem`](super::Problem).
//! Serving workloads, however, issue *sessions* of requests over the
//! same dataset — a fact-checker sweeps measures and budgets over one
//! table, then comes back tomorrow. The [`CacheStore`] keeps only the
//! work that is costly to rebuild: the scoped Theorem 3.8 tables, which
//! enumerate every claim scope's outcome space, and the finished plans
//! solved over them. The Lemma 3.1 modular benefits are an O(n) closed
//! form and are not stored; an [`EngineCache`](super::EngineCache)
//! computes them once per call chain.
//!
//! * entries are keyed by a [`CacheKey`] — a pair of 64-bit FNV-1a
//!   fingerprints, one over the **instance contents** (distributions,
//!   current values, costs) and one over the **query identity**
//!   (measure, θ, claim family — supplied by the caller, who knows the
//!   concrete query type);
//! * the store is sharded (`Mutex` per shard) so concurrent workers
//!   contend only per shard, and each entry's tables are built at most
//!   once (`OnceLock` serializes racing builders);
//! * a capacity cap evicts whole entries FIFO, bounding memory on
//!   long-running servers;
//! * [`CacheStore::stats`] reports hits, misses, evictions, and the
//!   number of scoped-table builds — a warm store serves repeat
//!   sessions with **zero** rebuild evaluations. Every store miss is a
//!   table build, so `misses == scoped_builds`.
//!
//! ## Plan memo
//!
//! Each entry also memoizes the finished [`Plan`]s solved under its
//! key. A plan is a deterministic function of the entry key, the
//! strategy, the goal and the budget (the [`Plan::divergence`] gates
//! pin this), so the serving layer replays a stored plan instead of
//! solving the same point again:
//!
//! * the memo key is (strategy name the request resolved through the
//!   registry, goal with τ by bit pattern, [`Budget`]);
//! * only successful plans are stored — an error, a refusal or a
//!   contained panic is solved again next time;
//! * an entry holds at most [`PLAN_MEMO_CAP`] plans; once full, further
//!   plans are simply not stored, so client-chosen τ and budget values
//!   cannot grow it without limit;
//! * plans live and die with their entry: capacity eviction and
//!   [`CacheStore::invalidate_instance`] drop them. An entry is never
//!   moved to another key: a data change re-fingerprints the instance,
//!   and its old entries are invalidated.
//!
//! A memo hit counts once in [`CacheStats::plan_hits`] and once in
//! [`CacheStats::hits`] (one lookup served warm); a memo miss counts in
//! [`CacheStats::plan_misses`] only, and the solve that follows counts
//! its own table lookups.
//!
//! ## Fingerprint caveats
//!
//! Fingerprints are 64-bit content hashes, not proofs of identity: a
//! collision (astronomically unlikely, but possible) would serve the
//! wrong tables *silently*. The query half of the key is the caller's
//! contract — it must uniquely identify everything the engines depend
//! on (measure, θ, claim weights, discretization). The façade derives
//! it from the session's measure, θ, and claim-set contents; callers
//! wiring [`CacheStore`] to raw [`Problem`](super::Problem)s must do
//! the same or skip the store. Dimension mismatches are caught
//! ([`ScopedEv::with_tables`](crate::ev::scoped::ScopedEv::with_tables)
//! panics), value-level mismatches are not. With the plan memo the key
//! must also cover everything a *plan* depends on besides strategy,
//! goal and budget (for a raw Gaussian problem, its
//! [`MvnSemantics`](crate::ev::gaussian::MvnSemantics)).
//!
//! The memo trusts strategy names: every service sharing one store
//! must mean the same solver by a strategy name, or one service can
//! replay another's plans.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use super::{Goal, Plan};
use crate::budget::Budget;
use crate::ev::scoped::ScopedTables;
use crate::instance::{GaussianInstance, Instance};

/// Incremental FNV-1a hasher over 64 bits — tiny, dependency-free, and
/// stable across platforms and runs (unlike `std`'s randomized
/// `DefaultHasher`), which is what a persistent cache key needs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs a `usize`.
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Absorbs an `f64` by bit pattern (`-0.0 ≠ 0.0`, NaNs by payload —
    /// bitwise identity is exactly the contract engine reuse needs).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a slice of `f64`s, length-prefixed.
    pub fn write_f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
        self
    }

    /// Absorbs a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes())
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a fingerprint of a discrete instance's full contents:
/// marginals (values and probabilities), current values, and costs.
pub fn fingerprint_instance(instance: &Instance) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("discrete");
    h.write_usize(instance.len());
    for i in 0..instance.len() {
        let d = instance.dist(i);
        h.write_f64s(d.values());
        h.write_f64s(d.probs());
    }
    h.write_f64s(instance.current());
    h.write_usize(instance.costs().len());
    for &c in instance.costs() {
        h.write_u64(c);
    }
    h.finish()
}

/// FNV-1a fingerprint of a Gaussian instance's full contents: means,
/// covariance, current values, and costs.
pub fn fingerprint_gaussian(instance: &GaussianInstance) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("gaussian");
    let n = instance.len();
    h.write_usize(n);
    h.write_f64s(instance.mvn().mean());
    for i in 0..n {
        for j in i..n {
            h.write_f64(instance.mvn().cov().get(i, j));
        }
    }
    h.write_f64s(instance.current());
    h.write_usize(instance.costs().len());
    for &c in instance.costs() {
        h.write_u64(c);
    }
    h.finish()
}

/// A [`CacheStore`] entry key: (instance fingerprint, query
/// fingerprint). The scoped tables cached under a key are valid for
/// *any* goal and budget — they depend only on the instance and the
/// query; the plans memoized under it are keyed further by strategy,
/// goal and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the instance contents ([`fingerprint_instance`] /
    /// [`fingerprint_gaussian`]).
    pub instance: u64,
    /// Fingerprint of the query identity (measure, θ, claim family —
    /// caller-supplied; see the module docs for the contract).
    pub query: u64,
}

impl CacheKey {
    /// Assembles a key from the two fingerprint halves.
    pub fn new(instance: u64, query: u64) -> Self {
        Self { instance, query }
    }
}

/// Most finished plans one entry memoizes (see the module docs).
pub const PLAN_MEMO_CAP: usize = 64;

/// A plan's identity within one entry: strategy, goal (τ by bit
/// pattern) and budget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    strategy: Arc<str>,
    /// `None` for MinVar, the bits of τ for MaxPr.
    tau: Option<u64>,
    budget: Budget,
}

impl PlanKey {
    pub(crate) fn new(strategy: &Arc<str>, goal: Goal, budget: Budget) -> Self {
        let tau = match goal {
            Goal::MinVar => None,
            Goal::MaxPr { tau } => Some(tau.to_bits()),
        };
        Self {
            strategy: Arc::clone(strategy),
            tau,
            budget,
        }
    }
}

/// One cached entry: the lazily built scoped tables for an
/// (instance, query) pair, plus the plans solved over them. The
/// `OnceLock` makes concurrent workers block on the first builder
/// instead of duplicating the work; `plans` is only touched under the
/// entry's shard lock.
#[derive(Default)]
struct CacheSlot {
    tables: OnceLock<Arc<ScopedTables>>,
    plans: Mutex<HashMap<PlanKey, Plan>>,
}

impl CacheSlot {
    fn plans(&self) -> MutexGuard<'_, HashMap<PlanKey, Plan>> {
        self.plans.lock().expect("plan memo poisoned")
    }
}

/// One lock's worth of the store.
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Arc<CacheSlot>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// Counters reported by [`CacheStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Table and plan lookups served from an already-built entry.
    pub hits: u64,
    /// Table lookups that had to build (first touch of a key, or
    /// re-touch after eviction or invalidation); always equal to
    /// [`CacheStats::scoped_builds`].
    pub misses: u64,
    /// Entries evicted by the capacity cap.
    pub evictions: u64,
    /// Scoped-table builds performed through the store.
    pub scoped_builds: u64,
    /// Query-term evaluations spent in those builds — the "rebuild
    /// evals" a warm store keeps at zero.
    pub scoped_build_evals: u64,
    /// Entries dropped by [`CacheStore::invalidate_instance`] (a
    /// cleaning step re-fingerprinting an instance).
    pub invalidations: u64,
    /// Always 0. The store no longer moves entries between keys; the
    /// field and the `rekeys` key of the stats wire body are kept so
    /// readers of either keep working.
    pub rekeys: u64,
    /// Plan lookups served from the plan memo (each also counts in
    /// [`CacheStats::hits`]).
    pub plan_hits: u64,
    /// Plan lookups that found no memoized plan (the point is solved).
    pub plan_misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A persistent, thread-safe store of engine prefix work, keyed by
/// [`CacheKey`]. See the module docs for semantics and caveats.
///
/// Share one `Arc<CacheStore>` across sessions (and across the parallel
/// executor's workers) so repeated requests over the same dataset skip
/// the scoped-EV build entirely.
pub struct CacheStore {
    shards: Vec<Mutex<Shard>>,
    /// Max resident entries per shard.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    scoped_builds: AtomicU64,
    scoped_build_evals: AtomicU64,
    invalidations: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

impl CacheStore {
    /// Default shard count — enough to keep a worker pool from
    /// serializing on one lock, small enough to stay cheap.
    const DEFAULT_SHARDS: usize = 8;

    /// A store holding at most `capacity` entries (rounded up to a
    /// multiple of the shard count; minimum one entry per shard). The
    /// shard count never exceeds `capacity`, so a small memory bound is
    /// honored — `new(1)` really holds one entry, not one per shard.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS.min(capacity.max(1)))
    }

    /// A store with an explicit shard count (use `1` for strict FIFO
    /// eviction across all entries — with more shards, both the cap and
    /// FIFO order are per shard, so key skew can evict one shard's
    /// entries while others sit empty).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            scoped_builds: AtomicU64::new(0),
            scoped_build_evals: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Resident entries right now.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Surgically drops every entry whose key's instance half is
    /// `instance_fingerprint`, returning how many were dropped. This is
    /// the incremental-invalidation hook for long-lived claim streams:
    /// after a cleaning step re-fingerprints an instance, its stale
    /// entries (one per measure/query) are removed while every *other*
    /// instance's entries stay warm — no flush, no cold restart for
    /// unrelated sessions sharing the store.
    pub fn invalidate_instance(&self, instance_fingerprint: u64) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut s = shard.lock().expect("cache shard poisoned");
            let before = s.map.len();
            s.map.retain(|key, _| key.instance != instance_fingerprint);
            dropped += before - s.map.len();
            s.order.retain(|key| key.instance != instance_fingerprint);
        }
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            scoped_builds: self.scoped_builds.load(Ordering::Relaxed),
            scoped_build_evals: self.scoped_build_evals.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            rekeys: 0,
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    fn shard_of(&self, key: CacheKey) -> &Mutex<Shard> {
        let h = key.instance ^ key.query.rotate_left(32);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Evicts FIFO until `shard` has room for one more entry.
    fn make_room(&self, shard: &mut Shard) {
        while shard.map.len() >= self.shard_capacity {
            let Some(old) = shard.order.pop_front() else {
                break;
            };
            shard.map.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The slot for `key` in its (locked) shard, inserting (and
    /// possibly evicting) when absent.
    fn slot_in(&self, shard: &mut Shard, key: CacheKey) -> Arc<CacheSlot> {
        if let Some(slot) = shard.map.get(&key) {
            return Arc::clone(slot);
        }
        self.make_room(shard);
        let slot = Arc::new(CacheSlot::default());
        shard.map.insert(key, Arc::clone(&slot));
        shard.order.push_back(key);
        slot
    }

    /// The slot for `key`, inserting (and possibly evicting) under the
    /// shard lock. Engine builds happen *outside* this lock.
    fn slot(&self, key: CacheKey) -> Arc<CacheSlot> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        self.slot_in(&mut shard, key)
    }

    /// The plan memoized under (`key`, `plan`), if any, reporting one
    /// warm store lookup in its diagnostics (`store_hits: 1,
    /// store_misses: 0`); every other field is the stored plan's.
    pub(crate) fn plan(&self, key: CacheKey, plan: &PlanKey) -> Option<Plan> {
        let found = {
            let shard = self.shard_of(key).lock().expect("cache shard poisoned");
            shard
                .map
                .get(&key)
                .and_then(|slot| slot.plans().get(plan).cloned())
        };
        match found {
            Some(mut found) => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                found.diagnostics.store_hits = 1;
                found.diagnostics.store_misses = 0;
                Some(found)
            }
            None => {
                self.plan_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a successfully solved `plan` under (`key`,
    /// `plan_key`), unless the entry already holds [`PLAN_MEMO_CAP`]
    /// plans.
    pub(crate) fn memoize_plan(&self, key: CacheKey, plan_key: PlanKey, plan: Plan) {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        let slot = self.slot_in(&mut shard, key);
        let mut plans = slot.plans();
        if plans.len() < PLAN_MEMO_CAP {
            plans.insert(plan_key, plan);
        }
    }

    /// The scoped tables for `key`, building them with `build` on the
    /// first touch, and whether the lookup was served warm (`true` — a
    /// hit) or had to build (`false` — a miss). Concurrent callers for
    /// the same key block on one build. `build` must construct tables
    /// for exactly the (instance, query) pair the key fingerprints. The
    /// engine cache feeds the warmth into
    /// [`PlanDiagnostics`](super::PlanDiagnostics) so plans expose
    /// their warm/cold provenance.
    pub fn tables(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> ScopedTables,
    ) -> (Arc<ScopedTables>, bool) {
        let slot = self.slot(key);
        if let Some(tables) = slot.tables.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(tables), true);
        }
        let mut built = false;
        let tables = slot.tables.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.scoped_builds.fetch_add(1, Ordering::Relaxed);
            self.scoped_build_evals
                .fetch_add(tables.build_evals(), Ordering::Relaxed);
        } else {
            // Lost the init race — another worker built while we waited.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (Arc::clone(tables), !built)
    }
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_claims::{ClaimSet, Direction, DupQuery, LinearClaim};
    use fc_uncertain::DiscreteDist;

    fn instance(shift: f64) -> Instance {
        Instance::new(
            vec![
                DiscreteDist::uniform_over(&[0.0 + shift, 4.0]).unwrap(),
                DiscreteDist::uniform_over(&[1.0, 3.0]).unwrap(),
                DiscreteDist::uniform_over(&[0.0, 6.0]).unwrap(),
            ],
            vec![2.0, 2.0, 3.0],
            vec![1, 1, 2],
        )
        .unwrap()
    }

    fn query() -> DupQuery {
        DupQuery::new(
            ClaimSet::new(
                LinearClaim::window_sum(0, 2).unwrap(),
                vec![
                    LinearClaim::window_sum(0, 2).unwrap(),
                    LinearClaim::window_sum(1, 2).unwrap(),
                ],
                vec![0.5, 0.5],
                Direction::HigherIsStronger,
            )
            .unwrap(),
            5.0,
        )
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = fingerprint_instance(&instance(0.0));
        let b = fingerprint_instance(&instance(0.0));
        let c = fingerprint_instance(&instance(0.25));
        assert_eq!(a, b, "identical contents hash identically");
        assert_ne!(a, c, "a single value change must change the hash");
    }

    #[test]
    fn fingerprint_gaussian_is_content_sensitive() {
        let g1 = GaussianInstance::centered_independent(vec![0.0; 3], &[1.0, 2.0, 3.0], vec![1; 3])
            .unwrap();
        let g2 = GaussianInstance::centered_independent(vec![0.0; 3], &[1.0, 2.0, 3.5], vec![1; 3])
            .unwrap();
        assert_eq!(fingerprint_gaussian(&g1), fingerprint_gaussian(&g1.clone()));
        assert_ne!(fingerprint_gaussian(&g1), fingerprint_gaussian(&g2));
    }

    #[test]
    fn store_serves_second_lookup_from_cache() {
        let store = CacheStore::new(8);
        let inst = instance(0.0);
        let q = query();
        let key = CacheKey::new(fingerprint_instance(&inst), 42);
        let (t1, warm) = store.tables(key, || ScopedTables::build(&inst, &q));
        assert!(!warm, "first touch is a miss");
        let (t2, warm) = store.tables(key, || panic!("second lookup must not rebuild"));
        assert!(warm, "second touch is a hit");
        assert!(Arc::ptr_eq(&t1, &t2));
        let stats = store.stats();
        assert_eq!(stats.scoped_builds, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(stats.scoped_build_evals > 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn store_evicts_fifo_at_capacity() {
        let store = CacheStore::with_shards(2, 1);
        let inst = instance(0.0);
        let q = query();
        store.memoize_plan(CacheKey::new(0, 0), at(1), plan(1));
        for i in 0..3u64 {
            store.tables(CacheKey::new(i, 0), || ScopedTables::build(&inst, &q));
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(
            store.plan(CacheKey::new(0, 0), &at(1)).is_none(),
            "plans are evicted with their entry"
        );
        // The evicted (oldest) key rebuilds; the resident ones hit.
        store.tables(CacheKey::new(2, 0), || {
            panic!("resident key must not rebuild")
        });
        store.tables(CacheKey::new(0, 0), || ScopedTables::build(&inst, &q));
        assert_eq!(store.stats().scoped_builds, 4);
    }

    #[test]
    fn concurrent_lookups_build_once() {
        let store = Arc::new(CacheStore::new(8));
        let inst = instance(0.0);
        let q = query();
        let key = CacheKey::new(fingerprint_instance(&inst), 7);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| store.tables(key, || ScopedTables::build(&inst, &q)));
            }
        });
        assert_eq!(store.stats().scoped_builds, 1, "OnceLock dedups builders");
    }

    #[test]
    fn invalidate_instance_is_surgical() {
        let store = CacheStore::new(16);
        let inst = instance(0.0);
        let q = query();
        // Two measures of instance A, one of instance B.
        let fp_a = fingerprint_instance(&inst);
        let fp_b = fp_a ^ 1;
        for key in [
            CacheKey::new(fp_a, 1),
            CacheKey::new(fp_a, 2),
            CacheKey::new(fp_b, 1),
        ] {
            store.tables(key, || ScopedTables::build(&inst, &q));
        }
        assert_eq!(store.len(), 3);
        let dropped = store.invalidate_instance(fp_a);
        assert_eq!(dropped, 2, "both of A's measures go");
        assert_eq!(store.stats().invalidations, 2);
        // B's entry is untouched and still warm.
        store.tables(CacheKey::new(fp_b, 1), || {
            panic!("unrelated instance must stay warm")
        });
        // A's keys rebuild (no stale serve, no panic on re-touch).
        store.tables(CacheKey::new(fp_a, 1), || ScopedTables::build(&inst, &q));
        assert_eq!(store.len(), 2);
        // Invalidating an absent fingerprint is a no-op.
        assert_eq!(store.invalidate_instance(0xDEAD), 0);
    }

    fn plan(budget: u64) -> Plan {
        Plan {
            selection: crate::Selection::from_objects(vec![0], &[1, 1, 2]),
            goal: Goal::MinVar,
            before: 1.0,
            after: 0.5,
            strategy: "greedy".into(),
            diagnostics: crate::planner::PlanDiagnostics {
                engine_evals: budget,
                candidates: 3,
                store_hits: 4,
                store_misses: 2,
            },
        }
    }

    /// A greedy MinVar plan key at `budget`.
    fn at(budget: u64) -> PlanKey {
        PlanKey::new(&Arc::from("greedy"), Goal::MinVar, Budget::absolute(budget))
    }

    #[test]
    fn plan_memo_replays_counts_and_caps() {
        let store = CacheStore::new(8);
        let key = CacheKey::new(1, 2);
        assert!(store.plan(key, &at(1)).is_none(), "empty memo misses");
        store.memoize_plan(key, at(1), plan(1));
        let hit = store.plan(key, &at(1)).expect("memoized");
        assert_eq!(hit.divergence(&plan(1)), None);
        assert_eq!(
            (hit.diagnostics.store_hits, hit.diagnostics.store_misses),
            (1, 0)
        );
        // Goal (τ by bits) and strategy are part of the identity.
        let max_pr = PlanKey::new(
            &Arc::from("greedy"),
            Goal::MaxPr { tau: 0.0 },
            Budget::absolute(1),
        );
        let auto = PlanKey::new(&Arc::from("auto"), Goal::MinVar, Budget::absolute(1));
        assert!(store.plan(key, &max_pr).is_none());
        assert!(store.plan(key, &auto).is_none());
        let stats = store.stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 3));
        assert_eq!(stats.hits, 1, "a memo hit is one warm lookup");
        // More distinct budgets than the cap leave the memo at the cap.
        for b in 0..2 * PLAN_MEMO_CAP as u64 {
            store.memoize_plan(key, at(b), plan(b));
        }
        let slot = store.slot(key);
        assert_eq!(slot.plans().len(), PLAN_MEMO_CAP);
        assert!(store.plan(key, &at(1)).is_some(), "early plans stay");
        assert!(store.plan(key, &at(2 * PLAN_MEMO_CAP as u64 - 1)).is_none());
    }
}
