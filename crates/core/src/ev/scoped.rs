//! The Theorem 3.8 scoped `EV` engine.
//!
//! For a decomposable query `f(X) = Σ_k g_k(X)` (one term per claim, each
//! over a small scope `S_k`) with mutually independent `X_i`, `EV(T)`
//! splits into per-term and per-pair parts:
//!
//! ```text
//! EV(T) = Σ_k ( E[g_k²] − E_T[ E[g_k | X_{S_k ∩ T}]² ] )
//!       + 2 Σ_{k<k'} ( E[g_k·g_k'] − E_T[ E[g_k | X_{A∩}]·E[g_k' | X_{A∩}] ] )
//! ```
//!
//! where `A∩ = S_k ∩ S_k' ∩ T`. Under independence
//! `E[g_k·g_k'] = Σ_s Pr[s]·E[g_k | s]·E[g_k' | s]` over the *shared*
//! scope `S∩ = S_k ∩ S_k'`, so pairs with disjoint scopes contribute
//! nothing and everything is computed over scopes of size ≤ `2W` — never
//! the full joint. The `T`-independent pieces (`E[g_k²]`, the pair first
//! terms, and the shared-scope conditional-expectation tables) are
//! precomputed once in [`ScopedEv::new`].
//!
//! The engine additionally exposes **incremental** evaluation
//! ([`ScopedEv::delta`] / [`ScopedEv::apply`] over an [`EvState`]): adding
//! one object to `T` only touches the terms whose scope contains it and
//! the pairs whose *shared* scope contains it, which is what makes
//! `GreedyMinVar` scale to the Fig. 10 workloads.
//!
//! The `T`-independent precomputation is factored into [`ScopedTables`],
//! an owned, `Send + Sync` value with no borrows: build it once for an
//! (instance, query) pair, then stamp out per-thread [`ScopedEv`]
//! engines with [`ScopedEv::with_tables`]. This is what lets the
//! planner's parallel executor shard budget sweeps across workers and
//! its [`CacheStore`](crate::planner::CacheStore) persist the prefix
//! work across sessions.
//!
//! The tables also hold the `T = ∅` [`EvState`] — every term's and
//! pair's second moment with nothing cleaned, and `EV(∅)` — computed
//! once per build with the same arithmetic in the same order as a full
//! pass (each moment in the pass that sums the term's `E[g²]` or the
//! pair's first term, so it costs no extra query-term evaluations), and
//! shared through the store like the rest.
//! [`ScopedEv::initial_state`] clones it, and [`ScopedEv::ev_of`] is
//! local: a term or pair whose scope the cleaned set does not touch has
//! its `T = ∅` value, so only the touched ones are recomputed and the
//! sum is bit for bit the full pass of [`ScopedEv::ev_of_mask`]. A
//! plan's `EV(∅)` is therefore a read and its `EV(T)` costs what `T`
//! touches.

use crate::instance::Instance;
use fc_claims::DecomposableQuery;
use fc_uncertain::DiscreteDist;
use std::sync::Arc;

/// Iterates the outcome space of `dists` (last axis fastest), passing
/// per-axis positions, values, and the product probability. Odometer
/// buffers are the caller's so hot paths can reuse them across calls.
fn for_each_pos_outcome_with(
    dists: &[&DiscreteDist],
    pos: &mut Vec<usize>,
    values: &mut Vec<f64>,
    prefix: &mut Vec<f64>,
    mut f: impl FnMut(&[usize], &[f64], f64),
) {
    let k = dists.len();
    if k == 0 {
        f(&[], &[], 1.0);
        return;
    }
    pos.clear();
    pos.resize(k, 0);
    values.clear();
    values.resize(k, 0.0);
    prefix.clear();
    prefix.resize(k + 1, 0.0);
    prefix[0] = 1.0;
    for j in 0..k {
        values[j] = dists[j].values()[0];
        prefix[j + 1] = prefix[j] * dists[j].probs()[0];
    }
    loop {
        f(pos, values, prefix[k]);
        let mut j = k;
        loop {
            if j == 0 {
                return;
            }
            j -= 1;
            pos[j] += 1;
            if pos[j] < dists[j].support_size() {
                break;
            }
            pos[j] = 0;
        }
        for t in j..k {
            values[t] = dists[t].values()[pos[t]];
            prefix[t + 1] = prefix[t] * dists[t].probs()[pos[t]];
        }
    }
}

/// Arena-style scratch for the scoped engine's per-call allocations.
///
/// [`ScopedEv::delta`] / [`ScopedEv::apply`] call `term_second` and
/// `pair_second` thousands of times per greedy solve, and each call
/// needs half a dozen small buffers; [`ScopedTables::build`] needs the
/// same odometer and accumulator buffers per term and pair. A
/// `ScopedScratch` owns all of them, is recycled through a thread-local
/// pool ([`ScopedScratch::take`] / [`ScopedScratch::recycle`]), and is
/// held by every engine for its lifetime — so a warm worker's repeated
/// builds and solves allocate approximately nothing.
///
/// Reuse is invisible in the output: every user zeroes exactly the
/// range it reads (`clear` + `resize`) and iterates in the same order
/// as a fresh allocation would.
#[derive(Debug, Default)]
pub struct ScopedScratch {
    keep: Vec<bool>,
    kept_axes: Vec<usize>,
    num: Vec<f64>,
    den: Vec<f64>,
    ared: Vec<f64>,
    bred: Vec<f64>,
    pkept: Vec<f64>,
    pos: Vec<usize>,
    values: Vec<f64>,
    prefix: Vec<f64>,
}

thread_local! {
    static SCRATCH_POOL: std::cell::RefCell<Vec<ScopedScratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl ScopedScratch {
    /// Takes a scratch from this thread's pool (fresh if empty).
    pub fn take() -> Self {
        SCRATCH_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_default()
    }

    /// Returns a scratch to this thread's pool for the next taker.
    pub fn recycle(self) {
        SCRATCH_POOL.with(|p| p.borrow_mut().push(self));
    }
}

/// Per-term metadata.
struct TermInfo {
    /// Sorted object ids in the term's scope.
    scope: Vec<usize>,
    /// `E[g_k²]` (T-independent).
    e_g2: f64,
}

/// Per-pair metadata for claim pairs with intersecting scopes.
struct PairInfo {
    /// Shared scope `S∩` (sorted object ids).
    shared: Vec<usize>,
    /// Support size per shared axis.
    shared_sizes: Vec<usize>,
    /// Pmf per shared axis.
    shared_probs: Vec<Vec<f64>>,
    /// `E[g_k | shared = s]`, flat over the shared axes.
    a: Vec<f64>,
    /// `E[g_k' | shared = s]`, flat over the shared axes.
    b: Vec<f64>,
    /// `E[g_k · g_k'] = Σ_s Pr[s] a[s] b[s]` (T-independent).
    first: f64,
}

/// Incremental evaluation state for a growing cleaned set.
#[derive(Debug, Clone)]
pub struct EvState {
    cleaned: Vec<bool>,
    term_sec: Vec<f64>,
    pair_sec: Vec<f64>,
    ev: f64,
}

impl EvState {
    /// Current `EV(T)`.
    #[inline]
    pub fn ev(&self) -> f64 {
        self.ev
    }

    /// Whether object `i` is in the cleaned set.
    #[inline]
    pub fn is_cleaned(&self, i: usize) -> bool {
        self.cleaned[i]
    }
}

/// The owned, `T`-independent precomputation of the scoped engine: per-
/// term `E[g²]` values, shared-scope conditional-expectation tables,
/// the object → term/pair adjacency lists, and the `T = ∅` state.
///
/// `ScopedTables` holds **no borrows** and is `Send + Sync`, so one
/// build can back many [`ScopedEv`] engines — per-worker engines in a
/// sharded sweep, or engines in later sessions served from a
/// [`CacheStore`](crate::planner::CacheStore). The tables are only
/// meaningful for the exact (instance, query) pair they were built
/// from; [`ScopedEv::with_tables`] checks the dimensions it can
/// (object and term counts) but the caller vouches for the rest.
pub struct ScopedTables {
    /// Number of objects in the instance the tables were built from.
    n: usize,
    terms: Vec<TermInfo>,
    pairs: Vec<(usize, usize, PairInfo)>,
    /// Terms whose scope contains each object.
    term_of_obj: Vec<Vec<u32>>,
    /// Pairs whose *shared* scope contains each object.
    pair_of_obj: Vec<Vec<u32>>,
    /// The `T = ∅` state: every term's and pair's second moment with
    /// nothing cleaned, and `EV(∅)`.
    empty: EvState,
    /// Query-term evaluations spent building the tables.
    build_evals: u64,
}

impl ScopedTables {
    /// Precomputes the T-independent quantities. Cost is
    /// `O(Σ_k V^{|S_k|} + Σ_{sharing pairs} V^{|S_k|})`. Temp buffers
    /// come from the thread-local [`ScopedScratch`] pool, so repeated
    /// builds on a warm worker allocate only the escaping tables.
    pub fn build<Q: DecomposableQuery + ?Sized>(instance: &Instance, query: &Q) -> Self {
        let mut scratch = ScopedScratch::take();
        let tables = Self::build_with_scratch(instance, query, &mut scratch);
        scratch.recycle();
        tables
    }

    /// [`ScopedTables::build`] with caller-supplied scratch buffers.
    pub fn build_with_scratch<Q: DecomposableQuery + ?Sized>(
        instance: &Instance,
        query: &Q,
        scratch: &mut ScopedScratch,
    ) -> Self {
        let n = instance.len();
        let m = query.num_terms();
        let joint = instance.joint();
        let mut build_evals = 0u64;
        let mut dists: Vec<&DiscreteDist> = Vec::new();

        // --- per-term: E[g²] and the T = ∅ second moment ---
        let mut terms = Vec::with_capacity(m);
        let mut term_sec = Vec::with_capacity(m);
        let mut term_of_obj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for k in 0..m {
            let scope = query.term_objects(k).to_vec();
            for &o in &scope {
                term_of_obj[o].push(k as u32);
            }
            dists.clear();
            dists.extend(scope.iter().map(|&i| joint.dist(i)));
            let mut e_g2 = 0.0;
            // With nothing cleaned every outcome falls in one bucket, so
            // this pass also sums Σ p·g and Σ p exactly as
            // `ScopedEv::term_second` does for `T = ∅`, in the same
            // outcome order.
            let (mut num, mut den) = (0.0, 0.0);
            for_each_pos_outcome_with(
                &dists,
                &mut scratch.pos,
                &mut scratch.values,
                &mut scratch.prefix,
                |_, vals, p| {
                    let g = query.eval_term(k, vals);
                    build_evals += 1;
                    e_g2 += p * g * g;
                    num += p * g;
                    den += p;
                },
            );
            let mut sec = 0.0;
            if den > 0.0 {
                sec += num * num / den;
            }
            term_sec.push(sec);
            terms.push(TermInfo { scope, e_g2 });
        }

        // --- discover sharing pairs via the per-object term lists ---
        let mut pair_set: Vec<(usize, usize)> = Vec::new();
        for list in &term_of_obj {
            for i in 0..list.len() {
                for j in (i + 1)..list.len() {
                    let (a, b) = (list[i] as usize, list[j] as usize);
                    pair_set.push((a.min(b), a.max(b)));
                }
            }
        }
        pair_set.sort_unstable();
        pair_set.dedup();

        // --- per-pair: shared tables, first terms and T = ∅ moments ---
        let mut pairs = Vec::with_capacity(pair_set.len());
        let mut pair_sec = Vec::with_capacity(pair_set.len());
        let mut pair_of_obj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (pidx, &(k1, k2)) in pair_set.iter().enumerate() {
            let shared: Vec<usize> = terms[k1]
                .scope
                .iter()
                .copied()
                .filter(|o| terms[k2].scope.binary_search(o).is_ok())
                .collect();
            debug_assert!(!shared.is_empty());
            for &o in &shared {
                pair_of_obj[o].push(pidx as u32);
            }
            let shared_sizes: Vec<usize> = shared
                .iter()
                .map(|&o| joint.dist(o).support_size())
                .collect();
            let shared_probs: Vec<Vec<f64>> = shared
                .iter()
                .map(|&o| joint.dist(o).probs().to_vec())
                .collect();
            let a = conditional_expectation_table(
                instance,
                query,
                k1,
                &terms[k1].scope,
                &shared,
                &mut build_evals,
                scratch,
            );
            let b = conditional_expectation_table(
                instance,
                query,
                k2,
                &terms[k2].scope,
                &shared,
                &mut build_evals,
                scratch,
            );
            let mut first = 0.0;
            // With nothing cleaned the shared scope is one bucket, so this
            // pass also sums the `T = ∅` moment exactly as
            // `ScopedEv::pair_second` does, in the same outcome order.
            let (mut ared, mut bred, mut pkept) = (0.0, 0.0, 0.0);
            let flat = flat_probs(&shared_sizes, &shared_probs);
            for ((pa, pb), pf) in a.iter().zip(&b).zip(&flat) {
                first += pf * pa * pb;
                ared += pf * pa;
                bred += pf * pb;
                pkept += pf;
            }
            let mut sec = 0.0;
            if pkept > 0.0 {
                sec += ared * bred / pkept;
            }
            pair_sec.push(sec);
            pairs.push((
                k1,
                k2,
                PairInfo {
                    shared,
                    shared_sizes,
                    shared_probs,
                    a,
                    b,
                    first,
                },
            ));
        }

        let ev = ev_from_seconds(&terms, &pairs, &term_sec, &pair_sec);

        Self {
            n,
            terms,
            pairs,
            term_of_obj,
            pair_of_obj,
            empty: EvState {
                cleaned: vec![false; n],
                term_sec,
                pair_sec,
                ev,
            },
            build_evals,
        }
    }

    /// Number of objects in the instance the tables were built from.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tables cover zero objects (never true once built
    /// from a validated instance).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of decomposed terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of scope-sharing claim pairs.
    pub fn num_sharing_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Query-term evaluations spent building the tables — the work a
    /// cache hit saves.
    pub fn build_evals(&self) -> u64 {
        self.build_evals
    }
}

/// The scoped `EV` engine (see module docs).
pub struct ScopedEv<'a, Q: DecomposableQuery + ?Sized> {
    instance: &'a Instance,
    query: &'a Q,
    tables: Arc<ScopedTables>,
    /// Objective-evaluation counter (full `EV` computations and
    /// incremental deltas), surfaced as planner diagnostics.
    evals: std::cell::Cell<u64>,
    /// Pooled scratch for [`term_second`](Self::term_second) /
    /// [`pair_second`](Self::pair_second); recycled on drop.
    scratch: std::cell::RefCell<ScopedScratch>,
    /// Scope-dist buffer (lifetime-bound, so per-engine not pooled).
    dist_buf: std::cell::RefCell<Vec<&'a DiscreteDist>>,
}

impl<Q: DecomposableQuery + ?Sized> Drop for ScopedEv<'_, Q> {
    fn drop(&mut self) {
        std::mem::take(&mut *self.scratch.get_mut()).recycle();
    }
}

impl<'a, Q: DecomposableQuery + ?Sized> ScopedEv<'a, Q> {
    /// Builds the engine, precomputing its [`ScopedTables`] from
    /// scratch.
    pub fn new(instance: &'a Instance, query: &'a Q) -> Self {
        Self::with_tables(
            instance,
            query,
            Arc::new(ScopedTables::build(instance, query)),
        )
    }

    /// Builds the engine around previously computed tables, skipping
    /// the expensive precomputation. The tables **must** have been
    /// built from an identical (instance, query) pair — the dimensions
    /// are checked, the contents are the caller's contract (this is the
    /// fingerprint-collision caveat of the planner's
    /// [`CacheStore`](crate::planner::CacheStore)).
    ///
    /// # Panics
    /// When the table dimensions do not match `instance`/`query`.
    pub fn with_tables(instance: &'a Instance, query: &'a Q, tables: Arc<ScopedTables>) -> Self {
        assert_eq!(
            tables.n,
            instance.len(),
            "ScopedTables built for a different instance size"
        );
        assert_eq!(
            tables.terms.len(),
            query.num_terms(),
            "ScopedTables built for a different query shape"
        );
        Self {
            instance,
            query,
            tables,
            evals: std::cell::Cell::new(0),
            scratch: std::cell::RefCell::new(ScopedScratch::take()),
            dist_buf: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// The engine with its evaluation counter set to `evals` — an
    /// engine rebuilt around the tables of an earlier one continues its
    /// count.
    pub(crate) fn with_eval_count(self, evals: u64) -> Self {
        self.evals.set(evals);
        self
    }

    /// The shared precomputed tables (clone the `Arc` to seed further
    /// engines over the same instance and query).
    pub fn tables(&self) -> &Arc<ScopedTables> {
        &self.tables
    }

    /// Objective evaluations (full `EV` computations plus incremental
    /// deltas) performed since construction, plus any count carried
    /// over by `with_eval_count`.
    pub fn eval_count(&self) -> u64 {
        self.evals.get()
    }

    #[inline]
    fn count_eval(&self) {
        self.evals.set(self.evals.get() + 1);
    }

    /// Counts an evaluation that was served from a memo (sweep
    /// resumption) instead of computed here. Keeping the counter in
    /// lockstep with from-scratch runs is part of the plan
    /// byte-identity contract — diagnostics compare equal either way.
    #[inline]
    pub fn count_cached_eval(&self) {
        self.count_eval();
    }

    /// Number of decomposed terms.
    pub fn num_terms(&self) -> usize {
        self.tables.terms.len()
    }

    /// Number of scope-sharing claim pairs.
    pub fn num_sharing_pairs(&self) -> usize {
        self.tables.pairs.len()
    }

    /// `E_T[E[g_k | X_{S_k∩T}]²]` for the cleaned mask, with `flip`
    /// optionally overriding one object's cleaned status.
    fn term_second(&self, k: usize, cleaned: &[bool], flip: Option<(usize, bool)>) -> f64 {
        let scope = &self.tables.terms[k].scope;
        let joint = self.instance.joint();
        let mut dist_buf = self.dist_buf.borrow_mut();
        dist_buf.clear();
        dist_buf.extend(scope.iter().map(|&i| joint.dist(i)));
        let dists: &[&DiscreteDist] = &dist_buf;
        let mut scratch = self.scratch.borrow_mut();
        let ScopedScratch {
            keep,
            kept_axes,
            num,
            den,
            pos,
            values,
            prefix,
            ..
        } = &mut *scratch;
        keep.clear();
        keep.extend(scope.iter().map(|&o| match flip {
            Some((fo, fv)) if fo == o => fv,
            _ => cleaned[o],
        }));
        kept_axes.clear();
        kept_axes.extend((0..scope.len()).filter(|&a| keep[a]));
        let out_len: usize = kept_axes.iter().map(|&a| dists[a].support_size()).product();
        num.clear();
        num.resize(out_len, 0.0); // Σ p_total · g   per bucket
        den.clear();
        den.resize(out_len, 0.0); // Σ p_total       per bucket (= P_kept)
        let q = self.query;
        for_each_pos_outcome_with(dists, pos, values, prefix, |pos, vals, p| {
            let mut oi = 0usize;
            for &a in kept_axes.iter() {
                oi = oi * dists[a].support_size() + pos[a];
            }
            num[oi] += p * q.eval_term(k, vals);
            den[oi] += p;
        });
        let mut acc = 0.0;
        for (nv, dv) in num.iter().zip(den.iter()) {
            if *dv > 0.0 {
                acc += nv * nv / dv; // P_kept · E[g|kept]²
            }
        }
        acc
    }

    /// `E_T[E[g_k | A∩]·E[g_k' | A∩]]` for pair `p` under the cleaned
    /// mask (with optional one-object override).
    #[allow(clippy::needless_range_loop)] // axis arithmetic mirrors the math
    fn pair_second(&self, p: usize, cleaned: &[bool], flip: Option<(usize, bool)>) -> f64 {
        let info = &self.tables.pairs[p].2;
        let axes = info.shared.len();
        let mut scratch = self.scratch.borrow_mut();
        let ScopedScratch {
            keep,
            kept_axes,
            ared,
            bred,
            pkept,
            pos,
            ..
        } = &mut *scratch;
        keep.clear();
        keep.extend(info.shared.iter().map(|&o| match flip {
            Some((fo, fv)) if fo == o => fv,
            _ => cleaned[o],
        }));
        kept_axes.clear();
        for a in 0..axes {
            if keep[a] {
                kept_axes.push(a);
            }
        }
        let out_len: usize = kept_axes.iter().map(|&a| info.shared_sizes[a]).product();
        ared.clear();
        ared.resize(out_len, 0.0);
        bred.clear();
        bred.resize(out_len, 0.0);
        pkept.clear();
        pkept.resize(out_len, 0.0);
        // Odometer over the shared axes.
        pos.clear();
        pos.resize(axes, 0);
        let mut idx = 0usize;
        loop {
            let mut oi = 0usize;
            let mut p_all = 1.0;
            for a in 0..axes {
                p_all *= info.shared_probs[a][pos[a]];
            }
            for &a in kept_axes.iter() {
                oi = oi * info.shared_sizes[a] + pos[a];
            }
            ared[oi] += p_all * info.a[idx];
            bred[oi] += p_all * info.b[idx];
            pkept[oi] += p_all;
            // increment
            idx += 1;
            let mut j = axes;
            loop {
                if j == 0 {
                    let mut acc = 0.0;
                    for i in 0..out_len {
                        if pkept[i] > 0.0 {
                            acc += ared[i] * bred[i] / pkept[i];
                        }
                    }
                    return acc;
                }
                j -= 1;
                pos[j] += 1;
                if pos[j] < info.shared_sizes[j] {
                    break;
                }
                pos[j] = 0;
            }
        }
    }

    /// Stateless `EV(T)` for a cleaned mask: a full pass over every
    /// term and pair (the reference [`ScopedEv::ev_of`] is checked
    /// against, and the evaluator of the from-scratch greedy ablation).
    pub fn ev_of_mask(&self, cleaned: &[bool]) -> f64 {
        self.count_eval();
        let mut ev = 0.0;
        for k in 0..self.tables.terms.len() {
            ev += self.tables.terms[k].e_g2 - self.term_second(k, cleaned, None);
        }
        for p in 0..self.tables.pairs.len() {
            ev += 2.0 * (self.tables.pairs[p].2.first - self.pair_second(p, cleaned, None));
        }
        ev.max(0.0)
    }

    /// Stateless `EV(T)` for a cleaned index list, bit for bit
    /// [`ScopedEv::ev_of_mask`] of the same set. Only the terms and
    /// pairs `cleaned` touches are recomputed; every other one reads
    /// its stored `T = ∅` value, summed in the same order.
    pub fn ev_of(&self, cleaned: &[usize]) -> f64 {
        let tables = &*self.tables;
        let empty = &tables.empty;
        if cleaned.is_empty() {
            self.count_eval();
            return empty.ev;
        }
        let mut mask = vec![false; self.instance.len()];
        let mut term_touched = vec![false; tables.terms.len()];
        let mut pair_touched = vec![false; tables.pairs.len()];
        for &i in cleaned {
            mask[i] = true;
            for &k in &tables.term_of_obj[i] {
                term_touched[k as usize] = true;
            }
            for &p in &tables.pair_of_obj[i] {
                pair_touched[p as usize] = true;
            }
        }
        self.count_eval();
        let mut ev = 0.0;
        for (k, term) in tables.terms.iter().enumerate() {
            let sec = if term_touched[k] {
                self.term_second(k, &mask, None)
            } else {
                empty.term_sec[k]
            };
            ev += term.e_g2 - sec;
        }
        for (p, (_, _, info)) in tables.pairs.iter().enumerate() {
            let sec = if pair_touched[p] {
                self.pair_second(p, &mask, None)
            } else {
                empty.pair_sec[p]
            };
            ev += 2.0 * (info.first - sec);
        }
        ev.max(0.0)
    }

    /// Builds the incremental state for a cleaned set (a full pass).
    pub fn state_for(&self, cleaned: &[usize]) -> EvState {
        let mut mask = vec![false; self.instance.len()];
        for &i in cleaned {
            mask[i] = true;
        }
        let term_sec: Vec<f64> = (0..self.tables.terms.len())
            .map(|k| self.term_second(k, &mask, None))
            .collect();
        let pair_sec: Vec<f64> = (0..self.tables.pairs.len())
            .map(|p| self.pair_second(p, &mask, None))
            .collect();
        let ev = ev_from_seconds(&self.tables.terms, &self.tables.pairs, &term_sec, &pair_sec);
        EvState {
            cleaned: mask,
            term_sec,
            pair_sec,
            ev,
        }
    }

    /// The empty-set state (`T = ∅`), computed once per table build.
    pub fn initial_state(&self) -> EvState {
        self.tables.empty.clone()
    }

    /// `EV(T) − EV(T ∪ {i})` — the MinVar benefit of additionally
    /// cleaning `i`. Touches only terms/pairs involving `i`; `O(local)`.
    pub fn delta(&self, st: &EvState, i: usize) -> f64 {
        if st.cleaned[i] {
            return 0.0;
        }
        self.count_eval();
        let mut d = 0.0;
        for &k in &self.tables.term_of_obj[i] {
            let k = k as usize;
            d += self.term_second(k, &st.cleaned, Some((i, true))) - st.term_sec[k];
        }
        for &p in &self.tables.pair_of_obj[i] {
            let p = p as usize;
            d += 2.0 * (self.pair_second(p, &st.cleaned, Some((i, true))) - st.pair_sec[p]);
        }
        d.max(0.0)
    }

    /// `EV(T \ {i}) − EV(T)` — the EV increase from *removing* `i` from
    /// the cleaned set (used by the submodular `Best` marginals).
    pub fn removal_delta(&self, st: &EvState, i: usize) -> f64 {
        if !st.cleaned[i] {
            return 0.0;
        }
        self.count_eval();
        let mut d = 0.0;
        for &k in &self.tables.term_of_obj[i] {
            let k = k as usize;
            d += st.term_sec[k] - self.term_second(k, &st.cleaned, Some((i, false)));
        }
        for &p in &self.tables.pair_of_obj[i] {
            let p = p as usize;
            d += 2.0 * (st.pair_sec[p] - self.pair_second(p, &st.cleaned, Some((i, false))));
        }
        d.max(0.0)
    }

    /// State with *every* object cleaned (`EV = 0`).
    pub fn full_state(&self) -> EvState {
        let all: Vec<usize> = (0..self.instance.len()).collect();
        self.state_for(&all)
    }

    /// Commits object `i` into the state, updating the affected terms.
    pub fn apply(&self, st: &mut EvState, i: usize) {
        if st.cleaned[i] {
            return;
        }
        st.cleaned[i] = true;
        for &k in &self.tables.term_of_obj[i] {
            let k = k as usize;
            let new_sec = self.term_second(k, &st.cleaned, None);
            st.ev -= new_sec - st.term_sec[k];
            st.term_sec[k] = new_sec;
        }
        for &p in &self.tables.pair_of_obj[i] {
            let p = p as usize;
            let new_sec = self.pair_second(p, &st.cleaned, None);
            st.ev -= 2.0 * (new_sec - st.pair_sec[p]);
            st.pair_sec[p] = new_sec;
        }
        st.ev = st.ev.max(0.0);
    }

    /// Objects that can possibly reduce `EV` (those referenced by any
    /// term scope).
    pub fn relevant_objects(&self) -> Vec<usize> {
        (0..self.instance.len())
            .filter(|&i| !self.tables.term_of_obj[i].is_empty())
            .collect()
    }

    /// Objects whose benefit may have changed after cleaning `i`
    /// (scope-mates through shared terms or pairs), excluding `i` itself.
    pub fn affected_by(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for &k in &self.tables.term_of_obj[i] {
            out.extend(self.tables.terms[k as usize].scope.iter().copied());
        }
        for &p in &self.tables.pair_of_obj[i] {
            let (k1, k2, _) = &self.tables.pairs[p as usize];
            out.extend(self.tables.terms[*k1].scope.iter().copied());
            out.extend(self.tables.terms[*k2].scope.iter().copied());
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&o| o != i);
        out
    }
}

/// `EV` from every term's and pair's second moment, summed terms
/// first, then pairs, in index order, and clamped at zero.
fn ev_from_seconds(
    terms: &[TermInfo],
    pairs: &[(usize, usize, PairInfo)],
    term_sec: &[f64],
    pair_sec: &[f64],
) -> f64 {
    let mut ev = 0.0;
    for (t, sec) in terms.iter().zip(term_sec) {
        ev += t.e_g2 - sec;
    }
    for ((_, _, info), sec) in pairs.iter().zip(pair_sec) {
        ev += 2.0 * (info.first - sec);
    }
    ev.max(0.0)
}

/// `E[g_k | shared = s]` flat over the shared axes (in shared order).
/// Only the returned table is allocated; all temporaries live in
/// `scratch`.
#[allow(clippy::too_many_arguments)] // internal builder helper
fn conditional_expectation_table<Q: DecomposableQuery + ?Sized>(
    instance: &Instance,
    query: &Q,
    k: usize,
    scope: &[usize],
    shared: &[usize],
    evals: &mut u64,
    scratch: &mut ScopedScratch,
) -> Vec<f64> {
    let joint = instance.joint();
    let ScopedScratch {
        kept_axes: shared_axes,
        den,
        pos,
        values,
        prefix,
        ..
    } = scratch;
    let dists: Vec<&DiscreteDist> = scope.iter().map(|&i| joint.dist(i)).collect();
    // Axis index within the scope for each shared object.
    shared_axes.clear();
    shared_axes.extend(
        shared
            .iter()
            .map(|o| scope.binary_search(o).expect("shared ⊆ scope")),
    );
    let out_len: usize = shared_axes
        .iter()
        .map(|&a| dists[a].support_size())
        .product();
    let mut num = vec![0.0f64; out_len];
    den.clear();
    den.resize(out_len, 0.0);
    for_each_pos_outcome_with(&dists, pos, values, prefix, |pos, vals, p| {
        let mut oi = 0usize;
        for &a in shared_axes.iter() {
            oi = oi * dists[a].support_size() + pos[a];
        }
        num[oi] += p * query.eval_term(k, vals);
        *evals += 1;
        den[oi] += p;
    });
    for (nv, dv) in num.iter_mut().zip(den.iter()) {
        if *dv > 0.0 {
            *nv /= dv;
        }
    }
    num
}

/// Flat joint pmf over the given axes (row-major, last axis fastest).
fn flat_probs(sizes: &[usize], probs: &[Vec<f64>]) -> Vec<f64> {
    let total: usize = sizes.iter().product();
    let mut out = vec![1.0f64; total];
    if total == 0 {
        return out;
    }
    let mut stride = total;
    for (a, &sz) in sizes.iter().enumerate() {
        stride /= sz;
        for (idx, o) in out.iter_mut().enumerate() {
            let pos = (idx / stride) % sz;
            *o *= probs[a][pos];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ev::exact::ev_exact;
    use fc_claims::query::IndicatorSense;
    use fc_claims::{
        BiasQuery, ClaimSet, Direction, DupQuery, FragQuery, LinearClaim, ThresholdIndicatorQuery,
    };
    use fc_uncertain::{rng_from_seed, DiscreteDist};
    use rand::Rng;

    fn random_instance(n: usize, seed: u64) -> Instance {
        let mut rng = rng_from_seed(seed);
        let dists = (0..n)
            .map(|_| {
                let k = rng.gen_range(1..=4);
                let vals: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..10.0)).collect();
                let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
                DiscreteDist::from_weights(vals.into_iter().zip(weights)).unwrap()
            })
            .collect::<Vec<_>>();
        let current = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let costs = (0..n).map(|_| rng.gen_range(1..10)).collect();
        Instance::new(dists, current, costs).unwrap()
    }

    /// Overlapping claims so the pair machinery is exercised.
    fn overlapping_claimset() -> ClaimSet {
        ClaimSet::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            vec![
                LinearClaim::window_sum(0, 2).unwrap(),
                LinearClaim::window_sum(1, 2).unwrap(),
                LinearClaim::window_sum(2, 2).unwrap(),
            ],
            vec![1.0, 1.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    #[test]
    fn scoped_matches_exact_for_dup() {
        let inst = random_instance(4, 7);
        let q = DupQuery::new(overlapping_claimset(), 8.0);
        let eng = ScopedEv::new(&inst, &q);
        assert!(eng.num_sharing_pairs() >= 2);
        for cleaned in [
            vec![],
            vec![0],
            vec![1],
            vec![3],
            vec![0, 2],
            vec![1, 2],
            vec![0, 1, 2, 3],
        ] {
            let a = eng.ev_of(&cleaned);
            let b = ev_exact(&inst, &q, &cleaned);
            assert!(
                (a - b).abs() < 1e-10,
                "cleaned {cleaned:?}: scoped {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn scoped_matches_exact_for_frag() {
        let inst = random_instance(4, 13);
        let q = FragQuery::new(overlapping_claimset(), 9.0);
        let eng = ScopedEv::new(&inst, &q);
        for cleaned in [vec![], vec![2], vec![0, 3], vec![1, 2, 3]] {
            let a = eng.ev_of(&cleaned);
            let b = ev_exact(&inst, &q, &cleaned);
            assert!(
                (a - b).abs() < 1e-9,
                "cleaned {cleaned:?}: scoped {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn scoped_matches_exact_for_bias() {
        let inst = random_instance(4, 21);
        let q = BiasQuery::new(overlapping_claimset(), 5.0);
        let eng = ScopedEv::new(&inst, &q);
        for cleaned in [vec![], vec![1], vec![0, 2], vec![0, 1, 2, 3]] {
            let a = eng.ev_of(&cleaned);
            let b = ev_exact(&inst, &q, &cleaned);
            assert!(
                (a - b).abs() < 1e-9,
                "cleaned {cleaned:?}: scoped {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn scoped_matches_exact_with_uncertain_original() {
        // Reference::UncertainOriginal makes every scope include q°'s
        // objects — all pairs share.
        let inst = random_instance(4, 33);
        let q = DupQuery::relative_to_original(overlapping_claimset());
        let eng = ScopedEv::new(&inst, &q);
        assert_eq!(eng.num_sharing_pairs(), 3);
        for cleaned in [vec![], vec![0], vec![2, 3]] {
            let a = eng.ev_of(&cleaned);
            let b = ev_exact(&inst, &q, &cleaned);
            assert!(
                (a - b).abs() < 1e-9,
                "cleaned {cleaned:?}: scoped {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn example6_via_scoped() {
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
    }

    #[test]
    fn incremental_state_matches_stateless() {
        let inst = random_instance(6, 5);
        let cs = ClaimSet::new(
            LinearClaim::window_sum(0, 3).unwrap(),
            vec![
                LinearClaim::window_sum(0, 3).unwrap(),
                LinearClaim::window_sum(2, 3).unwrap(),
                LinearClaim::window_sum(3, 3).unwrap(),
            ],
            vec![1.0, 2.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap();
        let q = DupQuery::new(cs, 12.0);
        let eng = ScopedEv::new(&inst, &q);
        let mut st = eng.initial_state();
        assert!((st.ev() - eng.ev_of(&[])).abs() < 1e-12);
        let order = [4usize, 1, 5, 0];
        let mut cleaned: Vec<usize> = Vec::new();
        for &i in &order {
            let d = eng.delta(&st, i);
            let before = st.ev();
            eng.apply(&mut st, i);
            cleaned.push(i);
            let direct = eng.ev_of(&cleaned);
            assert!(
                (st.ev() - direct).abs() < 1e-9,
                "after {cleaned:?}: state {} vs direct {direct}",
                st.ev()
            );
            assert!(
                (before - st.ev() - d).abs() < 1e-9,
                "delta mismatch at {i}: predicted {d}, actual {}",
                before - st.ev()
            );
        }
    }

    #[test]
    fn monotone_and_submodular_on_random_instances() {
        // Lemma 3.4 (monotone) + Lemma 3.5 (formal-sense submodularity:
        // since EV is non-increasing, marginal *reductions* grow with T)
        // spot checks.
        for seed in [1u64, 2, 3] {
            let inst = random_instance(5, seed);
            let cs = ClaimSet::new(
                LinearClaim::window_sum(0, 2).unwrap(),
                vec![
                    LinearClaim::window_sum(0, 2).unwrap(),
                    LinearClaim::window_sum(1, 2).unwrap(),
                    LinearClaim::window_sum(3, 2).unwrap(),
                ],
                vec![1.0, 1.0, 1.0],
                Direction::HigherIsStronger,
            )
            .unwrap();
            let q = DupQuery::new(cs, 7.0);
            let eng = ScopedEv::new(&inst, &q);
            // Monotone: EV(T) ≥ EV(T ∪ {o}).
            let t = vec![1usize];
            let t2 = vec![1usize, 3];
            assert!(eng.ev_of(&t) >= eng.ev_of(&t2) - 1e-12);
            // Lemma 3.5: EV(T∪x) − EV(T) ≥ EV(T'∪x) − EV(T'), i.e. the
            // reduction from cleaning x grows as the set grows.
            let gain_small = eng.ev_of(&[1]) - eng.ev_of(&[1, 4]);
            let gain_large = eng.ev_of(&[1, 3]) - eng.ev_of(&[1, 3, 4]);
            assert!(gain_small <= gain_large + 1e-9, "seed {seed}");
        }
    }

    /// Random overlapping window-sum claims over `n` objects.
    fn random_claimset(n: usize, rng: &mut impl Rng) -> ClaimSet {
        fn window(n: usize, rng: &mut impl Rng) -> LinearClaim {
            let start = rng.gen_range(0..n);
            let width = rng.gen_range(1..=(n - start).min(3));
            LinearClaim::window_sum(start, width).unwrap()
        }
        let original = window(n, rng);
        let family = rng.gen_range(1..=4);
        let perturbations: Vec<LinearClaim> = (0..family).map(|_| window(n, rng)).collect();
        let weights = (0..family).map(|_| rng.gen_range(0.5..2.0)).collect();
        ClaimSet::new(
            original,
            perturbations,
            weights,
            Direction::HigherIsStronger,
        )
        .unwrap()
    }

    /// The local `ev_of` is the full pass bit for bit, and the stored
    /// `T = ∅` state is a freshly computed one, on random instances,
    /// queries and selections (`∅` and every object included).
    #[test]
    fn local_evaluator_and_stored_empty_state_match_the_full_pass_bit_for_bit() {
        fn check<Q: DecomposableQuery + ?Sized>(inst: &Instance, q: &Q, rng: &mut impl Rng) {
            let eng = ScopedEv::new(inst, q);
            let n = inst.len();
            let stored = eng.initial_state();
            let fresh = eng.state_for(&[]);
            assert_eq!(stored.cleaned, fresh.cleaned);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&stored.term_sec), bits(&fresh.term_sec));
            assert_eq!(bits(&stored.pair_sec), bits(&fresh.pair_sec));
            assert_eq!(stored.ev.to_bits(), fresh.ev.to_bits());
            let mut selections = vec![Vec::new(), (0..n).collect::<Vec<usize>>()];
            for _ in 0..8 {
                selections.push((0..n).filter(|_| rng.gen_range(0..3) == 0).collect());
            }
            for sel in selections {
                let mut mask = vec![false; n];
                for &i in &sel {
                    mask[i] = true;
                }
                let (local, full) = (eng.ev_of(&sel), eng.ev_of_mask(&mask));
                assert_eq!(
                    local.to_bits(),
                    full.to_bits(),
                    "{sel:?}: {local} vs {full}"
                );
            }
        }
        for seed in 0..40u64 {
            let mut rng = rng_from_seed(1_000 + seed);
            let n = rng.gen_range(2..=7);
            let inst = random_instance(n, seed);
            let theta = rng.gen_range(2.0..20.0);
            check(
                &inst,
                &DupQuery::new(random_claimset(n, &mut rng), theta),
                &mut rng,
            );
            check(
                &inst,
                &FragQuery::new(random_claimset(n, &mut rng), theta),
                &mut rng,
            );
            let start = rng.gen_range(0..n);
            let claim = LinearClaim::window_sum(start, n - start).unwrap();
            let indicator = ThresholdIndicatorQuery::new(claim, theta, IndicatorSense::Below);
            check(&inst, &indicator, &mut rng);
        }
    }

    #[test]
    fn affected_by_lists_scope_mates() {
        let inst = random_instance(6, 9);
        let cs = ClaimSet::new(
            LinearClaim::window_sum(0, 2).unwrap(),
            vec![
                LinearClaim::window_sum(0, 2).unwrap(),
                LinearClaim::window_sum(2, 2).unwrap(),
            ],
            vec![1.0, 1.0],
            Direction::HigherIsStronger,
        )
        .unwrap();
        let q = DupQuery::new(cs, 5.0);
        let eng = ScopedEv::new(&inst, &q);
        assert_eq!(eng.affected_by(0), vec![1]);
        assert_eq!(eng.affected_by(2), vec![3]);
        assert!(eng.relevant_objects() == vec![0, 1, 2, 3]);
    }
}
