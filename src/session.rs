//! The [`Session`] API: one long-lived entry point for the whole pipeline.
//!
//! A session owns one [`ExecContext`] — the [`Parallelism`] level, the
//! engine's other execution settings, and persistent,
//! instance-fingerprinted caches — and exposes the paper's six release
//! algorithms behind the object-safe [`Mechanism`] trait:
//!
//! ```no_run
//! use dpsyn::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let query = JoinQuery::two_table(16, 16, 16);
//! let mut instance = Instance::empty_for(&query)?;
//! instance.relation_mut(0).add_one(vec![1, 2])?;
//! instance.relation_mut(1).add_one(vec![2, 3])?;
//!
//! let session = Session::new();
//! let workload = session.random_sign_workload(&query, 64, 7)?;
//! let request = ReleaseRequest::new(
//!     &query,
//!     &instance,
//!     &workload,
//!     PrivacyParams::new(1.0, 1e-6)?,
//! )
//! .with_seed(7);
//!
//! // Any mechanism runs through the same entry point.
//! let release = session.release(&TwoTable::default(), &request)?;
//! // Answered from the query weights the release memoised in the session.
//! let answers = release.answer_all_in(session.context(), &workload)?;
//! # Ok(())
//! # }
//! ```
//!
//! ### Cache reuse
//!
//! The expensive substrate of the releases is shared **across calls**: the
//! full join used for truth evaluation and the boundary values `T_F(I)`
//! that residual sensitivity reads off the `2^m` sub-join lattice are kept
//! in the session (the lattice itself is built and dropped inside the cold
//! call that first needs those values; local sensitivity and every later
//! `RS^β` read the kept map).  A session keeps a small **LRU of per-instance
//! slots** ([`dpsyn_relational::DEFAULT_CACHE_SLOTS`]), each keyed by a
//! structural fingerprint of the data
//! ([`dpsyn_relational::instance_fingerprint`]): repeat releases,
//! sensitivity sweeps over `β`, workload evaluations, and interleaved calls
//! over a small working set of instances (hierarchical per-part releases,
//! multi-tenant serving) skip the join work entirely, while *any* change to
//! an instance changes its fingerprint and starts cold — stale answers are
//! structurally impossible.  [`Session::clear_cache`] drops the cached
//! results (they are held until then).
//!
//! A release also memoises the work that is the same for every release
//! over one `(instance, workload)` pair, so a warm release runs only its
//! noise draws and the multiplicative-weights rounds:
//!
//! - **In the context** ([`ExecContext::context_memo`]): PMW's per-cell
//!   query weights, which depend on the histogram layout and the workload
//!   alone.  One workload's weights are held at a time; they survive
//!   streaming updates and slot eviction.  `SyntheticRelease::answer_all_in`
//!   answers a release's workload from them, so answering right after a
//!   release builds no weights (and counts one more cache hit).
//! - **In the instance's slot** ([`ExecContext::slot_memo`]): the boundary
//!   values, `count(I)`, PMW's true answers (one workload at a time),
//!   `RS^β(I)` (one `β` at a time) and the hierarchical partition's
//!   `|E| > 1` degree maps.  They
//!   are dropped with the slot, by [`Session::apply_updates`] or by
//!   eviction.
//!
//! Each entry is keyed by the exact encoding of its non-data inputs
//! ([`QueryFamily::key`], `β`'s bits, the layout), compared in full on
//! every hit.
//!
//! ### Determinism contract
//!
//! Sessions never trade correctness for speed:
//!
//! 1. **Seeded releases are byte-reproducible.** [`Session::release`] draws
//!    its RNG from [`ReleaseRequest::seed`] and runs [`Mechanism::release`]
//!    on the session's context — the released histogram, noisy total and
//!    `Δ̃` equal those of `Mechanism::release` on a fresh [`ExecContext`]
//!    with `seeded_rng(seed)`, bit for bit.
//! 2. **Warm equals cold.** The cached full join comes from the same
//!    size-ordered fold as [`dpsyn_relational::join()`], and every memo
//!    entry — the context's query weights, the slot's boundary values,
//!    `count(I)`, true answers, `RS^β` and degree maps — is the value its
//!    cold computation
//!    returns for exactly the inputs its key encodes, so a warm session's
//!    outputs are byte-identical to a cold session's.
//! 3. **Parallelism is invisible.** Worker-pool loops are morsel-driven
//!    with work stealing ([`dpsyn_relational::exec`]): workers claim
//!    morsels dynamically, but every result is tagged with its morsel index
//!    and merged in morsel order — so `Session::sequential()` and a
//!    64-thread session produce the same bytes at every morsel size,
//!    differing only in wall-clock time.

use dpsyn_core::{IndependentLaplaceBaseline, Mechanism, SyntheticRelease};
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::{AnswerOps, AnswerSet, QueryFamily};
use dpsyn_relational::{ExecContext, Instance, JoinQuery, Parallelism, UpdateBatch, UpdateReport};
use dpsyn_sensitivity::{ResidualSensitivity, SensitivityOps};

/// Everything one release needs, bundled: the join query, the private
/// instance, the query workload, the privacy budget, and the RNG seed that
/// makes the run reproducible.
///
/// Construct with [`ReleaseRequest::new`] and chain
/// [`ReleaseRequest::with_seed`]; the references borrow from the caller, so
/// a request is cheap to build per call while the session persists.
#[derive(Debug, Clone, Copy)]
pub struct ReleaseRequest<'a> {
    query: &'a JoinQuery,
    instance: &'a Instance,
    workload: &'a QueryFamily,
    params: PrivacyParams,
    seed: u64,
}

impl<'a> ReleaseRequest<'a> {
    /// Bundles a release's inputs with the default seed 0.
    pub fn new(
        query: &'a JoinQuery,
        instance: &'a Instance,
        workload: &'a QueryFamily,
        params: PrivacyParams,
    ) -> Self {
        ReleaseRequest {
            query,
            instance,
            workload,
            params,
            seed: 0,
        }
    }

    /// Sets the RNG seed the release will be run with (identical seeds give
    /// byte-identical releases).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The join query.
    pub fn query(&self) -> &'a JoinQuery {
        self.query
    }

    /// The private instance.
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// The query workload.
    pub fn workload(&self) -> &'a QueryFamily {
        self.workload
    }

    /// The privacy budget.
    pub fn params(&self) -> PrivacyParams {
        self.params
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A long-lived execution session: owns an [`ExecContext`] (the
/// parallelism knob and the persistent sub-join caches) and runs every
/// release algorithm through [`Session::release`].  See the module docs for
/// the cache-reuse and determinism contract.
#[derive(Debug)]
pub struct Session {
    ctx: ExecContext,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session at the environment's default parallelism (available cores,
    /// or the `DPSYN_THREADS` environment variable).
    pub fn new() -> Self {
        Session {
            ctx: ExecContext::default(),
        }
    }

    /// A strictly sequential session (one worker, no spawned threads) —
    /// the exact historical single-threaded code paths.
    pub fn sequential() -> Self {
        Session {
            ctx: ExecContext::sequential(),
        }
    }

    /// A session with exactly `n` worker threads.
    pub fn with_threads(n: usize) -> Self {
        Session {
            ctx: ExecContext::with_threads(n),
        }
    }

    /// The session's parallelism level.
    pub fn parallelism(&self) -> Parallelism {
        self.ctx.parallelism()
    }

    /// The backing execution context, for APIs that take one directly.
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    // --- releasing ---------------------------------------------------------

    /// Runs any release [`Mechanism`] on the bundled request through the
    /// session's context, seeding the RNG from [`ReleaseRequest::seed`].
    ///
    /// Output is byte-identical to [`Mechanism::release`] on a fresh
    /// [`ExecContext`] with `seeded_rng(request.seed())` — and to
    /// re-running the same request on this (now warm) session.
    pub fn release(
        &self,
        mechanism: &dyn Mechanism,
        request: &ReleaseRequest<'_>,
    ) -> dpsyn_core::Result<SyntheticRelease> {
        let mut rng = seeded_rng(request.seed);
        mechanism.release(
            &self.ctx,
            request.query,
            request.instance,
            request.workload,
            request.params,
            &mut rng,
        )
    }

    /// Runs the per-query Laplace baseline (which answers the workload
    /// directly instead of producing synthetic data — see the
    /// [`dpsyn_core::mechanism`] docs for why it is not a [`Mechanism`]).
    pub fn answer_baseline(
        &self,
        baseline: &IndependentLaplaceBaseline,
        request: &ReleaseRequest<'_>,
    ) -> dpsyn_core::Result<AnswerSet> {
        let mut rng = seeded_rng(request.seed);
        baseline.answer_all(
            &self.ctx,
            request.query,
            request.instance,
            request.workload,
            request.params,
            &mut rng,
        )
    }

    // --- non-private evaluation (truth values, diagnostics) ----------------

    /// The exact (non-private) answers of a workload on an instance, through
    /// the session's cached full join — repeated truth evaluations over one
    /// instance join once.
    pub fn answer_truth(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        workload: &QueryFamily,
    ) -> dpsyn_query::Result<AnswerSet> {
        self.ctx.answer_all_on_instance(query, instance, workload)
    }

    /// The join size `count(I)` at the session's parallelism.
    pub fn join_size(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> dpsyn_relational::Result<u128> {
        self.ctx.join_size(query, instance)
    }

    /// A seeded random-sign workload (convenience wrapper so callers don't
    /// have to manage an RNG for workload generation).
    pub fn random_sign_workload(
        &self,
        query: &JoinQuery,
        size: usize,
        seed: u64,
    ) -> dpsyn_query::Result<QueryFamily> {
        let mut rng = seeded_rng(seed);
        QueryFamily::random_sign(query, size, &mut rng)
    }

    // --- sensitivity -------------------------------------------------------

    /// Local sensitivity `LS_count(I)`, read off the session's memoised
    /// boundary values (built once per instance, at the session's
    /// parallelism).
    pub fn local_sensitivity(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> dpsyn_sensitivity::Result<u128> {
        self.ctx.local_sensitivity(query, instance)
    }

    /// Residual sensitivity `RS^β_count(I)`, through the session cache —
    /// sweeping `β` over one instance builds the subset lattice once.
    pub fn residual_sensitivity(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
    ) -> dpsyn_sensitivity::Result<ResidualSensitivity> {
        self.ctx.residual_sensitivity(query, instance, beta)
    }

    // --- streaming updates --------------------------------------------------

    /// Applies a streaming [`UpdateBatch`] of inserts and deletes to
    /// `instance` and drops the session's warm slot for the old instance
    /// (see [`dpsyn_relational::stream`] and [`ExecContext::apply_updates`]):
    /// the next call over the updated instance rebuilds its full join and
    /// memoised values.
    ///
    /// A post-update release over the updated instance is byte-identical to
    /// one from a cold session at the same seed, at any thread count.  On a
    /// validation error
    /// (unknown relation, bad arity or domain, a delete below zero) neither
    /// the instance nor the cache is modified.
    pub fn apply_updates(
        &self,
        query: &JoinQuery,
        instance: &mut Instance,
        batch: &UpdateBatch,
    ) -> dpsyn_relational::Result<UpdateReport> {
        self.ctx.apply_updates(query, instance, batch)
    }

    // --- cache introspection ------------------------------------------------

    /// Number of instances currently holding a cache slot.
    pub fn cached_instances(&self) -> usize {
        self.ctx.cached_instances()
    }

    /// Approximate resident bytes of the cached full joins' tuple buffers:
    /// the only join results a session keeps.
    pub fn cached_subjoin_bytes(&self) -> usize {
        self.ctx.cached_subjoin_bytes()
    }

    /// LRU slot-eviction counters since the session was created (or since
    /// [`Session::clear_cache`]), for auditing what the cache discarded.
    pub fn eviction_stats(&self) -> dpsyn_relational::EvictionStats {
        self.ctx.eviction_stats()
    }

    /// `(hits, misses)` of the persistent caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.ctx.cache_stats()
    }

    /// Drops every persisted cache entry; the next call starts cold.
    pub fn clear_cache(&self) {
        self.ctx.clear_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_core::{HierarchicalRelease, MultiTable, TwoTable};
    use dpsyn_query::ProductQuery;
    use rand::Rng;

    fn fixture() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..6u64 {
            inst.relation_mut(0).add(vec![a, a % 3], 1).unwrap();
            inst.relation_mut(1).add(vec![a % 3, a], 1).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn session_release_matches_a_fresh_context_and_is_seed_stable() {
        let (q, inst) = fixture();
        let session = Session::sequential();
        let workload = session.random_sign_workload(&q, 8, 5).unwrap();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let request = ReleaseRequest::new(&q, &inst, &workload, params).with_seed(9);

        let via_session = session.release(&TwoTable::default(), &request).unwrap();
        let fresh = TwoTable::default()
            .release(
                &ExecContext::default(),
                &q,
                &inst,
                &workload,
                params,
                &mut seeded_rng(9),
            )
            .unwrap();
        assert_eq!(via_session.delta_tilde(), fresh.delta_tilde());
        assert_eq!(
            via_session.answer_all(&workload).unwrap().values(),
            fresh.answer_all(&workload).unwrap().values()
        );
        // Re-running the same request on the warm session changes nothing.
        let again = session.release(&TwoTable::default(), &request).unwrap();
        assert_eq!(
            again.answer_all(&workload).unwrap().values(),
            via_session.answer_all(&workload).unwrap().values()
        );
    }

    #[test]
    fn session_caches_across_calls_and_invalidates_on_edit() {
        let (q, inst) = fixture();
        let session = Session::sequential();
        let workload = session.random_sign_workload(&q, 4, 1).unwrap();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let request = ReleaseRequest::new(&q, &inst, &workload, params).with_seed(2);

        session.release(&MultiTable::default(), &request).unwrap();
        assert_eq!(session.cached_instances(), 1);
        let (hits_before, _) = session.cache_stats();
        session.release(&MultiTable::default(), &request).unwrap();
        let (hits_after, _) = session.cache_stats();
        assert!(
            hits_after > hits_before,
            "second release must hit the cache"
        );

        // Sensitivity through the same session reuses the memoised boundary
        // values too, and truth answering reuses the shared join.
        let rs = session.residual_sensitivity(&q, &inst, 0.5).unwrap();
        assert_eq!(
            rs,
            dpsyn_sensitivity::residual_sensitivity(&q, &inst, 0.5).unwrap()
        );
        let truth = session.answer_truth(&q, &inst, &workload).unwrap();
        assert_eq!(
            truth.values(),
            ExecContext::sequential()
                .answer_all_on_instance(&q, &inst, &workload)
                .unwrap()
                .values()
        );

        // Editing the instance starts cold (fingerprint change), never stale.
        let mut edited = inst.clone();
        edited.relation_mut(0).add(vec![7, 7], 3).unwrap();
        assert_eq!(
            session.local_sensitivity(&q, &edited).unwrap(),
            dpsyn_sensitivity::local_sensitivity(&q, &edited).unwrap()
        );

        session.clear_cache();
        assert_eq!(session.cached_instances(), 0);
    }

    #[test]
    fn session_footprint_tracks_cached_full_joins() {
        let (q, inst) = fixture();
        let session = Session::sequential();
        assert_eq!(session.cached_instances(), 0);
        assert_eq!(session.cached_subjoin_bytes(), 0);
        // A residual-sensitivity call keeps its values, not its sub-joins.
        session.residual_sensitivity(&q, &inst, 0.5).unwrap();
        assert_eq!(session.cached_instances(), 1);
        assert_eq!(session.cached_subjoin_bytes(), 0);
        // Truth answering caches the full join, and the byte accounting
        // follows.
        let workload = session.random_sign_workload(&q, 4, 1).unwrap();
        session.answer_truth(&q, &inst, &workload).unwrap();
        let full = session.context().shared_join(&q, &inst).unwrap();
        assert!(full.approx_bytes() > 0);
        assert_eq!(session.cached_subjoin_bytes(), full.approx_bytes());
        session.clear_cache();
        assert_eq!(session.cached_subjoin_bytes(), 0);
    }

    /// Product queries of two sparse components with weights uniform in
    /// `[-1, 1)`: their truth answers are `f64` sums whose rounding depends
    /// on the order the full join's rows are visited.
    fn fractional_workload(q: &JoinQuery, size: usize, seed: u64) -> QueryFamily {
        let mut rng = seeded_rng(seed);
        let mut component = |domain: u64| {
            let mut weights = std::collections::BTreeMap::new();
            for a in 0..domain {
                for b in 0..domain {
                    weights.insert(vec![a, b], rng.random::<f64>() * 2.0 - 1.0);
                }
            }
            dpsyn_query::RelationQuery::sparse(weights, 0.0).unwrap()
        };
        let queries = (0..size)
            .map(|_| ProductQuery::new(vec![component(8), component(8)]))
            .collect();
        QueryFamily::new(q, queries).unwrap()
    }

    #[test]
    fn post_update_release_matches_a_cold_session() {
        let (q, base) = fixture();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let warm = Session::sequential();
        let workload = warm.random_sign_workload(&q, 8, 3).unwrap();
        let fractional = fractional_workload(&q, 8, 5);
        let mechanisms: [&dyn Mechanism; 2] =
            [&MultiTable::default(), &HierarchicalRelease::default()];
        // Warm the session with releases of both mechanisms over both
        // workloads, and with truth answers, then stream a batch through it.
        for mechanism in mechanisms {
            for family in [&workload, &fractional] {
                let before = ReleaseRequest::new(&q, &base, family, params).with_seed(4);
                warm.release(mechanism, &before).unwrap();
            }
        }
        warm.answer_truth(&q, &base, &fractional).unwrap();
        let mut inst = base.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![7, 1], 2);
        batch.delete(1, vec![0, 0], 1);
        batch.insert(1, vec![1, 7], 1);
        let report = warm.apply_updates(&q, &mut inst, &batch).unwrap();
        assert!(report.warm, "the release left a warm slot to drop");
        // Every release over the updated instance is byte-identical to a
        // cold session's over the plainly-updated instance, at the same
        // seed: nothing memoised for the old data survives the update.
        let mut cold_inst = base.clone();
        dpsyn_relational::apply_batch(&q, &mut cold_inst, &batch).unwrap();
        assert_eq!(inst, cold_inst);
        let bits = |r: &SyntheticRelease| -> Vec<u64> {
            let mut bits: Vec<u64> = r
                .histogram()
                .weights()
                .iter()
                .map(|w| w.to_bits())
                .collect();
            bits.extend([r.noisy_total().to_bits(), r.delta_tilde().to_bits()]);
            bits
        };
        for mechanism in mechanisms {
            for family in [&workload, &fractional] {
                let request = ReleaseRequest::new(&q, &inst, family, params).with_seed(11);
                let via_warm = warm.release(mechanism, &request).unwrap();
                let cold_request =
                    ReleaseRequest::new(&q, &cold_inst, family, params).with_seed(11);
                let via_cold = Session::sequential()
                    .release(mechanism, &cold_request)
                    .unwrap();
                assert_eq!(bits(&via_warm), bits(&via_cold), "{}", mechanism.name());
            }
        }
        let cold = Session::sequential();
        // Exact truth answers over the rebuilt slot round exactly as a
        // cold session's: compare bits, not approximate values.
        let bits = |answers: AnswerSet| -> Vec<u64> {
            answers.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(warm.answer_truth(&q, &inst, &fractional).unwrap()),
            bits(cold.answer_truth(&q, &cold_inst, &fractional).unwrap())
        );
    }
}
