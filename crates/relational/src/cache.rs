//! Shared sub-join caching for relation-subset enumerations.
//!
//! Residual sensitivity (Definition 3.6) and the degree statistics of
//! Definition 4.7 evaluate sub-joins for *many* subsets `E ⊆ [m]` of the same
//! instance — the residual computation touches every proper subset, `2^m` of
//! them.  Recomputing each sub-join from the base relations repeats almost
//! all of the work: the join of `{0, 1, 2}` contains the join of `{0, 1}` as
//! an intermediate.
//!
//! [`ShardedSubJoinCache`] memoises sub-join results keyed by the subset's
//! bitmask.  A subset's result is computed with **one** binary hash-join
//! step from the cached result of the subset minus one relation, so the
//! whole `2^m` enumeration performs exactly one join step per *distinct*
//! non-singleton subset instead of up to `m - 1` steps per subset — and
//! each shared parent is computed once, ever.
//!
//! **Which** relation a subset peels off is governed by a [`JoinPlan`]: a
//! bare cache ([`ShardedSubJoinCache::new`]) defaults to the historical
//! fixed-prefix chain (always drop the highest relation index), while the
//! `with_plan` constructors accept the cost-based decomposition DAG the
//! planner builds from per-relation statistics — dropping the relation
//! whose removal leaves the smallest estimated intermediate, so lazy walks
//! route around cross-product parents and the resident intermediates
//! shrink (see [`crate::plan`]).  [`crate::ExecContext`] builds the plan
//! once per instance fingerprint and hands the same `Arc` to every
//! checkout and no cache ever swaps it, so all consumers — warm or cold,
//! sequential or parallel — decompose identically.  Decomposition never
//! changes values: a sub-join is the same
//! weighted tuple set under every plan, and the lattice is only ever read
//! through order-free aggregates or sorted emits, so outputs stay
//! byte-identical to the fixed-prefix path.
//!
//! The cache borrows the query and instance immutably; drop it before
//! mutating the instance.  It is safe to share across the worker pool of
//! [`crate::exec`]: the memo table is split into mutex-guarded shards by the
//! mask's low bits and values are `Arc`-shared, so the pool populates
//! independent subsets concurrently (level by level over the subset
//! lattice).  Every method takes the [`Parallelism`] of its join steps
//! explicitly; at `Parallelism::SEQUENTIAL` no thread is spawned, so callers
//! that request the sequential path get it even on multicore machines where
//! the engine's defaults resolve parallel.
//!
//! The lattice has three entry points, all `&self` and safe on pool
//! workers.  [`ShardedSubJoinCache::populate`] materialises it level by
//! level; the two reads — [`ShardedSubJoinCache::join_mask`] (tuples) and
//! [`ShardedSubJoinCache::max_group_weight`] (one aggregate, count-only
//! where the cache's [`AggMode`] allows) — evaluate one mask, memoising its
//! result or only its chain parents per [`Keep`].
//!
//! **Memory trade-off:** every memoised sub-join stays resident until the
//! cache is dropped, so a full `2^m` enumeration holds all `2^m - 1`
//! results at once where the uncached path held one at a time.  `m` is a
//! small constant in the paper's data-complexity setting; callers with very
//! heavy sub-joins read them with [`Keep::Chain`], or split the
//! enumeration across several shorter-lived caches.

use std::sync::{Arc, Mutex};

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::exec::{self, Parallelism};
use crate::hash::FxHashMap;
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::{hash_join_step_agg, hash_join_step_with, AggSummary, JoinResult};
use crate::plan::{AggMode, JoinPlan, SharedJoinPlan};
use crate::Result;

/// What a lattice read leaves memoised.  Either way the read materialises
/// (and memoises) every missing parent of the mask's decomposition chain;
/// the choice concerns only the mask's own result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Memoise the result, so later reads of the mask are free.
    Target,
    /// Memoise only the result's chain parents: the result itself belongs
    /// to the caller and is freed when dropped.  For large results consumed
    /// once — e.g. local sensitivity's `m` size-`(m-1)` sub-joins, which
    /// share only their smaller parents; memoising them would pin `m`
    /// full-size join results for no reuse.
    Chain,
}

/// Number of memo shards in a [`ShardedSubJoinCache`] (a power of two; masks
/// map to shards by their low bits, so sibling subsets land apart).
const SHARD_COUNT: usize = 16;

/// One mutex-guarded memo shard of a [`ShardedSubJoinCache`].
type MemoShard = Mutex<FxHashMap<u32, Arc<JoinResult>>>;

/// Memoised sub-join results over one `(query, instance)` pair, keyed by the
/// relation-subset bitmask.  The memo table is split into `SHARD_COUNT`
/// mutex-guarded shards keyed by the bitmask's low bits, and results are
/// stored behind `Arc` so readers hold no lock while consuming a sub-join.
///
/// Independent subsets therefore populate **concurrently**: the parallel
/// subset enumerations of residual sensitivity walk the lattice level by
/// level ([`ShardedSubJoinCache::populate`]), with every mask
/// of a level computed by the worker pool from the already-complete previous
/// level, and workers inserting into (mostly) distinct shards.  A sub-join is
/// the same weighted tuple set under every decomposition and at every
/// parallelism, so parallel and sequential consumers observe the same
/// results.
///
/// Locks are held only for map lookups/inserts, never across a join step.
/// If two workers race to materialise the same parent through
/// [`ShardedSubJoinCache::join_mask`], both compute it and the insertions
/// are idempotent (the results are equal); determinism is unaffected.
#[derive(Debug)]
pub struct ShardedSubJoinCache<'a> {
    query: &'a JoinQuery,
    instance: &'a Instance,
    plan: SharedJoinPlan,
    shards: Box<[MemoShard]>,
    /// Fingerprint of the `(query, instance)` pair, filled in by
    /// [`crate::ExecContext`] on checkout so check-in does not have to
    /// re-hash the whole instance.
    pub(crate) fingerprint: Option<u64>,
    /// Count-only aggregate summaries, an **overlay** over the materialised
    /// memo: none of the materialised lookups ([`Self::get`],
    /// [`Self::join_mask`], stream maintenance) ever see it, so a
    /// mask's evaluation mode affects cost only, never values.  Keyed by
    /// mask; a stored summary is only valid for reads over its recorded
    /// `group_by` list (checked on every hit).
    agg: Mutex<FxHashMap<u32, Arc<AggSummary>>>,
    /// The materialize-vs-aggregate policy of every read and populate.  Set
    /// from the context's policy on checkout; standalone caches take
    /// [`AggMode::Auto`] unless given one by [`Self::with_agg_mode`].
    pub(crate) agg_mode: AggMode,
}

impl<'a> ShardedSubJoinCache<'a> {
    /// Creates an empty sharded cache for the given query and instance,
    /// decomposing subsets along the historical fixed-prefix chain.
    pub fn new(query: &'a JoinQuery, instance: &'a Instance) -> Result<Self> {
        let plan = Arc::new(JoinPlan::fixed_prefix(query.num_relations()));
        Self::with_plan(query, instance, plan)
    }

    /// Creates an empty sharded cache decomposing subsets along an explicit
    /// [`JoinPlan`].
    pub fn with_plan(
        query: &'a JoinQuery,
        instance: &'a Instance,
        plan: SharedJoinPlan,
    ) -> Result<Self> {
        if instance.num_relations() != query.num_relations() {
            return Err(RelationalError::RelationCountMismatch {
                expected: query.num_relations(),
                got: instance.num_relations(),
            });
        }
        // Strictly below 32 so that `mask >> m` in the mask checks never
        // shifts by the full bit width.
        if query.num_relations() >= 32 {
            return Err(RelationalError::InvalidRelationSubset(format!(
                "ShardedSubJoinCache supports at most 31 relations, got {}",
                query.num_relations()
            )));
        }
        plan.check_relations(query.num_relations())?;
        let shards = (0..SHARD_COUNT)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ok(ShardedSubJoinCache {
            query,
            instance,
            plan,
            shards,
            fingerprint: None,
            agg: Mutex::new(FxHashMap::default()),
            agg_mode: AggMode::default(),
        })
    }

    /// This cache with an explicit materialize-vs-aggregate policy:
    /// [`AggMode::Never`] makes [`Self::populate`] materialise every proper
    /// mask and every read go through tuples.
    pub fn with_agg_mode(mut self, agg_mode: AggMode) -> Self {
        self.agg_mode = agg_mode;
        self
    }

    /// Creates a sharded cache pre-seeded with previously materialised
    /// sub-join results (the counterpart of
    /// [`ShardedSubJoinCache::into_memo`]), decomposing along `plan`.
    ///
    /// This is the warm-start path of the persistent per-context cache
    /// ([`crate::ExecContext::subjoin_cache`]): a long-lived execution
    /// context snapshots the memo between calls and re-seeds the next cache
    /// with it — together with the slot's shared plan, so every checkout
    /// decomposes identically — and repeated enumerations over the same
    /// `(query, instance)` pair skip every already-computed sub-join.
    /// Entries whose mask is out of range for `query` are silently dropped
    /// (they cannot be reached by any valid lookup).
    pub fn with_memo_and_plan(
        query: &'a JoinQuery,
        instance: &'a Instance,
        memo: FxHashMap<u32, Arc<JoinResult>>,
        plan: SharedJoinPlan,
    ) -> Result<Self> {
        let cache = Self::with_plan(query, instance, plan)?;
        let m = query.num_relations();
        for (mask, result) in memo {
            if mask != 0 && (mask >> m) == 0 {
                cache.insert(mask, result);
            }
        }
        Ok(cache)
    }

    /// Consumes the cache and returns its materialised sub-join results as
    /// one flat memo map (see [`ShardedSubJoinCache::with_memo_and_plan`]).
    pub fn into_memo(self) -> FxHashMap<u32, Arc<JoinResult>> {
        let mut out = FxHashMap::default();
        for shard in self.shards.into_vec() {
            out.extend(shard.into_inner().expect("cache shard poisoned"));
        }
        out
    }

    /// The query this cache evaluates sub-joins of.
    pub fn query(&self) -> &JoinQuery {
        self.query
    }

    /// The instance this cache evaluates sub-joins over.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    fn shard(&self, mask: u32) -> &MemoShard {
        &self.shards[(mask as usize) & (SHARD_COUNT - 1)]
    }

    /// The memoised sub-join of `mask`, if already materialised.
    pub fn get(&self, mask: u32) -> Option<Arc<JoinResult>> {
        self.shard(mask)
            .lock()
            .expect("cache shard poisoned")
            .get(&mask)
            .cloned()
    }

    /// Memoises `result` unless a racing worker got there first; returns
    /// the resident entry (the results are equal either way).
    fn insert(&self, mask: u32, result: Arc<JoinResult>) -> Arc<JoinResult> {
        let mut shard = self.shard(mask).lock().expect("cache shard poisoned");
        Arc::clone(shard.entry(mask).or_insert(result))
    }

    /// The decomposition plan driving this cache.
    pub fn plan(&self) -> &SharedJoinPlan {
        &self.plan
    }

    /// Number of sub-join results currently memoised across all shards.
    pub fn cached_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Total distinct tuples across all memoised sub-join results — the
    /// resident intermediate footprint the planner works to shrink.
    pub fn cached_tuples(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .values()
                    .map(|r| r.distinct_count())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Converts a sorted relation-index subset to its bitmask.
    pub fn mask_of(&self, rels: &[usize]) -> Result<u32> {
        self.query.check_subset(rels)?;
        Ok(rels.iter().fold(0u32, |m, &i| m | (1u32 << i)))
    }

    fn check_mask(&self, mask: u32) -> Result<()> {
        let m = self.query.num_relations();
        if mask == 0 || (mask >> m) != 0 {
            return Err(RelationalError::InvalidRelationSubset(format!(
                "invalid sub-join bitmask {mask:#b} for m = {m}"
            )));
        }
        Ok(())
    }

    /// Computes `mask`'s sub-join with one hash-join step from the cached
    /// result of `mask` minus its plan pivot (which must already be
    /// materialised), memoising it per `keep`.
    fn build_step(&self, mask: u32, par: Parallelism, keep: Keep) -> Result<Arc<JoinResult>> {
        let pivot = self.plan.pivot(mask);
        let rest = mask & !(1u32 << pivot);
        let result = Arc::new(if rest == 0 {
            JoinResult::from_relation(self.instance.relation(pivot))
        } else {
            let sub = self.get(rest).expect("parent materialised before use");
            hash_join_step_with(&sub, self.instance.relation(pivot), par)?
        });
        Ok(match keep {
            Keep::Target => self.insert(mask, result),
            Keep::Chain => result,
        })
    }

    /// The sub-join of the subset given as a bitmask, materialising (and
    /// memoising) any missing parents of its decomposition chain on the
    /// way; the result itself is memoised per `keep`.  Safe to call from
    /// pool workers concurrently.
    pub fn join_mask(&self, mask: u32, par: Parallelism, keep: Keep) -> Result<Arc<JoinResult>> {
        self.check_mask(mask)?;
        if let Some(hit) = self.get(mask) {
            return Ok(hit);
        }
        // Walk down the chain to the deepest materialised (or empty)
        // parent, then build the missing steps back up.
        let mut missing = Vec::new();
        let mut parent = self.plan.parent(mask);
        while parent != 0 && self.get(parent).is_none() {
            missing.push(parent);
            parent = self.plan.parent(parent);
        }
        for &step in missing.iter().rev() {
            self.build_step(step, par, Keep::Target)?;
        }
        self.build_step(mask, par, keep)
    }

    /// Materialises the lattice masks this cache's [`AggMode`] demands as
    /// tuples, walking the subset lattice level by level through
    /// the worker pool: every non-empty **proper** subset of `[m]` under
    /// [`AggMode::Never`] (exactly the sub-joins residual sensitivity's
    /// boundary values read), only the chain parents otherwise — terminal
    /// masks are left to the count-only reads of
    /// [`Self::max_group_weight`].
    ///
    /// All masks of a level are built concurrently through the lazy chain
    /// walk of [`Self::join_mask`]; when a level has a single mask the
    /// parallelism is spent inside the join step's probe loop instead.
    /// Masks within a level are claimed by **work stealing** (one shared
    /// atomic counter per level): sub-join sizes vary wildly across masks on
    /// skewed instances, so a worker finishing a light mask immediately
    /// claims the next instead of idling behind a slow peer.  Values are
    /// inserted keyed by mask, so the memo contents — and every downstream
    /// read — are independent of which worker computed what.
    ///
    /// Returns the per-worker claim counts aggregated across all lattice
    /// levels: [`exec::SchedulerStats`] sums each level's claims
    /// worker-by-worker (index 0 is always the calling thread), so the
    /// max/min spread shows how stealing tracked actual mask cost.
    /// Single-mask levels run inline on the caller and are counted as one
    /// claim by worker 0.
    pub fn populate(&self, par: Parallelism) -> Result<exec::SchedulerStats> {
        let m = self.query.num_relations() as u32;
        let full = (1u32 << m) - 1;
        let every_mask = self.agg_mode == AggMode::Never;
        let mut stats = exec::SchedulerStats::default();
        for level in 1..m.max(1) {
            let masks: Vec<u32> = (1..full)
                .filter(|&mask| {
                    mask.count_ones() == level && (every_mask || self.plan.is_chain_parent(mask))
                })
                .collect();
            if masks.len() <= 1 {
                for &mask in &masks {
                    self.join_mask(mask, par, Keep::Target)?;
                    stats.absorb(&exec::SchedulerStats::from_claims(vec![1]));
                }
            } else {
                let (outcomes, level_stats) = exec::par_map_stats(par, masks.len(), |i| {
                    self.join_mask(masks[i], Parallelism::SEQUENTIAL, Keep::Target)
                        .map(|_| ())
                });
                for outcome in outcomes {
                    outcome?;
                }
                stats.absorb(&level_stats);
            }
        }
        Ok(stats)
    }

    // ---- Aggregate-pushdown (count-only) evaluation --------------------
    //
    // The sensitivity layer reads most lattice masks only through
    // per-boundary-key maximum group weights and join sizes.  The methods
    // below serve those reads from an `AggSummary` computed by the
    // non-materializing fold (`hash_join_step_agg`) whenever the mask is
    // *terminal* — nobody's chain parent under the plan — and from
    // the materialised lattice otherwise.  Both paths produce identical
    // numbers (the fold replicates the materializing oracle's grouping and
    // saturation exactly), so the per-mask decision is invisible in every
    // output.

    /// The cached count-only summary of `mask` for this exact `group_by`
    /// list, if present.  A summary recorded for a different group list is
    /// not a hit — it answers a different boundary query.
    fn agg_get(&self, mask: u32, group_by: &[AttrId]) -> Option<Arc<AggSummary>> {
        self.agg
            .lock()
            .expect("agg overlay poisoned")
            .get(&mask)
            .filter(|s| s.group_by == group_by)
            .cloned()
    }

    /// Memoises `summary` per `keep` and returns its maximum group weight.
    fn keep_agg(&self, mask: u32, summary: AggSummary, keep: Keep) -> u128 {
        let max = summary.max_group_weight;
        if keep == Keep::Target {
            // Unlike the materialised memo this replaces: a later read over
            // a different group list supersedes the stored summary (values
            // for the same list are deterministic, so replacement is safe).
            self.agg
                .lock()
                .expect("agg overlay poisoned")
                .insert(mask, Arc::new(summary));
        }
        max
    }

    /// Whether an aggregate read over `mask` should go through the
    /// materialised lattice instead of the count-only fold.
    fn reads_materialized(&self, mask: u32) -> bool {
        let full = (1u32 << self.query.num_relations()) - 1;
        match self.agg_mode {
            AggMode::Never => true,
            // Masks the lattice needs materialised anyway — the full join
            // and every chain parent — plus already-warm entries, read the
            // tuples directly.
            AggMode::Auto => {
                mask == full || self.plan.is_chain_parent(mask) || self.get(mask).is_some()
            }
        }
    }

    /// The count-only summary of the sub-join `sub ⋈ R_pivot` (just
    /// `R_pivot` for a singleton mask, whose parent `sub` is `None`) in one
    /// aggregate fold.
    fn fold(
        &self,
        pivot: usize,
        sub: Option<&JoinResult>,
        group_by: &[AttrId],
        par: Parallelism,
    ) -> Result<AggSummary> {
        let relation = self.instance.relation(pivot);
        match sub {
            None => AggSummary::from_join_result(&JoinResult::from_relation(relation), group_by),
            Some(sub) => hash_join_step_agg(sub, relation, group_by, par),
        }
    }

    /// The maximum group weight of `mask`'s sub-join over `group_by` (the
    /// boundary query; an empty list yields the join size).  Serves the
    /// read count-only where the [`AggMode`] policy allows — one aggregate
    /// fold from the plan parent, which is materialised through the lazy
    /// chain walk, never assumed present — memoising the summary in the
    /// overlay per `keep`; otherwise reads the materialised lattice via
    /// [`Self::join_mask`].  Values are identical either way.  Safe to call
    /// from pool workers concurrently.
    pub fn max_group_weight(
        &self,
        mask: u32,
        group_by: &[AttrId],
        par: Parallelism,
        keep: Keep,
    ) -> Result<u128> {
        self.check_mask(mask)?;
        if let Some(hit) = self.agg_get(mask, group_by) {
            return Ok(hit.max_group_weight);
        }
        if self.reads_materialized(mask) {
            return self.join_mask(mask, par, keep)?.max_group_weight(group_by);
        }
        let pivot = self.plan.pivot(mask);
        let rest = mask & !(1u32 << pivot);
        let sub = match rest {
            0 => None,
            _ => Some(self.join_mask(rest, par, Keep::Target)?),
        };
        let summary = self.fold(pivot, sub.as_deref(), group_by, par)?;
        Ok(self.keep_agg(mask, summary, keep))
    }

    /// Snapshot of the count-only overlay (cheap `Arc` clones), taken by
    /// the execution context before check-in consumes the cache.
    pub fn agg_entries(&self) -> FxHashMap<u32, Arc<AggSummary>> {
        self.agg.lock().expect("agg overlay poisoned").clone()
    }

    /// Seeds the count-only overlay (the warm-checkout counterpart of
    /// [`Self::agg_entries`]).  Out-of-range masks are silently dropped.
    pub(crate) fn seed_agg(&self, entries: FxHashMap<u32, Arc<AggSummary>>) {
        let m = self.query.num_relations();
        let mut agg = self.agg.lock().expect("agg overlay poisoned");
        for (mask, summary) in entries {
            if mask != 0 && (mask >> m) == 0 {
                agg.insert(mask, summary);
            }
        }
    }

    /// Number of count-only summaries resident in the overlay.
    pub fn cached_agg_count(&self) -> usize {
        self.agg.lock().expect("agg overlay poisoned").len()
    }

    /// Approximate resident bytes across both entry kinds: flat tuple
    /// buffers for materialised entries, fixed-size summaries for
    /// aggregated ones.
    pub fn cached_bytes(&self) -> usize {
        let materialized: usize = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .values()
                    .map(|r| r.approx_bytes())
                    .sum::<usize>()
            })
            .sum();
        let aggregated: usize = self
            .agg
            .lock()
            .expect("agg overlay poisoned")
            .values()
            .map(|s| s.approx_bytes())
            .sum();
        materialized + aggregated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::join::join_subset;
    use crate::naive::join_subset_naive;
    use crate::relation::Relation;
    use crate::tuple::Value;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn rels_of(mask: u32, m: usize) -> Vec<usize> {
        (0..m).filter(|i| mask & (1 << i) != 0).collect()
    }

    /// The naive engine's sub-join of `mask` as sorted `(tuple, weight)` rows.
    fn naive_rows(q: &JoinQuery, inst: &Instance, mask: u32) -> Vec<(Vec<Value>, u128)> {
        let rels = rels_of(mask, q.num_relations());
        join_subset_naive(q, inst, &rels)
            .unwrap()
            .iter()
            .map(|(t, w)| (t.clone(), w))
            .collect()
    }

    /// A result's rows in sorted (emit) order.
    fn sorted_rows(result: &JoinResult) -> Vec<(Vec<Value>, u128)> {
        result.iter().map(|(t, w)| (t.to_vec(), w)).collect()
    }

    /// A result's rows in construction order: equal only if the two results
    /// are byte-identical, not merely equal as weighted tuple sets.
    fn stored_rows(result: &JoinResult) -> Vec<(&[Value], u128)> {
        result.iter_unordered().collect()
    }

    /// A fixed-prefix cache that materialises every proper mask on populate.
    fn materializing<'a>(q: &'a JoinQuery, inst: &'a Instance) -> ShardedSubJoinCache<'a> {
        ShardedSubJoinCache::new(q, inst)
            .unwrap()
            .with_agg_mode(AggMode::Never)
    }

    fn star_instance(m: usize) -> (JoinQuery, Instance) {
        let q = JoinQuery::star(m, 16).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..m {
            for hub in 0..4u64 {
                for petal in 0..3u64 {
                    inst.relation_mut(r)
                        .add(vec![hub, (petal + r as u64) % 16], 1 + (hub % 2))
                        .unwrap();
                }
            }
        }
        (q, inst)
    }

    #[test]
    fn cached_subjoins_match_direct_evaluation() {
        let (q, inst) = star_instance(4);
        let cache = ShardedSubJoinCache::new(&q, &inst).unwrap();
        for mask in 1u32..(1 << 4) {
            let rels = rels_of(mask, 4);
            let direct = join_subset(&q, &inst, &rels).unwrap();
            let cached = cache
                .join_mask(
                    cache.mask_of(&rels).unwrap(),
                    Parallelism::SEQUENTIAL,
                    Keep::Target,
                )
                .unwrap();
            assert_eq!(cached.attrs(), direct.attrs());
            assert_eq!(cached.total(), direct.total());
            assert_eq!(cached.distinct_count(), direct.distinct_count());
            assert_eq!(sorted_rows(&cached), naive_rows(&q, &inst, mask));
        }
        // Every non-empty subset is memoised exactly once.
        assert_eq!(cache.cached_count(), (1 << 4) - 1);
    }

    #[test]
    fn enumeration_reuses_prefixes() {
        let (q, inst) = star_instance(3);
        let cache = ShardedSubJoinCache::new(&q, &inst).unwrap();
        cache
            .join_mask(0b111, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        // The chain {0} → {0,1} → {0,1,2} is materialised by one call.
        assert_eq!(cache.cached_count(), 3);
        // Asking for the prefix again computes nothing new.
        cache
            .join_mask(0b011, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        assert_eq!(cache.cached_count(), 3);
    }

    #[test]
    fn rejects_invalid_masks_and_subsets() {
        let (q, inst) = star_instance(2);
        let cache = ShardedSubJoinCache::new(&q, &inst).unwrap();
        let seq = Parallelism::SEQUENTIAL;
        // The empty subset maps to mask 0, which no lookup accepts.
        let empty = cache.mask_of(&[]).unwrap();
        assert!(cache.join_mask(empty, seq, Keep::Target).is_err());
        assert!(cache.mask_of(&[5]).is_err());
        for mask in [0, 1 << 3] {
            for keep in [Keep::Target, Keep::Chain] {
                assert!(cache.join_mask(mask, seq, keep).is_err());
                assert!(cache.max_group_weight(mask, &[], seq, keep).is_err());
            }
        }
    }

    #[test]
    fn mismatched_instance_rejected() {
        let q = JoinQuery::two_table(4, 4, 4);
        let r1 = Relation::from_tuples(ids(&[0, 1]), vec![(vec![0, 0], 1)]).unwrap();
        let inst = Instance::new(vec![r1]);
        assert!(ShardedSubJoinCache::new(&q, &inst).is_err());
    }

    #[test]
    fn parallel_populate_matches_sequential_populate() {
        let (q, inst) = star_instance(4);
        let full = (1u32 << 4) - 1;
        let sequential = materializing(&q, &inst);
        sequential.populate(Parallelism::SEQUENTIAL).unwrap();
        let seq_full = sequential
            .join_mask(full, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        for &threads in &[1usize, 2, 4] {
            let sharded = materializing(&q, &inst);
            sharded.populate(Parallelism::threads(threads)).unwrap();
            // All proper non-empty subsets are materialised, nothing else.
            assert_eq!(sharded.cached_count(), (1 << 4) - 2);
            for mask in 1u32..full {
                let a = sharded.get(mask).expect("populated");
                let b = sequential.get(mask).expect("populated");
                assert_eq!(
                    stored_rows(&a),
                    stored_rows(&b),
                    "mask {mask:#b}, threads {threads}"
                );
                assert_eq!(sorted_rows(&a), naive_rows(&q, &inst, mask));
            }
            // The full mask is still reachable lazily.
            let full_join = sharded
                .join_mask(full, Parallelism::threads(threads), Keep::Target)
                .unwrap();
            assert_eq!(
                stored_rows(&full_join),
                stored_rows(&seq_full),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn populate_stats_account_every_mask_once() {
        let (q, inst) = star_instance(4);
        let sequential = ShardedSubJoinCache::new(&q, &inst).unwrap();
        // 2^4 - 2 proper non-empty subsets, every one claimed exactly once.
        let proper = (1usize << 4) - 2;
        for &threads in &[1usize, 2, 4] {
            let sharded = materializing(&q, &inst);
            let stats = sharded.populate(Parallelism::threads(threads)).unwrap();
            assert_eq!(stats.total(), proper, "threads {threads}");
            assert!(stats.workers() >= 1);
            assert_eq!(sharded.cached_count(), proper);
            for mask in 1u32..((1 << 4) - 1) {
                assert_eq!(
                    sharded.get(mask).expect("populated").as_ref(),
                    sequential
                        .join_mask(mask, Parallelism::SEQUENTIAL, Keep::Target)
                        .unwrap()
                        .as_ref(),
                    "mask {mask:#b}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_transient_join_matches_memoised() {
        let (q, inst) = star_instance(3);
        let sharded = ShardedSubJoinCache::new(&q, &inst).unwrap();
        let mask = 0b111u32;
        let transient = sharded
            .join_mask(mask, Parallelism::threads(2), Keep::Chain)
            .unwrap();
        // The top-level result is not memoised, only its prefixes are.
        assert!(sharded.get(mask).is_none());
        assert!(sharded.get(0b011).is_some());
        let memoised = sharded
            .join_mask(mask, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        assert_eq!(transient.as_ref(), memoised.as_ref());
    }

    #[test]
    fn memo_roundtrip_preserves_entries_and_drops_stale_masks() {
        let (q, inst) = star_instance(3);
        let sharded = materializing(&q, &inst);
        sharded.populate(Parallelism::SEQUENTIAL).unwrap();
        let count = sharded.cached_count();
        let mut memo = sharded.into_memo();
        assert_eq!(memo.len(), count);
        // An out-of-range mask (from a hypothetical wider query) is dropped
        // on re-seed instead of poisoning lookups.
        let stale = memo.values().next().unwrap().clone();
        memo.insert(1 << 5, stale);
        let plan = Arc::new(JoinPlan::fixed_prefix(3));
        let reseeded = ShardedSubJoinCache::with_memo_and_plan(&q, &inst, memo, plan).unwrap();
        assert_eq!(reseeded.cached_count(), count);
        let reference = ShardedSubJoinCache::new(&q, &inst).unwrap();
        for mask in 1u32..((1 << 3) - 1) {
            let warm = reseeded.get(mask).expect("seeded entry");
            let cold = reference
                .join_mask(mask, Parallelism::SEQUENTIAL, Keep::Target)
                .unwrap();
            assert_eq!(warm.as_ref(), cold.as_ref());
        }
    }

    fn path_instance(m: usize, per_rel: u64) -> (JoinQuery, Instance) {
        let q = JoinQuery::path(m, 64).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..m {
            for v in 0..per_rel {
                inst.relation_mut(r)
                    .add(vec![v % 64, (v * 3 + 1) % 64], 1 + v % 2)
                    .unwrap();
            }
        }
        (q, inst)
    }

    /// Five relations all joining on `k`; R0 and R1 additionally share the
    /// functionally-correlated `kk = k mod 16`, so the independence
    /// estimate prices their pairwise join 16× too low (estimated 256,
    /// actual 4096) while every other join is estimated honestly.  The
    /// cost-based plan therefore routes every mask containing {0, 1}
    /// through the trap pair; the payload attributes `p0`/`p1` make the
    /// trap join genuinely fat (8×8 payload combinations per key).
    fn correlated_instance() -> (JoinQuery, Instance) {
        use crate::attr::{Attribute, Schema};
        let schema = Schema::new(vec![
            Attribute::new("k", 64),
            Attribute::new("kk", 16),
            Attribute::new("p0", 8),
            Attribute::new("p1", 8),
            Attribute::new("a", 16),
            Attribute::new("b", 16),
            Attribute::new("c", 16),
        ]);
        let q = JoinQuery::new(
            schema,
            vec![
                vec![AttrId(0), AttrId(1), AttrId(2)],
                vec![AttrId(0), AttrId(1), AttrId(3)],
                vec![AttrId(0), AttrId(4)],
                vec![AttrId(0), AttrId(5)],
                vec![AttrId(0), AttrId(6)],
            ],
        )
        .unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for x in 0..64u64 {
            for j in 0..8u64 {
                inst.relation_mut(0).add(vec![x, x % 16, j], 1).unwrap();
                inst.relation_mut(1).add(vec![x, x % 16, j], 1).unwrap();
            }
            inst.relation_mut(2).add(vec![x, x % 16], 1).unwrap();
            inst.relation_mut(3).add(vec![x, x % 16], 1).unwrap();
            inst.relation_mut(4).add(vec![x, x % 16], 1).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn planner_cache_matches_fixed_prefix_and_direct_on_every_mask() {
        // A linear path, and the correlated instance whose cost-based plan
        // walks through a mis-estimated trap pair.
        for (q, inst) in [path_instance(4, 24), correlated_instance()] {
            let m = q.num_relations();
            let plan = Arc::new(crate::plan::JoinPlan::cost_based(&q, &inst).unwrap());
            let seq = Parallelism::SEQUENTIAL;
            let planned = ShardedSubJoinCache::with_plan(&q, &inst, Arc::clone(&plan)).unwrap();
            let fixed = ShardedSubJoinCache::new(&q, &inst).unwrap();
            let sharded = ShardedSubJoinCache::with_plan(&q, &inst, Arc::clone(&plan)).unwrap();
            assert!(sharded.plan().is_cost_based());
            assert!(!fixed.plan().is_cost_based());
            for mask in 1u32..(1 << m) {
                let rels = rels_of(mask, m);
                let direct = join_subset(&q, &inst, &rels).unwrap();
                // Order-insensitive equality: decompositions may emit rows in
                // different construction orders, but the weighted tuple sets
                // — and every aggregate downstream consumers read — must
                // match.  The chain-only read runs first, so it builds its
                // own result.
                assert_eq!(
                    planned.join_mask(mask, seq, Keep::Chain).unwrap().as_ref(),
                    &direct,
                    "transient mask {mask:#b}"
                );
                let planned_join = planned.join_mask(mask, seq, Keep::Target).unwrap();
                assert_eq!(planned_join.as_ref(), &direct, "mask {mask:#b}");
                assert_eq!(
                    fixed.join_mask(mask, seq, Keep::Target).unwrap().as_ref(),
                    &direct,
                    "mask {mask:#b}"
                );
                let concurrent = sharded
                    .join_mask(mask, Parallelism::threads(2), Keep::Target)
                    .unwrap();
                assert_eq!(concurrent.as_ref(), &direct, "sharded mask {mask:#b}");
                assert_eq!(sorted_rows(&planned_join), naive_rows(&q, &inst, mask));
            }
        }
    }

    #[test]
    fn planner_lazy_chains_keep_fewer_intermediate_tuples_on_paths() {
        // {0, 2, 3} under the fixed chain routes through the cross product
        // {0, 2}; the planner peels 0 and keeps the linear {2, 3} instead.
        let (q, inst) = path_instance(4, 32);
        let plan = Arc::new(crate::plan::JoinPlan::cost_based(&q, &inst).unwrap());
        let planned = ShardedSubJoinCache::with_plan(&q, &inst, plan).unwrap();
        let fixed = ShardedSubJoinCache::new(&q, &inst).unwrap();
        let mask = 0b1101u32;
        let a = planned
            .join_mask(mask, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        let b = fixed
            .join_mask(mask, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        assert_eq!(a.as_ref(), b.as_ref());
        assert!(
            planned.cached_tuples() < fixed.cached_tuples(),
            "planner {} vs fixed {}",
            planned.cached_tuples(),
            fixed.cached_tuples()
        );
    }

    #[test]
    fn aggregate_reads_match_the_materializing_oracle_on_every_mask() {
        let (q, inst) = star_instance(4);
        let m = q.num_relations();
        for mode in [AggMode::Auto, AggMode::Never] {
            for &threads in &[1usize, 2, 4] {
                let cache = ShardedSubJoinCache::new(&q, &inst)
                    .unwrap()
                    .with_agg_mode(mode);
                let par = Parallelism::threads(threads);
                for mask in 1u32..(1 << m) {
                    let rels: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
                    let direct = join_subset(&q, &inst, &rels).unwrap();
                    let boundary = q.boundary(&rels).unwrap();
                    for y in [&boundary[..], &[]] {
                        assert_eq!(
                            cache.max_group_weight(mask, y, par, Keep::Target).unwrap(),
                            direct.max_group_weight(y).unwrap(),
                            "mask {mask:#b}, {mode:?}, threads {threads}, y {y:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn demanded_populate_skips_terminal_masks_and_stays_correct() {
        let (q, inst) = star_instance(4);
        let m = q.num_relations();
        let full = (1u32 << m) - 1;
        let reference = materializing(&q, &inst);
        reference.populate(Parallelism::SEQUENTIAL).unwrap();
        for &threads in &[1usize, 2, 4] {
            let cache = ShardedSubJoinCache::new(&q, &inst)
                .unwrap()
                .with_agg_mode(AggMode::Auto);
            let sched_stats = cache.populate(Parallelism::threads(threads)).unwrap();
            // Under the fixed-prefix plan the chain parents are exactly the
            // non-empty subsets of {0, …, m-2}: every terminal mask (one
            // containing relation m-1) is skipped, halving the populate.
            let parents = (1usize << (m - 1)) - 1;
            assert_eq!(sched_stats.total(), parents, "threads {threads}");
            assert_eq!(cache.cached_count(), parents, "threads {threads}");
            for mask in 1u32..full {
                let materialized = cache.get(mask).is_some();
                assert_eq!(
                    materialized,
                    mask & (1 << (m - 1)) == 0,
                    "mask {mask:#b}, threads {threads}"
                );
                // Aggregate reads over the skipped masks are byte-identical
                // to the fully-materialised reference.
                let rels: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
                let boundary = q.boundary(&rels).unwrap();
                assert_eq!(
                    cache
                        .max_group_weight(mask, &boundary, Parallelism::SEQUENTIAL, Keep::Target)
                        .unwrap(),
                    reference
                        .get(mask)
                        .unwrap()
                        .max_group_weight(&boundary)
                        .unwrap(),
                    "mask {mask:#b}, threads {threads}"
                );
            }
            // Fixed-size summaries are cheaper than the tuples they replace.
            assert!(
                cache.cached_bytes() < reference.cached_bytes(),
                "agg {} vs materialized {} bytes, threads {threads}",
                cache.cached_bytes(),
                reference.cached_bytes()
            );
            assert!(cache.cached_agg_count() > 0, "threads {threads}");
        }
    }

    #[test]
    fn aggregate_overlay_round_trips_and_reuses_exact_group_hits() {
        let (q, inst) = star_instance(3);
        let cache = ShardedSubJoinCache::new(&q, &inst)
            .unwrap()
            .with_agg_mode(AggMode::Auto);
        // A terminal mask: `Auto` folds it count-only.
        let mask = 0b101u32;
        assert!(!cache.plan().is_chain_parent(mask));
        let boundary = q.boundary(&[0, 2]).unwrap();
        let first = cache
            .max_group_weight(mask, &boundary, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        assert_eq!(cache.cached_agg_count(), 1);
        // A repeat read with the same grouping serves the overlay entry.
        assert_eq!(
            cache
                .max_group_weight(mask, &boundary, Parallelism::SEQUENTIAL, Keep::Target)
                .unwrap(),
            first
        );
        assert_eq!(cache.cached_agg_count(), 1);
        // A different grouping misses the overlay, recomputes correctly and
        // replaces the entry.
        let total = cache
            .max_group_weight(mask, &[], Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        assert_eq!(
            total,
            join_subset(&q, &inst, &[0, 2]).unwrap().total(),
            "empty grouping folds the total join weight"
        );
        assert_eq!(cache.cached_agg_count(), 1);
        // The overlay survives a checkout round trip; stale masks are
        // dropped on re-seed like the materialised memo does.
        let mut entries = cache.agg_entries();
        assert_eq!(entries.len(), 1);
        entries.insert(
            1 << 5,
            Arc::new(AggSummary {
                group_by: Vec::new(),
                max_group_weight: 0,
                total_weight: 0,
                distinct_count: 0,
            }),
        );
        let warm = ShardedSubJoinCache::new(&q, &inst).unwrap();
        warm.seed_agg(entries);
        assert_eq!(warm.cached_agg_count(), 1, "out-of-range mask dropped");
        assert_eq!(
            warm.max_group_weight(mask, &[], Parallelism::SEQUENTIAL, Keep::Target)
                .unwrap(),
            total
        );
    }

    #[test]
    fn plan_for_mismatched_arity_is_rejected() {
        let (q, inst) = star_instance(3);
        let wrong = Arc::new(crate::plan::JoinPlan::fixed_prefix(5));
        assert!(ShardedSubJoinCache::with_plan(&q, &inst, wrong).is_err());
    }
}
