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
//! Every subset peels off its **highest relation index** (the fixed-prefix
//! chain: `{0, 2, 3}` is built from `{0, 2}`), so the decomposition is a
//! function of the mask alone and every consumer — warm or cold, sequential
//! or parallel — builds each sub-join the same way.  A sub-join is the same
//! weighted tuple set under every decomposition, and the lattice is only
//! ever read through order-free aggregates or sorted emits, so outputs are
//! byte-identical to joining the subset directly.
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
//! The lattice has two entry points, both `&self` and safe on pool
//! workers.  [`ShardedSubJoinCache::populate`] materialises every proper
//! mask level by level; [`ShardedSubJoinCache::join_mask`] evaluates one
//! mask, memoising its result or only its chain parents per [`Keep`].
//!
//! **Memory trade-off:** every memoised sub-join stays resident until the
//! cache is dropped, so a full `2^m` enumeration holds all `2^m - 1`
//! results at once where the uncached path held one at a time.  A cache
//! lives for one computation: the sensitivity entry points build one per
//! call and drop it on return, and no [`crate::ExecContext`] keeps one, so
//! the footprint ends with the call (a context keeps the *values* the
//! lattice yields, in its slot memo).  `m` is a small constant in the
//! paper's data-complexity setting; callers with very heavy sub-joins read
//! them with [`Keep::Chain`].

use std::sync::{Arc, Mutex};

use crate::error::RelationalError;
use crate::exec::{self, Parallelism};
use crate::hash::FxHashMap;
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::{hash_join_step_with, JoinResult};
use crate::Result;

/// The relation a non-empty `mask` peels off (joins last): its highest
/// relation index.
fn pivot(mask: u32) -> usize {
    debug_assert!(mask != 0);
    (31 - mask.leading_zeros()) as usize
}

/// The subset `mask`'s sub-join is built from: `mask` minus its pivot (zero
/// for singletons).
fn parent(mask: u32) -> u32 {
    mask & !(1u32 << pivot(mask))
}

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
/// the same weighted tuple set at every parallelism, so parallel and
/// sequential consumers observe the same results.
///
/// Locks are held only for map lookups/inserts, never across a join step.
/// If two workers race to materialise the same parent through
/// [`ShardedSubJoinCache::join_mask`], both compute it and the insertions
/// are idempotent (the results are equal); determinism is unaffected.
#[derive(Debug)]
pub struct ShardedSubJoinCache<'a> {
    query: &'a JoinQuery,
    instance: &'a Instance,
    shards: Box<[MemoShard]>,
}

impl<'a> ShardedSubJoinCache<'a> {
    /// Creates an empty sharded cache for the given query and instance.
    pub fn new(query: &'a JoinQuery, instance: &'a Instance) -> Result<Self> {
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
        let shards = (0..SHARD_COUNT)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ok(ShardedSubJoinCache {
            query,
            instance,
            shards,
        })
    }

    /// The query this cache evaluates sub-joins of.
    pub fn query(&self) -> &JoinQuery {
        self.query
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

    /// Number of sub-join results currently memoised across all shards.
    pub fn cached_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
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
    /// result of `mask` minus its pivot (which must already be
    /// materialised), memoising it per `keep`.
    fn build_step(&self, mask: u32, par: Parallelism, keep: Keep) -> Result<Arc<JoinResult>> {
        let relation = self.instance.relation(pivot(mask));
        let rest = parent(mask);
        let result = Arc::new(if rest == 0 {
            JoinResult::from_relation(relation)
        } else {
            let sub = self.get(rest).expect("parent materialised before use");
            hash_join_step_with(&sub, relation, par)?
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
        let mut step = parent(mask);
        while step != 0 && self.get(step).is_none() {
            missing.push(step);
            step = parent(step);
        }
        for &step in missing.iter().rev() {
            self.build_step(step, par, Keep::Target)?;
        }
        self.build_step(mask, par, keep)
    }

    /// Materialises every non-empty **proper** subset of `[m]` — exactly
    /// the sub-joins residual sensitivity's boundary values read — walking
    /// the subset lattice level by level through the worker pool.
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
        let mut stats = exec::SchedulerStats::default();
        for level in 1..m.max(1) {
            let masks: Vec<u32> = (1..full)
                .filter(|&mask| mask.count_ones() == level)
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
    fn fixed_prefix_chain_peels_the_highest_index() {
        assert_eq!(pivot(0b1011), 3);
        assert_eq!(parent(0b1011), 0b0011);
        assert_eq!(pivot(0b0001), 0);
        assert_eq!(parent(0b0001), 0);
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
        let sequential = ShardedSubJoinCache::new(&q, &inst).unwrap();
        sequential.populate(Parallelism::SEQUENTIAL).unwrap();
        let seq_full = sequential
            .join_mask(full, Parallelism::SEQUENTIAL, Keep::Target)
            .unwrap();
        for &threads in &[1usize, 2, 4] {
            let sharded = ShardedSubJoinCache::new(&q, &inst).unwrap();
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
            let sharded = ShardedSubJoinCache::new(&q, &inst).unwrap();
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
    /// functionally-correlated `kk = k mod 16` and carry payload attributes
    /// `p0`/`p1`, which make their pairwise join fat (8×8 payload
    /// combinations per key) and its key two attributes wide.
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
    fn lattice_matches_direct_evaluation_on_paths_and_wide_keys() {
        // A linear path, whose fixed-prefix chains cross cross-product
        // parents, and the correlated instance with its two-attribute key.
        for (q, inst) in [path_instance(4, 24), correlated_instance()] {
            let m = q.num_relations();
            let seq = Parallelism::SEQUENTIAL;
            let lazy = ShardedSubJoinCache::new(&q, &inst).unwrap();
            let sharded = ShardedSubJoinCache::new(&q, &inst).unwrap();
            for mask in 1u32..(1 << m) {
                let rels = rels_of(mask, m);
                let direct = join_subset(&q, &inst, &rels).unwrap();
                // Order-insensitive equality: the lattice's decomposition
                // emits rows in a different construction order than the
                // size-ordered fold, but the weighted tuple sets — and every
                // aggregate downstream consumers read — must match.  The
                // chain-only read runs first, so it builds its own result.
                assert_eq!(
                    lazy.join_mask(mask, seq, Keep::Chain).unwrap().as_ref(),
                    &direct,
                    "transient mask {mask:#b}"
                );
                let memoised = lazy.join_mask(mask, seq, Keep::Target).unwrap();
                assert_eq!(memoised.as_ref(), &direct, "mask {mask:#b}");
                let concurrent = sharded
                    .join_mask(mask, Parallelism::threads(2), Keep::Target)
                    .unwrap();
                assert_eq!(concurrent.as_ref(), &direct, "sharded mask {mask:#b}");
                assert_eq!(sorted_rows(&memoised), naive_rows(&q, &inst, mask));
            }
        }
    }
}
