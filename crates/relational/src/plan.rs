//! Cost-based join planning: boundary-aware decomposition of the sub-join
//! lattice from sketch-based statistics.
//!
//! Every sub-join the engine materialises — the `2^m` subset lattice behind
//! residual sensitivity, the size-`(m-1)` joins of local sensitivity — is
//! computed by peeling one relation off a subset and joining it against the
//! memoised rest (see [`crate::cache`]).  *Which* relation gets peeled fixes
//! the decomposition chain, and with it the set (and size) of intermediate
//! results the cache keeps resident.  The historical choice — always drop
//! the highest relation index — is oblivious to the data: on a path query it
//! happily routes the chain of `{0, 1, 3}` through the cross product
//! `{0, 3}` when the linear `{0, 1}` was one bit away.
//!
//! A [`JoinPlan`] replaces that fixed rule with a **cost-based decomposition
//! DAG** in the spirit of Selinger-style optimizers, shrunk to the lattice
//! setting.  The lifecycle is gather → estimate → populate:
//!
//! 1. **Gather.** [`RelationStats::gather`] sweeps each relation once and
//!    summarises every attribute with a [`DistinctSketch`] — a hand-rolled
//!    mergeable HyperLogLog-style sketch (exact below
//!    [`DistinctSketch::EXACT_LIMIT`] values, `2^12` one-byte registers
//!    above it).  Sketch merging is associative, commutative and
//!    idempotent, so the gather splits relations into morsels for the
//!    stealing scheduler and merges partial sketches back in relation
//!    order: the statistics — and therefore the plan — are identical at
//!    every thread count.
//! 2. **Estimate.** Textbook independence estimates built from the sketches
//!    price every subset's join cardinality bottom-up over the lattice, and
//!    each subset's parent is chosen to minimise the estimated intermediate
//!    it must materialise.
//! 3. **Populate.** The cache materialises subsets along the plan's pivots
//!    ([`crate::ShardedSubJoinCache::populate`] and the lazy chain walks of
//!    its reads).  [`PlanStats`] records each subset's estimate next to its
//!    actual cardinality once materialised.
//!
//! On streaming updates, [`crate::ExecContext::apply_updates`] patches the
//! sketches incrementally from the update batch's net per-relation deltas
//! and rebuilds the plan from the patched statistics — no full statistics
//! pass per batch.  Sketches are insert-only, so net removals leave the
//! distinct estimates as upper bounds; a relation whose net removals in one
//! batch reach a quarter of its post-update rows is re-gathered from
//! scratch.
//!
//! ### Where the plan lives
//!
//! Plans are built **once per instance fingerprint** by
//! [`crate::ExecContext::join_plan`] and stored in the context's LRU slot
//! alongside the lattice and the shared full join; every
//! checkout of the sub-join cache carries the same `Arc`, and no cache ever
//! swaps it, so parallel and sequential consumers observe the identical
//! decomposition.  A bare cache
//! ([`crate::ShardedSubJoinCache::new`]) defaults to
//! [`JoinPlan::fixed_prefix`] — the exact historical chain — and accepts a
//! planner-built plan through its `with_plan` constructor.
//!
//! ### Determinism contract
//!
//! The decomposition never changes values, only the order in which binary
//! join steps combine relations: a sub-join result is the same weighted
//! tuple set under every decomposition (joins are commutative and
//! associative; the engine's weights saturate identically outside
//! astronomically large joins), and every consumer of the lattice reads it
//! through order-free aggregates or sorted emits.  The plan itself is a
//! pure function of the query and the instance statistics — no randomness,
//! no thread-count dependence — so warm, cold, sequential and parallel
//! callers all produce byte-identical outputs (cost-based ≡ fixed-prefix ≡
//! naive is property-tested).

use std::hash::Hasher;
use std::sync::Arc;

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::exec::{self, Parallelism};
use crate::hash::{FxHashMap, FxHashSet, FxHasher};
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::fold_order;
use crate::tuple::Value;
use crate::Result;

/// Largest relation count for which the planner enumerates the full `2^m`
/// decomposition table (beyond it, [`JoinPlan::cost_based`] falls back to
/// the fixed-prefix chain — the table alone would dwarf the joins).
pub const PLAN_MAX_RELATIONS: usize = 16;

/// Rows per statistics-gather morsel: relations larger than this are split
/// into independent chunks for the worker pool, whose partial sketches are
/// merged back in morsel order (the merge is order-independent anyway).
const GATHER_MORSEL_ROWS: usize = 1 << 16;

/// Register-index bits of the HyperLogLog representation (`2^12 = 4096`
/// registers, ~1.6 % standard relative error).
const SKETCH_PRECISION: u32 = 12;

/// Number of HyperLogLog registers (`2^SKETCH_PRECISION`).
const SKETCH_REGISTERS: usize = 1 << SKETCH_PRECISION;

/// A mergeable distinct-count sketch: exact below a small threshold, a
/// hand-rolled HyperLogLog above it.
///
/// Small attribute domains — the common case for the finite-domain
/// instances this engine serves — stay **exact**: the sketch stores the set
/// of value hashes until it exceeds [`Self::EXACT_LIMIT`], then promotes to
/// `2^12` one-byte max-rank registers, keeping memory fixed (~4 KiB) and
/// the relative error near 1.6 % no matter how many million values stream
/// through.
///
/// Hashing is deterministic — the engine's [`FxHasher`] followed by a
/// SplitMix64-style avalanche finaliser (Fx alone is too regular in its low
/// bits for rank statistics) — and both representations are pure functions
/// of the *set* of inserted values.  Promotion folds the stored hashes into
/// the registers with the same register-wise `max`, so [`Self::merge`] is
/// associative, commutative and idempotent regardless of the order morsels
/// finish in: merged sketches are identical at every thread count.
///
/// The sketch is insert-only (registers cannot forget): after deletions the
/// estimate is an upper bound on the surviving distinct count until the
/// affected relation is re-gathered ([`RelationStats::refresh_relation`]).
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    repr: SketchRepr,
}

#[derive(Debug, Clone)]
enum SketchRepr {
    /// Hashes of every inserted value, while the set is small.
    Exact(FxHashSet<u64>),
    /// HyperLogLog max-rank registers, one byte each.
    Hll(Vec<u8>),
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch::new()
    }
}

impl DistinctSketch {
    /// Distinct-value threshold below which the sketch stays exact.
    pub const EXACT_LIMIT: usize = 1024;

    /// An empty sketch (exact representation).
    pub fn new() -> Self {
        DistinctSketch {
            repr: SketchRepr::Exact(FxHashSet::default()),
        }
    }

    /// The deterministic 64-bit hash a value contributes: [`FxHasher`]
    /// mixed through a SplitMix64-style finaliser so every bit avalanches.
    fn hash_value(v: Value) -> u64 {
        let mut fx = FxHasher::default();
        fx.write_u64(v);
        let mut x = fx.finish();
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }

    /// Folds one value hash into a register array: the top
    /// [`SKETCH_PRECISION`] bits pick the register, the rank is the
    /// position of the first set bit among the remaining bits.
    fn fold_hash(regs: &mut [u8], h: u64) {
        let idx = (h >> (64 - SKETCH_PRECISION)) as usize;
        let rest = h << SKETCH_PRECISION;
        let rank = (rest.leading_zeros() + 1).min(64 - SKETCH_PRECISION + 1) as u8;
        if regs[idx] < rank {
            regs[idx] = rank;
        }
    }

    /// Promotes an exact hash set into HyperLogLog registers.
    fn promoted(hashes: &FxHashSet<u64>) -> Vec<u8> {
        let mut regs = vec![0u8; SKETCH_REGISTERS];
        for &h in hashes {
            DistinctSketch::fold_hash(&mut regs, h);
        }
        regs
    }

    /// Records one value.  Duplicate inserts are no-ops in both
    /// representations.
    pub fn insert(&mut self, v: Value) {
        let h = DistinctSketch::hash_value(v);
        match &mut self.repr {
            SketchRepr::Exact(set) => {
                set.insert(h);
                if set.len() > Self::EXACT_LIMIT {
                    self.repr = SketchRepr::Hll(DistinctSketch::promoted(set));
                }
            }
            SketchRepr::Hll(regs) => DistinctSketch::fold_hash(regs, h),
        }
    }

    /// Merges another sketch into this one.  Associative, commutative and
    /// idempotent: the result depends only on the union of inserted values,
    /// never on merge order — the property that keeps morsel-parallel
    /// statistics gathering thread-count-invariant.
    pub fn merge(&mut self, other: &DistinctSketch) {
        match (&mut self.repr, &other.repr) {
            (SketchRepr::Exact(a), SketchRepr::Exact(b)) => {
                a.extend(b.iter().copied());
                if a.len() > Self::EXACT_LIMIT {
                    self.repr = SketchRepr::Hll(DistinctSketch::promoted(a));
                }
            }
            (SketchRepr::Exact(a), SketchRepr::Hll(b)) => {
                let mut regs = DistinctSketch::promoted(a);
                for (r, &o) in regs.iter_mut().zip(b.iter()) {
                    *r = (*r).max(o);
                }
                self.repr = SketchRepr::Hll(regs);
            }
            (SketchRepr::Hll(regs), SketchRepr::Exact(b)) => {
                for &h in b.iter() {
                    DistinctSketch::fold_hash(regs, h);
                }
            }
            (SketchRepr::Hll(a), SketchRepr::Hll(b)) => {
                for (r, &o) in a.iter_mut().zip(b.iter()) {
                    *r = (*r).max(o);
                }
            }
        }
    }

    /// Whether the sketch is still in its exact representation (estimates
    /// are then exact counts).
    pub fn is_exact(&self) -> bool {
        matches!(self.repr, SketchRepr::Exact(_))
    }

    /// The estimated distinct count: exact while small, the standard
    /// HyperLogLog estimator (with the linear-counting small-range
    /// correction) after promotion.
    pub fn estimate(&self) -> u64 {
        match &self.repr {
            SketchRepr::Exact(set) => set.len() as u64,
            SketchRepr::Hll(regs) => {
                let m = SKETCH_REGISTERS as f64;
                let alpha = 0.7213 / (1.0 + 1.079 / m);
                let mut inv_sum = 0.0f64;
                let mut zeros = 0usize;
                for &r in regs.iter() {
                    inv_sum += 1.0 / (1u64 << r) as f64;
                    if r == 0 {
                        zeros += 1;
                    }
                }
                let raw = alpha * m * m / inv_sum;
                let est = if raw <= 2.5 * m && zeros > 0 {
                    m * (m / zeros as f64).ln()
                } else {
                    raw
                };
                est.round() as u64
            }
        }
    }
}

/// When the lattice evaluates a sub-join mask **count-only** (folding the
/// hash-probe matches straight into an [`crate::join::AggSummary`] instead
/// of materialising a [`crate::join::JoinResult`] — see the `join` module's
/// "Aggregate fold" docs).
///
/// The decision is per mask and purely a performance choice: both
/// evaluation modes produce identical numbers, so every setting yields
/// byte-identical sensitivity outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggMode {
    /// Demand analysis decides: masks some other mask's chain is built
    /// through ([`JoinPlan::is_chain_parent`]) and the full join stay
    /// materialized; terminal masks — whose only consumers are the
    /// aggregate reads of the sensitivity layer — go count-only.  A warm
    /// materialized entry is still read directly when present.
    #[default]
    Auto,
    /// Never aggregate: every mask is materialized (the historical
    /// behaviour, kept as the in-process oracle).
    Never,
}

/// Per-relation statistics feeding the planner's cost model: exact row
/// counts plus a [`DistinctSketch`] per attribute, gathered in one
/// streaming pass over the instance and cached (inside the plan they
/// produce) per fingerprint by [`crate::ExecContext`].
#[derive(Debug, Clone)]
pub struct RelationStats {
    /// Distinct tuple count per relation (exact — the relation stores
    /// distinct tuples with frequencies, so this is just its length).
    rows: Vec<usize>,
    /// Per relation: a distinct-count sketch per attribute, aligned with
    /// the relation's (sorted) attribute list.
    distinct: Vec<Vec<(AttrId, DistinctSketch)>>,
}

impl RelationStats {
    /// Gathers the statistics in one pass over every relation, sequentially.
    pub fn gather(query: &JoinQuery, instance: &Instance) -> Result<Self> {
        RelationStats::gather_with(query, instance, Parallelism::SEQUENTIAL)
    }

    /// [`Self::gather`] with the pass swept through the worker pool: each
    /// relation is split into `GATHER_MORSEL_ROWS`-row morsels claimed by
    /// stealing, and the partial sketches are merged back in relation (and
    /// morsel) order.  Sketch merging is order-independent, so the result
    /// is identical to the sequential gather at every thread count.
    pub fn gather_with(query: &JoinQuery, instance: &Instance, par: Parallelism) -> Result<Self> {
        if instance.num_relations() != query.num_relations() {
            return Err(RelationalError::RelationCountMismatch {
                expected: query.num_relations(),
                got: instance.num_relations(),
            });
        }
        let m = instance.num_relations();
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        for r in 0..m {
            let morsels = instance
                .relation(r)
                .distinct_count()
                .div_ceil(GATHER_MORSEL_ROWS)
                .max(1);
            for j in 0..morsels {
                tasks.push((r, j));
            }
        }
        let partials = exec::par_map(par, tasks.len(), |i| {
            let (r, j) = tasks[i];
            let rel = instance.relation(r);
            let mut sketches: Vec<DistinctSketch> =
                rel.attrs().iter().map(|_| DistinctSketch::new()).collect();
            for (t, _) in rel
                .iter()
                .skip(j * GATHER_MORSEL_ROWS)
                .take(GATHER_MORSEL_ROWS)
            {
                for (pos, &v) in t.iter().enumerate() {
                    sketches[pos].insert(v);
                }
            }
            sketches
        });
        let mut distinct: Vec<Vec<(AttrId, DistinctSketch)>> = (0..m)
            .map(|r| {
                instance
                    .relation(r)
                    .attrs()
                    .iter()
                    .map(|&a| (a, DistinctSketch::new()))
                    .collect()
            })
            .collect();
        for (i, partial) in partials.into_iter().enumerate() {
            let (r, _) = tasks[i];
            for (slot, sketch) in distinct[r].iter_mut().zip(partial) {
                slot.1.merge(&sketch);
            }
        }
        let rows = (0..m)
            .map(|r| instance.relation(r).distinct_count())
            .collect();
        Ok(RelationStats { rows, distinct })
    }

    /// Number of relations the statistics cover.
    pub fn num_relations(&self) -> usize {
        self.rows.len()
    }

    /// Distinct tuple count of relation `r` (exact).
    pub fn rows(&self, r: usize) -> usize {
        self.rows[r]
    }

    /// Estimated distinct value count of attribute `attr` within relation
    /// `r` (zero if the relation does not carry the attribute; exact while
    /// the attribute's sketch is below [`DistinctSketch::EXACT_LIMIT`]).
    pub fn distinct(&self, r: usize, attr: AttrId) -> u64 {
        self.distinct[r]
            .iter()
            .find(|&&(a, _)| a == attr)
            .map(|(_, s)| s.estimate())
            .unwrap_or(0)
    }

    /// Folds newly inserted tuples of relation `r` into its per-attribute
    /// sketches — the streaming-update fast path (one sketch insert per
    /// value, no relation scan).  Sketches are insert-only: tuples *removed*
    /// by an update cannot be subtracted here, so after net removals the
    /// distinct estimates become upper bounds.  Call
    /// [`Self::refresh_relation`] to restore exactness once removals pile
    /// up; [`crate::ExecContext::apply_updates`] does so for every relation
    /// whose net removals in one batch reach a quarter of its post-update
    /// rows.
    pub fn absorb_inserts<'a, I>(&mut self, r: usize, tuples: I)
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        for t in tuples {
            for (pos, &v) in t.iter().enumerate() {
                if let Some(slot) = self.distinct[r].get_mut(pos) {
                    slot.1.insert(v);
                }
            }
        }
    }

    /// Records relation `r`'s exact post-update row count.
    pub fn set_rows(&mut self, r: usize, rows: usize) {
        self.rows[r] = rows;
    }

    /// Re-gathers relation `r`'s statistics from scratch — required after
    /// net removals, which the insert-only sketches cannot express.
    pub fn refresh_relation(&mut self, instance: &Instance, r: usize) {
        let rel = instance.relation(r);
        let mut sketches: Vec<(AttrId, DistinctSketch)> = rel
            .attrs()
            .iter()
            .map(|&a| (a, DistinctSketch::new()))
            .collect();
        for (t, _) in rel.iter() {
            for (pos, &v) in t.iter().enumerate() {
                sketches[pos].1.insert(v);
            }
        }
        self.distinct[r] = sketches;
        self.rows[r] = rel.distinct_count();
    }
}

/// One subset's entry in a cost-based decomposition: the relation peeled off
/// (joined last) and the estimated cardinality of the subset's sub-join.
#[derive(Debug, Clone, Copy)]
struct PlanNode {
    /// Relation index joined last; the subset's parent in the DAG is the
    /// subset minus this relation.
    pivot: u8,
    /// Estimated distinct-tuple cardinality of the subset's sub-join.
    est_rows: f64,
}

/// How a plan maps subsets to parents.
#[derive(Debug)]
enum Decomposition {
    /// The historical chain: always peel the highest relation index.
    FixedPrefix,
    /// Planner-chosen pivots, indexed densely by subset bitmask.
    CostBased(Vec<PlanNode>),
}

/// Builds the full bottom-up decomposition table from per-relation
/// statistics.
fn build_nodes(query: &JoinQuery, stats: &RelationStats) -> Vec<PlanNode> {
    let m = query.num_relations();
    // For each attribute, the bitmask of relations carrying it.
    let mut attr_rels: FxHashMap<AttrId, u32> = FxHashMap::default();
    for (r, attrs) in query.relations().iter().enumerate() {
        for &a in attrs {
            *attr_rels.entry(a).or_insert(0) |= 1u32 << r;
        }
    }
    // Distinct-count estimate of attribute `a` within the sub-join of
    // `mask`: joins only ever filter values, so the tightest per-relation
    // count is an upper bound (the standard independence estimate).
    let v_of = |mask: u32, a: AttrId| -> f64 {
        let carriers = attr_rels.get(&a).copied().unwrap_or(0) & mask;
        let mut best = f64::INFINITY;
        let mut bits = carriers;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            best = best.min(stats.distinct(r, a) as f64);
        }
        best
    };

    let full_count = 1usize << m;
    let mut nodes = vec![
        PlanNode {
            pivot: 0,
            est_rows: 0.0
        };
        full_count
    ];
    // Bottom-up over popcount: every proper sub-mask of `mask` is
    // already planned when `mask` is visited.
    for count in 1..=m as u32 {
        for mask in 1u32..full_count as u32 {
            if mask.count_ones() != count {
                continue;
            }
            if count == 1 {
                let r = mask.trailing_zeros() as usize;
                nodes[mask as usize] = PlanNode {
                    pivot: r as u8,
                    est_rows: stats.rows(r) as f64,
                };
                continue;
            }
            let mut best: Option<(f64, f64, usize)> = None;
            let mut bits = mask;
            while bits != 0 {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let parent = mask & !(1u32 << p);
                let parent_est = nodes[parent as usize].est_rows;
                // |parent ⋈ R_p| ≈ |parent|·|R_p| / Π_a max(V(parent, a), V(p, a))
                // over the shared attributes a — the classic independence
                // estimate; disconnected pivots divide by nothing and
                // price the cross product honestly.
                let mut denom = 1.0f64;
                for &a in query.relation_attrs(p) {
                    let others = attr_rels.get(&a).copied().unwrap_or(0) & parent;
                    if others != 0 {
                        denom *= v_of(parent, a).max(stats.distinct(p, a) as f64).max(1.0);
                    }
                }
                let step_est = parent_est * stats.rows(p) as f64 / denom;
                let candidate = (parent_est, step_est, p);
                let better = match best {
                    None => true,
                    Some(b) => candidate < b,
                };
                if better {
                    best = Some(candidate);
                }
            }
            let (_, est_rows, pivot) = best.expect("non-empty mask has a pivot");
            nodes[mask as usize] = PlanNode {
                pivot: pivot as u8,
                est_rows,
            };
        }
    }
    nodes
}

/// A join plan: per-subset decomposition choice (which relation each subset
/// peels off, with the estimated intermediate cardinalities that justified
/// it) plus the greedy fold order of the top-level join.  Cost-based plans
/// carry the [`RelationStats`] they were built from, so streaming updates
/// can patch the statistics and re-price the lattice without a fresh
/// gather.  See the module docs for where plans are built
/// and shared.
#[derive(Debug)]
pub struct JoinPlan {
    num_relations: usize,
    decomp: Decomposition,
    /// Relation order of the top-level full join (the engine's greedy
    /// connectivity-aware order, recorded for inspection).  Empty when the
    /// plan was built without instance statistics.
    top_order: Vec<usize>,
    /// The statistics the plan was priced from (absent on bare
    /// fixed-prefix plans).
    stats: Option<RelationStats>,
}

impl JoinPlan {
    /// The historical fixed decomposition for an `m`-relation query: every
    /// subset peels its highest relation index.  No statistics, no
    /// estimates; byte-for-byte the pre-planner behaviour.
    pub fn fixed_prefix(num_relations: usize) -> Self {
        JoinPlan {
            num_relations,
            decomp: Decomposition::FixedPrefix,
            top_order: Vec::new(),
            stats: None,
        }
    }

    /// Builds the boundary-aware cost-based plan for `(query, instance)`:
    /// gathers [`RelationStats`], estimates every subset's cardinality
    /// bottom-up over the lattice, and picks each subset's pivot so the
    /// parent intermediate it depends on is the smallest available
    /// (estimated parent size, then estimated own size, then lowest pivot
    /// index — a total, deterministic order).  Queries wider than
    /// [`PLAN_MAX_RELATIONS`] fall back to the fixed-prefix chain.
    pub fn cost_based(query: &JoinQuery, instance: &Instance) -> Result<Self> {
        JoinPlan::cost_based_with(query, instance, Parallelism::SEQUENTIAL)
    }

    /// [`Self::cost_based`] with the statistics pass swept through the worker
    /// pool ([`RelationStats::gather_with`]).  The plan is a pure function of
    /// the gathered statistics, which are merged in relation order — so the
    /// resulting plan is identical at every thread count.
    pub fn cost_based_with(
        query: &JoinQuery,
        instance: &Instance,
        par: Parallelism,
    ) -> Result<Self> {
        let stats = RelationStats::gather_with(query, instance, par)?;
        JoinPlan::from_stats(query, instance, stats)
    }

    /// Builds the cost-based plan from already-gathered statistics — the
    /// streaming-update path, where [`crate::ExecContext::apply_updates`]
    /// patches the previous plan's sketches from the batch delta and
    /// re-prices the lattice without touching the relations again.
    pub fn from_stats(
        query: &JoinQuery,
        instance: &Instance,
        stats: RelationStats,
    ) -> Result<Self> {
        let m = query.num_relations();
        if stats.num_relations() != m {
            return Err(RelationalError::RelationCountMismatch {
                expected: m,
                got: stats.num_relations(),
            });
        }
        let all: Vec<usize> = (0..m).collect();
        let top_order = fold_order(instance, &all);
        if m > PLAN_MAX_RELATIONS {
            return Ok(JoinPlan {
                num_relations: m,
                decomp: Decomposition::FixedPrefix,
                top_order,
                stats: Some(stats),
            });
        }
        let nodes = build_nodes(query, &stats);
        Ok(JoinPlan {
            num_relations: m,
            decomp: Decomposition::CostBased(nodes),
            top_order,
            stats: Some(stats),
        })
    }

    /// The statistics the plan was priced from, when it carries them.
    pub fn stats(&self) -> Option<&RelationStats> {
        self.stats.as_ref()
    }

    /// Number of relations the plan covers.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Whether the plan carries cost-based pivots (false for the
    /// fixed-prefix chain, including the wide-query fallback).
    pub fn is_cost_based(&self) -> bool {
        matches!(self.decomp, Decomposition::CostBased(_))
    }

    /// The relation peeled off (joined last) when materialising `mask`'s
    /// sub-join.  `mask` must be non-zero and within range.
    pub fn pivot(&self, mask: u32) -> usize {
        debug_assert!(mask != 0 && (mask >> self.num_relations) == 0);
        match &self.decomp {
            Decomposition::FixedPrefix => (31 - mask.leading_zeros()) as usize,
            Decomposition::CostBased(nodes) => nodes[mask as usize].pivot as usize,
        }
    }

    /// The parent subset `mask`'s sub-join is built from: `mask` minus its
    /// pivot (zero for singletons).
    pub fn parent(&self, mask: u32) -> u32 {
        mask & !(1u32 << self.pivot(mask))
    }

    /// Consumer-demand analysis over the decomposition DAG: whether some
    /// other lattice mask's build chain passes through `mask` under the
    /// current plan — i.e. whether any superset `mask | {r}` picks `r` as
    /// its pivot, making `mask` its parent.  Chain parents must stay
    /// materialized (children are built by one binary step from their
    /// parent's tuples); *terminal* masks — proper masks that are nobody's
    /// parent — feed only the sensitivity layer's aggregate reads and are
    /// the candidates for count-only evaluation under [`AggMode::Auto`].
    ///
    /// A proper mask only ever parents its immediate supersets, so one pass
    /// over the unset bits decides.  Count-only reads never assume a chain
    /// parent is resident: they materialize a missing one through the lazy
    /// chain walk, since sequential callers skip the populate entirely.
    pub fn is_chain_parent(&self, mask: u32) -> bool {
        debug_assert!(mask != 0 && (mask >> self.num_relations) == 0);
        let full = (1u32 << self.num_relations) - 1;
        if mask == full {
            return false;
        }
        let mut rest = full & !mask;
        while rest != 0 {
            let r = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.pivot(mask | (1u32 << r)) == r {
                return true;
            }
        }
        false
    }

    /// The planner's estimated distinct-tuple cardinality of `mask`'s
    /// sub-join (`None` on fixed-prefix plans, which carry no estimates).
    pub fn estimated_rows(&self, mask: u32) -> Option<f64> {
        match &self.decomp {
            Decomposition::FixedPrefix => None,
            Decomposition::CostBased(nodes) => Some(nodes[mask as usize].est_rows),
        }
    }

    /// The recorded relation order of the top-level full join (empty on
    /// plans built without instance statistics).
    pub fn top_order(&self) -> &[usize] {
        &self.top_order
    }

    /// The pivot chain from the full mask down to a singleton — the spine of
    /// intermediates a lazy full-lattice walk materialises.
    pub fn spine(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_relations);
        if self.num_relations == 0 || self.num_relations >= 32 {
            return out;
        }
        let mut mask = (1u32 << self.num_relations) - 1;
        while mask != 0 {
            let p = self.pivot(mask);
            out.push(p);
            mask &= !(1u32 << p);
        }
        out
    }

    /// Validates that the plan was built for an `m`-relation query.
    pub(crate) fn check_relations(&self, m: usize) -> Result<()> {
        if self.num_relations != m {
            return Err(RelationalError::InvalidRelationSubset(format!(
                "join plan covers {} relations but the query has {m}",
                self.num_relations
            )));
        }
        Ok(())
    }
}

/// A shared, immutable plan handle (what caches and context slots carry).
pub type SharedJoinPlan = Arc<JoinPlan>;

/// Planner diagnostics for one `(query, instance)` pair: the decomposition
/// choices with estimated and (where materialised) actual intermediate
/// cardinalities.  Produced by
/// [`crate::ExecContext::plan_stats`] / `dpsyn::Session::plan_stats`.
#[derive(Debug, Clone)]
pub struct PlanStats {
    /// Whether the stored plan is cost-based (vs the fixed-prefix fallback).
    pub cost_based: bool,
    /// Relation order of the top-level full join.
    pub top_order: Vec<usize>,
    /// The pivot chain from the full mask down (see [`JoinPlan::spine`]).
    pub spine: Vec<usize>,
    /// Per-subset decomposition entries (empty beyond
    /// [`PLAN_MAX_RELATIONS`] relations).
    pub nodes: Vec<PlanNodeStats>,
    /// Number of lattice entries currently materialised for the pair.
    pub cached_masks: usize,
    /// Total distinct tuples across those materialised entries — the
    /// resident intermediate footprint the planner works to shrink.
    pub cached_tuples: usize,
    /// Number of lattice entries held as count-only aggregate summaries
    /// (see [`AggMode`]) instead of materialised tuples.
    pub aggregated_masks: usize,
    /// Approximate resident bytes across both entry kinds (flat tuple
    /// buffers for materialised entries, a fixed-size summary for
    /// aggregated ones).
    pub cached_bytes: usize,
}

/// One subset's row in [`PlanStats`].
#[derive(Debug, Clone, Copy)]
pub struct PlanNodeStats {
    /// Subset bitmask (bit `i` set ⇔ relation `i` participates).
    pub mask: u32,
    /// Relation the subset peels off (joined last).
    pub pivot: usize,
    /// Planner-estimated cardinality (`None` on fixed-prefix plans).
    pub estimated_rows: Option<f64>,
    /// Actual distinct-tuple count, when the subset is resident in the
    /// context's lattice (from the tuples of a materialised entry or the
    /// recorded count of an aggregated one).
    pub actual_rows: Option<usize>,
    /// Whether the resident entry is a count-only aggregate summary rather
    /// than materialised tuples (`false` when absent or materialised).
    pub aggregated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn path_instance(m: usize, per_rel: u64) -> (JoinQuery, Instance) {
        let q = JoinQuery::path(m, 64).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..m {
            for v in 0..per_rel {
                inst.relation_mut(r)
                    .add(vec![v % 64, (v + 1) % 64], 1)
                    .unwrap();
            }
        }
        (q, inst)
    }

    #[test]
    fn stats_count_rows_and_distinct_values() {
        let q = JoinQuery::two_table(8, 8, 8);
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 2), (vec![2, 1], 1)],
        )
        .unwrap();
        let r2 =
            Relation::from_tuples(ids(&[1, 2]), vec![(vec![0, 0], 1), (vec![0, 1], 1)]).unwrap();
        let inst = Instance::new(vec![r1, r2]);
        let stats = RelationStats::gather(&q, &inst).unwrap();
        assert_eq!(stats.rows(0), 3);
        assert_eq!(stats.rows(1), 2);
        assert_eq!(stats.distinct(0, AttrId(0)), 3);
        assert_eq!(stats.distinct(0, AttrId(1)), 2);
        assert_eq!(stats.distinct(1, AttrId(1)), 1);
        // Attribute not carried by the relation.
        assert_eq!(stats.distinct(1, AttrId(0)), 0);
    }

    #[test]
    fn sketch_is_exact_below_the_limit_and_close_above_it() {
        let mut small = DistinctSketch::new();
        for v in 0..100u64 {
            small.insert(v * 7);
            small.insert(v * 7); // duplicates are no-ops
        }
        assert!(small.is_exact());
        assert_eq!(small.estimate(), 100);

        let n = 200_000u64;
        let mut big = DistinctSketch::new();
        for v in 0..n {
            big.insert(v);
        }
        assert!(!big.is_exact());
        let est = big.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.05, "estimate {est} for {n} (rel. error {err})");
    }

    #[test]
    fn sketch_merge_is_order_independent() {
        let chunks: Vec<Vec<u64>> = vec![
            (0..5_000).collect(),
            (2_500..40_000).collect(),
            (100..300).collect(),
            (39_000..41_000).collect(),
        ];
        let sketches: Vec<DistinctSketch> = chunks
            .iter()
            .map(|c| {
                let mut s = DistinctSketch::new();
                for &v in c {
                    s.insert(v);
                }
                s
            })
            .collect();
        let mut forward = DistinctSketch::new();
        for s in &sketches {
            forward.merge(s);
        }
        let mut backward = DistinctSketch::new();
        for s in sketches.iter().rev() {
            backward.merge(s);
        }
        // ((0·1)·(2·3)) — a different association.
        let mut left = sketches[0].clone();
        left.merge(&sketches[1]);
        let mut right = sketches[2].clone();
        right.merge(&sketches[3]);
        left.merge(&right);
        assert_eq!(forward.estimate(), backward.estimate());
        assert_eq!(forward.estimate(), left.estimate());
        // Idempotence: merging a sketch with itself changes nothing.
        let before = forward.estimate();
        let copy = forward.clone();
        forward.merge(&copy);
        assert_eq!(forward.estimate(), before);
    }

    #[test]
    fn stats_patching_tracks_inserts_and_refresh_handles_removals() {
        let (q, mut inst) = path_instance(2, 20);
        let mut stats = RelationStats::gather(&q, &inst).unwrap();
        assert_eq!(stats.distinct(0, AttrId(0)), 20);
        // Insert two new tuples with fresh first-attribute values.
        let added: Vec<Vec<Value>> = vec![vec![40, 41], vec![41, 42]];
        for t in &added {
            inst.relation_mut(0).add(t.clone(), 1).unwrap();
        }
        stats.absorb_inserts(0, added.iter().map(|t| t.as_slice()));
        stats.set_rows(0, inst.relation(0).distinct_count());
        assert_eq!(stats.rows(0), 22);
        assert_eq!(stats.distinct(0, AttrId(0)), 22);
        // Removals need a refresh (sketches cannot forget).
        inst.relation_mut(0).set(vec![40, 41], 0).unwrap();
        stats.refresh_relation(&inst, 0);
        assert_eq!(stats.rows(0), inst.relation(0).distinct_count());
    }

    #[test]
    fn chain_parent_analysis_matches_the_decomposition() {
        // Fixed prefix: every superset peels its highest relation, so a
        // proper mask is a chain parent iff it lacks some higher relation
        // than its own top bit — equivalently, iff it contains relation
        // m-1 it parents nothing (terminal), otherwise mask | {next-higher
        // missing bit} peels that bit back to mask.
        for m in [3usize, 4, 5] {
            let plan = JoinPlan::fixed_prefix(m);
            let full = (1u32 << m) - 1;
            for mask in 1..full {
                // Brute-force the definition against the pivot table.
                let brute = (1..=full)
                    .filter(|&s| s != mask && (s & mask) == mask)
                    .any(|s| plan.parent(s) == mask);
                assert_eq!(
                    plan.is_chain_parent(mask),
                    brute,
                    "m = {m}, mask = {mask:#b}"
                );
                // Under FixedPrefix the terminal masks are exactly those
                // containing the highest relation.
                assert_eq!(!plan.is_chain_parent(mask), mask >> (m - 1) == 1);
            }
            assert!(!plan.is_chain_parent(full));
        }
        // Cost-based plans: validate against the brute-force definition.
        let (q, inst) = path_instance(4, 48);
        let plan = JoinPlan::cost_based(&q, &inst).unwrap();
        let full = (1u32 << 4) - 1;
        for mask in 1..=full {
            let brute = (1..=full)
                .filter(|&s| s != mask && (s & mask) == mask)
                .any(|s| plan.parent(s) == mask);
            assert_eq!(plan.is_chain_parent(mask), brute, "mask = {mask:#b}");
        }
    }

    #[test]
    fn fixed_prefix_plan_peels_the_highest_index() {
        let plan = JoinPlan::fixed_prefix(4);
        assert!(!plan.is_cost_based());
        assert_eq!(plan.pivot(0b1011), 3);
        assert_eq!(plan.parent(0b1011), 0b0011);
        assert_eq!(plan.pivot(0b0001), 0);
        assert_eq!(plan.estimated_rows(0b1011), None);
        assert_eq!(plan.spine(), vec![3, 2, 1, 0]);
        assert!(plan.stats().is_none());
    }

    #[test]
    fn cost_based_plan_avoids_cross_product_parents_on_paths() {
        let (q, inst) = path_instance(4, 40);
        let plan = JoinPlan::cost_based(&q, &inst).unwrap();
        assert!(plan.is_cost_based());
        // {0, 1, 3}: the fixed chain peels 3 and routes through {0, 1}; any
        // choice is fine there.  {0, 2, 3} however must NOT peel 3 onto the
        // cross product {0, 2} — the planner peels 0, keeping the linear
        // {2, 3} as the parent.
        let mask = 0b1101u32;
        assert_eq!(plan.pivot(mask), 0, "parent {:#b}", plan.parent(mask));
        assert_eq!(plan.parent(mask), 0b1100);
        // Estimates price the cross product above the linear chains.
        let cross = plan.estimated_rows(0b0101).unwrap();
        let linear = plan.estimated_rows(0b0011).unwrap();
        assert!(cross > linear * 4.0, "cross {cross} vs linear {linear}");
    }

    #[test]
    fn plan_is_deterministic_and_matches_query_arity() {
        let (q, inst) = path_instance(3, 20);
        let a = JoinPlan::cost_based(&q, &inst).unwrap();
        let b = JoinPlan::cost_based(&q, &inst).unwrap();
        for mask in 1u32..(1 << 3) {
            assert_eq!(a.pivot(mask), b.pivot(mask));
            assert_eq!(a.estimated_rows(mask), b.estimated_rows(mask));
        }
        assert_eq!(a.top_order(), b.top_order());
        assert_eq!(a.top_order().len(), 3);
        assert!(a.check_relations(3).is_ok());
        assert!(a.check_relations(4).is_err());
    }

    #[test]
    fn parallel_stats_gather_matches_sequential_at_every_thread_count() {
        let (q, inst) = path_instance(4, 40);
        let seq = RelationStats::gather(&q, &inst).unwrap();
        for &threads in &[1usize, 2, 4, 8] {
            let par = RelationStats::gather_with(&q, &inst, Parallelism::threads(threads)).unwrap();
            for r in 0..4 {
                assert_eq!(par.rows(r), seq.rows(r), "threads {threads}");
                for a in 0..5u16 {
                    assert_eq!(
                        par.distinct(r, AttrId(a)),
                        seq.distinct(r, AttrId(a)),
                        "relation {r}, attr {a}, threads {threads}"
                    );
                }
            }
            let plan = JoinPlan::cost_based_with(&q, &inst, Parallelism::threads(threads)).unwrap();
            let base = JoinPlan::cost_based(&q, &inst).unwrap();
            for mask in 1u32..(1 << 4) {
                assert_eq!(plan.pivot(mask), base.pivot(mask), "threads {threads}");
                assert_eq!(plan.estimated_rows(mask), base.estimated_rows(mask));
            }
        }
    }

    #[test]
    fn singleton_estimates_are_exact_row_counts() {
        let (q, inst) = path_instance(3, 17);
        let plan = JoinPlan::cost_based(&q, &inst).unwrap();
        for r in 0..3 {
            assert_eq!(
                plan.estimated_rows(1 << r).unwrap(),
                inst.relation(r).distinct_count() as f64
            );
            assert_eq!(plan.pivot(1 << r), r);
            assert_eq!(plan.parent(1 << r), 0);
        }
    }

    #[test]
    fn mismatched_instance_is_rejected() {
        let q = JoinQuery::two_table(4, 4, 4);
        let r1 = Relation::from_tuples(ids(&[0, 1]), vec![(vec![0, 0], 1)]).unwrap();
        let inst = Instance::new(vec![r1]);
        assert!(RelationStats::gather(&q, &inst).is_err());
        assert!(JoinPlan::cost_based(&q, &inst).is_err());
    }
}
