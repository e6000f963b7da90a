//! Relational substrate for differentially private data release over
//! multiple tables.
//!
//! This crate implements the data model of Section 1.1 of the paper
//! *Differentially Private Data Release over Multiple Tables* (PODS 2023):
//!
//! * attributes with finite domains and schemas ([`attr`]),
//! * frequency-annotated relations `R_i : D_i → Z≥0` ([`relation`]),
//! * join queries as hypergraphs `H = (x, {x_1, …, x_m})` with boundaries,
//!   connectivity and the hierarchical-query test ([`hypergraph`]),
//! * multi-table instances and neighbouring-instance edits ([`instance`]),
//! * multi-way natural **hash-join** evaluation and grouped join sizes
//!   ([`join`](mod@join)), with the original `BTreeMap` engine retained as
//!   a cross-check oracle ([`naive`]),
//! * shared sub-join caching for relation-subset enumerations ([`cache`]),
//! * streaming insert/delete batches with in-place semi-naive maintenance
//!   of the cached lattice ([`stream`]),
//! * degree statistics `deg`, `Ψ_E` and maximum degrees `mdeg` ([`degree`]),
//! * attribute trees for hierarchical joins ([`tree`]),
//! * fractional edge covers and the AGM bound ([`cover`]),
//! * the compact tuple representation and fast hashing underneath it all
//!   ([`tuple`](mod@tuple), [`hash`]).
//!
//! Everything downstream (sensitivity computation, the PMW release algorithm
//! and the paper's join-as-one / uniformization algorithms) is built on these
//! primitives.
//!
//! # Conventions
//!
//! * Attribute lists are always kept sorted in increasing [`AttrId`] order and
//!   tuples store their values in that order.
//! * Relations map tuples to non-negative integer frequencies (annotated
//!   relations); a "plain" relation is simply one whose frequencies are all 1.
//!
//! # Determinism contract
//!
//! The join engine's internal maps are unordered hash maps keyed by the
//! compact [`TupleKey`] (inline, allocation-free for arity ≤ 4).  Hash order
//! is **never observable**: every API that exposes tuples — [`JoinResult::iter`],
//! [`JoinResult::group_by`], [`JoinResult::distinct_projections`],
//! [`Relation::degree_map`], [`degree::deg_multi`] — sorts on emit (or
//! returns an ordered map/set), so two runs over the same instance produce
//! byte-identical output and downstream seeded randomized algorithms are
//! reproducible from an RNG seed exactly as with the previous ordered-map
//! engine.  APIs whose results are order-free aggregates
//! ([`JoinResult::total`], [`JoinResult::max_group_weight`],
//! [`Relation::max_degree`]) skip the sort entirely.  The `*_key` /
//! `iter_unordered` escape hatches expose the raw hash containers for hot
//! paths that aggregate further; callers must not let their order escape.
//! The one reader that does is the `f64` truth sum over a full join
//! (`dpsyn_query`'s answer functions), whose rounding follows row order, so
//! a full join is only ever produced by the size-ordered fold — its
//! physical order is deterministic at every thread count — and never
//! patched in place (see [`stream`]).
//!
//! # Join planning
//!
//! [`ShardedSubJoinCache`] memoises sub-join results per subset bitmask so that
//! `2^m`-subset enumerations (residual sensitivity, multi-relation degree
//! statistics) perform one hash-join step per distinct subset instead of
//! re-joining from the base relations each time.  *How* each subset
//! decomposes into parent-plus-relation is owned by the cost-based join
//! planner ([`plan`]), which runs a **gather → estimate → populate**
//! lifecycle:
//!
//! 1. **Gather** — [`RelationStats::gather`] scans each relation once and
//!    summarises per-attribute distinct counts into mergeable
//!    [`DistinctSketch`]es (exact sets below a small threshold, promoting
//!    to a dense HyperLogLog-style register array above it).  Gathering is
//!    morsel-parallel under the stealing scheduler and the sketch merge is
//!    associative and commutative, so the statistics — and therefore every
//!    plan built from them — are identical at every worker count.
//! 2. **Estimate** — [`JoinPlan::cost_based`] picks, per subset, the pivot
//!    whose removal leaves the smallest estimated intermediate under the
//!    classical independence assumption, shrinking every cached
//!    intermediate relative to the historical fixed highest-index chain.
//! 3. **Populate** — the cache materialises intermediates along the plan's
//!    pivots: [`ShardedSubJoinCache::populate`] level by level through the
//!    worker pool, and the lazy reads [`ShardedSubJoinCache::join_mask`] and
//!    [`ShardedSubJoinCache::max_group_weight`] along one mask's chain,
//!    memoising the read mask itself or — with [`Keep::Chain`] — only its
//!    chain parents.  All three take `&self`, and [`PlanStats`] reports
//!    each subset's estimate next to its actual cardinality.
//!
//! A `(query, instance)` pair gets one plan per fingerprint, and plans
//! never change *values*: they only choose decomposition order, so the
//! output bytes are identical to the fixed-prefix chain and the naive
//! oracle at every thread count.  Streaming updates keep the statistics
//! warm instead of re-gathering: sketches absorb inserted tuples
//! incrementally, row counts are patched exactly, and deletions — which
//! insert-only sketches cannot subtract — leave the distinct estimates as
//! upper bounds until one batch's net removals from a relation reach a
//! quarter of its post-update rows, which triggers a single-relation
//! re-gather.
//!
//! **Materialize vs. aggregate.**  Sensitivity consumers read only
//! *aggregates* of most lattice entries — join sizes and per-boundary-key
//! maximum weights — so the cache additionally decides, per mask, whether
//! a sub-join is worth keeping as tuples at all.  Masks another mask
//! decomposes through ([`JoinPlan::is_chain_parent`]) and the full join
//! stay materialized; terminal masks whose only consumers are aggregate
//! reads are evaluated **count-only**: [`join::hash_join_step_agg`]
//! streams hash-probe matches straight into grouped saturating
//! accumulators (an [`AggSummary`]) without building a [`JoinResult`],
//! pre-filtering probe rows against a blocked Bloom filter built from the
//! build side's key hashes (no false negatives, so the surviving match
//! sequence is identical).  The decision is owned by [`AggMode`] — set only
//! through [`ExecContext::with_agg_mode`] or
//! [`ShardedSubJoinCache::with_agg_mode`], never from the environment —
//! recorded on [`PlanNodeStats::aggregated`], and changes *how much work
//! and memory* the same numbers cost — never the numbers: every aggregate
//! is byte-identical to folding the materializing engine's output, which
//! is retained as the cross-check oracle ([`AggMode::Never`]).
//!
//! # Parallel execution
//!
//! The [`exec`] module provides a dependency-free scoped worker pool with a
//! [`Parallelism`] knob and a **morsel-driven, work-stealing scheduler**:
//! work is cut into fixed-size index morsels that workers claim dynamically
//! from a shared atomic counter, and per-worker claim counts surface through
//! [`SchedulerStats`].  The join engine's probe loops partition across the
//! pool ([`join::hash_join_step_with`]) and [`ShardedSubJoinCache`]
//! populates each lattice level by stealing — with outputs that are
//! **byte-identical** to sequential execution at every worker count and
//! morsel size (morsel boundaries are pure functions of the input length
//! and results merge in morsel order; only *claiming* order varies), so the
//! determinism contract above is unchanged.  Defaults come from [`Parallelism::available`] (the
//! `DPSYN_THREADS` environment variable — read once per process — or the
//! machine's core count); `Parallelism::SEQUENTIAL` is the exact
//! single-threaded code path.
//!
//! The probe loops themselves are **batched**: probe keys are projected and
//! hashed a batch at a time before the chains are walked (see the
//! [`join`](mod@join) module docs).
//!
//! # Execution contexts
//!
//! [`ExecContext`] ([`context`]) bundles the parallelism knob with
//! **persistent, instance-fingerprinted caches**: a small LRU of per-instance
//! slots, each holding the sub-join lattice that survives across calls (so
//! repeated sensitivity enumerations over the same `(query, instance)` pair
//! reuse the `2^m` subset lattice instead of rebuilding it), a cached full
//! join for repeated query answering, and the pair's cost-based
//! [`JoinPlan`] shared by every checkout.  It backs the facade crate's
//! `dpsyn::Session`.  Cache reuse never changes output bytes — see the
//! [`context`] module docs for the contract.
//!
//! # Streaming updates
//!
//! The [`stream`] module maintains the caches across **applied write
//! batches**: an [`UpdateBatch`] of mixed inserts and deletes is folded into
//! the live instance while the cached `2^m` sub-join lattice (full join
//! included) is updated *in place*, semi-naive style — per relation,
//! Δ-relations are joined against the current intermediates and folded in,
//! with deletes as weight retraction — instead of rebuilt.  [`ExecContext::apply_updates`] migrates the warm LRU
//! slot across the [`instance_fingerprint`] transition so caches survive
//! writes, and the rebuild-from-scratch path remains the cross-check oracle:
//! maintained state is byte-identical to a cold rebuild at every thread
//! count and morsel size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod cache;
pub mod context;
pub mod cover;
pub mod degree;
pub mod error;
pub mod exec;
pub mod hash;
pub mod hypergraph;
pub mod instance;
pub mod join;
pub mod naive;
pub mod plan;
pub mod relation;
pub mod stream;
pub mod tree;
pub mod tuple;

pub use attr::{AttrId, Attribute, Schema};
pub use cache::{Keep, ShardedSubJoinCache};
pub use context::{
    instance_fingerprint, EvictionStats, ExecContext, UpdateReport, DEFAULT_CACHE_SLOTS,
    DEFAULT_MIN_PAR_INSTANCE,
};
pub use cover::{agm_bound, fractional_edge_cover, fractional_edge_cover_number};
pub use degree::{deg_multi, deg_single, max_degree, psi};
pub use error::RelationalError;
pub use exec::{Parallelism, SchedulerStats};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hypergraph::JoinQuery;
pub use instance::{Instance, NeighborEdit};
pub use join::{
    fold_order, grouped_join_size, hash_join_step_agg, hash_join_step_with, join, join_size,
    join_subset, AggSummary, JoinResult,
};
pub use plan::{
    AggMode, DistinctSketch, JoinPlan, PlanNodeStats, PlanStats, RelationStats, SharedJoinPlan,
    PLAN_MAX_RELATIONS,
};
pub use relation::Relation;
pub use stream::{apply_batch, UpdateBatch, UpdateOp, UpdateStats};
pub use tree::AttributeTree;
pub use tuple::{project, project_positions, KeyArena, TupleKey, Value, INLINE_ARITY};

/// Result alias used throughout the relational crate.
pub type Result<T> = std::result::Result<T, RelationalError>;
