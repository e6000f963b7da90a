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
//! * multi-table instances, whose clones share relations copy-on-write, and
//!   neighbouring-instance edits ([`instance`]),
//! * multi-way natural **hash-join** evaluation and grouped join sizes
//!   ([`join`](mod@join)), with the original `BTreeMap` engine retained as
//!   a cross-check oracle ([`naive`]),
//! * the sub-join lattice behind relation-subset enumerations ([`lattice`]),
//! * validated streaming insert/delete batches ([`stream`]),
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
//! a full join is only ever produced by the size-ordered fold
//! ([`fold_order`]) — its physical order is deterministic at every thread
//! count.
//!
//! # The sub-join lattice
//!
//! [`SubJoinLattice::build`] joins every non-empty proper subset of a
//! query's relations, one hash-join step per subset, so that residual
//! sensitivity's `2^m`-subset enumeration does not re-join each subset
//! from the base relations.  Each subset is built from the subset minus its
//! highest relation index (the fixed-prefix chain), walking the lattice
//! level by level with each level's subsets spread over the worker pool;
//! [`SubJoinLattice::get`] reads one subset by bitmask.  A sub-join is the
//! same weighted tuple set under every decomposition and lattice entries
//! are read only as join inputs and through integer aggregates, so the output bytes equal the
//! naive oracle's at every thread count.
//!
//! # Parallel execution
//!
//! The [`exec`] module provides a dependency-free scoped worker pool with a
//! [`Parallelism`] knob and a **morsel-driven, work-stealing scheduler**:
//! work is cut into fixed-size index morsels that workers claim dynamically
//! from a shared atomic counter.  The join engine's probe loops partition
//! across the pool (see the [`join`](mod@join) module docs) and
//! [`SubJoinLattice::build`] spreads each lattice level's subsets over it —
//! with outputs that are **byte-identical** to sequential execution at
//! every worker count and morsel size (morsel boundaries are pure functions
//! of the input length and results merge in morsel order; only *claiming*
//! order varies), so the determinism contract above is unchanged.
//! Defaults come from [`Parallelism::available`] (the `DPSYN_THREADS`
//! environment variable — read once per process — or the machine's core
//! count); `Parallelism::SEQUENTIAL` is the exact single-threaded code path.
//!
//! The probe loops themselves are **batched**: probe keys are projected and
//! hashed a batch at a time before the chains are walked (see the
//! [`join`](mod@join) module docs).
//!
//! # Execution contexts
//!
//! [`ExecContext`] ([`context`]) bundles the parallelism knob with
//! **persistent, instance-fingerprinted caches**: a small LRU of per-instance
//! slots, each holding a cached full join for repeated query answering and
//! a memo of release-invariant values (the boundary values `T_F(I)` a
//! sub-join lattice yields among them, so a sensitivity sweep over the same
//! `(query, instance)` pair builds the lattice once).  The lattice itself is
//! a local of each computation and is never kept.  The context backs the
//! facade crate's `dpsyn::Session`.  Cache reuse never changes output
//! bytes — see the [`context`] module docs for the contract.
//!
//! # Streaming updates
//!
//! The [`stream`] module validates **write batches**: an [`UpdateBatch`] of
//! mixed inserts and deletes is applied by its net effect.
//! [`ExecContext::apply_updates`] applies it to the live instance and drops
//! the pair's warm LRU slot, so the caches of the updated instance rebuild
//! lazily under its new [`instance_fingerprint`] — byte-identical to a cold
//! context at every thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod context;
pub mod cover;
pub mod degree;
pub mod error;
pub mod exec;
pub mod hash;
pub mod hypergraph;
pub mod instance;
pub mod join;
pub mod lattice;
pub mod naive;
pub mod relation;
pub mod stream;
pub mod tree;
pub mod tuple;

pub use attr::{AttrId, Attribute, Schema};
pub use context::{
    instance_fingerprint, EvictionStats, ExecContext, UpdateReport, DEFAULT_CACHE_SLOTS,
    DEFAULT_MIN_PAR_INSTANCE,
};
pub use cover::{agm_bound, fractional_edge_cover, fractional_edge_cover_number};
pub use degree::{deg_multi, deg_single, max_degree, psi};
pub use error::RelationalError;
pub use exec::Parallelism;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hypergraph::JoinQuery;
pub use instance::{Instance, NeighborEdit};
pub use join::{fold_order, grouped_join_size, join, join_size, join_subset, JoinResult};
pub use lattice::SubJoinLattice;
pub use relation::Relation;
pub use stream::{apply_batch, UpdateBatch, UpdateOp};
pub use tree::AttributeTree;
pub use tuple::{project, project_positions, KeyArena, TupleKey, Value, INLINE_ARITY};

/// Result alias used throughout the relational crate.
pub type Result<T> = std::result::Result<T, RelationalError>;
