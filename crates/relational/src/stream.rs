//! Streaming ingestion: semi-naive batch delta maintenance of the sub-join
//! lattice.
//!
//! Real write traffic arrives as **batches** of inserts and deletes across
//! relations, and historically any real update orphaned every warm cache
//! under the old instance fingerprint and forced a full lattice rebuild.
//! This module makes an [`UpdateBatch`] a first-class operation: the cached
//! `2^m` sub-join intermediates are **updated in place**, semi-naive style,
//! instead of rebuilt.
//!
//! # The maintenance identity
//!
//! Joins over frequency-annotated relations are multilinear: for a relation
//! subset `E` and an update `R_i ← R_i + Δ_i`,
//!
//! ```text
//! J_E(…, R_i + Δ_i, …) = J_E(…, R_i, …) + Δ_i ⋈ J_{E∖{i}}
//! ```
//!
//! because every output row uses exactly one tuple of relation `i` and its
//! weight is linear in that tuple's frequency.  Processing the batch one
//! relation at a time (ascending index) telescopes: when relation `i` is
//! handled, relations `< i` are already at their new contents and relations
//! `> i` still at their old ones, and every cached mask `E ∋ i` gains
//! `Δ_i⁺ ⋈ J_{E∖{i}}` and loses `Δ_i⁻ ⋈ J_{E∖{i}}` — where `J_{E∖{i}}` is
//! the *current* (mixed-state) value, read straight from the lattice when
//! cached and joined from the partially-updated instance otherwise.  Masks
//! without bit `i` are untouched by step `i`.  Deletes are weight
//! retraction: the removed delta join is subtracted row by row, and rows
//! whose weight reaches zero leave the entry, exactly as they would never
//! have been produced by a rebuild.
//!
//! # Indexed in-place patching
//!
//! Entries are patched **in place** through per-entry streaming indexes
//! (`EntryIndex`, cached across batches in the context's LRU slot): a
//! full-tuple → row map locates the row a delta touches, and lazily-built
//! key adjacencies on the parent entry enumerate exactly the rows a delta
//! tuple joins with.  A batch therefore costs `O(Δ × matches)` — not a scan
//! of any entry or parent — which is what makes single-op batches orders of
//! magnitude cheaper than a rebuild (`stream/*` rows of `BENCH_join.json`).
//! Retracted rows are swap-removed; physical row order diverges from a
//! rebuild's probe order (see "Determinism" below for why that stays
//! invisible).  A cost guard drops a mask to the
//! rebuild fallback when its delta-join output rivals the entry size, where
//! the batched probe loops of a fresh sub-join are cheaper than row-at-a-time
//! patching — large batches degrade to a rebuild instead of pathologically
//! exceeding one.
//!
//! Patching is also bounded **across** masks: the per-relation telescoping
//! pays one delta join per cached mask per touched relation, so a batch
//! that rewrites a sizeable share of its relations costs roughly
//! `relations_touched ×` a straight rebuild no matter how good each patch
//! is.  Once the net batch crosses that regime
//! (`BULK_REBUILD_MIN_ROWS` changed tuples and at least
//! `1/BULK_REBUILD_FACTOR` of the touched relations' rows), maintenance
//! skips patching entirely and recomputes every affected mask from the
//! updated instance through the slot's cost-based plan chain — ascending
//! mask order, memoising shared chain prefixes — which is what keeps the
//! largest `stream/*` batches of `BENCH_join.json` from losing to a cold
//! rebuild.
//!
//! # Determinism and the rebuild oracle
//!
//! A maintained entry holds exactly the weighted tuple set a from-scratch
//! rebuild of the updated instance produces: the additive identity above is
//! exact over `Z≥0` weights.  Its *physical* row order is not a rebuild's,
//! and [`JoinResult::iter_unordered`] exposes that order — an `f64` sum
//! over it (a truth answer) rounds differently.  Maintained entries are
//! therefore only ever read as integer aggregates (group weights, join
//! sizes) or as join inputs, and the context never maintains the full join
//! that truth answers read: `ExecContext::apply_updates` drops it and the
//! next `shared_join` recomputes it with the cold fold.  Downstream bytes
//! are identical to a cold rebuild at every thread count and morsel size.
//! The rebuild path stays available as the cross-check oracle
//! ([`apply_batch`] + a fresh context), and `tests/properties.rs` asserts
//! maintained ≡ rebuilt ≡ naive per mask.
//!
//! The single caveat is **saturation**: engine weights saturate at
//! `u128::MAX` instead of overflowing, and subtraction from a saturated
//! value is not invertible.  Maintenance therefore watches for saturated
//! weights (and for additions that would saturate); any affected mask is
//! dropped from the memo and recomputed from the fully-updated instance at
//! the end of the batch — falling back to exactly what a rebuild would
//! store ([`UpdateStats::rebuilt_masks`] counts these).
//!
//! The context-level entry point is `ExecContext::apply_updates`
//! ([`crate::context`]), which additionally migrates the LRU slot from the
//! old instance fingerprint to the new one so the maintained state stays
//! reachable.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::attr::AttrId;
use crate::exec::Parallelism;
use crate::hash::{FxHashMap, FxHashSet};
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::{hash_join_step_with, join_subset_impl, JoinResult};
use crate::plan::JoinPlan;
use crate::relation::Relation;
use crate::tuple::{intersect_attrs, project_into, TupleKey, Value};
use crate::{RelationalError, Result};

/// One insert or delete of a streaming update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add `count` copies of `tuple` to relation `relation`.
    Insert {
        /// Index of the relation receiving the tuples.
        relation: usize,
        /// The tuple, in the relation's (sorted) attribute order.
        tuple: Vec<Value>,
        /// Number of copies to add.
        count: u64,
    },
    /// Remove `count` copies of `tuple` from relation `relation`.
    Delete {
        /// Index of the relation losing the tuples.
        relation: usize,
        /// The tuple, in the relation's (sorted) attribute order.
        tuple: Vec<Value>,
        /// Number of copies to remove.
        count: u64,
    },
}

impl UpdateOp {
    /// The relation the op touches.
    pub fn relation(&self) -> usize {
        match self {
            UpdateOp::Insert { relation, .. } | UpdateOp::Delete { relation, .. } => *relation,
        }
    }

    /// The op with insert and delete swapped (same relation, tuple, count).
    pub fn inverse(&self) -> UpdateOp {
        match self {
            UpdateOp::Insert {
                relation,
                tuple,
                count,
            } => UpdateOp::Delete {
                relation: *relation,
                tuple: tuple.clone(),
                count: *count,
            },
            UpdateOp::Delete {
                relation,
                tuple,
                count,
            } => UpdateOp::Insert {
                relation: *relation,
                tuple: tuple.clone(),
                count: *count,
            },
        }
    }
}

/// A batch of inserts and deletes applied **atomically** to an instance.
///
/// The batch's semantics are its *net* effect: per `(relation, tuple)` the
/// inserted and deleted counts are accumulated and only the difference is
/// applied, so a tuple inserted and deleted within one batch cancels out.
/// Validation ([`UpdateBatch::check`]) is against the net effect too — a
/// delete may exceed the current frequency as long as inserts in the same
/// batch cover the difference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Appends an insert of `count` copies of `tuple` into `relation`.
    pub fn insert(&mut self, relation: usize, tuple: Vec<Value>, count: u64) -> &mut Self {
        self.ops.push(UpdateOp::Insert {
            relation,
            tuple,
            count,
        });
        self
    }

    /// Appends a delete of `count` copies of `tuple` from `relation`.
    pub fn delete(&mut self, relation: usize, tuple: Vec<Value>, count: u64) -> &mut Self {
        self.ops.push(UpdateOp::Delete {
            relation,
            tuple,
            count,
        });
        self
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: UpdateOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in insertion order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The inverse batch: every insert becomes a delete and vice versa.
    /// Applying a batch and then its inverse restores the original instance
    /// (and, through maintenance, the original fingerprint and lattice
    /// values).
    pub fn inverse(&self) -> UpdateBatch {
        UpdateBatch {
            ops: self.ops.iter().map(UpdateOp::inverse).collect(),
        }
    }

    /// Validates the batch against `(query, instance)` without applying it:
    /// relation indices in range, tuple arities and domains correct, and the
    /// net per-tuple frequencies neither underflow below zero nor overflow
    /// `u64`.
    pub fn check(&self, query: &JoinQuery, instance: &Instance) -> Result<()> {
        self.net_deltas(query, instance).map(|_| ())
    }

    /// Folds the ops into per-relation **net** added/removed tuple maps,
    /// validating everything [`UpdateBatch::check`] promises along the way.
    pub(crate) fn net_deltas(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> Result<Vec<RelationDelta>> {
        let m = query.num_relations();
        if instance.num_relations() != m {
            return Err(RelationalError::RelationCountMismatch {
                expected: m,
                got: instance.num_relations(),
            });
        }
        let schema = query.schema();
        // Signed net count per (relation, tuple), accumulated in i128 so no
        // intermediate mix of u64 inserts and deletes can overflow.
        let mut nets: Vec<BTreeMap<Vec<Value>, i128>> = vec![BTreeMap::new(); m];
        for op in &self.ops {
            let (relation, tuple, signed) = match op {
                UpdateOp::Insert {
                    relation,
                    tuple,
                    count,
                } => (*relation, tuple, *count as i128),
                UpdateOp::Delete {
                    relation,
                    tuple,
                    count,
                } => (*relation, tuple, -(*count as i128)),
            };
            if relation >= m {
                return Err(RelationalError::InvalidUpdate(format!(
                    "relation index {relation} out of range for a {m}-relation query"
                )));
            }
            let attrs = instance.relation(relation).attrs();
            if tuple.len() != attrs.len() {
                return Err(RelationalError::ArityMismatch {
                    expected: attrs.len(),
                    got: tuple.len(),
                });
            }
            for (pos, &attr) in attrs.iter().enumerate() {
                let domain = schema.domain_size(attr)?;
                if tuple[pos] >= domain {
                    return Err(RelationalError::ValueOutOfDomain {
                        attr: attr.0,
                        value: tuple[pos],
                        domain_size: domain,
                    });
                }
            }
            if signed != 0 {
                *nets[relation].entry(tuple.clone()).or_insert(0) += signed;
            }
        }
        let mut deltas = Vec::with_capacity(m);
        for (relation, net) in nets.into_iter().enumerate() {
            let rel = instance.relation(relation);
            let mut added = BTreeMap::new();
            let mut removed = BTreeMap::new();
            for (tuple, signed) in net {
                let old = rel.freq(&tuple) as i128;
                let new = old + signed;
                if new < 0 {
                    return Err(RelationalError::FrequencyUnderflow);
                }
                if new > u64::MAX as i128 {
                    return Err(RelationalError::FrequencyOverflow);
                }
                match signed.cmp(&0) {
                    std::cmp::Ordering::Greater => {
                        added.insert(tuple, signed as u64);
                    }
                    std::cmp::Ordering::Less => {
                        removed.insert(tuple, (-signed) as u64);
                    }
                    std::cmp::Ordering::Equal => {}
                }
            }
            deltas.push(RelationDelta {
                relation,
                added,
                removed,
            });
        }
        Ok(deltas)
    }
}

/// The validated net effect of a batch on one relation: disjoint added and
/// removed tuple maps (net counts, never zero).
#[derive(Debug, Clone)]
pub(crate) struct RelationDelta {
    relation: usize,
    added: BTreeMap<Vec<Value>, u64>,
    removed: BTreeMap<Vec<Value>, u64>,
}

impl RelationDelta {
    /// Index of the relation the delta touches.
    pub(crate) fn relation(&self) -> usize {
        self.relation
    }

    /// The net added tuples (tuple → count, counts never zero) — what an
    /// insert-only statistics sketch can absorb directly.
    pub(crate) fn added(&self) -> &BTreeMap<Vec<Value>, u64> {
        &self.added
    }

    /// Number of distinct tuples the batch nets out to removing weight from
    /// (insert-only sketches can only over-estimate past any removal).
    pub(crate) fn removed_rows(&self) -> usize {
        self.removed.len()
    }

    /// Whether the relation's contents are unchanged by the batch.
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of distinct tuples whose frequency the batch changes (net).
    fn net_rows(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Applies the net delta to the live relation.  Infallible after
    /// [`UpdateBatch::net_deltas`] validated the final frequencies.
    fn apply_to(&self, rel: &mut Relation) {
        for (tuple, &count) in &self.added {
            let new = rel.freq(tuple).checked_add(count).expect("validated");
            rel.set(tuple.clone(), new).expect("validated arity");
        }
        for (tuple, &count) in &self.removed {
            let new = rel.freq(tuple).checked_sub(count).expect("validated");
            rel.set(tuple.clone(), new).expect("validated arity");
        }
    }
}

/// Statistics of one maintained batch, surfaced through
/// `ExecContext::apply_updates` for observability and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Lattice entries patched in place via the semi-naive identity.
    pub maintained_masks: usize,
    /// Lattice entries that hit the saturation guard and were recomputed
    /// from the updated instance instead (the rebuild fallback).
    pub rebuilt_masks: usize,
    /// Relations whose contents actually changed (net).
    pub relations_touched: usize,
}

/// Applies `batch` to `instance` with **no** cache maintenance — the plain
/// mutation path, also the rebuild-from-scratch oracle's first half.
/// Validates first; the instance is untouched on error.
pub fn apply_batch(query: &JoinQuery, instance: &mut Instance, batch: &UpdateBatch) -> Result<()> {
    let deltas = batch.net_deltas(query, instance)?;
    apply_net_deltas(instance, &deltas);
    Ok(())
}

/// Applies pre-validated net deltas to the live instance.  Infallible after
/// [`UpdateBatch::net_deltas`] validated the final frequencies.
pub(crate) fn apply_net_deltas(instance: &mut Instance, deltas: &[RelationDelta]) {
    for delta in deltas {
        delta.apply_to(instance.relation_mut(delta.relation));
    }
}

/// Applies a batch's validated net `deltas` (from
/// [`UpdateBatch::net_deltas`], computed once by the caller and shared with
/// the sketch patch) to `instance` while maintaining `memo` — a sub-join
/// lattice keyed by relation-subset bitmask — in place via the semi-naive
/// identity.
///
/// On success every surviving memo entry equals (as a weighted tuple set)
/// the corresponding sub-join of the updated instance.  Entries that hit the
/// saturation guard are recomputed from scratch; nothing is ever served
/// stale.
///
/// `plan` routes every fallback sub-join (missing parents, post-batch
/// rebuilds) through the cost-based decomposition chain — reusing the
/// deepest memoised ancestor and joining one pivot relation per step —
/// instead of the naive size-ordered fold over all of the mask's relations.
/// This is what keeps very large batches (where the cost guard degrades
/// most masks to rebuilds) from losing to a cold planner rebuild.  Without
/// a cost-based plan the naive fold is used, as before.
pub(crate) fn maintain_memo(
    query: &JoinQuery,
    instance: &mut Instance,
    memo: &mut FxHashMap<u32, Arc<JoinResult>>,
    indexes: &mut FxHashMap<u32, EntryIndex>,
    deltas: &[RelationDelta],
    plan: Option<&JoinPlan>,
    par: Parallelism,
) -> Result<UpdateStats> {
    let m = query.num_relations();
    debug_assert!(m <= 31, "mask-keyed memos cap at 31 relations");
    // Bulk-rebuild escape hatch: the telescoping below pays one delta join
    // per cached mask per touched relation, so a batch that rewrites a
    // sizeable share of its relations costs ~relations_touched× a straight
    // rebuild however cheap each patch is.  Past the threshold, recompute
    // every affected mask through the plan chain instead of patching.
    let net_rows: usize = deltas.iter().map(RelationDelta::net_rows).sum();
    let touched_rows: usize = deltas
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| instance.relation(d.relation).distinct_count())
        .sum();
    if net_rows >= BULK_REBUILD_MIN_ROWS && net_rows * BULK_REBUILD_FACTOR >= touched_rows {
        return bulk_rebuild(query, instance, memo, indexes, deltas, plan, par);
    }
    let mut stats = UpdateStats::default();
    // Masks dropped to the rebuild fallback; recomputed after the batch.
    let mut rebuild: FxHashSet<u32> = FxHashSet::default();
    for delta in deltas {
        if delta.is_empty() {
            continue;
        }
        stats.relations_touched += 1;
        let i = delta.relation;
        let rel_attrs = instance.relation(i).attrs().to_vec();
        // The live relation moves to its new contents first; every mask
        // maintained below reads only relations ≠ i from the instance.
        delta.apply_to(instance.relation_mut(i));
        let bit = 1u32 << i;
        let mut masks: Vec<u32> = memo
            .keys()
            .copied()
            .filter(|mask| mask & bit != 0)
            .collect();
        masks.sort_unstable();
        for mask in masks {
            let parent_mask = mask & !bit;
            // J_{E∖{i}} in the current mixed state: relations ≤ i new,
            // relations > i old — warm from the memo when cached, joined
            // from the partially-updated instance otherwise (and memoised,
            // so later steps maintain it instead of recomputing).
            let parent: Option<Arc<JoinResult>> = if parent_mask == 0 {
                None
            } else if let Some(p) = memo.get(&parent_mask) {
                Some(Arc::clone(p))
            } else {
                let p = planned_subset(query, instance, memo, &rebuild, plan, parent_mask, par)?;
                // Memoise so later steps maintain it instead of recomputing
                // — unless the mask awaits a rebuild, in which case the
                // final pass provides the authoritative value.
                if !rebuild.contains(&parent_mask) {
                    memo.insert(parent_mask, Arc::clone(&p));
                }
                Some(p)
            };
            let mut target = memo.remove(&mask).expect("mask drawn from the memo");
            let mut tindex = indexes
                .remove(&mask)
                .filter(|ix| ix.ident == Arc::as_ptr(&target) as usize)
                .unwrap_or_else(|| EntryIndex::build(&target));
            if tindex.saturated {
                // Incremental arithmetic cannot mirror a rebuild through a
                // saturated weight; recompute from the final instance.
                rebuild.insert(mask);
                continue;
            }
            // The parent's key index, validated against its Arc identity
            // and (re)built on demand.
            let parent_index: Option<&mut EntryIndex> = match parent.as_ref() {
                None => None,
                Some(p) => {
                    let ix = indexes
                        .entry(parent_mask)
                        .or_insert_with(|| EntryIndex::build(p));
                    if ix.ident != Arc::as_ptr(p) as usize {
                        *ix = EntryIndex::build(p);
                    }
                    Some(ix)
                }
            };
            let ok = patch_mask(
                &mut target,
                &mut tindex,
                parent.as_deref(),
                parent_index,
                delta,
                &rel_attrs,
            );
            match ok {
                Some(()) => {
                    tindex.ident = Arc::as_ptr(&target) as usize;
                    memo.insert(mask, target);
                    indexes.insert(mask, tindex);
                    stats.maintained_masks += 1;
                }
                None => {
                    // Saturation guard tripped mid-patch: the entry (and
                    // its index) are no longer reliable — drop both so no
                    // later step consumes them, recompute at the end.
                    rebuild.insert(mask);
                }
            }
        }
    }
    let mut pending: Vec<u32> = rebuild.iter().copied().collect();
    pending.sort_unstable();
    stats.rebuilt_masks = pending.len();
    // Ascending mask order: a rebuilt subset re-enters the memo before any
    // larger pending mask walks its chain, so each rebuild reuses the ones
    // before it instead of starting over.
    for mask in pending {
        rebuild.remove(&mask);
        let fresh = planned_subset(query, instance, memo, &rebuild, plan, mask, par)?;
        indexes.remove(&mask);
        memo.insert(mask, fresh);
    }
    Ok(stats)
}

/// Minimum net changed tuples before the bulk-rebuild path is considered:
/// below this, per-mask patching is always at least competitive and the
/// streaming indexes stay warm.
const BULK_REBUILD_MIN_ROWS: usize = 64;

/// Bulk-rebuild density threshold: the escape hatch fires when the net
/// batch changes at least `1/BULK_REBUILD_FACTOR` of the touched
/// relations' distinct rows (and clears [`BULK_REBUILD_MIN_ROWS`]).
const BULK_REBUILD_FACTOR: usize = 8;

/// The bulk-rebuild path for batches that rewrite a sizeable share of
/// their relations: applies every net delta, drops all memo entries whose
/// mask intersects a touched relation, and recomputes them from the
/// updated instance in ascending mask order through the plan chain — so
/// each rebuilt subset (and every memoised chain prefix) is reused by the
/// larger masks after it, exactly like the saturation fallback.  Costs one
/// plan-routed lattice rebuild regardless of batch size, instead of one
/// delta join per cached mask per touched relation.
fn bulk_rebuild(
    query: &JoinQuery,
    instance: &mut Instance,
    memo: &mut FxHashMap<u32, Arc<JoinResult>>,
    indexes: &mut FxHashMap<u32, EntryIndex>,
    deltas: &[RelationDelta],
    plan: Option<&JoinPlan>,
    par: Parallelism,
) -> Result<UpdateStats> {
    let mut stats = UpdateStats::default();
    let mut touched = 0u32;
    for delta in deltas {
        if delta.is_empty() {
            continue;
        }
        stats.relations_touched += 1;
        touched |= 1u32 << delta.relation;
        delta.apply_to(instance.relation_mut(delta.relation));
    }
    let mut rebuild: FxHashSet<u32> = memo
        .keys()
        .copied()
        .filter(|mask| mask & touched != 0)
        .collect();
    let mut pending: Vec<u32> = rebuild.iter().copied().collect();
    pending.sort_unstable();
    stats.rebuilt_masks = pending.len();
    // Drop every stale entry (and its index) up front so the chain walks
    // below can only ever consume still-valid or freshly-rebuilt values.
    for mask in &pending {
        memo.remove(mask);
        indexes.remove(mask);
    }
    for mask in pending {
        rebuild.remove(&mask);
        let fresh = planned_subset(query, instance, memo, &rebuild, plan, mask, par)?;
        memo.insert(mask, fresh);
    }
    Ok(stats)
}

/// Builds the sub-join of `mask` over the instance's **current** contents by
/// walking `plan`'s decomposition chain down to the deepest usable base — a
/// memoised ancestor not awaiting rebuild, else a single relation — and
/// joining one pivot relation per step back up.  Intermediate chain masks
/// are memoised on the way (they hold correct current-state values, and
/// later maintenance steps patch them like any other entry); masks awaiting
/// rebuild never re-enter the memo here, so stale values cannot be
/// resurrected.  Falls back to the naive size-ordered fold when no
/// cost-based plan (matching the query's arity) is available.
fn planned_subset(
    query: &JoinQuery,
    instance: &Instance,
    memo: &mut FxHashMap<u32, Arc<JoinResult>>,
    rebuild: &FxHashSet<u32>,
    plan: Option<&JoinPlan>,
    mask: u32,
    par: Parallelism,
) -> Result<Arc<JoinResult>> {
    let usable = plan.filter(|p| p.is_cost_based() && p.num_relations() == query.num_relations());
    let Some(plan) = usable else {
        return Ok(Arc::new(join_subset_impl(
            query,
            instance,
            &mask_rels(mask),
            par,
        )?));
    };
    // Descend: peel the plan's pivot until a usable base is found.
    let mut pivots: Vec<usize> = Vec::new();
    let mut cur = mask;
    let mut base: Option<Arc<JoinResult>> = None;
    loop {
        if cur != mask && !rebuild.contains(&cur) {
            if let Some(hit) = memo.get(&cur) {
                base = Some(Arc::clone(hit));
                break;
            }
        }
        if cur.count_ones() == 1 {
            break;
        }
        let pivot = plan.pivot(cur);
        pivots.push(pivot);
        cur &= !(1u32 << pivot);
    }
    let mut acc = match base {
        Some(hit) => hit,
        None => Arc::new(JoinResult::from_relation(
            instance.relation(cur.trailing_zeros() as usize),
        )),
    };
    // Ascend: one hash-join step per peeled pivot.
    let mut built = cur;
    for &pivot in pivots.iter().rev() {
        let next = Arc::new(hash_join_step_with(&acc, instance.relation(pivot), par)?);
        built |= 1u32 << pivot;
        if built != mask && !rebuild.contains(&built) {
            memo.insert(built, Arc::clone(&next));
        }
        acc = next;
    }
    Ok(acc)
}

/// The relation indices of a subset bitmask, ascending.
fn mask_rels(mask: u32) -> Vec<usize> {
    (0..32).filter(|&r| mask & (1 << r) != 0).collect()
}

/// A per-key row adjacency over one entry: row indices grouped by the
/// projection onto a fixed attribute subset.
#[derive(Debug)]
struct KeyMap {
    /// Column positions of the key attributes within the entry's tuples.
    positions: Vec<usize>,
    /// Row indices per projected key.
    rows: FxHashMap<TupleKey, Vec<u32>>,
    /// `slot_of[row]` = position of `row` within its key's list, so a
    /// removal never scans the list — under heavy-hitter skew one hub key
    /// can hold thousands of rows, and a scan per retraction would make
    /// large delete batches quadratic.
    slot_of: Vec<u32>,
}

/// The streaming index of one memoised lattice entry, cached across batches
/// (in the context's LRU slot) so a steady update stream pays the build once
/// and every later batch costs `O(Δ × matches)` instead of `O(entry)`.
///
/// Positions refer to the physical rows of one specific [`JoinResult`]
/// allocation, identified by `ident` (the entry's `Arc` pointer); a
/// mismatch — the entry was replaced behind the index's back — just
/// triggers a rebuild of the index, never a wrong answer.
#[derive(Debug)]
pub(crate) struct EntryIndex {
    /// `Arc::as_ptr` of the indexed allocation.
    ident: usize,
    /// Whether any stored weight sits at `u128::MAX` (the saturation
    /// sentinel): such entries take the rebuild fallback, exactly as the
    /// full-scan guard of a copying patch would conclude.
    saturated: bool,
    /// Full tuple → physical row.
    by_tuple: FxHashMap<TupleKey, u32>,
    /// Lazily-built key adjacencies, one per attribute subset some delta
    /// relation joins this entry on.
    by_key: FxHashMap<Vec<AttrId>, KeyMap>,
}

impl EntryIndex {
    /// Indexes `entry` by full tuple (key adjacencies are built on demand).
    fn build(entry: &Arc<JoinResult>) -> Self {
        let mut by_tuple =
            FxHashMap::with_capacity_and_hasher(entry.distinct_count(), Default::default());
        let mut saturated = false;
        for (r, (tuple, w)) in entry.iter_unordered().enumerate() {
            saturated |= w == u128::MAX;
            by_tuple.insert(TupleKey::from_slice(tuple), r as u32);
        }
        EntryIndex {
            ident: Arc::as_ptr(entry) as usize,
            saturated,
            by_tuple,
            by_key: FxHashMap::default(),
        }
    }

    /// The key adjacency of `entry` over `key_attrs`, built on first use.
    fn key_map(&mut self, entry: &JoinResult, key_attrs: &[AttrId]) -> &KeyMap {
        self.by_key.entry(key_attrs.to_vec()).or_insert_with(|| {
            let positions: Vec<usize> = key_attrs
                .iter()
                .map(|a| {
                    entry
                        .attrs()
                        .binary_search(a)
                        .expect("key attrs come from the entry's attribute set")
                })
                .collect();
            let mut rows: FxHashMap<TupleKey, Vec<u32>> = FxHashMap::default();
            let mut slot_of = Vec::with_capacity(entry.distinct_count());
            let mut scratch = Vec::with_capacity(positions.len());
            for (r, (tuple, _)) in entry.iter_unordered().enumerate() {
                project_into(tuple, &positions, &mut scratch);
                let list = match rows.get_mut(scratch.as_slice()) {
                    Some(list) => list,
                    None => rows.entry(TupleKey::from_slice(&scratch)).or_default(),
                };
                list.push(r as u32);
                slot_of.push((list.len() - 1) as u32);
            }
            KeyMap {
                positions,
                rows,
                slot_of,
            }
        })
    }

    /// Records the append of row `r` (the new last row) holding `tuple`.
    fn on_append(&mut self, tuple: &[Value], r: u32) {
        self.by_tuple.insert(TupleKey::from_slice(tuple), r);
        let mut scratch = Vec::new();
        for km in self.by_key.values_mut() {
            project_into(tuple, &km.positions, &mut scratch);
            let list = match km.rows.get_mut(scratch.as_slice()) {
                Some(list) => list,
                None => km
                    .rows
                    .entry(TupleKey::from_slice(&scratch))
                    .or_insert_with(Vec::new),
            };
            list.push(r);
            km.slot_of.push((list.len() - 1) as u32);
        }
    }

    /// Records the swap-removal of row `r` from `entry` (still holding the
    /// pre-removal rows): `r` leaves every map and the last row's entries
    /// are repointed at `r`.
    fn on_swap_remove(&mut self, entry: &JoinResult, r: u32) {
        let last = (entry.distinct_count() - 1) as u32;
        self.by_tuple.remove(entry.row(r as usize));
        let mut scratch = Vec::new();
        for km in self.by_key.values_mut() {
            project_into(entry.row(r as usize), &km.positions, &mut scratch);
            let list = km
                .rows
                .get_mut(scratch.as_slice())
                .expect("indexed row must be present");
            let s = km.slot_of[r as usize] as usize;
            list.swap_remove(s);
            if let Some(&moved) = list.get(s) {
                km.slot_of[moved as usize] = s as u32;
            }
            if list.is_empty() {
                km.rows.remove(scratch.as_slice());
            }
            if r != last {
                // The entry's last row is about to move into position `r`.
                project_into(entry.row(last as usize), &km.positions, &mut scratch);
                let list = km
                    .rows
                    .get_mut(scratch.as_slice())
                    .expect("indexed row must be present");
                let sl = km.slot_of[last as usize] as usize;
                list[sl] = r;
                km.slot_of[r as usize] = sl as u32;
            }
            km.slot_of.pop();
        }
        if r != last {
            *self
                .by_tuple
                .get_mut(entry.row(last as usize))
                .expect("indexed row must be present") = r;
        }
    }
}

/// Patches one lattice entry in place for one relation's net delta:
/// `entry ← entry + Δ⁺ ⋈ parent − Δ⁻ ⋈ parent`, one delta row at a time
/// through the parent's key adjacency (`O(Δ × matches)`, never a scan of
/// the entry or the parent).
///
/// Surviving rows keep their physical position, retracted rows are
/// swap-removed, genuinely new rows are appended — the physical order
/// differs from a rebuild's probe order, but the weighted tuple *set* is
/// identical (see the module docs on which readers may see the order).
///
/// Returns `None` when the entry must be recomputed instead: saturated
/// arithmetic was detected (a weight at `u128::MAX`, an addition that would
/// saturate, or a retraction exceeding the stored weight — possible only
/// downstream of saturation), or the cost guard found the delta-join output
/// as large as the entry itself, at which point a from-scratch sub-join is
/// the cheaper way to reach the identical result.
fn patch_mask(
    target: &mut Arc<JoinResult>,
    tindex: &mut EntryIndex,
    parent: Option<&JoinResult>,
    parent_index: Option<&mut EntryIndex>,
    delta: &RelationDelta,
    rel_attrs: &[AttrId],
) -> Option<()> {
    // Patching costs O(delta-join output) at a per-row constant roughly an
    // order of magnitude above the batched probe loops a rebuild runs, so
    // patching pays only while the delta join is well under the entry size;
    // the floor keeps tiny entries maintaining unconditionally.
    let patch_budget = (target.distinct_count() / 8).max(64);
    match (parent, parent_index) {
        (None, _) => {
            // Singleton mask: the delta rows ARE the delta join.
            if delta.added.len() + delta.removed.len() > patch_budget {
                return None;
            }
            let entry = Arc::make_mut(target);
            for (add, side) in [(true, &delta.added), (false, &delta.removed)] {
                for (tuple, &count) in side {
                    apply_row_delta(entry, tindex, tuple, count as u128, add)?;
                }
            }
        }
        (Some(parent), Some(parent_index)) => {
            let shared = intersect_attrs(rel_attrs, parent.attrs());
            let delta_key_pos: Vec<usize> = shared
                .iter()
                .map(|a| rel_attrs.binary_search(a).expect("shared attr"))
                .collect();
            let key_map = parent_index.key_map(parent, &shared);
            let mut scratch = Vec::with_capacity(delta_key_pos.len());
            let mut matches = 0usize;
            for side in [&delta.added, &delta.removed] {
                for tuple in side.keys() {
                    project_into(tuple, &delta_key_pos, &mut scratch);
                    matches += key_map.rows.get(scratch.as_slice()).map_or(0, Vec::len);
                }
                if matches > patch_budget {
                    return None;
                }
            }
            let entry = Arc::make_mut(target);
            // Entry columns come from the delta tuple where the relation
            // covers them, from the parent row otherwise (shared columns
            // agree by construction — the join matched on them).
            let entry_attrs = entry.attrs().to_vec();
            let merge: Vec<(bool, usize)> = entry_attrs
                .iter()
                .map(|a| match rel_attrs.binary_search(a) {
                    Ok(p) => (true, p),
                    Err(_) => (
                        false,
                        parent
                            .attrs()
                            .binary_search(a)
                            .expect("entry attrs are the union of operand attrs"),
                    ),
                })
                .collect();
            let mut key = Vec::with_capacity(delta_key_pos.len());
            let mut merged = Vec::with_capacity(merge.len());
            for (add, side) in [(true, &delta.added), (false, &delta.removed)] {
                for (tuple, &count) in side {
                    project_into(tuple, &delta_key_pos, &mut key);
                    let Some(rows) = key_map.rows.get(key.as_slice()) else {
                        continue; // the delta row joins with nothing
                    };
                    // Each (delta row, parent row) pair yields a distinct
                    // merged tuple, so every target row is touched at most
                    // once per side.
                    for &p in rows {
                        let w = (count as u128).checked_mul(parent.weight_at(p as usize))?;
                        merged.clear();
                        merged.extend(merge.iter().map(|&(from_delta, pos)| {
                            if from_delta {
                                tuple[pos]
                            } else {
                                parent.row(p as usize)[pos]
                            }
                        }));
                        apply_row_delta(entry, tindex, &merged, w, add)?;
                    }
                }
            }
        }
        (Some(_), None) => unreachable!("parent entries always come with an index"),
    }
    Some(())
}

/// Applies one signed row delta to an indexed entry in place.  `None` means
/// the saturation guard tripped and the entry must be rebuilt.
fn apply_row_delta(
    entry: &mut JoinResult,
    index: &mut EntryIndex,
    tuple: &[Value],
    w: u128,
    add: bool,
) -> Option<()> {
    if w == u128::MAX {
        return None;
    }
    match index.by_tuple.get(tuple).copied() {
        Some(r) => {
            let old = entry.weight_at(r as usize);
            if old == u128::MAX {
                return None;
            }
            let new = if add {
                old.checked_add(w)?
            } else {
                // A retraction exceeding the stored weight can only happen
                // downstream of saturation; bail to the rebuild fallback.
                old.checked_sub(w)?
            };
            if new == u128::MAX {
                return None;
            }
            if new == 0 {
                index.on_swap_remove(entry, r);
                entry.swap_remove_row(r as usize);
            } else {
                entry.set_weight(r as usize, new);
            }
        }
        None => {
            if !add {
                return None;
            }
            let r = entry.distinct_count() as u32;
            entry.push_row(tuple, w);
            index.on_append(tuple, r);
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::join::{join_subset, JoinResult};

    fn two_table() -> (JoinQuery, Instance) {
        let query = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&query).unwrap();
        for (a, b, f) in [(1u64, 2u64, 2u64), (3, 2, 1), (4, 5, 3)] {
            inst.relation_mut(0).add(vec![a, b], f).unwrap();
        }
        for (b, c, f) in [(2u64, 1u64, 1u64), (2, 7, 4), (5, 0, 2)] {
            inst.relation_mut(1).add(vec![b, c], f).unwrap();
        }
        (query, inst)
    }

    /// Populates a memo with every non-empty mask of the instance.
    fn full_memo(query: &JoinQuery, inst: &Instance) -> FxHashMap<u32, Arc<JoinResult>> {
        let m = query.num_relations();
        let mut memo = FxHashMap::default();
        for mask in 1u32..(1 << m) {
            let rels = mask_rels(mask);
            memo.insert(mask, Arc::new(join_subset(query, inst, &rels).unwrap()));
        }
        memo
    }

    fn assert_memo_matches_rebuild(
        query: &JoinQuery,
        inst: &Instance,
        memo: &FxHashMap<u32, Arc<JoinResult>>,
    ) {
        for (&mask, entry) in memo {
            let fresh = join_subset(query, inst, &mask_rels(mask)).unwrap();
            assert_eq!(entry.as_ref(), &fresh, "mask {mask:#b} diverged");
        }
    }

    /// Test shorthand: net-delta a batch and maintain sequentially, the way
    /// `ExecContext::apply_updates` drives the production path.
    fn maintain(
        query: &JoinQuery,
        inst: &mut Instance,
        memo: &mut FxHashMap<u32, Arc<JoinResult>>,
        indexes: &mut FxHashMap<u32, EntryIndex>,
        batch: &UpdateBatch,
        plan: Option<&JoinPlan>,
    ) -> UpdateStats {
        let deltas = batch.net_deltas(query, inst).unwrap();
        maintain_memo(
            query,
            inst,
            memo,
            indexes,
            &deltas,
            plan,
            Parallelism::SEQUENTIAL,
        )
        .unwrap()
    }

    #[test]
    fn huge_batches_take_the_bulk_rebuild_path() {
        use crate::plan::JoinPlan;
        // A 3-star large enough to cache, with a batch that rewrites well
        // over 1/BULK_REBUILD_FACTOR of every relation: maintenance must
        // skip patching and recompute every affected mask through the
        // plan chain (maintained_masks == 0, all masks rebuilt).
        let query = JoinQuery::star(3, 64).unwrap();
        let mut base = Instance::empty_for(&query).unwrap();
        for h in 0..16u64 {
            for p in 0..8u64 {
                base.relation_mut(0).add(vec![h, p], 1).unwrap();
                base.relation_mut(1).add(vec![h, (p * 3) % 8], 1).unwrap();
            }
            base.relation_mut(2).add(vec![h, h % 4], 1).unwrap();
        }
        let plan = JoinPlan::cost_based(&query, &base).unwrap();
        let mut batch = UpdateBatch::new();
        for h in 0..16u64 {
            for p in 8..10u64 {
                batch.insert(0, vec![h, p], 1);
                batch.insert(1, vec![h, p], 2);
            }
            batch.delete(2, vec![h, h % 4], 1);
            batch.insert(2, vec![h, 63], 1);
        }
        // 96 net rows over 272 stored rows: past both thresholds.
        let mut inst = base.clone();
        let mut memo = full_memo(&query, &inst);
        let mut indexes = FxHashMap::default();
        let stats = maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut indexes,
            &batch,
            Some(&plan),
        );
        assert_eq!(stats.maintained_masks, 0, "patching must be skipped");
        assert_eq!(stats.relations_touched, 3);
        assert_eq!(stats.rebuilt_masks, 7, "every cached mask is affected");
        assert!(
            indexes.is_empty(),
            "stale streaming indexes must be dropped"
        );
        let mut oracle = base.clone();
        apply_batch(&query, &mut oracle, &batch).unwrap();
        assert_eq!(inst, oracle);
        assert_memo_matches_rebuild(&query, &inst, &memo);
        // The inverse batch is just as large; the round trip restores the
        // starting instance and state byte for byte.
        let stats = maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut indexes,
            &batch.inverse(),
            Some(&plan),
        );
        assert_eq!(stats.maintained_masks, 0);
        assert_eq!(inst, base);
        assert_memo_matches_rebuild(&query, &inst, &memo);
    }

    #[test]
    fn net_semantics_cancel_within_a_batch() {
        let (query, inst) = two_table();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 6], 2);
        batch.delete(0, vec![6, 6], 2);
        let deltas = batch.net_deltas(&query, &inst).unwrap();
        assert!(deltas.iter().all(RelationDelta::is_empty));
        // A delete covered by an insert in the same batch is valid even
        // though the tuple is absent from the instance.
        let mut covered = UpdateBatch::new();
        covered.insert(1, vec![7, 7], 3);
        covered.delete(1, vec![7, 7], 1);
        assert!(covered.check(&query, &inst).is_ok());
    }

    #[test]
    fn check_rejects_malformed_batches() {
        let (query, inst) = two_table();
        let mut bad_rel = UpdateBatch::new();
        bad_rel.insert(7, vec![0, 0], 1);
        assert!(matches!(
            bad_rel.check(&query, &inst),
            Err(RelationalError::InvalidUpdate(_))
        ));
        let mut bad_arity = UpdateBatch::new();
        bad_arity.insert(0, vec![0], 1);
        assert!(matches!(
            bad_arity.check(&query, &inst),
            Err(RelationalError::ArityMismatch { .. })
        ));
        let mut bad_domain = UpdateBatch::new();
        bad_domain.insert(0, vec![99, 0], 1);
        assert!(matches!(
            bad_domain.check(&query, &inst),
            Err(RelationalError::ValueOutOfDomain { .. })
        ));
        let mut underflow = UpdateBatch::new();
        underflow.delete(0, vec![1, 2], 3);
        assert!(matches!(
            underflow.check(&query, &inst),
            Err(RelationalError::FrequencyUnderflow)
        ));
        let mut overflow = UpdateBatch::new();
        overflow.insert(0, vec![1, 2], u64::MAX);
        assert!(matches!(
            overflow.check(&query, &inst),
            Err(RelationalError::FrequencyOverflow)
        ));
    }

    #[test]
    fn apply_batch_matches_manual_mutation() {
        let (query, mut inst) = two_table();
        let mut expect = inst.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 5], 2);
        batch.delete(1, vec![2, 7], 1);
        apply_batch(&query, &mut inst, &batch).unwrap();
        expect.relation_mut(0).add(vec![6, 5], 2).unwrap();
        expect.relation_mut(1).remove_one(&[2, 7]).unwrap();
        assert_eq!(inst, expect);
        // Inverse restores the original.
        apply_batch(&query, &mut inst, &batch.inverse()).unwrap();
        let (_, original) = two_table();
        assert_eq!(inst, original);
    }

    #[test]
    fn maintenance_equals_rebuild_on_mixed_batches() {
        let (query, base) = two_table();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 5], 2); // joins with (5, 0)
        batch.insert(1, vec![2, 3], 1); // joins with the b=2 tuples
        batch.delete(0, vec![1, 2], 2); // removes a tuple entirely
        batch.delete(1, vec![2, 7], 1); // retracts weight, tuple survives
        batch.insert(0, vec![0, 0], 1); // dangling: joins with nothing

        let mut inst = base.clone();
        let mut memo = full_memo(&query, &inst);
        let stats = maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut FxHashMap::default(),
            &batch,
            None,
        );
        assert_eq!(stats.rebuilt_masks, 0);
        assert_eq!(stats.relations_touched, 2);
        // The instance moved to the updated contents…
        let mut oracle = base.clone();
        apply_batch(&query, &mut oracle, &batch).unwrap();
        assert_eq!(inst, oracle);
        // …and every maintained mask equals a from-scratch rebuild.
        assert_memo_matches_rebuild(&query, &inst, &memo);
    }

    #[test]
    fn maintenance_handles_partially_populated_memos() {
        let (query, base) = two_table();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 5], 1);
        batch.delete(1, vec![5, 0], 1);
        // Only the full mask is cached; parents are joined from the
        // mixed-state instance on demand.
        let mut inst = base.clone();
        let mut memo = FxHashMap::default();
        memo.insert(0b11, Arc::new(join_subset(&query, &inst, &[0, 1]).unwrap()));
        maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut FxHashMap::default(),
            &batch,
            None,
        );
        assert_memo_matches_rebuild(&query, &inst, &memo);
        // The on-demand parent was memoised and maintained too.
        assert!(memo.contains_key(&0b10));
    }

    #[test]
    fn plan_routed_maintenance_equals_rebuild() {
        use crate::plan::JoinPlan;
        // A 3-star with skewed relation sizes so the cost-based chain
        // differs from the fixed highest-index prefix: peeling R0 (the big
        // relation) first leaves the smallest intermediates.
        let query = JoinQuery::star(3, 8).unwrap();
        let mut base = Instance::empty_for(&query).unwrap();
        for h in 0..4u64 {
            for p in 0..8u64 {
                base.relation_mut(0).add(vec![h, p], 1).unwrap();
            }
            for p in 0..4u64 {
                base.relation_mut(1).add(vec![h, p], 1).unwrap();
            }
            base.relation_mut(2).add(vec![h, 0], 1).unwrap();
        }
        let plan = JoinPlan::cost_based(&query, &base).unwrap();
        assert!(plan.is_cost_based());
        let mut batch = UpdateBatch::new();
        batch.insert(1, vec![5, 5], 2);
        batch.delete(2, vec![3, 0], 1);
        batch.insert(2, vec![7, 7], 1);
        // Only the full mask is cached: the on-demand parent fallback must
        // route through the plan's chain, not the fixed prefix.
        let mut inst = base.clone();
        let mut memo = FxHashMap::default();
        let full = 0b111u32;
        memo.insert(
            full,
            Arc::new(join_subset(&query, &inst, &[0, 1, 2]).unwrap()),
        );
        maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut FxHashMap::default(),
            &batch,
            Some(&plan),
        );
        let mut oracle = base.clone();
        apply_batch(&query, &mut oracle, &batch).unwrap();
        assert_eq!(inst, oracle);
        assert_memo_matches_rebuild(&query, &inst, &memo);
        // The on-demand delta-join parents (full minus each touched
        // relation) were computed through the plan chain and memoised —
        // and maintained through the batch like any other entry
        // (assert_memo_matches_rebuild above covered their values).
        for parent in [0b101u32, 0b011] {
            assert!(
                memo.contains_key(&parent),
                "the delta-join parent {parent:#b} must be memoised"
            );
        }

        // Saturation rebuilds route through the plan too: poison the full
        // entry and let the guard recompute it along the plan chain.
        let saturated: BTreeMap<Vec<Value>, u128> = memo[&full]
            .iter()
            .map(|(t, _)| (t.to_vec(), u128::MAX))
            .collect();
        let attrs = memo[&full].attrs().to_vec();
        memo.insert(full, Arc::new(JoinResult::from_parts(attrs, saturated)));
        let mut second = UpdateBatch::new();
        second.insert(1, vec![6, 6], 1);
        let stats = maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut FxHashMap::default(),
            &second,
            Some(&plan),
        );
        assert!(stats.rebuilt_masks >= 1, "saturation guard must trip");
        assert_memo_matches_rebuild(&query, &inst, &memo);
    }

    #[test]
    fn saturated_entries_fall_back_to_rebuild() {
        // Distinct relation attrs (a star) so a saturated weight can arise:
        // two u64::MAX frequencies multiply past u128 saturation range.
        let query = JoinQuery::star(2, 4).unwrap();
        let mut inst = Instance::empty_for(&query).unwrap();
        inst.relation_mut(0).add(vec![0, 0], u64::MAX).unwrap();
        inst.relation_mut(1).add(vec![0, 0], u64::MAX).unwrap();
        inst.relation_mut(0).add(vec![1, 1], 1).unwrap();
        inst.relation_mut(1).add(vec![1, 1], 1).unwrap();
        let mut memo = full_memo(&query, &inst);
        // Force an artificially saturated full-join entry: the guard must
        // refuse to patch it and recompute instead of serving bad bytes.
        let full = memo.get(&0b11).unwrap();
        let saturated: BTreeMap<Vec<Value>, u128> =
            full.iter().map(|(t, _)| (t.to_vec(), u128::MAX)).collect();
        memo.insert(
            0b11,
            Arc::new(JoinResult::from_parts(full.attrs().to_vec(), saturated)),
        );
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![1, 2], 1);
        let stats = maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut FxHashMap::default(),
            &batch,
            None,
        );
        assert!(stats.rebuilt_masks >= 1, "saturation guard must trip");
        assert_memo_matches_rebuild(&query, &inst, &memo);
    }

    #[test]
    fn forward_then_inverse_restores_every_entry() {
        let (query, base) = two_table();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 5], 2);
        batch.delete(0, vec![4, 5], 1);
        batch.insert(1, vec![5, 3], 4);
        let mut inst = base.clone();
        let mut memo = full_memo(&query, &inst);
        let mut indexes = FxHashMap::default();
        maintain(&query, &mut inst, &mut memo, &mut indexes, &batch, None);
        maintain(
            &query,
            &mut inst,
            &mut memo,
            &mut indexes,
            &batch.inverse(),
            None,
        );
        assert_eq!(inst, base);
        assert_memo_matches_rebuild(&query, &inst, &memo);
        for (&mask, entry) in &full_memo(&query, &base) {
            assert_eq!(memo.get(&mask).unwrap().as_ref(), entry.as_ref());
        }
    }

    #[test]
    fn in_place_patch_drops_zero_rows_and_guards_saturation() {
        let attrs = vec![AttrId(0), AttrId(1)];
        let mut entry = Arc::new(JoinResult::from_parts(
            attrs.clone(),
            [(vec![1u64, 1], 3u128), (vec![2, 2], 1)]
                .into_iter()
                .collect(),
        ));
        let mut ix = EntryIndex::build(&entry);
        let e = Arc::make_mut(&mut entry);
        // Retraction to zero swap-removes the row; appends land at the end.
        apply_row_delta(e, &mut ix, &[2, 2], 1, false).unwrap();
        apply_row_delta(e, &mut ix, &[0, 9], 5, true).unwrap();
        let rows: Vec<(Vec<Value>, u128)> = entry.iter().map(|(t, w)| (t.to_vec(), w)).collect();
        assert_eq!(rows, vec![(vec![0, 9], 5), (vec![1, 1], 3)]);
        // The index tracked both mutations.
        assert_eq!(ix.by_tuple, EntryIndex::build(&entry).by_tuple);
        // Guards: retracting an absent row, over-retracting a present one,
        // and pushing a weight to the saturation sentinel all bail out.
        let e = Arc::make_mut(&mut entry);
        assert!(apply_row_delta(e, &mut ix, &[7, 7], 1, false).is_none());
        assert!(apply_row_delta(e, &mut ix, &[1, 1], 9, false).is_none());
        assert!(apply_row_delta(e, &mut ix, &[1, 1], u128::MAX - 3, true).is_none());
    }
}
