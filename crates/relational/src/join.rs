//! Multi-way natural join evaluation (hash-join engine).
//!
//! The join result of an instance `I` over a query `H` is the function
//! `Join_I : dom(x) → Z≥0` of Section 1.1, represented sparsely (only tuples
//! with non-zero weight are stored).  Weights are products of the input
//! frequencies of the participating tuples.
//!
//! The same machinery evaluates *sub-joins* (joins of a subset `E` of the
//! relations), which the sensitivity computations of Section 3.3 need for the
//! maximum boundary queries `T_E`.
//!
//! ### Engine design
//!
//! A [`JoinResult`] stores its tuples **columnar**: one flat row-major
//! `Vec<Value>` (all tuples of a result share the arity of its attribute
//! list) plus a parallel weight vector, so emitting a result tuple is a
//! plain `extend`/`push` with no per-tuple allocation at any arity.  No
//! dedup map is needed while folding: distinct `(left, right)` operand pairs
//! always merge to distinct tuples (each operand tuple is a projection of
//! the merged tuple), so duplicates are structurally impossible.
//!
//! Hash indexes enter only where they pay: each binary step indexes the
//! *smaller* operand by its shared-attribute projection.  The index is a
//! hand-rolled chained hash table (`ProbeIndex`: bucket heads plus
//! next-links over rows frozen in a [`KeyArena`]) rather than a std
//! `HashMap` — std's map cannot accept a precomputed hash on stable Rust,
//! and the batched probe below depends on separating "hash a batch of keys"
//! from "walk the buckets".  The build pass allocates nothing per key at
//! any arity, and chains are linked so traversal yields matches in
//! ascending build-row order — exactly the emission order of the previous
//! map-of-vectors engine.  [`join_subset`] additionally folds the relations
//! in ascending size order.
//!
//! ### Batched probe
//!
//! The probe side is processed in fixed-size batches: pass one projects a
//! batch of probe keys into a reusable arena and hashes them all, pass two
//! walks the index chains and emits merges.  Splitting the loop this way
//! amortises projection dispatch and bounds checks across the batch and
//! keeps the hash computation out of the dependent load chain of the bucket
//! walk.  Width-1 keys skip the arena (the batch is a plain value buffer).
//!
//! ### Parallel probe
//!
//! The probe loop of each binary step is partitioned into contiguous
//! probe-row morsels and driven through the work-stealing worker pool of
//! [`crate::exec`] (see `hash_join_step_with`).  Each worker probes the
//! shared frozen index and emits into its own flat buffer; the per-morsel
//! buffers are concatenated **in morsel order**, which reproduces the
//! sequential emission order byte for byte at every worker count no matter
//! which worker claimed which morsel.  The plain entry points ([`join`],
//! [`join_size`], …) use [`Parallelism::default`]; [`crate::ExecContext`]
//! methods take the knob from the context, and `Parallelism::SEQUENTIAL`
//! is exactly the pre-parallel code path.
//!
//! Determinism is preserved by sorting on emit: [`JoinResult::iter`],
//! [`JoinResult::group_by`] and [`JoinResult::distinct_projections`] return
//! sorted views, so downstream seeded algorithms observe exactly the order
//! the previous engine produced.  The original engine is retained in
//! [`crate::naive`] as a cross-check oracle for property tests and
//! benchmarks.

use std::collections::BTreeMap;

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::exec::{self, Parallelism};
use crate::hash::FxHashMap;
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::relation::Relation;
use crate::tuple::{
    intersect_attrs, project_into, project_positions, union_attrs, KeyArena, TupleKey, Value,
};
use crate::Result;

/// Probe loops shorter than this stay sequential even when a multi-thread
/// [`Parallelism`] is requested: below it, thread spawn/join overhead
/// outweighs the probe work itself.
const MIN_PAR_PROBE: usize = 1024;

/// Probe rows hashed together before the index is walked (see the module
/// docs' "Batched probe" section).  Small enough that a batch of keys and
/// hashes stays cache-resident, large enough to amortise loop dispatch.
const PROBE_BATCH: usize = 128;

/// Sentinel for "no row" in [`ProbeIndex`] chains.
const EMPTY_SLOT: u32 = u32::MAX;

/// Fx-hashes a projected key slice (self-contained: only [`ProbeIndex`]
/// consumes these hashes, so they need not match `std` slice hashing).
#[inline]
fn hash_key(key: &[Value]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    for &v in key {
        h.write_u64(v);
    }
    h.finish()
}

/// Fx-hashes a width-1 key; equals [`hash_key`] of the one-value slice.
#[inline]
fn hash_word(word: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_u64(word);
    h.finish()
}

/// A frozen chained hash index over the build side's projected keys.
///
/// Bucket heads plus per-row next-links over a [`KeyArena`]; a row's stored
/// hash is checked before its key slice so chain walks touch key memory
/// only on hash agreement.  Rows are linked so that traversal yields
/// matches in **ascending build-row order** — the emission order the
/// map-of-vectors engine produced — which keeps every output byte in place.
struct ProbeIndex {
    arena: KeyArena,
    hashes: Vec<u64>,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl ProbeIndex {
    /// Indexes a frozen arena.  Capacity is sized to ~0.5 load factor.
    fn build(arena: KeyArena) -> ProbeIndex {
        let n = arena.len();
        assert!(
            n < EMPTY_SLOT as usize,
            "build side exceeds u32 row indexing"
        );
        let cap = (n.max(4) * 2).next_power_of_two();
        let mask = cap - 1;
        let mut hashes = Vec::with_capacity(n);
        for i in 0..n {
            hashes.push(hash_key(arena.row(i)));
        }
        let mut heads = vec![EMPTY_SLOT; cap];
        let mut next = vec![EMPTY_SLOT; n];
        // Insert in reverse row order with head-prepend so each chain walks
        // in ascending build-row order.
        for i in (0..n).rev() {
            let b = (hashes[i] as usize) & mask;
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        ProbeIndex {
            arena,
            hashes,
            heads,
            next,
        }
    }

    /// Calls `on_match` with every build-row index whose key equals `key`,
    /// in ascending row order.  `hash` must be `hash_key(key)`.
    #[inline]
    fn for_each_match(&self, key: &[Value], hash: u64, mut on_match: impl FnMut(usize)) {
        let mask = self.heads.len() - 1;
        let mut cur = self.heads[(hash as usize) & mask];
        while cur != EMPTY_SLOT {
            let i = cur as usize;
            if self.hashes[i] == hash && self.arena.row(i) == key {
                on_match(i);
            }
            cur = self.next[i];
        }
    }
}

/// A relation's rows materialised into one flat row-major buffer (plus a
/// parallel frequency vector), in the relation's sorted iteration order.
///
/// The join steps walk a relation's rows many times (arena/key build, the
/// probe loop, match emission); reading them through the `BTreeMap`'s
/// per-tuple heap allocations makes every access a pointer chase.  One
/// flattening pass up front turns all of those into contiguous loads.
struct FlatRows {
    width: usize,
    values: Vec<Value>,
    freqs: Vec<u64>,
}

impl FlatRows {
    fn from_relation(rel: &Relation) -> FlatRows {
        let width = rel.attrs().len();
        let n = rel.distinct_count();
        let mut values = Vec::with_capacity(n * width);
        let mut freqs = Vec::with_capacity(n);
        for (t, f) in rel.iter() {
            values.extend_from_slice(t);
            freqs.push(f);
        }
        FlatRows {
            width,
            values,
            freqs,
        }
    }

    fn len(&self) -> usize {
        self.freqs.len()
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    #[inline]
    fn freq(&self, i: usize) -> u64 {
        self.freqs[i]
    }
}

/// A sparse join result: tuples over `attrs` with positive integer weights.
///
/// Stored columnar (flat row-major value buffer + parallel weights); tuples
/// are distinct by construction.  Every public iteration order is sorted on
/// emit (see the module docs).
#[derive(Debug, Clone, Eq)]
pub struct JoinResult {
    attrs: Vec<AttrId>,
    /// Row-major tuple values: row `i` is `values[i*width .. (i+1)*width]`
    /// where `width == attrs.len()`.
    values: Vec<Value>,
    /// Weight of row `i`.
    weights: Vec<u128>,
}

impl PartialEq for JoinResult {
    /// Order-insensitive equality (results are unordered weighted sets).
    fn eq(&self, other: &Self) -> bool {
        if self.attrs != other.attrs || self.weights.len() != other.weights.len() {
            return false;
        }
        let mut a: Vec<(&[Value], u128)> = self.iter_unordered().collect();
        let mut b: Vec<(&[Value], u128)> = other.iter_unordered().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

impl JoinResult {
    /// The attribute list the result tuples range over (sorted).
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.attrs.len()
    }

    /// The tuple of row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        let w = self.width();
        &self.values[i * w..i * w + w]
    }

    /// Total weight `Σ_t Join(t)` — the join size when the result covers all
    /// relations of the query.  Saturates at `u128::MAX`.
    pub fn total(&self) -> u128 {
        self.weights
            .iter()
            .fold(0u128, |acc, &w| acc.saturating_add(w))
    }

    /// Number of distinct result tuples.
    pub fn distinct_count(&self) -> usize {
        self.weights.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Approximate heap footprint in bytes: the flat value buffer plus the
    /// weight vector plus the attribute list.  Used by the cache layer's
    /// byte-level accounting; exactness is not required, only that the
    /// estimate scales with the real allocation.
    pub fn approx_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Value>()
            + self.weights.len() * std::mem::size_of::<u128>()
            + self.attrs.len() * std::mem::size_of::<AttrId>()
    }

    /// Iterates over `(tuple, weight)` pairs in deterministic (sorted tuple)
    /// order.  Sorting happens on emit; use [`JoinResult::iter_unordered`]
    /// when order is irrelevant.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], u128)> {
        let mut order: Vec<usize> = (0..self.weights.len()).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.into_iter().map(|i| (self.row(i), self.weights[i]))
    }

    /// Iterates over `(tuple, weight)` pairs in arbitrary (construction)
    /// order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&[Value], u128)> {
        (0..self.weights.len()).map(|i| (self.row(i), self.weights[i]))
    }

    /// Weight of a specific tuple (zero if absent).
    ///
    /// O(n) scan — intended for tests and spot checks; bulk consumers should
    /// iterate or group instead.
    pub fn weight(&self, tuple: &[Value]) -> u128 {
        self.iter_unordered()
            .find(|&(t, _)| t == tuple)
            .map(|(_, w)| w)
            .unwrap_or(0)
    }

    /// Groups the result by a subset of its attributes, summing weights into
    /// a hash map keyed by the projected [`TupleKey`].  This is the
    /// order-free fast path behind [`JoinResult::group_by`] /
    /// [`JoinResult::max_group_weight`].
    pub fn group_by_key(&self, group_by: &[AttrId]) -> Result<FxHashMap<TupleKey, u128>> {
        let positions = project_positions(&self.attrs, group_by)?;
        let mut out: FxHashMap<TupleKey, u128> = FxHashMap::default();
        let mut scratch: Vec<Value> = Vec::with_capacity(positions.len());
        for (t, w) in self.iter_unordered() {
            project_into(t, &positions, &mut scratch);
            match out.get_mut(scratch.as_slice()) {
                Some(total) => *total = total.saturating_add(w),
                None => {
                    out.insert(TupleKey::from_slice(&scratch), w);
                }
            }
        }
        if group_by.is_empty() && out.is_empty() {
            out.insert(TupleKey::from_slice(&[]), 0);
        }
        Ok(out)
    }

    /// Groups the result by a subset of its attributes, summing weights.
    /// For an empty `group_by` the map has one entry (the empty key) holding
    /// the total weight.  The returned map is sorted (deterministic).
    pub fn group_by(&self, group_by: &[AttrId]) -> Result<BTreeMap<Vec<Value>, u128>> {
        Ok(self
            .group_by_key(group_by)?
            .into_iter()
            .map(|(k, w)| (k.to_vec(), w))
            .collect())
    }

    /// Maximum group weight over `group_by` (zero for an empty result).
    /// Never sorts: a pure fold over the hash groups.
    pub fn max_group_weight(&self, group_by: &[AttrId]) -> Result<u128> {
        Ok(self
            .group_by_key(group_by)?
            .values()
            .copied()
            .max()
            .unwrap_or(0))
    }

    /// Returns the set of distinct projections of result tuples onto `onto`
    /// (sorted, as a `BTreeSet`).
    pub fn distinct_projections(
        &self,
        onto: &[AttrId],
    ) -> Result<std::collections::BTreeSet<Vec<Value>>> {
        let positions = project_positions(&self.attrs, onto)?;
        Ok(self
            .iter_unordered()
            .map(|(t, _)| crate::tuple::project_with_positions(t, &positions))
            .collect())
    }

    /// The single-relation join result: the relation's tuples with their
    /// frequencies as weights (distinct by construction).
    pub fn from_relation(relation: &Relation) -> Self {
        let width = relation.arity();
        let mut values = Vec::with_capacity(relation.distinct_count() * width);
        let mut weights = Vec::with_capacity(relation.distinct_count());
        for (t, f) in relation.iter() {
            values.extend_from_slice(t);
            weights.push(f as u128);
        }
        JoinResult {
            attrs: relation.attrs().to_vec(),
            values,
            weights,
        }
    }
}

/// Where each attribute of a merged tuple comes from.
#[derive(Clone, Copy)]
enum Side {
    Left(usize),
    Right(usize),
}

/// Plans the merge of tuples over `left_attrs` and `right_attrs`: the merged
/// attribute list (sorted union) plus, per merged attribute, the operand
/// position supplying its value.
fn merge_plan(left_attrs: &[AttrId], right_attrs: &[AttrId]) -> (Vec<AttrId>, Vec<Side>) {
    let attrs = union_attrs(left_attrs, right_attrs);
    let plan = attrs
        .iter()
        .map(|a| match left_attrs.binary_search(a) {
            Ok(p) => Side::Left(p),
            Err(_) => Side::Right(
                right_attrs
                    .binary_search(a)
                    .expect("attribute must originate from one operand"),
            ),
        })
        .collect();
    (attrs, plan)
}

/// Appends the merged tuple of `(left, right)` under `plan` to `out`.
#[inline]
fn merge_row(plan: &[Side], left: &[Value], right: &[Value], out: &mut Vec<Value>) {
    out.extend(plan.iter().map(|side| match side {
        Side::Left(p) => left[*p],
        Side::Right(p) => right[*p],
    }));
}

/// Concatenates per-range probe outputs in range order into one flat result
/// buffer pair.  Range-ordered concatenation equals the sequential emission
/// order (see the module docs), so the result is byte-identical at every
/// worker count.
fn merge_parts(mut parts: Vec<(Vec<Value>, Vec<u128>)>) -> (Vec<Value>, Vec<u128>) {
    if parts.len() == 1 {
        // Sequential (single-chunk) case: hand the buffers over as-is —
        // re-copying the whole join output here would halve sequential
        // throughput.
        return parts.pop().expect("one part");
    }
    let mut values = Vec::with_capacity(parts.iter().map(|(v, _)| v.len()).sum());
    let mut weights = Vec::with_capacity(parts.iter().map(|(_, w)| w.len()).sum());
    for (v, w) in parts {
        values.extend_from_slice(&v);
        weights.extend_from_slice(&w);
    }
    (values, weights)
}

/// Drives one probe-row range against a [`ProbeIndex`]: projects each
/// probe row's key via `positions`, hashes it, and calls
/// `on_match(probe_row, build_row)` for every key match — in probe-row
/// order, matches in ascending build-row order.  Keys are projected and
/// hashed [`PROBE_BATCH`] rows at a time before any chain is walked.
fn probe_rows<'a>(
    index: &ProbeIndex,
    range: std::ops::Range<usize>,
    key_width: usize,
    row_of: impl Fn(usize) -> &'a [Value],
    positions: &[usize],
    mut on_match: impl FnMut(usize, usize),
) {
    if key_width == 1 {
        // Width-1 keys need no arena: the projected key is one value, so the
        // batch is a plain value buffer and hashing needs no slice walk.
        // Candidate order — and thus every output byte — matches the
        // general arm.
        let pos = positions[0];
        let mut batch: Vec<Value> = Vec::with_capacity(PROBE_BATCH);
        let mut hashes: Vec<u64> = Vec::with_capacity(PROBE_BATCH);
        let mut start = range.start;
        while start < range.end {
            let end = (start + PROBE_BATCH).min(range.end);
            batch.clear();
            hashes.clear();
            for i in start..end {
                batch.push(row_of(i)[pos]);
            }
            hashes.extend(batch.iter().map(|&v| hash_word(v)));
            for (k, i) in (start..end).enumerate() {
                index.for_each_match(std::slice::from_ref(&batch[k]), hashes[k], |j| {
                    on_match(i, j)
                });
            }
            start = end;
        }
    } else {
        let mut batch = KeyArena::with_capacity(key_width, PROBE_BATCH);
        let mut hashes: Vec<u64> = Vec::with_capacity(PROBE_BATCH);
        let mut start = range.start;
        while start < range.end {
            let end = (start + PROBE_BATCH).min(range.end);
            batch.clear();
            hashes.clear();
            // Pass 1: project and hash the whole batch.
            for i in start..end {
                batch.push_projected(row_of(i), positions);
            }
            for k in 0..batch.len() {
                hashes.push(hash_key(batch.row(k)));
            }
            // Pass 2: walk the chains.
            for (k, i) in (start..end).enumerate() {
                index.for_each_match(batch.row(k), hashes[k], |j| on_match(i, j));
            }
            start = end;
        }
    }
}

/// One binary hash-join step at an explicit parallelism level.
///
/// The smaller operand (by distinct tuple count) becomes the hash-build
/// side: its shared-attribute projections are materialised into a frozen
/// [`KeyArena`] and indexed by a chained hash table (no per-key
/// allocation at any arity).  The larger side probes the index in
/// hash-then-walk batches, and with `par` workers the probe rows are
/// partitioned into contiguous morsels, each worker emits into its own
/// flat buffer, and the buffers are concatenated in morsel order —
/// byte-identical to the sequential emission at every worker count.
/// Output tuples need no dedup map: distinct operand pairs always produce
/// distinct merged tuples.  Weight multiplication saturates instead of
/// wrapping, so adversarial worst-case instances degrade gracefully rather
/// than overflow-panicking.
pub(crate) fn hash_join_step_with(
    acc: &JoinResult,
    rel: &Relation,
    par: Parallelism,
) -> Result<JoinResult> {
    let shared = intersect_attrs(&acc.attrs, rel.attrs());
    let (new_attrs, plan) = merge_plan(&acc.attrs, rel.attrs());
    let acc_shared_pos = project_positions(&acc.attrs, &shared)?;
    let rel_shared_pos = project_positions(rel.attrs(), &shared)?;
    let plan = &plan[..];

    let rel_rows = FlatRows::from_relation(rel);
    let (out_values, out_weights) = if rel.distinct_count() <= acc.distinct_count() {
        // Build on the relation, probe with the accumulated result.
        let mut arena = KeyArena::with_capacity(shared.len(), rel_rows.len());
        for i in 0..rel_rows.len() {
            arena.push_projected(rel_rows.row(i), &rel_shared_pos);
        }
        let index = ProbeIndex::build(arena);
        let probe = |range: std::ops::Range<usize>| {
            let mut values: Vec<Value> = Vec::new();
            let mut weights: Vec<u128> = Vec::new();
            probe_rows(
                &index,
                range,
                shared.len(),
                |i| acc.row(i),
                &acc_shared_pos,
                |i, j| {
                    merge_row(plan, acc.row(i), rel_rows.row(j), &mut values);
                    weights.push(acc.weights[i].saturating_mul(rel_rows.freq(j) as u128));
                },
            );
            (values, weights)
        };
        merge_parts(exec::par_map_ranges(
            par,
            acc.distinct_count(),
            MIN_PAR_PROBE,
            probe,
        ))
    } else {
        // Build on the accumulated result, probe with the relation.
        let mut arena = KeyArena::with_capacity(shared.len(), acc.distinct_count());
        for i in 0..acc.distinct_count() {
            arena.push_projected(acc.row(i), &acc_shared_pos);
        }
        let index = ProbeIndex::build(arena);
        let probe = |range: std::ops::Range<usize>| {
            let mut values: Vec<Value> = Vec::new();
            let mut weights: Vec<u128> = Vec::new();
            probe_rows(
                &index,
                range,
                shared.len(),
                |i| rel_rows.row(i),
                &rel_shared_pos,
                |i, j| {
                    merge_row(plan, acc.row(j), rel_rows.row(i), &mut values);
                    weights.push(acc.weights[j].saturating_mul(rel_rows.freq(i) as u128));
                },
            );
            (values, weights)
        };
        merge_parts(exec::par_map_ranges(
            par,
            rel_rows.len(),
            MIN_PAR_PROBE,
            probe,
        ))
    };

    Ok(JoinResult {
        attrs: new_attrs,
        values: out_values,
        weights: out_weights,
    })
}

/// The engine's greedy fold order for joining the relation subset `rels`:
/// start from the smallest relation, then repeatedly pick, among the
/// remaining relations that **share an attribute** with the accumulated
/// attribute set, the one with the fewest distinct tuples — falling back to
/// the smallest remaining relation only when the subset's join graph is
/// genuinely disconnected (where a cross product is unavoidable).  Ties
/// break on the lower relation index, so the order is deterministic.
///
/// This is exactly the order [`join_subset`] folds in, so the full join's
/// physical row order — which the `f64` truth sums read — is a function of
/// the instance alone.  `rels` is assumed valid (checked by the callers).
pub fn fold_order(instance: &Instance, rels: &[usize]) -> Vec<usize> {
    let size_of = |ri: usize| instance.relation(ri).distinct_count();
    let mut remaining: Vec<usize> = rels.to_vec();
    let mut order = Vec::with_capacity(rels.len());
    let Some(start) = remaining
        .iter()
        .enumerate()
        .min_by_key(|&(_, &ri)| (size_of(ri), ri))
        .map(|(pos, _)| pos)
    else {
        return order;
    };
    let first = remaining.remove(start);
    order.push(first);
    let mut acc_attrs: Vec<AttrId> = instance.relation(first).attrs().to_vec();
    while !remaining.is_empty() {
        // Prefer the smallest relation connected to the accumulator; the
        // (ri) tie-break keeps the order — and thus saturation behaviour —
        // deterministic.
        let pick = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &ri)| {
                !intersect_attrs(&acc_attrs, instance.relation(ri).attrs()).is_empty()
            })
            .min_by_key(|&(_, &ri)| (size_of(ri), ri))
            .or_else(|| {
                remaining
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &ri)| (size_of(ri), ri))
            })
            .map(|(pos, _)| pos)
            .expect("non-empty remaining set");
        let ri = remaining.remove(pick);
        acc_attrs = union_attrs(&acc_attrs, instance.relation(ri).attrs());
        order.push(ri);
    }
    order
}

/// Joins the subset `rels` of the instance's relations (a sub-join of the
/// query).  `rels` must be non-empty, sorted and in range.
///
/// Join-order selection follows [`fold_order`]: smallest-first, preferring
/// relations connected to the accumulated result (size alone could join two
/// small but attribute-disjoint relations first and materialise a cross
/// product a connected order never builds).  Each binary step additionally
/// builds its hash index on the smaller operand.  The result is independent
/// of the fold order (weights saturate identically only in astronomically
/// large joins).
pub fn join_subset(query: &JoinQuery, instance: &Instance, rels: &[usize]) -> Result<JoinResult> {
    join_subset_impl(query, instance, rels, Parallelism::default())
}

/// Shared implementation behind [`join_subset`] and
/// [`crate::ExecContext::join_subset`].
pub(crate) fn join_subset_impl(
    query: &JoinQuery,
    instance: &Instance,
    rels: &[usize],
    par: Parallelism,
) -> Result<JoinResult> {
    query.check_subset(rels)?;
    if rels.is_empty() {
        return Err(RelationalError::InvalidRelationSubset(
            "cannot join an empty set of relations; the empty join is handled by callers"
                .to_string(),
        ));
    }
    if instance.num_relations() != query.num_relations() {
        return Err(RelationalError::RelationCountMismatch {
            expected: query.num_relations(),
            got: instance.num_relations(),
        });
    }

    let order = fold_order(instance, rels);
    let mut acc = JoinResult::from_relation(instance.relation(order[0]));
    for &ri in &order[1..] {
        // Even when the accumulated result is already empty we keep folding
        // in the remaining relations so that the result's attribute list
        // always covers the union of the requested relations' attributes
        // (downstream evaluators rely on it).
        acc = hash_join_step_with(&acc, instance.relation(ri), par)?;
    }
    Ok(acc)
}

/// Joins all relations of the query (the paper's `Join_I`).
pub fn join(query: &JoinQuery, instance: &Instance) -> Result<JoinResult> {
    join_impl(query, instance, Parallelism::default())
}

/// Shared implementation behind [`join`] and [`crate::ExecContext::join`].
pub(crate) fn join_impl(
    query: &JoinQuery,
    instance: &Instance,
    par: Parallelism,
) -> Result<JoinResult> {
    let all: Vec<usize> = (0..query.num_relations()).collect();
    join_subset_impl(query, instance, &all, par)
}

/// The join size `count(I) = Σ_t Join_I(t)`.
pub fn join_size(query: &JoinQuery, instance: &Instance) -> Result<u128> {
    Ok(join(query, instance)?.total())
}

/// Shared implementation behind [`join_size`] and
/// [`crate::ExecContext::join_size`].
pub(crate) fn join_size_impl(
    query: &JoinQuery,
    instance: &Instance,
    par: Parallelism,
) -> Result<u128> {
    Ok(join_impl(query, instance, par)?.total())
}

/// Joins the relation subset `rels` and groups the result by `group_by`,
/// returning total weight per group.  For `rels = ∅` the result is the single
/// empty group with weight 1 (the empty product), matching the convention
/// `T_∅(I) = 1` used by residual sensitivity.
pub fn grouped_join_size(
    query: &JoinQuery,
    instance: &Instance,
    rels: &[usize],
    group_by: &[AttrId],
) -> Result<BTreeMap<Vec<Value>, u128>> {
    if rels.is_empty() {
        let mut out = BTreeMap::new();
        out.insert(Vec::new(), 1u128);
        return Ok(out);
    }
    join_subset(query, instance, rels)?.group_by(group_by)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::relation::Relation;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn two_table() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        // R1(A,B): (0,0):1 (1,0):2 (2,1):1
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 2), (vec![2, 1], 1)],
        )
        .unwrap();
        // R2(B,C): (0,0):1 (0,1):1 (1,3):3 (5,5):7
        let r2 = Relation::from_tuples(
            ids(&[1, 2]),
            vec![
                (vec![0, 0], 1),
                (vec![0, 1], 1),
                (vec![1, 3], 3),
                (vec![5, 5], 7),
            ],
        )
        .unwrap();
        (q, Instance::new(vec![r1, r2]))
    }

    #[test]
    fn two_table_join_matches_manual_computation() {
        let (q, inst) = two_table();
        let result = join(&q, &inst).unwrap();
        assert_eq!(result.attrs(), ids(&[0, 1, 2]).as_slice());
        // B=0 matches: R1 weight (0,0)->1, (1,0)->2; R2 weight (0,0)->1, (0,1)->1
        // B=1 matches: R1 (2,1)->1; R2 (1,3)->3
        // B=5 matches nothing in R1.
        assert_eq!(result.weight(&[0, 0, 0]), 1);
        assert_eq!(result.weight(&[0, 0, 1]), 1);
        assert_eq!(result.weight(&[1, 0, 0]), 2);
        assert_eq!(result.weight(&[1, 0, 1]), 2);
        assert_eq!(result.weight(&[2, 1, 3]), 3);
        assert_eq!(result.weight(&[2, 1, 0]), 0);
        assert_eq!(result.total(), 1 + 1 + 2 + 2 + 3);
        assert_eq!(join_size(&q, &inst).unwrap(), 9);
    }

    #[test]
    fn iteration_is_sorted_on_emit() {
        let (q, inst) = two_table();
        let result = join(&q, &inst).unwrap();
        let tuples: Vec<Vec<Value>> = result.iter().map(|(t, _)| t.to_vec()).collect();
        let mut sorted = tuples.clone();
        sorted.sort();
        assert_eq!(tuples, sorted);
        assert_eq!(tuples.len(), result.distinct_count());
        assert_eq!(result.iter_unordered().count(), tuples.len());
    }

    #[test]
    fn equality_is_order_insensitive() {
        let (q, inst) = two_table();
        let a = join(&q, &inst).unwrap();
        let b = join(&q, &inst).unwrap();
        assert_eq!(a, b);
        let sub = join_subset(&q, &inst, &[0]).unwrap();
        assert_ne!(a, sub);
    }

    #[test]
    fn frequencies_multiply() {
        let q = JoinQuery::two_table(4, 4, 4);
        let r1 = Relation::from_tuples(ids(&[0, 1]), vec![(vec![0, 0], 5)]).unwrap();
        let r2 = Relation::from_tuples(ids(&[1, 2]), vec![(vec![0, 0], 7)]).unwrap();
        let inst = Instance::new(vec![r1, r2]);
        assert_eq!(join_size(&q, &inst).unwrap(), 35);
    }

    #[test]
    fn empty_join_when_no_common_value() {
        let q = JoinQuery::two_table(4, 4, 4);
        let r1 = Relation::from_tuples(ids(&[0, 1]), vec![(vec![0, 0], 1)]).unwrap();
        let r2 = Relation::from_tuples(ids(&[1, 2]), vec![(vec![1, 0], 1)]).unwrap();
        let inst = Instance::new(vec![r1, r2]);
        let result = join(&q, &inst).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.total(), 0);
        // The attribute list still covers the union.
        assert_eq!(result.attrs(), ids(&[0, 1, 2]).as_slice());
    }

    #[test]
    fn path_join_three_relations() {
        let q = JoinQuery::path(3, 4).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        // R1(A0,A1) = {(0,1)}, R2(A1,A2) = {(1,2):2}, R3(A2,A3) = {(2,3), (2,0)}
        inst.relation_mut(0).add_one(vec![0, 1]).unwrap();
        inst.relation_mut(1).add(vec![1, 2], 2).unwrap();
        inst.relation_mut(2).add_one(vec![2, 3]).unwrap();
        inst.relation_mut(2).add_one(vec![2, 0]).unwrap();
        let result = join(&q, &inst).unwrap();
        assert_eq!(result.total(), 4);
        assert_eq!(result.weight(&[0, 1, 2, 3]), 2);
        assert_eq!(result.weight(&[0, 1, 2, 0]), 2);
    }

    #[test]
    fn subjoin_and_grouping() {
        let (q, inst) = two_table();
        // Sub-join of just R1 grouped by B.
        let groups = grouped_join_size(&q, &inst, &[0], &ids(&[1])).unwrap();
        assert_eq!(groups.get(&vec![0]).copied(), Some(3));
        assert_eq!(groups.get(&vec![1]).copied(), Some(1));
        // Empty relation subset: conventionally a single unit group.
        let empty = grouped_join_size(&q, &inst, &[], &[]).unwrap();
        assert_eq!(empty.get(&Vec::new()).copied(), Some(1));
        // Full join grouped by nothing = join size.
        let total = grouped_join_size(&q, &inst, &[0, 1], &[]).unwrap();
        assert_eq!(total.get(&Vec::new()).copied(), Some(9));
    }

    #[test]
    fn max_group_weight_and_projections() {
        let (q, inst) = two_table();
        let result = join(&q, &inst).unwrap();
        // Grouped by B: B=0 contributes 6, B=1 contributes 3.
        assert_eq!(result.max_group_weight(&ids(&[1])).unwrap(), 6);
        let projs = result.distinct_projections(&ids(&[1])).unwrap();
        assert_eq!(projs.len(), 2);
    }

    #[test]
    fn star_join() {
        let q = JoinQuery::star(3, 4).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        // Hub value 2 appears in all three relations.
        inst.relation_mut(0).add(vec![2, 0], 2).unwrap();
        inst.relation_mut(1).add(vec![2, 1], 3).unwrap();
        inst.relation_mut(2).add(vec![2, 3], 1).unwrap();
        // Hub value 1 appears only in two relations.
        inst.relation_mut(0).add(vec![1, 0], 1).unwrap();
        inst.relation_mut(1).add(vec![1, 1], 1).unwrap();
        assert_eq!(join_size(&q, &inst).unwrap(), 6);
    }

    #[test]
    fn cross_product_when_no_shared_attributes() {
        // Path of length 3, joining only the two end relations: no shared
        // attributes, so the sub-join is a cross product.
        let q = JoinQuery::path(3, 4).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![0, 1], 2).unwrap();
        inst.relation_mut(0).add(vec![1, 1], 1).unwrap();
        inst.relation_mut(2).add(vec![2, 3], 5).unwrap();
        let result = join_subset(&q, &inst, &[0, 2]).unwrap();
        assert_eq!(result.total(), (2 + 1) * 5);
        assert_eq!(result.distinct_count(), 2);
    }

    #[test]
    fn weights_saturate_instead_of_overflowing() {
        let q = JoinQuery::two_table(4, 4, 4);
        let r1 = Relation::from_tuples(ids(&[0, 1]), vec![(vec![0, 0], u64::MAX)]).unwrap();
        let r2 = Relation::from_tuples(
            ids(&[1, 2]),
            vec![(vec![0, 0], u64::MAX), (vec![0, 1], u64::MAX)],
        )
        .unwrap();
        let inst = Instance::new(vec![r1, r2]);
        let result = join(&q, &inst).unwrap();
        // Each merged tuple's weight is exactly (2^64-1)² (fits in u128, no
        // per-entry saturation), and the two entries' sum exceeds u128::MAX,
        // so the total must saturate rather than wrap or panic.
        let per_entry = (u64::MAX as u128) * (u64::MAX as u128);
        assert_eq!(result.weight(&[0, 0, 0]), per_entry);
        assert_eq!(result.weight(&[0, 0, 1]), per_entry);
        assert_eq!(result.total(), u128::MAX);
    }

    #[test]
    fn fold_order_prefers_connected_relations() {
        // Path R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3) with tiny end relations and
        // a large middle: a purely size-sorted order would join the
        // attribute-disjoint ends first, materialising an s² cross product.
        // The connected order keeps every intermediate at most linear, which
        // this test bounds indirectly by completing instantly; correctness
        // is cross-checked against the naive engine.
        let q = JoinQuery::path(3, 1024).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        let s = 400u64;
        for v in 0..s {
            inst.relation_mut(0).add(vec![v, v], 1).unwrap();
            inst.relation_mut(2).add(vec![v, v], 1).unwrap();
        }
        for v in 0..(2 * s) {
            inst.relation_mut(1).add(vec![v % s, v % s], 1).unwrap();
        }
        let fast = join(&q, &inst).unwrap();
        let naive = crate::naive::join_naive(&q, &inst).unwrap();
        assert_eq!(fast.total(), naive.total());
        assert_eq!(fast.distinct_count(), naive.distinct_count());
    }

    #[test]
    fn parallel_probe_is_byte_identical_to_sequential() {
        // Large enough to clear MIN_PAR_PROBE so multi-thread runs actually
        // partition the probe loop.
        let q = JoinQuery::two_table(64, 4096, 64);
        let mut inst = Instance::empty_for(&q).unwrap();
        for i in 0..3000u64 {
            inst.relation_mut(0).add(vec![i % 37, i % 4096], 1).unwrap();
            inst.relation_mut(1)
                .add(vec![(i * 7) % 4096, i % 29], 1 + i % 3)
                .unwrap();
        }
        let seq = join_impl(&q, &inst, Parallelism::SEQUENTIAL).unwrap();
        for threads in [2usize, 4, 7] {
            let par = join_impl(&q, &inst, Parallelism::threads(threads)).unwrap();
            assert_eq!(par.attrs(), seq.attrs());
            // Construction order (not just set equality) must match exactly.
            let seq_rows: Vec<(&[Value], u128)> = seq.iter_unordered().collect();
            let par_rows: Vec<(&[Value], u128)> = par.iter_unordered().collect();
            assert_eq!(par_rows, seq_rows, "threads = {threads}");
        }
    }

    /// Two-relation instances whose single join step probes on a width-1
    /// key (`B`) and on a two-attribute key (`A, B`), each large enough to
    /// clear [`MIN_PAR_PROBE`].
    fn narrow_and_wide_key_instances() -> Vec<(JoinQuery, Instance)> {
        use crate::attr::{Attribute, Schema};
        let narrow = JoinQuery::two_table(64, 4096, 64);
        let mut narrow_inst = Instance::empty_for(&narrow).unwrap();
        for i in 0..3000u64 {
            narrow_inst
                .relation_mut(0)
                .add(vec![i % 37, i % 4096], 1)
                .unwrap();
            narrow_inst
                .relation_mut(1)
                .add(vec![(i * 7) % 4096, i % 29], 1 + i % 3)
                .unwrap();
        }
        let schema = Schema::new(
            ["A", "B", "C", "D"]
                .iter()
                .map(|n| Attribute::new(*n, 64))
                .collect(),
        );
        let wide = JoinQuery::new(schema, vec![ids(&[0, 1, 2]), ids(&[0, 1, 3])]).unwrap();
        let mut wide_inst = Instance::empty_for(&wide).unwrap();
        for i in 0..2000u64 {
            wide_inst
                .relation_mut(0)
                .add(vec![i % 7, i % 11, i % 64], 1 + i % 2)
                .unwrap();
            wide_inst
                .relation_mut(1)
                .add(vec![(i * 3) % 7, i % 11, (i * 5) % 64], 1 + i % 3)
                .unwrap();
        }
        vec![(narrow, narrow_inst), (wide, wide_inst)]
    }

    #[test]
    fn batched_probe_matches_naive() {
        for (q, inst) in narrow_and_wide_key_instances() {
            let acc = JoinResult::from_relation(inst.relation(0));
            let rel = inst.relation(1);
            let shared = intersect_attrs(acc.attrs(), rel.attrs());
            let naive = crate::naive::join_naive(&q, &inst).unwrap();
            let naive_rows: Vec<(Vec<Value>, u128)> =
                naive.iter().map(|(t, w)| (t.clone(), w)).collect();
            for par in [Parallelism::SEQUENTIAL, Parallelism::threads(4)] {
                let step = hash_join_step_with(&acc, rel, par).unwrap();
                assert_eq!(step.attrs(), naive.attrs());
                let rows: Vec<(Vec<Value>, u128)> =
                    step.iter().map(|(t, w)| (t.to_vec(), w)).collect();
                assert_eq!(rows, naive_rows, "key width {}", shared.len());
            }
        }
    }

    #[test]
    fn invalid_subset_rejected() {
        let (q, inst) = two_table();
        assert!(join_subset(&q, &inst, &[]).is_err());
        assert!(join_subset(&q, &inst, &[3]).is_err());
    }

    #[test]
    fn matches_naive_reference_on_fixed_instances() {
        let (q, inst) = two_table();
        for rels in [&[0usize][..], &[1], &[0, 1]] {
            let fast = join_subset(&q, &inst, rels).unwrap();
            let naive = crate::naive::join_subset_naive(&q, &inst, rels).unwrap();
            assert_eq!(fast.attrs(), naive.attrs());
            let fast_tuples: Vec<(Vec<Value>, u128)> =
                fast.iter().map(|(t, w)| (t.to_vec(), w)).collect();
            let naive_tuples: Vec<(Vec<Value>, u128)> =
                naive.iter().map(|(t, w)| (t.clone(), w)).collect();
            assert_eq!(fast_tuples, naive_tuples);
        }
    }
}
