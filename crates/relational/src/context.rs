//! A long-lived execution context for the relational engine.
//!
//! [`ExecContext`] is the engine-level backing of the facade crate's
//! `dpsyn::Session`: it owns the [`Parallelism`] knob, the small-instance
//! sequential-fallback threshold, and **persistent, instance-fingerprinted
//! caches** that survive across calls.
//!
//! The sensitivity computations of the paper read the `2^m` relation subsets
//! of one `(query, instance)` pair over and over: every residual sensitivity
//! at a new smoothing parameter `β` needs the same boundary values `T_F(I)`,
//! and every repeated release over the same instance needs the same full
//! join, `count(I)` and true answers.  The context keeps those *values*, not
//! the machinery that computes them: a [`crate::SubJoinLattice`] is a
//! local of each computation and is dropped when it returns, while the
//! values it yields are memoised in the pair's slot
//! ([`ExecContext::slot_memo`]) — so a *warm* context answers a `β` sweep
//! from one boundary-value map instead of re-enumerating the lattice.
//!
//! ### Fingerprinting and the slot LRU
//!
//! The cache is keyed by [`instance_fingerprint`], a 64-bit structural hash
//! of the query (relation attribute lists, attribute domain sizes) and the
//! full instance contents (every tuple and frequency, in the relations'
//! deterministic iteration order).  A read whose fingerprint matches a
//! stored slot is served from it; an unknown fingerprint computes cold, and
//! storing the result claims a slot of its own.  The context keeps a small
//! **LRU of slots** ([`DEFAULT_CACHE_SLOTS`]) rather than a single one, so
//! multi-instance pipelines — `HierarchicalRelease`'s per-part `MultiTable`
//! calls, servers answering over several instances — stay warm too; only
//! the least-recently-used slot is evicted when the capacity is exceeded.
//! Mutating an instance changes its fingerprint, so ordinary edits can
//! never be served stale results.
//!
//! A slot holds, for its pair:
//!
//! * the full join of the size-ordered fold ([`ExecContext::shared_join`]);
//! * the **slot memo** ([`ExecContext::slot_memo`]): release-invariant
//!   values computed from the pair's data — the boundary values `T_F(I)`,
//!   PMW's true answers and `count(I)` per workload, `RS^β(I)` per `β`, and
//!   the hierarchical partition's `|E| > 1` degree maps per `(E, y)` — one
//!   entry per value type, each keyed exactly by its non-data inputs.
//!
//! Beside the slots, the **context memo** ([`ExecContext::context_memo`])
//! holds values that depend on no instance data — PMW's per-cell query
//! weights, keyed by histogram layout and workload — one entry per value
//! type.  Both memos are transparent: a miss runs the computation a cold
//! context runs, and a hit returns that computation's value.
//!
//! **Trust model:** the fingerprint is a *non-cryptographic* Fx hash.  It
//! guards against accidental staleness (edits, instance swaps), not against
//! a caller who deliberately crafts a second instance colliding with the
//! first — but in the DP setting the caller *is* the data curator holding
//! the private instance, so an adversarial instance supplier is outside the
//! threat model (an adversary with instance-supplying access needs no hash
//! collision to learn the data).  Callers embedding this engine behind an
//! untrusted instance-upload boundary should call
//! [`ExecContext::clear_cache`] between principals.  Slot-memo entries
//! inherit this model: their slot is found by fingerprint, but within it
//! (and in the context memo) an entry is found only by its full key, never
//! by a hash of it.
//!
//! ### Determinism contract
//!
//! Reuse never changes bytes.  Memo entries are the values their cold
//! computation returns, keyed by every input besides the slot's data, so a
//! hit is byte-identical.  The cached full join is different: truth
//! answers sum `f64` terms in its physical row order, so it is only ever
//! produced by the same size-ordered fold as [`crate::join::join`].
//! [`ExecContext::apply_updates`] drops the pre-update slot whole, so the
//! updated instance's caches are rebuilt by the cold path.  A warm
//! context's outputs are therefore **byte-identical** to a cold context's,
//! which are in turn byte-identical at every parallelism level.  The caches
//! trade memory for wall-clock time, never output.

use std::any::{Any, TypeId};
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

use crate::attr::AttrId;
use crate::exec::Parallelism;
use crate::hash::{FxHashMap, FxHasher};
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::{join_impl, join_size_impl, join_subset_impl, JoinResult};
use crate::stream::{self, UpdateBatch};
use crate::tuple::Value;
use crate::Result;

/// Default threshold (total distinct tuples across relations) below which
/// multi-threaded entry points take the sequential code paths — pool
/// overhead would dominate such tiny joins.  Results are identical either
/// way; only wall-clock differs.
pub const DEFAULT_MIN_PAR_INSTANCE: usize = 2048;

/// Number of `(query, instance)` slots the persistent cache LRU keeps warm
/// at once.  Sized for the common multi-instance pipelines (hierarchical
/// per-part releases, small server working sets) while bounding the
/// resident full joins and memo values to a handful of instances.
pub const DEFAULT_CACHE_SLOTS: usize = 8;

/// A 64-bit structural fingerprint of a `(query, instance)` pair: relation
/// attribute lists, attribute domain sizes, and every tuple/frequency of the
/// instance (hashed in the relations' deterministic iteration order).
///
/// Two equal pairs always produce the same fingerprint; the persistent
/// caches of [`ExecContext`] use it to detect that a call refers to the same
/// data as the previous one.
pub fn instance_fingerprint(query: &JoinQuery, instance: &Instance) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(query.num_relations());
    for attrs in query.relations() {
        h.write_usize(attrs.len());
        for a in attrs {
            h.write_u64(a.index() as u64);
        }
    }
    let schema = query.schema();
    h.write_usize(schema.attr_count());
    for id in schema.all_ids() {
        h.write_u64(schema.domain_size(id).unwrap_or(0));
    }
    h.write_usize(instance.num_relations());
    for r in (0..instance.num_relations()).map(|i| instance.relation(i)) {
        h.write_usize(r.distinct_count());
        for (t, f) in r.iter() {
            for &v in t {
                h.write_u64(v);
            }
            h.write_u64(f);
        }
    }
    h.finish()
}

/// What [`ExecContext::apply_updates`] did with one [`UpdateBatch`]: the
/// fingerprint transition and whether it dropped warm state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// Fingerprint of the `(query, instance)` pair before the batch.
    pub old_fingerprint: u64,
    /// Fingerprint after the batch (equal to `old_fingerprint` only when
    /// the batch was a net no-op).
    pub new_fingerprint: u64,
    /// Number of ops in the batch (gross, before net cancellation).
    pub ops: usize,
    /// Whether a warm LRU slot was found under the old fingerprint and
    /// dropped.  Either way the caches of the updated instance rebuild
    /// lazily under the new fingerprint.
    pub warm: bool,
    /// Relations whose contents the batch changed (net).
    pub relations_touched: usize,
}

/// One memoised value: the exact key it was built for, and the value.
#[derive(Debug)]
struct MemoEntry {
    key: Box<[u64]>,
    value: Arc<dyn Any + Send + Sync>,
}

/// A memo scope: at most one entry per value type.
type Memo = FxHashMap<TypeId, MemoEntry>;

/// The entry of type `T` in `memo`, if it was built for exactly `key`.
fn memo_get<T: Any + Send + Sync>(memo: &Memo, key: &[u64]) -> Option<Arc<T>> {
    let entry = memo.get(&TypeId::of::<T>())?;
    if *entry.key != *key {
        return None;
    }
    Arc::clone(&entry.value).downcast::<T>().ok()
}

/// Stores `value` as `memo`'s entry of type `T`, replacing an entry built
/// for another key.  A concurrent build that stored the same key first
/// wins, so every caller shares one `Arc`.
fn memo_put<T: Any + Send + Sync>(memo: &mut Memo, key: &[u64], value: Arc<T>) -> Arc<T> {
    if let Some(existing) = memo_get::<T>(memo, key) {
        return existing;
    }
    let entry = MemoEntry {
        key: key.into(),
        value: Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
    };
    memo.insert(TypeId::of::<T>(), entry);
    value
}

/// One `(query, instance)` entry of the persistent cache LRU.
#[derive(Debug)]
struct CacheSlot {
    /// Fingerprint of the `(query, instance)` pair the slot belongs to.
    fingerprint: u64,
    /// The full join produced by the standard size-ordered fold.
    full_join: Option<Arc<JoinResult>>,
    /// Data-dependent values memoised by [`ExecContext::slot_memo`]
    /// (boundary values, true answers, `count(I)`, `RS^β(I)`, degree
    /// maps): dropped with the slot by [`ExecContext::apply_updates`] and
    /// by eviction.
    memo: Memo,
    /// Logical access time (monotonic per context) driving LRU eviction.
    last_used: u64,
}

/// Counters of LRU slot evictions on an [`ExecContext`], surfaced via
/// [`ExecContext::eviction_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionStats {
    /// Number of slot evictions performed by the LRU.
    pub evictions: u64,
}

/// The persistent cache state guarded by the context's mutex: a small LRU of
/// per-instance slots plus hit/miss counters.
#[derive(Debug, Default)]
struct CacheState {
    slots: Vec<CacheSlot>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: EvictionStats,
    /// Data-independent values memoised by [`ExecContext::context_memo`]
    /// (PMW's per-cell query weights); they outlive updates and evictions.
    memo: Memo,
}

impl CacheState {
    /// The slot for `fingerprint`, touched as most-recently-used.
    fn slot_mut(&mut self, fingerprint: u64) -> Option<&mut CacheSlot> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.fingerprint == fingerprint)?;
        slot.last_used = clock;
        Some(slot)
    }

    /// The slot for `fingerprint`, created (and the LRU slot evicted when
    /// over [`DEFAULT_CACHE_SLOTS`]) if absent.  Touched as
    /// most-recently-used.
    fn slot_mut_or_insert(&mut self, fingerprint: u64) -> &mut CacheSlot {
        self.clock += 1;
        let clock = self.clock;
        if let Some(pos) = self.slots.iter().position(|s| s.fingerprint == fingerprint) {
            let slot = &mut self.slots[pos];
            slot.last_used = clock;
            return slot;
        }
        if self.slots.len() >= DEFAULT_CACHE_SLOTS {
            let evict = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(pos, _)| pos)
                .expect("non-empty slot list");
            self.slots.swap_remove(evict);
            self.evictions.evictions += 1;
        }
        self.slots.push(CacheSlot {
            fingerprint,
            full_join: None,
            memo: Memo::default(),
            last_used: clock,
        });
        self.slots.last_mut().expect("just pushed")
    }

    /// Removes and returns the slot for `fingerprint`, if present.
    fn take_slot(&mut self, fingerprint: u64) -> Option<CacheSlot> {
        let pos = self
            .slots
            .iter()
            .position(|s| s.fingerprint == fingerprint)?;
        Some(self.slots.swap_remove(pos))
    }
}

/// A long-lived execution context: parallelism knob, small-instance
/// threshold, and persistent instance-fingerprinted caches (see the module
/// docs).
///
/// All methods take `&self`; the cache slots live behind a mutex, so a
/// context can be shared by reference across the layers of one pipeline.
/// Locks are held only for map bookkeeping, never across a join.
#[derive(Debug)]
pub struct ExecContext {
    parallelism: Parallelism,
    min_par_instance: usize,
    state: Mutex<CacheState>,
}

impl Default for ExecContext {
    /// The environment's parallelism ([`Parallelism::available`]) and the
    /// default small-instance threshold.
    fn default() -> Self {
        ExecContext::new(Parallelism::default())
    }
}

impl ExecContext {
    /// Creates a context with the given parallelism and default thresholds.
    pub fn new(parallelism: Parallelism) -> Self {
        ExecContext {
            parallelism,
            min_par_instance: DEFAULT_MIN_PAR_INSTANCE,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// The strictly sequential context: one worker, no spawned threads —
    /// the exact historical single-threaded code paths.
    pub fn sequential() -> Self {
        ExecContext::new(Parallelism::SEQUENTIAL)
    }

    /// A context with exactly `n` worker threads.
    pub fn with_threads(n: usize) -> Self {
        ExecContext::new(Parallelism::threads(n))
    }

    /// Sets the small-instance threshold: instances with fewer total
    /// distinct tuples run the sequential code paths even under a
    /// multi-thread [`Parallelism`] (results are identical; only wall-clock
    /// differs).
    pub fn with_min_par_instance(mut self, min_par_instance: usize) -> Self {
        self.min_par_instance = min_par_instance;
        self
    }

    /// The worker-thread knob.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The small-instance sequential-fallback threshold.
    pub fn min_par_instance(&self) -> usize {
        self.min_par_instance
    }

    /// Whether `instance` falls below the small-instance threshold.
    pub fn is_small_instance(&self, instance: &Instance) -> bool {
        let mut total = 0usize;
        for i in 0..instance.num_relations() {
            total += instance.relation(i).distinct_count();
            if total >= self.min_par_instance {
                return false;
            }
        }
        true
    }

    /// The parallelism level to use for work over `instance`: sequential
    /// below the small-instance threshold, the context's knob otherwise.
    pub fn effective_parallelism(&self, instance: &Instance) -> Parallelism {
        if self.is_small_instance(instance) {
            Parallelism::SEQUENTIAL
        } else {
            self.parallelism
        }
    }

    // --- join evaluation ---------------------------------------------------

    /// Joins all relations of the query (the paper's `Join_I`) at this
    /// context's parallelism.  Does not consult the persistent caches; use
    /// [`ExecContext::shared_join`] for cross-call reuse.
    pub fn join(&self, query: &JoinQuery, instance: &Instance) -> Result<JoinResult> {
        join_impl(query, instance, self.parallelism)
    }

    /// Joins the subset `rels` of the instance's relations.
    pub fn join_subset(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        rels: &[usize],
    ) -> Result<JoinResult> {
        join_subset_impl(query, instance, rels, self.parallelism)
    }

    /// The join size `count(I)`.
    pub fn join_size(&self, query: &JoinQuery, instance: &Instance) -> Result<u128> {
        join_size_impl(query, instance, self.parallelism)
    }

    /// The degree map `deg_{E,y}` of Definition 4.7
    /// ([`crate::degree::deg_multi`]), joining at this context's
    /// parallelism.  A map over `|E| > 1` relations is memoised in the
    /// pair's slot ([`ExecContext::slot_memo`]), keyed by `(E, y)`.
    pub fn deg_multi(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        e: &[usize],
        y: &[AttrId],
    ) -> Result<std::collections::BTreeMap<Vec<Value>, u64>> {
        let build = || crate::degree::deg_multi_impl(query, instance, e, y, self.parallelism);
        if e.len() <= 1 {
            return build();
        }
        let key: Vec<u64> = std::iter::once(e.len() as u64)
            .chain(e.iter().map(|&r| r as u64))
            .chain(std::iter::once(y.len() as u64))
            .chain(y.iter().map(|a| a.index() as u64))
            .collect();
        Ok(self
            .slot_memo(query, instance, &key, build)?
            .as_ref()
            .clone())
    }

    /// The full join of `(query, instance)`, cached across calls.
    ///
    /// The first call on a given fingerprint computes the join with the
    /// standard size-ordered fold and stores it; later calls on the same
    /// data return the **same** `Arc` — byte-identical by construction and
    /// free of charge.  This is what makes repeated query answering over one
    /// instance (truth computation, workload sweeps) near-free on a warm
    /// context.
    pub fn shared_join(&self, query: &JoinQuery, instance: &Instance) -> Result<Arc<JoinResult>> {
        let fp = instance_fingerprint(query, instance);
        {
            let mut state = self.state.lock().expect("context cache poisoned");
            if let Some(full) = state
                .slot_mut(fp)
                .and_then(|slot| slot.full_join.as_ref().map(Arc::clone))
            {
                state.hits += 1;
                return Ok(full);
            }
        }
        let full = Arc::new(join_impl(query, instance, self.parallelism)?);
        let mut state = self.state.lock().expect("context cache poisoned");
        state.misses += 1;
        state.slot_mut_or_insert(fp).full_join = Some(Arc::clone(&full));
        Ok(full)
    }

    // --- release-invariant memo ---------------------------------------------

    /// The context-scope memo read: the value of type `T` built for `key`,
    /// or `build()`'s value, stored under `key` in place of any `T` built
    /// for another key.
    ///
    /// For values that depend on no instance data (PMW's per-cell query
    /// weights): the scope holds one entry per `T`, which survives
    /// [`ExecContext::apply_updates`] and slot eviction and is dropped by
    /// [`ExecContext::clear_cache`].  `key` must encode every input of
    /// `build`; a hit compares it in full.  `build` runs outside the state
    /// lock, its errors are returned and never stored, and every read counts
    /// as a hit or a miss in [`ExecContext::cache_stats`].
    pub fn context_memo<T, E>(
        &self,
        key: &[u64],
        build: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
    {
        self.memo_at(None, key, build)
    }

    /// The slot-scope memo read: [`ExecContext::context_memo`] for values
    /// that depend on the `(query, instance)` data, kept in the pair's LRU
    /// slot (boundary values, true answers, `count(I)`, `RS^β(I)`, degree
    /// maps).
    ///
    /// Storing a value claims the pair's slot if it holds none, as
    /// [`ExecContext::shared_join`] does, evicting the least-recently-used
    /// slot at capacity.  The slot keeps one entry per `T`; its entries are
    /// dropped with the slot, by [`ExecContext::apply_updates`] or by
    /// eviction.
    pub fn slot_memo<T, E>(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        key: &[u64],
        build: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
    {
        self.memo_at(Some(instance_fingerprint(query, instance)), key, build)
    }

    /// The memo read of the context scope (`fp = None`) or of the slot
    /// `fp`.
    fn memo_at<T, E>(
        &self,
        fp: Option<u64>,
        key: &[u64],
        build: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
    {
        fn scope(state: &mut CacheState, fp: Option<u64>) -> Option<&mut Memo> {
            match fp {
                None => Some(&mut state.memo),
                Some(fp) => state.slot_mut(fp).map(|slot| &mut slot.memo),
            }
        }
        {
            let mut state = self.state.lock().expect("context cache poisoned");
            if let Some(hit) = scope(&mut state, fp).and_then(|memo| memo_get::<T>(memo, key)) {
                state.hits += 1;
                return Ok(hit);
            }
        }
        let value = Arc::new(build()?);
        let mut state = self.state.lock().expect("context cache poisoned");
        state.misses += 1;
        let memo = match fp {
            None => &mut state.memo,
            Some(fp) => &mut state.slot_mut_or_insert(fp).memo,
        };
        Ok(memo_put(memo, key, value))
    }

    // --- streaming updates --------------------------------------------------

    /// Applies a streaming [`UpdateBatch`] to `instance` and drops the
    /// pair's warm LRU slot (see [`crate::stream`]).
    ///
    /// Three steps: validate the batch against its net effect, take and
    /// drop the slot of the pre-update fingerprint, apply the net deltas.
    /// Everything the slot held — full join, slot memo — describes
    /// the old data; the updated instance's caches rebuild lazily under its
    /// new fingerprint, by the same cold path a fresh context takes, so
    /// every downstream observable is byte-identical to a fresh context's.
    /// The context memo holds no instance data and survives.  Validation
    /// errors leave both the instance and the cache untouched.
    pub fn apply_updates(
        &self,
        query: &JoinQuery,
        instance: &mut Instance,
        batch: &UpdateBatch,
    ) -> Result<UpdateReport> {
        // Validate before touching the slot: a malformed batch must cost
        // neither the instance nor the warm cache.
        let deltas = batch.net_deltas(query, instance)?;
        let old_fp = instance_fingerprint(query, instance);
        let warm = self
            .state
            .lock()
            .expect("context cache poisoned")
            .take_slot(old_fp)
            .is_some();
        stream::apply_net_deltas(instance, &deltas);
        Ok(UpdateReport {
            old_fingerprint: old_fp,
            new_fingerprint: instance_fingerprint(query, instance),
            ops: batch.len(),
            warm,
            relations_touched: deltas.iter().filter(|d| !d.is_empty()).count(),
        })
    }

    /// Approximate resident bytes of the slots' cached full joins
    /// ([`ExecContext::shared_join`]): the only join results a context
    /// keeps, since sub-join lattices are locals of the computations that
    /// build them.
    pub fn cached_subjoin_bytes(&self) -> usize {
        self.state
            .lock()
            .expect("context cache poisoned")
            .slots
            .iter()
            .filter_map(|s| s.full_join.as_ref())
            .map(|full| full.approx_bytes())
            .sum()
    }

    /// LRU slot-eviction counters since the context was created (or since
    /// the last [`ExecContext::clear_cache`], which resets them along with
    /// the slots they describe).
    pub fn eviction_stats(&self) -> EvictionStats {
        self.state.lock().expect("context cache poisoned").evictions
    }

    /// Number of `(query, instance)` pairs currently holding an LRU slot.
    pub fn cached_instances(&self) -> usize {
        self.state
            .lock()
            .expect("context cache poisoned")
            .slots
            .len()
    }

    /// `(hits, misses)` of the persistent caches: a hit is a shared-join
    /// call or memo read that found warm data for its fingerprint and key.
    pub fn cache_stats(&self) -> (u64, u64) {
        let state = self.state.lock().expect("context cache poisoned");
        (state.hits, state.misses)
    }

    /// Drops every persisted cache slot (full joins and slot memos) and the
    /// context-scope memo, releasing their memory.
    /// The context remains usable; the next call simply starts cold.
    pub fn clear_cache(&self) {
        let mut state = self.state.lock().expect("context cache poisoned");
        state.slots.clear();
        state.memo.clear();
        state.evictions = EvictionStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{join, join_subset};

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
    fn fingerprint_tracks_instance_content() {
        let (q, inst) = star_instance(3);
        let fp = instance_fingerprint(&q, &inst);
        assert_eq!(fp, instance_fingerprint(&q, &inst));
        let mut edited = inst.clone();
        edited.relation_mut(0).add(vec![9, 9], 1).unwrap();
        assert_ne!(fp, instance_fingerprint(&q, &edited));
        // Frequency changes alone must also change the fingerprint.
        let mut heavier = inst.clone();
        heavier.relation_mut(0).add(vec![0, 0], 1).unwrap();
        assert_ne!(fp, instance_fingerprint(&q, &heavier));

        // Clones share relations copy-on-write: each mutation path copies
        // the relation it writes, never the original's, and leaves the
        // relations it does not touch shared.
        let snapshot: Vec<crate::Relation> = (0..3).map(|j| inst.relation(j).clone()).collect();
        let shares =
            |a: &Instance, b: &Instance, j: usize| std::ptr::eq(a.relation(j), b.relation(j));
        let clone = inst.clone();
        assert!((0..3).all(|j| shares(&clone, &inst, j)));
        let edited_by_edit = inst
            .apply_edit(&crate::NeighborEdit::Remove {
                relation: 1,
                tuple: vec![0, 1],
            })
            .unwrap();
        let mut updated = inst.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(2, vec![7, 7], 2);
        ExecContext::sequential()
            .apply_updates(&q, &mut updated, &batch)
            .unwrap();
        for (written, j) in [(&edited, 0), (&edited_by_edit, 1), (&updated, 2)] {
            assert!(
                !shares(written, &inst, j),
                "R{j} was copied before the write"
            );
            assert!(
                (0..3)
                    .filter(|&k| k != j)
                    .all(|k| shares(written, &inst, k)),
                "relations other than R{j} stay shared"
            );
        }
        assert_eq!(instance_fingerprint(&q, &inst), fp);
        assert!((0..3).all(|j| inst.relation(j) == &snapshot[j]));
    }

    #[test]
    fn context_joins_match_free_functions() {
        let (q, inst) = star_instance(3);
        let ctx = ExecContext::sequential();
        let a = ctx.join(&q, &inst).unwrap();
        let b = join(&q, &inst).unwrap();
        assert_eq!(a, b);
        let sub_ctx = ctx.join_subset(&q, &inst, &[0, 2]).unwrap();
        let sub_free = join_subset(&q, &inst, &[0, 2]).unwrap();
        assert_eq!(sub_ctx, sub_free);
        assert_eq!(ctx.join_size(&q, &inst).unwrap(), a.total());
    }

    #[test]
    fn shared_join_is_cached_and_identical() {
        let (q, inst) = star_instance(3);
        let ctx = ExecContext::sequential();
        let cold = ctx.shared_join(&q, &inst).unwrap();
        let warm = ctx.shared_join(&q, &inst).unwrap();
        // Same Arc, not merely an equal value.
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(cold.as_ref(), &join(&q, &inst).unwrap());
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    /// `n` star instances with pairwise distinct fingerprints.
    fn star_variants(n: u64) -> (JoinQuery, Vec<Instance>) {
        let (q, base) = star_instance(3);
        let variants = (0..n)
            .map(|v| {
                let mut inst = base.clone();
                inst.relation_mut(0).add(vec![9, v % 16], 1).unwrap();
                inst
            })
            .collect();
        (q, variants)
    }

    #[test]
    fn multiple_instances_share_the_lru_without_clobbering() {
        let (q, inst) = star_instance(3);
        let (q2, inst2) = star_instance(4);
        let ctx = ExecContext::sequential();
        let first = ctx.shared_join(&q, &inst).unwrap();
        // A different pair claims its own slot and does NOT evict the
        // first instance while capacity remains.
        ctx.shared_join(&q2, &inst2).unwrap();
        assert_eq!(ctx.cached_instances(), 2);
        let back = ctx.shared_join(&q, &inst).unwrap();
        assert!(Arc::ptr_eq(&first, &back), "first instance stays warm");
    }

    #[test]
    fn lru_evicts_the_least_recently_used_slot_past_capacity() {
        let (q, variants) = star_variants(DEFAULT_CACHE_SLOTS as u64 + 1);
        let ctx = ExecContext::sequential();
        let joins: Vec<_> = variants[..DEFAULT_CACHE_SLOTS]
            .iter()
            .map(|inst| ctx.shared_join(&q, inst).unwrap())
            .collect();
        assert_eq!(ctx.cached_instances(), DEFAULT_CACHE_SLOTS);
        assert_eq!(ctx.eviction_stats(), EvictionStats::default());
        // Touch instance 0 so instance 1 becomes the LRU victim.
        ctx.shared_join(&q, &variants[0]).unwrap();
        ctx.shared_join(&q, &variants[DEFAULT_CACHE_SLOTS]).unwrap();
        assert_eq!(
            ctx.cached_instances(),
            DEFAULT_CACHE_SLOTS,
            "capacity holds"
        );
        assert_eq!(ctx.eviction_stats().evictions, 1);
        // Every other instance is still warm (the same Arc); instance 1
        // (least recently used) was evicted and rebuilds cold.
        for (i, join) in joins.iter().enumerate().filter(|&(i, _)| i != 1) {
            assert!(
                Arc::ptr_eq(join, &ctx.shared_join(&q, &variants[i]).unwrap()),
                "instance {i} must stay warm"
            );
        }
        let (_, misses) = ctx.cache_stats();
        let rebuilt = ctx.shared_join(&q, &variants[1]).unwrap();
        assert!(!Arc::ptr_eq(&joins[1], &rebuilt));
        assert_eq!(ctx.cache_stats().1, misses + 1, "instance 1 starts cold");
        assert_eq!(rebuilt.as_ref(), joins[1].as_ref());
    }

    #[test]
    fn byte_accounting_counts_the_cached_full_joins() {
        let (q, variants) = star_variants(DEFAULT_CACHE_SLOTS as u64 + 1);
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        // A memo value claims a slot but holds no join result.
        ctx.slot_memo(&q, &variants[0], &[], || Ok::<_, ()>(1u64))
            .unwrap();
        assert_eq!(ctx.cached_instances(), 1);
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        let bytes: Vec<usize> = variants
            .iter()
            .map(|inst| ctx.shared_join(&q, inst).unwrap().approx_bytes())
            .collect();
        assert!(bytes.iter().all(|&b| b > 0));
        // The last join evicted the least recently used slot, variant 0's,
        // and its bytes with it.
        assert_eq!(ctx.eviction_stats().evictions, 1);
        assert_eq!(ctx.cached_subjoin_bytes(), bytes[1..].iter().sum::<usize>());
        // clear_cache resets both the slots and the eviction counters.
        ctx.clear_cache();
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        assert_eq!(ctx.eviction_stats(), EvictionStats::default());
    }

    #[test]
    fn clear_cache_releases_entries() {
        let (q, inst) = star_instance(3);
        let ctx = ExecContext::sequential();
        ctx.shared_join(&q, &inst).unwrap();
        assert_eq!(ctx.cached_instances(), 1);
        assert!(ctx.cached_subjoin_bytes() > 0);
        ctx.clear_cache();
        assert_eq!(ctx.cached_instances(), 0);
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        // Still usable afterwards.
        assert_eq!(
            ctx.shared_join(&q, &inst).unwrap().as_ref(),
            &join(&q, &inst).unwrap()
        );
    }

    #[test]
    fn small_instance_threshold_is_configurable() {
        let (_, inst) = star_instance(3);
        let big = ExecContext::with_threads(4).with_min_par_instance(usize::MAX);
        assert!(big.is_small_instance(&inst));
        assert!(big.effective_parallelism(&inst).is_sequential());
        let tiny = ExecContext::with_threads(4).with_min_par_instance(1);
        assert!(!tiny.is_small_instance(&inst));
        assert_eq!(tiny.effective_parallelism(&inst).get(), 4);
    }

    fn star_batch() -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![2, 8], 3);
        batch.delete(1, vec![0, 1], 1);
        batch.insert(2, vec![5, 5], 1);
        batch
    }

    #[test]
    fn apply_updates_drops_the_warm_slot() {
        let (q, base) = star_instance(3);
        let batch = star_batch();
        let ctx = ExecContext::sequential();
        // Warm everything a slot can hold.
        let mut inst = base.clone();
        ctx.shared_join(&q, &inst).unwrap();
        ctx.slot_memo(&q, &inst, &[], || Ok::<_, ()>(1u64)).unwrap();
        assert_eq!(ctx.cached_instances(), 1);
        let report = ctx.apply_updates(&q, &mut inst, &batch).unwrap();
        assert!(report.warm);
        assert_eq!(report.relations_touched, 3);
        assert_ne!(report.old_fingerprint, report.new_fingerprint);
        assert_eq!(report.new_fingerprint, instance_fingerprint(&q, &inst));
        // The old slot is gone, not orphaned; the new instance starts cold.
        assert_eq!(ctx.cached_instances(), 0);
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        let mut oracle = base.clone();
        stream::apply_batch(&q, &mut oracle, &batch).unwrap();
        assert_eq!(inst, oracle);
        // The rebuilt full join matches a cold context's row for row.
        let shared = ctx.shared_join(&q, &inst).unwrap();
        let cold = ExecContext::sequential().shared_join(&q, &oracle).unwrap();
        assert!(
            shared.iter_unordered().eq(cold.iter_unordered()),
            "shared join must match a cold join in row order"
        );
    }

    #[test]
    fn apply_updates_without_a_slot_is_cold_and_correct() {
        let (q, base) = star_instance(3);
        let batch = star_batch();
        let ctx = ExecContext::sequential();
        let mut inst = base.clone();
        let report = ctx.apply_updates(&q, &mut inst, &batch).unwrap();
        assert!(!report.warm);
        assert_eq!(report.relations_touched, 3);
        let mut oracle = base.clone();
        stream::apply_batch(&q, &mut oracle, &batch).unwrap();
        assert_eq!(inst, oracle);
    }

    /// Two-word keys whose Fx hashes collide: the memo must still tell
    /// them apart, because a hit compares the whole key.
    fn colliding_keys() -> ([u64; 2], [u64; 2]) {
        // The hasher state after the length prefix and the first word.
        let prefix = |w: u64| {
            let mut h = FxHasher::default();
            h.write_usize(2);
            h.write_u64(w);
            h.finish()
        };
        let a = [1, 0];
        let b = [2, prefix(1).rotate_left(5) ^ prefix(2).rotate_left(5)];
        let fx = |key: &[u64]| {
            use std::hash::Hash;
            let mut h = FxHasher::default();
            key.hash(&mut h);
            h.finish()
        };
        assert_eq!(fx(&a), fx(&b), "the keys collide under FxHasher");
        (a, b)
    }

    #[test]
    fn memo_hits_compare_the_full_key() {
        let (a, b) = colliding_keys();
        let (q, inst) = star_instance(3);
        let ctx = ExecContext::sequential();
        ctx.shared_join(&q, &inst).unwrap(); // claims the pair's slot
        let read = |key: &[u64], value: u64, slot: bool| -> u64 {
            let build = || Ok::<_, ()>(value);
            *if slot {
                ctx.slot_memo(&q, &inst, key, build)
            } else {
                ctx.context_memo(key, build)
            }
            .unwrap()
        };
        for slot in [false, true] {
            assert_eq!(read(&a, 1, slot), 1);
            assert_eq!(read(&a, 9, slot), 1, "same key hits");
            assert_eq!(read(&b, 2, slot), 2, "a colliding key misses");
            assert_eq!(read(&a, 3, slot), 3, "one entry per type: b replaced a");
        }
    }

    #[test]
    fn memo_stores_no_errors_and_counts_hits_and_misses() {
        let ctx = ExecContext::sequential();
        let before = ctx.cache_stats();
        assert_eq!(ctx.context_memo::<u64, _>(&[1], || Err("no")), Err("no"));
        assert_eq!(ctx.cache_stats(), before, "a failed build is no miss");
        assert_eq!(*ctx.context_memo(&[1], || Ok::<_, ()>(5u64)).unwrap(), 5);
        assert_eq!(*ctx.context_memo::<u64, ()>(&[1], || Err(())).unwrap(), 5);
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits - before.0, misses - before.1), (1, 1));
    }

    #[test]
    fn slot_memo_lives_and_dies_with_its_slot() {
        let (q, variants) = star_variants(DEFAULT_CACHE_SLOTS as u64 + 1);
        let ctx = ExecContext::sequential();
        let slot_read = |inst: &Instance, value: u64| {
            *ctx.slot_memo(&q, inst, &[], || Ok::<_, ()>(value)).unwrap()
        };
        // The first store claims the pair's slot, as a shared join does;
        // the value stays until the slot goes.
        let mut inst = variants[0].clone();
        assert_eq!(slot_read(&inst, 1), 1);
        assert_eq!(ctx.cached_instances(), 1);
        assert_eq!(slot_read(&inst, 2), 1);
        assert_eq!(*ctx.context_memo(&[], || Ok::<_, ()>(10u64)).unwrap(), 10);
        // An update drops the slot and its memo; the context memo survives.
        let report = ctx.apply_updates(&q, &mut inst, &star_batch()).unwrap();
        assert!(report.warm);
        assert_eq!(ctx.cached_instances(), 0);
        assert_eq!(slot_read(&inst, 5), 5);
        assert_eq!(slot_read(&inst, 6), 5);
        assert_eq!(*ctx.context_memo(&[], || Ok::<_, ()>(11u64)).unwrap(), 10);
        // Evicting the slot evicts its memo; the context memo stays.
        for other in &variants[1..] {
            slot_read(other, 0);
        }
        assert_eq!(ctx.eviction_stats().evictions, 1);
        assert_eq!(ctx.cached_instances(), DEFAULT_CACHE_SLOTS);
        assert_eq!(slot_read(&inst, 7), 7);
        assert_eq!(*ctx.context_memo(&[], || Ok::<_, ()>(12u64)).unwrap(), 10);
        // clear_cache drops both scopes.
        let weak = Arc::downgrade(&ctx.slot_memo(&q, &inst, &[], || Ok::<_, ()>(0u64)).unwrap());
        let weak_ctx = Arc::downgrade(&ctx.context_memo(&[], || Ok::<_, ()>(0u64)).unwrap());
        assert!(weak.upgrade().is_some() && weak_ctx.upgrade().is_some());
        ctx.clear_cache();
        assert!(weak.upgrade().is_none() && weak_ctx.upgrade().is_none());
    }

    #[test]
    fn degree_maps_are_memoised_per_relation_set_and_attributes() {
        let (q, inst) = star_instance(3);
        let ctx = ExecContext::sequential();
        ctx.shared_join(&q, &inst).unwrap();
        let hub = q.intersect_attrs(&[0, 1]).unwrap();
        for (e, y) in [
            (&[0usize, 1][..], &hub[..]),
            (&[0, 1, 2], &[][..]),
            (&[0, 1], &[]),
        ] {
            let expected = crate::degree::deg_multi(&q, &inst, e, y).unwrap();
            for _ in 0..2 {
                assert_eq!(
                    ctx.deg_multi(&q, &inst, e, y).unwrap(),
                    expected,
                    "{e:?} {y:?}"
                );
            }
        }
        let (hits, misses) = ctx.cache_stats();
        assert_eq!(
            (hits, misses),
            (3, 4),
            "one shared join, then three degree maps twice"
        );
    }

    #[test]
    fn apply_updates_validation_failure_keeps_the_slot() {
        let (q, base) = star_instance(3);
        let ctx = ExecContext::sequential();
        let mut inst = base.clone();
        ctx.shared_join(&q, &inst).unwrap();
        let mut bad = UpdateBatch::new();
        bad.delete(0, vec![15, 15], 1); // absent tuple: underflow
        let err = ctx.apply_updates(&q, &mut inst, &bad).unwrap_err();
        assert_eq!(err, crate::RelationalError::FrequencyUnderflow);
        assert_eq!(inst, base, "instance untouched on validation error");
        // A failed batch must not cost the warm slot.
        let (hits_before, _) = ctx.cache_stats();
        ctx.shared_join(&q, &inst).unwrap();
        let (hits_after, _) = ctx.cache_stats();
        assert_eq!(hits_after, hits_before + 1, "slot survived the bad batch");
    }
}
