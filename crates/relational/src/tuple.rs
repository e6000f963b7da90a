//! Tuples and projections.
//!
//! A tuple over an attribute list `attrs` (sorted by [`AttrId`]) is stored as a
//! `Vec<Value>` whose `i`-th entry is the value of `attrs[i]`.  The paper
//! writes `π_y t` for the projection of tuple `t` onto attributes `y`; this
//! module provides that operation together with position pre-computation for
//! hot loops.

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::Result;

/// A single attribute value.  Domain elements are integers `0..domain_size`.
pub type Value = u64;

/// Maximum arity stored inline by [`TupleKey`] (no heap allocation).
///
/// `TupleKey` is used for hash-index and group-by keys, which range over
/// shared-attribute sets and grouping sets: arity ≤ 4 covers every query
/// shape in `dpsyn-datagen` (join keys of two-table/path/star/triangle
/// queries have arity 1–2, boundaries at most a handful).  Full result
/// tuples never pass through `TupleKey` — `JoinResult` stores them in a
/// flat row-major buffer — so wider keys (which spill to a boxed slice)
/// only arise in unusual ad-hoc projections.
pub const INLINE_ARITY: usize = 4;

/// A compact tuple key for the hash-join engine.
///
/// Tuples of arity ≤ [`INLINE_ARITY`] are stored inline (one enum word plus
/// four values, no heap allocation); wider tuples spill to a boxed slice.
/// `TupleKey` hashes, compares and orders exactly like its value slice, so a
/// map keyed by `TupleKey` can be probed with a borrowed `&[Value]` (via
/// [`std::borrow::Borrow`]) without materialising a key.
#[derive(Debug, Clone)]
pub enum TupleKey {
    /// Inline storage: `vals[..len]` are the tuple's values.
    Inline {
        /// Number of valid values.
        len: u8,
        /// Value storage (entries past `len` are zero and ignored).
        vals: [Value; INLINE_ARITY],
    },
    /// Heap storage for tuples wider than [`INLINE_ARITY`].
    Heap(Box<[Value]>),
}

impl TupleKey {
    /// Builds a key from a value slice.
    #[inline]
    pub fn from_slice(values: &[Value]) -> Self {
        if values.len() <= INLINE_ARITY {
            let mut vals = [0; INLINE_ARITY];
            vals[..values.len()].copy_from_slice(values);
            TupleKey::Inline {
                len: values.len() as u8,
                vals,
            }
        } else {
            TupleKey::Heap(values.into())
        }
    }

    /// Builds a key of length `len` whose `i`-th value is `f(i)`.
    ///
    /// This is the allocation-free construction used by the join engine's
    /// merge step (values are pulled from the two operand tuples in place).
    #[inline]
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Value) -> Self {
        if len <= INLINE_ARITY {
            let mut vals = [0; INLINE_ARITY];
            for (i, slot) in vals[..len].iter_mut().enumerate() {
                *slot = f(i);
            }
            TupleKey::Inline {
                len: len as u8,
                vals,
            }
        } else {
            TupleKey::Heap((0..len).map(f).collect())
        }
    }

    /// Projects `tuple` onto pre-computed `positions`
    /// (see [`project_positions`]) without any intermediate allocation.
    #[inline]
    pub fn project(tuple: &[Value], positions: &[usize]) -> Self {
        TupleKey::from_fn(positions.len(), |i| tuple[positions[i]])
    }

    /// The key's values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        match self {
            TupleKey::Inline { len, vals } => &vals[..*len as usize],
            TupleKey::Heap(vals) => vals,
        }
    }

    /// Number of values in the key.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            TupleKey::Inline { len, .. } => *len as usize,
            TupleKey::Heap(vals) => vals.len(),
        }
    }

    /// Whether the key is the empty tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the key into an owned `Vec`.
    #[inline]
    pub fn to_vec(&self) -> Vec<Value> {
        self.as_slice().to_vec()
    }
}

impl PartialEq for TupleKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TupleKey {}

impl PartialOrd for TupleKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TupleKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for TupleKey {
    /// Hashes exactly like the value slice, keeping the `Borrow<[Value]>`
    /// lookup contract: `hash(key) == hash(key.as_slice())`.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl std::borrow::Borrow<[Value]> for TupleKey {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl std::ops::Deref for TupleKey {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl From<&[Value]> for TupleKey {
    #[inline]
    fn from(values: &[Value]) -> Self {
        TupleKey::from_slice(values)
    }
}

impl From<Vec<Value>> for TupleKey {
    #[inline]
    fn from(values: Vec<Value>) -> Self {
        if values.len() <= INLINE_ARITY {
            TupleKey::from_slice(&values)
        } else {
            TupleKey::Heap(values.into_boxed_slice())
        }
    }
}

/// An arena for projected tuple keys: one flat `Vec<Value>` holding
/// fixed-width rows, filled in a build pass and then frozen.
///
/// The hash-join index build used to construct one [`TupleKey`] per build-side
/// row; for wide shared-attribute sets (arity > [`INLINE_ARITY`], e.g. the
/// Figure-4 query's projections) every such key spilled to its own boxed
/// slice.  `KeyArena` replaces that with a two-phase pattern that allocates
/// **zero** per-key boxes at any arity:
///
/// 1. project every row into the arena with [`KeyArena::push_projected`]
///    (one amortised `Vec` growth, no per-row allocation);
/// 2. freeze the arena (stop pushing) and build a map keyed by the borrowed
///    `&[Value]` rows via [`KeyArena::row`].
///
/// Borrowed rows stay valid because the map is built only after the fill
/// pass — the borrow checker enforces the freeze.  Probing such a map with a
/// scratch slice is already allocation-free (`&[Value]` keys, like
/// `TupleKey`, hash and compare as plain value slices).
#[derive(Debug, Clone)]
pub struct KeyArena {
    width: usize,
    rows: usize,
    data: Vec<Value>,
}

impl KeyArena {
    /// Creates an arena for keys of exactly `width` values (`width = 0` is
    /// allowed: every row is then the empty tuple, as in cross products).
    pub fn new(width: usize) -> Self {
        KeyArena {
            width,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Creates an arena with capacity reserved for `rows` keys up front.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        KeyArena {
            width,
            rows: 0,
            data: Vec::with_capacity(width * rows),
        }
    }

    /// Appends the projection of `tuple` onto pre-computed `positions`
    /// (see [`project_positions`]) as the next row.  `positions` must have
    /// the arena's width.
    #[inline]
    pub fn push_projected(&mut self, tuple: &[Value], positions: &[usize]) {
        debug_assert_eq!(positions.len(), self.width, "projection width mismatch");
        self.data.extend(positions.iter().map(|&p| tuple[p]));
        self.rows += 1;
    }

    /// The `i`-th row as a borrowed slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.width..i * self.width + self.width]
    }

    /// Number of rows pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the arena holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Drops all rows but keeps the allocation, so the arena can be reused
    /// as a per-batch scratch buffer in the batched probe loop.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }
}

/// Computes, for each attribute in `onto`, its position inside `attrs`.
///
/// Both lists must be sorted; `onto` must be a subset of `attrs`.
/// The returned positions can be reused to project many tuples cheaply.
pub fn project_positions(attrs: &[AttrId], onto: &[AttrId]) -> Result<Vec<usize>> {
    let mut positions = Vec::with_capacity(onto.len());
    for target in onto {
        match attrs.binary_search(target) {
            Ok(pos) => positions.push(pos),
            Err(_) => {
                return Err(RelationalError::NotASubset {
                    detail: format!("attribute {target} is not part of the source attribute list"),
                })
            }
        }
    }
    Ok(positions)
}

/// Projects `tuple` (over `attrs`) onto the attribute subset `onto`:
/// the paper's `π_onto tuple`.
pub fn project(tuple: &[Value], attrs: &[AttrId], onto: &[AttrId]) -> Result<Vec<Value>> {
    let positions = project_positions(attrs, onto)?;
    Ok(project_with_positions(tuple, &positions))
}

/// Projects using pre-computed positions (see [`project_positions`]).
#[inline]
pub fn project_with_positions(tuple: &[Value], positions: &[usize]) -> Vec<Value> {
    positions.iter().map(|&p| tuple[p]).collect()
}

/// Projects `tuple` onto `positions` into a reusable scratch buffer,
/// clearing it first.  Hot loops call this with one buffer per loop so that
/// probing a hash index allocates nothing (the buffer's slice is used as the
/// lookup key via `Borrow<[Value]>`).
#[inline]
pub fn project_into(tuple: &[Value], positions: &[usize], scratch: &mut Vec<Value>) {
    scratch.clear();
    scratch.extend(positions.iter().map(|&p| tuple[p]));
}

/// Merges two attribute lists (each sorted, duplicate-free) into their sorted
/// union, returning the union.
pub fn union_attrs(a: &[AttrId], b: &[AttrId]) -> Vec<AttrId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Intersection of two sorted attribute lists.
pub fn intersect_attrs(a: &[AttrId], b: &[AttrId]) -> Vec<AttrId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Set difference `a \ b` of two sorted attribute lists.
pub fn diff_attrs(a: &[AttrId], b: &[AttrId]) -> Vec<AttrId> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    #[test]
    fn projection_basic() {
        let attrs = ids(&[0, 2, 5]);
        let t = vec![10, 20, 50];
        assert_eq!(project(&t, &attrs, &ids(&[0, 5])).unwrap(), vec![10, 50]);
        assert_eq!(project(&t, &attrs, &ids(&[2])).unwrap(), vec![20]);
        assert_eq!(project(&t, &attrs, &[]).unwrap(), Vec::<Value>::new());
        assert!(project(&t, &attrs, &ids(&[1])).is_err());
    }

    #[test]
    fn set_operations() {
        let a = ids(&[0, 1, 3, 5]);
        let b = ids(&[1, 2, 5, 7]);
        assert_eq!(union_attrs(&a, &b), ids(&[0, 1, 2, 3, 5, 7]));
        assert_eq!(intersect_attrs(&a, &b), ids(&[1, 5]));
        assert_eq!(diff_attrs(&a, &b), ids(&[0, 3]));
        assert_eq!(diff_attrs(&b, &a), ids(&[2, 7]));
        assert_eq!(union_attrs(&[], &b), b);
        assert_eq!(intersect_attrs(&a, &[]), vec![]);
    }

    #[test]
    fn project_positions_reusable() {
        let attrs = ids(&[1, 4, 6, 9]);
        let pos = project_positions(&attrs, &ids(&[4, 9])).unwrap();
        assert_eq!(pos, vec![1, 3]);
        assert_eq!(project_with_positions(&[5, 6, 7, 8], &pos), vec![6, 8]);
        let mut scratch = Vec::new();
        project_into(&[5, 6, 7, 8], &pos, &mut scratch);
        assert_eq!(scratch, vec![6, 8]);
        project_into(&[5, 6, 7, 8], &[0], &mut scratch);
        assert_eq!(scratch, vec![5]);
    }

    #[test]
    fn tuple_key_inline_and_heap_agree_with_slices() {
        use std::hash::BuildHasher;

        for len in 0..=6usize {
            let values: Vec<Value> = (0..len as u64).map(|v| v * 7 + 1).collect();
            let key = TupleKey::from_slice(&values);
            assert_eq!(key.as_slice(), values.as_slice());
            assert_eq!(key.len(), len);
            assert_eq!(key.is_empty(), len == 0);
            assert_eq!(key.to_vec(), values);
            assert!(
                matches!(
                    key,
                    TupleKey::Inline { .. } if len <= INLINE_ARITY,
                ) || len > INLINE_ARITY
            );

            // Hash must match the slice hash (Borrow-based map probing).
            let build = crate::hash::FxBuildHasher::default();
            assert_eq!(build.hash_one(&key), build.hash_one(values.as_slice()));
        }
    }

    #[test]
    fn tuple_key_orders_like_slices() {
        let a = TupleKey::from_slice(&[1, 2]);
        let b = TupleKey::from_slice(&[1, 3]);
        let c = TupleKey::from_slice(&[1, 2, 0]);
        assert!(a < b);
        assert!(a < c);
        assert_eq!(a, TupleKey::from(vec![1, 2]));
        assert_ne!(a, b);
    }

    #[test]
    fn tuple_key_from_fn_and_project() {
        let key = TupleKey::from_fn(3, |i| (i as Value) * 10);
        assert_eq!(key.as_slice(), &[0, 10, 20]);
        let wide = TupleKey::from_fn(6, |i| i as Value);
        assert_eq!(wide.as_slice(), &[0, 1, 2, 3, 4, 5]);
        let projected = TupleKey::project(&[9, 8, 7, 6], &[3, 0]);
        assert_eq!(projected.as_slice(), &[6, 9]);
    }

    #[test]
    fn key_arena_rows_round_trip() {
        let mut arena = KeyArena::with_capacity(2, 3);
        assert!(arena.is_empty());
        arena.push_projected(&[9, 8, 7], &[2, 0]);
        arena.push_projected(&[1, 2, 3], &[0, 1]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.row(0), &[7, 9]);
        assert_eq!(arena.row(1), &[1, 2]);

        // Frozen arena rows work as borrowed hash-map keys (the join engine's
        // zero-allocation index-build pattern).
        let mut map: crate::hash::FxHashMap<&[Value], u64> = crate::hash::FxHashMap::default();
        for i in 0..arena.len() {
            *map.entry(arena.row(i)).or_insert(0) += 1;
        }
        assert_eq!(map.get(&[7u64, 9][..]).copied(), Some(1));

        // Width-0 arenas count rows (cross-product indexes group under the
        // empty key).
        let mut empty = KeyArena::new(0);
        empty.push_projected(&[5], &[]);
        empty.push_projected(&[6], &[]);
        assert_eq!(empty.len(), 2);
        assert_eq!(empty.row(1), &[] as &[Value]);
    }

    #[test]
    fn key_arena_clear_keeps_width_and_reuses() {
        let mut arena = KeyArena::with_capacity(2, 4);
        arena.push_projected(&[1, 2, 3], &[0, 2]);
        assert_eq!(arena.len(), 1);
        arena.clear();
        assert!(arena.is_empty());
        arena.push_projected(&[4, 5, 6], &[1, 2]);
        assert_eq!(arena.row(0), &[5, 6]);
    }

    #[test]
    fn tuple_key_borrow_lookup() {
        let mut map: crate::hash::FxHashMap<TupleKey, u64> = crate::hash::FxHashMap::default();
        map.insert(TupleKey::from_slice(&[4, 5]), 99);
        assert_eq!(map.get(&[4u64, 5][..]).copied(), Some(99));
        assert_eq!(map.get(&[4u64, 6][..]).copied(), None);
    }
}
