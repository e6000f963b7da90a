//! Residual sensitivity `RS^β_count(I)` (Definition 3.6, after Dong & Yi
//! [15, 16]).
//!
//! ```text
//! RS^β(I)   = max_{k ≥ 0} e^{-βk} · L̂S^k(I)
//! L̂S^k(I)  = max_{s ∈ S_k} max_{i ∈ [m]} Σ_{E ⊆ [m]∖{i}} T_{([m]∖{i})∖E}(I) · Π_{j∈E} s_j
//! ```
//!
//! where `S_k` is the set of non-negative integer vectors summing to `k` and
//! `T_F` are the maximum boundary queries of Equation (1).  `L̂S^k` is the
//! maximum local sensitivity over instances at distance ≤ `k` from `I`, so
//! `RS^β` is a β-smooth upper bound on the local sensitivity; unlike smooth
//! sensitivity it is computable in polynomial time (the `T_F` are joins and
//! `m` is a constant).
//!
//! ### How the maximisation is carried out
//!
//! Writing `k = Σ_j s_j`, the objective
//! `e^{-βΣ_j s_j} · Σ_E T_{O_i∖E} Π_{j∈E} s_j` factors per coordinate into
//! `s_j e^{-β s_j}` (for `j ∈ E`) or `e^{-β s_j}` (for `j ∉ E`).  Both factors
//! are non-increasing in `s_j` beyond `1/β`, so no coordinate of an optimal
//! `s` ever needs to exceed `⌈1/β⌉`.  We therefore enumerate
//! `s ∈ {0, …, ⌈1/β⌉}^{m-1}` exactly — polynomial for constant `m`.
//!
//! ### Cost and bit-identity
//!
//! The sweep evaluates `m·(⌈1/β⌉+1)^{m-1}·2^{m-1}` terms (one `exp` per
//! assignment, `2^{m-1}` terms per assignment) in `O(2^m)` memory: the
//! `T_F` live in one dense table indexed by relation bitmask, each excluded
//! relation `i` reads a `2^{m-1}`-entry view of it, and the odometer
//! updates `s` and `k` in place, so nothing is allocated per assignment or
//! per term.  Small `β` is the expensive case: the hierarchical release runs
//! at `β = ε'/ln(1/δ')` with `ε' = ε/(2G)`, where `⌈1/β⌉` reaches the
//! hundreds.
//!
//! The result is bit-identical to the historical map-keyed sweep (kept as
//! the test oracle) because every assignment performs the same f64
//! operations in the same order: `product = 1.0 · s_b` multiplied in
//! ascending bit order, the zero-product skip for non-empty `E`,
//! `total += product · T` accumulated in mask order, `value = e^{-βk} ·
//! total`, and a strictly-greater update.  Products must not be
//! reassociated or hoisted across assignments (that is only exact while
//! `⌈1/β⌉^{m-1} < 2^53`), and `e^{-βk}` is not tabulated by `k` (a table of
//! `(m-1)·⌈1/β⌉` entries is unbounded for tiny `β`).

use std::collections::BTreeMap;

use dpsyn_relational::{ExecContext, Instance, JoinQuery, Parallelism, ShardedSubJoinCache};

use crate::boundary::boundary_query_sharded;
use crate::context_ext::SensitivityOps;
use crate::error::SensitivityError;
use crate::Result;

/// The result of a residual-sensitivity computation, retaining the
/// intermediate boundary-query values for inspection and testing.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSensitivity {
    /// The smoothing parameter β used.
    pub beta: f64,
    /// The value `RS^β_count(I)`.
    pub value: f64,
    /// The relation index `i` attaining the outer maximum.
    pub maximizing_relation: usize,
    /// The distance `k = Σ_j s_j` at which the maximum is attained.
    pub maximizing_distance: u64,
    /// All maximum boundary-query values `T_F(I)` for proper subsets
    /// `F ⊊ [m]`, keyed by the sorted subset.
    pub boundary_values: BTreeMap<Vec<usize>, u128>,
}

impl ResidualSensitivity {
    /// The boundary-query value `T_F(I)` for a proper subset `F` (1 for the
    /// empty subset by convention).
    pub fn boundary_value(&self, f: &[usize]) -> Option<u128> {
        if f.is_empty() {
            Some(1)
        } else {
            self.boundary_values.get(f).copied()
        }
    }
}

pub(crate) fn check_beta(beta: f64) -> Result<()> {
    if beta.is_nan() || beta <= 0.0 || beta.is_infinite() {
        return Err(SensitivityError::InvalidParameter {
            name: "beta",
            value: beta,
            constraint: "0 < beta < ∞",
        });
    }
    Ok(())
}

/// Precomputes `T_F(I)` for every proper subset `F ⊊ [m]`, keyed by the sorted
/// subset (the empty subset maps to 1).
///
/// All `2^m - 1` sub-joins are evaluated sequentially through one shared
/// [`ShardedSubJoinCache`] (on its historical fixed-prefix decomposition —
/// this free function doubles as the planner's cross-check path), so each
/// subset costs a single incremental hash-join step over its cached parent
/// instead of a full re-join from the base relations.  The context method
/// ([`SensitivityOps::all_boundary_values`]) additionally decomposes along
/// the cost-based join plan and persists the lattice across calls.
pub fn all_boundary_values(
    query: &JoinQuery,
    instance: &Instance,
) -> Result<BTreeMap<Vec<usize>, u128>> {
    let m = query.num_relations();
    let cache = ShardedSubJoinCache::new(query, instance)?;
    let mut out = BTreeMap::new();
    for mask in 0u32..((1u32 << m) - 1) {
        let f: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
        let value = boundary_query_sharded(&cache, &f, Parallelism::SEQUENTIAL)?;
        out.insert(f, value);
    }
    Ok(out)
}

/// `T_F(I)` as `f64` for every `F ⊆ [m]`, indexed by the relation bitmask
/// of `F` (bit `r` set iff `r ∈ F`), with `T_∅ = 1`.
///
/// Built once per residual-sensitivity call from the boundary map; subsets
/// absent from the map read as 0.  Each entry is the map's `u128` converted
/// with `as f64`, exactly the conversion the sweep's terms have always used.
pub(crate) struct BoundaryTable {
    m: usize,
    values: Vec<f64>,
}

impl BoundaryTable {
    pub(crate) fn new(m: usize, boundary_values: &BTreeMap<Vec<usize>, u128>) -> Self {
        let mut values = vec![0.0f64; 1 << m];
        values[0] = 1.0;
        for (f, &t) in boundary_values {
            if !f.is_empty() {
                values[f.iter().fold(0usize, |acc, &r| acc | 1 << r)] = t as f64;
            }
        }
        BoundaryTable { m, values }
    }

    /// `T_{O_i∖E}` for every `E ⊆ O_i = [m]∖{i}`, indexed by `E`'s mask over
    /// the positions of `O_i` (bit `b` stands for the `b`-th relation of
    /// `O_i` in ascending order).
    fn excluding(&self, i: usize) -> Vec<f64> {
        let others = ((1usize << self.m) - 1) & !(1 << i);
        let low = (1usize << i) - 1;
        (0..1usize << (self.m - 1))
            .map(|e| {
                let global = (e & low) | ((e & !low) << 1);
                self.values[others & !global]
            })
            .collect()
    }
}

/// Evaluates `Σ_{E ⊆ O} T_{O∖E} Π_{j∈E} s_j` for one exclusion table `t`
/// (from [`BoundaryTable::excluding`]) and assignment `s` (aligned with
/// `O`), using `products` (as long as `t`) as scratch.
///
/// Each product is the chain `1.0 · s_b · …` over `E`'s bits in ascending
/// order, and terms accumulate in mask order, so every f64 operation
/// matches the historical sweep's.  A chain's prefix without its highest
/// bit is a smaller mask's chain, so it is read back from `products`
/// instead of recomputed: same operands, same operation, same bits.
#[inline]
fn inner_sum(t: &[f64], s: &[f64], products: &mut [f64]) -> f64 {
    products[0] = 1.0;
    let mut total = 0.0;
    total += 1.0 * t[0];
    for mask in 1..t.len() {
        let high = (usize::BITS - 1 - mask.leading_zeros()) as usize;
        let product = products[mask ^ (1 << high)] * s[high];
        products[mask] = product;
        if product == 0.0 {
            // A zero s_j annihilates the term.
            continue;
        }
        total += product * t[mask];
    }
    total
}

/// Maximises `e^{-βk}·Σ_E T_{O_i∖E}·Πs_j` over `s ∈ {0..=s_cap}^{m-1}` for a
/// fixed excluded relation `i`, returning the best value and its distance
/// `k`.  The odometer enumeration order and the strictly-greater update rule
/// make the result (including tie-breaks) identical to the historical
/// sequential sweep.  Nothing is allocated per assignment: the odometer
/// keeps `s`, its `f64` copy and `k` up to date in place, and the product
/// scratch is reused.
pub(crate) fn maximize_over_assignments(
    table: &BoundaryTable,
    i: usize,
    beta: f64,
    s_cap: u64,
) -> (f64, u64) {
    let t = table.excluding(i);
    let len = table.m - 1;
    let mut s = vec![0u64; len];
    let mut s_f64 = vec![0.0f64; len];
    let mut products = vec![0.0f64; t.len()];
    let mut k = 0u64;
    let mut best_value = 0.0f64;
    let mut best_distance = 0u64;
    loop {
        let value = (-beta * k as f64).exp() * inner_sum(&t, &s_f64, &mut products);
        if value > best_value {
            best_value = value;
            best_distance = k;
        }
        // Odometer increment over {0..=s_cap}^{m-1}.
        let mut pos = 0;
        while pos < len {
            if s[pos] < s_cap {
                s[pos] += 1;
                s_f64[pos] = s[pos] as f64;
                k += 1;
                break;
            }
            k -= s[pos];
            s[pos] = 0;
            s_f64[pos] = 0.0;
            pos += 1;
        }
        if pos == len {
            break;
        }
    }
    (best_value, best_distance)
}

/// Computes the residual sensitivity `RS^β_count(I)` on
/// [`ExecContext::default`] (available cores, byte-identical to the
/// sequential path).  Builds a throwaway context per
/// call; hold an [`dpsyn_relational::ExecContext`] (or a `dpsyn::Session`)
/// to reuse the sub-join lattice across calls.
pub fn residual_sensitivity(
    query: &JoinQuery,
    instance: &Instance,
    beta: f64,
) -> Result<ResidualSensitivity> {
    ExecContext::default().residual_sensitivity(query, instance, beta)
}

/// The quantity `L̂S^k(I)` of Definition 3.6: the maximum local sensitivity
/// over instances at distance at most `k` from `I`, evaluated exactly by
/// enumerating the integer compositions of `k` over `[m]∖{i}`.
///
/// Intended for moderate `k` (tests and cross-checks); `residual_sensitivity`
/// never calls it.
pub fn ls_hat_k(query: &JoinQuery, instance: &Instance, k: u64) -> Result<f64> {
    let m = query.num_relations();
    let table = BoundaryTable::new(m, &all_boundary_values(query, instance)?);
    let mut best = 0.0f64;
    for i in 0..m {
        let t = table.excluding(i);
        let mut products = vec![0.0f64; t.len()];
        let parts = m - 1;
        if parts == 0 {
            best = best.max(inner_sum(&t, &[], &mut products));
            continue;
        }
        // Enumerate all non-negative integer vectors of length `parts` summing
        // to exactly k (integer-valued f64s, exact below 2^53).
        let mut s = vec![0.0f64; parts];
        s[0] = k as f64;
        loop {
            best = best.max(inner_sum(&t, &s, &mut products));
            // Next composition in colex order: move one unit from the first
            // non-zero prefix position to the next position.
            let first_nonzero = match s[..parts - 1].iter().position(|&v| v > 0.0) {
                Some(p) => p,
                None => break,
            };
            let moved = s[first_nonzero] - 1.0;
            s[first_nonzero + 1] += 1.0;
            s[first_nonzero] = 0.0;
            s[0] = moved;
        }
    }
    Ok(best)
}

/// The historical map-keyed sweep, verbatim: a fresh complement `Vec` per
/// term looked up in the boundary map, `exp` per assignment.  The test
/// oracle the dense sweep must match bit for bit.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    fn inner_sum(o: &[usize], s: &[u64], boundary_values: &BTreeMap<Vec<usize>, u128>) -> f64 {
        let len = o.len();
        let mut total = 0.0;
        for mask in 0u32..(1u32 << len) {
            let mut product = 1.0f64;
            let mut complement: Vec<usize> = Vec::with_capacity(len);
            for (bit, &rel) in o.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    product *= s[bit] as f64;
                } else {
                    complement.push(rel);
                }
            }
            if product == 0.0 && mask != 0 {
                continue;
            }
            let t = if complement.is_empty() {
                1u128
            } else {
                boundary_values.get(&complement).copied().unwrap_or(0)
            };
            total += product * t as f64;
        }
        total
    }

    fn maximize_over_assignments(
        m: usize,
        i: usize,
        beta: f64,
        s_cap: u64,
        boundary_values: &BTreeMap<Vec<usize>, u128>,
    ) -> (f64, u64) {
        let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
        let mut s = vec![0u64; others.len()];
        let mut best_value = 0.0f64;
        let mut best_distance = 0u64;
        loop {
            let k: u64 = s.iter().sum();
            let value = (-beta * k as f64).exp() * inner_sum(&others, &s, boundary_values);
            if value > best_value {
                best_value = value;
                best_distance = k;
            }
            let mut pos = 0;
            loop {
                if pos == s.len() {
                    break;
                }
                if s[pos] < s_cap {
                    s[pos] += 1;
                    break;
                }
                s[pos] = 0;
                pos += 1;
            }
            if pos == s.len() {
                break;
            }
        }
        (best_value, best_distance)
    }

    /// `(value, maximizing_relation, maximizing_distance)` of `RS^β`.
    pub(super) fn residual(
        m: usize,
        beta: f64,
        boundary_values: &BTreeMap<Vec<usize>, u128>,
    ) -> (f64, usize, u64) {
        let s_cap: u64 = (1.0 / beta).ceil() as u64;
        let mut best = (0.0f64, 0usize, 0u64);
        for i in 0..m {
            let (value, distance) = maximize_over_assignments(m, i, beta, s_cap, boundary_values);
            if value > best.0 {
                best = (value, i, distance);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_relational::{AttrId, Relation};

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn two_table() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 2), (vec![2, 1], 1)],
        )
        .unwrap();
        let r2 = Relation::from_tuples(
            ids(&[1, 2]),
            vec![(vec![0, 0], 1), (vec![0, 1], 1), (vec![1, 3], 3)],
        )
        .unwrap();
        (q, Instance::new(vec![r1, r2]))
    }

    #[test]
    fn two_table_matches_closed_form() {
        // For two tables, L̂S^k = max(T_{R1}, T_{R2}) + k... more precisely
        // max_i (T_{[2]∖{i}} + k), so RS^β = max_k e^{-βk}·(LS + k) where
        // LS = max(T_{{0}}, T_{{1}}).
        let (q, inst) = two_table();
        let beta = 0.2;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        let mut expect = 0.0f64;
        for k in 0..200u64 {
            expect = expect.max((-beta * k as f64).exp() * (ls + k as f64));
        }
        assert!(
            (rs.value - expect).abs() < 1e-9,
            "rs = {}, closed form = {expect}",
            rs.value
        );
    }

    #[test]
    fn residual_upper_bounds_local_sensitivity() {
        let (q, inst) = two_table();
        for &beta in &[0.05, 0.1, 0.5, 1.0, 5.0] {
            let rs = residual_sensitivity(&q, &inst, beta).unwrap();
            let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
            assert!(rs.value >= ls - 1e-9, "beta = {beta}");
        }
    }

    #[test]
    fn residual_decreases_as_beta_grows() {
        let (q, inst) = two_table();
        let lo = residual_sensitivity(&q, &inst, 0.05).unwrap().value;
        let hi = residual_sensitivity(&q, &inst, 2.0).unwrap().value;
        assert!(lo >= hi);
    }

    #[test]
    fn matches_ls_hat_k_enumeration() {
        let (q, inst) = two_table();
        let beta = 0.4;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        // RS = max_k e^{-βk} L̂S^k; enumerate k up to a comfortable bound.
        let mut expect = 0.0f64;
        for k in 0..50u64 {
            let lsk = ls_hat_k(&q, &inst, k).unwrap();
            expect = expect.max((-beta * k as f64).exp() * lsk);
        }
        assert!((rs.value - expect).abs() < 1e-9);
    }

    #[test]
    fn three_table_star_residual() {
        let q = JoinQuery::star(3, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        // Hub value 0 has 2, 3, 4 tuples in the three relations.
        for a in 0..2u64 {
            inst.relation_mut(0).add(vec![0, a], 1).unwrap();
        }
        for a in 0..3u64 {
            inst.relation_mut(1).add(vec![0, a], 1).unwrap();
        }
        for a in 0..4u64 {
            inst.relation_mut(2).add(vec![0, a], 1).unwrap();
        }
        let beta = 0.5;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        assert_eq!(ls, 12.0);
        assert!(rs.value >= ls);
        // Cross-check against the k-wise enumeration.
        let mut expect = 0.0f64;
        for k in 0..30u64 {
            let lsk = ls_hat_k(&q, &inst, k).unwrap();
            expect = expect.max((-beta * k as f64).exp() * lsk);
        }
        assert!(
            (rs.value - expect).abs() / expect < 1e-9,
            "rs = {} expect = {expect}",
            rs.value
        );
        // The boundary values include every proper subset.
        assert_eq!(rs.boundary_values.len(), 7);
        assert_eq!(rs.boundary_value(&[]), Some(1));
    }

    #[test]
    fn ls_hat_zero_is_local_sensitivity() {
        let (q, inst) = two_table();
        let ls0 = ls_hat_k(&q, &inst, 0).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        assert!((ls0 - ls).abs() < 1e-12);
    }

    #[test]
    fn ls_hat_k_is_monotone_in_k() {
        let (q, inst) = two_table();
        let mut prev = 0.0;
        for k in 0..10u64 {
            let cur = ls_hat_k(&q, &inst, k).unwrap();
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn cached_boundary_values_match_naive_enumeration() {
        let q = JoinQuery::star(4, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..4usize {
            for hub in 0..3u64 {
                inst.relation_mut(r)
                    .add(vec![hub, (hub + r as u64) % 8], 1 + r as u64)
                    .unwrap();
            }
        }
        let cached = all_boundary_values(&q, &inst).unwrap();
        let naive = dpsyn_relational::naive::all_boundary_values_naive(&q, &inst).unwrap();
        assert_eq!(cached, naive);
        assert_eq!(cached.len(), (1 << 4) - 1);
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        // Large enough (≥ DEFAULT_MIN_PAR_INSTANCE distinct tuples) that the
        // multi-thread calls really take the sharded-cache path instead of
        // the small-instance sequential fallback.
        let q = JoinQuery::star(4, 64).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..4usize {
            for hub in 0..52u64 {
                for petal in 0..10u64 {
                    inst.relation_mut(r)
                        .add(vec![hub, (hub + petal + r as u64) % 64], 1 + hub % 2)
                        .unwrap();
                }
            }
        }
        let beta = 0.3;
        let seq = ExecContext::sequential()
            .residual_sensitivity(&q, &inst, beta)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let ctx = ExecContext::with_threads(threads);
            let bv = ctx.all_boundary_values(&q, &inst).unwrap();
            assert_eq!(bv, seq.boundary_values, "threads {threads}");
            let par = ctx.residual_sensitivity(&q, &inst, beta).unwrap();
            // Full struct equality: value, maximiser, distance, boundary map.
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn rejects_invalid_beta() {
        let (q, inst) = two_table();
        assert!(residual_sensitivity(&q, &inst, 0.0).is_err());
        assert!(residual_sensitivity(&q, &inst, -1.0).is_err());
        assert!(residual_sensitivity(&q, &inst, f64::NAN).is_err());
    }

    #[test]
    fn empty_instance_residual_is_tiny() {
        let q = JoinQuery::two_table(4, 4, 4);
        let inst = Instance::empty_for(&q).unwrap();
        let rs = residual_sensitivity(&q, &inst, 0.5).unwrap();
        // With no data every T_F (F ≠ ∅) is 0, so only the k·T_∅ terms remain:
        // max_k e^{-βk}·k = e^{-β·2}·2 at β = 0.5.
        let expect = (0..20u64)
            .map(|k| (-0.5 * k as f64).exp() * k as f64)
            .fold(0.0f64, f64::max);
        assert!((rs.value - expect).abs() < 1e-9);
    }

    /// The dense sweep's `(value, maximizing_relation, maximizing_distance)`,
    /// combined across relations exactly as the context method does.
    fn dense_residual(
        m: usize,
        beta: f64,
        boundary_values: &BTreeMap<Vec<usize>, u128>,
    ) -> (f64, usize, u64) {
        let table = BoundaryTable::new(m, boundary_values);
        let s_cap: u64 = (1.0 / beta).ceil() as u64;
        let mut best = (0.0f64, 0usize, 0u64);
        for i in 0..m {
            let (value, distance) = maximize_over_assignments(&table, i, beta, s_cap);
            if value > best.0 {
                best = (value, i, distance);
            }
        }
        best
    }

    fn assert_same(dense: (f64, usize, u64), oracle: (f64, usize, u64), what: &str) {
        assert_eq!(dense.0.to_bits(), oracle.0.to_bits(), "value: {what}");
        assert_eq!(dense.1, oracle.1, "maximizing_relation: {what}");
        assert_eq!(dense.2, oracle.2, "maximizing_distance: {what}");
    }

    /// β = 1/373.6 (s_cap 374, the hierarchical release's shape), 1/13.8,
    /// exact reciprocals of integers, β > 1 (s_cap 1), and ln 2, where
    /// all-zero `T_F` tie `e^{-β}·1` with `e^{-2β}·2` (both 0.5).
    const SWEEP_BETAS: [f64; 6] = [
        1.0 / 373.6,
        1.0 / 13.8,
        0.25,
        0.5,
        1.5,
        std::f64::consts::LN_2,
    ];

    /// Sweep terms per (m, β) pair the map-keyed oracle is run on; larger
    /// pairs (m ≥ 4 at s_cap 374, m = 5 at s_cap 14) take minutes through it.
    const ORACLE_TERMS: u64 = 2_000_000;

    /// `m·(s_cap+1)^{m-1}·2^{m-1}`, the sweep's term count.
    fn sweep_terms(m: usize, beta: f64) -> u64 {
        let s_cap = (1.0 / beta).ceil() as u64;
        (m as u64 * (s_cap + 1).pow(m as u32 - 1)) << (m - 1)
    }

    #[test]
    fn dense_sweep_is_bit_identical_to_the_map_oracle() {
        // splitmix64: a dependency-free stream of test values.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut checked = 0;
        for m in 1usize..=5 {
            for trial in 0..4 {
                // Random T_F over every proper subset: zeros, small counts,
                // values above 2^53 (inexact as f64), and absent keys.  Trial
                // 2 is all above 2^53, so the sum's rounding depends on its
                // order; trial 3 is all zeros (an empty instance), full of ties.
                let mut bv = BTreeMap::new();
                for mask in 0u32..((1u32 << m) - 1) {
                    let f: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
                    let value = match next() % 5 {
                        _ if trial == 3 => 0,
                        _ if trial == 2 => (1u128 << 53) + u128::from(next() >> 24),
                        0 => 0u128,
                        1 => (1u128 << 53) + u128::from(next() >> 24),
                        2 if trial == 1 => continue,
                        _ => u128::from(next() % 1000),
                    };
                    bv.insert(f, value);
                }
                for &beta in &SWEEP_BETAS {
                    if sweep_terms(m, beta) > ORACLE_TERMS {
                        continue;
                    }
                    let what = format!("m {m}, trial {trial}, beta {beta}");
                    assert_same(
                        dense_residual(m, beta, &bv),
                        oracle::residual(m, beta, &bv),
                        &what,
                    );
                    checked += 1;
                }
            }
        }
        // m ≤ 3 meets all six β, m = 4 five and m = 5 four.
        assert_eq!(checked, 4 * (3 * 6 + 5 + 4));
        // m = 1 has no other relation: only T_∅ = 1 at k = 0.
        assert_eq!(dense_residual(1, 0.25, &BTreeMap::new()), (1.0, 0, 0));
    }

    #[test]
    fn context_sweep_matches_the_map_oracle_at_every_thread_count() {
        for m in [3usize, 4] {
            let q = JoinQuery::star(m, 16).unwrap();
            let mut inst = Instance::empty_for(&q).unwrap();
            for r in 0..m {
                for hub in 0..6u64 {
                    for petal in 0..(1 + (hub + r as u64) % 4) {
                        inst.relation_mut(r)
                            .add(vec![hub, (hub * 3 + petal) % 16], 1 + petal % 2)
                            .unwrap();
                    }
                }
            }
            for &beta in &SWEEP_BETAS {
                if sweep_terms(m, beta) > ORACLE_TERMS {
                    continue;
                }
                for threads in [1usize, 4] {
                    let rs = ExecContext::with_threads(threads)
                        .residual_sensitivity(&q, &inst, beta)
                        .unwrap();
                    assert_same(
                        (rs.value, rs.maximizing_relation, rs.maximizing_distance),
                        oracle::residual(m, beta, &rs.boundary_values),
                        &format!("m {m}, beta {beta}, threads {threads}"),
                    );
                }
            }
        }
    }
}
