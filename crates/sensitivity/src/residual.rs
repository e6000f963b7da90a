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
//! The dense sweep visits `m·(⌈1/β⌉+1)^{m-1}` assignments, and small `β`
//! is the common case: the hierarchical release runs at
//! `β = ε'/ln(1/δ')` with `ε' = ε/(2G)`, where `⌈1/β⌉` reaches the
//! hundreds.  The pruned sweep below returns exactly the dense sweep's
//! `(value, distance)` while visiting far fewer points.
//!
//! * **Rows.**  A row fixes the outer coordinates `s_1..s_{m-2}` (summing
//!   to `K`) and leaves the odometer's fastest coordinate `s_0 = x` free.
//!   With `a = Σ_{E∌0} T·Π_{j∈E} s_j` and `b = Σ_{E∋0} T·Π_{j∈E∖0} s_j`
//!   (all terms ≥ 0) the row's objective is
//!   `g(x) = e^{-β(K+x)}·(a + b·x)`.  It is unimodal with real maximiser
//!   `x* = 1/β − a/b`, and its peak is closed-form: `a·e^{-βK}` when
//!   `βa ≥ b` (then `x* ≤ 0`), else `(b/β)·e^{βa/b − 1 − βK}`.
//! * **Slack `η`.**  Every bound is inflated by `1 + 3η ≥ (1+η)/(1−η)`,
//!   where `η` bounds the relative error of one *computed* value against
//!   the exact `g` (derived at `maximize_over_assignments`).  It is about
//!   `1e-14` at `m = 3`.
//! * **Pruning.**  A row whose inflated peak is below the running best (or
//!   is 0, which can never update) is skipped.  Otherwise the window
//!   `⌊x*⌋−1 ..= ⌊x*⌋+2`, widened by the error bound on `x*`, is
//!   evaluated.  Then the sweep walks outward on each side and stops once
//!   the inflated value of the last point is below the running best: `g`
//!   is monotone beyond the window, so no point further out can reach it.
//! * **Selection.**  Points are no longer visited in enumeration order, so
//!   the best is the largest value, ties going to the earliest
//!   `(row, x)`, starting from the sentinel `(0.0, row 0, x 0)`.  Value-0
//!   points therefore never update, and the result is exactly the
//!   exhaustive strictly-greater sweep's from `(0.0, 0)`.
//! * **Exact evaluation.**  Every visited point performs the dense sweep's
//!   f64 operations in its order: `product = 1.0 · s_b` multiplied in
//!   ascending bit order, the zero-product skip for non-empty `E`,
//!   `total += product · T` in mask order, `value = e^{-βk} · total`.
//!   Products are not reassociated or hoisted across assignments, and
//!   `e^{-βk}` is not tabulated by `k`.
//!
//! The cost is about `m·(⌈1/β⌉+1)^{m-2}` row bounds (`O(2^m)` each) plus a
//! few exactly evaluated points per surviving row: at `⌈1/β⌉ = 374` that
//! is 1,125 rows at `m = 3` instead of 421,875 assignments.  Near the
//! peak, points within about `√η/β` of `x*` cannot be told apart from it,
//! so the walk grows at tiny `β`.  `m = 1` is a single point, and a row
//! whose bound is not finite is evaluated whole.  Memory stays `O(2^m)`:
//! the `T_F` live in one dense table indexed by relation bitmask, each
//! excluded relation `i` reads a `2^{m-1}`-entry view of it, and nothing
//! is allocated per row or per point.

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

/// Largest accepted `⌈1/β⌉`: beyond `2^53` the coordinates `s_j` are no
/// longer exact as `f64`, and the odometer's `k` can overflow.
const MAX_S_CAP: f64 = (1u64 << 53) as f64;

/// Accepts `β` with `0 < β < ∞` and `⌈1/β⌉ ≤ 2^53`.
///
/// The upper limit on `⌈1/β⌉` keeps every coordinate and distance of the
/// sweep exact.  It does not make merely small `β` cheap: the sweep still
/// visits about `m·(⌈1/β⌉+1)^{m-2}` rows, so `β = 1e-9` at `m = 3` costs
/// `3·10^9` row bounds.  Bounding that cost is a question for request
/// admission, not for this check.
pub(crate) fn check_beta(beta: f64) -> Result<()> {
    if !(beta > 0.0 && beta.is_finite() && (1.0 / beta).ceil() <= MAX_S_CAP) {
        return Err(SensitivityError::InvalidParameter {
            name: "beta",
            value: beta,
            constraint: "0 < beta < ∞ and ⌈1/beta⌉ ≤ 2^53",
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

/// One assignment's value `e^{-βk}·Σ_E T_{O∖E}·Π_{j∈E} s_j`, with the
/// dense sweep's f64 operations in its order.
#[inline]
fn evaluate(t: &[f64], s: &[f64], products: &mut [f64], beta: f64, k: u64) -> f64 {
    (-beta * k as f64).exp() * inner_sum(t, s, products)
}

/// The coefficients `(a, b)` of a row's objective
/// `g(x) = e^{-β(K+x)}·(a + b·x)` for the outer coordinates
/// `outer = s_1..s_{m-2}`: `a` sums the terms of the masks without bit 0,
/// `b` the coefficients of `x` in the masks with it.  `products` is
/// scratch, at least half as long as `t`.
fn row_coefficients(t: &[f64], outer: &[f64], products: &mut [f64]) -> (f64, f64) {
    products[0] = 1.0;
    let (mut a, mut b) = (t[0], t[1]);
    for e in 1..t.len() / 2 {
        let high = (usize::BITS - 1 - e.leading_zeros()) as usize;
        let product = products[e ^ (1 << high)] * outer[high];
        products[e] = product;
        a += product * t[e << 1];
        b += product * t[(e << 1) | 1];
    }
    (a, b)
}

/// The pruned sweep's running best: the largest value seen, ties going to
/// the earliest `(row, x)` in odometer order.  It starts from the sentinel
/// `(0.0, row 0, x 0)`, so value-0 points never update.
struct Best {
    value: f64,
    row: u64,
    x: u64,
    distance: u64,
}

impl Best {
    fn offer(&mut self, value: f64, row: u64, x: u64, distance: u64) {
        if value > self.value || (value == self.value && (row, x) < (self.row, self.x)) {
            *self = Best {
                value,
                row,
                x,
                distance,
            };
        }
    }

    /// Whether a point whose computed value is at most `bound` could
    /// update the best.
    fn reachable(&self, bound: f64) -> bool {
        bound >= self.value && bound > 0.0
    }
}

/// Maximises `e^{-βk}·Σ_E T_{O_i∖E}·Πs_j` over `s ∈ {0..=s_cap}^{m-1}` for a
/// fixed excluded relation `i`, returning the best value and its distance
/// `k`.  The result, tie-breaks included, is exactly the exhaustive
/// odometer sweep's with a strictly-greater update from `(0.0, 0)`; the
/// module docs describe the row bound, the walk and the selection rule.
/// Nothing is allocated per row or per point.
///
/// # The slack `η`
///
/// Compare a computed value `v̂(x)` with the exact `g(x)` on the same f64
/// `T` and integer `s`, with `u = 2^-53` and `γ_n = nu/(1−nu)` (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, §3):
/// * `inner_sum` rounds each non-negative term at most `m−2` times in its
///   product, once in the multiply by `T` and `2^{m−1}−1` times in the
///   sum, so with `n = m−1+2^{m−1}` its relative error is at most `γ_n`;
/// * `−β·k` rounds in `k as f64` (only above `2^53`) and in the multiply,
///   an argument error of at most `2.01·u·βk`, which `exp` turns into a
///   relative error of at most `2.01·u·βk_max`, `k_max = (m−1)·s_cap`;
/// * `exp` itself errs by at most 2 ulp, `4u`, and the final multiply by
///   `u`.
///
/// So `|v̂ − g| ≤ η_v·g` with `η_v ≤ (n + 2.01·βk_max + 5)·u·(1 + γ_n)`.
/// The computed row peak `P̂` is within `η_p ≤ (3n + 3βK + 12)·u` of the
/// true peak: `a` and `b` carry `γ_n` each, `y = βa/b` carries
/// `2γ_n + 2u` and stays below 1 in the `b/β` form, the exponent
/// `y − 1 − βK` adds `4u + 3u·βK`, then `exp` `4u`, `b/β` and the last
/// multiply `u` each.  If rounding puts `y` on the wrong side of 1, the
/// two peak forms still agree to second order (`e^{y−1}/y − 1 ≤ (y−1)²`
/// with `|y − 1| ≤ 3γ_n`), far below `u`.  The code uses
/// `η = (8n + 12·βk_max + 40)·u`, at least twice `η_v + η_p`, and
/// inflates by `1 + 3η ≥ (1+η)/(1−η)`, which also covers the inflating
/// multiply's own rounding.  Then:
/// * every `v̂(x)` of a row is at most `P̂·(1 + 3η)`;
/// * for `x` beyond a point `x_L` on `g`'s monotone side,
///   `v̂(x) ≤ (1+η_v)·g(x) ≤ (1+η_v)·g(x_L) ≤ v̂(x_L)·(1+η_v)/(1−η_v)
///   ≤ v̂(x_L)·(1 + 3η)`;
/// * the computed `x* = 1/β − a/b` is within
///   `(2n+3)·u·(1/β + a/b) ≤ η·(1/β + a/b)` of the true maximiser, so
///   widening the window by that much keeps `x*` strictly inside it.
pub(crate) fn maximize_over_assignments(
    table: &BoundaryTable,
    i: usize,
    beta: f64,
    s_cap: u64,
) -> (f64, u64) {
    let t = table.excluding(i);
    let len = table.m - 1;
    let mut s_f64 = vec![0.0f64; len];
    let mut products = vec![0.0f64; t.len()];
    let mut best = Best {
        value: 0.0,
        row: 0,
        x: 0,
        distance: 0,
    };
    if len == 0 {
        // m = 1: the empty assignment is the only point.
        best.offer(evaluate(&t, &s_f64, &mut products, beta, 0), 0, 0, 0);
        return (best.value, best.distance);
    }
    let s_cap_f64 = s_cap as f64;
    let n = (len + t.len()) as f64;
    let eta = (8.0 * n + 12.0 * beta * (len as f64 * s_cap_f64) + 40.0) * (f64::EPSILON / 2.0);
    let inflate = 1.0 + 3.0 * eta;
    // The outer coordinates s_1..s_{m-2}, mirrored in s_f64[1..], and
    // their sum K; s_f64[0] holds the free coordinate x of each visit.
    let mut outer = vec![0u64; len - 1];
    let mut big_k = 0u64;
    let mut row = 0u64;
    loop {
        let (a, b) = row_coefficients(&t, &s_f64[1..], &mut products);
        let beta_k = beta * big_k as f64;
        let y = if b > 0.0 { beta * a / b } else { f64::INFINITY };
        let peak = if y >= 1.0 {
            a * (-beta_k).exp()
        } else {
            b / beta * (y - 1.0 - beta_k).exp()
        };
        let bound = peak * inflate;
        let window = if !bound.is_finite() {
            // A non-finite bound proves nothing: the window is the row.
            Some((0, s_cap))
        } else if best.reachable(bound) {
            let (x_star, margin) = if b > 0.0 {
                let (inv_beta, ratio) = (1.0 / beta, a / b);
                (inv_beta - ratio, eta * (inv_beta + ratio))
            } else {
                // b = 0: g is non-increasing, its maximiser is x = 0.
                (0.0, 0.0)
            };
            let clamp = |x: f64| x.clamp(0.0, s_cap_f64) as u64;
            Some((
                clamp((x_star - margin).floor() - 1.0),
                clamp((x_star + margin).floor() + 2.0),
            ))
        } else {
            None
        };
        if let Some((lo, hi)) = window {
            let mut visit = |x: u64, best: &mut Best| {
                s_f64[0] = x as f64;
                let k = big_k + x;
                let value = evaluate(&t, &s_f64, &mut products, beta, k);
                best.offer(value, row, x, k);
                value
            };
            let mut left = visit(lo, &mut best);
            let mut right = left;
            for x in lo + 1..=hi {
                right = visit(x, &mut best);
            }
            // Beyond the window g is monotone: stop each way at the first
            // point whose inflated value cannot reach the best.
            let mut x = lo;
            while x > 0 && best.reachable(left * inflate) {
                x -= 1;
                left = visit(x, &mut best);
            }
            let mut x = hi;
            while x < s_cap && best.reachable(right * inflate) {
                x += 1;
                right = visit(x, &mut best);
            }
        }
        // Odometer increment over the outer coordinates {0..=s_cap}^{m-2}.
        let mut pos = 0;
        while pos < outer.len() {
            if outer[pos] < s_cap {
                outer[pos] += 1;
                s_f64[pos + 1] = outer[pos] as f64;
                big_k += 1;
                break;
            }
            big_k -= outer[pos];
            outer[pos] = 0;
            s_f64[pos + 1] = 0.0;
            pos += 1;
        }
        if pos == outer.len() {
            break;
        }
        row += 1;
    }
    (best.value, best.distance)
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

/// The dense sweep: every assignment in odometer order, with a
/// strictly-greater update from `(0.0, 0)`.  The test oracle the pruned
/// sweep must match bit for bit.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use super::{inner_sum, BoundaryTable};

    pub(super) fn maximize_over_assignments(
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

    /// `(value, maximizing_relation, maximizing_distance)` of `RS^β`.
    pub(super) fn residual(
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
        assert!(residual_sensitivity(&q, &inst, f64::INFINITY).is_err());
        // ⌈1/β⌉ above 2^53: the sweep's coordinates stop being exact.
        for beta in [0.99 / MAX_S_CAP, 1e-20, f64::MIN_POSITIVE, 5e-324] {
            assert!(
                matches!(
                    residual_sensitivity(&q, &inst, beta),
                    Err(SensitivityError::InvalidParameter { name: "beta", .. })
                ),
                "beta = {beta}"
            );
        }
        assert!(check_beta(1.0 / MAX_S_CAP).is_ok());
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

    /// The pruned sweep's `(value, maximizing_relation, maximizing_distance)`,
    /// combined across relations exactly as the context method does.
    fn pruned_residual(
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

    fn assert_same(pruned: (f64, usize, u64), dense: (f64, usize, u64), what: &str) {
        assert_eq!(pruned.0.to_bits(), dense.0.to_bits(), "value: {what}");
        assert_eq!(pruned.1, dense.1, "maximizing_relation: {what}");
        assert_eq!(pruned.2, dense.2, "maximizing_distance: {what}");
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

    /// Sweep terms per (m, β) pair the dense oracle is run on; larger pairs
    /// (m ≥ 4 at s_cap 374, m = 5 at s_cap 14) take seconds in debug builds.
    const ORACLE_TERMS: u64 = 2_000_000;

    /// `m·(s_cap+1)^{m-1}·2^{m-1}`, the dense sweep's term count.
    fn sweep_terms(m: usize, beta: f64) -> u64 {
        let s_cap = (1.0 / beta).ceil() as u64;
        (m as u64 * (s_cap + 1).pow(m as u32 - 1)) << (m - 1)
    }

    /// splitmix64: a dependency-free stream of test values.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn pruned_sweep_is_bit_identical_to_the_dense_oracle() {
        let mut next = splitmix(0x5eed);
        let mut checked = [0usize; 6];
        for (m, count) in checked.iter_mut().enumerate().skip(1) {
            for trial in 0..5 {
                // Random T_F over every proper subset: zeros, small counts,
                // values above 2^53 (inexact as f64), and absent keys.  Trial
                // 2 is all above 2^53, so the sum's rounding depends on its
                // order; trial 3 is all zeros (an empty instance), full of
                // ties; trial 4 gives every T_F one value, so permuted
                // assignments and relations tie exactly.
                let shared = next() % 1000;
                let mut bv = BTreeMap::new();
                for mask in 0u32..((1u32 << m) - 1) {
                    let f: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
                    let value = match next() % 5 {
                        _ if trial == 4 => u128::from(shared),
                        _ if trial == 3 => 0,
                        _ if trial == 2 => (1u128 << 53) + u128::from(next() >> 24),
                        0 => 0u128,
                        1 => (1u128 << 53) + u128::from(next() >> 24),
                        2 if trial == 1 => continue,
                        _ => u128::from(next() % 1000),
                    };
                    bv.insert(f, value);
                }
                // Two random β with s_cap between 1 and 41 beside the fixed ones.
                let random = [0, 1].map(|_| 1.0 / (1.0 + (next() % 4000) as f64 / 100.0));
                for &beta in SWEEP_BETAS.iter().chain(&random) {
                    if sweep_terms(m, beta) > ORACLE_TERMS {
                        continue;
                    }
                    let what = format!("m {m}, trial {trial}, beta {beta}");
                    assert_same(
                        pruned_residual(m, beta, &bv),
                        oracle::residual(m, beta, &bv),
                        &what,
                    );
                    *count += 1;
                }
            }
        }
        assert!(checked[1..].iter().all(|&c| c >= 20), "{checked:?}");
        // m = 1 has no other relation: only T_∅ = 1 at k = 0.
        assert_eq!(pruned_residual(1, 0.25, &BTreeMap::new()), (1.0, 0, 0));
    }

    #[test]
    fn flat_plateaus_at_tiny_beta_keep_the_earliest_maximiser() {
        // At m = 2 each relation's sweep is one row, g(x) = e^{-βx}·(T + x)
        // with T the other relation's T_F, peaking at x* = 1/β − T.  With
        // 1/β a half-integer, x* falls midway between two points whose
        // exact values differ by ~β³ relative, far below one ulp, so they
        // often round to the same f64 and the earliest one must win.
        let mut ties = 0;
        for &(inv_beta, t) in &[
            (1e5 + 0.5f64, [0u128, 7]),
            (1e6 + 0.5, [3, 1 << 40]),
            (1e7 + 0.5, [11, 12]),
            (1e6, [5, 1000]),
        ] {
            let beta = 1.0 / inv_beta;
            let bv = BTreeMap::from([(vec![0], t[0]), (vec![1], t[1])]);
            let table = BoundaryTable::new(2, &bv);
            let s_cap = (1.0 / beta).ceil() as u64;
            for i in 0..2 {
                let what = format!("1/beta {inv_beta}, i {i}");
                let (value, distance) = maximize_over_assignments(&table, i, beta, s_cap);
                let dense = oracle::maximize_over_assignments(&table, i, beta, s_cap);
                assert_eq!(value.to_bits(), dense.0.to_bits(), "value: {what}");
                assert_eq!(distance, dense.1, "distance: {what}");
                let at = |x: u64| {
                    let t = table.excluding(i);
                    evaluate(&t, &[x as f64], &mut [0.0; 2], beta, x)
                };
                if distance < s_cap && at(distance + 1) == value {
                    ties += 1;
                }
            }
        }
        assert!(
            ties > 0,
            "no plateau tie exercised the earliest-position rule"
        );
    }

    #[test]
    fn context_sweep_matches_the_dense_oracle_at_every_thread_count() {
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

    /// At β ≈ 1e-9 the points within about `√η/β ≈ 15` of the peak are
    /// indistinguishable from it in f64, so the maximiser can sit outside
    /// the `⌊x*⌋−1 ..= ⌊x*⌋+2` window and only the outward walk, together
    /// with the earliest-position rule, finds it.  The dense side is 10^9
    /// points: release builds only, with the bench-shape test below.
    #[test]
    #[ignore]
    fn the_walk_finds_maximisers_outside_the_window_at_tiny_beta() {
        // An empty instance at m = 2: each relation's row is g(x) = e^{-βx}·x.
        let table = BoundaryTable::new(2, &BTreeMap::new());
        let beta: f64 = 1.0 / (1e9 + 0.5);
        let s_cap = (1.0 / beta).ceil() as u64;
        let (value, distance) = maximize_over_assignments(&table, 0, beta, s_cap);
        let dense = oracle::maximize_over_assignments(&table, 0, beta, s_cap);
        assert_eq!(value.to_bits(), dense.0.to_bits());
        assert_eq!(distance, dense.1);
    }

    /// The `residual/sweep` bench's exact shape: its `random_star`
    /// instances at s_cap 374, m = 3 and 4.  The dense m = 4 side takes
    /// seconds even in release builds, so this runs only on request:
    /// `cargo test --release -p dpsyn-sensitivity -- --ignored`.
    #[test]
    #[ignore]
    fn pruned_sweep_matches_the_dense_oracle_at_the_bench_shape() {
        let beta = 1.0 / 373.6;
        for &(m, tuples, seed) in &[(3usize, 3000usize, 70u64), (4, 1000, 71)] {
            let mut rng = dpsyn_noise::seeded_rng(seed);
            let (q, inst) = dpsyn_datagen::random_star(m, 8, tuples, 0.8, &mut rng);
            let boundary_values = ExecContext::sequential()
                .all_boundary_values(&q, &inst)
                .unwrap();
            let dense = oracle::residual(m, beta, &boundary_values);
            for threads in [1usize, 4] {
                let rs = ExecContext::with_threads(threads)
                    .residual_sensitivity(&q, &inst, beta)
                    .unwrap();
                assert_same(
                    (rs.value, rs.maximizing_relation, rs.maximizing_distance),
                    dense,
                    &format!("m {m}, threads {threads}"),
                );
            }
        }
    }
}
