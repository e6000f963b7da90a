//! Dense synthetic histograms `F : dom(x) → ℝ≥0` over the joint domain of a
//! join query.
//!
//! The histogram is the released object `F` of the paper: any linear query
//! can be answered from it by summing `F(x) · Π_i q_i(π_{x_i} x)` over the
//! joint domain.  Only `F` itself is dense (one `f64` per cell, row-major
//! over the attribute domains); experiment configurations keep `|dom(x)|`
//! small enough for this to be practical.
//!
//! Query weights are never stored per cell here.  A product query is
//! evaluated through its per-relation **factor tables** — each component
//! `q_i` evaluated once over its relation's own domain `dom(x_i)` — and a
//! cell's weight is the product of its table entries, found by stride
//! arithmetic while the cells are walked in order (see the `factor`
//! module).  PMW holds a workload's weights for its run as
//! [`QueryWeights`](crate::QueryWeights) — queries whose palettes of
//! distinct values fit in one byte share one mixed-radix `u8` code per
//! cell and a table of weight rows, and only a query with more than 256
//! distinct values keeps a dense `f64` vector — and memoises them in the
//! run's [`ExecContext`].  A workload is answered on one of two
//! paths:
//!
//! - [`Histogram::answer_all_in`], given a context, reads those memoised
//!   weights and scores them with a PMW round's scoring pass.  This is the
//!   path for answering a release right after it, over the context that
//!   produced it: the server's `POST /v1/release` reply takes it.
//! - [`Histogram::answer_all`], with no context, answers the family in one
//!   streaming walk that multiplies out each cell's weight and stores no
//!   per-cell weight.  It is the reference the context path is tested
//!   against.
//!
//! Every weight keeps the multiply order and zero exit of
//! `JointEvaluator::weight`, and every sum keeps its cell order, so both
//! paths answer bit-identically to evaluating each cell's joint tuple
//! directly.

use dpsyn_query::{ProductQuery, QueryFamily};
use dpsyn_relational::{AttrId, ExecContext, JoinQuery, Value};
use rand::Rng;

use crate::error::PmwError;
use crate::factor::{cell_weight, Factorization};
use crate::pmw::query_weights;
use crate::Result;

/// Default cap on the number of dense cells a histogram may hold.
pub const DEFAULT_MAX_CELLS: u128 = 1 << 26;

/// A dense non-negative function over the joint domain `dom(x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    attrs: Vec<AttrId>,
    dims: Vec<u64>,
    weights: Vec<f64>,
}

impl Histogram {
    /// Creates an all-zero histogram over the full attribute set of `query`.
    ///
    /// Fails when the joint domain exceeds `max_cells` (use
    /// [`DEFAULT_MAX_CELLS`] unless you know better).
    pub fn zeros(query: &JoinQuery, max_cells: u128) -> Result<Self> {
        let attrs = query.all_attrs();
        let mut dims = Vec::with_capacity(attrs.len());
        for &a in &attrs {
            dims.push(query.schema().domain_size(a)?);
        }
        let cells = dims.iter().map(|&d| d.max(1) as u128).product::<u128>();
        if cells > max_cells {
            return Err(PmwError::DomainTooLarge {
                cells,
                limit: max_cells,
            });
        }
        Ok(Histogram {
            attrs,
            dims,
            weights: vec![0.0; cells as usize],
        })
    }

    /// Creates the uniform histogram `F_0(x) = total / |dom(x)|` used to
    /// initialise PMW (Algorithm 2, line 2).
    pub fn uniform(query: &JoinQuery, total: f64, max_cells: u128) -> Result<Self> {
        let mut h = Self::zeros(query, max_cells)?;
        let per_cell = total / h.weights.len() as f64;
        h.weights.fill(per_cell.max(0.0));
        Ok(h)
    }

    /// The attribute list the histogram ranges over.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The domain size of each attribute of [`Histogram::attrs`].
    pub(crate) fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of cells `|dom(x)|`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the histogram has no cells (never true for a valid schema).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total mass `Σ_x F(x)`.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// The raw weights (row-major).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The raw weights, for PMW's fused update passes.
    pub(crate) fn weights_mut(&mut self) -> &mut [f64] {
        &mut self.weights
    }

    /// The factor-table layout of `query`'s relations over this histogram's
    /// cells.
    pub(crate) fn factorization(&self, query: &JoinQuery) -> Result<Factorization> {
        Factorization::new(query, &self.attrs, &self.dims)
    }

    /// The linear index of a joint tuple, or `None` when the tuple's arity
    /// differs from the histogram's or a value lies outside its attribute's
    /// domain (such a tuple has no cell).
    pub fn index_of(&self, tuple: &[Value]) -> Option<usize> {
        if tuple.len() != self.dims.len() {
            return None;
        }
        let mut idx = 0usize;
        for (&v, &d) in tuple.iter().zip(&self.dims) {
            let d = d.max(1);
            if v >= d {
                return None;
            }
            idx = idx * d as usize + v as usize;
        }
        Some(idx)
    }

    /// The joint tuple at a linear index.
    pub fn tuple_of(&self, mut idx: usize) -> Vec<Value> {
        let mut out = vec![0u64; self.dims.len()];
        for pos in (0..self.dims.len()).rev() {
            let d = self.dims[pos] as usize;
            out[pos] = (idx % d) as u64;
            idx /= d;
        }
        out
    }

    /// The weight of a joint tuple: `0.0` for a tuple outside the domain.
    pub fn weight(&self, tuple: &[Value]) -> f64 {
        self.index_of(tuple).map_or(0.0, |idx| self.weights[idx])
    }

    /// Computes the per-cell weight vector `x ↦ Π_i q_i(π_{x_i} x)` of a
    /// product query from its factor tables.
    pub fn query_weight_vector(&self, query: &JoinQuery, q: &ProductQuery) -> Result<Vec<f64>> {
        let fz = self.factorization(query)?;
        let tables = fz.tables(query, q)?;
        let mut out = Vec::with_capacity(self.weights.len());
        fz.for_each_chunk(|cells, offsets| {
            out.extend((0..cells.len()).map(|k| cell_weight(&tables, offsets, k)));
        });
        Ok(out)
    }

    /// Answers one query: `q(F) = Σ_x F(x) · Π_i q_i(π_{x_i} x)`.
    pub fn answer(&self, query: &JoinQuery, q: &ProductQuery) -> Result<f64> {
        Ok(self.answers(query, std::slice::from_ref(q))?[0])
    }

    /// Answers a query given its pre-computed per-cell weight vector.
    pub fn answer_with_weights(&self, query_weights: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(query_weights)
            .map(|(f, w)| f * w)
            .sum()
    }

    /// Answers every query of a family in one walk over the cells, without
    /// building any per-query weight vector.  Each answer equals
    /// `answer_with_weights(&query_weight_vector(query, q)?)` bit for bit.
    ///
    /// This is the context-free path: it reads no memo and leaves nothing
    /// resident.  To answer a release over the context that produced it,
    /// [`Histogram::answer_all_in`] reuses the weights that run memoised.
    pub fn answer_all(&self, query: &JoinQuery, family: &QueryFamily) -> Result<Vec<f64>> {
        self.answers(query, family.queries())
    }

    /// [`Histogram::answer_all`] through an execution context: the per-cell
    /// weights of `family` over this histogram's layout are read from
    /// `ctx`'s context memo, where a [`crate::Pmw::run`] over the same
    /// layout and family has left them, and scored by
    /// [`QueryWeights::answer_all`](crate::QueryWeights::answer_all).
    ///
    /// A miss builds the weights exactly as that run would and keeps them
    /// in `ctx` (a code byte per cell per group of palette-coded queries
    /// plus the group's row table, eight bytes per cell for a dense query)
    /// in place of the workload it held before, so the next run over that
    /// workload misses in turn.  Answers equal
    /// [`Histogram::answer_all`]'s bit for bit.
    pub fn answer_all_in(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        family: &QueryFamily,
    ) -> Result<Vec<f64>> {
        let weights = query_weights(ctx, query, self, family, &family.key())?;
        let mut answers = vec![0.0; family.len()];
        weights.answer_all(self, &mut answers);
        Ok(answers)
    }

    fn answers(&self, query: &JoinQuery, queries: &[ProductQuery]) -> Result<Vec<f64>> {
        let fz = self.factorization(query)?;
        let tables = queries
            .iter()
            .map(|q| fz.tables(query, q))
            .collect::<Result<Vec<_>>>()?;
        // One accumulator per query, each summed in cell order from -0.0,
        // the neutral element `Iterator::sum::<f64>` starts from.
        let mut sums = vec![-0.0f64; queries.len()];
        fz.for_each_chunk(|cells, offsets| {
            for (sum, t) in sums.iter_mut().zip(&tables) {
                for (k, f) in self.weights[cells.clone()].iter().enumerate() {
                    *sum += f * cell_weight(t, offsets, k);
                }
            }
        });
        Ok(sums)
    }

    /// Rescales the histogram so its total mass equals `total` (no-op if the
    /// current mass is zero).
    pub fn normalize_to(&mut self, total: f64) {
        let cur = self.total();
        if cur > 0.0 && total >= 0.0 {
            let factor = total / cur;
            for w in &mut self.weights {
                *w *= factor;
            }
        }
    }

    /// The multiplicative-weights update of Algorithm 2 line 7:
    /// `F(x) ← F(x) · exp(q(x) · η)`, followed by renormalisation to the
    /// previous total mass.
    pub fn multiplicative_update(&mut self, query_weights: &[f64], eta: f64) {
        let total = self.total();
        for (f, w) in self.weights.iter_mut().zip(query_weights) {
            *f *= (w * eta).exp();
        }
        self.normalize_to(total);
    }

    /// Adds another histogram cell-wise (used to average PMW iterates).
    pub fn accumulate(&mut self, other: &Histogram) -> Result<()> {
        if self.weights.len() != other.weights.len() || self.attrs != other.attrs {
            return Err(PmwError::InvalidConfig(
                "cannot accumulate histograms over different domains".to_string(),
            ));
        }
        for (a, b) in self.weights.iter_mut().zip(&other.weights) {
            *a += b;
        }
        Ok(())
    }

    /// Divides every cell by `count` (completing an average).
    pub fn scale(&mut self, factor: f64) {
        for w in &mut self.weights {
            *w *= factor;
        }
    }

    /// Draws an integer-valued synthetic dataset from the histogram: the
    /// released function `F : dom(x) → N` of the problem statement.  Each
    /// cell's mass is rounded stochastically (floor plus a Bernoulli on the
    /// fractional part), preserving the expected total.
    pub fn round_to_records<R: Rng>(&self, rng: &mut R) -> Vec<(Vec<Value>, u64)> {
        let mut out = Vec::new();
        for (idx, &w) in self.weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            let floor = w.floor();
            let frac = w - floor;
            let mut count = floor as u64;
            if rng.random::<f64>() < frac {
                count += 1;
            }
            if count > 0 {
                out.push((self.tuple_of(idx), count));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_query::{JointEvaluator, RelationQuery};
    use rand::SeedableRng;

    fn tiny_query() -> JoinQuery {
        JoinQuery::two_table(3, 4, 5)
    }

    #[test]
    fn zeros_and_uniform_have_right_shape() {
        let q = tiny_query();
        let z = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        assert_eq!(z.len(), 3 * 4 * 5);
        assert_eq!(z.total(), 0.0);
        let u = Histogram::uniform(&q, 120.0, DEFAULT_MAX_CELLS).unwrap();
        assert!((u.total() - 120.0).abs() < 1e-9);
        assert!((u.weight(&[1, 2, 3]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn domain_cap_enforced() {
        let q = JoinQuery::two_table(1 << 20, 1 << 20, 1 << 20);
        assert!(matches!(
            Histogram::zeros(&q, DEFAULT_MAX_CELLS),
            Err(PmwError::DomainTooLarge { .. })
        ));
    }

    #[test]
    fn index_tuple_roundtrip() {
        let q = tiny_query();
        let h = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        for idx in 0..h.len() {
            let t = h.tuple_of(idx);
            assert_eq!(h.index_of(&t), Some(idx));
            assert!(t[0] < 3 && t[1] < 4 && t[2] < 5);
        }
    }

    /// A tuple outside the domain, or of the wrong arity, has no cell: it
    /// must not alias an in-domain cell or panic.
    #[test]
    fn out_of_domain_tuples_have_no_cell() {
        let q = JoinQuery::star(2, 8).unwrap();
        let mut h = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        assert_eq!(h.dims(), &[8, 8, 8]);
        // Cell (0, 1, 1) is what row-major arithmetic makes of (0, 0, 9).
        let alias = h.index_of(&[0, 1, 1]).unwrap();
        h.weights_mut()[alias] = 5.0;
        for t in [
            &[0, 0, 9][..],
            &[0, 8, 0],
            &[8, 0, 0],
            &[0, 9],
            &[0, 1],
            &[0, 0, 0, 1],
            &[],
        ] {
            assert_eq!(h.index_of(t), None, "{t:?}");
            assert_eq!(h.weight(t), 0.0, "{t:?}");
        }
        assert_eq!(h.weight(&[0, 1, 1]), 5.0);
    }

    #[test]
    fn query_weight_vector_matches_pointwise_eval() {
        let q = tiny_query();
        let h = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        let pq = ProductQuery::new(vec![
            RelationQuery::SignHash { seed: 9 },
            RelationQuery::AllOne,
        ]);
        let weights = h.query_weight_vector(&q, &pq).unwrap();
        let evaluator = JointEvaluator::full_domain(&q).unwrap();
        for (idx, w) in weights.iter().enumerate() {
            let t = h.tuple_of(idx);
            assert_eq!(
                w.to_bits(),
                evaluator.weight(&pq, &t, &mut Vec::new()).to_bits()
            );
        }
    }

    #[test]
    fn multiplicative_update_moves_mass_toward_positive_weights() {
        let q = tiny_query();
        let mut h = Histogram::uniform(&q, 60.0, DEFAULT_MAX_CELLS).unwrap();
        // Query weights: +1 on cells with A = 0, -1 elsewhere.
        let weights: Vec<f64> = (0..h.len())
            .map(|idx| if h.tuple_of(idx)[0] == 0 { 1.0 } else { -1.0 })
            .collect();
        let before_mass_a0: f64 = (0..h.len())
            .filter(|&i| h.tuple_of(i)[0] == 0)
            .map(|i| h.weights()[i])
            .sum();
        h.multiplicative_update(&weights, 0.5);
        let after_mass_a0: f64 = (0..h.len())
            .filter(|&i| h.tuple_of(i)[0] == 0)
            .map(|i| h.weights()[i])
            .sum();
        assert!(after_mass_a0 > before_mass_a0);
        // Total mass preserved by renormalisation.
        assert!((h.total() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_and_scale_average() {
        let q = tiny_query();
        let mut acc = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        let a = Histogram::uniform(&q, 30.0, DEFAULT_MAX_CELLS).unwrap();
        let b = Histogram::uniform(&q, 90.0, DEFAULT_MAX_CELLS).unwrap();
        acc.accumulate(&a).unwrap();
        acc.accumulate(&b).unwrap();
        acc.scale(0.5);
        assert!((acc.total() - 60.0).abs() < 1e-9);
        // Mismatched domains rejected.
        let other = Histogram::zeros(&JoinQuery::two_table(2, 2, 2), DEFAULT_MAX_CELLS).unwrap();
        assert!(acc.accumulate(&other).is_err());
    }

    #[test]
    fn rounding_preserves_mass_in_expectation() {
        let q = tiny_query();
        let h = Histogram::uniform(&q, 240.0, DEFAULT_MAX_CELLS).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut totals = 0u64;
        let trials = 50;
        for _ in 0..trials {
            let records = h.round_to_records(&mut rng);
            totals += records.iter().map(|(_, c)| c).sum::<u64>();
        }
        let avg = totals as f64 / trials as f64;
        assert!((avg - 240.0).abs() < 10.0, "avg = {avg}");
    }

    #[test]
    fn normalize_to_handles_zero_mass() {
        let q = tiny_query();
        let mut h = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        h.normalize_to(10.0); // must not divide by zero
        assert_eq!(h.total(), 0.0);
    }
}
