//! The common output type of every release algorithm: a differentially
//! private synthetic function `F : dom(x) → ℝ≥0` plus bookkeeping.

use dpsyn_noise::PrivacyParams;
use dpsyn_pmw::Histogram;
use dpsyn_query::{AnswerSet, ProductQuery, QueryFamily};
use dpsyn_relational::{ExecContext, JoinQuery, Value};
use rand::Rng;

use crate::Result;

/// Which algorithm produced a release (for reporting and experiment output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseKind {
    /// Algorithm 1: two-table join-as-one.
    TwoTable,
    /// Algorithm 3: multi-table join-as-one with residual sensitivity.
    MultiTable,
    /// Algorithm 4 + 5: uniformized two-table release.
    UniformizedTwoTable,
    /// Algorithm 4 + 6 + 7: uniformized hierarchical release.
    Hierarchical,
    /// A strawman or baseline mechanism (see `flawed` / `baselines`).
    Baseline,
}

/// A differentially private synthetic-data release.
///
/// The synthetic function is stored as a dense histogram over the joint
/// domain `dom(x)`; any linear query can be answered from it without touching
/// the private data again (post-processing).
#[derive(Debug, Clone)]
pub struct SyntheticRelease {
    query: JoinQuery,
    histogram: Histogram,
    kind: ReleaseKind,
    guarantee: PrivacyParams,
    noisy_total: f64,
    parts: usize,
    delta_tilde: f64,
}

impl SyntheticRelease {
    /// Assembles a release (used by the algorithms in this crate).
    pub(crate) fn new(
        query: JoinQuery,
        histogram: Histogram,
        kind: ReleaseKind,
        guarantee: PrivacyParams,
        noisy_total: f64,
        parts: usize,
        delta_tilde: f64,
    ) -> Self {
        SyntheticRelease {
            query,
            histogram,
            kind,
            guarantee,
            noisy_total,
            parts,
            delta_tilde,
        }
    }

    /// The join query the release was computed for.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The synthetic histogram `F`.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Which algorithm produced the release.
    pub fn kind(&self) -> ReleaseKind {
        self.kind
    }

    /// The `(ε, δ)` guarantee the producing algorithm accounted for.
    pub fn guarantee(&self) -> PrivacyParams {
        self.guarantee
    }

    /// The noisy total mass `n̂` (summed over sub-instances for partitioned
    /// releases).
    pub fn noisy_total(&self) -> f64 {
        self.noisy_total
    }

    /// Number of sub-instances whose synthetic data was unioned into this
    /// release (1 for the join-as-one algorithms).
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The (largest) private sensitivity bound `Δ̃` passed to PMW.
    pub fn delta_tilde(&self) -> f64 {
        self.delta_tilde
    }

    /// Answers a single linear query from the synthetic data.
    pub fn answer(&self, q: &ProductQuery) -> Result<f64> {
        Ok(self.histogram.answer(&self.query, q)?)
    }

    /// Answers every query of a family from the synthetic data, with no
    /// execution context (see [`Histogram::answer_all`]).
    pub fn answer_all(&self, family: &QueryFamily) -> Result<AnswerSet> {
        Ok(AnswerSet::new(
            self.histogram.answer_all(&self.query, family)?,
        ))
    }

    /// [`SyntheticRelease::answer_all`] from the query weights the release
    /// memoised in `ctx`: answering the release's own workload over the
    /// context that produced it reads them instead of rebuilding them (see
    /// [`Histogram::answer_all_in`]).  Answers are bit-identical to
    /// [`SyntheticRelease::answer_all`]'s.
    pub fn answer_all_in(&self, ctx: &ExecContext, family: &QueryFamily) -> Result<AnswerSet> {
        Ok(AnswerSet::new(self.histogram.answer_all_in(
            ctx,
            &self.query,
            family,
        )?))
    }

    /// The ℓ∞ error of this release against the true answers.
    pub fn linf_error(&self, family: &QueryFamily, truth: &AnswerSet) -> Result<f64> {
        Ok(self.answer_all(family)?.linf_distance(truth)?)
    }

    /// Materialises an integer-valued synthetic dataset (the `F : dom(x) → N`
    /// of the problem statement) by stochastic rounding.
    pub fn to_records<R: Rng>(&self, rng: &mut R) -> Vec<(Vec<Value>, u64)> {
        self.histogram.round_to_records(rng)
    }

    /// The same release under another algorithm label and overall
    /// guarantee (a composite mechanism relabelling the union of its parts).
    pub(crate) fn relabel(self, kind: ReleaseKind, guarantee: PrivacyParams) -> Self {
        SyntheticRelease {
            kind,
            guarantee,
            ..self
        }
    }

    /// Merges another release into this one (cell-wise sum of the synthetic
    /// functions), used to take the union of per-sub-instance releases.
    pub(crate) fn absorb(&mut self, other: &SyntheticRelease) -> Result<()> {
        self.histogram.accumulate(other.histogram())?;
        self.noisy_total += other.noisy_total;
        self.parts += other.parts;
        self.delta_tilde = self.delta_tilde.max(other.delta_tilde);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_noise::seeded_rng;
    use dpsyn_pmw::histogram::DEFAULT_MAX_CELLS;

    fn release_with_total(total: f64) -> SyntheticRelease {
        let q = JoinQuery::two_table(3, 3, 3);
        let h = Histogram::uniform(&q, total, DEFAULT_MAX_CELLS).unwrap();
        SyntheticRelease::new(
            q,
            h,
            ReleaseKind::TwoTable,
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            total,
            1,
            2.0,
        )
    }

    #[test]
    fn answering_from_release_matches_histogram() {
        let r = release_with_total(27.0);
        let family = QueryFamily::counting(r.query());
        let ans = r.answer_all(&family).unwrap();
        assert!((ans.get(0) - 27.0).abs() < 1e-9);
        assert!((r.answer(&ProductQuery::counting(2)).unwrap() - 27.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_unions_synthetic_data() {
        let mut a = release_with_total(10.0);
        let b = release_with_total(5.0);
        a.absorb(&b).unwrap();
        assert_eq!(a.parts(), 2);
        assert!((a.noisy_total() - 15.0).abs() < 1e-9);
        let family = QueryFamily::counting(a.query());
        assert!((a.answer_all(&family).unwrap().get(0) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn records_roundtrip_preserves_mass_approximately() {
        let r = release_with_total(100.0);
        let mut rng = seeded_rng(3);
        let records = r.to_records(&mut rng);
        let total: u64 = records.iter().map(|(_, c)| c).sum();
        assert!((total as f64 - 100.0).abs() < 30.0);
    }

    #[test]
    fn metadata_accessors() {
        let r = release_with_total(1.0);
        assert_eq!(r.kind(), ReleaseKind::TwoTable);
        assert_eq!(r.parts(), 1);
        assert!((r.delta_tilde() - 2.0).abs() < 1e-12);
        assert!((r.guarantee().epsilon() - 1.0).abs() < 1e-12);
    }
}
