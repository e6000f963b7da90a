//! The two *flawed* strawman algorithms of Section 3.1.
//!
//! Both are deliberately **not** differentially private; they exist so that
//! the Example 3.1 distinguishing attack can be demonstrated empirically
//! (experiment E1) and contrasted with Algorithm 1.
//!
//! * [`FlawedJoinAsOne`] — "compute the join and hand it to single-table PMW":
//!   the released synthetic dataset's total mass equals `count(I)` exactly,
//!   and neighbouring instances can have join sizes differing by `Θ(n)`
//!   (Figure 1), so the total mass alone distinguishes them.
//! * [`FlawedPadAfter`] — "release PMW's output and *then* pad with noisy
//!   dummy tuples": the total mass is protected, but the padding is spread
//!   (near-)uniformly over the huge domain, so the mass inside the small
//!   region `D'` where the true join lives still reveals the difference
//!   (Example 3.1).
//!
//! The fix — pad *before* releasing, i.e. start PMW from a noisy total — is
//! exactly Algorithm 1 (`TwoTable`).

use dpsyn_noise::{PrivacyParams, TruncatedLaplace};
use dpsyn_pmw::PmwConfig;
use dpsyn_query::QueryFamily;
use dpsyn_relational::{ExecContext, Instance, JoinQuery};
use dpsyn_sensitivity::two_table_local_sensitivity;
use rand::Rng;

use crate::error::ReleaseError;
use crate::mechanism::Mechanism;
use crate::release::{ReleaseKind, SyntheticRelease};
use crate::Result;

fn check_two_table(query: &JoinQuery, params: PrivacyParams) -> Result<()> {
    if query.num_relations() != 2 {
        return Err(ReleaseError::RequiresTwoTable {
            got: query.num_relations(),
        });
    }
    if params.delta() <= 0.0 {
        return Err(ReleaseError::UnsupportedPrivacyParams(
            "the strawman algorithms still use (ε, δ) machinery internally; supply δ > 0"
                .to_string(),
        ));
    }
    Ok(())
}

/// Strawman 1: release single-table PMW's output for the join result without
/// protecting the join size.  **Not differentially private.**
#[derive(Debug, Clone, Default)]
pub struct FlawedJoinAsOne {
    pmw: PmwConfig,
}

impl FlawedJoinAsOne {
    /// Creates the strawman with a custom PMW configuration.
    pub fn new(pmw: PmwConfig) -> Self {
        FlawedJoinAsOne { pmw }
    }
}

impl Mechanism for FlawedJoinAsOne {
    fn name(&self) -> &'static str {
        "flawed_join_as_one"
    }

    /// Runs the strawman release, joining at `ctx`'s parallelism.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        check_two_table(query, params)?;
        let half = params.halve();
        let delta = two_table_local_sensitivity(query, instance)? as f64;
        let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), 1.0)?;
        let delta_tilde = delta + tlap.sample(&mut rng);

        let pmw_out = crate::run_pmw(
            self.pmw,
            ctx,
            query,
            instance,
            family,
            half,
            delta_tilde,
            &mut rng,
        )?;
        // The flaw: force the released mass back to the *exact* join size, as
        // the single-table PMW of [25] would (its histogram always carries the
        // true record count).
        let mut histogram = pmw_out.histogram;
        let count = ctx.join_size(query, instance)? as f64;
        histogram.normalize_to(count);

        Ok(SyntheticRelease::new(
            query.clone(),
            histogram,
            ReleaseKind::Baseline,
            params,
            count,
            1,
            delta_tilde,
        ))
    }
}

/// Strawman 2: release the (mass-revealing) PMW output and pad it afterwards
/// with `η ∼ TLap` dummy tuples spread uniformly over the domain.
/// **Not differentially private** (Example 3.1).
#[derive(Debug, Clone, Default)]
pub struct FlawedPadAfter {
    pmw: PmwConfig,
}

impl FlawedPadAfter {
    /// Creates the strawman with a custom PMW configuration.
    pub fn new(pmw: PmwConfig) -> Self {
        FlawedPadAfter { pmw }
    }
}

impl Mechanism for FlawedPadAfter {
    fn name(&self) -> &'static str {
        "flawed_pad_after"
    }

    /// Runs the strawman release, joining at `ctx`'s parallelism.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        check_two_table(query, params)?;
        let half = params.halve();

        // Step 1-2 of the strawman: noisy sensitivity and noisy padding size.
        let delta = two_table_local_sensitivity(query, instance)? as f64;
        let sens_noise = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), 1.0)?;
        let delta_tilde = delta + sens_noise.sample(&mut rng);
        let pad_noise =
            TruncatedLaplace::calibrated(half.epsilon(), half.delta(), delta_tilde.max(1.0))?;
        let eta = pad_noise.sample(&mut rng);

        // Step 3: the mass-revealing release (as in FlawedJoinAsOne).
        let pmw_out = crate::run_pmw(
            self.pmw,
            ctx,
            query,
            instance,
            family,
            half,
            delta_tilde,
            &mut rng,
        )?;
        let mut histogram = pmw_out.histogram;
        let count = ctx.join_size(query, instance)? as f64;
        histogram.normalize_to(count);

        // Step 4: pad afterwards — η mass spread uniformly over the domain
        // (the continuous analogue of sampling η random dummy tuples).
        let padding = dpsyn_pmw::Histogram::uniform(query, eta, self.pmw.max_domain_cells)?;
        histogram.accumulate(&padding)?;

        Ok(SyntheticRelease::new(
            query.clone(),
            histogram,
            ReleaseKind::Baseline,
            params,
            count + eta,
            1,
            delta_tilde,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_table::TwoTable;
    use dpsyn_noise::seeded_rng;
    use dpsyn_query::ProductQuery;

    /// A Figure 1 style pair: I (left) has join size n², I' (right) has join
    /// size 0, with the same per-relation sizes.
    fn figure1_pair(n: u64) -> (JoinQuery, Instance, Instance) {
        let q = JoinQuery::two_table(n, 2 * n, n);
        let mut left = Instance::empty_for(&q).unwrap();
        let mut right = Instance::empty_for(&q).unwrap();
        for j in 0..n {
            left.relation_mut(0).add(vec![j, 0], 1).unwrap();
            left.relation_mut(1).add(vec![0, j], 1).unwrap();
            // The right instance uses disjoint B values in the two relations,
            // so nothing joins.
            right.relation_mut(0).add(vec![j, j], 1).unwrap();
            right.relation_mut(1).add(vec![n + j, j], 1).unwrap();
        }
        (q, left, right)
    }

    #[test]
    fn flawed_join_as_one_reveals_the_join_size() {
        let ctx = ExecContext::sequential();
        let (q, heavy, empty) = figure1_pair(8);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let family = QueryFamily::counting(&q);
        let mut rng = seeded_rng(1);
        let strawman = FlawedJoinAsOne::default();
        let rel_heavy = strawman
            .release(&ctx, &q, &heavy, &family, params, &mut rng)
            .unwrap();
        let rel_empty = strawman
            .release(&ctx, &q, &empty, &family, params, &mut rng)
            .unwrap();
        // The released totals are the exact join sizes: 64 vs 0 — a perfect
        // distinguisher even though the instances are "close" (every relation
        // differs only in which join values tuples carry).
        assert_eq!(rel_heavy.histogram().total().round(), 64.0);
        assert_eq!(rel_empty.histogram().total().round(), 0.0);
    }

    #[test]
    fn pad_after_adds_uniform_padding_on_top_of_the_exact_count() {
        // The second strawman hides the raw total (count + η with η > 0), but
        // the padding is spread uniformly over the whole domain, so the mass
        // it adds to the data-carrying region stays tiny — which is what the
        // Example 3.1 attack exploits at scale (experiment E1 runs the full
        // distinguishing attack; here we check the structural properties).
        let ctx = ExecContext::sequential();
        let (q, heavy, _) = figure1_pair(8);
        let params = PrivacyParams::new(1.0, 1e-4).unwrap();
        let family = QueryFamily::counting(&q);
        let strawman = FlawedPadAfter::default();

        let mut rng = seeded_rng(5);
        let rel_heavy = strawman
            .release(&ctx, &q, &heavy, &family, params, &mut rng)
            .unwrap();
        let count = 64.0;
        let total = rel_heavy.histogram().total();
        assert!(total > count, "padding must be strictly positive");
        // η is bounded by 2τ(ε/2, δ/2, Δ̃).
        let tau = dpsyn_noise::truncation_radius(0.5, 5e-5, rel_heavy.delta_tilde()).unwrap();
        assert!(total <= count + 2.0 * tau + 1e-6);
        // The padding contributes equally to every B-slice: the spread mass in
        // any single slice is at most 2τ / |dom(B)| plus the data mass.
        let h = rel_heavy.histogram();
        let slice_mass: f64 = (0..h.len())
            .filter(|&i| h.tuple_of(i)[1] == 7) // a slice with no data
            .map(|i| h.weights()[i])
            .sum();
        assert!(slice_mass <= count + 2.0 * tau / 16.0 + 1e-6);
    }

    #[test]
    fn algorithm_one_does_not_exhibit_the_total_mass_gap() {
        // For contrast: Algorithm 1's released total never equals the exact
        // join size (the padding is strictly positive with overwhelming
        // probability) and over-estimates it for both instances.
        let ctx = ExecContext::sequential();
        let (q, heavy, empty) = figure1_pair(8);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let family = QueryFamily::counting(&q);
        let mut rng = seeded_rng(3);
        let fixed = TwoTable::default();
        let rel_heavy = fixed
            .release(&ctx, &q, &heavy, &family, params, &mut rng)
            .unwrap();
        let rel_empty = fixed
            .release(&ctx, &q, &empty, &family, params, &mut rng)
            .unwrap();
        assert!(rel_heavy.answer(&ProductQuery::counting(2)).unwrap() >= 64.0);
        // The empty instance's total is pure padding — strictly positive, so
        // "total == 0" no longer identifies it.
        assert!(rel_empty.answer(&ProductQuery::counting(2)).unwrap() > 0.0);
    }

    #[test]
    fn strawmen_validate_inputs() {
        let ctx = ExecContext::sequential();
        let q = JoinQuery::star(3, 4).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        let family = QueryFamily::counting(&q);
        let mut rng = seeded_rng(2);
        assert!(FlawedJoinAsOne::default()
            .release(
                &ctx,
                &q,
                &inst,
                &family,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                &mut rng
            )
            .is_err());
        assert!(FlawedPadAfter::default()
            .release(
                &ctx,
                &q,
                &inst,
                &family,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                &mut rng
            )
            .is_err());
    }
}
