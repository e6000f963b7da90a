//! Algorithm 1: `TwoTable` — the join-as-one release for two-table queries.
//!
//! ```text
//! 1.  Δ̃ ← Δ + TLap^{τ(ε/2, δ/2, 1)}_{2/ε}          (noisy local sensitivity)
//! 2.  return PMW_{ε/2, δ/2, Δ̃}(I)
//! ```
//!
//! where `Δ = LS_count(I) = max_b max{deg_{1,B}(b), deg_{2,B}(b)}`.  The key
//! point (Section 3.1): the local sensitivity of the two-table counting query
//! itself has global sensitivity 1, so a truncated-Laplace perturbation of `Δ`
//! is private *and* never underestimates `Δ`, which is exactly what PMW needs
//! to pad the noisy join size `n̂` safely.
//!
//! Guarantee (Theorem 3.3): `(ε, δ)`-DP, and with probability
//! `1 − 1/poly(|Q|)` every query of `Q` is answered within
//! `O((√(count(I)·(Δ+λ)) + (Δ+λ)·√λ) · f_upper)`.

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

/// Algorithm 1: the two-table join-as-one release.
#[derive(Debug, Clone, Default)]
pub struct TwoTable {
    pmw: PmwConfig,
}

impl TwoTable {
    /// Creates the algorithm with a custom PMW configuration.
    pub fn new(pmw: PmwConfig) -> Self {
        TwoTable { pmw }
    }
}

impl Mechanism for TwoTable {
    fn name(&self) -> &'static str {
        "two_table"
    }

    /// Runs `TwoTable_{ε,δ}(I)`; PMW joins at `ctx`'s parallelism.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        if query.num_relations() != 2 {
            return Err(ReleaseError::RequiresTwoTable {
                got: query.num_relations(),
            });
        }
        if params.delta() <= 0.0 {
            return Err(ReleaseError::UnsupportedPrivacyParams(
                "TwoTable requires δ > 0 (truncated-Laplace calibration)".to_string(),
            ));
        }
        let half = params.halve();

        // Line 1: noisy local sensitivity.  LS_count has global sensitivity 1
        // for two-table queries, so sensitivity-1 TLap noise suffices.
        let delta = two_table_local_sensitivity(query, instance)? as f64;
        let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), 1.0)?;
        let delta_tilde = delta + tlap.sample(&mut rng);

        // Line 2: PMW with the remaining half of the budget.
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

        Ok(SyntheticRelease::new(
            query.clone(),
            pmw_out.histogram,
            ReleaseKind::TwoTable,
            params,
            pmw_out.noisy_total,
            1,
            delta_tilde,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_noise::seeded_rng;
    use dpsyn_relational::join_size;

    fn skewed_instance(scale: u64) -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..8u64 {
            inst.relation_mut(0).add(vec![a, 0], scale).unwrap();
        }
        for c in 0..8u64 {
            inst.relation_mut(1).add(vec![0, c], scale).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn rejects_non_two_table_queries_and_pure_dp() {
        let ctx = ExecContext::sequential();
        let q3 = JoinQuery::star(3, 4).unwrap();
        let inst = Instance::empty_for(&q3).unwrap();
        let family = QueryFamily::counting(&q3);
        let mut rng = seeded_rng(0);
        let err = TwoTable::default()
            .release(
                &ctx,
                &q3,
                &inst,
                &family,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, ReleaseError::RequiresTwoTable { got: 3 }));

        let q2 = JoinQuery::two_table(4, 4, 4);
        let inst = Instance::empty_for(&q2).unwrap();
        let family = QueryFamily::counting(&q2);
        let err = TwoTable::default()
            .release(
                &ctx,
                &q2,
                &inst,
                &family,
                PrivacyParams::pure(1.0).unwrap(),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, ReleaseError::UnsupportedPrivacyParams(_)));
    }

    #[test]
    fn delta_tilde_never_underestimates_local_sensitivity() {
        let ctx = ExecContext::sequential();
        let (q, inst) = skewed_instance(2);
        let family = QueryFamily::counting(&q);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        for seed in 0..5u64 {
            let mut rng = seeded_rng(seed);
            let release = TwoTable::default()
                .release(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap();
            let ls = two_table_local_sensitivity(&q, &inst).unwrap() as f64;
            assert!(release.delta_tilde() >= ls);
            // The noisy total over-estimates the join size (TLap is non-negative).
            assert!(release.noisy_total() >= join_size(&q, &inst).unwrap() as f64);
        }
    }

    #[test]
    fn release_is_deterministic_given_seed_and_answers_queries() {
        let ctx = ExecContext::sequential();
        let (q, inst) = skewed_instance(4);
        let params = PrivacyParams::new(2.0, 1e-4).unwrap();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            let family = QueryFamily::random_sign(&q, 12, &mut rng).unwrap();
            let rel = TwoTable::default()
                .release(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap();
            rel.answer_all(&family).unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn counting_query_is_answered_within_the_noisy_padding() {
        // The synthetic data's total mass is count(I) + TLap, so the counting
        // query error is at most the padding 2τ(ε/4, δ/4, Δ̃).
        let ctx = ExecContext::sequential();
        let (q, inst) = skewed_instance(2);
        let family = QueryFamily::counting(&q);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut rng = seeded_rng(77);
        let release = TwoTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        let count = join_size(&q, &inst).unwrap() as f64;
        let answered = release
            .answer(&dpsyn_query::ProductQuery::counting(2))
            .unwrap();
        let padding = dpsyn_noise::truncation_radius(0.25, 2.5e-7, release.delta_tilde()).unwrap();
        assert!(
            (answered - count).abs() <= 2.0 * padding + 1e-6,
            "answered {answered}, count {count}, padding {padding}"
        );
    }
}
