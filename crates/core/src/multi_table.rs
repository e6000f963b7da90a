//! Algorithm 3: `MultiTable` — join-as-one release for general join queries
//! using residual sensitivity.
//!
//! ```text
//! 1.  β  ← 1/λ                       with λ = (1/ε)·ln(1/δ)
//! 2.  Δ̃  ← RS^β_count(I) · exp( TLap^{τ(ε/2, δ/2, β)}_{2β/ε} )
//! 3.  return PMW_{ε/2, δ/2, Δ̃}(I)
//! ```
//!
//! For general joins the local sensitivity itself can change wildly between
//! neighbouring instances, so Algorithm 1's trick no longer works.  Instead
//! the algorithm perturbs `ln(RS^β_count(I))`, which has global sensitivity at
//! most `β` because `RS^β` is a β-smooth upper bound on local sensitivity; the
//! truncated-Laplace noise is non-negative, so `Δ̃ ≥ RS^β(I) ≥ LS_count(I)`
//! always holds and the PMW padding remains safe.
//!
//! Guarantee (Theorem 1.5): `(ε, δ)`-DP with error
//! `O((√(count(I)·RS^β(I)) + RS^β(I)·√λ) · f_upper)`.

use dpsyn_noise::{PrivacyParams, TruncatedLaplace};
use dpsyn_pmw::PmwConfig;
use dpsyn_query::QueryFamily;
use dpsyn_relational::{ExecContext, Instance, JoinQuery};
use dpsyn_sensitivity::SensitivityOps;
use rand::Rng;

use crate::error::ReleaseError;
use crate::mechanism::Mechanism;
use crate::release::{ReleaseKind, SyntheticRelease};
use crate::Result;

/// Algorithm 3: the multi-table join-as-one release.
#[derive(Debug, Clone, Default)]
pub struct MultiTable {
    pmw: PmwConfig,
}

impl MultiTable {
    /// Creates the algorithm with a custom PMW configuration.
    pub fn new(pmw: PmwConfig) -> Self {
        MultiTable { pmw }
    }

    /// The smoothing parameter `β = 1/λ` the algorithm will use for the given
    /// privacy parameters.
    pub fn beta(params: PrivacyParams) -> Result<f64> {
        let lambda = params.lambda();
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(ReleaseError::UnsupportedPrivacyParams(
                "MultiTable requires δ > 0 so that λ = (1/ε)·ln(1/δ) is finite and positive"
                    .to_string(),
            ));
        }
        Ok(1.0 / lambda)
    }
}

impl Mechanism for MultiTable {
    fn name(&self) -> &'static str {
        "multi_table"
    }

    /// Runs `MultiTable_{ε,δ}(I)` through `ctx`.
    ///
    /// The residual-sensitivity computation that dominates this algorithm
    /// is memoised in `ctx`'s slot for the instance, so repeated releases
    /// (or sensitivity sweeps) over the same instance skip the `2^m` subset
    /// enumeration.  Output is byte-identical warm or cold, at any
    /// parallelism level.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        let beta = Self::beta(params)?;
        let half = params.halve();

        // Line 2: multiplicative truncated-Laplace perturbation of RS^β.
        // ln(RS^β) has global sensitivity β, and the noise is non-negative, so
        // Δ̃ is a private over-estimate of RS^β (and hence of LS).
        let rs = ctx.residual_sensitivity(query, instance, beta)?;
        let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), beta)?;
        // RS can be 0 only on an empty instance; clamp so ln/exp stay finite.
        let delta_tilde = rs.value.max(1.0) * tlap.sample(&mut rng).exp();

        // Line 3: PMW with the remaining half of the budget.
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
            ReleaseKind::MultiTable,
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
    use dpsyn_sensitivity::local_sensitivity;

    fn star_instance() -> (JoinQuery, Instance) {
        let q = JoinQuery::star(3, 6).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for hub in 0..2u64 {
            for a in 0..3u64 {
                inst.relation_mut(0).add(vec![hub, a], 1).unwrap();
                inst.relation_mut(1).add(vec![hub, a], 1).unwrap();
            }
            inst.relation_mut(2).add(vec![hub, 0], 2).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn beta_is_one_over_lambda() {
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let beta = MultiTable::beta(params).unwrap();
        assert!((beta - 1.0 / params.lambda()).abs() < 1e-12);
        assert!(MultiTable::beta(PrivacyParams::pure(1.0).unwrap()).is_err());
    }

    #[test]
    fn delta_tilde_dominates_residual_and_local_sensitivity() {
        let ctx = ExecContext::sequential();
        let (q, inst) = star_instance();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let beta = MultiTable::beta(params).unwrap();
        let rs = dpsyn_sensitivity::residual_sensitivity(&q, &inst, beta)
            .unwrap()
            .value;
        let ls = local_sensitivity(&q, &inst).unwrap() as f64;
        let family = QueryFamily::counting(&q);
        for seed in 0..5u64 {
            let mut rng = seeded_rng(seed);
            let release = MultiTable::default()
                .release(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap();
            assert!(release.delta_tilde() >= rs.max(1.0) - 1e-9);
            assert!(release.delta_tilde() >= ls - 1e-9);
        }
    }

    #[test]
    fn release_is_identical_at_every_parallelism_level() {
        // Guards the context plumbing: the execution settings must never
        // leak into the seeded RNG stream or the released values (same seed
        // ⇒ same bytes out).  This instance sits *below* the engine's
        // small-instance parallelism threshold, so all levels take the
        // sequential fallback here; the genuinely parallel sensitivity path
        // is asserted equal to the sequential one on large instances in the
        // sensitivity crate's unit tests and in `tests/properties.rs`
        // (`parallel_sensitivity_matches_sequential_and_naive`).
        let (q, inst) = star_instance();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let family = QueryFamily::counting(&q);
        let release_at = |threads: usize| {
            let mut rng = seeded_rng(11);
            let ctx = ExecContext::with_threads(threads);
            MultiTable::default()
                .release(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap()
        };
        let seq = release_at(1);
        for threads in [2usize, 4] {
            let par = release_at(threads);
            assert_eq!(par.delta_tilde(), seq.delta_tilde(), "threads {threads}");
            assert_eq!(par.noisy_total(), seq.noisy_total(), "threads {threads}");
            let a = seq.answer_all(&family).unwrap();
            let b = par.answer_all(&family).unwrap();
            assert_eq!(a.values(), b.values(), "threads {threads}");
        }
        // A warm context (values memoised by a prior release over the same
        // instance) must also change nothing.
        let ctx = ExecContext::sequential();
        let mut rng = seeded_rng(11);
        let cold = MultiTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert_eq!(ctx.cached_instances(), 1, "the release claims one slot");
        let (hits, _) = ctx.cache_stats();
        let mut rng = seeded_rng(11);
        let warm = MultiTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert!(ctx.cache_stats().0 > hits, "the warm release hits the memo");
        assert_eq!(warm.delta_tilde(), cold.delta_tilde());
        assert_eq!(warm.delta_tilde(), seq.delta_tilde());
    }

    #[test]
    fn works_on_two_table_queries_too() {
        // MultiTable is strictly more general than TwoTable; on a two-table
        // instance it must produce a valid release as well (with a somewhat
        // larger Δ̃, since RS^β ≥ LS).
        let ctx = ExecContext::sequential();
        let q = JoinQuery::two_table(6, 6, 6);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..4u64 {
            inst.relation_mut(0).add(vec![a, 1], 1).unwrap();
            inst.relation_mut(1).add(vec![1, a], 1).unwrap();
        }
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let mut rng = seeded_rng(5);
        let family = QueryFamily::random_sign(&q, 8, &mut rng).unwrap();
        let release = MultiTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert_eq!(release.parts(), 1);
        assert!(release.noisy_total() >= dpsyn_relational::join_size(&q, &inst).unwrap() as f64);
        assert_eq!(release.answer_all(&family).unwrap().len(), 8);
    }

    #[test]
    fn triangle_query_release() {
        // A non-hierarchical query exercises the general residual-sensitivity
        // path end to end.
        let ctx = ExecContext::sequential();
        let q = JoinQuery::triangle(4);
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![0, 1], 1).unwrap();
        inst.relation_mut(1).add(vec![1, 2], 1).unwrap();
        inst.relation_mut(2).add(vec![0, 2], 1).unwrap();
        inst.relation_mut(0).add(vec![1, 1], 1).unwrap();
        let params = PrivacyParams::new(1.0, 1e-4).unwrap();
        let mut rng = seeded_rng(6);
        let family = QueryFamily::counting(&q);
        let release = MultiTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert!(release.delta_tilde() >= 1.0);
        assert!(release.histogram().total() > 0.0);
    }

    #[test]
    fn empty_instance_is_handled() {
        let ctx = ExecContext::sequential();
        let q = JoinQuery::star(3, 4).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        let params = PrivacyParams::new(1.0, 1e-4).unwrap();
        let mut rng = seeded_rng(8);
        let family = QueryFamily::counting(&q);
        let release = MultiTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        // Only truncated-Laplace padding mass can appear.
        assert!(release.histogram().total() < 1e4);
    }
}
