//! Differentially private *baselines* that the paper's algorithms are compared
//! against in the experiments.
//!
//! * [`IndependentLaplaceBaseline`] answers every query of the workload
//!   separately with Laplace noise, splitting the budget across the `|Q|`
//!   queries (basic composition).  Its error necessarily grows with `|Q|`,
//!   which is the motivation (Section 1.2) for releasing synthetic data
//!   instead.
//! * The same struct with [`SensitivityChoice::Global`] calibrates the noise
//!   to a worst-case (global) sensitivity bound instead of the
//!   instance-specific residual sensitivity, quantifying how much the smooth
//!   sensitivity machinery buys.

use dpsyn_noise::{Laplace, PrivacyParams, TruncatedLaplace};
use dpsyn_query::{AnswerOps, AnswerSet, QueryFamily};
use dpsyn_relational::{ExecContext, Instance, JoinQuery};
use dpsyn_sensitivity::{global_sensitivity_bound, SensitivityOps};
use rand::Rng;

use crate::error::ReleaseError;
use crate::Result;

/// Which sensitivity the per-query Laplace noise is calibrated to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensitivityChoice {
    /// A private over-estimate of the residual sensitivity (as in
    /// Algorithm 3): noise scales with the instance at hand.
    Residual,
    /// The worst-case global sensitivity bound over instances of input size at
    /// most `n_upper` (annotated-relation bound `n^{m-1}`); `n_upper` is
    /// treated as public.
    Global {
        /// Public input-size bound.
        n_upper: u64,
    },
}

/// Per-query Laplace answering under basic composition.
#[derive(Debug, Clone)]
pub struct IndependentLaplaceBaseline {
    sensitivity: SensitivityChoice,
}

impl Default for IndependentLaplaceBaseline {
    fn default() -> Self {
        IndependentLaplaceBaseline::new(SensitivityChoice::Residual)
    }
}

impl IndependentLaplaceBaseline {
    /// Creates the baseline with the given sensitivity calibration.
    pub fn new(sensitivity: SensitivityChoice) -> Self {
        IndependentLaplaceBaseline { sensitivity }
    }

    /// Answers every query of the workload privately, splitting `(ε, δ)`
    /// across queries under basic composition.
    ///
    /// The per-query mechanism adds Laplace noise of scale `Δ̃ / ε_q` where
    /// `ε_q = ε/(2|Q|)` and `Δ̃` is the selected sensitivity bound: every
    /// linear query has per-tuple influence at most the counting query's, so
    /// a single bound covers the whole workload.
    ///
    /// The residual-sensitivity estimate and the true workload answers both
    /// flow through `ctx`'s persistent caches, so repeated baseline runs
    /// over one instance reuse the memoised `RS^β` and the full join.
    pub fn answer_all<R: Rng>(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        rng: &mut R,
    ) -> Result<AnswerSet> {
        if params.delta() <= 0.0 {
            return Err(ReleaseError::UnsupportedPrivacyParams(
                "the Laplace baseline uses a residual-sensitivity estimate that needs δ > 0"
                    .to_string(),
            ));
        }
        let half = params.halve();
        let per_query_epsilon = half.epsilon() / family.len() as f64;

        // Sensitivity bound shared by all queries.
        let delta_tilde = match self.sensitivity {
            SensitivityChoice::Residual => {
                let lambda = params.lambda();
                let beta = 1.0 / lambda;
                let rs = ctx.residual_sensitivity(query, instance, beta)?;
                let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), beta)?;
                rs.value.max(1.0) * tlap.sample(rng).exp()
            }
            SensitivityChoice::Global { n_upper } => {
                global_sensitivity_bound(query, n_upper, false)?
            }
        };

        let truth = ctx.answer_all_on_instance(query, instance, family)?;
        let laplace = Laplace::calibrated(delta_tilde, per_query_epsilon)?;
        let answers: Vec<f64> = (0..family.len())
            .map(|i| truth.get(i) + laplace.sample(rng))
            .collect();
        Ok(AnswerSet::new(answers))
    }

    /// The sensitivity calibration in use.
    pub fn sensitivity(&self) -> SensitivityChoice {
        self.sensitivity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_noise::seeded_rng;

    fn small_instance() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..6u64 {
            inst.relation_mut(0).add(vec![a, a % 3], 1).unwrap();
            inst.relation_mut(1).add(vec![a % 3, a], 1).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn answers_have_the_right_length_and_are_reproducible() {
        let ctx = ExecContext::sequential();
        let (q, inst) = small_instance();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            let family = QueryFamily::random_sign(&q, 10, &mut rng).unwrap();
            IndependentLaplaceBaseline::default()
                .answer_all(&ctx, &q, &inst, &family, params, &mut rng)
                .unwrap()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.len(), 10);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn error_grows_with_workload_size() {
        // The ℓ∞ error of per-query Laplace should degrade markedly as |Q|
        // grows (per-query budget shrinks), while the truth stays bounded.
        let ctx = ExecContext::sequential();
        let (q, inst) = small_instance();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let baseline = IndependentLaplaceBaseline::default();
        let mut errors = Vec::new();
        for &size in &[4usize, 64, 1024] {
            // Average over a few repetitions to smooth the noise.
            let mut total = 0.0;
            let reps = 5;
            for rep in 0..reps {
                let mut rng = seeded_rng(1000 + rep);
                let family = QueryFamily::random_sign(&q, size, &mut rng).unwrap();
                let truth = ctx.answer_all_on_instance(&q, &inst, &family).unwrap();
                let noisy = baseline
                    .answer_all(&ctx, &q, &inst, &family, params, &mut rng)
                    .unwrap();
                total += noisy.linf_distance(&truth).unwrap();
            }
            errors.push(total / reps as f64);
        }
        assert!(
            errors[2] > 4.0 * errors[0],
            "expected error to grow with |Q|: {errors:?}"
        );
    }

    #[test]
    fn global_calibration_is_much_noisier_than_residual() {
        let ctx = ExecContext::sequential();
        let (q, inst) = small_instance();
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let mut rng = seeded_rng(11);
        let family = QueryFamily::random_sign(&q, 16, &mut rng).unwrap();
        let truth = ctx.answer_all_on_instance(&q, &inst, &family).unwrap();

        let avg_error = |choice: SensitivityChoice, seed: u64| {
            let baseline = IndependentLaplaceBaseline::new(choice);
            let reps = 10;
            let mut total = 0.0;
            for rep in 0..reps {
                let mut rng = seeded_rng(seed + rep);
                let ans = baseline
                    .answer_all(&ctx, &q, &inst, &family, params, &mut rng)
                    .unwrap();
                total += ans.linf_distance(&truth).unwrap();
            }
            total / reps as f64
        };

        // Global sensitivity for annotated two-table instances of size 12 is
        // 12, while the residual sensitivity of this concrete instance is ~2-3
        // plus smoothing; but the residual path also spends budget on the
        // sensitivity estimate, so compare against a generous factor.
        let residual = avg_error(SensitivityChoice::Residual, 100);
        let global = avg_error(
            SensitivityChoice::Global {
                n_upper: inst.input_size() * 100,
            },
            200,
        );
        assert!(
            global > residual,
            "global-calibrated noise ({global}) should exceed residual-calibrated noise ({residual})"
        );
    }

    #[test]
    fn rejects_pure_dp() {
        let ctx = ExecContext::sequential();
        let (q, inst) = small_instance();
        let mut rng = seeded_rng(1);
        let family = QueryFamily::counting(&q);
        assert!(IndependentLaplaceBaseline::default()
            .answer_all(
                &ctx,
                &q,
                &inst,
                &family,
                PrivacyParams::pure(1.0).unwrap(),
                &mut rng
            )
            .is_err());
    }
}
