//! One function per experiment of the per-experiment index in `DESIGN.md`.
//!
//! Every experiment is deterministic given its internal seeds, uses only
//! synthetic data from `dpsyn-datagen`, and reports measured quantities next
//! to the paper's closed-form predictions so that the *shape* of each claim
//! can be checked (who wins, by roughly what factor, where crossovers fall).

use dpsyn_core::bounds;
use dpsyn_core::{
    FlawedJoinAsOne, FlawedPadAfter, HierarchicalRelease, IndependentLaplaceBaseline, Mechanism,
    MultiTable, SensitivityChoice, TwoTable, UniformizedTwoTable,
};
use dpsyn_datagen as datagen;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_pmw::PmwConfig;
use dpsyn_query::{AnswerOps, QueryFamily};
use dpsyn_relational::{join_size, ExecContext, Instance, JoinQuery};
use dpsyn_sensitivity::{local_sensitivity, residual_sensitivity};
use std::time::Instant;

use crate::reporting::Row;

/// Standard privacy parameters used across experiments (`ε = 1`, `δ = 1e-6`),
/// matching the paper's "typical setting".
pub fn standard_params() -> PrivacyParams {
    PrivacyParams::new(1.0, 1e-6).expect("valid parameters")
}

/// A PMW configuration bounded enough for experiment sweeps.
pub fn experiment_pmw() -> PmwConfig {
    PmwConfig {
        max_iterations: 60,
        ..PmwConfig::default()
    }
}

fn measured_linf(
    ctx: &ExecContext,
    query: &JoinQuery,
    instance: &Instance,
    family: &QueryFamily,
    answers: &dpsyn_query::AnswerSet,
) -> f64 {
    let truth = ctx
        .answer_all_on_instance(query, instance, family)
        .expect("truth answers");
    truth.linf_distance(answers).expect("aligned answers")
}

/// E1 — Figure 1 / Example 3.1: the distinguishing attack on the flawed
/// strawmen, and its failure against Algorithm 1.
///
/// The attack statistic is the released mass in the region `D'` (the `B = 0`
/// slice where all of instance `I`'s join results live); the attacker guesses
/// "instance I" when the statistic exceeds half of `I`'s join size.  The
/// reported `attack_accuracy` is the fraction of correct guesses over repeated
/// releases of both instances (0.5 = cannot distinguish, 1.0 = perfect
/// distinguisher).
pub fn exp_privacy_attack(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let n: u64 = if quick { 8 } else { 16 };
    let trials = if quick { 8 } else { 30 };
    let (query, heavy, empty) = datagen::fig1_pair(n);
    let params = standard_params();
    let family = QueryFamily::counting(&query);
    let threshold = (n * n) as f64 / 2.0;

    // The distinguishing statistic: the released total mass (the quantity the
    // first strawman leaks exactly — Figure 1's join sizes are n² vs 0).  The
    // `D'` region mass of Example 3.1 is reported as an informational column.
    let total_mass = |release: &dpsyn_core::SyntheticRelease| release.histogram().total();
    let region_mass = |release: &dpsyn_core::SyntheticRelease| {
        let h = release.histogram();
        (0..h.len())
            .filter(|&i| h.tuple_of(i)[1] == 0)
            .map(|i| h.weights()[i])
            .sum::<f64>()
    };

    let mut rows = Vec::new();
    let mut run = |name: &str,
                   release: &dyn Fn(
        &Instance,
        &mut rand::rngs::StdRng,
    ) -> dpsyn_core::SyntheticRelease| {
        let mut correct = 0usize;
        let mut heavy_stat = 0.0;
        let mut empty_stat = 0.0;
        let mut heavy_region = 0.0;
        let mut empty_region = 0.0;
        for t in 0..trials {
            let mut rng = seeded_rng(1000 + t as u64);
            let rh = release(&heavy, &mut rng);
            let re = release(&empty, &mut rng);
            let sh = total_mass(&rh);
            let se = total_mass(&re);
            heavy_stat += sh;
            empty_stat += se;
            heavy_region += region_mass(&rh);
            empty_region += region_mass(&re);
            if sh > threshold {
                correct += 1;
            }
            if se <= threshold {
                correct += 1;
            }
        }
        rows.push(
            Row::new(name)
                .with("attack_accuracy", correct as f64 / (2 * trials) as f64)
                .with("mean_total_I", heavy_stat / trials as f64)
                .with("mean_total_I'", empty_stat / trials as f64)
                .with("mean_region_I", heavy_region / trials as f64)
                .with("mean_region_I'", empty_region / trials as f64)
                .with("threshold", threshold),
        );
    };

    let pmw = experiment_pmw();
    run("flawed-join", &|inst, rng| {
        FlawedJoinAsOne::new(pmw)
            .release(&ctx, &query, inst, &family, params, rng)
            .expect("release")
    });
    run("flawed-pad", &|inst, rng| {
        FlawedPadAfter::new(pmw)
            .release(&ctx, &query, inst, &family, params, rng)
            .expect("release")
    });
    run("two-table", &|inst, rng| {
        TwoTable::new(pmw)
            .release(&ctx, &query, inst, &family, params, rng)
            .expect("release")
    });
    rows
}

/// E2 — Theorems 3.3 / 3.5: two-table error versus join size `OUT` at fixed
/// local sensitivity `Δ`, against the upper- and lower-bound curves.
pub fn exp_two_table_error(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let params = standard_params();
    let delta_sens = 4u64;
    let outs: &[u64] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096, 16384]
    };
    let num_queries = if quick { 16 } else { 32 };
    let mut rows = Vec::new();
    for (idx, &out) in outs.iter().enumerate() {
        let per_value = out / delta_sens; // join size = Δ · Σ T(a)
        let d = 8u64;
        let table: Vec<u64> = (0..d).map(|_| (per_value / d).max(1)).collect();
        let (query, instance) =
            datagen::fig2_hard_instance(&table, (per_value / d).max(1), delta_sens);
        let count = join_size(&query, &instance).unwrap() as f64;
        let ls = local_sensitivity(&query, &instance).unwrap() as f64;

        let mut rng = seeded_rng(42 + idx as u64);
        let family = QueryFamily::random_sign(&query, num_queries, &mut rng).unwrap();
        let release = TwoTable::new(experiment_pmw())
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let answers = release.answer_all(&family).unwrap();
        let err = measured_linf(&ctx, &query, &instance, &family, &answers);

        let log2_domain = query.schema().log2_full_domain();
        let upper = bounds::two_table_upper_bound(
            count,
            ls,
            params.lambda(),
            log2_domain,
            family.len(),
            params.epsilon(),
            params.delta(),
        );
        let lower = bounds::parameterized_lower_bound(count, ls, log2_domain, params.epsilon());
        rows.push(
            Row::new(format!("OUT={count}"))
                .with("delta", ls)
                .with("measured_error", err)
                .with("upper_bound", upper)
                .with("lower_bound", lower),
        );
    }
    rows
}

/// E3 — Figure 3 / Example 4.2 / Theorems 4.4, 4.5: uniformization versus
/// join-as-one on the skewed degree profile, as the scale `k` grows.
pub fn exp_uniformize_gain(quick: bool) -> Vec<Row> {
    // A moderate budget (λ ≈ 1.7) so that the degree spread of the Example 4.2
    // family actually exceeds λ at laptop scale — the regime where Theorem 4.4
    // separates the two algorithms.  With the standard (1, 1e-6) budget the
    // λ^{3/2}(Δ+λ) additive term dominates at these sizes and join-as-one wins.
    let params = PrivacyParams::new(4.0, 1e-3).expect("valid parameters");
    let ctx = ExecContext::default();
    let ks: &[u64] = if quick { &[8, 16] } else { &[8, 16, 32, 48] };
    let num_queries = if quick { 8 } else { 24 };
    let mut rows = Vec::new();
    for (idx, &k) in ks.iter().enumerate() {
        let (query, instance) = datagen::example42_instance(k);
        let count = join_size(&query, &instance).unwrap() as f64;
        let ls = local_sensitivity(&query, &instance).unwrap() as f64;
        let mut rng = seeded_rng(7 + idx as u64);
        let family = QueryFamily::random_sign(&query, num_queries, &mut rng).unwrap();

        let join_as_one = TwoTable::new(experiment_pmw())
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let err_join = measured_linf(
            &ctx,
            &query,
            &instance,
            &family,
            &join_as_one.answer_all(&family).unwrap(),
        );

        let uniformized = UniformizedTwoTable::new(experiment_pmw())
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let err_uni = measured_linf(
            &ctx,
            &query,
            &instance,
            &family,
            &uniformized.answer_all(&family).unwrap(),
        );

        // Predicted bounds from the uniform partition (Theorem 4.4 vs 3.3).
        let lambda = params.lambda();
        let spec =
            dpsyn_sensitivity::UniformPartitionSpec::two_table(&query, &instance, lambda).unwrap();
        let mut bucket_counts = Vec::new();
        for bucket in 1..=spec.max_bucket() {
            let members = spec.bucket_members(bucket);
            if members.is_empty() {
                continue;
            }
            let shared = query.intersect_attrs(&[0, 1]).unwrap();
            let r1 = instance.relation(0).restrict(&shared, &members).unwrap();
            let r2 = instance.relation(1).restrict(&shared, &members).unwrap();
            let sub = Instance::new(vec![r1, r2]);
            bucket_counts.push((bucket, join_size(&query, &sub).unwrap() as f64));
        }
        let log2_domain = query.schema().log2_full_domain();
        let predicted_join = bounds::two_table_upper_bound(
            count,
            ls,
            lambda,
            log2_domain,
            family.len(),
            params.epsilon(),
            params.delta(),
        );
        let predicted_uni = bounds::uniformized_upper_bound(
            &bucket_counts,
            ls,
            lambda,
            log2_domain,
            family.len(),
            params.epsilon(),
            params.delta(),
        );
        rows.push(
            Row::new(format!("k={k}"))
                .with("count", count)
                .with("delta", ls)
                .with("err_join_as_one", err_join)
                .with("err_uniformized", err_uni)
                .with("bound_join_as_one", predicted_join)
                .with("bound_uniformized", predicted_uni)
                .with("parts", uniformized.parts() as f64),
        );
    }
    rows
}

/// E4 — Theorem 1.5: multi-table (3-relation star) error versus input size,
/// with the residual-sensitivity-based bound, under uniform and Zipf skew.
pub fn exp_multi_table_error(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let params = standard_params();
    let sizes: &[usize] = if quick {
        &[60, 120]
    } else {
        &[60, 120, 240, 480]
    };
    let num_queries = if quick { 8 } else { 16 };
    let mut rows = Vec::new();
    for &theta in &[0.0f64, 1.2] {
        for (idx, &per_rel) in sizes.iter().enumerate() {
            let mut rng = seeded_rng(100 + idx as u64 + (theta * 10.0) as u64);
            let (query, instance) = datagen::random_star(3, 16, per_rel, theta, &mut rng);
            let count = join_size(&query, &instance).unwrap() as f64;
            let beta = MultiTable::beta(params).unwrap();
            let rs = residual_sensitivity(&query, &instance, beta).unwrap().value;
            let family = QueryFamily::random_sign(&query, num_queries, &mut rng).unwrap();
            let release = MultiTable::new(experiment_pmw())
                .release(&ctx, &query, &instance, &family, params, &mut rng)
                .unwrap();
            let err = measured_linf(
                &ctx,
                &query,
                &instance,
                &family,
                &release.answer_all(&family).unwrap(),
            );
            let bound = bounds::multi_table_upper_bound(
                count,
                rs,
                params.lambda(),
                query.schema().log2_full_domain(),
                family.len(),
                params.epsilon(),
                params.delta(),
            );
            rows.push(
                Row::new(format!("n={per_rel} θ={theta}"))
                    .with("count", count)
                    .with("residual_sensitivity", rs)
                    .with("delta_tilde", release.delta_tilde())
                    .with("measured_error", err)
                    .with("upper_bound", bound),
            );
        }
    }
    rows
}

/// E5 — Section 4.2 / Theorem C.2: hierarchical uniformization versus plain
/// `MultiTable` on a skewed star schema.
pub fn exp_hierarchical(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let params = PrivacyParams::new(2.0, 1e-4).expect("valid parameters");
    let sizes: &[usize] = if quick { &[80] } else { &[80, 160, 320] };
    let num_queries = if quick { 6 } else { 12 };
    let mut rows = Vec::new();
    for (idx, &rows_per_table) in sizes.iter().enumerate() {
        let mut rng = seeded_rng(500 + idx as u64);
        let (query, instance) = datagen::retail_star(24, rows_per_table, &mut rng);
        let family = QueryFamily::random_sign(&query, num_queries, &mut rng).unwrap();

        let plain = MultiTable::new(experiment_pmw())
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let err_plain = measured_linf(
            &ctx,
            &query,
            &instance,
            &family,
            &plain.answer_all(&family).unwrap(),
        );

        let hier = HierarchicalRelease::new(dpsyn_core::HierarchicalConfig {
            pmw: experiment_pmw(),
            ..Default::default()
        })
        .release(&ctx, &query, &instance, &family, params, &mut rng)
        .unwrap();
        let err_hier = measured_linf(
            &ctx,
            &query,
            &instance,
            &family,
            &hier.answer_all(&family).unwrap(),
        );

        rows.push(
            Row::new(format!("rows={rows_per_table}"))
                .with("count", join_size(&query, &instance).unwrap() as f64)
                .with("err_multitable", err_plain)
                .with("err_hierarchical", err_hier)
                .with("sub_instances", hier.parts() as f64)
                .with("delta_tilde_multi", plain.delta_tilde())
                .with("delta_tilde_hier", hier.delta_tilde()),
        );
    }
    rows
}

/// E6 — the Section 1.2 motivation: synthetic data versus per-query Laplace
/// (residual- and global-calibrated) as the workload size grows.
pub fn exp_baselines(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let params = standard_params();
    let sizes: &[usize] = if quick { &[8, 64] } else { &[8, 64, 512, 2048] };
    let mut rows = Vec::new();
    let mut gen_rng = seeded_rng(31);
    let (query, instance) = datagen::zipf_two_table(16, 400, 1.0, &mut gen_rng);
    for (idx, &q_count) in sizes.iter().enumerate() {
        let mut rng = seeded_rng(600 + idx as u64);
        let family = QueryFamily::random_sign(&query, q_count, &mut rng).unwrap();

        let synthetic = TwoTable::new(experiment_pmw())
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let err_synth = measured_linf(
            &ctx,
            &query,
            &instance,
            &family,
            &synthetic.answer_all(&family).unwrap(),
        );

        let residual = IndependentLaplaceBaseline::new(SensitivityChoice::Residual)
            .answer_all(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let err_residual = measured_linf(&ctx, &query, &instance, &family, &residual);

        let global = IndependentLaplaceBaseline::new(SensitivityChoice::Global {
            n_upper: instance.input_size(),
        })
        .answer_all(&ctx, &query, &instance, &family, params, &mut rng)
        .unwrap();
        let err_global = measured_linf(&ctx, &query, &instance, &family, &global);

        rows.push(
            Row::new(format!("|Q|={q_count}"))
                .with("err_synthetic", err_synth)
                .with("err_laplace_residual", err_residual)
                .with("err_laplace_global", err_global),
        );
    }
    rows
}

/// E7 — Definition 3.6's computability claim: residual-sensitivity runtime as
/// the input size and the number of relations grow.
pub fn exp_sensitivity_scaling(quick: bool) -> Vec<Row> {
    let params = standard_params();
    let beta = 1.0 / params.lambda();
    let mut rows = Vec::new();
    let sizes: &[usize] = if quick {
        &[100, 200]
    } else {
        &[100, 400, 1600]
    };
    for &n in sizes {
        for &m in &[2usize, 3, 4] {
            let mut rng = seeded_rng(800 + n as u64 + m as u64);
            let (query, instance) = datagen::random_star(m, 32, n / m, 1.0, &mut rng);
            let start = Instant::now();
            let rs = residual_sensitivity(&query, &instance, beta).unwrap();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            rows.push(
                Row::new(format!("n={n} m={m}"))
                    .with("rs_value", rs.value)
                    .with(
                        "ls_value",
                        local_sensitivity(&query, &instance).unwrap() as f64,
                    )
                    .with("time_ms", elapsed),
            );
        }
    }
    rows
}

/// E8 — Appendix B.3: measured error on adversarially skewed instances of the
/// triangle and star queries against the worst-case closed forms.
pub fn exp_worst_case(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let params = standard_params();
    let sizes: &[usize] = if quick { &[60] } else { &[60, 120, 240] };
    let mut rows = Vec::new();
    for (idx, &n) in sizes.iter().enumerate() {
        let mut rng = seeded_rng(900 + idx as u64);
        // Adversarial skew: every relation concentrates on hub value 0.
        let (query, instance) = datagen::random_star(3, 8, n, 3.0, &mut rng);
        let family = QueryFamily::random_sign(&query, 8, &mut rng).unwrap();
        let release = MultiTable::new(experiment_pmw())
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap();
        let err = measured_linf(
            &ctx,
            &query,
            &instance,
            &family,
            &release.answer_all(&family).unwrap(),
        );
        let (rho_full, rho_res) = dpsyn_sensitivity::worst_case_error_exponent(&query).unwrap();
        let input = instance.input_size() as f64;
        rows.push(
            Row::new(format!("star3 n={n}"))
                .with("measured_error", err)
                .with("count", join_size(&query, &instance).unwrap() as f64)
                .with("rho_full", rho_full)
                .with("rho_residual", rho_res)
                .with(
                    "worst_case_annotated",
                    bounds::worst_case_error_annotated(input, 3),
                )
                .with(
                    "worst_case_set_valued",
                    bounds::worst_case_error_set_valued(input, rho_full, rho_res),
                ),
        );
    }
    rows
}

/// E9 — empirical privacy accounting: an ε̂ estimate from repeated releases on
/// a pair of neighbouring instances, compared to the accounted ε.
///
/// The estimator discretises the released counting answer into "above /
/// below threshold" events and reports the worst log-likelihood ratio over a
/// grid of thresholds — a lower bound on the true ε (up to sampling error),
/// which must not exceed the accounted ε by a wide margin.
pub fn exp_accounting(quick: bool) -> Vec<Row> {
    let ctx = ExecContext::default();
    let trials = if quick { 40 } else { 200 };
    let params = standard_params();
    let query = JoinQuery::two_table(8, 8, 8);
    let mut base = Instance::empty_for(&query).unwrap();
    for a in 0..6u64 {
        base.relation_mut(0).add(vec![a, 0], 1).unwrap();
        base.relation_mut(1).add(vec![0, a], 1).unwrap();
    }
    let neighbor = base
        .apply_edit(&dpsyn_relational::NeighborEdit::Add {
            relation: 0,
            tuple: vec![7, 0],
        })
        .unwrap();
    let family = QueryFamily::counting(&query);
    let pmw = PmwConfig {
        iterations_override: Some(5),
        ..PmwConfig::default()
    };

    let sample_counts = |instance: &Instance, seed_base: u64| -> Vec<f64> {
        (0..trials)
            .map(|t| {
                let mut rng = seeded_rng(seed_base + t as u64);
                TwoTable::new(pmw)
                    .release(&ctx, &query, instance, &family, params, &mut rng)
                    .unwrap()
                    .answer(&dpsyn_query::ProductQuery::counting(2))
                    .unwrap()
            })
            .collect()
    };
    let a = sample_counts(&base, 10_000);
    let b = sample_counts(&neighbor, 20_000);

    let mut eps_hat: f64 = 0.0;
    let mut all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    all.sort_by(|x, y| x.partial_cmp(y).unwrap());
    for threshold in all.iter().step_by((all.len() / 16).max(1)) {
        let pa =
            (a.iter().filter(|&&x| x > *threshold).count() as f64 + 1.0) / (trials as f64 + 2.0);
        let pb =
            (b.iter().filter(|&&x| x > *threshold).count() as f64 + 1.0) / (trials as f64 + 2.0);
        eps_hat = eps_hat
            .max((pa / pb).ln().abs())
            .max(((1.0 - pa) / (1.0 - pb)).ln().abs());
    }

    vec![Row::new("two-table counting")
        .with("accounted_epsilon", params.epsilon())
        .with("empirical_epsilon_lower_bound", eps_hat)
        .with("trials_per_instance", trials as f64)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_rows() {
        assert_eq!(exp_privacy_attack(true).len(), 3);
        assert_eq!(exp_two_table_error(true).len(), 2);
        assert_eq!(exp_uniformize_gain(true).len(), 2);
        assert_eq!(exp_multi_table_error(true).len(), 4);
        assert!(!exp_baselines(true).is_empty());
        assert_eq!(exp_sensitivity_scaling(true).len(), 6);
        assert_eq!(exp_worst_case(true).len(), 1);
        assert_eq!(exp_accounting(true).len(), 1);
        assert_eq!(exp_hierarchical(true).len(), 1);
    }

    #[test]
    fn privacy_attack_separates_flawed_from_fixed() {
        let rows = exp_privacy_attack(true);
        let accuracy = |name: &str| {
            rows.iter()
                .find(|r| r.label == name)
                .unwrap()
                .values
                .get("attack_accuracy")
                .copied()
                .unwrap()
        };
        // The first strawman is a perfect distinguisher even at small scale.
        assert!(accuracy("flawed-join") > 0.9);
    }

    #[test]
    fn accounting_estimate_stays_below_budget() {
        let rows = exp_accounting(true);
        let eps_hat = rows[0].values["empirical_epsilon_lower_bound"];
        let eps = rows[0].values["accounted_epsilon"];
        // Allow generous slack for sampling error with few trials.
        assert!(
            eps_hat <= 3.0 * eps + 1.0,
            "eps_hat = {eps_hat}, eps = {eps}"
        );
    }
}
