//! Cross-crate integration tests: full pipelines from data generation through
//! sensitivity analysis, release, and query answering.

use dpsyn::prelude::*;
use dpsyn_core::bounds;
use dpsyn_core::{HierarchicalRelease, ReleaseKind};
use dpsyn_noise::seeded_rng;
use dpsyn_pmw::PmwConfig;

fn fast_pmw() -> PmwConfig {
    PmwConfig {
        max_iterations: 20,
        ..PmwConfig::default()
    }
}

#[test]
fn two_table_pipeline_end_to_end() {
    let mut rng = seeded_rng(1);
    let (query, instance) = dpsyn::datagen::zipf_two_table(16, 200, 1.0, &mut rng);
    let workload = QueryFamily::random_sign(&query, 24, &mut rng).unwrap();
    let budget = PrivacyParams::new(1.0, 1e-6).unwrap();

    // The whole pipeline runs through one session: truth evaluation uses
    // the cached full join, the release runs via the Mechanism trait.
    let session = Session::new();
    let truth = session.answer_truth(&query, &instance, &workload).unwrap();
    let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(1);
    let release = session
        .release(&dpsyn_core::TwoTable::new(fast_pmw()), &request)
        .unwrap();
    assert_eq!(release.kind(), ReleaseKind::TwoTable);

    // Post-processing: answers come from the synthetic data only.
    let answers = release.answer_all(&workload).unwrap();
    assert_eq!(answers.len(), 24);

    // The measured error is finite and within a loose multiple of the paper's
    // upper bound (Theorem 3.3); the bound itself is asymptotic so we only
    // check the order of magnitude.
    let err = answers.linf_distance(&truth).unwrap();
    let ls = local_sensitivity(&query, &instance).unwrap() as f64;
    let bound = bounds::two_table_upper_bound(
        join_size(&query, &instance).unwrap() as f64,
        ls,
        budget.lambda(),
        query.schema().log2_full_domain(),
        workload.len(),
        budget.epsilon(),
        budget.delta(),
    );
    assert!(err.is_finite());
    assert!(err <= 10.0 * bound, "error {err} way above bound {bound}");
}

#[test]
fn uniformized_release_beats_or_matches_join_as_one_on_skewed_data() {
    // On the Example 4.2 family the uniformized algorithm should not be
    // (much) worse than join-as-one; on average it is better.  We compare
    // averaged errors over a few seeds to keep the test robust.
    //
    // Why k = 48: Example 4.2's gap between the two mechanisms scales with
    // the skew of the degree sequence (join-as-one's error tracks the *sum*
    // of squared degrees, uniformization's the largest uniformized bucket),
    // but both algorithms also pay a fixed, size-independent overhead —
    // budget halving plus the noisy bucket partition.  At k = 12 the
    // asymptotic advantage is the same order as that overhead, so the
    // err_uni/err_join ratio sits right at the assertion threshold and
    // crosses it on unlucky noise draws; k = 48 is the smallest member of
    // the family where the asymptotic term dominates and the ratio is
    // comfortably inside the bound for every seed below.
    //
    // Determinism: each mechanism draws from its own fixed-seed RNG.  With
    // a single shared RNG the uniformized release's noise depended on how
    // many draws the join-as-one release consumed before it — any internal
    // change to one mechanism reshuffled the other's noise, which is what
    // made this test flake.  Independent streams pin both error sums to
    // exact, reviewable values for all time.
    let (query, instance) = dpsyn::datagen::example42_instance(48);
    let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
    let ctx = ExecContext::default();
    let mut err_join = 0.0;
    let mut err_uni = 0.0;
    let reps = 3;
    for seed in 0..reps {
        let mut workload_rng = seeded_rng(100 + seed);
        let mut join_rng = seeded_rng(200 + seed);
        let mut uni_rng = seeded_rng(300 + seed);
        let workload = QueryFamily::random_sign(&query, 12, &mut workload_rng).unwrap();
        let truth = ctx
            .answer_all_on_instance(&query, &instance, &workload)
            .unwrap();
        let join = dpsyn_core::TwoTable::new(fast_pmw())
            .release(&ctx, &query, &instance, &workload, budget, &mut join_rng)
            .unwrap();
        err_join += join
            .answer_all(&workload)
            .unwrap()
            .linf_distance(&truth)
            .unwrap();
        let uni = UniformizedTwoTable::new(fast_pmw())
            .release(&ctx, &query, &instance, &workload, budget, &mut uni_rng)
            .unwrap();
        err_uni += uni
            .answer_all(&workload)
            .unwrap()
            .linf_distance(&truth)
            .unwrap();
        // The noisy partition always produces at least one bucket on non-empty
        // data (the exact bucket count is noise-dependent and is measured by
        // experiment E3 rather than asserted here).
        assert!(uni.parts() >= 1);
    }
    // Allow generous slack: the claim is about the asymptotic shape (the
    // experiment harness E3 measures the actual gap); the test only guards
    // against gross regressions in the uniformized pipeline.
    assert!(
        err_uni <= 4.0 * err_join,
        "uniformized {err_uni} much worse than join-as-one {err_join}"
    );
}

#[test]
fn multi_table_release_on_star_join_respects_sensitivity_ordering() {
    let mut rng = seeded_rng(5);
    let (query, instance) = dpsyn::datagen::random_star(3, 12, 60, 1.0, &mut rng);
    let budget = PrivacyParams::new(1.0, 1e-5).unwrap();
    let workload = QueryFamily::random_sign(&query, 8, &mut rng).unwrap();
    let session = Session::new();
    let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(5);
    let release = session
        .release(&MultiTable::new(fast_pmw()), &request)
        .unwrap();
    // Δ̃ ≥ RS^β ≥ LS ≥ 0 must hold along the whole chain; the residual
    // probe reads the RS^β the release just memoised.
    let beta = 1.0 / budget.lambda();
    let (hits, misses) = session.cache_stats();
    let rs = session
        .residual_sensitivity(&query, &instance, beta)
        .unwrap()
        .value;
    assert_eq!(session.cache_stats(), (hits + 1, misses), "RS^β memo hit");
    let ls = session.local_sensitivity(&query, &instance).unwrap() as f64;
    assert!(release.delta_tilde() + 1e-9 >= rs.max(1.0));
    assert!(rs >= ls - 1e-9);
    assert!(release.noisy_total() >= session.join_size(&query, &instance).unwrap() as f64);
    // The session results equal the free-function ones.
    assert_eq!(
        rs,
        residual_sensitivity(&query, &instance, beta).unwrap().value
    );
    assert_eq!(ls, local_sensitivity(&query, &instance).unwrap() as f64);
    assert_eq!(
        session.join_size(&query, &instance).unwrap(),
        join_size(&query, &instance).unwrap()
    );
}

#[test]
fn hierarchical_release_works_on_scenario_data() {
    let mut rng = seeded_rng(9);
    let (query, instance) = dpsyn::datagen::retail_star(16, 60, &mut rng);
    assert!(query.is_hierarchical());
    let budget = PrivacyParams::new(2.0, 1e-4).unwrap();
    let workload = QueryFamily::random_sign(&query, 6, &mut rng).unwrap();
    let release = HierarchicalRelease::default()
        .release(
            &ExecContext::default(),
            &query,
            &instance,
            &workload,
            budget,
            &mut rng,
        )
        .unwrap();
    assert!(release.parts() >= 1);
    let answers = release.answer_all(&workload).unwrap();
    assert!(answers.values().iter().all(|v| v.is_finite()));
}

#[test]
fn releases_are_reproducible_across_the_whole_stack() {
    let run = |seed: u64| {
        let mut rng = seeded_rng(seed);
        let (query, instance) = dpsyn::datagen::social_network(32, 150, 100, &mut rng);
        let workload = QueryFamily::random_sign(&query, 10, &mut rng).unwrap();
        let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
        let session = Session::new();
        let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(seed);
        let release = session
            .release(&dpsyn_core::TwoTable::new(fast_pmw()), &request)
            .unwrap();
        release.answer_all(&workload).unwrap().values().to_vec()
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78));
}

#[test]
fn figure_instances_match_their_stated_statistics() {
    // Figure 1: join sizes n² and 0 with equal input sizes.
    let (q, l, r) = dpsyn::datagen::fig1_pair(10);
    assert_eq!(join_size(&q, &l).unwrap(), 100);
    assert_eq!(join_size(&q, &r).unwrap(), 0);
    assert_eq!(l.input_size(), r.input_size());
    // Figure 3: local sensitivity equals the maximum degree.
    let (q, i) = dpsyn::datagen::fig3_nonuniform(6);
    assert_eq!(local_sensitivity(&q, &i).unwrap(), 6);
    // Figure 4 query is hierarchical with 5 relations.
    let q4 = dpsyn::datagen::fig4_query(4);
    assert_eq!(q4.num_relations(), 5);
    assert!(q4.is_hierarchical());
}
