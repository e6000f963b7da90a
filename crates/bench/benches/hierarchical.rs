//! E5 benchmark: hierarchical partitioning (Algorithms 6/7) and the
//! hierarchical release versus plain `MultiTable` on the retail star schema.
//!
//! `partition_only` times the partition on a throwaway context (every
//! degree map cold); `partition_warm_context` times it on one reused
//! context, as a session's repeat releases run it, after asserting that the
//! warm parts equal a fresh context's.

use criterion::{criterion_group, criterion_main, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{
    partition_hierarchical, HierarchicalConfig, HierarchicalPart, HierarchicalRelease, Mechanism,
    MultiTable,
};
use dpsyn_datagen::retail_star;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::{AttributeTree, ExecContext, Instance};
use dpsyn_sensitivity::config::DegreeConfiguration;
use std::time::Duration;

fn bench_hierarchical(c: &mut Criterion) {
    let mut group = c.benchmark_group("release/hierarchical");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let params = PrivacyParams::new(2.0, 1e-4).unwrap();
    let mut rng = seeded_rng(20);
    let (query, instance) = retail_star(24, 80, &mut rng);
    let family = QueryFamily::random_sign(&query, 6, &mut rng).unwrap();

    group.bench_function("partition_only", |b| {
        b.iter(|| {
            let mut rng = seeded_rng(21);
            HierarchicalRelease::default()
                .partition(&query, &instance, params, &mut rng)
                .unwrap()
                .len()
        })
    });

    // The per-step budget and λ of `HierarchicalRelease::partition` at its
    // default configuration (n_upper = the input size).
    let lambda = params.lambda();
    let replication =
        HierarchicalRelease::replication_bound(&query, instance.input_size(), lambda).unwrap();
    let steps = 2.0 * replication * AttributeTree::build(&query).unwrap().len() as f64;
    let per_step = PrivacyParams::new(params.epsilon() / steps, params.delta() / steps).unwrap();
    let warm = ExecContext::default();
    let partition = |ctx: &ExecContext| {
        partition_hierarchical(
            ctx,
            &query,
            &instance,
            per_step,
            lambda,
            HierarchicalConfig::default().max_sub_instances,
            &mut seeded_rng(21),
        )
        .unwrap()
    };
    let fresh = comparable(partition(&ExecContext::default()));
    let diagnostic = HierarchicalRelease::default()
        .partition(&query, &instance, params, &mut seeded_rng(21))
        .unwrap();
    assert_eq!(
        comparable(diagnostic),
        fresh,
        "budget split differs from `partition`'s"
    );
    for _ in 0..2 {
        let parts = comparable(partition(&warm));
        assert_eq!(
            parts, fresh,
            "warm-context parts differ from a fresh context's"
        );
    }
    group.bench_function("partition_warm_context", |b| {
        b.iter(|| partition(&warm).len())
    });
    group.bench_function("hierarchical_release", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(22);
            HierarchicalRelease::new(HierarchicalConfig {
                pmw: experiment_pmw(),
                ..Default::default()
            })
            .release(&ctx, &query, &instance, &family, params, &mut rng)
            .unwrap()
            .parts()
        })
    });
    group.bench_function("multitable_release", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(23);
            MultiTable::new(experiment_pmw())
                .release(&ctx, &query, &instance, &family, params, &mut rng)
                .unwrap()
                .delta_tilde()
        })
    });
    group.finish();
}

/// A partition as comparable `(sub-instance, configuration)` pairs.
fn comparable(parts: Vec<HierarchicalPart>) -> Vec<(Instance, DegreeConfiguration)> {
    parts
        .into_iter()
        .map(|part| (part.sub_instance, part.configuration))
        .collect()
}

criterion_group!(benches, bench_hierarchical);
criterion_main!(benches);
