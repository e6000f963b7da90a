//! E5 benchmark: hierarchical partitioning (Algorithms 6/7) and the
//! hierarchical release versus plain `MultiTable` on the retail star schema.

use criterion::{criterion_group, criterion_main, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{HierarchicalConfig, HierarchicalRelease, Mechanism, MultiTable};
use dpsyn_datagen::retail_star;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::ExecContext;
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

criterion_group!(benches, bench_hierarchical);
criterion_main!(benches);
