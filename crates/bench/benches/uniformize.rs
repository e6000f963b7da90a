//! E3 benchmark: Algorithm 4/5 (uniformized two-table release) versus
//! Algorithm 1 on the Example 4.2 skewed-degree family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{partition_two_table, Mechanism, TwoTable, UniformizedTwoTable};
use dpsyn_datagen::example42_instance;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::ExecContext;
use std::time::Duration;

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("uniformize/partition");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &k in &[8u64, 16] {
        let (query, instance) = example42_instance(k);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, _| {
            b.iter(|| {
                let mut rng = seeded_rng(3);
                partition_two_table(&query, &instance, params, &mut rng)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_release_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("uniformize/release");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let (query, instance) = example42_instance(8);
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    let mut rng = seeded_rng(4);
    let family = QueryFamily::random_sign(&query, 8, &mut rng).unwrap();
    group.bench_function("join_as_one", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(5);
            TwoTable::new(experiment_pmw())
                .release(&ctx, &query, &instance, &family, params, &mut rng)
                .unwrap()
                .noisy_total()
        })
    });
    group.bench_function("uniformized", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(5);
            UniformizedTwoTable::new(experiment_pmw())
                .release(&ctx, &query, &instance, &family, params, &mut rng)
                .unwrap()
                .parts()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_partition, bench_release_comparison);
criterion_main!(benches);
