//! E2 benchmark: the end-to-end Algorithm 1 (`TwoTable`) release on
//! Figure 2-style instances of growing join size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{Mechanism, TwoTable};
use dpsyn_datagen::fig2_hard_instance;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::ExecContext;
use std::time::Duration;

fn bench_two_table_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("release/two_table");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    for &out in &[256u64, 1024] {
        let per_value = out / 4;
        let table: Vec<u64> = (0..8u64).map(|_| (per_value / 8).max(1)).collect();
        let (query, instance) = fig2_hard_instance(&table, (per_value / 8).max(1), 4);
        let mut rng = seeded_rng(1);
        let family = QueryFamily::random_sign(&query, 16, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("OUT", out), &out, |b, _| {
            b.iter(|| {
                let ctx = ExecContext::default();
                let mut rng = seeded_rng(2);
                TwoTable::new(experiment_pmw())
                    .release(&ctx, &query, &instance, &family, params, &mut rng)
                    .unwrap()
                    .noisy_total()
            })
        });
    }
    group.finish();
}

fn bench_two_table_error_shape(c: &mut Criterion) {
    // Not a timing benchmark per se: runs the quick E2 experiment once per
    // iteration so regressions in the experiment pipeline show up in CI.
    let mut group = c.benchmark_group("experiment/two_table_error");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("quick", |b| {
        b.iter(|| dpsyn_bench::exp_two_table_error(true).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_two_table_release,
    bench_two_table_error_shape
);
criterion_main!(benches);
