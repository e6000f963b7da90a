//! E6 benchmark: synthetic-data release versus per-query Laplace baselines as
//! the workload grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{IndependentLaplaceBaseline, Mechanism, SensitivityChoice, TwoTable};
use dpsyn_datagen::zipf_two_table;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::ExecContext;
use std::time::Duration;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    let mut rng = seeded_rng(30);
    let (query, instance) = zipf_two_table(16, 300, 1.0, &mut rng);
    for &q_count in &[16usize, 128] {
        let family = QueryFamily::random_sign(&query, q_count, &mut rng).unwrap();
        group.bench_with_input(
            BenchmarkId::new("synthetic_two_table", q_count),
            &q_count,
            |b, _| {
                b.iter(|| {
                    let ctx = ExecContext::default();
                    let mut rng = seeded_rng(31);
                    TwoTable::new(experiment_pmw())
                        .release(&ctx, &query, &instance, &family, params, &mut rng)
                        .unwrap()
                        .noisy_total()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("per_query_laplace", q_count),
            &q_count,
            |b, _| {
                b.iter(|| {
                    let ctx = ExecContext::default();
                    let mut rng = seeded_rng(32);
                    IndependentLaplaceBaseline::new(SensitivityChoice::Residual)
                        .answer_all(&ctx, &query, &instance, &family, params, &mut rng)
                        .unwrap()
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
