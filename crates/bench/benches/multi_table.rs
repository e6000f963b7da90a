//! E4 benchmark: the Algorithm 3 (`MultiTable`) release on random star joins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{Mechanism, MultiTable};
use dpsyn_datagen::random_star;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::ExecContext;
use std::time::Duration;

fn bench_multi_table_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("release/multi_table");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    for &per_rel in &[60usize, 180] {
        let mut rng = seeded_rng(10);
        let (query, instance) = random_star(3, 16, per_rel, 1.0, &mut rng);
        let family = QueryFamily::random_sign(&query, 8, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("star3", per_rel), &per_rel, |b, _| {
            b.iter(|| {
                let ctx = ExecContext::default();
                let mut rng = seeded_rng(11);
                MultiTable::new(experiment_pmw())
                    .release(&ctx, &query, &instance, &family, params, &mut rng)
                    .unwrap()
                    .delta_tilde()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multi_table_release);
criterion_main!(benches);
