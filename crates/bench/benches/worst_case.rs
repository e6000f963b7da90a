//! E8 benchmark: worst-case-shaped instances (Appendix B.3) — adversarially
//! skewed star joins through the `MultiTable` release, plus the AGM exponent
//! computation.

use criterion::{criterion_group, criterion_main, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{Mechanism, MultiTable};
use dpsyn_datagen::random_star;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::{fractional_edge_cover_number, ExecContext, JoinQuery};
use std::time::Duration;

fn bench_worst_case_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("worst_case");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    let mut rng = seeded_rng(50);
    let (query, instance) = random_star(3, 8, 60, 3.0, &mut rng);
    let family = QueryFamily::random_sign(&query, 8, &mut rng).unwrap();
    group.bench_function("skewed_star3_release", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(51);
            MultiTable::new(experiment_pmw())
                .release(&ctx, &query, &instance, &family, params, &mut rng)
                .unwrap()
                .delta_tilde()
        })
    });
    group.bench_function("agm_exponents", |b| {
        b.iter(|| {
            fractional_edge_cover_number(&JoinQuery::triangle(8)).unwrap()
                + fractional_edge_cover_number(&JoinQuery::star(4, 8).unwrap()).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_worst_case_release);
criterion_main!(benches);
