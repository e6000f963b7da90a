//! E1 benchmark: one round of the Figure 1 / Example 3.1 distinguishing attack
//! against the flawed strawmen and Algorithm 1.

use criterion::{criterion_group, criterion_main, Criterion};
use dpsyn_bench::experiment_pmw;
use dpsyn_core::{FlawedJoinAsOne, Mechanism, TwoTable};
use dpsyn_datagen::fig1_pair;
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;
use dpsyn_relational::ExecContext;
use std::time::Duration;

fn bench_privacy_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("privacy_attack");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let (query, heavy, empty) = fig1_pair(8);
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    let family = QueryFamily::counting(&query);

    group.bench_function("flawed_join_as_one_round", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(40);
            let strawman = FlawedJoinAsOne::new(experiment_pmw());
            let a = strawman
                .release(&ctx, &query, &heavy, &family, params, &mut rng)
                .unwrap()
                .histogram()
                .total();
            let b2 = strawman
                .release(&ctx, &query, &empty, &family, params, &mut rng)
                .unwrap()
                .histogram()
                .total();
            a - b2
        })
    });
    group.bench_function("two_table_round", |b| {
        b.iter(|| {
            let ctx = ExecContext::default();
            let mut rng = seeded_rng(41);
            let fixed = TwoTable::new(experiment_pmw());
            let a = fixed
                .release(&ctx, &query, &heavy, &family, params, &mut rng)
                .unwrap()
                .histogram()
                .total();
            let b2 = fixed
                .release(&ctx, &query, &empty, &family, params, &mut rng)
                .unwrap()
                .histogram()
                .total();
            a - b2
        })
    });
    group.finish();
}

criterion_group!(benches, bench_privacy_attack);
criterion_main!(benches);
