//! Residual-sensitivity subset-enumeration scaling: the shared
//! sub-join-cached boundary-value computation against the naive
//! from-scratch recomputation, across star sizes `m`, plus the end-to-end
//! `residual_sensitivity` call that dominates the multi-table release, plus
//! worker-pool thread scaling (1 vs N threads over the same enumeration),
//! plus the `RS^β` sweep alone at the small β of the hierarchical release
//! and at β = 1e-6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_datagen::random_star;
use dpsyn_noise::seeded_rng;
use dpsyn_relational::naive::all_boundary_values_naive;
use dpsyn_relational::ExecContext;
use dpsyn_sensitivity::{all_boundary_values, residual_sensitivity, SensitivityOps};
use std::time::Duration;

fn bench_boundary_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("residual/boundary_values");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &m in &[2usize, 3, 4] {
        let mut rng = seeded_rng(40 + m as u64);
        let (query, instance) = random_star(m, 32, 400 / m, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("cached", m), &m, |b, _| {
            b.iter(|| all_boundary_values(&query, &instance).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", m), &m, |b, _| {
            b.iter(|| all_boundary_values_naive(&query, &instance).unwrap())
        });
    }
    group.finish();
}

fn bench_residual_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("residual/end_to_end");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let beta = 1.0 / 13.8; // λ at ε = 1, δ = 1e-6
    for &m in &[3usize, 4] {
        let mut rng = seeded_rng(50 + m as u64);
        let (query, instance) = random_star(m, 32, 400 / m, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("m", m), &m, |b, _| {
            b.iter(|| residual_sensitivity(&query, &instance, beta).unwrap().value)
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("residual/thread_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let mut rng = seeded_rng(60);
    let (query, instance) = random_star(4, 256, 1500, 0.4, &mut rng);
    // Outputs are identical at every level; only wall-clock differs.  Fresh
    // contexts per call keep every measurement cold (boundary values
    // recomputed).
    let cold_bv = |threads: usize| {
        ExecContext::with_threads(threads)
            .all_boundary_values(&query, &instance)
            .unwrap()
    };
    let seq = cold_bv(1);
    let beta = 1.0 / 13.8;
    for &threads in &[1usize, 2, 4] {
        assert_eq!(cold_bv(threads), seq);
        group.bench_with_input(
            BenchmarkId::new("boundary_values", threads),
            &threads,
            |b, _| b.iter(|| cold_bv(threads)),
        );
        group.bench_with_input(
            BenchmarkId::new("residual_end_to_end", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    ExecContext::with_threads(threads)
                        .residual_sensitivity(&query, &instance, beta)
                        .unwrap()
                        .value
                })
            },
        );
    }
    group.finish();
}

fn bench_session_cache_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("residual/session_cache_reuse");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let mut rng = seeded_rng(61);
    let (query, instance) = random_star(4, 128, 1000, 0.5, &mut rng);
    let betas = [0.05f64, 0.2, 1.0];
    // Warm: one context, the β sweep reuses the memoised boundary values.
    group.bench_function("warm_sweep", |b| {
        b.iter(|| {
            let ctx = ExecContext::sequential();
            betas
                .iter()
                .map(|&beta| {
                    ctx.residual_sensitivity(&query, &instance, beta)
                        .unwrap()
                        .value
                })
                .sum::<f64>()
        })
    });
    // Cold: a fresh context per β rebuilds the boundary values every time.
    group.bench_function("cold_sweep", |b| {
        b.iter(|| {
            betas
                .iter()
                .map(|&beta| {
                    ExecContext::sequential()
                        .residual_sensitivity(&query, &instance, beta)
                        .unwrap()
                        .value
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("residual/sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    // s_cap = ⌈1/β⌉ = 374: a hierarchical-release part's β, where the sweep
    // (not the lattice) is the cost.  `residual/end_to_end` runs at s_cap 14.
    // At β = 1e-6 (s_cap 10^6) the dense sweep would visit ~10^12 points;
    // the pruned sweep bounds 3·10^6 rows and walks the flat plateaus.
    for &(name, beta, m, tuples, seed) in &[
        ("s_cap_374", 1.0f64 / 373.6, 3usize, 3000usize, 70u64),
        ("s_cap_374", 1.0 / 373.6, 4, 1000, 71),
        ("beta_1e-6", 1e-6, 3, 3000, 70),
    ] {
        let mut rng = seeded_rng(seed);
        let (query, instance) = random_star(m, 8, tuples, 0.8, &mut rng);
        // Timed calls alternate β with its neighbouring float β', which has
        // the same ⌈1/β⌉ and so the same sweep.  The slot memoises one RS^β
        // at a time, so every call misses it and runs the sweep, while the
        // boundary values come from the slot memo: only the sweep is
        // measured.
        let neighbour = f64::from_bits(beta.to_bits() + 1);
        assert_eq!((1.0 / beta).ceil(), (1.0 / neighbour).ceil(), "{name}");
        let ctx = ExecContext::sequential();
        ctx.all_boundary_values(&query, &instance).unwrap();
        for b in [beta, neighbour] {
            let (hits, misses) = ctx.cache_stats();
            let warm = ctx.residual_sensitivity(&query, &instance, b).unwrap();
            assert_eq!(
                ctx.cache_stats(),
                (hits + 1, misses + 1),
                "each timed call must miss RS^β and hit the boundary values, {name} m {m}"
            );
            let fresh = ExecContext::sequential()
                .residual_sensitivity(&query, &instance, b)
                .unwrap();
            assert_eq!(
                warm, fresh,
                "warm sweep must equal a fresh context's, {name} m {m}"
            );
        }
        // The slot now holds RS^β', so the timed calls start at β.
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
            b.iter(|| {
                flip = !flip;
                let beta = if flip { beta } else { neighbour };
                ctx.residual_sensitivity(&query, &instance, beta)
                    .unwrap()
                    .value
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_boundary_enumeration,
    bench_residual_end_to_end,
    bench_sweep,
    bench_thread_scaling,
    bench_session_cache_reuse
);
criterion_main!(benches);
