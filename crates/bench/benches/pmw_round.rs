//! One PMW round's two passes over the cells, on the 4,096-cell `star(3, 8)`
//! layout: the scoring pass that answers every query on the current
//! histogram and sums its mass ([`QueryWeights::answer_all`]) and the update
//! pass that reweights by one query, renormalises to that mass and
//! accumulates the iterate ([`QueryWeights::update_and_accumulate`]), each
//! alone (`score/*`, `update/*`) and one after the other as `Pmw::run`'s
//! loop makes them (`round/*`).  Four 16-query families:
//!
//! - `sign`: [`QueryFamily::random_sign`] (the counting query and 15
//!   two-entry palettes: two groups of eight queries per code byte; the
//!   counting query's lane is the mass lane);
//! - `sign_nocount`: 16 two-entry sign queries without the counting query
//!   (two full groups, so the mass is a chain beside their pass's lanes);
//! - `palette16`: 16-entry palettes (two queries per code byte, every group
//!   full: the mass is a chain beside the first pass's lanes);
//! - `dense257`: 257 distinct weights each (one `f64` per cell per query;
//!   the mass is a chain beside the first query's sum).
//!
//! Before timing, every family's answers are checked against the
//! context-free [`Histogram::answer_all`] bit for bit, its mass against
//! [`Histogram::total`], and one update against
//! [`Histogram::multiplicative_update`] plus [`Histogram::accumulate`].

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_noise::seeded_rng;
use dpsyn_pmw::histogram::DEFAULT_MAX_CELLS;
use dpsyn_pmw::{Histogram, QueryWeights};
use dpsyn_query::{ProductQuery, QueryFamily, RelationQuery};
use dpsyn_relational::{JoinQuery, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// A deterministic weight in `[-0.9, 0.9]`, never zero, spread so that
/// products of distinct arguments are distinct.
fn spread(i: u64) -> f64 {
    let u = (i as f64 * 0.618_033_988_749_895 + 0.123).fract();
    let w = 1.8 * u - 0.9;
    if w.abs() < 1e-3 {
        0.5
    } else {
        w
    }
}

/// A relation over `(B, A_i)` weighing tuple `(b, a)` by `f(b, a)`.
fn relation(f: impl Fn(u64, u64) -> f64) -> RelationQuery {
    let weights: BTreeMap<Vec<Value>, f64> = (0..8)
        .flat_map(|b| (0..8).map(move |a| (b, a)))
        .map(|(b, a)| (vec![b, a], f(b, a)))
        .collect();
    RelationQuery::sparse(weights, 0.0).unwrap()
}

/// Query `k` of the 16-entry family: relation 1 takes 16 values, the others
/// weigh 1.
fn palette16(k: u64) -> ProductQuery {
    ProductQuery::new(vec![
        relation(|b, a| spread(16 * k + (b * 8 + a) % 16)),
        RelationQuery::AllOne,
        RelationQuery::AllOne,
    ])
}

/// Query `k` of the dense family: 64 values on relation 1 times 4 on
/// relation 2 give 256 distinct products, and relation 3's zero on
/// `A_3 = 7` adds `0.0`.
fn dense257(k: u64) -> ProductQuery {
    ProductQuery::new(vec![
        relation(|b, a| spread(1000 + 64 * k + b * 8 + a)),
        relation(|_, a| spread(5000 + 4 * k + a % 4)),
        relation(|_, a| if a == 7 { 0.0 } else { 1.0 }),
    ])
}

/// Distinct weights of one query over the layout's cells.
fn distinct_weights(query: &JoinQuery, layout: &Histogram, q: &ProductQuery) -> usize {
    let mut bits: Vec<u64> = layout
        .query_weight_vector(query, q)
        .unwrap()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits.len()
}

/// 16 two-entry sign queries, without the counting query.
fn sign_nocount(query: &JoinQuery) -> QueryFamily {
    let queries = (0..16)
        .map(|k| {
            ProductQuery::new(
                (0..3)
                    .map(|i| RelationQuery::SignHash { seed: 3 * k + i })
                    .collect(),
            )
        })
        .collect();
    QueryFamily::new(query, queries).unwrap()
}

/// A non-uniform histogram: the uniform start after a few updates.
fn warmed(query: &JoinQuery, weights: &QueryWeights, queries: usize) -> Histogram {
    let mut current = Histogram::uniform(query, 4096.0, DEFAULT_MAX_CELLS).unwrap();
    let mut average = Histogram::zeros(query, DEFAULT_MAX_CELLS).unwrap();
    let mut answers = vec![0.0; queries];
    for j in 0..queries {
        let eta = if j % 2 == 0 { 0.3 } else { -0.2 };
        let total = weights.answer_all(&current, &mut answers);
        weights.update_and_accumulate(j, &mut current, &mut average, eta, total);
    }
    current
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bench_pmw_round(c: &mut Criterion) {
    let query = JoinQuery::star(3, 8).unwrap();
    let layout = Histogram::zeros(&query, DEFAULT_MAX_CELLS).unwrap();
    assert_eq!(layout.len(), 4096);
    let families = [
        (
            "sign",
            QueryFamily::random_sign(&query, 16, &mut seeded_rng(1)).unwrap(),
        ),
        ("sign_nocount", sign_nocount(&query)),
        (
            "palette16",
            QueryFamily::new(&query, (0..16).map(palette16).collect()).unwrap(),
        ),
        (
            "dense257",
            QueryFamily::new(&query, (0..16).map(dense257).collect()).unwrap(),
        ),
    ];
    for (name, family) in &families[2..] {
        let expected = if *name == "palette16" { 16 } else { 257 };
        for q in family.iter() {
            assert_eq!(distinct_weights(&query, &layout, q), expected, "{name}");
        }
    }

    let mut group = c.benchmark_group("pmw_round");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (name, family) in &families {
        let weights = QueryWeights::new(&query, &layout, family).unwrap();
        let current = warmed(&query, &weights, family.len());
        let mut answers = vec![0.0; family.len()];
        let total = weights.answer_all(&current, &mut answers);
        assert_eq!(
            bits(&answers),
            bits(&current.answer_all(&query, family).unwrap()),
            "{name}: scoring must equal the context-free answers"
        );
        assert_eq!(
            total.to_bits(),
            current.total().to_bits(),
            "{name}: the mass lane must equal the histogram's total"
        );
        let j = family.len() - 1;
        let (mut next, mut average) = (current.clone(), current.clone());
        weights.update_and_accumulate(j, &mut next, &mut average, 0.25, total);
        let mut expected = current.clone();
        let w = expected
            .query_weight_vector(&query, &family.queries()[j])
            .unwrap();
        expected.multiplicative_update(&w, 0.25);
        let mut expected_average = current.clone();
        expected_average.accumulate(&expected).unwrap();
        assert_eq!(bits(next.weights()), bits(expected.weights()), "{name}");
        assert_eq!(
            bits(average.weights()),
            bits(expected_average.weights()),
            "{name}"
        );

        group.bench_with_input(BenchmarkId::new("score", name), &(), |b, _| {
            b.iter(|| {
                let total = weights.answer_all(black_box(&current), &mut answers);
                (total, answers[0])
            })
        });
        let (mut next, mut average) = (current.clone(), current.clone());
        let total = current.total();
        let mut round = 0;
        group.bench_with_input(BenchmarkId::new("update", name), &(), |b, _| {
            b.iter(|| {
                // Each query takes η = +0.01 and then −0.01 on consecutive
                // rounds, so the histogram stays bounded (no cell drifts
                // into subnormals); the mass stays the start's, as
                // renormalisation keeps it.
                round += 1;
                let eta = if round % 2 == 0 { 0.01 } else { -0.01 };
                let j = (round / 2) % family.len();
                weights.update_and_accumulate(j, &mut next, &mut average, eta, total);
            })
        });
        let (mut next, mut average) = (current.clone(), current.clone());
        let mut round = 0;
        group.bench_with_input(BenchmarkId::new("round", name), &(), |b, _| {
            b.iter(|| {
                // Scoring, then the update renormalised to the mass scoring
                // returned, as `Pmw::run`'s loop does.
                round += 1;
                let eta = if round % 2 == 0 { 0.01 } else { -0.01 };
                let total = weights.answer_all(black_box(&next), &mut answers);
                let j = (round / 2) % family.len();
                weights.update_and_accumulate(j, &mut next, &mut average, eta, total);
                answers[0]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pmw_round);
criterion_main!(benches);
