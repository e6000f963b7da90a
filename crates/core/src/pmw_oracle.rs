//! The dense reference implementation of PMW (Algorithm 2), kept as the test
//! oracle for the factorized `dpsyn_pmw::Pmw::run`.
//!
//! [`dense_run`] is the historical body of `Pmw::run`: a cold free-function
//! join, true answers through `QueryFamily::answer_all_on_join`, one dense
//! `f64` weight vector per query evaluated cell by cell with
//! `JointEvaluator::weight`, and one `answer_with_weights` pass per query
//! per round.  While [`with_dense_oracle`] runs, every mechanism of this
//! crate releases through it instead (see `crate::run_pmw`), so the tests
//! below compare whole releases bit for bit.

use std::cell::Cell;

use dpsyn_noise::budget::advanced_composition_per_step_epsilon;
use dpsyn_noise::{exponential_mechanism, Laplace, PrivacyParams, TruncatedLaplace};
use dpsyn_pmw::{recommended_iterations, Histogram, PmwConfig, PmwError, PmwOutput};
use dpsyn_query::{JointEvaluator, ProductQuery, QueryFamily};
use dpsyn_relational::{join, Instance, JoinQuery};
use rand::Rng;

use crate::Result;

thread_local! {
    static DENSE: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread's mechanisms release through [`dense_run`].
pub(crate) fn enabled() -> bool {
    DENSE.get()
}

/// Runs `f` with this thread's mechanisms releasing through [`dense_run`].
pub(crate) fn with_dense_oracle<T>(f: impl FnOnce() -> T) -> T {
    DENSE.set(true);
    let out = f();
    DENSE.set(false);
    out
}

/// The per-cell weight vector of `q`, one `JointEvaluator::weight` per cell.
pub(crate) fn dense_weight_vector(h: &Histogram, query: &JoinQuery, q: &ProductQuery) -> Vec<f64> {
    let evaluator = JointEvaluator::new(query, h.attrs()).unwrap();
    let mut scratch = Vec::new();
    (0..h.len())
        .map(|x| evaluator.weight(q, &h.tuple_of(x), &mut scratch))
        .collect()
}

/// The dense `PMW_{ε,δ,Δ̃}` run.
pub(crate) fn dense_run<R: Rng>(
    config: PmwConfig,
    query: &JoinQuery,
    instance: &Instance,
    family: &QueryFamily,
    params: PrivacyParams,
    delta_tilde: f64,
    rng: &mut R,
) -> Result<PmwOutput> {
    if delta_tilde.is_nan() || delta_tilde < 0.0 || delta_tilde.is_infinite() {
        return Err(PmwError::InvalidConfig(format!(
            "delta_tilde must be a non-negative finite number, got {delta_tilde}"
        ))
        .into());
    }
    let delta_tilde = delta_tilde.max(1.0);
    let epsilon = params.epsilon();
    let delta = params.delta();

    let join_result = join(query, instance).map_err(PmwError::from)?;
    let count = join_result.total() as f64;
    let tlap = TruncatedLaplace::calibrated(
        epsilon / 2.0,
        (delta / 2.0).max(f64::MIN_POSITIVE),
        delta_tilde,
    )?;
    let noisy_total = count + tlap.sample(rng);

    let log2_domain = query.schema().log2_full_domain();
    let mut current = Histogram::uniform(query, noisy_total, config.max_domain_cells)?;
    let k = config.iterations_override.unwrap_or_else(|| {
        recommended_iterations(
            noisy_total,
            delta_tilde,
            log2_domain,
            family.len(),
            epsilon,
            delta,
            config.max_iterations,
        )
    });
    let k = k.clamp(1, config.max_iterations.max(1));
    let eps_prime = advanced_composition_per_step_epsilon(params, k);

    let entries = family.len() as u128 * current.len() as u128;
    if entries > config.max_weight_entries {
        return Err(PmwError::WorkloadTooLarge {
            entries,
            limit: config.max_weight_entries,
        }
        .into());
    }
    let true_answers = family
        .answer_all_on_join(query, &join_result)
        .map_err(PmwError::from)?;
    let weight_vectors: Vec<Vec<f64>> = family
        .iter()
        .map(|q| dense_weight_vector(&current, query, q))
        .collect();

    let laplace = Laplace::calibrated(delta_tilde, eps_prime)?;
    let mut average = Histogram::zeros(query, config.max_domain_cells)?;
    let mut selected_queries = Vec::with_capacity(k);
    for _ in 0..k {
        let scores: Vec<f64> = (0..family.len())
            .map(|j| {
                (current.answer_with_weights(&weight_vectors[j]) - true_answers.get(j)).abs()
                    / delta_tilde
            })
            .collect();
        let j = exponential_mechanism(&scores, eps_prime, 1.0, rng)?;
        selected_queries.push(j);
        let measurement = true_answers.get(j) + laplace.sample(rng);
        let current_answer = current.answer_with_weights(&weight_vectors[j]);
        let eta = if noisy_total > 0.0 {
            ((measurement - current_answer) / (2.0 * noisy_total)).clamp(-1.0, 1.0)
        } else {
            0.0
        };
        current.multiplicative_update(&weight_vectors[j], eta);
        average.accumulate(&current)?;
    }
    average.scale(1.0 / k as f64);

    Ok(PmwOutput {
        histogram: average,
        noisy_total,
        iterations: k,
        selected_queries,
    })
}

mod tests {
    use super::*;
    use crate::{
        HierarchicalRelease, Mechanism, MultiTable, SyntheticRelease, TwoTable, UniformizedTwoTable,
    };
    use dpsyn_noise::seeded_rng;
    use dpsyn_pmw::histogram::DEFAULT_MAX_CELLS;
    use dpsyn_pmw::Pmw;
    use dpsyn_query::RelationQuery;
    use dpsyn_relational::ExecContext;
    use std::collections::BTreeMap;

    /// A skewed two-table instance over unequal domains (6 × 8 × 7 = 336
    /// cells), so stride mistakes cannot cancel out.
    fn two_table() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(6, 8, 7);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..6u64 {
            for b in 0..(1 + a % 4) {
                inst.relation_mut(0).add(vec![a, b], 1 + a % 3).unwrap();
            }
        }
        for b in 0..8u64 {
            for c in (b % 2..7).step_by(2) {
                inst.relation_mut(1)
                    .add(vec![b, c], 1 + (b + c) % 2)
                    .unwrap();
            }
        }
        (q, inst)
    }

    /// A star of three relations around one hub.
    fn star() -> (JoinQuery, Instance) {
        let q = JoinQuery::star(3, 6).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for hub in 0..4u64 {
            for a in 0..(6 - hub) {
                inst.relation_mut(0).add(vec![hub, a], 1).unwrap();
                inst.relation_mut(1).add(vec![hub, (a * 5) % 6], 1).unwrap();
            }
            inst.relation_mut(2).add(vec![hub, hub], 2).unwrap();
        }
        (q, inst)
    }

    /// A sparse component giving every tuple of the relation's domain its
    /// own weight, so products take far more than 256 distinct values.
    fn distinct_sparse(query: &JoinQuery, rel: usize, salt: f64) -> RelationQuery {
        let dims: Vec<u64> = query
            .relation_attrs(rel)
            .iter()
            .map(|&a| query.schema().domain_size(a).unwrap())
            .collect();
        assert_eq!(dims.len(), 2);
        let mut weights = BTreeMap::new();
        for u in 0..dims[0] {
            for v in 0..dims[1] {
                let k = (u * dims[1] + v) as f64;
                weights.insert(vec![u, v], ((k + salt) / 101.0).sin());
            }
        }
        RelationQuery::sparse(weights, 0.5).unwrap()
    }

    /// A sparse component that is 0.0 on a few tuples and negative on the
    /// rest: a zero factor next to a negative one exercises the `+0.0` exit.
    fn zero_and_negative() -> RelationQuery {
        let mut weights = BTreeMap::new();
        for u in 0..3u64 {
            weights.insert(vec![u, u], 0.0);
            weights.insert(vec![u, u + 1], -0.0);
        }
        RelationQuery::sparse(weights, -0.75).unwrap()
    }

    fn workloads(query: &JoinQuery) -> Vec<(&'static str, QueryFamily)> {
        let m = query.num_relations();
        let mut rng = seeded_rng(5);
        let mut out = vec![
            ("counting", QueryFamily::counting(query)),
            (
                "random_sign",
                QueryFamily::random_sign(query, 12, &mut rng).unwrap(),
            ),
            (
                "random_predicate",
                QueryFamily::random_predicate(query, 12, 0.6, &mut rng).unwrap(),
            ),
        ];
        let dense: Vec<Vec<RelationQuery>> = (0..m)
            .map(|i| {
                vec![
                    distinct_sparse(query, i, i as f64 * 7.0),
                    RelationQuery::SignHash { seed: i as u64 },
                ]
            })
            .collect();
        out.push((
            "cross_product_dense",
            QueryFamily::cross_product(query, dense).unwrap(),
        ));
        let zeros: Vec<Vec<RelationQuery>> = (0..m)
            .map(|_| {
                vec![
                    zero_and_negative(),
                    RelationQuery::Predicate {
                        allowed: vec![None, Some([1u64, 2].into_iter().collect())],
                    },
                ]
            })
            .collect();
        out.push((
            "cross_product_zeros",
            QueryFamily::cross_product(query, zeros).unwrap(),
        ));
        out
    }

    fn same_release(a: &SyntheticRelease, b: &SyntheticRelease) -> bool {
        let bits = |r: &SyntheticRelease| -> Vec<u64> {
            r.histogram()
                .weights()
                .iter()
                .map(|w| w.to_bits())
                .collect()
        };
        bits(a) == bits(b)
            && a.noisy_total().to_bits() == b.noisy_total().to_bits()
            && a.delta_tilde().to_bits() == b.delta_tilde().to_bits()
            && a.parts() == b.parts()
    }

    /// One release configuration the oracle tests check.
    struct Case<'a> {
        label: &'static str,
        mechanism: &'a dyn Mechanism,
        query: &'a JoinQuery,
        instance: &'a Instance,
        family: &'a QueryFamily,
        params: PrivacyParams,
    }

    /// One case per workload of `workloads`.
    fn cases<'a>(
        mechanism: &'a dyn Mechanism,
        query: &'a JoinQuery,
        instance: &'a Instance,
        workloads: &'a [(&'static str, QueryFamily)],
        params: PrivacyParams,
    ) -> impl Iterator<Item = Case<'a>> {
        workloads.iter().map(move |(label, family)| Case {
            label,
            mechanism,
            query,
            instance,
            family,
            params,
        })
    }

    impl Case<'_> {
        fn release(&self, ctx: &ExecContext, seed: u64) -> SyntheticRelease {
            let (q, i, f) = (self.query, self.instance, self.family);
            self.mechanism
                .release(ctx, q, i, f, self.params, &mut seeded_rng(seed))
                .unwrap()
        }
    }

    /// Asserts every release of `cases` equals the dense oracle's bytes.
    ///
    /// The oracle releases on a fresh context each time, so it shares no
    /// memo with anything.  The releases under test share one context per
    /// thread count and run every case twice, interleaved as A, B, …, A, B:
    /// each case's workload replaces the previous one's memoised weights and
    /// true answers, the second seed of a case hits them, and the second
    /// pass finds them replaced again.
    fn assert_match_oracle(cases: &[Case<'_>]) {
        let seeds = [3u64, 17];
        let expected: Vec<Vec<SyntheticRelease>> = cases
            .iter()
            .map(|case| {
                seeds
                    .iter()
                    .map(|&seed| {
                        with_dense_oracle(|| case.release(&ExecContext::sequential(), seed))
                    })
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            for pass in 0..2 {
                for (case, expected) in cases.iter().zip(&expected) {
                    for (&seed, expected) in seeds.iter().zip(expected) {
                        assert!(
                            same_release(&case.release(&ctx, seed), expected),
                            "{}: {} seed {seed} threads {threads} pass {pass} differs from the oracle",
                            case.label,
                            case.mechanism.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_mechanism_releases_the_oracle_bytes() {
        let params = PrivacyParams::new(2.0, 1e-5).unwrap();
        let (q2, i2) = two_table();
        let two_table_mechanisms: Vec<Box<dyn Mechanism>> = vec![
            Box::new(TwoTable::default()),
            Box::new(MultiTable::default()),
            Box::new(HierarchicalRelease::default()),
            Box::new(UniformizedTwoTable::default()),
        ];
        // Each hierarchical part gets ε/G, and the residual sweep over three
        // relations grows with (G/ε)²; a larger ε keeps the star's one fast.
        let (q3, i3) = star();
        let generous = PrivacyParams::new(24.0, 1e-5).unwrap();
        let (multi, hier) = (MultiTable::default(), HierarchicalRelease::default());
        let (w2, w3) = (workloads(&q2), workloads(&q3));
        let mut all: Vec<Case<'_>> = two_table_mechanisms
            .iter()
            .flat_map(|m| cases(m.as_ref(), &q2, &i2, &w2, params))
            .collect();
        all.extend(cases(&multi, &q3, &i3, &w3, params));
        all.extend(cases(&hier, &q3, &i3, &w3, generous));
        assert_match_oracle(&all);
    }

    #[test]
    fn out_of_domain_tuples_match_the_oracle() {
        // `Relation::add` accepts any value, so a join row can fall outside
        // the histogram's cells; its true-answer term must not be read from
        // another cell's weight.
        let (q, mut inst) = star();
        inst.relation_mut(0).add(vec![1, 6], 3).unwrap();
        inst.relation_mut(2).add(vec![1, 9], 1).unwrap();
        let params = PrivacyParams::new(2.0, 1e-5).unwrap();
        let (mechanism, workloads) = (MultiTable::default(), workloads(&q));
        assert_match_oracle(&cases(&mechanism, &q, &inst, &workloads, params).collect::<Vec<_>>());
    }

    /// Every answer path equals the dense per-query vectors bit for bit:
    /// the streaming `answer_all`, one-query `answer`, and `answer_all_in`
    /// over a cold context, over a context a PMW run over the same workload
    /// warmed (the weight read must hit), and over a context holding
    /// another workload's weights (a miss that rebuilds, then the first
    /// workload again).
    #[test]
    fn histogram_answers_match_per_query_weight_vectors() {
        let params = PrivacyParams::new(2.0, 1e-5).unwrap();
        let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for (q, inst) in [two_table(), star()] {
            // The join's mass, moved off uniform by one MW step on a sign
            // query.
            let count = join(&q, &inst).unwrap().total() as f64;
            let mut nonuniform = Histogram::uniform(&q, count, DEFAULT_MAX_CELLS).unwrap();
            let sign = QueryFamily::random_sign(&q, 2, &mut seeded_rng(9)).unwrap();
            let step = dense_weight_vector(&nonuniform, &q, sign.query(1));
            nonuniform.multiplicative_update(&step, 0.5);
            let empty = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
            // A query negative on every cell: on the empty histogram each
            // term is -0.0, so only a sum that starts from -0.0 gives -0.0.
            let mut negative = vec![RelationQuery::AllOne; q.num_relations()];
            negative[0] = RelationQuery::sparse(BTreeMap::new(), -0.75).unwrap();
            let negative = ProductQuery::new(negative);
            let mut workloads = workloads(&q);
            workloads.push((
                "all_negative",
                QueryFamily::new(&q, vec![negative]).unwrap(),
            ));
            for h in [nonuniform, empty] {
                // `answer_all_in` on `ctx`, asserting its one memo read hit
                // or missed.
                let answer_in = |ctx: &ExecContext, family: &QueryFamily, hit: bool| {
                    let (hits, misses) = ctx.cache_stats();
                    let answers = h.answer_all_in(ctx, &q, family).unwrap();
                    let read = if hit {
                        (hits + 1, misses)
                    } else {
                        (hits, misses + 1)
                    };
                    assert_eq!(ctx.cache_stats(), read, "hit expected: {hit}");
                    bits(&answers)
                };
                for (w, (label, family)) in workloads.iter().enumerate() {
                    let got = h.answer_all(&q, family).unwrap();
                    for (j, pq) in family.iter().enumerate() {
                        let vector = dense_weight_vector(&h, &q, pq);
                        assert_eq!(
                            bits(&h.query_weight_vector(&q, pq).unwrap()),
                            bits(&vector),
                            "{label} query {j}"
                        );
                        let expected = h.answer_with_weights(&vector);
                        assert_eq!(got[j].to_bits(), expected.to_bits(), "{label} query {j}");
                        assert_eq!(
                            h.answer(&q, pq).unwrap().to_bits(),
                            expected.to_bits(),
                            "{label} query {j}"
                        );
                    }
                    let got = bits(&got);
                    assert_eq!(answer_in(&ExecContext::sequential(), family, false), got);
                    let warm = ExecContext::sequential();
                    Pmw::default()
                        .run(&warm, &q, &inst, family, params, 2.0, &mut seeded_rng(1))
                        .unwrap();
                    assert_eq!(answer_in(&warm, family, true), got, "{label} warm");
                    let (other, next) = &workloads[(w + 1) % workloads.len()];
                    assert_eq!(
                        answer_in(&warm, next, false),
                        bits(&h.answer_all(&q, next).unwrap()),
                        "{other} after {label}"
                    );
                    assert_eq!(
                        answer_in(&warm, family, false),
                        got,
                        "{label} after {other}"
                    );
                }
            }
        }
    }

    #[test]
    fn workload_cap_keeps_its_meaning() {
        let (q, inst) = two_table();
        let family = QueryFamily::random_sign(&q, 4, &mut seeded_rng(1)).unwrap();
        let params = PrivacyParams::new(2.0, 1e-5).unwrap();
        let entries = 4 * 336;
        for limit in [entries - 1, entries] {
            let mechanism = MultiTable::new(PmwConfig {
                max_weight_entries: limit,
                ..PmwConfig::default()
            });
            let run = || {
                let ctx = ExecContext::sequential();
                mechanism.release(&ctx, &q, &inst, &family, params, &mut seeded_rng(2))
            };
            let (got, expected) = (run(), with_dense_oracle(run));
            assert_eq!(got.is_ok(), limit == entries);
            match (got, expected) {
                (Ok(a), Ok(b)) => assert!(same_release(&a, &b)),
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string());
                    assert!(a.to_string().contains(&format!("workload needs {entries}")));
                }
                _ => panic!("the cap must fail on both paths or neither"),
            }
        }
    }
}
