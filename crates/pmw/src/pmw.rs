//! Algorithm 2: the `PMW_{ε,δ,Δ̃}` release procedure.
//!
//! The procedure treats the join result of the input instance as a single
//! table over the joint domain and releases a synthetic histogram:
//!
//! 1. `n̂ ← count(I) + TLap^{τ(ε/2, δ/2, Δ̃)}_{2Δ̃/ε}` — a noisy, non-negative
//!    over-estimate of the join size, calibrated to the *externally supplied*
//!    sensitivity bound `Δ̃` (this is the crucial difference from single-table
//!    PMW and the reason the multi-table algorithms must compute `Δ̃`
//!    privately before calling in here);
//! 2. `F_0` ← uniform histogram of mass `n̂`;
//! 3. for `k` rounds: select a badly-answered query with the exponential
//!    mechanism (per-round budget `ε' = ε / (16√(k·ln(1/δ)))`), measure it
//!    with Laplace noise of scale `Δ̃/ε'`, and apply the multiplicative-weights
//!    update;
//! 4. release the average of the iterates.
//!
//! The run is factorized (see the `factor` module): each query's per-cell
//! weights are built once from its per-relation factor tables and held as
//! palette codes; the true answers are a row-order gather from those
//! weights over the join rows; and each round scores every query in one pass
//! over the cells, computes one `exp` per palette entry, and folds the
//! renormalisation sum into the update pass.  Every product keeps its
//! multiply order and every sum its cell or row order, so the released bits
//! equal those of the direct per-cell evaluation at every thread count.
//!
//! Everything before the first round except the noise is the same for every
//! run over one `(I, Q)` pair, so [`Pmw::run`] memoises it in the
//! [`ExecContext`]:
//!
//! - **Memoised in the context** ([`ExecContext::context_memo`]): the
//!   per-cell query weights, keyed by the histogram layout and
//!   [`QueryFamily::key`].  They have a second reader:
//!   [`Histogram::answer_all_in`] answers the workload on the released
//!   histogram from the weights the run just left there, so answering a
//!   release right after it builds nothing and holds nothing more.
//! - **Memoised in the instance's slot** ([`ExecContext::slot_memo`]):
//!   `count(I)`, and the true answers keyed by [`QueryFamily::key`].  A run
//!   that finds both never joins.
//! - **Per run**: the parameter checks (in the same order, hit or miss),
//!   the noisy total, the iteration count, the uniform start and every
//!   round.
//!
//! A miss runs the same code a cold context runs, so the released bits do
//! not depend on what the context holds.

use std::sync::Arc;

use dpsyn_noise::budget::advanced_composition_per_step_epsilon;
use dpsyn_noise::{exponential_mechanism, Laplace, PrivacyParams, TruncatedLaplace};
use dpsyn_query::QueryFamily;
use dpsyn_relational::{ExecContext, Instance, JoinQuery};
use rand::Rng;

use crate::error::PmwError;
use crate::factor::{self, QueryWeights};
use crate::histogram::{Histogram, DEFAULT_MAX_CELLS};
use crate::theory::recommended_iterations;
use crate::Result;

/// Configuration of the PMW release procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmwConfig {
    /// Hard cap on the number of multiplicative-weights iterations.
    pub max_iterations: usize,
    /// Overrides the theory-driven iteration count when set.
    pub iterations_override: Option<usize>,
    /// Cap on the dense joint-domain size.
    pub max_domain_cells: u128,
    /// Cap on `|Q| · |dom(x)|`, the number of per-cell query weights a run
    /// holds (as palette codes, or `f64`s for a query with more than 256
    /// distinct weights).
    pub max_weight_entries: u128,
}

impl Default for PmwConfig {
    fn default() -> Self {
        PmwConfig {
            max_iterations: 200,
            iterations_override: None,
            max_domain_cells: DEFAULT_MAX_CELLS,
            max_weight_entries: 1 << 26,
        }
    }
}

/// The output of a PMW run.
#[derive(Debug, Clone)]
pub struct PmwOutput {
    /// The released synthetic histogram (average of the iterates).
    pub histogram: Histogram,
    /// The noisy total `n̂` used to initialise and renormalise the histogram.
    pub noisy_total: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Indices (into the query family) selected by the exponential mechanism,
    /// in order — useful for diagnostics.
    pub selected_queries: Vec<usize>,
}

/// The `PMW_{ε,δ,Δ̃}` procedure (Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct Pmw {
    config: PmwConfig,
}

impl Pmw {
    /// Creates a PMW runner with the given configuration.
    pub fn new(config: PmwConfig) -> Self {
        Pmw { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PmwConfig {
        &self.config
    }

    /// Runs `PMW_{ε,δ,Δ̃}(I)` and returns the released histogram.
    ///
    /// `delta_tilde` is the externally-derived (already private) upper bound
    /// on how much `count(·)` can differ between neighbouring instances; the
    /// caller is responsible for its provenance (Algorithm 1 or 3).  The
    /// join runs at `ctx`'s parallelism; the rest of the run is sequential.
    #[allow(clippy::too_many_arguments)]
    pub fn run<R: Rng>(
        &self,
        ctx: &ExecContext,
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
            )));
        }
        // A zero sensitivity bound still needs a positive noise scale; the
        // paper's Δ̃ is ≥ the (noisy) local sensitivity which is ≥ 0, and the
        // mechanism remains private for any Δ̃ ≥ the true bound, so flooring at
        // 1 only costs accuracy, never privacy.
        let delta_tilde = delta_tilde.max(1.0);
        let epsilon = params.epsilon();
        let delta = params.delta();

        // Line 1: noisy join size.  `count(I)` is memoised in the pair's
        // slot; only a miss joins, and keeps the join for the true answers.
        let mut join_result = None;
        let count = ctx
            .slot_memo(query, instance, &[], || {
                let join = ctx.join(query, instance)?;
                let count = JoinCount(join.total() as f64);
                join_result = Some(join);
                Ok::<_, PmwError>(count)
            })?
            .0;
        let tlap = TruncatedLaplace::calibrated(
            epsilon / 2.0,
            (delta / 2.0).max(f64::MIN_POSITIVE),
            delta_tilde,
        )?;
        let noisy_total = count + tlap.sample(rng);

        // Line 2: uniform initial histogram.
        let log2_domain = query.schema().log2_full_domain();
        let mut current = Histogram::uniform(query, noisy_total, self.config.max_domain_cells)?;

        // Iteration budget (Appendix A) and per-round ε (line 3).
        let k = self.config.iterations_override.unwrap_or_else(|| {
            recommended_iterations(
                noisy_total,
                delta_tilde,
                log2_domain,
                family.len(),
                epsilon,
                delta,
                self.config.max_iterations,
            )
        });
        let k = k.clamp(1, self.config.max_iterations.max(1));
        let eps_prime = advanced_composition_per_step_epsilon(params, k);

        // Pre-compute per-query weights and the true answers.
        let entries = family.len() as u128 * current.len() as u128;
        if entries > self.config.max_weight_entries {
            return Err(PmwError::WorkloadTooLarge {
                entries,
                limit: self.config.max_weight_entries,
            });
        }
        // The weights depend on the layout and the workload alone, so they
        // are memoised in the context; the true answers depend on the data
        // too, so they are memoised in the pair's slot.
        let family_key = family.key();
        let weights = query_weights(ctx, query, &current, family, &family_key)?;
        let true_answers = ctx.slot_memo(query, instance, &family_key, || {
            let join = match join_result.take() {
                Some(join) => join,
                None => ctx.join(query, instance)?,
            };
            let fz = current.factorization(query)?;
            factor::true_answers(&fz, current.attrs(), query, &join, family, &weights)
                .map(TrueAnswers)
        })?;
        // The join is not read again; free it before the loop allocates.
        drop(join_result);
        let true_answers = &true_answers.0;

        let laplace = Laplace::calibrated(delta_tilde, eps_prime)?;
        let mut average = Histogram::zeros(query, self.config.max_domain_cells)?;
        let mut selected_queries = Vec::with_capacity(k);
        let mut answers = vec![0.0; family.len()];
        let mut total = current.total();

        for _ in 0..k {
            // Line 5: exponential mechanism over the per-query error scores.
            factor::answer_all(&weights, current.weights(), &mut answers);
            let scores: Vec<f64> = answers
                .iter()
                .zip(true_answers)
                .map(|(a, t)| (a - t).abs() / delta_tilde)
                .collect();
            let j = exponential_mechanism(&scores, eps_prime, 1.0, rng)?;
            selected_queries.push(j);

            // Line 6: noisy measurement of the selected query.
            let measurement = true_answers[j] + laplace.sample(rng);

            // Line 7: multiplicative-weights update, renormalised to the
            // previous mass, then added to the running sum of iterates.
            let eta = if noisy_total > 0.0 {
                ((measurement - answers[j]) / (2.0 * noisy_total)).clamp(-1.0, 1.0)
            } else {
                0.0
            };
            total = update_and_accumulate(&mut current, &mut average, &weights[j], eta, total);
        }
        average.scale(1.0 / k as f64);

        Ok(PmwOutput {
            histogram: average,
            noisy_total,
            iterations: k,
            selected_queries,
        })
    }
}

/// `count(I)` as an `f64`: the slot-memo entry of [`Pmw::run`]'s line 1.
struct JoinCount(f64);

/// The true answers of one workload: the slot-memo entry of [`Pmw::run`].
struct TrueAnswers(Vec<f64>);

/// The per-cell weights of every query of `family` over `layout`'s cells,
/// read from `ctx`'s context memo: the one read shared by [`Pmw::run`] and
/// [`Histogram::answer_all_in`].  A miss builds them as a cold context does
/// and stores them in place of the workload the context held before.
pub(crate) fn query_weights(
    ctx: &ExecContext,
    query: &JoinQuery,
    layout: &Histogram,
    family: &QueryFamily,
    family_key: &[u64],
) -> Result<Arc<Vec<QueryWeights>>> {
    ctx.context_memo(&weights_key(query, layout, family_key), || {
        QueryWeights::build(&layout.factorization(query)?, query, family)
    })
}

/// The context-memo key of a run's query weights: the histogram layout
/// (attributes and domain sizes), each relation's attributes (which fix the
/// factor-table strides), then the workload's [`QueryFamily::key`].
fn weights_key(query: &JoinQuery, histogram: &Histogram, family_key: &[u64]) -> Vec<u64> {
    let mut key = vec![histogram.attrs().len() as u64];
    for (a, d) in histogram.attrs().iter().zip(histogram.dims()) {
        key.extend([a.index() as u64, *d]);
    }
    key.push(query.num_relations() as u64);
    for attrs in query.relations() {
        key.push(attrs.len() as u64);
        key.extend(attrs.iter().map(|a| a.index() as u64));
    }
    key.extend(family_key);
    key
}

/// One multiplicative-weights round on `current` followed by
/// `average += current`; `total` is the mass of `current` before the round,
/// and the mass after it is returned.
///
/// Bit-identical to `current.multiplicative_update(w, eta)` followed by
/// `average.accumulate(&current)`: the renormalisation sum is taken during
/// the update pass, and the next round's mass during the accumulate pass,
/// each in cell order.
fn update_and_accumulate(
    current: &mut Histogram,
    average: &mut Histogram,
    weights: &QueryWeights,
    eta: f64,
    total: f64,
) -> f64 {
    let cells = current.weights_mut();
    let mass = weights.reweight(cells, eta);
    let sum = average.weights_mut();
    if mass > 0.0 && total >= 0.0 {
        let factor = total / mass;
        let mut next = -0.0;
        for (f, s) in cells.iter_mut().zip(sum.iter_mut()) {
            *f *= factor;
            *s += *f;
            next += *f;
        }
        next
    } else {
        for (f, s) in cells.iter().zip(sum.iter_mut()) {
            *s += f;
        }
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_noise::seeded_rng;
    use dpsyn_query::{linf_error, AnswerOps};

    fn ctx() -> ExecContext {
        ExecContext::sequential()
    }

    /// A small but non-trivial two-table instance over a tiny domain.
    fn small_case() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(4, 4, 4);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..4u64 {
            for b in 0..2u64 {
                inst.relation_mut(0).add(vec![a, b], 1 + (a % 2)).unwrap();
            }
        }
        for b in 0..2u64 {
            for c in 0..4u64 {
                inst.relation_mut(1).add(vec![b, c], 1).unwrap();
            }
        }
        (q, inst)
    }

    #[test]
    fn released_histogram_is_nonnegative_and_mass_matches_noisy_total() {
        let (q, inst) = small_case();
        let mut rng = seeded_rng(1);
        let family = QueryFamily::random_sign(&q, 16, &mut rng).unwrap();
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let out = Pmw::default()
            .run(&ctx(), &q, &inst, &family, params, 4.0, &mut rng)
            .unwrap();
        assert!(out.histogram.weights().iter().all(|&w| w >= 0.0));
        assert!((out.histogram.total() - out.noisy_total).abs() / out.noisy_total < 1e-6);
        assert!(out.noisy_total >= dpsyn_relational::join_size(&q, &inst).unwrap() as f64);
        assert_eq!(out.selected_queries.len(), out.iterations);
    }

    /// A larger, heavily skewed instance: all mass sits on join value B = 0,
    /// so the true join distribution is far from uniform and PMW has a real
    /// signal to learn.
    fn skewed_case() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(4, 4, 4);
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..4u64 {
            inst.relation_mut(0).add(vec![a, 0], 8).unwrap();
        }
        for c in 0..4u64 {
            inst.relation_mut(1).add(vec![0, c], 8).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn generous_budget_gives_small_error() {
        let (q, inst) = skewed_case();
        let mut rng = seeded_rng(7);
        let family = QueryFamily::random_sign(&q, 24, &mut rng).unwrap();
        // A generous (utility-mechanics) configuration: the synthetic data
        // should answer queries much better than the all-uniform baseline.
        let params = PrivacyParams::new(4.0, 1e-3).unwrap();
        let pmw = Pmw::new(PmwConfig {
            iterations_override: Some(20),
            ..PmwConfig::default()
        });
        let out = pmw
            .run(&ctx(), &q, &inst, &family, params, 2.0, &mut rng)
            .unwrap();
        let truth = ctx().answer_all_on_instance(&q, &inst, &family).unwrap();
        let released = out.histogram.answer_all(&q, &family).unwrap();
        let err = linf_error(truth.values(), &released).unwrap();

        let count = dpsyn_relational::join_size(&q, &inst).unwrap() as f64;
        let uniform = Histogram::uniform(&q, count, DEFAULT_MAX_CELLS).unwrap();
        let uniform_answers = uniform.answer_all(&q, &family).unwrap();
        let uniform_err = linf_error(truth.values(), &uniform_answers).unwrap();

        assert!(
            err < uniform_err,
            "PMW error {err} should beat the uniform baseline {uniform_err}"
        );
        // Sanity: error is below the trivial bound of count(I).
        assert!(err < count, "err = {err}, count = {count}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (q, inst) = small_case();
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let run = |seed: u64| {
            let mut rng = seeded_rng(seed);
            let family = QueryFamily::random_sign(&q, 8, &mut rng).unwrap();
            let out = Pmw::default()
                .run(&ctx(), &q, &inst, &family, params, 2.0, &mut rng)
                .unwrap();
            (out.noisy_total, out.histogram.weights().to_vec())
        };
        let (t1, w1) = run(42);
        let (t2, w2) = run(42);
        assert_eq!(t1, t2);
        assert_eq!(w1, w2);
        let (t3, _) = run(43);
        assert_ne!(t1, t3);
    }

    #[test]
    fn iteration_override_is_respected() {
        let (q, inst) = small_case();
        let mut rng = seeded_rng(3);
        let family = QueryFamily::counting(&q);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let pmw = Pmw::new(PmwConfig {
            iterations_override: Some(5),
            ..PmwConfig::default()
        });
        let out = pmw
            .run(&ctx(), &q, &inst, &family, params, 1.0, &mut rng)
            .unwrap();
        assert_eq!(out.iterations, 5);
    }

    #[test]
    fn invalid_delta_tilde_rejected() {
        let (q, inst) = small_case();
        let mut rng = seeded_rng(3);
        let family = QueryFamily::counting(&q);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        assert!(Pmw::default()
            .run(&ctx(), &q, &inst, &family, params, f64::NAN, &mut rng)
            .is_err());
        assert!(Pmw::default()
            .run(&ctx(), &q, &inst, &family, params, -3.0, &mut rng)
            .is_err());
    }

    #[test]
    fn workload_cap_enforced() {
        let (q, inst) = small_case();
        let mut rng = seeded_rng(5);
        let family = QueryFamily::random_sign(&q, 64, &mut rng).unwrap();
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let pmw = Pmw::new(PmwConfig {
            max_weight_entries: 16,
            ..PmwConfig::default()
        });
        assert!(matches!(
            pmw.run(&ctx(), &q, &inst, &family, params, 1.0, &mut rng),
            Err(PmwError::WorkloadTooLarge { .. })
        ));
    }

    /// A memo read that must hit.
    fn memoised<T>() -> Result<T> {
        panic!("expected a memo hit")
    }

    /// A context keeps one workload's weights and true answers: running a
    /// second workload frees the first's, and `clear_cache` frees the rest.
    #[test]
    fn memo_holds_one_workload_and_clear_cache_frees_it() {
        use std::sync::{Arc, Weak};
        let (q, inst) = small_case();
        let ctx = ctx();
        // Claim the pair's slot, as a mechanism's sensitivity step does.
        ctx.shared_join(&q, &inst).unwrap();
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let layout = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        let run_and_watch = |seed: u64| {
            let family = QueryFamily::random_sign(&q, 8, &mut seeded_rng(seed)).unwrap();
            let out = Pmw::default()
                .run(&ctx, &q, &inst, &family, params, 2.0, &mut seeded_rng(3))
                .unwrap();
            assert_eq!(out.iterations, out.selected_queries.len());
            let key = family.key();
            let weights: Arc<Vec<QueryWeights>> = ctx
                .context_memo(&weights_key(&q, &layout, &key), memoised)
                .unwrap();
            let truths: Arc<TrueAnswers> = ctx.slot_memo(&q, &inst, &key, memoised).unwrap();
            assert_eq!(weights.len(), 8);
            assert_eq!(truths.0.len(), 8);
            (Arc::downgrade(&weights), Arc::downgrade(&truths))
        };
        let (weights_a, truths_a) = run_and_watch(1);
        let (weights_b, truths_b) = run_and_watch(2);
        assert!(weights_a.upgrade().is_none(), "B's weights replaced A's");
        assert!(
            truths_a.upgrade().is_none(),
            "B's true answers replaced A's"
        );
        assert!(weights_b.upgrade().is_some() && truths_b.upgrade().is_some());
        let count: Weak<JoinCount> =
            Arc::downgrade(&ctx.slot_memo(&q, &inst, &[], memoised).unwrap());
        ctx.clear_cache();
        assert!(weights_b.upgrade().is_none());
        assert!(truths_b.upgrade().is_none());
        assert!(count.upgrade().is_none());
    }

    /// Two workloads whose weight keys collide under the Fx hash still get
    /// their own weights: a memo hit compares keys in full.
    #[test]
    fn workloads_with_colliding_key_hashes_get_their_own_weights() {
        use dpsyn_query::{ProductQuery, RelationQuery};
        use dpsyn_relational::hash::FxHasher;
        use std::hash::{Hash, Hasher};
        let (q, inst) = small_case();
        let layout = Histogram::zeros(&q, DEFAULT_MAX_CELLS).unwrap();
        let family = |seeds: [u64; 4]| {
            let sign = |seed| RelationQuery::SignHash { seed };
            let queries = vec![
                ProductQuery::new(vec![sign(seeds[0]), sign(seeds[1])]),
                ProductQuery::new(vec![sign(seeds[2]), sign(seeds[3])]),
            ];
            QueryFamily::new(&q, queries).unwrap()
        };
        let key = |f: &QueryFamily| weights_key(&q, &layout, &f.key());
        // The hasher state before a key's last word, which is the last seed.
        let before_last = |key: &[u64]| {
            let mut h = FxHasher::default();
            h.write_usize(key.len());
            key[..key.len() - 1].iter().for_each(|&w| h.write_u64(w));
            h.finish().rotate_left(5)
        };
        let fx = |key: &[u64]| {
            let mut h = FxHasher::default();
            key.hash(&mut h);
            h.finish()
        };
        let a = family([1, 2, 3, 5]);
        let last = 5 ^ before_last(&key(&a)) ^ before_last(&key(&family([1, 2, 4, 0])));
        let b = family([1, 2, 4, last]);
        assert_ne!(key(&a), key(&b));
        assert_eq!(fx(&key(&a)), fx(&key(&b)), "the weight keys collide");

        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let run = |ctx: &ExecContext, family: &QueryFamily| {
            let out = Pmw::default()
                .run(ctx, &q, &inst, family, params, 2.0, &mut seeded_rng(3))
                .unwrap();
            let bits = out.histogram.weights().iter().map(|w| w.to_bits());
            bits.collect::<Vec<_>>()
        };
        let shared = ctx();
        shared.shared_join(&q, &inst).unwrap();
        run(&shared, &a);
        assert_eq!(run(&shared, &b), run(&ctx(), &b));
    }

    #[test]
    fn empty_instance_releases_near_zero_mass() {
        let q = JoinQuery::two_table(4, 4, 4);
        let inst = Instance::empty_for(&q).unwrap();
        let mut rng = seeded_rng(11);
        let family = QueryFamily::counting(&q);
        let params = PrivacyParams::new(1.0, 1e-4).unwrap();
        let out = Pmw::default()
            .run(&ctx(), &q, &inst, &family, params, 1.0, &mut rng)
            .unwrap();
        // The only mass comes from the truncated-Laplace padding, which is at
        // most 2τ(ε/2, δ/2, 1).
        let tau = dpsyn_noise::truncation_radius(0.5, 5e-5, 1.0).unwrap();
        assert!(out.histogram.total() <= 2.0 * tau + 1e-9);
    }
}
