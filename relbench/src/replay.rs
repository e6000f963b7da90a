//! Traced replays of the release mechanisms through each layer's public
//! functions, in the mechanism's own order and RNG order.
//!
//! A replay exists only so the traced run can time the layers from outside
//! the program: every caller asserts that its output equals the
//! `Session::release` (or server) result at the same seed bit for bit, so
//! the spans describe the code that really runs.  If a mechanism's internals
//! change, the equality check fails and the replay here must follow.

use dpsyn::core::{HierarchicalRelease, MultiTable, SyntheticRelease};
use dpsyn::noise::budget::advanced_composition_per_step_epsilon;
use dpsyn::noise::{exponential_mechanism, Laplace, PrivacyParams, TruncatedLaplace};
use dpsyn::pmw::{recommended_iterations, Histogram, PmwConfig};
use dpsyn::query::QueryFamily;
use dpsyn::relational::{ExecContext, Instance, JoinQuery};
use dpsyn::sensitivity::{two_table_local_sensitivity, SensitivityOps};
use rand::Rng;

use crate::trace::Tracer;
use crate::BoxResult;

/// What a release consists of, as the replay computed it.
pub struct Released {
    pub histogram: Histogram,
    pub noisy_total: f64,
    pub parts: usize,
    pub delta_tilde: f64,
}

impl Released {
    /// Bit-for-bit equality with a release from the program.
    pub fn matches(&self, r: &SyntheticRelease) -> bool {
        same_bits(self.histogram.weights(), r.histogram().weights())
            && self.noisy_total.to_bits() == r.noisy_total().to_bits()
            && self.delta_tilde.to_bits() == r.delta_tilde().to_bits()
            && self.parts == r.parts()
    }
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Pmw::run` (Algorithm 2), span `pmw.run`.
fn pmw_run<R: Rng>(
    tr: &mut Tracer,
    query: &JoinQuery,
    instance: &Instance,
    family: &QueryFamily,
    params: PrivacyParams,
    delta_tilde: f64,
    rng: &mut R,
) -> BoxResult<(Histogram, f64)> {
    let config = PmwConfig::default();
    tr.span("pmw.run", |tr| {
        let delta_tilde = delta_tilde.max(1.0);
        let (epsilon, delta) = (params.epsilon(), params.delta());
        let join_result = tr.span("relational.join", |_| {
            dpsyn::relational::join(query, instance)
        })?;
        tr.add("relational.join_rows", join_result.distinct_count() as f64);
        let count = join_result.total() as f64;
        let noisy_total = tr.span("noise.sample", |_| -> BoxResult<f64> {
            let tlap = TruncatedLaplace::calibrated(
                epsilon / 2.0,
                (delta / 2.0).max(f64::MIN_POSITIVE),
                delta_tilde,
            )?;
            Ok(count + tlap.sample(rng))
        })?;
        let mut current = Histogram::uniform(query, noisy_total, config.max_domain_cells)?;
        let k = recommended_iterations(
            noisy_total,
            delta_tilde,
            query.schema().log2_full_domain(),
            family.len(),
            epsilon,
            delta,
            config.max_iterations,
        )
        .clamp(1, config.max_iterations.max(1));
        let eps_prime = advanced_composition_per_step_epsilon(params, k);
        let entries = family.len() as u128 * current.len() as u128;
        if entries > config.max_weight_entries {
            return Err(format!("workload too large: {entries} weight entries").into());
        }
        let truth = tr.span("query.truth", |_| {
            family.answer_all_on_join(query, &join_result)
        })?;
        let weights = tr.span("pmw.weights", |_| -> BoxResult<Vec<Vec<f64>>> {
            let mut out = Vec::with_capacity(family.len());
            for q in family.iter() {
                out.push(current.query_weight_vector(query, q)?);
            }
            Ok(out)
        })?;
        tr.max(
            "pmw.weight_bytes",
            (8 * family.len() * current.len()) as f64,
        );
        tr.add("pmw.iterations", k as f64);
        let laplace = Laplace::calibrated(delta_tilde, eps_prime)?;
        let mut average = Histogram::zeros(query, config.max_domain_cells)?;
        tr.span("pmw.loop", |tr| -> BoxResult<()> {
            for _ in 0..k {
                let scores: Vec<f64> = (0..family.len())
                    .map(|j| {
                        (current.answer_with_weights(&weights[j]) - truth.get(j)).abs()
                            / delta_tilde
                    })
                    .collect();
                let (j, noise) = tr.span("noise.sample", |_| -> BoxResult<(usize, f64)> {
                    let j = exponential_mechanism(&scores, eps_prime, 1.0, rng)?;
                    Ok((j, laplace.sample(rng)))
                })?;
                let measurement = truth.get(j) + noise;
                let current_answer = current.answer_with_weights(&weights[j]);
                let eta = if noisy_total > 0.0 {
                    ((measurement - current_answer) / (2.0 * noisy_total)).clamp(-1.0, 1.0)
                } else {
                    0.0
                };
                current.multiplicative_update(&weights[j], eta);
                average.accumulate(&current)?;
            }
            Ok(())
        })?;
        average.scale(1.0 / k as f64);
        Ok((average, noisy_total))
    })
}

/// Residual sensitivity through the context, span `sensitivity.residual`.
/// The lattice part is timed first as `sensitivity.boundary`; the residual
/// call then reads the lattice warm, so its remainder is the sweep.
fn residual(
    tr: &mut Tracer,
    ctx: &ExecContext,
    query: &JoinQuery,
    instance: &Instance,
    beta: f64,
) -> BoxResult<f64> {
    tr.span("sensitivity.residual", |tr| {
        tr.span("sensitivity.boundary", |_| {
            ctx.all_boundary_values(query, instance)
        })?;
        let rs = ctx.residual_sensitivity(query, instance, beta)?;
        let m = query.num_relations() as i32;
        let s_cap = (1.0 / beta).ceil();
        let terms = m as f64 * (s_cap + 1.0).powi(m - 1) * 2f64.powi(m - 1);
        tr.add("sensitivity.sweep_terms", terms);
        Ok(rs.value)
    })
}

/// `MultiTable::release_in` (Algorithm 3), span `core.multi_table`.
pub fn multi_table<R: Rng>(
    tr: &mut Tracer,
    ctx: &ExecContext,
    query: &JoinQuery,
    instance: &Instance,
    family: &QueryFamily,
    params: PrivacyParams,
    rng: &mut R,
) -> BoxResult<Released> {
    tr.span("core.multi_table", |tr| {
        let beta = MultiTable::beta(params)?;
        let half = params.halve();
        let rs = residual(tr, ctx, query, instance, beta)?;
        let delta_tilde = tr.span("noise.sample", |_| -> BoxResult<f64> {
            let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), beta)?;
            Ok(rs.max(1.0) * tlap.sample(rng).exp())
        })?;
        let (histogram, noisy_total) =
            pmw_run(tr, query, instance, family, half, delta_tilde, rng)?;
        Ok(Released {
            histogram,
            noisy_total,
            parts: 1,
            delta_tilde,
        })
    })
}

/// `TwoTable::release` (Algorithm 1), span `core.two_table`.
pub fn two_table<R: Rng>(
    tr: &mut Tracer,
    query: &JoinQuery,
    instance: &Instance,
    family: &QueryFamily,
    params: PrivacyParams,
    rng: &mut R,
) -> BoxResult<Released> {
    tr.span("core.two_table", |tr| {
        let half = params.halve();
        let ls = tr.span("sensitivity.local", |_| {
            two_table_local_sensitivity(query, instance)
        })? as f64;
        let delta_tilde = tr.span("noise.sample", |_| -> BoxResult<f64> {
            let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), 1.0)?;
            Ok(ls + tlap.sample(rng))
        })?;
        let (histogram, noisy_total) =
            pmw_run(tr, query, instance, family, half, delta_tilde, rng)?;
        Ok(Released {
            histogram,
            noisy_total,
            parts: 1,
            delta_tilde,
        })
    })
}

/// `HierarchicalRelease::release_in` (Algorithms 4, 6, 7) at its default
/// configuration, span `core.hierarchical`: the partition, then one
/// `MultiTable` release per non-empty part at the `replication_bound` split.
pub fn hierarchical<R: Rng>(
    tr: &mut Tracer,
    ctx: &ExecContext,
    query: &JoinQuery,
    instance: &Instance,
    family: &QueryFamily,
    params: PrivacyParams,
    rng: &mut R,
) -> BoxResult<Released> {
    tr.span("core.hierarchical", |tr| {
        let lambda = params.lambda();
        let replication =
            HierarchicalRelease::replication_bound(query, instance.input_size(), lambda)?;
        let per_release = PrivacyParams::new(
            params.epsilon() / (2.0 * replication),
            (params.delta() / (2.0 * replication)).max(f64::MIN_POSITIVE),
        )?;
        let parts = tr.span("core.partition", |_| {
            HierarchicalRelease::default().partition(query, instance, params, rng)
        })?;
        let mut combined: Option<Released> = None;
        for part in parts.iter().filter(|p| p.sub_instance.input_size() > 0) {
            tr.add("core.parts", 1.0);
            let r = multi_table(tr, ctx, query, &part.sub_instance, family, per_release, rng)?;
            match &mut combined {
                None => combined = Some(r),
                Some(c) => {
                    c.histogram.accumulate(&r.histogram)?;
                    c.noisy_total += r.noisy_total;
                    c.parts += r.parts;
                    c.delta_tilde = c.delta_tilde.max(r.delta_tilde);
                }
            }
        }
        combined.ok_or_else(|| "hierarchical partition produced no non-empty part".into())
    })
}
