//! Algorithm 4 + Algorithm 5: the uniformized two-table release.
//!
//! Join-as-one calibrates everything to the *largest* degree `Δ`, even when
//! most join values have far smaller degrees (Figure 3).  Uniformization
//! fixes this by partitioning the join values of the shared attribute(s) into
//! geometric degree buckets using *noisy* degrees (Algorithm 5), running the
//! join-as-one release independently on each sub-instance, and returning the
//! union of the synthetic datasets (Algorithm 4).
//!
//! Privacy (Lemma 4.1): the partition is `(ε/2, δ/2)`-DP (adding/removing a
//! tuple changes one degree by one, and the bucket assignment is
//! post-processing of one truncated-Laplace perturbation per join value, which
//! compose in parallel across join values); the per-bucket releases run on
//! disjoint data, so they compose in parallel as well; basic composition over
//! the two phases gives `(ε, δ)`-DP.
//!
//! Utility (Theorem 4.4): the error is bounded by the *uniform-partition* sum
//! `Σ_i √(count(I^i)·2^i·λ)` (plus lower-order terms), which can be polynomially
//! smaller than the `√(count(I)·Δ)` of Algorithm 1 (Example 4.2).

use std::collections::BTreeMap;

use dpsyn_noise::{PrivacyParams, TruncatedLaplace};
use dpsyn_pmw::{Histogram, PmwConfig};
use dpsyn_query::QueryFamily;
use dpsyn_relational::{AttrId, ExecContext, Instance, JoinQuery, Value};
use dpsyn_sensitivity::config::bucket_of;
use rand::Rng;

use crate::error::ReleaseError;
use crate::mechanism::Mechanism;
use crate::release::{ReleaseKind, SyntheticRelease};
use crate::two_table::TwoTable;
use crate::Result;

/// One bucket of the two-table partition: the join values assigned to it and
/// the induced sub-instance.
#[derive(Debug, Clone)]
pub struct PartitionBucket {
    /// Bucket index `i` (degrees in `(λ·2^{i-1}, λ·2^i]`).
    pub index: usize,
    /// The join values (tuples over the shared attributes) in this bucket.
    pub values: std::collections::BTreeSet<Vec<Value>>,
    /// The induced sub-instance `(R_1^i, R_2^i)`.
    pub sub_instance: Instance,
}

/// Algorithm 5: `Partition-TwoTable_{ε,δ}(I)` — buckets join values of the
/// shared attribute(s) by their noisy maximum degree.
///
/// Only join values that actually occur in one of the relations are assigned
/// (values with zero degree induce empty sub-relations and contribute nothing
/// to any release, so skipping them changes no output).
pub fn partition_two_table<R: Rng>(
    query: &JoinQuery,
    instance: &Instance,
    params: PrivacyParams,
    rng: &mut R,
) -> Result<Vec<PartitionBucket>> {
    if query.num_relations() != 2 {
        return Err(ReleaseError::RequiresTwoTable {
            got: query.num_relations(),
        });
    }
    if params.delta() <= 0.0 {
        return Err(ReleaseError::UnsupportedPrivacyParams(
            "Partition-TwoTable requires δ > 0".to_string(),
        ));
    }
    let lambda = params.lambda();
    let shared: Vec<AttrId> = query.intersect_attrs(&[0, 1])?;
    let deg1 = instance.relation(0).degree_map(&shared)?;
    let deg2 = instance.relation(1).degree_map(&shared)?;

    // Per-value noisy degree and bucket assignment (Algorithm 5, lines 2-5).
    let tlap = TruncatedLaplace::calibrated(params.epsilon(), params.delta(), 1.0)?;
    let mut keys: std::collections::BTreeSet<Vec<Value>> = deg1.keys().cloned().collect();
    keys.extend(deg2.keys().cloned());
    let mut buckets: BTreeMap<usize, std::collections::BTreeSet<Vec<Value>>> = BTreeMap::new();
    for key in keys {
        let deg = deg1
            .get(&key)
            .copied()
            .unwrap_or(0)
            .max(deg2.get(&key).copied().unwrap_or(0));
        let noisy = deg as f64 + tlap.sample(rng);
        let bucket = bucket_of(noisy, lambda);
        buckets.entry(bucket).or_default().insert(key);
    }

    // Build the sub-instances (lines 6-9).
    let mut out = Vec::with_capacity(buckets.len());
    for (index, values) in buckets {
        let r1 = instance.relation(0).restrict(&shared, &values)?;
        let r2 = instance.relation(1).restrict(&shared, &values)?;
        out.push(PartitionBucket {
            index,
            values,
            sub_instance: Instance::new(vec![r1, r2]),
        });
    }
    Ok(out)
}

/// Algorithm 4 instantiated for two-table queries: partition with Algorithm 5
/// under `(ε/2, δ/2)`, release each sub-instance with Algorithm 1 under
/// `(ε/2, δ/2)` (parallel composition across the disjoint sub-instances), and
/// union the synthetic datasets.
#[derive(Debug, Clone, Default)]
pub struct UniformizedTwoTable {
    pmw: PmwConfig,
}

impl UniformizedTwoTable {
    /// Creates the algorithm with a custom PMW configuration.
    pub fn new(pmw: PmwConfig) -> Self {
        UniformizedTwoTable { pmw }
    }
}

impl Mechanism for UniformizedTwoTable {
    fn name(&self) -> &'static str {
        "uniformized_two_table"
    }

    /// Runs the uniformized release through `ctx`: each bucket's
    /// [`TwoTable`] release joins at `ctx`'s parallelism.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        let half = params.halve();
        let buckets = partition_two_table(query, instance, half, &mut rng)?;

        let inner = TwoTable::new(self.pmw);
        let mut combined: Option<SyntheticRelease> = None;
        for bucket in &buckets {
            let release = inner.release(ctx, query, &bucket.sub_instance, family, half, rng)?;
            match &mut combined {
                None => combined = Some(release),
                Some(c) => c.absorb(&release)?,
            }
        }

        Ok(match combined {
            Some(c) => c.relabel(ReleaseKind::UniformizedTwoTable, params),
            // No join values at all: release an all-zero histogram.
            None => SyntheticRelease::new(
                query.clone(),
                Histogram::zeros(query, self.pmw.max_domain_cells)?,
                ReleaseKind::UniformizedTwoTable,
                params,
                0.0,
                0,
                0.0,
            ),
        })
    }
}

/// Checks that a set of partition buckets truly partitions the input: each
/// tuple of each relation appears, with its full frequency, in exactly one
/// sub-instance.  Used by tests and by the experiment harness as a sanity
/// check (it mirrors the first property of Lemma 4.10 for two tables).
pub fn verify_two_table_partition(instance: &Instance, buckets: &[PartitionBucket]) -> bool {
    for rel_idx in 0..2 {
        let mut recombined: BTreeMap<Vec<Value>, u64> = BTreeMap::new();
        for bucket in buckets {
            for (t, f) in bucket.sub_instance.relation(rel_idx).iter() {
                *recombined.entry(t.clone()).or_insert(0) += f;
            }
        }
        let original: BTreeMap<Vec<Value>, u64> = instance
            .relation(rel_idx)
            .iter()
            .map(|(t, f)| (t.clone(), f))
            .collect();
        if recombined != original {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_noise::seeded_rng;
    use dpsyn_relational::join_size;
    use dpsyn_sensitivity::two_table_local_sensitivity;

    /// A strongly skewed instance: one very heavy join value and many light ones.
    fn skewed() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(64, 64, 64);
        let mut inst = Instance::empty_for(&q).unwrap();
        // Heavy value b = 0: degree 32 on both sides.
        for a in 0..32u64 {
            inst.relation_mut(0).add(vec![a, 0], 1).unwrap();
            inst.relation_mut(1).add(vec![0, a], 1).unwrap();
        }
        // Light values b = 1..20: degree 1 on both sides.
        for b in 1..20u64 {
            inst.relation_mut(0).add(vec![0, b], 1).unwrap();
            inst.relation_mut(1).add(vec![b, 0], 1).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn partition_covers_every_tuple_exactly_once() {
        let (q, inst) = skewed();
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut rng = seeded_rng(1);
        let buckets = partition_two_table(&q, &inst, params, &mut rng).unwrap();
        assert!(!buckets.is_empty());
        assert!(verify_two_table_partition(&inst, &buckets));
        // Join sizes of sub-instances add up to the full join size (join
        // values are split, never shared).
        let total: u128 = buckets
            .iter()
            .map(|b| join_size(&q, &b.sub_instance).unwrap())
            .sum();
        assert_eq!(total, join_size(&q, &inst).unwrap());
    }

    #[test]
    fn heavy_and_light_values_land_in_different_buckets() {
        let (q, inst) = skewed();
        // Use a small λ so that the buckets are fine-grained relative to the
        // degree range (ε large, δ moderate).
        let params = PrivacyParams::new(8.0, 1e-3).unwrap();
        let mut rng = seeded_rng(3);
        let buckets = partition_two_table(&q, &inst, params, &mut rng).unwrap();
        assert!(
            buckets.len() >= 2,
            "expected ≥ 2 buckets, got {}",
            buckets.len()
        );
        // The heavy value (degree 32) must be in a strictly higher bucket than
        // the light values (degree 1): noise is at most 2τ(8, 1e-3, 1) ≈ 2.2.
        let bucket_of_value = |v: u64| {
            buckets
                .iter()
                .find(|b| b.values.contains(&vec![v]))
                .map(|b| b.index)
                .unwrap()
        };
        assert!(bucket_of_value(0) > bucket_of_value(5));
    }

    #[test]
    fn per_bucket_local_sensitivity_is_bounded_by_bucket_cap() {
        let (q, inst) = skewed();
        let params = PrivacyParams::new(2.0, 1e-4).unwrap();
        let lambda = params.lambda();
        let mut rng = seeded_rng(5);
        let buckets = partition_two_table(&q, &inst, params, &mut rng).unwrap();
        let noise_cap = 2.0 * dpsyn_noise::truncation_radius(2.0, 1e-4, 1.0).unwrap();
        for bucket in &buckets {
            let ls = two_table_local_sensitivity(&q, &bucket.sub_instance).unwrap() as f64;
            let cap = lambda * (2.0f64).powi(bucket.index as i32);
            // True degree ≤ noisy degree ≤ cap, and noisy ≥ true, so the
            // sub-instance's LS can exceed the cap only if the noise pushed a
            // value *up* a bucket — never down.  Hence LS ≤ cap always, and we
            // additionally sanity-check the slack direction.
            assert!(
                ls <= cap + noise_cap,
                "bucket {} has LS {ls} above cap {cap}",
                bucket.index
            );
        }
    }

    #[test]
    fn uniformized_release_answers_queries_and_unions_parts() {
        let ctx = ExecContext::sequential();
        let (q, inst) = skewed();
        let params = PrivacyParams::new(2.0, 1e-4).unwrap();
        let mut rng = seeded_rng(11);
        let family = QueryFamily::random_sign(&q, 8, &mut rng).unwrap();
        let algo = UniformizedTwoTable::default();
        let release = algo
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert!(release.parts() >= 1);
        assert_eq!(release.kind(), ReleaseKind::UniformizedTwoTable);
        let answers = release.answer_all(&family).unwrap();
        assert_eq!(answers.len(), family.len());
        // Total synthetic mass over-estimates the true join size.
        assert!(release.noisy_total() >= join_size(&q, &inst).unwrap() as f64);
    }

    #[test]
    fn empty_instance_produces_empty_release() {
        let ctx = ExecContext::sequential();
        let q = JoinQuery::two_table(8, 8, 8);
        let inst = Instance::empty_for(&q).unwrap();
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut rng = seeded_rng(2);
        let family = QueryFamily::counting(&q);
        let release = UniformizedTwoTable::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert_eq!(release.parts(), 0);
        assert_eq!(release.histogram().total(), 0.0);
    }

    #[test]
    fn rejects_wrong_arity_and_pure_dp() {
        let q = JoinQuery::star(3, 4).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        let mut rng = seeded_rng(2);
        assert!(matches!(
            partition_two_table(&q, &inst, PrivacyParams::new(1.0, 1e-6).unwrap(), &mut rng),
            Err(ReleaseError::RequiresTwoTable { got: 3 })
        ));
        let q2 = JoinQuery::two_table(4, 4, 4);
        let inst2 = Instance::empty_for(&q2).unwrap();
        assert!(matches!(
            partition_two_table(&q2, &inst2, PrivacyParams::pure(1.0).unwrap(), &mut rng),
            Err(ReleaseError::UnsupportedPrivacyParams(_))
        ));
    }
}
