//! Algorithms 6 and 7: uniformization for hierarchical join queries, and the
//! corresponding release (Algorithm 4 instantiated with the hierarchical
//! partition).
//!
//! The attribute tree of a hierarchical query is walked bottom-up
//! (Algorithm 6); at each attribute `x`, every current sub-instance is further
//! decomposed (Algorithm 7) by bucketing the tuples over `x`'s ancestors `y`
//! according to the noisy degree `deg_{atom(x), y}` — exactly the maximum
//! degrees that, by Lemma 4.8, control the residual sensitivity.  Each
//! resulting sub-instance is characterised by a *degree configuration*
//! (Definition 4.9) and is released with `MultiTable` (Algorithm 3); the union
//! of the synthetic datasets is returned.
//!
//! Sub-instances share relations with the input copy-on-write
//! ([`Instance`]): a part starts as a clone of its parent, which copies no
//! tuple, and a decomposition replaces a relation of `atom(x)` only when its
//! bucket drops one of its tuples ([`Instance::restrict_relation`]).  A
//! relation the walk never shrinks is the input's own: in a one-part
//! partition, that is every relation unless a decomposition dropped a
//! dangling tuple (one outside the join of `atom(x)`).
//!
//! ### Privacy accounting
//!
//! Unlike the two-table case, a tuple of a relation *outside* `atom(x)` is
//! replicated into every bucket, so a tuple can reach up to `ℓ^c` sub-instances
//! (Lemma 4.10), and the overall guarantee degrades to
//! `(O(ℓ^c)·ε, O(ℓ^c)·δ)` (Lemma 4.11).  This implementation makes the
//! accounting concrete and conservative: given a *target* `(ε, δ)`, it
//! computes the replication bound `G` from the query structure and a public
//! upper bound on the input size, and runs every noisy degree computation and
//! every per-sub-instance `MultiTable` call with budget `(ε/(2G·V), δ/(2G·V))`
//! and `(ε/(2G), δ/(2G))` respectively (`V` = number of tree attributes), so
//! that the released union satisfies the target `(ε, δ)` under the Lemma 4.11
//! bookkeeping.  Utility therefore degrades with `G`; the experiments use
//! small trees where `G` stays moderate.

use std::collections::{BTreeMap, BTreeSet};

use dpsyn_noise::{PrivacyParams, TruncatedLaplace};
use dpsyn_pmw::{Histogram, PmwConfig};
use dpsyn_query::QueryFamily;
use dpsyn_relational::{AttrId, AttributeTree, ExecContext, Instance, JoinQuery, Value};
use dpsyn_sensitivity::config::{bucket_of, DegreeConfiguration};
use rand::Rng;

use crate::error::ReleaseError;
use crate::mechanism::Mechanism;
use crate::multi_table::MultiTable;
use crate::release::{ReleaseKind, SyntheticRelease};
use crate::Result;

/// Configuration of the hierarchical release.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalConfig {
    /// PMW configuration forwarded to the per-sub-instance `MultiTable` calls.
    pub pmw: PmwConfig,
    /// Public upper bound on the input size, used only to bound the number of
    /// degree buckets `ℓ = ⌈log₂(n_upper/λ)⌉ + 1` in the privacy accounting.
    /// When `None`, the actual input size is used (matching the paper's
    /// parameterisation of ℓ by `n`, at the cost of treating `n` as public).
    pub n_upper: Option<u64>,
    /// Caps the number of sub-instances (a safety valve against pathological
    /// bucket explosions; never hit in the paper's regimes).
    pub max_sub_instances: usize,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            pmw: PmwConfig::default(),
            n_upper: None,
            max_sub_instances: 4096,
        }
    }
}

/// One sub-instance produced by the hierarchical partition, together with the
/// degree configuration that characterises it (Lemma 4.10, third property).
#[derive(Debug, Clone)]
pub struct HierarchicalPart {
    /// The sub-instance.
    pub sub_instance: Instance,
    /// The degree configuration σ (bucket per decomposed attribute).
    pub configuration: DegreeConfiguration,
}

/// Algorithm 7: `Decompose_{ε,δ}(I, x)` — splits one sub-instance by the
/// noisy degrees of attribute `x` over its ancestors.  Each bucket starts
/// from a clone of `part`'s sub-instance and restricts `atom(x)` in place.
#[allow(clippy::too_many_arguments)]
fn decompose<R: Rng>(
    ctx: &ExecContext,
    query: &JoinQuery,
    tree: &AttributeTree,
    mut part: HierarchicalPart,
    attr: AttrId,
    params: PrivacyParams,
    lambda: f64,
    rng: &mut R,
) -> Result<Vec<HierarchicalPart>> {
    let relations = query.atom(attr);
    if relations.is_empty() {
        // Attribute unused by the query: nothing to decompose.
        return Ok(vec![part]);
    }
    let ancestors = tree.ancestors(attr);

    // Noisy degree per ancestor tuple (Algorithm 7, lines 3-6).  Only tuples
    // with non-zero degree matter: zero-degree ancestor tuples induce empty
    // sub-relations.
    let degrees = ctx.deg_multi(query, &part.sub_instance, &relations, &ancestors)?;
    let tlap = TruncatedLaplace::calibrated(params.epsilon(), params.delta(), 1.0)?;
    let mut bucket_members: BTreeMap<usize, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for (tuple, deg) in degrees {
        let noisy = deg as f64 + tlap.sample(rng);
        bucket_members
            .entry(bucket_of(noisy, lambda))
            .or_default()
            .insert(tuple);
    }
    if bucket_members.is_empty() {
        // The join of atom(x) is empty in this sub-instance; keep it as a
        // single part labelled bucket 1.
        part.configuration.set(attr, 1);
        return Ok(vec![part]);
    }

    // Build one sub-instance per non-empty bucket (lines 7-10).
    let mut out = Vec::with_capacity(bucket_members.len());
    for (bucket, members) in bucket_members {
        let mut sub_instance = part.sub_instance.clone();
        for &j in &relations {
            sub_instance.restrict_relation(j, &ancestors, &members)?;
        }
        let mut configuration = part.configuration.clone();
        configuration.set(attr, bucket);
        out.push(HierarchicalPart {
            sub_instance,
            configuration,
        });
    }
    Ok(out)
}

/// The attribute tree of a hierarchical query (Algorithm 6's input).
fn attribute_tree(query: &JoinQuery) -> Result<AttributeTree> {
    AttributeTree::build(query).map_err(|e| ReleaseError::RequiresHierarchical(e.to_string()))
}

/// Algorithm 6: `Partition-Hierarchical_{ε,δ}(H, I)` — walks the attribute
/// tree bottom-up and decomposes every current sub-instance at every
/// attribute.  `params` is the budget of a *single* noisy-degree mechanism;
/// the caller is responsible for the Lemma 4.11 accounting.  Degree
/// sub-joins run at `ctx`'s parallelism.  Every part shares each relation
/// its walk never shrank with `instance`.
pub fn partition_hierarchical<R: Rng>(
    ctx: &ExecContext,
    query: &JoinQuery,
    instance: &Instance,
    per_step: PrivacyParams,
    lambda: f64,
    max_sub_instances: usize,
    rng: &mut R,
) -> Result<Vec<HierarchicalPart>> {
    let tree = attribute_tree(query)?;
    partition_over(
        ctx,
        query,
        &tree,
        instance,
        per_step,
        lambda,
        max_sub_instances,
        rng,
    )
}

/// [`partition_hierarchical`] over an already built attribute tree.
#[allow(clippy::too_many_arguments)]
fn partition_over<R: Rng>(
    ctx: &ExecContext,
    query: &JoinQuery,
    tree: &AttributeTree,
    instance: &Instance,
    per_step: PrivacyParams,
    lambda: f64,
    max_sub_instances: usize,
    rng: &mut R,
) -> Result<Vec<HierarchicalPart>> {
    let mut parts = vec![HierarchicalPart {
        sub_instance: instance.clone(),
        configuration: DegreeConfiguration::new(),
    }];
    for &attr in tree.bottom_up_order() {
        let mut next = Vec::new();
        for part in parts {
            next.extend(decompose(
                ctx, query, tree, part, attr, per_step, lambda, rng,
            )?);
            if next.len() > max_sub_instances {
                return Err(ReleaseError::InvalidConfig(format!(
                    "hierarchical partition produced more than {max_sub_instances} sub-instances; \
                     raise HierarchicalConfig::max_sub_instances"
                )));
            }
        }
        parts = next;
    }
    Ok(parts)
}

/// Algorithm 4 instantiated with the hierarchical partition: decompose, run
/// `MultiTable` on every sub-instance, union the releases.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalRelease {
    config: HierarchicalConfig,
}

impl HierarchicalRelease {
    /// Creates the algorithm with a custom configuration.
    pub fn new(config: HierarchicalConfig) -> Self {
        HierarchicalRelease { config }
    }

    /// The replication bound `G = ℓ^c` of Lemma 4.10/4.11 used by the privacy
    /// accounting: `ℓ` is the number of degree buckets and `c` the maximum,
    /// over relations `j`, of the number of tree attributes whose `atom` does
    /// not contain `j` (each such decomposition can replicate `R_j`'s tuples).
    pub fn replication_bound(query: &JoinQuery, n_upper: u64, lambda: f64) -> Result<f64> {
        Ok(replication_over(
            &attribute_tree(query)?,
            query,
            n_upper,
            lambda,
        ))
    }

    /// The Lemma 4.11 budget split for an overall target of `params`, with
    /// the attribute tree it was computed from.
    fn split_budget(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        params: PrivacyParams,
    ) -> Result<BudgetSplit> {
        if params.delta() <= 0.0 {
            return Err(ReleaseError::UnsupportedPrivacyParams(
                "the hierarchical release requires δ > 0".to_string(),
            ));
        }
        let tree = attribute_tree(query)?;
        let lambda = params.lambda();
        let n_upper = self.config.n_upper.unwrap_or_else(|| instance.input_size());
        let replication = replication_over(&tree, query, n_upper, lambda);
        let tree_size = tree.len().max(1);

        // Lemma 4.11 bookkeeping: partition noise gets (ε/2, δ/2) divided by
        // the replication bound and the number of decomposition steps; each
        // MultiTable call gets (ε/2, δ/2) divided by the replication bound
        // (sub-instances sharing a tuple compose sequentially up to G times;
        // disjoint ones compose in parallel).
        let per_step = PrivacyParams::new(
            params.epsilon() / (2.0 * replication * tree_size as f64),
            (params.delta() / (2.0 * replication * tree_size as f64)).max(f64::MIN_POSITIVE),
        )?;
        let per_release = PrivacyParams::new(
            params.epsilon() / (2.0 * replication),
            (params.delta() / (2.0 * replication)).max(f64::MIN_POSITIVE),
        )?;
        Ok(BudgetSplit {
            tree,
            lambda,
            per_step,
            per_release,
        })
    }

    /// The partition of `instance` under the budget split `split`.
    fn partition_in<R: Rng>(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        split: &BudgetSplit,
        rng: &mut R,
    ) -> Result<Vec<HierarchicalPart>> {
        partition_over(
            ctx,
            query,
            &split.tree,
            instance,
            split.per_step,
            split.lambda,
            self.config.max_sub_instances,
            rng,
        )
    }

    /// Exposes the partition for diagnostics (degree configurations and
    /// per-part instances), using the same per-step budget split as
    /// [`Mechanism::release`], on a throwaway execution context.
    pub fn partition<R: Rng>(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        params: PrivacyParams,
        rng: &mut R,
    ) -> Result<Vec<HierarchicalPart>> {
        let split = self.split_budget(query, instance, params)?;
        self.partition_in(&ExecContext::default(), query, instance, &split, rng)
    }
}

/// [`HierarchicalRelease::replication_bound`] over an already built tree.
fn replication_over(tree: &AttributeTree, query: &JoinQuery, n_upper: u64, lambda: f64) -> f64 {
    let ell = ((n_upper.max(2) as f64 / lambda.max(1e-9)).log2().ceil()).max(1.0) + 1.0;
    let mut c_max = 0usize;
    for j in 0..query.num_relations() {
        let c = tree
            .bottom_up_order()
            .iter()
            .filter(|&&x| !query.atom(x).contains(&j) && !query.atom(x).is_empty())
            .count();
        c_max = c_max.max(c);
    }
    ell.powi(c_max as i32)
}

/// The Lemma 4.11 budget split of one release: `per_step` is the budget of
/// each noisy-degree step of the partition and `per_release` that of each
/// per-part `MultiTable` release.
struct BudgetSplit {
    tree: AttributeTree,
    lambda: f64,
    per_step: PrivacyParams,
    per_release: PrivacyParams,
}

impl Mechanism for HierarchicalRelease {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    /// Runs the hierarchical release with an overall target of `params`
    /// through `ctx` (shared by the partition and the per-part
    /// [`MultiTable`] releases).
    ///
    /// Note on caching: the decomposition produces *distinct* sub-instances,
    /// so their sensitivity computations cannot share memoised values within
    /// one release — but each part claims its own slot in the context's
    /// LRU ([`dpsyn_relational::DEFAULT_CACHE_SLOTS`] slots), holding its
    /// `count(I)`, true answers, `RS^β` and partition degree maps
    /// ([`ExecContext::slot_memo`]).  A repeat release over the same
    /// instance and seed re-derives the same parts in the same order, so it
    /// is warm only when every part's slot survived: when the release
    /// touches more instances than there are slots, the LRU evicts each
    /// part's slot before its turn comes round again, and *every* part
    /// starts cold on every repeat.  A one-part partition whose walk
    /// dropped no dangling tuple has a sub-instance that shares every
    /// relation of the input, so it has the input's fingerprint and its
    /// release uses the input's slot.
    fn release(
        &self,
        ctx: &ExecContext,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
        params: PrivacyParams,
        mut rng: &mut dyn Rng,
    ) -> Result<SyntheticRelease> {
        let split = self.split_budget(query, instance, params)?;
        let parts = self.partition_in(ctx, query, instance, &split, &mut rng)?;

        let inner = MultiTable::new(self.config.pmw);
        let mut combined: Option<SyntheticRelease> = None;
        for part in &parts {
            // Skip sub-instances with no data at all; their release would be
            // pure padding noise and the paper's union only ranges over
            // non-empty buckets.
            if part.sub_instance.input_size() == 0 {
                continue;
            }
            let release = inner.release(
                ctx,
                query,
                &part.sub_instance,
                family,
                split.per_release,
                rng,
            )?;
            match &mut combined {
                None => combined = Some(release),
                Some(c) => c.absorb(&release)?,
            }
        }

        Ok(match combined {
            Some(c) => c.relabel(ReleaseKind::Hierarchical, params),
            None => SyntheticRelease::new(
                query.clone(),
                Histogram::zeros(query, self.config.pmw.max_domain_cells)?,
                ReleaseKind::Hierarchical,
                params,
                0.0,
                0,
                0.0,
            ),
        })
    }
}

/// Checks the first property of Lemma 4.10 on a concrete partition: the join
/// results of the sub-instances are disjoint and their union is the join
/// result of the original instance (i.e. join sizes add up and every original
/// join tuple is covered exactly once).
pub fn verify_hierarchical_partition(
    query: &JoinQuery,
    instance: &Instance,
    parts: &[HierarchicalPart],
) -> Result<bool> {
    let ctx = ExecContext::default();
    let full = ctx.join(query, instance)?;
    let mut recombined: BTreeMap<Vec<Value>, u128> = BTreeMap::new();
    for part in parts {
        let j = ctx.join(query, &part.sub_instance)?;
        // The BTreeMap orders keys itself; skip the sorted emit.
        for (t, w) in j.iter_unordered() {
            *recombined.entry(t.to_vec()).or_insert(0) += w;
        }
    }
    let original: BTreeMap<Vec<Value>, u128> = full
        .iter_unordered()
        .map(|(t, w)| (t.to_vec(), w))
        .collect();
    Ok(recombined == original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_noise::seeded_rng;
    use dpsyn_relational::join_size;

    /// A small, skewed star instance (hierarchical): hub attribute B with one
    /// heavy hub value and several light ones.
    fn star_instance() -> (JoinQuery, Instance) {
        let q = JoinQuery::star(2, 32).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        // Heavy hub value 0: 8 tuples in each relation.
        for a in 0..8u64 {
            inst.relation_mut(0).add(vec![0, a], 1).unwrap();
            inst.relation_mut(1).add(vec![0, a], 1).unwrap();
        }
        // Light hub values 1..6: single tuple per relation.
        for b in 1..6u64 {
            inst.relation_mut(0).add(vec![b, 0], 1).unwrap();
            inst.relation_mut(1).add(vec![b, 0], 1).unwrap();
        }
        (q, inst)
    }

    /// The decomposition as it was before sub-instances shared relations:
    /// every bucket rebuilds each relation of `atom(x)` with
    /// `Relation::restrict` and deep-copies every other one.  The oracle for
    /// [`partition_hierarchical`]'s content and RNG draw order.
    mod clone_and_restrict {
        use super::*;
        use dpsyn_relational::Relation;

        #[allow(clippy::too_many_arguments)]
        fn decompose<R: Rng>(
            ctx: &ExecContext,
            query: &JoinQuery,
            tree: &AttributeTree,
            part: &HierarchicalPart,
            attr: AttrId,
            params: PrivacyParams,
            lambda: f64,
            rng: &mut R,
        ) -> Vec<HierarchicalPart> {
            let relations = query.atom(attr);
            if relations.is_empty() {
                return vec![part.clone()];
            }
            let ancestors = tree.ancestors(attr);
            let instance = &part.sub_instance;
            let degrees = ctx
                .deg_multi(query, instance, &relations, &ancestors)
                .unwrap();
            let tlap = TruncatedLaplace::calibrated(params.epsilon(), params.delta(), 1.0).unwrap();
            let mut bucket_members: BTreeMap<usize, BTreeSet<Vec<Value>>> = BTreeMap::new();
            for (tuple, deg) in &degrees {
                let noisy = *deg as f64 + tlap.sample(rng);
                bucket_members
                    .entry(bucket_of(noisy, lambda))
                    .or_default()
                    .insert(tuple.clone());
            }
            if bucket_members.is_empty() {
                let mut configuration = part.configuration.clone();
                configuration.set(attr, 1);
                return vec![HierarchicalPart {
                    sub_instance: instance.clone(),
                    configuration,
                }];
            }
            let mut out = Vec::new();
            for (bucket, members) in bucket_members {
                let relations_out: Vec<Relation> = (0..instance.num_relations())
                    .map(|j| {
                        if relations.contains(&j) {
                            instance.relation(j).restrict(&ancestors, &members).unwrap()
                        } else {
                            instance.relation(j).clone()
                        }
                    })
                    .collect();
                let mut configuration = part.configuration.clone();
                configuration.set(attr, bucket);
                out.push(HierarchicalPart {
                    sub_instance: Instance::new(relations_out),
                    configuration,
                });
            }
            out
        }

        pub(super) fn partition<R: Rng>(
            query: &JoinQuery,
            instance: &Instance,
            per_step: PrivacyParams,
            lambda: f64,
            rng: &mut R,
        ) -> Vec<HierarchicalPart> {
            let ctx = ExecContext::sequential();
            let tree = AttributeTree::build(query).unwrap();
            let mut parts = vec![HierarchicalPart {
                sub_instance: instance.clone(),
                configuration: DegreeConfiguration::new(),
            }];
            for &attr in tree.bottom_up_order() {
                parts = parts
                    .iter()
                    .flat_map(|part| {
                        decompose(&ctx, query, &tree, part, attr, per_step, lambda, rng)
                    })
                    .collect();
            }
            parts
        }
    }

    /// `R0(A, B, C) ⋈ R1(A, B, D) ⋈ R2(A, E)`: `atom(B) = {R0, R1}` with
    /// ancestor `A`, and `R0` holds one tuple at `A = 5`, which `R1` lacks,
    /// so decomposing `B` drops it even when every degree lands in one
    /// bucket.
    fn dangling_instance() -> (JoinQuery, Instance) {
        use dpsyn_relational::Schema;
        let ids = |v: &[u16]| v.iter().map(|&a| AttrId(a)).collect::<Vec<_>>();
        let q = JoinQuery::new(
            Schema::uniform(&["A", "B", "C", "D", "E"], 8),
            vec![ids(&[0, 1, 2]), ids(&[0, 1, 3]), ids(&[0, 4])],
        )
        .unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..3u64 {
            inst.relation_mut(0).add(vec![a, 1, a], 1).unwrap();
            inst.relation_mut(1).add(vec![a, 1, 2], 1).unwrap();
            inst.relation_mut(2).add(vec![a, 3], 1).unwrap();
        }
        inst.relation_mut(0).add(vec![5, 1, 0], 1).unwrap();
        (q, inst)
    }

    #[test]
    fn shared_partition_matches_clone_and_restrict_and_shares_whole_relations() {
        let per_step = PrivacyParams::new(4.0, 1e-3).unwrap();
        let (star_q, star) = star_instance();
        let (dangling_q, dangling) = dangling_instance();
        // (query, instance, λ, expected part count): λ = 64 puts every
        // degree in bucket 1, λ = 1 splits the heavy hub from the light ones.
        let cases = [
            (&star_q, &star, 64.0, Some(1)),
            (&star_q, &star, 1.0, None),
            (&dangling_q, &dangling, 64.0, Some(1)),
        ];
        for (case, &(q, inst, lambda, one_part)) in cases.iter().enumerate() {
            let mut rng = seeded_rng(3);
            let mut oracle_rng = seeded_rng(3);
            let parts = partition_hierarchical(
                &ExecContext::sequential(),
                q,
                inst,
                per_step,
                lambda,
                4096,
                &mut rng,
            )
            .unwrap();
            let oracle = clone_and_restrict::partition(q, inst, per_step, lambda, &mut oracle_rng);
            match one_part {
                Some(n) => assert_eq!(parts.len(), n, "case {case}"),
                None => assert!(parts.len() >= 2, "case {case}: {} parts", parts.len()),
            }
            assert_eq!(parts.len(), oracle.len(), "case {case}");
            for (part, expected) in parts.iter().zip(&oracle) {
                assert_eq!(part.sub_instance, expected.sub_instance, "case {case}");
                assert_eq!(part.configuration, expected.configuration, "case {case}");
            }
            // Same noise draws, in the same order.
            assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "case {case}");
            // A relation kept whole is the input's own; a shrunk one is not.
            for part in &parts {
                for j in 0..inst.num_relations() {
                    let (got, input) = (part.sub_instance.relation(j), inst.relation(j));
                    assert_eq!(std::ptr::eq(got, input), got == input, "case {case}, R{j}");
                }
            }
        }
        // The dangling tuple is dropped from R0 alone, even in one part.
        let parts = partition_hierarchical(
            &ExecContext::sequential(),
            &dangling_q,
            &dangling,
            per_step,
            64.0,
            4096,
            &mut seeded_rng(3),
        )
        .unwrap();
        let sub = &parts[0].sub_instance;
        assert!(!std::ptr::eq(sub.relation(0), dangling.relation(0)));
        assert_eq!(sub.relation(0).freq(&[5, 1, 0]), 0);
        assert_eq!(sub.relation(0).total(), 3);
        assert!(std::ptr::eq(sub.relation(1), dangling.relation(1)));
        assert!(std::ptr::eq(sub.relation(2), dangling.relation(2)));
        // A one-part star partition shares every relation of the input.
        let star_parts = partition_hierarchical(
            &ExecContext::sequential(),
            &star_q,
            &star,
            per_step,
            64.0,
            4096,
            &mut seeded_rng(3),
        )
        .unwrap();
        for j in 0..star.num_relations() {
            assert!(std::ptr::eq(
                star_parts[0].sub_instance.relation(j),
                star.relation(j)
            ));
        }
    }

    #[test]
    fn partition_preserves_the_join_exactly() {
        let (q, inst) = star_instance();
        let per_step = PrivacyParams::new(4.0, 1e-3).unwrap();
        let mut rng = seeded_rng(1);
        let parts = partition_hierarchical(
            &ExecContext::sequential(),
            &q,
            &inst,
            per_step,
            4.0,
            4096,
            &mut rng,
        )
        .unwrap();
        assert!(!parts.is_empty());
        assert!(verify_hierarchical_partition(&q, &inst, &parts).unwrap());
        // Join sizes add up.
        let total: u128 = parts
            .iter()
            .map(|p| join_size(&q, &p.sub_instance).unwrap())
            .sum();
        assert_eq!(total, join_size(&q, &inst).unwrap());
    }

    #[test]
    fn every_part_has_a_complete_degree_configuration() {
        let (q, inst) = star_instance();
        let per_step = PrivacyParams::new(4.0, 1e-3).unwrap();
        let mut rng = seeded_rng(2);
        let parts = partition_hierarchical(
            &ExecContext::sequential(),
            &q,
            &inst,
            per_step,
            4.0,
            4096,
            &mut rng,
        )
        .unwrap();
        let tree = AttributeTree::build(&q).unwrap();
        for part in &parts {
            for &attr in tree.bottom_up_order() {
                assert!(
                    part.configuration.bucket(attr).is_some(),
                    "attribute {attr} missing from configuration"
                );
            }
        }
        // Distinct parts carry distinct configurations.
        let mut configs: Vec<_> = parts.iter().map(|p| p.configuration.clone()).collect();
        configs.sort();
        configs.dedup();
        assert_eq!(configs.len(), parts.len());
    }

    #[test]
    fn replication_bound_is_one_for_two_table_like_trees() {
        // For the two-table query every attribute's atom contains at least one
        // of the two relations, and the only decompositions that replicate are
        // those on attributes missing from a relation: A (missing from R2) and
        // C (missing from R1), so c = 1 and G = ℓ.
        let q = JoinQuery::two_table(16, 16, 16);
        let g = HierarchicalRelease::replication_bound(&q, 100, 10.0).unwrap();
        let ell = ((100.0f64 / 10.0).log2().ceil()) + 1.0;
        assert!((g - ell).abs() < 1e-9, "g = {g}, ell = {ell}");
        // Non-hierarchical queries are rejected.
        assert!(
            HierarchicalRelease::replication_bound(&JoinQuery::path(3, 4).unwrap(), 100, 10.0)
                .is_err()
        );
    }

    #[test]
    fn release_answers_queries_on_hierarchical_instances() {
        let ctx = ExecContext::sequential();
        let (q, inst) = star_instance();
        let params = PrivacyParams::new(4.0, 1e-3).unwrap();
        let mut rng = seeded_rng(7);
        let family = QueryFamily::random_sign(&q, 6, &mut rng).unwrap();
        let release = HierarchicalRelease::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert_eq!(release.kind(), ReleaseKind::Hierarchical);
        assert!(release.parts() >= 1);
        assert_eq!(release.answer_all(&family).unwrap().len(), 6);
        assert!(release.histogram().weights().iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn rejects_non_hierarchical_queries_and_pure_dp() {
        let ctx = ExecContext::sequential();
        let path = JoinQuery::path(3, 4).unwrap();
        let inst = Instance::empty_for(&path).unwrap();
        let family = QueryFamily::counting(&path);
        let mut rng = seeded_rng(4);
        assert!(matches!(
            HierarchicalRelease::default().release(
                &ctx,
                &path,
                &inst,
                &family,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                &mut rng
            ),
            Err(ReleaseError::RequiresHierarchical(_))
        ));
        let star = JoinQuery::star(2, 4).unwrap();
        let inst = Instance::empty_for(&star).unwrap();
        let family = QueryFamily::counting(&star);
        assert!(matches!(
            HierarchicalRelease::default().release(
                &ctx,
                &star,
                &inst,
                &family,
                PrivacyParams::pure(1.0).unwrap(),
                &mut rng
            ),
            Err(ReleaseError::UnsupportedPrivacyParams(_))
        ));
    }

    #[test]
    fn partition_rejects_pure_dp_like_the_release() {
        // The partition splits the budget exactly as the release does, so
        // δ = 0 (λ = ∞) is refused by both rather than partitioned at λ = ∞.
        let ctx = ExecContext::sequential();
        let (q, inst) = star_instance();
        let params = PrivacyParams::pure(2.0).unwrap();
        let family = QueryFamily::counting(&q);
        let algo = HierarchicalRelease::default();
        assert!(matches!(
            algo.partition(&q, &inst, params, &mut seeded_rng(1)),
            Err(ReleaseError::UnsupportedPrivacyParams(_))
        ));
        assert!(matches!(
            algo.release(&ctx, &q, &inst, &family, params, &mut seeded_rng(1)),
            Err(ReleaseError::UnsupportedPrivacyParams(_))
        ));
    }

    #[test]
    fn repeat_release_whose_parts_fit_the_lru_is_warm_and_identical() {
        let ctx = ExecContext::sequential();
        let (q, inst) = star_instance();
        let params = PrivacyParams::new(4.0, 1e-3).unwrap();
        let family = QueryFamily::random_sign(&q, 6, &mut seeded_rng(7)).unwrap();
        let algo = HierarchicalRelease::default();
        let first = algo
            .release(&ctx, &q, &inst, &family, params, &mut seeded_rng(5))
            .unwrap();
        assert!(first.parts() >= 2, "parts {}", first.parts());
        assert!(ctx.cached_instances() < dpsyn_relational::DEFAULT_CACHE_SLOTS);
        let (hits, misses) = ctx.cache_stats();
        let again = algo
            .release(&ctx, &q, &inst, &family, params, &mut seeded_rng(5))
            .unwrap();
        let (hits_after, misses_after) = ctx.cache_stats();
        assert_eq!(misses_after, misses, "the repeat misses nothing");
        assert!(hits_after > hits);
        let bits = |r: &SyntheticRelease| -> Vec<u64> {
            let mut bits: Vec<u64> = r
                .histogram()
                .weights()
                .iter()
                .map(|w| w.to_bits())
                .collect();
            bits.extend([r.noisy_total().to_bits(), r.delta_tilde().to_bits()]);
            bits
        };
        assert_eq!(bits(&again), bits(&first));
        assert_eq!(again.parts(), first.parts());
    }

    #[test]
    fn empty_instance_gives_empty_release() {
        let ctx = ExecContext::sequential();
        let q = JoinQuery::star(2, 8).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        let params = PrivacyParams::new(1.0, 1e-4).unwrap();
        let mut rng = seeded_rng(9);
        let family = QueryFamily::counting(&q);
        let release = HierarchicalRelease::default()
            .release(&ctx, &q, &inst, &family, params, &mut rng)
            .unwrap();
        assert_eq!(release.parts(), 0);
        assert_eq!(release.histogram().total(), 0.0);
    }
}
