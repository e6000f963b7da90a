//! Context-based sensitivity entry points: the [`SensitivityOps`] extension
//! trait on [`ExecContext`].
//!
//! These methods are the primary API of the crate (the plain free functions
//! build a throwaway context per call).  Running through a **long-lived**
//! context changes the cost model, not the results: every sub-join the
//! enumerations materialise decomposes along the context's cost-based join
//! plan ([`dpsyn_relational::plan`]) and is checked back into the context's
//! instance-fingerprinted lattice cache, so a second call over the same
//! `(query, instance)` pair — a residual sensitivity at a different `β`, a
//! local-sensitivity probe, a boundary query — reuses the `2^m` subset
//! lattice instead of recomputing it, and every lazy walk (local
//! sensitivity's transient joins, delta-plan builds, single boundary
//! queries) materialises the planner's smallest intermediates.
//!
//! ### Determinism
//!
//! Warm or cold, sequential or parallel, planner or fixed-prefix, the
//! returned values are identical: every cached sub-join equals what the
//! cold path computes (a sub-join is the same weighted tuple set under
//! every decomposition, and the plan is a pure function of the query and
//! instance statistics), the engine's worker pools steal work in morsels
//! whose results merge in morsel order (claiming order is invisible — see
//! `dpsyn_relational::exec`), and the aggregates consumed here (`max` over
//! groups, boundary maps in `BTreeMap` order) are order-free.  The
//! workspace's seeded release algorithms therefore produce byte-identical
//! output whether they run on a fresh context, a warm session, or the
//! free functions.

use std::collections::BTreeMap;

use dpsyn_relational::exec;
use dpsyn_relational::{
    AttrId, DeltaJoinPlan, ExecContext, Instance, JoinPlan, JoinQuery, Keep, NeighborEdit,
    Parallelism, ShardedSubJoinCache,
};

use crate::boundary::boundary_query_sharded;
use crate::local::local_sensitivity_seq;
use crate::residual::{check_beta, maximize_over_assignments, BoundaryTable, ResidualSensitivity};
use crate::smooth::{candidate_edits, candidate_neighbors};
use crate::Result;

/// Frontier width kept between radius levels of the brute-force
/// smooth-sensitivity exploration (the highest-sensitivity instances, ties
/// in generation order).
const SMOOTH_FRONTIER: usize = 16;

/// Sensitivity computations evaluated through an [`ExecContext`] — the
/// context supplies the parallelism level, the small-instance sequential
/// fallback, and the persistent sub-join lattice cache.
///
/// Implemented for [`ExecContext`]; `dpsyn::Session` forwards to these
/// methods.
pub trait SensitivityOps {
    /// `T_F(I)` for every proper subset `F ⊊ [m]`, keyed by the sorted
    /// subset (the empty subset maps to 1).  All sub-joins flow through the
    /// context's persistent lattice cache: a warm context skips every
    /// already-materialised subset.
    fn all_boundary_values(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> Result<BTreeMap<Vec<usize>, u128>>;

    /// Residual sensitivity `RS^β_count(I)` (Definition 3.6).  The dominant
    /// cost — the boundary-value enumeration — is shared across calls via
    /// the context cache, so sweeping `β` over one instance pays for the
    /// lattice once.
    fn residual_sensitivity(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
    ) -> Result<ResidualSensitivity>;

    /// Local sensitivity `LS_count(I) = max_i T_{[m]∖{i}}(I)`.
    fn local_sensitivity(&self, query: &JoinQuery, instance: &Instance) -> Result<u128>;

    /// The local sensitivities of every edited instance `I ± edit`, swept
    /// **incrementally**: one cached [`DeltaJoinPlan`] prices each edit at a
    /// hash probe instead of a full re-join, and the edits run through the
    /// context's worker pool (results in edit order, byte-identical at any
    /// thread count and to [`SensitivityOps::local_sensitivity_sweep_materializing`]).
    fn local_sensitivity_sweep(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        edits: &[NeighborEdit],
    ) -> Result<Vec<u128>>;

    /// The materializing cross-check oracle for
    /// [`SensitivityOps::local_sensitivity_sweep`]: applies every edit,
    /// producing a neighbour [`Instance`], and recomputes its local
    /// sensitivity from scratch.  `O(edits × full-join)` — kept for
    /// verification and benchmarking, not for production sweeps.
    fn local_sensitivity_sweep_materializing(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        edits: &[NeighborEdit],
    ) -> Result<Vec<u128>>;

    /// Restricted brute-force smooth sensitivity (see
    /// [`crate::smooth::smooth_sensitivity_bruteforce`]); each radius
    /// level's edit sweep is delta-maintained (one plan per frontier
    /// instance, probes instead of re-joins) and runs through the context's
    /// worker pool.
    fn smooth_sensitivity_bruteforce(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
        max_radius: usize,
    ) -> Result<f64>;

    /// The materializing cross-check oracle for
    /// [`SensitivityOps::smooth_sensitivity_bruteforce`]: the historical
    /// implementation that materialises every candidate neighbour and
    /// re-joins from scratch.  Byte-identical results, `O(edits)` times the
    /// cost.
    fn smooth_sensitivity_bruteforce_materializing(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
        max_radius: usize,
    ) -> Result<f64>;

    /// The maximum boundary query `T_E(I)` (Equation 1), cached through the
    /// context lattice.
    fn boundary_query(&self, query: &JoinQuery, instance: &Instance, e: &[usize]) -> Result<u128>;

    /// The `q`-aggregate query `T_{E,y}(I)` (Definition 4.6), cached through
    /// the context lattice.
    fn aggregate_query(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        e: &[usize],
        y: &[AttrId],
    ) -> Result<u128>;
}

impl SensitivityOps for ExecContext {
    fn all_boundary_values(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> Result<BTreeMap<Vec<usize>, u128>> {
        let m = query.num_relations();
        let mut cache = self.subjoin_cache(query, instance)?;
        let par = self.effective_parallelism(instance);
        if !par.is_sequential() {
            // Adaptive demanded populate: only the masks other masks
            // decompose through are materialised eagerly; terminal masks
            // fold count-only below, under the cache's aggregate-pushdown
            // mode.  Each materialised level's actual cardinalities are
            // measured against the plan's estimates, and a blown estimate
            // re-plans the remaining levels (values are identical to the
            // static populate; see `dpsyn_relational::plan`).  The feedback
            // stats ride the cache back into the context's slot.
            cache.populate(par)?;
        }
        let full = (1u32 << m) - 1;
        let entries = exec::par_map(par, full as usize, |i| -> Result<(Vec<usize>, u128)> {
            let mask = i as u32;
            let f: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
            let value = boundary_query_sharded(&cache, &f, Parallelism::SEQUENTIAL)?;
            Ok((f, value))
        });
        self.retain_subjoin_cache(cache);
        entries.into_iter().collect()
    }

    fn residual_sensitivity(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
    ) -> Result<ResidualSensitivity> {
        check_beta(beta)?;
        let m = query.num_relations();
        let boundary_values = self.all_boundary_values(query, instance)?;

        // No coordinate of an optimal s exceeds ⌈1/β⌉ (see the residual
        // module docs).
        let s_cap: u64 = (1.0 / beta).ceil() as u64;

        let table = BoundaryTable::new(m, &boundary_values);
        let per_relation = exec::par_map(self.parallelism(), m, |i| {
            maximize_over_assignments(&table, i, beta, s_cap)
        });

        let mut best_value = 0.0f64;
        let mut best_relation = 0usize;
        let mut best_distance = 0u64;
        for (i, &(value, distance)) in per_relation.iter().enumerate() {
            if value > best_value {
                best_value = value;
                best_relation = i;
                best_distance = distance;
            }
        }

        Ok(ResidualSensitivity {
            beta,
            value: best_value,
            maximizing_relation: best_relation,
            maximizing_distance: best_distance,
            boundary_values,
        })
    }

    fn local_sensitivity(&self, query: &JoinQuery, instance: &Instance) -> Result<u128> {
        let m = query.num_relations();
        if m >= 32 {
            // Beyond the bitmask cache's representation limit; no lattice.
            return local_sensitivity_seq(query, instance);
        }
        let mut cache = self.subjoin_cache(query, instance)?;
        let par = self.effective_parallelism(instance);
        // One adaptive walk at every thread count, with the parallelism
        // spent inside the join steps: each chain step's actual cardinality
        // is measured as it materialises, and a blown estimate re-routes
        // every later target around the trap parent — this is where
        // correlated instances shed resident intermediates, identically at
        // every thread count (values equal the static walk's).  The m
        // size-(m-1) targets are each consumed once and can dwarf the
        // inputs, so only their chain parents are memoised (and persisted
        // for the next call).
        let mut best = 0u128;
        for i in 0..m {
            let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
            if others.is_empty() {
                best = best.max(1);
                continue;
            }
            let boundary = query.boundary(&others)?;
            let mask = cache.mask_of(&others)?;
            best = best.max(cache.max_group_weight_adaptive(mask, &boundary, par, Keep::Chain)?);
        }
        self.retain_subjoin_cache(cache);
        Ok(best)
    }

    fn local_sensitivity_sweep(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        edits: &[NeighborEdit],
    ) -> Result<Vec<u128>> {
        if query.num_relations() >= 32 {
            // Beyond the bitmask lattice's representation limit: no delta
            // plan, fall back to materializing.
            return self.local_sensitivity_sweep_materializing(query, instance, edits);
        }
        let plan = self.delta_plan(query, instance)?;
        // Probes are cheap: honour the small-instance sequential fallback so
        // tiny sweeps don't pay pool spawn overhead per call.
        let values = exec::par_map(self.effective_parallelism(instance), edits.len(), |i| {
            plan.max_boundary_after(&edits[i])
        });
        values.into_iter().map(|v| v.map_err(Into::into)).collect()
    }

    fn local_sensitivity_sweep_materializing(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        edits: &[NeighborEdit],
    ) -> Result<Vec<u128>> {
        let neighbors = edits
            .iter()
            .map(|edit| instance.apply_edit(edit))
            .collect::<dpsyn_relational::Result<Vec<Instance>>>()?;
        let values = exec::par_map(self.parallelism(), neighbors.len(), |i| {
            local_sensitivity_seq(query, &neighbors[i])
        });
        values.into_iter().collect()
    }

    fn smooth_sensitivity_bruteforce(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
        max_radius: usize,
    ) -> Result<f64> {
        check_beta(beta)?;
        if query.num_relations() >= 32 {
            return self
                .smooth_sensitivity_bruteforce_materializing(query, instance, beta, max_radius);
        }
        let mut frontier = vec![instance.clone()];
        let mut best = self.local_sensitivity(query, instance)? as f64;
        let mut result = best;
        for k in 1..=max_radius {
            // Sweep every frontier instance's candidate edits through its
            // delta plan: the plan build is one lattice pass per frontier
            // node, after which each edit is a hash probe.  The base
            // instance (radius 1) reuses the context's persisted plan; the
            // short-lived frontier instances of deeper levels build local
            // plans so they never thrash the context's LRU slots.
            let mut scored: Vec<(u128, usize, NeighborEdit)> = Vec::new();
            for (fi, inst) in frontier.iter().enumerate() {
                let edits = candidate_edits(query, inst)?;
                let local_plan;
                let plan: &DeltaJoinPlan = if k == 1 {
                    local_plan = self.delta_plan(query, inst)?;
                    &local_plan
                } else {
                    // Short-lived frontier instances bypass the context's
                    // LRU, but still decompose along a cost-based join plan
                    // of their own, so each per-node lattice pass
                    // materialises the planner's smallest intermediates.
                    let join_plan = std::sync::Arc::new(JoinPlan::cost_based(query, inst)?);
                    let cache = ShardedSubJoinCache::with_plan(query, inst, join_plan)?;
                    local_plan = std::sync::Arc::new(DeltaJoinPlan::build(
                        query,
                        inst,
                        &cache,
                        self.effective_parallelism(inst),
                    )?);
                    &local_plan
                };
                // Probe-cheap sweep: the small-instance fallback applies
                // (results are identical at every level; only wall-clock —
                // and pool-spawn overhead per frontier node — differs).
                let sensitivities =
                    exec::par_map(self.effective_parallelism(inst), edits.len(), |i| {
                        plan.max_boundary_after(&edits[i])
                    });
                for (edit, ls) in edits.into_iter().zip(sensitivities) {
                    let ls = ls?;
                    best = best.max(ls as f64);
                    scored.push((ls, fi, edit));
                }
            }
            // Keep the frontier small: the highest-sensitivity instances are
            // the ones whose further neighbourhoods matter.  The sort is
            // stable, so ties keep generation order regardless of the worker
            // count — and the delta-computed sensitivities are exactly the
            // materialized path's, so the explored neighbourhood is too.
            scored.sort_by_key(|(ls, _, _)| std::cmp::Reverse(*ls));
            scored.truncate(SMOOTH_FRONTIER);
            frontier = scored
                .into_iter()
                .map(|(_, fi, edit)| frontier[fi].apply_edit(&edit))
                .collect::<dpsyn_relational::Result<Vec<Instance>>>()?;
            result = result.max((-beta * k as f64).exp() * best);
        }
        Ok(result)
    }

    fn smooth_sensitivity_bruteforce_materializing(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
        max_radius: usize,
    ) -> Result<f64> {
        check_beta(beta)?;
        let mut frontier = vec![instance.clone()];
        let mut best = self.local_sensitivity(query, instance)? as f64;
        let mut result = best;
        for k in 1..=max_radius {
            // Generate this level's neighbours sequentially (cheap), then
            // sweep their local sensitivities through the pool (the
            // expensive part: one multi-way join per edit).  Neighbour
            // instances have fresh fingerprints, so they deliberately bypass
            // the persistent cache instead of thrashing it.
            let mut neighbors: Vec<Instance> = Vec::new();
            for inst in &frontier {
                neighbors.extend(candidate_neighbors(query, inst)?);
            }
            let sensitivities = exec::par_map(self.parallelism(), neighbors.len(), |i| {
                local_sensitivity_seq(query, &neighbors[i])
            });
            let mut next: Vec<(u128, Instance)> = Vec::with_capacity(neighbors.len());
            for (neighbor, ls) in neighbors.into_iter().zip(sensitivities) {
                let ls = ls?;
                best = best.max(ls as f64);
                next.push((ls, neighbor));
            }
            next.sort_by_key(|(ls, _)| std::cmp::Reverse(*ls));
            next.truncate(SMOOTH_FRONTIER);
            frontier = next.into_iter().map(|(_, inst)| inst).collect();
            result = result.max((-beta * k as f64).exp() * best);
        }
        Ok(result)
    }

    fn boundary_query(&self, query: &JoinQuery, instance: &Instance, e: &[usize]) -> Result<u128> {
        if e.is_empty() {
            return Ok(1);
        }
        let boundary = query.boundary(e)?;
        self.aggregate_query(query, instance, e, &boundary)
    }

    fn aggregate_query(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        e: &[usize],
        y: &[AttrId],
    ) -> Result<u128> {
        if e.is_empty() {
            return Ok(1);
        }
        if query.num_relations() >= 32 {
            // Beyond the bitmask cache's representation limit: evaluate
            // directly without the lattice.
            let groups = self.grouped_join_size(query, instance, e, y)?;
            return Ok(groups.values().copied().max().unwrap_or(0));
        }
        let mut cache = self.subjoin_cache(query, instance)?;
        let mask = cache.mask_of(e)?;
        // Adaptive lazy chain: a mid-chain estimate breach re-plans the
        // not-yet-walked remainder (values are plan-invariant).  Terminal
        // masks fold count-only under the cache's aggregate-pushdown mode.
        let par = self.effective_parallelism(instance);
        let value = cache.max_group_weight_adaptive(mask, y, par, Keep::Target)?;
        self.retain_subjoin_cache(cache);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_boundary_values, local_sensitivity, residual_sensitivity};
    use dpsyn_relational::{AttrId, Relation};

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn two_table() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 2), (vec![2, 1], 1)],
        )
        .unwrap();
        let r2 = Relation::from_tuples(
            ids(&[1, 2]),
            vec![(vec![0, 0], 1), (vec![0, 1], 1), (vec![1, 3], 3)],
        )
        .unwrap();
        (q, Instance::new(vec![r1, r2]))
    }

    #[test]
    fn context_results_match_free_functions() {
        let (q, inst) = two_table();
        let ctx = ExecContext::sequential();
        assert_eq!(
            ctx.all_boundary_values(&q, &inst).unwrap(),
            all_boundary_values(&q, &inst).unwrap()
        );
        assert_eq!(
            ctx.local_sensitivity(&q, &inst).unwrap(),
            local_sensitivity(&q, &inst).unwrap()
        );
        let beta = 0.3;
        assert_eq!(
            ctx.residual_sensitivity(&q, &inst, beta).unwrap(),
            residual_sensitivity(&q, &inst, beta).unwrap()
        );
        assert_eq!(
            ctx.boundary_query(&q, &inst, &[0]).unwrap(),
            crate::boundary_query(&q, &inst, &[0]).unwrap()
        );
        assert_eq!(ctx.boundary_query(&q, &inst, &[]).unwrap(), 1);
    }

    #[test]
    fn warm_context_reuses_the_lattice_and_matches_cold() {
        let (q, inst) = two_table();
        let ctx = ExecContext::sequential();
        let cold = ctx.residual_sensitivity(&q, &inst, 0.2).unwrap();
        // Under DPSYN_AGG_FORCE=always the lattice persists as count-only
        // summaries rather than materialised entries; both kinds count.
        let cached_after_first = ctx.cached_subjoins() + ctx.cached_subjoin_aggregates();
        assert!(cached_after_first > 0, "lattice must persist across calls");
        // A sweep over β reuses the lattice: the cached count stays put and
        // every result matches a cold single-shot context.
        for &beta in &[0.2, 0.5, 1.0] {
            let warm = ctx.residual_sensitivity(&q, &inst, beta).unwrap();
            let fresh = ExecContext::sequential()
                .residual_sensitivity(&q, &inst, beta)
                .unwrap();
            assert_eq!(warm, fresh, "beta {beta}");
            assert_eq!(
                ctx.cached_subjoins() + ctx.cached_subjoin_aggregates(),
                cached_after_first
            );
        }
        assert_eq!(cold, ctx.residual_sensitivity(&q, &inst, 0.2).unwrap());
        let (hits, _) = ctx.cache_stats();
        assert!(hits >= 3, "warm calls must hit the persistent cache");
    }

    #[test]
    fn editing_the_instance_invalidates_the_cache() {
        let (q, inst) = two_table();
        let ctx = ExecContext::sequential();
        let before = ctx.local_sensitivity(&q, &inst).unwrap();
        let mut edited = inst.clone();
        edited.relation_mut(0).add(vec![0, 0], 5).unwrap();
        let after = ctx.local_sensitivity(&q, &edited).unwrap();
        // The edited instance's sensitivity is computed fresh, not served
        // from the stale lattice.
        assert_eq!(after, local_sensitivity(&q, &edited).unwrap());
        assert_ne!(before, after);
    }

    #[test]
    fn smooth_bruteforce_matches_free_function() {
        let (q, inst) = two_table();
        let ctx = ExecContext::sequential();
        for &beta in &[0.2, 1.0] {
            assert_eq!(
                ctx.smooth_sensitivity_bruteforce(&q, &inst, beta, 2)
                    .unwrap(),
                crate::smooth_sensitivity_bruteforce(&q, &inst, beta, 2).unwrap(),
                "beta {beta}"
            );
        }
        assert!(ctx
            .smooth_sensitivity_bruteforce(&q, &inst, 0.0, 1)
            .is_err());
        assert!(ctx
            .smooth_sensitivity_bruteforce_materializing(&q, &inst, 0.0, 1)
            .is_err());
    }

    #[test]
    fn delta_smooth_bruteforce_is_byte_identical_to_materializing() {
        let (q, inst) = two_table();
        for &beta in &[0.2, 0.7] {
            let oracle = ExecContext::sequential()
                .smooth_sensitivity_bruteforce_materializing(&q, &inst, beta, 2)
                .unwrap();
            for threads in [1usize, 2, 4] {
                let delta = ExecContext::with_threads(threads)
                    .smooth_sensitivity_bruteforce(&q, &inst, beta, 2)
                    .unwrap();
                // Bit-for-bit equality of the f64, not approximate.
                assert_eq!(
                    delta.to_bits(),
                    oracle.to_bits(),
                    "beta {beta}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn delta_sweep_matches_materializing_sweep() {
        let (q, inst) = two_table();
        let mut edits = inst.removal_edits();
        for relation in 0..2usize {
            for v in 0..4u64 {
                edits.push(NeighborEdit::Add {
                    relation,
                    tuple: vec![v, (v + 3) % 8],
                });
            }
        }
        let ctx = ExecContext::sequential();
        let delta = ctx.local_sensitivity_sweep(&q, &inst, &edits).unwrap();
        let oracle = ctx
            .local_sensitivity_sweep_materializing(&q, &inst, &edits)
            .unwrap();
        assert_eq!(delta, oracle);
        // The sweep reuses the context's cached plan: a second sweep hits.
        let (hits_before, _) = ctx.cache_stats();
        let again = ctx.local_sensitivity_sweep(&q, &inst, &edits).unwrap();
        assert_eq!(again, delta);
        let (hits_after, _) = ctx.cache_stats();
        assert!(hits_after > hits_before, "second sweep must hit the plan");
        // Thread counts change nothing.
        for threads in [2usize, 4] {
            let par = ExecContext::with_threads(threads)
                .local_sensitivity_sweep(&q, &inst, &edits)
                .unwrap();
            assert_eq!(par, delta, "threads {threads}");
        }
        // Invalid edits surface the same error family as apply_edit.
        let absent = NeighborEdit::Remove {
            relation: 0,
            tuple: vec![7, 7],
        };
        assert!(ctx
            .local_sensitivity_sweep(&q, &inst, std::slice::from_ref(&absent))
            .is_err());
        assert!(ctx
            .local_sensitivity_sweep_materializing(&q, &inst, &[absent])
            .is_err());
    }
}
