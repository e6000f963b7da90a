//! Context-based sensitivity entry points: the [`SensitivityOps`] extension
//! trait on [`ExecContext`].
//!
//! These methods are the primary API of the crate (the plain free functions
//! build a throwaway context per call).  Running through a **long-lived**
//! context changes the cost model, not the results.  Each call enumerates
//! its subsets through a [`ShardedSubJoinCache`] of its own, dropped on
//! return; what persists is the values: the boundary map `T_F(I)` and
//! `RS^β(I)` are memoised in the pair's slot
//! ([`ExecContext::slot_memo`]), so a residual sensitivity at a new `β`
//! over the same `(query, instance)` pair runs only its sweep.
//!
//! ### Determinism
//!
//! Warm or cold, sequential or parallel, the returned values are identical:
//! a memo hit returns the value its cold computation returned, a sub-join is
//! the same weighted tuple set under every decomposition, the engine's
//! worker pools steal work in morsels
//! whose results merge in morsel order (claiming order is invisible — see
//! `dpsyn_relational::exec`), and the aggregates consumed here (`max` over
//! groups, boundary maps in `BTreeMap` order) are order-free.  The
//! workspace's seeded release algorithms therefore produce byte-identical
//! output whether they run on a fresh context, a warm session, or the
//! free functions.

use std::collections::BTreeMap;

use dpsyn_relational::exec;
use dpsyn_relational::{ExecContext, Instance, JoinQuery, Keep, Parallelism, ShardedSubJoinCache};

use crate::boundary::{boundary_query, boundary_query_sharded};
use crate::residual::{check_beta, maximize_over_assignments, BoundaryTable, ResidualSensitivity};
use crate::Result;

/// Sensitivity computations evaluated through an [`ExecContext`] — the
/// context supplies the parallelism level, the small-instance sequential
/// fallback, and the slot memo that keeps release-invariant values.
///
/// Implemented for [`ExecContext`]; `dpsyn::Session` forwards to these
/// methods.
pub trait SensitivityOps {
    /// `T_F(I)` for every proper subset `F ⊊ [m]`, keyed by the sorted
    /// subset (the empty subset maps to 1).  The map is memoised in the
    /// pair's slot ([`ExecContext::slot_memo`]), so a warm context builds
    /// the sub-join lattice for it once.
    fn all_boundary_values(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> Result<BTreeMap<Vec<usize>, u128>>;

    /// Residual sensitivity `RS^β_count(I)` (Definition 3.6).  The result
    /// is memoised in the pair's slot ([`ExecContext::slot_memo`]), keyed by
    /// `β`'s bits, so a repeat call at the same `β` runs no sweep; a call at
    /// a new `β` reads the memoised boundary map
    /// ([`SensitivityOps::all_boundary_values`]), so sweeping `β` over one
    /// instance builds the lattice once.
    fn residual_sensitivity(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
    ) -> Result<ResidualSensitivity>;

    /// Local sensitivity `LS_count(I) = max_i T_{[m]∖{i}}(I)`.
    fn local_sensitivity(&self, query: &JoinQuery, instance: &Instance) -> Result<u128>;
}

impl SensitivityOps for ExecContext {
    fn all_boundary_values(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> Result<BTreeMap<Vec<usize>, u128>> {
        let values = self.slot_memo(query, instance, &[], || {
            let m = query.num_relations();
            let cache = ShardedSubJoinCache::new(query, instance)?;
            let par = self.effective_parallelism(instance);
            if !par.is_sequential() {
                // Every proper mask is materialised level by level through
                // the pool; the reads below then only group the cached
                // tuples.
                cache.populate(par)?;
            }
            let full = (1u32 << m) - 1;
            let entries = exec::par_map(par, full as usize, |i| -> Result<(Vec<usize>, u128)> {
                let mask = i as u32;
                let f: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
                let value = boundary_query_sharded(&cache, &f, Parallelism::SEQUENTIAL)?;
                Ok((f, value))
            });
            entries.into_iter().collect::<Result<BTreeMap<_, _>>>()
        })?;
        Ok(values.as_ref().clone())
    }

    fn residual_sensitivity(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        beta: f64,
    ) -> Result<ResidualSensitivity> {
        check_beta(beta)?;
        // RS^β(I) depends on the pair's data and β alone: memoised in the
        // pair's slot, keyed by β's bits.
        let rs = self.slot_memo(query, instance, &[beta.to_bits()], || -> Result<_> {
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
        })?;
        Ok(rs.as_ref().clone())
    }

    fn local_sensitivity(&self, query: &JoinQuery, instance: &Instance) -> Result<u128> {
        let m = query.num_relations();
        // Beyond the bitmask cache's representation limit there is no
        // lattice: each target is joined directly.
        let cache = if m < 32 {
            Some(ShardedSubJoinCache::new(query, instance)?)
        } else {
            None
        };
        let par = self.effective_parallelism(instance);
        // One lazy walk per target at every thread count, with the
        // parallelism spent inside the join steps.  The m size-(m-1)
        // targets are each consumed once and can dwarf the inputs, so only
        // their chain parents are memoised while the call runs.
        let mut best = 0u128;
        for i in 0..m {
            let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
            if others.is_empty() {
                best = best.max(1);
                continue;
            }
            let t = match &cache {
                Some(cache) => {
                    let boundary = query.boundary(&others)?;
                    cache
                        .join_mask(cache.mask_of(&others)?, par, Keep::Chain)?
                        .max_group_weight(&boundary)?
                }
                None => boundary_query(query, instance, &others)?,
            };
            best = best.max(t);
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{local_sensitivity, residual_sensitivity};
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
            ctx.local_sensitivity(&q, &inst).unwrap(),
            local_sensitivity(&q, &inst).unwrap()
        );
        let beta = 0.3;
        assert_eq!(
            ctx.residual_sensitivity(&q, &inst, beta).unwrap(),
            residual_sensitivity(&q, &inst, beta).unwrap()
        );
    }

    #[test]
    fn cold_sensitivity_calls_keep_values_not_joins() {
        let (q, inst) = two_table();
        let ctx = ExecContext::sequential();
        // Local sensitivity memoises nothing: its lattice dies with the call.
        ctx.local_sensitivity(&q, &inst).unwrap();
        assert_eq!(ctx.cached_instances(), 0);
        // A cold residual sensitivity claims exactly one slot, for its
        // memoised values, and keeps no join result in it.
        ctx.residual_sensitivity(&q, &inst, 0.3).unwrap();
        assert_eq!(ctx.cached_instances(), 1);
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        assert_eq!(ctx.cache_stats(), (0, 2), "RS^β and boundary map miss");
    }

    #[test]
    fn beta_sweep_builds_the_boundary_map_once() {
        let (q, inst) = two_table();
        let ctx = ExecContext::sequential();
        let cold = ctx.residual_sensitivity(&q, &inst, 0.2).unwrap();
        let memoised = || {
            ctx.slot_memo(&q, &inst, &[], || -> Result<BTreeMap<Vec<usize>, u128>> {
                panic!("the boundary map must be memoised")
            })
            .unwrap()
        };
        let map = memoised();
        assert_eq!(*map, cold.boundary_values);
        let weak = std::sync::Arc::downgrade(&map);
        drop(map);
        // Every new β misses RS^β and hits the boundary map; the map stays
        // the one built by the first call, and every value matches a fresh
        // context's.
        for &beta in &[0.5, 1.0, 0.2] {
            let (hits, misses) = ctx.cache_stats();
            let warm = ctx.residual_sensitivity(&q, &inst, beta).unwrap();
            assert_eq!(ctx.cache_stats(), (hits + 1, misses + 1), "beta {beta}");
            let fresh = ExecContext::sequential()
                .residual_sensitivity(&q, &inst, beta)
                .unwrap();
            assert_eq!(warm, fresh, "beta {beta}");
            assert!(weak.upgrade().is_some(), "beta {beta}: map rebuilt");
        }
        // A repeat β is one RS^β hit.
        let (hits, misses) = ctx.cache_stats();
        assert_eq!(cold, ctx.residual_sensitivity(&q, &inst, 0.2).unwrap());
        assert_eq!(ctx.cache_stats(), (hits + 1, misses));
        assert!(std::sync::Arc::ptr_eq(
            &weak.upgrade().unwrap(),
            &memoised()
        ));
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
}
