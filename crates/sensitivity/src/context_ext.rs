//! Context-based sensitivity entry points: the [`SensitivityOps`] extension
//! trait on [`ExecContext`].
//!
//! These methods are the primary API of the crate (the plain free functions
//! build a throwaway context per call).  Running through a **long-lived**
//! context changes the cost model, not the results.  A cold call builds a
//! [`SubJoinLattice`] of its own and drops it on return; what persists is
//! the values: the boundary map `T_F(I)` and `RS^β(I)` are memoised in the
//! pair's slot ([`ExecContext::slot_memo`]).  Local sensitivity and a
//! residual sensitivity at a new `β` over the same `(query, instance)` pair
//! read the memoised map, so they build nothing.
//!
//! ### Determinism
//!
//! Warm or cold, sequential or parallel, the returned values are identical:
//! a memo hit returns the value its cold computation returned, a sub-join is
//! the same weighted tuple set at every parallelism, the engine's
//! worker pools steal work in morsels
//! whose results merge in morsel order (claiming order is invisible — see
//! `dpsyn_relational::exec`), and the aggregates consumed here (`max` over
//! groups, boundary maps in `BTreeMap` order) are order-free.  The
//! workspace's seeded release algorithms therefore produce byte-identical
//! output whether they run on a fresh context, a warm session, or the
//! free functions.

use std::collections::BTreeMap;

use dpsyn_relational::exec;
use dpsyn_relational::{ExecContext, Instance, JoinQuery, SubJoinLattice};

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
    /// subset (the empty subset maps to 1).  A cold call builds the pair's
    /// [`SubJoinLattice`] and reads each subset's `max_group_weight` over
    /// its boundary; the map is memoised in the pair's slot
    /// ([`ExecContext::slot_memo`]), so a warm context builds nothing.
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

    /// Local sensitivity `LS_count(I) = max_i T_{[m]∖{i}}(I)`: the largest
    /// size-`(m-1)` entry of the memoised boundary map
    /// ([`SensitivityOps::all_boundary_values`]), so `LS = T_∅ = 1` when
    /// `m = 1`.
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
            let par = self.effective_parallelism(instance);
            let lattice = SubJoinLattice::build(query, instance, par)?;
            let full = (1u32 << m) - 1;
            let entries = exec::par_map(par, full as usize, |i| -> Result<(Vec<usize>, u128)> {
                let mask = i as u32;
                let f: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
                let value = if mask == 0 {
                    1
                } else {
                    lattice.get(mask).max_group_weight(&query.boundary(&f)?)?
                };
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
        let boundary_values = self.all_boundary_values(query, instance)?;
        Ok(boundary_values
            .into_iter()
            .filter(|(f, _)| f.len() + 1 == m)
            .map(|(_, t)| t)
            .max()
            .unwrap_or(0))
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
        // A cold residual sensitivity claims exactly one slot, for its
        // memoised values, and keeps no join result in it.
        ctx.residual_sensitivity(&q, &inst, 0.3).unwrap();
        assert_eq!(ctx.cached_instances(), 1);
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
        assert_eq!(ctx.cache_stats(), (0, 2), "RS^β and boundary map miss");
        // Local sensitivity then reads the memoised boundary map: one hit,
        // no new slot, no lattice.
        assert_eq!(
            ctx.local_sensitivity(&q, &inst).unwrap(),
            local_sensitivity(&q, &inst).unwrap()
        );
        assert_eq!(ctx.cache_stats(), (1, 2));
        assert_eq!(ctx.cached_instances(), 1);
        assert_eq!(ctx.cached_subjoin_bytes(), 0);
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
    fn single_relation_query_has_a_unit_boundary_map() {
        let q = JoinQuery::star(1, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![0, 1], 3).unwrap();
        inst.relation_mut(0).add(vec![2, 5], 4).unwrap();
        for threads in [1usize, 4] {
            let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
            let map = ctx.all_boundary_values(&q, &inst).unwrap();
            assert_eq!(map, BTreeMap::from([(Vec::new(), 1)]), "threads {threads}");
            // LS = T_∅ = 1: one added tuple adds exactly one join result.
            assert_eq!(ctx.local_sensitivity(&q, &inst).unwrap(), 1);
            // RS^β = max_k e^{-βk}·T_∅ = 1, at distance 0.
            let rs = ctx.residual_sensitivity(&q, &inst, 0.5).unwrap();
            assert_eq!(
                (rs.value, rs.maximizing_distance),
                (1.0, 0),
                "threads {threads}"
            );
        }
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
