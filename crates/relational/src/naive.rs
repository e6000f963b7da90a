//! The original `BTreeMap`-based join engine, retained as a cross-check
//! oracle.
//!
//! This module preserves the pre-hash-join evaluation strategy verbatim:
//! results and indexes are ordered maps keyed by `Vec<Value>`, relations are
//! folded strictly left-to-right, and every projection allocates.  It is
//! deliberately simple and obviously correct; the property tests
//! (`tests/properties.rs`) and the `join_throughput` / `residual_subsets`
//! benchmarks compare the optimised engine in [`crate::join`](mod@crate::join)
//! against it.

use std::collections::BTreeMap;

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::tuple::{
    intersect_attrs, project_positions, project_with_positions, union_attrs, Value,
};
use crate::Result;

/// A sparse join result produced by the naive engine: an ordered map from
/// result tuples to weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveJoinResult {
    attrs: Vec<AttrId>,
    tuples: BTreeMap<Vec<Value>, u128>,
}

impl NaiveJoinResult {
    /// The attribute list the result tuples range over (sorted).
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Total weight `Σ_t Join(t)` (saturating).
    pub fn total(&self) -> u128 {
        self.tuples
            .values()
            .fold(0u128, |acc, &w| acc.saturating_add(w))
    }

    /// Number of distinct result tuples.
    pub fn distinct_count(&self) -> usize {
        self.tuples.len()
    }

    /// Iterates over `(tuple, weight)` pairs in sorted order (the map's
    /// natural order).
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, u128)> {
        self.tuples.iter().map(|(t, &w)| (t, w))
    }

    /// Weight of a specific tuple (zero if absent).
    pub fn weight(&self, tuple: &[Value]) -> u128 {
        self.tuples.get(tuple).copied().unwrap_or(0)
    }

    /// Groups the result by a subset of its attributes, summing weights.
    pub fn group_by(&self, group_by: &[AttrId]) -> Result<BTreeMap<Vec<Value>, u128>> {
        let positions = project_positions(&self.attrs, group_by)?;
        let mut out: BTreeMap<Vec<Value>, u128> = BTreeMap::new();
        for (t, w) in self.iter() {
            let key = project_with_positions(t, &positions);
            let slot = out.entry(key).or_insert(0);
            *slot = slot.saturating_add(w);
        }
        if group_by.is_empty() && out.is_empty() {
            out.insert(Vec::new(), 0);
        }
        Ok(out)
    }

    /// Maximum group weight over `group_by` (zero for an empty result).
    pub fn max_group_weight(&self, group_by: &[AttrId]) -> Result<u128> {
        Ok(self
            .group_by(group_by)?
            .values()
            .copied()
            .max()
            .unwrap_or(0))
    }
}

/// Joins the subset `rels` of the instance's relations with the original
/// left-deep `BTreeMap` strategy.  Same contract as
/// [`crate::join::join_subset`].
pub fn join_subset_naive(
    query: &JoinQuery,
    instance: &Instance,
    rels: &[usize],
) -> Result<NaiveJoinResult> {
    query.check_subset(rels)?;
    if rels.is_empty() {
        return Err(RelationalError::InvalidRelationSubset(
            "cannot join an empty set of relations; the empty join is handled by callers"
                .to_string(),
        ));
    }
    if instance.num_relations() != query.num_relations() {
        return Err(RelationalError::RelationCountMismatch {
            expected: query.num_relations(),
            got: instance.num_relations(),
        });
    }

    // Start from the first relation, in the caller-given order.
    let first = instance.relation(rels[0]);
    let mut acc_attrs: Vec<AttrId> = first.attrs().to_vec();
    let mut acc: BTreeMap<Vec<Value>, u128> =
        first.iter().map(|(t, f)| (t.clone(), f as u128)).collect();

    for &ri in &rels[1..] {
        let rel = instance.relation(ri);
        let rel_attrs = rel.attrs().to_vec();
        let shared = intersect_attrs(&acc_attrs, &rel_attrs);
        let new_attrs = union_attrs(&acc_attrs, &rel_attrs);

        // Index the relation's tuples by their projection onto the shared
        // attributes.
        let rel_shared_pos = project_positions(&rel_attrs, &shared)?;
        let mut index: BTreeMap<Vec<Value>, Vec<(&Vec<Value>, u64)>> = BTreeMap::new();
        for (t, f) in rel.iter() {
            index
                .entry(project_with_positions(t, &rel_shared_pos))
                .or_default()
                .push((t, f));
        }

        let acc_shared_pos = project_positions(&acc_attrs, &shared)?;
        enum Side {
            Left(usize),
            Right(usize),
        }
        let merge_plan: Vec<Side> = new_attrs
            .iter()
            .map(|a| match acc_attrs.binary_search(a) {
                Ok(p) => Side::Left(p),
                Err(_) => Side::Right(
                    rel_attrs
                        .binary_search(a)
                        .expect("attribute must originate from one operand"),
                ),
            })
            .collect();

        let mut next: BTreeMap<Vec<Value>, u128> = BTreeMap::new();
        for (t, w) in &acc {
            let key = project_with_positions(t, &acc_shared_pos);
            if let Some(matches) = index.get(&key) {
                for (rt, rf) in matches {
                    let merged: Vec<Value> = merge_plan
                        .iter()
                        .map(|side| match side {
                            Side::Left(p) => t[*p],
                            Side::Right(p) => rt[*p],
                        })
                        .collect();
                    let contribution = w.saturating_mul(*rf as u128);
                    let slot = next.entry(merged).or_insert(0);
                    *slot = slot.saturating_add(contribution);
                }
            }
        }
        acc_attrs = new_attrs;
        acc = next;
    }

    Ok(NaiveJoinResult {
        attrs: acc_attrs,
        tuples: acc,
    })
}

/// Joins all relations of the query with the naive engine.
pub fn join_naive(query: &JoinQuery, instance: &Instance) -> Result<NaiveJoinResult> {
    let all: Vec<usize> = (0..query.num_relations()).collect();
    join_subset_naive(query, instance, &all)
}

/// The join size computed by the naive engine.
pub fn join_size_naive(query: &JoinQuery, instance: &Instance) -> Result<u128> {
    Ok(join_naive(query, instance)?.total())
}

/// All boundary values `T_F(I)` for proper subsets `F ⊊ [m]` computed from
/// scratch with the naive engine — the pre-sub-join-cache strategy, kept as
/// the oracle for the residual-sensitivity property tests and the
/// `residual_subsets` benchmark.
pub fn all_boundary_values_naive(
    query: &JoinQuery,
    instance: &Instance,
) -> Result<BTreeMap<Vec<usize>, u128>> {
    let m = query.num_relations();
    let mut out = BTreeMap::new();
    for mask in 0u32..((1u32 << m) - 1) {
        let f: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
        let value = if f.is_empty() {
            1
        } else {
            let boundary = query.boundary(&f)?;
            join_subset_naive(query, instance, &f)?.max_group_weight(&boundary)?
        };
        out.insert(f, value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    #[test]
    fn naive_engine_matches_manual_two_table() {
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
        let inst = Instance::new(vec![r1, r2]);
        let result = join_naive(&q, &inst).unwrap();
        assert_eq!(result.total(), 9);
        assert_eq!(result.weight(&[1, 0, 1]), 2);
        assert_eq!(result.max_group_weight(&ids(&[1])).unwrap(), 6);
        assert_eq!(join_size_naive(&q, &inst).unwrap(), 9);
    }

    #[test]
    fn naive_boundary_values_cover_all_proper_subsets() {
        let q = JoinQuery::star(3, 8).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        let values = all_boundary_values_naive(&q, &inst).unwrap();
        assert_eq!(values.len(), 7);
        assert_eq!(values.get(&vec![]).copied(), Some(1));
    }
}
