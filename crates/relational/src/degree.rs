//! Degree statistics: `deg_{i,y}`, `Ψ_E`, `deg_{E,y}` and maximum degrees
//! `mdeg_E(y)` (Definition 4.7 of the paper).
//!
//! These statistics drive both the two-table partition procedure
//! (Algorithm 5, which buckets join values of attribute `B` by
//! `max{deg_{1,B}, deg_{2,B}}`) and the hierarchical partition procedure
//! (Algorithm 7, which buckets tuples over the ancestor attributes `y` by
//! `deg_{atom(x),y}`).

use std::collections::{BTreeMap, BTreeSet};

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::exec::Parallelism;
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::join_subset_impl;
use crate::tuple::{project_positions, project_with_positions, Value};
use crate::Result;

/// Degree map of a *single* relation onto attributes `y ⊆ x_i`
/// (frequency-weighted): `deg_{i,y}(t) = Σ_{t' : π_y t' = t} R_i(t')`.
pub fn deg_single(
    instance: &Instance,
    relation: usize,
    y: &[AttrId],
) -> Result<BTreeMap<Vec<Value>, u64>> {
    instance.relation(relation).degree_map(y)
}

/// `Ψ_E(I)`: the set of projections onto `⋂_{i∈E} x_i` of the tuples in the
/// sub-join of the relations in `E` (Definition 4.7).
pub fn psi(query: &JoinQuery, instance: &Instance, e: &[usize]) -> Result<BTreeSet<Vec<Value>>> {
    psi_impl(query, instance, e, Parallelism::default())
}

/// [`psi`] with its sub-join at an explicit parallelism level.
fn psi_impl(
    query: &JoinQuery,
    instance: &Instance,
    e: &[usize],
    par: Parallelism,
) -> Result<BTreeSet<Vec<Value>>> {
    if e.is_empty() {
        return Err(RelationalError::InvalidRelationSubset(
            "Ψ_E requires a non-empty relation subset".to_string(),
        ));
    }
    let cap = query.intersect_attrs(e)?;
    join_subset_impl(query, instance, e, par)?.distinct_projections(&cap)
}

/// Degree map `deg_{E,y}` of Definition 4.7:
///
/// * `|E| = 1`, say `E = {i}`: the frequency-weighted degree of relation `i`
///   onto `y`;
/// * `|E| > 1`: the number of elements of `Ψ_E(I)` projecting onto each tuple
///   `t ∈ dom(y)`, where `y ⊆ ⋂_{i∈E} x_i`.
pub fn deg_multi(
    query: &JoinQuery,
    instance: &Instance,
    e: &[usize],
    y: &[AttrId],
) -> Result<BTreeMap<Vec<Value>, u64>> {
    deg_multi_impl(query, instance, e, y, Parallelism::default())
}

/// Shared implementation behind [`deg_multi`] and
/// [`crate::ExecContext::deg_multi`].
pub(crate) fn deg_multi_impl(
    query: &JoinQuery,
    instance: &Instance,
    e: &[usize],
    y: &[AttrId],
    par: Parallelism,
) -> Result<BTreeMap<Vec<Value>, u64>> {
    match e.len() {
        0 => Err(RelationalError::InvalidRelationSubset(
            "deg_{E,y} requires a non-empty relation subset".to_string(),
        )),
        1 => deg_single(instance, e[0], y),
        _ => {
            let cap = query.intersect_attrs(e)?;
            let members = psi_impl(query, instance, e, par)?;
            count_projections(&members, &cap, y)
        }
    }
}

/// The `|E| > 1` body of [`deg_multi`]: counts, for
/// each tuple of `dom(y)`, the members of `Ψ_E` (over `cap = ⋂ x_i`)
/// projecting onto it.
fn count_projections(
    members: &BTreeSet<Vec<Value>>,
    cap: &[AttrId],
    y: &[AttrId],
) -> Result<BTreeMap<Vec<Value>, u64>> {
    let positions = project_positions(cap, y)?;
    let mut out: BTreeMap<Vec<Value>, u64> = BTreeMap::new();
    for t in members {
        let key = project_with_positions(t, &positions);
        *out.entry(key).or_insert(0) += 1;
    }
    Ok(out)
}

/// Maximum degree `mdeg_E(y) = max_t deg_{E,y}(t)` (zero on empty data).
pub fn max_degree(
    query: &JoinQuery,
    instance: &Instance,
    e: &[usize],
    y: &[AttrId],
) -> Result<u64> {
    Ok(deg_multi(query, instance, e, y)?
        .values()
        .copied()
        .max()
        .unwrap_or(0))
}

/// The two-table local sensitivity statistic of Section 3.1:
/// `Δ = max_b max{deg_{1,B}(b), deg_{2,B}(b)}` where `B` is the set of shared
/// attributes of the two relations.
pub fn two_table_max_shared_degree(query: &JoinQuery, instance: &Instance) -> Result<u64> {
    if query.num_relations() != 2 {
        return Err(RelationalError::InvalidRelationSubset(format!(
            "two_table_max_shared_degree requires exactly 2 relations, got {}",
            query.num_relations()
        )));
    }
    let shared = query.intersect_attrs(&[0, 1])?;
    let d1 = instance.relation(0).max_degree(&shared)?;
    let d2 = instance.relation(1).max_degree(&shared)?;
    Ok(d1.max(d2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

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
            vec![
                (vec![0, 0], 1),
                (vec![0, 1], 1),
                (vec![1, 3], 3),
                (vec![5, 5], 7),
            ],
        )
        .unwrap();
        (q, Instance::new(vec![r1, r2]))
    }

    #[test]
    fn single_relation_degrees_are_frequency_weighted() {
        let (_, inst) = two_table();
        let deg = deg_single(&inst, 0, &ids(&[1])).unwrap();
        assert_eq!(deg.get(&vec![0]).copied(), Some(3));
        assert_eq!(deg.get(&vec![1]).copied(), Some(1));
        let deg = deg_single(&inst, 1, &ids(&[1])).unwrap();
        assert_eq!(deg.get(&vec![0]).copied(), Some(2));
        assert_eq!(deg.get(&vec![1]).copied(), Some(3));
        assert_eq!(deg.get(&vec![5]).copied(), Some(7));
    }

    #[test]
    fn two_table_local_sensitivity_statistic() {
        let (q, inst) = two_table();
        // deg1,B: {0:3, 1:1}; deg2,B: {0:2, 1:3, 5:7} → max = 7.
        assert_eq!(two_table_max_shared_degree(&q, &inst).unwrap(), 7);
    }

    #[test]
    fn psi_counts_distinct_join_projections() {
        let (q, inst) = two_table();
        // Joining both relations, ⋂ = {B}; joining values are B=0 and B=1.
        let p = psi(&q, &inst, &[0, 1]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(&vec![0]));
        assert!(p.contains(&vec![1]));
    }

    #[test]
    fn multi_relation_degree_counts_distinct_projections() {
        let (q, inst) = two_table();
        // deg_{E={0,1}, y=∅} counts |Ψ_E| = 2 under the single empty key.
        let deg = deg_multi(&q, &inst, &[0, 1], &[]).unwrap();
        assert_eq!(deg.get(&Vec::new()).copied(), Some(2));
        // deg_{E={0,1}, y={B}} is 1 for each joining B value.
        let deg = deg_multi(&q, &inst, &[0, 1], &ids(&[1])).unwrap();
        assert_eq!(deg.get(&vec![0]).copied(), Some(1));
        assert_eq!(deg.get(&vec![1]).copied(), Some(1));
        assert_eq!(max_degree(&q, &inst, &[0, 1], &ids(&[1])).unwrap(), 1);
    }

    #[test]
    fn star_join_hub_degrees() {
        let q = JoinQuery::star(3, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for v in 0..3u64 {
            inst.relation_mut(0).add(vec![0, v], 1).unwrap();
        }
        inst.relation_mut(1).add(vec![0, 1], 1).unwrap();
        inst.relation_mut(2).add(vec![0, 2], 1).unwrap();
        // Relation 0 has degree 3 on hub value 0.
        assert_eq!(max_degree(&q, &inst, &[0], &ids(&[0])).unwrap(), 3);
        // The sub-join of relations {1, 2} has one joining hub value.
        assert_eq!(max_degree(&q, &inst, &[1, 2], &ids(&[0])).unwrap(), 1);
    }

    #[test]
    fn errors_on_empty_subset() {
        let (q, inst) = two_table();
        assert!(psi(&q, &inst, &[]).is_err());
        assert!(deg_multi(&q, &inst, &[], &[]).is_err());
    }

    #[test]
    fn two_table_statistic_requires_two_relations() {
        let q = JoinQuery::star(3, 8).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        assert!(two_table_max_shared_degree(&q, &inst).is_err());
    }
}
