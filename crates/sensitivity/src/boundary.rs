//! Maximum boundary queries `T_E` (Equation 1) and `q`-aggregate queries
//! `T_{E,y}` (Definition 4.6).
//!
//! `T_E(I)` is the largest, over boundary tuples `t ∈ dom(∂E)`, total weight
//! of the sub-join of the relations in `E` restricted to `t`.  The residual
//! sensitivity of Definition 3.6 is assembled from these values, and the
//! hierarchical machinery of Section 4.2 upper-bounds them by products of
//! maximum degrees.

use dpsyn_relational::{grouped_join_size, AttrId, Instance, JoinQuery};

use crate::Result;

/// The `q`-aggregate query `T_{E,y}(I)` of Definition 4.6: the maximum, over
/// tuples `t ∈ dom(y)`, of the total weight of sub-join tuples of `E`
/// projecting onto `t`.
///
/// Conventions:
/// * `E = ∅` yields 1 (the empty product), matching `T_∅(I) = 1` in the
///   residual-sensitivity definition;
/// * an empty sub-join result yields 0.
pub fn aggregate_query(
    query: &JoinQuery,
    instance: &Instance,
    e: &[usize],
    y: &[AttrId],
) -> Result<u128> {
    if e.is_empty() {
        return Ok(1);
    }
    let groups = grouped_join_size(query, instance, e, y)?;
    Ok(groups.values().copied().max().unwrap_or(0))
}

/// The maximum boundary query `T_E(I) = T_{E, ∂E}(I)` of Equation (1).
pub fn boundary_query(query: &JoinQuery, instance: &Instance, e: &[usize]) -> Result<u128> {
    if e.is_empty() {
        return Ok(1);
    }
    let boundary = query.boundary(e)?;
    aggregate_query(query, instance, e, &boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_relational::{Attribute, Relation, Schema};

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
    fn two_table_boundary_queries_are_max_degrees() {
        let (q, inst) = two_table();
        // T_{E={0}}: boundary is {B}; max degree of R1 on B is 3 (value 0).
        assert_eq!(boundary_query(&q, &inst, &[0]).unwrap(), 3);
        // T_{E={1}}: max degree of R2 on B is 7 (value 5).
        assert_eq!(boundary_query(&q, &inst, &[1]).unwrap(), 7);
        // T over both relations: boundary empty, so this is the join size.
        assert_eq!(boundary_query(&q, &inst, &[0, 1]).unwrap(), 9);
        // Empty E: unit by convention.
        assert_eq!(boundary_query(&q, &inst, &[]).unwrap(), 1);
    }

    #[test]
    fn aggregate_query_with_custom_projection() {
        let (q, inst) = two_table();
        // T_{E={1}, y={B,C}} is the maximum frequency of a single tuple of R2.
        assert_eq!(aggregate_query(&q, &inst, &[1], &ids(&[1, 2])).unwrap(), 7);
        // T_{E={1}, y=∅} is the total size of R2.
        assert_eq!(aggregate_query(&q, &inst, &[1], &[]).unwrap(), 12);
    }

    #[test]
    fn path_query_boundaries() {
        // R1(A0,A1), R2(A1,A2), R3(A2,A3), with a chain of matching tuples.
        let q = JoinQuery::path(3, 4).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![0, 1], 2).unwrap();
        inst.relation_mut(1).add(vec![1, 2], 3).unwrap();
        inst.relation_mut(2).add(vec![2, 3], 5).unwrap();
        // E = {0,1}: boundary {A2}; join of R1⋈R2 grouped by A2 → 6.
        assert_eq!(boundary_query(&q, &inst, &[0, 1]).unwrap(), 6);
        // E = {1,2}: boundary {A1}; join of R2⋈R3 grouped by A1 → 15.
        assert_eq!(boundary_query(&q, &inst, &[1, 2]).unwrap(), 15);
        // E = {0,2}: boundary {A1, A3}... R1 and R3 do not share attributes,
        // so the sub-join is a cross product; grouped by (A1,A3) the max is 10.
        assert_eq!(boundary_query(&q, &inst, &[0, 2]).unwrap(), 10);
    }

    #[test]
    fn empty_instance_boundary_is_zero() {
        let schema = Schema::new(vec![
            Attribute::new("A", 4),
            Attribute::new("B", 4),
            Attribute::new("C", 4),
        ]);
        let q = JoinQuery::new(schema, vec![ids(&[0, 1]), ids(&[1, 2])]).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        assert_eq!(boundary_query(&q, &inst, &[0]).unwrap(), 0);
        assert_eq!(boundary_query(&q, &inst, &[0, 1]).unwrap(), 0);
    }
}
