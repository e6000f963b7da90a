//! Local sensitivity of the counting join-size query.
//!
//! Adding (or removing) one copy of a tuple `t* ∈ D_i` changes `count(I)` by
//! exactly the number of join results the tuple participates in, i.e. the
//! total weight of the sub-join of the *other* relations restricted to the
//! values `t*` takes on the shared attributes.  Maximising over `t*` and `i`
//! gives
//!
//! ```text
//! LS_count(I) = max_{i ∈ [m]} T_{[m]∖{i}}(I)
//! ```
//!
//! which for the two-table query of Section 3.1 specialises to
//! `Δ = max_b max{deg_{1,B}(b), deg_{2,B}(b)}`.

use dpsyn_relational::degree::two_table_max_shared_degree;
use dpsyn_relational::{ExecContext, Instance, JoinQuery};

use crate::context_ext::SensitivityOps;
use crate::Result;

/// Local sensitivity `LS_count(I) = max_i T_{[m]∖{i}}(I)` of the counting
/// query, on [`ExecContext::default`].
///
/// The `T_{[m]∖{i}}` are the size-`(m-1)` entries of the boundary map that
/// residual sensitivity reads, so this reads that map
/// ([`SensitivityOps::local_sensitivity`]).
pub fn local_sensitivity(query: &JoinQuery, instance: &Instance) -> Result<u128> {
    ExecContext::default().local_sensitivity(query, instance)
}

/// The two-table specialisation `Δ = max_b max{deg_{1,B}(b), deg_{2,B}(b)}`
/// (Section 3.1).  Identical to [`local_sensitivity`] on two-table queries but
/// cheaper, and the form used by Algorithm 1 and Algorithm 5.
pub fn two_table_local_sensitivity(query: &JoinQuery, instance: &Instance) -> Result<u64> {
    Ok(two_table_max_shared_degree(query, instance)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_relational::{join_size, AttrId, NeighborEdit, Relation};

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
    fn two_table_forms_agree() {
        let (q, inst) = two_table();
        let ls = local_sensitivity(&q, &inst).unwrap();
        let delta = two_table_local_sensitivity(&q, &inst).unwrap();
        assert_eq!(ls, delta as u128);
        assert_eq!(delta, 3); // deg1(B=0) = 3 dominates.
    }

    #[test]
    fn local_sensitivity_bounds_every_single_edit() {
        // |count(I) - count(I')| ≤ LS(I) for every neighbouring I' obtained by
        // removing an existing tuple, and for targeted additions.
        let (q, inst) = two_table();
        let ls = local_sensitivity(&q, &inst).unwrap();
        let base = join_size(&q, &inst).unwrap();
        for edit in inst.removal_edits() {
            let neighbor = inst.apply_edit(&edit).unwrap();
            let diff = join_size(&q, &neighbor).unwrap().abs_diff(base);
            assert!(diff <= ls, "diff {diff} exceeds LS {ls}");
        }
        // Adding the highest-impact tuple achieves the bound: a new R2 tuple
        // with B = 0 joins with 3 existing R1 tuples.
        let add = NeighborEdit::Add {
            relation: 1,
            tuple: vec![0, 7],
        };
        let neighbor = inst.apply_edit(&add).unwrap();
        assert_eq!(join_size(&q, &neighbor).unwrap() - base, ls);
    }

    #[test]
    fn parallel_local_sensitivity_matches_sequential() {
        // Sized past DEFAULT_MIN_PAR_INSTANCE so the pool path actually runs.
        let q = JoinQuery::star(4, 64).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..4usize {
            for hub in 0..52u64 {
                for petal in 0..10u64 {
                    inst.relation_mut(r)
                        .add(vec![hub, (hub + petal + r as u64) % 64], 1 + r as u64)
                        .unwrap();
                }
            }
        }
        let seq = ExecContext::sequential()
            .local_sensitivity(&q, &inst)
            .unwrap();
        for threads in [2usize, 4, 7] {
            let par = ExecContext::with_threads(threads)
                .local_sensitivity(&q, &inst)
                .unwrap();
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn empty_instance_has_zero_local_sensitivity() {
        let q = JoinQuery::two_table(4, 4, 4);
        let inst = Instance::empty_for(&q).unwrap();
        assert_eq!(local_sensitivity(&q, &inst).unwrap(), 0);
    }

    #[test]
    fn star_join_local_sensitivity() {
        // Star with hub B: R1(B,A1), R2(B,A2), R3(B,A3).
        let q = JoinQuery::star(3, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        // Hub value 0: 2 tuples in R1, 3 in R2, 4 in R3.
        for a in 0..2u64 {
            inst.relation_mut(0).add(vec![0, a], 1).unwrap();
        }
        for a in 0..3u64 {
            inst.relation_mut(1).add(vec![0, a], 1).unwrap();
        }
        for a in 0..4u64 {
            inst.relation_mut(2).add(vec![0, a], 1).unwrap();
        }
        // Adding one R1 tuple with hub 0 creates 3·4 = 12 new join results,
        // which is the largest single-tuple impact.
        assert_eq!(local_sensitivity(&q, &inst).unwrap(), 12);
    }

    #[test]
    fn fig1_instance_has_local_sensitivity_n() {
        // Figure 1 (left): R1 = {(a_j, b_1)}_j, R2 = {(b_1, c_j)}_j, join size n².
        let n = 16u64;
        let q = JoinQuery::two_table(n, n, n);
        let mut inst = Instance::empty_for(&q).unwrap();
        for j in 0..n {
            inst.relation_mut(0).add(vec![j, 0], 1).unwrap();
            inst.relation_mut(1).add(vec![0, j], 1).unwrap();
        }
        assert_eq!(local_sensitivity(&q, &inst).unwrap(), n as u128);
        assert_eq!(join_size(&q, &inst).unwrap(), (n * n) as u128);
    }
}
