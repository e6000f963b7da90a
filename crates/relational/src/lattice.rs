//! The sub-join lattice of one `(query, instance)` pair.
//!
//! Residual sensitivity (Definition 3.6) reads the boundary value `T_F(I)`
//! of every proper subset `F ⊊ [m]` of the relations, and local sensitivity
//! reads the size-`(m-1)` ones among them.  Joining each subset from the
//! base relations would repeat almost all of the work: the join of
//! `{0, 1, 2}` contains the join of `{0, 1}` as an intermediate.
//!
//! [`SubJoinLattice::build`] therefore materialises every non-empty proper
//! subset with **one** binary hash-join step from the subset minus its
//! **highest relation index** (the fixed-prefix chain: `{0, 2, 3}` is built
//! from `{0, 2}`).  It walks the lattice level by level: level `k` holds the
//! subsets of `k` relations, whose parents all sit on level `k - 1`, so the
//! masks of one level are independent and run through the worker pool of
//! [`crate::exec`], each as one sequential join step.  A sub-join is the
//! same weighted tuple set under every decomposition, and its rows come out
//! in the same physical order at every worker count, so consumers read the
//! same bytes at every parallelism.
//!
//! **Memory:** the lattice holds all `2^m - 2` proper sub-joins at once.  It
//! lives for one computation: the sensitivity entry points build one per
//! call and drop it on return, and no [`crate::ExecContext`] keeps one (a
//! context keeps the *values* the lattice yields, in its slot memo).  `m` is
//! a small constant in the paper's data-complexity setting.

use crate::error::RelationalError;
use crate::exec::{self, Parallelism};
use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::join::{hash_join_step_with, JoinResult};
use crate::Result;

/// The relation a non-empty `mask` peels off (joins last): its highest
/// relation index.
fn pivot(mask: u32) -> usize {
    debug_assert!(mask != 0);
    (31 - mask.leading_zeros()) as usize
}

/// The subset `mask`'s sub-join is built from: `mask` minus its pivot (zero
/// for singletons).
fn parent(mask: u32) -> u32 {
    mask & !(1u32 << pivot(mask))
}

/// Every non-empty proper sub-join of one `(query, instance)` pair, indexed
/// by the relation-subset bitmask (bit `i` set ⇔ relation `i` joined).
#[derive(Debug)]
pub struct SubJoinLattice {
    /// The sub-join of mask `k` at index `k - 1`, for `k` in `1..2^m - 1`.
    joins: Vec<JoinResult>,
}

impl SubJoinLattice {
    /// Joins every non-empty proper subset of the query's relations, level
    /// by level, with the masks of each level spread over `par` workers
    /// (see the module docs).  Fails if the instance's relation count does
    /// not match the query's, or if the query has more than 31 relations
    /// (a mask is a `u32`).
    pub fn build(query: &JoinQuery, instance: &Instance, par: Parallelism) -> Result<Self> {
        if instance.num_relations() != query.num_relations() {
            return Err(RelationalError::RelationCountMismatch {
                expected: query.num_relations(),
                got: instance.num_relations(),
            });
        }
        let m = query.num_relations() as u32;
        // Strictly below 32 so that the full mask `2^m - 1` fits.
        if m >= 32 {
            return Err(RelationalError::InvalidRelationSubset(format!(
                "the sub-join lattice supports at most 31 relations, got {m}"
            )));
        }
        let full = (1u32 << m) - 1;
        let mut joins: Vec<Option<JoinResult>> = (1..full).map(|_| None).collect();
        for level in 1..m {
            let masks: Vec<u32> = (1..full)
                .filter(|&mask| mask.count_ones() == level)
                .collect();
            let built = exec::par_map(par, masks.len(), |i| {
                let mask = masks[i];
                let relation = instance.relation(pivot(mask));
                match parent(mask) {
                    0 => Ok(JoinResult::from_relation(relation)),
                    rest => hash_join_step_with(
                        joins[rest as usize - 1]
                            .as_ref()
                            .expect("parents sit on the level below"),
                        relation,
                        Parallelism::SEQUENTIAL,
                    ),
                }
            });
            for (mask, join) in masks.into_iter().zip(built) {
                joins[mask as usize - 1] = Some(join?);
            }
        }
        let joins = joins
            .into_iter()
            .map(|join| join.expect("every proper mask sits on a level below m"))
            .collect();
        Ok(SubJoinLattice { joins })
    }

    /// The sub-join of the relations in `mask`.
    ///
    /// # Panics
    ///
    /// If `mask` is empty or not a proper subset of the query's relations.
    pub fn get(&self, mask: u32) -> &JoinResult {
        assert!(mask != 0, "the empty subset has no sub-join");
        &self.joins[mask as usize - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::join::join_subset;
    use crate::naive::join_subset_naive;
    use crate::relation::Relation;
    use crate::tuple::Value;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn rels_of(mask: u32, m: usize) -> Vec<usize> {
        (0..m).filter(|i| mask & (1 << i) != 0).collect()
    }

    /// The naive engine's sub-join of `mask` as sorted `(tuple, weight)` rows.
    fn naive_rows(q: &JoinQuery, inst: &Instance, mask: u32) -> Vec<(Vec<Value>, u128)> {
        let rels = rels_of(mask, q.num_relations());
        join_subset_naive(q, inst, &rels)
            .unwrap()
            .iter()
            .map(|(t, w)| (t.clone(), w))
            .collect()
    }

    /// A result's rows in sorted (emit) order.
    fn sorted_rows(result: &JoinResult) -> Vec<(Vec<Value>, u128)> {
        result.iter().map(|(t, w)| (t.to_vec(), w)).collect()
    }

    /// A result's rows in construction order: equal only if the two results
    /// are byte-identical, not merely equal as weighted tuple sets.
    fn stored_rows(result: &JoinResult) -> Vec<(&[Value], u128)> {
        result.iter_unordered().collect()
    }

    fn star_instance(m: usize) -> (JoinQuery, Instance) {
        let q = JoinQuery::star(m, 16).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..m {
            for hub in 0..4u64 {
                for petal in 0..3u64 {
                    inst.relation_mut(r)
                        .add(vec![hub, (petal + r as u64) % 16], 1 + (hub % 2))
                        .unwrap();
                }
            }
        }
        (q, inst)
    }

    #[test]
    fn lattice_subjoins_match_direct_evaluation() {
        let (q, inst) = star_instance(4);
        let lattice = SubJoinLattice::build(&q, &inst, Parallelism::SEQUENTIAL).unwrap();
        for mask in 1u32..((1 << 4) - 1) {
            let rels = rels_of(mask, 4);
            let direct = join_subset(&q, &inst, &rels).unwrap();
            let built = lattice.get(mask);
            assert_eq!(built.attrs(), direct.attrs());
            assert_eq!(built.total(), direct.total());
            assert_eq!(built.distinct_count(), direct.distinct_count());
            assert_eq!(sorted_rows(built), naive_rows(&q, &inst, mask));
        }
    }

    #[test]
    fn fixed_prefix_chain_peels_the_highest_index() {
        assert_eq!(pivot(0b1011), 3);
        assert_eq!(parent(0b1011), 0b0011);
        assert_eq!(pivot(0b0001), 0);
        assert_eq!(parent(0b0001), 0);
    }

    #[test]
    fn mismatched_instance_and_oversized_query_rejected() {
        let q = JoinQuery::two_table(4, 4, 4);
        let r1 = Relation::from_tuples(ids(&[0, 1]), vec![(vec![0, 0], 1)]).unwrap();
        let inst = Instance::new(vec![r1]);
        assert!(SubJoinLattice::build(&q, &inst, Parallelism::SEQUENTIAL).is_err());
        // 32 relations overflow a `u32` mask; the check runs before any join.
        let q = JoinQuery::star(32, 2).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        assert!(SubJoinLattice::build(&q, &inst, Parallelism::SEQUENTIAL).is_err());
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        let (q, inst) = star_instance(4);
        let sequential = SubJoinLattice::build(&q, &inst, Parallelism::SEQUENTIAL).unwrap();
        for &threads in &[1usize, 2, 4] {
            let parallel = SubJoinLattice::build(&q, &inst, Parallelism::threads(threads)).unwrap();
            for mask in 1u32..((1 << 4) - 1) {
                let (a, b) = (parallel.get(mask), sequential.get(mask));
                assert_eq!(
                    stored_rows(a),
                    stored_rows(b),
                    "mask {mask:#b}, threads {threads}"
                );
                assert_eq!(sorted_rows(a), naive_rows(&q, &inst, mask));
            }
        }
    }

    fn path_instance(m: usize, per_rel: u64) -> (JoinQuery, Instance) {
        let q = JoinQuery::path(m, 64).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..m {
            for v in 0..per_rel {
                inst.relation_mut(r)
                    .add(vec![v % 64, (v * 3 + 1) % 64], 1 + v % 2)
                    .unwrap();
            }
        }
        (q, inst)
    }

    /// Five relations all joining on `k`; R0 and R1 additionally share the
    /// functionally-correlated `kk = k mod 16` and carry payload attributes
    /// `p0`/`p1`, which make their pairwise join fat (8×8 payload
    /// combinations per key) and its key two attributes wide.
    fn correlated_instance() -> (JoinQuery, Instance) {
        use crate::attr::{Attribute, Schema};
        let schema = Schema::new(vec![
            Attribute::new("k", 64),
            Attribute::new("kk", 16),
            Attribute::new("p0", 8),
            Attribute::new("p1", 8),
            Attribute::new("a", 16),
            Attribute::new("b", 16),
            Attribute::new("c", 16),
        ]);
        let q = JoinQuery::new(
            schema,
            vec![
                vec![AttrId(0), AttrId(1), AttrId(2)],
                vec![AttrId(0), AttrId(1), AttrId(3)],
                vec![AttrId(0), AttrId(4)],
                vec![AttrId(0), AttrId(5)],
                vec![AttrId(0), AttrId(6)],
            ],
        )
        .unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for x in 0..64u64 {
            for j in 0..8u64 {
                inst.relation_mut(0).add(vec![x, x % 16, j], 1).unwrap();
                inst.relation_mut(1).add(vec![x, x % 16, j], 1).unwrap();
            }
            inst.relation_mut(2).add(vec![x, x % 16], 1).unwrap();
            inst.relation_mut(3).add(vec![x, x % 16], 1).unwrap();
            inst.relation_mut(4).add(vec![x, x % 16], 1).unwrap();
        }
        (q, inst)
    }

    #[test]
    fn lattice_matches_direct_evaluation_on_paths_and_wide_keys() {
        // A linear path, whose fixed-prefix chains cross cross-product
        // parents, and the correlated instance with its two-attribute key.
        for (q, inst) in [path_instance(4, 24), correlated_instance()] {
            let m = q.num_relations();
            let sequential = SubJoinLattice::build(&q, &inst, Parallelism::SEQUENTIAL).unwrap();
            let parallel = SubJoinLattice::build(&q, &inst, Parallelism::threads(2)).unwrap();
            for mask in 1u32..((1 << m) - 1) {
                let direct = join_subset(&q, &inst, &rels_of(mask, m)).unwrap();
                // Order-insensitive equality: the lattice's decomposition
                // emits rows in a different construction order than the
                // size-ordered fold, but the weighted tuple sets — and every
                // aggregate downstream consumers read — must match.
                assert_eq!(sequential.get(mask), &direct, "mask {mask:#b}");
                assert_eq!(
                    stored_rows(parallel.get(mask)),
                    stored_rows(sequential.get(mask)),
                    "parallel mask {mask:#b}"
                );
                assert_eq!(
                    sorted_rows(sequential.get(mask)),
                    naive_rows(&q, &inst, mask)
                );
            }
        }
    }
}
