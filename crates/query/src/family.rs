//! Query families (workloads) `Q`.
//!
//! The paper's guarantees are stated for a family `Q = ×_i Q_i` of product
//! queries; the error bounds depend on `|Q|` only logarithmically (through
//! `f_upper`), which is why synthetic-data release beats per-query noise when
//! `|Q|` is large.  This module provides the workload constructors used by the
//! examples and experiments:
//!
//! * the single counting query,
//! * random-sign product workloads (the hard-instance style of Theorem 1.4's
//!   lower bound constructions),
//! * random predicate (marginal-style) workloads over attribute values,
//! * explicit cross products of per-relation families.

use rand::Rng;
use std::collections::BTreeSet;

use dpsyn_relational::{JoinQuery, Value};

use crate::error::QueryError;
use crate::linear::RelationQuery;
use crate::product::ProductQuery;
use crate::Result;

/// A finite family of product queries over a fixed join query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFamily {
    queries: Vec<ProductQuery>,
}

impl QueryFamily {
    /// Wraps an explicit list of queries, validating each against the join
    /// query.
    pub fn new(query: &JoinQuery, queries: Vec<ProductQuery>) -> Result<Self> {
        if queries.is_empty() {
            return Err(QueryError::InvalidWorkload(
                "a query family must contain at least one query".to_string(),
            ));
        }
        for q in &queries {
            q.validate(query)?;
        }
        Ok(QueryFamily { queries })
    }

    /// The family containing only the counting join-size query.
    pub fn counting(query: &JoinQuery) -> Self {
        QueryFamily {
            queries: vec![ProductQuery::counting(query.num_relations())],
        }
    }

    /// A workload of `count` random-sign product queries: each component of
    /// each query assigns an independent pseudo-random ±1 weight to every
    /// tuple of its relation.  The counting query is always included as the
    /// first entry so that join-size information is represented.
    pub fn random_sign<R: Rng>(query: &JoinQuery, count: usize, rng: &mut R) -> Result<Self> {
        if count == 0 {
            return Err(QueryError::InvalidWorkload(
                "requested an empty random-sign workload".to_string(),
            ));
        }
        let m = query.num_relations();
        let mut queries = Vec::with_capacity(count);
        queries.push(ProductQuery::counting(m));
        while queries.len() < count {
            let components = (0..m)
                .map(|_| RelationQuery::SignHash {
                    seed: rng.random::<u64>(),
                })
                .collect();
            queries.push(ProductQuery::new(components));
        }
        Ok(QueryFamily { queries })
    }

    /// A workload of `count` random predicate queries: each component selects,
    /// for each attribute of its relation independently, either no constraint
    /// (probability `1 - constrain_prob`) or a random subset containing about
    /// half of the attribute's domain.  These model marginal / range-style
    /// analytics over the join.
    pub fn random_predicate<R: Rng>(
        query: &JoinQuery,
        count: usize,
        constrain_prob: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if count == 0 {
            return Err(QueryError::InvalidWorkload(
                "requested an empty predicate workload".to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&constrain_prob) {
            return Err(QueryError::InvalidWorkload(format!(
                "constrain_prob must be in [0, 1], got {constrain_prob}"
            )));
        }
        let m = query.num_relations();
        let mut queries = Vec::with_capacity(count);
        queries.push(ProductQuery::counting(m));
        while queries.len() < count {
            let mut components = Vec::with_capacity(m);
            for i in 0..m {
                let attrs = query.relation_attrs(i);
                let mut allowed = Vec::with_capacity(attrs.len());
                for &attr in attrs {
                    if rng.random::<f64>() < constrain_prob {
                        let domain = query.schema().domain_size(attr).map_err(QueryError::from)?;
                        let mut set: BTreeSet<Value> = BTreeSet::new();
                        for v in 0..domain {
                            if rng.random::<bool>() {
                                set.insert(v);
                            }
                        }
                        if set.is_empty() {
                            set.insert(rng.random_range(0..domain.max(1)));
                        }
                        allowed.push(Some(set));
                    } else {
                        allowed.push(None);
                    }
                }
                components.push(RelationQuery::Predicate { allowed });
            }
            queries.push(ProductQuery::new(components));
        }
        Ok(QueryFamily { queries })
    }

    /// The cross product `Q = ×_i Q_i` of per-relation families (the paper's
    /// formulation).  The size of the result is `Π_i |Q_i|`.
    pub fn cross_product(query: &JoinQuery, per_relation: Vec<Vec<RelationQuery>>) -> Result<Self> {
        if per_relation.len() != query.num_relations() {
            return Err(QueryError::ComponentCountMismatch {
                expected: query.num_relations(),
                got: per_relation.len(),
            });
        }
        if per_relation.iter().any(|f| f.is_empty()) {
            return Err(QueryError::InvalidWorkload(
                "every per-relation family must be non-empty".to_string(),
            ));
        }
        let mut queries: Vec<Vec<RelationQuery>> = vec![Vec::new()];
        for family in &per_relation {
            let mut next = Vec::with_capacity(queries.len() * family.len());
            for prefix in &queries {
                for component in family {
                    let mut q = prefix.clone();
                    q.push(component.clone());
                    next.push(q);
                }
            }
            queries = next;
        }
        Ok(QueryFamily {
            queries: queries.into_iter().map(ProductQuery::new).collect(),
        })
    }

    /// Number of queries `|Q|`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the family is empty (never true for a constructed family).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries.
    pub fn queries(&self) -> &[ProductQuery] {
        &self.queries
    }

    /// The `i`-th query.
    pub fn query(&self, i: usize) -> &ProductQuery {
        &self.queries[i]
    }

    /// Iterates over the queries.
    pub fn iter(&self) -> impl Iterator<Item = &ProductQuery> {
        self.queries.iter()
    }

    /// An exact, length-prefixed encoding of the family: the number of
    /// queries, then per query its number of components and each
    /// component's variant tag and fields (seeds, `f64` bits, tuples and
    /// predicate sets, every sequence prefixed by its length).
    ///
    /// Two families have equal keys exactly when they are bitwise-identical
    /// — `-0.0` and `+0.0` weights give different keys — so memoised
    /// per-workload values can be looked up by comparing keys in full.
    pub fn key(&self) -> Vec<u64> {
        let mut key = vec![self.queries.len() as u64];
        for q in &self.queries {
            key.push(q.arity() as u64);
            for component in q.components() {
                component.encode_key(&mut key);
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn counting_family_has_one_query() {
        let q = JoinQuery::two_table(4, 4, 4);
        let f = QueryFamily::counting(&q);
        assert_eq!(f.len(), 1);
        assert_eq!(f.query(0).components()[0], RelationQuery::AllOne);
    }

    #[test]
    fn random_sign_workload_has_requested_size() {
        let q = JoinQuery::two_table(4, 4, 4);
        let f = QueryFamily::random_sign(&q, 16, &mut rng()).unwrap();
        assert_eq!(f.len(), 16);
        // First query is the counting query.
        assert_eq!(f.query(0).components()[0], RelationQuery::AllOne);
        // Others are sign queries.
        assert!(matches!(
            f.query(1).components()[0],
            RelationQuery::SignHash { .. }
        ));
        assert!(QueryFamily::random_sign(&q, 0, &mut rng()).is_err());
    }

    #[test]
    fn random_sign_is_reproducible_from_seed() {
        let q = JoinQuery::two_table(4, 4, 4);
        let f1 = QueryFamily::random_sign(&q, 8, &mut rng()).unwrap();
        let f2 = QueryFamily::random_sign(&q, 8, &mut rng()).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn predicate_workload_respects_probability_bounds() {
        let q = JoinQuery::star(3, 8).unwrap();
        let f = QueryFamily::random_predicate(&q, 10, 0.7, &mut rng()).unwrap();
        assert_eq!(f.len(), 10);
        assert!(QueryFamily::random_predicate(&q, 10, 1.5, &mut rng()).is_err());
        assert!(QueryFamily::random_predicate(&q, 0, 0.5, &mut rng()).is_err());
    }

    #[test]
    fn cross_product_size_multiplies() {
        let q = JoinQuery::two_table(4, 4, 4);
        let f = QueryFamily::cross_product(
            &q,
            vec![
                vec![RelationQuery::AllOne, RelationQuery::SignHash { seed: 1 }],
                vec![
                    RelationQuery::AllOne,
                    RelationQuery::SignHash { seed: 2 },
                    RelationQuery::SignHash { seed: 3 },
                ],
            ],
        )
        .unwrap();
        assert_eq!(f.len(), 6);
        // Wrong number of per-relation families is rejected.
        assert!(QueryFamily::cross_product(&q, vec![vec![RelationQuery::AllOne]]).is_err());
        // Empty per-relation family is rejected.
        assert!(QueryFamily::cross_product(&q, vec![vec![], vec![RelationQuery::AllOne]]).is_err());
    }

    /// Families that differ in one bit, one boundary or one position.
    #[test]
    fn keys_are_exact() {
        use std::collections::BTreeMap;
        let q = JoinQuery::two_table(4, 4, 4);
        let sparse = |pairs: &[(Vec<Value>, f64)], default: f64| {
            let weights: BTreeMap<Vec<Value>, f64> = pairs.iter().cloned().collect();
            RelationQuery::sparse(weights, default).unwrap()
        };
        let predicate = |sets: Vec<Option<Vec<Value>>>| RelationQuery::Predicate {
            allowed: sets
                .into_iter()
                .map(|s| s.map(|s| s.into_iter().collect()))
                .collect(),
        };
        let sign = |seed| RelationQuery::SignHash { seed };
        let family = |queries: Vec<Vec<RelationQuery>>| QueryFamily {
            queries: queries.into_iter().map(ProductQuery::new).collect(),
        };
        let one = RelationQuery::AllOne;
        let families = [
            // ±0.0 as a listed weight and as the default.
            family(vec![vec![sparse(&[(vec![1, 2], 0.0)], 0.5), one.clone()]]),
            family(vec![vec![sparse(&[(vec![1, 2], -0.0)], 0.5), one.clone()]]),
            family(vec![vec![sparse(&[(vec![1, 2], 0.5)], 0.0), one.clone()]]),
            family(vec![vec![sparse(&[(vec![1, 2], 0.5)], -0.0), one.clone()]]),
            // Tuple boundaries inside a sparse map.
            family(vec![vec![
                sparse(&[(vec![1], 0.5), (vec![2, 3], 0.5)], 0.0),
                one.clone(),
            ]]),
            family(vec![vec![
                sparse(&[(vec![1, 2], 0.5), (vec![3], 0.5)], 0.0),
                one.clone(),
            ]]),
            // Predicate-set boundaries.
            family(vec![vec![
                predicate(vec![Some(vec![1, 2]), Some(vec![3])]),
                one.clone(),
            ]]),
            family(vec![vec![
                predicate(vec![Some(vec![1]), Some(vec![2, 3])]),
                one.clone(),
            ]]),
            family(vec![vec![
                predicate(vec![Some(vec![1, 2]), None]),
                one.clone(),
            ]]),
            family(vec![vec![
                predicate(vec![None, Some(vec![1, 2])]),
                one.clone(),
            ]]),
            family(vec![vec![predicate(vec![Some(vec![]), None]), one.clone()]]),
            // Component order, variant tags and seeds.
            family(vec![vec![sign(1), sign(2)]]),
            family(vec![vec![sign(2), sign(1)]]),
            family(vec![vec![sign(0), one.clone()]]),
            family(vec![vec![one.clone(), sign(0)]]),
            // Query boundaries and lengths: the same components split into
            // different queries, or one query more.
            family(vec![vec![sign(1), sign(2)], vec![sign(3), sign(4)]]),
            family(vec![vec![sign(1)], vec![sign(2), sign(3), sign(4)]]),
            family(vec![vec![sign(1), sign(2), sign(3)], vec![sign(4)]]),
            family(vec![
                vec![sign(1), sign(2)],
                vec![sign(3), sign(4)],
                vec![one.clone(), one],
            ]),
        ];
        let keys: Vec<Vec<u64>> = families.iter().map(QueryFamily::key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a == b, i == j, "families {i} and {j}");
            }
        }
        // Equal families have equal keys.
        assert_eq!(families[0].clone().key(), keys[0]);
        let f1 = QueryFamily::random_sign(&q, 8, &mut rng()).unwrap();
        let f2 = QueryFamily::random_sign(&q, 8, &mut rng()).unwrap();
        assert_eq!(f1.key(), f2.key());
    }

    #[test]
    fn explicit_family_validates_queries() {
        let q = JoinQuery::two_table(4, 4, 4);
        assert!(QueryFamily::new(&q, vec![ProductQuery::counting(2)]).is_ok());
        assert!(QueryFamily::new(&q, vec![ProductQuery::counting(3)]).is_err());
        assert!(QueryFamily::new(&q, vec![]).is_err());
    }
}
