//! Per-relation weight functions `q_i : D_i → [-1, 1]`.

use std::collections::{BTreeMap, BTreeSet};

use dpsyn_relational::Value;

use crate::error::QueryError;
use crate::Result;

/// A weight function on one relation's tuple domain, with values in `[-1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationQuery {
    /// The all-ones function — the per-relation component of the counting
    /// join-size query.
    AllOne,
    /// Explicit weights for listed tuples; every other tuple gets `default`.
    Sparse {
        /// Per-tuple weights (keyed by the relation's tuple).
        weights: BTreeMap<Vec<Value>, f64>,
        /// Weight of tuples not listed in `weights`.
        default: f64,
    },
    /// Indicator of a per-attribute predicate: weight 1 when, for every
    /// constrained position, the tuple's value is in the allowed set;
    /// otherwise 0.  `None` means the position is unconstrained.
    Predicate {
        /// One optional allowed-set per attribute position of the relation.
        allowed: Vec<Option<BTreeSet<Value>>>,
    },
    /// A pseudo-random ±1 weight determined by hashing the tuple with `seed`.
    /// This represents a "random sign" query without materialising a weight
    /// per domain element, which is how the experiments build large random
    /// query families over big domains.
    SignHash {
        /// Seed controlling the sign pattern.
        seed: u64,
    },
}

impl RelationQuery {
    /// Builds a sparse query after validating that every weight (and the
    /// default) lies in `[-1, 1]`.
    pub fn sparse(weights: BTreeMap<Vec<Value>, f64>, default: f64) -> Result<Self> {
        for &w in weights.values().chain(std::iter::once(&default)) {
            if !(-1.0..=1.0).contains(&w) || !w.is_finite() {
                return Err(QueryError::WeightOutOfRange { weight: w });
            }
        }
        Ok(RelationQuery::Sparse { weights, default })
    }

    /// Appends this function's exact encoding to `key`: a variant tag, then
    /// each field, every sequence prefixed by its length and every `f64` as
    /// its bits.  The encoding is prefix-free, so concatenated encodings are
    /// equal exactly when the functions are bitwise-identical.
    pub(crate) fn encode_key(&self, key: &mut Vec<u64>) {
        match self {
            RelationQuery::AllOne => key.push(0),
            RelationQuery::Sparse { weights, default } => {
                key.extend([1, default.to_bits(), weights.len() as u64]);
                for (tuple, w) in weights {
                    key.push(tuple.len() as u64);
                    key.extend(tuple);
                    key.push(w.to_bits());
                }
            }
            RelationQuery::Predicate { allowed } => {
                key.extend([2, allowed.len() as u64]);
                for constraint in allowed {
                    match constraint {
                        None => key.push(0),
                        Some(set) => {
                            key.extend([1, set.len() as u64]);
                            key.extend(set);
                        }
                    }
                }
            }
            RelationQuery::SignHash { seed } => key.extend([3, *seed]),
        }
    }

    /// Evaluates the weight of a tuple.
    pub fn eval(&self, tuple: &[Value]) -> f64 {
        match self {
            RelationQuery::AllOne => 1.0,
            RelationQuery::Sparse { weights, default } => {
                weights.get(tuple).copied().unwrap_or(*default)
            }
            RelationQuery::Predicate { allowed } => {
                let ok = allowed
                    .iter()
                    .zip(tuple)
                    .all(|(constraint, v)| constraint.as_ref().is_none_or(|set| set.contains(v)));
                if ok {
                    1.0
                } else {
                    0.0
                }
            }
            RelationQuery::SignHash { seed } => {
                if hash_tuple(*seed, tuple) & 1 == 0 {
                    1.0
                } else {
                    -1.0
                }
            }
        }
    }
}

/// A small, fast, deterministic tuple hash (FNV-1a over the seed and values).
/// Not cryptographic — it only needs to look "random enough" for workloads.
fn hash_tuple(seed: u64, tuple: &[Value]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET ^ seed.wrapping_mul(PRIME);
    for &v in tuple {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    // Final avalanche so that low bits are well mixed.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_one_is_constant() {
        let q = RelationQuery::AllOne;
        assert_eq!(q.eval(&[1, 2, 3]), 1.0);
        assert_eq!(q.eval(&[]), 1.0);
    }

    #[test]
    fn sparse_uses_default_for_missing() {
        let mut w = BTreeMap::new();
        w.insert(vec![1, 2], 0.5);
        w.insert(vec![3, 4], -1.0);
        let q = RelationQuery::sparse(w, 0.25).unwrap();
        assert_eq!(q.eval(&[1, 2]), 0.5);
        assert_eq!(q.eval(&[3, 4]), -1.0);
        assert_eq!(q.eval(&[9, 9]), 0.25);
    }

    #[test]
    fn sparse_rejects_out_of_range_weights() {
        let mut w = BTreeMap::new();
        w.insert(vec![0], 2.0);
        assert!(RelationQuery::sparse(w, 0.0).is_err());
        assert!(RelationQuery::sparse(BTreeMap::new(), 1.5).is_err());
        let mut w = BTreeMap::new();
        w.insert(vec![0], f64::NAN);
        assert!(RelationQuery::sparse(w, 0.0).is_err());
    }

    #[test]
    fn predicate_checks_each_position() {
        let q = RelationQuery::Predicate {
            allowed: vec![
                Some([1u64, 2].into_iter().collect()),
                None,
                Some([7u64].into_iter().collect()),
            ],
        };
        assert_eq!(q.eval(&[1, 99, 7]), 1.0);
        assert_eq!(q.eval(&[2, 0, 7]), 1.0);
        assert_eq!(q.eval(&[3, 0, 7]), 0.0);
        assert_eq!(q.eval(&[1, 0, 8]), 0.0);
    }

    #[test]
    fn sign_hash_is_deterministic_and_balanced() {
        let q = RelationQuery::SignHash { seed: 42 };
        let a = q.eval(&[1, 2]);
        assert_eq!(a, q.eval(&[1, 2]));
        assert!(a == 1.0 || a == -1.0);
        // Roughly balanced over many tuples.
        let mut plus = 0usize;
        let total = 10_000usize;
        for v in 0..total as u64 {
            if q.eval(&[v, v + 1]) > 0.0 {
                plus += 1;
            }
        }
        let frac = plus as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn different_seeds_give_different_sign_patterns() {
        let q1 = RelationQuery::SignHash { seed: 1 };
        let q2 = RelationQuery::SignHash { seed: 2 };
        let disagreements = (0..1000u64)
            .filter(|&v| q1.eval(&[v]) != q2.eval(&[v]))
            .count();
        assert!(disagreements > 300, "disagreements = {disagreements}");
    }

    #[test]
    fn all_values_stay_in_range() {
        let queries = vec![
            RelationQuery::AllOne,
            RelationQuery::SignHash { seed: 7 },
            RelationQuery::Predicate {
                allowed: vec![None, Some([3u64].into_iter().collect())],
            },
        ];
        for q in queries {
            for v in 0..100u64 {
                let x = q.eval(&[v, v % 5]);
                assert!((-1.0..=1.0).contains(&x));
            }
        }
    }
}
