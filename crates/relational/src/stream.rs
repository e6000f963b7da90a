//! Streaming update batches: validated, net-effect inserts and deletes.
//!
//! Write traffic arrives as **batches** of inserts and deletes across
//! relations.  An [`UpdateBatch`] is applied atomically by its *net* effect:
//! per `(relation, tuple)` the inserted and deleted counts are accumulated
//! and only the difference is applied, and validation — relation indices,
//! arities, domains, frequency underflow and overflow — runs against that
//! net effect before anything is touched.  [`apply_batch`] is the plain
//! mutation.
//!
//! The context-level entry point is `ExecContext::apply_updates`
//! ([`crate::context`]): it validates the batch, drops the warm LRU slot of
//! the pre-update fingerprint and applies the deltas, so every cache of the
//! updated instance — full join and slot memo — is rebuilt by the
//! same cold path a fresh context takes, and nothing is ever served stale.

use std::collections::BTreeMap;

use crate::hypergraph::JoinQuery;
use crate::instance::Instance;
use crate::relation::Relation;
use crate::tuple::Value;
use crate::{RelationalError, Result};

/// One insert or delete of a streaming update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add `count` copies of `tuple` to relation `relation`.
    Insert {
        /// Index of the relation receiving the tuples.
        relation: usize,
        /// The tuple, in the relation's (sorted) attribute order.
        tuple: Vec<Value>,
        /// Number of copies to add.
        count: u64,
    },
    /// Remove `count` copies of `tuple` from relation `relation`.
    Delete {
        /// Index of the relation losing the tuples.
        relation: usize,
        /// The tuple, in the relation's (sorted) attribute order.
        tuple: Vec<Value>,
        /// Number of copies to remove.
        count: u64,
    },
}

impl UpdateOp {
    /// The relation the op touches.
    pub fn relation(&self) -> usize {
        match self {
            UpdateOp::Insert { relation, .. } | UpdateOp::Delete { relation, .. } => *relation,
        }
    }

    /// The op with insert and delete swapped (same relation, tuple, count).
    pub fn inverse(&self) -> UpdateOp {
        match self {
            UpdateOp::Insert {
                relation,
                tuple,
                count,
            } => UpdateOp::Delete {
                relation: *relation,
                tuple: tuple.clone(),
                count: *count,
            },
            UpdateOp::Delete {
                relation,
                tuple,
                count,
            } => UpdateOp::Insert {
                relation: *relation,
                tuple: tuple.clone(),
                count: *count,
            },
        }
    }
}

/// A batch of inserts and deletes applied **atomically** to an instance.
///
/// The batch's semantics are its *net* effect: per `(relation, tuple)` the
/// inserted and deleted counts are accumulated and only the difference is
/// applied, so a tuple inserted and deleted within one batch cancels out.
/// Validation ([`UpdateBatch::check`]) is against the net effect too — a
/// delete may exceed the current frequency as long as inserts in the same
/// batch cover the difference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Appends an insert of `count` copies of `tuple` into `relation`.
    pub fn insert(&mut self, relation: usize, tuple: Vec<Value>, count: u64) -> &mut Self {
        self.ops.push(UpdateOp::Insert {
            relation,
            tuple,
            count,
        });
        self
    }

    /// Appends a delete of `count` copies of `tuple` from `relation`.
    pub fn delete(&mut self, relation: usize, tuple: Vec<Value>, count: u64) -> &mut Self {
        self.ops.push(UpdateOp::Delete {
            relation,
            tuple,
            count,
        });
        self
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: UpdateOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in insertion order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The inverse batch: every insert becomes a delete and vice versa.
    /// Applying a batch and then its inverse restores the original instance
    /// (and with it the original fingerprint).
    pub fn inverse(&self) -> UpdateBatch {
        UpdateBatch {
            ops: self.ops.iter().map(UpdateOp::inverse).collect(),
        }
    }

    /// Validates the batch against `(query, instance)` without applying it:
    /// relation indices in range, tuple arities and domains correct, and the
    /// net per-tuple frequencies neither underflow below zero nor overflow
    /// `u64`.
    pub fn check(&self, query: &JoinQuery, instance: &Instance) -> Result<()> {
        self.net_deltas(query, instance).map(|_| ())
    }

    /// Folds the ops into per-relation **net** added/removed tuple maps,
    /// validating everything [`UpdateBatch::check`] promises along the way.
    pub(crate) fn net_deltas(
        &self,
        query: &JoinQuery,
        instance: &Instance,
    ) -> Result<Vec<RelationDelta>> {
        let m = query.num_relations();
        if instance.num_relations() != m {
            return Err(RelationalError::RelationCountMismatch {
                expected: m,
                got: instance.num_relations(),
            });
        }
        let schema = query.schema();
        // Signed net count per (relation, tuple), accumulated in i128 so no
        // intermediate mix of u64 inserts and deletes can overflow.
        let mut nets: Vec<BTreeMap<Vec<Value>, i128>> = vec![BTreeMap::new(); m];
        for op in &self.ops {
            let (relation, tuple, signed) = match op {
                UpdateOp::Insert {
                    relation,
                    tuple,
                    count,
                } => (*relation, tuple, *count as i128),
                UpdateOp::Delete {
                    relation,
                    tuple,
                    count,
                } => (*relation, tuple, -(*count as i128)),
            };
            if relation >= m {
                return Err(RelationalError::InvalidUpdate(format!(
                    "relation index {relation} out of range for a {m}-relation query"
                )));
            }
            let attrs = instance.relation(relation).attrs();
            if tuple.len() != attrs.len() {
                return Err(RelationalError::ArityMismatch {
                    expected: attrs.len(),
                    got: tuple.len(),
                });
            }
            for (pos, &attr) in attrs.iter().enumerate() {
                let domain = schema.domain_size(attr)?;
                if tuple[pos] >= domain {
                    return Err(RelationalError::ValueOutOfDomain {
                        attr: attr.0,
                        value: tuple[pos],
                        domain_size: domain,
                    });
                }
            }
            if signed != 0 {
                *nets[relation].entry(tuple.clone()).or_insert(0) += signed;
            }
        }
        let mut deltas = Vec::with_capacity(m);
        for (relation, net) in nets.into_iter().enumerate() {
            let rel = instance.relation(relation);
            let mut added = BTreeMap::new();
            let mut removed = BTreeMap::new();
            for (tuple, signed) in net {
                let old = rel.freq(&tuple) as i128;
                let new = old + signed;
                if new < 0 {
                    return Err(RelationalError::FrequencyUnderflow);
                }
                if new > u64::MAX as i128 {
                    return Err(RelationalError::FrequencyOverflow);
                }
                match signed.cmp(&0) {
                    std::cmp::Ordering::Greater => {
                        added.insert(tuple, signed as u64);
                    }
                    std::cmp::Ordering::Less => {
                        removed.insert(tuple, (-signed) as u64);
                    }
                    std::cmp::Ordering::Equal => {}
                }
            }
            deltas.push(RelationDelta {
                relation,
                added,
                removed,
            });
        }
        Ok(deltas)
    }
}

/// The validated net effect of a batch on one relation: disjoint added and
/// removed tuple maps (net counts, never zero).
#[derive(Debug, Clone)]
pub(crate) struct RelationDelta {
    relation: usize,
    added: BTreeMap<Vec<Value>, u64>,
    removed: BTreeMap<Vec<Value>, u64>,
}

impl RelationDelta {
    /// Whether the relation's contents are unchanged by the batch.
    pub(crate) fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies the net delta to the live relation.  Infallible after
    /// [`UpdateBatch::net_deltas`] validated the final frequencies.
    fn apply_to(&self, rel: &mut Relation) {
        for (tuple, &count) in &self.added {
            let new = rel.freq(tuple).checked_add(count).expect("validated");
            rel.set(tuple.clone(), new).expect("validated arity");
        }
        for (tuple, &count) in &self.removed {
            let new = rel.freq(tuple).checked_sub(count).expect("validated");
            rel.set(tuple.clone(), new).expect("validated arity");
        }
    }
}

/// Applies `batch` to `instance` as a plain mutation, touching no cache.
/// Validates first; the instance is untouched on error.
pub fn apply_batch(query: &JoinQuery, instance: &mut Instance, batch: &UpdateBatch) -> Result<()> {
    let deltas = batch.net_deltas(query, instance)?;
    apply_net_deltas(instance, &deltas);
    Ok(())
}

/// Applies pre-validated net deltas to the live instance.  Infallible after
/// [`UpdateBatch::net_deltas`] validated the final frequencies.  A relation
/// the batch leaves unchanged is not written, so it stays shared with any
/// clone of the instance.
pub(crate) fn apply_net_deltas(instance: &mut Instance, deltas: &[RelationDelta]) {
    for delta in deltas.iter().filter(|d| !d.is_empty()) {
        delta.apply_to(instance.relation_mut(delta.relation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table() -> (JoinQuery, Instance) {
        let query = JoinQuery::two_table(8, 8, 8);
        let mut inst = Instance::empty_for(&query).unwrap();
        for (a, b, f) in [(1u64, 2u64, 2u64), (3, 2, 1), (4, 5, 3)] {
            inst.relation_mut(0).add(vec![a, b], f).unwrap();
        }
        for (b, c, f) in [(2u64, 1u64, 1u64), (2, 7, 4), (5, 0, 2)] {
            inst.relation_mut(1).add(vec![b, c], f).unwrap();
        }
        (query, inst)
    }

    #[test]
    fn net_semantics_cancel_within_a_batch() {
        let (query, inst) = two_table();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 6], 2);
        batch.delete(0, vec![6, 6], 2);
        let deltas = batch.net_deltas(&query, &inst).unwrap();
        assert!(deltas.iter().all(RelationDelta::is_empty));
        // A delete covered by an insert in the same batch is valid even
        // though the tuple is absent from the instance.
        let mut covered = UpdateBatch::new();
        covered.insert(1, vec![7, 7], 3);
        covered.delete(1, vec![7, 7], 1);
        assert!(covered.check(&query, &inst).is_ok());
    }

    #[test]
    fn check_rejects_malformed_batches() {
        let (query, inst) = two_table();
        let mut bad_rel = UpdateBatch::new();
        bad_rel.insert(7, vec![0, 0], 1);
        assert!(matches!(
            bad_rel.check(&query, &inst),
            Err(RelationalError::InvalidUpdate(_))
        ));
        let mut bad_arity = UpdateBatch::new();
        bad_arity.insert(0, vec![0], 1);
        assert!(matches!(
            bad_arity.check(&query, &inst),
            Err(RelationalError::ArityMismatch { .. })
        ));
        let mut bad_domain = UpdateBatch::new();
        bad_domain.insert(0, vec![99, 0], 1);
        assert!(matches!(
            bad_domain.check(&query, &inst),
            Err(RelationalError::ValueOutOfDomain { .. })
        ));
        let mut underflow = UpdateBatch::new();
        underflow.delete(0, vec![1, 2], 3);
        assert!(matches!(
            underflow.check(&query, &inst),
            Err(RelationalError::FrequencyUnderflow)
        ));
        let mut overflow = UpdateBatch::new();
        overflow.insert(0, vec![1, 2], u64::MAX);
        assert!(matches!(
            overflow.check(&query, &inst),
            Err(RelationalError::FrequencyOverflow)
        ));
    }

    #[test]
    fn apply_batch_matches_manual_mutation() {
        let (query, mut inst) = two_table();
        let mut expect = inst.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec![6, 5], 2);
        batch.delete(1, vec![2, 7], 1);
        apply_batch(&query, &mut inst, &batch).unwrap();
        expect.relation_mut(0).add(vec![6, 5], 2).unwrap();
        expect.relation_mut(1).remove_one(&[2, 7]).unwrap();
        assert_eq!(inst, expect);
        // Inverse restores the original.
        apply_batch(&query, &mut inst, &batch.inverse()).unwrap();
        let (_, original) = two_table();
        assert_eq!(inst, original);
    }
}
