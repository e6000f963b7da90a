//! Multi-table instances and the neighbouring relation of Definition 1.1.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::hypergraph::JoinQuery;
use crate::relation::Relation;
use crate::tuple::{project_into, project_positions, Value};
use crate::Result;

/// A database instance `I = (R_1, …, R_m)` over a join query.
///
/// Relations are shared copy-on-write: a clone costs one reference-count
/// increment per relation, and the first mutation of a shared relation
/// ([`Instance::relation_mut`], [`Instance::apply_edit`],
/// [`Instance::restrict_relation`], an update batch) copies that relation
/// only, so the other instance never sees the change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    relations: Vec<Arc<Relation>>,
}

/// A single-tuple edit turning an instance into a neighbouring instance
/// (add or remove one copy of one tuple in one relation — Definition 1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeighborEdit {
    /// Add one copy of `tuple` to relation `relation`.
    Add {
        /// Index of the relation being edited.
        relation: usize,
        /// The tuple whose frequency increases by one.
        tuple: Vec<Value>,
    },
    /// Remove one copy of `tuple` from relation `relation`.
    Remove {
        /// Index of the relation being edited.
        relation: usize,
        /// The tuple whose frequency decreases by one.
        tuple: Vec<Value>,
    },
}

impl Instance {
    /// Creates an instance from relations (one per query relation, in order).
    pub fn new(relations: Vec<Relation>) -> Self {
        Instance {
            relations: relations.into_iter().map(Arc::new).collect(),
        }
    }

    /// Creates an empty instance matching the query's relation attribute lists.
    pub fn empty_for(query: &JoinQuery) -> Result<Self> {
        let relations = (0..query.num_relations())
            .map(|i| Relation::new(query.relation_attrs(i).to_vec()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Instance::new(relations))
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Immutable access to relation `i`.
    pub fn relation(&self, i: usize) -> &Relation {
        &self.relations[i]
    }

    /// Mutable access to relation `i`, copying it first if another instance
    /// shares it.
    pub fn relation_mut(&mut self, i: usize) -> &mut Relation {
        Arc::make_mut(&mut self.relations[i])
    }

    /// Restricts relation `i` to the tuples whose projection onto `onto` is
    /// in `allowed` (Algorithm 7's `R_j ⋉ bucket`).  When every tuple
    /// passes, the relation is left as it is, still shared with any clone
    /// of this instance; otherwise relation `i` is replaced by its
    /// restriction.  The check projects every tuple into one reused key
    /// buffer, so it allocates nothing per tuple.
    pub fn restrict_relation(
        &mut self,
        i: usize,
        onto: &[AttrId],
        allowed: &BTreeSet<Vec<Value>>,
    ) -> Result<()> {
        let rel = &self.relations[i];
        let positions = project_positions(rel.attrs(), onto)?;
        let mut key = Vec::with_capacity(positions.len());
        let mut keep = |t: &[Value]| {
            project_into(t, &positions, &mut key);
            allowed.contains(key.as_slice())
        };
        if rel.iter().all(|(t, _)| keep(t)) {
            return Ok(());
        }
        self.relations[i] = Arc::new(rel.filter(|t, _| keep(t))?);
        Ok(())
    }

    /// The input size `n = Σ_i Σ_t R_i(t)`.
    pub fn input_size(&self) -> u64 {
        self.relations.iter().map(|r| r.total()).sum()
    }

    /// Validates the instance against a join query: relation count, attribute
    /// lists and domain bounds must all match.
    pub fn validate(&self, query: &JoinQuery) -> Result<()> {
        if self.relations.len() != query.num_relations() {
            return Err(RelationalError::RelationCountMismatch {
                expected: query.num_relations(),
                got: self.relations.len(),
            });
        }
        for (i, rel) in self.relations.iter().enumerate() {
            if rel.attrs() != query.relation_attrs(i) {
                return Err(RelationalError::SchemaMismatch {
                    relation: i,
                    detail: format!(
                        "expected attributes {:?}, found {:?}",
                        query.relation_attrs(i),
                        rel.attrs()
                    ),
                });
            }
            rel.validate_domains(|a: AttrId| query.schema().domain_size(a).unwrap_or(0))?;
        }
        Ok(())
    }

    /// Applies a neighbouring edit, producing the neighbouring instance.
    pub fn apply_edit(&self, edit: &NeighborEdit) -> Result<Instance> {
        let mut out = self.clone();
        match edit {
            NeighborEdit::Add { relation, tuple } => {
                out.relation_mut(*relation).add_one(tuple.clone())?;
            }
            NeighborEdit::Remove { relation, tuple } => {
                out.relation_mut(*relation).remove_one(tuple)?;
            }
        }
        Ok(out)
    }

    /// Checks whether `self` and `other` are neighbouring instances
    /// (Definition 1.1): identical except for one tuple in one relation whose
    /// frequency differs by exactly one.
    pub fn is_neighbor_of(&self, other: &Instance) -> bool {
        if self.relations.len() != other.relations.len() {
            return false;
        }
        let mut difference_found = false;
        for (a, b) in self.relations.iter().zip(other.relations.iter()) {
            if a.attrs() != b.attrs() {
                return false;
            }
            // Count tuples whose frequencies differ.
            let mut keys: std::collections::BTreeSet<&Vec<Value>> =
                a.iter().map(|(t, _)| t).collect();
            keys.extend(b.iter().map(|(t, _)| t));
            for t in keys {
                let fa = a.freq(t);
                let fb = b.freq(t);
                if fa != fb {
                    let gap = fa.abs_diff(fb);
                    if gap != 1 || difference_found {
                        return false;
                    }
                    difference_found = true;
                }
            }
        }
        difference_found
    }

    /// Enumerates all "remove one existing tuple copy" neighbouring edits.
    /// (The "add" direction is unbounded and is generated by callers that know
    /// which tuples matter, e.g. sensitivity computations.)
    pub fn removal_edits(&self) -> Vec<NeighborEdit> {
        let mut out = Vec::new();
        for (i, rel) in self.relations.iter().enumerate() {
            for (t, _) in rel.iter() {
                out.push(NeighborEdit::Remove {
                    relation: i,
                    tuple: t.clone(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn two_table_instance() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(4, 4, 4);
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
    fn input_size_sums_frequencies() {
        let (_, inst) = two_table_instance();
        assert_eq!(inst.input_size(), 4 + 5);
    }

    #[test]
    fn validate_accepts_matching_instance() {
        let (q, inst) = two_table_instance();
        assert!(inst.validate(&q).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_relation_count() {
        let (q, inst) = two_table_instance();
        let bad = Instance::new(vec![inst.relation(0).clone()]);
        assert!(matches!(
            bad.validate(&q),
            Err(RelationalError::RelationCountMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_domain_value() {
        let (q, mut inst) = two_table_instance();
        inst.relation_mut(0).add_one(vec![99, 0]).unwrap();
        assert!(matches!(
            inst.validate(&q),
            Err(RelationalError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn neighbor_edits_and_detection() {
        let (_, inst) = two_table_instance();
        let add = NeighborEdit::Add {
            relation: 0,
            tuple: vec![3, 3],
        };
        let neighbor = inst.apply_edit(&add).unwrap();
        assert!(inst.is_neighbor_of(&neighbor));
        assert!(neighbor.is_neighbor_of(&inst));
        assert_eq!(neighbor.input_size(), inst.input_size() + 1);

        let remove = NeighborEdit::Remove {
            relation: 1,
            tuple: vec![1, 3],
        };
        let neighbor2 = inst.apply_edit(&remove).unwrap();
        assert!(inst.is_neighbor_of(&neighbor2));
        assert_eq!(neighbor2.input_size(), inst.input_size() - 1);

        // Two edits away is not a neighbour.
        let far = neighbor.apply_edit(&add).unwrap();
        assert!(!inst.is_neighbor_of(&far));
        // An instance is not its own neighbour.
        assert!(!inst.is_neighbor_of(&inst.clone()));
    }

    #[test]
    fn removal_edits_cover_all_tuples() {
        let (_, inst) = two_table_instance();
        let edits = inst.removal_edits();
        assert_eq!(edits.len(), 6); // 3 distinct tuples per relation
        for e in edits {
            let neighbor = inst.apply_edit(&e).unwrap();
            assert!(inst.is_neighbor_of(&neighbor));
        }
    }

    #[test]
    fn empty_for_builds_matching_schema() {
        let q = JoinQuery::star(3, 8).unwrap();
        let inst = Instance::empty_for(&q).unwrap();
        assert_eq!(inst.num_relations(), 3);
        assert!(inst.validate(&q).is_ok());
        assert_eq!(inst.input_size(), 0);
    }
}
