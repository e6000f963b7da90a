//! Product queries `q = (q_1, …, q_m)` and joint-domain evaluation.

use dpsyn_relational::tuple::{project_into, project_positions};
use dpsyn_relational::{AttrId, JoinQuery, Value};

use crate::error::QueryError;
use crate::linear::RelationQuery;
use crate::Result;

/// A linear query over a multi-table join: one weight function per relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductQuery {
    components: Vec<RelationQuery>,
}

impl ProductQuery {
    /// Creates a product query from per-relation components.
    pub fn new(components: Vec<RelationQuery>) -> Self {
        ProductQuery { components }
    }

    /// The counting join-size query `count(·)`: every component is all-ones.
    pub fn counting(m: usize) -> Self {
        ProductQuery {
            components: vec![RelationQuery::AllOne; m],
        }
    }

    /// Number of per-relation components.
    pub fn arity(&self) -> usize {
        self.components.len()
    }

    /// The component for relation `i`.
    pub fn component(&self, i: usize) -> &RelationQuery {
        &self.components[i]
    }

    /// All components.
    pub fn components(&self) -> &[RelationQuery] {
        &self.components
    }

    /// Validates the query against a join query (component count must match).
    pub fn validate(&self, query: &JoinQuery) -> Result<()> {
        if self.components.len() != query.num_relations() {
            return Err(QueryError::ComponentCountMismatch {
                expected: query.num_relations(),
                got: self.components.len(),
            });
        }
        Ok(())
    }

    /// Evaluates the per-tuple weight `Π_i q_i(t_i)` given one tuple per
    /// relation.
    pub fn eval_per_relation(&self, tuples: &[&[Value]]) -> f64 {
        self.components
            .iter()
            .zip(tuples)
            .map(|(q, t)| q.eval(t))
            .product()
    }
}

/// Pre-computed projection plan for evaluating product queries on tuples over
/// an arbitrary attribute list (typically the full `dom(x)` of the join, or
/// the attribute list of a sub-join).
///
/// The weight of a joint tuple `x` is `Π_i q_i(π_{x_i} x)`.
#[derive(Debug, Clone)]
pub struct JointEvaluator {
    /// For each relation, the positions of its attributes inside the joint
    /// attribute list.
    positions: Vec<Vec<usize>>,
}

impl JointEvaluator {
    /// Builds an evaluator for tuples over `joint_attrs` (sorted), for the
    /// given join query.  Every relation's attributes must be contained in
    /// `joint_attrs`.
    pub fn new(query: &JoinQuery, joint_attrs: &[AttrId]) -> Result<Self> {
        let mut positions = Vec::with_capacity(query.num_relations());
        for i in 0..query.num_relations() {
            positions.push(project_positions(joint_attrs, query.relation_attrs(i))?);
        }
        Ok(JointEvaluator { positions })
    }

    /// Builds an evaluator over the full attribute set `dom(x)` of the query.
    pub fn full_domain(query: &JoinQuery) -> Result<Self> {
        Self::new(query, &query.all_attrs())
    }

    /// Evaluates `Π_i q_i(π_{x_i} x)` for a joint tuple `x`.
    ///
    /// Each projection `π_{x_i} x` is written into `scratch`, so a loop that
    /// passes the same buffer for every row allocates nothing.  The factors
    /// multiply left to right, and the first zero partial product returns
    /// `+0.0`; the factorized evaluators in `dpsyn-pmw` keep exactly this
    /// order to stay bit-identical.
    pub fn weight(&self, q: &ProductQuery, joint_tuple: &[Value], scratch: &mut Vec<Value>) -> f64 {
        let mut w = 1.0;
        for (i, pos) in self.positions.iter().enumerate() {
            project_into(joint_tuple, pos, scratch);
            w *= q.component(i).eval(scratch);
            if w == 0.0 {
                return 0.0;
            }
        }
        w
    }

    /// Number of relations this evaluator covers.
    pub fn num_relations(&self) -> usize {
        self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn two_table() -> JoinQuery {
        JoinQuery::two_table(8, 8, 8)
    }

    #[test]
    fn counting_query_weights_everything_one() {
        let q = ProductQuery::counting(2);
        assert_eq!(q.arity(), 2);
        assert_eq!(q.eval_per_relation(&[&[1, 2], &[2, 3]]), 1.0);
    }

    #[test]
    fn validation_checks_component_count() {
        let jq = two_table();
        assert!(ProductQuery::counting(2).validate(&jq).is_ok());
        assert!(matches!(
            ProductQuery::counting(3).validate(&jq),
            Err(QueryError::ComponentCountMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn per_relation_product_multiplies_weights() {
        let mut w1 = BTreeMap::new();
        w1.insert(vec![0u64, 0u64], 0.5);
        let q = ProductQuery::new(vec![
            RelationQuery::sparse(w1, 0.0).unwrap(),
            RelationQuery::AllOne,
        ]);
        assert_eq!(q.eval_per_relation(&[&[0, 0], &[0, 5]]), 0.5);
        assert_eq!(q.eval_per_relation(&[&[1, 0], &[0, 5]]), 0.0);
    }

    #[test]
    fn joint_evaluator_projects_correctly() {
        let jq = two_table();
        let eval = JointEvaluator::full_domain(&jq).unwrap();
        assert_eq!(eval.num_relations(), 2);
        // Query: weight 0.5 on R1 tuple (A=1, B=2), all-ones on R2.
        let mut w1 = BTreeMap::new();
        w1.insert(vec![1u64, 2u64], 0.5);
        let q = ProductQuery::new(vec![
            RelationQuery::sparse(w1, 0.0).unwrap(),
            RelationQuery::AllOne,
        ]);
        // Joint tuple (A=1, B=2, C=7) projects to R1 tuple (1,2) and R2 tuple (2,7).
        assert_eq!(eval.weight(&q, &[1, 2, 7], &mut Vec::new()), 0.5);
        assert_eq!(eval.weight(&q, &[0, 2, 7], &mut Vec::new()), 0.0);
    }

    #[test]
    fn joint_evaluator_counting_weight_is_one() {
        let jq = JoinQuery::star(3, 4).unwrap();
        let eval = JointEvaluator::full_domain(&jq).unwrap();
        let q = ProductQuery::counting(3);
        assert_eq!(eval.weight(&q, &[0, 1, 2, 3], &mut Vec::new()), 1.0);
    }

    #[test]
    fn sign_product_weights_stay_in_range() {
        let jq = two_table();
        let eval = JointEvaluator::full_domain(&jq).unwrap();
        let q = ProductQuery::new(vec![
            RelationQuery::SignHash { seed: 1 },
            RelationQuery::SignHash { seed: 2 },
        ]);
        let mut scratch = Vec::new();
        for a in 0..4u64 {
            for b in 0..4u64 {
                for c in 0..4u64 {
                    let w = eval.weight(&q, &[a, b, c], &mut scratch);
                    assert!(w == 1.0 || w == -1.0);
                }
            }
        }
    }

    #[test]
    fn evaluator_on_subjoin_attribute_list() {
        // Evaluating on a sub-join over R1's attributes only requires that the
        // joint attrs contain each relation's attrs — otherwise it errors.
        let jq = two_table();
        assert!(JointEvaluator::new(&jq, &[AttrId(0), AttrId(1)]).is_err());
        assert!(JointEvaluator::new(&jq, &[AttrId(0), AttrId(1), AttrId(2)]).is_ok());
    }
}
