//! Evaluating linear queries on instances and join results, and comparing
//! answer vectors.

use dpsyn_relational::{ExecContext, Instance, JoinQuery, JoinResult, Parallelism};

use crate::error::QueryError;
use crate::family::QueryFamily;
use crate::product::{JointEvaluator, ProductQuery};
use crate::Result;

/// Query answering evaluated through an [`ExecContext`]: the context
/// supplies the worker pool for per-query sweeps and — on a long-lived
/// context (`dpsyn::Session`) — a cached full join, so *repeated* workload
/// evaluations over the same instance join once and answer many times.
///
/// Determinism: the cached join is produced by the exact same size-ordered
/// fold as [`dpsyn_relational::join()`], and each query's accumulation stays
/// sequential in construction order, so every answer is bit-identical to the
/// free-function path at every worker count, warm or cold.
pub trait AnswerOps {
    /// Answers every query of `family` on a pre-computed join result,
    /// sweeping the queries through the context's worker pool.
    fn answer_all_on_join(
        &self,
        query: &JoinQuery,
        join_result: &JoinResult,
        family: &QueryFamily,
    ) -> Result<AnswerSet>;

    /// Answers every query of `family` on an instance (joining through the
    /// context's cached full join).
    fn answer_all_on_instance(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
    ) -> Result<AnswerSet>;
}

impl AnswerOps for ExecContext {
    fn answer_all_on_join(
        &self,
        query: &JoinQuery,
        join_result: &JoinResult,
        family: &QueryFamily,
    ) -> Result<AnswerSet> {
        answer_all_on_join_impl(family, query, join_result, self.parallelism())
    }

    fn answer_all_on_instance(
        &self,
        query: &JoinQuery,
        instance: &Instance,
        family: &QueryFamily,
    ) -> Result<AnswerSet> {
        let j = self.shared_join(query, instance)?;
        answer_all_on_join_impl(family, query, &j, self.parallelism())
    }
}

/// Shared implementation of the family-on-join sweep (see
/// [`QueryFamily::answer_all_on_join`]).
fn answer_all_on_join_impl(
    family: &QueryFamily,
    query: &JoinQuery,
    join_result: &JoinResult,
    par: Parallelism,
) -> Result<AnswerSet> {
    let evaluator = JointEvaluator::new(query, join_result.attrs())?;
    // Validate up front (sequentially) so error reporting order is
    // independent of the worker count.
    let queries: Vec<&ProductQuery> = family.iter().collect();
    for q in &queries {
        q.validate(query)?;
    }
    let answers = dpsyn_relational::exec::par_map(par, queries.len(), |i| {
        let q = queries[i];
        let mut scratch = Vec::new();
        let mut total = 0.0;
        for (tuple, weight) in join_result.iter_unordered() {
            total += weight as f64 * evaluator.weight(q, tuple, &mut scratch);
        }
        total
    });
    Ok(AnswerSet::new(answers))
}

/// A vector of query answers, aligned with a [`QueryFamily`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSet {
    answers: Vec<f64>,
}

impl AnswerSet {
    /// Wraps a raw vector of answers.
    pub fn new(answers: Vec<f64>) -> Self {
        AnswerSet { answers }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The `i`-th answer.
    pub fn get(&self, i: usize) -> f64 {
        self.answers[i]
    }

    /// The raw answers.
    pub fn values(&self) -> &[f64] {
        &self.answers
    }

    /// The ℓ∞ distance to another answer vector — the paper's error metric
    /// `α = max_q |q(I) − q(F)|`.
    pub fn linf_distance(&self, other: &AnswerSet) -> Result<f64> {
        linf_error(&self.answers, &other.answers)
    }

    /// The mean absolute difference to another answer vector (a secondary
    /// metric reported by the experiments).
    pub fn mean_abs_distance(&self, other: &AnswerSet) -> Result<f64> {
        if self.answers.len() != other.answers.len() {
            return Err(QueryError::AnswerLengthMismatch {
                left: self.answers.len(),
                right: other.answers.len(),
            });
        }
        if self.answers.is_empty() {
            return Ok(0.0);
        }
        Ok(self
            .answers
            .iter()
            .zip(&other.answers)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / self.answers.len() as f64)
    }
}

/// The ℓ∞ distance between two raw answer vectors.
pub fn linf_error(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(QueryError::AnswerLengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max))
}

/// Evaluates one query on a (pre-computed) join result:
/// `q(J) = Σ_x J(x) · Π_i q_i(π_{x_i} x)`.
pub fn answer_on_join(
    query: &JoinQuery,
    join_result: &JoinResult,
    q: &ProductQuery,
) -> Result<f64> {
    q.validate(query)?;
    let evaluator = JointEvaluator::new(query, join_result.attrs())?;
    let mut scratch = Vec::new();
    let mut total = 0.0;
    // Construction order is deterministic and each tuple contributes exactly
    // once, so the sorted view (an O(n log n) emit) is unnecessary here.
    for (tuple, weight) in join_result.iter_unordered() {
        total += weight as f64 * evaluator.weight(q, tuple, &mut scratch);
    }
    Ok(total)
}

impl QueryFamily {
    /// Answers every query in the family on a pre-computed join result.
    pub fn answer_all_on_join(
        &self,
        query: &JoinQuery,
        join_result: &JoinResult,
    ) -> Result<AnswerSet> {
        ExecContext::default().answer_all_on_join(query, join_result, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::RelationQuery;
    use dpsyn_relational::{AttrId, Relation};
    use std::collections::BTreeMap;

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

    /// One query's answer on an instance, through the free join.
    fn answer(q: &JoinQuery, inst: &Instance, pq: &ProductQuery) -> Result<f64> {
        answer_on_join(q, &dpsyn_relational::join(q, inst).unwrap(), pq)
    }

    #[test]
    fn counting_query_equals_join_size() {
        let (q, inst) = two_table();
        let count = answer(&q, &inst, &ProductQuery::counting(2)).unwrap();
        let join_size = dpsyn_relational::join_size(&q, &inst).unwrap() as f64;
        assert_eq!(count, join_size);
        assert_eq!(count, 9.0);
    }

    #[test]
    fn weighted_query_matches_manual_computation() {
        let (q, inst) = two_table();
        // Weight 1 only on R1 tuples with A = 1 (frequency 2, joins with B=0's
        // two R2 tuples → contributes 4); everything else weight 0.
        let mut w = BTreeMap::new();
        w.insert(vec![1u64, 0u64], 1.0);
        let pq = ProductQuery::new(vec![
            RelationQuery::sparse(w, 0.0).unwrap(),
            RelationQuery::AllOne,
        ]);
        let ans = answer(&q, &inst, &pq).unwrap();
        assert_eq!(ans, 4.0);
    }

    #[test]
    fn linear_queries_are_linear_in_frequencies() {
        // Doubling a tuple's frequency doubles its contribution.
        let (q, inst) = two_table();
        let mut heavier = inst.clone();
        heavier.relation_mut(0).add(vec![1, 0], 2).unwrap(); // frequency 2 → 4
        let pq = ProductQuery::new(vec![
            RelationQuery::SignHash { seed: 5 },
            RelationQuery::SignHash { seed: 6 },
        ]);
        let base = answer(&q, &inst, &pq).unwrap();
        let more = answer(&q, &heavier, &pq).unwrap();
        // The (1,0) tuple's contribution is (more - base); adding the same
        // frequency again must add the same amount.
        let mut heaviest = heavier.clone();
        heaviest.relation_mut(0).add(vec![1, 0], 2).unwrap();
        let most = answer(&q, &heaviest, &pq).unwrap();
        assert!(((most - more) - (more - base)).abs() < 1e-9);
    }

    #[test]
    fn answer_all_matches_individual_answers() {
        let (q, inst) = two_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let family = QueryFamily::random_sign(&q, 12, &mut rng).unwrap();
        let all = ExecContext::sequential()
            .answer_all_on_instance(&q, &inst, &family)
            .unwrap();
        assert_eq!(all.len(), 12);
        for (i, pq) in family.iter().enumerate() {
            let single = answer(&q, &inst, pq).unwrap();
            assert!((single - all.get(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn linf_error_and_answer_sets() {
        let a = AnswerSet::new(vec![1.0, 2.0, 3.0]);
        let b = AnswerSet::new(vec![1.5, 0.0, 3.0]);
        assert_eq!(a.linf_distance(&b).unwrap(), 2.0);
        assert!((a.mean_abs_distance(&b).unwrap() - (0.5 + 2.0 + 0.0) / 3.0).abs() < 1e-12);
        let c = AnswerSet::new(vec![1.0]);
        assert!(a.linf_distance(&c).is_err());
        assert_eq!(linf_error(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_query_rejected() {
        let (q, inst) = two_table();
        let bad = ProductQuery::counting(3);
        assert!(answer(&q, &inst, &bad).is_err());
    }

    #[test]
    fn empty_instance_answers_zero() {
        let q = JoinQuery::two_table(4, 4, 4);
        let inst = Instance::empty_for(&q).unwrap();
        let ans = answer(&q, &inst, &ProductQuery::counting(2)).unwrap();
        assert_eq!(ans, 0.0);
    }
}
