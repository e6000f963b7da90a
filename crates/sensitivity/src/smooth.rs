//! Smooth upper bounds on local sensitivity (Nissim–Raskhodnikova–Smith \[40\])
//! and brute-force checkers used by the test-suite.
//!
//! A function `S^β` is a β-smooth upper bound on `LS_count` when
//!
//! 1. `S^β(I) ≥ LS_count(I)` for every instance `I`, and
//! 2. `S^β(I') ≤ e^β · S^β(I)` for every pair of neighbouring instances.
//!
//! Residual sensitivity satisfies both (it is a constant-factor approximation
//! of the *smallest* such bound — smooth sensitivity — while being computable
//! in polynomial time).  The checkers below verify the two conditions
//! empirically on concrete instances, and compute a restricted brute-force
//! version of smooth sensitivity for cross-validation.

use std::collections::BTreeSet;

use dpsyn_relational::{exec, ExecContext, Instance, JoinQuery, NeighborEdit, Value};

use crate::context_ext::SensitivityOps;
use crate::error::SensitivityError;
use crate::local::local_sensitivity;
use crate::residual::check_beta;
use crate::Result;

/// Cap on the candidate additions [`candidate_edits`] generates per relation.
const MAX_ADDITIONS: usize = 4096;

/// Frontier width kept between radius levels of the brute-force
/// smooth-sensitivity exploration (the highest-sensitivity instances, ties
/// in generation order).
const SMOOTH_FRONTIER: usize = 16;

/// Enumerates the candidate neighbouring **edits** of `instance`: all
/// single-copy removals plus additions of candidate tuples drawn from the
/// cross product of per-attribute active values (plus one fresh value per
/// attribute when the domain allows it).  This covers the edits that can
/// change degree structure.
///
/// Additions are emitted in lexicographic order of the per-attribute
/// candidate lists (first attribute most significant), at most 4,096
/// complete tuples per relation.
pub fn candidate_edits(query: &JoinQuery, instance: &Instance) -> Result<Vec<NeighborEdit>> {
    let mut out = Vec::new();
    out.extend(instance.removal_edits());
    // Additions: for each relation, build candidate values per attribute.
    for i in 0..query.num_relations() {
        let attrs = query.relation_attrs(i);
        let mut per_attr: Vec<Vec<Value>> = Vec::with_capacity(attrs.len());
        for (pos, &attr) in attrs.iter().enumerate() {
            let mut values: BTreeSet<Value> = BTreeSet::new();
            for (t, _) in instance.relation(i).iter() {
                values.insert(t[pos]);
            }
            // Also consider values appearing in other relations on the same
            // attribute (they create new join partners) and one fresh value.
            for j in 0..query.num_relations() {
                if j == i {
                    continue;
                }
                if let Ok(p) =
                    dpsyn_relational::tuple::project_positions(query.relation_attrs(j), &[attr])
                {
                    for (t, _) in instance.relation(j).iter() {
                        values.insert(t[p[0]]);
                    }
                }
            }
            let domain = query
                .schema()
                .domain_size(attr)
                .map_err(SensitivityError::from)?;
            for fresh in 0..domain {
                if !values.contains(&fresh) {
                    values.insert(fresh);
                    break;
                }
            }
            if values.is_empty() {
                values.insert(0);
            }
            per_attr.push(values.into_iter().collect());
        }
        // Cartesian product of the candidate values, walked as an odometer
        // (last attribute fastest) so the cap counts complete tuples only.
        let mut digits = vec![0usize; per_attr.len()];
        'product: for _ in 0..MAX_ADDITIONS {
            let tuple = digits
                .iter()
                .zip(&per_attr)
                .map(|(&d, values)| values[d])
                .collect();
            out.push(NeighborEdit::Add { relation: i, tuple });
            let mut pos = digits.len();
            loop {
                if pos == 0 {
                    break 'product;
                }
                pos -= 1;
                digits[pos] += 1;
                if digits[pos] < per_attr[pos].len() {
                    break;
                }
                digits[pos] = 0;
            }
        }
    }
    Ok(out)
}

/// Generates the set of candidate neighbouring **instances** of `instance`
/// (the materialised form of [`candidate_edits`], applied in the same
/// order), consumed by the smoothness checker and the brute-force
/// exploration.
pub(crate) fn candidate_neighbors(query: &JoinQuery, instance: &Instance) -> Result<Vec<Instance>> {
    candidate_edits(query, instance)?
        .iter()
        .map(|edit| instance.apply_edit(edit).map_err(SensitivityError::from))
        .collect()
}

/// Empirically checks that `bound` behaves as a β-smooth upper bound *around*
/// `instance`: it dominates the local sensitivity of `instance`, and changes
/// by at most a factor `e^β` when moving to any candidate neighbour.
///
/// `bound` receives each instance and must return the candidate smooth bound
/// for it.  Returns the first violation found, if any.
pub fn is_smooth_upper_bound(
    query: &JoinQuery,
    instance: &Instance,
    beta: f64,
    mut bound: impl FnMut(&Instance) -> Result<f64>,
) -> Result<Option<String>> {
    let here = bound(instance)?;
    let ls = local_sensitivity(query, instance)? as f64;
    if here + 1e-9 < ls {
        return Ok(Some(format!(
            "bound {here} is below the local sensitivity {ls}"
        )));
    }
    let factor = beta.exp();
    for neighbor in candidate_neighbors(query, instance)? {
        let there = bound(&neighbor)?;
        if there > factor * here + 1e-9 {
            return Ok(Some(format!(
                "bound grows too fast: {here} → {there} exceeds e^β factor {factor}"
            )));
        }
        if here > factor * there + 1e-9 {
            return Ok(Some(format!(
                "bound shrinks too fast: {here} → {there} exceeds e^β factor {factor}"
            )));
        }
    }
    Ok(None)
}

/// A restricted brute-force smooth sensitivity:
/// `max_{k ≤ max_radius} e^{-βk} · max_{I' : dist(I, I') ≤ k} LS(I')`,
/// exploring neighbours through the candidate-edit generator above.
///
/// Because additions are restricted to candidate tuples, the result is a
/// *lower bound* on the true smooth sensitivity; since residual sensitivity
/// upper-bounds smooth sensitivity, tests check
/// `smooth_sensitivity_bruteforce ≤ RS^β`.
///
/// Every candidate neighbour is materialised as an [`Instance`] and its
/// local sensitivity recomputed from scratch, swept through the default
/// context's worker pool.
pub fn smooth_sensitivity_bruteforce(
    query: &JoinQuery,
    instance: &Instance,
    beta: f64,
    max_radius: usize,
) -> Result<f64> {
    check_beta(beta)?;
    let ctx = ExecContext::default();
    let mut frontier = vec![instance.clone()];
    let mut best = ctx.local_sensitivity(query, instance)? as f64;
    let mut result = best;
    for k in 1..=max_radius {
        // Generate this level's neighbours sequentially (cheap), then
        // sweep their local sensitivities through the pool (the
        // expensive part: one multi-way join per edit), each on a
        // sequential context of its own.
        let mut neighbors: Vec<Instance> = Vec::new();
        for inst in &frontier {
            neighbors.extend(candidate_neighbors(query, inst)?);
        }
        let sensitivities = exec::par_map(ctx.parallelism(), neighbors.len(), |i| {
            ExecContext::sequential().local_sensitivity(query, &neighbors[i])
        });
        let mut next: Vec<(u128, Instance)> = Vec::with_capacity(neighbors.len());
        for (neighbor, ls) in neighbors.into_iter().zip(sensitivities) {
            let ls = ls?;
            best = best.max(ls as f64);
            next.push((ls, neighbor));
        }
        next.sort_by_key(|(ls, _)| std::cmp::Reverse(*ls));
        next.truncate(SMOOTH_FRONTIER);
        frontier = next.into_iter().map(|(_, inst)| inst).collect();
        result = result.max((-beta * k as f64).exp() * best);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residual::residual_sensitivity;
    use dpsyn_relational::{AttrId, Relation};

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn small_two_table() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(6, 6, 6);
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 1), (vec![2, 1], 1)],
        )
        .unwrap();
        let r2 =
            Relation::from_tuples(ids(&[1, 2]), vec![(vec![0, 0], 1), (vec![1, 1], 2)]).unwrap();
        (q, Instance::new(vec![r1, r2]))
    }

    #[test]
    fn residual_sensitivity_passes_the_smoothness_check() {
        let (q, inst) = small_two_table();
        let beta = 0.3;
        let violation = is_smooth_upper_bound(&q, &inst, beta, |i| {
            Ok(residual_sensitivity(&q, i, beta)?.value)
        })
        .unwrap();
        assert_eq!(violation, None);
    }

    #[test]
    fn local_sensitivity_itself_fails_the_smoothness_check() {
        // LS is not a smooth upper bound: a single edit can multiply it.
        // Build an instance where adding one R2 tuple with join value 0 jumps
        // LS from 1 to 3.
        let q = JoinQuery::two_table(8, 8, 8);
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 1), (vec![2, 0], 1)],
        )
        .unwrap();
        let r2 = Relation::from_tuples(ids(&[1, 2]), vec![(vec![5, 5], 1)]).unwrap();
        let inst = Instance::new(vec![r1, r2]);
        let beta = 0.1;
        let violation =
            is_smooth_upper_bound(&q, &inst, beta, |i| Ok(local_sensitivity(&q, i)? as f64))
                .unwrap();
        assert!(violation.is_some(), "LS should violate β-smoothness");
    }

    #[test]
    fn bruteforce_smooth_sensitivity_is_dominated_by_residual() {
        let (q, inst) = small_two_table();
        for &beta in &[0.2, 0.5, 1.0] {
            let ss = smooth_sensitivity_bruteforce(&q, &inst, beta, 2).unwrap();
            let rs = residual_sensitivity(&q, &inst, beta).unwrap().value;
            assert!(
                ss <= rs + 1e-6,
                "beta = {beta}: brute-force SS {ss} exceeds RS {rs}"
            );
            // And both dominate the local sensitivity.
            let ls = local_sensitivity(&q, &inst).unwrap() as f64;
            assert!(ss >= ls - 1e-9);
        }
    }

    #[test]
    fn bruteforce_rejects_bad_beta() {
        let (q, inst) = small_two_table();
        assert!(smooth_sensitivity_bruteforce(&q, &inst, 0.0, 1).is_err());
    }

    #[test]
    fn candidate_edits_and_neighbors_align() {
        let (q, inst) = small_two_table();
        let edits = candidate_edits(&q, &inst).unwrap();
        let neighbors = candidate_neighbors(&q, &inst).unwrap();
        assert_eq!(edits.len(), neighbors.len());
        for (edit, neighbor) in edits.iter().zip(&neighbors) {
            assert_eq!(&inst.apply_edit(edit).unwrap(), neighbor);
            assert!(inst.is_neighbor_of(neighbor));
        }
        // Removals come first, in removal_edits order.
        let removals = inst.removal_edits();
        assert_eq!(&edits[..removals.len()], removals.as_slice());
    }

    #[test]
    fn candidate_additions_cap_counts_complete_tuples() {
        // R0(A,B,C) ⋈ R1(C,D) over domain 128: relation 0's candidate lists
        // have 71 · 71 · 2 > MAX_ADDITIONS tuples, and the partial product
        // of A and B alone already exceeds the cap.
        let q = JoinQuery::new(
            dpsyn_relational::Schema::uniform(&["A", "B", "C", "D"], 128),
            vec![ids(&[0, 1, 2]), ids(&[2, 3])],
        )
        .unwrap();
        let r0 =
            Relation::from_tuples(ids(&[0, 1, 2]), (0..70u64).map(|v| (vec![v, v, 0], 1))).unwrap();
        let r1 = Relation::from_tuples(ids(&[2, 3]), vec![(vec![0, 0], 1)]).unwrap();
        let inst = Instance::new(vec![r0, r1]);
        let additions = |relation: usize| -> Vec<Vec<Value>> {
            candidate_edits(&q, &inst)
                .unwrap()
                .into_iter()
                .filter_map(|e| match e {
                    NeighborEdit::Add { relation: r, tuple } if r == relation => Some(tuple),
                    _ => None,
                })
                .collect()
        };
        let r0_adds = additions(0);
        assert_eq!(r0_adds.len(), MAX_ADDITIONS);
        // Lexicographic order, last attribute fastest.
        assert_eq!(r0_adds[..3], [vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 0]]);
        assert_eq!(additions(1).len(), 4);
    }
}
