//! Incremental (delta) join maintenance for single-tuple neighbour edits.
//!
//! The sensitivity computations of the paper sweep **neighbouring edits**:
//! instances `I' = I ± t*` that differ from `I` by one copy of one tuple in
//! one relation (Definition 1.1).  Materialising every `I'` and re-running
//! the full hash join makes an edit sweep cost `O(edits × full-join)` — the
//! dominant cost of the brute-force smooth-sensitivity checker and of
//! local-sensitivity verification sweeps.
//!
//! This module exploits that every join aggregate is **multilinear** in the
//! per-relation frequency vectors: changing `R_{i0}(t*)` by `±1` changes
//!
//! * the join size by `Σ_{u ∈ J_{[m]∖{i0}} : u ∼ t*} w(u)` — one grouped
//!   lookup of `t*`'s boundary projection, and
//! * each grouped sub-join weight `T_{E}` with `i0 ∈ E` by the weight of
//!   `t*` semi-joined against the sub-join of `E ∖ {i0}` — one hash probe of
//!   `t*` through the cached sub-join lattice.
//!
//! A [`DeltaJoinPlan`] precomputes, from the sub-join lattice a
//! [`ShardedSubJoinCache`] already holds, the grouped maps and probe indexes
//! these formulas need.  Afterwards every edit costs `O(matches)` hash-map
//! work instead of a full join: [`DeltaJoinPlan::join_size_delta`] returns
//! the signed join-size change, and [`DeltaJoinPlan::max_boundary_after`]
//! returns `max_i T_{[m]∖{i}}(I')` — the local sensitivity of the edited
//! instance — **without building any `JoinResult` over `I'`**.
//!
//! ### Exactness and determinism
//!
//! All arithmetic is the engine's exact `u128` weight arithmetic, so delta
//! results are equal (not merely close) to re-joining the edited instance
//! from scratch; the property tests cross-check delta ≡ full-rejoin ≡ naive
//! on randomized instances and edits.  Evaluation is read-only (`&self`),
//! so edit sweeps parallelise over edits through [`crate::exec::par_map`]
//! with byte-identical output at every worker count.  The one caveat is
//! saturation: weights saturate at `u128::MAX` instead of overflowing, and
//! on such astronomically large joins an incremental subtraction can differ
//! from a saturated recomputation — the same regime in which the full
//! engine's fold-order already affects saturated totals.
//!
//! ### Plan lifetime
//!
//! A plan is **fully owned** (no borrows of the query or instance), so a
//! long-lived [`crate::ExecContext`] retains it in its per-instance LRU slot
//! ([`crate::ExecContext::delta_plan`]) and repeated sweeps over the same
//! `(query, instance)` pair skip the precomputation entirely.  A plan
//! describes one base instance; edits are always interpreted against that
//! base (apply one edit at a time — for multi-edit distances, rebuild on the
//! edited instance, as the smooth-sensitivity BFS does per frontier node).

use crate::attr::AttrId;
use crate::cache::{Keep, ShardedSubJoinCache};
use crate::error::RelationalError;
use crate::exec::Parallelism;
use crate::hash::{FxHashMap, FxHashSet};
use crate::hypergraph::JoinQuery;
use crate::instance::{Instance, NeighborEdit};
use crate::tuple::{intersect_attrs, union_attrs, TupleKey, Value};
use crate::Result;

/// The signed change `count(I') - count(I)` of the join size under one
/// neighbouring edit, kept as a magnitude plus direction so the full `u128`
/// weight range stays representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSizeDelta {
    /// `|count(I') - count(I)|`.
    pub magnitude: u128,
    /// `true` for a removal edit (the join shrinks), `false` for an addition.
    pub removal: bool,
}

impl JoinSizeDelta {
    /// Applies the delta to a base join size (saturating, like the engine's
    /// weight arithmetic).
    pub fn apply(&self, base: u128) -> u128 {
        if self.removal {
            base.saturating_sub(self.magnitude)
        } else {
            base.saturating_add(self.magnitude)
        }
    }
}

/// Where each value of a touched boundary-group key comes from: the edited
/// tuple itself, or the rest-key of a probed lattice entry.
#[derive(Debug, Clone, Copy)]
enum GroupSource {
    /// Position within the edited relation's tuple.
    Edit(usize),
    /// Position within the probe entry's rest key.
    Rest(usize),
}

/// Per edit direction `i`: the base grouped weights of the sub-join
/// `J_{[m]∖{i}}` over the boundary `∂([m]∖{i})`.
#[derive(Debug)]
struct DirectionBase {
    /// `∂([m]∖{i})` — the attributes of `x_i` shared with the others.
    boundary: Vec<AttrId>,
    /// Positions of the boundary attributes within `x_i` (for join-size
    /// probes of edits in relation `i`).
    boundary_positions: Vec<usize>,
    /// Grouped base weights: `g ↦ T_{[m]∖{i}, g}(I)`.
    groups: FxHashMap<TupleKey, u128>,
    /// The same groups sorted by descending weight (ties broken by key), so
    /// the post-edit maximum over *untouched* groups is a short prefix walk.
    sorted: Vec<(u128, TupleKey)>,
    /// `T_{[m]∖{i}}(I)` — the base maximum (1 for `m = 1` by the `T_∅ = 1`
    /// convention).
    base_max: u128,
}

/// Probe state for edits in relation `i0` evaluated against direction
/// `i ≠ i0`: the sub-join `J_S` of `S = [m]∖{i, i0}` grouped by the
/// attributes an edit probe needs, indexed by the shared attributes
/// `x_{i0} ∩ attrs(S)`.
#[derive(Debug)]
struct PairProbe {
    /// Positions (within `x_{i0}`) of the shared attributes the probe keys on.
    sh_positions: Vec<usize>,
    /// How to assemble the full boundary-group key of direction `i` from the
    /// edited tuple and a matched rest key.
    group_plan: Vec<GroupSource>,
    /// `π_sh ↦ [(π_rest, w)]`: for each shared-attribute value the matching
    /// `J_S` groups (rest keys are distinct per shared key by construction).
    index: FxHashMap<TupleKey, Vec<(TupleKey, u128)>>,
}

/// Precomputed state for evaluating single-tuple edits against one base
/// `(query, instance)` pair without re-joining (see the module docs).
#[derive(Debug)]
pub struct DeltaJoinPlan {
    num_relations: usize,
    rel_attrs: Vec<Vec<AttrId>>,
    /// Distinct tuples per relation, for validating removal edits exactly
    /// like [`Instance::apply_edit`] does (presence is all that matters:
    /// multiplicities never enter the delta formulas).
    rel_tuples: Vec<FxHashSet<TupleKey>>,
    directions: Vec<DirectionBase>,
    /// `pairs[i0][i]` for `i ≠ i0` (the diagonal stays `None`: the direction
    /// excluding the edited relation is unaffected by the edit).
    pairs: Vec<Vec<Option<PairProbe>>>,
}

impl DeltaJoinPlan {
    /// Builds a plan from the sub-join lattice of `cache` (which must have
    /// been created over the same `(query, instance)` pair).  Missing lattice
    /// entries are materialised on the way — on a warm cache (e.g. one
    /// checked out of an [`crate::ExecContext`]) the precomputation reuses
    /// every previously computed sub-join.
    pub fn build(
        query: &JoinQuery,
        instance: &Instance,
        cache: &ShardedSubJoinCache<'_>,
        par: Parallelism,
    ) -> Result<Self> {
        let m = query.num_relations();
        if instance.num_relations() != m {
            return Err(RelationalError::RelationCountMismatch {
                expected: m,
                got: instance.num_relations(),
            });
        }
        let rel_attrs: Vec<Vec<AttrId>> =
            (0..m).map(|i| query.relation_attrs(i).to_vec()).collect();
        let rel_tuples: Vec<FxHashSet<TupleKey>> = instance
            .relations()
            .iter()
            .map(|r| r.iter().map(|(t, _)| TupleKey::from_slice(t)).collect())
            .collect();

        let full: u32 = (1u32 << m) - 1;

        // Per-direction base grouped maps: one transient size-(m-1) sub-join
        // each (their shared prefixes are memoised in the lattice; the big
        // top-level results are grouped and dropped, never pinned).
        let mut directions = Vec::with_capacity(m);
        for (i, attrs) in rel_attrs.iter().enumerate() {
            let others_mask = full & !(1u32 << i);
            if others_mask == 0 {
                // m = 1: T_∅ = 1 by convention, and no edit can change it.
                directions.push(DirectionBase {
                    boundary: Vec::new(),
                    boundary_positions: Vec::new(),
                    groups: FxHashMap::default(),
                    sorted: Vec::new(),
                    base_max: 1,
                });
                continue;
            }
            let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
            let boundary = query.boundary(&others)?;
            let boundary_positions = crate::tuple::project_positions(attrs, &boundary)?;
            let joined = cache.join_mask(others_mask, par, Keep::Chain)?;
            let groups = joined.group_by_key(&boundary)?;
            let mut sorted: Vec<(u128, TupleKey)> =
                groups.iter().map(|(k, &w)| (w, k.clone())).collect();
            sorted.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let base_max = sorted.first().map(|&(w, _)| w).unwrap_or(0);
            directions.push(DirectionBase {
                boundary,
                boundary_positions,
                groups,
                sorted,
                base_max,
            });
        }

        // Per (edited relation, direction) pair: the probe index over
        // J_{[m]∖{i, i0}} (memoised in the lattice — these are exactly the
        // size-(m-2) entries the boundary-value enumeration shares).
        let mut pairs: Vec<Vec<Option<PairProbe>>> = Vec::with_capacity(m);
        for (i0, edit_attrs) in rel_attrs.iter().enumerate() {
            let mut row: Vec<Option<PairProbe>> = Vec::with_capacity(m);
            for (i, direction) in directions.iter().enumerate() {
                if i == i0 {
                    row.push(None);
                    continue;
                }
                let s_mask = full & !(1u32 << i) & !(1u32 << i0);
                let s_rels: Vec<usize> = (0..m).filter(|&j| j != i && j != i0).collect();
                let a2 = query.union_attrs(&s_rels)?;
                let sh = intersect_attrs(edit_attrs, &a2);
                let rest: Vec<AttrId> = direction
                    .boundary
                    .iter()
                    .copied()
                    .filter(|a| edit_attrs.binary_search(a).is_err())
                    .collect();
                let key_attrs = union_attrs(&sh, &rest);
                let sh_positions = crate::tuple::project_positions(edit_attrs, &sh)?;
                let sh_in_key = crate::tuple::project_positions(&key_attrs, &sh)?;
                let rest_in_key = crate::tuple::project_positions(&key_attrs, &rest)?;
                // Boundary attributes of direction i come from the edited
                // tuple where x_{i0} covers them, otherwise from the rest key.
                let group_plan: Vec<GroupSource> = direction
                    .boundary
                    .iter()
                    .map(|a| match edit_attrs.binary_search(a) {
                        Ok(p) => GroupSource::Edit(p),
                        Err(_) => GroupSource::Rest(
                            rest.binary_search(a).expect("rest covers non-edit attrs"),
                        ),
                    })
                    .collect();
                let grouped: FxHashMap<TupleKey, u128> = if s_mask == 0 {
                    // S = ∅: the empty join is the unit annotation (weight 1).
                    let mut unit = FxHashMap::default();
                    unit.insert(TupleKey::from_slice(&[]), 1u128);
                    unit
                } else {
                    cache
                        .join_mask(s_mask, par, Keep::Target)?
                        .group_by_key(&key_attrs)?
                };
                let mut index: FxHashMap<TupleKey, Vec<(TupleKey, u128)>> = FxHashMap::default();
                for (key, w) in grouped {
                    let sh_key = TupleKey::from_fn(sh_in_key.len(), |k| key[sh_in_key[k]]);
                    let rest_key = TupleKey::from_fn(rest_in_key.len(), |k| key[rest_in_key[k]]);
                    index.entry(sh_key).or_default().push((rest_key, w));
                }
                row.push(Some(PairProbe {
                    sh_positions,
                    group_plan,
                    index,
                }));
            }
            pairs.push(row);
        }

        Ok(DeltaJoinPlan {
            num_relations: m,
            rel_attrs,
            rel_tuples,
            directions,
            pairs,
        })
    }

    /// Number of relations of the plan's query.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// The base local sensitivity `max_i T_{[m]∖{i}}(I)` of the plan's
    /// instance (precomputed; no probing).
    pub fn base_max_boundary(&self) -> u128 {
        self.directions
            .iter()
            .map(|d| d.base_max)
            .max()
            .unwrap_or(0)
    }

    /// Validates an edit against the base instance, mirroring the errors of
    /// [`Instance::apply_edit`]: relation in range, matching arity, and (for
    /// removals) positive base frequency.
    fn check_edit<'e>(&self, edit: &'e NeighborEdit) -> Result<(usize, &'e [Value], bool)> {
        let (relation, tuple, removal) = (edit.relation(), edit.tuple(), edit.is_removal());
        if relation >= self.num_relations {
            return Err(RelationalError::InvalidRelationSubset(format!(
                "edit targets relation {relation} of a {}-relation query",
                self.num_relations
            )));
        }
        if tuple.len() != self.rel_attrs[relation].len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.rel_attrs[relation].len(),
                got: tuple.len(),
            });
        }
        if removal && !self.rel_tuples[relation].contains(tuple) {
            return Err(RelationalError::FrequencyUnderflow);
        }
        Ok((relation, tuple, removal))
    }

    /// The signed join-size change of applying `edit` to the base instance:
    /// one grouped lookup of the edited tuple's boundary projection, no join.
    pub fn join_size_delta(&self, edit: &NeighborEdit) -> Result<JoinSizeDelta> {
        let (relation, tuple, removal) = self.check_edit(edit)?;
        let dir = &self.directions[relation];
        let magnitude = if self.num_relations == 1 {
            1
        } else {
            let key = TupleKey::from_fn(dir.boundary_positions.len(), |k| {
                tuple[dir.boundary_positions[k]]
            });
            dir.groups.get(key.as_slice()).copied().unwrap_or(0)
        };
        Ok(JoinSizeDelta { magnitude, removal })
    }

    /// `T_{[m]∖{i}}(I')` for the instance obtained by applying `edit`: the
    /// direction's post-edit maximum boundary-group weight, by probing the
    /// edited tuple through the precomputed pair index.
    pub fn boundary_after(&self, direction: usize, edit: &NeighborEdit) -> Result<u128> {
        let (relation, tuple, removal) = self.check_edit(edit)?;
        if direction >= self.num_relations {
            return Err(RelationalError::InvalidRelationSubset(format!(
                "direction {direction} of a {}-relation query",
                self.num_relations
            )));
        }
        Ok(self.direction_after(direction, relation, tuple, removal))
    }

    /// `LS_count(I') = max_i T_{[m]∖{i}}(I')` for the edited instance —
    /// the per-edit quantity the smooth-sensitivity sweeps maximise.
    pub fn max_boundary_after(&self, edit: &NeighborEdit) -> Result<u128> {
        let (relation, tuple, removal) = self.check_edit(edit)?;
        let mut best = 0u128;
        for i in 0..self.num_relations {
            best = best.max(self.direction_after(i, relation, tuple, removal));
        }
        Ok(best)
    }

    fn direction_after(&self, i: usize, i0: usize, tuple: &[Value], removal: bool) -> u128 {
        let dir = &self.directions[i];
        if i == i0 {
            // The sub-join excluding the edited relation never changes.
            return dir.base_max;
        }
        let probe = self.pairs[i0][i].as_ref().expect("off-diagonal pair");
        let sh_key = TupleKey::from_fn(probe.sh_positions.len(), |k| tuple[probe.sh_positions[k]]);
        let matches = match probe.index.get(sh_key.as_slice()) {
            // The edited tuple joins nothing: every group keeps its weight.
            None => return dir.base_max,
            Some(matches) => matches,
        };
        // Touched groups get base ± w; the maximum over untouched groups is
        // the first entry of the sorted base list whose key is untouched.
        let mut touched: FxHashMap<TupleKey, u128> = FxHashMap::default();
        let mut touched_max = 0u128;
        for (rest_key, w) in matches {
            let g = TupleKey::from_fn(probe.group_plan.len(), |k| match probe.group_plan[k] {
                GroupSource::Edit(p) => tuple[p],
                GroupSource::Rest(p) => rest_key[p],
            });
            let base = dir.groups.get(g.as_slice()).copied().unwrap_or(0);
            let after = if removal {
                // A removal needs base frequency ≥ 1, whose contribution to
                // the group is at least w — never underflows off saturation.
                debug_assert!(base >= *w, "removal delta exceeds base group weight");
                base.saturating_sub(*w)
            } else {
                base.saturating_add(*w)
            };
            touched_max = touched_max.max(after);
            touched.insert(g, after);
        }
        let untouched_max = dir
            .sorted
            .iter()
            .find(|(_, key)| !touched.contains_key(key.as_slice()))
            .map(|&(w, _)| w)
            .unwrap_or(0);
        touched_max.max(untouched_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::join_size;
    use crate::relation::Relation;

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

    fn plan_for<'a>(q: &'a JoinQuery, inst: &'a Instance) -> DeltaJoinPlan {
        let cache = ShardedSubJoinCache::new(q, inst).unwrap();
        DeltaJoinPlan::build(q, inst, &cache, Parallelism::SEQUENTIAL).unwrap()
    }

    /// Local sensitivity of an instance the slow way, as the oracle.
    fn ls_oracle(q: &JoinQuery, inst: &Instance) -> u128 {
        let m = q.num_relations();
        let mut best = 0u128;
        for i in 0..m {
            let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
            let t = if others.is_empty() {
                1
            } else {
                let boundary = q.boundary(&others).unwrap();
                crate::join::join_subset(q, inst, &others)
                    .unwrap()
                    .max_group_weight(&boundary)
                    .unwrap()
            };
            best = best.max(t);
        }
        best
    }

    #[test]
    fn join_size_delta_matches_rejoin_on_every_removal() {
        let (q, inst) = two_table();
        let plan = plan_for(&q, &inst);
        let base = join_size(&q, &inst).unwrap();
        for edit in inst.removal_edits() {
            let delta = plan.join_size_delta(&edit).unwrap();
            assert!(delta.removal);
            let rejoined = join_size(&q, &inst.apply_edit(&edit).unwrap()).unwrap();
            assert_eq!(delta.apply(base), rejoined, "edit {edit:?}");
        }
    }

    #[test]
    fn join_size_delta_matches_rejoin_on_additions() {
        let (q, inst) = two_table();
        let plan = plan_for(&q, &inst);
        let base = join_size(&q, &inst).unwrap();
        for relation in 0..2usize {
            for a in 0..4u64 {
                for b in 0..4u64 {
                    let edit = NeighborEdit::Add {
                        relation,
                        tuple: vec![a, b],
                    };
                    let delta = plan.join_size_delta(&edit).unwrap();
                    assert!(!delta.removal);
                    let rejoined = join_size(&q, &inst.apply_edit(&edit).unwrap()).unwrap();
                    assert_eq!(delta.apply(base), rejoined, "edit {edit:?}");
                }
            }
        }
    }

    #[test]
    fn max_boundary_after_matches_recomputed_local_sensitivity() {
        let (q, inst) = two_table();
        let plan = plan_for(&q, &inst);
        assert_eq!(plan.base_max_boundary(), ls_oracle(&q, &inst));
        let mut edits = inst.removal_edits();
        for relation in 0..2usize {
            for v in 0..4u64 {
                edits.push(NeighborEdit::Add {
                    relation,
                    tuple: vec![v, (v + 1) % 4],
                });
            }
        }
        for edit in &edits {
            let neighbor = inst.apply_edit(edit).unwrap();
            assert_eq!(
                plan.max_boundary_after(edit).unwrap(),
                ls_oracle(&q, &neighbor),
                "edit {edit:?}"
            );
            // Per-direction values match too.
            for i in 0..2usize {
                let others: Vec<usize> = (0..2).filter(|&j| j != i).collect();
                let boundary = q.boundary(&others).unwrap();
                let expect = crate::join::join_subset(&q, &neighbor, &others)
                    .unwrap()
                    .max_group_weight(&boundary)
                    .unwrap();
                assert_eq!(
                    plan.boundary_after(i, edit).unwrap(),
                    expect,
                    "direction {i}, edit {edit:?}"
                );
            }
        }
    }

    #[test]
    fn star_edits_match_recomputation() {
        let q = JoinQuery::star(3, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for a in 0..2u64 {
            inst.relation_mut(0).add(vec![0, a], 1).unwrap();
        }
        for a in 0..3u64 {
            inst.relation_mut(1).add(vec![0, a], 2).unwrap();
        }
        for a in 0..4u64 {
            inst.relation_mut(2).add(vec![(a % 2), a], 1).unwrap();
        }
        let plan = plan_for(&q, &inst);
        let base = join_size(&q, &inst).unwrap();
        let mut edits = inst.removal_edits();
        for relation in 0..3usize {
            for hub in 0..3u64 {
                edits.push(NeighborEdit::Add {
                    relation,
                    tuple: vec![hub, 7],
                });
            }
        }
        for edit in &edits {
            let neighbor = inst.apply_edit(edit).unwrap();
            assert_eq!(
                plan.join_size_delta(edit).unwrap().apply(base),
                join_size(&q, &neighbor).unwrap(),
                "edit {edit:?}"
            );
            assert_eq!(
                plan.max_boundary_after(edit).unwrap(),
                ls_oracle(&q, &neighbor),
                "edit {edit:?}"
            );
        }
    }

    #[test]
    fn single_relation_query_deltas_are_unit() {
        let schema = crate::attr::Schema::new(vec![crate::attr::Attribute::new("A", 4)]);
        let q = JoinQuery::new(schema, vec![ids(&[0])]).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![1], 3).unwrap();
        let plan = plan_for(&q, &inst);
        assert_eq!(plan.base_max_boundary(), 1);
        let remove = NeighborEdit::Remove {
            relation: 0,
            tuple: vec![1],
        };
        let delta = plan.join_size_delta(&remove).unwrap();
        assert_eq!((delta.magnitude, delta.removal), (1, true));
        assert_eq!(plan.max_boundary_after(&remove).unwrap(), 1);
        let add = NeighborEdit::Add {
            relation: 0,
            tuple: vec![0],
        };
        assert_eq!(plan.join_size_delta(&add).unwrap().apply(3), 4);
    }

    #[test]
    fn invalid_edits_are_rejected_like_apply_edit() {
        let (q, inst) = two_table();
        let plan = plan_for(&q, &inst);
        // Out-of-range relation.
        let bad_rel = NeighborEdit::Add {
            relation: 5,
            tuple: vec![0, 0],
        };
        assert!(plan.join_size_delta(&bad_rel).is_err());
        // Arity mismatch.
        let bad_arity = NeighborEdit::Add {
            relation: 0,
            tuple: vec![0],
        };
        assert!(matches!(
            plan.max_boundary_after(&bad_arity),
            Err(RelationalError::ArityMismatch { .. })
        ));
        // Removing an absent tuple fails exactly like Instance::apply_edit.
        let absent = NeighborEdit::Remove {
            relation: 0,
            tuple: vec![7, 7],
        };
        assert!(inst.apply_edit(&absent).is_err());
        assert!(matches!(
            plan.max_boundary_after(&absent),
            Err(RelationalError::FrequencyUnderflow)
        ));
        // Out-of-range direction.
        let ok = NeighborEdit::Remove {
            relation: 0,
            tuple: vec![0, 0],
        };
        assert!(plan.boundary_after(9, &ok).is_err());
    }

    #[test]
    fn disconnected_subset_edits_cross_products() {
        // Path of length 3: the middle relation's removal leaves the two end
        // relations attribute-disjoint, so direction 1's sub-join is a cross
        // product — the delta path must agree with recomputation there too.
        let q = JoinQuery::path(3, 4).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        inst.relation_mut(0).add(vec![0, 1], 2).unwrap();
        inst.relation_mut(1).add(vec![1, 2], 3).unwrap();
        inst.relation_mut(2).add(vec![2, 3], 5).unwrap();
        inst.relation_mut(2).add(vec![2, 0], 1).unwrap();
        let plan = plan_for(&q, &inst);
        let base = join_size(&q, &inst).unwrap();
        let mut edits = inst.removal_edits();
        edits.push(NeighborEdit::Add {
            relation: 1,
            tuple: vec![1, 2],
        });
        edits.push(NeighborEdit::Add {
            relation: 0,
            tuple: vec![3, 1],
        });
        for edit in &edits {
            let neighbor = inst.apply_edit(edit).unwrap();
            assert_eq!(
                plan.join_size_delta(edit).unwrap().apply(base),
                join_size(&q, &neighbor).unwrap(),
                "edit {edit:?}"
            );
            assert_eq!(
                plan.max_boundary_after(edit).unwrap(),
                ls_oracle(&q, &neighbor),
                "edit {edit:?}"
            );
        }
    }
}
