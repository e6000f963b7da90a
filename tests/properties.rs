//! Property-based integration tests over the whole stack: join algebra,
//! hash-engine vs. naive-engine cross-checks, sensitivity invariants and
//! partition invariants on randomly generated instances.
//!
//! The environment has no crates.io access, so instead of `proptest` these
//! properties are exercised on seeded randomized instances drawn from
//! `dpsyn-datagen` (deterministic and reproducible: every failure reports
//! the case seed).

use dpsyn::prelude::*;
use dpsyn_core::{partition_two_table, verify_two_table_partition};
use dpsyn_datagen::{random_path, random_star, random_two_table, zipf_two_table};
use dpsyn_noise::seeded_rng;
use dpsyn_relational::naive::{all_boundary_values_naive, join_size_naive, join_subset_naive};
use dpsyn_relational::{deg_multi, join_subset, JoinResult, NeighborEdit, SubJoinLattice, Value};
use dpsyn_sensitivity::{all_boundary_values, candidate_edits, ls_hat_k, SensitivityOps};

const CASES: u64 = 24;

/// Builds a two-table instance from arbitrary (a, b) / (b, c) pairs over a
/// small domain.
fn instance_from_pairs(r1: &[(u8, u8)], r2: &[(u8, u8)]) -> (JoinQuery, Instance) {
    let query = JoinQuery::two_table(8, 8, 8);
    let mut inst = Instance::empty_for(&query).unwrap();
    for &(a, b) in r1 {
        inst.relation_mut(0)
            .add(vec![(a % 8) as u64, (b % 8) as u64], 1)
            .unwrap();
    }
    for &(b, c) in r2 {
        inst.relation_mut(1)
            .add(vec![(b % 8) as u64, (c % 8) as u64], 1)
            .unwrap();
    }
    (query, inst)
}

/// Draws a random small two-table instance (pair lists) from a seed.
fn random_pairs(seed: u64, max_len: usize) -> (JoinQuery, Instance) {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let n1 = rng.random_range(0..max_len.max(1));
    let n2 = rng.random_range(0..max_len.max(1));
    let r1: Vec<(u8, u8)> = (0..n1)
        .map(|_| {
            (
                rng.random_range(0u64..8) as u8,
                rng.random_range(0u64..8) as u8,
            )
        })
        .collect();
    let r2: Vec<(u8, u8)> = (0..n2)
        .map(|_| {
            (
                rng.random_range(0u64..8) as u8,
                rng.random_range(0u64..8) as u8,
            )
        })
        .collect();
    instance_from_pairs(&r1, &r2)
}

/// Enumerates the non-empty sorted relation subsets of an m-relation query.
fn non_empty_subsets(m: usize) -> Vec<Vec<usize>> {
    (1u32..(1 << m))
        .map(|mask| (0..m).filter(|i| mask & (1 << i) != 0).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Hash engine vs. retained naive reference
// ---------------------------------------------------------------------------

/// The hash-join engine and the naive BTreeMap engine agree on every subset:
/// attribute lists, totals, per-tuple weights (iterated in the same sorted
/// order), and group-by maps over every attribute subset of the boundary.
#[test]
fn hash_join_matches_naive_reference_on_random_instances() {
    for seed in 0..CASES {
        // Mix shapes: uniform two-table, Zipf two-table, 3- and 4-star.
        let shapes: Vec<(JoinQuery, Instance)> = vec![
            random_two_table(16, 60, &mut seeded_rng(seed * 4)),
            zipf_two_table(16, 60, 1.2, &mut seeded_rng(seed * 4 + 1)),
            random_star(3, 8, 40, 1.0, &mut seeded_rng(seed * 4 + 2)),
            random_star(4, 8, 30, 1.1, &mut seeded_rng(seed * 4 + 3)),
        ];
        for (query, inst) in &shapes {
            for rels in non_empty_subsets(query.num_relations()) {
                let fast = join_subset(query, inst, &rels).unwrap();
                let slow = join_subset_naive(query, inst, &rels).unwrap();
                assert_eq!(fast.attrs(), slow.attrs(), "attrs differ, seed {seed}");
                assert_eq!(fast.total(), slow.total(), "totals differ, seed {seed}");
                assert_eq!(
                    fast.distinct_count(),
                    slow.distinct_count(),
                    "distinct counts differ, seed {seed}"
                );
                // Sorted emission must match the BTreeMap's natural order
                // tuple by tuple.
                let fast_tuples: Vec<(Vec<Value>, u128)> =
                    fast.iter().map(|(t, w)| (t.to_vec(), w)).collect();
                let slow_tuples: Vec<(Vec<Value>, u128)> =
                    slow.iter().map(|(t, w)| (t.clone(), w)).collect();
                assert_eq!(
                    fast_tuples, slow_tuples,
                    "tuple streams differ, seed {seed}"
                );
                // Group-by agrees on the boundary attributes.
                let boundary = query.boundary(&rels).unwrap();
                assert_eq!(
                    fast.group_by(&boundary).unwrap(),
                    slow.group_by(&boundary).unwrap(),
                    "group-by differs, seed {seed}"
                );
                assert_eq!(
                    fast.max_group_weight(&boundary).unwrap(),
                    slow.max_group_weight(&boundary).unwrap(),
                );
            }
        }
    }
}

/// The shared sub-join cache returns the same boundary values as recomputing
/// every subset from scratch with the naive engine.
#[test]
fn cached_boundary_values_match_naive_recomputation() {
    for seed in 0..CASES {
        let (query, inst) = random_star(4, 8, 25, 1.0, &mut seeded_rng(1000 + seed));
        let cached = all_boundary_values(&query, &inst).unwrap();
        let naive = all_boundary_values_naive(&query, &inst).unwrap();
        assert_eq!(cached, naive, "boundary values differ, seed {seed}");
    }
}

/// Multi-relation degree maps through an execution context (the path the
/// hierarchical release takes) agree with the free function at every
/// thread count, and with Definition 4.7 evaluated over the naive engine:
/// for `|E| > 1`, `deg_{E,y}(t)` counts the distinct projections of the
/// sub-join onto `⋂_{i∈E} x_i` that project further onto `t`.
#[test]
fn context_degree_maps_match_free_function_and_naive() {
    for seed in 0..CASES {
        let (query, inst) = random_star(3, 8, 30, 1.0, &mut seeded_rng(2000 + seed));
        let hub = vec![AttrId(0)];
        for rels in non_empty_subsets(query.num_relations()) {
            let plain = deg_multi(&query, &inst, &rels, &hub).unwrap();
            for threads in [1usize, 4] {
                let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
                let via_ctx = ctx.deg_multi(&query, &inst, &rels, &hub).unwrap();
                assert_eq!(plain, via_ctx, "seed {seed}, threads {threads}, E {rels:?}");
            }
            if rels.len() > 1 {
                // In a star every relation holds the hub, so ⋂ x_i = {hub}
                // and each distinct hub value of the sub-join counts once.
                let naive = join_subset_naive(&query, &inst, &rels).unwrap();
                let mut expect: std::collections::BTreeMap<Vec<Value>, u64> = Default::default();
                for (hub_value, _) in naive.group_by(&hub).unwrap() {
                    expect.insert(hub_value, 1);
                }
                assert_eq!(plain, expect, "seed {seed}, E {rels:?}");
            }
        }
    }
}

/// Single-relation degree maps (used all over the release algorithms) match
/// a direct fold over the relation's tuples.
#[test]
fn degree_map_matches_direct_fold() {
    for seed in 0..CASES {
        let (query, inst) = random_pairs(3000 + seed, 50);
        let shared = vec![AttrId(1)];
        for r in 0..query.num_relations() {
            let rel = inst.relation(r);
            let pos = dpsyn_relational::project_positions(rel.attrs(), &shared).unwrap();
            let deg = rel.degree_map(&shared).unwrap();
            let mut expect: std::collections::BTreeMap<Vec<Value>, u64> = Default::default();
            for (t, f) in rel.iter() {
                *expect.entry(vec![t[pos[0]]]).or_insert(0) += f;
            }
            assert_eq!(deg, expect, "degree map differs, seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel execution layer: N threads ≡ 1 thread ≡ naive reference
// ---------------------------------------------------------------------------

/// Parallel joins are **byte-identical** to the sequential path — same
/// construction order, not merely the same weighted set — and both agree
/// with the naive `BTreeMap` oracle.  Instances are sized past the engine's
/// parallel-probe threshold so multi-thread runs really partition the loop.
#[test]
fn parallel_join_is_byte_identical_to_sequential_and_matches_naive() {
    for seed in 0..6u64 {
        let shapes: Vec<(JoinQuery, Instance)> = vec![
            zipf_two_table(64, 2500, 1.1, &mut seeded_rng(9000 + seed)),
            random_star(3, 16, 1400, 1.0, &mut seeded_rng(9100 + seed)),
        ];
        for (query, inst) in &shapes {
            let all: Vec<usize> = (0..query.num_relations()).collect();
            let seq = ExecContext::sequential()
                .join_subset(query, inst, &all)
                .unwrap();
            for threads in [2usize, 4, 8] {
                let par = ExecContext::with_threads(threads)
                    .join(query, inst)
                    .unwrap();
                assert_eq!(par.attrs(), seq.attrs(), "seed {seed}");
                let seq_rows: Vec<(&[Value], u128)> = seq.iter_unordered().collect();
                let par_rows: Vec<(&[Value], u128)> = par.iter_unordered().collect();
                assert_eq!(par_rows, seq_rows, "seed {seed}, threads {threads}");
            }
            // The sequential path itself agrees with the naive oracle.
            let naive = join_subset_naive(query, inst, &all).unwrap();
            assert_eq!(seq.total(), naive.total(), "seed {seed}");
            assert_eq!(seq.distinct_count(), naive.distinct_count(), "seed {seed}");
        }
    }
}

/// Residual sensitivity, its boundary values and local sensitivity agree
/// across every parallelism level.  Small instances (the seq-vs-naive
/// agreement is covered by `cached_boundary_values_match_naive_recomputation`)
/// exercise the small-instance sequential fallback; the large instances here
/// are sized past the engine's parallelism threshold so the pooled lattice
/// build really runs.
#[test]
fn parallel_sensitivity_matches_sequential_and_naive() {
    for seed in 0..3u64 {
        let (query, inst) = random_star(4, 64, 800, 0.5, &mut seeded_rng(9500 + seed));
        let beta = 0.1 + (seed as f64) / 10.0;
        let seq_ctx = ExecContext::sequential();
        let seq_bv = all_boundary_values(&query, &inst).unwrap();
        let seq_rs = seq_ctx.residual_sensitivity(&query, &inst, beta).unwrap();
        let seq_ls = seq_ctx.local_sensitivity(&query, &inst).unwrap();
        for threads in [2usize, 4] {
            let ctx = ExecContext::with_threads(threads);
            let par_bv = ctx.all_boundary_values(&query, &inst).unwrap();
            assert_eq!(par_bv, seq_bv, "seed {seed}, threads {threads}");
            let par_rs = ctx.residual_sensitivity(&query, &inst, beta).unwrap();
            assert_eq!(par_rs, seq_rs, "seed {seed}, threads {threads}");
            let par_ls = ctx.local_sensitivity(&query, &inst).unwrap();
            assert_eq!(par_ls, seq_ls, "seed {seed}, threads {threads}");
        }
        // On a deliberately small instance the same calls fall back to the
        // sequential path and still agree with the naive oracle.
        let (small_q, small_inst) = random_star(4, 8, 40, 1.0, &mut seeded_rng(9700 + seed));
        let small_bv = ExecContext::with_threads(4)
            .all_boundary_values(&small_q, &small_inst)
            .unwrap();
        assert_eq!(
            small_bv,
            all_boundary_values_naive(&small_q, &small_inst).unwrap(),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// Sub-join lattice: lattice ≡ direct fold ≡ naive, warm ≡ cold
// ---------------------------------------------------------------------------

/// The lattice's fixed-prefix decomposition produces exactly the same
/// sub-join values as the size-ordered direct fold and the naive `BTreeMap`
/// oracle — per subset, per boundary grouping — on chain, star and
/// skewed-degree instances; and the context entry points return identical
/// sensitivities warm and cold, at the sequential and the
/// environment-default parallelism (CI runs this suite at
/// `DPSYN_THREADS=1` and at the default count).
#[test]
fn lattice_decomposition_matches_direct_fold_and_naive() {
    for seed in 0..5u64 {
        let shapes: Vec<(&str, (JoinQuery, Instance))> = vec![
            (
                "chain",
                random_path(4, 12, 36, 1.0, &mut seeded_rng(14_000 + seed)),
            ),
            (
                "star",
                random_star(4, 8, 24, 0.0, &mut seeded_rng(14_100 + seed)),
            ),
            (
                "skew",
                random_star(4, 8, 24, 1.8, &mut seeded_rng(14_200 + seed)),
            ),
        ];
        for (shape, (query, inst)) in shapes {
            let m = query.num_relations();
            let lattice = SubJoinLattice::build(&query, &inst, Parallelism::SEQUENTIAL).unwrap();
            for rels in non_empty_subsets(m).into_iter().filter(|r| r.len() < m) {
                let mask = rels.iter().fold(0u32, |mask, &i| mask | (1 << i));
                let a = lattice.get(mask);
                let b = join_subset(&query, &inst, &rels).unwrap();
                let naive = join_subset_naive(&query, &inst, &rels).unwrap();
                assert_eq!(a.total(), naive.total(), "{shape}, seed {seed}");
                assert_eq!(
                    a.distinct_count(),
                    naive.distinct_count(),
                    "{shape}, seed {seed}"
                );
                // Lattice and direct fold agree as weighted tuple sets
                // (order-insensitive equality), and on every aggregate the
                // lattice consumers read.
                assert_eq!(a, &b, "{shape}, seed {seed}");
                let boundary = query.boundary(&rels).unwrap();
                assert_eq!(
                    a.group_by(&boundary).unwrap(),
                    naive.group_by(&boundary).unwrap(),
                    "{shape}, seed {seed}"
                );
            }

            // Context entry points: warm calls must match cold calls, the
            // free functions, and the naive oracle — at the sequential and
            // the default parallelism.
            let naive_bv = all_boundary_values_naive(&query, &inst).unwrap();
            let fixed_bv = all_boundary_values(&query, &inst).unwrap();
            assert_eq!(fixed_bv, naive_bv, "{shape}, seed {seed}");
            let beta = 0.15 + (seed as f64) / 10.0;
            for ctx in [ExecContext::sequential(), ExecContext::default()] {
                let cold_bv = ctx.all_boundary_values(&query, &inst).unwrap();
                assert_eq!(cold_bv, naive_bv, "{shape}, seed {seed} (cold)");
                let warm_bv = ctx.all_boundary_values(&query, &inst).unwrap();
                assert_eq!(warm_bv, cold_bv, "{shape}, seed {seed} (warm)");
                let cold_ls = ctx.local_sensitivity(&query, &inst).unwrap();
                assert_eq!(
                    cold_ls,
                    local_sensitivity(&query, &inst).unwrap(),
                    "{shape}, seed {seed}"
                );
                assert_eq!(
                    ctx.local_sensitivity(&query, &inst).unwrap(),
                    cold_ls,
                    "{shape}, seed {seed} (warm)"
                );
                let cold_rs = ctx.residual_sensitivity(&query, &inst, beta).unwrap();
                assert_eq!(
                    cold_rs,
                    residual_sensitivity(&query, &inst, beta).unwrap(),
                    "{shape}, seed {seed}"
                );
                assert_eq!(
                    ctx.residual_sensitivity(&query, &inst, beta).unwrap(),
                    cold_rs,
                    "{shape}, seed {seed} (warm)"
                );
            }
        }
    }
}

/// On the correlated workload (a fat two-attribute-key pair) and the
/// heavy-hitter skewed star, the parallel lattice build produces the same
/// lattice at every worker count as the sequential build, mask for mask,
/// and the context entry points match the naive oracle — cold and warm, at
/// 1/2/4/8 threads.
#[test]
fn populate_is_byte_identical_across_threads_and_naive() {
    use dpsyn_datagen::{correlated_pair, heavy_hitter_star};
    for seed in 0..2u64 {
        let shapes: Vec<(&str, (JoinQuery, Instance))> = vec![
            (
                "correlated",
                correlated_pair(3, 48, 12, 256, 6, &mut seeded_rng(20_000 + seed)),
            ),
            (
                "skew",
                heavy_hitter_star(3, 24, 60, 0.5, &mut seeded_rng(20_100 + seed)),
            ),
        ];
        for (shape, (query, inst)) in &shapes {
            let m = query.num_relations();
            let naive_bv = all_boundary_values_naive(query, inst).unwrap();

            // Direct lattice check: both builds materialise every proper
            // mask.
            let built = |par: Parallelism| SubJoinLattice::build(query, inst, par).unwrap();
            let sequential = built(Parallelism::SEQUENTIAL);
            for threads in [1usize, 2, 4, 8] {
                let parallel = built(Parallelism::threads(threads));
                for mask in 1u32..((1u32 << m) - 1) {
                    assert_eq!(
                        parallel.get(mask),
                        sequential.get(mask),
                        "{shape}, seed {seed}, threads {threads}, mask {mask:#b}"
                    );
                }
            }

            // Context entry points: cold and warm answers match the naive
            // oracle at every thread count.
            for threads in [1usize, 2, 4, 8] {
                let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
                let cold = ctx.all_boundary_values(query, inst).unwrap();
                assert_eq!(
                    cold, naive_bv,
                    "{shape}, seed {seed}, threads {threads} (cold)"
                );
                let warm = ctx.all_boundary_values(query, inst).unwrap();
                assert_eq!(
                    warm, naive_bv,
                    "{shape}, seed {seed}, threads {threads} (warm)"
                );
                assert_eq!(
                    ctx.local_sensitivity(query, inst).unwrap(),
                    local_sensitivity(query, inst).unwrap(),
                    "{shape}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// Boundary values, residual sensitivity, local sensitivity and join sizes
/// read through a context are byte-identical across thread counts
/// and warm/cold state, and equal to the naive oracle — including when
/// grouped weights saturate.
#[test]
fn lattice_reads_are_byte_identical_across_threads_and_naive() {
    use dpsyn_datagen::{correlated_pair, heavy_hitter_star};
    for seed in 0..2u64 {
        let shapes: Vec<(&str, (JoinQuery, Instance))> = vec![
            (
                "chain",
                random_path(3, 12, 40, 1.0, &mut seeded_rng(30_000 + seed)),
            ),
            (
                "star",
                random_star(3, 12, 40, 1.0, &mut seeded_rng(30_100 + seed)),
            ),
            (
                "skewed",
                heavy_hitter_star(3, 24, 60, 0.5, &mut seeded_rng(30_200 + seed)),
            ),
            (
                "correlated",
                correlated_pair(3, 48, 12, 256, 6, &mut seeded_rng(30_300 + seed)),
            ),
        ];
        for (shape, (query, inst)) in &shapes {
            let naive_bv = all_boundary_values_naive(query, inst).unwrap();
            let naive_size = join_size_naive(query, inst).unwrap();
            let oracle_rs = residual_sensitivity(query, inst, 0.4).unwrap();
            let oracle_ls = local_sensitivity(query, inst).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
                let tag = format!("{shape}, seed {seed}, threads {threads}");
                let cold = ctx.all_boundary_values(query, inst).unwrap();
                assert_eq!(cold, naive_bv, "{tag} (cold)");
                // Warm reads hit the boundary map the slot memoised and
                // must not drift.
                let warm = ctx.all_boundary_values(query, inst).unwrap();
                assert_eq!(warm, naive_bv, "{tag} (warm)");
                assert_eq!(
                    ctx.residual_sensitivity(query, inst, 0.4).unwrap(),
                    oracle_rs,
                    "{tag}"
                );
                assert_eq!(
                    ctx.local_sensitivity(query, inst).unwrap(),
                    oracle_ls,
                    "{tag}"
                );
                assert_eq!(ctx.join_size(query, inst).unwrap(), naive_size, "{tag}");
            }
        }
    }

    // Saturation: grouped weights clamp at u128::MAX exactly as in the
    // naive engine.  Three u64::MAX·u64::MAX match pairs land in one
    // boundary group of the {0,1} sub-join, so its max (= the local
    // sensitivity of relation 2) saturates.
    let query = JoinQuery::path(3, 4).unwrap();
    let mut inst = Instance::empty_for(&query).unwrap();
    for v in 0..3u64 {
        inst.relation_mut(0).add(vec![v, 0], u64::MAX).unwrap();
    }
    inst.relation_mut(1).add(vec![0, 0], u64::MAX).unwrap();
    inst.relation_mut(2).add(vec![0, 0], 1).unwrap();
    let naive_bv = all_boundary_values_naive(&query, &inst).unwrap();
    assert_eq!(naive_bv[&vec![0usize, 1]], u128::MAX, "fixture saturates");
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
        assert_eq!(
            ctx.all_boundary_values(&query, &inst).unwrap(),
            naive_bv,
            "threads {threads}"
        );
        assert_eq!(
            ctx.local_sensitivity(&query, &inst).unwrap(),
            u128::MAX,
            "threads {threads}"
        );
    }
}

// ---------------------------------------------------------------------------
// Join algebra
// ---------------------------------------------------------------------------

/// The join size always equals Σ_b deg1(b)·deg2(b) for two tables.
#[test]
fn join_size_matches_degree_formula() {
    for seed in 0..CASES {
        let (query, inst) = random_pairs(seed, 40);
        let shared = vec![AttrId(1)];
        let d1 = inst.relation(0).degree_map(&shared).unwrap();
        let d2 = inst.relation(1).degree_map(&shared).unwrap();
        let expected: u128 = d1
            .iter()
            .map(|(b, &f1)| f1 as u128 * d2.get(b).copied().unwrap_or(0) as u128)
            .sum();
        assert_eq!(join_size(&query, &inst).unwrap(), expected, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Sensitivity invariants
// ---------------------------------------------------------------------------

/// Local sensitivity really bounds the join-size change of any single
/// candidate edit (every removal and every candidate addition), and the
/// hash engine's join size of each neighbour matches the naive oracle.
#[test]
fn local_sensitivity_bounds_single_edits() {
    for seed in 0..CASES {
        let (query, inst) = random_pairs(4000 + seed, 30);
        let ls = local_sensitivity(&query, &inst).unwrap();
        let base = join_size(&query, &inst).unwrap();
        for edit in candidate_edits(&query, &inst).unwrap() {
            let neighbor = inst.apply_edit(&edit).unwrap();
            let size = join_size(&query, &neighbor).unwrap();
            assert_eq!(
                size,
                join_size_naive(&query, &neighbor).unwrap(),
                "seed {seed}, edit {edit:?}"
            );
            let diff = size.abs_diff(base);
            assert!(
                diff <= ls,
                "seed {seed}, edit {edit:?}: diff {diff} exceeds LS {ls}"
            );
        }
    }
}

/// Residual sensitivity dominates the local sensitivity of every instance
/// within distance k discounted by e^{-βk} (the smoothness property, tested
/// through the L̂S^k characterisation).
#[test]
fn residual_sensitivity_dominates_discounted_neighborhoods() {
    for seed in 0..CASES {
        let (query, inst) = random_pairs(5000 + seed, 20);
        let beta = 0.05 + (seed as f64) / (CASES as f64);
        let rs = residual_sensitivity(&query, &inst, beta).unwrap().value;
        for k in 0..3u64 {
            let lsk = ls_hat_k(&query, &inst, k).unwrap();
            assert!(
                rs + 1e-9 >= (-beta * k as f64).exp() * lsk,
                "seed {seed}, k {k}"
            );
        }
    }
}

/// Residual sensitivity changes by at most e^{±β} across a neighbouring
/// edit (β-smoothness, checked on an explicit random edit).
#[test]
fn residual_sensitivity_is_beta_smooth_across_one_edit() {
    use rand::Rng;
    for seed in 0..CASES {
        let (query, inst) = random_pairs(6000 + seed, 20);
        let beta = 0.25;
        let mut rng = seeded_rng(60_000 + seed);
        let rs_here = residual_sensitivity(&query, &inst, beta).unwrap().value;
        let neighbor = inst
            .apply_edit(&NeighborEdit::Add {
                relation: 0,
                tuple: vec![rng.random_range(0u64..8), rng.random_range(0u64..8)],
            })
            .unwrap();
        let rs_there = residual_sensitivity(&query, &neighbor, beta).unwrap().value;
        assert!(rs_there <= beta.exp() * rs_here + 1e-9, "seed {seed}");
        assert!(rs_here <= beta.exp() * rs_there + 1e-9, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Partition and release invariants
// ---------------------------------------------------------------------------

/// Algorithm 5's partition always reassembles the original instance and
/// never splits a join value across buckets.
#[test]
fn two_table_partition_is_a_partition() {
    for seed in 0..CASES {
        let (query, inst) = random_pairs(7000 + seed, 30);
        let params = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut rng = seeded_rng(70_000 + seed);
        let buckets = partition_two_table(&query, &inst, params, &mut rng).unwrap();
        assert!(verify_two_table_partition(&inst, &buckets), "seed {seed}");
        let total: u128 = buckets
            .iter()
            .map(|b| join_size(&query, &b.sub_instance).unwrap())
            .sum();
        assert_eq!(total, join_size(&query, &inst).unwrap(), "seed {seed}");
    }
}

/// Query answering is linear: answers over a histogram scale with the
/// histogram (post-processing consistency of the released object).
#[test]
fn released_answers_are_linear_in_the_histogram() {
    for seed in 0..CASES {
        let (query, inst) = random_pairs(8000 + seed, 20);
        let mut rng = seeded_rng(80_000 + seed);
        let family = QueryFamily::random_sign(&query, 4, &mut rng).unwrap();
        // A non-uniform histogram of the join's mass: one MW step on a
        // sign query.
        let count = join_size(&query, &inst).unwrap() as f64;
        let mut hist = Histogram::uniform(&query, count, 1 << 20).unwrap();
        let step = hist.query_weight_vector(&query, family.query(1)).unwrap();
        hist.multiplicative_update(&step, 0.5);
        let answers = hist.answer_all(&query, &family).unwrap();
        let mut doubled = hist.clone();
        doubled.scale(2.0);
        let answers2 = doubled.answer_all(&query, &family).unwrap();
        for (a, b) in answers.iter().zip(answers2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-6, "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming updates: updated context ≡ rebuilt ≡ naive
// ---------------------------------------------------------------------------

/// A context never serves stale state after an update: after every batch of
/// a seeded update stream — pure inserts, pure deletes, and mixed — a
/// context warmed before the batch answers exactly like a cold context over
/// a rebuilt copy of the instance, which in turn matches the naive oracle.
/// Checked per mask (boundary values cover every lattice entry), on the
/// full join's sorted emission, at 1/2/4/8 threads, on warm and cold
/// contexts alike; and the warmed context drops its old slot rather than
/// orphaning it, so its slot count never grows across batches.
#[test]
fn updated_context_is_byte_identical_to_rebuild_and_naive() {
    use dpsyn_datagen::{update_stream, UpdateStreamConfig};
    use dpsyn_relational::apply_batch;
    for seed in 0..1u64 {
        let shapes: Vec<(&str, (JoinQuery, Instance))> = vec![
            (
                "chain",
                random_path(3, 8, 30, 1.0, &mut seeded_rng(15_000 + seed)),
            ),
            (
                "star",
                random_star(3, 8, 30, 1.0, &mut seeded_rng(15_100 + seed)),
            ),
            (
                "skew",
                dpsyn_datagen::heavy_hitter_star(3, 16, 60, 0.5, &mut seeded_rng(15_200 + seed)),
            ),
        ];
        let kinds = [("add", 0.0f64), ("del", 1.0), ("mix", 0.5)];
        for (shape, (query, inst)) in &shapes {
            for (kind, delete_fraction) in kinds {
                let config = UpdateStreamConfig {
                    batches: 3,
                    batch_size: 8,
                    delete_fraction,
                    theta: 1.0,
                };
                let stream = update_stream(query, inst, config, &mut seeded_rng(15_300 + seed));
                for threads in [1usize, 2, 4, 8] {
                    let warm_ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
                    let cold_ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
                    // Warm one context on the initial instance; leave the
                    // other cold so both apply_updates paths run.
                    let mut live = inst.clone();
                    let _ = warm_ctx.all_boundary_values(query, &live).unwrap();
                    assert_eq!(warm_ctx.cached_instances(), 1);
                    let mut cold_live = inst.clone();
                    let mut rebuilt = inst.clone();
                    for batch in &stream {
                        let report = warm_ctx.apply_updates(query, &mut live, batch).unwrap();
                        assert!(report.warm, "{shape}/{kind}: the warmed slot is dropped");
                        assert_eq!(
                            warm_ctx.cached_instances(),
                            0,
                            "{shape}/{kind}, threads {threads}: old slot orphaned"
                        );
                        let cold_report = cold_ctx
                            .apply_updates(query, &mut cold_live, batch)
                            .unwrap();
                        // Rebuild oracle: plain mutation, no cache involved.
                        apply_batch(query, &mut rebuilt, batch).unwrap();
                        assert_eq!(live, rebuilt, "{shape}/{kind}, threads {threads}");
                        assert_eq!(cold_live, rebuilt, "{shape}/{kind}, threads {threads}");
                        assert_eq!(report.new_fingerprint, cold_report.new_fingerprint);

                        // Per mask: the re-warmed context's boundary values ≡
                        // a fresh context's ≡ naive recomputation.
                        let rewarmed = warm_ctx.all_boundary_values(query, &live).unwrap();
                        let fresh = ExecContext::with_threads(threads)
                            .with_min_par_instance(1)
                            .all_boundary_values(query, &rebuilt)
                            .unwrap();
                        let naive = all_boundary_values_naive(query, &rebuilt).unwrap();
                        assert_eq!(
                            rewarmed, fresh,
                            "{shape}/{kind}, threads {threads} (re-warmed vs rebuilt)"
                        );
                        assert_eq!(
                            rewarmed, naive,
                            "{shape}/{kind}, threads {threads} (re-warmed vs naive)"
                        );
                        assert_eq!(
                            cold_ctx.all_boundary_values(query, &cold_live).unwrap(),
                            naive,
                            "{shape}/{kind}, threads {threads} (cold-path ctx vs naive)"
                        );

                        // Full join: the rebuilt entry emits the same sorted
                        // tuple stream as a cold re-join.
                        let warm_join = warm_ctx.shared_join(query, &live).unwrap();
                        let cold_join = ExecContext::sequential().join(query, &rebuilt).unwrap();
                        assert_eq!(warm_join.total(), cold_join.total());
                        let warm_rows: Vec<(Vec<Value>, u128)> =
                            warm_join.iter().map(|(t, w)| (t.to_vec(), w)).collect();
                        let cold_rows: Vec<(Vec<Value>, u128)> =
                            cold_join.iter().map(|(t, w)| (t.to_vec(), w)).collect();
                        assert_eq!(
                            warm_rows, cold_rows,
                            "{shape}/{kind}, threads {threads} (full-join emission)"
                        );
                        assert_eq!(
                            warm_ctx.cached_instances(),
                            1,
                            "{shape}/{kind}, threads {threads}: slot count grew"
                        );
                    }
                    // After the whole stream, sensitivities from the warmed
                    // context match a from-scratch computation.
                    assert_eq!(
                        warm_ctx.local_sensitivity(query, &live).unwrap(),
                        local_sensitivity(query, &rebuilt).unwrap(),
                        "{shape}/{kind}, threads {threads}"
                    );
                    assert_eq!(
                        warm_ctx.residual_sensitivity(query, &live, 0.2).unwrap(),
                        residual_sensitivity(query, &rebuilt, 0.2).unwrap(),
                        "{shape}/{kind}, threads {threads}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Morsel-driven work-stealing scheduler: stealing ≡ strided ≡ sequential ≡ naive
// ---------------------------------------------------------------------------

/// The skewed shapes the stealer exists for, plus the regular chain and star.
fn scheduler_shapes(seed: u64) -> Vec<(&'static str, JoinQuery, Instance)> {
    let (chain_q, chain_i) = random_path(3, 16, 500, 0.8, &mut seeded_rng(11_000 + seed));
    let (star_q, star_i) = random_star(3, 16, 600, 1.0, &mut seeded_rng(11_100 + seed));
    let (skew_q, skew_i) =
        dpsyn_datagen::heavy_hitter_star(3, 32, 220, 0.6, &mut seeded_rng(11_200 + seed));
    vec![
        ("chain", chain_q, chain_i),
        ("star", star_q, star_i),
        ("skewed", skew_q, skew_i),
    ]
}

/// Work-stealing, sequential and naive evaluation agree at 1/2/4/8 threads
/// on chain, star and heavy-hitter skewed shapes, on cold and warm contexts
/// alike.  Parallel results are compared to sequential ones in construction
/// order (`iter_unordered`), which is a byte-level check; `JoinResult`'s own
/// equality is order-insensitive, so it serves only the value checks
/// against the naive engine.
#[test]
fn work_stealing_is_byte_identical_to_sequential_and_naive() {
    use dpsyn_relational::exec;
    fn stored(result: &JoinResult) -> Vec<(&[Value], u128)> {
        result.iter_unordered().collect()
    }
    for seed in 0..1u64 {
        for (shape, query, inst) in scheduler_shapes(seed) {
            let all: Vec<usize> = (0..query.num_relations()).collect();
            let seq = ExecContext::sequential().join(&query, &inst).unwrap();
            let naive = join_subset_naive(&query, &inst, &all).unwrap();
            assert_eq!(seq.total(), naive.total(), "{shape}, seed {seed}");
            assert_eq!(
                seq.distinct_count(),
                naive.distinct_count(),
                "{shape}, seed {seed}"
            );
            let m = query.num_relations();
            let seq_lattice =
                SubJoinLattice::build(&query, &inst, Parallelism::SEQUENTIAL).unwrap();
            // The sequential build is the reference below; pin its values
            // to the naive engine once, mask by mask, as sorted rows.
            for mask in 1u32..((1u32 << m) - 1) {
                let rels: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
                let naive_rows: Vec<(Vec<Value>, u128)> = join_subset_naive(&query, &inst, &rels)
                    .unwrap()
                    .iter()
                    .map(|(t, w)| (t.clone(), w))
                    .collect();
                let seq_rows: Vec<(Vec<Value>, u128)> = seq_lattice
                    .get(mask)
                    .iter()
                    .map(|(t, w)| (t.to_vec(), w))
                    .collect();
                assert_eq!(seq_rows, naive_rows, "{shape}, mask {mask:#b}");
            }
            for threads in [1usize, 2, 4, 8] {
                let par = Parallelism::threads(threads);
                // Cold context: the engine's default (stealing) join.
                let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
                let cold = ctx.join(&query, &inst).unwrap();
                assert_eq!(
                    stored(&cold),
                    stored(&seq),
                    "{shape}, seed {seed}, threads {threads}"
                );
                // Lattice build under stealing: every mask's sub-join is
                // byte-identical to the sequential build's.
                let lattice = SubJoinLattice::build(&query, &inst, par).unwrap();
                for mask in 1u32..((1u32 << m) - 1) {
                    assert_eq!(
                        stored(lattice.get(mask)),
                        stored(seq_lattice.get(mask)),
                        "{shape}, mask {mask:#b}, threads {threads}"
                    );
                }
                // Warm context: the cached shared join is the same bytes.
                let warm_first = ctx.shared_join(&query, &inst).unwrap();
                let warm_again = ctx.shared_join(&query, &inst).unwrap();
                assert_eq!(
                    stored(&warm_first),
                    stored(&seq),
                    "{shape} warm, threads {threads}"
                );
                assert!(std::sync::Arc::ptr_eq(&warm_first, &warm_again));
            }
            // Morsel-level merge is order-stable down to morsel size 1 (the
            // maximal-interleaving case): per-morsel row dumps concatenate
            // to exactly the sequential emission.
            let rows: Vec<(Vec<Value>, u128)> = seq.iter().map(|(t, w)| (t.to_vec(), w)).collect();
            for morsel in [1usize, 7, 64] {
                let morsels: Vec<std::ops::Range<usize>> = (0..rows.len())
                    .step_by(morsel)
                    .map(|start| start..(start + morsel).min(rows.len()))
                    .collect();
                for threads in [1usize, 2, 4, 8] {
                    let parts = exec::par_map(Parallelism::threads(threads), morsels.len(), |i| {
                        rows[morsels[i].clone()].to_vec()
                    });
                    let merged: Vec<(Vec<Value>, u128)> = parts.into_iter().flatten().collect();
                    assert_eq!(merged, rows, "{shape}, threads {threads}, morsel {morsel}");
                }
            }
        }
    }
}
