//! Session-API integration tests: a warm `Session::release` must equal
//! `Mechanism::release` on a fresh context — every mechanism, byte for
//! byte, at the same RNG seed — and the session's persistent caches must
//! never change results (warm ≡ cold).

use dpsyn::prelude::*;
use dpsyn_core::ReleaseKind;
use dpsyn_noise::seeded_rng;

/// A skewed two-table instance with enough structure that every mechanism
/// takes a non-trivial path (multiple degree buckets, non-unit frequencies).
fn two_table_fixture() -> (JoinQuery, Instance) {
    let q = JoinQuery::two_table(16, 16, 16);
    let mut inst = Instance::empty_for(&q).unwrap();
    for a in 0..10u64 {
        inst.relation_mut(0).add(vec![a, 0], 1).unwrap();
        inst.relation_mut(1).add(vec![0, a], 1).unwrap();
    }
    for b in 1..6u64 {
        inst.relation_mut(0).add(vec![b, b], 1 + b % 2).unwrap();
        inst.relation_mut(1).add(vec![b, b], 1).unwrap();
    }
    (q, inst)
}

/// A 3-star instance for the multi-table mechanisms.
fn star_fixture() -> (JoinQuery, Instance) {
    let q = JoinQuery::star(3, 8).unwrap();
    let mut inst = Instance::empty_for(&q).unwrap();
    for hub in 0..3u64 {
        for a in 0..3u64 {
            inst.relation_mut(0).add(vec![hub, a], 1).unwrap();
            inst.relation_mut(1).add(vec![hub, (a + 1) % 8], 1).unwrap();
            inst.relation_mut(2).add(vec![hub, a], 1 + hub % 2).unwrap();
        }
    }
    (q, inst)
}

/// Releases must match bit for bit: histogram cells and weights, noisy
/// total, Δ̃, parts, kind.
fn assert_releases_identical(a: &SyntheticRelease, b: &SyntheticRelease, label: &str) {
    assert_eq!(a.kind(), b.kind(), "{label}: kind");
    assert_eq!(a.parts(), b.parts(), "{label}: parts");
    assert!(
        a.delta_tilde().to_bits() == b.delta_tilde().to_bits(),
        "{label}: delta_tilde {} vs {}",
        a.delta_tilde(),
        b.delta_tilde()
    );
    assert!(
        a.noisy_total().to_bits() == b.noisy_total().to_bits(),
        "{label}: noisy_total {} vs {}",
        a.noisy_total(),
        b.noisy_total()
    );
    let ha = a.histogram();
    let hb = b.histogram();
    assert_eq!(ha.len(), hb.len(), "{label}: histogram size");
    for i in 0..ha.len() {
        assert_eq!(ha.tuple_of(i), hb.tuple_of(i), "{label}: cell {i}");
        assert!(
            ha.weights()[i].to_bits() == hb.weights()[i].to_bits(),
            "{label}: weight {i}: {} vs {}",
            ha.weights()[i],
            hb.weights()[i]
        );
    }
}

/// Every one of the six mechanisms produces byte-identical output through
/// `Session::release` and through `Mechanism::release` on a fresh
/// `ExecContext::default()` at the same seed — on cold *and* warm sessions,
/// across several seeds.
#[test]
fn all_six_mechanisms_are_byte_identical_via_session_and_a_fresh_context() {
    let (q2, inst2) = two_table_fixture();
    let (q3, inst3) = star_fixture();
    let params = PrivacyParams::new(1.0, 1e-5).unwrap();

    // The two-table-only mechanisms run on the two-table fixture, the
    // general ones on the 3-star.
    let cases: Vec<(Box<dyn Mechanism>, &JoinQuery, &Instance)> = vec![
        (Box::new(TwoTable::default()), &q2, &inst2),
        (Box::new(MultiTable::default()), &q3, &inst3),
        (Box::new(UniformizedTwoTable::default()), &q2, &inst2),
        (Box::new(HierarchicalRelease::default()), &q3, &inst3),
        (Box::new(FlawedJoinAsOne::default()), &q2, &inst2),
        (Box::new(FlawedPadAfter::default()), &q2, &inst2),
    ];

    for (mechanism, query, instance) in &cases {
        let name = mechanism.name();
        let session = Session::sequential();
        for seed in [3u64, 19, 404] {
            let mut rng = seeded_rng(seed);
            let workload = QueryFamily::random_sign(query, 6, &mut rng).unwrap();
            let request = ReleaseRequest::new(query, instance, &workload, params).with_seed(seed);

            let fresh = mechanism
                .release(
                    &ExecContext::default(),
                    query,
                    instance,
                    &workload,
                    params,
                    &mut seeded_rng(seed),
                )
                .unwrap();
            let cold = session.release(mechanism.as_ref(), &request).unwrap();
            assert_releases_identical(&cold, &fresh, &format!("{name}/seed{seed}/cold"));
            // Second run on the now-warm session (full join and memoised
            // values cached) must not change a single byte.
            let warm = session.release(mechanism.as_ref(), &request).unwrap();
            assert_releases_identical(&warm, &fresh, &format!("{name}/seed{seed}/warm"));
        }
    }
}

/// A warm session's sensitivity sweep (the boundary values memoised by a
/// release, read again at every β) matches a cold session exactly, and
/// actually hits the cache.
#[test]
fn warm_session_cache_matches_cold_session_on_sensitivity_sweeps() {
    let (q, inst) = star_fixture();
    let warm = Session::sequential();

    // Memoise the boundary values once via a release.
    let workload = warm.random_sign_workload(&q, 4, 1).unwrap();
    let params = PrivacyParams::new(1.0, 1e-5).unwrap();
    let request = ReleaseRequest::new(&q, &inst, &workload, params).with_seed(5);
    warm.release(&MultiTable::default(), &request).unwrap();
    assert_eq!(warm.cached_instances(), 1, "release claims the slot");

    for &beta in &[0.05, 0.2, 0.7, 1.3] {
        let (hits, misses) = warm.cache_stats();
        let from_warm = warm.residual_sensitivity(&q, &inst, beta).unwrap();
        // A new β misses RS^β and reads the memoised boundary values
        // rather than re-enumerating the lattice.
        assert_eq!(warm.cache_stats(), (hits + 1, misses + 1), "beta {beta}");
        let from_cold = Session::sequential()
            .residual_sensitivity(&q, &inst, beta)
            .unwrap();
        assert_eq!(from_warm, from_cold, "beta {beta}");
    }
    assert_eq!(
        warm.local_sensitivity(&q, &inst).unwrap(),
        Session::sequential().local_sensitivity(&q, &inst).unwrap()
    );
    let (hits, _) = warm.cache_stats();
    assert!(hits >= 4, "sweep must hit the persistent cache, got {hits}");

    // Truth answering through the session's shared join matches the free
    // evaluation path bit for bit.
    let truth_warm = warm.answer_truth(&q, &inst, &workload).unwrap();
    let truth_free = workload
        .answer_all_on_join(&q, &join(&q, &inst).unwrap())
        .unwrap();
    assert_eq!(truth_warm.values(), truth_free.values());
}

/// The per-query Laplace baseline through a warm session matches its
/// `answer_all` on a fresh context at the same seed.
#[test]
fn baseline_via_session_matches_a_fresh_context() {
    let (q, inst) = two_table_fixture();
    let session = Session::sequential();
    let params = PrivacyParams::new(1.0, 1e-5).unwrap();
    let workload = session.random_sign_workload(&q, 10, 2).unwrap();
    let request = ReleaseRequest::new(&q, &inst, &workload, params).with_seed(13);

    let via_session = session
        .answer_baseline(&IndependentLaplaceBaseline::default(), &request)
        .unwrap();
    let fresh = IndependentLaplaceBaseline::default()
        .answer_all(
            &ExecContext::default(),
            &q,
            &inst,
            &workload,
            params,
            &mut seeded_rng(13),
        )
        .unwrap();
    assert_eq!(via_session.values(), fresh.values());
    // Warm repeat: identical again.
    let again = session
        .answer_baseline(&IndependentLaplaceBaseline::default(), &request)
        .unwrap();
    assert_eq!(again.values(), fresh.values());
}

/// Mechanism metadata survives the trait object, and the request builder
/// round-trips its fields.
#[test]
fn request_builder_and_mechanism_names() {
    let (q, inst) = two_table_fixture();
    let workload = QueryFamily::counting(&q);
    let params = PrivacyParams::new(2.0, 1e-4).unwrap();
    let request = ReleaseRequest::new(&q, &inst, &workload, params).with_seed(42);
    assert_eq!(request.seed(), 42);
    assert_eq!(request.params().epsilon(), 2.0);
    assert_eq!(request.workload().len(), 1);

    let session = Session::sequential();
    let release = session.release(&TwoTable::default(), &request).unwrap();
    assert_eq!(release.kind(), ReleaseKind::TwoTable);
    let m: &dyn Mechanism = &UniformizedTwoTable::default();
    assert_eq!(m.name(), "uniformized_two_table");
}

/// The context's slot LRU under concurrent multi-instance pressure: more
/// live instances than slots, read through the memo from several threads
/// at once, so evictions constantly race in-flight reads.  Nothing may
/// panic, every value must equal the cold path's, every read must count as
/// exactly one hit or miss, and the slot count must respect capacity.
#[test]
fn concurrent_checkouts_race_lru_eviction_safely() {
    use dpsyn::relational::{join, DEFAULT_CACHE_SLOTS};
    use std::sync::Arc;

    // One more distinct star instance than there are cache slots: every
    // round of the working set forces evictions.
    let query = Arc::new(JoinQuery::star(3, 8).unwrap());
    let instances: Vec<Arc<Instance>> = (0..DEFAULT_CACHE_SLOTS as u64 + 1)
        .map(|variant| {
            let mut inst = Instance::empty_for(&query).unwrap();
            for hub in 0..3u64 {
                for a in 0..3u64 {
                    inst.relation_mut(0).add(vec![hub, a], 1 + variant).unwrap();
                    inst.relation_mut(1)
                        .add(vec![hub, (a + variant) % 8], 1)
                        .unwrap();
                    inst.relation_mut(2).add(vec![hub, a], 1 + hub % 2).unwrap();
                }
            }
            Arc::new(inst)
        })
        .collect();
    let ctx = Arc::new(ExecContext::sequential());

    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let n = instances.len();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let ctx = Arc::clone(&ctx);
            let query = Arc::clone(&query);
            let instances = instances.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Offset per thread so threads hit different slots at
                    // the same instant (maximising eviction races).
                    for i in 0..n {
                        let inst = &instances[(i + t + round) % n];
                        // A β no other read uses: RS^β always misses and
                        // reads the boundary map, so each call is two reads.
                        let beta = 0.25 + ((t * ROUNDS + round) * n + i) as f64 * 1e-3;
                        let rs = ctx.residual_sensitivity(&query, inst, beta).unwrap();
                        let cold = ExecContext::sequential()
                            .residual_sensitivity(&query, inst, beta)
                            .unwrap();
                        assert_eq!(rs, cold, "beta {beta}");
                        let full = ctx.shared_join(&query, inst).unwrap();
                        assert_eq!(full.as_ref(), &join(&query, inst).unwrap());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no worker may panic");
    }

    // Consistency: every read counted exactly once, capacity held.
    let (hits, misses) = ctx.cache_stats();
    assert_eq!(
        (hits + misses) as usize,
        3 * THREADS * ROUNDS * n,
        "each read increments exactly one of hits/misses"
    );
    assert!(misses >= n as u64, "every instance starts cold");
    assert!(ctx.eviction_stats().evictions >= 1);
    assert!(
        ctx.cached_instances() <= DEFAULT_CACHE_SLOTS,
        "slot LRU exceeded its capacity"
    );
}

/// Local sensitivity reads the boundary map at every thread count, so the
/// value is identical at 1, 2 and 4 threads; every thread count claims one
/// slot, for the memoised map, and keeps no join result in it.
#[test]
fn local_sensitivity_feedback_is_identical_at_every_thread_count() {
    let (q, inst) = datagen::correlated_pair(3, 64, 16, 512, 8, &mut seeded_rng(7));
    let expected = local_sensitivity(&q, &inst).unwrap();
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
        let ls = ctx.local_sensitivity(&q, &inst).unwrap();
        assert_eq!(ls, expected, "threads {threads}");
        assert_eq!(ctx.cached_instances(), 1, "threads {threads}");
        assert_eq!(ctx.cached_subjoin_bytes(), 0, "threads {threads}");
    }
}

/// Whatever the sensitivity entry points read — the boundary map, local
/// sensitivity, single aggregate reads of a lattice built at that thread
/// count — every value equals the naive oracle at every thread count.
#[test]
fn context_sensitivity_reads_match_naive_at_every_thread_count() {
    use dpsyn_relational::naive::all_boundary_values_naive;
    use dpsyn_relational::{Parallelism, SubJoinLattice};
    let (q, inst) = datagen::correlated_pair(3, 64, 16, 512, 8, &mut seeded_rng(7));
    let m = q.num_relations();
    let full = (1u32 << m) - 1;
    let naive_bv = all_boundary_values_naive(&q, &inst).unwrap();
    let naive_ls = (0..m)
        .map(|i| naive_bv[&(0..m).filter(|&j| j != i).collect::<Vec<_>>()])
        .max()
        .unwrap();
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::with_threads(threads).with_min_par_instance(1);
        assert_eq!(
            ctx.all_boundary_values(&q, &inst).unwrap(),
            naive_bv,
            "threads {threads}"
        );
        assert_eq!(
            ctx.local_sensitivity(&q, &inst).unwrap(),
            naive_ls,
            "threads {threads}"
        );
        let lattice = SubJoinLattice::build(&q, &inst, Parallelism::threads(threads)).unwrap();
        for mask in 1..full {
            let e: Vec<usize> = (0..m).filter(|&r| mask & (1 << r) != 0).collect();
            let y = q.boundary(&e).unwrap();
            assert_eq!(
                lattice.get(mask).max_group_weight(&y).unwrap(),
                naive_bv[&e],
                "threads {threads}, mask {mask:#b}"
            );
        }
    }
}
