//! `Session::sequential()` is documented as "one worker, no spawned
//! threads": every release through it must run on the caller's thread.
//!
//! A sampler thread counts this process's threads (`/proc/self/task`) in a
//! tight loop while the releases run.  This file holds a single test, so no
//! other test's threads run beside it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dpsyn::prelude::*;
use dpsyn_core::IndependentLaplaceBaseline;
use dpsyn_noise::seeded_rng;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// The thread count just before `f` runs, and the most threads seen while
/// it ran (both counting the sampler itself).
fn threads_during(f: impl FnOnce()) -> (usize, usize) {
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let before = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(thread_count(), Ordering::Relaxed);
            }
        });
        let before = thread_count();
        f();
        stop.store(true, Ordering::Relaxed);
        before
    });
    // The scope has joined the sampler, so every sample it took is in.
    (before, peak.into_inner().max(before))
}

/// A two-table instance whose join probes 2,048 rows, two morsels of the
/// engine's parallel probe, so a multi-thread context really spawns.
fn instance() -> (JoinQuery, Instance) {
    let q = JoinQuery::two_table(32, 64, 32);
    let mut inst = Instance::empty_for(&q).unwrap();
    for a in 0..32u64 {
        for b in 0..64u64 {
            inst.relation_mut(0).add(vec![a, b], 1 + a % 2).unwrap();
            inst.relation_mut(1).add(vec![b, a], 1).unwrap();
        }
    }
    (q, inst)
}

#[test]
fn sequential_session_releases_spawn_no_thread() {
    if thread_count() == 0 {
        return; // no /proc: nothing to observe
    }
    let (q, inst) = instance();
    let workload = QueryFamily::random_sign(&q, 4, &mut seeded_rng(1)).unwrap();
    let params = PrivacyParams::new(8.0, 1e-6).unwrap();
    let request = ReleaseRequest::new(&q, &inst, &workload, params).with_seed(3);

    // The sampler sees the workers of a multi-thread session.
    let parallel = Session::with_threads(4);
    let (before, peak) = threads_during(|| {
        parallel.release(&TwoTable::default(), &request).unwrap();
    });
    assert!(
        peak > before,
        "the sampler must see a 4-thread join's workers"
    );

    let session = Session::sequential();
    let mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(TwoTable::default()),
        Box::new(MultiTable::default()),
        Box::new(UniformizedTwoTable::default()),
        Box::new(HierarchicalRelease::default()),
        Box::new(FlawedJoinAsOne::default()),
        Box::new(FlawedPadAfter::default()),
    ];
    for mechanism in &mechanisms {
        let (before, peak) = threads_during(|| {
            session.release(mechanism.as_ref(), &request).unwrap();
        });
        assert_eq!(peak, before, "{} spawned a thread", mechanism.name());
    }
    let (before, peak) = threads_during(|| {
        session
            .answer_baseline(&IndependentLaplaceBaseline::default(), &request)
            .unwrap();
        session.answer_truth(&q, &inst, &workload).unwrap();
    });
    assert_eq!(peak, before, "the baseline or the truth spawned a thread");
}
