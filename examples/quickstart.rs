//! Quickstart: release a differentially private synthetic dataset for a
//! two-table join and answer a workload of linear queries from it — all
//! through the [`Session`] API, the crate's unified entry point.
//!
//! Run with `cargo run --release --example quickstart`.

use dpsyn::prelude::*;
use dpsyn_noise::seeded_rng;

fn main() {
    // 1. The join query R1(A, B) ⋈ R2(B, C): think "orders joined with
    //    shipments on customer id".
    let query = JoinQuery::two_table(32, 32, 32);

    // 2. Private data: a skewed instance where customer 0 is very active.
    let mut instance = Instance::empty_for(&query).expect("schema matches");
    for a in 0..20u64 {
        instance.relation_mut(0).add(vec![a, 0], 1).unwrap();
        instance.relation_mut(1).add(vec![0, a], 1).unwrap();
    }
    for b in 1..10u64 {
        instance.relation_mut(0).add(vec![b, b], 1).unwrap();
        instance.relation_mut(1).add(vec![b, b], 1).unwrap();
    }

    // 3. One long-lived session owns one execution context — parallelism
    //    and the persistent caches — for everything below.
    let session = Session::new();
    println!("input size         : {}", instance.input_size());
    println!(
        "join size          : {}",
        session.join_size(&query, &instance).unwrap()
    );
    println!(
        "local sensitivity  : {}",
        session.local_sensitivity(&query, &instance).unwrap()
    );

    // 4. A workload of 64 linear queries, a privacy budget, and the release
    //    request bundling all inputs with a reproducibility seed.
    let workload = session.random_sign_workload(&query, 64, 7).unwrap();
    let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
    let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(7);

    // 5. Release synthetic data with Algorithm 1 (join-as-one).  Any of the
    //    paper's mechanisms can be passed here — they all implement the
    //    object-safe `Mechanism` trait.
    let release = session.release(&TwoTable::default(), &request).unwrap();
    println!(
        "released mass      : {:.1} over {} histogram cells",
        release.noisy_total(),
        release.histogram().len()
    );

    // 6. Answer every query from the synthetic data and report the error.
    //    The truth evaluation reuses the session's cached full join.
    let truth = session.answer_truth(&query, &instance, &workload).unwrap();
    let answers = release.answer_all(&workload).unwrap();
    println!(
        "max |q(I) - q(F)|  : {:.2}",
        answers.linf_distance(&truth).unwrap()
    );

    // 7. The released object can also be materialised as integer records.
    let mut rng = seeded_rng(8);
    let records = release.to_records(&mut rng);
    println!("synthetic records  : {} distinct tuples", records.len());
}
