//! Streaming ingestion: apply seeded insert/delete batches to a live
//! instance ([`dpsyn::relational::stream`]).  An update drops the session's
//! warm cache slot for the old data, and the next release rebuilds it for
//! the new data; the demo verifies that this post-update release is
//! byte-identical to one from a cold session over the same data.
//!
//! Run with `cargo run --release --example stream_demo`.

use dpsyn::datagen::{update_stream, UpdateStreamConfig};
use dpsyn::prelude::*;
use dpsyn_noise::seeded_rng;

fn main() {
    // 1. A three-relation star join with a skewed hub, the shape whose
    //    2^3-subset boundary enumeration makes warm state worth keeping.
    let (query, mut instance) = dpsyn::datagen::random_star(3, 32, 400, 1.0, &mut seeded_rng(7));
    let session = Session::new();

    // 2. A first release warms the session: the full join, the boundary
    //    values and the other release-invariant values are now cached in
    //    this instance's slot.
    let workload = session.random_sign_workload(&query, 64, 7).unwrap();
    let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
    let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(7);
    let first = session.release(&MultiTable::default(), &request).unwrap();
    println!(
        "cold release       : mass {:.1}, {} cached instances",
        first.noisy_total(),
        session.cached_instances()
    );

    // 3. Live traffic: a seeded stream of mixed insert/delete batches.
    //    `Session::apply_updates` applies each batch to the instance and
    //    drops the warm slot cached for the old fingerprint: only the first
    //    batch finds one, because no release runs between batches.
    let stream = update_stream(
        &query,
        &instance,
        UpdateStreamConfig {
            batches: 4,
            batch_size: 32,
            delete_fraction: 0.25,
            theta: 1.0,
        },
        &mut seeded_rng(11),
    );
    for (i, batch) in stream.iter().enumerate() {
        let report = session.apply_updates(&query, &mut instance, batch).unwrap();
        println!(
            "batch {i}            : {} ops, warm={}, {} relations touched, \
             fingerprint {:016x} -> {:016x}",
            report.ops,
            report.warm,
            report.relations_touched,
            report.old_fingerprint,
            report.new_fingerprint,
        );
    }

    // 4. Release over the updated instance from the same session, which
    //    rebuilds the full join and memoised values for the new
    //    fingerprint...
    let request = ReleaseRequest::new(&query, &instance, &workload, budget).with_seed(13);
    let warm = session.release(&MultiTable::default(), &request).unwrap();

    // 5. ...and from a brand-new session that has never seen the stream.
    //    Reusing a session never changes bytes: both releases are identical.
    let cold_session = Session::new();
    let cold = cold_session
        .release(&MultiTable::default(), &request)
        .unwrap();
    assert_eq!(warm.delta_tilde().to_bits(), cold.delta_tilde().to_bits());
    let warm_answers = warm.answer_all(&workload).unwrap();
    let cold_answers = cold.answer_all(&workload).unwrap();
    assert_eq!(warm_answers.values(), cold_answers.values());
    println!(
        "post-update release: mass {:.1} — byte-identical warm vs cold ({} queries)",
        warm.noisy_total(),
        warm_answers.values().len()
    );
}
