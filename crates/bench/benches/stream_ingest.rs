//! Streaming-ingestion benchmark: semi-naive batch maintenance of a warm
//! execution context ([`ExecContext::apply_updates`]) against rebuilding
//! the same state — the sub-join lattice — from scratch on the updated
//! instance, at batch sizes 1, 16 and 256.  Maintenance drops the cached
//! full join (the next `shared_join` refolds it), so neither arm builds it.
//!
//! Each measured maintenance call applies a batch and then its inverse, so
//! the instance (and the warm slot's fingerprint) returns to its starting
//! point and every iteration exercises two genuine warm maintenance passes;
//! the reported `maintain_ns` is the per-batch half.  Large batches trip
//! the maintenance path's bulk-rebuild escape hatch: once the net batch
//! rewrites a sizeable share of the touched relations, per-mask delta
//! patching (one delta join per cached mask per touched relation) can never
//! beat a rebuild, so every affected mask is recomputed from the updated
//! instance through the slot's cost-based plan chain instead, memoising
//! shared chain prefixes across masks — the fix that keeps the `b256` row
//! from losing to the cold rebuild.  The rebuild baseline
//! is exactly what a server without the updates path would pay per batch: a
//! cold context's lattice populate over the updated instance.
//! Byte-identity of maintained vs rebuilt observables (per-mask boundary
//! values, the full join row for row) is asserted before any timing.
//!
//! Results land in the `stream/*` rows of `BENCH_join.json` at the repo
//! root via read-merge-write (every other bench's rows are kept intact).
//! `--stream-smoke` runs the identity asserts on quick sizes and skips the
//! JSON write, for CI.

use std::time::{Duration, Instant};

use criterion::black_box;
use dpsyn_bench::{existing_rows_json, print_table, raw_rows_to_json_pretty, Row};
use dpsyn_datagen::{random_star, update_stream, UpdateStreamConfig};
use dpsyn_noise::seeded_rng;
use dpsyn_relational::{apply_batch, ExecContext, Instance, JoinQuery, UpdateBatch, Value};
use dpsyn_sensitivity::SensitivityOps;

/// Median wall-clock times of two alternating measurements, in nanoseconds.
/// The arms are interleaved (`a`, `b`, `a`, `b`, …, after one warm-up of
/// each) so slow drift in effective machine speed — frequency scaling,
/// noisy neighbours on a shared core — biases both medians equally instead
/// of whichever arm happened to run in the slower stretch.
fn median_ns_interleaved(samples: usize, a: &mut dyn FnMut(), b: &mut dyn FnMut()) -> (f64, f64) {
    a();
    b();
    let mut times_a = Vec::with_capacity(samples.max(1));
    let mut times_b = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        a();
        times_a.push(t.elapsed().as_secs_f64() * 1e9);
        let t = Instant::now();
        b();
        times_b.push(t.elapsed().as_secs_f64() * 1e9);
    }
    let median = |mut times: Vec<f64>| {
        times.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
        times[times.len() / 2]
    };
    (median(times_a), median(times_b))
}

/// Picks a sample count so each measurement stays within a small budget.
fn sample_count(once: Duration) -> usize {
    let budget = Duration::from_millis(600);
    ((budget.as_nanos() / once.as_nanos().max(1)) as usize).clamp(5, 60)
}

/// One seeded mixed batch of the requested size over `instance`.
fn one_batch(query: &JoinQuery, instance: &Instance, batch_size: usize, seed: u64) -> UpdateBatch {
    let config = UpdateStreamConfig {
        batches: 1,
        batch_size,
        delete_fraction: 0.25,
        theta: 1.0,
    };
    update_stream(query, instance, config, &mut seeded_rng(seed))
        .pop()
        .expect("one batch")
}

/// Asserts that a warm context maintained through `batch` answers exactly
/// like a cold context over the rebuilt instance: per-mask boundary values
/// and the full join in physical row order.
fn assert_maintenance_identity(query: &JoinQuery, instance: &Instance, batch: &UpdateBatch) {
    let warm = ExecContext::sequential();
    let mut live = instance.clone();
    let _ = warm.all_boundary_values(query, &live).expect("warm-up");
    let report = warm
        .apply_updates(query, &mut live, batch)
        .expect("maintenance");
    assert!(report.warm, "the warmed slot must migrate");

    let mut rebuilt = instance.clone();
    apply_batch(query, &mut rebuilt, batch).expect("plain mutation");
    assert_eq!(
        live, rebuilt,
        "maintained instance must equal plain mutation"
    );

    let cold = ExecContext::sequential();
    assert_eq!(
        warm.all_boundary_values(query, &live).expect("maintained"),
        cold.all_boundary_values(query, &rebuilt).expect("rebuilt"),
        "per-mask boundary values must be identical"
    );
    let warm_join = warm.shared_join(query, &live).expect("maintained join");
    let cold_join = cold.shared_join(query, &rebuilt).expect("rebuilt join");
    let warm_rows: Vec<(&[Value], u128)> = warm_join.iter_unordered().collect();
    let cold_rows: Vec<(&[Value], u128)> = cold_join.iter_unordered().collect();
    assert_eq!(warm_rows, cold_rows, "full-join rows must be identical");

    // And the inverse batch restores every starting byte.
    let inverse = batch.inverse();
    warm.apply_updates(query, &mut live, &inverse)
        .expect("inverse maintenance");
    assert_eq!(&live, instance, "inverse batch must restore the instance");
}

fn stream_rows(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_rel = if quick { 120 } else { 400 };
    let (query, instance) = random_star(3, 64, per_rel, 1.0, &mut seeded_rng(51));
    for &batch_size in &[1usize, 16, 256] {
        if quick && batch_size == 256 {
            continue;
        }
        let batch = one_batch(&query, &instance, batch_size, 52 + batch_size as u64);
        let inverse = batch.inverse();
        assert_maintenance_identity(&query, &instance, &batch);

        // Maintenance: one long-lived warm context, forward + inverse per
        // measured call (state returns to start; both passes are warm).
        let ctx = ExecContext::sequential();
        let mut live = instance.clone();
        let _ = ctx.all_boundary_values(&query, &live).expect("warm-up");
        let mut maintain = || {
            ctx.apply_updates(&query, &mut live, &batch)
                .expect("forward");
            ctx.apply_updates(&query, &mut live, &inverse)
                .expect("inverse");
        };

        // Rebuild baseline: a cold context's lattice populate over the
        // updated instance (plan build and fingerprint included — that is
        // the real cost of not maintaining).
        let mut updated = instance.clone();
        apply_batch(&query, &mut updated, &batch).expect("plain mutation");
        let mut rebuild = || {
            let cold = ExecContext::sequential();
            black_box(cold.all_boundary_values(&query, &updated).expect("lattice"));
        };

        let probe = Instant::now();
        rebuild();
        let samples = sample_count(probe.elapsed());
        let (pair_ns, rebuild_ns) = median_ns_interleaved(samples, &mut maintain, &mut rebuild);
        let maintain_ns = pair_ns / 2.0;
        let speedup = rebuild_ns / maintain_ns.max(1.0);
        let label = format!("stream/maintain/star3/{per_rel}/b{batch_size}");
        println!(
            "bench: {label:<36} maintain {maintain_ns:>13.1} ns  rebuild {rebuild_ns:>13.1} ns  speedup {speedup:>7.2}x (1 thread, {cores} cores)"
        );
        rows.push(
            Row::new(&label)
                .with("maintain_ns", maintain_ns)
                .with("rebuild_ns", rebuild_ns)
                .with("speedup", speedup)
                .with("batch_size", batch_size as f64)
                .with("threads", 1.0)
                .with("available_cores", cores as f64),
        );
    }
    rows
}

fn main() {
    // CI's stream smoke: quick sizes, all identity asserts, no JSON write
    // (the committed BENCH_join.json is never touched by reduced runs).
    if std::env::args().any(|a| a == "--stream-smoke") {
        let rows = stream_rows(true);
        print_table("stream smoke — batch maintenance vs full rebuild", &rows);
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let rows = stream_rows(quick);
    print_table("stream_ingest — batch maintenance vs full rebuild", &rows);
    if quick {
        return;
    }

    // Read-merge-write: replace only the stream/* rows of BENCH_join.json,
    // keeping every other bench's committed rows byte for byte.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut raws: Vec<String> = existing_rows_json(&existing)
        .into_iter()
        .filter(|(label, _)| !label.starts_with("stream/"))
        .map(|(_, raw)| raw)
        .collect();
    raws.extend(rows.iter().map(|r| r.to_json()));
    std::fs::write(path, raw_rows_to_json_pretty(&raws) + "\n").expect("write bench results");
    println!("wrote {path}");
}
