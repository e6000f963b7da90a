//! Head-to-head benchmark of the hash-join engine against the retained
//! naive `BTreeMap` engine, plus the shared-cache residual-sensitivity
//! subset enumeration against its from-scratch counterpart.
//!
//! Besides printing per-scenario timings, this bench writes the speedup
//! table to `BENCH_join.json` at the repository root (via the shared
//! reporting module), so the performance trajectory is tracked in-tree and
//! by CI.  The scenarios mirror `relational_ops` (two-table Zipf joins,
//! star joins) and `sensitivity` (m-star residual subset enumeration), plus
//! parallel-scaling rows comparing the worker pool at N threads against the
//! sequential path (`threads`/`available_cores` fields record the context —
//! wall-clock scaling is bounded by the machine's core count, while outputs
//! are asserted byte-identical before timing), plus a `session/cache_reuse`
//! row measuring a warm (one `ExecContext`, boundary values memoised across
//! calls) against a cold (fresh context per call) residual-sensitivity β
//! sweep,
//! plus a `sched/*` row comparing the level-by-level sub-join lattice build
//! at 4 workers against the sequential one (`--sched-smoke` runs only this
//! group, for CI), measured with its arms interleaved so the recorded
//! speedup is immune to machine-speed drift between arms.

use std::time::{Duration, Instant};

use criterion::black_box;
use dpsyn_bench::{print_table, rows_to_json_pretty, Row};
use dpsyn_datagen::{heavy_hitter_star, random_star, random_two_table, zipf_two_table};
use dpsyn_noise::seeded_rng;
use dpsyn_relational::naive::{all_boundary_values_naive, join_size_naive};
use dpsyn_relational::{join_size, ExecContext, Instance, JoinQuery, Parallelism, SubJoinLattice};
use dpsyn_sensitivity::{all_boundary_values, SensitivityOps};

/// Median wall-clock time of `f` over `samples` runs (with one warm-up run),
/// in nanoseconds.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Picks a sample count so each measurement stays within a small budget.
fn sample_count(once: Duration) -> usize {
    let budget = Duration::from_millis(600);
    ((budget.as_nanos() / once.as_nanos().max(1)) as usize).clamp(5, 60)
}

/// Median wall-clock times of two alternating measurements, in nanoseconds.
/// The arms are interleaved (`a`, `b`, `a`, `b`, …, after one warm-up of
/// each) so slow drift in effective machine speed — frequency scaling,
/// noisy neighbours on a shared core — biases both medians equally instead
/// of whichever arm happened to run in the slower stretch.  A/B comparison
/// rows (`sched/*`) use this; the `speedup` fields they record are
/// therefore drift-free.
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

fn bench_pair(label: &str, mut fast: impl FnMut(), mut naive: impl FnMut()) -> Row {
    let probe = Instant::now();
    naive();
    let samples = sample_count(probe.elapsed());
    let fast_ns = median_ns(samples, &mut fast);
    let naive_ns = median_ns(samples, &mut naive);
    let speedup = naive_ns / fast_ns.max(1.0);
    println!(
        "bench: {label:<32} hash {fast_ns:>14.1} ns  naive {naive_ns:>14.1} ns  speedup {speedup:>6.2}x"
    );
    Row::new(label)
        .with("hash_ns", fast_ns)
        .with("naive_ns", naive_ns)
        .with("speedup", speedup)
}

/// Threads used by the parallel-scaling scenarios.
const SCALING_THREADS: usize = 4;

fn bench_scaling(label: &str, mut par: impl FnMut(), mut seq: impl FnMut()) -> Row {
    let probe = Instant::now();
    seq();
    let samples = sample_count(probe.elapsed());
    let par_ns = median_ns(samples, &mut par);
    let seq_ns = median_ns(samples, &mut seq);
    let speedup = seq_ns / par_ns.max(1.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench: {label:<32} par  {par_ns:>14.1} ns  seq   {seq_ns:>14.1} ns  speedup {speedup:>6.2}x ({SCALING_THREADS} threads, {cores} cores)"
    );
    Row::new(label)
        .with("par_ns", par_ns)
        .with("seq_ns", seq_ns)
        .with("speedup", speedup)
        .with("threads", SCALING_THREADS as f64)
        .with("available_cores", cores as f64)
}

/// The scheduler group: the sub-join lattice build
/// ([`SubJoinLattice::build`], each level's masks claimed by work stealing)
/// at [`SCALING_THREADS`] workers vs the sequential build on a heavy-hitter
/// skewed star.  Byte-identity of the parallel build against the sequential
/// one is asserted for every mask before timing; wall-clock speedup is
/// capped by `available_cores`.
fn sched_rows(quick: bool) -> Vec<Row> {
    let per_rel = if quick { 120 } else { 300 };
    let (query, instance) = heavy_hitter_star(4, 64, per_rel, 0.6, &mut seeded_rng(31));
    let m = query.num_relations();
    let par = Parallelism::threads(SCALING_THREADS);
    let build = |par: Parallelism| SubJoinLattice::build(&query, &instance, par).expect("lattice");
    let sequential = build(Parallelism::SEQUENTIAL);
    let parallel = build(par);
    for mask in 1u32..((1u32 << m) - 1) {
        assert!(
            parallel
                .get(mask)
                .iter_unordered()
                .eq(sequential.get(mask).iter_unordered()),
            "mask {mask:#b}: parallel lattice must be byte-identical to sequential"
        );
    }
    let run = |par: Parallelism| {
        black_box(build(par));
    };
    let probe = Instant::now();
    run(Parallelism::SEQUENTIAL);
    let samples = sample_count(probe.elapsed());
    let (par_ns, seq_ns) = median_ns_interleaved(samples, &mut || run(par), &mut || {
        run(Parallelism::SEQUENTIAL)
    });
    let speedup = seq_ns / par_ns.max(1.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let label = format!("sched/populate/heavy_star{m}/{per_rel}");
    println!(
        "bench: {label:<32} par  {par_ns:>14.1} ns  seq   {seq_ns:>14.1} ns  speedup {speedup:>6.2}x ({SCALING_THREADS} threads, {cores} cores)"
    );
    vec![Row::new(&label)
        .with("par_ns", par_ns)
        .with("seq_ns", seq_ns)
        .with("speedup", speedup)
        .with("threads", SCALING_THREADS as f64)
        .with("available_cores", cores as f64)]
}

fn join_scenarios() -> Vec<(String, JoinQuery, Instance)> {
    let mut out = Vec::new();
    for &n in &[200usize, 800] {
        let mut rng = seeded_rng(1);
        let (query, instance) = zipf_two_table(64, n, 1.0, &mut rng);
        out.push((format!("join/two_table/{n}"), query, instance));
    }
    for &m in &[3usize, 4] {
        let mut rng = seeded_rng(2);
        let (query, instance) = random_star(m, 32, 200, 1.0, &mut rng);
        out.push((format!("join/star/{m}"), query, instance));
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // CI's scheduler smoke: the lattice build group only (quick sizes,
    // byte-identity asserts included), no JSON write.
    if std::env::args().any(|a| a == "--sched-smoke") {
        let rows = sched_rows(true);
        print_table("scheduler smoke — sub-join lattice build", &rows);
        return;
    }
    let mut rows = Vec::new();

    // --- Join throughput: hash engine vs. naive engine --------------------
    for (label, query, instance) in join_scenarios() {
        if quick && label.contains("800") {
            continue;
        }
        rows.push(bench_pair(
            &label,
            || {
                black_box(join_size(&query, &instance).unwrap());
            },
            || {
                black_box(join_size_naive(&query, &instance).unwrap());
            },
        ));
    }

    // --- Residual-sensitivity subset enumeration --------------------------
    // m = 4 star: 15 non-empty subsets; shared-prefix caching vs. re-joining
    // from scratch per subset.
    for &(m, per_rel) in &[(3usize, 150usize), (4, 120)] {
        if quick && m == 4 {
            continue;
        }
        let mut rng = seeded_rng(7);
        let (query, instance) = random_star(m, 32, per_rel, 1.0, &mut rng);
        rows.push(bench_pair(
            &format!("residual/subsets/star{m}"),
            || {
                black_box(all_boundary_values(&query, &instance).unwrap());
            },
            || {
                black_box(all_boundary_values_naive(&query, &instance).unwrap());
            },
        ));
    }

    // --- Parallel scaling: worker pool (4 threads) vs sequential path -----
    // Large probe sides so the partitioned probe loop actually engages; the
    // byte-identity of parallel vs sequential output is asserted before any
    // timing.  `available_cores` records the machine context: wall-clock
    // scaling is capped by physical cores even though 4 workers run.
    let ctx_par = ExecContext::with_threads(SCALING_THREADS);
    let ctx_seq = ExecContext::sequential();
    {
        let n = if quick { 20_000 } else { 60_000 };
        let mut rng = seeded_rng(11);
        let (query, instance) = random_two_table(16_384, n, &mut rng);
        let a = ctx_par.join(&query, &instance).expect("parallel join");
        let b = ctx_seq.join(&query, &instance).expect("sequential join");
        assert!(
            a.iter_unordered().eq(b.iter_unordered()),
            "parallel join output must be byte-identical to sequential"
        );
        rows.push(bench_scaling(
            &format!("join/two_table/{n}/par{SCALING_THREADS}"),
            || {
                black_box(ctx_par.join_size(&query, &instance).unwrap());
            },
            || {
                black_box(ctx_seq.join_size(&query, &instance).unwrap());
            },
        ));
    }
    {
        let per_rel = if quick { 800 } else { 2_000 };
        let mut rng = seeded_rng(12);
        let (query, instance) = random_star(4, 256, per_rel, 0.4, &mut rng);
        // Fresh contexts per call so each measurement rebuilds the lattice
        // (the memo win is measured by the session scenario below, not
        // here).
        let cold_bv = |threads: usize| {
            ExecContext::with_threads(threads)
                .all_boundary_values(&query, &instance)
                .unwrap()
        };
        assert_eq!(
            cold_bv(SCALING_THREADS),
            cold_bv(1),
            "parallel boundary values must be identical to sequential"
        );
        rows.push(bench_scaling(
            &format!("residual/subsets/star4/par{SCALING_THREADS}"),
            || {
                black_box(cold_bv(SCALING_THREADS));
            },
            || {
                black_box(cold_bv(1));
            },
        ));
    }

    // --- Session cache reuse: warm vs cold across a β sweep ----------------
    // The Session/ExecContext API memoises the boundary values T_F(I) in
    // the instance's slot, so a residual-sensitivity sweep over several β
    // values on one instance builds the 2^m sub-join lattice once.  "Cold" runs each β on a fresh
    // context (the pre-Session cost model); "warm" runs the sweep on one
    // context.  Results are asserted identical before timing.
    {
        let per_rel = if quick { 500 } else { 1_200 };
        let mut rng = seeded_rng(13);
        let (query, instance) = random_star(4, 128, per_rel, 0.6, &mut rng);
        let betas = [0.05f64, 0.1, 0.2, 0.5, 1.0, 2.0];
        let cold_sweep = || {
            let mut acc = 0.0f64;
            for &beta in &betas {
                let ctx = ExecContext::sequential();
                acc += ctx
                    .residual_sensitivity(&query, &instance, beta)
                    .unwrap()
                    .value;
            }
            acc
        };
        let warm_sweep = || {
            let ctx = ExecContext::sequential();
            let mut acc = 0.0f64;
            for &beta in &betas {
                acc += ctx
                    .residual_sensitivity(&query, &instance, beta)
                    .unwrap()
                    .value;
            }
            acc
        };
        assert_eq!(
            cold_sweep(),
            warm_sweep(),
            "warm sweep must produce identical values to cold"
        );
        let probe = Instant::now();
        let _ = cold_sweep();
        let samples = sample_count(probe.elapsed());
        let warm_ns = median_ns(samples, || {
            black_box(warm_sweep());
        });
        let cold_ns = median_ns(samples, || {
            black_box(cold_sweep());
        });
        let speedup = cold_ns / warm_ns.max(1.0);
        let label = format!("session/cache_reuse/star4/sweep{}", betas.len());
        println!(
            "bench: {label:<32} warm {warm_ns:>14.1} ns  cold  {cold_ns:>14.1} ns  speedup {speedup:>6.2}x"
        );
        rows.push(
            Row::new(&label)
                .with("warm_ns", warm_ns)
                .with("cold_ns", cold_ns)
                .with("speedup", speedup)
                .with("sweep_len", betas.len() as f64),
        );
    }

    // --- Lattice build: work stealing vs sequential -------------------------
    rows.extend(sched_rows(quick));

    print_table("join_throughput — hash engine vs naive reference", &rows);

    // Commit the full results next to the workspace root so CI and the repo
    // track the trajectory (BENCH_join.json).  Quick mode covers a reduced
    // row set, so it writes a sibling file instead of truncating the
    // committed one.
    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json")
    };
    std::fs::write(path, rows_to_json_pretty(&rows) + "\n").expect("write bench results");
    println!("wrote {path}");
}
