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
//! row measuring a warm (one `ExecContext`, lattice persisted across calls)
//! against a cold (fresh context per call) residual-sensitivity β sweep,
//! plus `planner/*` rows comparing the cost-based lattice decomposition against
//! the historical fixed-prefix chain on chain / star / skewed scenarios —
//! recording the chosen decomposition (`spine`, `top_order`) and the total
//! cached-intermediate tuple counts alongside wall-clock (`--planner-smoke`
//! runs only this group, for CI), plus `gather/*` rows measuring the
//! mergeable-sketch statistics gather against the historical exact
//! distinct-set gather (`--gather-smoke` runs only this group — sketch
//! accuracy is asserted before any timing), plus `agg/*` rows measuring
//! the count-only aggregate-pushdown evaluation (terminal lattice masks
//! folded into grouped accumulators behind a Bloom semi-join pre-filter,
//! never materialised) against the materializing oracle on residual sweeps —
//! byte-identity of both modes against the naive engine is asserted before
//! timing, and rows record the resident-byte reduction alongside
//! wall-clock (`--agg-smoke` runs only this group and refreshes the
//! committed `agg/*` rows in place).  All A/B comparison groups
//! (`planner/*`, `sched/*`, `agg/*`, like `stream/*` before them) measure
//! their arms interleaved, so recorded speedups are immune to machine-speed
//! drift between arms.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::black_box;
use dpsyn_bench::{existing_rows_json, print_table, raw_rows_to_json_pretty, Row};
use dpsyn_datagen::{
    heavy_hitter_star, random_path, random_star, random_two_table, wide_attribute_pair,
    zipf_two_table,
};
use dpsyn_noise::seeded_rng;
use dpsyn_relational::naive::{all_boundary_values_naive, join_size_naive};
use dpsyn_relational::{
    join_size, AggMode, ExecContext, FxHashSet, Instance, JoinPlan, JoinQuery, Keep, Parallelism,
    RelationStats, ShardedSubJoinCache, Value,
};
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
/// rows (`planner/*`, `sched/*`, `agg/*`) use this; the `speedup` fields
/// they record are therefore drift-free.
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

/// One cold local-sensitivity-style lattice pass over a fresh cache on
/// `plan`: the `m` size-`(m-1)` directions read with [`Keep::Chain`],
/// memoising (and thus keeping resident) exactly the decomposition chains
/// the plan walks.  Returns the local sensitivity, so identity across plans
/// is checked by the caller, and the resident intermediate tuple count.
fn lattice_pass(query: &JoinQuery, instance: &Instance, plan: &Arc<JoinPlan>) -> (u128, usize) {
    let cache = ShardedSubJoinCache::with_plan(query, instance, Arc::clone(plan)).expect("cache");
    let m = query.num_relations();
    let full = (1u32 << m) - 1;
    let mut best = 0u128;
    for i in 0..m {
        let others_mask = full & !(1u32 << i);
        let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
        let boundary = query.boundary(&others).expect("valid subset");
        let value = cache
            .join_mask(others_mask, Parallelism::SEQUENTIAL, Keep::Chain)
            .expect("sub-join")
            .max_group_weight(&boundary)
            .expect("grouping");
        best = best.max(value);
    }
    (best, cache.cached_tuples())
}

/// The sketch-gather group (`gather/*`): the mergeable-sketch statistics
/// gather ([`RelationStats::gather`]) against the historical exact
/// per-attribute distinct-set gather over the same iteration path — with
/// every sketch estimate asserted inside the HyperLogLog error envelope of
/// the exact count before timing.
fn gather_rows(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gather_scenarios: Vec<(String, JoinQuery, Instance)> = vec![
        {
            let n = if quick { 20_000 } else { 60_000 };
            let (q, i) = random_two_table(16_384, n, &mut seeded_rng(51));
            (format!("gather/two_table/{n}"), q, i)
        },
        {
            let (key_space, n) = if quick {
                (512u64, 10_000)
            } else {
                (2_048, 40_000)
            };
            let (q, i) = wide_attribute_pair(key_space, n, &mut seeded_rng(52));
            (format!("gather/wide4/{n}"), q, i)
        },
    ];
    for (label, query, instance) in &gather_scenarios {
        let exact_gather = || {
            let mut total = 0u64;
            for r in 0..query.num_relations() {
                let rel = instance.relation(r);
                let mut sets: Vec<FxHashSet<Value>> =
                    rel.attrs().iter().map(|_| FxHashSet::default()).collect();
                for (t, _) in rel.iter() {
                    for (pos, &v) in t.iter().enumerate() {
                        sets[pos].insert(v);
                    }
                }
                total += sets.iter().map(|s| s.len() as u64).sum::<u64>();
            }
            total
        };
        // Accuracy before timing: every per-attribute estimate within the
        // HLL envelope of its exact count.
        let stats = RelationStats::gather(query, instance).expect("gather");
        for r in 0..query.num_relations() {
            let rel = instance.relation(r);
            let mut sets: Vec<FxHashSet<Value>> =
                rel.attrs().iter().map(|_| FxHashSet::default()).collect();
            for (t, _) in rel.iter() {
                for (pos, &v) in t.iter().enumerate() {
                    sets[pos].insert(v);
                }
            }
            for (pos, &attr) in rel.attrs().iter().enumerate() {
                let exact = sets[pos].len() as f64;
                let est = stats.distinct(r, attr) as f64;
                assert!(
                    (est - exact).abs() <= 0.08 * exact.max(1.0),
                    "{label}: relation {r} attr {attr:?} estimate {est} vs exact {exact}"
                );
            }
        }
        let probe = Instant::now();
        let _ = exact_gather();
        let samples = sample_count(probe.elapsed());
        let sketch_ns = median_ns(samples, || {
            black_box(RelationStats::gather(query, instance).expect("gather"));
        });
        let exact_ns = median_ns(samples, || {
            black_box(exact_gather());
        });
        let speedup = exact_ns / sketch_ns.max(1.0);
        println!(
            "bench: {label:<32} sketch {sketch_ns:>12.1} ns  exact {exact_ns:>13.1} ns  speedup {speedup:>6.2}x (1 thread, {cores} cores)"
        );
        rows.push(
            Row::new(label)
                .with("sketch_ns", sketch_ns)
                .with("exact_ns", exact_ns)
                .with("speedup", speedup)
                .with("threads", 1.0)
                .with("available_cores", cores as f64),
        );
    }

    rows
}

/// The aggregate-pushdown group: a cold residual sweep (boundary-value
/// lattice + residual sensitivity at three β) under the count-only
/// evaluation mode (`AggMode::Auto`: terminal masks fold straight into
/// grouped accumulators behind the Bloom pre-filter) against the
/// materializing oracle (`AggMode::Never`), on the uniform star4 and the
/// skewed star.
///
/// Byte-identity is asserted before timing: boundary values and residual
/// sensitivities under both modes equal each other and the naive engine,
/// bit for bit.  Rows record both wall-clocks (interleaved), the resident
/// cache bytes after the sweep under each mode (`bytes_ratio` is the
/// footprint reduction the mode buys) and how many masks stayed count-only.
fn agg_rows(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let betas = [0.2f64, 0.5, 1.0];
    let scenarios: Vec<(String, JoinQuery, Instance)> = vec![
        {
            let per_rel = if quick { 80 } else { 240 };
            let (q, i) = random_star(4, 32, per_rel, 0.0, &mut seeded_rng(61));
            (format!("agg/residual/star4/{per_rel}"), q, i)
        },
        {
            let per_rel = if quick { 20 } else { 50 };
            let (q, i) = skewed_star(per_rel, 62);
            (format!("agg/residual/skewed_star4/{per_rel}"), q, i)
        },
    ];
    for (label, query, instance) in &scenarios {
        let sweep = |mode: AggMode| {
            let ctx = ExecContext::sequential().with_agg_mode(mode);
            let bv = ctx
                .all_boundary_values(query, instance)
                .expect("boundary values");
            let rs: Vec<f64> = betas
                .iter()
                .map(|&beta| {
                    ctx.residual_sensitivity(query, instance, beta)
                        .expect("residual")
                        .value
                })
                .collect();
            let stats = ctx.plan_stats(query, instance).expect("plan stats");
            (bv, rs, ctx.cached_subjoin_bytes(), stats.aggregated_masks)
        };
        // Byte-identity before timing: the count-only sweep equals the
        // materializing oracle and the naive engine, bit for bit.
        let (agg_bv, agg_rs, agg_bytes, aggregated_masks) = sweep(AggMode::Auto);
        let (mat_bv, mat_rs, mat_bytes, mat_aggregated) = sweep(AggMode::Never);
        let naive_bv = all_boundary_values_naive(query, instance).expect("naive");
        assert_eq!(agg_bv, mat_bv, "{label}: boundary values must not change");
        assert_eq!(agg_bv, naive_bv, "{label}: naive oracle must agree");
        assert_eq!(mat_aggregated, 0, "{label}: Never must materialize");
        assert!(aggregated_masks > 0, "{label}: Auto must aggregate");
        for (a, m) in agg_rs.iter().zip(&mat_rs) {
            assert_eq!(
                a.to_bits(),
                m.to_bits(),
                "{label}: residual sensitivity must be bit-identical"
            );
        }
        let mut agg_run = || {
            black_box(sweep(AggMode::Auto));
        };
        let mut mat_run = || {
            black_box(sweep(AggMode::Never));
        };
        let probe = Instant::now();
        mat_run();
        let samples = sample_count(probe.elapsed());
        let (agg_ns, mat_ns) = median_ns_interleaved(samples, &mut agg_run, &mut mat_run);
        let speedup = mat_ns / agg_ns.max(1.0);
        let bytes_ratio = mat_bytes as f64 / (agg_bytes as f64).max(1.0);
        println!(
            "bench: {label:<32} agg {agg_ns:>15.1} ns  mat {mat_ns:>15.1} ns  speedup {speedup:>6.2}x  bytes {agg_bytes} vs {mat_bytes} ({bytes_ratio:.2}x, {aggregated_masks} count-only masks, {cores} cores)"
        );
        rows.push(
            Row::new(label)
                .with("agg_ns", agg_ns)
                .with("mat_ns", mat_ns)
                .with("speedup", speedup)
                .with("agg_bytes", agg_bytes as f64)
                .with("mat_bytes", mat_bytes as f64)
                .with("bytes_ratio", bytes_ratio)
                .with("aggregated_masks", aggregated_masks as f64)
                .with("available_cores", cores as f64),
        );
    }
    rows
}

/// A skewed-degree star: heterogeneous relation sizes plus Zipf hubs, so
/// pair sub-joins differ wildly in size and the planner's parent choice
/// matters.
fn skewed_star(per_rel: usize, seed: u64) -> (JoinQuery, Instance) {
    use rand::Rng;
    let query = JoinQuery::star(4, 64).expect("m >= 1");
    let mut inst = Instance::empty_for(&query).expect("schema matches");
    let mut rng = seeded_rng(seed);
    for rel in 0..4usize {
        // Sizes 27×, 9×, 3×, 1× the base: the heavy relations sit at the LOW
        // indices, so the fixed rule (peel the highest index) keeps them in
        // every parent while the planner peels them off first.
        let n = per_rel * 3usize.pow(3 - rel as u32);
        for _ in 0..n {
            let hub = (rng.random::<f64>().powi(3) * 64.0) as u64 % 64;
            let petal = rng.random_range(0u64..64);
            inst.relation_mut(rel)
                .add(vec![hub, petal], 1)
                .expect("valid tuple");
        }
    }
    (query, inst)
}

/// The planner-vs-fixed-prefix scenario group: chain, uniform star and
/// skewed star instances, measuring the wall-clock and the total
/// cached-intermediate tuples of a cold local-sensitivity lattice pass
/// under each decomposition.  Identity of the computed sensitivities is
/// asserted before timing; the planner rows record the chosen top-level
/// order and decomposition spine.
fn planner_rows(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let scenarios: Vec<(String, JoinQuery, Instance)> = vec![
        {
            let per_rel = if quick { 70 } else { 200 };
            let (q, i) = random_path(5, 64, per_rel, 0.7, &mut seeded_rng(21));
            (format!("planner/chain/path5/{per_rel}"), q, i)
        },
        {
            let per_rel = if quick { 80 } else { 240 };
            let (q, i) = random_star(4, 32, per_rel, 0.0, &mut seeded_rng(22));
            (format!("planner/star/star4/{per_rel}"), q, i)
        },
        {
            let per_rel = if quick { 20 } else { 50 };
            let (q, i) = skewed_star(per_rel, 23);
            (format!("planner/skew/star4/{per_rel}"), q, i)
        },
    ];
    for (label, query, instance) in &scenarios {
        let plan = Arc::new(JoinPlan::cost_based(query, instance).expect("plan"));
        // Identity before timing: the planner pass computes exactly the
        // fixed-prefix pass's local sensitivity.
        let fixed_plan = Arc::new(JoinPlan::fixed_prefix(query.num_relations()));
        let (fixed_value, prefix_tuples) = lattice_pass(query, instance, &fixed_plan);
        let (planned_value, planner_tuples) = lattice_pass(query, instance, &plan);
        assert_eq!(
            planned_value, fixed_value,
            "planner pass must equal fixed-prefix pass"
        );

        let mut planner_run = || {
            // The plan build (statistics + pivot table) is part of the
            // measured cost: this is what a cold context checkout pays.
            let plan = Arc::new(JoinPlan::cost_based(query, instance).expect("plan"));
            black_box(lattice_pass(query, instance, &plan));
        };
        let mut prefix_run = || {
            black_box(lattice_pass(query, instance, &fixed_plan));
        };
        let probe = Instant::now();
        prefix_run();
        let samples = sample_count(probe.elapsed());
        let (planner_ns, prefix_ns) =
            median_ns_interleaved(samples, &mut planner_run, &mut prefix_run);
        let speedup = prefix_ns / planner_ns.max(1.0);
        let tuple_ratio = prefix_tuples as f64 / (planner_tuples as f64).max(1.0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spine = plan
            .spine()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(">");
        let top_order = plan
            .top_order()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(">");
        println!(
            "bench: {label:<32} planner {planner_ns:>12.1} ns  prefix {prefix_ns:>12.1} ns  speedup {speedup:>6.2}x  tuples {planner_tuples} vs {prefix_tuples} ({tuple_ratio:.2}x, spine {spine})"
        );
        rows.push(
            Row::new(label)
                .with("planner_ns", planner_ns)
                .with("prefix_ns", prefix_ns)
                .with("speedup", speedup)
                .with("planner_tuples", planner_tuples as f64)
                .with("prefix_tuples", prefix_tuples as f64)
                .with("tuple_ratio", tuple_ratio)
                .with("available_cores", cores as f64)
                .with_text("spine", spine)
                .with_text("top_order", top_order),
        );
    }
    rows
}

/// The scheduler group: the morsel-driven work-stealing lattice populate at
/// [`SCALING_THREADS`] workers vs the sequential populate on a heavy-hitter
/// skewed star.
///
/// Byte-identity of the parallel populate against the sequential one is
/// asserted for every mask before timing, as is that every mask is claimed
/// exactly once.  The row records the per-worker claim counts
/// ([`dpsyn_relational::SchedulerStats`]): the spread tracks actual mask cost
/// (the worker stuck on the heavy-hitter mask claims few while the others
/// drain the level) — that spread, not wall-clock (which is capped by
/// `available_cores`), is the rebalancing evidence.
fn sched_rows(quick: bool) -> Vec<Row> {
    let per_rel = if quick { 120 } else { 300 };
    let (query, instance) = heavy_hitter_star(4, 64, per_rel, 0.6, &mut seeded_rng(31));
    let m = query.num_relations();
    let par = Parallelism::threads(SCALING_THREADS);
    // The materialize-everything populate: every proper mask, built level
    // by level along the fixed-prefix chain.
    let populated = |par: Parallelism| {
        let cache = ShardedSubJoinCache::new(&query, &instance)
            .expect("cache")
            .with_agg_mode(AggMode::Never);
        let stats = cache.populate(par).expect("populate");
        (cache, stats)
    };
    let (seq_cache, _) = populated(Parallelism::SEQUENTIAL);
    let (cache, stats) = populated(par);
    assert_eq!(stats.total(), (1usize << m) - 2, "every mask claimed once");
    for mask in 1u32..((1u32 << m) - 1) {
        let got = cache.get(mask).expect("populated");
        let want = seq_cache.get(mask).expect("populated");
        assert!(
            got.iter_unordered().eq(want.iter_unordered()),
            "mask {mask:#b}: parallel lattice must be byte-identical to sequential"
        );
    }
    let run = |par: Parallelism| {
        black_box(populated(par).1.total());
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
        "bench: {label:<32} par  {par_ns:>14.1} ns  seq   {seq_ns:>14.1} ns  speedup {speedup:>6.2}x  claims {:?} ({SCALING_THREADS} threads, {cores} cores)",
        stats.claimed()
    );
    vec![Row::new(&label)
        .with("par_ns", par_ns)
        .with("seq_ns", seq_ns)
        .with("speedup", speedup)
        .with("max_claimed", stats.max_claimed() as f64)
        .with("min_claimed", stats.min_claimed() as f64)
        .with("morsels", stats.total() as f64)
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
    // CI's dedicated planner smoke: run only the planner-vs-prefix group
    // (small sizes, identity asserts included) and skip the JSON write so
    // the committed BENCH_join.json is never truncated.
    if std::env::args().any(|a| a == "--planner-smoke") {
        let rows = planner_rows(true);
        print_table(
            "planner smoke — cost-based vs fixed-prefix decomposition",
            &rows,
        );
        return;
    }
    // CI's gather smoke: the sketch-gather group only (quick sizes;
    // sketch-accuracy asserts included), no JSON write.
    if std::env::args().any(|a| a == "--gather-smoke") {
        let rows = gather_rows(true);
        print_table("gather smoke — sketch statistics vs exact sets", &rows);
        return;
    }
    // CI's aggregate-pushdown smoke: the count-only-vs-materializing group
    // (quick sizes, byte-identity asserted before timing).  Unlike the other
    // smokes this one DOES write: its fresh `agg/*` rows replace the
    // committed ones via the read-merge-write reporter, every other row is
    // preserved verbatim, so the gate also proves the merge path.
    if std::env::args().any(|a| a == "--agg-smoke") {
        let rows = agg_rows(true);
        print_table(
            "agg smoke — count-only lattice vs materializing oracle",
            &rows,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        let mut raws: Vec<String> = existing_rows_json(&existing)
            .into_iter()
            .filter(|(label, _)| !label.starts_with("agg/"))
            .map(|(_, raw)| raw)
            .collect();
        raws.extend(rows.iter().map(Row::to_json));
        std::fs::write(path, raw_rows_to_json_pretty(&raws) + "\n").expect("write bench results");
        println!("wrote {path}");
        return;
    }
    // CI's scheduler smoke: the morsel scheduler group only (quick sizes,
    // byte-identity and claim-once asserts included), no JSON write.
    if std::env::args().any(|a| a == "--sched-smoke") {
        let rows = sched_rows(true);
        print_table("scheduler smoke — work-stealing lattice populate", &rows);
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
        // (the persistent-cache win is measured by the session scenario
        // below, not here).
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

    // --- Session cache reuse: warm vs cold lattice across a β sweep -------
    // The Session/ExecContext API persists the 2^m sub-join lattice across
    // calls, so a residual-sensitivity sweep over several β values on one
    // instance pays for the lattice once.  "Cold" runs each β on a fresh
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

    // --- Morsel scheduler: stealing populate vs sequential ------------------
    rows.extend(sched_rows(quick));

    // --- Cost-based planner vs fixed-prefix decomposition -------------------
    rows.extend(planner_rows(quick));

    // --- Planner statistics: sketch gather vs exact distinct sets ----------
    rows.extend(gather_rows(quick));

    // --- Aggregate pushdown: count-only lattice vs materializing oracle -----
    rows.extend(agg_rows(quick));

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
    // The stream_ingest bench shares this file: keep its `stream/*` rows
    // intact and replace only the rows this bench owns.
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut raws: Vec<String> = rows.iter().map(Row::to_json).collect();
    raws.extend(
        existing_rows_json(&existing)
            .into_iter()
            .filter(|(label, _)| label.starts_with("stream/"))
            .map(|(_, raw)| raw),
    );
    std::fs::write(path, raw_rows_to_json_pretty(&raws) + "\n").expect("write bench results");
    println!("wrote {path}");
}
