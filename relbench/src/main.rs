//! The release benchmark: drives the `release_pmw`, `release_hier` and
//! `serve_mixed` workloads through dpsyn's public API and prints one JSON
//! result line.  Run it through `run.py`, which builds this package, clears
//! the environment variables that change the program under test, and
//! records the environment next to the result.
//!
//! ```text
//! relbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays each release through the layers' public functions under spans
//! (see `trace`) and reports per-layer metrics, writing the spans to
//! `<out>/trace-<workload>-<seed>.jsonl`.

mod layers;
mod library;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: PathBuf,
    /// Worker threads for `serve_mixed`'s sessions: the machine's available
    /// cores, never inherited from the environment.  The library workloads
    /// use one thread (see `library::THREADS`).
    pub threads: usize,
}

/// A run's result: the output checks, operation counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Adds the end-to-end metrics of an untraced run.
///
/// Interference from other tenants of a shared machine only ever adds time,
/// and it comes in bursts lasting seconds that moved a run's median by up to
/// 40%, so the gated latency metrics are each run's fastest operation
/// (Chen & Revels, "Robust benchmarking in noisy environments", 2016).  The
/// median, the tail and the throughput are printed beside them.
pub fn report_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    release_ms: &[f64],
    elapsed_s: f64,
    errors: &[f64],
) -> BoxResult<()> {
    let release_min = stats::min(release_ms).ok_or("no release succeeded")?;
    let tail = stats::tail(release_ms)
        .map_or("n/a (fewer than 11 releases)".to_string(), |(ms, pct)| {
            format!("{ms} ms (p{pct:.1})")
        });
    out.notes.push(format!(
        "release_ms_p50: {} ms; release_ms_tail: {tail}; releases_per_s: {} 1/s ({} releases in {elapsed_s:.2} s); setup_s samples: {setup_s:?}",
        stats::median(release_ms),
        release_ms.len() as f64 / elapsed_s,
        release_ms.len(),
    ));
    out.metric("setup_s", stats::median(setup_s), "s");
    out.metric("release_ms_min", release_min, "ms");
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    out.metric("answer_linf_rel", stats::median(errors), "ratio");
    Ok(())
}

/// SplitMix64: derives independent generation seeds from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> BoxResult<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> BoxResult<String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value").into())
    };
    let seconds: f64 = value("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?.parse()?,
        seconds: Duration::from_secs_f64(seconds),
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}").into()),
        },
        out: PathBuf::from(value("--out")?),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("relbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "release_pmw" => library::run(&args, &library::RELEASE_PMW),
        "release_hier" => library::run(&args, &library::RELEASE_HIER),
        "serve_mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}").into()),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("relbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "threads: {} (available cores; serve_mixed's session and server contexts use this many workers, release_pmw and release_hier {})",
        args.threads,
        library::THREADS
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, ok) in &outcome.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "failed_frac: {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !outcome.correct() {
        std::process::exit(1);
    }
}
