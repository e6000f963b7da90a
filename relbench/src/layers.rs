//! The per-layer metrics of the traced run, in one fixed list so every
//! workload prints every metric (0 where a workload never enters a layer).

use std::collections::BTreeMap;

use crate::stats::median;
use crate::trace::{Tracer, LAYERS};
use crate::Outcome;

/// Span-timed metrics: the per-request total of one span name, median over
/// requests.
const SPAN_MS: [(&str, &str); 14] = [
    ("pmw.weights_ms", "pmw.weights"),
    ("pmw.loop_ms", "pmw.loop"),
    ("pmw.run_ms", "pmw.run"),
    ("query.truth_ms", "query.truth"),
    ("query.workload_ms", "query.workload"),
    ("sensitivity.residual_ms", "sensitivity.residual"),
    ("sensitivity.boundary_ms", "sensitivity.boundary"),
    ("sensitivity.local_ms", "sensitivity.local"),
    ("core.partition_ms", "core.partition"),
    ("relational.join_ms", "relational.join"),
    ("relational.update_ms", "relational.update"),
    ("noise.sample_ms", "noise.sample"),
    ("server.handler_ms", "server.handler"),
    ("server.charge_ms", "server.charge"),
];

/// Counted metrics: the per-request counter, median over requests, scaled.
const COUNTS: [(&str, &str, f64, &str); 5] = [
    ("pmw.iterations", "pmw.iterations", 1.0, "count"),
    ("pmw.weight_mb", "pmw.weight_bytes", 1.0 / 1048576.0, "MiB"),
    (
        "sensitivity.sweep_terms",
        "sensitivity.sweep_terms",
        1.0,
        "count",
    ),
    ("core.parts", "core.parts", 1.0, "count"),
    ("relational.join_rows", "relational.join_rows", 1.0, "count"),
];

/// Metrics each workload measures itself (outside the spans).
const MEASURED: [(&str, &str); 11] = [
    ("relational.lattice_bytes", "bytes"),
    ("relational.cache_hit_ratio", "ratio"),
    ("relational.evictions", "count"),
    ("relational.maintained_ratio", "ratio"),
    ("server.http_overhead_ms", "ms"),
    ("server.ledger_bytes_per_release", "bytes"),
    ("server.threads_peak", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.release_ms_p50", "ms"),
    ("trace.untraced_ms_p50", "ms"),
];

const SELF_MS: [&str; 8] = [
    "layer.dpsyn.self_ms",
    "layer.core.self_ms",
    "layer.sensitivity.self_ms",
    "layer.relational.self_ms",
    "layer.query.self_ms",
    "layer.pmw.self_ms",
    "layer.noise.self_ms",
    "layer.server.self_ms",
];

const SHARE: [&str; 8] = [
    "layer.dpsyn.share",
    "layer.core.share",
    "layer.sensitivity.share",
    "layer.relational.share",
    "layer.query.share",
    "layer.pmw.share",
    "layer.noise.share",
    "layer.server.share",
];

/// Adds every per-layer metric to `out`: span and counter medians from the
/// tracer, each layer's self time per request and share of the requests'
/// root time, and the workload's own `measured` values (0 when absent).
pub fn report(
    out: &mut Outcome,
    tracer: &Tracer,
    root: &str,
    measured: BTreeMap<&'static str, f64>,
) {
    for (metric, span) in SPAN_MS {
        out.metric(metric, median(&tracer.totals(span)), "ms");
    }
    for (metric, counter, scale, unit) in COUNTS {
        out.metric(metric, median(&tracer.counts(counter)) * scale, unit);
    }
    for (metric, unit) in MEASURED {
        out.metric(metric, measured.get(metric).copied().unwrap_or(0.0), unit);
    }
    let requests = tracer.totals(root).len().max(1) as f64;
    let (self_ms, wall) = tracer.layer_self(root);
    let mut shares = Vec::new();
    for (i, layer) in LAYERS.iter().enumerate() {
        let own = self_ms.get(layer).copied().unwrap_or(0.0);
        out.metric(SELF_MS[i], own / requests, "ms");
        let share = own / wall.max(f64::MIN_POSITIVE);
        out.metric(SHARE[i], share, "ratio");
        shares.push(format!("{layer} {:.1}%", 100.0 * share));
    }
    out.notes.push(format!(
        "layer shares of {root} time: {}",
        shares.join(", ")
    ));
}
