//! In-memory span recorder for the traced run.
//!
//! Spans follow Dapper (Sigelman et al., 2010): each has a name, a start and
//! end, the span that caused it, and the id of the request it belongs to.
//! Names are `<layer>.<operation>`; the layer is the workspace crate whose
//! public function the span times (`dpsyn` for the `Session` facade).
//!
//! Parents are logical: a replay of a request timed after the request itself
//! (the in-process handler replay of an HTTP release) is recorded as a child
//! of the request's round-trip span, so self time is a span's duration minus
//! the durations of its children, floored at zero.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Layers in report order.
pub const LAYERS: [&str; 8] = [
    "dpsyn",
    "core",
    "sensitivity",
    "relational",
    "query",
    "pmw",
    "noise",
    "server",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// Per-request counters (summed) and gauges (maximum).
    counters: BTreeMap<(u64, &'static str), f64>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts attributing spans and counters to request `id`.
    pub fn begin_request(&mut self, id: u64) {
        debug_assert!(self.stack.is_empty(), "request switched inside a span");
        self.request = id;
    }

    /// Times `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request: self.request,
        });
        self.stack.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[idx].start_ns = self.ns(start);
        self.spans[idx].end_ns = self.ns(end);
        out
    }

    /// Records a span timed by the caller under an explicit (logical)
    /// parent, returning its index for use as a parent of later spans.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request: self.request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` with `parent` as the open span: spans `f` opens become
    /// logical children of an earlier span (a replay of that request).
    pub fn under<T>(&mut self, parent: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        let saved = std::mem::replace(&mut self.stack, vec![parent]);
        let out = f(self);
        self.stack = saved;
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counters.entry((self.request, name)).or_insert(0.0) += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.counters.entry((self.request, name)).or_insert(value);
        *slot = slot.max(value);
    }

    /// Per request: the summed duration (ms) of every span named `name`;
    /// requests without such a span are absent.
    pub fn totals(&self, name: &str) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_request.entry(s.request).or_insert(0.0) += s.ms();
        }
        by_request.into_values().collect()
    }

    /// Per request: the value of counter `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Summed duration (ms) of the direct children of request `request`'s
    /// root spans: the part of the request its layer spans cover.
    pub fn covered_ms(&self, request: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .filter(|s| s.request == request)
            .map(Span::ms)
            .sum()
    }

    /// Self time (ms) of each span: its duration minus its children's.
    fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.ms();
            }
        }
        out.iter().map(|v| v.max(0.0)).collect()
    }

    /// Summed self time (ms) per layer over requests whose root span is
    /// named `root`, together with the summed root duration.
    pub fn layer_self(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let own = self.self_ms();
        let roots: BTreeMap<u64, ()> = self
            .spans
            .iter()
            .filter(|s| s.name == root && s.parent.is_none())
            .map(|s| (s.request, ()))
            .collect();
        let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut wall = 0.0;
        for (s, own) in self.spans.iter().zip(&own) {
            if !roots.contains_key(&s.request) {
                continue;
            }
            *by_layer.entry(s.layer()).or_insert(0.0) += own;
            if s.name == root && s.parent.is_none() {
                wall += s.ms();
            }
        }
        (by_layer, wall)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
