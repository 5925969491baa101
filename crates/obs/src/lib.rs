//! # obs — wall-clock observability substrate
//!
//! `cellsim::tracelog` observes the *simulated cycle domain*; this crate
//! observes the *real engine* in wall-clock time: how long farm jobs
//! actually queue and run, how fast the parallel likelihood dispatchers
//! chew patterns, how long checkpoint writes take. It is a leaf crate
//! (no dependencies) so both `phylo` and the umbrella crates can record
//! into it without layering inversions.
//!
//! The pieces:
//!
//! * [`Registry`] — a process-wide sharded name→metric map handing out
//!   cheap clonable handles ([`Counter`], [`Gauge`], [`Histogram`]).
//!   Registration (the only allocating step) happens once per name; the
//!   handles then record with relaxed atomics only.
//! * [`hist`] — fixed-layout log-linear histograms: deterministic
//!   p50/p90/p99/max estimates, mergeable across farm workers.
//! * Exporters — [`Registry::to_prometheus_text`] (Prometheus text
//!   exposition, checked by [`validate_prometheus_text`]) and
//!   [`Registry::to_jsonl`] (line-delimited JSON snapshots in the same
//!   spirit as `cellsim::tracelog::to_metrics_jsonl`, checked in CI by
//!   [`json::validate_jsonl`]).
//! * [`json`] — the workspace's one JSON grammar: exporters check their
//!   output with it and the regression gate loads `BENCH_*.json` with it.
//! * [`applog`] — the one append-only record log (header check, torn-tail
//!   healing, streaming replay, optional `sync_data`) behind the service
//!   journal, the service event log and the bootstrap store.
//!
//! ## Overhead contract
//!
//! A disabled registry is inert: every `record`/`add`/`set` loads one
//! shared atomic flag and returns — one branch, zero heap operations
//! (proven by the `metrics_overhead` counting-allocator test at the
//! workspace root). An *enabled* registry's record path is also
//! allocation-free (atomics only); only registration and export allocate.
//! The global registry starts disabled, so production hot paths pay the
//! branch and nothing else, and recording never touches floating-point
//! state — enabling metrics cannot perturb log-likelihood bit-identity.

pub mod applog;
pub mod hist;
pub mod json;
pub mod trace;

pub use hist::{HistogramCell, HistogramSnapshot};
pub use trace::{Span, SpanCtx, Tracer};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CounterCell(AtomicU64);

#[derive(Debug, Default)]
struct GaugeCell(AtomicU64); // f64 bits

/// A monotonically increasing counter handle. Clone freely; clones share
/// the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Add `n`. One branch and nothing else when the registry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (stores an `f64`).
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Set the value. One branch and nothing else when disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.0.load(Ordering::Relaxed))
    }
}

/// A latency-histogram handle (see [`hist`] for the bucket layout).
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one value (typically nanoseconds). One branch and nothing
    /// else when disabled; relaxed atomics only when enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.record(v);
        }
    }

    /// Record the elapsed time since `start` in nanoseconds.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.record(start.elapsed().as_nanos() as u64);
        }
    }

    /// Record one value and link `trace` as its octave's exemplar (see
    /// [`hist::HistogramCell::record_traced`]). Same overhead contract as
    /// [`Histogram::record`].
    #[inline]
    pub fn record_traced(&self, v: u64, trace: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.record_traced(v, trace);
        }
    }

    /// Link an exemplar to an already-recorded value without re-counting it
    /// (see [`hist::HistogramCell::note_exemplar`]).
    #[inline]
    pub fn note_exemplar(&self, v: u64, trace: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.note_exemplar(v, trace);
        }
    }

    /// An owned copy of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

const N_SHARDS: usize = 16;

/// The process-wide metrics registry: a sharded name→metric map.
///
/// Handles returned by [`Registry::counter`] / [`Registry::gauge`] /
/// [`Registry::histogram`] are cheap clones sharing one atomic cell;
/// get-or-register by the same name always returns the same cell, so
/// every layer of the system can look its metrics up independently.
/// Lookups take one shard mutex briefly; do them at setup, not per record.
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    shards: Vec<Mutex<Vec<(String, Metric)>>>,
    help: Mutex<Vec<(String, String)>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(false)
    }
}

impl Registry {
    /// A fresh registry, recording iff `enabled`.
    pub fn new(enabled: bool) -> Registry {
        Registry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            shards: (0..N_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            help: Mutex::new(Vec::new()),
        }
    }

    /// Attach a `# HELP` description to `name` (last call wins). Metrics
    /// without one export a kind-derived default, so every exported metric
    /// carries a HELP line either way.
    pub fn describe(&self, name: &str, help: &str) {
        assert!(is_valid_metric_name(name), "invalid metric name {name:?}");
        let mut table = self.help.lock().expect("help table");
        match table.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => *h = help.to_string(),
            None => table.push((name.to_string(), help.to_string())),
        }
    }

    fn help_for(&self, name: &str, kind: &'static str) -> String {
        if let Some((_, h)) = self.help.lock().expect("help table").iter().find(|(n, _)| n == name)
        {
            return h.replace('\\', "\\\\").replace('\n', "\\n");
        }
        match kind {
            "counter" => "Monotonic event counter.".to_string(),
            "gauge" => "Last-observed value.".to_string(),
            _ => "Log-linear latency histogram (nanoseconds).".to_string(),
        }
    }

    /// Whether handles currently record.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off; affects every handle already handed out.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn shard_of(&self, name: &str) -> &Mutex<Vec<(String, Metric)>> {
        // FNV-1a; stable across runs so exports shard identically.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % N_SHARDS as u64) as usize]
    }

    fn get_or_register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert!(is_valid_metric_name(name), "invalid metric name {name:?}");
        let mut shard = self.shard_of(name).lock().expect("metrics shard");
        if let Some((_, m)) = shard.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let metric = make();
        shard.push((name.to_string(), metric.clone()));
        metric
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind, or is
    /// not a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_register(name, || Metric::Counter(Arc::new(CounterCell::default()))) {
            Metric::Counter(cell) => Counter { enabled: self.enabled.clone(), cell },
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge `name` (same panics as [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_register(name, || Metric::Gauge(Arc::new(GaugeCell::default()))) {
            Metric::Gauge(cell) => Gauge { enabled: self.enabled.clone(), cell },
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram `name` (same panics as
    /// [`Registry::counter`]). The bucket vector is allocated here, once.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_register(name, || Metric::Histogram(Arc::new(HistogramCell::default()))) {
            Metric::Histogram(cell) => Histogram { enabled: self.enabled.clone(), cell },
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Zero every registered metric (registrations and handles survive).
    /// Used by studies that run several phases through one registry.
    pub fn reset(&self) {
        for shard in &self.shards {
            for (_, metric) in shard.lock().expect("metrics shard").iter() {
                match metric {
                    Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                    Metric::Gauge(g) => g.0.store(0f64.to_bits(), Ordering::Relaxed),
                    Metric::Histogram(h) => h.reset(),
                }
            }
        }
    }

    /// All registered metrics, sorted by name, with owned value copies.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (name, metric) in shard.lock().expect("metrics shard").iter() {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.0.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => {
                        MetricSnapshot::Gauge(f64::from_bits(g.0.load(Ordering::Relaxed)))
                    }
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                out.push((name.clone(), snap));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Merge every histogram whose name starts with `prefix` into one
    /// snapshot — the cross-worker view of a per-worker histogram family
    /// (e.g. `farm_job_run_ns_w0`, `_w1`, …).
    pub fn merged_histogram(&self, prefix: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (name, snap) in self.snapshot() {
            if let MetricSnapshot::Histogram(h) = snap {
                if name.starts_with(prefix) {
                    merged.merge(&h);
                }
            }
        }
        merged
    }

    /// Export in the Prometheus text exposition format: a `# HELP` and
    /// `# TYPE` line per metric, histograms as cumulative `_bucket{le="…"}`
    /// series plus `_sum`/`_count` (only non-empty buckets are emitted —
    /// the fixed layout has 976, nearly all zero for any real latency
    /// stream).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, snap) in self.snapshot() {
            match snap {
                MetricSnapshot::Counter(v) => {
                    out.push_str(&format!("# HELP {name} {}\n", self.help_for(&name, "counter")));
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!("# HELP {name} {}\n", self.help_for(&name, "gauge")));
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", json::finite(v)));
                }
                MetricSnapshot::Histogram(h) => {
                    out.push_str(&format!("# HELP {name} {}\n", self.help_for(&name, "histogram")));
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let le = hist::bucket_bounds(i).1;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
                }
            }
        }
        out
    }

    /// Export as line-delimited JSON: one object per metric (histograms
    /// carry their deterministic quantile estimates), plus a trailer line
    /// with the registry-wide metric count. Validated in CI by
    /// [`json::validate_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        for (name, snap) in &snapshot {
            match snap {
                MetricSnapshot::Counter(v) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}\n"
                    ));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"gauge\",\"name\":\"{name}\",\"value\":{}}}\n",
                        json::finite(*v)
                    ));
                }
                MetricSnapshot::Histogram(h) => {
                    let min = if h.count == 0 { 0 } else { h.min };
                    out.push_str(&format!(
                        "{{\"metric\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\"min\":{min},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}\n",
                        h.count,
                        h.sum,
                        h.max,
                        json::finite(h.mean()),
                        h.quantile(0.5),
                        h.quantile(0.9),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        out.push_str(&format!("{{\"metric\":\"registry\",\"metrics\":{}}}\n", snapshot.len()));
        out
    }
}

/// One metric's exported state.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

/// The process-wide registry the instrumented tiers record into. Starts
/// *disabled*; studies and tests call `global().set_enabled(true)`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::new(false))
}

// ---------------------------------------------------------------------------
// Prometheus text validation
// ---------------------------------------------------------------------------

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validate Prometheus text exposition format: every non-empty line is a
/// comment (`# TYPE`/`# HELP`) or a `name[{labels}] value` sample with a
/// legal metric name and a parseable value. `# HELP` lines must name a
/// legal metric and carry a non-empty description. The export-side
/// analogue of [`json::parse`] — CI proves the artifact parses.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(body) = rest.strip_prefix("TYPE ") {
                let mut parts = body.split_whitespace();
                let name = parts.next().ok_or(format!("line {n}: TYPE without name"))?;
                if !is_valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name {name:?}"));
                }
                match parts.next() {
                    Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                    other => return Err(format!("line {n}: bad TYPE kind {other:?}")),
                }
            } else if let Some(body) = rest.strip_prefix("HELP ") {
                let mut parts = body.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("");
                if !is_valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name in HELP {name:?}"));
                }
                match parts.next().map(str::trim) {
                    Some(help) if !help.is_empty() => {}
                    _ => return Err(format!("line {n}: HELP {name} without a description")),
                }
            } else if !rest.is_empty() {
                // Other comments are legal in the format; accept them.
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, value_part) = match line.find([' ', '{']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close =
                    line[i..].find('}').ok_or(format!("line {n}: unterminated label set"))?;
                validate_labels(&line[i + 1..i + close], n)?;
                (&line[..i], line[i + close + 1..].trim_start())
            }
            Some(i) => (&line[..i], line[i + 1..].trim_start()),
            None => return Err(format!("line {n}: sample without value")),
        };
        if !is_valid_metric_name(name_part) {
            return Err(format!("line {n}: bad metric name {name_part:?}"));
        }
        let value = value_part.split_whitespace().next().unwrap_or("");
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("line {n}: unparseable sample value {value:?}"));
        }
    }
    Ok(())
}

fn validate_labels(labels: &str, lineno: usize) -> Result<(), String> {
    if labels.trim().is_empty() {
        return Ok(());
    }
    for pair in labels.split(',') {
        let (key, val) = pair
            .split_once('=')
            .ok_or(format!("line {lineno}: label pair without '=': {pair:?}"))?;
        let key = key.trim();
        if key.is_empty() || !is_valid_metric_name(key) {
            return Err(format!("line {lineno}: bad label name {key:?}"));
        }
        let val = val.trim();
        if !(val.starts_with('"') && val.ends_with('"') && val.len() >= 2) {
            return Err(format!("line {lineno}: label value not quoted: {val:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new(false);
        let c = r.counter("jobs_total");
        let g = r.gauge("load");
        let h = r.histogram("latency_ns");
        c.add(5);
        g.set(1.5);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
        // Enabling retroactively activates the same handles.
        r.set_enabled(true);
        c.add(5);
        g.set(1.5);
        h.record(100);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 1.5);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn handles_share_cells_by_name() {
        let r = Registry::new(true);
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new(true);
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new(true).counter("bad name!");
    }

    #[test]
    fn prometheus_export_validates() {
        let r = Registry::new(true);
        r.counter("farm_jobs_total").add(12);
        r.gauge("farm_jobs_per_sec").set(87.5);
        let h = r.histogram("farm_job_run_ns");
        for v in [100u64, 5_000, 90_000, 90_000] {
            h.record(v);
        }
        let text = r.to_prometheus_text();
        validate_prometheus_text(&text).expect("export must validate");
        assert!(text.contains("# HELP farm_jobs_total Monotonic event counter."));
        assert!(text.contains("# TYPE farm_jobs_total counter"));
        assert!(text.contains("farm_jobs_total 12"));
        assert!(text.contains("# TYPE farm_job_run_ns histogram"));
        assert!(text.contains("farm_job_run_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("farm_job_run_ns_count 4"));
        // Cumulative bucket counts end at the total.
        let last_bucket = text.lines().rfind(|l| l.starts_with("farm_job_run_ns_bucket")).unwrap();
        assert!(last_bucket.ends_with(" 4"));
    }

    #[test]
    fn jsonl_export_parses_with_own_reader() {
        let r = Registry::new(true);
        r.counter("a_total").add(3);
        r.gauge("b").set(0.25);
        r.histogram("c_ns").record(77);
        let jsonl = r.to_jsonl();
        let mut names = Vec::new();
        for line in jsonl.lines() {
            let v = crate::json::parse(line).expect("every line parses");
            if let Some(name) = v.get("name").and_then(crate::json::Json::as_str) {
                names.push(name.to_string());
            }
            if v.get("metric").and_then(crate::json::Json::as_str) == Some("histogram") {
                assert_eq!(v.get("count").and_then(crate::json::Json::as_f64), Some(1.0));
                assert!(v.get("p99").is_some());
            }
        }
        assert_eq!(names, ["a_total", "b", "c_ns"]);
    }

    #[test]
    fn merged_histogram_folds_a_family() {
        let r = Registry::new(true);
        r.histogram("run_ns_w0").record(10);
        r.histogram("run_ns_w1").record(1_000);
        r.histogram("other").record(5);
        let merged = r.merged_histogram("run_ns_w");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.max, 1_000);
        assert_eq!(merged.min, 10);
    }

    #[test]
    fn reset_preserves_registrations() {
        let r = Registry::new(true);
        let c = r.counter("n_total");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("n_total").get(), 1);
    }

    #[test]
    fn prometheus_validator_rejects_garbage() {
        for bad in [
            "not a metric line",
            "name{le=\"1\" 2",
            "name{key=value} 1",
            "9name 1",
            "name abc",
            "# TYPE name nonsense",
            "# HELP 9name described",
            "# HELP lonely_name",
            "# HELP lonely_name    ",
        ] {
            assert!(validate_prometheus_text(bad).is_err(), "{bad:?}");
        }
        validate_prometheus_text("# HELP x helpful\n# TYPE x gauge\nx 1.5\nx{a=\"b\",c=\"d\"} 2\n")
            .expect("good text accepted");
    }

    #[test]
    fn described_metrics_export_their_help_text() {
        let r = Registry::new(true);
        r.counter("serve_jobs_total").inc();
        r.describe("serve_jobs_total", "Jobs admitted by the service.");
        r.describe("serve_jobs_total", "Jobs admitted by the service, total.");
        let text = r.to_prometheus_text();
        assert!(text.contains("# HELP serve_jobs_total Jobs admitted by the service, total."));
        validate_prometheus_text(&text).expect("described export validates");
        // A multi-line description is escaped, not emitted raw.
        r.describe("serve_jobs_total", "line one\nline two");
        assert!(r.to_prometheus_text().contains("# HELP serve_jobs_total line one\\nline two"));
        validate_prometheus_text(&r.to_prometheus_text()).unwrap();
    }

    #[test]
    fn global_registry_starts_disabled() {
        // Only check the default state — other tests may enable it later,
        // so don't assert anything time-dependent here.
        let g = global();
        let _ = g.counter("obs_selftest_total");
        assert!(std::ptr::eq(g, global()));
    }
}
