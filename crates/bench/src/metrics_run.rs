//! The shared wall-clock metrics measurement behind `metrics_study` and
//! `bench_gate`.
//!
//! One run: enable the global `obs` registry, push a bootstrap batch
//! through the inference farm (with the trace-log bridge and a real
//! `BootstrapStore` append per sealed job), run one small checkpointed
//! search so the durable-write histograms have data, then fold the
//! registry into a schema-versioned [`Envelope`] plus the two raw exports
//! (Prometheus text and JSONL). Both binaries call this, so "what the
//! gate measures" and "what the study reports" are the same code path by
//! construction.

use crate::artifact::Envelope;
use cellsim::tracelog::TraceLog;
use obs::HistogramSnapshot;
use phylo::checkpoint::{search_fingerprint, BootstrapStore, SearchCheckpointer};
use phylo::farm::{run_farm, FarmConfig, FarmStats};
use phylo::likelihood::LikelihoodWorkspace;
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use raxml_cell::{bridge_counters_to_gauges, FarmTracer};

/// How the measurement is shaped.
#[derive(Debug, Clone)]
pub struct MetricsRunConfig {
    /// Bootstrap jobs in the farm batch.
    pub n_jobs: usize,
    /// Farm workers.
    pub n_workers: usize,
    /// Reduced alignment for smoke/CI runs.
    pub quick: bool,
}

impl MetricsRunConfig {
    /// The full study shape (what `BENCH_metrics.json` baselines use).
    pub fn full(n_jobs: usize, n_workers: usize) -> MetricsRunConfig {
        MetricsRunConfig { n_jobs, n_workers, quick: false }
    }

    /// The smoke shape: tiny alignment, tiny batch.
    pub fn smoke() -> MetricsRunConfig {
        MetricsRunConfig { n_jobs: 5, n_workers: 2, quick: true }
    }
}

impl Default for MetricsRunConfig {
    fn default() -> MetricsRunConfig {
        MetricsRunConfig::full(12, 4)
    }
}

/// Everything one measurement produced.
#[derive(Debug)]
pub struct MetricsRun {
    /// The flat, gate-comparable summary.
    pub envelope: Envelope,
    /// Prometheus text exposition of the whole registry.
    pub prometheus: String,
    /// JSONL snapshot of the whole registry.
    pub jsonl: String,
    /// The farm's own accounting, for coherence checks.
    pub stats: FarmStats,
}

/// The per-worker histogram families the farm records (name prefixes; the
/// study folds each family into one cross-worker distribution).
pub const FARM_HIST_FAMILIES: [&str; 3] =
    ["farm_queue_wait_ns", "farm_job_run_ns", "farm_seal_lag_ns"];

/// Counters the envelope carries verbatim.
const COUNTERS: [&str; 9] = [
    "farm_jobs_total",
    "farm_jobs_failed_total",
    "farm_steals_total",
    "farm_backpressure_waits_total",
    "farm_workers_died_total",
    "evaluate_patterns_total",
    "newton_patterns_total",
    "bootstrap_append_bytes_total",
    "checkpoint_bytes_total",
];

/// Run the measurement. Leaves the global registry enabled-but-reset state
/// as it found it disabled afterwards, so library callers (tests) are not
/// surprised by a hot registry.
pub fn collect_metrics(cfg: &MetricsRunConfig) -> Result<MetricsRun, String> {
    let registry = obs::global();
    let was_enabled = registry.is_enabled();
    registry.set_enabled(true);
    registry.reset();
    let result = collect_inner(cfg, registry);
    registry.set_enabled(was_enabled);
    result
}

fn collect_inner(cfg: &MetricsRunConfig, registry: &obs::Registry) -> Result<MetricsRun, String> {
    let aln = if cfg.quick {
        SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(6, 200, 3) }
            .generate()
            .alignment
    } else {
        SimulationConfig { mean_branch: 0.15, ..SimulationConfig::new(8, 400, 7) }
            .generate()
            .alignment
    };
    let search = SearchConfig::fast();

    let dir = std::env::temp_dir().join(format!("raxml-metrics-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // 1. One small checkpointed search: real snapshot writes through
    //    `SearchCheckpointer::save` feed `checkpoint_write_ns`.
    let ckpt_path = dir.join("search.ckpt");
    let fp = search_fingerprint(&aln, &search, 1);
    let mut ckpt = SearchCheckpointer::new(&ckpt_path, fp);
    run_inference(
        &aln,
        &InferenceRequest::new(search.clone(), 1),
        InferenceOptions::new().with_checkpoint(&mut ckpt),
    )
    .map_err(|e| format!("checkpointed search: {e}"))?;

    // 2. The farm batch, with the trace bridge and a BootstrapStore append
    //    per sealed job (real durable writes feed `bootstrap_append_ns`).
    let mut store = BootstrapStore::open(dir.join("bootstrap.log"), fp, cfg.n_jobs)
        .map_err(|e| format!("bootstrap store: {e}"))?;
    let mut log = TraceLog::enabled();
    let mut tracer = FarmTracer::new(&mut log, 1e9);
    let seeds: Vec<u64> = (0..cfg.n_jobs as u64).map(|i| 0x0b00_7000 + i).collect();
    let farm_config = FarmConfig::new(cfg.n_workers).bounded(2 * cfg.n_workers);
    let aln_ref = &aln;
    let search_ref = &search;
    let outcome = run_farm(
        &farm_config,
        seeds,
        |_| LikelihoodWorkspace::new(),
        move |ws: &mut LikelihoodWorkspace, _idx: usize, seed: u64| {
            let owned = std::mem::take(ws);
            let mut rng = StdRng::seed_from_u64(seed);
            let replicate = aln_ref.bootstrap_replicate(&mut rng);
            let outcome = run_inference(
                &replicate,
                &InferenceRequest::new(search_ref.clone(), seed),
                InferenceOptions::new().with_workspace(owned),
            )
            .expect("un-checkpointed search on finite data cannot fail");
            *ws = outcome.workspace;
            (outcome.result.log_likelihood, outcome.result.tree.to_exact_string())
        },
        Some(&mut tracer),
        |_, sealed| {
            if let Ok((lnl, tree)) = sealed {
                store.append(*lnl, tree).expect("bootstrap append");
            }
        },
    );
    tracer.finish(&outcome.stats);
    // 3. The per-scrape bridge: trace-log counters (read through the
    //    indexed `counters_snapshot`) become registry gauges.
    bridge_counters_to_gauges(&log, registry);
    std::fs::remove_dir_all(&dir).ok();

    let stats = outcome.stats.clone();
    if stats.n_failed != 0 {
        return Err(format!("{} bootstrap jobs failed", stats.n_failed));
    }

    // 4. Raw exports, both self-validated.
    let prometheus = registry.to_prometheus_text();
    obs::validate_prometheus_text(&prometheus)
        .map_err(|e| format!("prometheus export invalid: {e}"))?;
    let jsonl = registry.to_jsonl();
    obs::json::validate_jsonl(&jsonl).map_err(|e| format!("jsonl export invalid: {e}"))?;

    // 5. The flat envelope.
    let mut envelope = Envelope::new("metrics")
        .with_config("jobs", cfg.n_jobs)
        .with_config("workers", cfg.n_workers)
        .with_config("quick", cfg.quick)
        .with_config("taxa", aln.n_taxa())
        .with_config("patterns", aln.n_patterns());

    envelope.push_metric("farm_jobs_per_sec", stats.jobs_per_sec());
    let elapsed_s = stats.elapsed_nanos as f64 / 1e9;
    for family in FARM_HIST_FAMILIES {
        let merged = registry.merged_histogram(&format!("{family}_w"));
        push_quantiles(&mut envelope, family, &merged);
    }
    for name in
        ["evaluate_dispatch_ns", "newton_dispatch_ns", "bootstrap_append_ns", "checkpoint_write_ns"]
    {
        push_quantiles(&mut envelope, name, &registry.histogram(name).snapshot());
    }
    for name in COUNTERS {
        envelope.push_metric(name, registry.counter(name).get() as f64);
    }
    let eval_patterns = registry.counter("evaluate_patterns_total").get() as f64;
    if elapsed_s > 0.0 {
        envelope.push_metric("evaluate_patterns_per_sec", eval_patterns / elapsed_s);
    }
    envelope.push_metric("farm_jobs_per_sec_traced", registry.gauge("farm_jobs_per_sec").get());

    Ok(MetricsRun { envelope, prometheus, jsonl, stats })
}

/// Flatten one histogram's deterministic summary into envelope metrics
/// (`<name>_p50/_p90/_p99/_max/_count`; only `_p99` is gated).
fn push_quantiles(envelope: &mut Envelope, name: &str, h: &HistogramSnapshot) {
    envelope.push_metric(&format!("{name}_p50"), h.quantile(0.5) as f64);
    envelope.push_metric(&format!("{name}_p90"), h.quantile(0.9) as f64);
    envelope.push_metric(&format!("{name}_p99"), h.quantile(0.99) as f64);
    envelope.push_metric(&format!("{name}_max"), h.max as f64);
    envelope.push_metric(&format!("{name}_count"), h.count as f64);
}
