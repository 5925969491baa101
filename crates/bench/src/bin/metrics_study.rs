//! Wall-clock metrics study: run an instrumented bootstrap batch and emit
//! the full observability surface.
//!
//! Outputs:
//!
//! * `--out` dir (default `target/metrics_study/`): `metrics.prom`
//!   (Prometheus text exposition) and `metrics.jsonl` (one JSON object per
//!   metric), both validated after a filesystem round trip;
//! * repo root `BENCH_metrics.json` (non-smoke runs, unless
//!   `--no-artifact`): the schema-versioned envelope the regression gate
//!   diffs.
//!
//! Flags: `--smoke` (tiny run + self-checks, no root artifact), `--quick`
//! (small alignment), `--jobs N`, `--workers N`, `--out DIR`,
//! `--format text|json`, `--no-artifact`.

use std::process::ExitCode;

use bench::artifact::{bench_artifact_path, OutputFormat};
use bench::cli::StudyArgs;
use bench::metrics_run::{collect_metrics, MetricsRun, MetricsRunConfig, FARM_HIST_FAMILIES};
use bench::or_exit;

fn main() -> ExitCode {
    let args = StudyArgs::parse();
    let (smoke, quick, no_artifact, format) =
        (args.smoke, args.quick, args.no_artifact, args.format);
    let jobs = or_exit(args.usize_value("--jobs"));
    let workers = or_exit(args.usize_value("--workers"));
    let out_dir = args.out_dir("target/metrics_study");

    let cfg = if smoke {
        MetricsRunConfig::smoke()
    } else {
        let mut c = MetricsRunConfig { quick, ..MetricsRunConfig::default() };
        if let Some(j) = jobs {
            c.n_jobs = j;
        }
        if let Some(w) = workers {
            c.n_workers = w;
        }
        c
    };

    if format.is_text() {
        eprintln!(
            "metrics_study: {} jobs on {} workers ({})",
            cfg.n_jobs,
            cfg.n_workers,
            if cfg.quick { "quick alignment" } else { "full alignment" }
        );
    }
    let run = or_exit(collect_metrics(&cfg));

    // Raw exports land under --out and must survive a filesystem round
    // trip through their validators.
    or_exit(
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display())),
    );
    let prom_path = out_dir.join("metrics.prom");
    let jsonl_path = out_dir.join("metrics.jsonl");
    or_exit(
        std::fs::write(&prom_path, &run.prometheus)
            .map_err(|e| format!("write {}: {e}", prom_path.display())),
    );
    or_exit(
        std::fs::write(&jsonl_path, &run.jsonl)
            .map_err(|e| format!("write {}: {e}", jsonl_path.display())),
    );
    let prom_back =
        or_exit(std::fs::read_to_string(&prom_path).map_err(|e| format!("read back: {e}")));
    or_exit(obs::validate_prometheus_text(&prom_back));
    let jsonl_back =
        or_exit(std::fs::read_to_string(&jsonl_path).map_err(|e| format!("read back: {e}")));
    or_exit(obs::json::validate_jsonl(&jsonl_back));

    if smoke {
        or_exit(smoke_checks(&run));
    }

    if !smoke && !no_artifact {
        let path = bench_artifact_path("metrics");
        or_exit(run.envelope.write(&path));
        if format.is_text() {
            eprintln!("wrote {}", path.display());
        }
    }

    match format {
        OutputFormat::Json => print!("{}", run.envelope.to_json()),
        OutputFormat::Text => {
            print!("{}", render_text(&run));
            eprintln!("wrote {} and {}", prom_path.display(), jsonl_path.display());
            if smoke {
                println!("metrics_study smoke: OK");
            }
        }
    }
    ExitCode::SUCCESS
}

/// Smoke-mode self-checks: the registry's farm counters must agree with
/// the farm's own `FarmStats`, and the headline histograms must have one
/// sample per job.
fn smoke_checks(run: &MetricsRun) -> Result<(), String> {
    let jobs = run.envelope.metric("farm_jobs_total").unwrap_or(-1.0);
    if jobs != run.stats.n_jobs as f64 {
        return Err(format!(
            "coherence: farm_jobs_total {jobs} != FarmStats.n_jobs {}",
            run.stats.n_jobs
        ));
    }
    let steals = run.envelope.metric("farm_steals_total").unwrap_or(-1.0);
    if steals != run.stats.steals as f64 {
        return Err(format!(
            "coherence: farm_steals_total {steals} != FarmStats.steals {}",
            run.stats.steals
        ));
    }
    for family in FARM_HIST_FAMILIES {
        let count = run.envelope.metric(&format!("{family}_count")).unwrap_or(-1.0);
        if count != run.stats.n_jobs as f64 {
            return Err(format!("coherence: {family}_count {count} != jobs {}", run.stats.n_jobs));
        }
    }
    if !run.prometheus.contains("# TYPE farm_jobs_total counter") {
        return Err("prometheus export missing farm_jobs_total TYPE line".to_string());
    }
    // Every exported metric family must carry a # HELP description, and at
    // least one registered description must surface verbatim.
    let type_lines = run.prometheus.lines().filter(|l| l.starts_with("# TYPE ")).count();
    let help_lines = run.prometheus.lines().filter(|l| l.starts_with("# HELP ")).count();
    if help_lines != type_lines {
        return Err(format!(
            "prometheus export has {help_lines} HELP lines for {type_lines} TYPE lines"
        ));
    }
    if !run.prometheus.contains("# HELP farm_jobs_total ") {
        return Err("prometheus export missing farm_jobs_total HELP line".to_string());
    }
    Ok(())
}

fn render_text(run: &MetricsRun) -> String {
    let e = &run.envelope;
    let mut out = String::new();
    out.push_str(&format!(
        "== wall-clock metrics ({} jobs, {} workers) ==\n",
        e.config_value("jobs").unwrap_or("?"),
        e.config_value("workers").unwrap_or("?"),
    ));
    out.push_str(&format!(
        "throughput: {:.2} jobs/s  (traced: {:.2})\n",
        e.metric("farm_jobs_per_sec").unwrap_or(0.0),
        e.metric("farm_jobs_per_sec_traced").unwrap_or(0.0),
    ));
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>8}\n",
        "latency (ns)", "p50", "p90", "p99", "max", "count"
    ));
    for name in FARM_HIST_FAMILIES.iter().copied().chain([
        "evaluate_dispatch_ns",
        "newton_dispatch_ns",
        "bootstrap_append_ns",
        "checkpoint_write_ns",
    ]) {
        let m = |suffix: &str| e.metric(&format!("{name}_{suffix}")).unwrap_or(0.0);
        out.push_str(&format!(
            "{:<24} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>8.0}\n",
            name,
            m("p50"),
            m("p90"),
            m("p99"),
            m("max"),
            m("count"),
        ));
    }
    out.push_str(&format!(
        "counters: jobs {} failed {} steals {} backpressure {} deaths {}\n",
        e.metric("farm_jobs_total").unwrap_or(0.0),
        e.metric("farm_jobs_failed_total").unwrap_or(0.0),
        e.metric("farm_steals_total").unwrap_or(0.0),
        e.metric("farm_backpressure_waits_total").unwrap_or(0.0),
        e.metric("farm_workers_died_total").unwrap_or(0.0),
    ));
    out.push_str(&format!(
        "patterns: evaluate {} ({:.0}/s)  newton {}\n",
        e.metric("evaluate_patterns_total").unwrap_or(0.0),
        e.metric("evaluate_patterns_per_sec").unwrap_or(0.0),
        e.metric("newton_patterns_total").unwrap_or(0.0),
    ));
    out
}
