//! Service-tier study: sustained multi-tenant load over the real wire
//! protocol, measuring jobs/sec and end-to-end latency percentiles.
//!
//! The load is the open-loop phase of [`bench::serve_load`]: each tenant
//! thread submits its jobs on a fixed schedule (one every `--interval-ms`,
//! offset so tenants interleave) regardless of how fast the service drains
//! them — so queueing delay shows up in the latencies instead of being
//! hidden by a closed feedback loop. End-to-end latency is client-observed:
//! submit-frame write to the status poll that first reports `done`.
//!
//! Every run also verifies **exactly-once execution** end to end: the set
//! of client-observed completed job ids must be exactly the submitted ids
//! (nothing lost, nothing duplicated), and the service's shutdown report
//! must agree with the farm's own `FarmStats` (`dispatched == farm.n_jobs`,
//! all seals accounted). The `/metrics` endpoint is scraped over HTTP on
//! the same port and validated with the repo's Prometheus validator.
//!
//! Flags (shared surface from `bench::cli`):
//!
//! ```text
//!   --smoke          tiny run + self-checks, no root artifact
//!   --tenants N      concurrent tenants (default 3)
//!   --jobs N         jobs per tenant (default 8)
//!   --workers N      farm workers (default 4)
//!   --interval-ms N  open-loop inter-arrival per tenant (default 30)
//!   --out D          unused (kept for surface uniformity)
//!   --format F       text (default) or json (print the envelope)
//!   --no-artifact    skip writing BENCH_serve.json
//! ```

use bench::artifact::{bench_artifact_path, OutputFormat};
use bench::cli::StudyArgs;
use bench::or_exit;
use bench::serve_load::{run_load, LoadConfig};
use serve::client::scrape_metrics;

fn main() {
    let args = StudyArgs::parse();
    let cfg = or_exit(LoadConfig::from_args(&args));
    let total = cfg.total();
    if args.format.is_text() {
        eprintln!(
            "serve_study: {} tenants x {} jobs on {} workers ({}x{} alignment, open loop, {:?} inter-arrival)",
            cfg.tenants, cfg.jobs_per_tenant, cfg.workers, cfg.taxa, cfg.sites, cfg.interval
        );
    }

    // Exactly-once and farm accounting are checked inside the load phase;
    // the /metrics scrape runs while the server is still up.
    let run = run_load(&cfg, true, |addr, _| {
        let prom = scrape_metrics(addr).map_err(|e| format!("scraping /metrics: {e}"))?;
        obs::validate_prometheus_text(&prom)?;
        if !prom.contains("serve_submitted_total") {
            return Err("/metrics export is missing serve_submitted_total".to_string());
        }
        Ok(())
    })
    .unwrap_or_else(|e| fail(&e));

    let mut latencies_ns: Vec<u64> = run.jobs.iter().map(|j| j.e2e.as_nanos() as u64).collect();
    latencies_ns.sort_unstable();
    let pct = |q: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * q).round() as usize];
    let jobs_per_sec = run.jobs_per_sec();

    let mut envelope = cfg.envelope("serve");
    // `_per_sec` / `_p99` suffixes enroll these in the gate's classes.
    envelope.push_metric("serve_jobs_per_sec", jobs_per_sec);
    envelope.push_metric("serve_e2e_ns_p50", pct(0.50) as f64);
    envelope.push_metric("serve_e2e_ns_p90", pct(0.90) as f64);
    envelope.push_metric("serve_e2e_ns_p99", pct(0.99) as f64);
    envelope.push_metric("serve_e2e_ns_max", *latencies_ns.last().unwrap() as f64);
    envelope.push_metric("serve_jobs_total", total as f64);

    if !args.smoke && !args.no_artifact {
        let path = bench_artifact_path("serve");
        or_exit(envelope.write(&path));
        if args.format.is_text() {
            eprintln!("wrote {}", path.display());
        }
    }
    match args.format {
        OutputFormat::Json => print!("{}", envelope.to_json()),
        OutputFormat::Text => {
            println!(
                "{total} jobs exactly-once across {} tenants: {jobs_per_sec:.2} jobs/sec sustained",
                cfg.tenants
            );
            println!(
                "e2e latency: p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms",
                pct(0.50) as f64 / 1e6,
                pct(0.90) as f64 / 1e6,
                pct(0.99) as f64 / 1e6,
                *latencies_ns.last().unwrap() as f64 / 1e6,
            );
            println!(
                "farm cross-check: {} dispatched == {} sealed ok, 0 failed",
                run.report.dispatched, run.report.sealed_ok
            );
            if args.smoke {
                println!("serve_study smoke: OK");
            }
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("serve_study FAILED: {message}");
    std::process::exit(1);
}
