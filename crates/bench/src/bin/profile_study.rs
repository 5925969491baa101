//! Observability study: per-scheduler execution traces for one SPR round.
//!
//! Simulates a single SPR round's kernel stream under EDTLP, LLP/2 and MGPS
//! with event tracing enabled, exports a Perfetto-loadable Chrome trace and
//! a JSONL metrics snapshot per scheduler, and cross-checks the
//! trace-derived per-SPE utilization against the DES's own `SimStats`
//! accounting (they must agree exactly — the trace carries the same charged
//! cycles the stats do).
//!
//! Non-smoke runs also leave a schema-versioned envelope at the repo root
//! (`BENCH_profile.json`) with per-scheduler makespan/utilization numbers.
//! These are simulated cycle counts — deterministic, so they carry no gate
//! suffix (any drift is a code change, caught by the determinism gates).
//!
//! Flags:
//!   --quick        use the reduced workload instead of the 42_SC equivalent
//!   --smoke        run the self-check suite on a small workload and exit
//!                  nonzero on any mismatch or malformed export
//!   --out D        write trace artifacts into directory D
//!                  (default: target/profile_study)
//!   --format F     text (default) or json (print the envelope)
//!   --no-artifact  skip writing BENCH_profile.json

use bench::artifact::{bench_artifact_path, Envelope, OutputFormat};
use bench::cli::StudyArgs;
use bench::{check_profile, profile_report_text, profile_spr_round, RoundProfile};
use cellsim::cost::CostModel;
use raxml_cell::experiment::{capture_workload, WorkloadSpec};

fn main() {
    let args = StudyArgs::parse();
    if args.smoke {
        match smoke() {
            Ok(()) => {
                println!("profile smoke: all checks passed");
                return;
            }
            Err(msg) => {
                eprintln!("profile smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    let format = args.format;
    let no_artifact = args.no_artifact;
    let out_dir = args.out_dir("target/profile_study");
    let (workload, label) = bench::or_exit(bench::workload_from_args());
    if format.is_text() {
        println!("workload: {label} ({} SPR rounds marked)", workload.rounds.len());
    }

    let profiles = profile_spr_round(&workload, 16);
    for p in &profiles {
        if let Err(msg) = check_profile(p) {
            eprintln!("trace/stats cross-check FAILED: {msg}");
            std::process::exit(1);
        }
    }
    match write_artifacts(&out_dir, &profiles) {
        Ok(paths) => {
            if format.is_text() {
                for path in paths {
                    println!("wrote {path}");
                }
            }
        }
        Err(e) => {
            eprintln!("error writing artifacts: {e}");
            std::process::exit(1);
        }
    }
    let envelope = profile_envelope(workload.rounds.len(), label, &profiles);
    if !no_artifact {
        let path = bench_artifact_path("profile");
        bench::or_exit(envelope.write(&path));
        if format.is_text() {
            println!("wrote {}", path.display());
        }
    }
    let model = CostModel::paper_calibrated();
    match format {
        OutputFormat::Json => print!("{}", envelope.to_json()),
        OutputFormat::Text => print!("{}", profile_report_text(&profiles, model.clock_hz)),
    }
}

/// Fold the per-scheduler profiles into a flat envelope
/// (`edtlp_makespan_cycles`, `llp2_mean_spe_utilization_pct`, …).
fn profile_envelope(n_rounds: usize, label: &str, profiles: &[RoundProfile]) -> Envelope {
    let mut envelope =
        Envelope::new("profile").with_config("workload", label).with_config("spr_rounds", n_rounds);
    for p in profiles {
        let slug = p.label.to_lowercase().replace('/', "");
        envelope.push_metric(&format!("{slug}_makespan_cycles"), p.outcome.makespan as f64);
        envelope.push_metric(
            &format!("{slug}_mean_spe_utilization_pct"),
            100.0 * p.summary.mean_utilization(),
        );
        envelope.push_metric(
            &format!("{slug}_mean_dma_stall_pct"),
            100.0 * p.summary.mean_stall_fraction(),
        );
        envelope.push_metric(
            &format!("{slug}_ppe_busy_pct"),
            100.0 * p.summary.ppe_busy as f64 / p.outcome.makespan.max(1) as f64,
        );
        envelope.push_metric(
            &format!("{slug}_events"),
            p.summary.spe_bursts.iter().sum::<u64>() as f64,
        );
    }
    envelope
}

/// Write each profile's Chrome trace and metrics snapshot into `dir`.
fn write_artifacts(
    dir: &std::path::Path,
    profiles: &[RoundProfile],
) -> Result<Vec<String>, String> {
    let dir = &dir.display().to_string();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let mut paths = Vec::new();
    for p in profiles {
        let slug = p.label.to_lowercase().replace('/', "");
        let trace = format!("{dir}/round0_{slug}.trace.json");
        let metrics = format!("{dir}/round0_{slug}.metrics.jsonl");
        std::fs::write(&trace, &p.chrome_json).map_err(|e| format!("write {trace}: {e}"))?;
        std::fs::write(&metrics, &p.metrics_jsonl).map_err(|e| format!("write {metrics}: {e}"))?;
        paths.push(trace);
        paths.push(metrics);
    }
    Ok(paths)
}

/// Self-check suite for CI: trace/stats agreement, export well-formedness,
/// and round-trip through the filesystem, on a small real workload.
fn smoke() -> Result<(), String> {
    let workload =
        capture_workload(&WorkloadSpec::small()).map_err(|e| format!("workload capture: {e}"))?;

    // 1. The search must have marked at least one SPR round, and the mark
    //    must slice a nonempty prefix of the event stream.
    let mark = workload.rounds.first().ok_or("no SPR round marks recorded")?;
    if workload.round_events(mark).is_empty() {
        return Err("first SPR round slices zero events".to_string());
    }

    // 2. Per scheduler: trace totals equal SimStats exactly and both
    //    exports parse.
    let profiles = profile_spr_round(&workload, 8);
    if profiles.len() != 3 {
        return Err(format!("expected 3 scheduler profiles, got {}", profiles.len()));
    }
    for p in &profiles {
        check_profile(p)?;
        if p.summary.spe_bursts.iter().sum::<u64>() == 0 {
            return Err(format!("{}: trace recorded no SPE bursts", p.label));
        }
        if !p.chrome_json.contains("\"traceEvents\"") {
            return Err(format!("{}: chrome trace missing traceEvents array", p.label));
        }
    }

    // 3. Artifacts survive a filesystem round trip and still validate.
    let dir = std::env::temp_dir().join(format!("raxml-cell-profile-smoke-{}", std::process::id()));
    let paths = write_artifacts(&dir, &profiles)?;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        if path.ends_with(".jsonl") {
            obs::json::validate_jsonl(&text)
                .map_err(|e| format!("{path} failed JSONL validation after round trip: {e}"))?;
        } else {
            obs::json::parse(&text)
                .map_err(|e| format!("{path} failed JSON validation after round trip: {e}"))?;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
