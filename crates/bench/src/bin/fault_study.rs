//! Extension study: fault injection across the DES schedulers.
//!
//! Sweeps uniform fault rates and a dead-SPE scenario over EDTLP, LLP and
//! MGPS, printing makespan degradation plus the recovery machinery's
//! activity (retries, re-dispatches, blacklists, PPE degradations).
//!
//! Flags:
//!   --quick     use the reduced workload instead of the 42_SC equivalent
//!   --smoke     run the self-check suite (determinism, inert-plan equality,
//!               checkpoint kill-and-resume) and exit nonzero on any mismatch
//!   --format F  text (default) or json (a `fault` envelope with per-row
//!               `{sched}_rate{N}pct_slowdown` / `{sched}_spe_deaths_slowdown`
//!               metrics; purely informational, nothing gates)

use bench::artifact::{Envelope, OutputFormat};
use cellsim::cost::CostModel;
use cellsim::fault::FaultPlan;
use phylo::bootstrap::{BootstrapAnalysis, BootstrapCheckpointPolicy};
use phylo::checkpoint::{search_fingerprint, SearchCheckpointer};
use phylo::error::PhyloError;
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use raxml_cell::config::{OptConfig, Scheduler};
use raxml_cell::experiment::{capture_workload, WorkloadSpec};
use raxml_cell::offload::price_trace;
use raxml_cell::sched::{schedule_makespan, schedule_makespan_with_faults, DesParams};

fn main() {
    let args = bench::cli::StudyArgs::parse();
    if args.smoke {
        match smoke() {
            Ok(()) => {
                println!("fault smoke: all checks passed");
                return;
            }
            Err(msg) => {
                eprintln!("fault smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    let format = args.format;
    let (w, label) = bench::or_exit(bench::capture(args.quick));
    match format {
        OutputFormat::Text => {
            println!("workload: {label}");
            print!("{}", bench::fault_study_text(&w, 16));
        }
        OutputFormat::Json => {
            let (sweep, deaths) = bench::fault_study_rows(&w, 16);
            let mut envelope = Envelope::new("fault").with_config("workload", label);
            for row in &sweep {
                let slug = row.scheduler.to_lowercase().replace('/', "");
                let pct = (row.fault_rate * 100.0).round() as u64;
                envelope.push_metric(&format!("{slug}_rate{pct}pct_slowdown"), row.degradation());
            }
            for row in &deaths {
                let slug = row.scheduler.to_lowercase().replace('/', "");
                envelope.push_metric(&format!("{slug}_spe_deaths_slowdown"), row.degradation());
            }
            print!("{}", envelope.to_json());
        }
    }
}

/// Self-check suite for CI: every property the fault machinery guarantees,
/// verified end to end on small inputs.
fn smoke() -> Result<(), String> {
    let workload =
        capture_workload(&WorkloadSpec::small()).map_err(|e| format!("workload capture: {e}"))?;
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let priced = price_trace(&workload.events, &model, &OptConfig::fully_optimized());
    let schedulers = [
        Scheduler::Edtlp,
        Scheduler::Llp { workers: 2 },
        Scheduler::Llp { workers: 4 },
        Scheduler::Mgps,
    ];

    // 1. The all-zero plan reproduces the fault-free path bit-exactly.
    for &sched in &schedulers {
        let clean = schedule_makespan(sched, &priced, 8, &model, &params);
        let inert =
            schedule_makespan_with_faults(sched, &priced, 8, &model, &params, &FaultPlan::none());
        if inert.makespan != clean || !inert.faults.is_clean() {
            return Err(format!(
                "{sched:?}: inert plan diverged ({} vs {})",
                inert.makespan, clean
            ));
        }
    }

    // 2. A seeded nonzero-rate plan replays deterministically.
    for &sched in &schedulers {
        let plan = FaultPlan::uniform(13, 0.1);
        let a = schedule_makespan_with_faults(sched, &priced, 8, &model, &params, &plan);
        let b = schedule_makespan_with_faults(sched, &priced, 8, &model, &params, &plan);
        if a.makespan != b.makespan || a.faults != b.faults {
            return Err(format!("{sched:?}: fault replay not deterministic"));
        }
        // Scheduling anomalies can let a perturbed run finish marginally
        // earlier; only a substantial speedup would indicate lost work.
        let clean = schedule_makespan(sched, &priced, 8, &model, &params);
        if (a.makespan as f64) < clean as f64 * 0.95 {
            return Err(format!("{sched:?}: faults cut the makespan by >5%"));
        }
    }

    // 3. A killed SPR search resumes from its checkpoint bit-identically.
    let dir = std::env::temp_dir().join(format!("raxml-cell-fault-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let w = SimulationConfig::new(8, 200, 19).generate();
    let cfg = SearchConfig::fast();
    let seed = 2;
    let request = InferenceRequest::new(cfg.clone(), seed);
    let reference = run_inference(&w.alignment, &request, InferenceOptions::new())
        .map_err(|e| format!("reference search: {e}"))?
        .result;
    let path = dir.join("search.ckpt");
    let fp = search_fingerprint(&w.alignment, &cfg, seed);
    let mut dying = SearchCheckpointer::new(&path, fp).abort_after_saves(1);
    match run_inference(&w.alignment, &request, InferenceOptions::new().with_checkpoint(&mut dying))
    {
        Err(PhyloError::Interrupted { .. }) => {}
        other => return Err(format!("expected interrupted search, got {other:?}")),
    }
    let mut ckpt = SearchCheckpointer::new(&path, fp);
    let resumed =
        run_inference(&w.alignment, &request, InferenceOptions::new().with_checkpoint(&mut ckpt))
            .map_err(|e| format!("resume: {e}"))?
            .result;
    if resumed.tree.to_exact_string() != reference.tree.to_exact_string()
        || resumed.log_likelihood.to_bits() != reference.log_likelihood.to_bits()
    {
        return Err("resumed search diverged from the uninterrupted run".to_string());
    }

    // 4. A killed bootstrap analysis resumes bit-identically too.
    let analysis =
        BootstrapAnalysis { n_inferences: 1, n_bootstraps: 3, n_workers: 2, seed: 5, search: cfg };
    let reference =
        analysis.try_run(&w.alignment).map_err(|e| format!("reference analysis: {e}"))?;
    let store = dir.join("bootstrap.ckpt");
    let dying = BootstrapCheckpointPolicy::new(&store, 2).abort_after_chunks(1);
    match analysis.run_with_checkpoint(&w.alignment, &dying) {
        Err(PhyloError::Interrupted { .. }) => {}
        other => return Err(format!("expected interrupted analysis, got {other:?}")),
    }
    let resumed = analysis
        .run_with_checkpoint(&w.alignment, &BootstrapCheckpointPolicy::new(&store, 2))
        .map_err(|e| format!("bootstrap resume: {e}"))?;
    if resumed.best_log_likelihood.to_bits() != reference.best_log_likelihood.to_bits()
        || resumed.best.tree.to_exact_string() != reference.best.tree.to_exact_string()
    {
        return Err("resumed bootstrap analysis diverged".to_string());
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
