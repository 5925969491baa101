//! Throughput study: jobs/sec scaling of the inference farm vs worker
//! count on a bootstrap batch workload.
//!
//! Runs the same batch of bootstrap-replicate ML searches through
//! `phylo::farm` with 1/2/4/8 workers, measures jobs/sec from the farm's
//! own accounting, verifies the per-job log-likelihoods are bit-identical
//! across every worker count (the farm's determinism contract), and
//! exports the run's trace-log counters in the JSONL metrics snapshot
//! format (`cellsim::tracelog::to_metrics_jsonl`).
//!
//! On a multi-core machine jobs/sec grows monotonically from 1 to 4
//! workers (the acceptance shape); on a single hardware thread the curve
//! is flat — the binary reports the available parallelism so the numbers
//! can be read in context.
//!
//! Non-smoke runs also leave a schema-versioned envelope at the repo root
//! (`BENCH_throughput.json`) whose `w{N}_jobs_per_sec` metrics enroll in
//! the benchmark regression gate's throughput class.
//!
//! Flags:
//!   --smoke        run the self-check suite (farm mechanics under injected
//!                  faults + a tiny bootstrap batch's worker-count
//!                  invariance + JSONL validity) and exit nonzero on failure
//!   --jobs N       batch size (default 24)
//!   --out D        artifact directory (default: target/throughput_study)
//!   --format F     text (default) or json (print the envelope)
//!   --no-artifact  skip writing BENCH_throughput.json

use bench::artifact::{bench_artifact_path, Envelope, OutputFormat};
use cellsim::tracelog::TraceLog;
use obs::json::validate_jsonl;
use phylo::alignment::PatternAlignment;
use phylo::farm::{run_farm, FarmConfig, FarmError, FarmFaultPlan, FarmStats};
use phylo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use raxml_cell::FarmTracer;

/// Worker counts swept by the study.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let args = StudyArgs::parse();
    if args.smoke {
        match smoke() {
            Ok(()) => {
                println!("throughput smoke: all checks passed");
                return;
            }
            Err(msg) => {
                eprintln!("throughput smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    let format = args.format;
    let no_artifact = args.no_artifact;
    let n_jobs: usize = bench::or_exit(args.usize_value("--jobs")).filter(|&n| n > 0).unwrap_or(24);
    let out_dir = args.out_dir("target/throughput_study");
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let aln = SimulationConfig { mean_branch: 0.15, ..SimulationConfig::new(8, 400, 7) }
        .generate()
        .alignment;
    let search = SearchConfig::fast();
    if format.is_text() {
        println!(
            "bootstrap batch: {n_jobs} jobs on {} taxa x {} patterns ({hw} hardware threads)",
            aln.n_taxa(),
            aln.n_patterns()
        );
        println!(
            "{:>8} {:>10} {:>10} {:>8} {:>8}",
            "workers", "elapsed_s", "jobs/sec", "steals", "failed"
        );
    }

    let mut log = TraceLog::enabled();
    let mut reference: Option<Vec<u64>> = None;
    let mut rates: Vec<(usize, f64)> = Vec::new();
    let mut envelope = Envelope::new("throughput")
        .with_config("jobs", n_jobs)
        .with_config("hw_threads", hw)
        .with_config("taxa", aln.n_taxa())
        .with_config("patterns", aln.n_patterns());
    for &w in &WORKER_COUNTS {
        let (bits, stats) = run_batch_traced(&aln, &search, n_jobs, w, Some(&mut log));
        match &reference {
            None => reference = Some(bits),
            Some(r) => {
                if *r != bits {
                    eprintln!("DETERMINISM VIOLATION: lnL bits differ between 1 and {w} workers");
                    std::process::exit(1);
                }
            }
        }
        log.counter(stats.elapsed_nanos, jobs_per_sec_name(w), stats.jobs_per_sec());
        if format.is_text() {
            println!(
                "{:>8} {:>10.3} {:>10.2} {:>8} {:>8}",
                w,
                stats.elapsed_nanos as f64 / 1e9,
                stats.jobs_per_sec(),
                stats.steals,
                stats.n_failed
            );
        }
        // `_per_sec` suffix enrolls these in the gate's throughput class.
        envelope.push_metric(&format!("w{w}_jobs_per_sec"), stats.jobs_per_sec());
        envelope.push_metric(&format!("w{w}_steals"), stats.steals as f64);
        envelope.push_metric(&format!("w{w}_elapsed_s"), stats.elapsed_nanos as f64 / 1e9);
        rates.push((w, stats.jobs_per_sec()));
    }
    if format.is_text() {
        println!("per-job log-likelihoods bit-identical across all worker counts");
    }

    let monotonic_to_4 =
        rates.windows(2).take(2).all(|p| p[1].1 >= p[0].1 * if hw > 1 { 1.0 } else { 0.0 });
    if format.is_text() {
        if hw >= 4 && !monotonic_to_4 {
            println!("note: jobs/sec not monotonic 1->4 despite {hw} hardware threads");
        } else if hw == 1 {
            println!("note: 1 hardware thread available; scaling cannot show on this machine");
        }
    }

    if let Err(e) = write_metrics(&out_dir, &log, format.is_text()) {
        eprintln!("error writing artifacts: {e}");
        std::process::exit(1);
    }
    if !no_artifact {
        let path = bench_artifact_path("throughput");
        bench::or_exit(envelope.write(&path));
        if format.is_text() {
            println!("wrote {}", path.display());
        }
    }
    if format == OutputFormat::Json {
        print!("{}", envelope.to_json());
    }
}

/// Static counter name per swept worker count (trace-log counter names
/// must be `&'static str`).
fn jobs_per_sec_name(workers: usize) -> &'static str {
    match workers {
        1 => "jobs_per_sec_w1",
        2 => "jobs_per_sec_w2",
        4 => "jobs_per_sec_w4",
        8 => "jobs_per_sec_w8",
        _ => "jobs_per_sec",
    }
}

use bench::cli::StudyArgs;

/// Run `n_jobs` bootstrap-replicate searches on the farm with `n_workers`
/// workers (per-worker workspace shards) and return the per-job lnL bits
/// plus the farm's accounting. With a trace log, job lifecycles and the
/// end-of-run aggregates are recorded via the farm-tier bridge.
fn run_batch_traced(
    aln: &PatternAlignment,
    search: &SearchConfig,
    n_jobs: usize,
    n_workers: usize,
    log: Option<&mut TraceLog>,
) -> (Vec<u64>, FarmStats) {
    let seeds: Vec<u64> = (0..n_jobs as u64).map(|i| 0x0b00_7000 + i).collect();
    let config = FarmConfig::new(n_workers);
    let work = |ws: &mut LikelihoodWorkspace, _idx: usize, seed: u64| {
        let owned = std::mem::take(ws);
        let mut rng = StdRng::seed_from_u64(seed);
        let replicate = aln.bootstrap_replicate(&mut rng);
        let outcome = phylo::search::run_inference(
            &replicate,
            &phylo::search::InferenceRequest::new(search.clone(), seed),
            phylo::search::InferenceOptions::new().with_workspace(owned),
        )
        .expect("un-checkpointed search on finite data cannot fail");
        *ws = outcome.workspace;
        outcome.result.log_likelihood.to_bits()
    };
    let outcome = match log {
        Some(log) => {
            let mut tracer = FarmTracer::new(log, 1e9);
            let outcome = run_farm(
                &config,
                seeds,
                |_| LikelihoodWorkspace::new(),
                work,
                Some(&mut tracer),
                |_, _| {},
            );
            tracer.finish(&outcome.stats);
            outcome
        }
        None => run_farm(&config, seeds, |_| LikelihoodWorkspace::new(), work, None, |_, _| {}),
    };
    let stats = outcome.stats.clone();
    let bits = outcome.into_results().expect("bootstrap jobs do not fail");
    (bits, stats)
}

/// Write the metrics snapshot (1 cycle = 1 ns, no SPE lanes — this is a
/// task-tier study) and return its path.
fn write_metrics(dir: &std::path::Path, log: &TraceLog, verbose: bool) -> Result<String, String> {
    let dir = dir.display();
    std::fs::create_dir_all(format!("{dir}")).map_err(|e| format!("create {dir}: {e}"))?;
    let jsonl = log.to_metrics_jsonl(1e9, 0);
    validate_jsonl(&jsonl).map_err(|e| format!("metrics JSONL malformed: {e}"))?;
    let path = format!("{dir}/throughput.metrics.jsonl");
    std::fs::write(&path, &jsonl).map_err(|e| format!("write {path}: {e}"))?;
    if verbose {
        println!("wrote {path}");
    }
    Ok(path)
}

/// Self-check suite for CI.
fn smoke() -> Result<(), String> {
    smoke_farm_mechanics()?;
    smoke_bootstrap_invariance()?;
    println!("throughput smoke: farm mechanics + bootstrap invariance + JSONL all OK");
    Ok(())
}

/// Farm mechanics under stress: hundreds of tiny jobs with an injected
/// job failure, a worker death, and a tight submission bound — every job
/// accounted for exactly once, in order, with typed failures.
fn smoke_farm_mechanics() -> Result<(), String> {
    const N: usize = 300;
    // Job 41 panics on purpose; keep its backtrace out of the CI log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let config = FarmConfig::new(4)
        .bounded(8)
        .with_fault(FarmFaultPlan::none().fail_job(17).kill_worker_after(3, 0));
    let mut sealed = 0usize;
    let outcome = run_farm(
        &config,
        (0..N as u64).collect::<Vec<_>>(),
        |_| (),
        |(), _, j| {
            if j == 41 {
                panic!("job forty-one exploded");
            }
            j * 3
        },
        None,
        |i, _| {
            if i != sealed {
                // Checked after the run via the error string.
                sealed = usize::MAX;
                return;
            }
            sealed += 1;
        },
    );
    std::panic::set_hook(default_hook);
    if sealed != N {
        return Err(format!("seal order broken: sealed counter ended at {sealed}, want {N}"));
    }
    if outcome.results.len() != N {
        return Err(format!("expected {N} result slots, got {}", outcome.results.len()));
    }
    if outcome.stats.max_in_flight > 8 {
        return Err(format!("capacity bound violated: {} in flight", outcome.stats.max_in_flight));
    }
    if outcome.stats.workers_died != 1 {
        return Err(format!("expected 1 worker death, saw {}", outcome.stats.workers_died));
    }
    for (i, r) in outcome.results.iter().enumerate() {
        match (i, r) {
            (17, Err(FarmError::InjectedFault { job: 17, .. })) => {}
            (41, Err(FarmError::JobPanicked { job: 41, message, .. })) => {
                if !message.contains("forty-one") {
                    return Err(format!("panic payload lost: {message}"));
                }
            }
            (_, Ok(v)) if *v == i as u64 * 3 => {}
            other => return Err(format!("job {i}: unexpected slot {other:?}")),
        }
    }
    if outcome.stats.n_failed != 2 {
        return Err(format!("expected 2 failed jobs, saw {}", outcome.stats.n_failed));
    }
    Ok(())
}

/// A tiny bootstrap batch must produce bit-identical per-job lnLs with 1
/// and 3 workers, and the traced run's JSONL export must validate.
fn smoke_bootstrap_invariance() -> Result<(), String> {
    let aln = SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(6, 200, 3) }
        .generate()
        .alignment;
    let search = SearchConfig::fast();
    let (one, _) = run_batch_traced(&aln, &search, 5, 1, None);
    let mut log = TraceLog::enabled();
    let (three, stats) = run_batch_traced(&aln, &search, 5, 3, Some(&mut log));
    if one != three {
        return Err("lnL bits differ between 1 and 3 workers".to_string());
    }
    if stats.n_jobs != 5 || stats.n_failed != 0 {
        return Err(format!("unexpected accounting: {stats:?}"));
    }
    if log.last_counter("farm_jobs") != Some(5.0) {
        return Err("farm_jobs counter missing from trace log".to_string());
    }
    let dir = std::env::temp_dir().join(format!("raxml-throughput-smoke-{}", std::process::id()));
    let path = write_metrics(&dir, &log, true)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    validate_jsonl(&text).map_err(|e| format!("{path} failed validation after round trip: {e}"))?;
    if !text.contains("farm_jobs_per_sec") {
        return Err("metrics snapshot missing farm_jobs_per_sec counter".to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
