//! `batch_aln42`: a batch of independent ML searches (standard preset) and
//! bootstrap replicates (fast preset) on the 42_SC-equivalent alignment,
//! run in process through `phylo::farm::run_farm` with one worker per core.
//!
//! The untraced pass calls `run_inference` per job. The traced pass runs
//! the same jobs through [`crate::replica`] under a `FarmObserver`, and
//! every job must reproduce the untraced result bit for bit.

use crate::layers::{add_counters, put_absent_layers, put_kernel_counts, Absent};
use crate::profile::{self, ModelledProfile};
use crate::replica::{self, ReplicaOut};
use crate::stats::{mean, median, ms, pct};
use crate::{nproc, peak_rss_mb, repeated_setup, setup_repeats, Args, Report};
use phylo::farm::{run_farm, FarmConfig, FarmEvent, FarmStats};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodWorkspace;
use phylo::model::{GammaRates, SubstModel};
use phylo::prelude::*;
use phylo::trace::TraceCounters;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::time::Instant;

/// One batch: full searches and bootstrap replicates, about 3 s on two
/// workers (a search ~1.2 s, a replicate ~0.6 s on one core).
const SEARCHES: usize = 2;
const BOOTSTRAPS: usize = 6;
/// Batches per second of `--seconds`: a run repeats the batch and reports
/// medians over the repeats, which damps the second-to-second drift of a
/// shared host's speed.
const BATCHES_PER_SECOND: f64 = 1.0 / 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A full ML search, standard preset.
    Search,
    /// A bootstrap replicate (resampled weights), fast preset.
    Bootstrap,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    kind: Kind,
    seed: u64,
}

impl Job {
    fn request(&self) -> InferenceRequest {
        let config = match self.kind {
            Kind::Search => SearchConfig::standard(),
            Kind::Bootstrap => SearchConfig::fast(),
        };
        InferenceRequest::new(config, self.seed)
    }

    /// The alignment the job runs on: the dataset, or its bootstrap
    /// replicate drawn from the job seed (as the service does).
    fn target<'a>(&self, aln: &'a PatternAlignment) -> Cow<'a, PatternAlignment> {
        match self.kind {
            Kind::Search => Cow::Borrowed(aln),
            Kind::Bootstrap => {
                Cow::Owned(aln.bootstrap_replicate(&mut StdRng::seed_from_u64(self.seed)))
            }
        }
    }
}

/// The batch: full searches first (longest first keeps the farm's tail
/// short), then bootstrap replicates, from a fixed list of job seeds. It
/// does not depend on the run seed: search time varies so much from one job
/// seed to the next (±12% on a batch of 38 freshly drawn jobs) that a drawn
/// batch would measure the draw more than the program, and the order of a
/// batch this small moves its makespan as much.
fn jobs() -> Vec<Job> {
    let seeds = crate::seed_pool(0x0005_EA4C, SEARCHES + BOOTSTRAPS);
    let kind = |i| if i < SEARCHES { Kind::Search } else { Kind::Bootstrap };
    seeds.into_iter().enumerate().map(|(i, seed)| Job { kind: kind(i), seed }).collect()
}

/// One `run_inference` result.
struct Plain {
    lnl: f64,
    alpha: f64,
    tree: Tree,
    model: SubstModel,
    rounds: usize,
    moves_applied: usize,
    counters: TraceCounters,
    round_walls: Vec<(u64, u64)>,
}

/// Run the batch through `run_inference`; returns the wall time, the
/// per-job results and each job's seal time since the start.
fn plain_pass(
    aln: &PatternAlignment,
    jobs: &[Job],
    workers: usize,
) -> (u64, Vec<Result<Plain, String>>, Vec<u64>) {
    let t0 = Instant::now();
    let config = FarmConfig::new(workers).with_epoch(t0);
    let mut sealed_at = vec![0u64; jobs.len()];
    let outcome = run_farm(
        &config,
        jobs.iter().copied(),
        |_| LikelihoodWorkspace::default(),
        |ws, _, job: Job| {
            let target = job.target(aln);
            let options = InferenceOptions::new().with_workspace(std::mem::take(ws));
            let out = run_inference(&target, &job.request(), options).map_err(|e| e.to_string())?;
            *ws = out.workspace;
            let r = out.result;
            Ok(Plain {
                lnl: r.log_likelihood,
                alpha: r.alpha,
                tree: r.tree,
                model: r.model,
                rounds: r.rounds,
                moves_applied: r.moves_applied,
                counters: *r.trace.counters(),
                round_walls: r.round_walls,
            })
        },
        None,
        |i, _| sealed_at[i] = t0.elapsed().as_nanos() as u64,
    );
    let wall = t0.elapsed().as_nanos() as u64;
    let results = outcome.results.into_iter().map(|r| r.map_err(|e| e.to_string())?).collect();
    (wall, results, sealed_at)
}

/// The traced pass: wall time, per-job replica results with the job's
/// pattern count, the farm's observer events and its accounting.
struct Traced {
    wall: u64,
    results: Vec<Result<(ReplicaOut, usize), String>>,
    events: Vec<FarmEvent>,
    stats: FarmStats,
}

/// Run the batch through the traced replica under a farm observer.
fn traced_pass(aln: &PatternAlignment, jobs: &[Job], workers: usize) -> Traced {
    let t0 = Instant::now();
    let config = FarmConfig::new(workers).with_epoch(t0);
    let mut events = Vec::new();
    let mut observer = |ev: FarmEvent| events.push(ev);
    let outcome = run_farm(
        &config,
        jobs.iter().copied(),
        |_| LikelihoodWorkspace::default(),
        |ws, _, job: Job| {
            let target = job.target(aln);
            let (out, back) = replica::run(&target, &job.request(), std::mem::take(ws))?;
            *ws = back;
            Ok((out, target.n_patterns()))
        },
        Some(&mut observer),
        |_, _| {},
    );
    let wall = t0.elapsed().as_nanos() as u64;
    let results = outcome.results.into_iter().map(|r| r.map_err(|e| e.to_string())?).collect();
    Traced { wall, results, events, stats: outcome.stats }
}

/// The lnL a fresh engine computes for a result's tree and model must be
/// the reported lnL, bit for bit.
fn reevaluate(aln: &PatternAlignment, job: &Job, r: &Plain) -> Result<f64, String> {
    let target = job.target(aln);
    let config = job.request().config;
    let rates = GammaRates::new(r.alpha, config.n_rate_categories).map_err(|e| e.to_string())?;
    let mut engine = LikelihoodEngine::with_options(
        &target,
        r.model.clone(),
        rates,
        config.likelihood,
        config.workspace,
    );
    Ok(engine.log_likelihood(&r.tree))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let workers = nproc();
    let (setup_s, aln) = repeated_setup(setup_repeats(args), || {
        let w = SimulationConfig::aln42().try_generate().map_err(|e| e.to_string())?;
        // Warm-up: one fast-preset search touches the kernels, the search
        // and the allocator before anything is timed.
        let warm = InferenceRequest::new(SearchConfig::fast(), 0x5EED);
        run_inference(&w.alignment, &warm, InferenceOptions::new()).map_err(|e| e.to_string())?;
        Ok(w.alignment)
    })?;
    let jobs = jobs();
    crate::reset_peak_rss();
    let repeats = ((args.seconds * BATCHES_PER_SECOND).round() as usize).max(3);
    eprintln!(
        "batch_aln42: {} taxa x {} patterns, {SEARCHES} searches + {BOOTSTRAPS} bootstraps on \
         {workers} workers, {repeats} times",
        aln.n_taxa(),
        aln.n_patterns(),
    );

    let mut report = Report::new();
    let (mut walls, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<Result<Plain, String>>> = None;
    for repeat in 0..repeats {
        let (wall, results, sealed_at) = plain_pass(&aln, &jobs, workers);
        let e2e: Vec<f64> = sealed_at.iter().map(|&ns| ms(ns)).collect();
        walls.push(wall as f64 / 1e9);
        p50s.push(pct(&e2e, 0.5));
        p90s.push(pct(&e2e, 0.9));
        report.attempted += jobs.len() as u64;
        report.failed += results.iter().filter(|r| r.is_err()).count() as u64;
        match &first {
            None => first = Some(results),
            // Every repeat does the same work and must give the same bits
            // and the same kernel counts.
            Some(reference) => {
                let same = reference.iter().zip(&results).all(|(a, b)| match (a, b) {
                    (Ok(a), Ok(b)) => {
                        a.lnl.to_bits() == b.lnl.to_bits()
                            && a.alpha.to_bits() == b.alpha.to_bits()
                            && a.tree == b.tree
                            && a.counters == b.counters
                    }
                    _ => false,
                });
                report.check(same, || format!("repeat {repeat} differs from the first"));
            }
        }
    }
    let peak_rss = peak_rss_mb()?;
    let results = first.expect("at least one repeat");
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(e) => report.fail(format!("job {i} failed: {e}")),
            Ok(p) => report
                .check(p.lnl.is_finite() && p.lnl < 0.0 && p.tree.validate().is_ok(), || {
                    format!("job {i}: implausible result (lnL {})", p.lnl)
                }),
        }
    }
    // The reported lnL is the lnL of the reported tree: re-evaluate the
    // first search and the first bootstrap from scratch.
    for kind in [Kind::Search, Kind::Bootstrap] {
        if let Some((i, Ok(p))) = results.iter().enumerate().find(|(i, _)| jobs[*i].kind == kind) {
            let again = reevaluate(&aln, &jobs[i], p)?;
            report.check(again.to_bits() == p.lnl.to_bits(), || {
                format!("job {i}: fresh lnL {again} differs from reported {}", p.lnl)
            });
        }
    }
    let wall = median(&walls);
    eprintln!("  batch walls (s): {walls:.3?}");

    if !args.trace {
        let n = jobs.len() as f64;
        report.put("setup_s", setup_s, "s");
        report.put("wall_s", wall, "s");
        report.put("jobs_per_s", n / wall, "1/s");
        report.put("capacity_jobs_per_s", n / wall, "1/s");
        report.put("e2e_p50_ms", median(&p50s), "ms");
        report.put("e2e_p90_ms", median(&p90s), "ms");
        report.put("peak_rss_mb", peak_rss, "MB");
        return Ok(report);
    }

    // Traced pass: same jobs, step-timed replica, farm events.
    let Traced { wall: traced_wall, results: traced, events, stats: farm_stats } =
        traced_pass(&aln, &jobs, workers);
    let mut outs = Vec::new();
    for (i, (t, p)) in traced.iter().zip(&results).enumerate() {
        let (Ok((t, patterns)), Ok(p)) = (t, p) else {
            report.fail(format!("job {i} failed in one pass"));
            continue;
        };
        let same = t.lnl_bits == p.lnl.to_bits()
            && t.alpha_bits == p.alpha.to_bits()
            && t.tree_exact == p.tree.to_exact_string()
            && t.rounds == p.rounds
            && t.moves_applied == p.moves_applied
            && t.counters == p.counters
            && t.round_walls.len() == p.round_walls.len();
        report.check(same, || format!("job {i}: traced replica diverged from run_inference"));
        outs.push((i, t, *patterns, p));
    }
    // Cross-check the replica's per-round windows against the ones
    // run_inference reported for the same rounds.
    let span = |w: &[(u64, u64)]| w.iter().map(|&(s, e)| e - s).sum::<u64>() as f64;
    let inside: f64 = outs.iter().map(|(_, t, _, _)| span(&t.round_walls)).sum();
    let reported: f64 = outs.iter().map(|(_, _, _, p)| span(&p.round_walls)).sum();
    let round_ratio = if reported > 0.0 { inside / reported } else { 1.0 };
    eprintln!("round windows: replica / run_inference = {round_ratio:.3}");
    report.check((0.5..2.0).contains(&round_ratio), || {
        format!("replica round windows are {round_ratio:.2}x run_inference's")
    });

    let run_ns = farm_metrics(&mut report, &events, &farm_stats, workers, traced_wall);
    let per_job = |f: &dyn Fn(&ReplicaOut) -> u64| {
        mean(&outs.iter().map(|(_, t, _, _)| ms(f(t))).collect::<Vec<_>>())
    };
    report.put("search.parsimony_ms", per_job(&|t| t.steps.parsimony_ns), "ms");
    report.put("search.branch_opt_ms", per_job(&|t| t.steps.branch_opt_ns), "ms");
    report.put("search.model_opt_ms", per_job(&|t| t.steps.model_opt_ns), "ms");
    let sweeps: Vec<f64> =
        outs.iter().flat_map(|(_, t, _, _)| t.spr_round_ns.iter().map(|&ns| ms(ns))).collect();
    report.put("search.spr_round_ms", mean(&sweeps), "ms");
    let total = |f: &dyn Fn(&ReplicaOut) -> u64| outs.iter().map(|(_, t, _, _)| f(t)).sum::<u64>();
    report.put("search.rounds", total(&|t| t.rounds as u64) as f64, "count");
    report.put("search.moves_applied", total(&|t| t.moves_applied as u64) as f64, "count");
    let mut counters = TraceCounters::default();
    for (_, t, _, _) in &outs {
        add_counters(&mut counters, &t.counters);
    }
    put_kernel_counts(&mut report, &counters);
    report.put("kernel.flops", total(&|t| t.flops) as f64, "flop");
    report.put("kernel.bytes", total(&|t| t.bytes) as f64, "B");
    let (reused, recomputed) = (
        total(&|t| t.reuse.partials_reused) as f64,
        total(&|t| t.reuse.partials_recomputed) as f64,
    );
    report.put("engine.reuse_frac", reused / (reused + recomputed).max(1.0), "frac");
    report.put("workspace.build_ms", per_job(&|t| t.steps.workspace_ns), "ms");
    report.put(
        "workspace.clv_bytes",
        LikelihoodWorkspace::estimate_bytes(aln.n_taxa(), aln.n_patterns(), 4) as f64,
        "B",
    );
    report.put("alignment.patterns", aln.n_patterns() as f64, "count");

    // Host §5.2 profile: calibrate on the first search's optimised tree.
    let first = jobs.iter().position(|j| j.kind == Kind::Search).unwrap_or(0);
    let Ok(best) = &results[first] else {
        return Err("no successful search to calibrate on".into());
    };
    let cal = profile::calibrate(&aln, &best.tree, best.model.clone(), best.alpha, 100_000_000)?;
    report.put("engine.traversal_ms", cal.traversal_ns / 1e6, "ms");
    report.put("engine.newview_patterns_per_s", cal.newview_patterns_per_s, "1/s");
    let pass = profile::branch_pass(&aln, &best.tree, best.model.clone(), best.alpha)?;
    report.put("engine.branch_pass_ms", ms(pass.ns), "ms");
    report.put("engine.newviews_per_branch", pass.newviews_per_branch(), "count");
    let mut modelled = ModelledProfile::default();
    for (i, t, patterns, _) in &outs {
        modelled.add(&cal, &t.counters, *patterns, run_ns.get(i).copied().unwrap_or(0));
    }
    modelled.report(&mut report);

    put_absent_layers(&mut report, Absent::BATCH);
    report.put("trace.overhead_frac", traced_wall as f64 / 1e9 / wall - 1.0, "frac");
    report.put("failed_frac", report.failed as f64 / report.attempted as f64, "frac");
    Ok(report)
}

/// Farm-layer metrics from observer events; returns each job's run time.
fn farm_metrics(
    report: &mut Report,
    events: &[FarmEvent],
    stats: &FarmStats,
    workers: usize,
    wall_ns: u64,
) -> std::collections::BTreeMap<usize, u64> {
    let (mut queue, mut run, mut seal) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_ns = std::collections::BTreeMap::new();
    for ev in events {
        match *ev {
            FarmEvent::JobStarted { at_nanos, enqueued_at_nanos, .. } => {
                queue.push(ms(at_nanos - enqueued_at_nanos))
            }
            FarmEvent::JobCompleted { at_nanos, started_at_nanos, job, .. } => {
                run.push(ms(at_nanos - started_at_nanos));
                run_ns.insert(job, at_nanos - started_at_nanos);
            }
            FarmEvent::JobSealed { at_nanos, completed_at_nanos, .. } => {
                seal.push(ms(at_nanos - completed_at_nanos))
            }
            _ => {}
        }
    }
    report.put("farm.queue_wait_ms.p50", pct(&queue, 0.5), "ms");
    report.put("farm.run_ms.p50", pct(&run, 0.5), "ms");
    report.put("farm.run_ms.p90", pct(&run, 0.9), "ms");
    report.put("farm.seal_lag_ms.p50", pct(&seal, 0.5), "ms");
    let busy: f64 = run.iter().sum::<f64>() / (workers as f64 * ms(wall_ns));
    report.put("farm.busy_frac", busy, "frac");
    report.put("farm.steals", stats.steals as f64, "count");
    run_ns
}
