//! `scale_1000x2000`: one evaluate-a-given-tree job on the scale tier.
//!
//! Set-up simulates a 1000-taxon × 2000-site alignment from the seed and
//! writes it as PHYLIP. The timed work then stream-parses and compresses
//! the file, builds the likelihood workspace (about 264 MB of CLVs, far
//! beyond the per-core L2), computes the full lnL on the simulated true
//! tree, runs one `optimize_all_branches` pass, and writes a search
//! checkpoint and reads it back. It starts from a given tree because
//! stepwise-addition parsimony at 1000 taxa would take over an hour.

use crate::layers::{put_absent_layers, put_kernel_counts, Absent};
use crate::profile::{self, ModelledProfile};
use crate::stats::ms;
use crate::{peak_rss_mb, repeated_setup, setup_repeats, Args, Report, WorkDir};
use phylo::checkpoint::{SearchCheckpoint, SearchCheckpointer};
use phylo::io::{parse_phylip_reader, write_phylip_to};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodWorkspace;
use phylo::model::{GammaRates, SubstModel};
use phylo::prelude::*;
use phylo::trace::TraceCounters;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TAXA: usize = 1000;
const SITES: usize = 2000;
const RATES: usize = 4;
/// Passes over the fixed work in an untraced run (median reported).
const REPEATS: usize = 3;

/// What set-up leaves for the timed work.
struct Input {
    phylip: PathBuf,
    tree: Tree,
    model: SubstModel,
    alpha: f64,
    /// The simulator's own compressed alignment, kept to check the file
    /// round trip.
    reference: PatternAlignment,
}

fn setup(seed: u64, dir: &Path) -> Result<Input, String> {
    let config = SimulationConfig::new(TAXA, SITES, seed);
    let w = config.try_generate().map_err(|e| e.to_string())?;
    let phylip = dir.join("scale.phy");
    let file = std::fs::File::create(&phylip).map_err(|e| format!("create input: {e}"))?;
    let mut out = BufWriter::new(file);
    write_phylip_to(&w.raw, &mut out).map_err(|e| format!("write input: {e}"))?;
    out.flush().map_err(|e| format!("write input: {e}"))?;
    Ok(Input {
        phylip,
        tree: w.true_tree,
        model: config.model,
        alpha: config.alpha,
        reference: w.alignment,
    })
}

/// Per-call timings and outputs of one pass over the fixed work.
#[derive(Debug, Clone, Default)]
struct Pass {
    wall_ns: u64,
    parse_ns: u64,
    compress_ns: u64,
    workspace_ns: u64,
    traversal_ns: u64,
    traversal_newviews: u64,
    branch_ns: u64,
    branch_newviews: u64,
    branches: usize,
    checkpoint_ns: u64,
    checkpoint_bytes: u64,
    checkpoint_identical: bool,
    patterns: usize,
    lnl_true_bits: u64,
    lnl_after_bits: u64,
    counters: TraceCounters,
    reused: u64,
    recomputed: u64,
    flops: u64,
    bytes: u64,
}

fn lap(t: &mut Instant) -> u64 {
    let ns = t.elapsed().as_nanos() as u64;
    *t = Instant::now();
    ns
}

/// The fixed work. `traced` additionally records kernel events (for the
/// computed FLOPs and bytes); the calls and their order are the same.
fn pass(input: &Input, ckpt: &Path, seed: u64, traced: bool) -> Result<Pass, String> {
    let mut p = Pass::default();
    let start = Instant::now();
    let mut t = start;
    let file = std::fs::File::open(&input.phylip).map_err(|e| format!("open input: {e}"))?;
    let raw = parse_phylip_reader(BufReader::new(file)).map_err(|e| format!("parse: {e}"))?;
    p.parse_ns = lap(&mut t);
    let aln = raw.try_compress().map_err(|e| format!("compress: {e}"))?;
    drop(raw);
    p.compress_ns = lap(&mut t);
    let rates = GammaRates::new(input.alpha, RATES).map_err(|e| e.to_string())?;
    let mut engine =
        LikelihoodEngine::new(&aln, input.model.clone(), rates, LikelihoodConfig::optimized());
    if traced {
        engine.enable_event_recording();
    }
    p.workspace_ns = lap(&mut t);
    let lnl = engine.log_likelihood(&input.tree);
    p.traversal_ns = lap(&mut t);
    p.traversal_newviews = engine.trace().counters().newview_calls;
    let mut tree = input.tree.clone();
    let branch = profile::time_branch_pass(&mut engine, &mut tree);
    t = Instant::now();
    let request = InferenceRequest::new(SearchConfig::fast(), seed);
    let snap = SearchCheckpoint {
        rounds_done: 0,
        moves_applied: 0,
        last_applied: 0,
        alpha_bits: input.alpha.to_bits(),
        tree_exact: tree.to_exact_string(),
    };
    let mut checkpointer = SearchCheckpointer::new(ckpt, request.fingerprint(&aln));
    checkpointer.save(&snap).map_err(|e| format!("checkpoint save: {e}"))?;
    let back = checkpointer.load().map_err(|e| format!("checkpoint load: {e}"))?;
    p.checkpoint_ns = lap(&mut t);
    p.wall_ns = start.elapsed().as_nanos() as u64;

    p.checkpoint_identical = back.as_ref() == Some(&snap);
    p.checkpoint_bytes = std::fs::metadata(ckpt).map(|m| m.len()).unwrap_or(0);
    p.branch_ns = branch.ns;
    p.branch_newviews = branch.newviews;
    p.branches = branch.branches;
    p.patterns = aln.n_patterns();
    p.lnl_true_bits = lnl.to_bits();
    p.lnl_after_bits = branch.lnl.to_bits();
    let reuse = engine.reuse_stats();
    p.reused = reuse.partials_reused;
    p.recomputed = reuse.partials_recomputed;
    let trace = engine.take_trace();
    p.counters = *trace.counters();
    (p.flops, p.bytes) =
        trace.events().iter().fold((0, 0), |(f, b), ev| (f + ev.flops(), b + ev.dma_bytes()));
    Ok(p)
}

/// Output checks shared by both modes.
fn check(report: &mut Report, p: &Pass, input: &Input) {
    let (before, after) = (f64::from_bits(p.lnl_true_bits), f64::from_bits(p.lnl_after_bits));
    report.check(before.is_finite() && before < 0.0, || format!("true-tree lnL {before}"));
    report.check(after.is_finite() && after >= before - 1e-6 * before.abs(), || {
        format!("branch pass lowered lnL from {before} to {after}")
    });
    report.check(p.checkpoint_identical, || "checkpoint did not read back identical".into());
    report.check(p.patterns == input.reference.n_patterns(), || {
        format!(
            "file round trip gave {} patterns, simulator {}",
            p.patterns,
            input.reference.n_patterns()
        )
    });
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let dir = work.path().to_path_buf();
    let (setup_s, input) = repeated_setup(setup_repeats(args), || setup(args.seed, &dir))?;
    let ckpt = dir.join("scale.ckpt");
    crate::reset_peak_rss();
    let mut report = Report::new();

    // The untraced run repeats the fixed work and reports the median: the
    // pass is bound by memory bandwidth, which neighbours on a shared host
    // move by ±10% from one pass to the next. Every repeat must give the
    // same lnL bits and kernel counts.
    let repeats = if args.trace { 1 } else { REPEATS };
    report.attempted = repeats as u64;
    let mut passes = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        match pass(&input, &ckpt, args.seed, false) {
            Ok(p) => passes.push(p),
            Err(e) => {
                report.failed += 1;
                report.fail(format!("scale job failed: {e}"));
                passes.push(Pass::default());
            }
        }
    }
    let plain = passes[0].clone();
    for p in &passes[1..] {
        report.check(
            p.lnl_true_bits == plain.lnl_true_bits
                && p.lnl_after_bits == plain.lnl_after_bits
                && p.counters == plain.counters,
            || "repeated passes differ".into(),
        );
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let wall_s = crate::stats::median(&walls);
    let peak_rss = peak_rss_mb()?;
    check(&mut report, &plain, &input);
    // The file round trip must not change the answer: the simulator's own
    // compressed alignment gives the same true-tree lnL, bit for bit.
    {
        let rates = GammaRates::new(input.alpha, RATES).map_err(|e| e.to_string())?;
        let mut engine = LikelihoodEngine::new(
            &input.reference,
            input.model.clone(),
            rates,
            LikelihoodConfig::optimized(),
        );
        let reference = engine.log_likelihood(&input.tree);
        report.check(reference.to_bits() == plain.lnl_true_bits, || {
            format!("lnL {reference} from memory differs from the parsed file's")
        });
    }
    eprintln!(
        "scale_1000x2000: {} patterns, walls {walls:.2?} s, branch pass {:.2} s, {:.2} \
         newviews/branch, lnL bits {:016x} -> {:016x}",
        plain.patterns,
        plain.branch_ns as f64 / 1e9,
        plain.branch_newviews as f64 / plain.branches.max(1) as f64,
        plain.lnl_true_bits,
        plain.lnl_after_bits,
    );

    if !args.trace {
        report.put("setup_s", setup_s, "s");
        report.put("wall_s", wall_s, "s");
        report.put("jobs_per_s", 1.0 / wall_s, "1/s");
        report.put("capacity_jobs_per_s", 1.0 / wall_s, "1/s");
        report.put("e2e_p50_ms", wall_s * 1e3, "ms");
        report.put("e2e_p90_ms", wall_s * 1e3, "ms");
        report.put("peak_rss_mb", peak_rss, "MB");
        return Ok(report);
    }

    let traced = pass(&input, &ckpt, args.seed, true)?;
    check(&mut report, &traced, &input);
    report.check(
        traced.lnl_true_bits == plain.lnl_true_bits
            && traced.lnl_after_bits == plain.lnl_after_bits
            && traced.counters == plain.counters,
        || "traced pass differs from the untraced pass".into(),
    );
    report.put("io.parse_ms", ms(traced.parse_ns), "ms");
    report.put("alignment.compress_ms", ms(traced.compress_ns), "ms");
    report.put("alignment.patterns", traced.patterns as f64, "count");
    report.put("workspace.build_ms", ms(traced.workspace_ns), "ms");
    report.put(
        "workspace.clv_bytes",
        LikelihoodWorkspace::estimate_bytes(TAXA, traced.patterns, RATES) as f64,
        "B",
    );
    report.put("engine.traversal_ms", ms(traced.traversal_ns), "ms");
    report.put(
        "engine.newview_patterns_per_s",
        (traced.traversal_newviews * traced.patterns as u64) as f64
            / (traced.traversal_ns as f64 / 1e9),
        "1/s",
    );
    report.put("engine.branch_pass_ms", ms(traced.branch_ns), "ms");
    report.put(
        "engine.newviews_per_branch",
        traced.branch_newviews as f64 / traced.branches.max(1) as f64,
        "count",
    );
    report.put(
        "engine.reuse_frac",
        traced.reused as f64 / (traced.reused + traced.recomputed).max(1) as f64,
        "frac",
    );
    put_kernel_counts(&mut report, &traced.counters);
    report.put("kernel.flops", traced.flops as f64, "flop");
    report.put("kernel.bytes", traced.bytes as f64, "B");
    report.put("checkpoint.write_ms", ms(traced.checkpoint_ns), "ms");
    report.put("checkpoint.bytes", traced.checkpoint_bytes as f64, "B");
    report.put("search.branch_opt_ms", ms(traced.branch_ns), "ms");
    for name in ["search.parsimony_ms", "search.model_opt_ms", "search.spr_round_ms"] {
        report.put(name, 0.0, "ms");
    }
    report.put("search.rounds", 0.0, "count");
    report.put("search.moves_applied", 0.0, "count");
    for name in ["farm.queue_wait_ms.p50", "farm.run_ms.p50", "farm.run_ms.p90"] {
        report.put(name, 0.0, "ms");
    }
    report.put("farm.seal_lag_ms.p50", 0.0, "ms");
    report.put("farm.busy_frac", 0.0, "frac");
    report.put("farm.steals", 0.0, "count");

    // Host §5.2 profile of the fixed work, calibrated on the same data.
    let aln = input.reference.clone();
    let cal = profile::calibrate(&aln, &input.tree, input.model.clone(), input.alpha, 20_000_000)?;
    let mut modelled = ModelledProfile::default();
    modelled.add(&cal, &traced.counters, traced.patterns, traced.traversal_ns + traced.branch_ns);
    modelled.report(&mut report);

    put_absent_layers(&mut report, Absent::SCALE);
    report.put("trace.overhead_frac", traced.wall_ns as f64 / 1e9 / wall_s - 1.0, "frac");
    report.put("failed_frac", report.failed as f64 / report.attempted as f64, "frac");
    Ok(report)
}
