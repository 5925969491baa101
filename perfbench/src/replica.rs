//! A traced replica of one `run_inference` call.
//!
//! `phylo::search::run_inference` is one opaque call. To attribute its time
//! to the search steps, the traced batch run drives each job through the
//! same public steps in the same order — stepwise-addition parsimony,
//! engine construction, branch smoothing, Γ-shape and exchangeability
//! optimisation, SPR rounds — with a stopwatch around each. The replica
//! must reproduce `run_inference` bit for bit (lnL, Γ shape, exact tree
//! string, round/move counts and every kernel counter); the batch workload
//! compares the two and marks the traced run incorrect on any difference.
//! Covers the un-checkpointed path, the one batch jobs take.

use phylo::likelihood::engine::{LikelihoodEngine, ReuseStats};
use phylo::likelihood::LikelihoodWorkspace;
use phylo::model::{GammaRates, SubstModel};
use phylo::prelude::{InferenceRequest, PatternAlignment};
use phylo::search::{
    optimize_alpha, optimize_exchangeabilities, parsimony_score, spr_round, stepwise_addition_tree,
};
use phylo::trace::TraceCounters;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Nanoseconds spent in each search step of one job.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// `stepwise_addition_tree` + `parsimony_score`.
    pub parsimony_ns: u64,
    /// `LikelihoodEngine::with_workspace` (workspace sizing).
    pub workspace_ns: u64,
    /// Every `optimize_all_branches` call.
    pub branch_opt_ns: u64,
    /// `optimize_alpha` and `optimize_exchangeabilities`.
    pub model_opt_ns: u64,
    /// `spr_round` calls (the candidate sweep only).
    pub spr_ns: u64,
}

/// What one replica job produced.
#[derive(Debug, Clone)]
pub struct ReplicaOut {
    pub lnl_bits: u64,
    pub alpha_bits: u64,
    pub tree_exact: String,
    pub rounds: usize,
    pub moves_applied: usize,
    pub counters: TraceCounters,
    pub reuse: ReuseStats,
    /// Kernel FLOPs and CLV bytes, computed from the recorded events.
    pub flops: u64,
    pub bytes: u64,
    pub steps: StepTimes,
    /// Duration of each `spr_round` call.
    pub spr_round_ns: Vec<u64>,
    /// Per-round windows (`begin_spr_round` .. `end_spr_round`), as
    /// `run_inference` reports them in `SearchResult::round_walls`.
    pub round_walls: Vec<(u64, u64)>,
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// Run `request` on `aln` step by step, recording kernel events; returns
/// the result and the workspace for reuse by the next job.
pub fn run(
    aln: &PatternAlignment,
    request: &InferenceRequest,
    workspace: LikelihoodWorkspace,
) -> Result<(ReplicaOut, LikelihoodWorkspace), String> {
    let config = &request.config;
    let mut steps = StepTimes::default();
    let mut rng = StdRng::seed_from_u64(request.seed);

    let mut tree = timed(&mut steps.parsimony_ns, || {
        let tree = stepwise_addition_tree(aln, config.initial_branch_length, &mut rng)
            .map_err(|e| format!("stepwise addition: {e}"))?;
        std::hint::black_box(parsimony_score(&tree, aln));
        Ok::<_, String>(tree)
    })?;

    let model = match &config.model {
        Some(m) => m.clone(),
        None => SubstModel::gtr(aln.base_frequencies(), [1.0; 6])
            .map_err(|e| format!("empirical GTR: {e}"))?,
    };
    let rates = GammaRates::new(config.initial_alpha, config.n_rate_categories)
        .map_err(|e| format!("rate model: {e}"))?;
    let mut engine = timed(&mut steps.workspace_ns, || {
        LikelihoodEngine::with_workspace(
            aln,
            model,
            rates,
            config.likelihood,
            config.workspace,
            workspace,
        )
    });
    engine.enable_event_recording();

    timed(&mut steps.branch_opt_ns, || engine.optimize_all_branches(&mut tree, 2));
    if config.optimize_alpha {
        timed(&mut steps.model_opt_ns, || optimize_alpha(&mut engine, &tree));
        timed(&mut steps.branch_opt_ns, || engine.optimize_all_branches(&mut tree, 1));
    }

    let search_epoch = Instant::now();
    let mut rounds = 0;
    let mut moves_applied = 0;
    let mut round_walls = Vec::new();
    let mut spr_round_ns = Vec::new();
    for round in 0..config.max_spr_rounds {
        let wall_start = search_epoch.elapsed().as_nanos() as u64;
        engine.begin_spr_round(round as u32);
        let mut sweep = 0;
        let stats = timed(&mut sweep, || {
            spr_round(&mut engine, &mut tree, config.spr_radius, config.epsilon)
        });
        steps.spr_ns += sweep;
        spr_round_ns.push(sweep);
        rounds = round + 1;
        moves_applied += stats.applied;
        timed(&mut steps.branch_opt_ns, || engine.optimize_all_branches(&mut tree, 1));
        if config.optimize_alpha && round % 2 == 1 {
            timed(&mut steps.model_opt_ns, || optimize_alpha(&mut engine, &tree));
        }
        engine.end_spr_round();
        round_walls.push((wall_start, search_epoch.elapsed().as_nanos() as u64));
        if stats.applied == 0 {
            break;
        }
    }

    if config.optimize_exchangeabilities {
        timed(&mut steps.model_opt_ns, || optimize_exchangeabilities(&mut engine, &tree));
        timed(&mut steps.branch_opt_ns, || engine.optimize_all_branches(&mut tree, 1));
    }
    if config.optimize_alpha {
        timed(&mut steps.model_opt_ns, || optimize_alpha(&mut engine, &tree));
    }
    let mut lnl = timed(&mut steps.branch_opt_ns, || {
        engine.optimize_all_branches(&mut tree, config.branch_smoothings)
    });
    if !lnl.is_finite() {
        lnl = engine.try_log_likelihood(&tree).map_err(|e| format!("final lnL: {e}"))?;
    }

    let trace = engine.take_trace();
    let (flops, bytes) =
        trace.events().iter().fold((0, 0), |(f, b), ev| (f + ev.flops(), b + ev.dma_bytes()));
    let out = ReplicaOut {
        lnl_bits: lnl.to_bits(),
        alpha_bits: engine.rates().alpha().to_bits(),
        tree_exact: tree.to_exact_string(),
        rounds,
        moves_applied,
        counters: *trace.counters(),
        reuse: engine.reuse_stats(),
        flops,
        bytes,
        steps,
        spr_round_ns,
        round_walls,
    };
    Ok((out, engine.into_workspace()))
}
