//! The host analogue of the paper's §5.2 profile, and the engine
//! micro-measurements the per-layer report shares with it.
//!
//! The paper profiled the 42_SC run and found newview 76.8%, makenewz
//! 19.16% and evaluate 2.37% of the time. Here each kernel's cost per
//! pattern is calibrated from isolated public engine calls — a full
//! traversal for `newview`, `log_likelihood_at` on cached partials for
//! `evaluate`, re-optimising an already optimal branch for `makenewz` — and
//! multiplied by the exact kernel counts of the measured jobs. The result
//! is a *model*: the fractions are printed as modelled, next to the
//! residue between the modelled and the measured job time.

use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::prelude::{PatternAlignment, Tree};
use phylo::trace::TraceCounters;
use std::time::Instant;

/// Calibrated per-pattern kernel costs and the engine measurements taken
/// on the way.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub newview_ns_per_pattern: f64,
    pub evaluate_ns_per_pattern: f64,
    pub makenewz_ns_per_pattern: f64,
    /// Median full traversal (`invalidate_all` + `log_likelihood`).
    pub traversal_ns: f64,
    /// `newview` patterns per second in that traversal.
    pub newview_patterns_per_s: f64,
}

/// Calibrate on `aln` at `tree` (which must be optimised already, so that
/// branch re-optimisation converges at once) under the search's default
/// engine configuration. Each kernel is timed for at least `min_ns`.
pub fn calibrate(
    aln: &PatternAlignment,
    tree: &Tree,
    model: SubstModel,
    alpha: f64,
    min_ns: u64,
) -> Result<Calibration, String> {
    let rates = GammaRates::new(alpha, 4).map_err(|e| format!("rates: {e}"))?;
    let mut engine = LikelihoodEngine::new(aln, model, rates, LikelihoodConfig::optimized());
    let patterns = aln.n_patterns() as f64;
    let mut tree = tree.clone();
    engine.log_likelihood(&tree);

    // evaluate: the partials facing the first edge stay cached.
    let edge = tree.first_edge();
    let before = *engine.trace().counters();
    let (mut eval_ns, mut eval_calls) = (0u64, 0u64);
    while eval_ns < min_ns {
        let t0 = Instant::now();
        std::hint::black_box(engine.log_likelihood_at(&tree, edge));
        eval_ns += t0.elapsed().as_nanos() as u64;
        eval_calls += 1;
    }
    let after = *engine.trace().counters();
    if after.newview_calls != before.newview_calls {
        return Err("evaluate calibration recomputed partials".into());
    }
    let evaluate_ns_per_pattern = eval_ns as f64 / (eval_calls as f64 * patterns);

    // newview: full traversals, minus the one evaluate each performs.
    let mut walls = Vec::new();
    let (mut nv_ns, mut nv_calls) = (0f64, 0u64);
    while (nv_ns as u64) < min_ns || walls.len() < 3 {
        let before = *engine.trace().counters();
        engine.invalidate_all();
        let t0 = Instant::now();
        std::hint::black_box(engine.log_likelihood(&tree));
        let wall = t0.elapsed().as_nanos() as f64;
        let delta = engine.trace().counters().newview_calls - before.newview_calls;
        walls.push(wall);
        nv_ns += (wall - evaluate_ns_per_pattern * patterns).max(0.0);
        nv_calls += delta;
    }
    let newview_ns_per_pattern = nv_ns / (nv_calls as f64 * patterns);
    let traversal_ns = crate::stats::median(&walls);
    let per_traversal = nv_calls as f64 / walls.len() as f64;
    let newview_patterns_per_s = per_traversal * patterns / (traversal_ns / 1e9);

    // makenewz: optimise each branch once untimed (validating the partials
    // facing it), then again timed; any newview the timed call still needs
    // is priced at the calibrated rate and taken out.
    let edges = tree.edges();
    let (mut mk_ns, mut mk_calls) = (0f64, 0u64);
    'outer: loop {
        for &e in &edges {
            engine.optimize_branch(&mut tree, e);
            let before = *engine.trace().counters();
            let t0 = Instant::now();
            engine.optimize_branch(&mut tree, e);
            let wall = t0.elapsed().as_nanos() as f64;
            let nv = (engine.trace().counters().newview_calls - before.newview_calls) as f64;
            mk_ns += (wall - nv * newview_ns_per_pattern * patterns).max(0.0);
            mk_calls += 1;
            if mk_ns as u64 >= min_ns {
                break 'outer;
            }
        }
    }
    let makenewz_ns_per_pattern = mk_ns / (mk_calls as f64 * patterns);

    Ok(Calibration {
        newview_ns_per_pattern,
        evaluate_ns_per_pattern,
        makenewz_ns_per_pattern,
        traversal_ns,
        newview_patterns_per_s,
    })
}

/// Modelled kernel time of a job mix: exact counts times calibrated cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelledProfile {
    pub newview_ns: f64,
    pub makenewz_ns: f64,
    pub evaluate_ns: f64,
    /// Measured wall time of the same jobs.
    pub measured_ns: f64,
}

impl ModelledProfile {
    /// Add one job's counts (`patterns` per kernel call) and measured time.
    pub fn add(&mut self, cal: &Calibration, c: &TraceCounters, patterns: usize, ns: u64) {
        let p = patterns as f64;
        self.newview_ns += c.newview_calls as f64 * p * cal.newview_ns_per_pattern;
        self.makenewz_ns += c.makenewz_calls as f64 * p * cal.makenewz_ns_per_pattern;
        self.evaluate_ns += c.evaluate_calls as f64 * p * cal.evaluate_ns_per_pattern;
        self.measured_ns += ns as f64;
    }

    /// `(newview, makenewz, evaluate, residue)` as shares of measured time.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        if self.measured_ns <= 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let m = self.measured_ns;
        let (nv, mk, ev) = (self.newview_ns / m, self.makenewz_ns / m, self.evaluate_ns / m);
        (nv, mk, ev, 1.0 - nv - mk - ev)
    }

    /// Put the four shares into the report and print them beside the
    /// paper's §5.2 figures.
    pub fn report(&self, report: &mut crate::Report) {
        let (nv, mk, ev, residue) = self.fractions();
        report.put("profile.newview_frac", nv, "frac");
        report.put("profile.makenewz_frac", mk, "frac");
        report.put("profile.evaluate_frac", ev, "frac");
        report.put("profile.residue_frac", residue, "frac");
        eprintln!("host §5.2 profile (modelled: calibrated ns/pattern x exact kernel counts)");
        eprintln!("  kernel      host %   paper %");
        eprintln!("  newview   {:>7.2}    76.80", 100.0 * nv);
        eprintln!("  makenewz  {:>7.2}    19.16", 100.0 * mk);
        eprintln!("  evaluate  {:>7.2}     2.37", 100.0 * ev);
        eprintln!(
            "  residue   {:>7.2}     1.67   (measured {:.1} ms)",
            100.0 * residue,
            self.measured_ns / 1e6
        );
    }
}

/// One timed `optimize_all_branches` pass and the newviews it ran.
#[derive(Debug, Clone, Copy)]
pub struct BranchPass {
    pub ns: u64,
    pub newviews: u64,
    pub branches: usize,
    pub lnl: f64,
}

impl BranchPass {
    pub fn newviews_per_branch(&self) -> f64 {
        self.newviews as f64 / self.branches.max(1) as f64
    }
}

/// Time one `optimize_all_branches(tree, 1)` on `engine` (partials as the
/// caller left them).
pub fn time_branch_pass(engine: &mut LikelihoodEngine<'_>, tree: &mut Tree) -> BranchPass {
    let branches = tree.edges().len();
    let before = engine.trace().counters().newview_calls;
    let t0 = Instant::now();
    let lnl = engine.optimize_all_branches(tree, 1);
    let ns = t0.elapsed().as_nanos() as u64;
    BranchPass { ns, newviews: engine.trace().counters().newview_calls - before, branches, lnl }
}

/// An isolated branch pass on a fresh engine whose partials are valid.
pub fn branch_pass(
    aln: &PatternAlignment,
    tree: &Tree,
    model: SubstModel,
    alpha: f64,
) -> Result<BranchPass, String> {
    let rates = GammaRates::new(alpha, 4).map_err(|e| format!("rates: {e}"))?;
    let mut engine = LikelihoodEngine::new(aln, model, rates, LikelihoodConfig::optimized());
    let mut tree = tree.clone();
    engine.log_likelihood(&tree);
    Ok(time_branch_pass(&mut engine, &mut tree))
}
