//! Shared fixtures and report printers for the benchmark suite, the
//! `paper` table/figure binary and the study binaries.
//!
//! Every helper that runs an experiment driver propagates its
//! [`ExperimentError`]; the binaries funnel through [`or_exit`] so a bad
//! workload prints a diagnosis and exits nonzero instead of unwinding.

pub mod artifact;
pub mod cli;
pub mod gate;
pub mod metrics_run;
pub mod serve_load;

use cellsim::cost::CostModel;
use raxml_cell::error::ExperimentError;
use raxml_cell::experiment::{
    capture_workload, profile_breakdown, run_figure3, run_ladder, run_table8, Figure3, Workload,
    WorkloadSpec,
};
use raxml_cell::report::{format_comparison, shape_deviation, PAPER_PROFILE};
use raxml_cell::sched::DesParams;

/// Unwrap a driver result in a binary: print the error and exit nonzero.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Capture the workload every paper table is priced from, with its label:
/// the `42_SC`-equivalent (a full traced inference on the 42 × 1167
/// synthetic alignment, about a minute — call once and reuse) or, when
/// `quick`, the reduced `test_mid` capture.
pub fn capture(quick: bool) -> Result<(Workload, &'static str), ExperimentError> {
    if quick {
        Ok((capture_workload(&WorkloadSpec::test_mid())?, "test_mid (quick)"))
    } else {
        eprintln!("capturing the 42_SC-equivalent workload (a real traced inference)…");
        Ok((capture_workload(&WorkloadSpec::aln42())?, "42_SC-equivalent (ALN42)"))
    }
}

/// Regenerate and print every table and the figure. Returns the full text.
pub fn run_all_tables(workload: &Workload) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let mut out = String::new();

    out.push_str(&format!(
        "workload: {} kernel invocations, {} patterns, final lnL {:.2}\n",
        workload.events.len(),
        workload.n_patterns,
        workload.log_likelihood
    ));
    out.push_str(&profile_text(workload, &model)?);
    out.push('\n');

    for level in run_ladder(workload, &model)? {
        out.push_str(&format_comparison(level.label, &level.rows));
        out.push_str(&format!(
            "  [workload-scaling shape deviation vs paper: {:.1}%]\n\n",
            shape_deviation(&level.rows) * 100.0
        ));
    }

    let t8 = run_table8(workload, &model, &params)?;
    out.push_str(&format_comparison("MGPS dynamic scheduler (Table 8)", &t8));
    out.push_str(&format!(
        "  [shape deviation vs paper: {:.1}%]\n\n",
        shape_deviation(&t8) * 100.0
    ));

    out.push_str(&figure3_text(&run_figure3(workload, &model, &params)?));
    Ok(out)
}

/// §5.2-style profile report text.
pub fn profile_text(workload: &Workload, model: &CostModel) -> Result<String, ExperimentError> {
    let p = profile_breakdown(workload, model)?;
    let mut out = String::from("profile (PPE pricing, paper §5.2 reference in parens):\n");
    let names = ["newview", "makenewz", "evaluate"];
    for (i, name) in names.iter().enumerate() {
        out.push_str(&format!(
            "  {:<9} {:>6.2}%  (paper: {:.2}%)\n",
            name,
            p.fractions[i] * 100.0,
            PAPER_PROFILE[i].1 * 100.0
        ));
    }
    out.push_str(&format!(
        "  other     {:>6.2}%  (paper: 1.23%)\n  nested newview fraction: {:.1}% | mean newview FLOPs: {:.0} (paper: ~25,554 ops/invocation)\n",
        p.fractions[3] * 100.0,
        p.nested_fraction * 100.0,
        p.newview_mean_flops
    ));
    Ok(out)
}

/// Figure 3 as an aligned text series.
pub fn figure3_text(fig: &Figure3) -> String {
    let mut out = String::from(
        "Figure 3 — execution time [s] vs number of bootstraps\n  bootstraps      Cell(MGPS)      IBM Power5      Intel Xeon\n",
    );
    for (i, &n) in fig.bootstraps.iter().enumerate() {
        out.push_str(&format!(
            "  {:>10} {:>15.2} {:>15.2} {:>15.2}\n",
            n, fig.cell[i], fig.power5[i], fig.xeon[i]
        ));
    }
    out.push_str(&format!(
        "  ranking at {} bootstraps: Cell < Power5 < Xeon — Power5/Cell = {:.2} (paper: ~1.10), Xeon/Cell = {:.2} (paper: >2)\n",
        fig.bootstraps[fig.bootstraps.len() - 1],
        fig.power5.last().unwrap() / fig.cell.last().unwrap(),
        fig.xeon.last().unwrap() / fig.cell.last().unwrap(),
    ));
    out
}

/// Text for one ladder level (0 = Table 1a … 7 = Table 7).
pub fn ladder_level_text(workload: &Workload, level: usize) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let ladder = run_ladder(workload, &model)?;
    let l = &ladder[level];
    let mut out = format_comparison(l.label, &l.rows);
    out.push_str(&format!(
        "  [workload-scaling shape deviation vs paper: {:.1}%]\n",
        shape_deviation(&l.rows) * 100.0
    ));
    Ok(out)
}

/// Text for Table 8 (MGPS).
pub fn table8_text(workload: &Workload) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let t8 = run_table8(workload, &model, &DesParams::default())?;
    let mut out = format_comparison("MGPS dynamic scheduler (Table 8)", &t8);
    out.push_str(&format!("  [shape deviation vs paper: {:.1}%]\n", shape_deviation(&t8) * 100.0));
    Ok(out)
}

/// Utilization report for an MGPS run at a given bootstrap count (the
/// simulator's answer to the paper's decrementer measurements).
pub fn mgps_utilization_text(workload: &Workload, n_bootstraps: usize) -> String {
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use raxml_cell::config::OptConfig;
    use raxml_cell::offload::price_trace;
    use raxml_cell::sched::mgps_makespan_traced;
    let model = CostModel::paper_calibrated();
    let priced = price_trace(&workload.events, &model, &OptConfig::fully_optimized());
    let mut tlog = TraceLog::enabled();
    let out = mgps_makespan_traced(
        &priced,
        n_bootstraps,
        &model,
        &DesParams::default(),
        &FaultPlan::none(),
        &mut tlog,
    );
    // Component composition comes from the trace's counter channel: the
    // scheduler annotates every run with the per-component cycle totals it
    // actually dispatched, so the report and any exported trace agree by
    // construction. One bootstrap's worth, so fractions are exact.
    let c = |name: &str| tlog.last_counter(name).unwrap_or(0.0);
    let loops = c("trace_loop_cycles");
    let exp = c("trace_exp_cycles");
    let cond = c("trace_cond_cycles");
    let dma = c("trace_dma_stall");
    let comm = c("trace_comm");
    let spe_total = loops + exp + cond + dma + comm;
    format!(
        "MGPS utilization at {n_bootstraps} bootstraps:\n{}  SPE work composition: loops {:.1}% | exp {:.1}% | conditionals {:.1}% | DMA {:.1}% | comm {:.1}%\n",
        out.stats.report(model.clock_hz),
        100.0 * loops / spe_total,
        100.0 * exp / spe_total,
        100.0 * cond / spe_total,
        100.0 * dma / spe_total,
        100.0 * comm / spe_total,
    )
}

/// One scheduler's traced simulation of a single SPR round: the DES's own
/// accounting plus the trace-derived view and both exporter payloads.
pub struct RoundProfile {
    /// Scheduler label ("EDTLP", "LLP/2", "MGPS").
    pub label: &'static str,
    /// Full DES outcome (makespan, `SimStats`, fault report).
    pub outcome: raxml_cell::sched::SimOutcome,
    /// Totals re-derived from the emitted trace events alone.
    pub summary: cellsim::tracelog::TraceSummary,
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub chrome_json: String,
    /// JSONL metrics snapshot (one object per line).
    pub metrics_jsonl: String,
}

/// Price one SPR round's kernel events (falling back to the whole trace when
/// the workload recorded no round marks) and simulate it under EDTLP, LLP/2
/// and MGPS with event tracing enabled.
pub fn profile_spr_round(workload: &Workload, n_jobs: usize) -> Vec<RoundProfile> {
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::offload::price_trace;
    use raxml_cell::sched::schedule_makespan_traced;

    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let events = match workload.rounds.first() {
        Some(mark) => workload.round_events(mark),
        None => &workload.events[..],
    };
    let priced = price_trace(events, &model, &OptConfig::fully_optimized());
    let schedulers: [(Scheduler, &'static str); 3] = [
        (Scheduler::Edtlp, "EDTLP"),
        (Scheduler::Llp { workers: 2 }, "LLP/2"),
        (Scheduler::Mgps, "MGPS"),
    ];
    schedulers
        .iter()
        .map(|&(sched, label)| {
            let mut tlog = TraceLog::enabled();
            let outcome = schedule_makespan_traced(
                sched,
                &priced,
                n_jobs,
                &model,
                &params,
                &FaultPlan::none(),
                &mut tlog,
            );
            tlog.round_span(0, 0, outcome.makespan);
            let summary = tlog.summary(params.n_spes);
            let chrome_json = tlog.to_chrome_trace(model.clock_hz);
            let metrics_jsonl = tlog.to_metrics_jsonl(model.clock_hz, params.n_spes);
            RoundProfile { label, outcome, summary, chrome_json, metrics_jsonl }
        })
        .collect()
}

/// Cross-check one profile: the trace-derived per-SPE utilization must match
/// the DES's `SimStats` accounting exactly, and both exporter payloads must
/// be well-formed. Returns a description of the first mismatch.
pub fn check_profile(p: &RoundProfile) -> Result<(), String> {
    let stats = &p.outcome.stats;
    if p.summary.end != p.outcome.makespan {
        return Err(format!(
            "{}: trace end {} != makespan {}",
            p.label, p.summary.end, p.outcome.makespan
        ));
    }
    if p.summary.ppe_busy != stats.ppe_busy {
        return Err(format!(
            "{}: trace PPE busy {} != stats {}",
            p.label, p.summary.ppe_busy, stats.ppe_busy
        ));
    }
    for (s, spe) in stats.spes.iter().enumerate() {
        if p.summary.spe_busy[s] != spe.busy() {
            return Err(format!(
                "{}: SPE {s} trace busy {} != stats {}",
                p.label,
                p.summary.spe_busy[s],
                spe.busy()
            ));
        }
        if p.summary.spe_stalled[s] != spe.stalled() {
            return Err(format!(
                "{}: SPE {s} trace stalled {} != stats {}",
                p.label,
                p.summary.spe_stalled[s],
                spe.stalled()
            ));
        }
        let trace_util = p.summary.utilization(s);
        let stats_util = spe.busy() as f64 / p.outcome.makespan.max(1) as f64;
        if (trace_util - stats_util).abs() > 1e-12 {
            return Err(format!(
                "{}: SPE {s} trace utilization {trace_util} != stats {stats_util}",
                p.label
            ));
        }
    }
    obs::json::parse(&p.chrome_json)
        .map_err(|e| format!("{}: chrome trace invalid: {e}", p.label))?;
    obs::json::validate_jsonl(&p.metrics_jsonl)
        .map_err(|e| format!("{}: metrics jsonl invalid: {e}", p.label))?;
    Ok(())
}

/// Human-readable per-scheduler timeline report for a profiled round: the
/// §5.2-style utilization breakdown regenerated from the trace itself.
pub fn profile_report_text(profiles: &[RoundProfile], clock_hz: f64) -> String {
    let mut out = String::from("per-scheduler timeline (trace-derived, one SPR round):\n");
    for p in profiles {
        out.push_str(&format!(
            "  {:<6} makespan {:>12} cycles ({:.3} ms) | mean SPE utilization {:>5.1}% | mean DMA stall {:>4.1}% | PPE busy {:>5.1}% | {} events\n",
            p.label,
            p.outcome.makespan,
            p.outcome.makespan as f64 / clock_hz * 1e3,
            100.0 * p.summary.mean_utilization(),
            100.0 * p.summary.mean_stall_fraction(),
            100.0 * p.summary.ppe_busy as f64 / p.outcome.makespan.max(1) as f64,
            p.summary.spe_bursts.iter().sum::<u64>(),
        ));
    }
    out
}

/// Text for Figure 3.
pub fn figure3_text_for(workload: &Workload) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    Ok(figure3_text(&run_figure3(workload, &model, &DesParams::default())?))
}

/// Sweep uniform fault rates and a dead-SPE scenario across the DES
/// schedulers, returning the structured rows: `(rate_sweep, spe_deaths)`.
/// [`fault_study_text`] renders these as tables; the `--format json` path
/// of the `fault_study` binary flattens them into an envelope.
pub fn fault_study_rows(
    workload: &Workload,
    n_jobs: usize,
) -> (Vec<raxml_cell::report::FaultRow>, Vec<raxml_cell::report::FaultRow>) {
    use cellsim::fault::FaultPlan;
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::offload::price_trace;
    use raxml_cell::report::FaultRow;
    use raxml_cell::sched::{schedule_makespan, schedule_makespan_with_faults};

    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let priced = price_trace(&workload.events, &model, &OptConfig::fully_optimized());
    let schedulers: [(Scheduler, &str); 3] = [
        (Scheduler::Edtlp, "EDTLP"),
        (Scheduler::Llp { workers: 2 }, "LLP/2"),
        (Scheduler::Mgps, "MGPS"),
    ];

    let mut sweep = Vec::new();
    for &(sched, label) in &schedulers {
        let clean = schedule_makespan(sched, &priced, n_jobs, &model, &params);
        for rate in [0.01, 0.05, 0.2] {
            let o = schedule_makespan_with_faults(
                sched,
                &priced,
                n_jobs,
                &model,
                &params,
                &FaultPlan::uniform(29, rate),
            );
            sweep.push(FaultRow {
                scheduler: label.to_string(),
                fault_rate: rate,
                makespan: o.makespan,
                clean_makespan: clean,
                report: o.faults,
            });
        }
    }

    let mut deaths = Vec::new();
    for &(sched, label) in &schedulers {
        let clean = schedule_makespan(sched, &priced, n_jobs, &model, &params);
        let plan = FaultPlan::none().with_death(0, clean / 4).with_death(3, clean / 2);
        let o = schedule_makespan_with_faults(sched, &priced, n_jobs, &model, &params, &plan);
        deaths.push(FaultRow {
            scheduler: label.to_string(),
            fault_rate: 0.0,
            makespan: o.makespan,
            clean_makespan: clean,
            report: o.faults,
        });
    }
    (sweep, deaths)
}

/// Sweep uniform fault rates and a dead-SPE scenario across the DES
/// schedulers, reporting makespan degradation and what the recovery
/// machinery (retries, re-dispatch, blacklisting, PPE degradation) did.
pub fn fault_study_text(workload: &Workload, n_jobs: usize) -> String {
    use raxml_cell::report::format_fault_table;

    let (sweep, deaths) = fault_study_rows(workload, n_jobs);
    let mut out = String::new();
    out.push_str(&format_fault_table(
        &format!("Fault-rate sweep ({n_jobs} bootstraps, uniform plan, seed 29)"),
        &sweep,
    ));
    out.push('\n');
    out.push_str(&format_fault_table(
        "Permanent SPE deaths (SPE 0 at 25% of clean makespan, SPE 3 at 50%)",
        &deaths,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tables_render() {
        let (w, _) = capture(true).expect("capture");
        let text = run_all_tables(&w).expect("tables");
        assert!(text.contains("Table 1a"));
        assert!(text.contains("Table 8"));
        assert!(text.contains("Figure 3"));
        assert!(text.contains("newview"));
    }

    #[test]
    fn profiled_round_trace_matches_stats_for_every_scheduler() {
        let (w, _) = capture(true).expect("capture");
        let profiles = profile_spr_round(&w, 8);
        assert_eq!(profiles.len(), 3, "one profile per scheduler");
        for p in &profiles {
            check_profile(p).expect("trace-derived utilization must equal SimStats");
        }
        let text = profile_report_text(&profiles, CostModel::paper_calibrated().clock_hz);
        assert!(text.contains("EDTLP") && text.contains("LLP/2") && text.contains("MGPS"));
    }

    #[test]
    fn mgps_utilization_composition_comes_from_the_trace() {
        let (w, _) = capture(true).expect("capture");
        let text = mgps_utilization_text(&w, 8);
        assert!(text.contains("SPE work composition"));
        assert!(text.contains("loops"));
        // Fractions must be finite percentages that roughly sum to 100.
        let pct: Vec<f64> = text
            .split('%')
            .filter_map(|chunk| chunk.rsplit(' ').next().and_then(|t| t.parse::<f64>().ok()))
            .collect();
        let composition: f64 = pct.iter().rev().take(5).sum();
        assert!((composition - 100.0).abs() < 0.5, "composition sums to {composition}");
    }

    #[test]
    fn empty_trace_surfaces_as_an_error_not_a_panic() {
        let empty = Workload {
            events: Vec::new(),
            counters: Default::default(),
            rounds: Vec::new(),
            log_likelihood: -1.0,
            n_patterns: 1,
        };
        assert!(run_all_tables(&empty).is_err());
        assert!(table8_text(&empty).is_err());
        assert!(figure3_text_for(&empty).is_err());
    }
}
