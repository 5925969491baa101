//! Regenerates the paper's tables, Figure 3 and the design studies, all
//! priced from one captured workload under the paper-calibrated cost model:
//!
//! ```text
//! cargo run --release -p bench --bin paper -- <target> [--quick]
//! ```
//!
//! `--quick` prices the reduced `test_mid` capture instead of the
//! 42_SC-equivalent one (about a minute). Targets:
//!
//! * `table1` … `table8` — Tables 1a/1b–8 of the paper;
//! * `figure3` — Cell vs Power5 vs Xeon over the bootstrap count;
//! * `profile_breakdown` — the §5.2 gprof-style kernel breakdown;
//! * `all_tables` — every table, the profile and the figure in one run;
//! * `ablation` — each SPE optimization alone, and each one removed;
//! * `multilevel_study` — the EDTLP vs LLP crossover behind MGPS
//!   (Contribution III);
//! * `scaling_study` — MGPS throughput from 1 to 16 SPEs;
//! * `overlay_study` — the §5.2.4 code-overlay counterfactual.
//!
//! An unknown target or flag prints the valid targets and exits 2 before
//! any workload is captured.

use bench::or_exit;
use cellsim::cost::CostModel;
use raxml_cell::error::ExperimentError;
use raxml_cell::experiment::{
    run_ablation, run_multilevel_study, run_overlay_study, run_scaling_study, Workload,
};
use raxml_cell::sched::DesParams;
use std::fmt;

/// Every target, by the name its former standalone binary had.
const TARGETS: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure3",
    "profile_breakdown",
    "all_tables",
    "ablation",
    "multilevel_study",
    "scaling_study",
    "overlay_study",
];

/// A command line the `paper` binary cannot run.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    MissingTarget,
    UnknownTarget(String),
    UnknownFlag(String),
    ExtraTarget(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingTarget => write!(f, "no target given")?,
            ArgError::UnknownTarget(t) => write!(f, "unknown target {t:?}")?,
            ArgError::UnknownFlag(t) => write!(f, "unknown flag {t:?} (only --quick is accepted)")?,
            ArgError::ExtraTarget(t) => write!(f, "one target per run, got a second: {t:?}")?,
        }
        write!(f, "\nusage: paper <target> [--quick]\nvalid targets: {}", TARGETS.join(", "))
    }
}

/// Parse `<target> [--quick]` (flag in any position) into the target and
/// the quick switch. Pure: nothing is captured or run.
fn parse_args(args: &[String]) -> Result<(&'static str, bool), ArgError> {
    let mut target = None;
    let mut quick = false;
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with('-') {
            return Err(ArgError::UnknownFlag(arg.clone()));
        } else if target.is_some() {
            return Err(ArgError::ExtraTarget(arg.clone()));
        } else {
            let known = TARGETS.iter().find(|t| **t == arg);
            target = Some(*known.ok_or_else(|| ArgError::UnknownTarget(arg.clone()))?);
        }
    }
    Ok((target.ok_or(ArgError::MissingTarget)?, quick))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, quick) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (w, label) = or_exit(bench::capture(quick));
    println!("workload: {label}");
    or_exit(run(target, &w));
}

/// Print one target's report for the captured workload.
fn run(target: &str, w: &Workload) -> Result<(), ExperimentError> {
    let model = CostModel::paper_calibrated();
    match target {
        "table1" => {
            println!("{}", bench::ladder_level_text(w, 0)?);
            println!("{}", bench::ladder_level_text(w, 1)?);
        }
        "table2" => println!("{}", bench::ladder_level_text(w, 2)?),
        "table3" => println!("{}", bench::ladder_level_text(w, 3)?),
        "table4" => println!("{}", bench::ladder_level_text(w, 4)?),
        "table5" => println!("{}", bench::ladder_level_text(w, 5)?),
        "table6" => println!("{}", bench::ladder_level_text(w, 6)?),
        "table7" => println!("{}", bench::ladder_level_text(w, 7)?),
        "table8" => {
            println!("{}", bench::table8_text(w)?);
            for n in [1usize, 8, 32] {
                println!("{}", bench::mgps_utilization_text(w, n));
            }
        }
        "figure3" => println!("{}", bench::figure3_text_for(w)?),
        "profile_breakdown" => println!("{}", bench::profile_text(w, &model)?),
        "all_tables" => println!("{}", bench::run_all_tables(w)?),
        "ablation" => ablation(w, &model)?,
        "multilevel_study" => multilevel_study(w, &model)?,
        "scaling_study" => scaling_study(w, &model)?,
        "overlay_study" => overlay_study(w, &model)?,
        other => unreachable!("parse_args admitted unknown target {other:?}"),
    }
    Ok(())
}

fn ablation(w: &Workload, model: &CostModel) -> Result<(), ExperimentError> {
    let rows = run_ablation(w, model)?;
    println!("\nablation of the SPE optimizations (1 worker × 1 bootstrap):\n");
    println!(
        "  {:<34} {:>10} {:>10} | {:>12} {:>10}",
        "optimization", "alone [s]", "gain", "without [s]", "loss"
    );
    for r in &rows {
        println!(
            "  {:<34} {:>10.2} {:>9.1}% | {:>12.2} {:>9.1}%",
            r.name,
            r.alone_seconds,
            r.alone_gain * 100.0,
            r.without_seconds,
            r.without_loss * 100.0
        );
    }
    println!("\n'gain' = improvement over the naive offload when applied in isolation;");
    println!("'loss' = slowdown when removed from the fully optimized configuration.");
    println!("Differences between columns are interaction effects (e.g. double");
    println!("buffering matters more after the compute it hides behind shrinks).");
    Ok(())
}

/// Contribution III: "three layers of parallelism \[win\] for workloads with
/// a low degree (≤4) of task-level parallelism; two layers for large and
/// realistic workloads".
fn multilevel_study(w: &Workload, model: &CostModel) -> Result<(), ExperimentError> {
    let rows = run_multilevel_study(w, model, &DesParams::default())?;
    println!("\nEDTLP (2 layers) vs LLP (3 layers) vs dynamic MGPS [seconds]:\n");
    println!("  {:>10} {:>10} {:>10} {:>10}   winner", "bootstraps", "EDTLP", "LLP", "MGPS");
    for r in &rows {
        let winner = if r.llp_seconds < r.edtlp_seconds { "LLP" } else { "EDTLP" };
        println!(
            "  {:>10} {:>10.2} {:>10.2} {:>10.2}   {winner}",
            r.n_bootstraps, r.edtlp_seconds, r.llp_seconds, r.mgps_seconds
        );
    }
    println!("\nThe crossover reproduces the paper's Contribution III: LLP wins at low");
    println!("task-level parallelism, EDTLP wins once ≥8 independent bootstraps exist,");
    println!("and MGPS tracks whichever is better — 'no single model performs best in");
    println!("all cases' (§5.3).");
    Ok(())
}

/// Projection up to the dual-Cell blade's 16 SPEs and 4 PPE threads, which
/// the paper's hardware offered but its software never used.
fn scaling_study(w: &Workload, model: &CostModel) -> Result<(), ExperimentError> {
    let rows = run_scaling_study(w, model, 32)?;
    println!("\nMGPS scaling at 32 bootstraps:\n");
    println!(
        "  {:>6} {:>12} {:>14} {:>10} {:>10}",
        "SPEs", "PPE threads", "makespan [s]", "speedup", "SPE util"
    );
    for r in &rows {
        println!(
            "  {:>6} {:>12} {:>14.2} {:>9.2}× {:>9.1}%",
            r.n_spes,
            r.ppe_threads,
            r.makespan_seconds,
            r.speedup,
            r.spe_utilization * 100.0
        );
    }
    println!("\nThe last two rows compare a 16-SPE machine behind the Cell's 2 PPE");
    println!("threads against one with 4 (a dual-Cell blade): where they differ, the");
    println!("PPE is the scaling bottleneck the paper's EDTLP design works around.");
    Ok(())
}

/// What code overlays would have cost had the three kernels not fit the
/// SPE local store (§5.2.4).
fn overlay_study(w: &Workload, model: &CostModel) -> Result<(), ExperimentError> {
    let rows = run_overlay_study(w, model)?;
    println!("\ncode-overlay what-if (one bootstrap, fully optimized config):\n");
    println!(
        "  {:>10} {:>12} {:>12} {:>14} {:>14}",
        "budget", "faults", "fault rate", "overhead [s]", "bootstrap [s]"
    );
    for r in &rows {
        println!(
            "  {:>7} KB {:>12} {:>11.1}% {:>14.3} {:>14.2}",
            r.budget / 1024,
            r.faults,
            r.fault_rate * 100.0,
            r.overhead_seconds,
            r.bootstrap_seconds
        );
    }
    println!("\nThe paper kept the kernel footprint at 117 KB so the whole module set");
    println!("stays resident (3 cold faults). Below that, calls alternate between");
    println!("newview and makenewz/evaluate and the LRU set thrashes.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(&'static str, bool), ArgError> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_former_binary_name_is_a_target() {
        for name in TARGETS {
            assert_eq!(parse(&[name]), Ok((name, false)));
            assert_eq!(parse(&[name, "--quick"]), Ok((name, true)));
            assert_eq!(parse(&["--quick", name]), Ok((name, true)));
        }
    }

    #[test]
    fn bad_command_lines_are_typed_errors_listing_the_targets() {
        let cases = [
            (vec!["tabel1"], ArgError::UnknownTarget("tabel1".into())),
            (vec!["table1", "--quik"], ArgError::UnknownFlag("--quik".into())),
            (vec!["table1", "table2"], ArgError::ExtraTarget("table2".into())),
            (vec!["--quick"], ArgError::MissingTarget),
            (vec![], ArgError::MissingTarget),
        ];
        for (args, expected) in cases {
            let err = parse(&args).unwrap_err();
            assert_eq!(err, expected);
            let message = err.to_string();
            assert!(TARGETS.iter().all(|t| message.contains(t)), "{message}");
        }
    }
}
