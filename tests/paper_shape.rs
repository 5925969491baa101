//! The acceptance suite: every headline claim of the paper, asserted
//! end-to-end against a freshly captured (mid-size) workload. The full-size
//! ALN42 numbers live in EXPERIMENTS.md and the `paper` binary; this suite
//! guards the *shape* in CI time.

use cellsim::cost::CostModel;
use raxml_cell::config::OptConfig;
use raxml_cell::experiment::{
    capture_workload, run_figure3, run_ladder, run_multilevel_study, run_table8, Workload,
    WorkloadSpec,
};
use raxml_cell::offload::price_trace;
use raxml_cell::sched::DesParams;
use std::sync::OnceLock;

fn workload() -> &'static Workload {
    static CACHE: OnceLock<Workload> = OnceLock::new();
    CACHE.get_or_init(|| capture_workload(&WorkloadSpec::test_mid()).expect("capture"))
}

fn model() -> CostModel {
    CostModel::paper_calibrated()
}

/// Single-bootstrap seconds at every ladder level.
fn ladder_column() -> Vec<f64> {
    run_ladder(workload(), &model())
        .expect("ladder")
        .iter()
        .map(|l| l.rows[0].simulated_seconds)
        .collect()
}

/// Paper: "merely offloading a function causes performance degradation"
/// (Table 1b ≈ 2.9× the PPE time).
#[test]
fn claim_naive_offload_hurts() {
    let col = ladder_column();
    let slowdown = col[1] / col[0];
    assert!((1.8..4.5).contains(&slowdown), "naive offload slowdown {slowdown:.2} (paper: 2.88×)");
}

/// Paper §5.2.2: the exp replacement is the single largest optimization
/// (37–41% of execution time).
#[test]
fn claim_exp_replacement_dominates() {
    let col = ladder_column();
    let exp_gain = 1.0 - col[2] / col[1];
    assert!((0.25..0.55).contains(&exp_gain), "exp gain {exp_gain:.2} (paper: 0.37–0.41)");
    // And it is the biggest single step of the ladder.
    for i in 3..7 {
        let step = 1.0 - col[i] / col[i - 1];
        assert!(step < exp_gain, "step {i} ({step:.3}) must not beat exp");
    }
}

/// Paper (II): "vectorization of control statements [beats] vectorization
/// of floating point code" — the surprising finding.
#[test]
fn claim_control_flow_beats_fp_vectorization() {
    let col = ladder_column();
    let cond_gain = 1.0 - col[3] / col[2];
    let vec_gain = 1.0 - col[5] / col[4];
    assert!(
        cond_gain > vec_gain,
        "conditional cast ({cond_gain:.3}) must beat FP vectorization ({vec_gain:.3})"
    );
}

/// Paper §5.2.7: the fully offloaded code beats the PPE-only run (25%).
#[test]
fn claim_final_config_beats_ppe() {
    let col = ladder_column();
    assert!(col[7] < col[0], "fully offloaded {:.2}s must beat PPE {:.2}s", col[7], col[0]);
}

/// Paper (conclusion): >5× from the naive port to MGPS.
#[test]
fn claim_overall_speedup_exceeds_four() {
    let col = ladder_column();
    let t8 = run_table8(workload(), &model(), &DesParams::default()).expect("table8");
    let mgps_1 = t8[0].simulated_seconds;
    let speedup = col[1] / mgps_1;
    assert!(speedup > 4.0, "naive → MGPS speedup {speedup:.2} (paper: 106.37/17.6 ≈ 6.0)");
}

/// Paper Table 8: MGPS throughput is batch-linear in full batches of 8.
#[test]
fn claim_mgps_scales_in_batches() {
    let t8 = run_table8(workload(), &model(), &DesParams::default()).expect("table8");
    let r8 = t8[1].simulated_seconds;
    let r16 = t8[2].simulated_seconds;
    let r32 = t8[3].simulated_seconds;
    assert!((r16 / r8 - 2.0).abs() < 0.15, "16 vs 8: {}", r16 / r8);
    assert!((r32 / r8 - 4.0).abs() < 0.25, "32 vs 8: {}", r32 / r8);
}

/// Paper §6 / Figure 3: Cell < Power5 < Xeon, Xeon > 2× Cell.
#[test]
fn claim_platform_ranking() {
    let fig = run_figure3(workload(), &model(), &DesParams::default()).expect("figure3");
    let last = fig.bootstraps.len() - 1;
    assert!(fig.cell[last] < fig.power5[last]);
    assert!(fig.power5[last] < fig.xeon[last]);
    assert!(fig.xeon[last] / fig.cell[last] > 2.0);
}

/// Paper (III): multi-level parallelization is "both feasible and
/// necessary" — neither pure model wins everywhere.
#[test]
fn claim_no_single_model_wins_everywhere() {
    let rows = run_multilevel_study(workload(), &model(), &DesParams::default()).expect("study");
    let llp_wins = rows.iter().filter(|r| r.llp_seconds < r.edtlp_seconds).count();
    let edtlp_wins = rows.iter().filter(|r| r.edtlp_seconds < r.llp_seconds).count();
    assert!(llp_wins > 0, "LLP must win somewhere (small bootstrap counts)");
    assert!(edtlp_wins > 0, "EDTLP must win somewhere (large bootstrap counts)");
}

/// The §5.2.6 scaling claim: direct memory communication matters *more*
/// with more parallelism ("its performance impact grows as the code uses
/// more SPEs" — here: more workers ⇒ more total comm eliminated per second).
#[test]
fn claim_comm_optimization_scales_with_parallelism() {
    let m = model();
    let before = price_trace(&workload().events, &m, &{
        let mut c = OptConfig::fully_optimized();
        c.stage = raxml_cell::config::OffloadStage::NewviewOnly;
        c.direct_comm = false;
        c
    });
    let after = price_trace(&workload().events, &m, &{
        let mut c = OptConfig::fully_optimized();
        c.stage = raxml_cell::config::OffloadStage::NewviewOnly;
        c
    });
    // Absolute seconds saved per wall-clock second of execution grows with
    // the number of concurrently executing workers (the same per-bootstrap
    // saving compresses into a shorter makespan).
    let saved = m.seconds(before.sequential_cycles() - after.sequential_cycles());
    assert!(saved > 0.0, "direct comm must save time");
}
