//! End-to-end experiment drivers: capture a real inference workload, then
//! regenerate every table and figure of the paper from it.
//!
//! The pipeline is exactly the substitution DESIGN.md documents: a real ML
//! inference runs on a synthetic `42_SC`-equivalent alignment with full
//! kernel tracing; the trace is priced by the calibrated Cell cost model
//! under every rung of the optimization ladder; the schedulers distribute
//! the priced invocations over the simulated machine.

use crate::config::OptConfig;
use crate::error::{ExperimentError, Result};
use crate::offload::price_trace;
use crate::platform::PlatformModel;
use crate::report::{Comparison, FIGURE3_BOOTSTRAPS, PAPER_LADDER, PAPER_TABLE_8, TABLE_ROWS};
use crate::sched::{mgps_makespan, sync_workers_makespan, DesParams};
use cellsim::cost::CostModel;
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use phylo::trace::{KernelEvent, KernelOp, TraceCounters};

/// What workload to capture.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub n_taxa: usize,
    pub n_sites: usize,
    pub seed: u64,
    pub search: SearchConfig,
}

impl WorkloadSpec {
    /// The paper's workload: the `42_SC`-equivalent dataset (42 taxa ×
    /// 1167 sites, ~250 patterns) under a complete rapid-hill-climbing
    /// inference.
    pub fn aln42() -> WorkloadSpec {
        let mut search = SearchConfig::standard();
        search.spr_radius = 8;
        search.max_spr_rounds = 6;
        search.branch_smoothings = 6;
        WorkloadSpec { n_taxa: 42, n_sites: 1167, seed: 0x42_5C, search }
    }

    /// A small workload for tests (same structure, much less work).
    ///
    /// NOTE: with only ~100 site patterns the per-offload marshalling
    /// dominates the kernels, so offloading does *not* pay off on this
    /// workload — a real granularity effect. Shape assertions that depend
    /// on 42_SC-like kernel sizes should use [`WorkloadSpec::test_mid`].
    pub fn small() -> WorkloadSpec {
        let mut search = SearchConfig::fast();
        search.spr_radius = 3;
        search.max_spr_rounds = 1;
        WorkloadSpec { n_taxa: 10, n_sites: 300, seed: 7, search }
    }

    /// A mid-size test workload whose per-invocation pattern count is in
    /// the 42_SC range (~250 patterns), so offload granularity effects
    /// match the paper's regime while staying fast enough for unit tests.
    pub fn test_mid() -> WorkloadSpec {
        let mut search = SearchConfig::fast();
        search.spr_radius = 2;
        search.max_spr_rounds = 1;
        search.optimize_alpha = false;
        WorkloadSpec { n_taxa: 12, n_sites: 900, seed: 11, search }
    }
}

/// A captured workload: the full kernel-invocation trace of one inference.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Every kernel invocation, in execution order.
    pub events: Vec<KernelEvent>,
    /// Aggregate counters.
    pub counters: TraceCounters,
    /// SPR-round boundaries: each mark slices `events` into one round's
    /// invocations (plus setup/polish work outside any round).
    pub rounds: Vec<phylo::trace::RoundMark>,
    /// Final log-likelihood of the inference (sanity anchor).
    pub log_likelihood: f64,
    /// Distinct site patterns of the alignment.
    pub n_patterns: usize,
}

impl Workload {
    /// The events of one SPR round, by round mark.
    pub fn round_events(&self, mark: &phylo::trace::RoundMark) -> &[KernelEvent] {
        let begin = mark.begin.min(self.events.len());
        let end = mark.end.min(self.events.len());
        &self.events[begin..end]
    }
}

/// Run a real inference with full tracing and return its workload.
pub fn capture_workload(spec: &WorkloadSpec) -> Result<Workload> {
    if spec.n_taxa < 4 {
        return Err(ExperimentError::InvalidSpec {
            field: "n_taxa",
            value: spec.n_taxa,
            reason: "an unrooted tree search needs at least 4 taxa",
        });
    }
    if spec.n_sites == 0 {
        return Err(ExperimentError::InvalidSpec {
            field: "n_sites",
            value: spec.n_sites,
            reason: "an alignment needs at least one site",
        });
    }
    let sim = if spec.n_taxa == 42 && spec.n_sites == 1167 {
        SimulationConfig::aln42()
    } else {
        SimulationConfig::new(spec.n_taxa, spec.n_sites, spec.seed)
    };
    let generated = sim.generate();
    let request = InferenceRequest::new(spec.search.clone(), spec.seed);
    let result = run_inference(&generated.alignment, &request, InferenceOptions::new().traced())
        .expect("un-checkpointed search on finite data cannot fail")
        .result;
    if !result.log_likelihood.is_finite() {
        return Err(ExperimentError::NonFiniteLikelihood(result.log_likelihood));
    }
    let counters = *result.trace.counters();
    let rounds = result.trace.rounds().to_vec();
    let events = result.trace.into_events();
    if events.is_empty() {
        return Err(ExperimentError::EmptyTrace);
    }
    Ok(Workload {
        events,
        counters,
        rounds,
        log_likelihood: result.log_likelihood,
        n_patterns: generated.alignment.n_patterns(),
    })
}

/// Capture several workloads concurrently on the inference farm: one job
/// per spec, `n_workers` worker threads, results in spec order. This is
/// the multi-inference driver behind `run_table8_varied`-style studies —
/// each capture is a full traced inference, so farming them out is the
/// task-level parallelism of the paper's §3.1 applied to the experiment
/// pipeline itself.
///
/// A spec that fails validation surfaces as its own typed error; a capture
/// that panics surfaces as [`ExperimentError::Farm`] naming the job. In
/// both cases the error reported is the first by spec order.
pub fn capture_workloads(specs: &[WorkloadSpec], n_workers: usize) -> Result<Vec<Workload>> {
    let jobs: Vec<WorkloadSpec> = specs.to_vec();
    let outcome = phylo::farm::run_batch(jobs, n_workers.max(1), |_, spec| capture_workload(&spec));
    outcome
        .results
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(inner) => inner,
            Err(fe) => Err(ExperimentError::Farm { job: i, message: fe.to_string() }),
        })
        .collect()
}

/// Load an alignment from disk, detecting the format from the extension
/// (`.fa`/`.fasta` → FASTA, `.nwk` aside, everything else sniffed: a leading
/// `>` means FASTA, otherwise relaxed PHYLIP — RAxML's own input format).
///
/// Unreadable files surface as [`ExperimentError::Io`]; malformed contents
/// as the parser's typed [`phylo::error::PhyloError`] wrapped in
/// [`ExperimentError::Phylo`], so drivers print a line/column diagnosis and
/// exit nonzero instead of panicking on corrupt input.
pub fn load_alignment(path: &std::path::Path) -> Result<phylo::alignment::Alignment> {
    use std::io::{BufRead, BufReader, Read};
    let io_err = |e: std::io::Error| ExperimentError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut reader = BufReader::new(std::fs::File::open(path).map_err(io_err)?);
    let ext = path.extension().and_then(|e| e.to_str()).map(|e| e.to_ascii_lowercase());
    let is_fasta = match ext.as_deref() {
        Some("fa" | "fasta") => true,
        Some("phy" | "phylip") => false,
        // Sniff the buffered head: a leading `>` (after whitespace) means
        // FASTA. No full-file read needed to decide.
        _ => {
            let head = reader.fill_buf().map_err(io_err)?;
            head.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'>')
        }
    };
    let aln = if is_fasta {
        let mut text = String::new();
        reader.read_to_string(&mut text).map_err(io_err)?;
        phylo::io::parse_fasta(&text)?
    } else {
        // PHYLIP streams line by line: peak memory is the encoded rows,
        // not text + rows, which matters at the 1k–10k-taxon tier.
        phylo::io::parse_phylip_reader(reader).map_err(|e| match e {
            phylo::error::PhyloError::Io { message, .. } => {
                ExperimentError::Io { path: path.display().to_string(), message }
            }
            other => ExperimentError::from(other),
        })?
    };
    Ok(aln)
}

/// Reject workloads whose trace has nothing to price.
fn check_workload(workload: &Workload) -> Result<()> {
    if workload.events.is_empty() {
        return Err(ExperimentError::EmptyTrace);
    }
    Ok(())
}

/// One rung of the ladder with its four workload rows.
#[derive(Debug, Clone)]
pub struct LevelResult {
    pub label: &'static str,
    pub config: OptConfig,
    pub rows: Vec<Comparison>,
}

/// Reproduce Tables 1a–7: every ladder rung × the paper's four workload
/// rows (1 worker × 1 bootstrap, 2 workers × 8/16/32 bootstraps) under
/// synchronous-worker scheduling.
pub fn run_ladder(workload: &Workload, model: &CostModel) -> Result<Vec<LevelResult>> {
    check_workload(workload)?;
    let levels = OptConfig::ladder()
        .into_iter()
        .enumerate()
        .map(|(i, (label, config))| {
            let priced = price_trace(&workload.events, model, &config);
            let rows = TABLE_ROWS
                .iter()
                .zip(PAPER_LADDER[i].iter())
                .map(|(&(row_label, workers, bootstraps), &paper)| Comparison {
                    label: row_label.to_string(),
                    paper_seconds: paper,
                    simulated_seconds: model
                        .seconds(sync_workers_makespan(&priced, bootstraps, workers)),
                })
                .collect();
            LevelResult { label, config, rows }
        })
        .collect();
    Ok(levels)
}

/// Reproduce Table 8: the MGPS dynamic scheduler over 1/8/16/32 bootstraps
/// with the fully optimized code.
pub fn run_table8(
    workload: &Workload,
    model: &CostModel,
    params: &DesParams,
) -> Result<Vec<Comparison>> {
    check_workload(workload)?;
    let priced = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    Ok(PAPER_TABLE_8
        .iter()
        .map(|&(n, paper)| Comparison {
            label: format!("{n} bootstrap{}", if n == 1 { "" } else { "s" }),
            paper_seconds: paper,
            simulated_seconds: model.seconds(mgps_makespan(&priced, n, model, params).makespan),
        })
        .collect())
}

/// Table 8 with *varied* jobs: every bootstrap is a genuinely distinct
/// traced inference (different seed ⇒ different starting tree, search path
/// and trace length), scheduled under MGPS. The identical-trace
/// [`run_table8`] is the paper-style steady-state view; this one shows the
/// load imbalance real replicates add.
pub fn run_table8_varied(
    workloads: &[Workload],
    model: &CostModel,
    params: &DesParams,
) -> Result<Vec<Comparison>> {
    use crate::sched::{compress_phases, des, simulate_task_parallel_jobs, DEFAULT_GRANULARITY};
    if workloads.is_empty() {
        return Err(ExperimentError::NoWorkloads);
    }
    for w in workloads {
        check_workload(w)?;
    }
    let cfg = OptConfig::fully_optimized();
    let priced: Vec<_> = workloads.iter().map(|w| price_trace(&w.events, model, &cfg)).collect();
    // Pre-build per-workload phase lists for EDTLP (k = 1, oversubscribed).
    let phase_sets: Vec<Vec<des::Phase>> = priced
        .iter()
        .map(|t| {
            compress_phases(
                &des::phases_for(t, 1, model.llp_dispatch, model.edtlp_context_switch, 1.0),
                DEFAULT_GRANULARITY,
            )
        })
        .collect();

    Ok(PAPER_TABLE_8
        .iter()
        .map(|&(n, paper)| {
            let jobs: Vec<&[des::Phase]> =
                (0..n).map(|i| phase_sets[i % phase_sets.len()].as_slice()).collect();
            let workers = n.min(params.n_spes);
            let out = simulate_task_parallel_jobs(&jobs, workers, 1, params);
            Comparison {
                label: format!("{n} varied bootstrap{}", if n == 1 { "" } else { "s" }),
                paper_seconds: paper,
                simulated_seconds: model.seconds(out.makespan),
            }
        })
        .collect())
}

/// Figure 3 data: execution time vs #bootstraps on Cell (MGPS), Power5 and
/// Xeon.
#[derive(Debug, Clone)]
pub struct Figure3 {
    pub bootstraps: Vec<usize>,
    pub cell: Vec<f64>,
    pub power5: Vec<f64>,
    pub xeon: Vec<f64>,
}

/// Reproduce Figure 3.
pub fn run_figure3(workload: &Workload, model: &CostModel, params: &DesParams) -> Result<Figure3> {
    check_workload(workload)?;
    let optimized = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    let ppe_only = price_trace(&workload.events, model, &OptConfig::ppe_only());
    let ppe_bootstrap_seconds = model.seconds(ppe_only.sequential_cycles());

    let power5 = PlatformModel::power5();
    let xeon = PlatformModel::xeon();
    let mut fig = Figure3 {
        bootstraps: FIGURE3_BOOTSTRAPS.to_vec(),
        cell: Vec::new(),
        power5: Vec::new(),
        xeon: Vec::new(),
    };
    for &n in &FIGURE3_BOOTSTRAPS {
        fig.cell.push(model.seconds(mgps_makespan(&optimized, n, model, params).makespan));
        fig.power5.push(power5.makespan_seconds(ppe_bootstrap_seconds, n));
        fig.xeon.push(xeon.makespan_seconds(ppe_bootstrap_seconds, n));
    }
    Ok(fig)
}

/// One optimization's isolated and leave-one-out impact.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub name: &'static str,
    /// Seconds when ONLY this optimization is applied to the naive offload.
    pub alone_seconds: f64,
    /// Improvement over the naive offload when applied alone.
    pub alone_gain: f64,
    /// Seconds when this optimization is REMOVED from the full config.
    pub without_seconds: f64,
    /// Cost of removing it from the full config.
    pub without_loss: f64,
}

/// Ablation study of the five SPE optimizations (beyond the paper's
/// cumulative ladder): each measured both *in isolation* on the naive
/// offload and *left out* of the fully optimized configuration. Interaction
/// effects — e.g. double buffering being worth more once compute shrinks —
/// show up as the difference between the two views.
pub fn run_ablation(workload: &Workload, model: &CostModel) -> Result<Vec<AblationRow>> {
    check_workload(workload)?;
    let naive = OptConfig::naive_offload();
    let mut full = OptConfig::fully_optimized();
    // Keep the offload stage fixed at NewviewOnly so the comparison is
    // purely about the five SPE-code optimizations.
    full.stage = crate::config::OffloadStage::NewviewOnly;

    let seconds = |cfg: &OptConfig| {
        model.seconds(price_trace(&workload.events, model, cfg).sequential_cycles())
    };
    let naive_s = seconds(&naive);
    let full_s = seconds(&full);

    type Toggle = fn(&mut OptConfig, bool);
    let toggles: [(&'static str, Toggle); 5] = [
        ("SDK exp (§5.2.2)", |c, v| c.sdk_exp = v),
        ("int-cast conditionals (§5.2.3)", |c, v| c.cast_conditionals = v),
        ("double buffering (§5.2.4)", |c, v| c.double_buffering = v),
        ("vectorized loops (§5.2.5)", |c, v| c.vectorized = v),
        ("direct memory comm (§5.2.6)", |c, v| c.direct_comm = v),
    ];

    Ok(toggles
        .iter()
        .map(|&(name, toggle)| {
            let mut alone = naive;
            toggle(&mut alone, true);
            let alone_seconds = seconds(&alone);
            let mut without = full;
            toggle(&mut without, false);
            let without_seconds = seconds(&without);
            AblationRow {
                name,
                alone_seconds,
                alone_gain: 1.0 - alone_seconds / naive_s,
                without_seconds,
                without_loss: without_seconds / full_s - 1.0,
            }
        })
        .collect())
}

/// One code-budget scenario of the overlay what-if study.
#[derive(Debug, Clone)]
pub struct OverlayScenario {
    /// Code budget in bytes.
    pub budget: usize,
    /// Overlay faults over the whole trace.
    pub faults: u64,
    /// Overlay fault rate (faults / kernel calls).
    pub fault_rate: f64,
    /// Seconds of code-reload DMA added to one bootstrap.
    pub overhead_seconds: f64,
    /// The Table 7 bootstrap time with this overhead added.
    pub bootstrap_seconds: f64,
}

/// The §5.2.4 counterfactual: what if the three kernels had NOT fit in the
/// local store and needed manually managed code overlays? Replays the real
/// call sequence through an LRU overlay manager at several code budgets and
/// prices the reload DMA. The paper avoided this by keeping the footprint
/// at 117 KB; the study quantifies what that design care was worth.
pub fn run_overlay_study(workload: &Workload, model: &CostModel) -> Result<Vec<OverlayScenario>> {
    use cellsim::overlay::{overlay_overhead, paper_modules};

    check_workload(workload)?;
    let base = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    let base_seconds = model.seconds(base.sequential_cycles());

    let call_seq: Vec<usize> = workload
        .events
        .iter()
        .map(|ev| match ev.op {
            op if op.is_newview() => 0usize,
            phylo::trace::KernelOp::Makenewz => 1,
            _ => 2,
        })
        .collect();

    // 139 KB is what the real port had free-plus-code; 117 KB fits exactly;
    // smaller budgets force increasingly severe thrashing.
    Ok([139 * 1024, 117 * 1024, 100 * 1024, 80 * 1024, 64 * 1024]
        .into_iter()
        .map(|budget| {
            let (mgr, cycles) =
                overlay_overhead(call_seq.iter().copied(), paper_modules(), budget, &model.dma);
            let (_, faults, _) = mgr.stats();
            let overhead_seconds = model.seconds(cycles);
            OverlayScenario {
                budget,
                faults,
                fault_rate: mgr.fault_rate(),
                overhead_seconds,
                bootstrap_seconds: base_seconds + overhead_seconds,
            }
        })
        .collect())
}

/// One point of the multilevel-parallelism comparison.
#[derive(Debug, Clone)]
pub struct MultilevelPoint {
    pub n_bootstraps: usize,
    /// Pure task-level parallelism (EDTLP; two layers: tasks + vectors).
    pub edtlp_seconds: f64,
    /// Pure loop-level parallelism (LLP with min(n,4) workers; three
    /// layers: tasks + loops + vectors).
    pub llp_seconds: f64,
    /// The dynamic MGPS scheduler.
    pub mgps_seconds: f64,
}

/// Reproduce the paper's Contribution III: "two layers of parallelism …
/// being more beneficial for large and realistic workloads and three layers
/// … being beneficial for workloads with a low degree (≤ 4) of task-level
/// parallelism". Sweeps the bootstrap count and compares pure EDTLP, pure
/// LLP, and the dynamic MGPS that switches between them.
pub fn run_multilevel_study(
    workload: &Workload,
    model: &CostModel,
    params: &DesParams,
) -> Result<Vec<MultilevelPoint>> {
    use crate::sched::{edtlp_makespan, llp_makespan, mgps_makespan};
    check_workload(workload)?;
    let priced = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    Ok([1usize, 2, 3, 4, 6, 8, 12, 16, 32]
        .into_iter()
        .map(|n| {
            let llp_workers = n.min(4);
            MultilevelPoint {
                n_bootstraps: n,
                edtlp_seconds: model.seconds(edtlp_makespan(&priced, n, model, params).makespan),
                llp_seconds: model
                    .seconds(llp_makespan(&priced, n, llp_workers, model, params).makespan),
                mgps_seconds: model.seconds(mgps_makespan(&priced, n, model, params).makespan),
            }
        })
        .collect())
}

/// One machine scale point of the SPE-scaling projection.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub n_spes: usize,
    pub ppe_threads: usize,
    pub makespan_seconds: f64,
    /// Speedup over the 1-SPE synchronous baseline.
    pub speedup: f64,
    /// Mean SPE utilization.
    pub spe_utilization: f64,
}

/// Projection study: how does the MGPS throughput scale with the number of
/// SPEs? The paper's blade has two Cells (16 SPEs) but uses one; IBM's
/// Petaflop plans (§1) stack many. The projection shows where the 2-thread
/// PPE becomes the bottleneck — the scaling wall the EDTLP design implies.
pub fn run_scaling_study(
    workload: &Workload,
    model: &CostModel,
    n_bootstraps: usize,
) -> Result<Vec<ScalingPoint>> {
    use crate::sched::mgps_makespan;
    check_workload(workload)?;
    if n_bootstraps == 0 {
        return Err(ExperimentError::InvalidParameter {
            name: "n_bootstraps",
            value: 0,
            reason: "the scaling projection needs at least one bootstrap to schedule",
        });
    }
    let priced = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    let baseline = model.seconds(crate::sched::sync_workers_makespan(&priced, n_bootstraps, 1));

    Ok([(1usize, 2usize), (2, 2), (4, 2), (8, 2), (16, 2), (16, 4)]
        .into_iter()
        .map(|(n_spes, ppe_threads)| {
            let params = DesParams { n_spes, n_ppe_threads: ppe_threads, ..DesParams::default() };
            let out = mgps_makespan(&priced, n_bootstraps, model, &params);
            let makespan_seconds = model.seconds(out.makespan);
            ScalingPoint {
                n_spes,
                ppe_threads,
                makespan_seconds,
                speedup: baseline / makespan_seconds,
                spe_utilization: out.stats.spe_utilization(),
            }
        })
        .collect())
}

/// The §5.2 profile breakdown of a workload under PPE-only pricing.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Fraction of PPE time per kernel: (newview, makenewz, evaluate, other).
    pub fractions: [f64; 4],
    /// Fraction of `newview` calls nested inside `makenewz`/`evaluate`.
    pub nested_fraction: f64,
    /// Total kernel invocations.
    pub invocations: u64,
    /// Mean FLOPs per `newview` invocation (paper: ≈25,554 on 42_SC).
    pub newview_mean_flops: f64,
}

/// Profile a workload like the paper's gprofile run (§5.2).
pub fn profile_breakdown(workload: &Workload, model: &CostModel) -> Result<ProfileReport> {
    check_workload(workload)?;
    let cfg = OptConfig::ppe_only();
    let mut per_kernel = [0u64; 3]; // newview, makenewz, evaluate
    let mut newview_flops = 0u64;
    let mut newview_calls = 0u64;
    for ev in &workload.events {
        let (p, _) = crate::offload::price_event(ev, model, &cfg);
        let idx = match ev.op {
            KernelOp::NewviewTipTip | KernelOp::NewviewTipInner | KernelOp::NewviewInnerInner => {
                newview_flops += ev.flops();
                newview_calls += 1;
                0
            }
            KernelOp::Makenewz => 1,
            KernelOp::Evaluate => 2,
        };
        per_kernel[idx] += p.ppe;
    }
    let other = crate::offload::other_work_cycles(&workload.events, model);
    let total = (per_kernel.iter().sum::<u64>() + other) as f64;
    let nested =
        workload.counters.newview_nested as f64 / workload.counters.newview_calls.max(1) as f64;
    Ok(ProfileReport {
        fractions: [
            per_kernel[0] as f64 / total,
            per_kernel[1] as f64 / total,
            per_kernel[2] as f64 / total,
            other as f64 / total,
        ],
        nested_fraction: nested,
        invocations: workload.events.len() as u64,
        newview_mean_flops: newview_flops as f64 / newview_calls.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::shape_deviation;
    use std::sync::OnceLock;

    /// Capture the mid-size workload once; it is used by several tests.
    fn workload() -> &'static Workload {
        static CACHE: OnceLock<Workload> = OnceLock::new();
        CACHE.get_or_init(|| capture_workload(&WorkloadSpec::test_mid()).expect("capture"))
    }

    #[test]
    fn load_alignment_routes_typed_errors() {
        let dir = std::env::temp_dir().join("raxml-cell-load-aln-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file → Io.
        let missing = dir.join("does-not-exist.phy");
        match load_alignment(&missing) {
            Err(ExperimentError::Io { path, .. }) => assert!(path.contains("does-not-exist")),
            other => panic!("expected Io error, got {other:?}"),
        }

        // Corrupt PHYLIP → typed parse error with a line number.
        let bad = dir.join("bad.phy");
        std::fs::write(&bad, "2 4\nalpha ACGTTTTT\n").unwrap();
        match load_alignment(&bad) {
            Err(ExperimentError::Phylo(phylo::error::PhyloError::Parse {
                format, line, ..
            })) => {
                assert_eq!(format, "PHYLIP");
                assert!(line > 0);
            }
            other => panic!("expected Phylo(Parse) error, got {other:?}"),
        }

        // Good FASTA sniffed by content even with a neutral extension.
        let good = dir.join("good.txt");
        std::fs::write(&good, ">a\nACGT\n>b\nACGA\n").unwrap();
        let aln = load_alignment(&good).unwrap();
        assert_eq!((aln.n_taxa(), aln.n_sites()), (2, 4));

        // Good PHYLIP by extension.
        let phy = dir.join("good.phy");
        std::fs::write(&phy, "2 4\nalpha ACGT\nbeta  ACGA\n").unwrap();
        assert_eq!(load_alignment(&phy).unwrap().n_taxa(), 2);
    }

    #[test]
    fn capture_produces_a_real_trace() {
        let w = workload();
        assert!(w.events.len() > 1000, "a search makes many kernel calls: {}", w.events.len());
        assert!(w.log_likelihood.is_finite() && w.log_likelihood < 0.0);
        assert!(w.counters.newview_calls > 500);
        assert!(w.counters.makenewz_calls > 50);
        assert!(w.n_patterns > 10);
    }

    #[test]
    fn ladder_reproduces_the_paper_shape_qualitatively() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let ladder = run_ladder(w, &model).unwrap();
        assert_eq!(ladder.len(), 8);

        // Single-bootstrap column across the ladder.
        let col: Vec<f64> = ladder.iter().map(|l| l.rows[0].simulated_seconds).collect();
        // Naive offload is slower than the PPE.
        assert!(col[1] > col[0], "naive offload must hurt: {col:?}");
        // Every subsequent optimization helps.
        for i in 2..8 {
            assert!(col[i] < col[i - 1], "level {i} must improve: {col:?}");
        }
        // The fully offloaded version beats the PPE (the paper's 25%).
        assert!(col[7] < col[0], "final config must beat PPE: {col:?}");
    }

    #[test]
    fn ladder_workload_rows_scale_like_the_paper() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let ladder = run_ladder(w, &model).unwrap();
        for level in &ladder {
            // Within a table, rows scale with bootstraps/workers: the shape
            // deviation against the paper must be modest. (The mid-size
            // test workload has a different PPE/SPE balance than 42_SC, so
            // the band is wider than what the ALN42 run achieves — the
            // `paper all_tables` run reports 0.7–10% there.)
            let dev = shape_deviation(&level.rows);
            assert!(dev < 0.25, "{}: deviation {dev}", level.label);
        }
    }

    #[test]
    fn table8_mgps_beats_sync_and_scales() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        let t8 = run_table8(w, &model, &params).unwrap();
        assert_eq!(t8.len(), 4);
        // MGPS over 32 bootstraps crushes 2 synchronous workers (Table 7
        // row 4 vs Table 8 row 4 in the paper: 444.87 → 167.57).
        let ladder = run_ladder(w, &model).unwrap();
        let t7_32 = ladder[7].rows[3].simulated_seconds;
        let mgps_32 = t8[3].simulated_seconds;
        assert!(mgps_32 < t7_32 * 0.55, "MGPS must give a large speedup: {mgps_32} vs {t7_32}");
        // 1 bootstrap: LLP must help over plain sequential.
        let t7_1 = ladder[7].rows[0].simulated_seconds;
        let mgps_1 = t8[0].simulated_seconds;
        assert!(mgps_1 < t7_1, "LLP must beat one SPE: {mgps_1} vs {t7_1}");
    }

    #[test]
    fn figure3_preserves_the_platform_ranking() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        let fig = run_figure3(w, &model, &params).unwrap();
        for i in 0..fig.bootstraps.len() {
            assert!(
                fig.cell[i] < fig.power5[i],
                "Cell must beat Power5 at {} bootstraps",
                fig.bootstraps[i]
            );
            assert!(
                fig.power5[i] < fig.xeon[i],
                "Power5 must beat Xeon at {} bootstraps",
                fig.bootstraps[i]
            );
        }
        // At scale, Xeon is >2× the Cell (the paper's §6 claim).
        let last = fig.bootstraps.len() - 1;
        assert!(fig.xeon[last] / fig.cell[last] > 2.0);
        // Times grow with bootstraps.
        for series in [&fig.cell, &fig.power5, &fig.xeon] {
            for w in series.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn varied_bootstraps_behave_like_identical_ones_on_average() {
        let base = workload();
        // A second, genuinely different inference on the same data.
        let mut spec = WorkloadSpec::test_mid();
        spec.seed = 1234;
        let other = capture_workload(&spec).expect("capture");
        assert_ne!(base.events.len(), other.events.len(), "traces should differ");

        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        let varied = run_table8_varied(&[base.clone(), other], &model, &params).unwrap();
        let uniform = run_table8(base, &model, &params).unwrap();
        // Skip the 1-bootstrap row: the uniform path runs it under 8-way
        // LLP (MGPS's tail rule) while the varied scheduler keeps k = 1,
        // so they measure different things there by design.
        for (v, u) in varied.iter().zip(&uniform).skip(1) {
            assert!(v.simulated_seconds > 0.0);
            // Varied jobs land in the same ballpark as the uniform model
            // (trace lengths differ, not orders of magnitude).
            let ratio = v.simulated_seconds / u.simulated_seconds;
            assert!((0.4..2.5).contains(&ratio), "{}: ratio {ratio}", v.label);
        }
    }

    #[test]
    fn ablation_is_consistent_with_the_ladder() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_ablation(w, &model).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // Alone, every optimization helps (or at worst is neutral).
            assert!(r.alone_gain >= -1e-9, "{}: alone gain {}", r.name, r.alone_gain);
            // Removing any optimization from the full build never helps.
            assert!(r.without_loss >= -1e-9, "{}: loss {}", r.name, r.without_loss);
        }
        // The paper's headline ordering: the exp replacement is the single
        // biggest lever, and the conditional cast beats FP vectorization.
        let gain = |name: &str| rows.iter().find(|r| r.name.starts_with(name)).unwrap().alone_gain;
        assert!(gain("SDK exp") > gain("int-cast"), "exp dominates");
        assert!(
            gain("int-cast") > gain("vectorized loops"),
            "control-flow vectorization beats FP vectorization (§5.2.5)"
        );
    }

    #[test]
    fn multilevel_study_reproduces_contribution_iii() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_multilevel_study(w, &model, &DesParams::default()).unwrap();
        let at = |n: usize| rows.iter().find(|r| r.n_bootstraps == n).unwrap();
        // Low task-level parallelism: three layers (LLP) win.
        assert!(at(1).llp_seconds < at(1).edtlp_seconds, "LLP must win at 1 bootstrap");
        // Ample task-level parallelism: two layers (EDTLP) win.
        assert!(at(32).edtlp_seconds < at(32).llp_seconds, "EDTLP must win at 32 bootstraps");
        // MGPS is never meaningfully worse than the better pure strategy.
        for r in &rows {
            let best = r.edtlp_seconds.min(r.llp_seconds);
            assert!(
                r.mgps_seconds <= best * 1.10,
                "n={}: MGPS {} vs best pure {}",
                r.n_bootstraps,
                r.mgps_seconds,
                best
            );
        }
    }

    #[test]
    fn overlay_study_shows_the_papers_design_margin() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_overlay_study(w, &model).unwrap();
        assert_eq!(rows.len(), 5);
        // At the real 139 KB budget there are exactly the 3 cold faults.
        assert_eq!(rows[0].faults, 3);
        assert!(rows[0].overhead_seconds < 1e-3);
        // Shrinking the budget never reduces faults and never reduces cost.
        for pair in rows.windows(2) {
            assert!(pair[1].faults >= pair[0].faults);
            assert!(pair[1].overhead_seconds >= pair[0].overhead_seconds);
        }
        // The tightest budget must actually thrash.
        assert!(rows[4].fault_rate > 0.1, "rate {}", rows[4].fault_rate);
    }

    #[test]
    fn scaling_study_shows_the_ppe_wall() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_scaling_study(w, &model, 32).unwrap();
        // Speedup grows with SPEs…
        for pair in rows.windows(2) {
            assert!(
                pair[1].speedup >= pair[0].speedup * 0.95,
                "speedup should not collapse: {:?}",
                rows
            );
        }
        // …but 16 SPEs behind 2 PPE threads gain much less than the extra
        // hardware would suggest, while 4 PPE threads unlock them.
        let spe16_2t = rows.iter().find(|r| r.n_spes == 16 && r.ppe_threads == 2).unwrap();
        let spe16_4t = rows.iter().find(|r| r.n_spes == 16 && r.ppe_threads == 4).unwrap();
        let spe8 = rows.iter().find(|r| r.n_spes == 8).unwrap();
        assert!(
            spe16_4t.speedup > spe16_2t.speedup * 1.2,
            "more PPE threads must matter at 16 SPEs: {} vs {}",
            spe16_4t.speedup,
            spe16_2t.speedup
        );
        assert!(spe16_2t.speedup < spe8.speedup * 1.5, "the 2-thread PPE caps the 16-SPE gain");
    }

    #[test]
    fn profile_breakdown_matches_expectations() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let p = profile_breakdown(w, &model).unwrap();
        let total: f64 = p.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The likelihood kernels dominate (the paper's 98.77% claim); the
        // newview/makenewz balance depends on tree size — on the small
        // 12-taxon test workload the lazy SPR's per-candidate makenewz
        // calls rival newview, while the 42-taxon ALN42 run shows the
        // paper-like newview domination (see the `paper all_tables` output).
        assert!(p.fractions[0] + p.fractions[1] > 0.9, "kernels must dominate: {:?}", p.fractions);
        assert!(p.fractions[0] > 0.3, "newview is a major component: {:?}", p.fractions);
        assert!(p.fractions[3] < 0.05, "other work is small");
        assert!(p.nested_fraction > 0.0 && p.nested_fraction <= 1.0);
        assert!(p.newview_mean_flops > 1000.0);
    }

    /// Farm-captured workloads must be bit-identical to sequential
    /// captures — the farm only changes where jobs run, never what they
    /// compute — and spec errors must keep their types through the farm.
    #[test]
    fn farmed_captures_match_sequential_bit_for_bit() {
        let mut a = WorkloadSpec::small();
        a.seed = 21;
        let mut b = WorkloadSpec::small();
        b.seed = 22;
        let specs = [a.clone(), b.clone()];

        let farmed = capture_workloads(&specs, 2).unwrap();
        let seq: Vec<Workload> = specs.iter().map(|s| capture_workload(s).unwrap()).collect();
        assert_eq!(farmed.len(), 2);
        for (f, s) in farmed.iter().zip(&seq) {
            assert_eq!(f.log_likelihood.to_bits(), s.log_likelihood.to_bits());
            assert_eq!(f.events.len(), s.events.len());
            assert_eq!(f.counters.newview_calls, s.counters.newview_calls);
            assert_eq!(f.n_patterns, s.n_patterns);
        }

        // A bad spec keeps its typed error (and its position).
        let mut bad = WorkloadSpec::small();
        bad.n_taxa = 3;
        match capture_workloads(&[a, bad], 2) {
            Err(ExperimentError::InvalidSpec { field: "n_taxa", .. }) => {}
            other => panic!("expected InvalidSpec via the farm: {other:?}"),
        }
    }

    #[test]
    fn capture_rejects_degenerate_specs() {
        let mut spec = WorkloadSpec::small();
        spec.n_taxa = 3;
        match capture_workload(&spec) {
            Err(ExperimentError::InvalidSpec { field: "n_taxa", .. }) => {}
            other => panic!("expected InvalidSpec for n_taxa: {other:?}"),
        }
        let mut spec = WorkloadSpec::small();
        spec.n_sites = 0;
        match capture_workload(&spec) {
            Err(ExperimentError::InvalidSpec { field: "n_sites", .. }) => {}
            other => panic!("expected InvalidSpec for n_sites: {other:?}"),
        }
    }

    #[test]
    fn drivers_reject_empty_traces_instead_of_panicking() {
        let empty = Workload {
            events: Vec::new(),
            counters: TraceCounters::default(),
            rounds: Vec::new(),
            log_likelihood: -1.0,
            n_patterns: 10,
        };
        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        assert_eq!(run_ladder(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_table8(&empty, &model, &params).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_figure3(&empty, &model, &params).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_ablation(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_overlay_study(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(
            run_multilevel_study(&empty, &model, &params).unwrap_err(),
            ExperimentError::EmptyTrace
        );
        assert_eq!(profile_breakdown(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(
            run_table8_varied(&[], &model, &params).unwrap_err(),
            ExperimentError::NoWorkloads
        );
        match run_scaling_study(workload(), &model, 0) {
            Err(ExperimentError::InvalidParameter { name: "n_bootstraps", .. }) => {}
            other => panic!("expected InvalidParameter: {other:?}"),
        }
    }
}
