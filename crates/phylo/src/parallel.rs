//! Parallelism layers.
//!
//! The paper exploits RAxML parallelism at three granularities:
//!
//! 1. **Task level** — embarrassingly parallel bootstraps/inferences under a
//!    master–worker scheme (§3.1). Here: [`crate::farm`], the work-stealing
//!    inference farm (the MPI analogue).
//! 2. **Loop level** — the likelihood loops distributed across processors
//!    (the RAxML-OMP / LLP-across-SPEs layer). Here: rayon-chunked kernel
//!    dispatchers ([`newview_dispatch`], [`evaluate_dispatch`],
//!    [`newton_dispatch`]).
//! 3. **Data level** — the 2-lane vector kernels themselves
//!    ([`crate::likelihood::kernels`]).

use crate::likelihood::kernels::{
    self, evaluate_lnl, Child, EvalOperand, Mat4, NewtonScratch, ScaleStats,
};
use crate::likelihood::{KernelKind, ScalingCheck, TILE};
use crate::model::ExpImpl;
use rayon::prelude::*;
use std::sync::OnceLock;
use std::time::Instant;

/// Minimum patterns per rayon chunk: below this the spawn overhead dominates
/// the ~100ns/pattern kernel work.
const MIN_CHUNK: usize = 64;

/// Fixed floating-point *association unit* for the parallel reductions.
///
/// Deliberately *not* derived from `rayon::current_num_threads()`: these
/// 256-pattern block boundaries define the floating-point association of
/// the reduction, so they must be a pure function of the alignment. Each
/// block's partial log-likelihood lands in its own indexed slot and the
/// slots are folded sequentially in block order, which makes
/// `evaluate_dispatch`/`newton_dispatch` bit-reproducible run-to-run and
/// across any thread count — the BEAGLE-style determinism contract for
/// parallel likelihood accumulation.
const REDUCE_BLOCK: usize = 256;

/// How many whole [`REDUCE_BLOCK`]s one scheduled task covers.
///
/// A fixed 256-pattern scheduling chunk is wrong at both ends of the scale
/// axis: at 250 patterns there is nothing to schedule, and at 10⁶ patterns
/// it creates ~4000 tasks whose queueing overhead swamps the kernels. The
/// *granule* (task size) therefore adapts to the pattern count and worker
/// count — about `OVERSUBSCRIBE` tasks per worker for stealing slack,
/// bounded by [`MAX_GRANULE_BLOCKS`] so one straggler task cannot serialize
/// the tail. Crucially the granule is always a whole number of
/// `REDUCE_BLOCK`s and per-block partials keep their own slots, so the
/// *association* of every floating-point sum is untouched: any granule,
/// any worker count, and the sequential-slot fold all produce bit-identical
/// results (the adaptive-granule tests below pin this).
fn granule_blocks(n_patterns: usize) -> usize {
    /// Scheduling slack: target tasks per worker, so work stealing can
    /// rebalance ragged progress.
    const OVERSUBSCRIBE: usize = 4;
    /// Granule cap in blocks (32 × 256 = 8192 patterns per task) — bounds
    /// the tail latency a single task can add.
    const MAX_GRANULE_BLOCKS: usize = 32;
    let blocks = n_patterns.div_ceil(REDUCE_BLOCK);
    let workers = rayon::current_num_threads().max(1);
    blocks.div_ceil(workers * OVERSUBSCRIBE).clamp(1, MAX_GRANULE_BLOCKS)
}

/// Wall-clock telemetry for the loop-level dispatchers: batch latency
/// histograms (`evaluate_dispatch_ns`, `newton_dispatch_ns`) and pattern
/// throughput counters (`*_patterns_total`, patterns/sec once divided by
/// wall time). Handles are resolved from the global [`obs`] registry once
/// per process; while the registry is disabled every dispatch pays one
/// atomic load and skips the clock reads entirely, so the instrumented
/// path stays allocation-free and — because timing never feeds back into
/// the arithmetic — bit-identical in its likelihood results.
///
/// `newview_dispatch` is deliberately *not* instrumented: it runs per tree
/// node rather than per optimization pass, and two clock reads per node
/// would be measurable against the ~100ns/pattern kernel.
struct DispatchMetrics {
    evaluate_ns: obs::Histogram,
    newton_ns: obs::Histogram,
    evaluate_patterns: obs::Counter,
    newton_patterns: obs::Counter,
}

fn dispatch_metrics() -> Option<&'static DispatchMetrics> {
    let reg = obs::global();
    if !reg.is_enabled() {
        return None;
    }
    static CELL: OnceLock<DispatchMetrics> = OnceLock::new();
    Some(CELL.get_or_init(|| DispatchMetrics {
        evaluate_ns: reg.histogram("evaluate_dispatch_ns"),
        newton_ns: reg.histogram("newton_dispatch_ns"),
        evaluate_patterns: reg.counter("evaluate_patterns_total"),
        newton_patterns: reg.counter("newton_patterns_total"),
    }))
}

/// Restrict a `newview` child operand to the pattern range `[lo, hi)`.
///
/// Inner partials live in the tiled block layout, so the `x` slice is cut on
/// whole blocks: `lo` must be block-aligned (chunk boundaries are multiples of
/// `REDUCE_BLOCK`, which `TILE` divides), and the end rounds up so a ragged
/// tail chunk keeps its zero-padded final block.
fn slice_child<'a>(c: &Child<'a>, lo: usize, hi: usize, n_rates: usize) -> Child<'a> {
    debug_assert_eq!(lo % TILE, 0, "chunk start must be tile-aligned");
    let block = n_rates * 4 * TILE;
    match *c {
        Child::Tip { codes, tables } => Child::Tip { codes: &codes[lo..hi], tables },
        Child::Inner { x, scale, pmats } => Child::Inner {
            x: &x[(lo / TILE) * block..hi.div_ceil(TILE) * block],
            scale: &scale[lo..hi],
            pmats,
        },
    }
}

/// Restrict an evaluate/makenewz operand to the pattern range `[lo, hi)`.
/// Same block-aligned slicing of tiled `x` as [`slice_child`].
fn slice_operand<'a>(
    op: &EvalOperand<'a>,
    lo: usize,
    hi: usize,
    n_rates: usize,
) -> EvalOperand<'a> {
    debug_assert_eq!(lo % TILE, 0, "chunk start must be tile-aligned");
    let block = n_rates * 4 * TILE;
    match *op {
        EvalOperand::Tip { codes } => EvalOperand::Tip { codes: &codes[lo..hi] },
        EvalOperand::Inner { x, scale } => EvalOperand::Inner {
            x: &x[(lo / TILE) * block..hi.div_ceil(TILE) * block],
            scale: &scale[lo..hi],
        },
    }
}

/// `newview` with optional loop-level parallelism over site patterns.
#[allow(clippy::too_many_arguments)]
pub fn newview_dispatch(
    left: &Child<'_>,
    right: &Child<'_>,
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
    kind: KernelKind,
    scaling: ScalingCheck,
    parallel: bool,
) -> ScaleStats {
    let n = out_scale.len();
    if !parallel || n < 2 * MIN_CHUNK {
        return kernels::newview(left, right, out_x, out_scale, n_rates, kind, scaling);
    }
    // `newview` writes are per-pattern disjoint and `ScaleStats::merge` is
    // integer addition (associative and commutative), so the scheduling
    // granule can be used as the chunk directly — no association to pin.
    newview_chunked(
        left,
        right,
        out_x,
        out_scale,
        n_rates,
        kind,
        scaling,
        granule_blocks(n) * REDUCE_BLOCK,
    )
}

/// Parallel `newview` body with an explicit chunk width (a multiple of
/// [`TILE`]); factored out so tests can prove chunk-width invariance.
#[allow(clippy::too_many_arguments)]
fn newview_chunked(
    left: &Child<'_>,
    right: &Child<'_>,
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
    kind: KernelKind,
    scaling: ScalingCheck,
    chunk: usize,
) -> ScaleStats {
    let stride = n_rates * 4;
    // `chunk * stride` f64s = `chunk / TILE` whole blocks, so every chunk
    // boundary of the tiled `out_x` is block-aligned; the final (short)
    // x-chunk absorbs the zero-padded tail block and there are exactly as
    // many x-chunks as scale-chunks.
    const _: () = assert!(REDUCE_BLOCK.is_multiple_of(TILE), "chunks must cover whole tiles");
    debug_assert!(chunk.is_multiple_of(TILE));
    out_x
        .par_chunks_mut(chunk * stride)
        .zip(out_scale.par_chunks_mut(chunk))
        .enumerate()
        .map(|(ci, (ox, os))| {
            let lo = ci * chunk;
            let hi = lo + os.len();
            let l = slice_child(left, lo, hi, n_rates);
            let r = slice_child(right, lo, hi, n_rates);
            kernels::newview(&l, &r, ox, os, n_rates, kind, scaling)
        })
        .reduce(ScaleStats::default, ScaleStats::merge)
}

/// `evaluate` with optional loop-level parallelism over site patterns.
///
/// Deterministic: each fixed 256-pattern [`REDUCE_BLOCK`] writes its
/// partial log-likelihood into an indexed slot and the slots are summed
/// sequentially in block order, so the result is bit-identical run-to-run,
/// across thread counts, and across scheduling granules.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_dispatch(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    pmats: &[Mat4],
    freqs: &[f64; 4],
    weights: &[f64],
    n_rates: usize,
    kind: KernelKind,
    parallel: bool,
) -> f64 {
    let n = weights.len();
    let metrics = dispatch_metrics();
    let t0 = metrics.map(|_| Instant::now());
    let lnl = if !parallel || n < 2 * MIN_CHUNK {
        evaluate_lnl(u, v, pmats, freqs, weights, n_rates, kind)
    } else {
        evaluate_blocks(u, v, pmats, freqs, weights, n_rates, kind, granule_blocks(n))
    };
    if let (Some(m), Some(t0)) = (metrics, t0) {
        m.evaluate_ns.record(t0.elapsed().as_nanos() as u64);
        m.evaluate_patterns.add(n as u64);
    }
    lnl
}

/// Parallel `evaluate` body with an explicit granule (in blocks); factored
/// out so tests can prove granule invariance. Each task covers
/// `granule_blocks` consecutive [`REDUCE_BLOCK`]s and evaluates them
/// block-by-block into per-block slots; the final fold is sequential in
/// block order regardless of the granule, so the floating-point
/// association never changes.
#[allow(clippy::too_many_arguments)]
fn evaluate_blocks(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    pmats: &[Mat4],
    freqs: &[f64; 4],
    weights: &[f64],
    n_rates: usize,
    kind: KernelKind,
    granule_blocks: usize,
) -> f64 {
    let n = weights.len();
    let granule = granule_blocks * REDUCE_BLOCK;
    let mut partials = vec![0.0f64; n.div_ceil(REDUCE_BLOCK)];
    // `ceil(ceil(n/B)/k) == ceil(n/(k·B))`, so the slot chunks and weight
    // chunks pair off exactly.
    partials
        .par_chunks_mut(granule_blocks)
        .zip(weights.par_chunks(granule))
        .enumerate()
        .map(|(gi, (slots, w))| {
            let base = gi * granule;
            for (bi, (slot, wb)) in slots.iter_mut().zip(w.chunks(REDUCE_BLOCK)).enumerate() {
                let lo = base + bi * REDUCE_BLOCK;
                let hi = lo + wb.len();
                let su = slice_operand(u, lo, hi, n_rates);
                let sv = slice_operand(v, lo, hi, n_rates);
                *slot = evaluate_lnl(&su, &sv, pmats, freqs, wb, n_rates, kind);
            }
        })
        .reduce(|| (), |(), ()| ());
    partials.iter().sum()
}

/// Newton derivatives with optional loop-level parallelism, on raw
/// sum-table slices with caller-owned exponential scratch (the sequential
/// path is zero-allocation; each parallel chunk fills a thread-local
/// scratch from sub-slices, no sum-table copies).
#[allow(clippy::too_many_arguments)]
pub fn newton_dispatch(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: ExpImpl,
    kind: KernelKind,
    parallel: bool,
    scratch: &mut NewtonScratch,
) -> (f64, f64, f64) {
    let n = weights.len();
    let metrics = dispatch_metrics();
    let t0 = metrics.map(|_| Instant::now());
    let derivs = if !parallel || n < 2 * MIN_CHUNK {
        kernels::newton_derivatives_scratch(
            st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, kind, scratch,
        )
    } else {
        newton_blocks(
            st_data,
            st_scale,
            n_rates,
            lambdas,
            rates,
            t,
            weights,
            exp_impl,
            kind,
            granule_blocks(n),
        )
    };
    if let (Some(m), Some(t0)) = (metrics, t0) {
        m.newton_ns.record(t0.elapsed().as_nanos() as u64);
        m.newton_patterns.add(n as u64);
    }
    derivs
}

/// Parallel Newton body with an explicit granule (in blocks); same
/// deterministic scheme as [`evaluate_blocks`] — indexed per-block partial
/// triples folded sequentially in block order. Each task reuses one
/// exponential scratch across its blocks.
#[allow(clippy::too_many_arguments)]
fn newton_blocks(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: ExpImpl,
    kind: KernelKind,
    granule_blocks: usize,
) -> (f64, f64, f64) {
    let n = weights.len();
    let stride = n_rates * 4;
    let granule = granule_blocks * REDUCE_BLOCK;
    let mut partials = vec![[0.0f64; 3]; n.div_ceil(REDUCE_BLOCK)];
    partials
        .par_chunks_mut(granule_blocks)
        .zip(weights.par_chunks(granule))
        .enumerate()
        .map(|(gi, (slots, w))| {
            let base = gi * granule;
            let mut local = NewtonScratch::default();
            for (bi, (slot, wb)) in slots.iter_mut().zip(w.chunks(REDUCE_BLOCK)).enumerate() {
                let lo = base + bi * REDUCE_BLOCK;
                let hi = lo + wb.len();
                let (l, d1, d2) = kernels::newton_derivatives_scratch(
                    &st_data[lo * stride..hi * stride],
                    &st_scale[lo..hi],
                    n_rates,
                    lambdas,
                    rates,
                    t,
                    wb,
                    exp_impl,
                    kind,
                    &mut local,
                );
                *slot = [l, d1, d2];
            }
        })
        .reduce(|| (), |(), ()| ());
    partials.iter().fold((0.0, 0.0, 0.0), |a, p| (a.0 + p[0], a.1 + p[1], a.2 + p[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::engine::LikelihoodEngine;
    use crate::likelihood::LikelihoodConfig;
    use crate::model::{GammaRates, SubstModel};
    use crate::simulate::SimulationConfig;
    use crate::tree::Tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The rayon-chunked dispatchers only engage above MIN_CHUNK patterns;
    /// this exercises them on a large-pattern alignment and checks exact
    /// agreement with the sequential path through the full engine
    /// (newview, evaluate and the Newton derivatives all go parallel).
    #[test]
    fn parallel_paths_match_sequential_on_large_alignments() {
        // High divergence ⇒ >> 128 distinct patterns.
        let w =
            SimulationConfig { mean_branch: 0.4, ..SimulationConfig::new(10, 3000, 99) }.generate();
        assert!(
            w.alignment.n_patterns() > 2 * MIN_CHUNK,
            "need enough patterns to engage the parallel path: {}",
            w.alignment.n_patterns()
        );
        let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let rates = GammaRates::standard(0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut tree = Tree::random(10, 0.2, &mut rng).unwrap();

        let mut seq_engine = LikelihoodEngine::new(
            &w.alignment,
            model.clone(),
            rates.clone(),
            LikelihoodConfig { parallel: false, ..LikelihoodConfig::optimized() },
        );
        let mut par_engine = LikelihoodEngine::new(
            &w.alignment,
            model,
            rates,
            LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() },
        );

        let a = seq_engine.log_likelihood(&tree);
        let b = par_engine.log_likelihood(&tree);
        // Seq vs par may differ by the chunked reduction's floating-point
        // association (documented epsilon); par vs par must be bit-equal.
        assert!((a - b).abs() < 1e-9, "evaluate: {a} vs {b}");
        let b2 = par_engine.log_likelihood(&tree);
        assert_eq!(b.to_bits(), b2.to_bits(), "parallel evaluate not reproducible");

        // Branch optimization drives newton_dispatch + newview_dispatch.
        // The chunked reduction changes floating-point association, which
        // can shift Newton's final iterate slightly — so the seq-vs-par
        // comparison is near-equality, not bit-equality.
        let tree0 = tree.clone();
        let mut tree2 = tree.clone();
        let la = seq_engine.optimize_all_branches(&mut tree, 2);
        let lb = par_engine.optimize_all_branches(&mut tree2, 2);
        assert!((la - lb).abs() < 1e-3, "optimize: {la} vs {lb}");
        for (e1, e2) in tree.edges().iter().zip(tree2.edges().iter()) {
            assert_eq!(e1, e2);
            let l1 = tree.branch_length(e1.0, e1.1);
            let l2 = tree2.branch_length(e2.0, e2.1);
            assert!((l1 - l2).abs() < 1e-4, "branch {e1:?}: {l1} vs {l2}");
        }

        // A second, fresh parallel engine repeating the same optimization
        // from the same starting tree must agree with the first *to the
        // bit* — the reduction order is fixed by REDUCE_BLOCK, not by
        // scheduling.
        let model2 = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let mut par_engine2 = LikelihoodEngine::new(
            &w.alignment,
            model2,
            GammaRates::standard(0.7).unwrap(),
            LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() },
        );
        let mut tree3 = tree0.clone();
        let lb2 = par_engine2.optimize_all_branches(&mut tree3, 2);
        assert_eq!(lb.to_bits(), lb2.to_bits(), "parallel optimize not reproducible");
        for (e2, e3) in tree2.edges().iter().zip(tree3.edges().iter()) {
            assert_eq!(e2, e3);
            let l2 = tree2.branch_length(e2.0, e2.1);
            let l3 = tree3.branch_length(e3.0, e3.1);
            assert_eq!(l2.to_bits(), l3.to_bits(), "branch {e2:?}: {l2} vs {l3}");
        }
    }

    /// The determinism contract across thread counts: the same parallel
    /// likelihood under `RAYON_NUM_THREADS` ∈ {1, 2, 8} must be the same
    /// f64 to the bit. `REDUCE_BLOCK` fixes the association boundaries and
    /// the indexed partial buffers fix the reduction order, so thread count
    /// can only change scheduling, never association.
    #[test]
    fn parallel_lnl_is_bit_identical_across_thread_counts() {
        let w =
            SimulationConfig { mean_branch: 0.4, ..SimulationConfig::new(8, 2400, 41) }.generate();
        assert!(w.alignment.n_patterns() > 2 * MIN_CHUNK);
        let mut rng = StdRng::seed_from_u64(11);
        let tree = Tree::random(8, 0.2, &mut rng).unwrap();

        let run = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
            let mut engine = LikelihoodEngine::new(
                &w.alignment,
                model,
                GammaRates::standard(0.7).unwrap(),
                LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() },
            );
            let lnl = engine.log_likelihood(&tree);
            let opt = engine.optimize_all_branches(&mut tree.clone(), 2);
            (lnl.to_bits(), opt.to_bits())
        };

        let one = run("1");
        let two = run("2");
        let eight = run("8");
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(one, two, "1 vs 2 threads");
        assert_eq!(one, eight, "1 vs 8 threads");
    }

    /// Synthetic tip codes for the granule-invariance tests: a cycle of the
    /// four unambiguous DNA bit codes plus occasional ambiguity codes, so
    /// per-pattern likelihoods vary and a mis-sliced block would change the
    /// sum.
    fn synthetic_codes(n: usize) -> Vec<u8> {
        (0..n).map(|i| [1u8, 2, 4, 8, 1, 2, 5, 15][i % 8]).collect()
    }

    /// Per-rate `P` matrices that are valid (rows sum to 1) but asymmetric
    /// enough that every pattern/rate contributes a distinct value.
    fn synthetic_pmats(n_rates: usize) -> Vec<Mat4> {
        (0..n_rates)
            .map(|c| {
                let d = 0.55 + 0.08 * c as f64;
                let o = (1.0 - d) / 3.0;
                let mut m = [[o; 4]; 4];
                for (s, row) in m.iter_mut().enumerate() {
                    row[s] = d;
                }
                m
            })
            .collect()
    }

    /// The tentpole invariant for the adaptive granule: `evaluate_blocks`
    /// must be bit-identical for *every* scheduling granule, because the
    /// floating-point association is pinned to [`REDUCE_BLOCK`]-sized
    /// slots, not to the task size. Granule 1 is exactly the old fixed
    /// 256-pattern scheme, so this also pins backward bit-compatibility.
    #[test]
    fn evaluate_is_bit_identical_across_granules() {
        let n = 3001; // ragged tail: not a multiple of REDUCE_BLOCK or TILE
        let n_rates = 4;
        let codes_u = synthetic_codes(n);
        let codes_v: Vec<u8> = synthetic_codes(n).into_iter().rev().collect();
        let pmats = synthetic_pmats(n_rates);
        let freqs = [0.22, 0.28, 0.31, 0.19];
        let weights: Vec<f64> = (0..n).map(|i| (i % 7 + 1) as f64).collect();

        let eval = |granule_blocks: usize| {
            evaluate_blocks(
                &EvalOperand::Tip { codes: &codes_u },
                &EvalOperand::Tip { codes: &codes_v },
                &pmats,
                &freqs,
                &weights,
                n_rates,
                KernelKind::Vector,
                granule_blocks,
            )
        };
        let reference = eval(1);
        for granule in [2, 3, 5, 32, 64] {
            assert_eq!(
                reference.to_bits(),
                eval(granule).to_bits(),
                "granule {granule} changed the evaluate association"
            );
        }
    }

    /// Same invariant for the Newton-derivative reduction: per-block
    /// partial triples keep their own slots, so any granule folds in the
    /// same order.
    #[test]
    fn newton_is_bit_identical_across_granules() {
        let n = 2817;
        let n_rates = 4;
        let stride = n_rates * 4;
        // Deterministic positive pseudo-random sum-table entries.
        let st_data: Vec<f64> = (0..n * stride)
            .map(|i| {
                let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                z ^= z >> 31;
                0.05 + (z % 1000) as f64 / 1100.0
            })
            .collect();
        let st_scale: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let lambdas = [0.0, -1.3286, -0.9174, -2.0521];
        let rates = [0.2, 0.6, 1.1, 2.1];
        let weights: Vec<f64> = (0..n).map(|i| (i % 5 + 1) as f64).collect();

        let newton = |granule_blocks: usize| {
            newton_blocks(
                &st_data,
                &st_scale,
                n_rates,
                &lambdas,
                &rates,
                0.083,
                &weights,
                ExpImpl::default(),
                KernelKind::Vector,
                granule_blocks,
            )
        };
        let (l0, d1_0, d2_0) = newton(1);
        assert!(l0.is_finite() && d1_0.is_finite() && d2_0.is_finite());
        for granule in [2, 4, 7, 32] {
            let (l, d1, d2) = newton(granule);
            assert_eq!(l0.to_bits(), l.to_bits(), "granule {granule} changed lnL");
            assert_eq!(d1_0.to_bits(), d1.to_bits(), "granule {granule} changed d1");
            assert_eq!(d2_0.to_bits(), d2.to_bits(), "granule {granule} changed d2");
        }
    }

    /// `newview` writes are per-pattern disjoint, so any chunk width must
    /// reproduce the sequential kernel bit-for-bit — partials, scale
    /// counts, and the integer scaling statistics.
    #[test]
    fn newview_is_bit_identical_across_chunks_and_vs_sequential() {
        let n = 1931;
        let n_rates = 4;
        let codes_l = synthetic_codes(n);
        let codes_r: Vec<u8> = synthetic_codes(n).into_iter().rev().collect();
        let pmats = synthetic_pmats(n_rates);
        let tables_l = kernels::build_tip_tables(&pmats);
        let tables_r = kernels::build_tip_tables(&pmats);
        let len = kernels::tiled_len(n, n_rates);

        let mut seq_x = vec![0.0f64; len];
        let mut seq_scale = vec![0u32; n];
        let seq_stats = kernels::newview(
            &Child::Tip { codes: &codes_l, tables: &tables_l },
            &Child::Tip { codes: &codes_r, tables: &tables_r },
            &mut seq_x,
            &mut seq_scale,
            n_rates,
            KernelKind::Vector,
            ScalingCheck::IntegerCast,
        );

        for chunk in [REDUCE_BLOCK, 2 * REDUCE_BLOCK, 5 * REDUCE_BLOCK, 32 * REDUCE_BLOCK] {
            let mut x = vec![0.0f64; len];
            let mut scale = vec![0u32; n];
            let stats = newview_chunked(
                &Child::Tip { codes: &codes_l, tables: &tables_l },
                &Child::Tip { codes: &codes_r, tables: &tables_r },
                &mut x,
                &mut scale,
                n_rates,
                KernelKind::Vector,
                ScalingCheck::IntegerCast,
                chunk,
            );
            assert_eq!(stats, seq_stats, "chunk {chunk} changed the scale stats");
            assert_eq!(scale, seq_scale, "chunk {chunk} changed the scale counts");
            assert!(
                x.iter().zip(seq_x.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "chunk {chunk} changed the partials"
            );
        }
    }

    /// The granule is clamped to [1, 32] blocks and scales with the
    /// pattern count, never below one block.
    #[test]
    fn granule_adapts_within_bounds() {
        for n in [1, 100, 511, 512, 10_000, 1_000_000, 10_000_000] {
            let g = granule_blocks(n);
            assert!((1..=32).contains(&g), "granule {g} out of bounds at {n} patterns");
        }
        // Tiny inputs always get the minimum granule.
        assert_eq!(granule_blocks(1), 1);
        // Huge inputs hit the cap regardless of worker count.
        assert_eq!(granule_blocks(100_000_000), 32);
    }
}
