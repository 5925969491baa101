//! Shared per-layer report helpers.

use crate::Report;
use phylo::trace::TraceCounters;

pub fn add_counters(acc: &mut TraceCounters, c: &TraceCounters) {
    acc.newview_calls += c.newview_calls;
    acc.makenewz_calls += c.makenewz_calls;
    acc.evaluate_calls += c.evaluate_calls;
    acc.newton_iters += c.newton_iters;
    acc.patterns_processed += c.patterns_processed;
}

pub fn put_kernel_counts(report: &mut Report, c: &TraceCounters) {
    report.put("kernel.newview_calls", c.newview_calls as f64, "count");
    report.put("kernel.makenewz_calls", c.makenewz_calls as f64, "count");
    report.put("kernel.evaluate_calls", c.evaluate_calls as f64, "count");
    report.put("kernel.newton_iters", c.newton_iters as f64, "count");
    report.put("kernel.patterns_processed", c.patterns_processed as f64, "count");
}

/// Layers a workload never reaches. They report zero so every traced run
/// carries the full per-layer set.
pub struct Absent {
    /// `wire.*` and `service.*`: no server on the path.
    pub wire_service: bool,
    /// `io.parse_ms`, `alignment.compress_ms`, `checkpoint.*`.
    pub io_checkpoint: bool,
    /// `loadgen.*` and `ledger.*`: no open-loop traffic.
    pub loadgen: bool,
    /// `kernel.*`, `engine.*` and `profile.*`: the kernels run inside the
    /// service, out of the benchmark's reach.
    pub kernels: bool,
}

impl Absent {
    pub const BATCH: Absent =
        Absent { wire_service: true, io_checkpoint: true, loadgen: true, kernels: false };
    pub const SCALE: Absent =
        Absent { wire_service: true, io_checkpoint: false, loadgen: true, kernels: false };
    pub const SERVED: Absent =
        Absent { wire_service: false, io_checkpoint: false, loadgen: false, kernels: true };
}

pub fn put_absent_layers(report: &mut Report, absent: Absent) {
    let mut zero = |names: &[(&str, &'static str)]| {
        for &(name, unit) in names {
            report.put(name, 0.0, unit);
        }
    };
    if absent.wire_service {
        zero(&[
            ("wire.submit_rtt_ms.p50", "ms"),
            ("wire.submit_rtt_ms.p99", "ms"),
            ("wire.status_rtt_ms.p50", "ms"),
            ("wire.status_rtt_ms.p99", "ms"),
            ("wire.polls_per_job", "count"),
            ("service.admit_journal_ms.p50", "ms"),
            ("service.journal_syncs_per_job", "count"),
            ("service.queue_wait_ms.p50", "ms"),
            ("service.queue_wait_ms.p90", "ms"),
            ("service.run_ms.p50", "ms"),
            ("service.seal_ms.p50", "ms"),
            ("service.spans_per_job", "count"),
        ]);
    }
    if absent.io_checkpoint {
        zero(&[
            ("io.parse_ms", "ms"),
            ("alignment.compress_ms", "ms"),
            ("checkpoint.write_ms", "ms"),
            ("checkpoint.bytes", "B"),
        ]);
    }
    if absent.loadgen {
        zero(&[
            ("loadgen.lag_ms.p99", "ms"),
            ("ledger.residue_ms.p50", "ms"),
            ("ledger.residue_frac", "frac"),
        ]);
    }
    if absent.kernels {
        zero(&[
            ("kernel.newview_calls", "count"),
            ("kernel.makenewz_calls", "count"),
            ("kernel.evaluate_calls", "count"),
            ("kernel.newton_iters", "count"),
            ("kernel.patterns_processed", "count"),
            ("kernel.flops", "flop"),
            ("kernel.bytes", "B"),
            ("engine.reuse_frac", "frac"),
            ("engine.traversal_ms", "ms"),
            ("engine.newview_patterns_per_s", "1/s"),
            ("engine.branch_pass_ms", "ms"),
            ("engine.newviews_per_branch", "count"),
            ("profile.newview_frac", "frac"),
            ("profile.makenewz_frac", "frac"),
            ("profile.evaluate_frac", "frac"),
            ("profile.residue_frac", "frac"),
        ]);
    }
}
