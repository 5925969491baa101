//! Unified structured event sink for the whole simulation stack.
//!
//! Every layer — the discrete-event scheduler core, the DMA/EIB/comm
//! models, the EDTLP/LLP/MGPS schedulers, and the phylo search drivers —
//! emits timestamped spans and counters into one [`TraceLog`]. Two
//! exporters turn a log into artifacts:
//!
//! * [`TraceLog::to_chrome_trace`] — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing` for a per-SPE timeline view,
//! * [`TraceLog::to_metrics_jsonl`] — line-delimited JSON metric
//!   snapshots for machine consumption.
//!
//! [`TraceLog::summary`] independently re-derives the per-SPE busy/stall
//! accounting from the recorded spans, which makes the simulator's
//! [`crate::stats::SimStats`] numbers *self-checking*: a test can assert
//! that what the stats counted is exactly what the timeline shows.
//!
//! ## Overhead contract
//!
//! A disabled log ([`TraceLog::disabled`]) is inert: every emit method
//! early-returns before touching the event buffer, so the instrumented hot
//! paths pay one branch and zero heap operations (proven by the
//! `trace_overhead` integration test with a counting allocator). All event
//! payloads use `Copy` data and `&'static str` names — recording itself
//! never formats or allocates per event beyond the buffer's amortized
//! growth.

use crate::time::Cycles;
use obs::json::finite;

/// What happened at one point (or over one span) of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventData {
    /// One SPE's share of an offloaded burst: `busy` compute cycles and
    /// `dma` stall cycles charged to SPE `spe` over a wall window of `dur`.
    SpeBurst { spe: u32, worker: u32, dur: Cycles, busy: Cycles, dma: Cycles },
    /// A PPE hardware-thread grant to `worker` for `dur` cycles.
    /// `fallback` marks degraded SPE work running on the PPE.
    PpeSpan { worker: u32, dur: Cycles, fallback: bool },
    /// Worker `worker` picked up job `job`.
    TaskStart { worker: u32, job: u32 },
    /// Worker `worker` finished job `job`.
    TaskComplete { worker: u32, job: u32 },
    /// One DMA transfer (including retries) on stream `stream`.
    DmaTransfer { stream: u32, bytes: u64, dur: Cycles, attempts: u32 },
    /// One PPE↔SPE signalling round trip (including retries).
    Signal { stream: u32, dur: Cycles, attempts: u32 },
    /// A fault-machinery event: `kind` is one of `"retry"`, `"redispatch"`,
    /// `"blacklist"`, `"degradation"`, `"dma_fault"`, `"signal_fault"`;
    /// `unit` is the SPE/worker/stream it concerns.
    Fault { kind: &'static str, unit: u32 },
    /// A named scheduler phase (e.g. an MGPS EDTLP batch) spanning `dur`.
    PhaseSpan { name: &'static str, dur: Cycles },
    /// One SPR search round mapped onto the simulated timeline.
    RoundSpan { round: u32, dur: Cycles },
    /// A named metric snapshot.
    Counter { name: &'static str, value: f64 },
}

/// One recorded event: an absolute timestamp plus its payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Absolute simulated time in cycles (the log's offset already applied).
    pub at: Cycles,
    pub data: EventData,
}

/// The structured event sink. See the module docs for the overhead
/// contract.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    enabled: bool,
    /// Added to every emitted timestamp — lets multi-segment simulations
    /// (MGPS's EDTLP batch followed by its LLP tail, which restarts the DES
    /// clock at zero) stitch into one timeline.
    offset: Cycles,
    events: Vec<TraceEvent>,
    /// Latest value per distinct counter name, maintained at emit time so
    /// [`TraceLog::last_counter`] and [`TraceLog::counters_snapshot`] never
    /// scan the event buffer. A `Vec` rather than a map: counter names are
    /// `&'static str` literals and a trace has a handful of distinct ones,
    /// so the linear probe on emit is cheaper than hashing.
    counters: Vec<(&'static str, f64)>,
}

impl TraceLog {
    /// An inert log: every emit is a no-op that never touches the heap.
    pub fn disabled() -> TraceLog {
        TraceLog::default()
    }

    /// A recording log.
    pub fn enabled() -> TraceLog {
        TraceLog { enabled: true, ..TraceLog::default() }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Set the base offset added to subsequently emitted timestamps.
    pub fn set_offset(&mut self, offset: Cycles) {
        self.offset = offset;
    }

    /// The current timestamp offset.
    pub fn offset(&self) -> Cycles {
        self.offset
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all recorded events (keeps mode and offset).
    pub fn clear(&mut self) {
        self.events.clear();
        self.counters.clear();
    }

    /// Emit one event at relative time `at` (the offset is applied here).
    #[inline]
    pub fn emit(&mut self, at: Cycles, data: EventData) {
        if !self.enabled {
            return;
        }
        if let EventData::Counter { name, value } = data {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some(entry) => entry.1 = value,
                None => self.counters.push((name, value)),
            }
        }
        self.events.push(TraceEvent { at: self.offset + at, data });
    }

    /// An SPE's share of an offloaded burst.
    #[inline]
    pub fn spe_burst(
        &mut self,
        at: Cycles,
        spe: usize,
        worker: usize,
        dur: Cycles,
        busy: Cycles,
        dma: Cycles,
    ) {
        self.emit(
            at,
            EventData::SpeBurst { spe: spe as u32, worker: worker as u32, dur, busy, dma },
        );
    }

    /// A PPE hardware-thread grant.
    #[inline]
    pub fn ppe_span(&mut self, at: Cycles, worker: usize, dur: Cycles, fallback: bool) {
        self.emit(at, EventData::PpeSpan { worker: worker as u32, dur, fallback });
    }

    /// A task dispatch instant.
    #[inline]
    pub fn task_start(&mut self, at: Cycles, worker: usize, job: usize) {
        self.emit(at, EventData::TaskStart { worker: worker as u32, job: job as u32 });
    }

    /// A task completion instant.
    #[inline]
    pub fn task_complete(&mut self, at: Cycles, worker: usize, job: usize) {
        self.emit(at, EventData::TaskComplete { worker: worker as u32, job: job as u32 });
    }

    /// A task that completed *without* producing a result (panicked or was
    /// failed by fault injection) — recorded as a `"job-failure"` fault
    /// instant on `worker`, so failed jobs show up in the fault lane and in
    /// [`TraceSummary::faults`]. Emitted by the farm-tier bridge alongside
    /// the ordinary [`TraceLog::task_complete`].
    #[inline]
    pub fn task_failed(&mut self, at: Cycles, worker: usize) {
        self.emit(at, EventData::Fault { kind: "job-failure", unit: worker as u32 });
    }

    /// A DMA transfer span.
    #[inline]
    pub fn dma_transfer(
        &mut self,
        at: Cycles,
        stream: u64,
        bytes: u64,
        dur: Cycles,
        attempts: u32,
    ) {
        self.emit(at, EventData::DmaTransfer { stream: stream as u32, bytes, dur, attempts });
    }

    /// A signalling round-trip span.
    #[inline]
    pub fn signal(&mut self, at: Cycles, stream: u64, dur: Cycles, attempts: u32) {
        self.emit(at, EventData::Signal { stream: stream as u32, dur, attempts });
    }

    /// A fault-machinery instant.
    #[inline]
    pub fn fault(&mut self, at: Cycles, kind: &'static str, unit: usize) {
        self.emit(at, EventData::Fault { kind, unit: unit as u32 });
    }

    /// A named scheduler-phase span.
    #[inline]
    pub fn phase_span(&mut self, at: Cycles, name: &'static str, dur: Cycles) {
        self.emit(at, EventData::PhaseSpan { name, dur });
    }

    /// An SPR-round span.
    #[inline]
    pub fn round_span(&mut self, at: Cycles, round: u32, dur: Cycles) {
        self.emit(at, EventData::RoundSpan { round, dur });
    }

    /// A metric snapshot.
    #[inline]
    pub fn counter(&mut self, at: Cycles, name: &'static str, value: f64) {
        self.emit(at, EventData::Counter { name, value });
    }

    /// Re-derive aggregate accounting from the recorded spans.
    pub fn summary(&self, n_spes: usize) -> TraceSummary {
        let mut s = TraceSummary {
            spe_busy: vec![0; n_spes],
            spe_stalled: vec![0; n_spes],
            spe_bursts: vec![0; n_spes],
            ppe_busy: 0,
            end: 0,
            faults: 0,
        };
        for ev in &self.events {
            match ev.data {
                EventData::SpeBurst { spe, dur, busy, dma, .. } => {
                    let i = spe as usize;
                    if i < n_spes {
                        s.spe_busy[i] += busy;
                        s.spe_stalled[i] += dma;
                        s.spe_bursts[i] += 1;
                    }
                    s.end = s.end.max(ev.at + dur);
                }
                EventData::PpeSpan { dur, .. } => {
                    s.ppe_busy += dur;
                    s.end = s.end.max(ev.at + dur);
                }
                EventData::DmaTransfer { dur, .. }
                | EventData::Signal { dur, .. }
                | EventData::PhaseSpan { dur, .. }
                | EventData::RoundSpan { dur, .. } => {
                    s.end = s.end.max(ev.at + dur);
                }
                EventData::Fault { .. } => {
                    s.faults += 1;
                    s.end = s.end.max(ev.at);
                }
                _ => s.end = s.end.max(ev.at),
            }
        }
        s
    }

    /// The last recorded value of counter `name`, if any. Served from the
    /// per-name index maintained at emit time — O(distinct counter names),
    /// not a reverse scan of the whole event buffer.
    pub fn last_counter(&self, name: &str) -> Option<f64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The latest value of every distinct counter, in first-emission order.
    /// One slice borrow — the per-scrape export path reads every counter
    /// without touching the event buffer at all.
    pub fn counters_snapshot(&self) -> &[(&'static str, f64)] {
        &self.counters
    }

    /// Export as Chrome trace-event JSON (the object form with a
    /// `traceEvents` array), loadable in Perfetto and `chrome://tracing`.
    /// Timestamps convert from cycles to microseconds at `clock_hz`.
    ///
    /// Lane layout: tid 0..n = SPEs, tid 100+w = PPE grants per worker,
    /// tid 200+s = DMA/signal streams, tid 900+ = phases, rounds, faults.
    pub fn to_chrome_trace(&self, clock_hz: f64) -> String {
        let us = |cycles: Cycles| cycles as f64 / clock_hz * 1e6;
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"cellsim\"}}",
        );

        // Thread-name metadata for every lane that appears.
        let mut named: Vec<u32> = Vec::new();
        for ev in &self.events {
            let tid = lane_of(&ev.data);
            if !named.contains(&tid) {
                named.push(tid);
                out.push(',');
                out.push_str(&format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                    lane_name(tid)
                ));
            }
        }

        for ev in &self.events {
            let tid = lane_of(&ev.data);
            let ts = us(ev.at);
            out.push(',');
            match ev.data {
                EventData::SpeBurst { worker, dur, busy, dma, .. } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"name\":\"burst w{worker}\",\"args\":{{\"busy_cycles\":{busy},\"dma_stall_cycles\":{dma}}}}}",
                        us(dur)
                    ));
                }
                EventData::PpeSpan { worker, dur, fallback } => {
                    let name = if fallback { "ppe fallback" } else { "ppe" };
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"name\":\"{name}\",\"args\":{{\"worker\":{worker}}}}}",
                        us(dur)
                    ));
                }
                EventData::TaskStart { worker, job } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"start job {job}\",\"args\":{{\"worker\":{worker}}}}}"
                    ));
                }
                EventData::TaskComplete { worker, job } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"complete job {job}\",\"args\":{{\"worker\":{worker}}}}}"
                    ));
                }
                EventData::DmaTransfer { bytes, dur, attempts, .. } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"name\":\"dma\",\"args\":{{\"bytes\":{bytes},\"attempts\":{attempts}}}}}",
                        us(dur)
                    ));
                }
                EventData::Signal { dur, attempts, .. } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"name\":\"signal\",\"args\":{{\"attempts\":{attempts}}}}}",
                        us(dur)
                    ));
                }
                EventData::Fault { kind, unit } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"g\",\"name\":\"{kind}\",\"args\":{{\"unit\":{unit}}}}}"
                    ));
                }
                EventData::PhaseSpan { name, dur } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"name\":\"{name}\",\"args\":{{}}}}",
                        us(dur)
                    ));
                }
                EventData::RoundSpan { round, dur } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"name\":\"SPR round {round}\",\"args\":{{}}}}",
                        us(dur)
                    ));
                }
                EventData::Counter { name, value } => {
                    out.push_str(&format!(
                        "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\"args\":{{\"value\":{}}}}}",
                        finite(value)
                    ));
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Export metric snapshots as line-delimited JSON: one summary line per
    /// SPE, one for the PPE, one per recorded counter, and a trailer with
    /// the derived makespan and utilization figures.
    pub fn to_metrics_jsonl(&self, clock_hz: f64, n_spes: usize) -> String {
        let s = self.summary(n_spes);
        let mut out = String::new();
        for i in 0..n_spes {
            out.push_str(&format!(
                "{{\"metric\":\"spe\",\"spe\":{i},\"busy_cycles\":{},\"dma_stall_cycles\":{},\"bursts\":{},\"utilization\":{},\"stall_fraction\":{}}}\n",
                s.spe_busy[i],
                s.spe_stalled[i],
                s.spe_bursts[i],
                finite(s.utilization(i)),
                finite(s.stall_fraction(i)),
            ));
        }
        out.push_str(&format!("{{\"metric\":\"ppe\",\"busy_cycles\":{}}}\n", s.ppe_busy));
        for ev in &self.events {
            if let EventData::Counter { name, value } = ev.data {
                out.push_str(&format!(
                    "{{\"metric\":\"counter\",\"name\":\"{name}\",\"at_cycles\":{},\"value\":{}}}\n",
                    ev.at,
                    finite(value)
                ));
            }
        }
        out.push_str(&format!(
            "{{\"metric\":\"totals\",\"makespan_cycles\":{},\"makespan_seconds\":{},\"events\":{},\"faults\":{},\"mean_spe_utilization\":{},\"mean_spe_stall_fraction\":{}}}\n",
            s.end,
            finite(s.end as f64 / clock_hz),
            self.events.len(),
            s.faults,
            finite(s.mean_utilization()),
            finite(s.mean_stall_fraction()),
        ));
        out
    }
}

/// Chrome-trace lane (tid) for an event.
fn lane_of(data: &EventData) -> u32 {
    match *data {
        EventData::SpeBurst { spe, .. } => spe,
        EventData::PpeSpan { worker, .. }
        | EventData::TaskStart { worker, .. }
        | EventData::TaskComplete { worker, .. } => 100 + worker,
        EventData::DmaTransfer { stream, .. } | EventData::Signal { stream, .. } => 200 + stream,
        EventData::PhaseSpan { .. } => 900,
        EventData::RoundSpan { .. } => 901,
        EventData::Fault { .. } => 902,
        EventData::Counter { .. } => 903,
    }
}

/// Human-readable lane name for the thread-name metadata.
fn lane_name(tid: u32) -> String {
    match tid {
        0..=99 => format!("SPE{tid}"),
        100..=199 => format!("PPE worker {}", tid - 100),
        200..=899 => format!("stream {}", tid - 200),
        900 => "phases".to_string(),
        901 => "SPR rounds".to_string(),
        902 => "faults".to_string(),
        _ => "counters".to_string(),
    }
}

/// Aggregates re-derived from a [`TraceLog`]'s spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Per-SPE busy (compute + signalling) cycles.
    pub spe_busy: Vec<Cycles>,
    /// Per-SPE DMA-stall cycles.
    pub spe_stalled: Vec<Cycles>,
    /// Per-SPE burst count.
    pub spe_bursts: Vec<u64>,
    /// Total PPE-thread grant cycles.
    pub ppe_busy: Cycles,
    /// Latest span end — the trace-derived makespan.
    pub end: Cycles,
    /// Fault instants recorded.
    pub faults: u64,
}

impl TraceSummary {
    /// Busy fraction of SPE `i` over the trace-derived makespan.
    pub fn utilization(&self, i: usize) -> f64 {
        if self.end == 0 {
            return 0.0;
        }
        self.spe_busy[i] as f64 / self.end as f64
    }

    /// DMA-stall fraction of SPE `i` over the trace-derived makespan.
    pub fn stall_fraction(&self, i: usize) -> f64 {
        if self.end == 0 {
            return 0.0;
        }
        self.spe_stalled[i] as f64 / self.end as f64
    }

    /// Mean SPE busy fraction (the trace-derived analogue of
    /// [`crate::stats::SimStats::spe_utilization`]).
    pub fn mean_utilization(&self) -> f64 {
        if self.end == 0 || self.spe_busy.is_empty() {
            return 0.0;
        }
        let busy: Cycles = self.spe_busy.iter().sum();
        busy as f64 / (self.end as f64 * self.spe_busy.len() as f64)
    }

    /// Mean SPE DMA-stall fraction.
    pub fn mean_stall_fraction(&self) -> f64 {
        if self.end == 0 || self.spe_stalled.is_empty() {
            return 0.0;
        }
        let stalled: Cycles = self.spe_stalled.iter().sum();
        stalled as f64 / (self.end as f64 * self.spe_stalled.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::enabled();
        log.task_start(0, 0, 0);
        log.ppe_span(0, 0, 100, false);
        log.spe_burst(100, 0, 0, 900, 800, 100);
        log.spe_burst(100, 1, 0, 900, 800, 100);
        log.dma_transfer(150, 3, 2048, 928, 1);
        log.signal(1080, 3, 960, 1);
        log.fault(500, "retry", 1);
        log.phase_span(0, "EDTLP", 1000);
        log.round_span(0, 0, 1000);
        log.counter(1000, "eib_contention", 1.5);
        log.task_complete(1000, 0, 0);
        log
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        assert!(!log.is_enabled());
        log.spe_burst(0, 0, 0, 100, 90, 10);
        log.ppe_span(0, 0, 100, false);
        log.counter(0, "x", 1.0);
        assert!(log.is_empty());
        assert_eq!(log.summary(8).end, 0);
    }

    #[test]
    fn offset_stitches_segments() {
        let mut log = TraceLog::enabled();
        log.spe_burst(10, 0, 0, 90, 90, 0);
        log.set_offset(1000);
        log.spe_burst(10, 0, 0, 90, 90, 0);
        assert_eq!(log.events()[0].at, 10);
        assert_eq!(log.events()[1].at, 1010);
        let s = log.summary(1);
        assert_eq!(s.end, 1100);
        assert_eq!(s.spe_busy[0], 180);
    }

    #[test]
    fn summary_rederives_accounting() {
        let log = sample_log();
        let s = log.summary(8);
        assert_eq!(s.spe_busy[0], 800);
        assert_eq!(s.spe_stalled[0], 100);
        assert_eq!(s.spe_busy[1], 800);
        assert_eq!(s.spe_bursts[0], 1);
        assert_eq!(s.ppe_busy, 100);
        assert_eq!(s.faults, 1);
        assert_eq!(s.end, 1080 + 960);
        assert!(s.utilization(0) > 0.0);
        assert!(s.mean_utilization() > 0.0);
        assert_eq!(log.last_counter("eib_contention"), Some(1.5));
        assert_eq!(log.last_counter("missing"), None);
    }

    #[test]
    fn counter_index_tracks_latest_values() {
        let mut log = TraceLog::enabled();
        log.counter(10, "a", 1.0);
        log.counter(20, "b", 2.0);
        log.counter(30, "a", 3.0);
        assert_eq!(log.last_counter("a"), Some(3.0), "index holds the latest emission");
        assert_eq!(log.counters_snapshot(), &[("a", 3.0), ("b", 2.0)]);
        // The index agrees with a full scan of the event buffer.
        for &(name, value) in log.counters_snapshot() {
            let scanned = log
                .events()
                .iter()
                .rev()
                .find_map(|ev| match ev.data {
                    EventData::Counter { name: n, value } if n == name => Some(value),
                    _ => None,
                })
                .unwrap();
            assert_eq!(scanned, value);
        }
        log.clear();
        assert!(log.counters_snapshot().is_empty());
        assert_eq!(log.last_counter("a"), None);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let text = sample_log().to_chrome_trace(3.2e9);
        obs::json::parse(&text).expect("chrome trace must parse");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"ph\":\"M\""));
        assert!(text.contains("SPE0"));
        assert!(text.contains("SPR round 0"));
        assert!(text.contains("eib_contention"));
    }

    #[test]
    fn metrics_jsonl_is_valid_and_complete() {
        let text = sample_log().to_metrics_jsonl(3.2e9, 8);
        obs::json::validate_jsonl(&text).expect("jsonl must parse");
        // 8 SPE lines + 1 PPE + 1 counter + 1 totals.
        assert_eq!(text.lines().count(), 11);
        assert!(text.contains("\"metric\":\"totals\""));
        assert!(text.contains("\"metric\":\"counter\""));
    }

    #[test]
    fn empty_log_exports_cleanly() {
        let log = TraceLog::enabled();
        obs::json::parse(&log.to_chrome_trace(3.2e9)).unwrap();
        obs::json::validate_jsonl(&log.to_metrics_jsonl(3.2e9, 8)).unwrap();
    }

    #[test]
    fn task_failed_lands_in_the_fault_lane() {
        let mut log = TraceLog::enabled();
        log.task_start(0, 2, 5);
        log.task_failed(10, 2);
        log.task_complete(10, 2, 5);
        let s = log.summary(1);
        assert_eq!(s.faults, 1);
        let text = log.to_chrome_trace(3.2e9);
        obs::json::parse(&text).unwrap();
        assert!(text.contains("job-failure"));
        // Disabled logs stay inert.
        let mut off = TraceLog::disabled();
        off.task_failed(0, 0);
        assert!(off.is_empty());
    }

    #[test]
    fn clear_keeps_mode() {
        let mut log = sample_log();
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
        assert!(log.is_enabled());
    }
}
