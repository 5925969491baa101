//! The served workloads: an in-process `InferenceService` with a durable
//! state directory (default `SyncPolicy::EveryAppend`) behind a `Server`,
//! driven over the wire by an open-loop generator with one connection per
//! core and two tenants sharing them.
//!
//! * `serve_aln42` — 42_SC jobs on the fast preset, half asking for
//!   per-round checkpoints, at one fixed rate near three quarters of the
//!   seed's capacity.
//! * `serve_small` — 8×300 jobs on the fast preset capped at one SPR round,
//!   at a fixed reference rate, then a capacity search over offered rates.

use crate::layers::{put_absent_layers, Absent};
use crate::ledger::{self, ClientTimes, Ledger, ServiceSpans};
use crate::loadgen::{self, Plan, Planned, Sample};
use crate::stats::{highest_supported, mean, median, ms, pct};
use crate::{nproc, peak_rss_mb, repeated_setup, setup_repeats, Args, Report, WorkDir};
use phylo::checkpoint::{SearchCheckpoint, SearchCheckpointer};
use phylo::likelihood::LikelihoodWorkspace;
use phylo::prelude::*;
use serve::client::http_get;
use serve::wire::{JobKind, JobSpec, Preset, WireState};
use serve::{InferenceService, Server, ServiceConfig, ShutdownReport};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATASET: &str = "bench";
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Ledger tolerance for disagreement between the client and service
/// clocks (the service epoch is taken microseconds after the run origin).
const CLOCK_GRANULARITY_NS: u64 = 100_000;
/// The capacity search's p90 limit, as a multiple of the in-process job
/// time (5-14 ms across seeds). Loose enough that a lightly loaded probe
/// passes today, when two stalled round trips add ~90 ms to every job;
/// overload still fails it, since its latency grows without bound.
const LIMIT_FACTOR: u64 = 40;
/// The warm-up job's seed: fixed, so set-up does the same work every run.
const WARMUP_JOB_SEED: u64 = 0x5EED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Aln42,
    Small,
}

/// Traffic parameters of a mix.
struct Traffic {
    /// Offered rate of the measured window, jobs per second.
    rate: f64,
    poll: Duration,
    /// Served jobs checked bit for bit against in-process `run_inference`.
    checked: usize,
}

impl Mix {
    fn traffic(self) -> Traffic {
        match self {
            // ~0.6-0.7 s per job on 2 workers: 2 jobs/s is 60-70% of
            // capacity, with headroom for a host running slow.
            Mix::Aln42 => Traffic { rate: 2.0, poll: Duration::from_millis(10), checked: 3 },
            Mix::Small => Traffic { rate: 10.0, poll: Duration::from_millis(2), checked: 24 },
        }
    }

    fn alignment(self, seed: u64) -> Result<PatternAlignment, String> {
        let config = match self {
            Mix::Aln42 => SimulationConfig::aln42(),
            Mix::Small => SimulationConfig::new(8, 300, seed),
        };
        config.try_generate().map(|w| w.alignment).map_err(|e| e.to_string())
    }

    /// Job seeds `first..first + n` of a run. `serve_small` draws them from
    /// the run seed; `serve_aln42` takes a fixed set in a seed-drawn order
    /// (see [`crate::shuffled_pool`]), so every run offers the same work.
    fn job_seeds(self, seed: u64, first: usize, n: usize) -> Vec<u64> {
        match self {
            Mix::Small => (first..first + n)
                .map(|i| obs::trace::splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
                .collect(),
            Mix::Aln42 => crate::shuffled_pool(0xA1_42, first + n, seed).split_off(first),
        }
    }

    /// The spec of the job at position `i` of the schedule.
    fn spec(self, job_seed: u64, i: usize) -> JobSpec {
        let mut spec = JobSpec::new(DATASET, JobKind::Search, job_seed, Preset::Fast);
        match self {
            Mix::Aln42 if (i / 4) % 2 == 1 => spec = spec.checkpointed(),
            Mix::Aln42 => {}
            Mix::Small => spec.max_spr_rounds = Some(1),
        }
        spec
    }
}

/// A running service and server; stopped (server first) when dropped.
struct Stack {
    server: Option<Server>,
    service: Arc<InferenceService>,
    /// The service's state directory.
    state: std::path::PathBuf,
    /// The run clock's origin, taken just before the service started.
    origin: Instant,
    aln: PatternAlignment,
    /// In-process `run_inference` time of the mix's job, median of the
    /// warm-up runs.
    inproc_job_ns: u64,
    /// Job ids the warm-up admitted.
    warmup_jobs: Vec<u64>,
}

impl Stack {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server runs until shutdown").addr()
    }

    /// Stop the server, drain the service, return its final accounting.
    fn shutdown(&mut self) -> Result<ShutdownReport, String> {
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
        self.service.shutdown().ok_or_else(|| "service already shut down".to_string())
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
        let _ = self.service.shutdown();
    }
}

/// Input generation, service start, dataset registration and warm-up.
fn start(mix: Mix, seed: u64, work: &WorkDir, attempt: usize) -> Result<Stack, String> {
    let aln = mix.alignment(seed)?;
    let state = work.fresh(&format!("state-{attempt}"))?;
    // Touch the process-wide registries first so the service epoch follows
    // the origin by as little as possible.
    let config = ServiceConfig::new(nproc()).with_state_dir(&state);
    let _ = (obs::global(), obs::trace::global());
    let origin = Instant::now();
    let service =
        Arc::new(InferenceService::start(config).map_err(|e| format!("service start: {e}"))?);
    service.register_dataset(DATASET, aln.clone());
    let server =
        Server::bind("127.0.0.1:0", service.clone()).map_err(|e| format!("server bind: {e}"))?;
    let mut stack = Stack {
        server: Some(server),
        service,
        state,
        origin,
        aln,
        inproc_job_ns: 0,
        warmup_jobs: vec![],
    };

    // Warm-up: the mix's job in process (timing it) and once over the wire.
    let spec = mix.spec(WARMUP_JOB_SEED, 0);
    let reps = if mix == Mix::Small { 5 } else { 1 };
    let mut times = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        run_inference(&stack.aln, &spec.to_request(), InferenceOptions::new())
            .map_err(|e| format!("warm-up: {e}"))?;
        times.push(t0.elapsed().as_nanos() as f64);
    }
    stack.inproc_job_ns = median(&times) as u64;
    let mut client =
        serve::Client::connect(stack.addr()).map_err(|e| format!("warm-up connect: {e}"))?;
    let job = client
        .submit(TENANTS[0], &spec)
        .map_err(|e| format!("warm-up submit: {e}"))?
        .map_err(|r| format!("warm-up rejected: {r:?}"))?;
    stack.warmup_jobs.push(job);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(job).map_err(|e| format!("warm-up status: {e}"))?;
        if status.state == WireState::Done {
            break;
        }
        if status.state.is_terminal() || Instant::now() > deadline {
            return Err(format!("warm-up job ended {:?}", status.state));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(stack)
}

/// `n` jobs at `rate` from `start_ns`, numbered from `first`.
fn plan(mix: Mix, seed: u64, first: usize, n: usize, rate: f64, start_ns: u64) -> Plan {
    let traffic = mix.traffic();
    let seeds = mix.job_seeds(seed, first, n);
    let jobs: Vec<Planned> = loadgen::due_times(start_ns, rate, n)
        .into_iter()
        .zip(seeds)
        .enumerate()
        .map(|(k, (due, job_seed))| {
            let i = first + k;
            Planned { due, tenant: TENANTS[(i / 2) % 2], spec: mix.spec(job_seed, i) }
        })
        .collect();
    let last_due = jobs.last().map_or(start_ns, |j| j.due);
    let slack = if mix == Mix::Aln42 { 60 } else { 20 };
    Plan {
        jobs,
        poll_ns: traffic.poll.as_nanos() as u64,
        send_grace_ns: 10_000_000_000,
        deadline_ns: last_due + slack * 1_000_000_000,
    }
}

/// One open-loop pass: jobs numbered from `first`, starting 20 ms from now.
fn pass(stack: &Stack, mix: Mix, seed: u64, first: usize, n: usize, rate: f64) -> Pass {
    let start = stack.origin.elapsed().as_nanos() as u64 + 20_000_000;
    let plan = plan(mix, seed, first, n, rate, start);
    let samples = loadgen::run(stack.addr(), stack.origin, &plan, nproc());
    Pass { plan, samples }
}

struct Pass {
    plan: Plan,
    samples: Vec<Sample>,
}

impl Pass {
    fn e2e_ms(&self) -> Vec<f64> {
        self.samples.iter().filter_map(Sample::e2e).map(ms).collect()
    }

    fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok()).count()
    }

    /// First due time to last completion seen.
    fn window_ns(&self) -> u64 {
        let first = self.samples.first().map_or(0, |s| s.due);
        let last = self.samples.iter().filter_map(|s| s.observed).max().unwrap_or(first);
        last.saturating_sub(first).max(1)
    }

    fn achieved_rate(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.ok()).count();
        ok as f64 / (self.window_ns() as f64 / 1e9)
    }
}

/// Served results must equal in-process `run_inference` of the same spec:
/// lnL bits, Γ-shape bits and the exact tree string. Checks `count` jobs
/// spread over the pass; returns the checked results' trees (exact form).
fn check_results(report: &mut Report, stack: &Stack, p: &Pass, count: usize) -> Vec<String> {
    let ok: Vec<(usize, &Sample)> = p.samples.iter().enumerate().filter(|(_, s)| s.ok()).collect();
    let step = (ok.len() / count.max(1)).max(1);
    let mut trees = Vec::new();
    for &(i, s) in ok.iter().step_by(step).take(count) {
        let spec = &p.plan.jobs[i].spec;
        let served =
            s.status.as_ref().and_then(|st| st.result.as_ref()).expect("ok jobs carry a result");
        match run_inference(&stack.aln, &spec.to_request(), InferenceOptions::new()) {
            Ok(out) => {
                let r = out.result;
                report.check(
                    r.log_likelihood.to_bits() == served.log_likelihood.to_bits()
                        && r.alpha.to_bits() == served.alpha.to_bits()
                        && r.tree.to_exact_string() == served.tree_exact,
                    || format!("served job {i} differs from in-process run_inference"),
                );
            }
            Err(e) => report.fail(format!("in-process replay of job {i} failed: {e}")),
        }
        trees.push(served.tree_exact.clone());
    }
    trees
}

/// Exactly-once and accounting cross-checks at shutdown.
fn check_shutdown(report: &mut Report, r: &ShutdownReport, admitted: &[u64]) {
    let distinct: HashSet<u64> = admitted.iter().copied().collect();
    report.check(distinct.len() == admitted.len(), || "a job id was issued twice".into());
    let s = &r.stats;
    report.check(s.accepted == admitted.len() as u64, || {
        format!("service accepted {} jobs, clients were told {}", s.accepted, admitted.len())
    });
    report.check(r.dispatched == r.farm.n_jobs, || {
        format!("dispatched {} but the farm ran {}", r.dispatched, r.farm.n_jobs)
    });
    report.check(r.sealed_ok + r.sealed_failed == r.dispatched as u64, || {
        format!("sealed {}+{} of {} dispatched", r.sealed_ok, r.sealed_failed, r.dispatched)
    });
    report.check(s.completed + s.failed + s.cancelled == s.accepted, || {
        format!("settled {}+{}+{} of {} accepted", s.completed, s.failed, s.cancelled, s.accepted)
    });
    report.check(s.failed == 0 && r.farm.n_failed == 0, || "the service reported failures".into());
}

/// The capacity search on `serve_small`: the highest offered rate whose
/// p90, failures counting as misses, stays within `limit_ns` with no
/// growing backlog. Returns the sustained (achieved) rate of that probe.
fn capacity(stack: &Stack, seed: u64, first: usize, limit_ns: u64, admitted: &mut Vec<u64>) -> f64 {
    const LO: f64 = 5.0;
    const HI: f64 = 160.0;
    const PROBES: usize = 7;
    const PROBE_S: f64 = 1.5;
    const MIN_JOBS: usize = 20;
    let mut history = Vec::new();
    // (offered, achieved) of the highest probe that met the limit.
    let mut best = (0.0, 0.0);
    let mut next_index = first;
    while history.len() < PROBES {
        let Some(rate) = loadgen::next_probe(LO, HI, &history) else { break };
        let n = ((rate * PROBE_S).round() as usize).max(MIN_JOBS);
        let p = pass(stack, Mix::Small, seed, next_index, n, rate);
        next_index += n;
        admitted.extend(p.samples.iter().filter_map(|s| s.job));
        let e2e: Vec<Option<u64>> = p.samples.iter().map(Sample::e2e).collect();
        let ok = loadgen::rung_passes(&e2e, limit_ns);
        eprintln!(
            "  capacity probe {rate:>7.2}/s: {n} jobs, p90 {:.1} ms, achieved {:.2}/s, {}",
            pct(&p.e2e_ms(), 0.9),
            p.achieved_rate(),
            if ok { "meets limit" } else { "misses limit" }
        );
        if ok && rate > best.0 {
            best = (rate, p.achieved_rate());
        }
        history.push((rate, ok));
    }
    best.1
}

pub fn run(args: &Args, work: &WorkDir, mix: Mix) -> Result<Report, String> {
    let mut attempt = 0;
    let (setup_s, mut stack) = repeated_setup(setup_repeats(args), || {
        attempt += 1;
        start(mix, args.seed, work, attempt)
    })?;
    crate::reset_peak_rss();
    let traffic = mix.traffic();
    let n = ((traffic.rate * args.seconds).round() as usize).max(1);
    let mut admitted = stack.warmup_jobs.clone();
    let mut report = Report::new();
    eprintln!(
        "{}: {} taxa x {} patterns, {n} jobs at {}/s on {} workers, in-process job {:.1} ms",
        args.workload,
        stack.aln.n_taxa(),
        stack.aln.n_patterns(),
        traffic.rate,
        nproc(),
        ms(stack.inproc_job_ns)
    );

    let plain = pass(&stack, mix, args.seed, 0, n, traffic.rate);
    admitted.extend(plain.samples.iter().filter_map(|s| s.job));
    report.attempted = n as u64;
    report.failed = plain.failed() as u64;
    for (i, s) in plain.samples.iter().enumerate() {
        if let Some(e) = &s.error {
            report.fail(format!("job {i}: {e}"));
        }
    }
    let e2e = plain.e2e_ms();
    eprintln!(
        "  window: {} ok of {n}, e2e p50 {:.1} ms, p90 {:.1} ms ({} samples; highest supported \
         percentile {:?})",
        e2e.len(),
        pct(&e2e, 0.5),
        pct(&e2e, 0.9),
        e2e.len(),
        highest_supported(e2e.len(), &[0.5, 0.9, 0.99]),
    );

    if !args.trace {
        let mut capacity_rate = plain.achieved_rate();
        if mix == Mix::Small {
            let limit = LIMIT_FACTOR * stack.inproc_job_ns;
            eprintln!("  capacity search, p90 limit {:.1} ms", ms(limit));
            capacity_rate = capacity(&stack, args.seed, n, limit, &mut admitted);
        }
        let peak_rss = peak_rss_mb()?;
        check_results(&mut report, &stack, &plain, traffic.checked);
        let shutdown = stack.shutdown()?;
        check_shutdown(&mut report, &shutdown, &admitted);
        report.put("setup_s", setup_s, "s");
        report.put("wall_s", plain.window_ns() as f64 / 1e9, "s");
        report.put("jobs_per_s", plain.achieved_rate(), "1/s");
        report.put("capacity_jobs_per_s", capacity_rate, "1/s");
        report.put("e2e_p50_ms", pct(&e2e, 0.5), "ms");
        report.put("e2e_p90_ms", pct(&e2e, 0.9), "ms");
        report.put("peak_rss_mb", peak_rss, "MB");
        return Ok(report);
    }

    // Traced pass: the same jobs again, then each job's span tree.
    let traced = pass(&stack, mix, args.seed, 0, n, traffic.rate);
    admitted.extend(traced.samples.iter().filter_map(|s| s.job));
    for (i, s) in traced.samples.iter().enumerate() {
        if let Some(e) = &s.error {
            report.fail(format!("traced job {i}: {e}"));
        }
    }
    let spans = fetch_spans(&stack, &traced)?;
    let trees = check_results(&mut report, &stack, &traced, traffic.checked);
    traced_layers(&mut report, &stack, mix, &traced, &spans, &trees)?;
    let traced_p50 = pct(&traced.e2e_ms(), 0.5);
    report.put("trace.overhead_frac", traced_p50 / pct(&e2e, 0.5) - 1.0, "frac");
    let shutdown = stack.shutdown()?;
    check_shutdown(&mut report, &shutdown, &admitted);
    report.put(
        "service.journal_syncs_per_job",
        stack.service.journal_sync_count() as f64 / shutdown.stats.accepted as f64,
        "count",
    );
    report.put("farm.steals", shutdown.farm.steals as f64, "count");
    let attempted = (2 * n) as f64;
    report.put("failed_frac", (plain.failed() + traced.failed()) as f64 / attempted, "frac");
    Ok(report)
}

/// One job's spans from `GET /trace/<job>`, on the run clock.
struct JobSpans {
    job: (u64, u64),
    queue_wait: (u64, u64),
    run: (u64, u64),
    seal: (u64, u64),
    spr_rounds: Vec<(u64, u64)>,
    count: usize,
}

fn parse_spans(doc: &str) -> Result<JobSpans, String> {
    let json = obs::json::parse(doc)?;
    let Some(obs::json::Json::Arr(events)) = json.get("traceEvents") else {
        return Err("no traceEvents".into());
    };
    let ns = |v: Option<&obs::json::Json>| {
        v.and_then(|x| x.as_f64()).map(|us| (us * 1e3).round() as u64)
    };
    let mut out = JobSpans {
        job: (0, 0),
        queue_wait: (0, 0),
        run: (0, 0),
        seal: (0, 0),
        spr_rounds: Vec::new(),
        count: events.len(),
    };
    let mut seen = HashSet::new();
    for ev in events {
        let name = ev.get("name").and_then(|n| n.as_str()).ok_or("span without a name")?;
        let (Some(ts), Some(dur)) = (ns(ev.get("ts")), ns(ev.get("dur"))) else {
            return Err(format!("span {name} without ts/dur"));
        };
        let iv = (ts, ts + dur);
        match name {
            "job" => out.job = iv,
            "queue_wait" => out.queue_wait = iv,
            "run" => out.run = iv,
            "seal" => out.seal = iv,
            "spr_round" => out.spr_rounds.push(iv),
            _ => {}
        }
        seen.insert(name.to_string());
    }
    for needed in ["job", "queue_wait", "run", "seal"] {
        if !seen.contains(needed) {
            return Err(format!("trace lacks its {needed} span"));
        }
    }
    Ok(out)
}

/// Fetch every completed job's span tree (retrying briefly: the seal span
/// lands when the farm drains, just after the client saw the job done).
fn fetch_spans(stack: &Stack, p: &Pass) -> Result<Vec<Option<JobSpans>>, String> {
    let mut out = Vec::new();
    for s in &p.samples {
        let Some(job) = s.job.filter(|_| s.ok()) else {
            out.push(None);
            continue;
        };
        let mut last_err = String::new();
        let mut got = None;
        for _ in 0..20 {
            match http_get(stack.addr(), &format!("/trace/{job}")).map_err(|e| e.to_string()) {
                Ok(doc) => match parse_spans(&doc) {
                    Ok(sp) => {
                        got = Some(sp);
                        break;
                    }
                    Err(e) => last_err = e,
                },
                Err(e) => last_err = e,
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        match got {
            Some(sp) => out.push(Some(sp)),
            None => return Err(format!("trace of job {job}: {last_err}")),
        }
    }
    Ok(out)
}

fn traced_layers(
    report: &mut Report,
    stack: &Stack,
    mix: Mix,
    p: &Pass,
    spans: &[Option<JobSpans>],
    trees: &[String],
) -> Result<(), String> {
    let submit: Vec<f64> = p.samples.iter().filter_map(|s| Some(ms(s.acked? - s.sent?))).collect();
    let status: Vec<f64> =
        p.samples.iter().flat_map(|s| s.status_rtts.iter().map(|&ns| ms(ns))).collect();
    let polls = p.samples.iter().map(|s| s.status_rtts.len()).sum::<usize>() as f64;
    report.put("wire.submit_rtt_ms.p50", pct(&submit, 0.5), "ms");
    report.put("wire.submit_rtt_ms.p99", pct(&submit, 0.99), "ms");
    report.put("wire.status_rtt_ms.p50", pct(&status, 0.5), "ms");
    report.put("wire.status_rtt_ms.p99", pct(&status, 0.99), "ms");
    report.put("wire.polls_per_job", polls / p.samples.len().max(1) as f64, "count");
    report.put("service.admit_journal_ms.p50", pct(&submit, 0.5) - pct(&status, 0.5), "ms");

    let dur = |f: &dyn Fn(&JobSpans) -> (u64, u64)| -> Vec<f64> {
        spans.iter().flatten().map(|s| ms(f(s).1 - f(s).0)).collect()
    };
    let (queue, run, seal) = (dur(&|s| s.queue_wait), dur(&|s| s.run), dur(&|s| s.seal));
    report.put("service.queue_wait_ms.p50", pct(&queue, 0.5), "ms");
    report.put("service.queue_wait_ms.p90", pct(&queue, 0.9), "ms");
    report.put("service.run_ms.p50", pct(&run, 0.5), "ms");
    report.put("service.seal_ms.p50", pct(&seal, 0.5), "ms");
    let counts: Vec<f64> = spans.iter().flatten().map(|s| s.count as f64).collect();
    report.put("service.spans_per_job", mean(&counts), "count");
    // The service bridges the farm's observer events into these spans.
    report.put("farm.queue_wait_ms.p50", pct(&queue, 0.5), "ms");
    report.put("farm.run_ms.p50", pct(&run, 0.5), "ms");
    report.put("farm.run_ms.p90", pct(&run, 0.9), "ms");
    report.put("farm.seal_lag_ms.p50", pct(&seal, 0.5), "ms");
    let busy = run.iter().sum::<f64>() / (nproc() as f64 * ms(p.window_ns()));
    report.put("farm.busy_frac", busy, "frac");
    let rounds: Vec<f64> =
        spans.iter().flatten().flat_map(|s| s.spr_rounds.iter().map(|&(a, b)| ms(b - a))).collect();
    report.put("search.spr_round_ms", mean(&rounds), "ms");
    let results = p.samples.iter().filter_map(|s| s.status.as_ref()?.result.as_ref());
    let (r, m) = results.fold((0, 0), |(r, m), w| (r + w.rounds, m + w.moves_applied));
    report.put("search.rounds", r as f64, "count");
    report.put("search.moves_applied", m as f64, "count");
    for name in ["search.parsimony_ms", "search.branch_opt_ms", "search.model_opt_ms"] {
        report.put(name, 0.0, "ms");
    }

    // The per-job ledger.
    let mut ledgers: Vec<Ledger> = Vec::new();
    for (s, sp) in p.samples.iter().zip(spans) {
        let (Some(sp), Some(sent), Some(acked), Some(observed)) = (sp, s.sent, s.acked, s.observed)
        else {
            continue;
        };
        let c = ClientTimes { due: s.due, sent, acked, observed };
        let spans = ServiceSpans { job: sp.job, queue_wait: sp.queue_wait, run: sp.run };
        match ledger::ledger(c, spans, CLOCK_GRANULARITY_NS) {
            Ok(l) => ledgers.push(l),
            Err(e) => report.fail(format!("ledger of job {:?}: {e}", s.job)),
        }
    }
    let part = |f: &dyn Fn(&Ledger) -> i64| -> Vec<f64> {
        ledgers.iter().map(|l| f(l) as f64 / 1e6).collect()
    };
    let residue = part(&|l| l.residue);
    let e2e_total: f64 = part(&|l| l.e2e as i64).iter().sum();
    report.put("ledger.residue_ms.p50", pct(&residue, 0.5), "ms");
    report.put("ledger.residue_frac", residue.iter().sum::<f64>() / e2e_total.max(1e-9), "frac");
    let lags: Vec<f64> = p.samples.iter().filter_map(Sample::lag).map(ms).collect();
    report.put("loadgen.lag_ms.p99", pct(&lags, 0.99), "ms");
    eprintln!("  ledger over {} jobs (ms, p50 / mean):", ledgers.len());
    for (name, f) in [
        ("lag", &(|l: &Ledger| l.lag as i64) as &dyn Fn(&Ledger) -> i64),
        ("submit rtt", &|l: &Ledger| l.submit as i64),
        ("queue wait", &|l: &Ledger| l.queue as i64),
        ("run", &|l: &Ledger| l.run as i64),
        ("detection", &|l: &Ledger| l.detect as i64),
        ("residue", &|l: &Ledger| l.residue),
        ("e2e", &|l: &Ledger| l.e2e as i64),
    ] {
        let v = part(f);
        eprintln!("    {name:<11} {:>9.3} / {:>9.3}", pct(&v, 0.5), mean(&v));
    }
    eprintln!(
        "    seal (off the client's path) p50 {:.3}; submit rtt p50 {:.3}, status rtt p50 {:.3}",
        pct(&seal, 0.5),
        pct(&submit, 0.5),
        pct(&status, 0.5)
    );

    // Checkpoint: time the service's own per-round call, saving each
    // checked job's final tree into the state directory.
    if mix == Mix::Aln42 {
        let mut walls = Vec::new();
        let mut bytes = 0;
        for (k, tree) in trees.iter().enumerate() {
            let path = stack.state.join(format!("bench-{k}.ckpt"));
            let mut ck = SearchCheckpointer::new(&path, k as u64);
            let snap = SearchCheckpoint {
                rounds_done: 1,
                moves_applied: 0,
                last_applied: 0,
                alpha_bits: 0.5f64.to_bits(),
                tree_exact: tree.clone(),
            };
            let t0 = Instant::now();
            ck.save(&snap).map_err(|e| format!("checkpoint save: {e}"))?;
            walls.push(ms(t0.elapsed().as_nanos() as u64));
            bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let back = ck.load().map_err(|e| format!("checkpoint load: {e}"))?;
            report.check(back.as_ref() == Some(&snap), || "checkpoint read back differs".into());
        }
        report.put("checkpoint.write_ms", median(&walls), "ms");
        report.put("checkpoint.bytes", bytes as f64, "B");
    } else {
        report.put("checkpoint.write_ms", 0.0, "ms");
        report.put("checkpoint.bytes", 0.0, "B");
    }
    report.put("io.parse_ms", 0.0, "ms");
    report.put("alignment.compress_ms", 0.0, "ms");
    report.put("alignment.patterns", stack.aln.n_patterns() as f64, "count");
    report.put("workspace.build_ms", 0.0, "ms");
    report.put(
        "workspace.clv_bytes",
        LikelihoodWorkspace::estimate_bytes(stack.aln.n_taxa(), stack.aln.n_patterns(), 4) as f64,
        "B",
    );
    put_absent_layers(report, Absent::SERVED);
    Ok(())
}
