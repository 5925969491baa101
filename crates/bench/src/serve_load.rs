//! The served-load phase shared by the service studies.
//!
//! [`run_load`] stands an [`InferenceService`] and its [`Server`] up on an
//! ephemeral loopback port, drives **open-loop** multi-tenant load of
//! one-round fast searches over the real wire protocol, and shuts both
//! down with the exactly-once accounting checks. Each tenant thread submits
//! on a fixed schedule (one job every `interval`, tenants staggered so
//! arrivals interleave) regardless of how fast the service drains, so
//! queueing delay shows up in the latencies instead of being hidden by a
//! closed feedback loop. End-to-end latency is client-observed: from just
//! before the submit frame is written to the status poll that first
//! reports `done`.
//!
//! `serve_study` and `trace_study` run exactly this workload;
//! `chaos_study` keeps its own retrying load and reuses [`check_life`] for
//! each server life's farm books.

use crate::artifact::Envelope;
use crate::cli::StudyArgs;
use serve::client::Client;
use serve::server::Server;
use serve::service::{InferenceService, ServiceConfig, ShutdownReport};
use serve::wire::{JobKind, JobSpec, Preset, WireState};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The load shape, parsed from the studies' shared flags.
pub struct LoadConfig {
    pub tenants: usize,
    pub jobs_per_tenant: usize,
    pub workers: usize,
    /// Open-loop inter-arrival time per tenant.
    pub interval: Duration,
    pub taxa: usize,
    pub sites: usize,
}

impl LoadConfig {
    /// `--tenants N` (default 3), `--jobs N` per tenant (8; 3 under
    /// `--smoke`), `--workers N` (4), `--interval-ms N` (30; 5 under
    /// `--smoke`); a 6×120 alignment under `--smoke`/`--quick`, else 8×300.
    pub fn from_args(args: &StudyArgs) -> Result<LoadConfig, String> {
        let small = args.smoke || args.quick;
        Ok(LoadConfig {
            tenants: args.usize_value("--tenants")?.unwrap_or(3).max(1),
            jobs_per_tenant: args
                .usize_value("--jobs")?
                .unwrap_or(if args.smoke { 3 } else { 8 })
                .max(1),
            workers: args.usize_value("--workers")?.unwrap_or(4).max(1),
            interval: Duration::from_millis(
                args.u64_value("--interval-ms")?.unwrap_or(if args.smoke { 5 } else { 30 }),
            ),
            taxa: if small { 6 } else { 8 },
            sites: if small { 120 } else { 300 },
        })
    }

    /// Jobs submitted across all tenants.
    pub fn total(&self) -> usize {
        self.tenants * self.jobs_per_tenant
    }

    /// An envelope for `artifact` carrying the six load fields as config.
    pub fn envelope(&self, artifact: &str) -> Envelope {
        Envelope::new(artifact)
            .with_config("tenants", self.tenants)
            .with_config("jobs_per_tenant", self.jobs_per_tenant)
            .with_config("workers", self.workers)
            .with_config("interval_ms", self.interval.as_millis())
            .with_config("taxa", self.taxa)
            .with_config("sites", self.sites)
    }
}

/// One completed job as its tenant observed it.
pub struct JobObs {
    pub tenant_idx: usize,
    /// Submission index within the tenant.
    pub slot: usize,
    pub job: u64,
    /// The trace id the server bound at admission.
    pub trace: u64,
    /// Client-observed submit → done latency.
    pub e2e: Duration,
    pub lnl_bits: u64,
}

/// One load phase's observations.
pub struct LoadRun {
    /// Every job, grouped by tenant in submission order.
    pub jobs: Vec<JobObs>,
    /// First submission to last observed completion.
    pub wall: Duration,
    pub report: ShutdownReport,
}

impl LoadRun {
    pub fn jobs_per_sec(&self) -> f64 {
        self.jobs.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Run one load phase with tracing on or off. `live` runs against the
/// still-serving address once every job is observed done (a `/metrics`
/// scrape, the introspection routes); then server and service shut down
/// and the books must balance:
///
/// * every submitted id is observed done exactly once, with a result;
/// * the service accepted and completed every job, with no failures;
/// * the farm dispatched and sealed every job ([`check_life`]), none failed.
pub fn run_load(
    cfg: &LoadConfig,
    tracing: bool,
    live: impl FnOnce(SocketAddr, &[JobObs]) -> Result<(), String>,
) -> Result<LoadRun, String> {
    let aln = phylo::simulate::SimulationConfig::new(cfg.taxa, cfg.sites, 7).generate().alignment;
    let service = Arc::new(
        InferenceService::start(ServiceConfig::new(cfg.workers).with_tracing(tracing))
            .map_err(|e| format!("starting service: {e}"))?,
    );
    service.register_dataset("study", aln);
    let server =
        Server::bind("127.0.0.1:0", service.clone()).map_err(|e| format!("binding: {e}"))?;
    let addr = server.addr();

    let wall_start = Instant::now();
    let runs: Vec<Result<Vec<JobObs>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..cfg.tenants).map(|t| scope.spawn(move || run_tenant(addr, t, cfg))).collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    let wall = wall_start.elapsed();
    let mut jobs = Vec::with_capacity(cfg.total());
    for run in runs {
        jobs.extend(run?);
    }

    let total = cfg.total();
    let mut seen = HashSet::new();
    for j in &jobs {
        if !seen.insert(j.job) {
            return Err(format!("job id {} completed twice", j.job));
        }
    }
    if seen.len() != total {
        return Err(format!("observed {} distinct jobs, submitted {total}", seen.len()));
    }
    live(addr, &jobs)?;

    drop(server);
    let report = service.shutdown().expect("first shutdown");
    let s = report.stats;
    if s.accepted != total as u64 || s.completed != total as u64 || s.failed != 0 {
        return Err(format!("service accounting: {s:?}, expected {total} accepted+completed"));
    }
    check_life(&report)?;
    if report.dispatched != total || report.sealed_failed != 0 {
        return Err(format!(
            "farm cross-check: dispatched {} (sealed {} ok, {} failed) != {total}",
            report.dispatched, report.sealed_ok, report.sealed_failed
        ));
    }
    Ok(LoadRun { jobs, wall, report })
}

/// One server life's farm books: the service dispatched exactly the jobs
/// the farm counted, and every dispatched job was sealed, ok or failed.
pub fn check_life(report: &ShutdownReport) -> Result<(), String> {
    if report.dispatched != report.farm.n_jobs {
        return Err(format!(
            "dispatched {} != farm n_jobs {}",
            report.dispatched, report.farm.n_jobs
        ));
    }
    if report.sealed_ok + report.sealed_failed != report.dispatched as u64 {
        return Err(format!(
            "seals {} ok + {} failed != dispatched {}",
            report.sealed_ok, report.sealed_failed, report.dispatched
        ));
    }
    Ok(())
}

/// One tenant: open-loop submission on a fixed schedule, then observe every
/// job to completion in submission order.
fn run_tenant(
    addr: SocketAddr,
    tenant_idx: usize,
    cfg: &LoadConfig,
) -> Result<Vec<JobObs>, String> {
    let tenant = format!("tenant-{tenant_idx}");
    let mut client = Client::connect(addr).map_err(|e| format!("{tenant}: connect: {e}"))?;
    client.ping().map_err(|e| format!("{tenant}: ping: {e}"))?;

    // Stagger tenants so arrivals interleave instead of bursting together.
    let start = Instant::now() + cfg.interval * tenant_idx as u32 / cfg.tenants as u32;
    let mut submitted = Vec::with_capacity(cfg.jobs_per_tenant);
    for slot in 0..cfg.jobs_per_tenant {
        let due = start + cfg.interval * slot as u32;
        if let Some(pause) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(pause);
        }
        // Distinct seeds per (tenant, slot) keep the searches independent.
        let mut spec = JobSpec::new(
            "study",
            JobKind::Search,
            (tenant_idx * 1000 + slot) as u64 + 1,
            Preset::Fast,
        );
        spec.max_spr_rounds = Some(1);
        let t0 = Instant::now();
        let (job, trace) = client
            .submit_traced(&tenant, &spec, None, 0)
            .map_err(|e| format!("{tenant}: submit: {e}"))?
            .map_err(|r| format!("{tenant}: rejected: {r:?}"))?;
        submitted.push((slot, job, trace, t0));
    }

    let mut jobs = Vec::with_capacity(submitted.len());
    for (slot, job, trace, t0) in submitted {
        let status = client
            .wait_done(job, Duration::from_secs(600))
            .map_err(|e| format!("{tenant}: waiting on job {job}: {e}"))?;
        let e2e = t0.elapsed();
        if status.state != WireState::Done {
            return Err(format!(
                "{tenant}: job {job} ended {:?}: {:?}",
                status.state, status.error
            ));
        }
        let result = status.result.ok_or_else(|| format!("{tenant}: job {job} done, no result"))?;
        jobs.push(JobObs {
            tenant_idx,
            slot,
            job,
            trace,
            e2e,
            lnl_bits: result.log_likelihood.to_bits(),
        });
    }
    Ok(jobs)
}
