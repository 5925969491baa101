//! Chaos study: exactly-once accounting under deterministic wire faults
//! and a mid-run server kill/restart.
//!
//! The harness drives multi-tenant load through a server whose every
//! connection is wrapped in a [`serve::fault::FaultyStream`] injecting
//! connection drops, mid-frame truncation, and stalls from a seeded
//! [`serve::fault::ServeFaultPlan`] (corruption is deliberately excluded —
//! silent bit flips are the wire fuzz tests' subject, not an accounting
//! study's). Halfway through submission the server and service are torn
//! down and restarted **on a fresh ephemeral port** (std's `TcpListener`
//! does not set `SO_REUSEADDR`, so the old port may sit in `TIME_WAIT`);
//! the new address is published through an [`serve::client::AddrCell`] and
//! every [`serve::client::RetryClient`] reconnects to it, replaying
//! unacknowledged submits under their original idempotency keys.
//!
//! The run then proves **exactly-once execution three ways** and requires
//! the books to agree integer-exactly:
//!
//! 1. **Client view** — the distinct job ids observed done/cancelled are
//!    exactly the logical submits (nothing lost, nothing duplicated).
//! 2. **Service view** — the final life's `ShutdownReport` satisfies
//!    `completed + failed + cancelled == accepted` with zero failures.
//! 3. **Farm view** — per life, `dispatched == farm.n_jobs` and every seal
//!    is accounted; across lives, dispatch totals sum to the logical jobs.
//!
//! Replay determinism is asserted directly: the fault plan's decision
//! sequence fingerprint is computed twice and must match bit-exactly.
//! Each tenant also submits one job with `deadline_ms = 0`, which must
//! settle as a deadline cancellation — never run, never lost.
//!
//! Flags (shared surface from `bench::cli`):
//!
//! ```text
//!   --smoke          tiny run + self-checks, no root artifact
//!   --tenants N      concurrent tenants (default 3)
//!   --jobs N         normal jobs per tenant (default 6)
//!   --workers N      farm workers (default 4)
//!   --seed N         fault plan seed (default 42)
//!   --format F       text (default) or json (print the envelope)
//!   --no-artifact    skip writing BENCH_chaos.json
//! ```

use bench::artifact::{bench_artifact_path, Envelope, OutputFormat};
use bench::cli::StudyArgs;
use bench::or_exit;
use bench::serve_load::check_life;
use serve::client::{scrape_metrics, AddrCell, RetryClient, RetryPolicy};
use serve::fault::ServeFaultPlan;
use serve::server::{Server, ServerConfig};
use serve::service::{InferenceService, ServiceConfig};
use serve::wire::{JobKind, JobSpec, Preset, RejectReason, WireState};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ChaosConfig {
    tenants: usize,
    jobs_per_tenant: usize,
    workers: usize,
    seed: u64,
    interval: Duration,
    taxa: usize,
    sites: usize,
}

/// One tenant's observations: ids seen done, ids seen cancelled.
struct TenantOutcome {
    done: Vec<u64>,
    cancelled: Vec<u64>,
}

fn chaos_plan(seed: u64) -> ServeFaultPlan {
    ServeFaultPlan {
        seed,
        drop_rate: 0.02,
        truncate_rate: 0.02,
        corrupt_rate: 0.0,
        stall_rate: 0.04,
        stall: Duration::from_millis(2),
    }
}

fn server_config(seed: u64) -> ServerConfig {
    ServerConfig::default()
        .with_fault_plan(chaos_plan(seed))
        .with_drain_deadline(Duration::from_secs(10))
}

fn start_life(
    cfg: &ChaosConfig,
    state_dir: &std::path::Path,
    aln: &phylo::alignment::PatternAlignment,
) -> (Arc<InferenceService>, Server) {
    let service = Arc::new(or_exit(
        InferenceService::start(ServiceConfig::new(cfg.workers).paused().with_state_dir(state_dir))
            .map_err(|e| format!("starting service: {e}")),
    ));
    service.register_dataset("chaos", aln.clone());
    service.resume();
    let server = or_exit(
        Server::bind_with("127.0.0.1:0", service.clone(), server_config(cfg.seed))
            .map_err(|e| format!("binding: {e}")),
    );
    (service, server)
}

fn main() {
    let args = StudyArgs::parse();
    let cfg = ChaosConfig {
        tenants: or_exit(args.usize_value("--tenants")).unwrap_or(3).max(1),
        jobs_per_tenant: or_exit(args.usize_value("--jobs"))
            .unwrap_or(if args.smoke { 2 } else { 6 })
            .max(1),
        workers: or_exit(args.usize_value("--workers")).unwrap_or(4).max(1),
        seed: or_exit(args.u64_value("--seed")).unwrap_or(42),
        interval: Duration::from_millis(if args.smoke { 2 } else { 10 }),
        taxa: if args.smoke || args.quick { 6 } else { 8 },
        sites: if args.smoke || args.quick { 120 } else { 240 },
    };
    let normal_total = cfg.tenants * cfg.jobs_per_tenant;
    let total = normal_total + cfg.tenants; // + one deadline job per tenant
    if args.format.is_text() {
        eprintln!(
            "chaos_study: {} tenants x {} jobs (+1 deadline job each) on {} workers, fault seed {}",
            cfg.tenants, cfg.jobs_per_tenant, cfg.workers, cfg.seed
        );
    }

    // Replay determinism: the same plan must produce a bit-identical fault
    // decision sequence every time it is consulted.
    let fingerprint = chaos_plan(cfg.seed).sequence_fingerprint(64, 256);
    if fingerprint != chaos_plan(cfg.seed).sequence_fingerprint(64, 256) {
        fail("fault plan replay diverged for the same seed");
    }
    if fingerprint == chaos_plan(cfg.seed + 1).sequence_fingerprint(64, 256) {
        fail("fault plans with different seeds collided");
    }

    let state_dir = std::env::temp_dir().join(format!("raxml-cell-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let aln = phylo::simulate::SimulationConfig::new(cfg.taxa, cfg.sites, 7).generate().alignment;

    // Life 1.
    let (service1, mut server1) = start_life(&cfg, &state_dir, &aln);
    let addr_cell = AddrCell::new(server1.addr());
    let submitted_count = Arc::new(AtomicUsize::new(0));

    let wall_start = Instant::now();
    let (outcomes, drain1, report1, life2) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.tenants)
            .map(|t| {
                let cfg = &cfg;
                let cell = addr_cell.clone();
                let counter = submitted_count.clone();
                scope.spawn(move || or_exit(run_tenant(cell, counter, t, cfg)))
            })
            .collect();

        // The kill: once half the normal jobs are in, tear the server down
        // (graceful drain, assert no leaked handler threads), shut the
        // service down, and restart both on a fresh port. Clients ride it
        // out through AddrCell + idempotent retry.
        while submitted_count.load(Ordering::Relaxed) < normal_total / 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drain1 = server1.stop();
        let report1 = service1.shutdown().expect("first shutdown");
        let (service2, server2) = start_life(&cfg, &state_dir, &aln);
        addr_cell.set(server2.addr());

        let outcomes: Vec<TenantOutcome> =
            handles.into_iter().map(|h| h.join().expect("tenant thread")).collect();
        (outcomes, drain1, report1, (service2, server2))
    });
    let wall = wall_start.elapsed();
    let (service2, mut server2) = life2;

    // Books #1: the client view. Every logical submit observed terminal
    // exactly once, deadline jobs cancelled, everything else done.
    let mut seen = HashSet::new();
    let mut done_count = 0usize;
    let mut cancelled_count = 0usize;
    for outcome in &outcomes {
        for &id in outcome.done.iter().chain(&outcome.cancelled) {
            if !seen.insert(id) {
                fail(&format!("job id {id} observed terminal twice"));
            }
        }
        done_count += outcome.done.len();
        cancelled_count += outcome.cancelled.len();
    }
    if seen.len() != total || done_count != normal_total || cancelled_count != cfg.tenants {
        fail(&format!(
            "client view: {} distinct / {done_count} done / {cancelled_count} cancelled, \
             expected {total} / {normal_total} / {}",
            seen.len(),
            cfg.tenants
        ));
    }

    // Scrape and validate /metrics from the surviving server.
    let prom =
        or_exit(scrape_metrics(server2.addr()).map_err(|e| format!("scraping /metrics: {e}")));
    or_exit(obs::validate_prometheus_text(&prom));
    if !prom.contains("serve_submitted_total") {
        fail("/metrics export is missing serve_submitted_total");
    }

    let faults_injected = server1.fault_tally().total() + server2.fault_tally().total();
    let drain2 = server2.stop();
    let report2 = service2.shutdown().expect("second shutdown");

    if drain1.leaked != 0 || drain2.leaked != 0 {
        fail(&format!(
            "drain leaked handler threads: life1 {} / life2 {}",
            drain1.leaked, drain2.leaked
        ));
    }

    // Books #2: the service view. The final life replayed the journal, so
    // its accounting covers every logical job across both lives.
    let s = report2.stats;
    if s.accepted != total as u64
        || s.completed != normal_total as u64
        || s.cancelled != cfg.tenants as u64
        || s.failed != 0
        || s.queued != 0
        || s.running != 0
    {
        fail(&format!(
            "service accounting: {s:?}, expected {total} accepted, {normal_total} completed"
        ));
    }

    // Books #3: the farm view, per life and across lives.
    for (label, report) in [("life1", &report1), ("life2", &report2)] {
        if let Err(e) = check_life(report) {
            fail(&format!("{label}: {e}"));
        }
    }
    if report1.dispatched + report2.dispatched != total {
        fail(&format!(
            "cross-life dispatch: {} + {} != {total} (a job ran twice or never)",
            report1.dispatched, report2.dispatched
        ));
    }

    let jobs_per_sec = total as f64 / wall.as_secs_f64();
    let retries = obs::global().counter("serve_retries_total").get();
    let reconnects = obs::global().counter("serve_client_reconnects_total").get();

    let mut envelope = Envelope::new("chaos")
        .with_config("tenants", cfg.tenants)
        .with_config("jobs_per_tenant", cfg.jobs_per_tenant)
        .with_config("workers", cfg.workers)
        .with_config("seed", cfg.seed)
        .with_config("fault_fingerprint", format!("{fingerprint:016x}"))
        .with_config("taxa", cfg.taxa)
        .with_config("sites", cfg.sites);
    envelope.push_metric("chaos_jobs_per_sec", jobs_per_sec);
    envelope.push_metric("chaos_jobs_total", total as f64);
    envelope.push_metric("chaos_cancelled_total", cancelled_count as f64);
    envelope.push_metric("chaos_faults_injected", faults_injected as f64);
    envelope.push_metric("chaos_client_retries", retries as f64);
    envelope.push_metric("chaos_client_reconnects", reconnects as f64);
    envelope.push_metric("chaos_drain_leaked", (drain1.leaked + drain2.leaked) as f64);

    if !args.smoke && !args.no_artifact {
        let path = bench_artifact_path("chaos");
        or_exit(envelope.write(&path));
        if args.format.is_text() {
            eprintln!("wrote {}", path.display());
        }
    }
    match args.format {
        OutputFormat::Json => print!("{}", envelope.to_json()),
        OutputFormat::Text => {
            println!(
                "{total} jobs exactly-once across a kill/restart: {done_count} done, \
                 {cancelled_count} deadline-cancelled, 0 lost, 0 duplicated"
            );
            println!(
                "faults injected: {faults_injected} | client retries: {retries} | \
                 reconnects: {reconnects} | fingerprint {fingerprint:016x}"
            );
            println!(
                "dispatch: life1 {} + life2 {} == {total}; drains joined {}+{} leaked 0",
                report1.dispatched, report2.dispatched, drain1.joined, drain2.joined
            );
            if args.smoke {
                println!("chaos_study smoke: OK");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// One tenant: submit all normal jobs plus one `deadline_ms = 0` job
/// through a reconnecting exactly-once client, then observe every job to a
/// terminal state.
fn run_tenant(
    addr: AddrCell,
    submitted_count: Arc<AtomicUsize>,
    tenant_idx: usize,
    cfg: &ChaosConfig,
) -> Result<TenantOutcome, String> {
    let tenant = format!("tenant-{tenant_idx}");
    let policy = RetryPolicy {
        max_attempts: 120,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(200),
    };
    let mut client = RetryClient::new(addr, &format!("c{tenant_idx}")).with_policy(policy);

    let mut normal: Vec<u64> = Vec::with_capacity(cfg.jobs_per_tenant);
    for j in 0..cfg.jobs_per_tenant {
        let mut spec = JobSpec::new(
            "chaos",
            JobKind::Search,
            (tenant_idx * 1000 + j) as u64 + 1,
            Preset::Fast,
        );
        spec.max_spr_rounds = Some(1);
        normal.push(submit_retrying(&mut client, &tenant, &spec)?);
        submitted_count.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(cfg.interval);
    }
    // The deadline job: a zero budget has always expired by dispatch time,
    // so it must settle as `Cancelled` without ever running.
    let deadline_spec =
        JobSpec::new("chaos", JobKind::Search, 999_000 + tenant_idx as u64, Preset::Fast)
            .with_deadline_ms(0);
    let deadline_job = submit_retrying(&mut client, &tenant, &deadline_spec)?;

    let mut outcome = TenantOutcome { done: Vec::new(), cancelled: Vec::new() };
    for id in normal {
        let status = client
            .wait_done(id, Duration::from_secs(600))
            .map_err(|e| format!("{tenant}: waiting on job {id}: {e}"))?;
        if status.state != WireState::Done {
            return Err(format!("{tenant}: job {id} ended {:?}: {:?}", status.state, status.error));
        }
        outcome.done.push(id);
    }
    let status = client
        .wait_done(deadline_job, Duration::from_secs(600))
        .map_err(|e| format!("{tenant}: waiting on deadline job {deadline_job}: {e}"))?;
    if status.state != WireState::Cancelled {
        return Err(format!(
            "{tenant}: deadline job {deadline_job} ended {:?}, expected cancelled",
            status.state
        ));
    }
    outcome.cancelled.push(deadline_job);
    Ok(outcome)
}

/// Submit with the study's full resilience stack: `RetryClient` covers
/// transport faults under one idempotency key; a `ShuttingDown` rejection
/// (the race against a draining life) is a definitive "not admitted", so it
/// is safe to retry as a fresh logical submit until the next life is up.
fn submit_retrying(client: &mut RetryClient, tenant: &str, spec: &JobSpec) -> Result<u64, String> {
    for _ in 0..600 {
        match client.submit(tenant, spec) {
            Ok(Ok(id)) => return Ok(id),
            Ok(Err(RejectReason::ShuttingDown)) => std::thread::sleep(Duration::from_millis(10)),
            Ok(Err(reason)) => return Err(format!("{tenant}: rejected: {reason:?}")),
            Err(e) => return Err(format!("{tenant}: submit transport: {e}")),
        }
    }
    Err(format!("{tenant}: server stayed in shutdown"))
}

fn fail(message: &str) -> ! {
    eprintln!("chaos_study FAILED: {message}");
    std::process::exit(1);
}
