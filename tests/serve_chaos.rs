//! Robustness tests for the chaos-hardened service tier: connection
//! lifecycle deadlines (slow-loris eviction), graceful drain, the bounded
//! connection cap, exactly-once submit via idempotency keys (including
//! across a restart and a torn journal tail), job cancellation and per-job
//! deadlines, journal fsync policy, and deterministic wire fault injection
//! end to end.

use phylo::prelude::*;
use serve::client::Client;
use serve::fault::ServeFaultPlan;
use serve::server::{Server, ServerConfig};
use serve::service::{InferenceService, ServiceConfig, SyncPolicy};
use serve::wire::{JobKind, JobSpec, Preset, WireState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(600);

fn small_alignment(seed: u64) -> PatternAlignment {
    SimulationConfig::new(6, 120, seed).generate().alignment
}

fn quick_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("d", JobKind::Search, seed, Preset::Fast);
    spec.max_spr_rounds = Some(1);
    spec
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raxml-cell-serve-chaos").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_service() -> Arc<InferenceService> {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(2)).unwrap());
    service.register_dataset("d", small_alignment(3));
    service
}

/// A slow-loris client (two bytes, then silence) is evicted by the
/// handshake deadline — the socket closes and `serve_conn_deadline_total`
/// ticks — instead of parking a handler thread forever.
#[test]
fn slow_loris_is_evicted_by_the_handshake_deadline() {
    let service = start_service();
    let config = ServerConfig::default().with_handshake_timeout(Duration::from_millis(100));
    let mut server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();

    let evicted_before = obs::global().counter("serve_conn_deadline_total").get();
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(&[0x00, 0x00]).unwrap(); // two bytes of a frame header, then nothing
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    let n = loris.read(&mut buf).expect("server should close, not time us out");
    assert_eq!(n, 0, "expected EOF from an eviction, got {n} bytes");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "eviction took {:?}, deadline was 100ms",
        start.elapsed()
    );
    assert!(
        obs::global().counter("serve_conn_deadline_total").get() > evicted_before,
        "eviction must tick serve_conn_deadline_total"
    );

    // The server is still healthy for well-behaved clients.
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    drop(client);
    server.stop();
}

/// `stop()` is a graceful drain: every live handler thread is joined under
/// the drain deadline and none is leaked.
#[test]
fn stop_drains_and_joins_every_connection_thread() {
    let service = start_service();
    let mut server = Server::bind(("127.0.0.1", 0), service.clone()).unwrap();

    // Three live framed connections, proven up by a ping each (so their
    // handler threads exist and are parked reading the next frame).
    let mut clients: Vec<Client> = (0..3)
        .map(|_| {
            let mut c = Client::connect(server.addr()).unwrap();
            c.ping().unwrap();
            c
        })
        .collect();

    let report = server.stop();
    assert_eq!(report.joined, 3, "all three handler threads joined");
    assert_eq!(report.leaked, 0, "no handler thread leaked past the drain deadline");

    // Stop is idempotent and the clients see clean EOFs.
    assert_eq!(server.stop(), Default::default());
    for c in &mut clients {
        assert!(c.ping().is_err(), "connection should be dead after drain");
    }
}

/// Beyond `max_connections`, a fresh connection gets one typed `Busy`
/// frame (surfaced client-side as a retryable error) instead of a thread.
#[test]
fn connection_cap_rejects_with_busy() {
    let service = start_service();
    let config = ServerConfig::default().with_max_connections(1);
    let mut server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();

    let mut first = Client::connect(server.addr()).unwrap();
    first.ping().unwrap(); // handler live and registered

    let mut second = Client::connect(server.addr()).unwrap();
    let err = second.ping().expect_err("over-cap connection must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "busy maps to retryable: {err}");

    // Capacity frees once the first connection closes and is reaped.
    drop(first);
    std::thread::sleep(Duration::from_millis(50));
    let mut third = Client::connect(server.addr()).unwrap();
    third.ping().unwrap();
    drop(third);
    server.stop();
}

/// The same idempotency key returns the same job id without re-admitting,
/// both within a service lifetime and across a journal-replayed restart.
#[test]
fn idempotency_keys_dedup_within_and_across_restarts() {
    let dir = unique_dir("idem-restart");
    let aln = small_alignment(5);

    let config = ServiceConfig::new(1).with_state_dir(&dir);
    let service = InferenceService::start(config).unwrap();
    service.register_dataset("d", aln.clone());

    let first = service.submit_idem("a", &quick_spec(1), Some("key-1")).unwrap();
    let retry = service.submit_idem("a", &quick_spec(1), Some("key-1")).unwrap();
    assert_eq!(first, retry, "same key, same job");
    // Keys are tenant-scoped: another tenant's identical key is a new job.
    let other = service.submit_idem("b", &quick_spec(1), Some("key-1")).unwrap();
    assert_ne!(first, other);
    assert_eq!(service.stats().accepted, 2, "the retry was not re-admitted");

    service.wait_done(first, WAIT).unwrap();
    service.wait_done(other, WAIT).unwrap();
    service.shutdown().unwrap();

    // Restart: the key still resolves to the original (finished) job, so a
    // client retrying a pre-crash submit cannot duplicate work.
    let revived =
        InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
    revived.register_dataset("d", aln);
    revived.resume();
    let replayed = revived.submit_idem("a", &quick_spec(1), Some("key-1")).unwrap();
    assert_eq!(replayed, first, "idempotency survives the restart");
    let report = revived.shutdown().unwrap();
    assert_eq!(report.stats.accepted, 2, "replayed, not re-admitted");
    assert_eq!(report.dispatched, 0, "nothing re-ran");
}

/// A torn journal tail (crash mid-append) is skipped by replay while every
/// complete line — including its idempotency key — is recovered.
#[test]
fn torn_journal_tail_is_tolerated_and_keys_survive() {
    let dir = unique_dir("torn-tail");
    let aln = small_alignment(6);

    let service = InferenceService::start(ServiceConfig::new(1).with_state_dir(&dir)).unwrap();
    service.register_dataset("d", aln.clone());
    let job = service.submit_idem("a", &quick_spec(2), Some("k-torn")).unwrap();
    let done = service.wait_done(job, WAIT).unwrap().result.unwrap();
    service.shutdown().unwrap();

    // Simulate a crash mid-append: a torn, unterminated submit line.
    let journal = dir.join("journal.jsonl");
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
    file.write_all(br#"{"ev":"submit","job":99,"tenant":"a","idem":"k-torn-2","datas"#).unwrap();
    drop(file);

    let revived =
        InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
    revived.register_dataset("d", aln);
    revived.resume();
    assert!(revived.status(99).is_none(), "the torn line must not materialise a job");
    let restored = revived.status(job).unwrap().result.unwrap();
    assert_eq!(restored.log_likelihood.to_bits(), done.log_likelihood.to_bits());
    let replayed = revived.submit_idem("a", &quick_spec(2), Some("k-torn")).unwrap();
    assert_eq!(replayed, job, "key from before the torn tail still dedups");
    // A job acked after the restart must not glue its submit line onto
    // the torn one: it and its key survive the next restart.
    let acked = revived.submit_idem("a", &quick_spec(3), Some("k-after")).unwrap();
    let acked_done = revived.wait_done(acked, WAIT).unwrap().result.unwrap();
    revived.shutdown().unwrap();

    // A one-byte non-UTF-8 torn tail must not stop the service starting.
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
    file.write_all(b"\xce").unwrap();
    drop(file);
    let again =
        InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
    let restored = again.status(acked).expect("job acked after the torn tail").result.unwrap();
    assert_eq!(restored.log_likelihood.to_bits(), acked_done.log_likelihood.to_bits());
    assert_eq!(restored.alpha.to_bits(), acked_done.alpha.to_bits());
    assert_eq!(restored.tree_exact, acked_done.tree_exact);
    let deduped = again.submit_idem("a", &quick_spec(3), Some("k-after")).unwrap();
    assert_eq!(deduped, acked, "the key acked after the torn tail survives");
    again.resume();
    again.shutdown().unwrap();

    // A journal written by another format version is refused, not skipped.
    let text = std::fs::read_to_string(&journal).unwrap();
    let v1 = "#RAXML-CELL-SERVE-JOURNAL v1";
    assert!(text.starts_with(v1));
    std::fs::write(&journal, text.replacen(v1, "#RAXML-CELL-SERVE-JOURNAL v2", 1)).unwrap();
    let Err(err) = InferenceService::start(ServiceConfig::new(1).with_state_dir(&dir)) else {
        panic!("a v2 journal must be refused");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("v2"), "{err}");
}

/// Cancelling a queued job settles it as `Cancelled` without dispatching
/// it, and the books balance: completed + failed + cancelled == accepted.
#[test]
fn cancel_settles_queued_jobs_and_balances_the_books() {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(1).paused()).unwrap());
    service.register_dataset("d", small_alignment(7));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let keep = client.submit("a", &quick_spec(1)).unwrap().unwrap();
    let drop_me = client.submit("a", &quick_spec(2)).unwrap().unwrap();

    let status = client.cancel(drop_me).unwrap();
    assert_eq!(status.state, WireState::Cancelled);
    assert!(status.error.as_deref().unwrap_or("").contains("cancelled"));
    // Cancel is idempotent-ish: cancelling again just reports the state.
    assert_eq!(client.cancel(drop_me).unwrap().state, WireState::Cancelled);

    service.resume();
    let done = client.wait_done(keep, WAIT).unwrap();
    assert_eq!(done.state, WireState::Done);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cancelled, 1);
    drop(client);
    drop(server);

    let report = service.shutdown().unwrap();
    let s = report.stats;
    assert_eq!(s.completed + s.failed + s.cancelled, s.accepted, "the books must balance");
    assert_eq!(report.dispatched, 1, "the cancelled job was never dispatched");
    // A running/finished job cannot be cancelled.
    assert_eq!(service.cancel(keep).unwrap().state, WireState::Done);
    assert!(service.cancel(12345).is_none(), "unknown id is None");
}

/// A job whose `deadline_ms` budget has expired by dispatch time settles
/// as a deadline cancellation and never runs.
#[test]
fn expired_deadline_cancels_instead_of_running() {
    let service = start_service();
    let expired_before = obs::global().counter("serve_deadline_expired_total").get();

    let spec = quick_spec(9).with_deadline_ms(0);
    let job = service.submit("a", &spec).unwrap();
    let status = service.wait_done(job, WAIT).unwrap();
    assert_eq!(status.state, WireState::Cancelled);
    assert!(status.error.as_deref().unwrap_or("").contains("deadline"));
    assert!(obs::global().counter("serve_deadline_expired_total").get() > expired_before);

    // A generous deadline changes nothing.
    let roomy = service.submit("a", &quick_spec(10).with_deadline_ms(600_000)).unwrap();
    assert_eq!(service.wait_done(roomy, WAIT).unwrap().state, WireState::Done);

    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.cancelled, 1);
    assert_eq!(report.stats.completed, 1);
}

/// The default sync policy issues one `sync_data` per journal append;
/// `OsManaged` issues none.
#[test]
fn sync_policy_controls_journal_durability() {
    let dir = unique_dir("sync-policy");
    let aln = small_alignment(8);

    let durable =
        InferenceService::start(ServiceConfig::new(1).with_state_dir(dir.join("durable"))).unwrap();
    durable.register_dataset("d", aln.clone());
    let job = durable.submit("a", &quick_spec(1)).unwrap();
    durable.wait_done(job, WAIT).unwrap();
    assert!(
        durable.journal_sync_count() >= 2,
        "submit + done should each have synced, saw {}",
        durable.journal_sync_count()
    );
    durable.shutdown().unwrap();

    let lazy = InferenceService::start(
        ServiceConfig::new(1)
            .with_state_dir(dir.join("lazy"))
            .with_sync_policy(SyncPolicy::OsManaged),
    )
    .unwrap();
    lazy.register_dataset("d", aln);
    let job = lazy.submit("a", &quick_spec(1)).unwrap();
    lazy.wait_done(job, WAIT).unwrap();
    assert_eq!(lazy.journal_sync_count(), 0, "OsManaged must not fsync");
    lazy.shutdown().unwrap();
}

/// End-to-end fault injection: under an aggressive deterministic plan a
/// bare client sees transport errors, but a fresh retried submit with a
/// stable idempotency key lands exactly one job.
#[test]
fn injected_faults_are_survivable_with_idempotent_retry() {
    let service = start_service();
    let config = ServerConfig::default().with_fault_plan(ServeFaultPlan::uniform(77, 0.15));
    let server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();

    let spec = quick_spec(4);
    let mut job = None;
    for _ in 0..50 {
        let mut c = match Client::connect(server.addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match c.submit_idem("a", &spec, Some("stable-key")) {
            Ok(Ok(id)) => {
                job = Some(id);
                break;
            }
            Ok(Err(reason)) => panic!("rejected: {reason:?}"),
            Err(_) => continue, // injected fault; retry with the same key
        }
    }
    let job = job.expect("a submit should eventually get through");
    assert!(server.fault_tally().total() > 0, "the plan should have injected something");
    drop(server);

    let status = service.wait_done(job, WAIT).unwrap();
    assert_eq!(status.state, WireState::Done);
    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.accepted, 1, "every retry deduped to one job");
    assert_eq!(report.stats.completed, 1);
}
