//! The task-tier inference farm: a batched, shardable work-stealing engine
//! for embarrassingly parallel phylogenetic jobs (bootstraps, multiple
//! inferences, workload captures).
//!
//! This replaces the single-mutex master–worker of [`crate::parallel`] as
//! the §3.1 task-level layer. Design points:
//!
//! * **Per-worker deques, stealing from the back.** Each worker owns a
//!   deque; the master distributes jobs round-robin, owners pop from the
//!   front, idle workers steal from the back of a victim's deque. The
//!   deques are individually mutex-striped (the contention profile of a
//!   Chase-Lev deque without its unsafe memory reclamation): a worker in
//!   steady state only touches its own lock, and thieves touch a victim's
//!   lock once per steal instead of every dispatch contending on one
//!   global queue.
//! * **Bounded submission with backpressure.** [`FarmConfig::bounded`]
//!   caps the number of in-flight (submitted but not completed) jobs; the
//!   feeding thread blocks until completions free capacity, so a lazy job
//!   iterator of any length runs in bounded memory.
//! * **Deterministic job→result ordering.** Results land in submission
//!   order regardless of which worker ran which job or how work was
//!   stolen; the in-order seal callback fires for job *i* only after jobs
//!   `0..i` have sealed, which is what lets an append-only
//!   [`crate::checkpoint::BootstrapStore`] persist every completed job
//!   without reordering records.
//! * **Per-worker reusable shards.** Each worker owns a mutable shard
//!   (e.g. a [`crate::likelihood::LikelihoodWorkspace`]) created once at
//!   spawn and threaded through every job it runs, so steady-state jobs
//!   reuse the previous job's buffers — the arena-recycling contract of
//!   the zero-allocation hot path, without a shared pool lock per job.
//! * **Panic isolation.** A job that panics becomes a typed
//!   [`FarmError::JobPanicked`] entry carrying the original payload
//!   message; the farm keeps draining and every other job's result
//!   survives. Worker deaths (from the injectable [`FarmFaultPlan`])
//!   likewise degrade per-job instead of wedging the farm.
//! * **Observability.** A [`FarmObserver`] receives start/complete/steal/
//!   death events with nanosecond timestamps; the `raxml-cell` crate
//!   bridges these into the `cellsim` trace log so farm-tier runs export
//!   the same Chrome-trace/JSONL artifacts as the simulator. Independently,
//!   every run records wall-clock telemetry into the process-wide
//!   [`obs`] metrics registry: per-worker queue-wait / run / seal-lag
//!   latency histograms (`farm_queue_wait_ns_w<i>`, `farm_job_run_ns_w<i>`,
//!   `farm_seal_lag_ns_w<i>`) and exactly-once job/steal/backpressure/death
//!   counters (`farm_*_total`) that stay coherent with [`FarmStats`] by
//!   construction — counters tick where the stats tick. With the registry
//!   disabled (the default) each record is one branch and zero heap
//!   operations.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// How a farm run is shaped: worker count, submission bound, fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmConfig {
    /// Worker threads (each with its own deque and shard).
    pub n_workers: usize,
    /// Maximum in-flight (submitted, not yet completed) jobs; `0` means
    /// unbounded. The feeding thread blocks when the bound is reached.
    pub capacity: usize,
    /// Deterministic fault injection for tests.
    pub fault: FarmFaultPlan,
    /// Time base for every event timestamp and latency record. `None`
    /// (the default) starts a fresh epoch at `run_farm` entry; a service
    /// that correlates farm events with its own request spans passes its
    /// process epoch so both tiers share one clock.
    pub epoch: Option<Instant>,
}

impl FarmConfig {
    /// An unbounded farm with `n_workers` workers and no faults.
    pub fn new(n_workers: usize) -> FarmConfig {
        FarmConfig { n_workers, capacity: 0, fault: FarmFaultPlan::none(), epoch: None }
    }

    /// Cap in-flight jobs at `capacity` (backpressure on submission).
    pub fn bounded(mut self, capacity: usize) -> FarmConfig {
        self.capacity = capacity;
        self
    }

    /// Attach a fault plan.
    pub fn with_fault(mut self, fault: FarmFaultPlan) -> FarmConfig {
        self.fault = fault;
        self
    }

    /// Timestamp events relative to `epoch` instead of `run_farm` entry.
    pub fn with_epoch(mut self, epoch: Instant) -> FarmConfig {
        self.epoch = Some(epoch);
        self
    }
}

/// Injectable failures, in the spirit of `cellsim::fault::FaultPlan`:
/// deterministic, declared up front, replayable. Used by the robustness
/// tests to prove the farm's accounting survives losing workers and jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmFaultPlan {
    /// `(worker, n)`: worker dies after completing `n` jobs.
    deaths: Vec<(usize, usize)>,
    /// Jobs whose execution is replaced by an injected failure.
    failed_jobs: Vec<usize>,
}

impl FarmFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FarmFaultPlan {
        FarmFaultPlan::default()
    }

    /// Kill `worker` after it has completed `completed_jobs` jobs (0 kills
    /// it before it runs anything). Its queued jobs are stolen by the
    /// survivors; if every worker dies, the remainder surface as
    /// [`FarmError::WorkerLost`].
    pub fn kill_worker_after(mut self, worker: usize, completed_jobs: usize) -> FarmFaultPlan {
        self.deaths.push((worker, completed_jobs));
        self
    }

    /// Replace job `job`'s execution with a typed
    /// [`FarmError::InjectedFault`].
    pub fn fail_job(mut self, job: usize) -> FarmFaultPlan {
        self.failed_jobs.push(job);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.deaths.is_empty() && self.failed_jobs.is_empty()
    }

    fn death_after(&self, worker: usize) -> Option<usize> {
        self.deaths.iter().find(|&&(w, _)| w == worker).map(|&(_, n)| n)
    }

    fn injects_fault(&self, job: usize) -> bool {
        self.failed_jobs.contains(&job)
    }
}

/// Why one job produced no result. The farm never turns one bad job into a
/// farm-wide panic: every failure is a per-slot typed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// The job's closure panicked; `message` is the original payload.
    JobPanicked { job: usize, worker: usize, message: String },
    /// The fault plan replaced this job's execution with a failure.
    InjectedFault { job: usize, worker: usize },
    /// Every worker died before this job could run.
    WorkerLost { job: usize },
}

impl FarmError {
    /// The submission index of the failed job.
    pub fn job(&self) -> usize {
        match *self {
            FarmError::JobPanicked { job, .. }
            | FarmError::InjectedFault { job, .. }
            | FarmError::WorkerLost { job } => job,
        }
    }
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::JobPanicked { job, worker, message } => {
                write!(f, "job {job} panicked on worker {worker}: {message}")
            }
            FarmError::InjectedFault { job, worker } => {
                write!(f, "job {job} hit an injected fault on worker {worker}")
            }
            FarmError::WorkerLost { job } => {
                write!(f, "job {job} was queued but every worker died before running it")
            }
        }
    }
}

impl std::error::Error for FarmError {}

/// One farm-tier occurrence, timestamped in nanoseconds since the farm
/// started. Events from one worker arrive in that worker's program order;
/// interleaving across workers follows real execution and is therefore not
/// deterministic (results are — see the module docs).
/// The duration-bearing events carry both endpoints of their interval as
/// the exact integers fed to the latency histograms at the same code
/// sites, so an observer can re-derive queue-wait / run / seal-lag spans
/// that agree with the histograms integer-for-integer (the coherence the
/// `trace_e2e` test asserts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmEvent {
    /// Worker `worker` began executing job `job`, which had been enqueued
    /// at `enqueued_at_nanos` (queue wait = `at_nanos - enqueued_at_nanos`).
    JobStarted { at_nanos: u64, worker: usize, job: usize, enqueued_at_nanos: u64 },
    /// Worker `worker` finished job `job` (`ok` = produced a result);
    /// it started running at `started_at_nanos`.
    JobCompleted { at_nanos: u64, worker: usize, job: usize, ok: bool, started_at_nanos: u64 },
    /// Job `job` was sealed in submission order (the exactly-once point),
    /// having completed at `completed_at_nanos` (seal lag = `at_nanos -
    /// completed_at_nanos`). `worker` is `usize::MAX` for jobs written off
    /// as [`FarmError::WorkerLost`].
    JobSealed { at_nanos: u64, worker: usize, job: usize, ok: bool, completed_at_nanos: u64 },
    /// `thief` stole job `job` from the back of `victim`'s deque.
    JobStolen { at_nanos: u64, thief: usize, victim: usize, job: usize },
    /// A fault-plan death: `worker` stopped pulling work.
    WorkerDied { at_nanos: u64, worker: usize },
}

/// Receives [`FarmEvent`]s on the feeding thread while the farm drains.
pub trait FarmObserver {
    fn on_event(&mut self, event: FarmEvent);
}

impl<F: FnMut(FarmEvent)> FarmObserver for F {
    fn on_event(&mut self, event: FarmEvent) {
        self(event)
    }
}

/// One answer from a [`run_farm_polling`] feed callback.
///
/// The iterator feed of [`run_farm`] can only block or end, which means
/// worker mail (completions, lifecycle events, the in-order seal) sits
/// undrained while the feeder is parked inside `next()` waiting for work.
/// A polling feed returns [`FeedPoll::Idle`] instead of blocking
/// indefinitely; the farm drains its mailbox on every `Idle` and polls
/// again, so seals, observer events, and the telemetry derived from them
/// stay live even when no new job ever arrives.
#[derive(Debug)]
pub enum FeedPoll<J> {
    /// Dispatch this job.
    Job(J),
    /// No job right now — drain worker mail and poll again. The feed is
    /// expected to have waited (bounded) before returning this; the farm
    /// adds no sleep of its own.
    Idle,
    /// The feed is finished; no more jobs will ever arrive.
    Closed,
}

/// Aggregate accounting of one farm run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs submitted (== `results.len()` of the outcome).
    pub n_jobs: usize,
    /// Jobs that produced a [`FarmError`] instead of a result.
    pub n_failed: usize,
    /// Successful steals.
    pub steals: u64,
    /// Peak submitted-but-not-completed jobs (≤ `capacity` when bounded).
    pub max_in_flight: usize,
    /// Jobs completed per worker (stolen jobs count for the thief).
    pub per_worker_jobs: Vec<usize>,
    /// Workers killed by the fault plan.
    pub workers_died: usize,
    /// Wall time of the whole run.
    pub elapsed_nanos: u64,
}

impl FarmStats {
    /// Completed jobs per wall second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            return 0.0;
        }
        self.n_jobs as f64 / (self.elapsed_nanos as f64 / 1e9)
    }
}

/// Everything a farm run produced: one result slot per submitted job, in
/// submission order, plus the run's accounting.
#[derive(Debug)]
pub struct FarmOutcome<R> {
    /// `results[i]` is job `i`'s result or its typed failure.
    pub results: Vec<Result<R, FarmError>>,
    pub stats: FarmStats,
}

impl<R> FarmOutcome<R> {
    /// All results, or the first failure (by job order).
    pub fn into_results(self) -> Result<Vec<R>, FarmError> {
        self.results.into_iter().collect()
    }

    /// The first failure in job order, if any.
    pub fn first_error(&self) -> Option<&FarmError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }
}

/// Render a panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// The farm's wall-clock telemetry handles, resolved from the global
/// [`obs`] registry once per run. Only built when the registry is enabled
/// at farm start, so a disabled registry costs the farm exactly one
/// `is_enabled` load — no handle registration, no name formatting, and no
/// per-job recording.
struct FarmMetrics {
    /// `farm_queue_wait_ns_w<i>`: push-to-claim latency, recorded by the
    /// worker that ran the job (thieves record into their own histogram).
    queue_wait: Vec<obs::Histogram>,
    /// `farm_job_run_ns_w<i>`: job execution wall time per worker.
    run: Vec<obs::Histogram>,
    /// `farm_seal_lag_ns_w<i>`: completion-to-seal latency per worker —
    /// how long a finished job waited for its in-order turn.
    seal_lag: Vec<obs::Histogram>,
    /// Tick exactly where [`FarmStats`] ticks, so the registry and the
    /// stats can never disagree.
    jobs: obs::Counter,
    failed: obs::Counter,
    steals: obs::Counter,
    backpressure: obs::Counter,
    deaths: obs::Counter,
}

impl FarmMetrics {
    fn new(n_workers: usize) -> Option<FarmMetrics> {
        let reg = obs::global();
        if !reg.is_enabled() {
            return None;
        }
        Some(FarmMetrics {
            queue_wait: (0..n_workers)
                .map(|i| reg.histogram(&format!("farm_queue_wait_ns_w{i}")))
                .collect(),
            run: (0..n_workers).map(|i| reg.histogram(&format!("farm_job_run_ns_w{i}"))).collect(),
            seal_lag: (0..n_workers)
                .map(|i| reg.histogram(&format!("farm_seal_lag_ns_w{i}")))
                .collect(),
            jobs: reg.counter("farm_jobs_total"),
            failed: reg.counter("farm_jobs_failed_total"),
            steals: reg.counter("farm_steals_total"),
            backpressure: reg.counter("farm_backpressure_waits_total"),
            deaths: reg.counter("farm_workers_died_total"),
        })
    }
}

/// A job's landed outcome plus the provenance the seal loop needs to
/// record seal lag: when it completed and which worker ran it
/// (`usize::MAX` for jobs written off as [`FarmError::WorkerLost`]).
struct Slot<R> {
    result: Result<R, FarmError>,
    completed_at: u64,
    worker: usize,
}

impl<R> Slot<R> {
    fn lost(job: usize, at_nanos: u64) -> Slot<R> {
        Slot {
            result: Err(FarmError::WorkerLost { job }),
            completed_at: at_nanos,
            worker: usize::MAX,
        }
    }
}

/// A completed job on its way back to the feeding thread.
struct Completion<R> {
    job: usize,
    worker: usize,
    at_nanos: u64,
    result: Result<R, FarmError>,
}

/// Worker→master mail. Events and completions share one queue so the
/// observer sees a worker's `JobStarted` before its `JobCompleted`.
enum Mail<R> {
    Event(FarmEvent),
    Done(Completion<R>),
}

/// Counters shared between the feeder and the workers.
struct Inner<R> {
    /// Jobs currently sitting unclaimed in some deque.
    queued: usize,
    submitted: usize,
    completed: usize,
    /// No more submissions will arrive.
    closed: bool,
    /// Workers not yet killed by the fault plan.
    live_workers: usize,
    mail: Vec<Mail<R>>,
}

struct Shared<J, R> {
    /// `(job index, job, enqueued_at nanos)` — the timestamp feeds the
    /// queue-wait histogram.
    deques: Vec<Mutex<VecDeque<(usize, J, u64)>>>,
    inner: Mutex<Inner<R>>,
    /// Workers wait here for work (or close).
    work_cv: Condvar,
    /// The feeder waits here for completions (capacity or final drain).
    done_cv: Condvar,
}

impl<J, R> Shared<J, R> {
    fn new(n_workers: usize) -> Shared<J, R> {
        Shared {
            deques: (0..n_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            inner: Mutex::new(Inner {
                queued: 0,
                submitted: 0,
                completed: 0,
                closed: false,
                live_workers: n_workers,
                mail: Vec::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }
}

fn nanos(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Claim a job: own deque front first, then a steal sweep over the other
/// deques' backs. Returns `None` once the farm is closed and drained.
#[allow(clippy::type_complexity)]
fn next_job<J, R>(shared: &Shared<J, R>, id: usize) -> Option<(usize, J, u64, Option<usize>)> {
    let n = shared.deques.len();
    loop {
        let own = shared.deques[id].lock().expect("farm deque").pop_front();
        if let Some((idx, job, enq)) = own {
            shared.inner.lock().expect("farm state").queued -= 1;
            return Some((idx, job, enq, None));
        }
        for k in 1..n {
            let victim = (id + k) % n;
            let stolen = shared.deques[victim].lock().expect("farm deque").pop_back();
            if let Some((idx, job, enq)) = stolen {
                shared.inner.lock().expect("farm state").queued -= 1;
                return Some((idx, job, enq, Some(victim)));
            }
        }
        let inner = shared.inner.lock().expect("farm state");
        if inner.queued > 0 {
            // A job is in flight between the feeder's counter bump and its
            // deque push (or another thief beat us) — re-sweep.
            drop(inner);
            std::thread::yield_now();
            continue;
        }
        if inner.closed {
            return None;
        }
        let _reacquired = shared.work_cv.wait(inner).expect("farm state");
    }
}

fn worker_loop<J, R, W, F>(
    shared: &Shared<J, R>,
    id: usize,
    mut shard: W,
    work: &F,
    fault: &FarmFaultPlan,
    epoch: Instant,
    metrics: Option<&FarmMetrics>,
) where
    J: Send,
    R: Send,
    F: Fn(&mut W, usize, J) -> R + Sync,
{
    let quota = fault.death_after(id);
    let mut done_here = 0usize;
    loop {
        if quota == Some(done_here) {
            let mut inner = shared.inner.lock().expect("farm state");
            inner.live_workers -= 1;
            inner
                .mail
                .push(Mail::Event(FarmEvent::WorkerDied { at_nanos: nanos(epoch), worker: id }));
            drop(inner);
            shared.done_cv.notify_all();
            return;
        }
        let Some((idx, job, enqueued_at, stolen_from)) = next_job(shared, id) else {
            return;
        };
        let started = nanos(epoch);
        let result = if fault.injects_fault(idx) {
            Err(FarmError::InjectedFault { job: idx, worker: id })
        } else {
            catch_unwind(AssertUnwindSafe(|| work(&mut shard, idx, job))).map_err(|payload| {
                FarmError::JobPanicked {
                    job: idx,
                    worker: id,
                    message: panic_message(payload.as_ref()),
                }
            })
        };
        done_here += 1;
        let ok = result.is_ok();
        let finished = nanos(epoch);
        if let Some(m) = metrics {
            m.queue_wait[id].record(started.saturating_sub(enqueued_at));
            m.run[id].record(finished.saturating_sub(started));
        }
        let mut inner = shared.inner.lock().expect("farm state");
        if let Some(victim) = stolen_from {
            inner.mail.push(Mail::Event(FarmEvent::JobStolen {
                at_nanos: started,
                thief: id,
                victim,
                job: idx,
            }));
        }
        inner.mail.push(Mail::Event(FarmEvent::JobStarted {
            at_nanos: started,
            worker: id,
            job: idx,
            enqueued_at_nanos: enqueued_at,
        }));
        inner.completed += 1;
        inner.mail.push(Mail::Done(Completion {
            job: idx,
            worker: id,
            at_nanos: finished,
            result,
        }));
        inner.mail.push(Mail::Event(FarmEvent::JobCompleted {
            at_nanos: finished,
            worker: id,
            job: idx,
            ok,
            started_at_nanos: started,
        }));
        drop(inner);
        shared.done_cv.notify_all();
    }
}

fn ensure_slot<R>(results: &mut Vec<Option<Slot<R>>>, job: usize) {
    if results.len() <= job {
        results.resize_with(job + 1, || None);
    }
}

/// Flush the in-order prefix of sealed results through `on_sealed`. This is
/// the exactly-once point of the farm, so the registry's job counters tick
/// here — they agree with [`FarmStats`] by construction, not by auditing.
/// One `nanos(epoch)` read per job feeds both the seal-lag histogram and
/// the [`FarmEvent::JobSealed`] event, so an observer re-deriving the lag
/// from the event gets the histogram's integer exactly.
fn seal_ready<R, S>(
    results: &[Option<Slot<R>>],
    sealed: &mut usize,
    metrics: Option<&FarmMetrics>,
    epoch: Instant,
    observer: &mut Option<&mut dyn FarmObserver>,
    on_sealed: &mut S,
) where
    S: FnMut(usize, &Result<R, FarmError>),
{
    while *sealed < results.len() {
        match &results[*sealed] {
            Some(slot) => {
                let sealed_at = nanos(epoch);
                if let Some(m) = metrics {
                    m.jobs.inc();
                    if slot.result.is_err() {
                        m.failed.inc();
                    }
                    if slot.worker != usize::MAX {
                        m.seal_lag[slot.worker].record(sealed_at.saturating_sub(slot.completed_at));
                    }
                }
                if let Some(obs) = observer.as_deref_mut() {
                    obs.on_event(FarmEvent::JobSealed {
                        at_nanos: sealed_at,
                        worker: slot.worker,
                        job: *sealed,
                        ok: slot.result.is_ok(),
                        completed_at_nanos: slot.completed_at,
                    });
                }
                on_sealed(*sealed, &slot.result);
                *sealed += 1;
            }
            None => break,
        }
    }
}

/// Drain worker mail on the feeding thread: forward events to the
/// observer, land completions in their slots, advance the in-order seal.
#[allow(clippy::too_many_arguments)]
fn drain_mail<R, S>(
    inner: &mut Inner<R>,
    results: &mut Vec<Option<Slot<R>>>,
    sealed: &mut usize,
    stats: &mut FarmStats,
    metrics: Option<&FarmMetrics>,
    epoch: Instant,
    observer: &mut Option<&mut dyn FarmObserver>,
    on_sealed: &mut S,
) where
    S: FnMut(usize, &Result<R, FarmError>),
{
    for mail in inner.mail.drain(..) {
        match mail {
            Mail::Event(ev) => {
                match ev {
                    FarmEvent::JobStolen { .. } => {
                        stats.steals += 1;
                        if let Some(m) = metrics {
                            m.steals.inc();
                        }
                    }
                    FarmEvent::WorkerDied { .. } => {
                        stats.workers_died += 1;
                        if let Some(m) = metrics {
                            m.deaths.inc();
                        }
                    }
                    _ => {}
                }
                if let Some(obs) = observer.as_deref_mut() {
                    obs.on_event(ev);
                }
            }
            Mail::Done(c) => {
                stats.per_worker_jobs[c.worker] += 1;
                if c.result.is_err() {
                    stats.n_failed += 1;
                }
                ensure_slot(results, c.job);
                results[c.job] =
                    Some(Slot { result: c.result, completed_at: c.at_nanos, worker: c.worker });
            }
        }
    }
    seal_ready(results, sealed, metrics, epoch, observer, on_sealed);
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Run `jobs` through a work-stealing farm. The full entry point; see
/// [`run_batch`] for the common no-hooks case.
///
/// * `make_shard(worker)` builds each worker's reusable mutable state.
/// * `work(&mut shard, job_index, job)` executes one job on a worker.
/// * `observer`, if present, receives [`FarmEvent`]s on this thread.
/// * `on_sealed(i, result)` fires exactly once per job, in strict
///   submission order (job `i` seals only after `0..i` have), on this
///   thread — the checkpoint-append hook.
///
/// Returns one result slot per job, in submission order. The call only
/// panics on misuse (`n_workers == 0`); job failures are data.
pub fn run_farm<J, R, W, MkW, F, S>(
    config: &FarmConfig,
    jobs: impl IntoIterator<Item = J>,
    make_shard: MkW,
    work: F,
    observer: Option<&mut dyn FarmObserver>,
    on_sealed: S,
) -> FarmOutcome<R>
where
    J: Send,
    R: Send,
    W: Send,
    MkW: FnMut(usize) -> W,
    F: Fn(&mut W, usize, J) -> R + Sync,
    S: FnMut(usize, &Result<R, FarmError>),
{
    let mut jobs = jobs.into_iter();
    run_farm_polling(
        config,
        move || jobs.next().map_or(FeedPoll::Closed, FeedPoll::Job),
        make_shard,
        work,
        observer,
        on_sealed,
    )
}

/// [`run_farm`] with a *polling* feed: `feed()` is called on this thread
/// for every job and may answer [`FeedPoll::Idle`] instead of blocking
/// until one exists. On each `Idle` the farm drains worker mail — landing
/// completions, advancing the in-order seal, and forwarding
/// [`FarmEvent`]s — before polling again, so a long-lived feed (a service
/// queue) gets live seals and telemetry between submissions instead of
/// only when the next job happens to arrive. The feed is responsible for
/// its own bounded wait before answering `Idle`; the farm never sleeps.
pub fn run_farm_polling<J, R, W, MkW, F, S>(
    config: &FarmConfig,
    mut feed: impl FnMut() -> FeedPoll<J>,
    mut make_shard: MkW,
    work: F,
    mut observer: Option<&mut dyn FarmObserver>,
    mut on_sealed: S,
) -> FarmOutcome<R>
where
    J: Send,
    R: Send,
    W: Send,
    MkW: FnMut(usize) -> W,
    F: Fn(&mut W, usize, J) -> R + Sync,
    S: FnMut(usize, &Result<R, FarmError>),
{
    assert!(config.n_workers >= 1, "farm needs at least one worker");
    let n_workers = config.n_workers;
    let epoch = config.epoch.unwrap_or_else(Instant::now);
    let shared: Shared<J, R> = Shared::new(n_workers);
    let shards: Vec<W> = (0..n_workers).map(&mut make_shard).collect();
    let metrics = FarmMetrics::new(n_workers);
    let metrics = metrics.as_ref();

    let mut results: Vec<Option<Slot<R>>> = Vec::new();
    let mut sealed = 0usize;
    let mut stats = FarmStats { per_worker_jobs: vec![0; n_workers], ..FarmStats::default() };

    std::thread::scope(|s| {
        for (id, shard) in shards.into_iter().enumerate() {
            let shared = &shared;
            let work = &work;
            let fault = &config.fault;
            s.spawn(move || worker_loop(shared, id, shard, work, fault, epoch, metrics));
        }

        // Feed with backpressure; an idle feed triggers a drain instead of
        // a dispatch, so seals never wait for the next submission.
        let mut farm_dead = false;
        let mut next_idx = 0usize;
        loop {
            let job = match feed() {
                FeedPoll::Closed => break,
                FeedPoll::Idle => {
                    drain_mail(
                        &mut shared.inner.lock().expect("farm state"),
                        &mut results,
                        &mut sealed,
                        &mut stats,
                        metrics,
                        epoch,
                        &mut observer,
                        &mut on_sealed,
                    );
                    continue;
                }
                FeedPoll::Job(job) => job,
            };
            let idx = next_idx;
            next_idx += 1;
            if !farm_dead {
                let mut inner = shared.inner.lock().expect("farm state");
                loop {
                    drain_mail(
                        &mut inner,
                        &mut results,
                        &mut sealed,
                        &mut stats,
                        metrics,
                        epoch,
                        &mut observer,
                        &mut on_sealed,
                    );
                    if inner.live_workers == 0 {
                        farm_dead = true;
                        break;
                    }
                    let in_flight = inner.submitted - inner.completed;
                    if config.capacity == 0 || in_flight < config.capacity {
                        inner.submitted += 1;
                        inner.queued += 1;
                        stats.max_in_flight =
                            stats.max_in_flight.max(inner.submitted - inner.completed);
                        break;
                    }
                    if let Some(m) = metrics {
                        m.backpressure.inc();
                    }
                    inner = shared.done_cv.wait(inner).expect("farm state");
                }
                if !farm_dead {
                    drop(inner);
                    shared.deques[idx % n_workers].lock().expect("farm deque").push_back((
                        idx,
                        job,
                        nanos(epoch),
                    ));
                    shared.work_cv.notify_one();
                    continue;
                }
            }
            // No worker left to run this job.
            ensure_slot(&mut results, idx);
            results[idx] = Some(Slot::lost(idx, nanos(epoch)));
            stats.n_failed += 1;
        }

        shared.inner.lock().expect("farm state").closed = true;
        shared.work_cv.notify_all();

        // Drain until every submitted job has a completion (or the jobs
        // stranded by a total worker loss are written off).
        let mut inner = shared.inner.lock().expect("farm state");
        loop {
            drain_mail(
                &mut inner,
                &mut results,
                &mut sealed,
                &mut stats,
                metrics,
                epoch,
                &mut observer,
                &mut on_sealed,
            );
            if inner.completed >= inner.submitted {
                break;
            }
            if inner.live_workers == 0 {
                drop(inner);
                for deque in &shared.deques {
                    for (idx, _job, _enq) in deque.lock().expect("farm deque").drain(..) {
                        ensure_slot(&mut results, idx);
                        results[idx] = Some(Slot::lost(idx, nanos(epoch)));
                        stats.n_failed += 1;
                    }
                }
                inner = shared.inner.lock().expect("farm state");
                inner.completed = inner.submitted;
                inner.queued = 0;
                continue;
            }
            inner = shared.done_cv.wait(inner).expect("farm state");
        }
        drop(inner);
    });

    // The drain loop exits on the last completion, but a worker can still
    // push mail after that (its fault-plan death races the master's final
    // drain). All workers have joined here, so one more drain under the
    // lock is guaranteed to observe everything; it also flushes the seal.
    drain_mail(
        &mut shared.inner.lock().expect("farm state"),
        &mut results,
        &mut sealed,
        &mut stats,
        metrics,
        epoch,
        &mut observer,
        &mut on_sealed,
    );
    stats.elapsed_nanos = nanos(epoch);
    stats.n_jobs = results.len();
    let results: Vec<Result<R, FarmError>> = results
        .into_iter()
        .map(|slot| slot.expect("every job sealed exactly once").result)
        .collect();
    FarmOutcome { results, stats }
}

/// The common case: a materialized job list, stateless workers, no hooks —
/// the thread analogue of the paper's MPI master–worker scheme for
/// bootstraps and multiple inferences (§3.1). Results come back in job
/// order, with a panicking job as a typed [`FarmError::JobPanicked`]
/// instead of an unwind.
pub fn run_batch<J, R, F>(jobs: Vec<J>, n_workers: usize, work: F) -> FarmOutcome<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let config = FarmConfig::new(n_workers);
    run_farm(&config, jobs, |_| (), |(), idx, job| work(idx, job), None, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batch_preserves_submission_order() {
        let outcome = run_batch((0..100u64).collect(), 4, |_, j| j * j);
        assert_eq!(outcome.results.len(), 100);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i * i) as u64);
        }
        assert_eq!(outcome.stats.n_jobs, 100);
        assert_eq!(outcome.stats.n_failed, 0);
        assert_eq!(outcome.stats.per_worker_jobs.iter().sum::<usize>(), 100);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let outcome = run_batch(vec![(); 257], 8, |_, ()| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(outcome.results.len(), 257);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn single_worker_runs_in_submission_order() {
        let outcome = run_batch(vec![1, 2, 3], 1, |idx, j| (idx, j));
        let values: Vec<_> = outcome.into_results().unwrap();
        assert_eq!(values, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let outcome = run_batch(vec![7], 16, |_, j: i32| j + 1);
        assert_eq!(outcome.into_results().unwrap(), vec![8]);
    }

    #[test]
    fn empty_job_list() {
        let outcome = run_batch(Vec::<u32>::new(), 4, |_, j| j);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.n_jobs, 0);
    }

    #[test]
    fn panicking_job_is_isolated_with_original_message() {
        let outcome = run_batch((0..50u32).collect(), 4, |_, j| {
            if j == 17 {
                panic!("job seventeen exploded");
            }
            j * 2
        });
        assert_eq!(outcome.results.len(), 50);
        assert_eq!(outcome.stats.n_failed, 1);
        for (i, r) in outcome.results.iter().enumerate() {
            if i == 17 {
                match r {
                    Err(FarmError::JobPanicked { job: 17, message, .. }) => {
                        assert!(message.contains("seventeen exploded"), "{message}");
                    }
                    other => panic!("expected JobPanicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
        assert_eq!(outcome.first_error().unwrap().job(), 17);
    }

    #[test]
    fn injected_fault_is_typed_and_contained() {
        let config = FarmConfig::new(3).with_fault(FarmFaultPlan::none().fail_job(2).fail_job(5));
        let outcome =
            run_farm(&config, (0..8u32).collect::<Vec<_>>(), |_| (), |(), _, j| j, None, |_, _| {});
        assert_eq!(outcome.stats.n_failed, 2);
        for (i, r) in outcome.results.iter().enumerate() {
            if i == 2 || i == 5 {
                assert!(matches!(r, Err(FarmError::InjectedFault { .. })), "{i}: {r:?}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn dead_workers_jobs_are_stolen_by_survivors() {
        // Worker 0 dies immediately; its round-robin share must still run.
        let config = FarmConfig::new(3).with_fault(FarmFaultPlan::none().kill_worker_after(0, 0));
        let outcome = run_farm(
            &config,
            (0..60u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j + 1,
            None,
            |_, _| {},
        );
        assert_eq!(outcome.stats.workers_died, 1);
        assert_eq!(outcome.stats.n_failed, 0);
        assert_eq!(outcome.stats.per_worker_jobs[0], 0);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
        }
    }

    #[test]
    fn total_worker_loss_surfaces_as_worker_lost() {
        let config = FarmConfig::new(2)
            .with_fault(FarmFaultPlan::none().kill_worker_after(0, 0).kill_worker_after(1, 0));
        let outcome = run_farm(
            &config,
            (0..10u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            None,
            |_, _| {},
        );
        assert_eq!(outcome.results.len(), 10);
        assert_eq!(outcome.stats.n_failed, 10);
        for r in &outcome.results {
            assert!(matches!(r, Err(FarmError::WorkerLost { .. })), "{r:?}");
        }
    }

    #[test]
    fn bounded_submission_respects_capacity() {
        let config = FarmConfig::new(4).bounded(5);
        let outcome = run_farm(
            &config,
            (0..200u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j % 7,
            None,
            |_, _| {},
        );
        assert!(outcome.stats.max_in_flight <= 5, "{}", outcome.stats.max_in_flight);
        assert_eq!(outcome.results.len(), 200);
        assert_eq!(outcome.stats.n_failed, 0);
    }

    #[test]
    fn seal_callback_fires_in_strict_job_order() {
        let mut sealed: Vec<usize> = Vec::new();
        let config = FarmConfig::new(4).with_fault(FarmFaultPlan::none().fail_job(30));
        let outcome = run_farm(
            &config,
            (0..120u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            None,
            |i, _res| sealed.push(i),
        );
        assert_eq!(sealed, (0..120).collect::<Vec<_>>());
        assert_eq!(outcome.results.len(), 120);
    }

    #[test]
    fn shards_persist_across_a_workers_jobs() {
        // Each worker's shard counts the jobs it ran; the shard totals must
        // account for every job exactly once.
        let totals = Mutex::new(vec![0usize; 4]);
        let outcome = run_farm(
            &FarmConfig::new(4),
            vec![(); 97],
            |id| (id, 0usize),
            |shard: &mut (usize, usize), _, ()| {
                shard.1 += 1;
                shard.1
            },
            None,
            |_, _| {},
        );
        drop(totals.lock().unwrap());
        assert_eq!(outcome.results.len(), 97);
        assert_eq!(outcome.stats.per_worker_jobs.iter().sum::<usize>(), 97);
        // A worker's k-th job sees shard counter k: reuse is real.
        let max_result = outcome.results.iter().map(|r| *r.as_ref().unwrap()).max().unwrap();
        assert!(max_result >= 97usize.div_ceil(4));
    }

    #[test]
    fn polling_feed_seals_while_idle_and_matches_iterator_results() {
        // A feed that hands out one job, goes idle until that job has
        // *sealed* (observer event delivered), then hands out the next.
        // Under the iterator feed this would deadlock — seals only
        // advanced when the next job arrived; the polling feed drains
        // worker mail on every Idle, so the seal lands between jobs.
        let sealed = std::cell::Cell::new(0usize);
        let handed = std::cell::Cell::new(0usize);
        let events = std::cell::RefCell::new(Vec::new());
        let mut obs = |ev: FarmEvent| {
            if matches!(ev, FarmEvent::JobSealed { .. }) {
                sealed.set(sealed.get() + 1);
            }
            events.borrow_mut().push(ev);
        };
        let outcome = run_farm_polling(
            &FarmConfig::new(2),
            || {
                if handed.get() == 12 {
                    FeedPoll::Closed
                } else if handed.get() == sealed.get() {
                    handed.set(handed.get() + 1);
                    FeedPoll::Job(handed.get() as u32)
                } else {
                    // The pending job is still running; yield briefly so
                    // the worker can finish, then let the farm drain.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    FeedPoll::Idle
                }
            },
            |_| (),
            |(), _, j| j * 10,
            Some(&mut obs),
            |_, _| {},
        );
        assert_eq!(sealed.get(), 12, "every job sealed without a successor forcing the drain");
        let results: Vec<u32> = outcome.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(results, (1..=12).map(|j| j * 10).collect::<Vec<_>>());
        assert_eq!(outcome.stats.n_jobs, 12);
        assert_eq!(outcome.stats.n_failed, 0);
    }

    #[test]
    fn observer_sees_coherent_per_job_lifecycles() {
        let mut events: Vec<FarmEvent> = Vec::new();
        let mut obs = |ev: FarmEvent| events.push(ev);
        // Quota 0 so the death is unconditional: a nonzero quota only fires
        // if the worker actually completes that many jobs, which scheduling
        // on a small machine may never let happen.
        let config = FarmConfig::new(3).with_fault(FarmFaultPlan::none().kill_worker_after(2, 0));
        let outcome = run_farm(
            &config,
            (0..40u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut obs),
            |_, _| {},
        );
        let starts = events.iter().filter(|e| matches!(e, FarmEvent::JobStarted { .. })).count();
        let completes =
            events.iter().filter(|e| matches!(e, FarmEvent::JobCompleted { .. })).count();
        let deaths = events.iter().filter(|e| matches!(e, FarmEvent::WorkerDied { .. })).count();
        assert_eq!(starts, 40);
        assert_eq!(completes, 40);
        assert_eq!(deaths, 1);
        assert_eq!(outcome.stats.workers_died, 1);
        let steals =
            events.iter().filter(|e| matches!(e, FarmEvent::JobStolen { .. })).count() as u64;
        assert_eq!(steals, outcome.stats.steals);
    }

    #[test]
    fn events_carry_exact_interval_endpoints_and_seal_in_order() {
        let mut events: Vec<FarmEvent> = Vec::new();
        let mut obs = |ev: FarmEvent| events.push(ev);
        let epoch = Instant::now();
        let config = FarmConfig::new(3).with_epoch(epoch).with_fault(FarmFaultPlan::none());
        run_farm(
            &config,
            (0..30u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut obs),
            |_, _| {},
        );

        // Each job's lifecycle endpoints chain: enqueue ≤ start ≤ complete
        // ≤ seal, and the shared endpoints are the same integers across
        // events (the histogram-coherence invariant).
        let mut started = std::collections::HashMap::new();
        let mut completed = std::collections::HashMap::new();
        let mut seals = Vec::new();
        for ev in &events {
            match *ev {
                FarmEvent::JobStarted { at_nanos, job, enqueued_at_nanos, .. } => {
                    assert!(enqueued_at_nanos <= at_nanos);
                    started.insert(job, at_nanos);
                }
                FarmEvent::JobCompleted { at_nanos, job, started_at_nanos, .. } => {
                    assert_eq!(started[&job], started_at_nanos, "start endpoint must match");
                    assert!(started_at_nanos <= at_nanos);
                    completed.insert(job, at_nanos);
                }
                FarmEvent::JobSealed { at_nanos, job, ok, completed_at_nanos, worker } => {
                    assert!(ok);
                    assert_ne!(worker, usize::MAX);
                    assert_eq!(completed[&job], completed_at_nanos, "completion endpoint");
                    assert!(completed_at_nanos <= at_nanos);
                    seals.push(job);
                }
                _ => {}
            }
        }
        assert_eq!(seals, (0..30).collect::<Vec<_>>(), "seals fire in submission order");
    }

    #[test]
    fn skewed_work_triggers_stealing() {
        // Round-robin puts every 4th job on worker 0; worker 0's jobs are
        // slow, so the other workers drain their own deques and then steal
        // worker 0's backlog.
        let outcome = run_batch((0..64u32).collect(), 4, |idx, j| {
            if idx % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            j
        });
        assert_eq!(outcome.results.len(), 64);
        assert!(outcome.stats.steals > 0, "expected steals under skew: {:?}", outcome.stats);
    }

    #[test]
    fn results_are_deterministic_across_worker_counts() {
        let run = |n: usize| {
            run_batch((0..50u64).collect(), n, |_, j| (j as f64).sin().to_bits())
                .into_results()
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn stats_jobs_per_sec_is_finite() {
        let outcome = run_batch((0..10u32).collect(), 2, |_, j| j);
        assert!(outcome.stats.jobs_per_sec().is_finite());
        assert!(outcome.stats.elapsed_nanos > 0);
    }
}
