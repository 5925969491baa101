//! Open-loop load generation over the wire, and the capacity ladder.
//!
//! Jobs are due on a fixed schedule whatever the service does; each is
//! timed from its due time, so a stall that delays later submissions is
//! charged to them, and how late the generator ran is reported as lag.
//! Each load thread owns one connection and serves, in order of urgency:
//! a due submission, then the most overdue status poll. A job is polled at
//! a fixed period from its previous poll (never the client's own
//! `wait_done`, whose backoff would measure the harness).

use serve::wire::{JobSpec, JobStatusWire};
use serve::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One job of the schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, ns since the run origin.
    pub due: u64,
    pub tenant: &'static str,
    pub spec: JobSpec,
}

/// The schedule and its timing rules.
#[derive(Debug, Clone)]
pub struct Plan {
    pub jobs: Vec<Planned>,
    /// Status poll period per outstanding job.
    pub poll_ns: u64,
    /// A job not sent this long after its due time is given up as failed.
    pub send_grace_ns: u64,
    /// Jobs still outstanding at this time (since origin) are failed.
    pub deadline_ns: u64,
}

/// Evenly spaced due times: `n` jobs at `rate` per second from `start`.
pub fn due_times(start: u64, rate: f64, n: usize) -> Vec<u64> {
    (0..n).map(|i| start + (i as f64 * 1e9 / rate).round() as u64).collect()
}

/// One job as the client saw it (ns since the run origin).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub due: u64,
    pub sent: Option<u64>,
    pub acked: Option<u64>,
    pub job: Option<u64>,
    pub observed: Option<u64>,
    pub status: Option<JobStatusWire>,
    pub status_rtts: Vec<u64>,
    pub error: Option<String>,
}

impl Sample {
    /// End-to-end latency from the due time, if the job completed.
    pub fn e2e(&self) -> Option<u64> {
        match (&self.status, self.observed) {
            (Some(s), Some(obs)) if s.state == serve::wire::WireState::Done => Some(obs - self.due),
            _ => None,
        }
    }

    /// How late the submission went out.
    pub fn lag(&self) -> Option<u64> {
        self.sent.map(|s| s - self.due)
    }

    pub fn ok(&self) -> bool {
        self.e2e().is_some()
    }
}

/// What a load thread does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Submit the next scheduled job.
    Submit,
    /// Poll the outstanding job at this slot.
    Poll(usize),
    /// Nothing is due before this time.
    SleepUntil(u64),
    /// Schedule exhausted and nothing outstanding.
    Finished,
}

/// The load thread's scheduling rule: a due submission first (the loop is
/// open, so sending on time beats polling), then the most overdue poll.
pub fn next_action(now: u64, next_due: Option<u64>, next_polls: &[u64]) -> Action {
    if next_due.is_some_and(|d| d <= now) {
        return Action::Submit;
    }
    let earliest = next_polls.iter().enumerate().min_by_key(|&(_, &t)| t);
    if let Some((slot, &t)) = earliest {
        if t <= now {
            return Action::Poll(slot);
        }
    }
    match (next_due, earliest.map(|(_, &t)| t)) {
        (None, None) => Action::Finished,
        (Some(d), None) => Action::SleepUntil(d),
        (None, Some(p)) => Action::SleepUntil(p),
        (Some(d), Some(p)) => Action::SleepUntil(d.min(p)),
    }
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Drive `plan` against the server at `addr` from `connections` load
/// threads, job `i` on connection `i % connections`. Returns one sample per
/// planned job, in plan order.
pub fn run(addr: SocketAddr, origin: Instant, plan: &Plan, connections: usize) -> Vec<Sample> {
    let mut samples: Vec<Sample> =
        plan.jobs.iter().map(|p| Sample { due: p.due, ..Sample::default() }).collect();
    let mut lanes: Vec<Vec<(usize, &mut Sample)>> = (0..connections).map(|_| Vec::new()).collect();
    for (i, s) in samples.iter_mut().enumerate() {
        lanes[i % connections].push((i, s));
    }
    std::thread::scope(|scope| {
        for lane in lanes {
            scope.spawn(move || drive_lane(addr, origin, plan, lane));
        }
    });
    samples
}

fn drive_lane(addr: SocketAddr, origin: Instant, plan: &Plan, mut lane: Vec<(usize, &mut Sample)>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            for (_, s) in lane.iter_mut() {
                s.error = Some(format!("connect: {e}"));
            }
            return;
        }
    };
    let mut next = 0;
    // (lane slot, next poll time) of submitted, unfinished jobs.
    let mut outstanding: Vec<(usize, u64)> = Vec::new();
    loop {
        let now = now_ns(origin);
        if now > plan.deadline_ns {
            for &(slot, _) in &outstanding {
                lane[slot].1.error = Some("not finished by the deadline".into());
            }
            for (_, s) in lane.iter_mut().skip(next) {
                s.error = Some("never sent: deadline".into());
            }
            return;
        }
        let polls: Vec<u64> = outstanding.iter().map(|&(_, t)| t).collect();
        let next_due = lane.get(next).map(|(_, s)| s.due);
        match next_action(now, next_due, &polls) {
            Action::Finished => return,
            // Nothing else acts on this lane, so sleeping to the next due
            // submission or poll is exact.
            Action::SleepUntil(t) => std::thread::sleep(Duration::from_nanos(t - now)),
            Action::Submit => {
                let slot = next;
                next += 1;
                let (i, sample) = &mut lane[slot];
                if now > sample.due + plan.send_grace_ns {
                    sample.error = Some("never sent: generator too far behind".into());
                    continue;
                }
                let Some(c) = client.as_mut() else {
                    sample.error = Some("connection lost".into());
                    continue;
                };
                let planned = &plan.jobs[*i];
                sample.sent = Some(now_ns(origin));
                let reply = c.submit(planned.tenant, &planned.spec);
                let acked = now_ns(origin);
                match reply {
                    Ok(Ok(job)) => {
                        sample.acked = Some(acked);
                        sample.job = Some(job);
                        outstanding.push((slot, acked + plan.poll_ns));
                    }
                    Ok(Err(reason)) => sample.error = Some(format!("rejected: {reason:?}")),
                    Err(e) => {
                        sample.error = Some(format!("submit: {e}"));
                        client = Client::connect(addr).ok();
                    }
                }
            }
            Action::Poll(k) => {
                let (slot, _) = outstanding[k];
                let sample = &mut lane[slot].1;
                let Some(c) = client.as_mut() else {
                    sample.error = Some("connection lost".into());
                    outstanding.swap_remove(k);
                    continue;
                };
                let start = now_ns(origin);
                let reply = c.status(sample.job.expect("outstanding jobs were admitted"));
                let end = now_ns(origin);
                sample.status_rtts.push(end - start);
                match reply {
                    Ok(status) if status.state.is_terminal() => {
                        sample.observed = Some(end);
                        sample.status = Some(status);
                        outstanding.swap_remove(k);
                    }
                    Ok(_) => outstanding[k].1 = start + plan.poll_ns,
                    Err(e) => {
                        sample.error = Some(format!("status: {e}"));
                        outstanding.swap_remove(k);
                        client = Client::connect(addr).ok();
                    }
                }
            }
        }
    }
}

/// Whether latency grew across a rung: the median end-to-end time of the
/// last third of its jobs (by due time) exceeds that of the first third by
/// more than half the limit. A failed job (`None`) counts as infinitely
/// late, so failures piling up at the end also read as backlog.
pub fn backlog_grows(e2e_in_due_order: &[Option<u64>], limit_ns: u64) -> bool {
    let n = e2e_in_due_order.len();
    if n < 3 {
        return false;
    }
    let third = n / 3;
    let median = |part: &[Option<u64>]| {
        let mut v: Vec<u64> = part.iter().map(|e| e.unwrap_or(u64::MAX)).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    let first = median(&e2e_in_due_order[..third]);
    let last = median(&e2e_in_due_order[n - third..]);
    last.saturating_sub(first) > limit_ns / 2
}

/// A rung meets the limit when its nearest-rank p90, failures counting as
/// misses, is within `limit_ns` and its backlog does not grow.
pub fn rung_passes(e2e_in_due_order: &[Option<u64>], limit_ns: u64) -> bool {
    if e2e_in_due_order.is_empty() {
        return false;
    }
    let mut v: Vec<u64> = e2e_in_due_order.iter().map(|e| e.unwrap_or(u64::MAX)).collect();
    v.sort_unstable();
    let rank = ((0.9 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] <= limit_ns && !backlog_grows(e2e_in_due_order, limit_ns)
}

/// The next offered rate of a capacity search over `[lo, hi]`: `lo` first,
/// then the geometric midpoint between the highest rate that passed and
/// the lowest that failed (`hi` stands for an untested failure). `None`
/// once `lo` failed — nothing lower is probed.
pub fn next_probe(lo: f64, hi: f64, history: &[(f64, bool)]) -> Option<f64> {
    if history.is_empty() {
        return Some(lo);
    }
    let best_pass = history.iter().filter(|h| h.1).map(|h| h.0).fold(f64::NAN, f64::max);
    if best_pass.is_nan() {
        return None;
    }
    let worst_fail = history.iter().filter(|h| !h.1).map(|h| h.0).fold(hi, f64::min);
    Some((best_pass * worst_fail).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_start() {
        assert_eq!(due_times(1_000, 4.0, 3), vec![1_000, 250_001_000, 500_001_000]);
    }

    #[test]
    fn due_submission_beats_overdue_poll() {
        assert_eq!(next_action(100, Some(90), &[50, 10]), Action::Submit);
        assert_eq!(next_action(100, Some(150), &[50, 10]), Action::Poll(1));
        assert_eq!(next_action(100, Some(150), &[120]), Action::SleepUntil(120));
        assert_eq!(next_action(100, Some(110), &[120]), Action::SleepUntil(110));
        assert_eq!(next_action(100, None, &[]), Action::Finished);
    }

    #[test]
    fn latency_is_timed_from_the_due_time_and_lag_is_separate() {
        let done = JobStatusWire {
            job: 1,
            tenant: "a".into(),
            state: serve::wire::WireState::Done,
            trace: 0,
            result: None,
            error: None,
        };
        // Due at 100 but sent at 130 behind a stalled request: the stall
        // counts in the job's latency and shows as 30 ns of lag.
        let s = Sample {
            due: 100,
            sent: Some(130),
            acked: Some(150),
            job: Some(1),
            observed: Some(400),
            status: Some(done),
            ..Sample::default()
        };
        assert_eq!(s.e2e(), Some(300));
        assert_eq!(s.lag(), Some(30));
        let failed = Sample { due: 100, sent: Some(100), ..Sample::default() };
        assert_eq!(failed.e2e(), None);
        assert!(!failed.ok());
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<Option<u64>> = (0..30).map(|i| Some(100 + (i % 3))).collect();
        assert!(!backlog_grows(&steady, 100));
        let growing: Vec<Option<u64>> = (0..30).map(|i| Some(100 + 10 * i)).collect();
        assert!(backlog_grows(&growing, 100));
        let failing_tail: Vec<Option<u64>> =
            (0..30).map(|i| if i < 20 { Some(100) } else { None }).collect();
        assert!(backlog_grows(&failing_tail, 100));
    }

    #[test]
    fn rung_verdict_counts_failures_as_misses() {
        let fine: Vec<Option<u64>> = (0..20).map(|_| Some(50)).collect();
        assert!(rung_passes(&fine, 100));
        let mut some_failed = fine.clone();
        some_failed[3] = None;
        some_failed[9] = None;
        some_failed[15] = None;
        assert!(!rung_passes(&some_failed, 100));
        assert!(!rung_passes(&[], 100));
    }

    #[test]
    fn capacity_search_bisects_geometrically() {
        assert_eq!(next_probe(4.0, 64.0, &[]), Some(4.0));
        assert_eq!(next_probe(4.0, 64.0, &[(4.0, false)]), None);
        assert_eq!(next_probe(4.0, 64.0, &[(4.0, true)]), Some(16.0));
        assert_eq!(next_probe(4.0, 64.0, &[(4.0, true), (16.0, false)]), Some(8.0));
        assert_eq!(next_probe(4.0, 64.0, &[(4.0, true), (16.0, true)]), Some(32.0));
    }
}
