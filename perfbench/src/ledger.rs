//! The per-job latency ledger of a served job.
//!
//! A job's end-to-end time runs from the moment it was due to be sent to
//! the moment the client read its terminal status. The ledger splits that
//! interval, on one clock, into parts charged in causal order:
//!
//! * `lag` — due → submit write (the open-loop generator ran late),
//! * `submit` — the submit round trip, admission and journal sync included,
//! * `queue`, `run` — the service's `queue_wait` and `run` spans, counted
//!   only where they fall after the submit reply and before the job's done
//!   point (work that ran under the submit round trip is already paid for),
//! * `detect` — done point → status read: the poll quantum plus the last
//!   status round trip.
//!
//! Whatever part of the interval between the submit reply and the done
//! point no span covers is the residue; it is reported, never spread over
//! the parts. The `seal` span begins after the done point (the service
//! marks a job done inside the worker, before the farm seals it), so it is
//! off the client's path and is reported on its own. The service clock is
//! mapped onto the client clock through its epoch, taken just before the
//! service started; a job whose parts add up to more than its end-to-end
//! time by more than the clock granularity fails the run.

/// A half-open interval `[start, end)` in nanoseconds on the run clock.
pub type Interval = (u64, u64);

/// Length of the intersection of two intervals.
pub fn overlap(a: Interval, b: Interval) -> u64 {
    let start = a.0.max(b.0);
    let end = a.1.min(b.1);
    end.saturating_sub(start)
}

/// What the client measured for one job (run clock).
#[derive(Debug, Clone, Copy)]
pub struct ClientTimes {
    pub due: u64,
    pub sent: u64,
    pub acked: u64,
    pub observed: u64,
}

/// The job's service spans (run clock).
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpans {
    /// The root `job` span: admission → done point.
    pub job: Interval,
    pub queue_wait: Interval,
    pub run: Interval,
}

/// One job's ledger, in nanoseconds. `residue` may be negative only by
/// less than the clock granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub e2e: u64,
    pub lag: u64,
    pub submit: u64,
    pub queue: u64,
    pub run: u64,
    pub detect: u64,
    pub residue: i64,
}

impl Ledger {
    pub fn parts(&self) -> u64 {
        self.lag + self.submit + self.queue + self.run + self.detect
    }
}

/// Build the ledger; `Err` when the two clocks disagree about causality or
/// the parts overrun the end-to-end time by more than `granularity` ns.
pub fn ledger(c: ClientTimes, s: ServiceSpans, granularity: u64) -> Result<Ledger, String> {
    let g = granularity;
    if !(c.due <= c.sent && c.sent <= c.acked && c.acked <= c.observed) {
        return Err(format!("client times out of order: {c:?}"));
    }
    let (admit, done) = s.job;
    if admit + g < c.sent || admit > c.acked + g {
        return Err(format!("admission at {admit} outside the submit round trip {c:?}"));
    }
    if done > c.observed + g {
        return Err(format!("done at {done} after the client saw it at {}", c.observed));
    }
    let done_point = done.clamp(c.acked, c.observed);
    let after_ack = (c.acked, done_point);
    let l = Ledger {
        e2e: c.observed - c.due,
        lag: c.sent - c.due,
        submit: c.acked - c.sent,
        queue: overlap(s.queue_wait, after_ack),
        run: overlap(s.run, after_ack),
        detect: c.observed - done_point,
        residue: 0,
    };
    let residue = l.e2e as i64 - l.parts() as i64;
    if residue < -(g as i64) {
        return Err(format!("ledger parts exceed e2e by {} ns: {l:?}", -residue));
    }
    Ok(Ledger { residue, ..l })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(due: u64, sent: u64, acked: u64, observed: u64) -> ClientTimes {
        ClientTimes { due, sent, acked, observed }
    }

    #[test]
    fn overlap_of_intervals() {
        assert_eq!(overlap((0, 10), (5, 20)), 5);
        assert_eq!(overlap((0, 10), (10, 20)), 0);
        assert_eq!(overlap((3, 4), (0, 100)), 1);
        assert_eq!(overlap((50, 60), (0, 10)), 0);
    }

    #[test]
    fn sequential_job_partitions_exactly() {
        // Due 0, sent 2, admitted 3, acked 5; queued 5..10 in the farm,
        // runs 10..40 (done at 40), seen at 47.
        let spans = ServiceSpans { job: (3, 40), queue_wait: (5, 10), run: (10, 41) };
        let l = ledger(client(0, 2, 5, 47), spans, 0).unwrap();
        assert_eq!((l.lag, l.submit, l.queue, l.run, l.detect), (2, 3, 5, 30, 7));
        assert_eq!(l.residue, 0);
        assert_eq!(l.parts() as i64 + l.residue, l.e2e as i64);
    }

    #[test]
    fn work_under_the_submit_round_trip_is_not_counted_twice() {
        // The job ran entirely while the submit reply was stalled.
        let spans = ServiceSpans { job: (1, 20), queue_wait: (2, 3), run: (3, 21) };
        let l = ledger(client(0, 1, 45, 90), spans, 0).unwrap();
        assert_eq!((l.queue, l.run), (0, 0));
        assert_eq!(l.detect, 45);
        assert_eq!(l.residue, 0);
    }

    #[test]
    fn uncovered_wait_is_residue() {
        // Admitted at 3, but the farm only took the job at 30: 5..30 sat in
        // the service's own queue, which no span covers.
        let spans = ServiceSpans { job: (3, 60), queue_wait: (30, 32), run: (32, 60) };
        let l = ledger(client(0, 2, 5, 70), spans, 0).unwrap();
        assert_eq!((l.queue, l.run, l.detect), (2, 28, 10));
        assert_eq!(l.residue, 25);
    }

    #[test]
    fn inconsistent_clocks_fail() {
        // Done after the client saw it.
        let spans = ServiceSpans { job: (3, 80), queue_wait: (5, 6), run: (6, 80) };
        assert!(ledger(client(0, 2, 5, 70), spans, 1).is_err());
        // Admitted before the request was sent.
        let spans = ServiceSpans { job: (0, 20), queue_wait: (5, 6), run: (6, 20) };
        assert!(ledger(client(0, 10, 15, 70), spans, 1).is_err());
        // Overlapping spans overrun the end-to-end time.
        let spans = ServiceSpans { job: (3, 60), queue_wait: (5, 60), run: (5, 60) };
        assert!(ledger(client(0, 2, 5, 70), spans, 1).is_err());
        // Within the granularity, a small overrun is tolerated.
        let spans = ServiceSpans { job: (3, 71), queue_wait: (5, 6), run: (6, 71) };
        assert!(ledger(client(0, 2, 5, 70), spans, 2).is_ok());
    }
}
