//! The **fetch executor**: the one driver of the fetch plane.
//!
//! Fetch jobs are resumable machines ([`crate::federation::JobMachine`])
//! run on a **small fixed worker pool**, so fan-out scales parked timers,
//! not OS threads:
//!
//! * a worker drives a job until its next wrapper contact;
//! * a **stall-aware** wrapper ([`Wrapper::submit`] returning
//!   [`Submission::Parked`]) does not block — the job is parked on a
//!   deadline heap, and the worker moves on to another ready job;
//! * when the deadline passes, any worker collects the parked job,
//!   completes the submission ([`Wrapper::complete`]), and resumes the
//!   machine.
//!
//! Wrappers that are *not* stall-aware answer inline from `submit`'s
//! default (which blocks in [`Wrapper::query`]) — correct, just without
//! overlap.
//!
//! A pool of one worker runs on the **calling thread**: no spawn, jobs in
//! job order, stalls still overlapped. That is the serial reference the
//! determinism suites compare every other worker count against.
//!
//! **Determinism.** The executor changes scheduling only: each job's
//! machine runs the identical policy body ([`crate::federation`]'s
//! `FetchMachine`), each source's requests stay serial inside its job,
//! and the merge consumes results by job index. Batches, reports,
//! statistics, and breaker transitions are bit-identical at every worker
//! count.
//!
//! [`Wrapper::submit`]: crate::wrapper::Wrapper::submit
//! [`Wrapper::complete`]: crate::wrapper::Wrapper::complete
//! [`Wrapper::query`]: crate::wrapper::Wrapper::query

use crate::fault::VirtualClock;
use crate::federation::{
    FetchJobDone, JobMachine, RegisteredSource, SourceReply, Step, ThreadGauge,
};
use crate::wrapper::Submission;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an idle worker sleeps when it has neither ready jobs nor
/// armed timers to wait for (all unfinished jobs are on other workers).
/// A notification arrives well before this in practice; the timeout only
/// guards against lost wakeups.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Parked jobs by wake deadline, earliest first. Deadlines are
/// [`Instant`]s, so a job is never handed back before its declared stall
/// has fully elapsed.
#[derive(Default)]
struct Timers(BinaryHeap<Reverse<(Instant, usize)>>);

impl Timers {
    fn schedule(&mut self, deadline: Instant, job: usize) {
        self.0.push(Reverse((deadline, job)));
    }

    /// The earliest armed deadline, if any (the idle-wait bound).
    fn next_deadline(&self) -> Option<Instant> {
        self.0.peek().map(|Reverse((deadline, _))| *deadline)
    }

    /// Removes and returns the job with the earliest deadline, if that
    /// deadline has passed by `now`.
    fn pop_due(&mut self, now: Instant) -> Option<usize> {
        if self.next_deadline()? > now {
            return None;
        }
        self.0.pop().map(|Reverse((_, job))| job)
    }
}

/// One job's seat in the executor: its machine, plus the ticket of a
/// parked submission awaiting [`Wrapper::complete`].
struct Seat {
    machine: JobMachine,
    parked_ticket: Option<u64>,
}

/// What driving a job until its next suspension produced.
enum Drive {
    /// The job parked a submission; resume it at `wake_at`.
    Parked { wake_at: Instant },
    /// The job ran out of requests.
    Done(FetchJobDone),
}

/// Shared scheduler state, guarded by one mutex (contended only at
/// suspension points, never during wrapper work).
struct Sched {
    /// A `Some` seat is waiting in `ready` or in `timers`; `None` means
    /// the job is being driven by a worker or has finished.
    seats: Vec<Option<Seat>>,
    ready: VecDeque<usize>,
    timers: Timers,
    finished: usize,
    results: Vec<Option<FetchJobDone>>,
}

/// Runs `jobs` to completion on `workers` workers, overlapping parked
/// stalls, and returns the per-job results in job order. One worker runs
/// on the calling thread; more are scoped threads.
pub(crate) fn run_jobs(
    sources: &[RegisteredSource],
    clock: &Arc<VirtualClock>,
    jobs: Vec<JobMachine>,
    workers: usize,
    gauge: &ThreadGauge,
) -> Vec<FetchJobDone> {
    let total = jobs.len();
    let state = Mutex::new(Sched {
        seats: jobs
            .into_iter()
            .map(|machine| {
                Some(Seat {
                    machine,
                    parked_ticket: None,
                })
            })
            .collect(),
        ready: (0..total).collect(),
        timers: Timers::default(),
        finished: 0,
        results: (0..total).map(|_| None).collect(),
    });
    let wake = Condvar::new();
    let work = || {
        gauge.enter();
        worker_loop(sources, clock, &state, &wake);
        gauge.exit();
    };
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }
    state
        .into_inner()
        .expect("executor state poisoned")
        .results
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect()
}

fn worker_loop(
    sources: &[RegisteredSource],
    clock: &Arc<VirtualClock>,
    state: &Mutex<Sched>,
    wake: &Condvar,
) {
    let mut guard = state.lock().expect("executor state poisoned");
    loop {
        while let Some(job) = guard.timers.pop_due(Instant::now()) {
            guard.ready.push_back(job);
        }
        if let Some(idx) = guard.ready.pop_front() {
            let mut seat = guard.seats[idx].take().expect("ready job has a seat");
            drop(guard);
            let outcome = drive(&mut seat, sources, clock);
            guard = state.lock().expect("executor state poisoned");
            match outcome {
                Drive::Parked { wake_at } => {
                    guard.timers.schedule(wake_at, idx);
                    guard.seats[idx] = Some(seat);
                    // A sleeping sibling may be waiting on a later (or
                    // no) deadline: let one re-evaluate its wait.
                    wake.notify_one();
                }
                Drive::Done(done) => {
                    guard.results[idx] = Some(done);
                    guard.finished += 1;
                    if guard.finished == guard.results.len() {
                        wake.notify_all();
                    }
                }
            }
            continue;
        }
        if guard.finished == guard.results.len() {
            return;
        }
        // Nothing ready: sleep until the next timer fires, or until a
        // sibling parks or finishes something.
        let timeout = guard.timers.next_deadline().map_or(IDLE_WAIT, |deadline| {
            deadline.saturating_duration_since(Instant::now())
        });
        guard = wake
            .wait_timeout(guard, timeout)
            .expect("executor state poisoned")
            .0;
    }
}

/// Drives one job until it parks or finishes. Runs outside the
/// scheduler lock: everything here is the job's own state plus the
/// shared-but-thread-safe wrapper and clock.
fn drive(seat: &mut Seat, sources: &[RegisteredSource], clock: &Arc<VirtualClock>) -> Drive {
    let wrapper = &sources[seat.machine.src_pos()].wrapper;
    // Waking from a park: collect the stalled submission first.
    let mut reply: Option<SourceReply> = seat
        .parked_ticket
        .take()
        .map(|ticket| wrapper.complete(ticket, seat.machine.current_query()));
    loop {
        match seat.machine.step(sources, clock, reply.take()) {
            Step::Contact => match wrapper.submit(seat.machine.current_query()) {
                Submission::Ready(r) => reply = Some(r),
                Submission::Parked { stall, ticket } => {
                    seat.parked_ticket = Some(ticket);
                    return Drive::Parked {
                        wake_at: Instant::now() + stall,
                    };
                }
            },
            Step::Done(done) => return Drive::Done(done),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_pop_in_deadline_order_and_never_early() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut timers = Timers::default();
        timers.schedule(at(40), 1);
        timers.schedule(at(9), 2);
        timers.schedule(at(700), 3);
        timers.schedule(at(9), 4);
        assert_eq!(timers.next_deadline(), Some(at(9)));
        // One nanosecond short of the earliest deadline: nothing is due.
        assert_eq!(timers.pop_due(at(9) - Duration::from_nanos(1)), None);
        // Equal deadlines pop in job order, then by deadline.
        assert_eq!(timers.pop_due(at(9)), Some(2));
        assert_eq!(timers.pop_due(at(9)), Some(4));
        assert_eq!(timers.pop_due(at(9)), None);
        assert_eq!(timers.next_deadline(), Some(at(40)));
        // A late collector still gets them earliest first.
        assert_eq!(timers.pop_due(at(10_000)), Some(1));
        assert_eq!(timers.pop_due(at(10_000)), Some(3));
        assert_eq!(timers.pop_due(at(10_000)), None);
        assert_eq!(timers.next_deadline(), None);
    }
}
