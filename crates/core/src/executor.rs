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
//! The **calling thread is one of the workers**: a pool of `n` spawns
//! `n − 1` scoped threads and the caller drives jobs beside them instead
//! of only waiting for them. So a pool of one spawns nothing (jobs in job
//! order, stalls still overlapped — the serial reference the determinism
//! suites compare every other worker count against), and a stalled fetch
//! pays one thread's spawn fewer. A worker with nothing to do sleeps on
//! one condition variable; a park or the last finish notifies it only
//! when some worker is asleep ([`Sched`]'s `sleepers`), so a fetch whose
//! workers all stay busy makes no wake calls.
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

use crate::fault::{SourceError, VirtualClock};
use crate::federation::{
    FetchJobDone, JobMachine, RegisteredSource, SourceReply, Step, ThreadGauge,
};
use crate::wrapper::Submission;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
///
/// The mutex is never poisoned, and every `"executor state poisoned"`
/// below rests on that: it is held only over this bookkeeping, which does
/// not panic. Wrapper code runs in [`drive`] with the lock released, and
/// [`contact`] turns a wrapper's panic into a failed attempt.
struct Sched {
    /// A `Some` seat is waiting in `ready` or in `timers`; `None` means
    /// the job is being driven by a worker or has finished.
    seats: Vec<Option<Seat>>,
    ready: VecDeque<usize>,
    timers: Timers,
    finished: usize,
    results: Vec<Option<FetchJobDone>>,
    /// Workers waiting on the condition variable. A park or the last
    /// finish notifies only when this is non-zero: a sleeper counts
    /// itself under the lock before it waits, so no wakeup is lost.
    sleepers: usize,
}

/// Runs `jobs` to completion on `workers` workers, overlapping parked
/// stalls, and returns the per-job results in job order. The calling
/// thread is one of the `workers`: the other `workers − 1` are scoped
/// threads, so a pool of one spawns nothing.
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
        sleepers: 0,
    });
    let wake = Condvar::new();
    let work = || {
        gauge.enter();
        worker_loop(sources, clock, &state, &wake);
        gauge.exit();
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    // Never poisoned (see `Sched`). A worker returns only once `finished`
    // counts every job, and a job is counted when its result is stored.
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
    let mut guard = lock(state);
    loop {
        while let Some(job) = guard.timers.pop_due(Instant::now()) {
            guard.ready.push_back(job);
        }
        if let Some(idx) = guard.ready.pop_front() {
            // A job enters `ready` (at the start, or from `timers`) only
            // while its seat is stored.
            let mut seat = guard.seats[idx].take().expect("ready job has a seat");
            drop(guard);
            let outcome = drive(&mut seat, sources, clock);
            guard = lock(state);
            match outcome {
                Drive::Parked { wake_at } => {
                    guard.timers.schedule(wake_at, idx);
                    guard.seats[idx] = Some(seat);
                    // A sleeping sibling may be waiting on a later (or
                    // no) deadline: let one re-evaluate its wait.
                    if guard.sleepers > 0 {
                        wake.notify_one();
                    }
                }
                Drive::Done(done) => {
                    guard.results[idx] = Some(done);
                    guard.finished += 1;
                    if guard.finished == guard.results.len() && guard.sleepers > 0 {
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
        guard.sleepers += 1;
        // Never poisoned: see `Sched`.
        guard = wake
            .wait_timeout(guard, timeout)
            .expect("executor state poisoned")
            .0;
        guard.sleepers -= 1;
    }
}

/// The scheduler state, locked. Never poisoned: see [`Sched`].
fn lock(state: &Mutex<Sched>) -> MutexGuard<'_, Sched> {
    state.lock().expect("executor state poisoned")
}

/// Drives one job until it parks or finishes. Runs outside the
/// scheduler lock: everything here is the job's own state plus the
/// shared-but-thread-safe wrapper and clock.
fn drive(seat: &mut Seat, sources: &[RegisteredSource], clock: &Arc<VirtualClock>) -> Drive {
    let wrapper = &sources[seat.machine.src_pos()].wrapper;
    // Waking from a park: collect the stalled submission first.
    let mut reply: Option<SourceReply> = seat.parked_ticket.take().map(|ticket| {
        contact(|| wrapper.complete(ticket, seat.machine.current_query())).and_then(|r| r)
    });
    loop {
        match seat.machine.step(sources, clock, reply.take()) {
            Step::Contact => match contact(|| wrapper.submit(seat.machine.current_query())) {
                Ok(Submission::Ready(r)) => reply = Some(r),
                Ok(Submission::Parked { stall, ticket }) => {
                    seat.parked_ticket = Some(ticket);
                    return Drive::Parked {
                        wake_at: Instant::now() + stall,
                    };
                }
                Err(error) => reply = Some(Err(error)),
            },
            Step::Done(done) => return Drive::Done(done),
        }
    }
}

/// One call into wrapper code. A panic there is that attempt's
/// [`SourceError::Unavailable`], so retry, breaker and report treat it
/// like any failed contact; uncaught, it would end the job without a
/// result, and the siblings of a pooled fetch would wait for it for ever.
/// The call reads the job only for its query, so a panic leaves nothing
/// of the job half-updated.
pub(crate) fn contact<T>(call: impl FnOnce() -> T) -> Result<T, SourceError> {
    catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "no message".into());
        SourceError::Unavailable {
            reason: format!("wrapper panicked: {message}"),
        }
    })
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
