//! Fault model for the source federation.
//!
//! The paper's mediator assumes every wrapped source answers every query.
//! Real federations do not work that way: sources go down, time out, ship
//! rows that violate their own exported CM, or truncate results. This
//! module gives the wrapper boundary a failure vocabulary and the
//! machinery the mediator uses to survive it:
//!
//! * [`SourceError`] — the typed failure taxonomy every
//!   [`Wrapper::query`] call can raise;
//! * [`VirtualClock`] — a virtual time source, so timeouts,
//!   backoff, and breaker cooldowns are fully deterministic (no
//!   wall-clock anywhere in the query path);
//! * [`RetryPolicy`] — bounded attempts with deterministic exponential
//!   backoff;
//! * [`CircuitBreaker`] — the classic closed → open → half-open state
//!   machine, one per source, so a persistently failing source stops
//!   being queried at all until a cooldown elapses;
//! * [`FaultInjector`] — a decorator wrapper that injects failures from a
//!   *seeded, deterministic* schedule (fail-first-N, every-Kth, flaky,
//!   slow, truncating, row-corrupting), for tests and chaos experiments;
//! * [`AnswerReport`] — the per-source outcome record every degradable
//!   operation (`materialize_all`, `answer`, the §5 plan) attaches to its
//!   result, including quarantined-row diagnostics and a completeness
//!   flag.
//!
//! Degradation semantics are described in DESIGN.md ("Fault model &
//! degradation semantics").

use crate::wrapper::{Anchor, Capability, ObjectRow, QueryTemplate, Rows, SourceQuery, Wrapper};
use kind_gcm::GcmValue;
use kind_xml::Element;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The failure taxonomy.
// ---------------------------------------------------------------------

/// A typed failure at the wrapper boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The source could not be reached (or refused) the query.
    Unavailable {
        /// Human-readable cause.
        reason: String,
    },
    /// The query took longer than the caller's budget.
    Timeout {
        /// Observed elapsed virtual time.
        elapsed_ms: u64,
        /// The budget that was exceeded.
        budget_ms: u64,
    },
    /// The source shipped a row the mediator could not make sense of.
    MalformedRow {
        /// The offending row's id (or a placeholder for wire-level
        /// failures that never produced a row).
        row: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The source stopped shipping mid-answer.
    Truncated {
        /// Rows shipped before the cut.
        shipped: usize,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Unavailable { reason } => write!(f, "source unavailable: {reason}"),
            SourceError::Timeout {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "query timed out after {elapsed_ms}ms (budget {budget_ms}ms)"
            ),
            SourceError::MalformedRow { row, reason } => {
                write!(f, "malformed row `{row}`: {reason}")
            }
            SourceError::Truncated { shipped } => {
                write!(f, "answer truncated after {shipped} rows")
            }
        }
    }
}

impl std::error::Error for SourceError {}

impl From<kind_xml::XmlError> for SourceError {
    /// A wire-level parse failure is a malformed answer: no row was ever
    /// recovered from the document.
    fn from(e: kind_xml::XmlError) -> Self {
        SourceError::MalformedRow {
            row: "<wire>".into(),
            reason: e.to_string(),
        }
    }
}

impl From<kind_gcm::GcmError> for SourceError {
    /// A bundle/CM decode failure is likewise a malformed answer.
    fn from(e: kind_gcm::GcmError) -> Self {
        SourceError::MalformedRow {
            row: "<wire>".into(),
            reason: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Virtual time.
// ---------------------------------------------------------------------

/// The time source for timeouts, backoff, and breaker cooldowns: a
/// deterministic, manually advanced clock, so every fault-tolerance test
/// is reproducible and instant.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// A clock starting at `ms`.
    pub fn at(ms: u64) -> Self {
        VirtualClock {
            now: AtomicU64::new(ms),
        }
    }

    /// Current time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Advances time (backoff "sleeps" by calling this).
    pub fn advance_ms(&self, ms: u64) {
        // Never `Err`: `fetch_update` fails only when the closure returns
        // `None`, and this one always returns `Some`.
        self.now
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                Some(t.saturating_add(ms))
            })
            .expect("fetch_update never fails");
    }
}

// ---------------------------------------------------------------------
// Retry policy.
// ---------------------------------------------------------------------

/// Bounded retries with deterministic exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry). Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff_ms: u64,
    /// Backoff growth factor between attempts.
    pub multiplier: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 100,
            multiplier: 2,
            max_backoff_ms: 5_000,
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The default policy with a different attempt budget.
    pub fn attempts(n: u32) -> Self {
        RetryPolicy {
            max_attempts: n.max(1),
            ..RetryPolicy::default()
        }
    }

    /// The backoff to sleep after `completed_attempts` have failed
    /// (so `backoff_ms(1)` is the delay before attempt 2).
    pub fn backoff_ms(&self, completed_attempts: u32) -> u64 {
        let mut delay = self.base_backoff_ms;
        for _ in 1..completed_attempts {
            delay = delay
                .saturating_mul(self.multiplier.max(1))
                .min(self.max_backoff_ms);
        }
        delay.min(self.max_backoff_ms)
    }
}

// ---------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------

/// Breaker tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a half-open
    /// trial.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_ms: 30_000,
        }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; counts failures since the last success.
    Closed {
        /// Consecutive failures so far.
        consecutive_failures: u32,
    },
    /// Tripped: all queries are skipped until the cooldown elapses.
    Open {
        /// When the breaker opened.
        opened_at_ms: u64,
    },
    /// Cooldown elapsed: exactly one trial query is allowed through; its
    /// outcome decides between `Closed` and `Open`.
    HalfOpen,
}

/// A per-source circuit breaker (closed → open → half-open).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a query may go through at virtual time `now_ms`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits the trial.
    pub fn allows(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { opened_at_ms } => {
                if now_ms >= opened_at_ms.saturating_add(self.config.cooldown_ms) {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful query: the breaker closes and the failure
    /// count resets.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed {
            consecutive_failures: 0,
        };
    }

    /// Records a failed query at virtual time `now_ms`: a half-open
    /// trial failure re-opens immediately; a closed breaker opens once
    /// the threshold is reached.
    pub fn record_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.config.failure_threshold {
                    self.state = BreakerState::Open {
                        opened_at_ms: now_ms,
                    };
                } else {
                    self.state = BreakerState::Closed {
                        consecutive_failures: n,
                    };
                }
            }
            BreakerState::HalfOpen | BreakerState::Open { .. } => {
                self.state = BreakerState::Open {
                    opened_at_ms: now_ms,
                };
            }
        }
    }
}

/// Per-source resilience settings: retry, timeout budget, breaker,
/// hedging.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourcePolicy {
    /// Retry/backoff settings.
    pub retry: RetryPolicy,
    /// Per-attempt budget in virtual milliseconds, judged by the
    /// attempt's own cost (its [`Wrapper::virtual_cost_ms`] delta, never
    /// a clock read a sibling's delay moves); 0 disables the check.
    pub timeout_ms: u64,
    /// Breaker settings.
    pub breaker: BreakerConfig,
    /// Hedged fetches: when a successful attempt's self-inflicted
    /// virtual cost exceeds this threshold, one backup attempt is
    /// launched and the first (virtual-time) success wins; the loser is
    /// cancelled and recorded ([`SourceReport::hedged`] /
    /// [`SourceReport::cancelled`]). `0` (the default) disables
    /// hedging. Sources in breaker half-open trials, and sources that
    /// already shipped quarantined rows in the operation, are never
    /// hedged.
    pub hedge_after_ms: u64,
}

impl SourcePolicy {
    /// The default policy with a per-attempt timeout budget.
    pub fn with_timeout_ms(timeout_ms: u64) -> Self {
        SourcePolicy {
            timeout_ms,
            ..SourcePolicy::default()
        }
    }

    /// The default policy with hedging enabled past `hedge_after_ms`.
    pub fn with_hedge_after_ms(hedge_after_ms: u64) -> Self {
        SourcePolicy {
            hedge_after_ms,
            ..SourcePolicy::default()
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// One entry of a [`FaultInjector`] schedule. All faults are
/// deterministic functions of the injector's call counter (and their
/// seed, where they have one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The first `n` calls fail with [`SourceError::Unavailable`].
    FailFirst(u32),
    /// Every `k`-th call (the k-th, 2k-th, …) fails.
    EveryKth(u32),
    /// Each call independently fails with probability
    /// `fail_per_mille`/1000, drawn from a seeded hash of the call
    /// number — the same seed always fails the same calls.
    Flaky {
        /// Hash seed.
        seed: u64,
        /// Failure probability in per-mille.
        fail_per_mille: u16,
    },
    /// Every call advances the virtual clock by `delay_ms` before
    /// answering (combine with a [`SourcePolicy::timeout_ms`] budget to
    /// exercise timeouts).
    Slow {
        /// Virtual delay per call.
        delay_ms: u64,
    },
    /// A latency *tail*: each call is independently slow (advancing the
    /// clock by `delay_ms`) with probability `slow_per_mille`/1000,
    /// drawn from a seeded hash of the call number. The tool behind the
    /// hedged-fetch benchmarks: a hedge's backup attempt re-rolls, so
    /// most tail hits are rescued. Use a seed distinct from any `Flaky`
    /// fault on the same injector (the draws are salted differently, but
    /// distinct seeds keep schedules independent at a glance).
    SlowTail {
        /// Hash seed.
        seed: u64,
        /// Virtual delay when the tail hits.
        delay_ms: u64,
        /// Tail probability in per-mille.
        slow_per_mille: u16,
    },
    /// Answers with more than `n` rows fail with
    /// [`SourceError::Truncated`].
    TruncateAfter(usize),
    /// Chaos mode: a seeded fraction of shipped rows is corrupted
    /// *against the declared CM* — ids blanked, attributes dropped, or
    /// undeclared attributes injected — so CM validation downstream has
    /// something real to catch.
    CorruptRows {
        /// Hash seed.
        seed: u64,
        /// Corruption probability per row, in per-mille.
        corrupt_per_mille: u16,
    },
}

/// SplitMix64 finalizer: the deterministic hash behind `Flaky` and
/// `CorruptRows`.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A decorator wrapper that injects faults from a deterministic
/// schedule. Wrap any [`Wrapper`] before registering it:
///
/// ```
/// use kind_core::{Fault, FaultInjector, MemoryWrapper, VirtualClock};
/// use std::sync::Arc;
///
/// let clock = Arc::new(VirtualClock::new());
/// let flaky = FaultInjector::new(Arc::new(MemoryWrapper::new("LAB")), clock)
///     .with_fault(Fault::FailFirst(2));
/// ```
///
/// The injector can be `disarm`ed (pass-through) during registration and
/// `arm`ed afterwards, so a fault schedule targets query traffic rather
/// than the registration handshake.
pub struct FaultInjector {
    inner: Arc<dyn Wrapper>,
    clock: Arc<VirtualClock>,
    faults: Vec<Fault>,
    armed: AtomicBool,
    calls: AtomicU64,
    /// Cumulative virtual delay this injector itself added (`Slow` /
    /// `SlowTail`), reported through [`Wrapper::virtual_cost_ms`] so the
    /// deadline plane can charge each job exactly its own time.
    injected_ms: AtomicU64,
    /// The call number of the one outstanding parked submission (the
    /// split-phase protocol allows at most one per wrapper), so
    /// [`Wrapper::complete`] applies the *same* call's post-faults that
    /// [`Wrapper::submit`] drew pre-faults for. [`NO_PENDING`] when the
    /// submission was made while disarmed (or none is outstanding).
    pending_call: AtomicU64,
}

/// Sentinel for [`FaultInjector::pending_call`]: no armed submission
/// outstanding.
const NO_PENDING: u64 = u64::MAX;

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.name())
            .field("faults", &self.faults)
            .field("armed", &self.armed.load(Ordering::SeqCst))
            .field("calls", &self.calls.load(Ordering::SeqCst))
            .finish()
    }
}

impl FaultInjector {
    /// Wraps `inner`, sharing `clock` with the mediator (see
    /// [`crate::Federation::clock`]).
    pub fn new(inner: Arc<dyn Wrapper>, clock: Arc<VirtualClock>) -> Self {
        FaultInjector {
            inner,
            clock,
            faults: Vec::new(),
            armed: AtomicBool::new(true),
            calls: AtomicU64::new(0),
            injected_ms: AtomicU64::new(0),
            pending_call: AtomicU64::new(NO_PENDING),
        }
    }

    /// Adds a fault to the schedule (builder-style).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Starts injecting (the default).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops injecting; calls pass straight through and do not advance
    /// the call counter.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// How many (armed) queries the injector has intercepted.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Advances the shared clock by an injected delay and books it as
    /// this wrapper's own virtual cost.
    fn inject_delay(&self, ms: u64) {
        self.clock.advance_ms(ms);
        self.injected_ms.fetch_add(ms, Ordering::SeqCst);
    }

    /// Deterministically mangles a row against its declared CM.
    fn corrupt(row: &mut ObjectRow, h: u64) {
        match (h >> 10) % 3 {
            0 => row.id.clear(),
            1 => {
                if !row.attrs.is_empty() {
                    let i = ((h >> 20) as usize) % row.attrs.len();
                    row.attrs.remove(i);
                }
            }
            _ => row
                .attrs
                .push(("__corrupted".into(), GcmValue::Id("??".into()))),
        }
    }

    /// The faults drawn *before* the inner wrapper answers, for call
    /// number `call`: injected delays and outright failures, in schedule
    /// order. Shared by [`Wrapper::query`] and the fetch plane's
    /// [`Wrapper::submit`], so a given call number draws the identical
    /// schedule whichever of the two is called.
    fn pre_faults(&self, call: u64) -> std::result::Result<(), SourceError> {
        for fault in &self.faults {
            match *fault {
                Fault::Slow { delay_ms } => self.inject_delay(delay_ms),
                Fault::SlowTail {
                    seed,
                    delay_ms,
                    slow_per_mille,
                    // Salted so a SlowTail and a Flaky sharing a seed
                    // still draw independent schedules.
                } if mix(seed ^ 0x7a11 ^ mix(call)) % 1000 < u64::from(slow_per_mille) => {
                    self.inject_delay(delay_ms);
                }
                Fault::FailFirst(n) if call < u64::from(n) => {
                    return Err(SourceError::Unavailable {
                        reason: format!("injected fail-first-{n} (call #{call})"),
                    });
                }
                Fault::EveryKth(k) if k > 0 && (call + 1).is_multiple_of(u64::from(k)) => {
                    return Err(SourceError::Unavailable {
                        reason: format!("injected every-{k}th failure (call #{call})"),
                    });
                }
                Fault::Flaky {
                    seed,
                    fail_per_mille,
                } if mix(seed ^ mix(call)) % 1000 < u64::from(fail_per_mille) => {
                    return Err(SourceError::Unavailable {
                        reason: format!("injected flaky failure (seed {seed}, call #{call})"),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The faults applied *to* the inner wrapper's answer, for the same
    /// call number the pre-faults were drawn with. The inner rows may be
    /// the wrapper's own: a corrupted row is written into a copy.
    fn post_faults(&self, call: u64, mut rows: Rows) -> std::result::Result<Rows, SourceError> {
        for fault in &self.faults {
            match *fault {
                Fault::TruncateAfter(n) if rows.len() > n => {
                    return Err(SourceError::Truncated { shipped: n });
                }
                Fault::CorruptRows {
                    seed,
                    corrupt_per_mille,
                } => {
                    for i in 0..rows.len() {
                        let h = mix(seed ^ mix(call) ^ (i as u64).wrapping_mul(0x5851));
                        if h % 1000 < u64::from(corrupt_per_mille) {
                            Self::corrupt(&mut Arc::make_mut(&mut rows)[i], h);
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(rows)
    }
}

impl Wrapper for FaultInjector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn formalism(&self) -> &str {
        self.inner.formalism()
    }

    fn export_cm(&self) -> Element {
        self.inner.export_cm()
    }

    fn capabilities(&self) -> Vec<Capability> {
        self.inner.capabilities()
    }

    fn templates(&self) -> Vec<QueryTemplate> {
        self.inner.templates()
    }

    fn anchors(&self) -> Vec<Anchor> {
        self.inner.anchors()
    }

    fn dm_contribution(&self) -> String {
        self.inner.dm_contribution()
    }

    fn virtual_cost_ms(&self) -> u64 {
        self.injected_ms
            .load(Ordering::SeqCst)
            .saturating_add(self.inner.virtual_cost_ms())
    }

    fn query(&self, q: &SourceQuery) -> std::result::Result<Rows, SourceError> {
        if !self.armed.load(Ordering::SeqCst) {
            return self.inner.query(q);
        }
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        self.pre_faults(call)?;
        let rows = self.inner.query(q)?;
        self.post_faults(call, rows)
    }

    fn submit(&self, q: &SourceQuery) -> crate::wrapper::Submission {
        use crate::wrapper::Submission;
        if !self.armed.load(Ordering::SeqCst) {
            // Pass-through, like the disarmed `query` path: do not count
            // the call, and defer nothing to `complete`.
            let sub = self.inner.submit(q);
            if matches!(sub, Submission::Parked { .. }) {
                self.pending_call.store(NO_PENDING, Ordering::SeqCst);
            }
            return sub;
        }
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        // A pre-fault failure answers inline: the inner wrapper is never
        // contacted, exactly like the blocking path.
        if let Err(e) = self.pre_faults(call) {
            return Submission::Ready(Err(e));
        }
        match self.inner.submit(q) {
            Submission::Ready(r) => {
                Submission::Ready(r.and_then(|rows| self.post_faults(call, rows)))
            }
            Submission::Parked { stall, ticket } => {
                self.pending_call.store(call, Ordering::SeqCst);
                Submission::Parked { stall, ticket }
            }
        }
    }

    fn complete(&self, ticket: u64, q: &SourceQuery) -> std::result::Result<Rows, SourceError> {
        let r = self.inner.complete(ticket, q);
        // Apply the parked call's post-faults — captured at submit time,
        // so an arm/disarm flip mid-flight cannot desynchronise the
        // draw from its call number.
        match self.pending_call.swap(NO_PENDING, Ordering::SeqCst) {
            NO_PENDING => r,
            call => r.and_then(|rows| self.post_faults(call, rows)),
        }
    }
}

// ---------------------------------------------------------------------
// Answer reports.
// ---------------------------------------------------------------------

/// What ultimately happened to one source over one degradable operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SourceOutcome {
    /// Every fetch succeeded on the first attempt.
    #[default]
    Ok,
    /// Succeeded, but only after `retries` extra attempts.
    Retried {
        /// Attempts beyond the first, summed over the operation.
        retries: u32,
    },
    /// At least one fetch was skipped because the breaker was open.
    SkippedByBreaker,
    /// At least one fetch was abandoned because its operation's
    /// cancellation token ([`crate::Mediator::cancel_token`]) fired. Only
    /// a mediator operation's fetch carries one; a direct fetch is never
    /// cancelled. The source was not necessarily at fault; its rows are
    /// simply missing.
    Cancelled,
    /// At least one fetch was cut off by the query deadline: the job's
    /// budget slice ran out before (or while) this source answered.
    DeadlineExceeded {
        /// Virtual milliseconds the job had spent when it gave up.
        spent_ms: u64,
        /// The budget slice the job was working against.
        budget_ms: u64,
    },
    /// At least one fetch exhausted its retry budget.
    Failed {
        /// The final error of the first failing fetch.
        error: SourceError,
    },
}

impl SourceOutcome {
    fn rank(&self) -> u8 {
        match self {
            SourceOutcome::Ok => 0,
            SourceOutcome::Retried { .. } => 1,
            SourceOutcome::SkippedByBreaker => 2,
            SourceOutcome::Cancelled => 3,
            SourceOutcome::DeadlineExceeded { .. } => 4,
            SourceOutcome::Failed { .. } => 5,
        }
    }

    /// Folds two outcomes into the worst of the pair (retries summed): the
    /// merge rule of the one per-source fold, `SourceReport::add`.
    fn merged(old: SourceOutcome, new: SourceOutcome) -> SourceOutcome {
        match (old, new) {
            (SourceOutcome::Retried { retries: a }, SourceOutcome::Retried { retries: b }) => {
                SourceOutcome::Retried { retries: a + b }
            }
            (old, new) => {
                if new.rank() >= old.rank() {
                    new
                } else {
                    old
                }
            }
        }
    }

    /// Whether this outcome means the answer may be missing rows.
    /// A hedged-but-successful fetch is *not* degraded — hedging is
    /// recorded on [`SourceReport::hedged`], not here.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            SourceOutcome::SkippedByBreaker
                | SourceOutcome::Cancelled
                | SourceOutcome::DeadlineExceeded { .. }
                | SourceOutcome::Failed { .. }
        )
    }
}

/// A row dropped by CM validation, with its diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// The shipping source.
    pub source: String,
    /// The queried class.
    pub class: String,
    /// The row's id (possibly empty — that can be the defect).
    pub row_id: String,
    /// Why the row was rejected.
    pub reason: String,
}

/// Per-source bookkeeping inside an [`AnswerReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceReport {
    /// Logical fetch operations issued to the source.
    pub fetches: usize,
    /// Physical wrapper attempts (≥ fetches when retries happened).
    pub attempts: usize,
    /// Rows accepted from the source.
    pub rows: usize,
    /// Rows quarantined by CM validation.
    pub quarantined: usize,
    /// Backup attempts launched against this source because the primary
    /// attempt was slow (see [`crate::SourcePolicy::hedge_after_ms`]).
    pub hedged: usize,
    /// Attempts cancelled before completing: hedge losers plus fetches
    /// abandoned on cancellation or deadline expiry.
    pub cancelled: usize,
    /// The merged outcome (worst over all fetches; retries summed).
    pub outcome: SourceOutcome,
}

impl SourceReport {
    /// Adds `other`'s counters to these and merges its outcome in: the one
    /// per-source fold, of one fetch ([`AnswerReport::record_fetch`]) or
    /// of a whole report's ([`AnswerReport::absorb`]), so the two cannot
    /// disagree.
    fn add(&mut self, other: SourceReport) {
        self.fetches += other.fetches;
        self.attempts += other.attempts;
        self.rows += other.rows;
        self.quarantined += other.quarantined;
        self.hedged += other.hedged;
        self.cancelled += other.cancelled;
        let outcome = std::mem::take(&mut self.outcome);
        self.outcome = SourceOutcome::merged(outcome, other.outcome);
    }
}

/// The degradation record attached to every answer: which sources were
/// contacted, how they fared, what was quarantined, and whether the
/// answer is complete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerReport {
    /// Per-source outcomes, keyed by source name.
    pub sources: BTreeMap<String, SourceReport>,
    /// Every quarantined row, with diagnostics.
    pub quarantined: Vec<QuarantinedRow>,
    /// Virtual milliseconds the fetch plane spent on this operation: the
    /// critical path (max over concurrent jobs of each job's own spend)
    /// summed across sequential fetch rounds. Scheduling-independent, so
    /// equal seeds produce equal values at every thread count.
    pub elapsed_ms: u64,
    /// The query budget in force when the operation started (0 = none).
    /// On the federation's own report the pair *is* the operation's
    /// deadline: each fetch round's jobs work against a slice of
    /// `budget_ms - elapsed_ms`.
    pub budget_ms: u64,
}

impl AnswerReport {
    /// `true` iff the answer is exactly what a fault-free run would have
    /// produced: no source failed, was skipped, was cancelled, or hit the
    /// deadline, and no row was quarantined. Hedging does **not** make an
    /// answer incomplete — a hedged fetch that succeeded delivered the
    /// same rows, just via a backup attempt — but a
    /// [`SourceOutcome::DeadlineExceeded`] or [`SourceOutcome::Cancelled`]
    /// source does, because its rows never landed.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty() && self.sources.values().all(|s| !s.outcome.is_degraded())
    }

    /// `true` iff at least one source was cut off by the query deadline.
    /// The answer still contains every row that landed in time; callers
    /// decide whether a fast partial answer beats a late complete one.
    pub fn deadline_exceeded(&self) -> bool {
        self.sources
            .values()
            .any(|s| matches!(s.outcome, SourceOutcome::DeadlineExceeded { .. }))
    }

    /// The report for one source, if it was contacted.
    pub fn source(&self, name: &str) -> Option<&SourceReport> {
        self.sources.get(name)
    }

    /// Names of sources whose data may be missing from the answer.
    pub fn degraded_sources(&self) -> Vec<&str> {
        self.sources
            .iter()
            .filter(|(_, s)| s.outcome.is_degraded())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Folds one fetch's outcome into the per-source record.
    pub(crate) fn record_fetch(
        &mut self,
        name: &str,
        attempts: usize,
        rows: usize,
        hedged: usize,
        cancelled: usize,
        outcome: SourceOutcome,
    ) {
        let fetch = SourceReport {
            fetches: 1,
            attempts,
            rows,
            quarantined: 0,
            hedged,
            cancelled,
            outcome,
        };
        self.sources.entry(name.to_string()).or_default().add(fetch);
    }

    /// Folds a whole (delta) report into this one: per-source counters
    /// are summed, outcomes merged by the `SourceOutcome::merged` rule,
    /// and quarantined-row diagnostics appended in `other`'s order. The
    /// parallel fetch plane builds one delta report per operation and
    /// absorbs it into the federation's cumulative report.
    pub fn absorb(&mut self, other: &AnswerReport) {
        for (name, s) in &other.sources {
            self.sources.entry(name.clone()).or_default().add(s.clone());
        }
        self.quarantined.extend(other.quarantined.iter().cloned());
        // Sequential rounds accumulate wall time; the budget is a property
        // of the whole query, so the first armed value wins.
        self.elapsed_ms = self.elapsed_ms.saturating_add(other.elapsed_ms);
        if self.budget_ms == 0 {
            self.budget_ms = other.budget_ms;
        }
    }

    /// Records a quarantined row under its source.
    pub(crate) fn record_quarantine(&mut self, q: QuarantinedRow) {
        self.sources
            .entry(q.source.clone())
            .or_default()
            .quarantined += 1;
        self.quarantined.push(q);
    }

    /// A human-readable one-line-per-source summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.sources {
            let outcome = match &s.outcome {
                SourceOutcome::Ok => "ok".to_string(),
                SourceOutcome::Retried { retries } => format!("ok after {retries} retries"),
                SourceOutcome::SkippedByBreaker => "skipped (breaker open)".to_string(),
                SourceOutcome::Cancelled => "cancelled".to_string(),
                SourceOutcome::DeadlineExceeded {
                    spent_ms,
                    budget_ms,
                } => format!("deadline exceeded ({spent_ms}ms spent of {budget_ms}ms)"),
                SourceOutcome::Failed { error } => format!("failed: {error}"),
            };
            let hedged = if s.hedged > 0 {
                format!(", {} hedged", s.hedged)
            } else {
                String::new()
            };
            let cancelled = if s.cancelled > 0 {
                format!(", {} cancelled", s.cancelled)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{name}: {outcome} ({} rows, {} quarantined, {} attempts{hedged}{cancelled})\n",
                s.rows, s.quarantined, s.attempts
            ));
        }
        out.push_str(if self.is_complete() {
            "answer: complete"
        } else {
            "answer: INCOMPLETE"
        });
        out
    }

    /// The whole report as one line — the `summary()` verdict plus the
    /// aggregate counts, for demos and logs that can't spare a paragraph.
    /// E.g. `complete · 8 sources, 240 rows, 9 attempts, 1 hedged, 142ms`.
    pub fn summary_line(&self) -> String {
        let rows: usize = self.sources.values().map(|s| s.rows).sum();
        let attempts: usize = self.sources.values().map(|s| s.attempts).sum();
        let hedged: usize = self.sources.values().map(|s| s.hedged).sum();
        let cancelled: usize = self.sources.values().map(|s| s.cancelled).sum();
        let verdict = if self.is_complete() {
            "complete".to_string()
        } else if self.deadline_exceeded() {
            format!(
                "DEADLINE EXCEEDED ({} of {} sources)",
                self.degraded_sources().len(),
                self.sources.len()
            )
        } else {
            format!(
                "INCOMPLETE ({} of {} sources degraded)",
                self.degraded_sources().len(),
                self.sources.len()
            )
        };
        let mut line = format!(
            "{verdict} · {} sources, {rows} rows, {attempts} attempts",
            self.sources.len()
        );
        if hedged > 0 {
            line.push_str(&format!(", {hedged} hedged"));
        }
        if cancelled > 0 {
            line.push_str(&format!(", {cancelled} cancelled"));
        }
        if !self.quarantined.is_empty() {
            line.push_str(&format!(", {} quarantined", self.quarantined.len()));
        }
        line.push_str(&format!(", {}ms", self.elapsed_ms));
        if self.budget_ms > 0 {
            line.push_str(&format!(" of {}ms budget", self.budget_ms));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::MemoryWrapper;

    fn lab(n_rows: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new("LAB");
        for i in 0..n_rows {
            w.add_row("m", &format!("r{i}"), vec![("v", GcmValue::Int(i as i64))]);
        }
        Arc::new(w)
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 100,
            multiplier: 2,
            max_backoff_ms: 500,
        };
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff_ms(4), 500); // capped
        assert_eq!(p.backoff_ms(5), 500);
    }

    #[test]
    fn breaker_closed_to_open_at_threshold() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 100,
        });
        assert!(b.allows(0));
        b.record_failure(0);
        b.record_failure(1);
        assert!(matches!(
            b.state(),
            BreakerState::Closed {
                consecutive_failures: 2
            }
        ));
        assert!(b.allows(2)); // still closed below the threshold
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Open { opened_at_ms: 2 });
        assert!(!b.allows(50)); // cooldown not elapsed
    }

    #[test]
    fn breaker_success_resets_failure_count() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 100,
        });
        b.record_failure(0);
        b.record_success();
        b.record_failure(1);
        // The success in between reset the count: still closed.
        assert!(matches!(b.state(), BreakerState::Closed { .. }));
    }

    #[test]
    fn breaker_open_to_half_open_after_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 100,
        });
        b.record_failure(10);
        assert!(!b.allows(109));
        assert!(b.allows(110)); // cooldown elapsed: half-open trial
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn breaker_half_open_success_closes() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 100,
        });
        b.record_failure(0);
        assert!(b.allows(100));
        b.record_success();
        assert_eq!(
            b.state(),
            BreakerState::Closed {
                consecutive_failures: 0
            }
        );
    }

    #[test]
    fn breaker_half_open_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 100,
        });
        b.record_failure(0);
        assert!(b.allows(100));
        b.record_failure(100);
        assert_eq!(b.state(), BreakerState::Open { opened_at_ms: 100 });
        // And the new cooldown runs from the re-open time.
        assert!(!b.allows(150));
        assert!(b.allows(200));
    }

    #[test]
    fn fail_first_then_recovers() {
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let inj = FaultInjector::new(lab(2), clock).with_fault(Fault::FailFirst(2));
        let q = SourceQuery::scan("m");
        assert!(inj.query(&q).is_err());
        assert!(inj.query(&q).is_err());
        assert_eq!(inj.query(&q).unwrap().len(), 2);
        assert_eq!(inj.calls(), 3);
    }

    #[test]
    fn every_kth_fails_periodically() {
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let inj = FaultInjector::new(lab(1), clock).with_fault(Fault::EveryKth(3));
        let q = SourceQuery::scan("m");
        let outcomes: Vec<bool> = (0..6).map(|_| inj.query(&q).is_ok()).collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn flaky_schedule_is_deterministic() {
        let q = SourceQuery::scan("m");
        let run = |seed: u64| -> Vec<bool> {
            let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
            let inj = FaultInjector::new(lab(1), clock).with_fault(Fault::Flaky {
                seed,
                fail_per_mille: 400,
            });
            (0..32).map(|_| inj.query(&q).is_ok()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds give different schedules");
        let failures = run(7).iter().filter(|ok| !**ok).count();
        assert!(failures > 0 && failures < 32, "roughly 40%, got {failures}");
    }

    #[test]
    fn slow_fault_advances_the_virtual_clock() {
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let inj = FaultInjector::new(lab(1), Arc::clone(&clock))
            .with_fault(Fault::Slow { delay_ms: 250 });
        inj.query(&SourceQuery::scan("m")).unwrap();
        assert_eq!(clock.now_ms(), 250);
        inj.query(&SourceQuery::scan("m")).unwrap();
        assert_eq!(clock.now_ms(), 500);
    }

    #[test]
    fn truncation_reports_shipped_count() {
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let inj = FaultInjector::new(lab(5), clock).with_fault(Fault::TruncateAfter(3));
        assert_eq!(
            inj.query(&SourceQuery::scan("m")),
            Err(SourceError::Truncated { shipped: 3 })
        );
    }

    #[test]
    fn corruption_is_deterministic_and_partial() {
        let q = SourceQuery::scan("m");
        let run = || {
            let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
            let inj = FaultInjector::new(lab(40), clock).with_fault(Fault::CorruptRows {
                seed: 3,
                corrupt_per_mille: 300,
            });
            inj.query(&q).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same corruption");
        let clean = lab(40).query(&q).unwrap();
        let corrupted = a.iter().zip(clean.iter()).filter(|(x, y)| x != y).count();
        assert!(corrupted > 0 && corrupted < 40, "got {corrupted}");
    }

    /// A scan shares the inner wrapper's rows: a fault that rewrites them
    /// writes a copy, one that refuses them touches nothing, and a
    /// disarmed scan afterwards ships the rows as built — still the inner
    /// wrapper's own allocation.
    #[test]
    fn faults_leave_the_inner_rows_as_built() {
        let q = SourceQuery::scan("m");
        let built = lab(40).query(&q).unwrap();
        for fault in [
            Fault::CorruptRows {
                seed: 3,
                corrupt_per_mille: 1000,
            },
            Fault::TruncateAfter(3),
        ] {
            let inner = lab(40);
            let clock = Arc::new(VirtualClock::new());
            let inj = FaultInjector::new(Arc::clone(&inner) as Arc<dyn Wrapper>, clock)
                .with_fault(fault.clone());
            for _ in 0..3 {
                match inj.query(&q) {
                    Ok(rows) => assert!(rows.iter().zip(built.iter()).all(|(r, b)| r != b)),
                    Err(e) => assert_eq!(e, SourceError::Truncated { shipped: 3 }),
                }
            }
            let crate::wrapper::Submission::Ready(submitted) = inj.submit(&q) else {
                panic!("a memory wrapper answers inline");
            };
            assert_ne!(submitted.ok().as_ref(), Some(&built), "{fault:?} fired");
            inj.disarm();
            let after = inj.query(&q).unwrap();
            assert_eq!(after, built, "{fault:?}");
            assert!(Arc::ptr_eq(&after, &inner.rows["m"]), "{fault:?}");
        }
    }

    #[test]
    fn disarmed_injector_is_transparent() {
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let inj = FaultInjector::new(lab(2), clock).with_fault(Fault::FailFirst(100));
        inj.disarm();
        assert_eq!(inj.query(&SourceQuery::scan("m")).unwrap().len(), 2);
        assert_eq!(inj.calls(), 0, "disarmed calls do not consume the schedule");
        inj.arm();
        assert!(inj.query(&SourceQuery::scan("m")).is_err());
    }

    #[test]
    fn report_merges_outcomes_and_tracks_completeness() {
        let mut r = AnswerReport::default();
        r.record_fetch("A", 1, 10, 0, 0, SourceOutcome::Ok);
        assert!(r.is_complete());
        r.record_fetch("A", 3, 4, 0, 0, SourceOutcome::Retried { retries: 2 });
        r.record_fetch(
            "B",
            2,
            0,
            0,
            0,
            SourceOutcome::Failed {
                error: SourceError::Unavailable {
                    reason: "down".into(),
                },
            },
        );
        assert!(!r.is_complete());
        assert_eq!(r.degraded_sources(), vec!["B"]);
        let a = r.source("A").unwrap();
        assert_eq!(a.fetches, 2);
        assert_eq!(a.attempts, 4);
        assert_eq!(a.rows, 14);
        assert_eq!(a.outcome, SourceOutcome::Retried { retries: 2 });
        // A later clean fetch does not mask B's failure.
        r.record_fetch("B", 1, 5, 0, 0, SourceOutcome::Ok);
        assert!(matches!(
            r.source("B").unwrap().outcome,
            SourceOutcome::Failed { .. }
        ));
        r.record_quarantine(QuarantinedRow {
            source: "A".into(),
            class: "m".into(),
            row_id: "r9".into(),
            reason: "missing anchor attribute `loc`".into(),
        });
        assert_eq!(r.source("A").unwrap().quarantined, 1);
        assert!(r.summary().contains("INCOMPLETE"));
    }

    #[test]
    fn xml_errors_become_malformed_rows() {
        let err = kind_xml::parse("<unclosed").unwrap_err();
        let se: SourceError = err.into();
        assert!(matches!(se, SourceError::MalformedRow { .. }));
    }
}
