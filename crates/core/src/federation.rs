//! The **federation layer**: registered sources and everything about
//! *talking to them* — wrappers, per-source resilience policies, circuit
//! breakers, the shared clock, fetch statistics, and the degradation
//! report of the operation in flight.
//!
//! This is the bottom layer of the mediator split (see DESIGN.md):
//! [`Federation`] owns the wrapper boundary, [`crate::Knowledge`] owns the
//! semantic state (domain map, index, CMs, views), and
//! [`crate::Mediator`] composes the two with the eval/cache pipeline.
//!
//! All retry/breaker/quarantine semantics live in **one** place — the
//! private `FetchMachine` — and it has **one** driver, the executor in
//! `crate::executor`. The batch entry ([`Federation::fetch_parallel`])
//! builds one job per source and hands them to it; the strict
//! single-source entry ([`Federation::fetch`]) is a batch of one, so it
//! and the degradable entry points ([`crate::Mediator::materialize_all`],
//! [`crate::Mediator::answer`], the §5 plan) cannot drift apart.
//!
//! ## The fetch plane
//!
//! [`Federation::fetch_parallel`] is the entry point of the **fetch
//! phase** of the two-phase pipeline (see DESIGN.md): a caller describes
//! everything a plan needs from sources as a list of [`FetchRequest`]s,
//! the federation runs them as one resumable job per source on the
//! executor's worker pool, and the results come back as a [`FetchSet`]
//! whose batches are in request order regardless of completion order.
//! Determinism comes from the **merge order**, not from serial fetching:
//! each source's requests run serially inside its own job (so per-source
//! breaker/retry/fault schedules are identical at every worker count),
//! and rows, statistics, and report entries are folded job-by-job in
//! first-appearance (i.e. registration) order after every worker has
//! finished.

use crate::error::{MediatorError, Result};
use crate::fault::{
    AnswerReport, BreakerState, CircuitBreaker, QuarantinedRow, SourceError, SourceOutcome,
    SourcePolicy, VirtualClock,
};
use crate::wrapper::{Capability, ObjectRow, SourceQuery, Wrapper};
use kind_datalog::CancelToken;
use kind_dm::SourceId;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bookkeeping for one registered source.
pub struct RegisteredSource {
    /// The mediator-assigned id.
    pub id: SourceId,
    /// The source name.
    pub name: String,
    /// Declared capabilities.
    pub caps: Vec<Capability>,
    /// The wrapper (shared, thread-safe).
    pub wrapper: Arc<dyn Wrapper>,
    /// Classes this source exports rows for (from capabilities).
    pub classes: Vec<String>,
    /// Attributes declared per class in the translated CM (`method`
    /// schema decls). An empty/absent set means the CM is schema-less
    /// for that class and attribute names are not checked.
    pub declared_attrs: HashMap<String, BTreeSet<String>>,
    /// Anchor attributes every row of a class must carry (its `ByAttr`
    /// anchors).
    pub anchor_attrs: HashMap<String, Vec<String>>,
}

impl RegisteredSource {
    /// Validates a shipped row against this source's exported CM:
    /// the class must be exported, the object id non-empty, every
    /// `ByAttr` anchor attribute present, and (when the CM declares a
    /// schema for the class) every attribute declared.
    pub fn validate_row(&self, class: &str, row: &ObjectRow) -> std::result::Result<(), String> {
        if !self.classes.iter().any(|c| c == class) {
            return Err(format!(
                "class `{class}` is not exported by `{}`",
                self.name
            ));
        }
        if row.id.trim().is_empty() {
            return Err("empty object id".into());
        }
        if let Some(anchor_attrs) = self.anchor_attrs.get(class) {
            for attr in anchor_attrs {
                if row.get(attr).is_none() {
                    return Err(format!("missing anchor attribute `{attr}`"));
                }
            }
        }
        if let Some(declared) = self.declared_attrs.get(class) {
            if !declared.is_empty() {
                for (attr, _) in &row.attrs {
                    if !declared.contains(attr) {
                        return Err(format!(
                            "attribute `{attr}` is not declared in the exported CM"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for RegisteredSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredSource")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("classes", &self.classes)
            .finish()
    }
}

/// Cumulative query-processing statistics (for the benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediatorStats {
    /// Wrapper queries issued (every physical attempt counts).
    pub source_queries: usize,
    /// Rows shipped from wrappers to the mediator.
    pub rows_shipped: usize,
    /// Rows surviving mediator-side residual filters.
    pub rows_kept: usize,
    /// Retry attempts beyond the first, across all fetches.
    pub retries: usize,
    /// Fetches that ultimately failed or were skipped by a breaker.
    pub failures: usize,
}

impl MediatorStats {
    /// Folds another counter set into this one (the parallel fetch plane
    /// sums per-worker deltas into the federation's totals).
    pub fn merge(&mut self, other: &MediatorStats) {
        self.source_queries += other.source_queries;
        self.rows_shipped += other.rows_shipped;
        self.rows_kept += other.rows_kept;
        self.retries += other.retries;
        self.failures += other.failures;
    }
}

/// One unit of the fetch phase: a (possibly selection-pushing) query
/// against one named source. Plans describe their source needs as a list
/// of these and hand them to [`Federation::fetch_parallel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRequest {
    /// The source to contact.
    pub source: String,
    /// The capability-aware query to run against it.
    pub query: SourceQuery,
}

impl FetchRequest {
    /// A request wrapping an explicit query.
    pub fn new(source: impl Into<String>, query: SourceQuery) -> Self {
        FetchRequest {
            source: source.into(),
            query,
        }
    }

    /// A full-class scan request.
    pub fn scan(source: impl Into<String>, class: impl Into<String>) -> Self {
        FetchRequest {
            source: source.into(),
            query: SourceQuery::scan(class),
        }
    }
}

/// The rows one [`FetchRequest`] produced (empty when the source failed
/// or its breaker was open — the [`FetchSet`]'s report says which).
#[derive(Debug, Clone)]
pub struct FetchBatch {
    /// The contacted source.
    pub source: String,
    /// The query that was run.
    pub query: SourceQuery,
    /// The surviving rows (validated, residual-filtered), in wrapper
    /// ship order.
    pub rows: Vec<ObjectRow>,
}

/// Everything a fetch phase produced: one [`FetchBatch`] per request (in
/// request order), plus the degradation report and wrapper-traffic
/// statistics of exactly this operation. A `FetchSet` is self-contained:
/// the **evaluate phase** consumes it with no federation access at all,
/// which is what lets warm plans run read-only against a
/// [`crate::QuerySnapshot`].
#[derive(Debug, Clone, Default)]
pub struct FetchSet {
    /// One batch per submitted request, in submission order.
    pub batches: Vec<FetchBatch>,
    /// Per-source outcomes, quarantined rows, completeness — the delta
    /// for this operation only.
    pub report: AnswerReport,
    /// Wrapper-traffic counters — the delta for this operation only.
    pub stats: MediatorStats,
}

impl FetchSet {
    /// Total surviving rows across all batches.
    pub fn total_rows(&self) -> usize {
        self.batches.iter().map(|b| b.rows.len()).sum()
    }

    /// Whether every request got exactly what a fault-free run would
    /// have produced (no failures, no breaker skips, no quarantines).
    pub fn is_complete(&self) -> bool {
        self.report.is_complete()
    }

    /// Appends another fetch set (a later round of the same plan):
    /// batches are concatenated, reports and statistics folded.
    pub fn absorb(&mut self, other: FetchSet) {
        self.batches.extend(other.batches);
        self.report.absorb(&other.report);
        self.stats.merge(&other.stats);
    }
}

/// The per-job deadline context of one fetch job: the job's slice of the
/// query budget, the job's own self-charged spend, and the query-wide
/// cancellation token. Every job owns exactly one — never shared — so
/// deadline and hedging decisions depend only on the job's own work,
/// never on how concurrent jobs were scheduled. That is what keeps
/// reports bit-identical at every `fetch_threads` setting.
struct JobBudget {
    /// The job's slice of the query budget (`None` = no deadline).
    slice_ms: Option<u64>,
    /// Virtual milliseconds this job has charged itself so far: its own
    /// wrappers' [`Wrapper::virtual_cost_ms`] deltas plus its own retry
    /// backoffs — never raw clock reads, which siblings pollute.
    spent_ms: u64,
    /// The query-wide cancellation token, checked before every attempt.
    /// Exhausting a slice never fires it — which siblings saw the flag
    /// first would be a scheduling race — so each job runs to its own.
    cancel: CancelToken,
    /// Set once the job has quarantined rows from its source: a source
    /// that ships garbage is never hedged (a backup attempt would ship
    /// more garbage, not better data).
    tainted: bool,
}

impl JobBudget {
    fn exhausted(&self) -> bool {
        self.slice_ms.is_some_and(|s| self.spent_ms >= s)
    }

    fn charge(&mut self, ms: u64) {
        self.spent_ms = self.spent_ms.saturating_add(ms);
    }

    /// The outcome of a fetch cut off by this job's slice.
    fn deadline_exceeded(&self) -> SourceOutcome {
        SourceOutcome::DeadlineExceeded {
            spent_ms: self.spent_ms,
            budget_ms: self.slice_ms.unwrap_or(0),
        }
    }
}

/// The full outcome of one guarded fetch against one source, before any
/// report folding: surviving rows, quarantine diagnostics, and the
/// outcome classification. Produced by [`FetchMachine`] and folded into
/// the report by [`record_completion`].
pub(crate) struct FetchCompletion {
    /// Validated, residual-filtered rows (empty on failure/skip).
    rows: Vec<ObjectRow>,
    /// Rows rejected by CM validation.
    quarantined: Vec<QuarantinedRow>,
    /// Physical wrapper attempts (0 when the breaker skipped).
    attempts: usize,
    /// Backup attempts launched because the primary was slow.
    hedged: usize,
    /// Attempts cancelled: hedge losers plus abandoned fetches.
    cancelled: usize,
    /// The report-level classification.
    outcome: SourceOutcome,
}

/// A wrapper contact's outcome, fed back into the machine that asked
/// for it.
pub(crate) type SourceReply = std::result::Result<Vec<ObjectRow>, SourceError>;

/// What a resumable machine ([`FetchMachine`], [`JobMachine`]) needs
/// next.
pub(crate) enum Step<T> {
    /// Contact the source with the current query
    /// ([`JobMachine::current_query`]) — [`Wrapper::submit`], then
    /// [`Wrapper::complete`] if it parked — and call `step` again with
    /// the reply.
    Contact,
    /// The machine finished with this result.
    Done(T),
}

/// Where a [`FetchMachine`] is between contacts.
enum FetchState {
    /// About to run the pre-attempt gates (cancellation, deadline,
    /// breaker) and issue the next primary attempt.
    Gate,
    /// A primary attempt is in flight.
    Primary {
        /// Whether the breaker was fully closed when the attempt left
        /// (hedging is only for sources in good standing).
        breaker_closed: bool,
        /// The wrapper's self-charged cost before the attempt.
        cost_before: u64,
    },
    /// A hedge backup is in flight; the slow primary's rows ride along
    /// in case the backup loses the race.
    Backup {
        /// The primary's rows.
        rows: Vec<ObjectRow>,
        /// The primary's self-charged cost (the time to beat).
        attempt_cost: u64,
        /// The wrapper's self-charged cost before the backup.
        backup_before: u64,
    },
}

/// One guarded fetch — breaker check, per-attempt virtual-time budget,
/// bounded retries with deterministic backoff, hedging, CM quarantine,
/// residual selection filters — as a **resumable state machine** whose
/// only suspension points are wrapper contacts.
///
/// This is the **single** guarded-fetch body, and [`crate::executor`] is
/// its single driver: a suspended contact either answers inline or parks
/// on a timer, and the machine cannot tell which.
struct FetchMachine {
    attempts: u32,
    hedged: usize,
    cancelled: usize,
    last_error: Option<SourceError>,
    state: FetchState,
}

impl FetchMachine {
    fn new() -> Self {
        FetchMachine {
            attempts: 0,
            hedged: 0,
            cancelled: 0,
            last_error: None,
            state: FetchState::Gate,
        }
    }

    /// Advances the machine. `reply` carries the contact outcome iff the
    /// previous step returned [`Step::Contact`].
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        src: &RegisteredSource,
        policy: &SourcePolicy,
        breaker: &mut CircuitBreaker,
        clock: &Arc<VirtualClock>,
        stats: &mut MediatorStats,
        q: &SourceQuery,
        budget: &mut JobBudget,
        mut reply: Option<SourceReply>,
    ) -> Step<FetchCompletion> {
        loop {
            match std::mem::replace(&mut self.state, FetchState::Gate) {
                FetchState::Gate => {
                    // The deadline plane runs before any contact: a fired
                    // cancellation token or an exhausted slice abandons
                    // the fetch without touching the source or its
                    // breaker.
                    if budget.cancel.is_cancelled() {
                        self.cancelled += 1;
                        return self.fail(stats, SourceOutcome::Cancelled);
                    }
                    if budget.exhausted() {
                        self.cancelled += 1;
                        return self.fail(stats, budget.deadline_exceeded());
                    }
                    if !breaker.allows(clock.now_ms()) {
                        let outcome = match self.last_error.take() {
                            // The breaker opened between retry attempts:
                            // report the failure that opened it.
                            Some(error) => SourceOutcome::Failed { error },
                            None => SourceOutcome::SkippedByBreaker,
                        };
                        return self.fail(stats, outcome);
                    }
                    // Hedging is only for sources in good standing: a
                    // HalfOpen trial already is the recovery probe,
                    // doubling it would defeat the breaker's slow-start.
                    let breaker_closed = matches!(breaker.state(), BreakerState::Closed { .. });
                    self.attempts += 1;
                    stats.source_queries += 1;
                    self.state = FetchState::Primary {
                        breaker_closed,
                        cost_before: src.wrapper.virtual_cost_ms(),
                    };
                    return Step::Contact;
                }
                FetchState::Primary {
                    breaker_closed,
                    cost_before,
                } => {
                    // The attempt's own cost: the wrapper's self-reported
                    // stall delta, immune to concurrent siblings
                    // advancing the shared clock. The per-attempt timeout
                    // is judged by it too.
                    let attempt_cost = src.wrapper.virtual_cost_ms().saturating_sub(cost_before);
                    let result = reply
                        .take()
                        .expect("contact reply fed back after Primary")
                        .and_then(|rows| {
                            if policy.timeout_ms > 0 && attempt_cost > policy.timeout_ms {
                                Err(SourceError::Timeout {
                                    elapsed_ms: attempt_cost,
                                    budget_ms: policy.timeout_ms,
                                })
                            } else {
                                Ok(rows)
                            }
                        });
                    match result {
                        Ok(rows) => {
                            breaker.record_success();
                            stats.rows_shipped += rows.len();
                            stats.retries += (self.attempts - 1) as usize;
                            if policy.hedge_after_ms > 0
                                && attempt_cost > policy.hedge_after_ms
                                && breaker_closed
                                && !budget.tainted
                            {
                                // The primary answered, but slower than
                                // the hedge threshold: in wall-clock terms
                                // a backup attempt would have been racing
                                // it since `hedge_after_ms`. Run the
                                // backup (it consumes the source's next
                                // fault draw, so a seeded slow-tail
                                // re-rolls), pick the virtual-time winner,
                                // and charge only the winner's finishing
                                // time. Exactly one of the pair loses and
                                // is recorded as cancelled.
                                self.hedged += 1;
                                self.cancelled += 1;
                                self.attempts += 1;
                                stats.source_queries += 1;
                                self.state = FetchState::Backup {
                                    rows,
                                    attempt_cost,
                                    backup_before: src.wrapper.virtual_cost_ms(),
                                };
                                return Step::Contact;
                            }
                            return self.land(rows, attempt_cost, src, stats, q, budget);
                        }
                        Err(error) => {
                            budget.charge(attempt_cost);
                            breaker.record_failure(clock.now_ms());
                            if self.attempts >= policy.retry.max_attempts {
                                stats.retries += (self.attempts - 1) as usize;
                                return self.fail(stats, SourceOutcome::Failed { error });
                            }
                            self.last_error = Some(error);
                            let backoff = policy.retry.backoff_ms(self.attempts);
                            clock.advance_ms(backoff);
                            // The job sat out its own backoff: charge it.
                            budget.charge(backoff);
                            // Loop straight back into the gates: backoff
                            // is a virtual-clock advance, not a wall stall.
                            self.state = FetchState::Gate;
                        }
                    }
                }
                FetchState::Backup {
                    rows,
                    attempt_cost,
                    backup_before,
                } => {
                    let backup = reply.take().expect("contact reply fed back after Backup");
                    let backup_cost = src.wrapper.virtual_cost_ms().saturating_sub(backup_before);
                    let backup_finish = policy.hedge_after_ms.saturating_add(backup_cost);
                    let mut rows = rows;
                    let mut charge = attempt_cost;
                    match backup {
                        Ok(backup_rows)
                            if (policy.timeout_ms == 0 || backup_cost <= policy.timeout_ms)
                                && backup_finish < attempt_cost =>
                        {
                            // Backup wins: its rows stand, the slow
                            // primary is the cancelled loser.
                            stats.rows_shipped += backup_rows.len();
                            rows = backup_rows;
                            charge = backup_finish;
                        }
                        Ok(backup_rows) => {
                            // Backup lost the race (or blew the per-attempt
                            // timeout): it is the cancelled loser.
                            stats.rows_shipped += backup_rows.len();
                        }
                        Err(_) => {
                            // A failed backup is just a cancelled hedge;
                            // the primary succeeded, so the breaker is
                            // not penalised.
                        }
                    }
                    return self.land(rows, charge, src, stats, q, budget);
                }
            }
        }
    }

    /// The terminal step of a fetch that delivers no rows — abandoned,
    /// skipped by the breaker, or out of attempts.
    fn fail(&self, stats: &mut MediatorStats, outcome: SourceOutcome) -> Step<FetchCompletion> {
        stats.failures += 1;
        Step::Done(FetchCompletion {
            rows: Vec::new(),
            quarantined: Vec::new(),
            attempts: self.attempts as usize,
            hedged: self.hedged,
            cancelled: self.cancelled,
            outcome,
        })
    }

    /// The success epilogue shared by the hedged and unhedged paths:
    /// charge the winner's cost, then either drop the rows at the
    /// deadline or quarantine-validate and residual-filter them.
    fn land(
        &mut self,
        rows: Vec<ObjectRow>,
        charge: u64,
        src: &RegisteredSource,
        stats: &mut MediatorStats,
        q: &SourceQuery,
        budget: &mut JobBudget,
    ) -> Step<FetchCompletion> {
        budget.charge(charge);
        if budget.exhausted() {
            // The rows landed, but past the deadline: they are dropped,
            // exactly as if the transfer were still in flight when the
            // query gave up.
            self.cancelled += 1;
            return self.fail(stats, budget.deadline_exceeded());
        }
        // CM validation: quarantine, don't abort.
        let mut kept = Vec::with_capacity(rows.len());
        let mut quarantined = Vec::new();
        for row in rows {
            match src.validate_row(&q.class, &row) {
                Ok(()) => kept.push(row),
                Err(reason) => quarantined.push(QuarantinedRow {
                    source: src.name.clone(),
                    class: q.class.clone(),
                    row_id: row.id.clone(),
                    reason,
                }),
            }
        }
        kept.retain(|r| {
            q.selections
                .iter()
                .all(|s| r.get(&s.attr) == Some(&s.value))
        });
        stats.rows_kept += kept.len();
        let outcome = match self.attempts - 1 {
            0 => SourceOutcome::Ok,
            retries => SourceOutcome::Retried { retries },
        };
        Step::Done(FetchCompletion {
            rows: kept,
            quarantined,
            attempts: self.attempts as usize,
            hedged: self.hedged,
            cancelled: self.cancelled,
            outcome,
        })
    }
}

/// What one [`JobMachine`] produced, ready for the deterministic merge.
pub(crate) struct FetchJobDone {
    source: String,
    breaker: CircuitBreaker,
    stats: MediatorStats,
    /// Virtual milliseconds the job charged itself (its critical path).
    spent_ms: u64,
    /// `(request index, completion)` in submission order.
    results: Vec<(usize, FetchCompletion)>,
}

/// One fetch job as a **resumable machine**: everything needed to run
/// one source's requests without touching the federation. The source's
/// breaker is *moved* in (taken out of the federation's map) so its
/// requests run serially under one breaker/retry/fault schedule, and
/// moved back at merge time. The job sequences its requests through a
/// [`FetchMachine`] each, suspending at every wrapper contact; the
/// executor ([`crate::executor`]) drives it — a parked contact releases
/// its worker instead of blocking it.
pub(crate) struct JobMachine {
    /// Index into the federation's source roster.
    src_pos: usize,
    policy: SourcePolicy,
    breaker: CircuitBreaker,
    /// The job's deadline context (slice of the query budget + token).
    budget: JobBudget,
    /// `(request index, query)` in submission order.
    requests: Vec<(usize, SourceQuery)>,
    stats: MediatorStats,
    results: Vec<(usize, FetchCompletion)>,
    cursor: usize,
    fetch: FetchMachine,
}

impl JobMachine {
    /// The roster position of the job's source.
    pub(crate) fn src_pos(&self) -> usize {
        self.src_pos
    }

    /// The query the pending [`Step::Contact`] is for. Only valid
    /// between a `Contact` step and its reply.
    pub(crate) fn current_query(&self) -> &SourceQuery {
        &self.requests[self.cursor].1
    }

    /// Advances the job. `reply` carries the contact outcome iff the
    /// previous step returned [`Step::Contact`].
    pub(crate) fn step(
        &mut self,
        sources: &[RegisteredSource],
        clock: &Arc<VirtualClock>,
        mut reply: Option<SourceReply>,
    ) -> Step<FetchJobDone> {
        let src = &sources[self.src_pos];
        while self.cursor < self.requests.len() {
            let q = &self.requests[self.cursor].1;
            match self.fetch.step(
                src,
                &self.policy,
                &mut self.breaker,
                clock,
                &mut self.stats,
                q,
                &mut self.budget,
                reply.take(),
            ) {
                Step::Contact => return Step::Contact,
                Step::Done(completion) => {
                    if !completion.quarantined.is_empty() {
                        self.budget.tainted = true;
                    }
                    let idx = self.requests[self.cursor].0;
                    self.results.push((idx, completion));
                    self.cursor += 1;
                    self.fetch = FetchMachine::new();
                }
            }
        }
        Step::Done(FetchJobDone {
            source: src.name.clone(),
            breaker: self.breaker.clone(),
            stats: self.stats,
            spent_ms: self.budget.spent_ms,
            results: std::mem::take(&mut self.results),
        })
    }
}

/// Folds one completion into `report` under `source` and hands back its
/// surviving rows.
fn record_completion(
    report: &mut AnswerReport,
    source: &str,
    completion: FetchCompletion,
) -> Vec<ObjectRow> {
    for qr in completion.quarantined {
        report.record_quarantine(qr);
    }
    report.record_fetch(
        source,
        completion.attempts,
        completion.rows.len(),
        completion.hedged,
        completion.cancelled,
        completion.outcome,
    );
    completion.rows
}

/// The typed error a strict caller ([`Federation::fetch`]) gets for a
/// degraded outcome; `None` when the rows arrived.
fn strict_error(outcome: &SourceOutcome) -> Option<SourceError> {
    let unavailable = |reason: &str| SourceError::Unavailable {
        reason: reason.into(),
    };
    match outcome {
        SourceOutcome::Ok | SourceOutcome::Retried { .. } => None,
        SourceOutcome::Failed { error } => Some(error.clone()),
        SourceOutcome::SkippedByBreaker => {
            Some(unavailable("circuit breaker open; source not contacted"))
        }
        SourceOutcome::Cancelled => Some(unavailable("query cancelled; fetch abandoned")),
        SourceOutcome::DeadlineExceeded {
            spent_ms,
            budget_ms,
        } => Some(SourceError::Timeout {
            elapsed_ms: *spent_ms,
            budget_ms: *budget_ms,
        }),
    }
}

/// The worker count the fetch plane actually uses: `knob` (`0` = auto,
/// i.e. all of `cores`) capped by the number of per-source jobs, never
/// less than one.
fn pool_size(knob: usize, units: usize, cores: usize) -> usize {
    let cap = if knob == 0 { cores } else { knob };
    cap.min(units).max(1)
}

/// Tracks how many fetch-plane worker threads are live, and the
/// high-water mark (peak ≈ worker-pool size, not ≈ sources in flight).
#[derive(Debug, Default)]
pub(crate) struct ThreadGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl ThreadGauge {
    pub(crate) fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    pub(crate) fn exit(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    fn reset(&self) {
        self.current.store(0, Ordering::SeqCst);
        self.peak.store(0, Ordering::SeqCst);
    }
}

/// The source-facing layer of the mediator: registered wrappers plus the
/// resilience machinery guarding every fetch. See the module docs.
#[derive(Debug)]
pub struct Federation {
    sources: Vec<RegisteredSource>,
    clock: Arc<VirtualClock>,
    default_policy: SourcePolicy,
    policies: HashMap<String, SourcePolicy>,
    breakers: HashMap<String, CircuitBreaker>,
    report: AnswerReport,
    /// Worker threads for the parallel fetch plane (0 = auto: one per
    /// involved source, capped by available parallelism).
    fetch_threads: usize,
    /// Live/peak fetch worker threads (for the bench and the example).
    thread_gauge: ThreadGauge,
    /// End-to-end budget armed for every degradable operation (0 = no
    /// deadline). The operation in flight carries its own copy and its
    /// spend on `report` (`budget_ms`, `elapsed_ms`).
    query_budget_ms: u64,
    /// The query-wide cooperative cancellation token, shared with every
    /// fetch job (and, via the mediator, with the Datalog fixpoint).
    cancel: CancelToken,
    /// Query-processing statistics.
    pub stats: MediatorStats,
}

impl Default for Federation {
    fn default() -> Self {
        Self::new()
    }
}

impl Federation {
    /// An empty federation with a fresh [`VirtualClock`] and default
    /// policies.
    pub fn new() -> Self {
        Federation {
            sources: Vec::new(),
            clock: Arc::new(VirtualClock::new()),
            default_policy: SourcePolicy::default(),
            policies: HashMap::new(),
            breakers: HashMap::new(),
            report: AnswerReport::default(),
            fetch_threads: 0,
            thread_gauge: ThreadGauge::default(),
            query_budget_ms: 0,
            cancel: CancelToken::new(),
            stats: MediatorStats::default(),
        }
    }

    /// Arms an end-to-end virtual-time budget for every subsequent
    /// degradable operation: each operation starts with this many
    /// milliseconds ([`AnswerReport::budget_ms`]), every fetch round is
    /// charged its critical path ([`AnswerReport::elapsed_ms`]), every
    /// fetch job works against the remaining slice, and sources that run
    /// past it are cut off with [`SourceOutcome::DeadlineExceeded`] — the
    /// answer completes from whatever landed in time. `0` (the default)
    /// disables the deadline.
    pub fn set_query_budget_ms(&mut self, ms: u64) {
        self.query_budget_ms = ms;
    }

    /// The query-wide cancellation token. Cancel it (from any thread) to
    /// make in-flight and subsequent fetches of the current operation
    /// abandon cooperatively with [`SourceOutcome::Cancelled`]; each new
    /// operation starts with the token reset.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Sets the worker-thread count for [`Self::fetch_parallel`]: `0`
    /// (the default) means auto — one worker per involved source, capped
    /// by available parallelism; `1` runs every job on the calling thread
    /// (the determinism baseline); larger values cap the pool. Results
    /// are bit-identical for every setting — only wall-clock changes.
    pub fn set_fetch_threads(&mut self, threads: usize) {
        self.fetch_threads = threads;
    }

    /// The configured fetch-plane worker count (0 = auto).
    pub fn fetch_threads(&self) -> usize {
        self.fetch_threads
    }

    /// The highest number of fetch-plane worker threads that were ever
    /// live at once since the last [`Self::reset_peak_fetch_threads`]:
    /// the worker-pool size, however many sources were stalled at once
    /// (a one-worker fetch counts the calling thread).
    pub fn peak_fetch_threads(&self) -> usize {
        self.thread_gauge.peak()
    }

    /// Resets the [`Self::peak_fetch_threads`] high-water mark.
    pub fn reset_peak_fetch_threads(&self) {
        self.thread_gauge.reset();
    }

    /// Registered sources.
    pub fn sources(&self) -> &[RegisteredSource] {
        &self.sources
    }

    /// Looks up a registered source by name.
    pub fn source(&self, name: &str) -> Result<&RegisteredSource> {
        self.sources
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| MediatorError::UnknownSource {
                name: name.to_string(),
            })
    }

    /// The id the next registered source will get.
    pub(crate) fn next_id(&self) -> SourceId {
        SourceId(self.sources.len() as u32)
    }

    /// Whether a source with this name is already registered.
    pub(crate) fn has_source(&self, name: &str) -> bool {
        self.sources.iter().any(|s| s.name == name)
    }

    /// Adds a fully-built source record (the mediator's `register` builds
    /// it after translating the CM and anchoring the data).
    pub(crate) fn add_source(&mut self, src: RegisteredSource) {
        self.sources.push(src);
    }

    /// The federation's clock (share it with [`crate::FaultInjector`]s so
    /// injected delays, backoff and breaker cooldowns share one timeline).
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// Sets the policy used for sources without a per-source override.
    pub fn set_default_policy(&mut self, policy: SourcePolicy) {
        self.default_policy = policy;
    }

    /// Sets a per-source retry/timeout/breaker policy. Any existing
    /// breaker for the source is reset so the new configuration takes
    /// effect immediately.
    pub fn set_source_policy(&mut self, name: impl Into<String>, policy: SourcePolicy) {
        let name = name.into();
        self.breakers.remove(&name);
        self.policies.insert(name, policy);
    }

    /// The policy governing `name` (per-source override or default).
    pub fn policy_for(&self, name: &str) -> &SourcePolicy {
        self.policies.get(name).unwrap_or(&self.default_policy)
    }

    /// The breaker state for a source, once it has been fetched from at
    /// least once.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.breakers.get(name).map(|b| b.state())
    }

    /// The degradation report of the most recent degradable operation.
    pub fn report(&self) -> &AnswerReport {
        &self.report
    }

    /// Starts a fresh report (each degradable operation calls this),
    /// which arms the configured deadline: fetches before the first call
    /// run unbudgeted. The cancellation token is reset: every operation
    /// starts live.
    pub(crate) fn begin_report(&mut self) {
        self.report = AnswerReport {
            budget_ms: self.query_budget_ms,
            ..AnswerReport::default()
        };
        self.cancel.reset();
    }

    /// The names of sources that export `class` (by declared capability).
    pub fn sources_exporting(&self, class: &str) -> Vec<String> {
        self.sources
            .iter()
            .filter(|s| s.classes.iter().any(|c| c == class))
            .map(|s| s.name.clone())
            .collect()
    }

    /// Maps knowledge-layer source ids to names, preserving registration
    /// order.
    pub fn names_of(&self, ids: &[SourceId]) -> Vec<String> {
        self.sources
            .iter()
            .filter(|s| ids.contains(&s.id))
            .map(|s| s.name.clone())
            .collect()
    }

    /// Validates that a request targets a known source exporting the
    /// queried class, returning the roster position.
    fn validate_request(&self, source_name: &str, q: &SourceQuery) -> Result<usize> {
        let pos = self
            .sources
            .iter()
            .position(|s| s.name == source_name)
            .ok_or_else(|| MediatorError::UnknownSource {
                name: source_name.to_string(),
            })?;
        if !self.sources[pos].classes.iter().any(|c| c == &q.class) {
            return Err(MediatorError::UnknownClass {
                class: q.class.clone(),
            });
        }
        Ok(pos)
    }

    /// A fresh job for the source at `src_pos` with no requests yet: the
    /// source's breaker is moved out of the map (created under its policy
    /// on first contact) and comes back in the job's [`FetchJobDone`].
    fn new_job(&mut self, src_pos: usize) -> JobMachine {
        let name = &self.sources[src_pos].name;
        let policy = self.policy_for(name).clone();
        let breaker = self
            .breakers
            .remove(name)
            .unwrap_or_else(|| CircuitBreaker::new(policy.breaker.clone()));
        let report = &self.report;
        JobMachine {
            src_pos,
            policy,
            breaker,
            budget: JobBudget {
                slice_ms: (report.budget_ms > 0)
                    .then(|| report.budget_ms.saturating_sub(report.elapsed_ms)),
                spent_ms: 0,
                cancel: self.cancel.clone(),
                tainted: false,
            },
            requests: Vec::new(),
            stats: MediatorStats::default(),
            results: Vec::new(),
            cursor: 0,
            fetch: FetchMachine::new(),
        }
    }

    /// Capability-aware, fault-tolerant fetch: pushes the pushable
    /// selections to the wrapper (with retries, timeout budget, and
    /// circuit breaker per the source's [`SourcePolicy`]), quarantines
    /// rows that violate the source's exported CM, and applies the
    /// remaining selections as a residual filter mediator-side.
    ///
    /// This is [`Self::fetch_parallel`] of one request (one job means one
    /// worker, which is the calling thread), read strictly: a source that
    /// exhausts its retry budget — or whose breaker is open, or that the
    /// deadline cut off — is a typed [`MediatorError::Source`] error; the
    /// outcome is also folded into the current [`Self::report`].
    pub fn fetch(&mut self, source_name: &str, q: &SourceQuery) -> Result<Vec<ObjectRow>> {
        let mut set = self.fetch_parallel(&[FetchRequest::new(source_name, q.clone())])?;
        let outcome = &set.report.sources[source_name].outcome;
        match strict_error(outcome) {
            None => Ok(std::mem::take(&mut set.batches[0].rows)),
            Some(error) => Err(MediatorError::Source {
                name: source_name.to_string(),
                error,
            }),
        }
    }

    /// The **fetch phase** of the two-phase pipeline: executes a batch of
    /// [`FetchRequest`]s as one job per distinct source on the executor's
    /// worker pool, and returns a [`FetchSet`] whose batches are in
    /// request order. Source-level failures degrade to empty batches
    /// (visible in the set's report) — [`Self::fetch`] is the strict
    /// reading of the same outcome; unknown sources/classes are typed
    /// errors detected up front, before anything is contacted.
    ///
    /// **Determinism.** Results are bit-identical for any worker count:
    ///
    /// * each source's requests run serially inside that source's job, so
    ///   its breaker transitions, retry schedule, and any
    ///   [`crate::FaultInjector`] call counters see exactly the sequence
    ///   a one-worker run would produce;
    /// * rows are returned per-batch in request order, so downstream
    ///   interning order does not depend on completion order;
    /// * statistics and report entries are folded job-by-job in the
    ///   sources' first-appearance order (registration order, for plans
    ///   built from the roster) after every worker has finished.
    ///
    /// The one shared mutable resource is the federation [`VirtualClock`]:
    /// concurrent backoff/delay advances interleave, so *timestamps* (a
    /// breaker's `opened_at_ms`) can differ from a one-worker run when
    /// several faulty sources share the clock. No deadline, timeout or
    /// hedge decision reads it.
    pub fn fetch_parallel(&mut self, requests: &[FetchRequest]) -> Result<FetchSet> {
        let positions = requests
            .iter()
            .map(|r| self.validate_request(&r.source, &r.query))
            .collect::<Result<Vec<usize>>>()?;
        // Group requests into one job per source, in first-appearance
        // order.
        let mut jobs: Vec<JobMachine> = Vec::new();
        for (idx, (r, &pos)) in requests.iter().zip(&positions).enumerate() {
            let job_idx = match jobs.iter().position(|j| j.src_pos == pos) {
                Some(j) => j,
                None => {
                    jobs.push(self.new_job(pos));
                    jobs.len() - 1
                }
            };
            jobs[job_idx].requests.push((idx, r.query.clone()));
        }
        let workers = self.effective_fetch_threads(jobs.len());
        let finished = crate::executor::run_jobs(
            &self.sources,
            &self.clock,
            jobs,
            workers,
            &self.thread_gauge,
        );
        // Deterministic merge: jobs in first-appearance order, requests
        // within a job in submission order — regardless of which worker
        // finished when.
        let mut set = FetchSet {
            batches: requests
                .iter()
                .map(|r| FetchBatch {
                    source: r.source.clone(),
                    query: r.query.clone(),
                    rows: Vec::new(),
                })
                .collect(),
            ..FetchSet::default()
        };
        // The round's elapsed time is its critical path: concurrent jobs
        // overlap, so the slowest job — by its own self-charged spend —
        // bounds the round. A max over jobs is commutative, so the value
        // is identical for every worker count and completion order.
        let round_elapsed = finished.iter().map(|d| d.spent_ms).max().unwrap_or(0);
        for done in finished {
            self.breakers.insert(done.source.clone(), done.breaker);
            set.stats.merge(&done.stats);
            for (idx, completion) in done.results {
                set.batches[idx].rows =
                    record_completion(&mut set.report, &done.source, completion);
            }
        }
        set.report.elapsed_ms = round_elapsed;
        set.report.budget_ms = self.report.budget_ms;
        self.stats.merge(&set.stats);
        // Absorbing the round's `elapsed_ms` is the charge to the
        // operation's deadline.
        self.report.absorb(&set.report);
        Ok(set)
    }

    /// The worker count the executor will actually use for a given
    /// number of jobs: the explicit knob when set, otherwise one worker
    /// per core, always capped by the number of plan sources
    /// ([`pool_size`]). Stalled sources need no extra workers: a declared
    /// stall parks on a timer, not on a thread.
    pub(crate) fn effective_fetch_threads(&self, jobs: usize) -> usize {
        if jobs <= 1 {
            // `available_parallelism` reads cgroup files (~14µs a call):
            // too much for every single-source `fetch`, which needs no
            // answer from it.
            return 1;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        pool_size(self.fetch_threads, jobs, cores)
    }

    /// Calls a declared query template on a source (§2's "query
    /// templates" capability form): expands the template with the given
    /// arguments and fetches through the capability-aware path.
    pub fn call_template(
        &mut self,
        source_name: &str,
        template: &str,
        args: &[kind_gcm::GcmValue],
    ) -> Result<Vec<ObjectRow>> {
        let src = self.source(source_name)?;
        let t = src
            .wrapper
            .templates()
            .into_iter()
            .find(|t| t.name == template)
            .ok_or_else(|| MediatorError::UnknownClass {
                class: format!("{source_name}::{template}"),
            })?;
        let q = t.expand(args).ok_or_else(|| MediatorError::UnknownClass {
            class: format!(
                "{source_name}::{template}/{} called with {} args",
                t.params.len(),
                args.len()
            ),
        })?;
        self.fetch(source_name, &q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjector};
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, MemoryWrapper, StallAware};
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    fn wrapper(name: &str, class: &str, concept: &str, n: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: class.into(),
            pushable: vec!["location".into()],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.into(),
            concept: concept.into(),
        });
        for i in 0..n {
            w.add_row(
                class,
                &format!("{name}-o{i}"),
                vec![
                    ("location", GcmValue::Id(concept.into())),
                    ("value", GcmValue::Int(i as i64)),
                ],
            );
        }
        Arc::new(w)
    }

    fn three_source_mediator() -> Mediator {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(wrapper("A", "ca", "Spine", 3)).unwrap();
        m.register(wrapper("B", "cb", "Shaft", 2)).unwrap();
        m.register(wrapper("C", "cc", "Neuron", 4)).unwrap();
        m
    }

    fn all_scans(m: &Mediator) -> Vec<FetchRequest> {
        m.sources()
            .iter()
            .flat_map(|s| {
                s.classes
                    .iter()
                    .map(|c| FetchRequest::scan(s.name.as_str(), c.as_str()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn parallel_results_identical_for_every_worker_count() {
        let mut baseline = three_source_mediator();
        baseline.federation_mut().set_fetch_threads(1);
        let requests = all_scans(&baseline);
        let serial = baseline.federation_mut().fetch_parallel(&requests).unwrap();
        for threads in [2usize, 3, 8] {
            let mut m = three_source_mediator();
            m.federation_mut().set_fetch_threads(threads);
            let parallel = m.federation_mut().fetch_parallel(&requests).unwrap();
            assert_eq!(
                format!("{:?}", serial.batches),
                format!("{:?}", parallel.batches),
                "batches diverge at {threads} threads"
            );
            assert_eq!(serial.report, parallel.report);
            assert_eq!(serial.stats, parallel.stats);
        }
    }

    #[test]
    fn fetch_threads_default_adapts_to_plan_and_cores() {
        let mut m = three_source_mediator();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Knob unset: min(plan sources, cores), never below 1.
        assert_eq!(m.federation().fetch_threads(), 0);
        assert_eq!(m.federation().effective_fetch_threads(3), cores.clamp(1, 3));
        assert_eq!(m.federation().effective_fetch_threads(0), 1);
        // Explicit knob: still capped by the job count.
        m.federation_mut().set_fetch_threads(2);
        assert_eq!(m.federation().effective_fetch_threads(8), 2);
        assert_eq!(m.federation().effective_fetch_threads(1), 1);
    }

    #[test]
    fn parallel_batches_come_back_in_request_order() {
        let mut m = three_source_mediator();
        // Interleave sources on purpose: C, A, C, B.
        let requests = vec![
            FetchRequest::scan("C", "cc"),
            FetchRequest::scan("A", "ca"),
            FetchRequest::new("C", SourceQuery::scan("cc").with("value", GcmValue::Int(1))),
            FetchRequest::scan("B", "cb"),
        ];
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        let order: Vec<&str> = set.batches.iter().map(|b| b.source.as_str()).collect();
        assert_eq!(order, vec!["C", "A", "C", "B"]);
        assert_eq!(set.batches[0].rows.len(), 4);
        assert_eq!(set.batches[1].rows.len(), 3);
        // The residual filter ran inside the worker too.
        assert_eq!(set.batches[2].rows.len(), 1);
        assert_eq!(set.batches[3].rows.len(), 2);
        assert_eq!(set.total_rows(), 10);
        assert!(set.is_complete());
    }

    #[test]
    fn parallel_fetch_degrades_failing_sources() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(wrapper("OK", "ca", "Spine", 3)).unwrap();
        let failing = FaultInjector::new(wrapper("BAD", "cb", "Shaft", 2), m.clock())
            .with_fault(Fault::FailFirst(1000));
        let failing = Arc::new(failing);
        failing.disarm();
        m.register(Arc::clone(&failing) as Arc<dyn Wrapper>)
            .unwrap();
        failing.arm();
        let requests = vec![
            FetchRequest::scan("OK", "ca"),
            FetchRequest::scan("BAD", "cb"),
        ];
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        // The healthy source's rows arrive; the failing one degrades to
        // an empty batch, visible in the report.
        assert_eq!(set.batches[0].rows.len(), 3);
        assert!(set.batches[1].rows.is_empty());
        assert!(!set.is_complete());
        assert!(matches!(
            set.report.source("BAD").unwrap().outcome,
            SourceOutcome::Failed { .. }
        ));
        // The breaker advanced under the worker and was put back.
        assert!(m.breaker_state("BAD").is_some());
        // The federation's cumulative report absorbed the delta.
        assert!(!m.report().is_complete());
    }

    #[test]
    fn parallel_fetch_validates_before_contacting_anything() {
        let mut m = three_source_mediator();
        let requests = vec![
            FetchRequest::scan("A", "ca"),
            FetchRequest::scan("NOPE", "ca"),
        ];
        assert!(matches!(
            m.federation_mut().fetch_parallel(&requests),
            Err(MediatorError::UnknownSource { .. })
        ));
        // Nothing was fetched: the wrapper never saw the valid request.
        assert_eq!(m.stats().source_queries, 0);
        let requests = vec![FetchRequest::scan("A", "not_a_class")];
        assert!(matches!(
            m.federation_mut().fetch_parallel(&requests),
            Err(MediatorError::UnknownClass { .. })
        ));
    }

    #[test]
    fn empty_request_list_is_a_complete_noop() {
        let mut m = three_source_mediator();
        let set = m.federation_mut().fetch_parallel(&[]).unwrap();
        assert!(set.batches.is_empty());
        assert!(set.is_complete());
        assert_eq!(set.stats, MediatorStats::default());
    }

    #[test]
    fn one_worker_matches_eight_under_faults_hedges_and_deadlines() {
        // A seeded fault schedule exercising retries (FailFirst), the
        // hedge path (SlowTail + hedge_after_ms), and deadline charging
        // (query budget), run inline on the caller and on a pool.
        let build = |workers: usize| {
            let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
            m.federation_mut().set_fetch_threads(workers);
            m.set_default_policy(SourcePolicy::with_hedge_after_ms(10));
            m.set_query_budget_ms(500);
            m.register(wrapper("OK", "ca", "Spine", 3)).unwrap();
            let shaky = FaultInjector::new(wrapper("SHAKY", "cb", "Shaft", 2), m.clock())
                .with_fault(Fault::FailFirst(1))
                .with_fault(Fault::SlowTail {
                    seed: 77,
                    delay_ms: 40,
                    slow_per_mille: 700,
                });
            let shaky = Arc::new(shaky);
            shaky.disarm();
            m.register(Arc::clone(&shaky) as Arc<dyn Wrapper>).unwrap();
            shaky.arm();
            m.register(wrapper("C", "cc", "Neuron", 4)).unwrap();
            m
        };
        let mut baseline = build(1);
        let requests = all_scans(&baseline);
        let serial = baseline.federation_mut().fetch_parallel(&requests).unwrap();
        let mut m = build(8);
        let pooled = m.federation_mut().fetch_parallel(&requests).unwrap();
        assert_eq!(
            format!("{:?}", serial.batches),
            format!("{:?}", pooled.batches)
        );
        assert_eq!(serial.report, pooled.report);
        assert_eq!(serial.stats, pooled.stats);
        assert_eq!(baseline.breaker_state("SHAKY"), m.breaker_state("SHAKY"));
        // The schedule actually exercised the machinery: a retry
        // happened and at least one hedge fired.
        let shaky = serial.report.source("SHAKY").unwrap();
        assert!(shaky.attempts > 1 || shaky.hedged > 0);
    }

    /// The handshake of the timeout test below: B's attempt is in flight
    /// before A injects its delay, and stays in flight until A has.
    /// `armed` is off during registration, and for the one-worker run —
    /// there the jobs run one after the other and would wait for ever.
    #[derive(Default)]
    struct Handshake {
        armed: AtomicBool,
        b_in_flight: AtomicBool,
        a_injected: AtomicBool,
    }

    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    /// One side of the [`Handshake`] around any wrapper.
    struct Staged {
        inner: Arc<dyn Wrapper>,
        injects: bool,
        hs: Arc<Handshake>,
    }

    impl Wrapper for Staged {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn formalism(&self) -> &str {
            self.inner.formalism()
        }
        fn export_cm(&self) -> kind_xml::Element {
            self.inner.export_cm()
        }
        fn capabilities(&self) -> Vec<Capability> {
            self.inner.capabilities()
        }
        fn anchors(&self) -> Vec<Anchor> {
            self.inner.anchors()
        }
        fn virtual_cost_ms(&self) -> u64 {
            self.inner.virtual_cost_ms()
        }
        fn query(&self, q: &SourceQuery) -> SourceReply {
            if !self.hs.armed.load(Ordering::SeqCst) {
                return self.inner.query(q);
            }
            if self.injects {
                wait_for(&self.hs.b_in_flight);
                let reply = self.inner.query(q);
                self.hs.a_injected.store(true, Ordering::SeqCst);
                reply
            } else {
                self.hs.b_in_flight.store(true, Ordering::SeqCst);
                wait_for(&self.hs.a_injected);
                self.inner.query(q)
            }
        }
    }

    #[test]
    fn a_siblings_injected_delay_does_not_time_out_a_healthy_source() {
        // A injects 100 virtual ms per call; B is healthy under a 50 ms
        // per-attempt timeout. On two workers the handshake makes A's
        // delay land on the shared clock while B's attempt is in flight:
        // B's own cost is still 0, so B must read `Ok` after one attempt,
        // exactly as when the jobs run one after the other.
        let run = |workers: usize| {
            let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
            m.federation_mut().set_fetch_threads(workers);
            m.set_source_policy("B", SourcePolicy::with_timeout_ms(50));
            let hs = Arc::new(Handshake::default());
            let slow = Arc::new(
                FaultInjector::new(wrapper("A", "ca", "Spine", 3), m.clock())
                    .with_fault(Fault::Slow { delay_ms: 100 }),
            );
            slow.disarm();
            m.register(Arc::new(Staged {
                inner: Arc::clone(&slow) as Arc<dyn Wrapper>,
                injects: true,
                hs: Arc::clone(&hs),
            }))
            .unwrap();
            slow.arm();
            m.register(Arc::new(Staged {
                inner: wrapper("B", "cb", "Shaft", 2),
                injects: false,
                hs: Arc::clone(&hs),
            }))
            .unwrap();
            hs.armed.store(workers > 1, Ordering::SeqCst);
            let requests = all_scans(&m);
            let set = m.federation_mut().fetch_parallel(&requests).unwrap();
            (format!("{:?}", set.batches), set.report, set.stats)
        };
        let serial = run(1);
        let b = serial.1.source("B").unwrap();
        assert_eq!((&b.outcome, b.attempts), (&SourceOutcome::Ok, 1));
        assert_eq!(serial.1.elapsed_ms, 100);
        assert_eq!(run(2), serial);
    }

    /// The knob configures a budget; `begin_report` arms it. A fetch that
    /// no degradable operation began runs unbudgeted, and says so.
    #[test]
    fn a_query_budget_is_armed_by_begin_report_only() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.set_query_budget_ms(10);
        let slow = Arc::new(
            FaultInjector::new(wrapper("SLOW", "cs", "Spine", 2), m.clock())
                .with_fault(Fault::Slow { delay_ms: 50 }),
        );
        slow.disarm();
        m.register(Arc::clone(&slow) as Arc<dyn Wrapper>).unwrap();
        slow.arm();
        let requests = all_scans(&m);
        for _ in 0..2 {
            let set = m.federation_mut().fetch_parallel(&requests).unwrap();
            assert!(set.is_complete(), "{}", set.report.summary());
            assert_eq!((set.report.elapsed_ms, set.report.budget_ms), (50, 0));
        }
        m.federation_mut().begin_report();
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        assert!(set.report.deadline_exceeded());
        assert_eq!((set.report.elapsed_ms, set.report.budget_ms), (50, 10));
        // The operation's budget is spent: the next round has no slice.
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        assert_eq!(
            set.report.source("SLOW").unwrap().outcome,
            SourceOutcome::DeadlineExceeded {
                spent_ms: 0,
                budget_ms: 0
            }
        );
        assert_eq!(m.report().elapsed_ms, 50);
    }

    /// `fetch` is `fetch_parallel` of one request, read strictly: over
    /// seeded schedules mixing every fault kind with retries, hedging, a
    /// per-attempt timeout, a query budget and a breaker that opens and
    /// cools down, twin mediators driven one through each entry agree on
    /// rows, report, statistics, breaker state and clock after every
    /// step — and `fetch` is a typed source error exactly when the
    /// report's outcome is degraded.
    #[test]
    fn fetch_is_fetch_parallel_of_one() {
        use crate::fault::{mix, BreakerConfig, RetryPolicy};
        // The schedule generator: one hashed draw per parameter.
        fn draw(state: &mut u64, below: u64) -> u64 {
            *state = mix(*state);
            *state % below
        }
        let build = |seed: u64| {
            let mut g = seed;
            let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
            m.set_query_budget_ms([0, 60, 500][draw(&mut g, 3) as usize]);
            m.set_default_policy(SourcePolicy {
                retry: RetryPolicy {
                    base_backoff_ms: 20,
                    ..RetryPolicy::attempts(1 + draw(&mut g, 3) as u32)
                },
                timeout_ms: [0, 30][draw(&mut g, 2) as usize],
                breaker: BreakerConfig {
                    failure_threshold: 1 + draw(&mut g, 3) as u32,
                    cooldown_ms: 150,
                },
                hedge_after_ms: [0, 10][draw(&mut g, 2) as usize],
            });
            let shaky = FaultInjector::new(wrapper("S", "cs", "Spine", 6), m.clock())
                .with_fault(Fault::FailFirst(draw(&mut g, 3) as u32))
                .with_fault(Fault::Flaky {
                    seed,
                    fail_per_mille: draw(&mut g, 500) as u16,
                })
                .with_fault(Fault::SlowTail {
                    seed: !seed,
                    delay_ms: 40,
                    slow_per_mille: draw(&mut g, 800) as u16,
                })
                .with_fault(Fault::CorruptRows {
                    seed,
                    corrupt_per_mille: draw(&mut g, 300) as u16,
                });
            let shaky = Arc::new(shaky);
            shaky.disarm();
            m.register(Arc::clone(&shaky) as Arc<dyn Wrapper>).unwrap();
            shaky.arm();
            m
        };
        let observe = |m: &Mediator| {
            (
                m.report().clone(),
                m.stats(),
                m.breaker_state("S"),
                m.clock().now_ms(),
            )
        };
        let mut seen = BTreeSet::new();
        for seed in 0..96u64 {
            let (mut strict, mut batch) = (build(seed), build(seed));
            for step in 0..8 {
                // A new operation every other step, so budgets carry over
                // a fetch and run out between two.
                if step % 2 == 0 {
                    strict.federation_mut().begin_report();
                    batch.federation_mut().begin_report();
                }
                let q = if step % 3 == 2 {
                    SourceQuery::scan("cs").with("value", GcmValue::Int(1))
                } else {
                    SourceQuery::scan("cs")
                };
                let got = strict.federation_mut().fetch("S", &q);
                let set = batch
                    .federation_mut()
                    .fetch_parallel(&[FetchRequest::new("S", q)])
                    .unwrap();
                assert_eq!(
                    observe(&strict),
                    observe(&batch),
                    "seed {seed}, step {step}"
                );
                let s = set.report.source("S").unwrap();
                match got {
                    Ok(rows) => {
                        assert!(!s.outcome.is_degraded(), "seed {seed}, step {step}");
                        assert_eq!(rows, set.batches[0].rows);
                    }
                    Err(MediatorError::Source { name, .. }) => {
                        assert!(s.outcome.is_degraded(), "seed {seed}, step {step}");
                        assert!(name == "S" && set.batches[0].rows.is_empty());
                    }
                    Err(other) => panic!("seed {seed}, step {step}: {other}"),
                }
                seen.insert(match s.outcome {
                    SourceOutcome::Ok => "ok",
                    SourceOutcome::Retried { .. } => "retried",
                    SourceOutcome::SkippedByBreaker => "skipped",
                    SourceOutcome::Cancelled => "cancelled",
                    SourceOutcome::DeadlineExceeded { .. } => "deadline",
                    SourceOutcome::Failed { .. } => "failed",
                });
                if s.hedged > 0 {
                    seen.insert("hedged");
                }
                if s.quarantined > 0 {
                    seen.insert("quarantined");
                }
            }
        }
        // Nothing here fires the token, so everything but `cancelled`.
        let all = [
            "deadline",
            "failed",
            "hedged",
            "ok",
            "quarantined",
            "retried",
            "skipped",
        ];
        assert!(seen.iter().eq(all.iter()), "the schedules reach {seen:?}");
    }

    #[test]
    fn overlapped_parks_stalls_instead_of_holding_threads() {
        // 8 stall-aware sources × 25ms on 2 workers: thread-per-source
        // would need 8 threads (or 4 × 25ms rounds); parking overlaps all
        // 8 stalls and finishes in ~1 round.
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        for s in 0..8 {
            let w = wrapper(&format!("S{s}"), &format!("c{s}"), "Spine", 2);
            m.register(StallAware::new(w, std::time::Duration::from_millis(25)))
                .unwrap();
        }
        m.federation_mut().set_fetch_threads(2);
        let requests = all_scans(&m);
        m.federation_mut().reset_peak_fetch_threads();
        let start = std::time::Instant::now();
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(set.total_rows(), 16);
        assert!(set.is_complete());
        // Peak thread count is the pool size, not the source count.
        assert!(
            m.federation().peak_fetch_threads() <= 2,
            "peak {} > workers",
            m.federation().peak_fetch_threads()
        );
        // No submission is completed before its declared stall...
        assert!(
            elapsed >= std::time::Duration::from_millis(25),
            "a parked submission was collected early: {elapsed:?}"
        );
        // ...and all of them overlap: one at a time would be 8 × 25ms =
        // 200ms, two blocking workers 100ms; parked, ~25ms + scheduling.
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "stalls did not overlap: {elapsed:?}"
        );
    }

    /// A stall-aware source that checks the executor's side of the
    /// split-phase contract: it counts the `complete` calls that arrived
    /// sooner than `stall` after their `submit`.
    struct Punctual {
        inner: Arc<MemoryWrapper>,
        stall: std::time::Duration,
        submitted: Mutex<Option<std::time::Instant>>,
        early: AtomicUsize,
    }

    impl Wrapper for Punctual {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn formalism(&self) -> &str {
            self.inner.formalism()
        }
        fn export_cm(&self) -> kind_xml::Element {
            self.inner.export_cm()
        }
        fn capabilities(&self) -> Vec<Capability> {
            self.inner.capabilities()
        }
        fn anchors(&self) -> Vec<Anchor> {
            self.inner.anchors()
        }
        fn query(&self, q: &SourceQuery) -> SourceReply {
            self.inner.query(q)
        }
        fn submit(&self, _q: &SourceQuery) -> crate::wrapper::Submission {
            *self.submitted.lock().unwrap() = Some(std::time::Instant::now());
            crate::wrapper::Submission::Parked {
                stall: self.stall,
                ticket: 0,
            }
        }
        fn complete(&self, _ticket: u64, q: &SourceQuery) -> SourceReply {
            let submitted = self.submitted.lock().unwrap().take().unwrap();
            if submitted.elapsed() < self.stall {
                self.early.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.query(q)
        }
    }

    #[test]
    fn pool_size_clamps_and_defaults() {
        // Explicit knob wins, capped by the unit count.
        assert_eq!(pool_size(4, 100, 1), 4);
        assert_eq!(pool_size(4, 2, 16), 2);
        // knob = 0 defers to the core count, again capped by units.
        assert_eq!(pool_size(0, 100, 8), 8);
        assert_eq!(pool_size(0, 3, 8), 3);
        // Never below one worker, even with no work.
        assert_eq!(pool_size(0, 0, 8), 1);
        assert_eq!(pool_size(7, 0, 1), 1);
    }

    #[test]
    fn a_parked_submission_is_never_collected_before_its_stall() {
        // Six sources with stalls of 3..=8ms, six back-to-back requests
        // each, on two workers: submissions land at every fraction of a
        // millisecond, and workers look at the timers at every other —
        // the mix in which a deadline kept in whole milliseconds hands a
        // submission back up to 1ms short.
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.federation_mut().set_fetch_threads(2);
        let mut sources = Vec::new();
        let mut requests = Vec::new();
        for s in 0..6u64 {
            let (name, class) = (format!("P{s}"), format!("c{s}"));
            let source = Arc::new(Punctual {
                inner: wrapper(&name, &class, "Spine", 1),
                stall: std::time::Duration::from_millis(3 + s),
                submitted: Mutex::default(),
                early: AtomicUsize::new(0),
            });
            m.register(Arc::clone(&source) as Arc<dyn Wrapper>).unwrap();
            sources.push(source);
            requests.extend(vec![FetchRequest::scan(name, class); 6]);
        }
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        assert_eq!(set.total_rows(), 36);
        let early: usize = sources.iter().map(|s| s.early.load(Ordering::SeqCst)).sum();
        assert_eq!(early, 0, "{early} of 36 submissions were collected early");
    }
}
