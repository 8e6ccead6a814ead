//! Immutable, thread-safe query snapshots.
//!
//! [`QuerySnapshot`] is the mediator's answer to "serve reads from N
//! threads": [`crate::Mediator::snapshot`] freezes the evaluated state —
//! the GCM base (rules + interner), the evaluated [`Model`], and the
//! resolved domain-map view — behind `Arc`s, and the snapshot then
//! answers queries through `&self`, with **no exclusive lock on the hot
//! path**:
//!
//! * [`QuerySnapshot::query_fl`] parses the pattern into a private
//!   scratch symbol table and *remaps* it into the frozen interner
//!   (`FLogic::query`), so it never mutates shared state. A
//!   constant the snapshot has never seen simply matches nothing.
//! * [`QuerySnapshot::answer`] loads a one-off rule into a per-call
//!   **clone** of the frozen base (rules and interner: per-thread scratch
//!   space) and evaluates it over the shared model **in place**: the
//!   model's relations are borrowed, not copied, only the rule's own
//!   stratum is computed, and what it derives goes to a store the call
//!   throws away.
//!
//! What is shared and mutable below a snapshot sits behind `RwLock`s and
//! only ever gains entries that are functions of the frozen data: the
//! closure memo tables inside [`Resolved`], and the lazily built column
//! indexes of the model's relations. A bound probe (a pattern with a
//! constant, a join on a bound variable) takes a relation's index lock
//! for reading, uncontended once the index exists; the first probe of a
//! column set in an epoch builds the index under the write lock, once,
//! and every later reader of that epoch — and of the next, for relations
//! a publish left untouched — finds it there.
//!
//! Snapshots are decoupled from the mediator that produced them: the
//! mediator may keep registering sources, loading rows, and rebuilding
//! while old snapshots keep serving the state they captured (snapshot
//! isolation for reads). Publishing a fresher view is just
//! `mediator.snapshot()` again.

use crate::error::{MediatorError, Result};
use crate::knowledge::DomainView;
use crate::plan::{DistributionFetch, NeuroSchema, PlanTrace, Section5Fetch};
use crate::query::{evaluate, OneOffRule};
use kind_datalog::{EvalOptions, EvalStats, Model, Term};
use kind_dm::{DomainMap, Resolved, SemanticIndex};
use kind_gcm::GcmBase;
use std::sync::Arc;

/// The result of [`QuerySnapshot::answer_with`]: rendered answer rows
/// plus the evaluation counters a serving layer wants to report per
/// response (see `crates/server`).
#[derive(Debug, Clone)]
pub struct SnapshotAnswer {
    /// Rendered rows in head-variable order, sorted.
    pub rows: Vec<Vec<String>>,
    /// Evaluation statistics of the per-call scratch run.
    pub stats: EvalStats,
    /// Whether the magic-sets demand rewrite fired for this goal.
    pub magic_fired: bool,
    /// Whether the cost model declined an otherwise applicable rewrite.
    pub magic_declined: bool,
}

/// A frozen, `Send + Sync` view of an evaluated mediator: shared base +
/// model + domain map + resolved closures, read-only query API. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    base: Arc<GcmBase>,
    model: Arc<Model>,
    dm: Arc<DomainMap>,
    resolved: Arc<Resolved>,
    index: Arc<SemanticIndex>,
    eval_options: EvalOptions,
}

// The whole point of a snapshot: hand it to N worker threads. Enforced
// here at compile time (and again from the integration tests).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QuerySnapshot>();
};

impl QuerySnapshot {
    pub(crate) fn new(
        base: Arc<GcmBase>,
        model: Arc<Model>,
        dm: Arc<DomainMap>,
        resolved: Arc<Resolved>,
        index: Arc<SemanticIndex>,
        eval_options: EvalOptions,
    ) -> Self {
        QuerySnapshot {
            base,
            model,
            dm,
            resolved,
            index,
            eval_options,
        }
    }

    /// The frozen evaluated model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The frozen base (rules + interner) backing this snapshot.
    pub fn base(&self) -> &GcmBase {
        &self.base
    }

    /// The semantic index captured by this snapshot: which sources hold
    /// data at which domain-map concepts, frozen at snapshot time.
    pub fn index(&self) -> &SemanticIndex {
        &self.index
    }

    /// The domain map captured by this snapshot.
    pub fn dm(&self) -> &DomainMap {
        &self.dm
    }

    /// The resolved domain-map view captured by this snapshot (its memo
    /// tables are `RwLock`-backed, so concurrent probes are fine).
    pub fn resolved(&self) -> &Resolved {
        &self.resolved
    }

    /// The read-only domain-knowledge slice the **evaluate phase**
    /// consumes — the same view [`crate::Knowledge::domain_view`] hands
    /// out, so plan evaluation is literally the same code either way.
    pub fn domain_view(&self) -> DomainView<'_> {
        DomainView::new(&self.dm, &self.resolved)
    }

    /// The **evaluate phase** of the §5 plan against this snapshot: step
    /// 4 (lub root + downward-closure aggregation) over a fetch artifact
    /// produced earlier by [`crate::plan::section5_fetch`]. Pure and
    /// `&self` — no wrapper is contacted, so any number of threads can
    /// replay warm plans concurrently, and the resulting [`PlanTrace`]
    /// is identical to what the `&mut Mediator` path
    /// ([`crate::plan::run_section5`]) produced from the same fetch.
    pub fn run_section5(&self, schema: &NeuroSchema, fetched: &Section5Fetch) -> Result<PlanTrace> {
        crate::plan::section5_eval(&self.domain_view(), schema, fetched)
    }

    /// The **evaluate phase** of the Example 4 `protein_distribution`
    /// view against this snapshot (see [`Self::run_section5`] for the
    /// pattern; the fetch artifact comes from
    /// [`crate::plan::distribution_fetch`]).
    pub fn protein_distribution(
        &self,
        schema: &NeuroSchema,
        fetched: &DistributionFetch,
    ) -> Result<Vec<(String, i64)>> {
        crate::plan::distribution_eval(&self.domain_view(), schema, fetched)
    }

    /// The evaluation options captured at snapshot time (used by
    /// [`Self::answer`]'s per-call evaluation).
    pub fn eval_options(&self) -> &EvalOptions {
        &self.eval_options
    }

    /// Runs an FL query pattern (e.g. `"X : Neuron"`) against the frozen
    /// model. Allocation-light and free of exclusive locks once warm: the
    /// pattern is parsed into a scratch symbol table and remapped into the
    /// frozen interner, so `&self` suffices; a pattern with a constant
    /// reads the relation's index under its `RwLock` read guard, and only
    /// the first such probe of a column set in an epoch takes the write
    /// lock, to build the index. Patterns mentioning symbols the snapshot
    /// has never seen yield no rows.
    pub fn query_fl(&self, pattern: &str) -> Result<Vec<Vec<Term>>> {
        self.base
            .flogic()
            .query(&self.model, pattern)
            .map_err(MediatorError::from)
    }

    /// Renders a term from a query result using the frozen symbol table.
    pub fn show(&self, t: &Term) -> String {
        self.base.flogic().engine().show(t)
    }

    /// [`Self::query_fl`] with every row pre-rendered — convenient for
    /// cross-thread result comparison and for callers that do not want to
    /// hold `Term`s.
    pub fn query_fl_rendered(&self, pattern: &str) -> Result<Vec<Vec<String>>> {
        let mut rows: Vec<Vec<String>> = self
            .query_fl(pattern)?
            .iter()
            .map(|r| r.iter().map(|t| self.show(t)).collect())
            .collect();
        rows.sort();
        Ok(rows)
    }

    /// Answers a one-off conjunctive query given as a single FL rule
    /// (same shape as [`crate::Mediator::answer`]), evaluated **over the
    /// snapshot's materialized data** — no sources are contacted; rows
    /// fetched before the snapshot was taken are what there is to query.
    ///
    /// Each call clones the frozen base (rules and interner) into private
    /// scratch space, loads the rule there, and evaluates it over the
    /// shared model in place, so strata the rule does not touch are never
    /// recomputed, no relation is copied, and concurrent callers share
    /// only the model's read-mostly indexes. Returns rendered rows
    /// (sorted), in head-variable order.
    pub fn answer(&self, rule_text: &str) -> Result<Vec<Vec<String>>> {
        self.answer_with(rule_text, &self.eval_options)
            .map(|a| a.rows)
    }

    /// [`Self::answer`] with caller-supplied evaluation options and the
    /// per-call evaluation counters returned alongside the rows. This is
    /// the serving-plane entry point: a server thread swaps in a
    /// per-request [`kind_datalog::CancelToken`] / budget while keeping
    /// everything else from the snapshot's frozen options, and reports
    /// the [`EvalStats`] and magic-sets outcome with the response.
    pub fn answer_with(&self, rule_text: &str, opts: &EvalOptions) -> Result<SnapshotAnswer> {
        let rule = OneOffRule::parse(rule_text)?;
        // The same evaluate phase as `Mediator::answer`, with nothing
        // fetched: the scratch clone of the frozen base takes the rule
        // (and every symbol it interns), never the shared snapshot.
        let done = evaluate(&rule, &self.base, Some(&self.model), &[], opts)?;
        let engine = done.work.flogic().engine();
        let mut rows: Vec<Vec<String>> = done
            .rows
            .iter()
            .map(|r| r.iter().map(|t| engine.show(t)).collect())
            .collect();
        rows.sort();
        Ok(SnapshotAnswer {
            rows,
            stats: done.model.stats,
            magic_fired: done.model.profile.magic_fired,
            magic_declined: done.model.profile.magic_declined,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, Capability, MemoryWrapper, ObjectRow};
    use crate::MediatorError;
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;
    use std::sync::Arc;

    fn spine_wrapper(name: &str, n: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: "spines".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "spines".into(),
            concept: "Spine".into(),
        });
        for i in 0..n {
            w.add_row(
                "spines",
                &format!("{name}r{i}"),
                vec![("len", GcmValue::Int(i as i64))],
            );
        }
        Arc::new(w)
    }

    fn mediator() -> Mediator {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(spine_wrapper("A", 3)).unwrap();
        m.materialize_all().unwrap();
        m
    }

    /// Two snapshots with no intervening write share *every* component —
    /// republish is pointer-copying, not cloning.
    #[test]
    fn quiet_snapshots_share_all_components() {
        let mut m = mediator();
        let s1 = m.snapshot().unwrap();
        let s2 = m.snapshot().unwrap();
        assert!(std::ptr::eq(s1.model(), s2.model()));
        assert!(std::ptr::eq(s1.base(), s2.base()));
        assert!(std::ptr::eq(s1.dm(), s2.dm()));
        assert!(std::ptr::eq(s1.resolved(), s2.resolved()));
        assert!(std::ptr::eq(s1.index(), s2.index()));
    }

    /// A fact write invalidates exactly the components it touches (base
    /// clone + model); the knowledge-layer structures stay shared, and the
    /// old snapshot keeps serving its frozen state.
    #[test]
    fn fact_write_degrades_sharing_only_where_it_lands() {
        let mut m = mediator();
        let s1 = m.snapshot().unwrap();
        let row = ObjectRow {
            id: "fresh".into(),
            attrs: vec![("len".into(), GcmValue::Int(42))],
        };
        m.load_row("A", "spines", &row).unwrap();
        let s2 = m.snapshot().unwrap();
        assert!(!std::ptr::eq(s1.model(), s2.model()));
        assert!(!std::ptr::eq(s1.base(), s2.base()));
        assert!(std::ptr::eq(s1.dm(), s2.dm()));
        assert!(std::ptr::eq(s1.resolved(), s2.resolved()));
        assert!(std::ptr::eq(s1.index(), s2.index()));
        // Snapshot isolation: the older snapshot still answers from the
        // state it captured.
        assert_eq!(s1.query_fl("X : spines").unwrap().len(), 3);
        assert_eq!(s2.query_fl("X : spines").unwrap().len(), 4);
    }

    /// A head the base program already defines is answered cold — also when
    /// it derived nothing, or holds only stored facts: same rows and same
    /// work as with the base cache off. A fresh head is seeded and derives
    /// its own rows only.
    #[test]
    fn answer_head_defined_by_base_is_answered_cold() {
        let mut m = mediator();
        m.define_view("tagged(X) :- X : no_such_class.").unwrap();
        let snap = m.snapshot().unwrap();
        assert!(snap.query_fl("tagged(X)").unwrap().is_empty());
        let warm = snap.eval_options().clone();
        let cold = kind_datalog::EvalOptions {
            base_cache: false,
            ..warm.clone()
        };
        for (rule, rows) in [
            ("tagged(X) :- X : spines.", 3),
            (r#"anchored(X, "Spine") :- X : spines."#, 4),
        ] {
            let w = snap.answer_with(rule, &warm).unwrap();
            let c = snap.answer_with(rule, &cold).unwrap();
            assert_eq!(w.rows, c.rows, "{rule}");
            assert_eq!(w.rows.len(), rows, "{rule}");
            assert_eq!(w.stats, c.stats, "{rule} was seeded");
        }
        let fresh = snap.answer_with("fresh(X) :- X : spines.", &warm).unwrap();
        assert_eq!(fresh.rows.len(), 3);
        assert_eq!(fresh.stats.derived, 3);
    }

    /// The serving plane hands `answer_with` rule text straight off the
    /// wire: a nesting bomb is a typed error, not a dead process.
    #[test]
    fn answer_with_refuses_a_nesting_bomb() {
        let snap = mediator().snapshot().unwrap();
        let bomb = format!(
            "q(X) :- X : {}a{}.",
            "f(".repeat(200_000),
            ")".repeat(200_000)
        );
        let err = snap.answer_with(&bomb, snap.eval_options()).unwrap_err();
        assert!(
            matches!(
                &err,
                MediatorError::Datalog(kind_datalog::DatalogError::Parse { message, .. })
                    if message.contains("nesting")
            ),
            "{err:?}"
        );
        // The snapshot is as it was.
        assert_eq!(snap.query_fl("X : spines").unwrap().len(), 3);
    }

    /// Registration rebuilds the semantic index (new anchors) but reuses
    /// the resolved domain-map view when the registration did not refine
    /// the map's structure.
    #[test]
    fn registration_updates_index_but_reuses_resolved() {
        let mut m = mediator();
        let s1 = m.snapshot().unwrap();
        m.register(spine_wrapper("B", 2)).unwrap();
        let s2 = m.snapshot().unwrap();
        assert!(!std::ptr::eq(s1.index(), s2.index()));
        assert!(std::ptr::eq(s1.dm(), s2.dm()));
        assert!(std::ptr::eq(s1.resolved(), s2.resolved()));
    }
}
