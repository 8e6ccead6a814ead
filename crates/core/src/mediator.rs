//! The model-based mediator (Figure 2) — now a thin **facade** over two
//! subsystems plus the evaluation pipeline:
//!
//! * [`crate::Federation`] — the source-facing layer: registered
//!   wrappers, per-source policies, circuit breakers, the shared clock,
//!   and the single guarded-fetch path;
//! * [`crate::Knowledge`] — the semantic layer: the domain map and its
//!   resolved closure view, retained DL axioms, the CM plug-in registry,
//!   the semantic index, applied CMs, and view definitions;
//! * the eval/cache pipeline owned here: the GCM base, the cached model
//!   of it, and the evaluation options.
//!
//! The mediator composes the three: sources join at runtime by
//! [`Mediator::register`]-ing (their CM export translated through the
//! plug-in for their formalism, applied to the GCM base, their data
//! anchored into the domain map, contributed DL axioms merged — Figure
//! 3), and integrated views are FL rule texts evaluated over everything
//! together. [`Mediator::snapshot`] freezes the evaluated state into an
//! immutable, `Send + Sync` [`crate::QuerySnapshot`] that any number of
//! threads can query concurrently.

use crate::error::{MediatorError, Result};
use crate::fault::{AnswerReport, BreakerState, SourceError, SourcePolicy, VirtualClock};
use crate::federation::{Federation, FetchRequest};
pub use crate::federation::{MediatorStats, RegisteredSource};
use crate::hub::{PinnedSnapshot, SnapshotHub};
use crate::knowledge::Knowledge;
use crate::query::{evaluate, AnswerSet, OneOffRule};
use crate::snapshot::QuerySnapshot;
use crate::wrapper::{Anchor, ObjectRow, SourceQuery, Wrapper};
use kind_datalog::{EvalOptions, Interner, Model, Term};
use kind_dm::{
    axiom, rules, DomainMap, ExecMode, NodeId, Resolved, SemanticIndex, SourceId, DM_OPS_RULES,
};
use kind_gcm::{GcmBase, GcmDecl};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The model-based mediator: a facade composing the [`Federation`] and
/// [`Knowledge`] layers with the eval/cache pipeline (see module docs).
pub struct Mediator {
    federation: Federation,
    knowledge: Knowledge,
    base: GcmBase,
    /// The cached evaluated model, shared with snapshots. `Arc` rather
    /// than an owned `Model` so [`Mediator::snapshot`] publishes it
    /// without a deep copy and query paths need no take/put juggling.
    model: Option<Arc<Model>>,
    /// Whether the base program must be rebuilt from scratch before the
    /// next evaluation. Raised only by changes the staged write plane
    /// cannot express as a delta: domain-map refinements (their compiled
    /// rules permeate the whole program). Everything else — loaded rows,
    /// retracted rows, incremental CM applications, new views — stays out
    /// of this flag and flows through the engine's changelog instead, so
    /// [`Self::publish`] can maintain the cached model incrementally.
    needs_rebuild: bool,
    /// Stored facts and rules of the program as [`Self::rebuild`] left it.
    /// Until the first model of a rebuilt base nothing is recorded, and
    /// [`Self::publish_pending`] tells a load from no load by this.
    built: (usize, usize),
    /// The `Arc` of the base handed to the most recent snapshot, reused
    /// verbatim by the next [`Self::snapshot`] when no base mutation
    /// happened in between — repeated snapshots of a quiet mediator share
    /// one base clone instead of deep-copying per call. A snapshot exists
    /// only after a run, from which on every base mutation reaches
    /// [`Self::run`] as a non-empty changelog or a rebuild, so those two
    /// places drop it.
    shared_base: Option<Arc<GcmBase>>,
    /// The snapshot publication hub: the epoch-counted current-snapshot
    /// slot that readers load under a shared read lock (they wait on a
    /// publish for a pointer swap only). The mediator is its single
    /// writer — [`Self::publish`] installs into it whenever anyone else
    /// holds a reference (see [`Self::hub`]), and
    /// [`Self::publish_snapshot`] installs unconditionally.
    hub: Arc<SnapshotHub>,
    eval_options: EvalOptions,
}

impl Mediator {
    /// Creates a mediator around a domain map, with edges executed in
    /// `mode` and the built-in CM plug-ins registered.
    pub fn new(dm: DomainMap, mode: ExecMode) -> Self {
        let federation = Federation::new();
        // One cancellation token for the whole pipeline: fetch jobs and
        // the Datalog fixpoint observe the same flag, so a single
        // `cancel()` winds down both planes cooperatively.
        let eval_options = EvalOptions {
            cancel: Some(federation.cancel_token()),
            ..EvalOptions::default()
        };
        let mut m = Mediator {
            federation,
            knowledge: Knowledge::new(dm, mode),
            base: GcmBase::new(),
            model: None,
            needs_rebuild: true,
            built: (0, 0),
            shared_base: None,
            hub: Arc::new(SnapshotHub::new()),
            eval_options,
        };
        m.rebuild().expect("empty mediator builds");
        m
    }

    /// Creates a mediator from DL axiom text: the domain map is lowered
    /// from the axioms, which are also retained so
    /// [`Self::select_sources_by_expression`] can use the structural
    /// subsumption reasoner.
    pub fn from_axioms(axiom_text: &str, mode: ExecMode) -> Result<Self> {
        let mut dm = DomainMap::new();
        let axioms = axiom::load_axioms(&mut dm, axiom_text)?;
        let mut m = Self::new(dm, mode);
        m.knowledge.axioms = axioms;
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Layer access.
    // ------------------------------------------------------------------

    /// The source-facing layer: registered wrappers, policies, breakers,
    /// clock, fetch statistics.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Mutable access to the federation layer.
    pub fn federation_mut(&mut self) -> &mut Federation {
        &mut self.federation
    }

    /// The semantic layer: domain map, resolved view, axioms, semantic
    /// index, CMs, views.
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    /// The two planes of the execution pipeline, split-borrowed: the
    /// **fetch plane** (mutable federation — it advances breakers, the
    /// clock, and statistics) alongside the **evaluate plane**'s
    /// knowledge (read-only). This is how a plan's fetch phase — e.g.
    /// [`crate::plan::section5_fetch`] — runs source selection against
    /// the knowledge layer while fetching through the federation,
    /// without ever being able to mutate semantic state.
    pub fn fetch_eval_planes(&mut self) -> (&mut Federation, &Knowledge) {
        (&mut self.federation, &self.knowledge)
    }

    // ------------------------------------------------------------------
    // Knowledge-layer delegation.
    // ------------------------------------------------------------------

    /// The retained DL axioms (empty when the map was built directly).
    pub fn axioms(&self) -> &[kind_dm::Axiom] {
        self.knowledge.axioms()
    }

    /// The domain map.
    pub fn dm(&self) -> &DomainMap {
        self.knowledge.dm()
    }

    /// The resolved (flattened) domain-map view.
    pub fn resolved(&self) -> &Resolved {
        self.knowledge.resolved()
    }

    /// The semantic index.
    pub fn index(&self) -> &SemanticIndex {
        self.knowledge.index()
    }

    /// The plug-in registry (e.g. to register a new formalism).
    pub fn registry_mut(&mut self) -> &mut kind_gcm::PluginRegistry {
        self.knowledge.registry_mut()
    }

    /// The least upper bound of the named concepts in the isa lattice.
    pub fn lub(&self, concepts: &[&str]) -> Result<Option<String>> {
        self.knowledge.lub(concepts)
    }

    /// The least upper bound in the **partonomy order** along `role` —
    /// the "region of correspondence" of §5 step 4: the smallest concept
    /// whose downward closure contains all the given locations.
    pub fn partonomy_lub(&self, role: &str, concepts: &[&str]) -> Result<Option<String>> {
        self.knowledge.partonomy_lub(role, concepts)
    }

    // ------------------------------------------------------------------
    // Federation-layer delegation.
    // ------------------------------------------------------------------

    /// Registered sources.
    pub fn sources(&self) -> &[RegisteredSource] {
        self.federation.sources()
    }

    /// Looks up a registered source by name.
    pub fn source(&self, name: &str) -> Result<&RegisteredSource> {
        self.federation.source(name)
    }

    /// Cumulative query-processing statistics.
    pub fn stats(&self) -> MediatorStats {
        self.federation.stats
    }

    /// The mediator's clock (share it with [`crate::FaultInjector`]s so
    /// injected delays, backoff and breaker cooldowns share one timeline).
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.federation.clock()
    }

    /// Sets the policy used for sources without a per-source override.
    pub fn set_default_policy(&mut self, policy: SourcePolicy) {
        self.federation.set_default_policy(policy);
    }

    /// Sets a per-source retry/timeout/breaker policy. Any existing
    /// breaker for the source is reset so the new configuration takes
    /// effect immediately.
    pub fn set_source_policy(&mut self, name: impl Into<String>, policy: SourcePolicy) {
        self.federation.set_source_policy(name, policy);
    }

    /// Arms an end-to-end virtual-time budget for every degradable
    /// operation ([`Self::materialize_all`], [`Self::answer`], the §5
    /// plans): each operation starts with the whole allowance, fetch
    /// jobs work against what is left of it, and sources that run past
    /// it are cut off with [`crate::SourceOutcome::DeadlineExceeded`] —
    /// the answer completes from whatever landed in time, and the report
    /// says what is missing. `0` (the default) disables the deadline.
    pub fn set_query_budget_ms(&mut self, ms: u64) {
        self.federation.set_query_budget_ms(ms);
    }

    /// The pipeline-wide cooperative cancellation token: cancel it (from
    /// any thread) and in-flight fetches abandon with
    /// [`crate::SourceOutcome::Cancelled`] while the Datalog fixpoint
    /// returns [`kind_datalog::DatalogError::Interrupted`] at its next
    /// round boundary. Each degradable operation starts with the token
    /// reset.
    pub fn cancel_token(&self) -> kind_datalog::CancelToken {
        self.federation.cancel_token()
    }

    /// The breaker state for a source, once it has been fetched from at
    /// least once.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.federation.breaker_state(name)
    }

    /// The degradation report of the most recent degradable operation
    /// ([`Self::materialize_all`], [`Self::answer`], or a plan run).
    pub fn report(&self) -> &AnswerReport {
        self.federation.report()
    }

    /// Capability-aware, fault-tolerant fetch — delegates to the
    /// federation layer's single guarded path ([`Federation::fetch`]), so
    /// retry/breaker/quarantine semantics are identical across every
    /// entry point.
    pub fn fetch(&mut self, source_name: &str, q: &SourceQuery) -> Result<Vec<ObjectRow>> {
        self.federation.fetch(source_name, q)
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
        self.federation.call_template(source_name, template, args)
    }

    /// The sources that export `class` (by declared capability).
    pub fn sources_exporting(&self, class: &str) -> Vec<String> {
        self.federation.sources_exporting(class)
    }

    // ------------------------------------------------------------------
    // Source selection: knowledge-layer ids mapped to federation names.
    // ------------------------------------------------------------------

    /// **Source selection** via the semantic index (§5 step 2): the names
    /// of sources with data anchored at (or below) *all* the given
    /// concepts.
    pub fn select_sources(&self, concepts: &[&str]) -> Result<Vec<String>> {
        let ids = self.knowledge.select_sources(concepts)?;
        Ok(self.federation.names_of(&ids))
    }

    /// Sources with data anchored anywhere in the **anatomical region**
    /// under `root` — the downward closure along `role` (which includes
    /// isa-subconcepts). This is how "sources relevant to the cerebellum"
    /// finds a lab anchored at `Purkinje_Cell` (a *part*, not a
    /// subconcept, of the cerebellum).
    pub fn sources_in_region(&self, role: &str, root: &str) -> Result<Vec<String>> {
        let ids = self.knowledge.sources_in_region(role, root)?;
        Ok(self.federation.names_of(&ids))
    }

    /// **Logic-level source selection**: the sources whose anchored
    /// concepts are subsumed by a DL concept *expression* — e.g.
    /// `"Neuron and exists has.Spine"` finds sources anchored at
    /// `Purkinje_Cell` even if no single named concept covers the query.
    /// Uses the structural subsumption reasoner on the retained axioms
    /// (sound, incomplete; see `kind_dm::subsume`).
    pub fn select_sources_by_expression(&self, expr_text: &str) -> Result<Vec<String>> {
        let all: Vec<SourceId> = self.federation.sources().iter().map(|s| s.id).collect();
        let ids = self.knowledge.sources_subsumed_by(expr_text, &all)?;
        Ok(self.federation.names_of(&ids))
    }

    /// Sources relevant to any one concept's cone.
    pub fn sources_below(&self, concept: &str) -> Result<Vec<String>> {
        let ids = self.knowledge.sources_below(concept)?;
        Ok(self.federation.names_of(&ids))
    }

    // ------------------------------------------------------------------
    // Registration: the one flow that touches every layer.
    // ------------------------------------------------------------------

    /// Registers a wrapped source: translates its CM through the plug-in
    /// for its formalism, applies it, merges its DM contribution, and
    /// builds its semantic index. Returns the assigned source id.
    pub fn register(&mut self, wrapper: Arc<dyn Wrapper>) -> Result<SourceId> {
        let name = wrapper.name().to_string();
        if self.federation.has_source(&name) {
            return Err(MediatorError::DuplicateSource { name });
        }
        let id = self.federation.next_id();
        // (1) DM contribution — a source may refine the mediator's map
        // (Figure 3) *before* anchoring against it.
        let contribution = wrapper.dm_contribution();
        self.needs_rebuild |= self.knowledge.merge_contribution(&contribution)?;
        // (2) Conceptual model through the plug-in.
        let doc = wrapper.export_cm();
        let cm = self
            .knowledge
            .registry
            .translate(wrapper.formalism(), &doc)?;
        // Remember the declared schema for row validation at fetch time.
        let mut declared_attrs: HashMap<String, BTreeSet<String>> = HashMap::new();
        for d in &cm.decls {
            if let GcmDecl::Method { class, method, .. } = d {
                declared_attrs
                    .entry(class.clone())
                    .or_default()
                    .insert(method.clone());
            }
        }
        // (3) What the source anchors where, read off its data. Nothing
        // is recorded until every fallible step is through, so a
        // registration either completes or leaves the roster, the index
        // and the CM list as they were. Registration contacts the source
        // directly (no retry/breaker: a source that cannot answer its own
        // registration scan has no business joining the federation).
        let scan = |class: &str| {
            wrapper
                .query(&SourceQuery::scan(class))
                .map_err(|error| MediatorError::Source {
                    name: name.clone(),
                    error,
                })
        };
        let mut per_concept: HashMap<String, usize> = HashMap::new();
        let mut anchor_attrs: HashMap<String, Vec<String>> = HashMap::new();
        for anchor in wrapper.anchors() {
            match anchor {
                Anchor::Fixed { class, concept } => {
                    *per_concept.entry(concept).or_insert(0) += scan(&class)?.len().max(1);
                }
                Anchor::ByAttr { class, attr } => {
                    for row in &scan(&class)? {
                        if let Some(c) = row.get_str(&attr) {
                            *per_concept.entry(c).or_insert(0) += 1;
                        }
                    }
                    anchor_attrs.entry(class).or_default().push(attr);
                }
                Anchor::Derived { class, rule } => {
                    // Evaluate the derived-anchor rule in a scratch base
                    // over this class's rows only.
                    let mut scratch = GcmBase::new();
                    scratch.flogic_mut().load(&rule)?;
                    for row in &scan(&class)? {
                        apply_row_to(&mut scratch, &name, &class, row)?;
                    }
                    let model = scratch.run_with(&self.eval_options)?;
                    let engine = scratch.flogic().engine();
                    for sol in engine.query_model(&model, "anchor_at(X, C)")? {
                        *per_concept.entry(engine.show(&sol[1])).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut anchors = Vec::with_capacity(per_concept.len());
        for (concept, count) in per_concept {
            anchors.push((self.knowledge.lookup(&concept)?, count));
        }
        anchors.sort();
        // Fast path: when the registration did not touch the domain map
        // and the base is current, apply the new CM and anchor facts
        // incrementally instead of rebuilding everything (anchoring
        // "without changing the latter", §4). The mutations land in the
        // engine's changelog, so the next [`Self::publish`] maintains the
        // cached model incrementally rather than discarding it. A CM that
        // fails half-way leaves stray facts in the base; the rebuild it
        // then owes clears them.
        if !self.needs_rebuild {
            let concepts: Vec<NodeId> = anchors.iter().map(|a| a.0).collect();
            let applied = self
                .base
                .apply(&cm)
                .map_err(MediatorError::from)
                .and_then(|()| {
                    assert_anchors(&mut self.base, &self.knowledge.dm, &name, &concepts)
                });
            if let Err(e) = applied {
                self.needs_rebuild = true;
                return Err(e);
            }
        }
        for (node, count) in anchors {
            self.knowledge.index_mut().anchor_many(id, node, count);
        }
        self.knowledge.cms.push(cm);
        let caps = wrapper.capabilities();
        let classes = caps.iter().map(|c| c.class.clone()).collect();
        self.federation.add_source(RegisteredSource {
            id,
            name,
            caps,
            wrapper,
            classes,
            declared_attrs,
            anchor_attrs,
        });
        Ok(id)
    }

    // ------------------------------------------------------------------
    // The eval/cache pipeline.
    // ------------------------------------------------------------------

    /// Overrides the evaluation options (depth limits etc.). The
    /// mediator's pipeline-wide cancellation token is re-attached unless
    /// the caller supplied their own (see [`Self::cancel_token`]). The
    /// base program does not depend on any option, so nothing is staged;
    /// the cached model is dropped when an option that can change it
    /// moved — `cancel` (identity, not semantics) and `magic_sets`
    /// (goal-directed plans only; [`Self::run`] never rewrites) cannot.
    pub fn set_eval_options(&mut self, opts: EvalOptions) {
        let keyed = |o: &EvalOptions| {
            let full = EvalOptions {
                cancel: None,
                magic_sets: true,
                ..o.clone()
            };
            format!("{full:?}")
        };
        if keyed(&opts) != keyed(&self.eval_options) {
            self.model = None;
        }
        self.eval_options = opts;
        if self.eval_options.cancel.is_none() {
            self.eval_options.cancel = Some(self.federation.cancel_token());
        }
    }

    /// The current evaluation options.
    pub fn eval_options(&self) -> &EvalOptions {
        &self.eval_options
    }

    /// Read access to the GCM base (the built engine).
    pub fn base(&self) -> &GcmBase {
        &self.base
    }

    /// Defines an integrated view (an IVD): FL rule text over source
    /// classes and the domain map (Example 4). When the base is current,
    /// the view's rules are loaded into the live engine immediately; the
    /// staged write plane picks the change up at the next
    /// [`Self::publish`].
    pub fn define_view(&mut self, fl_text: &str) -> Result<()> {
        if !self.needs_rebuild {
            if let Err(e) = self.base.flogic_mut().load(fl_text) {
                // Partial loads leave stray rules; resync via rebuild.
                self.needs_rebuild = true;
                return Err(e.into());
            }
        }
        self.knowledge.views.push(fl_text.to_string());
        Ok(())
    }

    /// Rebuilds the GCM base from scratch: DM rules, every applied CM,
    /// anchor facts, views. Called lazily by [`Self::run`] after any
    /// change (DM refinements cannot be retracted incrementally).
    pub fn rebuild(&mut self) -> Result<()> {
        let mut base = GcmBase::new();
        base.flogic_mut().load_datalog(DM_OPS_RULES)?;
        let prog = rules::compile(
            &self.knowledge.dm,
            &self.knowledge.resolved,
            self.knowledge.mode,
        );
        base.flogic_mut().load(&prog.text)?;
        for cm in &self.knowledge.cms {
            base.apply(cm)?;
        }
        // Anchor facts: anchored(source, concept) for source selection at
        // the logic level too.
        for src in self.federation.sources() {
            let concepts = self.knowledge.index.concepts_of(src.id);
            assert_anchors(&mut base, &self.knowledge.dm, &src.name, &concepts)?;
        }
        for v in &self.knowledge.views {
            base.flogic_mut().load(v)?;
        }
        self.built = program_size(&base);
        self.base = base;
        self.model = None;
        self.shared_base = None;
        self.needs_rebuild = false;
        Ok(())
    }

    /// Bulk-loads every row of every registered source into the GCM base
    /// as `inst`/`mi` facts (plus `relinst` for anchor attributes) — the
    /// *materialize-everything* strategy, used for loose federation and as
    /// the baseline the §5 push-down plan is compared against.
    ///
    /// Runs as a two-phase pipeline: the **fetch phase** scans every
    /// (source, class) pair concurrently through
    /// [`Federation::fetch_parallel`] (one worker job per source; tune
    /// with [`Federation::set_fetch_threads`]), then the **evaluate
    /// phase** applies the fetched batches in registration order — so
    /// the loaded base, including its interner, is bit-identical to what
    /// serial fetching produced.
    ///
    /// Degrades gracefully: a failing (or breaker-skipped) source simply
    /// contributes no rows, and CM-invalid rows are quarantined rather
    /// than loaded. Inspect [`Self::report`] afterwards for per-source
    /// outcomes and the completeness flag.
    pub fn materialize_all(&mut self) -> Result<usize> {
        self.federation.begin_report();
        if self.needs_rebuild {
            self.rebuild()?;
        }
        // Fetch phase: every (source, class) scan, in registration order.
        let requests: Vec<FetchRequest> = self
            .federation
            .sources()
            .iter()
            .flat_map(|s| {
                s.classes
                    .iter()
                    .map(|class| FetchRequest::scan(s.name.as_str(), class.as_str()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let fetched = self.federation.fetch_parallel(&requests)?;
        // Evaluate phase: apply batches in request (= registration) order.
        let mut loaded = 0usize;
        for batch in &fetched.batches {
            for row in &batch.rows {
                apply_row_to(&mut self.base, &batch.source, &batch.query.class, row)?;
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Loads one row into the base as GCM declarations, after validating
    /// it against the source's exported CM (unknown source, unexported
    /// class, and malformed rows are typed errors — not silently
    /// accepted).
    pub fn load_row(&mut self, source: &str, class: &str, row: &ObjectRow) -> Result<()> {
        let src = self.federation.source(source)?;
        if !src.classes.iter().any(|c| c == class) {
            return Err(MediatorError::UnknownClass {
                class: class.to_string(),
            });
        }
        if let Err(reason) = src.validate_row(class, row) {
            return Err(MediatorError::Source {
                name: source.to_string(),
                error: SourceError::MalformedRow {
                    row: row.id.clone(),
                    reason,
                },
            });
        }
        apply_row_to(&mut self.base, source, class, row)
    }

    /// Retracts a previously loaded row — the delete plane's mirror of
    /// [`Self::load_row`]: the row's `inst` fact and each of its `mi`
    /// attribute facts are removed from the base, staged in the write
    /// plane like any other mutation (the next [`Self::publish`]
    /// maintains the model incrementally, DRed-style). Returns how many
    /// facts were actually present and removed — `0` means the row was
    /// never loaded (or already retracted), which is not an error. The
    /// class declaration itself stays: other rows may still use it.
    pub fn retract_row(&mut self, source: &str, class: &str, row: &ObjectRow) -> Result<usize> {
        self.federation.source(source)?;
        let (obj, was_instance) = self
            .base
            .flogic_mut()
            .retract_instance(&format!("{source}.{}", row.id), class);
        let mut removed = usize::from(was_instance);
        for (attr, value) in &row.attrs {
            removed += usize::from(self.base.retract_value(obj.clone(), attr, value));
        }
        Ok(removed)
    }

    /// Evaluates the base (rebuilding first if needed) and caches the
    /// model across queries. The cached model goes stale in three ways,
    /// each with one owner: the program changed wholesale
    /// (`needs_rebuild`, raised by a domain-map refinement or
    /// [`Self::invalidate`]), facts or rules moved (the engine
    /// changelog), or an option that shapes the model did
    /// ([`Self::set_eval_options`]).
    ///
    /// This is the **publish point** of the staged write plane: mutations
    /// since the last run (loaded rows, retracted rows, incremental CM
    /// applications, new views) have been accumulating in the
    /// engine's changelog, and when a cached model exists they are
    /// applied to it *incrementally* ([`kind_datalog::Engine::apply_delta`]
    /// — monotone additions ride delta rounds, retractions
    /// overdelete-and-rederive, non-monotone residues rebuild only their
    /// strata). Only when no model is cached — first run, rebuild, or a
    /// prior publish failure — does the evaluation start cold.
    pub fn run(&mut self) -> Result<&Model> {
        if self.needs_rebuild {
            self.rebuild()?;
        }
        // Drain staged mutations unconditionally: whatever happens below,
        // the model produced reflects the engine's *current* state.
        let delta = self.base.flogic_mut().engine_mut().take_delta();
        if let Some(d) = delta.filter(|d| !d.is_empty()) {
            // The base moved on from the clone snapshots share.
            self.shared_base = None;
            if let Some(prev) = self.model.take() {
                // On error the model stays `None` (the delta is already
                // consumed), so the next run evaluates cold — never a
                // stale model passed off as current.
                let next =
                    self.base
                        .flogic()
                        .engine()
                        .apply_delta(&prev, &d, &self.eval_options)?;
                self.model = Some(Arc::new(next));
            }
        }
        if self.model.is_none() {
            let m = self.base.run_with(&self.eval_options)?;
            self.model = Some(Arc::new(m));
            // A changelog exists only against a model: the staged write
            // plane starts here, and whatever was loaded before is in `m`.
            self.base.flogic_mut().engine_mut().begin_delta();
        }
        Ok(self.model.as_ref().expect("just set"))
    }

    /// Publishes the staged writes: the write-plane name for
    /// [`Self::run`]. Everything asserted or retracted since the last
    /// publish is folded into the cached model — incrementally when one
    /// exists — and the result becomes what queries and snapshots see.
    ///
    /// Publication is **demand-driven**: when anyone besides the
    /// mediator holds the [`Self::hub`], the refreshed snapshot is also
    /// installed there (bumping the hub epoch) so hub readers observe
    /// the new state. With no subscribers the install — and the base
    /// clone a snapshot implies — is skipped entirely, keeping the bare
    /// write path as cheap as before the hub existed.
    pub fn publish(&mut self) -> Result<&Model> {
        if Arc::strong_count(&self.hub) > 1 {
            self.publish_snapshot()?;
        } else {
            self.run()?;
        }
        Ok(self.model.as_ref().expect("run() caches the model"))
    }

    /// The snapshot publication hub. Cloning the returned `Arc` counts
    /// as *subscribing*: from then on every [`Self::publish`] installs
    /// the fresh snapshot into the hub for readers to load. Readers that
    /// only ever want the current state should hold the hub and
    /// [`SnapshotHub::load`] per request rather than calling
    /// [`Self::snapshot`] through a lock on the mediator.
    pub fn hub(&self) -> Arc<SnapshotHub> {
        Arc::clone(&self.hub)
    }

    /// Publishes staged writes *and* unconditionally installs the
    /// resulting snapshot into the hub, returning the pinned
    /// publication. This is the explicit serving-plane entry point —
    /// call it once at startup to seed the hub, then let
    /// [`Self::publish`] keep it fresh.
    pub fn publish_snapshot(&mut self) -> Result<PinnedSnapshot> {
        let snap = self.snapshot()?;
        self.hub.install(snap);
        Ok(self.hub.load().expect("just installed"))
    }

    /// Whether the next [`Self::publish`] would change what readers see:
    /// a rebuild is owed (the whole program is the delta), mutations are
    /// staged against the cached model, or — before the first model of a
    /// rebuilt base, when nothing is recorded yet — anything was loaded on
    /// top of the built program.
    pub fn publish_pending(&self) -> bool {
        self.needs_rebuild
            || match self.base.flogic().engine().pending_delta() {
                Some(delta) => !delta.is_empty(),
                None => program_size(&self.base) != self.built,
            }
    }

    /// Drops the cached model and forces the next evaluation to rebuild
    /// the base and run cold — the baseline the incremental publish path
    /// is benchmarked against, and an operator escape hatch should the
    /// cache ever be suspected.
    pub fn invalidate(&mut self) {
        self.model = None;
        self.needs_rebuild = true;
    }

    /// The cached model, if a publish has happened and nothing discarded
    /// it since (test instrumentation: pointer identity tells whether an
    /// operation kept the cache warm).
    #[cfg(test)]
    pub(crate) fn cached_model(&self) -> Option<&Arc<Model>> {
        self.model.as_ref()
    }

    /// Freezes the current state into an immutable, `Send + Sync`
    /// [`QuerySnapshot`]: the evaluated model, the (cloned) GCM base, and
    /// the resolved domain-map view, all behind `Arc`s. Call after
    /// [`Self::materialize_all`]/[`Self::rebuild`]; the snapshot then
    /// serves [`QuerySnapshot::query_fl`]/[`QuerySnapshot::answer`] from
    /// any number of threads with no exclusive lock on the hot path, while the
    /// mediator remains free to keep evolving.
    /// Snapshots are **structurally shared**: the model `Arc` comes from
    /// the publish cache (and after an incremental publish, relations of
    /// untouched strata inside it are shared with the previous model);
    /// the domain map, resolved view, and semantic index `Arc`s are
    /// reused for as long as registration does not change them; and the
    /// base clone itself is reused verbatim across consecutive snapshots
    /// when no write intervened.
    pub fn snapshot(&mut self) -> Result<QuerySnapshot> {
        self.run()?;
        let base = match &self.shared_base {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(self.base.clone());
                self.shared_base = Some(Arc::clone(&b));
                b
            }
        };
        Ok(QuerySnapshot::new(
            base,
            Arc::clone(self.model.as_ref().expect("run() caches the model")),
            self.knowledge.dm_arc(),
            self.knowledge.resolved_arc(),
            self.knowledge.index_arc(),
            self.eval_options.clone(),
        ))
    }

    /// Runs an FL query pattern (e.g. `"X : Neuron"` or
    /// `"protein_distribution(P, C, A)"`) against the evaluated model.
    pub fn query_fl(&mut self, pattern: &str) -> Result<Vec<Vec<Term>>> {
        self.run()?;
        let model = self.model.as_ref().expect("run() caches the model");
        self.base
            .flogic()
            .query(model, pattern)
            .map_err(MediatorError::from)
    }

    /// Explains why an FL fact holds in the current model (e.g.
    /// `"SENSELAB.nt0 : neurotransmission"` or a derived view atom) as a
    /// rendered derivation tree. `None` when the fact does not hold.
    pub fn explain_fl(&mut self, fact: &str) -> Result<Option<String>> {
        self.run()?;
        let model = self.model.as_ref().expect("run() caches the model");
        self.base
            .flogic()
            .explain(model, fact, 16)
            .map_err(MediatorError::from)
    }

    /// Renders a term from a query result.
    pub fn show(&self, t: &Term) -> String {
        self.base.flogic().engine().show(t)
    }

    /// The inconsistency witnesses of the current model.
    pub fn witnesses(&mut self) -> Result<Vec<String>> {
        self.run()?;
        let model = Arc::clone(self.model.as_ref().expect("model cached"));
        Ok(self.base.witnesses(&model))
    }

    /// Answers a one-off conjunctive query given as a single FL rule (see
    /// the [`crate::query`] module docs). The rule's head predicate names
    /// the answer relation.
    ///
    /// Two phases, like [`Self::materialize_all`]: the **fetch phase**
    /// scans every source exporting a class the rule mentions,
    /// concurrently; the **evaluate phase** loads the rule and the fetched
    /// rows into a scratch clone of the base and evaluates towards the
    /// head there. Nothing is staged: the base, its rules and the cached
    /// model are what they were, and the fetched rows are gone with the
    /// clone. With [`EvalOptions::base_cache`] on the evaluation is seeded
    /// with the published model (staged writes are published first, as any
    /// query does); with it off no model is computed or consulted.
    pub fn answer(&mut self, rule_text: &str) -> Result<AnswerSet> {
        self.federation.begin_report();
        let rule = OneOffRule::parse(rule_text)?;
        // Fetch phase: one scan per (exporting source, mentioned class).
        let mut classes = Vec::new();
        let mut contacted: BTreeSet<String> = BTreeSet::new();
        let mut requests: Vec<FetchRequest> = Vec::new();
        for class in &rule.classes {
            let exporting = self.sources_exporting(class);
            if exporting.is_empty() {
                continue;
            }
            classes.push(class.clone());
            for src in exporting {
                requests.push(FetchRequest::scan(src.as_str(), class.as_str()));
                contacted.insert(src);
            }
        }
        let fetched = self.federation.fetch_parallel(&requests)?;
        // Evaluate phase, against the current program and — with the base
        // cache on — its published model.
        let seed = if self.eval_options.base_cache {
            self.run()?;
            self.model.as_deref()
        } else {
            if self.needs_rebuild {
                self.rebuild()?;
            }
            None
        };
        let done = evaluate(
            &rule,
            &self.base,
            seed,
            &fetched.batches,
            &self.eval_options,
        )?;
        // Answer terms may reference symbols interned only in the scratch
        // clone (object ids fetched this query); re-intern them into the
        // mediator's own symbol table so `show` resolves them.
        let from = done.work.flogic().engine().symbols();
        let to = self.base.flogic_mut().engine_mut();
        let rows = done
            .rows
            .iter()
            .map(|r| r.iter().map(|t| reintern_term(from, to, t)).collect())
            .collect();
        Ok(AnswerSet {
            rows,
            classes,
            sources: contacted.into_iter().collect(),
            report: self.report().clone(),
            stats: done.model.stats,
            magic_fired: done.model.profile.magic_fired,
        })
    }
}

/// Loads one row into `base` as its `obj : class` and `obj[attr -> value]`
/// facts, unchecked (the fetch plane validated the row) — the shared load
/// path for the mediator's own base and for per-query scratch clones. On
/// the mediator's base, once a model is cached, the facts are **staged**:
/// they land in the live engine and its changelog, and the cached model
/// stays valid as the pre-delta base until [`Mediator::publish`] applies
/// the accumulated delta incrementally.
pub(crate) fn apply_row_to(
    base: &mut GcmBase,
    source: &str,
    class: &str,
    row: &ObjectRow,
) -> Result<()> {
    let obj = base
        .flogic_mut()
        .assert_instance(&format!("{source}.{}", row.id), class)?;
    for (attr, value) in &row.attrs {
        base.assert_value(obj.clone(), attr, value)?;
    }
    Ok(())
}

/// Asserts `anchored(source, concept)` for each of the concepts a source
/// anchors at (by node id) — as facts, not as rule text: a source's name
/// is data, and the rule lexer reads only the escapes it knows. Symbols
/// are interned in the order the parser interned them when this was FL
/// text (source, concept, then the predicate), which the recorded base
/// fingerprint in `tests/properties.rs` holds still.
fn assert_anchors(
    base: &mut GcmBase,
    dm: &DomainMap,
    source: &str,
    concepts: &[NodeId],
) -> Result<()> {
    let engine = base.flogic_mut().engine_mut();
    for cname in concepts.iter().filter_map(|&c| dm.name(c)) {
        let args = vec![engine.constant(source), engine.constant(cname)];
        let pred = engine.sym("anchored");
        engine.add_fact(pred, args)?;
    }
    Ok(())
}

/// `(stored facts, rules)` of `base`'s program.
fn program_size(base: &GcmBase) -> (usize, usize) {
    let engine = base.flogic().engine();
    (engine.edb().len(), engine.rules().len())
}

/// Recursively re-interns a ground term from one symbol table into
/// another engine's. Variables and integers pass through unchanged.
pub(crate) fn reintern_term(from: &Interner, to: &mut kind_datalog::Engine, t: &Term) -> Term {
    match t {
        Term::Const(s) => to.constant(from.resolve(*s)),
        Term::Func(f, args) => {
            let name = from.resolve(*f).to_string();
            let mapped: Vec<Term> = args.iter().map(|a| reintern_term(from, to, a)).collect();
            let sym = to.sym(&name);
            Term::func(sym, mapped)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::{Capability, MemoryWrapper};
    use kind_dm::figures;
    use kind_gcm::GcmValue;

    fn simple_wrapper(name: &str, class: &str, concept: &str, n: usize) -> Arc<MemoryWrapper> {
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
                &format!("o{i}"),
                vec![
                    ("location", GcmValue::Id(concept.into())),
                    ("value", GcmValue::Int(i as i64)),
                ],
            );
        }
        Arc::new(w)
    }

    #[test]
    fn registration_builds_semantic_index() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let w = simple_wrapper("SYNAPSE", "spine_data", "Spine", 5);
        let id = m.register(w).unwrap();
        let spine = m.dm().lookup("Spine").unwrap();
        assert_eq!(m.index().count(id, spine), 5);
        // Source selection: Spine is an Ion_Regulating_Component.
        assert_eq!(
            m.sources_below("Ion_Regulating_Component").unwrap(),
            vec!["SYNAPSE".to_string()]
        );
        assert!(m.sources_below("Neuron").unwrap().is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("A", "c", "Spine", 1)).unwrap();
        assert!(matches!(
            m.register(simple_wrapper("A", "c", "Spine", 1)),
            Err(MediatorError::DuplicateSource { .. })
        ));
    }

    #[test]
    fn unknown_anchor_concept_rejected() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        assert!(matches!(
            m.register(simple_wrapper("A", "c", "NoSuchConcept", 1)),
            Err(MediatorError::UnknownConcept { .. })
        ));
        // A refused registration leaves nothing behind: no roster entry,
        // no CM for the next rebuild to apply, no anchors under the id
        // the next source will get.
        assert!(m.sources().is_empty());
        assert!(m.knowledge().cms().is_empty());
        assert_eq!(m.index().total_anchors(), 0);
        m.run().unwrap();
    }

    /// A source's name is data. Written into rule text with `{:?}` it
    /// came out as `"lab\r1"`, an escape the rule lexer does not read:
    /// `register` failed *after* the source was on the roster, and from
    /// then on every rebuild failed with the same parse error.
    #[test]
    fn a_source_name_the_rule_lexer_cannot_read_registers_and_runs() {
        let names = ["lab\r1", "nul\0", "zero\u{200b}width", "Zürich \"lab\"\\"];
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        for name in names {
            m.register(simple_wrapper(name, "spines", "Spine", 2))
                .unwrap();
        }
        assert_eq!(m.materialize_all().unwrap(), 2 * names.len());
        let anchored = |m: &mut Mediator| -> BTreeSet<String> {
            let rows = m.query_fl("anchored(S, C)").unwrap();
            rows.iter().map(|r| m.show(&r[0])).collect()
        };
        let expect: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(anchored(&mut m), expect);
        // The rebuild route asserts the same facts.
        m.invalidate();
        m.materialize_all().unwrap();
        assert_eq!(anchored(&mut m), expect);
        assert_eq!(m.sources_below("Spine").unwrap().len(), names.len());
    }

    #[test]
    fn dm_contribution_extends_the_map() {
        // Figure 3 flow: registering MyNeuron/MyDendrite refines the DM.
        let mut m = Mediator::new(figures::figure3_base(), ExecMode::Assertion);
        assert!(m.dm().lookup("MyNeuron").is_none());
        let mut w = MemoryWrapper::new("MYLAB");
        w.dm_axioms = figures::FIGURE3_REGISTRATION_AXIOMS.to_string();
        w.caps.push(Capability {
            class: "my_neurons".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "my_neurons".into(),
            concept: "MyNeuron".into(),
        });
        w.add_row("my_neurons", "m1", vec![]);
        m.register(Arc::new(w)).unwrap();
        assert!(m.dm().lookup("MyNeuron").is_some());
        // Derived knowledge: MyNeuron projects to GPE, so the source is
        // found below Medium_Spiny_Neuron.
        assert_eq!(
            m.sources_below("Medium_Spiny_Neuron").unwrap(),
            vec!["MYLAB".to_string()]
        );
    }

    #[test]
    fn materialize_and_query_loose_federation() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 3))
            .unwrap();
        m.materialize_all().unwrap();
        let rows = m.query_fl("X : spines").unwrap();
        assert_eq!(rows.len(), 3);
        // Rows carry source-qualified object names.
        let shown = m.show(&rows[0][0]);
        assert!(shown.starts_with("S1."), "{shown}");
    }

    #[test]
    fn views_evaluate_over_sources_and_dm() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 2))
            .unwrap();
        m.define_view("big(X) :- X : spines, X[value -> V], V >= 1.")
            .unwrap();
        m.materialize_all().unwrap();
        assert_eq!(m.query_fl("big(X)").unwrap().len(), 1);
    }

    #[test]
    fn fetch_applies_residual_filters() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 4))
            .unwrap();
        // `value` is not pushable: wrapper ships all 4, mediator keeps 1.
        let rows = m
            .fetch(
                "S1",
                &SourceQuery::scan("spines").with("value", GcmValue::Int(2)),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(m.stats().rows_shipped, 4);
        assert_eq!(m.stats().rows_kept, 1);
        // `location` is pushable: wrapper ships only matches.
        let rows = m
            .fetch(
                "S1",
                &SourceQuery::scan("spines").with("location", GcmValue::Id("Spine".into())),
            )
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(m.stats().rows_shipped, 8);
    }

    #[test]
    fn lub_through_mediator() {
        let m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        assert_eq!(
            m.lub(&["Purkinje_Cell", "Pyramidal_Cell"]).unwrap(),
            Some("Spiny_Neuron".to_string())
        );
    }

    #[test]
    fn incremental_registration_equals_rebuild() {
        // Register two sources; the second goes through the incremental
        // path. Force a rebuild on a copy and compare observable state.
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("A", "ca", "Spine", 2)).unwrap();
        m.run().unwrap(); // base now current
        m.register(simple_wrapper("B", "cb", "Shaft", 3)).unwrap();
        let inc_rows = m.query_fl(r#"anchored(S, C)"#).unwrap().len();
        m.rebuild().unwrap();
        let rebuilt_rows = m.query_fl(r#"anchored(S, C)"#).unwrap().len();
        assert_eq!(inc_rows, rebuilt_rows);
        assert_eq!(inc_rows, 2);
    }

    #[test]
    fn explanations_cross_the_whole_stack() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 1))
            .unwrap();
        m.define_view("X : noted :- X : spines, X[value -> V], V >= 0.")
            .unwrap();
        m.materialize_all().unwrap();
        let why = m
            .explain_fl(r#""S1.o0" : noted"#)
            .unwrap()
            .expect("fact holds");
        // The tree goes: view rule -> inst fact (edb) + mi fact (edb).
        assert!(why.contains("[rule #"), "{why}");
        assert!(why.contains("[edb]"), "{why}");
        assert!(m.explain_fl(r#""S1.o0" : nonsense"#).unwrap().is_none());
    }

    #[test]
    fn template_call_through_mediator() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let mut w = MemoryWrapper::new("T");
        w.caps.push(Capability {
            class: "m".into(),
            pushable: vec!["loc".into()],
        });
        w.query_templates.push(crate::wrapper::QueryTemplate {
            name: "by_loc".into(),
            class: "m".into(),
            params: vec!["loc".into()],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "m".into(),
            concept: "Spine".into(),
        });
        w.add_row("m", "a", vec![("loc", GcmValue::Id("Spine".into()))]);
        w.add_row("m", "b", vec![("loc", GcmValue::Id("Shaft".into()))]);
        m.register(Arc::new(w)).unwrap();
        let rows = m
            .call_template("T", "by_loc", &[GcmValue::Id("Spine".into())])
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "a");
        // Unknown template / wrong arity are errors.
        assert!(m.call_template("T", "nope", &[]).is_err());
        assert!(m.call_template("T", "by_loc", &[]).is_err());
    }

    #[test]
    fn derived_anchors_computed_at_the_mediator() {
        // Objects carry a numeric depth; the source declares a *rule*
        // mapping depths to concepts — the source itself never mentions
        // concept names per row.
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let mut w = MemoryWrapper::new("DEPTHS");
        w.caps.push(Capability {
            class: "probe".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Derived {
            class: "probe".into(),
            rule: r#"anchor_at(X, "Spine") :- X : probe, X[depth -> D], D >= 5.
                     anchor_at(X, "Shaft") :- X : probe, X[depth -> D], D < 5."#
                .into(),
        });
        w.add_row("probe", "p1", vec![("depth", GcmValue::Int(9))]);
        w.add_row("probe", "p2", vec![("depth", GcmValue::Int(2))]);
        w.add_row("probe", "p3", vec![("depth", GcmValue::Int(7))]);
        let id = m.register(Arc::new(w)).unwrap();
        let spine = m.dm().lookup("Spine").unwrap();
        let shaft = m.dm().lookup("Shaft").unwrap();
        assert_eq!(m.index().count(id, spine), 2);
        assert_eq!(m.index().count(id, shaft), 1);
    }

    #[test]
    fn subsumption_based_source_selection() {
        let mut m = Mediator::from_axioms(
            "Spiny_Neuron = Neuron and exists has.Spine.
             Purkinje_Cell, Pyramidal_Cell < Spiny_Neuron.
             Granule_Cell < Neuron.",
            ExecMode::Assertion,
        )
        .unwrap();
        m.register(simple_wrapper("P", "pdata", "Purkinje_Cell", 2))
            .unwrap();
        m.register(simple_wrapper("G", "gdata", "Granule_Cell", 2))
            .unwrap();
        // A query about spiny things finds only the Purkinje source.
        let spiny = m
            .select_sources_by_expression("Neuron and exists has.Spine")
            .unwrap();
        assert_eq!(spiny, vec!["P".to_string()]);
        // A plain neuron query finds both.
        let neurons = m.select_sources_by_expression("Neuron").unwrap();
        assert_eq!(neurons, vec!["P".to_string(), "G".to_string()]);
    }

    /// Renders a published model's true and undefined facts
    /// name-resolved, so models from independently driven mediators are
    /// comparable bit-for-bit.
    fn fact_dump(
        m: &Mediator,
    ) -> (
        std::collections::BTreeSet<String>,
        std::collections::BTreeSet<String>,
    ) {
        let model = Arc::clone(m.cached_model().expect("published"));
        let e = m.base().flogic().engine();
        let render = |fs: &kind_datalog::FactStore| {
            fs.iter()
                .map(|(p, t)| {
                    let args: Vec<String> = t.iter().map(|x| e.show(x)).collect();
                    format!("{}({})", e.name(p), args.join(","))
                })
                .collect()
        };
        (render(&model.facts), render(&model.undefined))
    }

    fn extra_row() -> ObjectRow {
        ObjectRow {
            id: "extra".into(),
            attrs: vec![
                ("location".into(), GcmValue::Id("Spine".into())),
                ("value".into(), GcmValue::Int(7)),
            ],
        }
    }

    fn existing_row(i: i64) -> ObjectRow {
        ObjectRow {
            id: format!("o{i}"),
            attrs: vec![
                ("location".into(), GcmValue::Id("Spine".into())),
                ("value".into(), GcmValue::Int(i)),
            ],
        }
    }

    /// The write-plane soundness contract: a history of loads and
    /// retractions published eagerly (incremental maintenance after every
    /// mutation) must end at the exact model a single cold evaluation of
    /// the same final engine state computes.
    #[test]
    fn incremental_publish_matches_cold_evaluation() {
        let drive = |eager: bool| {
            let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
            m.register(simple_wrapper("S1", "spines", "Spine", 3))
                .unwrap();
            m.define_view("big(X) :- X : spines, X[value -> V], V >= 1.")
                .unwrap();
            m.materialize_all().unwrap();
            if eager {
                m.publish().unwrap();
            }
            m.load_row("S1", "spines", &extra_row()).unwrap();
            if eager {
                assert!(m.publish_pending());
                m.publish().unwrap();
            }
            // inst + two mi facts per row.
            assert_eq!(m.retract_row("S1", "spines", &existing_row(2)).unwrap(), 3);
            m.publish().unwrap();
            assert!(!m.publish_pending());
            fact_dump(&m)
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn retraction_publish_removes_derived_facts() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 3))
            .unwrap();
        m.define_view("big(X) :- X : spines, X[value -> V], V >= 1.")
            .unwrap();
        m.materialize_all().unwrap();
        // o1, o2
        assert_eq!(m.query_fl("big(X)").unwrap().len(), 2);
        // Held across the publish: comparing against a freed `Arc`'s
        // address would race the allocator reusing it.
        let before = Arc::clone(m.cached_model().unwrap());
        m.retract_row("S1", "spines", &existing_row(2)).unwrap();
        m.publish().unwrap();
        // The publish was incremental (a new model was derived from the
        // cached one, not recomputed after an invalidation)...
        assert!(!Arc::ptr_eq(m.cached_model().unwrap(), &before));
        // ...and the retracted row's own facts *and* its derived view
        // member are gone.
        assert_eq!(m.query_fl("X : spines").unwrap().len(), 2);
        assert_eq!(m.query_fl("big(X)").unwrap().len(), 1);
        // Retracting a never-loaded row is a no-op, not an error.
        assert_eq!(m.retract_row("S1", "spines", &existing_row(9)).unwrap(), 0);
    }

    /// A publish with nothing staged must not touch the cached model —
    /// pointer-identical `Arc`, no re-evaluation.
    #[test]
    fn quiet_publish_is_free() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 2))
            .unwrap();
        m.materialize_all().unwrap();
        m.publish().unwrap();
        let before = Arc::clone(m.cached_model().unwrap());
        m.publish().unwrap();
        assert!(Arc::ptr_eq(m.cached_model().unwrap(), &before));
        // `invalidate` is the escape hatch: the next publish recomputes.
        m.invalidate();
        assert!(m.publish_pending());
        m.publish().unwrap();
        assert!(!Arc::ptr_eq(m.cached_model().unwrap(), &before));
    }

    /// Nothing is recorded until a model exists to apply it to, so rows
    /// loaded into a rebuilt base show as pending by what the base holds,
    /// not by a changelog — on the first build and after every
    /// `invalidate`.
    #[test]
    fn rows_loaded_before_the_first_run_are_pending() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        assert!(!m.publish_pending(), "a freshly built program owes nothing");
        m.register(simple_wrapper("S1", "spines", "Spine", 3))
            .unwrap();
        for round in 0..2 {
            assert_eq!(m.materialize_all().unwrap(), 3);
            let engine = m.base().flogic().engine();
            assert!(engine.pending_delta().is_none(), "logged without a model");
            assert!(m.publish_pending(), "round {round}: loaded rows are owed");
            m.publish().unwrap();
            assert!(!m.publish_pending());
            assert_eq!(m.query_fl("X : spines").unwrap().len(), 3);
            // From the model on, a load is a recorded delta.
            m.load_row("S1", "spines", &extra_row()).unwrap();
            assert!(m.publish_pending());
            m.publish().unwrap();
            assert!(m.base().flogic().engine().pending_delta().is_some());
            assert_eq!(m.query_fl("X : spines").unwrap().len(), 4);
            m.invalidate();
        }
    }

    #[test]
    fn anchored_facts_visible_to_rules() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 1))
            .unwrap();
        let rows = m.query_fl(r#"anchored("S1", C)"#).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(m.show(&rows[0][1]), "Spine");
    }
}
