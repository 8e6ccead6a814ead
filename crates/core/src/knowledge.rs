//! The **knowledge layer**: everything the mediator *knows* independent
//! of any particular source connection — the domain map and its resolved
//! closure view, the retained DL axioms, the CM plug-in registry, the
//! semantic index, the applied conceptual models, and the integrated
//! view definitions.
//!
//! This is the middle layer of the mediator split (see DESIGN.md):
//! [`crate::Federation`] owns the wrapper boundary below it, and
//! [`crate::Mediator`] composes the two with the eval/cache pipeline on
//! top. Semantic source *selection* lives here and speaks in
//! [`SourceId`]s; the mediator maps ids to source names via the
//! federation's roster.

use crate::error::{MediatorError, Result};
use kind_dm::{axiom, Axiom, DomainMap, ExecMode, NodeId, Resolved, SemanticIndex, SourceId};
use kind_gcm::{ConceptualModel, PluginRegistry};
use std::sync::Arc;

/// The semantic state of the mediator: domain map, axioms, plug-ins,
/// semantic index, applied CMs, and views. See the module docs.
#[derive(Debug)]
pub struct Knowledge {
    /// The domain map, behind an `Arc` so query snapshots can capture it
    /// for the read-only evaluate phase without copying the graph.
    /// Mutations (DM contributions at registration time) go through
    /// `Arc::make_mut`, which copies only if a snapshot still holds the
    /// old map — snapshot isolation for the DM, like the model.
    pub(crate) dm: Arc<DomainMap>,
    /// The resolved (flattened) view, shared with query snapshots: its
    /// closure memo tables are `RwLock`-backed, so concurrent readers
    /// warm them cooperatively.
    pub(crate) resolved: Arc<Resolved>,
    /// The DL axioms behind the map (when known), for logic-level
    /// subsumption reasoning.
    pub(crate) axioms: Vec<Axiom>,
    pub(crate) mode: ExecMode,
    pub(crate) registry: PluginRegistry,
    /// The semantic index, behind an `Arc` like the map and its resolved
    /// view: query snapshots capture it by reference, and anchor-time
    /// mutations go through `Arc::make_mut` (copy only if a snapshot
    /// still holds the old index).
    pub(crate) index: Arc<SemanticIndex>,
    pub(crate) cms: Vec<ConceptualModel>,
    pub(crate) views: Vec<String>,
}

impl Knowledge {
    /// Wraps a domain map (edges executed in `mode`), with the built-in
    /// CM plug-ins registered.
    pub(crate) fn new(dm: DomainMap, mode: ExecMode) -> Self {
        let resolved = Arc::new(Resolved::new(&dm));
        Knowledge {
            dm: Arc::new(dm),
            resolved,
            axioms: Vec::new(),
            mode,
            registry: PluginRegistry::with_builtins(),
            index: Arc::new(SemanticIndex::new()),
            cms: Vec::new(),
            views: Vec::new(),
        }
    }

    /// The domain map.
    pub fn dm(&self) -> &DomainMap {
        self.dm.as_ref()
    }

    /// The domain map as a shareable handle (for snapshots).
    pub(crate) fn dm_arc(&self) -> Arc<DomainMap> {
        Arc::clone(&self.dm)
    }

    /// The resolved (flattened) domain-map view.
    pub fn resolved(&self) -> &Resolved {
        &self.resolved
    }

    /// The resolved view as a shareable handle (for snapshots).
    pub(crate) fn resolved_arc(&self) -> Arc<Resolved> {
        Arc::clone(&self.resolved)
    }

    /// The read-only slice of this layer the **evaluate phase** consumes.
    pub fn domain_view(&self) -> DomainView<'_> {
        DomainView::new(self.dm.as_ref(), &self.resolved)
    }

    /// The semantic index.
    pub fn index(&self) -> &SemanticIndex {
        &self.index
    }

    /// The semantic index as a shareable handle (for snapshots).
    pub(crate) fn index_arc(&self) -> Arc<SemanticIndex> {
        Arc::clone(&self.index)
    }

    /// Mutable access for anchor-time updates (copy-on-write: clones the
    /// index only if a snapshot still shares it).
    pub(crate) fn index_mut(&mut self) -> &mut SemanticIndex {
        Arc::make_mut(&mut self.index)
    }

    /// Merges a source's DM contribution (Figure 3): loads the axiom
    /// text into the map, retains the axioms, and refreshes the resolved
    /// view. No-ops on blank text; returns whether the map changed.
    pub(crate) fn merge_contribution(&mut self, contribution: &str) -> Result<bool> {
        if contribution.trim().is_empty() {
            return Ok(false);
        }
        let new_axioms = axiom::load_axioms(Arc::make_mut(&mut self.dm), contribution)?;
        self.axioms.extend(new_axioms);
        // Keep the *old* resolved view when the contribution did not
        // actually change the resolved graph (e.g. axioms restating known
        // edges): its closure memo tables stay warm, and snapshots that
        // share it keep pointer equality across the republish.
        let fresh = Resolved::new(&self.dm);
        if !fresh.same_structure(&self.resolved) {
            self.resolved = Arc::new(fresh);
        }
        Ok(true)
    }

    /// Resolves a concept name, as a typed error on failure.
    pub(crate) fn lookup(&self, concept: &str) -> Result<NodeId> {
        self.domain_view().lookup(concept)
    }

    /// **Source selection** via the semantic index (§5 step 2): ids of
    /// sources with data anchored at (or below) *all* the given concepts.
    pub(crate) fn select_sources(&self, concepts: &[&str]) -> Result<Vec<SourceId>> {
        let nodes = self.domain_view().lookup_all(concepts)?;
        Ok(self
            .index
            .sources_for_all(&self.resolved, &nodes)
            .into_iter()
            .collect())
    }

    /// Ids of sources with data anchored anywhere in the **anatomical
    /// region** under `root` — the downward closure along `role` (which
    /// includes isa-subconcepts).
    pub fn sources_in_region(&self, role: &str, root: &str) -> Result<Vec<SourceId>> {
        let node = self.lookup(root)?;
        let region = self.resolved.downward_closure(role, node);
        let mut ids: Vec<SourceId> = region
            .into_iter()
            .flat_map(|c| self.index.sources_at(c))
            .collect();
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    /// Ids of sources relevant to one concept's cone.
    pub(crate) fn sources_below(&self, concept: &str) -> Result<Vec<SourceId>> {
        let node = self.lookup(concept)?;
        Ok(self
            .index
            .sources_below(&self.resolved, node)
            .into_iter()
            .collect())
    }

    /// **Logic-level source selection**: of the given source ids, those
    /// whose anchored concepts are subsumed by the DL concept
    /// *expression* (structural subsumption over the retained axioms;
    /// sound, incomplete — see `kind_dm::subsume`).
    pub(crate) fn sources_subsumed_by(
        &self,
        expr_text: &str,
        candidates: &[SourceId],
    ) -> Result<Vec<SourceId>> {
        let expr = kind_dm::parse_concept_expr(expr_text)?;
        let reasoner = kind_dm::subsume::Subsumption::new(&self.axioms);
        Ok(candidates
            .iter()
            .copied()
            .filter(|&id| {
                self.index.concepts_of(id).iter().any(|&c| {
                    self.dm.name(c).is_some_and(|name| {
                        reasoner.subsumes(&expr, &kind_dm::ConceptExpr::Atomic(name.to_string()))
                    })
                })
            })
            .collect())
    }

    /// The least upper bound of the named concepts in the isa lattice.
    pub(crate) fn lub(&self, concepts: &[&str]) -> Result<Option<String>> {
        let lub = self.domain_view().lub(concepts)?;
        Ok(lub.and_then(|n| self.dm.name(n).map(str::to_owned)))
    }

    /// The least upper bound in the **partonomy order** along `role` —
    /// the "region of correspondence" of §5 step 4: the smallest concept
    /// whose downward closure contains all the given locations.
    pub fn partonomy_lub(&self, role: &str, concepts: &[&str]) -> Result<Option<String>> {
        let lub = self.domain_view().partonomy_lub(role, concepts)?;
        Ok(lub.and_then(|n| self.dm.name(n).map(str::to_owned)))
    }
}

/// The read-only slice of domain knowledge the **evaluate phase** of the
/// two-phase pipeline consumes: name ↔ node resolution over the domain
/// map plus the resolved closure view (lub, downward closure, recursive
/// roll-up). It deliberately has no access to wrappers, policies, or the
/// semantic index — an evaluate-phase function taking a `DomainView`
/// *cannot* contact a source.
///
/// Constructible from the live [`Knowledge`] layer
/// ([`Knowledge::domain_view`]) or from a frozen
/// [`crate::QuerySnapshot`], so a warm plan evaluates identically against
/// either.
#[derive(Clone, Copy, Debug)]
pub struct DomainView<'a> {
    dm: &'a DomainMap,
    resolved: &'a Resolved,
}

impl<'a> DomainView<'a> {
    /// Builds a view over a map and its resolved closures.
    pub fn new(dm: &'a DomainMap, resolved: &'a Resolved) -> Self {
        DomainView { dm, resolved }
    }

    /// The domain map.
    pub fn dm(&self) -> &'a DomainMap {
        self.dm
    }

    /// The resolved closure view.
    pub fn resolved(&self) -> &'a Resolved {
        self.resolved
    }

    /// Resolves a concept name, as a typed error on failure.
    pub fn lookup(&self, concept: &str) -> Result<NodeId> {
        self.dm
            .lookup(concept)
            .ok_or_else(|| MediatorError::UnknownConcept {
                name: concept.to_string(),
            })
    }

    /// [`Self::lookup`] over a slice.
    pub fn lookup_all(&self, concepts: &[&str]) -> Result<Vec<NodeId>> {
        concepts.iter().map(|c| self.lookup(c)).collect()
    }

    /// The least upper bound of the named concepts in the isa lattice.
    pub fn lub(&self, concepts: &[&str]) -> Result<Option<NodeId>> {
        Ok(self.resolved.lub(&self.lookup_all(concepts)?))
    }

    /// The least upper bound in the **partonomy order** along `role`
    /// (§5 step 4's "region of correspondence").
    pub fn partonomy_lub(&self, role: &str, concepts: &[&str]) -> Result<Option<NodeId>> {
        Ok(self
            .resolved
            .partonomy_lub(role, &self.lookup_all(concepts)?))
    }
}
