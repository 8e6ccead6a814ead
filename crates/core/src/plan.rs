//! Query processing: the §5 query plan and the Example 4 integrated view.
//!
//! The paper's running query:
//!
//! > *"What is the distribution of those calcium-binding proteins that are
//! > found in neurons that receive signals from parallel fibers in rat
//! > brains?"*
//!
//! and its four-step plan:
//!
//! 1. **push selections** (`rat`, `parallel_fiber`) to the
//!    neurotransmission source and get bindings for the receiving
//!    neuron/compartment pairs;
//! 2. using the domain map, **select sources** that have data anchored for
//!    those pairs (only NCMIR, in the paper);
//! 3. **push selections** given by the locations to the selected sources
//!    and retrieve only the matching proteins;
//! 4. compute the **lub** of the locations as the distribution root and
//!    evaluate `protein_distribution` by a **downward closure** along
//!    `has_a_star` with recursive aggregation.
//!
//! Every step is recorded in a [`PlanTrace`] so tests and benchmarks can
//! inspect exactly what was pushed, selected, shipped, and aggregated.
//! Source selection can be disabled (`use_semantic_index = false`) for the
//! ablation in DESIGN.md.
//!
//! ## The two-phase pipeline
//!
//! The §5 plan is split along the fetch-plane / evaluate-plane boundary
//! (see DESIGN.md):
//!
//! * the **fetch phase**, [`section5_fetch`], takes `&Federation` (it
//!   contacts wrappers, concurrently, via [`Federation::fetch_parallel`])
//!   plus `&Knowledge` (steps 1–3 need source selection), and returns a
//!   self-contained artifact carrying every fetched row, the degradation
//!   report of its two rounds, and traffic statistics;
//! * the **evaluate phase**, [`section5_eval`], is *pure*: it takes a
//!   [`DomainView`] and the fetch artifact and never touches a wrapper,
//!   so it runs identically against the live mediator or a frozen
//!   [`crate::QuerySnapshot`] ([`crate::QuerySnapshot::run_section5`])
//!   from any number of threads.
//!
//! [`run_section5`] is the one-call composition of the two phases over a
//! `&mut Mediator`. The Example 4 view, [`protein_distribution`], is one
//! function over the same roll-up helper: nothing replays it warm.

use crate::error::Result;
use crate::fault::AnswerReport;
use crate::federation::{Federation, FetchBatch, FetchRequest, FetchSet};
use crate::knowledge::{DomainView, Knowledge};
use crate::mediator::{Mediator, MediatorStats};
use crate::wrapper::SourceQuery;
use kind_gcm::GcmValue;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Names binding the plan to a concrete mediated schema. Defaults match
/// the simulated Neuroscience sources of `kind-sources`.
#[derive(Debug, Clone)]
pub struct NeuroSchema {
    /// The neurotransmission class (SENSELAB-like).
    pub neurotransmission_class: String,
    /// Its organism attribute.
    pub nt_organism: String,
    /// Its transmitting-compartment attribute.
    pub nt_transmitting_compartment: String,
    /// Its receiving-neuron attribute (values are DM concept names).
    pub nt_receiving_neuron: String,
    /// Its receiving-compartment attribute (values are DM concept names).
    pub nt_receiving_compartment: String,
    /// The protein-amount class (NCMIR-like).
    pub protein_class: String,
    /// Its protein-name attribute.
    pub pa_protein: String,
    /// Its amount attribute (integer).
    pub pa_amount: String,
    /// Its location attribute (values are DM concept names).
    pub pa_location: String,
    /// Its bound-ion attribute.
    pub pa_ion: String,
    /// The partonomy role in the domain map.
    pub partonomy_role: String,
}

impl Default for NeuroSchema {
    fn default() -> Self {
        NeuroSchema {
            neurotransmission_class: "neurotransmission".into(),
            nt_organism: "organism".into(),
            nt_transmitting_compartment: "transmitting_compartment".into(),
            nt_receiving_neuron: "receiving_neuron".into(),
            nt_receiving_compartment: "receiving_compartment".into(),
            protein_class: "protein_amount".into(),
            pa_protein: "protein_name".into(),
            pa_amount: "amount".into(),
            pa_location: "location".into(),
            pa_ion: "ion_bound".into(),
            partonomy_role: "has_a".into(),
        }
    }
}

/// The §5 user query parameters.
#[derive(Debug, Clone)]
pub struct Section5Query {
    /// Organism selection (paper: `rat`).
    pub organism: String,
    /// Transmitting compartment (paper: `parallel_fiber`).
    pub transmitting_compartment: String,
    /// Bound ion of interest (paper: `calcium`).
    pub ion: String,
}

/// One aggregated distribution entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributionRow {
    /// Protein name.
    pub protein: String,
    /// Anatomical concept.
    pub concept: String,
    /// Total amount over the concept's subtree.
    pub total: i64,
}

/// A full record of one plan execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanTrace {
    /// Step 1: the receiving (neuron, compartment) pairs.
    pub step1_pairs: Vec<(String, String)>,
    /// Step 2: number of sources exporting the protein class at all.
    pub candidate_sources: usize,
    /// Step 2: the sources actually selected.
    pub selected_sources: Vec<String>,
    /// Whether the semantic index was used for step 2.
    pub used_semantic_index: bool,
    /// Step 3: protein rows retrieved (after filters).
    pub step3_rows: usize,
    /// Step 3: the distinct proteins found.
    pub proteins: Vec<String>,
    /// Step 4: the lub chosen as distribution root.
    pub root: Option<String>,
    /// Step 4: the aggregated distribution.
    pub distribution: Vec<DistributionRow>,
    /// Wrapper-traffic statistics accumulated by this plan run.
    pub stats: MediatorStats,
    /// Per-source outcomes, quarantined rows, and the completeness flag
    /// for this run (failed or breaker-skipped sources contribute no
    /// rows; the report says so).
    pub report: AnswerReport,
}

/// Everything the §5 plan's fetch phase produced — steps 1–3, which are
/// the only steps that contact sources. Self-contained: the evaluate
/// phase ([`section5_eval`]) needs nothing but this, a schema, and a
/// [`DomainView`], so a warm plan replays read-only against a
/// [`crate::QuerySnapshot`] with no federation in sight.
#[derive(Debug, Clone)]
pub struct Section5Fetch {
    /// The query parameters the fetch ran with.
    pub query: Section5Query,
    /// Step 1 output: the receiving (neuron, compartment) pairs.
    pub pairs: Vec<(String, String)>,
    /// Step 2: number of sources exporting the protein class at all.
    pub candidate_sources: usize,
    /// Step 2: the sources actually selected.
    pub selected_sources: Vec<String>,
    /// Whether the semantic index was used for step 2.
    pub used_semantic_index: bool,
    /// Step 3 output: one batch per (selected source, location) scan.
    pub protein_batches: Vec<FetchBatch>,
    /// Wrapper traffic of both fetch rounds (steps 1 and 3).
    pub stats: MediatorStats,
    /// Degradation record of both fetch rounds.
    pub report: AnswerReport,
}

/// The **fetch phase** of the §5 plan: steps 1–3. Pushes the organism /
/// transmitting-compartment selections to the neurotransmission sources
/// (concurrently), selects protein sources through the semantic index,
/// then pushes the location/ion selections to the selected sources
/// (concurrently again). The two rounds are one operation: step 3 works
/// against what step 1 left of the query budget, and the artifact's report
/// is both rounds'. Pure computation — the lub root and the recursive
/// roll-up — is deferred to [`section5_eval`].
pub fn section5_fetch(
    federation: &Federation,
    knowledge: &Knowledge,
    schema: &NeuroSchema,
    q: &Section5Query,
    use_semantic_index: bool,
) -> Result<Section5Fetch> {
    // ---- Step 1: push selections to the neurotransmission sources. ----
    let nt_requests: Vec<FetchRequest> = federation
        .sources_exporting(&schema.neurotransmission_class)
        .into_iter()
        .map(|src| {
            FetchRequest::new(
                src,
                SourceQuery::scan(&schema.neurotransmission_class)
                    .with(&schema.nt_organism, GcmValue::Id(q.organism.clone()))
                    .with(
                        &schema.nt_transmitting_compartment,
                        GcmValue::Id(q.transmitting_compartment.clone()),
                    ),
            )
        })
        .collect();
    let step1 = federation.fetch_parallel(&nt_requests)?;
    let mut pairs: Vec<(String, String)> = Vec::new();
    for batch in &step1.batches {
        for row in batch.rows.iter() {
            if let (Some(n), Some(c)) = (
                row.get_str(&schema.nt_receiving_neuron),
                row.get_str(&schema.nt_receiving_compartment),
            ) {
                pairs.push((n, c));
            }
        }
    }
    pairs.sort();
    pairs.dedup();

    // ---- Step 2: select sources via the semantic index. ---------------
    let candidates = federation.sources_exporting(&schema.protein_class);
    let selected: Vec<String> = if use_semantic_index {
        let mut chosen: HashSet<String> = HashSet::new();
        for (n, c) in &pairs {
            let ids = knowledge.select_sources(&[n.as_str(), c.as_str()])?;
            for s in federation.names_of(&ids) {
                if candidates.contains(&s) {
                    chosen.insert(s);
                }
            }
        }
        let mut v: Vec<String> = chosen.into_iter().collect();
        v.sort();
        v
    } else {
        candidates.clone()
    };

    // ---- Step 3: push location selections, retrieve proteins. ---------
    // The locations of interest: each receiving compartment and neuron.
    let locations = step3_locations(&pairs);
    let protein_requests: Vec<FetchRequest> = selected
        .iter()
        .flat_map(|src| {
            locations.iter().map(|loc| {
                FetchRequest::new(
                    src.clone(),
                    SourceQuery::scan(&schema.protein_class)
                        .with(&schema.pa_location, GcmValue::Id(loc.clone()))
                        .with(&schema.pa_ion, GcmValue::Id(q.ion.clone())),
                )
            })
        })
        .collect();
    let step3 = federation.fetch_round(&protein_requests, &step1.report)?;
    // The operation's report and statistics are both rounds'; its batches
    // are step 3's.
    let mut op = FetchSet {
        batches: Vec::new(),
        ..step1
    };
    op.absorb(step3);
    Ok(Section5Fetch {
        query: q.clone(),
        pairs,
        candidate_sources: candidates.len(),
        selected_sources: selected,
        used_semantic_index: use_semantic_index,
        protein_batches: op.batches,
        stats: op.stats,
        report: op.report,
    })
}

/// The step-3 location list implied by the step-1 pairs (each receiving
/// neuron and compartment, sorted, deduped).
fn step3_locations(pairs: &[(String, String)]) -> Vec<String> {
    let mut locations: Vec<String> = pairs
        .iter()
        .flat_map(|(n, c)| [n.clone(), c.clone()])
        .collect();
    locations.sort();
    locations.dedup();
    locations
}

/// The **evaluate phase** of the §5 plan: step 4, plus trace assembly.
/// Pure — consumes only the fetch artifact and a read-only
/// [`DomainView`], never a wrapper — so it runs against the live
/// mediator and against a [`crate::QuerySnapshot`] with identical
/// results, from any number of threads.
pub fn section5_eval(
    view: &DomainView<'_>,
    schema: &NeuroSchema,
    fetched: &Section5Fetch,
) -> Result<PlanTrace> {
    let mut trace = PlanTrace {
        step1_pairs: fetched.pairs.clone(),
        candidate_sources: fetched.candidate_sources,
        selected_sources: fetched.selected_sources.clone(),
        used_semantic_index: fetched.used_semantic_index,
        stats: fetched.stats,
        report: fetched.report.clone(),
        ..Default::default()
    };

    // Per protein, per location: summed raw amounts.
    let mut amounts: BTreeMap<String, HashMap<String, i64>> = BTreeMap::new();
    for batch in &fetched.protein_batches {
        for row in batch.rows.iter() {
            let (Some(p), Some(a), Some(l)) = (
                row.get_str(&schema.pa_protein),
                row.get_int(&schema.pa_amount),
                row.get_str(&schema.pa_location),
            ) else {
                continue;
            };
            trace.step3_rows += 1;
            *amounts.entry(p).or_default().entry(l).or_insert(0) += a;
        }
    }
    trace.proteins = amounts.keys().cloned().collect();

    // ---- Step 4: lub root + downward-closure aggregation. -------------
    let locations = step3_locations(&fetched.pairs);
    let loc_refs: Vec<&str> = locations.iter().map(String::as_str).collect();
    let Some(root) = view.partonomy_lub(&schema.partonomy_role, &loc_refs)? else {
        return Ok(trace);
    };
    trace.root = view.dm().name(root).map(str::to_owned);
    for (protein, per_loc) in &amounts {
        for (concept, total) in rollup(view, &schema.partonomy_role, root, per_loc) {
            trace.distribution.push(DistributionRow {
                protein: protein.clone(),
                concept,
                total,
            });
        }
    }
    Ok(trace)
}

/// The recursive roll-up §5 step 4 and Example 4 both end in: amounts per
/// location name, summed over each concept's subtree in the region under
/// `root` ([`kind_dm::Resolved::rollup_sum`]) — the non-zero totals, by
/// concept name. A location the map does not know contributes nothing.
fn rollup(
    view: &DomainView<'_>,
    role: &str,
    root: kind_dm::NodeId,
    per_loc: &HashMap<String, i64>,
) -> BTreeMap<String, i64> {
    let values: HashMap<kind_dm::NodeId, i64> = per_loc
        .iter()
        .filter_map(|(loc, v)| view.dm().lookup(loc).map(|n| (n, *v)))
        .collect();
    view.resolved()
        .rollup_sum(role, root, &values)
        .into_iter()
        .filter(|(_, total)| *total != 0)
        .filter_map(|(n, total)| view.dm().name(n).map(|name| (name.to_string(), total)))
        .collect()
}

/// Executes the §5 plan: the fetch phase ([`section5_fetch`]) followed by
/// the pure evaluate phase ([`section5_eval`]) over the live layers. The
/// fetch's report becomes [`Mediator::report`].
pub fn run_section5(
    m: &mut Mediator,
    schema: &NeuroSchema,
    q: &Section5Query,
    use_semantic_index: bool,
) -> Result<PlanTrace> {
    m.federation().cancel_token().reset();
    let (federation, knowledge) = m.fetch_eval_planes();
    let fetched = section5_fetch(federation, knowledge, schema, q, use_semantic_index)?;
    let trace = section5_eval(&knowledge.domain_view(), schema, &fetched);
    m.report = fetched.report;
    trace
}

/// The Example 4 integrated view: the distribution of `protein` under
/// `root` for all protein sources relevant below `root` (mediated class
/// `protein_distribution` of the paper). Scans the sources with protein
/// data anchored in the region under `root` (concurrently, with the
/// protein selection pushed down) and rolls their amounts up under
/// `root`. The fetch's report becomes [`Mediator::report`].
pub fn protein_distribution(
    m: &mut Mediator,
    schema: &NeuroSchema,
    protein: &str,
    root: &str,
) -> Result<Vec<(String, i64)>> {
    m.federation().cancel_token().reset();
    let (federation, knowledge) = m.fetch_eval_planes();
    let view = knowledge.domain_view();
    // Validate the root before contacting anything (a typed error).
    let root_node = view.lookup(root)?;
    let in_region =
        federation.names_of(&knowledge.sources_in_region(&schema.partonomy_role, root)?);
    let exporting = federation.sources_exporting(&schema.protein_class);
    let requests: Vec<FetchRequest> = in_region
        .into_iter()
        .filter(|s| exporting.contains(s))
        .map(|src| {
            FetchRequest::new(
                src,
                SourceQuery::scan(&schema.protein_class)
                    .with(&schema.pa_protein, GcmValue::Id(protein.to_string())),
            )
        })
        .collect();
    let fetched = federation.fetch_parallel(&requests)?;
    let mut per_loc: HashMap<String, i64> = HashMap::new();
    for row in fetched.batches.iter().flat_map(|b| b.rows.iter()) {
        if let (Some(l), Some(a)) = (
            row.get_str(&schema.pa_location),
            row.get_int(&schema.pa_amount),
        ) {
            *per_loc.entry(l).or_insert(0) += a;
        }
    }
    let distribution = rollup(&view, &schema.partonomy_role, root_node, &per_loc);
    m.report = fetched.report;
    Ok(distribution.into_iter().collect())
}
