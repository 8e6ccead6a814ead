//! The complete multiple-worlds scenario: Figure 1's domain map plus
//! anatomy, with SENSELAB, NCMIR, SYNAPSE, ANATOM, and a configurable
//! number of *irrelevant* protein sources anchored in other brain regions
//! (for the §5 source-selection ablation).

use crate::anatomy::{anatom_wrapper, scenario_domain_map};
use crate::ncmir::ncmir_wrapper;
use crate::senselab::senselab_wrapper;
use crate::synapse::synapse_wrapper;
use kind_core::{
    Anchor, Capability, Fault, FaultInjector, Mediator, MemoryWrapper, SourcePolicy, Wrapper,
};
use kind_dm::ExecMode;
use kind_gcm::GcmValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Scenario knobs (all deterministic for a fixed seed).
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// RNG seed.
    pub seed: u64,
    /// SENSELAB neurotransmission rows.
    pub senselab_rows: usize,
    /// NCMIR protein rows.
    pub ncmir_rows: usize,
    /// SYNAPSE morphometry rows.
    pub synapse_rows: usize,
    /// Number of irrelevant protein sources (anchored hippocampally).
    pub noise_sources: usize,
    /// Rows per irrelevant source.
    pub noise_rows: usize,
    /// Domain-map edge execution mode.
    pub mode: ExecMode,
    /// Fetch-plane worker threads (0 = auto — one per source, capped by
    /// available parallelism; 1 = serial baseline). Results are
    /// bit-identical across settings; only wall-clock changes.
    pub fetch_threads: usize,
    /// End-to-end virtual-time budget per degradable operation (0 = no
    /// deadline). Sources that run past their slice are cut off with
    /// `DeadlineExceeded`; the answer completes from what landed in time.
    pub query_budget_ms: u64,
    /// Hedge threshold applied as the default source policy (0 = no
    /// hedging): a primary attempt slower than this races one backup
    /// attempt, first virtual-time success wins.
    pub hedge_after_ms: u64,
    /// Whether goal-directed queries (`answer`) apply the magic-sets
    /// demand transformation. Answer-preserving either way; full
    /// materialization never applies it.
    pub magic_sets: bool,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            seed: 2001,
            senselab_rows: 40,
            ncmir_rows: 60,
            synapse_rows: 40,
            noise_sources: 4,
            noise_rows: 30,
            mode: ExecMode::Assertion,
            fetch_threads: 0,
            query_budget_ms: 0,
            hedge_after_ms: 0,
            magic_sets: true,
        }
    }
}

/// An irrelevant protein source: exports the same `protein_amount` class
/// as NCMIR but all its data anchors at hippocampal (non-cerebellar)
/// concepts, so the semantic index should prune it from Purkinje queries.
pub fn noise_protein_wrapper(name: &str, seed: u64, rows: usize) -> Arc<dyn Wrapper> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = MemoryWrapper::new(name);
    w.caps.push(Capability {
        class: "protein_amount".into(),
        pushable: vec!["location".into(), "ion_bound".into(), "protein_name".into()],
    });
    w.anchor_decls.push(Anchor::ByAttr {
        class: "protein_amount".into(),
        attr: "location".into(),
    });
    let locations = ["Pyramidal_Cell", "Pyramidal_Dendrite", "Pyramidal_Spine"];
    let proteins = ["Calbindin", "GFAP", "Synaptophysin"];
    for i in 0..rows {
        w.add_row(
            "protein_amount",
            &format!("np{i}"),
            vec![
                (
                    "protein_name",
                    GcmValue::Id(proteins[rng.gen_range(0..proteins.len())].into()),
                ),
                ("amount", GcmValue::Int(rng.gen_range(1..50))),
                (
                    "location",
                    GcmValue::Id(locations[rng.gen_range(0..locations.len())].into()),
                ),
                ("ion_bound", GcmValue::Id("calcium".into())),
                ("organism", GcmValue::Id("rat".into())),
            ],
        );
    }
    Arc::new(w)
}

/// A deterministic batch of *fresh* NCMIR `protein_amount` rows — the
/// update workload for the staged write plane. Row ids (`upd{batch}_{i}`)
/// are disjoint from the registered NCMIR rows (`pa{i}`) and across
/// batches, so loading them with [`Mediator::load_row`] (and retracting
/// them again with [`Mediator::retract_row`]) exercises incremental
/// republish against the warm §5 scenario without ever colliding with
/// existing objects.
pub fn ncmir_update_rows(seed: u64, batch: usize, rows: usize) -> Vec<kind_core::ObjectRow> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xD17A).wrapping_add(batch as u64));
    (0..rows)
        .map(|i| kind_core::ObjectRow {
            id: format!("upd{batch}_{i}"),
            attrs: vec![
                (
                    "protein_name".into(),
                    GcmValue::Id(
                        crate::ncmir::CALCIUM_BINDING
                            [rng.gen_range(0..crate::ncmir::CALCIUM_BINDING.len())]
                        .into(),
                    ),
                ),
                ("amount".into(), GcmValue::Int(rng.gen_range(1..100))),
                (
                    "location".into(),
                    GcmValue::Id(
                        crate::ncmir::NCMIR_LOCATIONS
                            [rng.gen_range(0..crate::ncmir::NCMIR_LOCATIONS.len())]
                        .into(),
                    ),
                ),
                ("ion_bound".into(), GcmValue::Id("calcium".into())),
                ("organism".into(), GcmValue::Id("rat".into())),
            ],
        })
        .collect()
}

/// An empty mediator over the scenario's domain map with the knobs of
/// `params` applied.
fn configured_mediator(params: &ScenarioParams) -> Mediator {
    let mut m = Mediator::new(scenario_domain_map(), params.mode);
    m.federation_mut().set_fetch_threads(params.fetch_threads);
    let mut opts = m.eval_options().clone();
    opts.magic_sets = params.magic_sets;
    m.set_eval_options(opts);
    m.set_query_budget_ms(params.query_budget_ms);
    if params.hedge_after_ms > 0 {
        m.set_default_policy(SourcePolicy::with_hedge_after_ms(params.hedge_after_ms));
    }
    m
}

/// Builds the fully registered mediator for the scenario.
pub fn build_scenario(params: &ScenarioParams) -> Mediator {
    let mut m = configured_mediator(params);
    // ANATOM first: it may refine the map other anchors depend on.
    m.register(anatom_wrapper("")).expect("ANATOM registers");
    m.register(senselab_wrapper(params.seed, params.senselab_rows))
        .expect("SENSELAB registers");
    m.register(ncmir_wrapper(params.seed, params.ncmir_rows))
        .expect("NCMIR registers");
    m.register(synapse_wrapper(params.seed, params.synapse_rows))
        .expect("SYNAPSE registers");
    for k in 0..params.noise_sources {
        let name = format!("NOISE{k}");
        m.register(noise_protein_wrapper(
            &name,
            params.seed.wrapping_add(1000 + k as u64),
            params.noise_rows,
        ))
        .unwrap_or_else(|e| panic!("{name} registers: {e}"));
    }
    m
}

/// Like [`build_scenario`], but SENSELAB is wrapped in a
/// [`FaultInjector`] carrying `senselab_faults`. The injector shares the
/// mediator's virtual clock (so `Slow` faults interact with timeout
/// budgets) and is disarmed during registration, then armed — the fault
/// schedule targets query traffic, not the registration handshake.
///
/// Returns the mediator and the injector handle (for `arm`/`disarm` and
/// call-count assertions in degradation tests).
pub fn build_scenario_with_faults(
    params: &ScenarioParams,
    senselab_faults: Vec<Fault>,
) -> (Mediator, Arc<FaultInjector>) {
    let mut m = configured_mediator(params);
    let mut injector = FaultInjector::new(
        senselab_wrapper(params.seed, params.senselab_rows),
        m.clock(),
    );
    for f in senselab_faults {
        injector = injector.with_fault(f);
    }
    let injector = Arc::new(injector);
    injector.disarm();
    m.register(anatom_wrapper("")).expect("ANATOM registers");
    m.register(Arc::clone(&injector) as Arc<dyn Wrapper>)
        .expect("SENSELAB registers");
    m.register(ncmir_wrapper(params.seed, params.ncmir_rows))
        .expect("NCMIR registers");
    m.register(synapse_wrapper(params.seed, params.synapse_rows))
        .expect("SYNAPSE registers");
    for k in 0..params.noise_sources {
        let name = format!("NOISE{k}");
        m.register(noise_protein_wrapper(
            &name,
            params.seed.wrapping_add(1000 + k as u64),
            params.noise_rows,
        ))
        .unwrap_or_else(|e| panic!("{name} registers: {e}"));
    }
    injector.arm();
    (m, injector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kind_core::{run_section5, NeuroSchema, Section5Query};

    fn scenario() -> Mediator {
        build_scenario(&ScenarioParams::default())
    }

    #[test]
    fn all_sources_register() {
        let m = scenario();
        assert_eq!(m.sources().len(), 8); // ANATOM + 3 labs + 4 noise
    }

    #[test]
    fn section5_query_end_to_end() {
        let mut m = scenario();
        let schema = NeuroSchema::default();
        let q = Section5Query {
            organism: "rat".into(),
            transmitting_compartment: "Parallel_Fiber".into(),
            ion: "calcium".into(),
        };
        let trace = run_section5(&mut m, &schema, &q, true).unwrap();
        // Step 1: parallel-fiber rows land on Purkinje structures.
        assert_eq!(
            trace.step1_pairs,
            vec![("Purkinje_Cell".to_string(), "Purkinje_Dendrite".to_string())]
        );
        // Step 2: only NCMIR survives source selection (noise sources are
        // hippocampal).
        assert_eq!(trace.candidate_sources, 5);
        assert_eq!(trace.selected_sources, vec!["NCMIR".to_string()]);
        // Step 3: calcium-binding proteins only.
        assert!(!trace.proteins.is_empty());
        assert!(trace
            .proteins
            .iter()
            .all(|p| crate::ncmir::CALCIUM_BINDING.contains(&p.as_str())));
        // Step 4: the distribution root is the Purkinje cell (the
        // dendrite is inside it) and the distribution is non-empty.
        assert_eq!(trace.root.as_deref(), Some("Purkinje_Cell"));
        assert!(!trace.distribution.is_empty());
    }

    #[test]
    fn ablation_without_index_contacts_all_candidates() {
        let mut m = scenario();
        let schema = NeuroSchema::default();
        let q = Section5Query {
            organism: "rat".into(),
            transmitting_compartment: "Parallel_Fiber".into(),
            ion: "calcium".into(),
        };
        let with = run_section5(&mut m, &schema, &q, true).unwrap();
        let mut m2 = scenario();
        let without = run_section5(&mut m2, &schema, &q, false).unwrap();
        assert_eq!(without.selected_sources.len(), 5);
        assert!(with.stats.source_queries < without.stats.source_queries);
        // Same answers either way: the noise sources hold no Purkinje
        // data, so pruning them is semantically transparent.
        assert_eq!(with.proteins, without.proteins);
        assert_eq!(with.distribution, without.distribution);
    }

    #[test]
    fn distribution_totals_roll_up() {
        let mut m = scenario();
        let schema = NeuroSchema::default();
        let q = Section5Query {
            organism: "rat".into(),
            transmitting_compartment: "Parallel_Fiber".into(),
            ion: "calcium".into(),
        };
        let trace = run_section5(&mut m, &schema, &q, true).unwrap();
        // For each protein, the root total is the max (everything below
        // rolls up into it).
        for p in &trace.proteins {
            let rows: Vec<_> = trace
                .distribution
                .iter()
                .filter(|d| &d.protein == p)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let root_total = rows
                .iter()
                .find(|d| Some(d.concept.as_str()) == trace.root.as_deref())
                .map(|d| d.total)
                .unwrap_or(0);
            assert!(rows.iter().all(|d| d.total <= root_total), "{p}: {rows:?}");
        }
    }
}
