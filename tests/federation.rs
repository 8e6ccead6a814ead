//! Integration tests spanning the whole stack: wrappers → plug-ins → GCM
//! → domain map → mediator → query plan.

use kind::core::{
    protein_distribution, run_section5, Anchor, Capability, Mediator, MemoryWrapper, NeuroSchema,
    Section5Query,
};
use kind::dm::ExecMode;
use kind::gcm::GcmValue;
use kind::sources::{build_scenario, scenario_domain_map, ScenarioParams};
use std::sync::Arc;

fn default_query() -> Section5Query {
    Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    }
}

#[test]
fn scenario_registers_through_three_different_formalisms() {
    let m = build_scenario(&ScenarioParams::default());
    let formalisms: Vec<&str> = m
        .federation()
        .sources()
        .iter()
        .map(|s| s.wrapper.formalism())
        .collect();
    assert!(formalisms.contains(&"er"));
    assert!(formalisms.contains(&"uxf"));
    assert!(formalisms.contains(&"rdfs"));
    assert!(formalisms.contains(&"gcm"));
}

#[test]
fn section5_answers_are_stable_across_seeds_structurally() {
    for seed in [1, 7, 2001] {
        let mut m = build_scenario(&ScenarioParams {
            seed,
            ..Default::default()
        });
        let trace = run_section5(&mut m, &NeuroSchema::default(), &default_query(), true).unwrap();
        assert_eq!(
            trace.selected_sources,
            vec!["NCMIR".to_string()],
            "seed {seed}"
        );
        assert_eq!(trace.root.as_deref(), Some("Purkinje_Cell"), "seed {seed}");
        assert!(!trace.distribution.is_empty(), "seed {seed}");
    }
}

#[test]
fn semantic_index_prunes_proportionally_to_noise() {
    // With k irrelevant sources, the blind plan contacts k more sources;
    // the indexed plan stays constant.
    let mut indexed_queries = Vec::new();
    let mut blind_queries = Vec::new();
    for noise in [0usize, 4, 8] {
        let params = ScenarioParams {
            noise_sources: noise,
            ..Default::default()
        };
        let mut m = build_scenario(&params);
        let t = run_section5(&mut m, &NeuroSchema::default(), &default_query(), true).unwrap();
        indexed_queries.push(t.stats.source_queries);
        let mut m2 = build_scenario(&params);
        let t2 = run_section5(&mut m2, &NeuroSchema::default(), &default_query(), false).unwrap();
        blind_queries.push(t2.stats.source_queries);
    }
    assert_eq!(indexed_queries[0], indexed_queries[2], "indexed plan flat");
    assert!(
        blind_queries[2] > blind_queries[0],
        "blind plan grows with noise: {blind_queries:?}"
    );
}

#[test]
fn example4_distribution_from_cerebellum_root() {
    // The paper's demo call: P = "cerebellum", Y = "Ryanodine_Receptor".
    let mut m = build_scenario(&ScenarioParams::default());
    let dist = protein_distribution(
        &mut m,
        &NeuroSchema::default(),
        "Ryanodine_Receptor",
        "Cerebellum",
    )
    .unwrap();
    assert!(!dist.is_empty());
    // The cerebellum total dominates everything below it.
    let root_total = dist
        .iter()
        .find(|(c, _)| c == "Cerebellum")
        .map(|(_, t)| *t)
        .expect("root present");
    assert!(dist.iter().all(|(_, t)| *t <= root_total));
    // Purkinje spine amounts (if any) roll up into the dendrite and cell.
    let get = |c: &str| {
        dist.iter()
            .find(|(n, _)| n == c)
            .map(|(_, t)| *t)
            .unwrap_or(0)
    };
    assert!(get("Purkinje_Dendrite") >= get("Purkinje_Spine"));
    assert!(get("Purkinje_Cell") >= get("Purkinje_Dendrite"));
}

#[test]
fn loose_federation_correlates_worlds_through_anchors() {
    // Example 1: the two labs' data never joins directly; the domain map
    // correlates them. SYNAPSE anchors at Pyramidal structures, NCMIR at
    // Purkinje structures — both under Spiny_Neuron-related cones.
    let m = build_scenario(&ScenarioParams::default());
    let spine_sources = m.sources_below("Spine").unwrap();
    assert!(spine_sources.contains(&"SYNAPSE".to_string()));
    assert!(spine_sources.contains(&"NCMIR".to_string()));
    // Dendrite cone: both labs again (each studies its own dendrites).
    let dendrite_sources = m.sources_below("Dendrite").unwrap();
    assert!(dendrite_sources.contains(&"SYNAPSE".to_string()));
    assert!(dendrite_sources.contains(&"NCMIR".to_string()));
}

#[test]
fn views_over_materialized_federation() {
    let mut m = build_scenario(&ScenarioParams {
        senselab_rows: 8,
        ncmir_rows: 12,
        synapse_rows: 8,
        noise_sources: 0,
        ..Default::default()
    });
    // An IVD joining two worlds at the conceptual level: the anatomical
    // concepts from which both labs' measurement locations are reachable
    // (recursive traversal of the inferable direct links plus isa
    // refinement, as in the paper's "region of correspondence").
    m.define_view(
        "reach(X, Y) :- has_a_star(X, Y).
         reach(X, Y) :- reach(X, Z), has_a_star(Z, Y).
         reach(X, Y) :- reach(X, Z), dm_isa(Y, Z).
         co_studied(L) :- X : protein_amount, X[location -> L1],
                          Y : spine_morphometry, Y[location -> L2],
                          reach(L, L1), reach(L, L2).",
    )
    .unwrap();
    m.materialize_all().unwrap();
    let rows = m.query_fl("co_studied(L)").unwrap();
    // Both labs' structures hang off shared anatomy, so some common
    // ancestor concept must co-study them.
    assert!(!rows.is_empty());
}

#[test]
fn constraint_mode_mediator_reports_incompleteness() {
    // Run the scenario map in Constraint mode with a single bare neuron:
    // the DM demands compartments, so witnesses appear.
    let mut m = Mediator::new(scenario_domain_map(), ExecMode::Constraint);
    let mut w = MemoryWrapper::new("TINY");
    w.caps.push(Capability {
        class: "cells".into(),
        pushable: vec![],
    });
    w.anchor_decls.push(Anchor::Fixed {
        class: "cells".into(),
        concept: "Neuron".into(),
    });
    w.add_row("cells", "c1", vec![("size", GcmValue::Int(3))]);
    m.register(Arc::new(w)).unwrap();
    m.define_view(r#"X : "Neuron" :- X : cells."#).unwrap();
    m.materialize_all().unwrap();
    let ws = m.witnesses().unwrap();
    assert!(
        ws.iter()
            .any(|x| x.contains("Neuron") && x.contains("TINY.c1")),
        "{ws:?}"
    );
}

#[test]
fn assertion_mode_mediator_invents_placeholders() {
    let mut m = Mediator::new(scenario_domain_map(), ExecMode::Assertion);
    let mut w = MemoryWrapper::new("TINY");
    w.caps.push(Capability {
        class: "cells".into(),
        pushable: vec![],
    });
    w.anchor_decls.push(Anchor::Fixed {
        class: "cells".into(),
        concept: "Neuron".into(),
    });
    w.add_row("cells", "c1", vec![]);
    m.register(Arc::new(w)).unwrap();
    m.define_view(r#"X : "Neuron" :- X : cells."#).unwrap();
    m.materialize_all().unwrap();
    assert!(m.witnesses().unwrap().is_empty());
    // The neuron got a virtual compartment.
    let rows = m.query_fl(r#"relinst_sk("has", X, Y)"#).unwrap();
    assert!(!rows.is_empty());
}

// ---------------------------------------------------------------------
// Fault tolerance: outages, retries, breakers, quarantine, timeouts.
// ---------------------------------------------------------------------

use kind::core::{
    run_section5 as s5, BreakerConfig, BreakerState, Fault, MediatorError, RetryPolicy,
    SourceError, SourceOutcome, SourcePolicy, SourceQuery,
};
use kind::sources::build_scenario_with_faults;

#[test]
fn transient_outage_recovers_via_retries() {
    // Baseline: the fault-free answer.
    let mut clean = build_scenario(&ScenarioParams::default());
    let baseline = s5(&mut clean, &NeuroSchema::default(), &default_query(), true).unwrap();
    // SENSELAB fails its first two calls; the default policy retries up
    // to 3 attempts, so the plan still gets its step-1 bindings.
    let (mut m, injector) =
        build_scenario_with_faults(&ScenarioParams::default(), vec![Fault::FailFirst(2)]);
    let trace = s5(&mut m, &NeuroSchema::default(), &default_query(), true).unwrap();
    assert_eq!(trace.step1_pairs, baseline.step1_pairs);
    assert_eq!(trace.distribution, baseline.distribution);
    assert!(trace.report.is_complete(), "{}", trace.report.summary());
    assert_eq!(
        trace.report.source("SENSELAB").unwrap().outcome,
        SourceOutcome::Retried { retries: 2 }
    );
    assert_eq!(injector.calls(), 3, "two failures plus the success");
    assert_eq!(trace.stats.retries, 2);
}

/// Every primary attempt after the first is a retry, whichever step ends
/// the fetch. Here the breaker opens between two attempts of a source
/// that fails every call: the second attempt was a retry, and the third
/// never leaves the gate.
#[test]
fn retries_are_counted_when_the_breaker_ends_the_fetch() {
    let (mut m, _injector) =
        build_scenario_with_faults(&ScenarioParams::default(), vec![Fault::EveryKth(1)]);
    m.federation_mut().set_source_policy(
        "SENSELAB",
        SourcePolicy {
            retry: RetryPolicy::attempts(3),
            timeout_ms: 0,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 1_000,
            },
            ..SourcePolicy::default()
        },
    );
    let before = m.stats();
    let set = m
        .federation()
        .fetch_parallel(&[FetchRequest::scan("SENSELAB", "neurotransmission")])
        .unwrap();
    let source = set.report.source("SENSELAB").unwrap();
    assert_eq!(source.attempts, 2);
    assert!(
        matches!(source.outcome, SourceOutcome::Failed { .. }),
        "{:?}",
        source.outcome
    );
    assert_eq!((set.stats.source_queries, set.stats.retries), (2, 1));
    assert_eq!(set.stats.failures, 1);
    let after = m.stats();
    assert_eq!(after.retries - before.retries, 1);
}

/// The same count when the query budget ends the fetch: two failed
/// attempts and their backoffs spend the budget, and the deadline gate
/// abandons the third before it is sent.
#[test]
fn retries_are_counted_when_the_deadline_ends_the_fetch() {
    let (mut m, _injector) =
        build_scenario_with_faults(&ScenarioParams::default(), vec![Fault::EveryKth(1)]);
    m.federation_mut().set_source_policy(
        "SENSELAB",
        SourcePolicy {
            retry: RetryPolicy::attempts(3),
            timeout_ms: 0,
            breaker: BreakerConfig {
                failure_threshold: 10,
                cooldown_ms: 1_000,
            },
            ..SourcePolicy::default()
        },
    );
    // Backoffs of 100 and 200 virtual ms: the budget is spent after the
    // second attempt.
    m.federation_mut().set_query_budget_ms(250);
    let before = m.stats();
    let set = m
        .federation()
        .fetch_parallel(&[FetchRequest::scan("SENSELAB", "neurotransmission")])
        .unwrap();
    let source = set.report.source("SENSELAB").unwrap();
    assert_eq!(source.attempts, 2);
    assert!(
        matches!(source.outcome, SourceOutcome::DeadlineExceeded { .. }),
        "{:?}",
        source.outcome
    );
    assert_eq!((set.stats.source_queries, set.stats.retries), (2, 1));
    assert_eq!(set.stats.failures, 1);
    let after = m.stats();
    assert_eq!(after.retries - before.retries, 1);
}

#[test]
fn senselab_outage_degrades_then_recovers() {
    let mut clean = build_scenario(&ScenarioParams::default());
    let baseline = s5(&mut clean, &NeuroSchema::default(), &default_query(), true).unwrap();
    // Three failures exhaust the default 3-attempt budget: a full outage.
    let (mut m, _injector) =
        build_scenario_with_faults(&ScenarioParams::default(), vec![Fault::FailFirst(3)]);
    let t1 = s5(&mut m, &NeuroSchema::default(), &default_query(), true).unwrap();
    // Partial answer: no step-1 bindings, so nothing downstream — but the
    // plan *returns* and says exactly what is missing.
    assert!(t1.step1_pairs.is_empty());
    assert!(t1.distribution.is_empty());
    assert!(!t1.report.is_complete(), "{}", t1.report.summary());
    assert!(matches!(
        t1.report.source("SENSELAB").unwrap().outcome,
        SourceOutcome::Failed {
            error: SourceError::Unavailable { .. }
        }
    ));
    assert_eq!(t1.stats.failures, 1);
    // The outage ends (the schedule is exhausted): the same mediator
    // recovers to the complete answer.
    let t2 = s5(&mut m, &NeuroSchema::default(), &default_query(), true).unwrap();
    assert!(t2.report.is_complete(), "{}", t2.report.summary());
    assert_eq!(t2.step1_pairs, baseline.step1_pairs);
    assert_eq!(t2.distribution, baseline.distribution);
}

#[test]
fn tripped_breaker_skips_source_without_querying() {
    // SENSELAB always fails; a tight policy trips the breaker fast.
    let (mut m, injector) =
        build_scenario_with_faults(&ScenarioParams::default(), vec![Fault::EveryKth(1)]);
    m.federation_mut().set_source_policy(
        "SENSELAB",
        SourcePolicy {
            retry: RetryPolicy::none(),
            timeout_ms: 0,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 1_000,
            },
            ..SourcePolicy::default()
        },
    );
    let q = SourceQuery::scan("neurotransmission");
    assert!(m.federation_mut().fetch("SENSELAB", &q).is_err());
    assert!(m.federation_mut().fetch("SENSELAB", &q).is_err()); // second failure trips it
    assert!(matches!(
        m.federation().breaker_state("SENSELAB"),
        Some(BreakerState::Open { .. })
    ));
    // While open, fetches are refused WITHOUT contacting the wrapper.
    let calls_before = injector.calls();
    assert!(m.federation_mut().fetch("SENSELAB", &q).is_err());
    assert_eq!(
        injector.calls(),
        calls_before,
        "breaker open: no wrapper call"
    );
    // A whole plan run degrades the same way: SENSELAB is reported
    // skipped-by-breaker and the answer flagged incomplete.
    let t = s5(&mut m, &NeuroSchema::default(), &default_query(), true).unwrap();
    assert!(!t.report.is_complete(), "{}", t.report.summary());
    assert_eq!(
        t.report.source("SENSELAB").unwrap().outcome,
        SourceOutcome::SkippedByBreaker
    );
    assert_eq!(injector.calls(), calls_before, "still no wrapper call");
    // After the cooldown (virtual time!) a half-open trial goes through —
    // it fails, so the breaker re-opens.
    m.federation().clock().advance_ms(1_000);
    assert!(m.federation_mut().fetch("SENSELAB", &q).is_err());
    assert_eq!(
        injector.calls(),
        calls_before + 1,
        "half-open trial contacted it"
    );
    assert!(matches!(
        m.federation().breaker_state("SENSELAB"),
        Some(BreakerState::Open { .. })
    ));
}

#[test]
fn corrupted_rows_are_quarantined_with_diagnostics() {
    // Chaos mode: a seeded 30% of SENSELAB's rows arrive mangled against
    // its declared CM. Materialization quarantines them and says why.
    let (mut m, _injector) = build_scenario_with_faults(
        &ScenarioParams::default(),
        vec![Fault::CorruptRows {
            seed: 9,
            corrupt_per_mille: 300,
        }],
    );
    m.materialize_all().unwrap();
    let report = m.report().clone();
    assert!(!report.quarantined.is_empty(), "some corruption is caught");
    assert!(!report.is_complete());
    assert!(report.quarantined.iter().all(|q| q.source == "SENSELAB"));
    assert!(report
        .quarantined
        .iter()
        .all(|q| q.class == "neurotransmission" && !q.reason.is_empty()));
    // Accounting holds: every shipped row was either accepted or
    // quarantined.
    let sl = report.source("SENSELAB").unwrap();
    assert_eq!(
        sl.rows + sl.quarantined,
        ScenarioParams::default().senselab_rows
    );
    // The healthy sources are untouched.
    assert_eq!(report.source("NCMIR").unwrap().outcome, SourceOutcome::Ok);
    assert_eq!(report.source("NCMIR").unwrap().quarantined, 0);
}

#[test]
fn slow_source_times_out_on_the_virtual_clock() {
    let (mut m, _injector) = build_scenario_with_faults(
        &ScenarioParams::default(),
        vec![Fault::Slow { delay_ms: 500 }],
    );
    m.federation_mut().set_source_policy(
        "SENSELAB",
        SourcePolicy {
            retry: RetryPolicy::none(),
            timeout_ms: 200,
            breaker: BreakerConfig::default(),
            ..SourcePolicy::default()
        },
    );
    let err = m
        .federation_mut()
        .fetch("SENSELAB", &SourceQuery::scan("neurotransmission"))
        .unwrap_err();
    match err {
        MediatorError::Source {
            name,
            error:
                SourceError::Timeout {
                    elapsed_ms,
                    budget_ms,
                },
        } => {
            assert_eq!(name, "SENSELAB");
            assert_eq!(elapsed_ms, 500);
            assert_eq!(budget_ms, 200);
        }
        other => panic!("expected a timeout, got {other}"),
    }
}

#[test]
fn on_demand_answer_carries_degradation_report() {
    // The generalized `answer` path degrades like the hand-built plan:
    // a dead SENSELAB drops out of the answer but not out of the report.
    let (mut m, _injector) = build_scenario_with_faults(
        &ScenarioParams {
            noise_sources: 0,
            ..Default::default()
        },
        vec![Fault::FailFirst(u32::MAX)],
    );
    let ans = m
        .answer("rat_nt(X) :- X : neurotransmission, X[organism -> \"rat\"].")
        .unwrap();
    assert!(ans.rows.is_empty());
    assert!(!ans.report.is_complete(), "{}", ans.report.summary());
    assert_eq!(ans.report.degraded_sources(), vec!["SENSELAB"]);
    // With the protein class the healthy NCMIR still answers fully.
    let ans2 = m
        .answer("calcium(X) :- X : protein_amount, X[ion_bound -> \"calcium\"].")
        .unwrap();
    assert!(!ans2.rows.is_empty());
    assert!(matches!(
        ans2.report.source("NCMIR").unwrap().outcome,
        SourceOutcome::Ok
    ));
}

// ---------------------------------------------------------------------
// The fetch executor: who drives the jobs.
// ---------------------------------------------------------------------

use kind::core::{FetchRequest, Rows, Wrapper};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A two-party meeting point with a timeout, so a fetch that runs the two
/// sides one after the other fails instead of hanging. Unarmed (while the
/// sources register, which queries them one by one) nobody waits.
#[derive(Default)]
struct Rendezvous {
    armed: AtomicBool,
    arrived: Mutex<usize>,
    met: Condvar,
}

impl Rendezvous {
    /// Waits until both parties have arrived; `false` if the other never
    /// came within ten seconds.
    fn meet(&self) -> bool {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.met.notify_all();
        let (_arrived, timeout) = self
            .met
            .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < 2)
            .unwrap();
        !timeout.timed_out()
    }
}

/// A source whose every query meets its sibling at the rendezvous and
/// records the thread it ran on and whether the sibling came.
struct Meeting {
    inner: Arc<MemoryWrapper>,
    point: Arc<Rendezvous>,
    seen: Arc<Mutex<Vec<(ThreadId, bool)>>>,
}

impl Wrapper for Meeting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn formalism(&self) -> &str {
        self.inner.formalism()
    }
    fn export_cm(&self) -> kind::xml::Element {
        self.inner.export_cm()
    }
    fn capabilities(&self) -> Vec<Capability> {
        self.inner.capabilities()
    }
    fn anchors(&self) -> Vec<Anchor> {
        self.inner.anchors()
    }
    fn query(&self, q: &SourceQuery) -> Result<Rows, SourceError> {
        if !self.point.armed.load(Ordering::SeqCst) {
            return self.inner.query(q);
        }
        let met = self.point.meet();
        self.seen
            .lock()
            .unwrap()
            .push((std::thread::current().id(), met));
        self.inner.query(q)
    }
}

#[test]
fn the_calling_thread_is_one_of_the_fetch_workers() {
    let point = Arc::new(Rendezvous::default());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut m = Mediator::new(scenario_domain_map(), ExecMode::Assertion);
    for (name, class) in [("LEFT", "lc"), ("RIGHT", "rc")] {
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: class.into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.into(),
            concept: "Neuron".into(),
        });
        w.add_row(
            class,
            &format!("{name}-o0"),
            vec![("value", GcmValue::Int(0))],
        );
        m.register(Arc::new(Meeting {
            inner: Arc::new(w),
            point: Arc::clone(&point),
            seen: Arc::clone(&seen),
        }))
        .unwrap();
    }
    m.federation_mut().set_fetch_threads(2);
    m.federation().reset_peak_fetch_threads();
    point.armed.store(true, Ordering::SeqCst);
    let set = m
        .federation_mut()
        .fetch_parallel(&[
            FetchRequest::scan("LEFT", "lc"),
            FetchRequest::scan("RIGHT", "rc"),
        ])
        .unwrap();
    assert!(set.report.is_complete(), "{}", set.report.summary());
    let seen = seen.lock().unwrap().clone();
    // Both queries waited for each other, so they ran on two threads at
    // once: the caller and one spawned worker.
    assert_eq!(seen.len(), 2, "{seen:?}");
    assert!(
        seen.iter().all(|&(_, met)| met),
        "a query met nobody: {seen:?}"
    );
    let caller = std::thread::current().id();
    assert_eq!(
        seen.iter().filter(|&&(id, _)| id == caller).count(),
        1,
        "exactly one query runs on the calling thread: {seen:?}"
    );
    assert_eq!(m.federation().peak_fetch_threads(), 2);
}

/// The peak is the pool a fetch ran on, not how many of its workers
/// happened to overlap: 32 sources that answer at once are often all
/// drained by the calling thread before the spawned worker starts, and
/// each fetch must still read 2.
#[test]
fn peak_fetch_threads_is_the_pool_size_however_fast_the_jobs_drain() {
    let mut m = Mediator::new(scenario_domain_map(), ExecMode::Assertion);
    let mut requests = Vec::new();
    for s in 0..32 {
        let (name, class) = (format!("Z{s}"), format!("z{s}"));
        let mut w = MemoryWrapper::new(&name);
        w.caps.push(Capability {
            class: class.clone(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.clone(),
            concept: "Neuron".into(),
        });
        w.add_row(&class, "o0", vec![("value", GcmValue::Int(s))]);
        m.register(Arc::new(w)).unwrap();
        requests.push(FetchRequest::scan(&name, &class));
    }
    m.federation_mut().set_fetch_threads(2);
    for fetch in 0..50 {
        m.federation().reset_peak_fetch_threads();
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        assert!(set.report.is_complete(), "{}", set.report.summary());
        assert_eq!(m.federation().peak_fetch_threads(), 2, "fetch {fetch}");
    }
}
