//! Warm answers against cold evaluation on a model-sized fixture: the
//! served benchmark scenario at a tenth of its row counts (same sources,
//! same domain map, same program — 117 rules in the cone of an FL class
//! query, one negation-cyclic stratum among them).
//!
//! A warm answer reads the snapshot's model in place. These tests hold it
//! to the cold evaluation of the same rule (rows), to its own rule's work
//! (every stratum of the base program skipped, `derived` = the rule's
//! derivations), and to one set of counters whatever ran before it
//! (`concurrency.rs` races eight callers on one fresh model for the same
//! counters). One test builds the scenario at full size and pins every
//! counter the served answers and a cold run report.

use kind_core::{run_section5, Mediator, NeuroSchema, QuerySnapshot, Section5Query};
use kind_datalog::{Atom, EvalOptions, Model, Term, Var};
use kind_sources::{build_scenario, ScenarioParams};

/// The six `served_answer` rule shapes of the repo benchmark, a `not` over
/// `inst`, an aggregate, and a body reading a view that derived nothing.
const RULES: &[&str] = &[
    r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P], X[location -> L], X[ion_bound -> "calcium"]."#,
    r#"at(X, A) :- X : protein_amount, X[location -> "Purkinje_Spine"], X[amount -> A]."#,
    "hot(P) :- X : protein_amount, X[protein_name -> P], X[amount -> A], A > 90.",
    r#"rat_nt(X) :- X : neurotransmission, X[organism -> "rat"]."#,
    r#"one("NCMIR.pa17", A) :- "NCMIR.pa17"[amount -> A]."#,
    r#"quiet(X) :- X : protein_amount, X[ion_bound -> "calcium"], not X[location -> "Purkinje_Cell"]."#,
    "lonely(X) :- X : protein_amount, not X : neurotransmission.",
    "per_site(L, N) :- N = count{ X [L] ; X : protein_amount, X[location -> L] }.",
    "untagged(X) :- X : protein_amount, not tagged(X).",
];

fn mediator() -> Mediator {
    let mut m = build_scenario(&ScenarioParams {
        seed: 1,
        senselab_rows: 40,
        ncmir_rows: 60,
        synapse_rows: 40,
        noise_sources: 4,
        noise_rows: 30,
        ..Default::default()
    });
    // A head the base program defines and that derives nothing.
    m.define_view("tagged(X) :- X : no_such_class.").unwrap();
    m.materialize_all().unwrap();
    m
}

fn snapshot() -> QuerySnapshot {
    mediator().snapshot().unwrap()
}

#[test]
fn warm_rows_equal_cold_rows() {
    let snap = snapshot();
    let cold = EvalOptions {
        base_cache: false,
        ..snap.eval_options().clone()
    };
    for rule in RULES {
        let warm = snap.answer_with(rule, snap.eval_options()).unwrap();
        assert_eq!(
            warm.rows,
            snap.answer_with(rule, &cold).unwrap().rows,
            "{rule}"
        );
        // Every shape but the empty-view one has something to say.
        assert!(!warm.rows.is_empty(), "{rule}");
    }
}

/// One answer path: the mediator (which fetches the rule's classes again
/// and evaluates on a scratch clone of its base) and a snapshot of it
/// (which fetches nothing) return the same rows, rewrite on and off.
#[test]
fn mediator_answers_equal_snapshot_answers() {
    let mut m = mediator();
    let snap = m.snapshot().unwrap();
    for magic_sets in [true, false] {
        let opts = EvalOptions {
            magic_sets,
            ..m.eval_options().clone()
        };
        m.set_eval_options(opts.clone());
        for rule in RULES {
            let ans = m.answer(rule).unwrap();
            let mut rows: Vec<Vec<String>> = ans
                .rows
                .iter()
                .map(|r| r.iter().map(|t| ans.show(t)).collect())
                .collect();
            rows.sort();
            assert_eq!(
                rows,
                snap.answer_with(rule, &opts).unwrap().rows,
                "{rule} (magic {magic_sets})"
            );
        }
    }
}

/// The walker's own account of a warm answer: `rule` loaded into a clone of
/// the snapshot's base and evaluated towards its all-free head over the
/// snapshot's model, rewrite off so the profile lists the program's own
/// strata.
fn walked(snap: &QuerySnapshot, rule: &str) -> (Model, kind_datalog::Sym) {
    let mut work = snap.base().clone();
    let before = work.flogic().engine().rules().len();
    work.flogic_mut().engine_mut().begin_delta();
    work.flogic_mut().load(rule).unwrap();
    let delta = work.flogic_mut().engine_mut().take_delta().unwrap();
    let head = work.flogic().engine().rules()[before].head.clone();
    let goal = Atom::new(
        head.pred,
        (0..head.args.len() as u32)
            .map(|i| Term::Var(Var(i)))
            .collect(),
    );
    let opts = EvalOptions {
        magic_sets: false,
        ..snap.eval_options().clone()
    };
    let model = work
        .flogic_mut()
        .run_for_query(&goal, Some((snap.model(), &delta)), &opts)
        .unwrap();
    (model, head.pred)
}

#[test]
fn a_warm_answer_runs_its_own_stratum_and_skips_the_base_program() {
    let snap = snapshot();
    let strata = &snap.model().profile.strata;
    let cycle = strata
        .iter()
        .find(|s| s.well_founded)
        .expect("the fixture's program has a negation cycle");
    for rule in RULES {
        let (model, head) = walked(&snap, rule);
        let (own, base): (Vec<_>, Vec<_>) = model
            .profile
            .strata
            .iter()
            .partition(|s| s.preds.contains(&head));
        assert_eq!(own.len(), 1, "{rule}");
        assert!(!own[0].skipped, "{rule}");
        assert!(base.iter().all(|s| s.skipped && s.derived == 0), "{rule}");
        // The negation cycle (`inst` sits in it, so every rule with a
        // class atom reads it) is among the skipped, whole; a rule over
        // stored method values alone has no base stratum at all.
        assert!(
            base.is_empty()
                || base.iter().any(|s| s.preds.len() == cycle.preds.len()
                    && s.preds.iter().all(|p| cycle.preds.contains(p))),
            "{rule}"
        );
        assert_eq!(base.is_empty(), rule.starts_with("one("), "{rule}");
        assert!(!model.profile.well_founded, "{rule}: the cycle re-ran");
        // Seeded = base facts reused beyond the stored ones.
        assert_eq!(model.profile.seeded > 0, !base.is_empty(), "{rule}");
        assert_eq!(model.stats.derived, model.tuples(head).len(), "{rule}");
        assert_eq!(model.stats.index_builds, 0, "{rule}");
    }
}

#[test]
fn warm_stats_do_not_depend_on_history_or_threads() {
    let snap = snapshot();
    let facts_before = snap.model().facts.len();
    // A second snapshot of the same state whose model nobody has probed.
    let fresh = snapshot();
    for rule in RULES {
        let first = snap.answer_with(rule, snap.eval_options()).unwrap();
        let second = snap.answer_with(rule, snap.eval_options()).unwrap();
        let unprobed = fresh.answer_with(rule, fresh.eval_options()).unwrap();
        for other in [&second, &unprobed] {
            assert_eq!(first.stats, other.stats, "{rule}");
            assert_eq!(first.rows, other.rows, "{rule}");
            assert_eq!(first.magic_fired, other.magic_fired, "{rule}");
        }
    }
    // Nothing was written through the shared relations.
    assert_eq!(snap.model().facts.len(), facts_before);
    let engine = snap.base().flogic().engine();
    for rule in RULES {
        let head = &rule[..rule.find('(').unwrap()];
        assert!(engine.lookup(head).is_none(), "{head} leaked into the base");
    }
    for p in snap.model().facts.predicates() {
        assert!(!engine.name(p).contains('@'), "a rewrite predicate leaked");
    }
}

/// The scenario `served_answer` serves: the repo benchmark's
/// `served_params` at seed 1, about 2 900 objects.
fn served_snapshot() -> QuerySnapshot {
    let mut m = build_scenario(&ScenarioParams {
        seed: 1,
        senselab_rows: 400,
        ncmir_rows: 600,
        synapse_rows: 400,
        noise_sources: 4,
        noise_rows: 300,
        ..Default::default()
    });
    m.materialize_all().unwrap();
    m.snapshot().unwrap()
}

/// An `EvalStats` as `[iterations, derived, depth_clipped, applications,
/// index_builds, index_hits, index_misses]`.
fn counters(s: &kind_datalog::EvalStats) -> [usize; 7] {
    [
        s.iterations,
        s.derived,
        s.depth_clipped,
        s.applications,
        s.index_builds,
        s.index_hits,
        s.index_misses,
    ]
}

/// One served answer's record: see [`SERVED_RECORDED`].
type Served = ([usize; 7], &'static [usize], bool, [usize; 3]);

/// Per rule of the benchmark's `served_answer` cycle, then `lonely`: the
/// warm answer's counters and the join order of its own stratum's rule
/// (with whether the planner moved it), as recorded before evaluation
/// probed through prepared handles. The six answers sum to the traced
/// `served_answer` figures: 7 iterations, 1 896 derived, 3 529
/// applications, 0 builds, 12 271 hits, 1 miss. Last, the walk's profile
/// shape — strata reused, rebuilt and listed — recorded when the rule
/// became one entry stratum above the base program's memoized strata:
/// the walk lists the rule's dependency cone and rebuilds the entry alone.
const SERVED_RECORDED: [Served; 7] = [
    ([1, 21, 0, 1600, 0, 4801, 0], &[3, 0, 1, 2], true, [3, 1, 4]),
    ([1, 197, 0, 197, 0, 395, 0], &[1, 0, 2], true, [3, 1, 4]),
    ([1, 6, 0, 60, 0, 3601, 0], &[0, 1, 2, 3], false, [3, 1, 4]),
    ([1, 198, 0, 198, 0, 1999, 0], &[1, 0], true, [3, 1, 4]),
    ([2, 2, 0, 2, 0, 2, 1], &[0], false, [0, 1, 1]),
    ([1, 1472, 0, 1472, 0, 1473, 0], &[2, 1, 0], true, [3, 1, 4]),
    ([1, 1800, 0, 1800, 0, 1, 0], &[0, 1], false, [3, 1, 4]),
];

/// A cold run of the served program, recorded likewise. It read
/// `[15, 1145, 0, 7239, 18, 821, 24]` until the alternating fixpoint
/// certified its first reduct: the negation-cyclic stratum now computes
/// one `Γ` pass where it computed two (the second only re-derived the
/// first), so its rounds, applications and index probes and builds are
/// one pass's, and `derived` counts its facts once instead of once per
/// pass.
const COLD_RECORDED: [usize; 7] = [13, 676, 0, 3770, 14, 535, 20];

/// The cold run's strata in evaluation order, as `(rules, well-founded,
/// Γ passes)`: one negation-cyclic stratum, certified after one pass.
const COLD_STRATA: &[(usize, bool, usize)] = &[
    (2, false, 0),
    (1, false, 0),
    (113, true, 1),
    (1, false, 0),
    (1, false, 0),
    (10, false, 0),
    (2, false, 0),
    (4, false, 0),
    (1, false, 0),
];

/// Every work counter of the served answers and of a cold run, pinned: a
/// change to the evaluator that moves one — a probe counted twice, an
/// index built at planning rather than at its first probe — fails here.
#[test]
fn served_answer_counters_are_the_recorded_ones() {
    let snap = served_snapshot();
    for (rule, (stats, order, reordered, shape)) in RULES.iter().zip(SERVED_RECORDED) {
        let answer = snap.answer_with(rule, snap.eval_options()).unwrap();
        assert_eq!(counters(&answer.stats), stats, "{rule}");
        let (model, head) = walked(&snap, rule);
        let p = &model.profile;
        let listed = [
            p.delta_reused_strata,
            p.delta_rebuilt_strata,
            p.strata.len(),
        ];
        assert_eq!(listed, shape, "{rule}");
        assert_eq!(
            p.delta_rebuilt_strata, 1,
            "{rule}: more than the entry stratum ran"
        );
        let own = model
            .profile
            .strata
            .iter()
            .find(|s| s.preds.contains(&head))
            .unwrap();
        let [plan] = own.plans.as_slice() else {
            panic!("{rule}: one rule in its stratum, got {:?}", own.plans)
        };
        assert_eq!(
            (plan.join_order.as_slice(), plan.reordered),
            (order, reordered),
            "{rule}"
        );
    }
    let cold = snap.base().flogic().engine().run(snap.eval_options());
    assert_eq!(counters(&cold.unwrap().stats), COLD_RECORDED);
}

/// The cold run's per-stratum shape, pinned: which strata ran the
/// alternating fixpoint and how many reducts each computed. A certificate
/// that stops firing on the served data shows here as a second `Γ` pass.
#[test]
fn cold_run_strata_are_the_recorded_ones() {
    let snap = served_snapshot();
    let cold = snap.base().flogic().engine().run(snap.eval_options());
    let shape: Vec<(usize, bool, usize)> = cold
        .unwrap()
        .profile
        .strata
        .iter()
        .map(|s| (s.plans.len(), s.well_founded, s.gamma_passes))
        .collect();
    assert_eq!(shape, COLD_STRATA);
}

/// The cold op of the repo benchmark's `cold_federation` — invalidate,
/// materialize every source, run the program cold, then the §5 plan — on
/// its scenario at seed 1: the served data behind 16 sources. Every work
/// counter one op reports is pinned; a change to the fetch executor
/// (which schedules, and must not count) moves none of them. The run's
/// counters are the served program's cold run's ([`COLD_RECORDED`]) but
/// for `applications`, which the twelve noise sources' rows raise; its
/// strata are [`COLD_STRATA`].
const COLD_OP_RECORDED: [usize; 7] = [13, 676, 0, 6170, 14, 535, 20];

#[test]
fn cold_op_counters_are_the_recorded_ones() {
    let mut m = build_scenario(&ScenarioParams {
        seed: 1,
        senselab_rows: 400,
        ncmir_rows: 600,
        synapse_rows: 400,
        noise_sources: 12,
        noise_rows: 300,
        ..Default::default()
    });
    let query = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    // Twice: the second op, on a mediator that has run one, counts the
    // same.
    for op in 0..2 {
        let before = m.stats();
        m.invalidate();
        m.materialize_all().unwrap();
        let cold = m.run().unwrap();
        let shape: Vec<(usize, bool, usize)> = cold
            .profile
            .strata
            .iter()
            .map(|s| (s.plans.len(), s.well_founded, s.gamma_passes))
            .collect();
        let stats = counters(&cold.stats);
        let trace = run_section5(&mut m, &NeuroSchema::default(), &query, true).unwrap();
        let after = m.stats();
        assert_eq!(stats, COLD_OP_RECORDED, "op {op}");
        assert_eq!(shape, COLD_STRATA, "op {op}");
        assert_eq!(
            (trace.candidate_sources, trace.selected_sources.len()),
            (13, 1),
            "op {op}: candidate and selected sources"
        );
        assert_eq!(
            (
                after.source_queries - before.source_queries,
                after.rows_shipped - before.rows_shipped
            ),
            (18, 5_365),
            "op {op}: source queries and rows shipped"
        );
    }
}
