//! Warm answers against cold evaluation on a model-sized fixture: the
//! served benchmark scenario at a tenth of its row counts (same sources,
//! same domain map, same program — 117 relevant rules under an FL class
//! query, one negation-cyclic stratum among them).
//!
//! A warm answer reads the snapshot's model in place. These tests hold it
//! to the cold evaluation of the same rule (rows), to its own rule's work
//! (every stratum of the base program skipped, `derived` = the rule's
//! derivations), and to one set of counters whatever ran before it
//! (`concurrency.rs` races eight callers on one fresh model for the same
//! counters).

use kind_core::{Mediator, QuerySnapshot};
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
                .map(|r| r.iter().map(|t| m.show(t)).collect())
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
