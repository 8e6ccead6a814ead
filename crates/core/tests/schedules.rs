//! Every schedule the rule engine makes for the served program, recorded.
//!
//! One greedy scheduler answers, for each body item of a rule, which
//! variables are bound when it runs: at compile time (positives in source
//! order), at join planning (`Rule::reorder`, by bound arguments then
//! smaller relations) and in the magic rewrite (the sideways order that
//! fixes each adornment). A change to it moves join orders, `RulePlan`s
//! and adorned programs without changing a single answer, so the equality
//! suites do not notice. `schedules.txt` holds all of them for the
//! `served_answer` scenario at seed 1:
//!
//! - each rule of the served program, printed in compiled (plan) order,
//!   and its join order against the cold model's relation sizes;
//! - every stratum's `RulePlan`s from a cold run;
//! - the magic-rewritten warm answer of `one("NCMIR.pa17", A)`.
//!
//! The file also proves the printed rules are rule text: each one parses
//! back, compiles to the same schedule and prints the same.

use kind_core::QuerySnapshot;
use kind_datalog::parser::parse_program;
use kind_datalog::{
    Atom, BodyItem, Clause, DatalogError, Engine, EvalOptions, EvalProfile, Interner, Rule, Sym,
    Term,
};
use kind_flogic::FLogic;
use kind_sources::{build_scenario, ScenarioParams};
use std::collections::HashSet;

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

/// Appends one line per stratum of `profile`, then one per rule plan.
fn dump_strata(out: &mut String, engine: &Engine, profile: &EvalProfile) {
    for (i, s) in profile.strata.iter().enumerate() {
        let mut preds: Vec<&str> = s.preds.iter().map(|&p| engine.name(p)).collect();
        preds.sort_unstable();
        let kind = match (s.skipped, s.well_founded, s.recursive) {
            (true, ..) => "skipped",
            (_, true, _) => "well-founded",
            (_, _, true) => "recursive",
            _ => "once",
        };
        out.push_str(&format!("stratum {i} {kind} {{{}}}\n", preds.join(", ")));
        for plan in &s.plans {
            let moved = if plan.reordered { " *" } else { "" };
            out.push_str(&format!(
                "  {} {:?}{moved}\n",
                engine.name(plan.head),
                plan.join_order
            ));
        }
    }
}

/// The join order `Rule::reorder` gives each rule of `snap`'s program
/// against the cold model's relation sizes. It is read off the one public
/// route to it: every body is loaded again under a fresh nullary head
/// (`schedule_<i>`, feeding `schedule`) into a clone of the base, and a
/// warm walk towards `schedule` over the snapshot's model skips every
/// stratum of the program and plans each copy against the model's
/// relations — nothing the copies read is in their own strata.
fn reorders(snap: &QuerySnapshot) -> Vec<Vec<usize>> {
    let rules = snap.base().flogic().engine().rules().to_vec();
    let mut work = snap.base().clone();
    let engine = work.flogic_mut().engine_mut();
    engine.begin_delta();
    let top = engine.sym("schedule");
    for (i, rule) in rules.iter().enumerate() {
        let head = Atom::new(engine.sym(&format!("schedule_{i}")), Vec::new());
        let copy = Rule {
            head: head.clone(),
            ..rule.clone()
        };
        engine.add_rule(copy).unwrap();
        let feed = Rule::compile(
            Atom::new(top, Vec::new()),
            vec![BodyItem::Pos(head)],
            0,
            Vec::new(),
        );
        engine.add_rule(feed.unwrap()).unwrap();
    }
    let delta = engine.take_delta().unwrap();
    let opts = EvalOptions {
        magic_sets: false,
        ..snap.eval_options().clone()
    };
    let goal = Atom::new(top, Vec::new());
    let model = work
        .flogic_mut()
        .run_for_query(&goal, Some((snap.model(), &delta)), &opts)
        .unwrap();
    let engine = work.flogic().engine();
    let program: HashSet<Sym> = rules.iter().map(|r| r.head.pred).collect();
    let mut orders = vec![None; rules.len()];
    for s in &model.profile.strata {
        let ran = s.preds.iter().filter(|p| program.contains(p)).count();
        assert!(s.skipped || ran == 0, "a stratum of the program ran");
        for plan in &s.plans {
            if let Some(i) = engine.name(plan.head).strip_prefix("schedule_") {
                orders[i.parse::<usize>().unwrap()] = Some(plan.join_order.clone());
            }
        }
    }
    orders.into_iter().map(Option::unwrap).collect()
}

/// The whole record, as `schedules.txt` holds it.
fn dump(snap: &QuerySnapshot) -> String {
    let engine = snap.base().flogic().engine();
    let mut out = String::new();
    out.push_str("# compiled rules, each with its join order against the cold model\n");
    for (i, (rule, order)) in engine.rules().iter().zip(reorders(snap)).enumerate() {
        out.push_str(&format!("rule {i}: {}\n", rule.display(engine.symbols())));
        out.push_str(&format!("  reorder {order:?}\n"));
    }
    out.push_str("# a cold run\n");
    let cold = engine.run(snap.eval_options()).unwrap();
    dump_strata(&mut out, engine, &cold.profile);
    // The warm answer with the demand rewrite on, walked as
    // `QuerySnapshot::answer_with` walks it.
    let rule = r#"one("NCMIR.pa17", A) :- "NCMIR.pa17"[amount -> A]."#;
    let mut work = snap.base().clone();
    let before = work.flogic().engine().rules().len();
    work.flogic_mut().engine_mut().begin_delta();
    work.flogic_mut().load(rule).unwrap();
    let delta = work.flogic_mut().engine_mut().take_delta().unwrap();
    let goal = work.flogic().engine().rules()[before].head.clone();
    let model = work
        .flogic_mut()
        .run_for_query(&goal, Some((snap.model(), &delta)), snap.eval_options())
        .unwrap();
    let answer = snap.answer_with(rule, snap.eval_options()).unwrap();
    assert_eq!(answer.magic_fired, model.profile.magic_fired);
    out.push_str(&format!(
        "# {rule} magic_fired {} adorned_rules {}\n",
        model.profile.magic_fired, model.profile.adorned_rules
    ));
    dump_strata(&mut out, work.flogic().engine(), &model.profile);
    out
}

#[test]
fn every_schedule_is_the_recorded_one() {
    let got = dump(&served_snapshot());
    let want = include_str!("schedules.txt");
    for (n, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "schedules.txt line {}", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "schedules.txt length"
    );
}

/// `text`, one rule, parsed with a fresh symbol table and printed back.
fn reprint(text: &str) -> String {
    let mut syms = Interner::new();
    let clauses = parse_program(text, &mut syms).unwrap_or_else(|e| panic!("{text}: {e}"));
    let [Clause::Rule(rule)] = clauses.as_slice() else {
        panic!("{text}: not one rule")
    };
    rule.display(&syms).to_string()
}

/// A compiled rule prints in plan order; scheduling the printed body again
/// is the identity, so the text survives a parse.
#[test]
fn served_rules_print_parse_print() {
    let snap = served_snapshot();
    let engine = snap.base().flogic().engine();
    assert_eq!(engine.rules().len(), 135);
    for rule in engine.rules() {
        let text = rule.display(engine.symbols()).to_string();
        assert_eq!(reprint(&text), text);
    }
}

#[test]
fn rule_text_print_parse_print() {
    for src in [
        // Aggregates with grouping, one group bound outside, and a guard
        // on the result.
        "card(B, N) :- N = count{ A [B] : r(A, B) }, N != 1.",
        "tot(G, S) :- q(G), S = sum{ V [G] ; r(G, V), V > -2 }, S >= 0.",
        "lo(K, M) :- M = min{ V [K] : r(K, V) }, N = max{ V [K] : r(K, V) }, M < N.",
        "top(K, M) :- q(K), M = max{ C [K] : C = count{ V [K] : r(K, V) } }.",
        // Arithmetic with negative literals; guards written before the
        // atoms that bind them.
        "d(X, Y) :- Y = (X - -3) * -2, Y != -10, n(X).",
        "e(Z) :- Z = X / -1 + 4, n(X), not m(Z), X > -7.",
        // Nested function terms, anonymous variables.
        "f(X, g(h(X, \"a b\"), k, -1)) :- n(X), s(g(h(X, _), _)).",
        // Strings with escapes and non-ASCII.
        "s(X) :- t(X, \"quote \\\" back \\\\ nl \\n tab \\t\"), u(X, \"Zürich ✓ Ω\").",
        "hd(\"Über\", X) :- cls(X), not xy(X, \"ü-ß\"), X != \"Ω\".",
    ] {
        let once = reprint(src);
        assert_eq!(reprint(&once), once, "{src}");
    }
}

/// `Rule::compile` requires an aggregate's collected value and its
/// grouping variables to be bound, inside the aggregate or before it.
/// Both rule languages reach it.
#[test]
fn an_aggregate_that_binds_no_value_or_group_is_refused() {
    for (text, var) in [
        ("s(T) :- T = count{ W : r(V) }.", "W"),
        ("p(G, N) :- N = count{ V [G] : r(V) }.", "G"),
        ("p(G, N) :- N = sum{ f(V, W) [G] : r(G, V) }.", "W"),
    ] {
        let mut engine = Engine::new();
        engine.load("r(a). r(b).").unwrap();
        let refused = |got: Result<(), DatalogError>| match got {
            Err(DatalogError::UnsafeRule { var: v, .. }) => assert_eq!(v, var, "{text}"),
            other => panic!("{text}: {other:?}"),
        };
        refused(engine.load(text));
        refused(FLogic::new().load(text));
    }
    // A grouping variable bound before the aggregate stays legal.
    let mut engine = Engine::new();
    engine
        .load("r(a). r(b). q(c). p(G, N) :- q(G), N = count{ V [G] : r(V) }.")
        .unwrap();
    let model = engine.run(&EvalOptions::default()).unwrap();
    let rows = engine.query_model(&model, "p(G, N)").unwrap();
    assert_eq!(rows, vec![vec![engine.constant("c"), Term::Int(2)]]);
}
