//! Edge-case integration tests for the deductive engine.

use kind_datalog::parser::MAX_NESTING;
use kind_datalog::{DatalogError, Engine, EvalOptions, Term};

fn run(src: &str) -> (Engine, kind_datalog::Model) {
    let mut e = Engine::new();
    e.load(src).unwrap();
    let m = e.run(&EvalOptions::default()).unwrap();
    (e, m)
}

#[test]
fn empty_program_empty_model() {
    let (_, m) = run("");
    assert!(m.facts.is_empty());
    assert_eq!(m.stats.derived, 0);
}

#[test]
fn facts_only_no_iterations_needed() {
    let (e, m) = run("p(a). p(b). q(a, b).");
    assert_eq!(m.facts.len(), 3);
    assert_eq!(e.query_model(&m, "p(X)").unwrap().len(), 2);
}

#[test]
fn rule_with_unknown_body_predicate_derives_nothing() {
    let (e, m) = run("p(X) :- never_asserted(X).");
    assert!(e.query_model(&m, "p(X)").unwrap().is_empty());
}

#[test]
fn self_join_same_predicate_twice() {
    let (e, m) = run("e(a,b). e(b,c). e(a,c).
         triangle(X,Y,Z) :- e(X,Y), e(Y,Z), e(X,Z).");
    assert_eq!(e.query_model(&m, "triangle(X,Y,Z)").unwrap().len(), 1);
}

#[test]
fn negation_of_zero_ary_atom() {
    let (e, m) = run("item(a).
         selected(X) :- item(X), not disabled.");
    assert_eq!(e.query_model(&m, "selected(X)").unwrap().len(), 1);
    let (e2, m2) = {
        let mut e = Engine::new();
        e.load("item(a). disabled. selected(X) :- item(X), not disabled.")
            .unwrap();
        let m = e.run(&EvalOptions::default()).unwrap();
        (e, m)
    };
    assert!(e2.query_model(&m2, "selected(X)").unwrap().is_empty());
}

#[test]
fn double_negation_through_helper() {
    let (e, m) = run("node(a). node(b). edge(a, b).
         has_out(X) :- edge(X, _).
         sink(X) :- node(X), not has_out(X).
         nonsink(X) :- node(X), not sink(X).");
    assert_eq!(e.query_model(&m, "sink(X)").unwrap().len(), 1);
    assert_eq!(e.query_model(&m, "nonsink(X)").unwrap().len(), 1);
}

#[test]
fn mutual_positive_recursion() {
    let (e, m) = run("base(0).
         even(X) :- base(X).
         odd(Y) :- even(X), Y = X + 1, Y < 10.
         even(Y) :- odd(X), Y = X + 1, Y < 10.");
    assert_eq!(e.query_model(&m, "even(X)").unwrap().len(), 5);
    assert_eq!(e.query_model(&m, "odd(X)").unwrap().len(), 5);
}

#[test]
fn aggregates_over_derived_predicates() {
    let (mut e, m) = run("e(a,b). e(b,c). e(c,d).
         tc(X,Y) :- e(X,Y).
         tc(X,Y) :- tc(X,Z), e(Z,Y).
         reach_count(X, N) :- e(X, _), N = count{ Y [X] : tc(X, Y) }.");
    let a = e.constant("a");
    assert!(m.holds(e.lookup("reach_count").unwrap(), &[a, Term::Int(3)]));
}

#[test]
fn nested_aggregate_rejected_in_recursion() {
    let mut e = Engine::new();
    e.load(
        "seed(1).
         p(X) :- seed(X).
         p(N) :- N = count{ X : p(X) }, N < 5.",
    )
    .unwrap();
    assert!(matches!(
        e.run(&EvalOptions::default()),
        Err(DatalogError::AggregateInRecursion { .. })
    ));
}

#[test]
fn min_max_over_mixed_terms_use_term_order() {
    let (mut e, m) = run("v(g, 3). v(g, 7).
         lo(G, M) :- M = min{ X [G] : v(G, X) }.
         hi(G, M) :- M = max{ X [G] : v(G, X) }.");
    let g = e.constant("g");
    assert!(m.holds(e.lookup("lo").unwrap(), &[g.clone(), Term::Int(3)]));
    assert!(m.holds(e.lookup("hi").unwrap(), &[g, Term::Int(7)]));
}

#[test]
fn sum_with_negative_numbers() {
    let (mut e, m) = run("v(a, -5). v(a, 10).
         s(G, S) :- S = sum{ X [G] : v(G, X) }.");
    let a = e.constant("a");
    assert!(m.holds(e.lookup("s").unwrap(), &[a, Term::Int(5)]));
}

#[test]
fn division_by_zero_fails_the_binding_not_the_program() {
    let (e, m) = run("n(0). n(2).
         inv(X, Y) :- n(X), Y = 10 / X.");
    // Only the X=2 row binds.
    assert_eq!(e.query_model(&m, "inv(X, Y)").unwrap().len(), 1);
}

#[test]
fn comparisons_across_types_are_total() {
    // Constants and ints compare via the structural term order: no panic,
    // deterministic result.
    let (e, m) = run("x(a). x(1).
         cmp(X, Y) :- x(X), x(Y), X < Y.");
    let n = e.query_model(&m, "cmp(X, Y)").unwrap().len();
    assert_eq!(n, 1);
}

#[test]
fn wfs_three_rounds_of_alternation() {
    // A chain of dependencies through negation that needs several
    // alternating sweeps to settle.
    let (e, m) = run("n(1). n(2). n(3). n(4).
         succ(1,2). succ(2,3). succ(3,4).
         w(X) :- succ(X, Y), not w(Y).");
    // w(3) (since w(4) false), not w(2), w(1).
    assert_eq!(e.query_model(&m, "w(X)").unwrap().len(), 2);
    assert!(m.undefined.is_empty());
}

#[test]
fn wfs_undefined_does_not_leak_into_true() {
    let (mut e, m) = run("a(x).
         p(X) :- a(X), not q(X).
         q(X) :- a(X), not p(X).
         definite(X) :- a(X).");
    assert_eq!(e.query_model(&m, "definite(X)").unwrap().len(), 1);
    let p = e.lookup("p").unwrap();
    let x = e.constant("x");
    assert!(!m.holds(p, std::slice::from_ref(&x)));
    assert!(m.is_undefined(p, &[x]));
}

#[test]
fn function_terms_as_first_class_values() {
    let (e, m) = run("obj(o1).
         boxed(pair(X, X)) :- obj(X).
         unboxed(Y) :- boxed(pair(Y, _)).");
    assert_eq!(e.query_model(&m, "unboxed(o1)").unwrap().len(), 1);
}

#[test]
fn deep_function_nesting_within_limit() {
    let mut e = Engine::new();
    e.load("p(z). p(s(X)) :- p(X).").unwrap();
    let m = e
        .run(&EvalOptions {
            max_term_depth: 30,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(m.tuples(e.lookup("p").unwrap()).len(), 31);
}

#[test]
fn stats_report_applications_and_iterations() {
    let (_, m) = run("e(a,b). e(b,c).
         tc(X,Y) :- e(X,Y).
         tc(X,Y) :- tc(X,Z), e(Z,Y).");
    assert!(m.stats.iterations >= 2);
    assert!(m.stats.applications >= 3);
    assert_eq!(m.stats.derived, 3);
}

#[test]
fn query_with_repeated_variables() {
    let (e, m) = run("e(a,a). e(a,b).");
    // e(X,X) must only match the reflexive tuple.
    assert_eq!(e.query_model(&m, "e(X, X)").unwrap().len(), 1);
}

#[test]
fn strings_with_spaces_and_escapes() {
    let (e, m) = run(r#"loc(c1, "Pyramidal Cell\ndendrite")."#);
    let sols = e
        .query_model(&m, r#"loc(X, "Pyramidal Cell\ndendrite")"#)
        .unwrap();
    assert_eq!(sols.len(), 1);
}

#[test]
fn rule_order_does_not_change_model() {
    let (e1, m1) = run("tc(X,Y) :- tc(X,Z), e(Z,Y).
         tc(X,Y) :- e(X,Y).
         e(a,b). e(b,c).");
    let (e2, m2) = run("e(a,b). e(b,c).
         tc(X,Y) :- e(X,Y).
         tc(X,Y) :- tc(X,Z), e(Z,Y).");
    assert_eq!(
        e1.query_model(&m1, "tc(X,Y)").unwrap().len(),
        e2.query_model(&m2, "tc(X,Y)").unwrap().len()
    );
}

#[test]
fn index_off_computes_the_same_model() {
    let src = "e(a,b). e(b,c). e(c,a). e(c,d).
               tc(X,Y) :- e(X,Y).
               tc(X,Y) :- tc(X,Z), e(Z,Y).";
    let mut e1 = Engine::new();
    e1.load(src).unwrap();
    let m1 = e1.run(&EvalOptions::default()).unwrap();
    let mut e2 = Engine::new();
    e2.load(src).unwrap();
    let m2 = e2
        .run(&EvalOptions {
            use_index: false,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(
        e1.query_model(&m1, "tc(X,Y)").unwrap().len(),
        e2.query_model(&m2, "tc(X,Y)").unwrap().len()
    );
}

// ---------- Hostile program text: the parser bounds its own recursion ---

/// `f(f(…a…))`, `depth` levels.
fn nested_term(depth: usize) -> String {
    format!("{}a{}", "f(".repeat(depth), ")".repeat(depth))
}

/// `((…1…))`, `depth` levels.
fn nested_parens(depth: usize) -> String {
    format!("{}1{}", "(".repeat(depth), ")".repeat(depth))
}

/// The load fails with a parse error that names `what`, and says where.
fn refused(src: &str, what: &str) -> usize {
    match Engine::new().load(src) {
        Err(DatalogError::Parse {
            offset, message, ..
        }) => {
            assert!(message.contains(what), "{message}");
            offset
        }
        other => panic!("expected a parse error about {what}, got {other:?}"),
    }
}

/// Before the cap each of these ended the process with `fatal runtime
/// error: stack overflow` (SIGABRT, which no `catch_unwind` contains).
#[test]
fn nesting_bombs_are_parse_errors_not_stack_overflows() {
    let at = refused(&format!("p({}).", nested_term(200_000)), "nesting");
    // Just past the `(` of level 65, behind `p(`.
    assert_eq!(at, 2 + 2 * (MAX_NESTING + 1));
    refused(
        &format!("p(Y) :- q(X), Y = X + {}.", nested_parens(200_000)),
        "nesting",
    );
    refused(
        &format!("p(N) :- {}q(X)", "N = count{ X : ".repeat(10_000)),
        "nesting",
    );
}

#[test]
fn nesting_is_capped_at_max_nesting_exactly() {
    let (e, m) = run(&format!("p({}).", nested_term(MAX_NESTING)));
    assert_eq!(e.query_model(&m, "p(X)").unwrap().len(), 1);
    refused(&format!("p({}).", nested_term(MAX_NESTING + 1)), "nesting");
    // Terms and parentheses draw on the one budget.
    let (e, m) = run(&format!(
        "q(2). p(Y) :- q(X), Y = X + {}.",
        nested_parens(MAX_NESTING)
    ));
    assert_eq!(e.query_model(&m, "p(3)").unwrap().len(), 1);
    refused(
        &format!("p(Y) :- q(X), Y = X + {}.", nested_parens(MAX_NESTING + 1)),
        "nesting",
    );
    refused(
        &format!(
            "p(Y) :- q(X), Y = X + {}g({}){}.",
            "(".repeat(MAX_NESTING),
            nested_term(1),
            ")".repeat(MAX_NESTING)
        ),
        "nesting",
    );
}

/// Width is not depth. A 10 000-argument fact is a flat vector: it loads,
/// evaluates and drops. A 10 000-operand sum would be a 10 000-deep
/// left-nested expression tree, so operator chains are **refused by a
/// stated cap** — [`MAX_NESTING`] arithmetic operators per clause — and a
/// chain of exactly that many evaluates.
#[test]
fn wide_clauses_evaluate_and_long_operator_chains_are_capped() {
    let args: Vec<String> = (0..10_000).map(|i| format!("c{i}")).collect();
    let (_, m) = run(&format!("wide({}).", args.join(",")));
    assert_eq!(m.facts.len(), 1);
    let sum = |operands: usize| format!("q(0). p(Y) :- q(X), Y = X{}.", " + 1".repeat(operands));
    let (e, m) = run(&sum(MAX_NESTING));
    assert_eq!(
        e.query_model(&m, &format!("p({MAX_NESTING})"))
            .unwrap()
            .len(),
        1
    );
    refused(&sum(MAX_NESTING + 1), "operators");
    refused(&sum(10_000), "operators");
    // The budget is per clause: the next clause starts at zero.
    let half = " + 1".repeat(MAX_NESTING / 2 + 1);
    run(&format!(
        "q(0). p(Y) :- q(X), Y = X{half}. r(Y) :- q(X), Y = X{half}."
    ));
}
