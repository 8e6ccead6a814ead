//! Language-level tests for the F-logic layer: parser diagnostics,
//! interaction of inheritance with the well-founded semantics, and the
//! display round trip.

use kind_datalog::parser::MAX_NESTING;
use kind_datalog::{DatalogError, Engine};
use kind_flogic::{parse_fl_molecule, parse_fl_program, FLogic, Molecule};

#[test]
fn parser_rejects_malformed_clauses() {
    let mut syms = kind_datalog::Interner::new();
    for bad in [
        "X :",        // dangling isa
        "a[",         // unterminated frame
        "a[m]",       // frame without arrow
        "a[m -> ].",  // missing value
        "p(X) :- .",  // empty body
        "p(X) q(X).", // missing separator
        ": c.",       // missing subject
    ] {
        assert!(
            parse_fl_program(bad, &mut syms).is_err(),
            "should reject: {bad:?}"
        );
    }
}

#[test]
fn parser_accepts_paper_notations() {
    let mut syms = kind_datalog::Interner::new();
    // The paper writes method values with ->, ->> and signatures with =>.
    let cs = parse_fl_program("o[m1 -> a; m2 ->> b]. c[m3 => d].", &mut syms).unwrap();
    assert_eq!(cs.len(), 2);
}

#[test]
fn molecule_display_roundtrips() {
    let mut syms = kind_datalog::Interner::new();
    for src in ["n1 : neuron", "a :: b", "n1[size -> 42]", "p(a, b)"] {
        let (m, _) = parse_fl_molecule(src, &mut syms).unwrap();
        let printed = m.display(&syms).to_string();
        let (m2, _) = parse_fl_molecule(&printed, &mut syms).unwrap();
        assert_eq!(m, m2, "roundtrip failed for {src:?}");
    }
}

#[test]
fn deep_hierarchy_instance_count() {
    // 100-deep chain: the closure axioms must reach all the way.
    let mut fl = FLogic::new();
    let mut text = String::new();
    for i in 0..100 {
        text.push_str(&format!("k{} :: k{}.\n", i, i + 1));
    }
    text.push_str("x : k0.\n");
    fl.load(&text).unwrap();
    let m = fl.run().unwrap();
    assert!(fl.is_instance(&m, "x", "k100"));
    // x is an instance of all 101 classes.
    let e = fl.engine();
    let sols = e.query_model(&m, "inst(x, C)").unwrap();
    assert_eq!(sols.len(), 101);
}

#[test]
fn diamond_inheritance_multiple_superclasses() {
    // The "multiple inheritance problem" the paper footnotes: a class
    // with several direct superclasses. Monotonic propagation is simply
    // the union.
    let mut fl = FLogic::new();
    fl.load(
        "bottom :: left. bottom :: right.
         left :: top. right :: top.
         left[m => from_left]. right[m => from_right].
         o : bottom.",
    )
    .unwrap();
    let m = fl.run().unwrap();
    assert!(fl.is_instance(&m, "o", "top"));
    // Signatures from both parents are inherited.
    let e = fl.engine();
    assert_eq!(e.query_model(&m, "meth(bottom, m, R)").unwrap().len(), 2);
}

#[test]
fn default_inheritance_diamond_conflict_yields_both() {
    // Two incomparable classes both carry defaults: neither shadows the
    // other, so the instance sees both candidate values (F-logic's
    // multiple-inheritance ambiguity surfaced honestly).
    let mut fl = FLogic::with_inheritance();
    fl.load("o : left. o : right.").unwrap();
    fl.load_datalog(
        "default(left, color, red).
         default(right, color, blue).",
    )
    .unwrap();
    let m = fl.run().unwrap();
    let e = fl.engine();
    let vals = e.query_model(&m, "val(o, color, V)").unwrap();
    assert_eq!(vals.len(), 2);
}

#[test]
fn inheritance_with_recursive_negation_uses_wfs() {
    // A default whose applicability depends (through negation) on a
    // derived class: exercises the WFS dispatch end to end.
    let mut fl = FLogic::with_inheritance();
    fl.load(
        "o1 : neuron. o2 : neuron.
         o2[kind -> special].
         X : plain_neuron :- X : neuron, not X[kind -> special].",
    )
    .unwrap();
    fl.load_datalog("default(plain_neuron, rank, 1).").unwrap();
    let m = fl.run().unwrap();
    let e = fl.engine();
    assert_eq!(e.query_model(&m, "val(o1, rank, 1)").unwrap().len(), 1);
    assert!(e.query_model(&m, "val(o2, rank, 1)").unwrap().is_empty());
}

#[test]
fn queries_on_reserved_predicates() {
    let mut fl = FLogic::new();
    fl.load("a :: b. x : a.").unwrap();
    let m = fl.run().unwrap();
    // Molecule queries with variables in both positions.
    let pairs = fl.query(&m, "X : C").unwrap();
    // x : a, x : b (plus meta entries none — FLogic alone has no
    // class-meta reflection; that's GcmBase).
    assert_eq!(pairs.len(), 2);
    let subs = fl.query(&m, "S :: T").unwrap();
    // a::b plus reflexive a::a, b::b.
    assert_eq!(subs.len(), 3);
}

#[test]
fn error_message_names_the_unsafe_variable() {
    let mut syms = kind_datalog::Interner::new();
    let err = parse_fl_program("p(Y) :- q(X).", &mut syms)
        .and_then(|cs| {
            let preds = kind_flogic::Preds::intern(&mut syms);
            kind_flogic::lower_clause(&cs[0], &preds, &syms).map(|_| ())
        })
        .unwrap_err();
    match err {
        DatalogError::UnsafeRule { var, .. } => assert_eq!(var, "Y"),
        other => panic!("expected UnsafeRule, got {other:?}"),
    }
}

#[test]
fn plain_atoms_pass_through_untouched() {
    let mut syms = kind_datalog::Interner::new();
    let (m, _) = parse_fl_molecule("edge(a, b)", &mut syms).unwrap();
    let Molecule::Plain(atom) = m else { panic!() };
    assert_eq!(atom.args.len(), 2);
}

/// The F-logic parser shares the Datalog parser's nesting cap: a term or
/// parenthesis bomb in any position is a positioned parse error. Before
/// the cap each ended the process with a stack overflow.
#[test]
fn nesting_bombs_are_parse_errors_not_stack_overflows() {
    let term = |depth: usize| format!("{}a{}", "f(".repeat(depth), ")".repeat(depth));
    let parens = |depth: usize| format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
    let load = |src: &str| FLogic::new().load(src);
    let bomb = term(200_000);
    for src in [
        format!("q(X) :- X : {bomb}."),
        format!("{bomb} :: c."),
        format!("o[m -> {bomb}]."),
        format!("q(X) :- p(X), X > {}.", parens(200_000)),
        format!("q(X) :- p(X), X + {} > 2.", parens(200_000)),
        format!("q(N) :- {}p(X)", "N = count{ X : ".repeat(10_000)),
        format!("q(Y) :- p(X), Y = X{}.", " + 1".repeat(10_000)),
    ] {
        match load(&src) {
            Err(DatalogError::Parse {
                offset, message, ..
            }) => {
                assert!(
                    message.contains("nesting") || message.contains("operators"),
                    "{message}"
                );
                assert!(offset > 0 && offset < src.len());
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    // Exactly at the cap parses; one past it does not.
    load(&format!("o : {}.", term(MAX_NESTING))).unwrap();
    assert!(load(&format!("o : {}.", term(MAX_NESTING + 1))).is_err());
    load(&format!("q(X) :- p(X), X > {}.", parens(MAX_NESTING))).unwrap();
    assert!(load(&format!("q(X) :- p(X), X > {}.", parens(MAX_NESTING + 1))).is_err());
    load(&format!(
        "q(Y) :- p(X), Y = X{}.",
        " + 1".repeat(MAX_NESTING)
    ))
    .unwrap();
    assert!(load(&format!(
        "q(Y) :- p(X), Y = X{}.",
        " + 1".repeat(MAX_NESTING + 1)
    ))
    .is_err());
}

/// Loads `r(a, 1).` and then `rule` into an F-logic base and into a
/// Datalog engine. An F-logic body is a Datalog body whose literals are
/// molecules, read by the one body grammar, so a rule in Datalog syntax
/// means the same thing to both.
fn load_both(rule: &str) -> (Result<FLogic, DatalogError>, Result<Engine, DatalogError>) {
    let mut fl = FLogic::new();
    fl.load("r(a, 1).").unwrap();
    let mut engine = Engine::new();
    engine.load("r(a, 1).").unwrap();
    (
        fl.load(rule).map(|()| fl),
        engine.load(rule).map(|()| engine),
    )
}

#[test]
fn a_parenthesized_arithmetic_left_side_loads_in_both() {
    let (fl, engine) = load_both("q(X) :- r(X, V), (V + 1) > 1.");
    let (fl, engine) = (fl.unwrap(), engine.unwrap());
    assert_eq!(fl.query(&fl.run().unwrap(), "q(X)").unwrap().len(), 1);
    let model = engine.run(&Default::default()).unwrap();
    assert_eq!(engine.query_model(&model, "q(X)").unwrap().len(), 1);
}

#[test]
fn a_constant_grouping_name_is_refused_as_in_datalog() {
    let (fl, engine) = load_both("p(N) :- N = count{X [l] ; r(X, l)}.");
    let (fl, engine) = (fl.unwrap_err(), engine.unwrap_err());
    assert_eq!(fl, engine);
    let DatalogError::Parse { message, .. } = fl else {
        panic!("{fl:?}")
    };
    assert_eq!(message, "grouping names must be variables");
}

#[test]
fn a_negated_frame_of_two_specs_is_a_positioned_parse_error() {
    let rule = "q(X) :- not X[m -> 1; k -> 2], r(X, _).";
    let err = load_both(rule).0.unwrap_err();
    let DatalogError::Parse { offset, line, .. } = err else {
        panic!("{err:?}")
    };
    assert_eq!((offset, line), (rule.find(',').unwrap(), 1));
}
