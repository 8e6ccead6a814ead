//! Property-based tests for the engine: plan-order invariance,
//! substitution laws, and parser/printer agreement.

use kind_datalog::{Atom, BodyItem, Engine, EvalOptions, Rule, Subst, Term, Var};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The body-literal order a rule is written in must not change the
    /// computed model (the planner may reorder internally).
    #[test]
    fn body_order_invariance(
        edges in prop::collection::vec((0u8..6, 0u8..6), 1..15),
        perm in 0usize..6
    ) {
        let facts: String = edges
            .iter()
            .map(|(a, b)| format!("e(n{a}, n{b})."))
            .collect::<Vec<_>>()
            .join("\n");
        // Same rule, six body orders (3 literals).
        let bodies = [
            "e(X,Y), e(Y,Z), X != Z",
            "e(X,Y), X != Z, e(Y,Z)",
            "X != Z, e(X,Y), e(Y,Z)",
            "e(Y,Z), e(X,Y), X != Z",
            "e(Y,Z), X != Z, e(X,Y)",
            "X != Z, e(Y,Z), e(X,Y)",
        ];
        let mut reference = Engine::new();
        reference.load(&facts).unwrap();
        reference.load(&format!("p(X,Z) :- {}.", bodies[0])).unwrap();
        let m0 = reference.run(&EvalOptions::default()).unwrap();
        let mut e = Engine::new();
        e.load(&facts).unwrap();
        e.load(&format!("p(X,Z) :- {}.", bodies[perm])).unwrap();
        let m = e.run(&EvalOptions::default()).unwrap();
        prop_assert_eq!(
            reference.query_model(&m0, "p(X,Y)").unwrap().len(),
            e.query_model(&m, "p(X,Y)").unwrap().len()
        );
    }

    /// match_term(pat, pat.apply(σ)) succeeds whenever σ grounds pat.
    #[test]
    fn match_apply_roundtrip(consts in prop::collection::vec(0u8..5, 1..4)) {
        let mut e = Engine::new();
        let f = e.sym("f");
        // pattern f(V0, V1, ... c...) with σ binding all vars.
        let mut subst = Subst::with_capacity(consts.len());
        let mut args = Vec::new();
        for (i, c) in consts.iter().enumerate() {
            args.push(Term::Var(Var(i as u32)));
            let val = e.constant(&format!("c{c}"));
            subst.bind(Var(i as u32), val);
        }
        let pat = Term::func(f, args);
        let ground = pat.apply(&subst);
        prop_assert!(ground.is_ground());
        let mut fresh = Subst::with_capacity(consts.len());
        prop_assert!(fresh.match_term(&pat, &ground));
        // And the recovered bindings agree.
        for i in 0..consts.len() {
            prop_assert_eq!(fresh.get(Var(i as u32)), subst.get(Var(i as u32)));
        }
    }

    /// A rule printed by the display adapter re-parses into a rule with
    /// the same semantics.
    #[test]
    fn display_reparse_same_model(edges in prop::collection::vec((0u8..5, 0u8..5), 1..10)) {
        let mut e = Engine::new();
        let facts: String = edges
            .iter()
            .map(|(a, b)| format!("e(n{a}, n{b})."))
            .collect::<Vec<_>>()
            .join("\n");
        e.load(&facts).unwrap();
        e.load("tc(X,Y) :- e(X,Y). tc(X,Y) :- tc(X,Z), e(Z,Y).").unwrap();
        let printed: Vec<String> = e
            .rules()
            .iter()
            .map(|r| r.display(e.symbols()).to_string())
            .collect();
        let mut e2 = Engine::new();
        e2.load(&facts).unwrap();
        for p in &printed {
            e2.load(p).unwrap();
        }
        let m1 = e.run(&EvalOptions::default()).unwrap();
        let m2 = e2.run(&EvalOptions::default()).unwrap();
        prop_assert_eq!(
            e.query_model(&m1, "tc(X,Y)").unwrap().len(),
            e2.query_model(&m2, "tc(X,Y)").unwrap().len()
        );
    }

    /// Compiled rules are always safe: every head variable is bound by
    /// some provided variable of the planned body.
    #[test]
    fn compile_never_accepts_unsafe(nvars in 1u32..4) {
        let mut e = Engine::new();
        let p = e.sym("p");
        let q = e.sym("q");
        // Head uses var `nvars` which the body (vars 0..nvars) never binds.
        let head = Atom::new(p, vec![Term::Var(Var(nvars))]);
        let body = vec![BodyItem::Pos(Atom::new(
            q,
            (0..nvars).map(|i| Term::Var(Var(i))).collect(),
        ))];
        let names = (0..=nvars).map(|i| format!("V{i}")).collect();
        prop_assert!(Rule::compile(head, body, nvars + 1, names).is_err());
    }
}
