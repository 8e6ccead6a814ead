//! Cross-module tests for domain-map execution: both modes over the
//! paper's real maps, skolem behaviour, and the concept-level closures.

use kind_datalog::EvalOptions;
use kind_dm::{figures, load_axioms, rules, DomainMap, ExecMode, Resolved, DM_OPS_RULES};
use kind_flogic::FLogic;

fn engine(dm: &DomainMap, mode: ExecMode, data: &str) -> FLogic {
    let mut fl = FLogic::new();
    fl.load_datalog(DM_OPS_RULES).unwrap();
    fl.load(&rules::compile(dm, &Resolved::new(dm), mode).text)
        .unwrap();
    fl.load(data).unwrap();
    fl
}

#[test]
fn figure1_constraint_mode_on_complete_data_is_silent() {
    let dm = figures::figure1();
    // A fully fleshed-out purkinje cell: compartment, spine, protein,
    // activity, process. Satisfies every existential demand along its
    // chain.
    let fl = engine(
        &dm,
        ExecMode::Constraint,
        r#"p1 : "Purkinje_Cell".
           d1 : "Dendrite". d1 : "Compartment".
           b1 : "Branch". sh1 : "Shaft".
           s1 : "Spine".
           ibp1 : "Ion_Binding_Protein". act1 : "Ion_Activity".
           nt1 : "Neurotransmission". pr1 : "Protein".
           relinst("has", p1, d1).
           relinst("has", p1, s1).
           relinst("has", d1, b1).
           relinst("has", sh1, s1).
           relinst("contains", s1, ibp1).
           relinst("controls", ibp1, act1).
           relinst("subprocess_of", act1, nt1).
           relinst("regulates", s1, act1)."#,
    );
    let m = fl.run().unwrap();
    // Witnesses may only concern entities we deliberately left bare
    // (e.g. d1 is also a neuron-compartment owner? no). Check the chain
    // entities are clean:
    let ws = fl.inconsistency_witnesses(&m);
    for w in &ws {
        assert!(
            !w.contains(",p1)") && !w.contains(",s1)"),
            "unexpected witness for complete entities: {w} (all: {ws:?})"
        );
    }
}

#[test]
fn figure1_assertion_mode_builds_the_virtual_world() {
    let dm = figures::figure1();
    // A single bare Purkinje cell: assertion mode must spin up the whole
    // existential chain as placeholders (compartment, spine, protein,
    // activity, neurotransmission...).
    let fl = engine(&dm, ExecMode::Assertion, r#"p1 : "Purkinje_Cell"."#);
    let opts = EvalOptions {
        max_term_depth: 6,
        ..Default::default()
    };
    let m = fl.run_with(&opts).unwrap();
    for class in [
        "Spine",
        "Compartment",
        "Ion_Binding_Protein",
        "Ion_Activity",
        "Neurotransmission",
    ] {
        let members = fl.instances_of(&m, class);
        assert!(
            members.iter().any(|x| x.starts_with("sk(")),
            "expected a placeholder {class}, got {members:?}"
        );
    }
    // And the paper's eqv recognition works in the virtual world: p1 is
    // a Neuron with a spine, hence a Spiny_Neuron.
    assert!(fl.is_instance(&m, "p1", "Spiny_Neuron"));
}

#[test]
fn figure3_all_edge_types_fillers_after_registration() {
    let full = figures::figure3();
    let fl = engine(
        &full,
        ExecMode::Assertion,
        r#"m1 : "MyNeuron". d9 : anything.
           relinst("has", m1, d9)."#,
    );
    let m = fl.run().unwrap();
    // ∀has.MyDendrite types every filler; MyDendrite ≡ Dendrite ⊓
    // ∃exp.Dopamine_R then propagates.
    assert!(fl.is_instance(&m, "d9", "MyDendrite"));
    assert!(fl.is_instance(&m, "d9", "Dendrite"));
}

#[test]
fn compiled_edge_count_matches_graph() {
    let dm = figures::figure1();
    let prog = rules::compile(&dm, &Resolved::new(&dm), ExecMode::Assertion);
    // Every non-member edge with a named source compiles.
    let compilable = dm
        .edges()
        .iter()
        .filter(|e| dm.name(e.from).is_some() && e.kind != kind_dm::EdgeKind::Member)
        .count();
    assert_eq!(prog.edges_compiled, compilable);
}

#[test]
fn has_a_star_matches_resolved_dc() {
    // The datalog-side has_a_star and the pure-graph dc must agree.
    let mut dm = DomainMap::new();
    load_axioms(
        &mut dm,
        "Dendrite < Compartment.
         Neuron < exists has_a.Compartment.
         Dendrite < exists has_a.Branch.
         Purkinje_Cell < Neuron.",
    )
    .unwrap();
    let fl = engine(&dm, ExecMode::Assertion, "");
    let m = fl.run().unwrap();
    let e = fl.engine();
    let datalog_star: std::collections::HashSet<(String, String)> = e
        .query_model(&m, "has_a_star(X, Y)")
        .unwrap()
        .into_iter()
        .map(|row| (e.show(&row[0]), e.show(&row[1])))
        .collect();
    let r = Resolved::new(&dm);
    let graph_star: std::collections::HashSet<(String, String)> = r
        .dc_pairs("has_a")
        .into_iter()
        .filter_map(|(a, b)| Some((dm.name(a)?.to_string(), dm.name(b)?.to_string())))
        .collect();
    assert_eq!(datalog_star, graph_star);
}

#[test]
fn generated_anatomy_compiles_and_runs_both_modes() {
    let dm = figures::anatomy_generated(3, 2, 1);
    for mode in [ExecMode::Constraint, ExecMode::Assertion] {
        let fl = engine(&dm, mode, r#"x0 : "Nervous_System"."#);
        let opts = EvalOptions {
            max_term_depth: 4,
            ..Default::default()
        };
        let m = fl.run_with(&opts).unwrap();
        assert!(!m.facts.is_empty());
    }
}

#[test]
fn dot_renders_generated_maps() {
    let dm = figures::anatomy_generated(2, 2, 1);
    let dot = kind_dm::dot::to_dot(&dm, &[]);
    assert!(dot.lines().filter(|l| l.contains("shape=box")).count() >= dm.concepts().count());
}
