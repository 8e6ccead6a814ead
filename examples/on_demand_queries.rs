//! On-demand integrated queries: the push-down discipline of §5
//! generalized — plus query templates, logic-level (subsumption-based)
//! source selection, the two-phase pipeline's warm-plan path
//! (fetch once, replay the evaluate phase on a snapshot from many
//! threads), and goal-directed evaluation via the magic-sets rewrite
//! (derived-fact counts with the rewrite on vs off).
//!
//! ```sh
//! cargo run --example on_demand_queries
//! ```

use kind::core::{
    run_section5, section5_fetch, Mediator, NeuroSchema, QueryTemplate, Section5Query,
};
use kind::datalog::{Atom, EvalOptions, Term, Var};
use kind::flogic::FLogic;
use kind::gcm::GcmValue;
use kind::sources::{build_scenario, ScenarioParams};

fn main() {
    let mut med = build_scenario(&ScenarioParams::default());

    // 1. A one-off conjunctive query. The mediator extracts the source
    //    classes it mentions, contacts only the sources exporting them,
    //    and evaluates only the answer's dependency cone.
    println!("== answer(): which calcium binders exceed amount 80 anywhere? ==");
    let ans = med
        .answer(
            r#"hot(P, L, A) :- X : protein_amount, X[protein_name -> P],
                              X[location -> L], X[amount -> A],
                              X[ion_bound -> calcium], A > 80."#,
        )
        .expect("query runs");
    println!(
        "classes: {:?}; sources contacted: {:?}; {} answers",
        ans.classes,
        ans.sources,
        ans.rows.len()
    );
    for row in ans.rows.iter().take(5) {
        println!(
            "  {} @ {} = {}",
            ans.show(&row[0]),
            ans.show(&row[1]),
            ans.show(&row[2])
        );
    }
    assert!(!ans.rows.is_empty());

    // 2. Query templates: the "logical API" of a limited source. Here we
    //    register an extra source that only answers one canned query.
    println!("\n== query templates ==");
    let mut limited = kind::core::MemoryWrapper::new("LIMITED");
    limited.caps.push(kind::core::Capability {
        class: "protein_amount".into(),
        pushable: vec!["location".into()],
    });
    limited.query_templates.push(QueryTemplate {
        name: "protein_by_location".into(),
        class: "protein_amount".into(),
        params: vec!["location".into()],
    });
    limited.anchor_decls.push(kind::core::Anchor::Fixed {
        class: "protein_amount".into(),
        concept: "Purkinje_Spine".into(),
    });
    limited.add_row(
        "protein_amount",
        "x1",
        vec![
            ("protein_name", GcmValue::Id("Calbindin".into())),
            ("amount", GcmValue::Int(12)),
            ("location", GcmValue::Id("Purkinje_Spine".into())),
            ("ion_bound", GcmValue::Id("calcium".into())),
        ],
    );
    med.register(std::sync::Arc::new(limited))
        .expect("registers");
    let rows = med
        .federation_mut()
        .call_template(
            "LIMITED",
            "protein_by_location",
            &[GcmValue::Id("Purkinje_Spine".into())],
        )
        .expect("template call");
    println!(
        "LIMITED::protein_by_location(Purkinje_Spine) -> {} rows",
        rows.len()
    );
    assert_eq!(rows.len(), 1);

    // 3. Subsumption-based source selection over a DL expression, using
    //    the axioms behind the map.
    println!("\n== logic-level source selection ==");
    let mut med2 = Mediator::from_axioms(
        "Spiny_Neuron = Neuron and exists has.Spine.
         Purkinje_Cell, Pyramidal_Cell < Spiny_Neuron.
         Granule_Cell < Neuron.",
        kind::dm::ExecMode::Assertion,
    )
    .expect("axioms parse");
    let mut purk = kind::core::MemoryWrapper::new("PURKINJE_LAB");
    purk.caps.push(kind::core::Capability {
        class: "cells".into(),
        pushable: vec![],
    });
    purk.anchor_decls.push(kind::core::Anchor::Fixed {
        class: "cells".into(),
        concept: "Purkinje_Cell".into(),
    });
    purk.add_row("cells", "c1", vec![]);
    med2.register(std::sync::Arc::new(purk)).expect("registers");
    let mut gran = kind::core::MemoryWrapper::new("GRANULE_LAB");
    gran.caps.push(kind::core::Capability {
        class: "cells".into(),
        pushable: vec![],
    });
    gran.anchor_decls.push(kind::core::Anchor::Fixed {
        class: "cells".into(),
        concept: "Granule_Cell".into(),
    });
    gran.add_row("cells", "c2", vec![]);
    med2.register(std::sync::Arc::new(gran)).expect("registers");
    let spiny = med2
        .select_sources_by_expression("Neuron and exists has.Spine")
        .expect("expression parses");
    println!("sources with 'Neuron ⊓ ∃has.Spine' data: {spiny:?}");
    assert_eq!(spiny, vec!["PURKINJE_LAB".to_string()]);

    // 4. The two-phase pipeline's warm-plan path. A §5 plan is a fetch
    //    phase (the mediator contacts the plan's sources, concurrently)
    //    followed by a pure evaluate phase. Run the fetch ONCE, freeze a
    //    snapshot, and any number of threads can replay the evaluate
    //    phase read-only — no wrapper is ever contacted again, and the
    //    trace is identical to the single-owner `run_section5` path.
    println!("\n== warm §5 plans on a snapshot ==");
    let schema = NeuroSchema::default();
    let q = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    // Ground truth: the &mut Mediator path (fetch + eval in one call).
    let expected = run_section5(&mut med, &schema, &q, true).expect("plan runs");
    // Warm path: fetch phase once...
    let (federation, knowledge) = med.fetch_eval_planes();
    let fetched =
        section5_fetch(federation, knowledge, &schema, &q, true).expect("fetch phase runs");
    // ...then the evaluate phase replays on the published snapshot,
    // loaded epoch-pinned from the mediator's hub by each thread.
    let hub = med.hub();
    med.publish_snapshot().expect("snapshot publishes");
    std::thread::scope(|s| {
        for t in 0..4 {
            let (hub, schema, fetched, expected) = (&hub, &schema, &fetched, &expected);
            s.spawn(move || {
                let snap = hub.load().expect("hub seeded");
                let replay = snap
                    .run_section5(schema, fetched)
                    .expect("warm plan replays");
                assert_eq!(&replay, expected, "thread {t} diverged");
            });
        }
    });
    println!(
        "4 threads replayed the warm plan: root {:?}, {} distribution rows, 0 new wrapper calls",
        expected.root,
        expected.distribution.len()
    );

    // 5. Goal-directed evaluation: the magic-sets rewrite. A query
    //    anchored at one class only *demands* that class's instance
    //    cone, so the engine skips the rest of the closure. The
    //    mediator's own `answer()` programs carry skolem guards that
    //    negate through `inst`, which every class literal reads, so
    //    their goals must be evaluated in full and the rewrite does not
    //    apply (`magic_fired` stays false) — the demand win is shown on
    //    the stratified FL fragment, where goal queries actually run it.
    println!("\n== demand-driven evaluation (magic sets) ==");
    println!(
        "mediator answer() above: {} facts derived, magic_fired={} (goal reads negated inst)",
        ans.stats.derived, ans.magic_fired
    );
    // A class forest: 6 subtrees of 4 classes under `thing`, 3 measured
    // objects per class. The query anchors at subtree 0's root.
    let fixture = || {
        let mut fl = FLogic::new();
        let mut text = String::new();
        for s in 0..6 {
            text.push_str(&format!("t{s}_0 :: thing.\n"));
            for l in 1..4 {
                text.push_str(&format!("t{s}_{l} :: t{s}_{}.\n", l - 1));
            }
            for l in 0..4 {
                for j in 0..3 {
                    text.push_str(&format!("o_{s}_{l}_{j} : t{s}_{l}.\n"));
                    text.push_str(&format!(
                        "o_{s}_{l}_{j}[amount -> {}].\n",
                        (s * 13 + l * 29 + j * 17) % 100
                    ));
                }
            }
        }
        fl.load(&text).expect("fixture loads");
        fl.load("hot(X, A) :- X : t0_0, X[amount -> A], A >= 50.")
            .expect("view loads");
        fl
    };
    let mut counts = Vec::new();
    for magic in [false, true] {
        let mut fl = fixture();
        let hot = fl.engine().lookup("hot").expect("view predicate");
        let goal = Atom::new(hot, vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let opts = EvalOptions {
            magic_sets: magic,
            ..Default::default()
        };
        let model = fl.run_for_query(&goal, None, &opts).expect("query runs");
        println!(
            "  magic_sets={magic}: {} rows, {} facts derived (magic_fired={})",
            model.query(&goal).len(),
            model.stats.derived,
            model.profile.magic_fired
        );
        counts.push((model.query(&goal).len(), model.stats.derived));
    }
    assert_eq!(counts[0].0, counts[1].0, "same answers either way");
    assert!(
        counts[1].1 * 3 <= counts[0].1,
        "demand cuts derivation at least 3x"
    );
    println!(
        "same {} answers, {:.1}x fewer facts derived",
        counts[0].0,
        counts[0].1 as f64 / counts[1].1 as f64
    );
    println!("ok");
}
