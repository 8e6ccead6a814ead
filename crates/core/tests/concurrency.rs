//! Thread-safety coverage for the layered mediator: compile-time
//! `Send + Sync` enforcement for the pieces that cross thread boundaries,
//! and a stress test where 8 threads hammer one [`QuerySnapshot`] with
//! mixed `query_fl`/`answer` calls whose results must be identical to the
//! single-threaded run.

use kind_core::{
    run_section5, section5_fetch, Anchor, Capability, Federation, Knowledge, Mediator,
    MemoryWrapper, NeuroSchema, QuerySnapshot, Section5Query,
};
use kind_dm::{figures, ExecMode};
use kind_gcm::GcmValue;
use std::sync::Arc;
use std::thread;

const fn assert_send_sync<T: Send + Sync>() {}

// The snapshot is the type handed to worker threads; the layers must be
// transferable too (e.g. a mediator built on one thread, served from
// another).
const _: () = assert_send_sync::<QuerySnapshot>();
const _: () = assert_send_sync::<Federation>();
const _: () = assert_send_sync::<Knowledge>();
const _: () = assert_send_sync::<Mediator>();

fn spine_wrapper(name: &str, concept: &str, n: usize) -> Arc<MemoryWrapper> {
    let mut w = MemoryWrapper::new(name);
    w.caps.push(Capability {
        class: "spines".into(),
        pushable: vec![],
    });
    w.anchor_decls.push(Anchor::Fixed {
        class: "spines".into(),
        concept: concept.into(),
    });
    for i in 0..n {
        w.add_row(
            "spines",
            &format!("s{i}"),
            vec![
                ("len", GcmValue::Int(i as i64 * 10)),
                ("loc", GcmValue::Id(concept.into())),
            ],
        );
    }
    Arc::new(w)
}

fn snapshot_fixture() -> QuerySnapshot {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", "Spine", 6)).unwrap();
    m.register(spine_wrapper("B", "Shaft", 4)).unwrap();
    m.define_view("long_spine(X, L) :- X : spines, X[len -> L], L >= 30.")
        .unwrap();
    m.materialize_all().unwrap();
    m.snapshot().unwrap()
}

/// The mixed workload: FL patterns served through `&self` off the frozen
/// model, and one-off rules evaluated on per-call scratch clones.
const PATTERNS: &[&str] = &[
    "X : spines",
    "long_spine(X, L)",
    r#"anchored(S, C)"#,
    r#"isa_star(C, "Neuron_Compartment")"#,
    "nonexistent_predicate(X)",
];

const RULES: &[&str] = &[
    "q0(X, L) :- X : spines, X[len -> L], L >= 20.",
    r#"q1(X) :- X : spines, X[loc -> "Spine"]."#,
    "q2(C) :- anchored(S, C).",
];

fn run_workload(snap: &QuerySnapshot, salt: usize) -> Vec<Vec<Vec<String>>> {
    let mut out = Vec::new();
    for round in 0..8 {
        let i = (round + salt) % PATTERNS.len();
        out.push(snap.query_fl_rendered(PATTERNS[i]).unwrap());
        let j = (round + salt) % RULES.len();
        out.push(snap.answer(RULES[j]).unwrap());
    }
    out
}

#[test]
fn eight_threads_match_single_threaded_results() {
    let snap = snapshot_fixture();
    // Single-threaded ground truth, one workload per salt.
    let expected: Vec<Vec<Vec<Vec<String>>>> =
        (0..8).map(|salt| run_workload(&snap, salt)).collect();
    // Sanity: the workload actually produces data.
    assert!(expected[0].iter().any(|rows| !rows.is_empty()));
    // 8 threads, each running its salted workload several times against
    // the one shared snapshot.
    thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|salt| {
                let snap = &snap;
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..4 {
                        let got = run_workload(snap, salt);
                        assert_eq!(got, expected[salt], "thread {salt} diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

/// A warm answer probes the snapshot's own relations, so eight threads
/// that start together race to build the indexes a fresh model lacks.
/// Whoever wins, every thread reports the counters a lone caller of an
/// untouched snapshot reports, and the model is left as it was.
#[test]
fn eight_threads_racing_on_a_fresh_model_report_one_set_of_stats() {
    let answers = |snap: &QuerySnapshot| -> Vec<_> {
        RULES
            .iter()
            .map(|rule| {
                let a = snap.answer_with(rule, snap.eval_options()).unwrap();
                (a.rows, a.stats, a.magic_fired)
            })
            .collect()
    };
    let expected = answers(&snapshot_fixture());
    assert!(expected.iter().any(|(rows, ..)| !rows.is_empty()));
    let snap = snapshot_fixture();
    let facts = snap.model().facts.len();
    let start = std::sync::Barrier::new(8);
    thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                for _ in 0..4 {
                    assert_eq!(answers(&snap), expected);
                }
            });
        }
    });
    assert_eq!(snap.model().facts.len(), facts);
}

#[test]
fn snapshot_survives_mediator_mutation() {
    // Snapshot isolation: the mediator keeps evolving after the snapshot
    // is taken; the snapshot keeps answering from the frozen state.
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", "Spine", 3)).unwrap();
    m.materialize_all().unwrap();
    let snap = m.snapshot().unwrap();
    let before = snap.query_fl_rendered("X : spines").unwrap();
    assert_eq!(before.len(), 3);
    // Mutate the mediator: register another source and re-materialize.
    m.register(spine_wrapper("B", "Shaft", 5)).unwrap();
    m.materialize_all().unwrap();
    assert_eq!(m.query_fl("X : spines").unwrap().len(), 8);
    // The old snapshot still sees exactly the old world...
    assert_eq!(snap.query_fl_rendered("X : spines").unwrap(), before);
    // ...and a fresh snapshot sees the new one.
    let snap2 = m.snapshot().unwrap();
    assert_eq!(snap2.query_fl_rendered("X : spines").unwrap().len(), 8);
}

#[test]
fn snapshot_answer_matches_mediator_answer() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", "Spine", 6)).unwrap();
    m.materialize_all().unwrap();
    let snap = m.snapshot().unwrap();
    let q = "big(X, L) :- X : spines, X[len -> L], L >= 30.";
    let mut from_mediator: Vec<Vec<String>> = m
        .answer(q)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|t| m.show(t)).collect())
        .collect();
    from_mediator.sort();
    let from_snapshot = snap.answer(q).unwrap();
    assert_eq!(from_snapshot, from_mediator);
    assert_eq!(from_snapshot.len(), 3);
}

// ---------- Warm §5 plans replayed on a snapshot ------------------------

/// A miniature §5 scenario over Figure 1: one neurotransmission source
/// whose rows land on Purkinje structures, one protein source anchored
/// at those structures.
fn section5_fixture() -> (Mediator, NeuroSchema, Section5Query) {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    let mut nt = MemoryWrapper::new("NT");
    nt.caps.push(Capability {
        class: "neurotransmission".into(),
        pushable: vec!["organism".into(), "transmitting_compartment".into()],
    });
    nt.anchor_decls.push(Anchor::Fixed {
        class: "neurotransmission".into(),
        concept: "Neurotransmission".into(),
    });
    for (i, (neuron, comp)) in [
        ("Purkinje_Cell", "Dendrite"),
        ("Purkinje_Cell", "Spine"),
        ("Pyramidal_Cell", "Soma"), // filtered out: wrong transmitter
    ]
    .iter()
    .enumerate()
    {
        let tc = if i < 2 {
            "Parallel_Fiber"
        } else {
            "Mossy_Fiber"
        };
        nt.add_row(
            "neurotransmission",
            &format!("n{i}"),
            vec![
                ("organism", GcmValue::Id("rat".into())),
                ("transmitting_compartment", GcmValue::Id(tc.into())),
                ("receiving_neuron", GcmValue::Id((*neuron).into())),
                ("receiving_compartment", GcmValue::Id((*comp).into())),
            ],
        );
    }
    m.register(Arc::new(nt)).unwrap();
    let mut prot = MemoryWrapper::new("PROT");
    prot.caps.push(Capability {
        class: "protein_amount".into(),
        pushable: vec!["location".into(), "ion_bound".into()],
    });
    prot.anchor_decls.push(Anchor::ByAttr {
        class: "protein_amount".into(),
        attr: "location".into(),
    });
    for (i, (name, amount, loc)) in [
        ("Calbindin", 7, "Dendrite"),
        ("Calbindin", 4, "Spine"),
        ("CaMKII", 9, "Purkinje_Cell"),
        ("CaMKII", 2, "Spine"),
    ]
    .iter()
    .enumerate()
    {
        prot.add_row(
            "protein_amount",
            &format!("p{i}"),
            vec![
                ("protein_name", GcmValue::Id((*name).into())),
                ("amount", GcmValue::Int(*amount)),
                ("location", GcmValue::Id((*loc).into())),
                ("ion_bound", GcmValue::Id("calcium".into())),
            ],
        );
    }
    m.register(Arc::new(prot)).unwrap();
    let schema = NeuroSchema {
        partonomy_role: "has".into(), // Figure 1's partonomy role
        ..Default::default()
    };
    let q = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    (m, schema, q)
}

#[test]
fn eight_threads_replay_warm_section5_plan_identically() {
    let (mut m, schema, q) = section5_fixture();
    // Ground truth: the single-owner `&mut Mediator` path.
    let expected = run_section5(&mut m, &schema, &q, true).unwrap();
    assert!(
        !expected.step1_pairs.is_empty(),
        "plan found receiving pairs"
    );
    assert!(!expected.proteins.is_empty(), "plan found proteins");
    // Warm path: fetch once, snapshot once, then the evaluate phase
    // replays read-only from 8 threads — no wrapper is contacted again.
    let (federation, knowledge) = m.fetch_eval_planes();
    let fetched = section5_fetch(federation, knowledge, &schema, &q, true).unwrap();
    let hub = m.hub();
    m.publish_snapshot().unwrap();
    thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (hub, schema, fetched, expected) = (&hub, &schema, &fetched, &expected);
                s.spawn(move || {
                    let snap = hub.load().expect("hub seeded");
                    for _ in 0..4 {
                        let got = snap.run_section5(schema, fetched).unwrap();
                        assert_eq!(&got, expected, "snapshot replay diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

// ---------- Magic sets × concurrent callers -----------------------------

/// Goal-directed answers must be identical with the magic-sets rewrite
/// on and off, from both the mediator and concurrent snapshot callers.
#[test]
fn magic_sets_toggle_preserves_answers_for_concurrent_callers() {
    let rendered = |m: &Mediator, rows: &[Vec<kind_datalog::Term>]| {
        let mut v: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(|t| m.show(t)).collect::<Vec<_>>().join(","))
            .collect();
        v.sort();
        v
    };
    let build = |magic: bool| {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.set_eval_options(kind_datalog::EvalOptions {
            magic_sets: magic,
            ..m.eval_options().clone()
        });
        m.register(spine_wrapper("A", "Spine", 6)).unwrap();
        m.register(spine_wrapper("B", "Shaft", 4)).unwrap();
        m.materialize_all().unwrap();
        m
    };
    let mut on = build(true);
    let mut off = build(false);
    // A bound-goal query (constant in the body) and a wide one; repeats
    // take the seeded warm path on top of the base cache.
    let queries = [
        r#"at_spine(X) :- X : spines, X[loc -> "Spine"]."#,
        "all_len(X, L) :- X : spines, X[len -> L].",
        r#"at_spine(X) :- X : spines, X[loc -> "Spine"]."#,
    ];
    for q in queries {
        let a = on.answer(q).unwrap();
        let b = off.answer(q).unwrap();
        assert_eq!(rendered(&on, &a.rows), rendered(&off, &b.rows), "{q}");
        assert!(!b.magic_fired);
    }
    // Snapshots inherit the toggle; 8 threads on each must agree with
    // each other and across the toggle.
    let snap_on = on.snapshot().unwrap();
    let snap_off = off.snapshot().unwrap();
    let q = r#"at_spine(X) :- X : spines, X[loc -> "Spine"]."#;
    let expected = snap_on.answer(q).unwrap();
    assert_eq!(expected, snap_off.answer(q).unwrap());
    thread::scope(|s| {
        for snap in [&snap_on, &snap_off] {
            for _ in 0..4 {
                let (snap, expected) = (snap, &expected);
                s.spawn(move || {
                    assert_eq!(&snap.answer(q).unwrap(), expected);
                });
            }
        }
    });
}
