//! Property-based tests over the core data structures and invariants.

use kind::core::{run_section5, Fault, NeuroSchema, ObjectRow, Section5Query, SourceQuery};
use kind::datalog::{Atom, Engine, EvalOptions, EvalStats, FactStore, Model, RulePlan, Term, Var};
use kind::dm::{DomainMap, ExecMode, Resolved};
use kind::gcm::{GcmBase, GcmDecl};
use kind::sources::{
    build_scenario, build_scenario_with_faults, ncmir_update_rows, ScenarioParams,
};
use kind::xml::{Element, Node};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

// ---------- Datalog: transitive closure vs. reference BFS --------------

fn reference_tc(n: usize, edges: &[(usize, usize)]) -> HashSet<(usize, usize)> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    let mut out = HashSet::new();
    for s in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![s];
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    out.insert((s, y));
                    stack.push(y);
                }
            }
        }
    }
    out
}

fn tc_engine(edges: &[(usize, usize)], semi_naive: bool) -> HashSet<(usize, usize)> {
    let mut e = Engine::new();
    e.load(
        "tc(X,Y) :- edge(X,Y).
         tc(X,Y) :- tc(X,Z), edge(Z,Y).",
    )
    .unwrap();
    for &(a, b) in edges {
        let pa = e.constant(&format!("n{a}"));
        let pb = e.constant(&format!("n{b}"));
        let edge = e.sym("edge");
        e.add_fact(edge, vec![pa, pb]).unwrap();
    }
    let m = e
        .run(&EvalOptions {
            semi_naive,
            ..Default::default()
        })
        .unwrap();
    e.query_model(&m, "tc(X, Y)")
        .unwrap()
        .into_iter()
        .map(|row| {
            let parse = |t: &kind::datalog::Term| -> usize { e.show(t)[1..].parse().unwrap() };
            (parse(&row[0]), parse(&row[1]))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn datalog_tc_matches_reference(
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..40)
    ) {
        let expect = reference_tc(12, &edges);
        let got = tc_engine(&edges, true);
        prop_assert_eq!(&got, &expect);
    }

    #[test]
    fn seminaive_equals_naive(
        edges in prop::collection::vec((0usize..10, 0usize..10), 0..30)
    ) {
        prop_assert_eq!(tc_engine(&edges, true), tc_engine(&edges, false));
    }

    // ---------- Domain map: lub / closure invariants --------------------

    #[test]
    fn lub_is_common_ancestor_and_minimal(
        // A random forest: parent of node i+1 is drawn modulo i+1, which
        // keeps the hierarchy acyclic.
        parents in prop::collection::vec(0usize..20, 19)
    ) {
        let mut dm = DomainMap::new();
        for i in 0..20usize {
            dm.concept(&format!("c{i}"));
        }
        for (i, &p) in parents.iter().enumerate() {
            let child = i + 1; // node 0 is the root-ish node
            let parent = p % child; // strictly smaller: acyclic
            dm.isa(&format!("c{child}"), &format!("c{parent}"));
        }
        let r = Resolved::new(&dm);
        let a = dm.lookup("c7").unwrap();
        let b = dm.lookup("c13").unwrap();
        if let Some(l) = r.lub(&[a, b]) {
            prop_assert!(r.ancestors(a).contains(&l));
            prop_assert!(r.ancestors(b).contains(&l));
            // Minimality: no common ancestor strictly below l.
            let common: Vec<_> = r
                .ancestors(a)
                .intersection(&r.ancestors(b))
                .copied()
                .collect();
            for o in common {
                if o != l && r.is_subconcept(o, l) {
                    prop_assert!(r.is_subconcept(l, o), "found strictly-lower common ancestor");
                }
            }
        }
    }

    #[test]
    fn dc_contains_base_and_tc_contains_dc(
        isa in prop::collection::vec((0usize..10, 0usize..10), 0..15),
        roles in prop::collection::vec((0usize..10, 0usize..10), 0..15)
    ) {
        let mut dm = DomainMap::new();
        for i in 0..10usize {
            dm.concept(&format!("c{i}"));
        }
        // Only downward-pointing isa edges (child id > parent id) keep
        // the hierarchy acyclic, matching real domain maps.
        for &(a, b) in &isa {
            if a > b {
                dm.isa(&format!("c{a}"), &format!("c{b}"));
            }
        }
        for &(a, b) in &roles {
            dm.ex(&format!("c{a}"), "has_a", &format!("c{b}"));
        }
        let r = Resolved::new(&dm);
        let base: HashSet<_> = r.role_pairs("has_a").iter().copied().collect();
        let dc: HashSet<_> = r.dc_pairs("has_a").into_iter().collect();
        let tc: HashSet<_> = r.tc_of_dc("has_a").into_iter().collect();
        prop_assert!(base.is_subset(&dc), "dc must contain the base role");
        prop_assert!(dc.is_subset(&tc), "tc(dc) must contain dc");
    }

    #[test]
    fn downward_closure_is_reflexive_and_within_map(
        roles in prop::collection::vec((0usize..8, 0usize..8), 0..12)
    ) {
        let mut dm = DomainMap::new();
        for i in 0..8usize {
            dm.concept(&format!("c{i}"));
        }
        for &(a, b) in &roles {
            dm.ex(&format!("c{a}"), "has_a", &format!("c{b}"));
        }
        let r = Resolved::new(&dm);
        let root = dm.lookup("c0").unwrap();
        let region = r.downward_closure("has_a", root);
        prop_assert!(region.contains(&root));
        let set: HashSet<_> = region.iter().collect();
        prop_assert_eq!(set.len(), region.len(), "no duplicates");
    }

    // ---------- Faults: seeded schedules are deterministic ---------------

    #[test]
    fn fault_schedules_replay_byte_identically(
        seed in 0u64..u64::MAX,
        fail_per_mille in 0u16..600,
        corrupt_per_mille in 0u16..400,
    ) {
        // Two mediators built from the same params and the same seeded
        // fault schedule must produce *equal* answers AND equal reports —
        // retries, quarantines, breaker skips, everything.
        let faults = || vec![
            Fault::Flaky { seed, fail_per_mille },
            Fault::CorruptRows { seed: seed.rotate_left(17), corrupt_per_mille },
        ];
        let params = ScenarioParams { noise_sources: 1, ..Default::default() };
        let run = || {
            let (mut m, _inj) = build_scenario_with_faults(&params, faults());
            let schema = NeuroSchema::default();
            let q = Section5Query {
                organism: "rat".into(),
                transmitting_compartment: "Parallel_Fiber".into(),
                ion: "calcium".into(),
            };
            run_section5(&mut m, &schema, &q, true).unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.report, &b.report);
        prop_assert_eq!(a, b);
    }

    // ---------- XML: serialize/parse roundtrip --------------------------

    #[test]
    fn xml_roundtrip(tree in xml_tree(3)) {
        let text = kind::xml::to_string(&tree);
        let doc = kind::xml::parse(&text).unwrap();
        prop_assert_eq!(doc.root, tree);
    }
}

// ---------- Eval options: every toggle combo yields the same model ------

/// All 2⁴ combinations of the optimization layers: the magic-sets demand
/// transformation, semi-naive evaluation, join reordering, and the
/// cross-query base cache. Every combination must yield the same model.
fn all_eval_combos() -> Vec<EvalOptions> {
    let mut v = Vec::new();
    for &magic_sets in &[false, true] {
        for &semi_naive in &[false, true] {
            for &join_reorder in &[false, true] {
                for &base_cache in &[false, true] {
                    v.push(EvalOptions {
                        magic_sets,
                        semi_naive,
                        join_reorder,
                        base_cache,
                        ..Default::default()
                    });
                }
            }
        }
    }
    v
}

/// Renders a model's true and undefined facts name-resolved, so the sets
/// are comparable across separately-built engines.
fn rendered_model(e: &Engine, m: &Model) -> (BTreeSet<String>, BTreeSet<String>) {
    let render = |fs: &FactStore| {
        fs.iter()
            .map(|(p, t)| {
                let args: Vec<String> = t.iter().map(|x| e.show(x)).collect();
                format!("{}({})", e.name(p), args.join(","))
            })
            .collect::<BTreeSet<String>>()
    };
    (render(&m.facts), render(&m.undefined))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A recursive program with well-founded negation must compute the
    /// same true *and* undefined facts under every combination of
    /// `{magic_sets, semi_naive, join_reorder, base_cache}` (the WFS path
    /// never applies the magic rewrite, so toggling it must be a no-op).
    #[test]
    fn eval_toggles_preserve_recursive_wfs_model(
        moves in prop::collection::vec((0usize..7, 0usize..7), 0..20)
    ) {
        let mut reference: Option<(BTreeSet<String>, BTreeSet<String>)> = None;
        for opts in all_eval_combos() {
            let mut e = Engine::new();
            e.load(
                "reach(X) :- start(X).
                 reach(Y) :- reach(X), move(X, Y).
                 win(X) :- move(X, Y), not win(Y).",
            )
            .unwrap();
            let start = e.constant("n0");
            let sp = e.sym("start");
            e.add_fact(sp, vec![start]).unwrap();
            for &(a, b) in &moves {
                let pa = e.constant(&format!("n{a}"));
                let pb = e.constant(&format!("n{b}"));
                let mv = e.sym("move");
                e.add_fact(mv, vec![pa, pb]).unwrap();
            }
            let m = e.run(&opts).unwrap();
            let r = rendered_model(&e, &m);
            match &reference {
                None => reference = Some(r),
                Some(x) => prop_assert_eq!(&r, x),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// End-to-end: on the multiple-worlds scenario, `answer()` returns
    /// identical tuples under every optimization-layer combination —
    /// including repeat queries, which take the seeded warm path when
    /// `base_cache` is on.
    #[test]
    fn answer_agrees_across_all_eval_option_combos(seed in 0u64..1000) {
        let params = ScenarioParams {
            seed,
            senselab_rows: 4,
            ncmir_rows: 6,
            synapse_rows: 4,
            noise_sources: 1,
            noise_rows: 3,
            ..Default::default()
        };
        let q1 = "big(P, A) :- X : protein_amount, X[protein_name -> P], \
                  X[amount -> A], A >= 25.";
        let q2 = "pair(P, N) :- X : protein_amount, X[protein_name -> P], \
                  Y : neurotransmission, Y[neurotransmitter -> N].";
        let mut reference: Option<Vec<BTreeSet<String>>> = None;
        for opts in all_eval_combos() {
            let mut m = build_scenario(&params);
            m.set_eval_options(opts);
            let mut results = Vec::new();
            // q1 repeats: the second run reuses the warm base cache.
            for q in [q1, q2, q1] {
                let ans = m.answer(q).unwrap();
                let rows: BTreeSet<String> = ans
                    .rows
                    .iter()
                    .map(|r| {
                        r.iter().map(|t| ans.show(t)).collect::<Vec<_>>().join(",")
                    })
                    .collect();
                results.push(rows);
            }
            match &reference {
                None => reference = Some(results),
                Some(x) => prop_assert_eq!(&results, x),
            }
        }
    }
}

/// Strategy for random XML elements (names from a safe alphabet, text
/// avoiding pure whitespace which the parser deliberately drops).
fn xml_tree(depth: u32) -> impl Strategy<Value = Element> {
    let name = "[a-z][a-z0-9]{0,6}";
    let attr_val = "[ -~&&[^<>&\"]]{0,12}";
    let leaf = (name, prop::collection::vec((name, attr_val), 0..3)).prop_map(|(n, attrs)| {
        let mut e = Element::new(n);
        for (k, v) in attrs {
            // Attribute keys must be unique for a stable roundtrip.
            if e.attr(&k).is_none() {
                e.attrs.push((k, v));
            }
        }
        e
    });
    leaf.prop_recursive(depth, 24, 4, move |inner| {
        (
            "[a-z][a-z0-9]{0,6}",
            prop::collection::vec(
                prop_oneof![
                    inner.prop_map(Node::Element),
                    "[a-zA-Z<>&\"']{1,12}".prop_map(Node::Text),
                ],
                0..4,
            ),
        )
            .prop_map(|(n, children)| {
                let mut e = Element::new(n);
                // Adjacent text nodes merge on parse; pre-merge here.
                for c in children {
                    match (e.children.last_mut(), c) {
                        (Some(Node::Text(prev)), Node::Text(t)) => prev.push_str(&t),
                        (_, c) => e.children.push(c),
                    }
                }
                e
            })
    })
}

// ---------- Fetch plane: parallel == serial, byte for byte --------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant of the two-phase pipeline: a fully parallel
    /// `materialize_all` (8 fetch-plane workers) produces a
    /// **byte-identical** evaluated model — same facts, same interner
    /// ordering — as the one-worker run (every job on the calling
    /// thread), along with an identical degradation
    /// report and identical statistics. Holds under seeded fault
    /// schedules too: retries, quarantined rows, and (when `kill_source`
    /// is set) a source that fails outright and degrades to zero rows.
    /// Only *counter-based* faults are used here — `Slow` faults overlap
    /// virtual-clock advances across workers, which shifts timestamps
    /// (never row contents) and is documented in
    /// `Federation::fetch_parallel`.
    #[test]
    fn parallel_materialize_is_bit_identical_to_serial(
        seed in 0u64..u64::MAX,
        fail_first in 0u32..3,
        corrupt_per_mille in 0u16..400,
        kill in 0u32..2,
    ) {
        let kill_source = kill == 1;
        let faults = || vec![
            Fault::FailFirst(if kill_source { 1_000_000 } else { fail_first }),
            Fault::CorruptRows {
                seed: seed.rotate_left(17),
                corrupt_per_mille,
            },
        ];
        let run = |threads: usize| {
            let params = ScenarioParams {
                seed,
                senselab_rows: 10,
                ncmir_rows: 15,
                synapse_rows: 10,
                noise_sources: 1,
                noise_rows: 5,
                fetch_threads: threads,
                ..Default::default()
            };
            let (mut m, _inj) = build_scenario_with_faults(&params, faults());
            m.materialize_all().unwrap();
            // Canonical, interner-sensitive rendering: raw symbol ids,
            // sorted (relation sets are hash sets, so `{:?}` on the
            // whole model is order-unstable even for one fixed run). If
            // parallel fetching changed the row-application order, the
            // interner would assign different ids and these strings
            // would diverge.
            let model = m.run().unwrap();
            let mut facts: Vec<String> = model
                .facts
                .iter()
                .map(|(p, t)| format!("{p:?}{t:?}"))
                .collect();
            facts.sort();
            (facts, m.report().clone(), m.stats())
        };
        let (serial_model, serial_report, serial_stats) = run(1);
        let (par_model, par_report, par_stats) = run(8);
        prop_assert_eq!(&serial_model, &par_model, "model diverges");
        prop_assert_eq!(&serial_report, &par_report, "report diverges");
        prop_assert_eq!(&serial_stats, &par_stats, "stats diverge");
    }
}

// ---------- Fetch transport: scheduling never shows through ------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// With *virtual-clock* fault schedules in play — a seeded latency
    /// tail driving the hedge path, flaky failures driving retries and
    /// the circuit breaker, all under an end-to-end deadline — the full
    /// §5 answer, its degradation report (including quarantine
    /// counters), and the breaker's final state are exactly equal at one
    /// worker (the calling thread) and at eight. The executor may
    /// interleave jobs arbitrarily; none of it may show through to any
    /// observable.
    #[test]
    fn fetch_transport_is_invisible_under_faults_hedges_and_deadlines(
        seed in 0u64..u64::MAX,
        slow_per_mille in 0u16..800,
        fail_per_mille in 0u16..300,
        budget_choice in 0usize..3,
    ) {
        let budget = [0u64, 150, 600][budget_choice];
        let faults = || vec![
            Fault::SlowTail { seed, delay_ms: 30, slow_per_mille },
            Fault::Flaky { seed: seed.rotate_left(11), fail_per_mille },
        ];
        let run = |threads: usize| {
            let params = ScenarioParams {
                senselab_rows: 10,
                ncmir_rows: 15,
                synapse_rows: 10,
                noise_sources: 1,
                noise_rows: 5,
                fetch_threads: threads,
                query_budget_ms: budget,
                hedge_after_ms: 10,
                ..Default::default()
            };
            let (mut m, _inj) = build_scenario_with_faults(&params, faults());
            let schema = NeuroSchema::default();
            let q = Section5Query {
                organism: "rat".into(),
                transmitting_compartment: "Parallel_Fiber".into(),
                ion: "calcium".into(),
            };
            let trace = run_section5(&mut m, &schema, &q, true).unwrap();
            (trace, m.federation().breaker_state("SENSELAB"), m.report().clone())
        };
        prop_assert_eq!(run(8), run(1), "observables diverge between 8 workers and 1");
    }
}

// ---------- Evaluate plane: evaluations side by side == one alone -------

/// What one evaluation is compared by: the canonical fact set, every
/// counter, and the compiled join plans.
fn observe(m: &Model) -> (Vec<String>, EvalStats, Vec<RulePlan>) {
    let mut facts: Vec<String> = m.facts.iter().map(|(p, t)| format!("{p:?}{t:?}")).collect();
    facts.sort();
    let plans = m
        .profile
        .strata
        .iter()
        .flat_map(|s| s.plans.clone())
        .collect();
    (facts, m.stats, plans)
}

/// Runs `eval` on `n` threads at once and returns what each observed.
fn side_by_side<T: Send>(n: usize, eval: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|_| s.spawn(&eval)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The evaluator is serial; what runs in parallel is *evaluations* —
    /// `kind-server` workers answering from one pinned model. So the lone
    /// evaluation on the calling thread is the reference, and n ∈ {2,4,8}
    /// threads evaluating at once must each produce a **bit-identical**
    /// model — same canonical fact set, same `EvalStats` (down to every
    /// index probe counter), same compiled `RulePlan`s — crossed with the
    /// `semi_naive` and `join_reorder` toggles. Two arms: cold runs of the
    /// same `&Engine`, and seeded runs (one rule on top of a shared base
    /// model, magic on and off, as `QuerySnapshot::answer_with` does per
    /// answer) whose threads read the base's relations in place and race
    /// to build the indexes it lacks: a borrowed relation's index is never
    /// the evaluation's own build, whichever thread physically built it.
    #[test]
    fn parallel_eval_is_bit_identical_to_serial(
        edges in prop::collection::vec((0usize..25, 0usize..25), 100..160)
    ) {
        let mut e = Engine::new();
        e.load(
            "tc(X,Y) :- edge(X,Y).
             tc(X,Y) :- tc(X,Z), edge(Z,Y).",
        )
        .unwrap();
        let edge = e.sym("edge");
        for &(a, b) in &edges {
            let pa = e.constant(&format!("n{a}"));
            let pb = e.constant(&format!("n{b}"));
            e.add_fact(edge, vec![pa, pb]).unwrap();
        }
        // The seeded arm's extra rule probes `tc` and `edge` on columns
        // the cold run never indexed, from a source that has an edge.
        let mut extended = e.clone();
        extended.begin_delta();
        extended.load("back(X,Y) :- tc(X,Z), edge(Y,Z).").unwrap();
        let delta = extended.take_delta().unwrap();
        let goal = Atom::new(
            extended.sym("back"),
            vec![extended.constant(&format!("n{}", edges[0].0)), Term::Var(Var(0))],
        );
        for &semi_naive in &[false, true] {
            for &join_reorder in &[false, true] {
                let opts = EvalOptions { semi_naive, join_reorder, ..Default::default() };
                let alone = observe(&e.run(&opts).unwrap());
                for n in [2usize, 4, 8] {
                    for got in side_by_side(n, || observe(&e.run(&opts).unwrap())) {
                        prop_assert_eq!(&got, &alone,
                            "cold: n={} semi_naive={} join_reorder={}",
                            n, semi_naive, join_reorder);
                    }
                }
                for &magic_sets in &[true, false] {
                    let opts = EvalOptions { magic_sets, ..opts.clone() };
                    let seeded = |base: &Model| {
                        let m = extended
                            .clone()
                            .run_for_query(&goal, Some((base, &delta)), &opts)
                            .unwrap();
                        (observe(&m), m.profile.seeded)
                    };
                    let (alone, seeded_facts) = seeded(&e.run(&opts).unwrap());
                    prop_assert!(seeded_facts > 0 && alone.1.index_hits > 0,
                        "the seeded arm reads nothing from its base");
                    for n in [2usize, 4, 8] {
                        // A fresh base per round: its lazy indexes are
                        // unbuilt when the threads start.
                        let base = e.run(&opts).unwrap();
                        for (got, _) in side_by_side(n, || seeded(&base)) {
                            prop_assert_eq!(&got, &alone,
                                "seeded: n={} semi_naive={} join_reorder={} magic_sets={}",
                                n, semi_naive, join_reorder, magic_sets);
                        }
                    }
                }
            }
        }
    }
}

// ---------- Write plane: incremental publish == cold evaluation ---------

/// Canonical, interner-sensitive rendering of a model's true and
/// undefined facts (raw symbol ids, sorted) — comparable across mediators
/// driven through identical operation histories.
fn canonical_facts(m: &Model) -> (Vec<String>, Vec<String>) {
    let render = |fs: &FactStore| {
        let mut v: Vec<String> = fs.iter().map(|(p, t)| format!("{p:?}{t:?}")).collect();
        v.sort();
        v
    };
    (render(&m.facts), render(&m.undefined))
}

fn small_write_params(mode: ExecMode) -> ScenarioParams {
    ScenarioParams {
        senselab_rows: 6,
        ncmir_rows: 8,
        synapse_rows: 6,
        noise_sources: 1,
        noise_rows: 4,
        mode,
        ..Default::default()
    }
}

/// Replays `ops` (mod 3: 0 = load a fresh NCMIR row, 1 = retract the most
/// recently loaded survivor, 2 = publish) into a freshly built faulted
/// scenario, publishing **eagerly** — the first publish is cold, every
/// later one is maintained incrementally on the warm model. Records the
/// canonical model (true facts, undefined facts) at each publish point
/// (plus a final trailing publish, so every history ends observed).
fn drive_incremental(
    params: &ScenarioParams,
    faults: Vec<Fault>,
    ops: &[u8],
) -> Vec<(Vec<String>, Vec<String>)> {
    let (mut m, _inj) = build_scenario_with_faults(params, faults);
    m.materialize_all().unwrap();
    m.publish().unwrap();
    let pool = ncmir_update_rows(params.seed, 0, ops.len());
    let (mut next, mut live, mut out) = (0usize, Vec::new(), Vec::new());
    for &op in ops {
        match op % 3 {
            0 => {
                if next < pool.len() {
                    m.load_row("NCMIR", "protein_amount", &pool[next]).unwrap();
                    live.push(next);
                    next += 1;
                }
            }
            1 => {
                if let Some(i) = live.pop() {
                    m.retract_row("NCMIR", "protein_amount", &pool[i]).unwrap();
                }
            }
            _ => {
                out.push(canonical_facts(m.publish().unwrap()));
            }
        }
    }
    out.push(canonical_facts(m.publish().unwrap()));
    out
}

/// The cold reference for [`drive_incremental`]: for each publish point,
/// replays the prefix into a *fresh* mediator whose first and only
/// publish evaluates the accumulated engine state from scratch.
fn drive_cold(
    params: &ScenarioParams,
    faults: Vec<Fault>,
    ops: &[u8],
) -> Vec<(Vec<String>, Vec<String>)> {
    let mut ends: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|&(_, &o)| o % 3 == 2)
        .map(|(i, _)| i)
        .collect();
    ends.push(ops.len());
    ends.into_iter()
        .map(|end| {
            let (mut m, _inj) = build_scenario_with_faults(params, faults.clone());
            m.materialize_all().unwrap();
            let pool = ncmir_update_rows(params.seed, 0, ops.len());
            let (mut next, mut live) = (0usize, Vec::new());
            for &op in &ops[..end] {
                match op % 3 {
                    0 if next < pool.len() => {
                        m.load_row("NCMIR", "protein_amount", &pool[next]).unwrap();
                        live.push(next);
                        next += 1;
                    }
                    1 => {
                        if let Some(i) = live.pop() {
                            m.retract_row("NCMIR", "protein_amount", &pool[i]).unwrap();
                        }
                    }
                    _ => {}
                }
            }
            canonical_facts(m.publish().unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The write plane's invariant: under any interleaving of row loads,
    /// retractions, and publishes — on a scenario with a seeded fault
    /// schedule — every incremental publish yields a model
    /// **bit-identical** (canonical fact rendering, raw symbol ids) to a
    /// cold evaluation of the same operation prefix. Both `ExecMode`s:
    /// in `Assertion` a row reaches the negation cycle holding `inst`, in
    /// `Constraint` only stratified strata.
    #[test]
    fn incremental_publish_is_bit_identical_to_cold_rebuild(
        ops in prop::collection::vec(0u8..3, 1..10),
        fault_seed in 0u64..500,
        fail_per_mille in 0u16..300,
    ) {
        let faults = || vec![Fault::Flaky { seed: fault_seed, fail_per_mille }];
        for mode in [ExecMode::Assertion, ExecMode::Constraint] {
            let params = small_write_params(mode);
            let incremental = drive_incremental(&params, faults(), &ops);
            let cold = drive_cold(&params, faults(), &ops);
            prop_assert_eq!(incremental.len(), cold.len());
            for (i, (got, want)) in incremental.iter().zip(&cold).enumerate() {
                prop_assert_eq!(got, want, "{:?}: publish point {} diverges from cold", mode, i);
            }
        }
    }
}

/// A publish reuses or rebuilds every stratum, in either `ExecMode`; what
/// it rebuilds depends on the mode. In `Assertion` the row's `inst` fact
/// feeds the negation cycle, so the stratum holding `inst` is the
/// well-founded one; in `Constraint` it is a plain recursive stratum. A
/// retraction is rebuilt in either and matches a cold run.
#[test]
fn publish_modes_follow_the_exec_mode() {
    for mode in [ExecMode::Assertion, ExecMode::Constraint] {
        let params = small_write_params(mode);
        let row = &ncmir_update_rows(params.seed, 0, 1)[0];
        let mut m = build_scenario(&params);
        m.materialize_all().unwrap();
        m.publish().unwrap();
        m.load_row("NCMIR", "protein_amount", row).unwrap();
        let loaded = m.publish().unwrap().profile.clone();
        assert!(loaded.delta_applied && !loaded.delta_fallback, "{mode:?}");
        assert_eq!(
            loaded.delta_reused_strata + loaded.delta_rebuilt_strata,
            loaded.strata.len(),
            "{mode:?}: every stratum is reused or rebuilt"
        );
        assert!(loaded.delta_reused_strata > 0, "{mode:?}");
        let inst = m.base().flogic().engine().lookup("inst").unwrap();
        let holding_inst: Vec<_> = loaded
            .strata
            .iter()
            .filter(|s| s.preds.contains(&inst))
            .collect();
        assert_eq!(holding_inst.len(), 1, "{mode:?}");
        assert!(!holding_inst[0].skipped, "{mode:?}: `inst` moved");
        assert_eq!(
            holding_inst[0].well_founded,
            mode == ExecMode::Assertion,
            "{mode:?}"
        );
        assert!(m.retract_row("NCMIR", "protein_amount", row).unwrap() > 0);
        let retracted = m.publish().unwrap();
        assert!(retracted.profile.delta_rebuilt_strata > 0, "{mode:?}");
        let retracted = canonical_facts(retracted);
        // The same history with one publish at the end, which is cold.
        let mut cold = build_scenario(&params);
        cold.materialize_all().unwrap();
        cold.load_row("NCMIR", "protein_amount", row).unwrap();
        cold.retract_row("NCMIR", "protein_amount", row).unwrap();
        assert_eq!(
            retracted,
            canonical_facts(cold.publish().unwrap()),
            "{mode:?}"
        );
    }
}

// ---------- Load path: one way a row becomes facts ----------------------

/// The benchmark's served scenario (`benchmark/src/oracle.rs`).
fn served_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        seed,
        senselab_rows: 400,
        ncmir_rows: 600,
        synapse_rows: 400,
        noise_sources: 4,
        noise_rows: 300,
        ..Default::default()
    }
}

/// Every stored fact of `base`, raw symbol ids beside the names they
/// resolve to, sorted: equal lines mean equal facts *and* equal numbering
/// of every symbol a fact mentions.
fn stored_facts(base: &GcmBase) -> Vec<String> {
    let e = base.flogic().engine();
    let mut lines: Vec<String> = e
        .edb()
        .iter()
        .map(|(p, t)| {
            let args: Vec<String> = t.iter().map(|a| e.show(a)).collect();
            format!("{p:?}{t:?} {}({})", e.name(p), args.join(","))
        })
        .collect();
    lines.sort();
    lines
}

/// `(symbols interned, stored facts, FNV-1a of the fact lines)`.
fn base_fingerprint(base: &GcmBase) -> (usize, usize, u64) {
    let lines = stored_facts(base);
    let hash = lines
        .iter()
        .flat_map(|l| l.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    let symbols = base.flogic().engine().symbols().len();
    (symbols, lines.len(), hash)
}

/// What `materialize_all` left in the base of the served scenario when a
/// row was still loaded as one `GcmDecl::Instance` and one
/// `GcmDecl::MethodInst` per attribute (recorded at commit 201ddc6).
const LOADED_BASE_GOLDEN: &[(u64, (usize, usize, u64))] = &[
    (1, (2762, 16147, 11219994060212489163)),
    (2, (2762, 16147, 1273790142713811165)),
    (3, (2762, 16147, 5183826812890846714)),
];

/// One row, three routes into a base — the bulk load, `load_row`, and the
/// declaration-at-a-time route conceptual models take — must intern the
/// same names in the same order and store the same facts; and a row loaded
/// and then retracted leaves the stored facts as they were.
#[test]
fn direct_row_load_matches_the_recorded_base_and_the_declaration_route() {
    for &(seed, golden) in LOADED_BASE_GOLDEN {
        let mut bulk = build_scenario(&served_params(seed));
        let loaded = bulk.materialize_all().unwrap();
        assert_eq!(base_fingerprint(bulk.base()), golden, "seed {seed}");

        let mut m = build_scenario(&served_params(seed));
        m.rebuild().unwrap();
        let mut by_decl = m.base().clone();
        let scans: Vec<(String, String)> = m
            .federation()
            .sources()
            .iter()
            .flat_map(|s| s.classes.iter().map(|c| (s.name.clone(), c.clone())))
            .collect();
        let mut rows = Vec::new();
        for (source, class) in &scans {
            for row in m
                .federation_mut()
                .fetch(source, &SourceQuery::scan(class))
                .unwrap()
                .iter()
            {
                let obj = format!("{source}.{}", row.id);
                by_decl
                    .apply_decl(&GcmDecl::Instance {
                        obj: obj.clone(),
                        class: class.clone(),
                    })
                    .unwrap();
                for (method, value) in &row.attrs {
                    by_decl
                        .apply_decl(&GcmDecl::MethodInst {
                            obj: obj.clone(),
                            method: method.clone(),
                            value: value.clone(),
                        })
                        .unwrap();
                }
                m.load_row(source, class, row).unwrap();
                rows.push((source, class, row.clone()));
            }
        }
        assert_eq!(rows.len(), loaded);
        assert_eq!(
            base_fingerprint(&by_decl),
            golden,
            "seed {seed}: by declaration"
        );
        assert_eq!(base_fingerprint(m.base()), golden, "seed {seed}: load_row");

        // Every 16th row again under a fresh id, loaded and retracted.
        let before = stored_facts(m.base());
        for (source, class, row) in rows.iter().step_by(16) {
            let again = ObjectRow {
                id: format!("{}-again", row.id),
                attrs: row.attrs.clone(),
            };
            m.load_row(source, class, &again).unwrap();
            let removed = m.retract_row(source, class, &again).unwrap();
            assert_eq!(
                removed,
                1 + again.attrs.len(),
                "seed {seed}, row {}",
                row.id
            );
        }
        assert_eq!(
            stored_facts(m.base()),
            before,
            "seed {seed}: after retraction"
        );
    }
}
