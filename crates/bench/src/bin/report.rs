//! Regenerates, in one run, every figure / table / example of the paper
//! and the ledger groups the frozen `benchmark/` does not measure. Each
//! group prints its table and returns its counters as one JSON value;
//! `BENCH.json` is one object keyed by group name.
//!
//! ```sh
//! cargo run --release -p kind-bench --bin report
//! KIND_BENCH_FAST=1 cargo run --release -p kind-bench --bin report  # smaller sizes
//! ```

use kind_bench::{class_tree_flogic, corrupted_order, tc_workload};
use kind_core::{
    protein_distribution, run_section5, Fault, FetchRequest, NeuroSchema, Section5Query,
    SourcePolicy,
};
use kind_datalog::{Engine, EvalOptions, EvalStats};
use kind_dm::{figures, rules, ExecMode, Resolved, DM_OPS_RULES};
use kind_flogic::FLogic;
use kind_gcm::{GcmDecl, GcmValue};
use kind_sources::{build_scenario, build_scenario_with_faults, ncmir_update_rows, ScenarioParams};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// A group: given the fast flag, prints its table and returns its
/// `BENCH.json` value.
type Group = fn(bool) -> String;

/// Every group, in the order they run. `incremental_publish` goes first:
/// it compares a sub-millisecond republish with a multi-millisecond
/// rebuild, and heap state the other groups leave behind inflates the small
/// side more than the large one.
const GROUPS: &[(&str, Group)] = &[
    ("incremental_publish", incremental_publish),
    ("figure1", figure1),
    ("table1", table1),
    ("figure2", figure2),
    ("example2", example2),
    ("figure3", figure3),
    ("sec5", sec5),
    ("pipeline", pipeline),
    ("ablations", ablations),
    ("magic_sets", magic_sets),
    ("tail_latency", tail_latency),
    ("cold_path", cold_path),
    ("eval_stats", eval_stats),
];

fn main() {
    // `KIND_BENCH_FAST=1` (CI's smoke mode) runs every group at smaller
    // sizes and fewer iterations.
    let fast = std::env::var("KIND_BENCH_FAST").is_ok();
    let mut json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"available_parallelism\": {}",
        if fast { "fast" } else { "full" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, group) in GROUPS {
        println!("\n==================================================================");
        println!("{name}");
        println!("==================================================================");
        json.push_str(&format!(",\n  \"{name}\": {}", group(fast)));
    }
    json.push_str("\n}\n");
    std::fs::write("BENCH.json", json).expect("write BENCH.json");
    println!("\nwrote BENCH.json");
}

/// A JSON object of already-rendered values, keys in the order given.
fn obj(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Rendered items, one per line, between `open` and `close`.
fn lines(open: char, items: Vec<String>, close: char) -> String {
    format!("{open}\n    {}\n  {close}", items.join(",\n    "))
}

/// A JSON array of already-rendered values, one per line.
fn arr(items: impl IntoIterator<Item = String>) -> String {
    lines('[', items.into_iter().collect(), ']')
}

/// [`obj`], one field per line.
fn block(fields: &[(&str, String)]) -> String {
    let fields = fields.iter().map(|(k, v)| format!("\"{k}\": {v}"));
    lines('{', fields.collect(), '}')
}

/// A JSON string; every name this binary renders is plain ASCII.
fn q(s: &str) -> String {
    format!("\"{s}\"")
}

/// `a / b` to two decimals, as a JSON number.
fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}", a / b.max(1.0))
}

/// The `EvalStats` counters, as object fields.
fn counters(s: &EvalStats) -> Vec<(&'static str, String)> {
    [
        ("derived", s.derived),
        ("applications", s.applications),
        ("iterations", s.iterations),
        ("index_builds", s.index_builds),
        ("index_hits", s.index_hits),
        ("index_misses", s.index_misses),
    ]
    .map(|(k, v)| (k, v.to_string()))
    .to_vec()
}

/// Scenario sizing for the groups that run the §5 scenario repeatedly.
fn bench_params(fast: bool) -> ScenarioParams {
    if fast {
        ScenarioParams {
            senselab_rows: 10,
            ncmir_rows: 15,
            synapse_rows: 10,
            noise_sources: 1,
            noise_rows: 5,
            ..Default::default()
        }
    } else {
        ScenarioParams::default()
    }
}

/// The paper's §5 query.
fn section5_query() -> Section5Query {
    Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    }
}

/// The one-off rule the answer-path groups repeat.
const CALCIUM_SITES: &str = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
    X[location -> L], X[ion_bound -> "calcium"]."#;

/// Minimum wall time of `f` over `iters` runs, in nanoseconds — the
/// noise-robust point estimate for micro-measurements.
fn min_ns<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration")
}

/// Minimum wall times of `a` and `b` over `iters` rounds, in
/// nanoseconds, timed in turns — each round runs both, the first of them
/// alternating — so a slow spell or a warming cache weighs on both sides
/// alike instead of on whichever side was timed second.
fn min_ns_pair<A, B>(
    iters: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u128, u128) {
    let mut a_ns = || min_ns(1, || drop(black_box(a())));
    let mut b_ns = || min_ns(1, || drop(black_box(b())));
    let (mut a_min, mut b_min) = (u128::MAX, u128::MAX);
    for round in 0..iters {
        if round % 2 == 0 {
            a_min = a_min.min(a_ns());
            b_min = b_min.min(b_ns());
        } else {
            b_min = b_min.min(b_ns());
            a_min = a_min.min(a_ns());
        }
    }
    (a_min, b_min)
}

fn percentile(sorted: &[u128], p: usize) -> u128 {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Republish latency of the staged delta plane against the cold
/// invalidate-and-rebuild it replaced. Incremental side: a warm, fully
/// materialized §5 scenario absorbs one fresh NCMIR row per iteration and
/// republishes — `publish()` folds the staged delta into the cached model,
/// so the timed region is proportional to the delta's cone. Cold side: the
/// same event when every mutation invalidates — rebuild the program,
/// refetch every source, reevaluate from scratch.
fn incremental_publish(fast: bool) -> String {
    let params = bench_params(fast);
    let iters = if fast { 8 } else { 30 };
    let mut m = build_scenario(&params);
    m.materialize_all().expect("scenario materializes");
    m.publish().expect("initial publish");
    let mut inc_ns: Vec<u128> = Vec::with_capacity(iters);
    for row in &ncmir_update_rows(params.seed, 1, iters) {
        m.load_row("NCMIR", "protein_amount", row).expect("loads");
        let t = Instant::now();
        black_box(m.publish().expect("incremental publish").facts.len());
        inc_ns.push(t.elapsed().as_nanos());
    }
    let mut c = build_scenario(&params);
    c.materialize_all().expect("scenario materializes");
    c.publish().expect("initial publish");
    let cold_iters = if fast { 3 } else { 10 };
    let mut cold_ns: Vec<u128> = Vec::with_capacity(cold_iters);
    for row in &ncmir_update_rows(params.seed, 2, cold_iters) {
        c.load_row("NCMIR", "protein_amount", row).expect("loads");
        let t = Instant::now();
        c.invalidate();
        c.materialize_all().expect("rematerializes");
        black_box(c.publish().expect("cold publish").facts.len());
        cold_ns.push(t.elapsed().as_nanos());
    }
    inc_ns.sort_unstable();
    cold_ns.sort_unstable();
    let (inc_p50, inc_p99) = (percentile(&inc_ns, 50), percentile(&inc_ns, 99));
    let (cold_p50, cold_p99) = (percentile(&cold_ns, 50), percentile(&cold_ns, 99));
    println!("one fresh row per iteration, {iters} iterations");
    println!(
        "  {:>12} | {:>13} | {:>13}",
        "publish path", "p50 ns", "p99 ns"
    );
    println!("  {:>12} | {cold_p50:>13} | {cold_p99:>13}", "cold");
    println!("  {:>12} | {inc_p50:>13} | {inc_p99:>13}", "incremental");
    obj(&[
        ("iters", iters.to_string()),
        ("inc_p50_ns", inc_p50.to_string()),
        ("inc_p99_ns", inc_p99.to_string()),
        ("cold_p50_ns", cold_p50.to_string()),
        ("cold_p99_ns", cold_p99.to_string()),
        ("speedup_p50", ratio(cold_p50 as f64, inc_p50 as f64)),
    ])
}

/// Figure 1: the map built from the §1 axioms, its knowledge chain, and
/// `dc(has_a)` against materializing `tc(has_a_star)` on generated
/// anatomies (the §4 "wasteful" claim).
fn figure1(_fast: bool) -> String {
    println!("Figure 1 — domain map for SYNAPSE and NCMIR");
    let dm = figures::figure1();
    let r = Resolved::new(&dm);
    let (concepts, edges) = (dm.concepts().count(), dm.edge_count());
    println!(
        "concepts: {concepts}   edges: {edges}   roles: {:?}",
        dm.roles()
    );
    println!("\nderived knowledge chain (the 'multiple worlds' bridge):");
    let mut inferable = 0;
    for (a, role, b) in [
        ("Purkinje_Cell", "has", "Spine"),
        ("Pyramidal_Cell", "has", "Spine"),
        ("Spine", "contains", "Ion_Binding_Protein"),
        ("Ion_Binding_Protein", "controls", "Ion_Activity"),
        ("Ion_Activity", "subprocess_of", "Neurotransmission"),
    ] {
        let na = dm.lookup(a).unwrap();
        let nb = dm.lookup(b).unwrap();
        let holds = r.dc_pairs(role).contains(&(na, nb));
        inferable += usize::from(holds);
        println!(
            "  {a:<22} --{role:>14}--> {b:<24} {}",
            if holds { "inferable" } else { "MISSING" }
        );
    }
    let dc = r.dc_pairs("has").len();
    let tc = r.tc_of_dc("has").len();
    println!("\ndc(has) = {dc} direct inferable links; materialized tc = {tc} links");
    println!("\n  anatomy size |  dc pairs | tc(dc) pairs | ratio");
    let anatomies = [(3usize, 3usize), (4, 3), (5, 3)].map(|(d, f)| {
        let big = figures::anatomy_generated(d, f, 2);
        let rr = Resolved::new(&big);
        let (nodes, dcn, tcn) = (
            big.node_count(),
            rr.dc_pairs("has_a").len(),
            rr.tc_of_dc("has_a").len(),
        );
        println!(
            "  {nodes:>12} | {dcn:>9} | {tcn:>12} | {:>5.1}x",
            tcn as f64 / dcn.max(1) as f64
        );
        obj(&[
            ("nodes", nodes.to_string()),
            ("dc_pairs", dcn.to_string()),
            ("tc_pairs", tcn.to_string()),
            ("ratio", ratio(tcn as f64, dcn as f64)),
        ])
    });
    obj(&[
        ("concepts", concepts.to_string()),
        ("edges", edges.to_string()),
        ("chain_inferable", inferable.to_string()),
        ("dc_has", dc.to_string()),
        ("tc_has", tc.to_string()),
        ("anatomies", arr(anatomies)),
    ])
}

/// Table 1: the six GCM core forms in FL syntax, and the closure axioms'
/// derived facts on growing class trees.
fn table1(_fast: bool) -> String {
    println!("Table 1 — GCM expressions in F-logic, with the closure axioms");
    let decls = [
        GcmDecl::Instance {
            obj: "x".into(),
            class: "c".into(),
        },
        GcmDecl::Subclass {
            sub: "c1".into(),
            sup: "c2".into(),
        },
        GcmDecl::Method {
            class: "c".into(),
            method: "m".into(),
            result: "cm".into(),
        },
        GcmDecl::MethodInst {
            obj: "x".into(),
            method: "m".into(),
            value: GcmValue::Id("y".into()),
        },
        GcmDecl::Relation {
            name: "r".into(),
            roles: vec![("a1".into(), "c1".into()), ("a2".into(), "c2".into())],
        },
        GcmDecl::RelationInst {
            name: "r".into(),
            values: vec![
                ("a1".into(), GcmValue::Id("x1".into())),
                ("a2".into(), GcmValue::Id("x2".into())),
            ],
        },
    ];
    println!("{:<34} | FL syntax", "GCM expression");
    println!("{:-<34}-+----------------------------", "");
    for d in &decls {
        let gcm = match d {
            GcmDecl::Instance { obj, class } => format!("instance({obj},{class})"),
            GcmDecl::Subclass { sub, sup } => format!("subclass({sub},{sup})"),
            GcmDecl::Method {
                class,
                method,
                result,
            } => format!("method({class},{method},{result})"),
            GcmDecl::MethodInst { obj, method, value } => {
                format!("methodinst({obj},{method},{value})")
            }
            GcmDecl::Relation { name, roles } => format!(
                "relation({name},{})",
                roles
                    .iter()
                    .map(|(a, c)| format!("{a}={c}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            GcmDecl::RelationInst { name, values } => format!(
                "relationinst({name},{})",
                values
                    .iter()
                    .map(|(a, v)| format!("{a}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            GcmDecl::Rule { .. } => "rule".into(),
        };
        println!("{gcm:<34} | {}", d.to_fl());
    }
    println!("\n  classes | closure-eval facts | min ns");
    let trees = [4usize, 6, 8].map(|depth| {
        let fl = class_tree_flogic(depth, 2);
        let facts = fl.run().expect("runs").facts.len();
        let ns = min_ns(3, || {
            black_box(fl.run().expect("runs").facts.len());
        });
        let classes = 2usize.pow(depth as u32 + 1) - 1;
        println!("  {classes:>7} | {facts:>18} | {ns}");
        obj(&[
            ("classes", classes.to_string()),
            ("facts", facts.to_string()),
            ("min_ns", ns.to_string()),
        ])
    });
    obj(&[("class_trees", arr(trees))])
}

/// Figure 2: the scenario's sources registered through four formalisms,
/// materialized and evaluated.
fn figure2(_fast: bool) -> String {
    println!("Figure 2 — the model-based mediator architecture at work");
    let mut m = build_scenario(&ScenarioParams::default());
    let registered = m.federation().sources();
    println!("registered {} sources:", registered.len());
    for s in registered {
        println!(
            "  {:<10} formalism={:<5} classes={:?}",
            s.name,
            s.wrapper.formalism(),
            s.classes
        );
    }
    let sources = registered.len();
    let formalisms = (registered.iter())
        .map(|s| s.wrapper.formalism())
        .collect::<BTreeSet<_>>()
        .len();
    let rows = m.materialize_all().expect("materializes");
    let facts = m.run().expect("evaluates").facts.len();
    println!("\nmaterialized {rows} rows; evaluated model: {facts} facts");
    obj(&[
        ("sources", sources.to_string()),
        ("formalisms", formalisms.to_string()),
        ("rows", rows.to_string()),
        ("model_facts", facts.to_string()),
    ])
}

/// Examples 2 & 3: the partial-order denials on a corrupted order.
fn example2(_fast: bool) -> String {
    println!("Examples 2 & 3 — integrity constraints with failure witnesses");
    let (nodes, missing) = (8, 4);
    let base = corrupted_order(nodes, missing);
    let ws = base.witnesses(&base.run().expect("runs"));
    let count = |kind: &str| ws.iter().filter(|w| w.starts_with(kind)).count();
    let (wrc, wtc, was) = (count("wrc("), count("wtc("), count("was("));
    println!("corrupted order ({nodes} nodes, {missing} missing transitive edges, 1 cycle):");
    println!("  reflexivity witnesses (wrc): {wrc}");
    println!("  transitivity witnesses (wtc): {wtc}");
    println!("  antisymmetry witnesses (was): {was}");
    for w in ws.iter().take(3) {
        println!("    ic <- {w}");
    }
    obj(&[
        ("nodes", nodes.to_string()),
        ("missing", missing.to_string()),
        ("wrc", wrc.to_string()),
        ("wtc", wtc.to_string()),
        ("was", was.to_string()),
    ])
}

/// Figure 3: the map before and after the `MyNeuron` / `MyDendrite`
/// registration, what follows for `MyNeuron`, and the nonmonotonic
/// override at the instance level.
fn figure3(_fast: bool) -> String {
    println!("Figure 3 — registering MyNeuron / MyDendrite");
    let base = figures::figure3_base();
    let full = figures::figure3();
    let (base_concepts, base_edges) = (base.concepts().count(), base.edge_count());
    let (concepts, edges) = (full.concepts().count(), full.edge_count());
    println!("base map: {base_concepts} concepts, {base_edges} edges");
    println!("after registration: {concepts} concepts, {edges} edges");
    let r = Resolved::new(&full);
    let mn = full.lookup("MyNeuron").unwrap();
    println!("\nderived for MyNeuron:");
    let mut subconcepts = 0;
    for target in ["Medium_Spiny_Neuron", "Spiny_Neuron", "Neuron"] {
        let holds = r.is_subconcept(mn, full.lookup(target).unwrap());
        subconcepts += usize::from(holds);
        println!("  MyNeuron :: {target:<22} {holds}");
    }
    let gpe = full.lookup("Globus_Pallidus_External").unwrap();
    let definite = r.dc_pairs("proj").contains(&(mn, gpe));
    println!("  MyNeuron --proj--> Globus_Pallidus_External (definite): {definite}");
    let mut fl = FLogic::with_inheritance();
    fl.load("m1 : msn. m2 : msn. m1[proj -> gpe_only].")
        .unwrap();
    fl.load_datalog("default(msn, proj, pallidal_target).")
        .unwrap();
    let model = fl.run().unwrap();
    let e = fl.engine();
    let proj = |o: &str| {
        let v = e
            .query_model(&model, &format!("val({o}, proj, V)"))
            .unwrap();
        e.show(&v[0][2])
    };
    let (m1, m2) = (proj("m1"), proj("m2"));
    println!("\nnonmonotonic inheritance (defaults with override):");
    println!("  m1 (explicit) projects to: {m1}");
    println!("  m2 (default)  projects to: {m2}");
    obj(&[
        ("base_concepts", base_concepts.to_string()),
        ("base_edges", base_edges.to_string()),
        ("concepts", concepts.to_string()),
        ("edges", edges.to_string()),
        ("my_neuron_subconcepts", subconcepts.to_string()),
        ("definite_gpe_projection", definite.to_string()),
        ("m1_proj", q(&m1)),
        ("m2_proj", q(&m2)),
    ])
}

/// §5: the four-step plan on the scenario, source selection with the
/// semantic index on and off as noise sources grow, the plan against
/// materializing everything, and Example 4's distribution.
fn sec5(_fast: bool) -> String {
    println!("§5 — the KIND query plan");
    let schema = NeuroSchema::default();
    let q5 = section5_query();
    let mut m = build_scenario(&ScenarioParams::default());
    let trace = run_section5(&mut m, &schema, &q5, true).expect("plan runs");
    println!("step 1: receiving pairs {:?}", trace.step1_pairs);
    println!(
        "step 2: {} candidates -> {:?} (semantic index)",
        trace.candidate_sources, trace.selected_sources
    );
    println!(
        "step 3: {} rows retrieved, proteins {:?}",
        trace.step3_rows, trace.proteins
    );
    println!("step 4: lub root = {:?}", trace.root);
    println!("\n  {:<20} {:<20} {:>7}", "protein", "concept", "total");
    for d in &trace.distribution {
        println!("  {:<20} {:<20} {:>7}", d.protein, d.concept, d.total);
    }
    println!(
        "\nplan: {} wrapper queries, {} rows shipped",
        trace.stats.source_queries, trace.stats.rows_shipped
    );

    println!("\nsource-selection ablation (rows shipped as noise sources grow):");
    println!("  noise sources | index ON queries/rows | index OFF queries/rows");
    let noise = [0usize, 4, 8, 16].map(|noise| {
        let params = ScenarioParams {
            noise_sources: noise,
            noise_rows: 100,
            ..Default::default()
        };
        let on = run_section5(&mut build_scenario(&params), &schema, &q5, true)
            .expect("plan runs")
            .stats;
        let off = run_section5(&mut build_scenario(&params), &schema, &q5, false)
            .expect("plan runs")
            .stats;
        println!(
            "  {noise:>13} | {:>9}/{:<11} | {:>10}/{}",
            on.source_queries, on.rows_shipped, off.source_queries, off.rows_shipped
        );
        obj(&[
            ("noise_sources", noise.to_string()),
            ("on_queries", on.source_queries.to_string()),
            ("on_rows", on.rows_shipped.to_string()),
            ("off_queries", off.source_queries.to_string()),
            ("off_rows", off.rows_shipped.to_string()),
        ])
    });

    // The plan against the materialize-everything baseline: rows each
    // side pulls from the sources, and the minimum wall time of each.
    let params = ScenarioParams {
        noise_sources: 8,
        noise_rows: 200,
        ncmir_rows: 200,
        senselab_rows: 200,
        synapse_rows: 200,
        ..Default::default()
    };
    let mut p = build_scenario(&params);
    let plan_rows = run_section5(&mut p, &schema, &q5, true)
        .expect("plan runs")
        .stats
        .rows_shipped;
    let plan_ns = min_ns(10, || {
        black_box(run_section5(&mut p, &schema, &q5, true).expect("plan runs"));
    });
    let mut all = build_scenario(&params);
    let mut materialized_rows = 0;
    let materialize_ns = min_ns(5, || {
        all.invalidate();
        materialized_rows = all.materialize_all().expect("materializes");
        black_box(all.run().expect("evaluates").facts.len());
    });
    println!(
        "\nplan vs materialize-everything (8 noise sources, 200 rows each): {plan_rows} rows in {plan_ns} ns vs {materialized_rows} rows in {materialize_ns} ns"
    );

    println!("\nExample 4: protein_distribution(Ryanodine_Receptor, Cerebellum):");
    let dist = protein_distribution(&mut m, &schema, "Ryanodine_Receptor", "Cerebellum")
        .expect("view evaluates");
    for (concept, total) in &dist {
        println!("  {concept:<22} {total:>7}");
    }
    obj(&[
        ("candidate_sources", trace.candidate_sources.to_string()),
        ("selected_sources", trace.selected_sources.len().to_string()),
        ("step3_rows", trace.step3_rows.to_string()),
        ("source_queries", trace.stats.source_queries.to_string()),
        ("rows_shipped", trace.stats.rows_shipped.to_string()),
        ("distribution_rows", trace.distribution.len().to_string()),
        ("noise", arr(noise)),
        ("plan_rows_shipped", plan_rows.to_string()),
        ("plan_ns", plan_ns.to_string()),
        ("materialized_rows", materialized_rows.to_string()),
        ("materialize_ns", materialize_ns.to_string()),
        ("example4_concepts", dist.len().to_string()),
    ])
}

/// The evaluation pipeline as baseline-vs-optimized pairs, minimum wall
/// time of each: warm domain-map closure memos, the warm §5 plan, and a
/// repeated `answer()` with join reorder, indexes and the base cache all
/// off against the defaults.
fn pipeline(fast: bool) -> String {
    let iters = if fast { 5 } else { 25 };
    let plan_iters = iters.min(10);
    let (depth, fanout) = if fast { (4usize, 3usize) } else { (5, 3) };
    let mut rows: Vec<(&str, u128, u128)> = Vec::new();

    // Closure memoization: a fresh `Resolved` per call against the warm
    // memo tables every mediator query hits after the first.
    let dm = figures::anatomy_generated(depth, fanout, 2);
    let root = dm.lookup("Nervous_System").unwrap();
    let warm = Resolved::new(&dm);
    warm.downward_closure("has_a", root);
    let base = min_ns(iters, || {
        black_box(Resolved::new(&dm).downward_closure("has_a", root).len());
    });
    let opt = min_ns(iters, || {
        black_box(warm.downward_closure("has_a", root).len());
    });
    rows.push(("fig1_downward_closure_warm", base, opt));

    // The §5 plan: a fresh mediator per call (construction untimed) with
    // the evaluation layers ablated, against a repeat call on a warm
    // mediator with the defaults.
    let (schema, q5, params) = (NeuroSchema::default(), section5_query(), bench_params(fast));
    let ablated = EvalOptions {
        join_reorder: false,
        use_index: false,
        base_cache: false,
        ..Default::default()
    };
    let base = (0..plan_iters)
        .map(|_| {
            let mut m = build_scenario(&params);
            m.set_eval_options(ablated.clone());
            let t = Instant::now();
            black_box(run_section5(&mut m, &schema, &q5, true).unwrap().step3_rows);
            t.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration");
    let mut m_on = build_scenario(&params);
    run_section5(&mut m_on, &schema, &q5, true).unwrap();
    let opt = min_ns(plan_iters, || {
        black_box(
            run_section5(&mut m_on, &schema, &q5, true)
                .unwrap()
                .step3_rows,
        );
    });
    rows.push(("sec5_query_plan_warm", base, opt));

    // Repeated `answer()`, both sides primed by one untimed call.
    let answer_ns = |opts: EvalOptions| {
        let mut m = build_scenario(&params);
        m.set_eval_options(opts);
        m.answer(CALCIUM_SITES).unwrap();
        min_ns(plan_iters, || {
            black_box(m.answer(CALCIUM_SITES).unwrap().rows.len());
        })
    };
    let base = answer_ns(ablated.clone());
    let opt = answer_ns(EvalOptions::default());
    rows.push(("sec5_warm_answer", base, opt));

    println!(
        "  {:<28} | {:>14} | {:>14} | {:>8}",
        "pair", "baseline ns", "optimized ns", "speedup"
    );
    let rows = rows.into_iter().map(|(name, b, o)| {
        println!(
            "  {name:<28} | {b:>14} | {o:>14} | {:>7.2}x",
            b as f64 / o.max(1) as f64
        );
        obj(&[
            ("name", q(name)),
            ("baseline_ns", b.to_string()),
            ("optimized_ns", o.to_string()),
            ("speedup", ratio(b as f64, o as f64)),
        ])
    });
    obj(&[("samples", iters.to_string()), ("rows", arr(rows))])
}

/// One ablation, as its `BENCH.json` field: `setup(on)` prepares one side
/// of the toggle and returns the call to measure. Each side records the
/// `EvalStats` of its first call (the priming call where a cache is
/// involved) and the minimum wall time of `iters` more.
fn toggle<C: FnMut() -> EvalStats>(
    name: &'static str,
    iters: usize,
    mut setup: impl FnMut(bool) -> C,
) -> (&'static str, String) {
    let mut side = |on: bool| {
        let mut call = setup(on);
        let s = call();
        let ns = min_ns(iters, || {
            black_box(call());
        });
        println!(
            "  {name:<28} {:>3} | {:>7} | {:>12} | {:>10} | {:>6} / {:>6} / {:>6} | {ns:>10}",
            if on { "on" } else { "off" },
            s.derived,
            s.applications,
            s.iterations,
            s.index_builds,
            s.index_hits,
            s.index_misses,
        );
        obj(&[counters(&s), vec![("min_ns", ns.to_string())]].concat())
    };
    let off = side(false);
    (name, obj(&[("off", off), ("on", side(true))]))
}

/// The engine's design choices, each toggle off and on, as `EvalStats`
/// beside the minimum wall time: the counters repeat exactly from run to
/// run where a millisecond call's wall clock on a shared host does not.
fn ablations(fast: bool) -> String {
    let iters = if fast { 3 } else { 10 };
    let params = bench_params(fast);
    let (nodes, edges) = if fast { (60, 120) } else { (120, 240) };
    let run = |e: &Engine, opts: &EvalOptions| e.run(opts).expect("evaluates").stats;
    println!(
        "  {:<28} {:>3} | {:>7} | {:>12} | {:>10} | index builds/hits/misses | {:>10}",
        "toggle", "", "derived", "applications", "iterations", "min ns"
    );
    let mut rows = Vec::new();

    // Semi-naive vs naive fixpoint on transitive closure.
    let tc = &tc_workload(nodes, edges, 11);
    let semi_naive = |on| {
        let opts = EvalOptions {
            semi_naive: on,
            ..Default::default()
        };
        move || run(tc, &opts)
    };
    rows.push(toggle("semi_naive", iters, semi_naive));

    // A stratified complement program, then the same with a negative
    // 2-cycle over a one-node island: the alternating fixpoint runs for
    // the cycle's stratum only.
    let negative_cycle = |on| {
        let mut e = Engine::new();
        for i in 0..300 {
            e.load(&format!("node(n{i}).")).expect("fact loads");
            if i % 3 == 0 {
                e.load(&format!("marked(n{i}).")).expect("fact loads");
            }
        }
        e.load("unmarked(X) :- node(X), not marked(X).")
            .expect("rule loads");
        if on {
            e.load(
                "island(i1).
                 p(X) :- island(X), not q(X).
                 q(X) :- island(X), not p(X).",
            )
            .expect("cycle loads");
        }
        move || run(&e, &EvalOptions::default())
    };
    rows.push(toggle("negative_cycle", iters, negative_cycle));

    // Figure 1's edges executed as integrity constraints (off) or as
    // skolem assertions (on), over fifty neurons with no compartments.
    let dm = figures::figure1();
    let resolved = Resolved::new(&dm);
    let assertion_mode = |on| {
        let mode = if on {
            ExecMode::Assertion
        } else {
            ExecMode::Constraint
        };
        let mut fl = FLogic::new();
        fl.load_datalog(DM_OPS_RULES).expect("DM rules load");
        fl.load(&rules::compile(&dm, &resolved, mode).text)
            .expect("compiled map loads");
        for i in 0..50 {
            fl.load(&format!("n{i} : \"Neuron\".")).expect("data loads");
        }
        move || fl.run().expect("evaluates").stats
    };
    rows.push(toggle("assertion_mode", iters, assertion_mode));

    // Join indexes on vs full scans, on a TC whose recursive rule joins on
    // a bound first argument.
    let tc = &tc_workload(80, 160, 5);
    let use_index = |on| {
        let opts = EvalOptions {
            use_index: on,
            ..Default::default()
        };
        move || run(tc, &opts)
    };
    rows.push(toggle("use_index", iters, use_index));

    // Join reorder and the base-model cache under a repeated
    // `Mediator::answer`, in two states: nothing loaded (the fetched rows
    // are new to `inst`, so the strata above it run again) and
    // materialized (the rows are in the cached model already).
    let reorder: fn(&mut EvalOptions, bool) = |o, on| o.join_reorder = on;
    let cache: fn(&mut EvalOptions, bool) = |o, on| o.base_cache = on;
    for (name, materialized, set) in [
        ("join_reorder_on_demand", false, reorder),
        ("join_reorder_materialized", true, reorder),
        ("base_cache_on_demand", false, cache),
        ("base_cache_materialized", true, cache),
    ] {
        let answer = |on| {
            let mut m = build_scenario(&params);
            let mut opts = m.eval_options().clone();
            set(&mut opts, on);
            m.set_eval_options(opts);
            if materialized {
                m.materialize_all().expect("scenario materializes");
            }
            move || m.answer(CALCIUM_SITES).expect("answers").stats
        };
        rows.push(toggle(name, iters, answer));
    }
    block(&rows)
}

/// A §5-style FL knowledge base shaped like Figure 1's taxonomy: a
/// forest of `subtrees` class chains of `depth` levels under one root,
/// with `per_class` measured objects at every class — the stratified
/// fragment (CORE axioms only) where the magic rewrite applies. Full
/// materialization derives every object's upward instance cone across
/// all subtrees; a query anchored at one subtree's root only needs that
/// subtree's cone.
fn magic_flogic_fixture(subtrees: usize, depth: usize, per_class: usize) -> FLogic {
    let mut fl = FLogic::new();
    let mut text = String::new();
    for s in 0..subtrees {
        text.push_str(&format!("t{s}_0 :: thing.\n"));
        for l in 1..depth {
            text.push_str(&format!("t{s}_{l} :: t{s}_{}.\n", l - 1));
        }
        for l in 0..depth {
            for j in 0..per_class {
                text.push_str(&format!("o_{s}_{l}_{j} : t{s}_{l}.\n"));
                text.push_str(&format!(
                    "o_{s}_{l}_{j}[amount -> {}].\n",
                    (s * 13 + l * 29 + j * 17) % 100
                ));
            }
        }
    }
    fl.load(&text).expect("fixture loads");
    fl
}

/// Magic-sets ablation. The first two rows run on the stratified FL
/// fixture through `run_for_query` (the engine path `answer()` takes):
/// the *selective* query anchors at one subtree's root class, so demand
/// covers only that subtree's instance cone; the *wide* query anchors at
/// the forest root, whose cone is the whole closure — the honest no-win
/// case. The last row is the warm mediator `answer()` on the full
/// scenario: its skolem guards negate through `inst`, which every class
/// literal of the query reads, so a stratum the answer rebuilds is
/// well-founded, the rewrite is not attempted (`magic_fired` false) and
/// both sides do the same work: the two times differ only by the host.
fn magic_sets(fast: bool) -> String {
    use kind_datalog::{Atom, Term, Var};
    let params = bench_params(fast);
    let iters = if fast { 3 } else { 10 };
    let (subtrees, depth, per_class) = if fast { (6, 4, 3) } else { (12, 6, 6) };
    // (name, off ns, on ns, off derived, on derived, fired, declined)
    let mut out = Vec::new();
    for (name, class) in [
        ("magic_selective_anchor", "t0_0"),
        ("magic_wide_closure", "thing"),
    ] {
        let view = format!("hot(X, A) :- X : {class}, X[amount -> A], A >= 50.");
        let side = |magic_sets: bool| {
            let mut fl = magic_flogic_fixture(subtrees, depth, per_class);
            fl.load(&view).expect("view loads");
            let goal = Atom::new(
                fl.engine().lookup("hot").expect("view head interned"),
                vec![Term::Var(Var(0)), Term::Var(Var(1))],
            );
            let opts = EvalOptions {
                magic_sets,
                ..Default::default()
            };
            move || fl.run_for_query(&goal, None, &opts).unwrap()
        };
        let (mut off, mut on) = (side(false), side(true));
        let (off_ns, on_ns) = min_ns_pair(iters, &mut off, &mut on);
        let (off, on) = (off(), on());
        out.push((
            name,
            off_ns,
            on_ns,
            off.stats.derived,
            on.stats.derived,
            on.profile.magic_fired,
            on.profile.magic_declined,
        ));
    }
    // Mediator answer on the scenario with a negation-cyclic stratum: the
    // answer rebuilds it, so the rewrite is not attempted and both sides
    // do the same work. Both mediators are built and primed with one
    // untimed call before either is timed, and the timed calls alternate
    // between them, so the numbers are second-and-later (base-cache warm)
    // query cost and the ratio is one up to host noise.
    let aq = r#"calcium_at_spine(P, A) :- X : protein_amount, X[protein_name -> P],
        X[amount -> A], X[ion_bound -> "calcium"], X[location -> "Purkinje_Spine"]."#;
    let side = |magic_sets: bool| {
        let mut m = build_scenario(&ScenarioParams {
            magic_sets,
            ..params.clone()
        });
        m.answer(aq).unwrap();
        move || m.answer(aq).unwrap()
    };
    let (mut off, mut on) = (side(false), side(true));
    let (off_ns, on_ns) = min_ns_pair(iters, &mut off, &mut on);
    let (off, on) = (off(), on());
    // The rewrite is refused structurally (a rebuilt stratum is
    // well-founded), not by the cost model.
    out.push((
        "magic_answer_wfs_fallback",
        off_ns,
        on_ns,
        off.stats.derived,
        on.stats.derived,
        on.magic_fired,
        false,
    ));
    println!(
        "  {:>26} | {:>12} | {:>12} | {:>11} | {:>11} | {:>9} | {:>8}",
        "query", "off ns", "on ns", "off derived", "on derived", "reduction", "declined"
    );
    let rows = out.into_iter().map(|(name, off_ns, on_ns, off, on, fired, declined)| {
        println!(
            "  {name:>26} | {off_ns:>12} | {on_ns:>12} | {off:>11} | {on:>11} | {:>8.2}x | {declined:>8}",
            off as f64 / on.max(1) as f64
        );
        obj(&[
            ("name", q(name)),
            ("off_ns", off_ns.to_string()),
            ("on_ns", on_ns.to_string()),
            ("wall_speedup", ratio(off_ns as f64, on_ns as f64)),
            ("off_derived", off.to_string()),
            ("on_derived", on.to_string()),
            ("derived_reduction", ratio(off as f64, on as f64)),
            ("magic_fired", fired.to_string()),
            ("magic_declined", declined.to_string()),
        ])
    });
    obj(&[("rows", arr(rows))])
}

/// Repeated `answer()` calls against a source with a seeded slow tail
/// (most fetches are instant, a small fraction stall for `delay_ms`),
/// measured in **virtual** milliseconds via `AnswerReport::elapsed_ms` —
/// so the percentiles are deterministic and machine-independent. The
/// hedged side races one backup attempt after `hedge_after_ms`; because
/// the backup re-rolls the seeded tail, a stalled primary is almost
/// always rescued and the p99 collapses toward the hedge threshold.
fn tail_latency(fast: bool) -> String {
    let runs = if fast { 60 } else { 200 };
    let (delay_ms, slow_per_mille, hedge_after_ms) = (500u64, 50u16, 50u64);
    let tq = r#"nt_used(N) :- X : neurotransmission, X[neurotransmitter -> N]."#;
    println!(
        "{runs} runs, SlowTail {delay_ms}ms at {slow_per_mille}‰, hedge after {hedge_after_ms}ms, virtual time"
    );
    println!(
        "  {:>9} | {:>7} | {:>7} | {:>7} | {:>7}",
        "policy", "p50 ms", "p99 ms", "max ms", "hedged"
    );
    let measure = |name: &str, hedge: bool| {
        let (mut m, _inj) = build_scenario_with_faults(
            &ScenarioParams::default(),
            vec![Fault::SlowTail {
                seed: 2001,
                delay_ms,
                slow_per_mille,
            }],
        );
        if hedge {
            m.federation_mut().set_source_policy(
                "SENSELAB",
                SourcePolicy::with_hedge_after_ms(hedge_after_ms),
            );
        }
        let mut elapsed: Vec<u64> = Vec::with_capacity(runs);
        let mut hedged = 0usize;
        for _ in 0..runs {
            let ans = m.answer(tq).expect("tail query runs");
            elapsed.push(ans.report.elapsed_ms);
            hedged += ans.report.source("SENSELAB").map_or(0, |s| s.hedged);
        }
        elapsed.sort_unstable();
        let (p50, p99, max) = (
            elapsed[runs / 2],
            elapsed[runs * 99 / 100],
            elapsed[runs - 1],
        );
        println!("  {name:>9} | {p50:>7} | {p99:>7} | {max:>7} | {hedged:>7}");
        obj(&[
            ("p50_ms", p50.to_string()),
            ("p99_ms", p99.to_string()),
            ("max_ms", max.to_string()),
            ("hedged", hedged.to_string()),
        ])
    };
    obj(&[
        ("runs", runs.to_string()),
        ("delay_ms", delay_ms.to_string()),
        ("slow_per_mille", slow_per_mille.to_string()),
        ("hedge_after_ms", hedge_after_ms.to_string()),
        ("no_hedge", measure("no hedge", false)),
        ("hedge", measure("hedge", true)),
    ])
}

/// One `cold_federation` op of the frozen benchmark (its 16 sources and,
/// in full mode, its row counts) phase by phase — `invalidate` +
/// `materialize_all`, the cold `run`, the §5 plan — with the cold run's
/// counters. `materialize_all` is split as well, each part timed on its
/// own: the `rebuild` an invalidated base pays first (a clone of the
/// compiled knowledge, which only a knowledge change recompiles), the
/// fetch of every (source, class) scan (`fetch_parallel`), and the load,
/// which is `materialize_all` on a freshly rebuilt base less the fetch.
fn cold_path(fast: bool) -> String {
    let sized = ScenarioParams {
        senselab_rows: 400,
        ncmir_rows: 600,
        synapse_rows: 400,
        noise_rows: 300,
        ..Default::default()
    };
    let params = ScenarioParams {
        noise_sources: 12,
        ..if fast { bench_params(true) } else { sized }
    };
    let mut m = build_scenario(&params);
    let (schema, q5) = (NeuroSchema::default(), section5_query());
    let requests: Vec<FetchRequest> = m
        .federation_mut()
        .sources()
        .iter()
        .flat_map(|s| s.classes.iter().map(|c| FetchRequest::scan(&*s.name, &**c)))
        .collect();
    let (mut rows, mut stats, mut min_us) = (0, EvalStats::default(), [u128::MAX; 6]);
    for _ in 0..if fast { 3 } else { 20 } {
        let mut lap = Instant::now();
        let mut phase = |i: usize| {
            min_us[i] = min_us[i].min(lap.elapsed().as_micros());
            lap = Instant::now();
        };
        m.invalidate();
        rows = m.materialize_all().expect("scenario materializes");
        phase(0);
        stats = m.run().expect("cold run").stats;
        phase(1);
        black_box(
            run_section5(&mut m, &schema, &q5, true)
                .expect("plan")
                .step3_rows,
        );
        phase(2);
        m.invalidate();
        m.rebuild().expect("scenario rebuilds");
        phase(3);
        black_box(m.federation_mut().fetch_parallel(&requests).expect("fetch"));
        phase(4);
        m.invalidate();
        m.rebuild().expect("scenario rebuilds");
        phase(3);
        black_box(m.materialize_all().expect("scenario materializes"));
        phase(5);
    }
    let load_us = min_us[5].saturating_sub(min_us[4]);
    let json = obj(&[
        vec![
            ("sources", "16".to_string()),
            ("rows", rows.to_string()),
            ("materialize_us", min_us[0].to_string()),
            ("rebuild_us", min_us[3].to_string()),
            ("fetch_us", min_us[4].to_string()),
            ("load_us", load_us.to_string()),
            ("run_us", min_us[1].to_string()),
            ("section5_us", min_us[2].to_string()),
        ],
        counters(&stats),
    ]
    .concat());
    println!("per op on 16 sources (minimum of its runs):\n  {json}");
    json
}

/// The `EvalStats` and strata of the scenario's cold base model.
fn eval_stats(fast: bool) -> String {
    let mut m = build_scenario(&bench_params(fast));
    let model = m.run().expect("base model evaluates");
    let strata = model.profile.strata.len();
    let skipped = model.profile.strata.iter().filter(|p| p.skipped).count();
    let json = obj(&[
        counters(&model.stats),
        vec![
            ("strata", strata.to_string()),
            ("strata_skipped", skipped.to_string()),
        ],
    ]
    .concat());
    println!("  {json}");
    json
}
