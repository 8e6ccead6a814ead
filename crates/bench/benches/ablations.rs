//! **Ablations** of the engine-level design choices called out in
//! DESIGN.md:
//!
//! 1. semi-naive vs. naive fixpoint on transitive-closure workloads;
//! 2. a stratified program with and without a negation-cyclic stratum
//!    (the alternating fixpoint) bolted on;
//! 3. domain-map edge execution: constraint vs. assertion mode;
//! 4. the first-column join index on vs. off;
//! 5. SIP join reordering on vs. off, and
//! 6. the base-model cache on vs. off, both under a repeated
//!    `Mediator::answer` on the §5 scenario (`report`'s
//!    `sec5_warm_answer` row ablates them only together with the index).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kind_bench::tc_workload;
use kind_datalog::{Engine, EvalOptions};
use kind_dm::{figures, rules, ExecMode, Resolved, DM_OPS_RULES};
use kind_flogic::FLogic;
use kind_sources::{build_scenario, ScenarioParams};
use std::hint::black_box;

fn bench_seminaive_vs_naive(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fixpoint");
    g.sample_size(10);
    for (n, edges) in [(30usize, 60usize), (60, 120), (120, 240)] {
        let e = tc_workload(n, edges, 11);
        g.bench_with_input(BenchmarkId::new("semi_naive", edges), &e, |b, e| {
            b.iter(|| black_box(e.run(&EvalOptions::default()).unwrap().stats.derived))
        });
        g.bench_with_input(BenchmarkId::new("naive", edges), &e, |b, e| {
            b.iter(|| {
                black_box(
                    e.run(&EvalOptions {
                        semi_naive: false,
                        ..Default::default()
                    })
                    .unwrap()
                    .stats
                    .derived,
                )
            })
        });
    }
    g.finish();
}

/// The same complement computation written stratified (negation over an
/// EDB predicate) and with a gratuitous negative cycle bolted on: the
/// alternating fixpoint runs for the cycle's stratum only, so the second
/// run costs the first plus that stratum.
fn bench_stratified_vs_wfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_wfs");
    g.sample_size(10);
    let facts: String = (0..300)
        .map(|i| {
            format!(
                "node(n{i}). {}",
                if i % 3 == 0 {
                    format!("marked(n{i}).")
                } else {
                    String::new()
                }
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut strat = Engine::new();
    strat.load(&facts).unwrap();
    strat
        .load("unmarked(X) :- node(X), not marked(X).")
        .unwrap();
    g.bench_function("stratified_path", |b| {
        b.iter(|| black_box(strat.run(&EvalOptions::default()).unwrap().facts.len()))
    });
    let mut wfs = Engine::new();
    wfs.load(&facts).unwrap();
    wfs.load(
        "unmarked(X) :- node(X), not marked(X).
         % a two-literal negative cycle over a tiny island: its stratum,
         % and nothing else, runs the alternating fixpoint.
         island(i1).
         p(X) :- island(X), not q(X).
         q(X) :- island(X), not p(X).",
    )
    .unwrap();
    g.bench_function("alternating_fixpoint_path", |b| {
        b.iter(|| black_box(wfs.run(&EvalOptions::default()).unwrap().facts.len()))
    });
    g.finish();
}

fn bench_exec_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_exec_mode");
    g.sample_size(10);
    let dm = figures::figure1();
    // Fifty neurons with no compartments: constraint mode reports
    // witnesses; assertion mode invents placeholders.
    let data: String = (0..50)
        .map(|i| format!("n{i} : \"Neuron\"."))
        .collect::<Vec<_>>()
        .join("\n");
    for (label, mode) in [
        ("constraint", ExecMode::Constraint),
        ("assertion", ExecMode::Assertion),
    ] {
        let prog = rules::compile(&dm, &Resolved::new(&dm), mode);
        let mut fl = FLogic::new();
        fl.load_datalog(DM_OPS_RULES).unwrap();
        fl.load(&prog.text).unwrap();
        fl.load(&data).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| black_box(fl.run().unwrap().facts.len()))
        });
    }
    g.finish();
}

/// First-column join index on vs. off (full scans), on a TC workload
/// where the recursive rule joins on a bound first argument.
fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_join_index");
    g.sample_size(10);
    let e = tc_workload(80, 160, 5);
    g.bench_function("index_on", |b| {
        b.iter(|| black_box(e.run(&EvalOptions::default()).unwrap().stats.derived))
    });
    g.bench_function("index_off", |b| {
        b.iter(|| {
            black_box(
                e.run(&EvalOptions {
                    use_index: false,
                    ..Default::default()
                })
                .unwrap()
                .stats
                .derived,
            )
        })
    });
    g.finish();
}

/// One `EvalOptions` toggle on and off under a repeated
/// `Mediator::answer` on the §5 scenario: each iteration fetches the
/// rule's class and evaluates the rule on a scratch clone of the base.
/// Two states, because they differ: `on_demand` (nothing loaded — the
/// fetched rows are new to `inst`, so the strata above it run again) and
/// `materialized` (the rows are in the published model already). One
/// untimed priming call each, so a cached model is warm where one is used;
/// its `EvalStats` are printed beside the timing.
fn bench_answer_toggle(c: &mut Criterion, group: &str, set: fn(&mut EvalOptions, bool)) {
    let rule = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                  X[location -> L], X[ion_bound -> "calcium"]."#;
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    for materialized in [false, true] {
        for on in [true, false] {
            let mut m = build_scenario(&ScenarioParams::default());
            let mut opts = m.eval_options().clone();
            set(&mut opts, on);
            m.set_eval_options(opts);
            if materialized {
                m.materialize_all().unwrap();
            }
            let state = if materialized {
                "materialized"
            } else {
                "on_demand"
            };
            let id = BenchmarkId::new(state, if on { "on" } else { "off" });
            // The priming call's counters: the same every run, where the
            // wall clock of a 2-3 ms call on a shared host is not.
            println!("stats {group}/{id}: {:?}", m.answer(rule).unwrap().stats);
            g.bench_function(id, |b| {
                b.iter(|| black_box(m.answer(rule).unwrap().rows.len()))
            });
        }
    }
    g.finish();
}

fn bench_join_reorder(c: &mut Criterion) {
    bench_answer_toggle(c, "ablation_join_reorder", |o, on| o.join_reorder = on);
}

fn bench_base_cache(c: &mut Criterion) {
    bench_answer_toggle(c, "ablation_base_cache", |o, on| o.base_cache = on);
}

criterion_group!(
    benches,
    bench_seminaive_vs_naive,
    bench_stratified_vs_wfs,
    bench_exec_modes,
    bench_index,
    bench_join_reorder,
    bench_base_cache
);
criterion_main!(benches);
