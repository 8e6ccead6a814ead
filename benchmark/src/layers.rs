//! Layer measurements taken from outside: timed calls into each layer's
//! public functions, and the single-threaded in-process replay of a
//! workload's ops with a span around every such call. Where a step is
//! reachable only through private code, the nearest public call is timed
//! and the rest stays in the parent span's self time.

use crate::loadgen::{render_line, OpKind, Request};
use crate::oracle::{update_rows, Oracle, ANSWER_RULES, SELECTIVE_RULE};
use crate::span::{NameTotals, Tracer};
use crate::stats::{mean, median};
use crate::workload::Layers;
use kind_datalog::EvalStats;
use kind_server::wire::{obj, Json};
use kind_sources::{build_scenario, ScenarioParams};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Where the traced run writes its spans.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{workload}.jsonl"))
}

/// Wall time of `f` in microseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e6, out)
}

/// Median over `reps` timings of `f`, in microseconds.
pub fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).0).collect();
    median(&samples)
}

/// The reply the server builds for a row-returning op, as far as the
/// public wire types allow reproducing it.
fn rows_reply(id: u64, epoch: u64, op: &'static str, rows: &[Vec<String>]) -> Json {
    obj([
        ("id", Json::int(id)),
        ("ok", Json::Bool(true)),
        ("epoch", Json::int(epoch)),
        ("queue_us", Json::int(0)),
        ("eval_us", Json::int(0)),
        ("op", Json::str(op)),
        ("row_count", Json::int(rows.len() as u64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Replays one served request in process: parse the request line, pin the
/// hub's snapshot, evaluate, render the reply. Returns the reply length.
pub fn replay_request(t: &mut Tracer, oracle: &Oracle, id: u64, request: &Request) -> usize {
    let mut line = Vec::with_capacity(request.tail.len() + 16);
    render_line(&mut line, id, &request.tail);
    let line = String::from_utf8(line).expect("request lines are UTF-8");
    t.next_op();
    let op_span = match request.kind {
        OpKind::Ping => "op.ping",
        OpKind::Point => "op.point",
        OpKind::Scan => "op.scan",
        OpKind::Answer => "op.answer",
        OpKind::Plan => "op.plan",
    };
    t.span(op_span, |t| {
        let parsed = t.span("wire.parse_req", |_| Json::parse(line.trim_end()));
        black_box(parsed.expect("request parses"));
        let pinned = t
            .span("hub.load", |_| oracle.hub.load())
            .expect("oracle hub is published");
        let epoch = pinned.epoch();
        let reply = match request.kind {
            OpKind::Ping => t.span("wire.render_ping", |_| {
                obj([
                    ("id", Json::int(id)),
                    ("ok", Json::Bool(true)),
                    ("epoch", Json::int(epoch)),
                    ("op", Json::str("ping")),
                ])
                .to_string()
            }),
            OpKind::Point | OpKind::Scan => {
                let (eval, render) = if request.kind == OpKind::Point {
                    ("snapshot.point", "wire.render_point")
                } else {
                    ("snapshot.scan", "wire.render_scan")
                };
                let rows = t
                    .span(eval, |_| pinned.query_fl_rendered(&request.text))
                    .expect("replayed query");
                t.span(render, |_| {
                    rows_reply(id, epoch, "query_fl", &rows).to_string()
                })
            }
            OpKind::Answer => {
                let eval = if request.text == ANSWER_RULES[SELECTIVE_RULE] {
                    "snapshot.answer_selective"
                } else {
                    "snapshot.answer"
                };
                let answer = t
                    .span(eval, |_| {
                        pinned.answer_with(&request.text, pinned.eval_options())
                    })
                    .expect("replayed answer");
                t.span("wire.render_answer", |_| {
                    rows_reply(id, epoch, "answer", &answer.rows).to_string()
                })
            }
            OpKind::Plan => {
                let trace = t
                    .span("snapshot.plan", |_| {
                        pinned.run_section5(&oracle.schema, &oracle.fetched)
                    })
                    .expect("replayed plan");
                t.span("wire.render_plan", |_| {
                    obj([
                        ("id", Json::int(id)),
                        ("ok", Json::Bool(true)),
                        ("epoch", Json::int(epoch)),
                        ("op", Json::str("plan")),
                        (
                            "root",
                            trace.root.clone().map(Json::Str).unwrap_or(Json::Null),
                        ),
                        (
                            "distribution_rows",
                            Json::int(trace.distribution.len() as u64),
                        ),
                        ("report", Json::str(trace.report.summary_line())),
                    ])
                    .to_string()
                })
            }
        };
        black_box(reply).len()
    })
}

/// Replays one write in process: load five fresh NCMIR rows, publish,
/// pin the new epoch and do the first read against it (which pays for the
/// indexes the new model rebuilds lazily).
pub fn replay_publish(t: &mut Tracer, oracle: &mut Oracle, batch: usize) {
    let rows = update_rows(batch);
    let probe = format!("\"NCMIR.{}\"[amount -> A]", rows[0].id);
    t.next_op();
    t.span("op.publish", |t| {
        for row in &rows {
            t.span("mediator.load_row", |_| {
                oracle.mediator.load_row("NCMIR", "protein_amount", row)
            })
            .expect("replayed load_row");
        }
        t.span("mediator.publish", |_| {
            oracle.mediator.publish().map(|_| ())
        })
        .expect("replayed publish");
        let pinned = t
            .span("hub.load", |_| oracle.hub.load())
            .expect("oracle hub is published");
        let read = t
            .span("snapshot.first_read_after_publish", |_| {
                pinned.query_fl_rendered(&probe)
            })
            .expect("replayed read");
        assert_eq!(read.len(), 1, "the published row is readable");
    });
}

/// Runs `replay` once untimed, then `rounds` times each with spans off and
/// on, alternating. Returns the median time per op with spans off (µs),
/// the tracing overhead in percent (median on over median off), and the
/// last recording.
pub fn replay_both_ways(
    ops: u64,
    rounds: usize,
    mut replay: impl FnMut(&mut Tracer),
) -> (f64, f64, Tracer) {
    replay(&mut Tracer::new(false));
    let (mut off_us, mut on_us) = (Vec::new(), Vec::new());
    let mut recording = Tracer::new(true);
    for _ in 0..rounds {
        off_us.push(timed(|| replay(&mut Tracer::new(false))).0);
        recording = Tracer::new(true);
        on_us.push(timed(|| replay(&mut recording)).0);
    }
    let (off, on) = (median(&off_us), median(&on_us));
    (off / ops as f64, (on - off) / off * 100.0, recording)
}

/// Per-name totals of a recording.
pub type SpanTotals = std::collections::BTreeMap<&'static str, NameTotals>;

/// Sets `metric` to the mean duration of the spans called `span`, if any
/// were recorded.
pub fn set_from_span(layers: &mut Layers, totals: &SpanTotals, metric: &'static str, span: &str) {
    if let Some(t) = totals.get(span) {
        layers.insert(metric, t.mean_us());
    }
}

/// Prints the per-span table and writes the spans to
/// `out/trace-<workload>.jsonl`.
pub fn report_trace(workload: &str, tracer: &Tracer, totals: &SpanTotals) {
    print_span_table(workload, totals);
    let path = trace_path(workload);
    tracer.write_jsonl(&path).expect("write trace");
    eprintln!(
        "[{workload}] {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
}

/// Prints each span name's count, mean and self time — the per-layer
/// table of the traced run.
fn print_span_table(workload: &str, totals: &SpanTotals) {
    eprintln!("[{workload}] traced replay, per span name:");
    eprintln!(
        "  {:<36} {:>8} {:>12} {:>12}",
        "span", "count", "mean_us", "self_us"
    );
    for (name, t) in totals {
        eprintln!(
            "  {:<36} {:>8} {:>12.2} {:>12.2}",
            name,
            t.count,
            t.mean_us(),
            t.self_ns as f64 / t.count as f64 / 1e3
        );
    }
}

/// `wire.*` probes that do not come out of the replay: the server's own
/// parser on one wide reply.
pub fn probe_wire(oracle: &Oracle, layers: &mut Layers) {
    let snapshot = oracle.snapshot();
    let rows = snapshot
        .query_fl_rendered(crate::oracle::SCAN_PATTERN)
        .expect("scan");
    let reply = rows_reply(1, snapshot.epoch(), "query_fl", &rows).to_string();
    layers.insert(
        "wire.parse_64k_us",
        median_us(3, || Json::parse(&reply).expect("reply parses")),
    );
}

/// `gcm.*`, `flogic.*` and `datalog.*`: what one `answer` pays before and
/// during evaluation, and the evaluator's deterministic work counters
/// summed over one cycle of the six rules.
pub fn probe_answer_path(oracle: &Oracle, layers: &mut Layers) {
    let snapshot = oracle.snapshot();
    layers.insert(
        "gcm.base_clone_us",
        median_us(9, || snapshot.base().clone()),
    );
    let mut parse = Vec::new();
    let mut load = Vec::new();
    for rule in ANSWER_RULES {
        parse.push(median_us(25, || {
            kind_flogic::parse_fl_program(rule, &mut kind_datalog::Interner::new())
        }));
        let mut samples = Vec::new();
        for _ in 0..5 {
            let mut work = snapshot.base().clone();
            samples.push(timed(|| work.flogic_mut().load(rule).expect("rule loads")).0);
        }
        load.push(median(&samples));
    }
    layers.insert("flogic.parse_rule_us", mean(&parse));
    layers.insert("flogic.load_rule_us", mean(&load));
    let mut total = EvalStats::default();
    let mut rows = 0usize;
    for rule in ANSWER_RULES {
        let answer = snapshot
            .answer_with(rule, snapshot.eval_options())
            .expect("oracle answer");
        add_stats(&mut total, &answer.stats);
        rows += answer.rows.len();
    }
    set_datalog(layers, &total, rows);
}

pub fn add_stats(total: &mut EvalStats, s: &EvalStats) {
    total.iterations += s.iterations;
    total.derived += s.derived;
    total.applications += s.applications;
    total.index_builds += s.index_builds;
    total.index_hits += s.index_hits;
    total.index_misses += s.index_misses;
}

/// `rows` is what the evaluation was for: answer rows returned, or facts
/// loaded for a cold run of the whole base.
pub fn set_datalog(layers: &mut Layers, s: &EvalStats, rows: usize) {
    layers.insert("datalog.derived", s.derived as f64);
    layers.insert("datalog.applications", s.applications as f64);
    layers.insert("datalog.iterations", s.iterations as f64);
    layers.insert("datalog.index_builds", s.index_builds as f64);
    layers.insert("datalog.index_hits", s.index_hits as f64);
    layers.insert("datalog.index_misses", s.index_misses as f64);
    layers.insert(
        "datalog.derived_per_row",
        s.derived as f64 / rows.max(1) as f64,
    );
}

/// `sources.build_scenario_us`: registering every wrapper of the scenario.
pub fn probe_build_scenario(params: &ScenarioParams, layers: &mut Layers) {
    layers.insert(
        "sources.build_scenario_us",
        median_us(3, || build_scenario(params)),
    );
}

/// The host the numbers came from, and the cost of recording spans.
pub fn set_host(layers: &mut Layers, trace_overhead_pct: f64) {
    layers.insert("host.nproc", crate::procfs::host_cpus() as f64);
    layers.insert("trace.overhead_pct", trace_overhead_pct);
}
