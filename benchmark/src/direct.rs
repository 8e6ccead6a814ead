//! The two in-process workloads: direct calls into a standing `Mediator`
//! from one thread, no sockets.
//!
//! * `cold_federation` — the CPU-bound cold path over 16 zero-latency
//!   sources: `invalidate(); materialize_all(); run(); run_section5(..)`.
//! * `stalled_fetch` — the latency-bound fetch plane: `invalidate();
//!   materialize_all()` over 32 sources that each stall 10 ms, so the op
//!   is one stall plus scheduling.

use crate::layers::{self, median_us};
use crate::oracle::{cold_params, section5_query, Oracle};
use crate::procfs;
use crate::span::Tracer;
use crate::workload::{clamp_ns, Layers, Measured, Scale, WindowRecorder, Workload};
use kind_core::{
    run_section5, section5_eval, section5_fetch, Anchor, Capability, DistributionRow, FetchRequest,
    Mediator, MediatorStats, MemoryWrapper, NeuroSchema, StallAware,
};
use kind_datalog::EvalStats;
use kind_dm::{figures, ExecMode};
use kind_gcm::GcmValue;
use kind_sources::build_scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectKind {
    ColdFederation,
    StalledFetch,
}

impl DirectKind {
    pub fn name(self) -> &'static str {
        match self {
            DirectKind::ColdFederation => "cold_federation",
            DirectKind::StalledFetch => "stalled_fetch",
        }
    }

    /// Ops of the measured phase after which peak memory is read: a count
    /// every run reaches within its first few seconds.
    fn rss_at_ops(self) -> u64 {
        match self {
            DirectKind::ColdFederation => 80,
            DirectKind::StalledFetch => 300,
        }
    }

    fn warmup_ops(self) -> u64 {
        match self {
            DirectKind::ColdFederation => 8,
            DirectKind::StalledFetch => 45,
        }
    }
}

const STALLED_SOURCES: usize = 32;
const STALLED_ROWS_PER_SOURCE: usize = 8;
const STALL: Duration = Duration::from_millis(10);

/// What every op must reproduce, computed once from an independently
/// built mediator of the same seed.
struct Expected {
    loaded: usize,
    /// Cold path only: the §5 plan's outcome and the cold run's counters.
    root: Option<String>,
    selected_sources: Vec<String>,
    distribution: Vec<DistributionRow>,
    derived: usize,
}

/// What one op did, for checking and for the layer counters.
struct OpOutcome {
    loaded: usize,
    eval: Option<EvalStats>,
    candidate_sources: usize,
}

pub struct Direct {
    kind: DirectKind,
    seed: u64,
    scale: Scale,
    mediator: Mediator,
    schema: NeuroSchema,
    expected: Expected,
    /// `stalled_fetch` only: one scan per source, what its
    /// `materialize_all` fetches.
    scans: Vec<FetchRequest>,
}

fn stalled_mediator(seed: u64) -> (Mediator, Vec<FetchRequest>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57a1_1ed0);
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    let mut scans = Vec::new();
    for s in 0..STALLED_SOURCES {
        let class = format!("reading{s}");
        let name = format!("STALL{s}");
        scans.push(FetchRequest::scan(name.as_str(), class.as_str()));
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: class.clone(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.clone(),
            concept: "Spine".into(),
        });
        for r in 0..STALLED_ROWS_PER_SOURCE {
            w.add_row(
                &class,
                &format!("r{r}"),
                vec![("value", GcmValue::Int(rng.gen_range(0..1_000)))],
            );
        }
        m.register(StallAware::new(Arc::new(w), STALL))
            .expect("stalled source registers");
    }
    (m, scans)
}

impl Direct {
    /// Builds the standing mediator and the expectation, runs one checked
    /// op (the verification pass) and the fixed warm-up.
    pub fn setup(kind: DirectKind, seed: u64, scale: Scale) -> Direct {
        let schema = NeuroSchema::default();
        let (mediator, scans, expected) = match kind {
            DirectKind::ColdFederation => {
                let params = cold_params(seed);
                let mut reference = Oracle::build(&params);
                let trace = reference
                    .snapshot()
                    .run_section5(&reference.schema, &reference.fetched)
                    .expect("reference plan");
                reference.mediator.invalidate();
                let loaded = reference
                    .mediator
                    .materialize_all()
                    .expect("reference materializes");
                let derived = reference
                    .mediator
                    .run()
                    .expect("reference run")
                    .stats
                    .derived;
                let expected = Expected {
                    loaded,
                    root: trace.root,
                    selected_sources: trace.selected_sources,
                    distribution: trace.distribution,
                    derived,
                };
                (build_scenario(&params), Vec::new(), expected)
            }
            DirectKind::StalledFetch => {
                let (mediator, scans) = stalled_mediator(seed);
                let expected = Expected {
                    loaded: STALLED_SOURCES * STALLED_ROWS_PER_SOURCE,
                    root: None,
                    selected_sources: Vec::new(),
                    distribution: Vec::new(),
                    derived: 0,
                };
                (mediator, scans, expected)
            }
        };
        let mut direct = Direct {
            kind,
            seed,
            scale,
            mediator,
            schema,
            expected,
            scans,
        };
        for _ in 0..scale.ops(kind.warmup_ops()) {
            direct
                .op()
                .unwrap_or_else(|why| panic!("verification and warm-up: {why}"));
        }
        direct
    }

    /// One op of the workload, checked against the expectation.
    fn op(&mut self) -> Result<OpOutcome, String> {
        let m = &mut self.mediator;
        m.invalidate();
        let loaded = m.materialize_all().map_err(|e| e.to_string())?;
        if !m.report().is_complete() {
            return Err(format!("incomplete fetch: {}", m.report().summary_line()));
        }
        if loaded != self.expected.loaded {
            return Err(format!(
                "loaded {loaded} rows, expected {}",
                self.expected.loaded
            ));
        }
        if self.kind == DirectKind::StalledFetch {
            return Ok(OpOutcome {
                loaded,
                eval: None,
                candidate_sources: 0,
            });
        }
        let eval = m.run().map_err(|e| e.to_string())?.stats;
        let trace =
            run_section5(m, &self.schema, &section5_query(), true).map_err(|e| e.to_string())?;
        if eval.derived != self.expected.derived
            || trace.root != self.expected.root
            || trace.selected_sources != self.expected.selected_sources
            || trace.distribution != self.expected.distribution
        {
            return Err("cold run or section-5 plan differs from the reference".into());
        }
        Ok(OpOutcome {
            loaded,
            eval: Some(eval),
            candidate_sources: trace.candidate_sources,
        })
    }

    /// The same op with a span around each public call. The §5 plan is
    /// split into its fetch and evaluate halves, as the server does.
    fn traced_op(&mut self, t: &mut Tracer) {
        let (m, schema) = (&mut self.mediator, &self.schema);
        t.next_op();
        if self.kind == DirectKind::StalledFetch {
            t.span("op.stalled_fetch", |t| {
                m.invalidate();
                t.span("mediator.materialize", |_| m.materialize_all())
                    .expect("materialize");
            });
            return;
        }
        t.span("op.cold_federation", |t| {
            m.invalidate();
            t.span("mediator.materialize", |_| m.materialize_all())
                .expect("materialize");
            t.span("mediator.run_cold", |_| m.run().map(|_| ()))
                .expect("cold run");
            let (federation, knowledge) = m.fetch_eval_planes();
            let fetched = t
                .span("plan.section5_fetch", |_| {
                    section5_fetch(federation, knowledge, schema, &section5_query(), true)
                })
                .expect("section-5 fetch");
            t.span("plan.section5_eval", |_| {
                section5_eval(&knowledge.domain_view(), schema, &fetched)
            })
            .expect("section-5 eval");
        });
    }

    /// The fetch `stalled_fetch`'s `materialize_all` does inside, issued
    /// on its own: the private call cannot be wrapped in a span, so it is
    /// timed here as a separate op. (`cold_federation` leaves its fetch in
    /// `mediator.materialize`'s self time: nothing on the benchmark's API
    /// list names the scenario's sources.)
    fn traced_fetch(&mut self, t: &mut Tracer) {
        let (m, scans) = (&mut self.mediator, &self.scans);
        t.next_op();
        t.span("op.fetch_probe", |t| {
            let set = t
                .span("federation.fetch_parallel", |_| {
                    m.federation_mut().fetch_parallel(scans)
                })
                .expect("fetch_parallel");
            assert!(set.is_complete());
        });
    }
}

fn stats_delta(after: MediatorStats, before: MediatorStats) -> MediatorStats {
    MediatorStats {
        source_queries: after.source_queries - before.source_queries,
        rows_shipped: after.rows_shipped - before.rows_shipped,
        rows_kept: after.rows_kept - before.rows_kept,
        retries: after.retries - before.retries,
        failures: after.failures - before.failures,
    }
}

impl Workload for Direct {
    /// A stalled op is a 10 ms sleep plus a little CPU.
    fn sleep_bound(&self) -> bool {
        self.kind == DirectKind::StalledFetch
    }

    fn measure(&mut self, seconds: f64, _collect: bool) -> Measured {
        let mut measured = Measured::default();
        let mut peak_rss_mib = None;
        let cpu0 = procfs::process_cpu_us();
        let thread0 = procfs::thread_cpu_us();
        let mut recorder = WindowRecorder::start();
        let start = Instant::now();
        let mut now = start;
        while (now - start).as_secs_f64() < seconds {
            let outcome = self.op();
            let done = Instant::now();
            measured.attempted += 1;
            if measured.attempted == self.kind.rss_at_ops() {
                peak_rss_mib = Some(procfs::peak_rss_mib());
            }
            recorder.record(clamp_ns(done - now));
            now = recorder.at_cycle_boundary(done);
            if let Err(why) = outcome {
                measured.failures.fail(why);
            }
        }
        measured.elapsed_s = (now - start).as_secs_f64();
        measured.cpu_us = procfs::process_cpu_us() - cpu0;
        measured.loadgen_cpu_us = procfs::thread_cpu_us() - thread0;
        measured.peak_rss_mib = peak_rss_mib.unwrap_or_else(procfs::peak_rss_mib);
        measured.windows = recorder.finish();
        measured
    }

    fn layers(&mut self, measured: &Measured, out: &mut Layers) {
        let name = self.kind.name();
        out.insert(
            "loadgen.cpu_share",
            measured.loadgen_cpu_us / measured.cpu_us,
        );

        // Deterministic counters of one op.
        let before = self.mediator.stats();
        let outcome = self.op().expect("counted op");
        let delta = stats_delta(self.mediator.stats(), before);
        out.insert("federation.source_queries", delta.source_queries as f64);
        out.insert("federation.rows_shipped", delta.rows_shipped as f64);
        out.insert("federation.retries", delta.retries as f64);
        out.insert("federation.failures", delta.failures as f64);
        out.insert(
            "federation.peak_fetch_threads",
            self.mediator.federation_mut().peak_fetch_threads() as f64,
        );
        if let Some(eval) = &outcome.eval {
            layers::set_datalog(out, eval, outcome.loaded);
            out.insert("plan.candidate_sources", outcome.candidate_sources as f64);
            out.insert(
                "plan.selected_sources",
                self.expected.selected_sources.len() as f64,
            );
        }

        // The traced replay, spans off then on.
        let (ops, fetches) = match self.kind {
            DirectKind::ColdFederation => (5u64, 0u64),
            DirectKind::StalledFetch => (10, 10),
        };
        let rounds = self.scale.replay_rounds();
        let (_, overhead_pct, tracer) = layers::replay_both_ways(ops + fetches, rounds, |t| {
            for _ in 0..ops {
                self.traced_op(t);
            }
            for _ in 0..fetches {
                self.traced_fetch(t);
            }
        });
        let totals = crate::span::totals_by_name(tracer.spans());
        for (metric, span) in [
            ("mediator.materialize_us", "mediator.materialize"),
            ("mediator.run_cold_us", "mediator.run_cold"),
            ("plan.section5_fetch_us", "plan.section5_fetch"),
            ("plan.section5_eval_us", "plan.section5_eval"),
            ("federation.fetch_parallel_us", "federation.fetch_parallel"),
        ] {
            layers::set_from_span(out, &totals, metric, span);
        }
        if self.kind == DirectKind::StalledFetch {
            out.insert(
                "federation.stall_overlap",
                STALLED_SOURCES as f64 * STALL.as_secs_f64() * 1e6
                    / out["federation.fetch_parallel_us"],
            );
        } else {
            let op = totals["op.cold_federation"];
            let children = op.total_ns - op.self_ns;
            eprintln!(
                "[{name}] op span {:.1} us per op, its four child spans {:.1} us ({:.1} %)",
                op.mean_us(),
                children as f64 / op.count as f64 / 1e3,
                children as f64 / op.total_ns as f64 * 100.0
            );
            let m = &self.mediator;
            out.insert(
                "dm.select_sources_us",
                median_us(200, || {
                    m.select_sources(&["Purkinje_Cell", "Purkinje_Dendrite"])
                }),
            );
            out.insert(
                "dm.lub_us",
                median_us(200, || m.lub(&["Purkinje_Cell", "Purkinje_Dendrite"])),
            );
            layers::probe_build_scenario(&cold_params(self.seed), out);
        }
        layers::report_trace(name, &tracer, &totals);
        layers::set_host(out, overhead_pct);
    }

    fn teardown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_workloads_check_and_measure_at_smoke_size() {
        for kind in [DirectKind::ColdFederation, DirectKind::StalledFetch] {
            let mut direct = Direct::setup(kind, 5, Scale { divisor: 50 });
            let measured = direct.measure(0.2, true);
            assert_eq!(measured.failures.count, 0, "{:?}", measured.failures.first);
            assert!(measured.attempted >= 1);
            let mut out = Layers::new();
            direct.layers(&measured, &mut out);
            assert!(out["mediator.materialize_us"] > 0.0);
            assert_eq!(out["federation.failures"], 0.0);
            match kind {
                DirectKind::StalledFetch => {
                    assert_eq!(out["federation.source_queries"], 32.0);
                    assert_eq!(out["federation.rows_shipped"], 256.0);
                    assert!(out["federation.stall_overlap"] > 1.0);
                }
                DirectKind::ColdFederation => {
                    assert!(out["datalog.derived"] > 0.0);
                    assert_eq!(out["plan.selected_sources"], 1.0);
                    assert!(out["plan.candidate_sources"] > 1.0);
                }
            }
            direct.teardown();
        }
    }

    /// An op that loads the wrong number of rows is a failed op.
    #[test]
    fn a_wrong_row_count_fails_the_op() {
        let mut direct = Direct::setup(DirectKind::StalledFetch, 1, Scale { divisor: 50 });
        direct.expected.loaded += 1;
        assert!(direct.op().is_err());
    }
}
