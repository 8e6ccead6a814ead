//! Fault-tolerant federation: the §5 query under injected source faults.
//!
//! SENSELAB is wrapped in a [`FaultInjector`] and subjected, in turn, to
//! a transient outage (absorbed by retries), a hard outage (partial
//! answer, flagged incomplete), a tripped circuit breaker (skipped
//! without being contacted), and seeded row corruption (quarantined
//! against its declared conceptual model). Everything is deterministic:
//! faults follow seeded schedules and time is a virtual clock.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use kind::core::{
    run_section5, Anchor, BreakerConfig, Capability, Fault, FaultInjector, FetchRequest, Mediator,
    MemoryWrapper, NeuroSchema, RetryPolicy, Section5Query, SourcePolicy, StallAware, Wrapper,
};
use kind::dm::{figures, ExecMode};
use kind::gcm::GcmValue;
use kind::sources::{build_scenario_with_faults, ScenarioParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn query() -> Section5Query {
    Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    }
}

fn main() {
    let params = ScenarioParams::default();
    let schema = NeuroSchema::default();

    println!("== transient outage: SENSELAB fails twice, retries absorb it ==");
    let (mut med, injector) = build_scenario_with_faults(&params, vec![Fault::FailFirst(2)]);
    let trace = run_section5(&mut med, &schema, &query(), true).expect("plan runs");
    println!(
        "  wrapper calls: {} (2 failures + 1 success)",
        injector.calls()
    );
    println!("  distribution rows: {}", trace.distribution.len());
    println!("  report: {}", trace.report.summary());
    assert!(trace.report.is_complete());

    println!("\n== hard outage: SENSELAB down past the retry budget ==");
    let (mut med, _injector) =
        build_scenario_with_faults(&params, vec![Fault::FailFirst(u32::MAX)]);
    let trace = run_section5(&mut med, &schema, &query(), true).expect("plan still runs");
    println!(
        "  distribution rows: {} (partial answer)",
        trace.distribution.len()
    );
    println!("  complete: {}", trace.report.is_complete());
    println!("  report: {}", trace.report.summary());
    assert!(!trace.report.is_complete());

    println!("\n== circuit breaker: repeated failures stop the hammering ==");
    let (mut med, injector) = build_scenario_with_faults(&params, vec![Fault::EveryKth(1)]);
    med.federation_mut().set_source_policy(
        "SENSELAB",
        SourcePolicy {
            retry: RetryPolicy::none(),
            timeout_ms: 0,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 1_000,
            },
            ..SourcePolicy::default()
        },
    );
    // Two failed plan runs trip the breaker; the third is refused
    // without the wrapper ever being contacted.
    let _ = run_section5(&mut med, &schema, &query(), true).expect("plan runs");
    let _ = run_section5(&mut med, &schema, &query(), true).expect("plan runs");
    let calls_tripped = injector.calls();
    let _ = run_section5(&mut med, &schema, &query(), true).expect("plan runs");
    println!(
        "  breaker state: {:?}; wrapper calls while open: {}",
        med.federation().breaker_state("SENSELAB").unwrap(),
        injector.calls() - calls_tripped
    );
    med.federation().clock().advance_ms(1_000);
    let _ = run_section5(&mut med, &schema, &query(), true).expect("plan runs");
    println!(
        "  after cooldown: half-open trial contacted the source ({} calls total)",
        injector.calls()
    );

    println!("\n== deadline: a slow source is cut off, the answer degrades ==");
    let (mut med, _injector) =
        build_scenario_with_faults(&params, vec![Fault::Slow { delay_ms: 500 }]);
    med.federation_mut().set_query_budget_ms(200);
    let trace = run_section5(&mut med, &schema, &query(), true).expect("plan degrades, not aborts");
    println!("  report: {}", trace.report.summary_line());
    assert!(trace.report.deadline_exceeded());
    assert!(!trace.report.is_complete());

    println!("\n== hedge: a backup attempt races the slow tail, answer stays complete ==");
    let (mut med, injector) = build_scenario_with_faults(
        &params,
        vec![Fault::SlowTail {
            seed: 7,
            delay_ms: 400,
            slow_per_mille: 500,
        }],
    );
    med.federation_mut()
        .set_source_policy("SENSELAB", SourcePolicy::with_hedge_after_ms(50));
    let mut hedged_total = 0;
    for _ in 0..6 {
        let trace = run_section5(&mut med, &schema, &query(), true).expect("plan runs");
        let sl = trace.report.source("SENSELAB").expect("contacted");
        hedged_total += sl.hedged;
        assert!(trace.report.is_complete(), "hedged answers stay complete");
    }
    println!(
        "  6 runs: {hedged_total} hedged backups, {} wrapper calls total",
        injector.calls()
    );
    assert!(hedged_total > 0, "the seeded slow tail triggers hedges");

    println!("\n== chaos: seeded row corruption quarantined against the CM ==");
    let (mut med, _injector) = build_scenario_with_faults(
        &params,
        vec![Fault::CorruptRows {
            seed: 9,
            corrupt_per_mille: 300,
        }],
    );
    med.materialize_all()
        .expect("materialization degrades, not aborts");
    let report = med.report();
    println!("  report: {}", report.summary());
    for q in report.quarantined.iter().take(5) {
        println!(
            "  quarantined {}/{} row `{}`: {}",
            q.source, q.class, q.row_id, q.reason
        );
    }
    println!("\n== overlapped fetch: 32 stalling sources without 32 threads ==");
    overlapped_slow_tail_demo();

    println!("ok");
}

/// A federation of 32 independent sources, each stalling `stall` of real
/// wall time per contact (a network round-trip) and carrying a seeded
/// virtual-time latency tail. `hedge` arms a 50ms hedge threshold.
fn slow_tail_federation(hedge: bool, stall: Duration) -> Mediator {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    if hedge {
        m.federation_mut()
            .set_default_policy(SourcePolicy::with_hedge_after_ms(50));
    }
    for s in 0..32usize {
        let class = format!("c{s}");
        let mut w = MemoryWrapper::new(format!("S{s}"));
        w.caps.push(Capability {
            class: class.clone(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.clone(),
            concept: "Spine".into(),
        });
        w.add_row(
            &class,
            &format!("s{s}"),
            vec![("value", GcmValue::Int(s as i64))],
        );
        let stalled = StallAware::new(Arc::new(w), stall);
        let injector = Arc::new(
            FaultInjector::new(stalled, m.federation().clock()).with_fault(Fault::SlowTail {
                seed: 40 + s as u64,
                delay_ms: 400,
                slow_per_mille: 40,
            }),
        );
        injector.disarm();
        m.register(Arc::clone(&injector) as Arc<dyn Wrapper>)
            .expect("slow-tail source registers");
        injector.arm();
    }
    m
}

/// Hedging collapses the *virtual-time* p99 (the seeded tail is
/// re-rolled by the backup attempt), while the fetch executor collapses
/// the *thread* footprint — all 32 wall stalls park on timers instead of
/// each pinning a worker.
fn overlapped_slow_tail_demo() {
    let requests: Vec<FetchRequest> = (0..32)
        .map(|s| FetchRequest::scan(format!("S{s}"), format!("c{s}")))
        .collect();
    let percentile = |sorted: &[u64], p: f64| -> u64 {
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    };

    // Virtual-time tail, hedged vs. not: 8 rounds × 32 sources, one
    // charged-cost sample per fetch. A hedge charges only the winning
    // attempt, so the seeded 400ms tail collapses to the ~50ms it takes
    // the backup to answer.
    for hedge in [false, true] {
        let mut m = slow_tail_federation(hedge, Duration::from_millis(1));
        m.federation_mut().set_fetch_threads(4);
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..8 {
            for r in &requests {
                let set = m
                    .federation_mut()
                    .fetch_parallel(std::slice::from_ref(r))
                    .expect("fetch");
                assert!(set.is_complete());
                samples.push(set.report.elapsed_ms);
            }
        }
        samples.sort_unstable();
        println!(
            "  {} per-fetch virtual ms: p50 {:>3}, p99 {:>3}",
            if hedge { "hedged  " } else { "unhedged" },
            percentile(&samples, 0.50),
            percentile(&samples, 0.99),
        );
    }

    // Wall time and thread footprint: 32 × 5ms stalls, one at a time,
    // would be 160ms. Parked, they overlap — on the calling thread alone
    // or on 4 workers.
    for (label, workers) in [("1 worker ", 1usize), ("4 workers", 4)] {
        let mut m = slow_tail_federation(false, Duration::from_millis(5));
        m.federation_mut().set_fetch_threads(workers);
        m.federation_mut().reset_peak_fetch_threads();
        let start = Instant::now();
        let set = m.federation_mut().fetch_parallel(&requests).expect("fetch");
        let wall = start.elapsed();
        assert!(set.is_complete());
        println!(
            "  {label} peak fetch threads {:>2}",
            m.federation().peak_fetch_threads(),
        );
        // Wall clock differs run to run: stderr, so stdout repeats exactly.
        eprintln!("  {label} wall {:>5.1}ms", wall.as_secs_f64() * 1e3);
    }
    println!("  same rows, same reports — only wall clock and threads differ");
}
