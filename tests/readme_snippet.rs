//! Keeps the README's fault-tolerance snippet honest: the same calls, in
//! the same order, as the README shows.

use kind::core::{Capability, Fault, FaultInjector, Mediator, MemoryWrapper, SourceOutcome};
use kind::dm::{DomainMap, ExecMode};
use kind::gcm::GcmValue;
use std::sync::Arc;

#[test]
fn readme_fault_tolerance_snippet() {
    let mut med = Mediator::new(DomainMap::new(), ExecMode::Assertion);
    let mut lab = MemoryWrapper::new("FLAKY");
    lab.caps.push(Capability {
        class: "cells".into(),
        pushable: vec![],
    });
    lab.add_row("cells", "c1", vec![("volume", GcmValue::Int(7))]);
    let flaky =
        FaultInjector::new(Arc::new(lab), med.federation().clock()).with_fault(Fault::FailFirst(2));
    med.register(Arc::new(flaky)).unwrap();
    med.materialize_all().unwrap();
    let report = med.report();
    assert!(report.is_complete());
    assert_eq!(
        report.source("FLAKY").unwrap().outcome,
        SourceOutcome::Retried { retries: 2 }
    );
    println!("{}", report.summary());
}
