//! The row load's memory is sized by the rows it writes. A fetched
//! batch's reserve once assumed every row carries as many attribute
//! values as its first row, so one wide first row in a schema-less source
//! (nothing bounds how many values a row carries) made `materialize_all`
//! reserve rows × width dedup slots: 2 048 rows under a 2 048-value first
//! row raised the peak resident set by about 64 MiB. This file holds one
//! test so that the process's high-water mark is this load's alone. It
//! reads `VmHWM` from `/proc/self/status`, so it runs on Linux only.
#![cfg(target_os = "linux")]

use kind_core::{Anchor, Capability, Mediator, MemoryWrapper};
use kind_dm::{figures, ExecMode};
use kind_gcm::GcmValue;
use std::sync::Arc;

const ROWS: usize = 2048;
const FIRST_ROW_VALUES: usize = 2048;

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line")
}

/// A schema-less source whose first row carries `FIRST_ROW_VALUES`
/// values and every other row one.
fn wide_first_row() -> Arc<MemoryWrapper> {
    let mut w = MemoryWrapper::new("WIDE");
    w.caps.push(Capability {
        class: "spines".into(),
        pushable: vec![],
    });
    w.anchor_decls.push(Anchor::Fixed {
        class: "spines".into(),
        concept: "Spine".into(),
    });
    let wide = (0..FIRST_ROW_VALUES)
        .map(|v| ("value", GcmValue::Int(v as i64)))
        .collect();
    w.add_row("spines", "s0", wide);
    for i in 1..ROWS {
        w.add_row(
            "spines",
            &format!("s{i}"),
            vec![("value", GcmValue::Int(0))],
        );
    }
    Arc::new(w)
}

#[test]
fn a_wide_first_row_does_not_size_the_load() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(wide_first_row()).unwrap();
    let before = peak_rss_kib();
    let loaded = m.materialize_all().unwrap();
    let rise = peak_rss_kib().saturating_sub(before);
    assert_eq!(loaded, ROWS);
    let fl = m.base().flogic();
    let mi = fl
        .engine()
        .edb()
        .relation(fl.preds().mi)
        .map_or(0, |r| r.len());
    assert_eq!(mi, FIRST_ROW_VALUES + ROWS - 1);
    assert!(
        rise < 16 * 1024,
        "materialize_all raised the peak resident set by {rise} KiB \
         for {ROWS} rows and {} values",
        FIRST_ROW_VALUES + ROWS - 1
    );
}
