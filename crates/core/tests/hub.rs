//! `SnapshotHub` contracts under concurrency: loads are never torn or
//! stale-after-load, pinned epochs serve bit-identical answers through
//! any number of publishes, and old epochs live exactly as long as
//! their last reader.

use kind_core::{
    Anchor, Capability, Mediator, MemoryWrapper, ObjectRow, QuerySnapshot, SnapshotHub,
};
use kind_datalog::EvalOptions;
use kind_dm::{figures, ExecMode};
use kind_gcm::GcmValue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread;

fn spine_wrapper(name: &str, n: usize) -> Arc<MemoryWrapper> {
    let mut w = MemoryWrapper::new(name);
    w.caps.push(Capability {
        class: "spines".into(),
        pushable: vec![],
    });
    w.anchor_decls.push(Anchor::Fixed {
        class: "spines".into(),
        concept: "Spine".into(),
    });
    for i in 0..n {
        w.add_row(
            "spines",
            &format!("{name}r{i}"),
            vec![("len", GcmValue::Int(i as i64))],
        );
    }
    Arc::new(w)
}

fn row(id: &str) -> ObjectRow {
    ObjectRow {
        id: id.into(),
        attrs: vec![("len".into(), GcmValue::Int(99))],
    }
}

/// Readers hammering `load()` while the writer publishes a growing base:
/// every loaded snapshot must be internally consistent — the row count
/// it serves equals the row count its epoch was published with — and
/// epochs observed per reader are monotone (no stale-after-load: once a
/// reader saw epoch N, it never loads < N).
#[test]
fn concurrent_readers_never_observe_torn_or_stale_snapshots() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", 3)).unwrap();
    m.materialize_all().unwrap();
    let hub = m.hub();
    m.publish_snapshot().unwrap();

    const PUBLISHES: usize = 12;
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (hub, done) = (&hub, &done);
                s.spawn(move || {
                    let mut last_epoch = 0;
                    let mut loads = 0_usize;
                    while !done.load(Ordering::Relaxed) {
                        let pinned = hub.load().expect("seeded before spawn");
                        let epoch = pinned.epoch();
                        assert!(
                            epoch >= last_epoch,
                            "stale after load: saw {last_epoch}, then {epoch}"
                        );
                        last_epoch = epoch;
                        // Consistency: epoch k was published with 3 + (k-1)
                        // rows. A torn slot would break this equation.
                        let rows = pinned.query_fl("X : spines").unwrap().len();
                        assert_eq!(
                            rows as u64,
                            3 + (epoch - 1),
                            "epoch {epoch} serving a foreign row count"
                        );
                        loads += 1;
                    }
                    loads
                })
            })
            .collect();
        for i in 0..PUBLISHES {
            m.load_row("A", "spines", &row(&format!("w{i}"))).unwrap();
            m.publish().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never loaded");
        }
    });
    assert_eq!(hub.epoch(), 1 + PUBLISHES as u64);
}

/// A request pinned before a publish keeps serving answers bit-identical
/// to its own epoch — in-flight work is isolated from the writer.
#[test]
fn publish_during_inflight_requests_leaves_pinned_answers_bit_identical() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", 4)).unwrap();
    m.materialize_all().unwrap();
    let hub = m.hub();
    m.publish_snapshot().unwrap();

    let pinned = hub.load().unwrap();
    let rule = "long_spines(X, L) :- X : spines, X[len -> L], L >= 2.";
    let before_rows = pinned.answer(rule).unwrap();
    let before_fl = pinned.query_fl_rendered("X : spines").unwrap();

    // The writer publishes twice while the request is "in flight".
    m.load_row("A", "spines", &row("mid1")).unwrap();
    m.publish().unwrap();
    m.load_row("A", "spines", &row("mid2")).unwrap();
    m.publish().unwrap();
    assert_eq!(hub.epoch(), 3);

    // The pinned snapshot answers exactly as before the publishes ...
    assert_eq!(pinned.answer(rule).unwrap(), before_rows);
    assert_eq!(pinned.query_fl_rendered("X : spines").unwrap(), before_fl);
    assert_eq!(pinned.epoch(), 1);
    // ... while a fresh load sees both new rows (len 99 >= 2).
    let fresh = hub.load().unwrap();
    assert_eq!(fresh.epoch(), 3);
    assert_eq!(fresh.answer(rule).unwrap().len(), before_rows.len() + 2);
}

/// Superseded epochs stay alive while any reader pins them and are
/// reclaimed when the last pin drops (plain `Arc` reclamation — pin
/// lifetime IS epoch lifetime).
#[test]
fn old_epochs_live_until_their_last_reader_drops() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", 2)).unwrap();
    m.materialize_all().unwrap();
    let hub = m.hub();
    m.publish_snapshot().unwrap();

    let pin_a = hub.load().unwrap();
    let pin_b = pin_a.clone();
    let weak: Weak<_> = Arc::downgrade(pin_a.shared());

    // Supersede the epoch twice over.
    m.load_row("A", "spines", &row("x")).unwrap();
    m.publish().unwrap();
    m.load_row("A", "spines", &row("y")).unwrap();
    m.publish().unwrap();

    assert!(weak.upgrade().is_some(), "pinned epoch reclaimed too early");
    drop(pin_a);
    assert!(weak.upgrade().is_some(), "one pin still outstanding");
    assert_eq!(pin_b.query_fl("X : spines").unwrap().len(), 2);
    drop(pin_b);
    assert!(
        weak.upgrade().is_none(),
        "superseded epoch must be reclaimed with its last pin"
    );
}

/// The hub used the way the server uses it: worker threads pinning per
/// "request" while another thread publishes — all served answers must
/// match the row count of the epoch they report.
#[test]
fn server_shaped_usage_pins_each_request_to_one_epoch() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", 5)).unwrap();
    m.materialize_all().unwrap();
    let hub = m.hub();
    m.publish_snapshot().unwrap();

    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (hub, done) = (&hub, &done);
                s.spawn(move || {
                    let mut served = 0_usize;
                    while !done.load(Ordering::Relaxed) {
                        // One "request": pin, evaluate, respond.
                        let pinned = hub.load().unwrap();
                        let epoch = pinned.epoch();
                        let rows = pinned.query_fl_rendered("X : spines").unwrap();
                        assert_eq!(rows.len() as u64, 5 + (epoch - 1));
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        for i in 0..8 {
            m.load_row("A", "spines", &row(&format!("srv{i}"))).unwrap();
            m.publish().unwrap();
            thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
        for w in workers {
            assert!(w.join().unwrap() > 0);
        }
    });
}

/// Consecutive snapshots share one base clone for as long as the base
/// stands still — reads and knob flips included — and every write, once
/// a publish has consumed it, shows up as a new base that holds it.
#[test]
fn snapshots_share_one_base_until_a_publish_consumes_a_write() {
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", 3)).unwrap();
    m.materialize_all().unwrap();
    let quiet = m.snapshot().unwrap();
    assert!(std::ptr::eq(quiet.base(), m.snapshot().unwrap().base()));
    m.answer("long(X) :- X : spines, X[len -> L], L >= 1.")
        .unwrap();
    m.query_fl("X : spines").unwrap();
    m.set_eval_options(EvalOptions {
        magic_sets: false,
        ..m.eval_options().clone()
    });
    assert!(
        std::ptr::eq(quiet.base(), m.snapshot().unwrap().base()),
        "a read or a knob flip cost a base clone"
    );

    // (stored facts, rules) of a snapshot's base.
    let size = |s: &QuerySnapshot| {
        let e = s.base().flogic().engine();
        (e.edb().len(), e.rules().len())
    };
    // `last` stays alive across the comparison, so a new base cannot
    // reuse its address.
    let mut last = quiet;
    let mut written = |m: &mut Mediator, what: &str| {
        m.publish().unwrap();
        let next = m.snapshot().unwrap();
        assert!(
            !std::ptr::eq(last.base(), next.base()),
            "{what}: stale base"
        );
        let sizes = (size(&next), size(&last));
        last = next;
        sizes
    };
    m.load_row("A", "spines", &row("extra")).unwrap();
    let (after, before) = written(&mut m, "load_row");
    assert_eq!(after, (before.0 + 2, before.1), "inst + one mi");
    assert_eq!(m.retract_row("A", "spines", &row("extra")).unwrap(), 2);
    let (after, before) = written(&mut m, "retract_row");
    assert_eq!(after, (before.0 - 2, before.1));
    m.define_view("long(X) :- X : spines, X[len -> L], L >= 1.")
        .unwrap();
    let (after, before) = written(&mut m, "define_view");
    assert_eq!(after, (before.0, before.1 + 1));
    // The domain map is untouched and the base current: the fast path.
    m.register(spine_wrapper("B", 1)).unwrap();
    let (after, before) = written(&mut m, "register");
    assert!(after.0 > before.0, "no `anchored` fact for B");
}

/// A standalone hub (no mediator) is just an epoch-counted slot: install
/// and load compose from any thread.
#[test]
fn standalone_hub_is_send_sync_and_epoch_monotone() {
    let hub = Arc::new(SnapshotHub::new());
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    m.register(spine_wrapper("A", 1)).unwrap();
    m.materialize_all().unwrap();
    let snap = m.snapshot().unwrap();
    let hub2 = Arc::clone(&hub);
    let t = thread::spawn(move || hub2.install(snap));
    assert_eq!(t.join().unwrap(), 1);
    assert_eq!(hub.load().unwrap().epoch(), 1);
}
