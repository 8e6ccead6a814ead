//! The snapshot **publication plane**: one writer, many readers that wait
//! on it for a pointer swap at most.
//!
//! [`SnapshotHub`] is an epoch-counted, atomically-swappable slot holding
//! the *current* [`QuerySnapshot`]. It is the piece that turns the
//! snapshot machinery built so far (immutable `Send + Sync` snapshots,
//! structurally-shared republish) into a **serving plane**:
//!
//! * the [`crate::Mediator`] is the **single writer** — every
//!   [`crate::Mediator::publish`] installs the freshly published snapshot
//!   into the hub and bumps the epoch;
//! * readers call [`SnapshotHub::load`] and get a [`PinnedSnapshot`]: the
//!   snapshot plus the epoch it was published under. The slot is an
//!   `RwLock` around an `Arc` (the offline stand-in for the `arc-swap`
//!   crate): readers share the read lock, and the writer holds the write
//!   lock for a pointer swap and the epoch store only — the new snapshot
//!   is allocated before it, the previous one dropped after it;
//! * a request **pins** the snapshot it started on: however many
//!   publishes happen mid-request, the pinned epoch keeps serving exactly
//!   the state it captured, and the old snapshot's memory is reclaimed
//!   when the last pin drops (plain `Arc` reclamation — no epoch GC to
//!   administer).
//!
//! The hub is deliberately dumb: no subscriptions, no notifications, no
//! generation lists. Everything a server needs — admission control,
//! budgets, backpressure — layers on top (see `crates/server`).

use crate::snapshot::QuerySnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A snapshot loaded from a [`SnapshotHub`], pinned to the epoch it was
/// published under. Cheap to clone (two `Arc` bumps); dereferences to the
/// [`QuerySnapshot`] itself.
#[derive(Debug, Clone)]
pub struct PinnedSnapshot {
    epoch: u64,
    snapshot: Arc<QuerySnapshot>,
}

impl PinnedSnapshot {
    /// The epoch this snapshot was published under (monotonically
    /// increasing, starting at 1 for the first publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared snapshot `Arc` itself — for callers that need to hold
    /// or downgrade it (e.g. liveness tests via [`std::sync::Weak`]).
    pub fn shared(&self) -> &Arc<QuerySnapshot> {
        &self.snapshot
    }
}

impl std::ops::Deref for PinnedSnapshot {
    type Target = QuerySnapshot;
    fn deref(&self) -> &QuerySnapshot {
        &self.snapshot
    }
}

/// The epoch-counted current-snapshot slot (see the module docs).
///
/// Shared as `Arc<SnapshotHub>`: the mediator keeps one reference and
/// hands clones to every reader ([`crate::Mediator::hub`]).
#[derive(Debug, Default)]
pub struct SnapshotHub {
    /// The current publication. `None` until the first install.
    slot: RwLock<Option<PinnedSnapshot>>,
    /// The epoch counter, readable without touching the slot lock.
    epoch: AtomicU64,
}

// Readers on N threads, writer on another: enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SnapshotHub>();
    assert_send_sync::<PinnedSnapshot>();
};

impl SnapshotHub {
    /// An empty hub (no snapshot published yet, epoch 0).
    pub fn new() -> Self {
        SnapshotHub::default()
    }

    /// Installs `snapshot` as the current publication and returns its
    /// (freshly bumped) epoch. Single-writer by convention — the mediator
    /// owns installation — but safe from any thread.
    pub fn install(&self, snapshot: QuerySnapshot) -> u64 {
        // Allocated before the write lock and dropped after it: when the
        // hub held the last reference, dropping the previous publication
        // tears a whole snapshot down, and readers do not wait for that.
        let snapshot = Arc::new(snapshot);
        let mut slot = self.slot.write().expect("hub slot poisoned");
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let previous = slot.replace(PinnedSnapshot { epoch, snapshot });
        // Published *after* the slot holds the snapshot, while the write
        // lock still excludes racing installs: a reader that observes
        // epoch N is guaranteed a subsequent `load` returns epoch >= N.
        self.epoch.store(epoch, Ordering::Release);
        drop(slot);
        drop(previous);
        epoch
    }

    /// Loads the current publication, pinned to its epoch. `None` until
    /// the first install. The read-side critical section is one clone of
    /// an `(u64, Arc)` pair under the shared read lock — readers never
    /// wait on each other, and wait on the writer only for the duration
    /// of its pointer swap.
    pub fn load(&self) -> Option<PinnedSnapshot> {
        self.slot.read().expect("hub slot poisoned").clone()
    }

    /// The current epoch without loading the snapshot: `0` before the
    /// first install. One atomic load; the slot lock is not touched.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether a snapshot has been published yet.
    pub fn is_published(&self) -> bool {
        self.epoch() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, Capability, MemoryWrapper};
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;

    fn wrapper(n: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new("A");
        w.caps.push(Capability {
            class: "spines".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "spines".into(),
            concept: "Spine".into(),
        });
        for i in 0..n {
            w.add_row("spines", &format!("s{i}"), vec![("len", GcmValue::Int(1))]);
        }
        Arc::new(w)
    }

    #[test]
    fn empty_hub_loads_nothing() {
        let hub = SnapshotHub::new();
        assert!(hub.load().is_none());
        assert_eq!(hub.epoch(), 0);
        assert!(!hub.is_published());
    }

    #[test]
    fn install_bumps_epoch_and_load_pins_it() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(wrapper(2)).unwrap();
        m.materialize_all().unwrap();
        let hub = SnapshotHub::new();
        let e1 = hub.install(m.snapshot().unwrap());
        assert_eq!(e1, 1);
        let p1 = hub.load().unwrap();
        assert_eq!(p1.epoch(), 1);
        assert_eq!(p1.query_fl("X : spines").unwrap().len(), 2);
        let e2 = hub.install(m.snapshot().unwrap());
        assert_eq!(e2, 2);
        assert_eq!(hub.epoch(), 2);
        // The earlier pin still serves its own epoch.
        assert_eq!(p1.epoch(), 1);
        assert_eq!(p1.query_fl("X : spines").unwrap().len(), 2);
    }

    #[test]
    fn mediator_publish_installs_for_subscribers() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(wrapper(3)).unwrap();
        m.materialize_all().unwrap();
        // Nobody holds the hub yet: publish() skips installation (the
        // serving plane is demand-driven).
        m.publish().unwrap();
        assert_eq!(m.hub().epoch(), 0);
        // Subscribe, publish again: the hub now receives publications.
        let hub = m.hub();
        m.publish().unwrap();
        assert_eq!(hub.epoch(), 1);
        let pinned = hub.load().unwrap();
        assert_eq!(pinned.query_fl("X : spines").unwrap().len(), 3);
    }
}
