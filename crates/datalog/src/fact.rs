//! Ground fact storage: relations with lazily-built multi-column indexes.
//!
//! Bottom-up evaluation spends nearly all of its time probing relations
//! during joins. Tuples are stored once as `Arc<[Term]>` shared between the
//! dedup set, the insertion-ordered scan vector, and the indexes, so
//! lookups and copies stay cheap — and whole relations can be shared
//! across threads behind an immutable snapshot.
//!
//! Indexes are built **on first probe** for whatever column set a join
//! actually binds (see [`Relation::probe`]) and maintained
//! incrementally on every subsequent insert. A relation that is only ever
//! scanned never pays for an index; a relation probed on columns `{0, 2}`
//! gets exactly that index and no other.

use crate::hash::WordState;
use crate::interner::Sym;
use crate::term::Term;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};

/// A ground tuple.
pub type Tuple = Arc<[Term]>;

/// An index over one column set: key values (in ascending column order) →
/// positions into the tuple vector.
type ColumnIndex = HashMap<Vec<Term>, Vec<u32>, WordState>;

/// A single relation: a deduplicated, insertion-ordered set of ground
/// tuples, with hash indexes on arbitrary column sets built lazily on
/// first probe.
#[derive(Debug, Default)]
pub struct Relation {
    tuples: Vec<Tuple>,
    set: HashSet<Tuple, WordState>,
    /// Lazily-built indexes: sorted column set → key → positions. Interior
    /// mutability lets a probe during evaluation (`&Relation`) build the
    /// index it needs; `insert` maintains every existing index. An
    /// `RwLock` (rather than `RefCell`) keeps `Relation: Sync`, so frozen
    /// relations can be probed concurrently from many query threads; the
    /// hot path only ever takes the uncontended read lock once an index
    /// exists.
    indexes: RwLock<HashMap<Vec<usize>, ColumnIndex, WordState>>,
}

impl Clone for Relation {
    /// Clones the tuples but **not** the built indexes: a clone rebuilds
    /// lazily the (usually few) column sets it actually probes. Clones are
    /// made where a relation is about to change (copy-on-write) or where an
    /// evaluation must own what it reads (`detached_clone`); deep-copying
    /// every index map there would be allocation overhead — and a
    /// read-lock hold on the shared original that concurrent snapshot
    /// readers had to contend with.
    fn clone(&self) -> Self {
        Relation {
            tuples: self.tuples.clone(),
            set: self.set.clone(),
            indexes: RwLock::default(),
        }
    }
}

fn index_key(tuple: &[Term], cols: &[usize]) -> Option<Vec<Term>> {
    // Tuples too short for the column set can never match a pattern that
    // binds those columns; they are simply absent from the index.
    if cols.iter().any(|&c| c >= tuple.len()) {
        return None;
    }
    Some(cols.iter().map(|&c| tuple[c].clone()).collect())
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a tuple; returns `true` if it was new. Every existing
    /// index is maintained incrementally.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        debug_assert!(tuple.iter().all(Term::is_ground));
        if !self.set.insert(tuple.clone()) {
            return false;
        }
        let pos = u32::try_from(self.tuples.len()).expect("relation too large");
        for (cols, index) in self.indexes.get_mut().expect("index lock").iter_mut() {
            if let Some(key) = index_key(&tuple, cols) {
                index.entry(key).or_default().push(pos);
            }
        }
        self.tuples.push(tuple);
        true
    }

    /// Bulk-merges every tuple of `other`; returns how many were new.
    /// Reserves capacity up front so repeated absorption of large deltas
    /// does not rehash per tuple.
    pub fn extend_from(&mut self, other: &Relation) -> usize {
        self.set.reserve(other.tuples.len());
        self.tuples.reserve(other.tuples.len());
        let mut added = 0;
        for t in &other.tuples {
            if self.insert(t.clone()) {
                added += 1;
            }
        }
        added
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Term]) -> bool {
        self.set.contains(tuple)
    }

    /// All tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Ensures the index over `cols` (must be sorted and deduplicated)
    /// exists, building it from the current tuples if not. Returns `true`
    /// when the index was newly built.
    ///
    /// Build-once and thread-safe: the hot path (index already present)
    /// takes only the shared read lock, so concurrent probes of a frozen
    /// relation never serialize on the write lock; when the index is
    /// missing, exactly one caller builds it (double-checked under the
    /// write lock) and returns `true` — racing callers wait and reuse it.
    pub fn ensure_index(&self, cols: &[usize]) -> bool {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be sorted");
        if self.indexes.read().expect("index lock").contains_key(cols) {
            return false;
        }
        let mut indexes = self.indexes.write().expect("index lock");
        if indexes.contains_key(cols) {
            // Lost the build race: another thread finished it between our
            // read and write acquisitions. Exactly one caller reports the
            // build.
            return false;
        }
        let mut index = ColumnIndex::default();
        for (pos, tuple) in self.tuples.iter().enumerate() {
            if let Some(key) = index_key(tuple, cols) {
                index.entry(key).or_default().push(pos as u32);
            }
        }
        indexes.insert(cols.to_vec(), index);
        true
    }

    /// Tuples matching the given `(column, value)` bindings, via a hash
    /// index on exactly that column set, and whether this call had to
    /// build that index. Columns may be given in any order; duplicates
    /// must agree by construction. Once the index exists a probe is one
    /// acquisition of the read lock.
    pub fn probe(&self, bound: &[(usize, &Term)]) -> (bool, impl Iterator<Item = &Tuple>) {
        let mut pairs: Vec<(usize, &Term)> = bound.to_vec();
        pairs.sort_by_key(|&(c, _)| c);
        pairs.dedup_by_key(|&mut (c, _)| c);
        let cols: Vec<usize> = pairs.iter().map(|&(c, _)| c).collect();
        let key: Vec<Term> = pairs.iter().map(|&(_, t)| t.clone()).collect();
        // Clone the (small) position list so the iterator does not hold
        // the read lock while the caller walks the tuples.
        let lookup = || -> Option<Vec<u32>> {
            let indexes = self.indexes.read().expect("index lock");
            let index = indexes.get(&cols)?;
            Some(index.get(&key).cloned().unwrap_or_default())
        };
        let mut built = false;
        let positions = lookup().unwrap_or_else(|| {
            built = self.ensure_index(&cols);
            lookup().expect("index just ensured")
        });
        let tuples = positions.into_iter().map(move |i| &self.tuples[i as usize]);
        (built, tuples)
    }

    /// [`Self::probe`] for callers that do not count index builds.
    pub fn iter_bound(&self, bound: &[(usize, &Term)]) -> impl Iterator<Item = &Tuple> {
        self.probe(bound).1
    }

    /// Tuples whose first column equals `key` (fast path for joins with a
    /// bound first argument).
    pub fn iter_first<'a>(&'a self, key: &'a Term) -> impl Iterator<Item = &'a Tuple> {
        self.iter_bound(&[(0, key)])
    }

    /// Number of indexes currently built (diagnostics).
    pub fn index_count(&self) -> usize {
        self.indexes.read().expect("index lock").len()
    }

    /// Removes a tuple; returns `true` if it was present. Tuple positions
    /// shift, so every built index is dropped (they rebuild lazily on the
    /// next probe) — retraction is the cold path, probing is the hot one.
    pub fn remove(&mut self, tuple: &[Term]) -> bool {
        if !self.set.remove(tuple) {
            return false;
        }
        self.tuples.retain(|t| &**t != tuple);
        self.indexes.get_mut().expect("index lock").clear();
        true
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A set of relations keyed by predicate symbol.
///
/// Relations sit behind `Arc`s, so a `clone` of the store is O(relations)
/// pointer bumps and the clone *shares* every relation — including any
/// indexes its tuples have already earned — until one side mutates it
/// (copy-on-write via [`Arc::make_mut`]; the copy starts with no indexes).
/// This is what makes snapshot republish cost proportional to the delta —
/// strata untouched by a change keep the previous model's relations by
/// reference — and a warm answer cost proportional to its rule: an
/// evaluation seeded from a base model *borrows* the model's relations and
/// probes the indexes they already have. The cold entry points start from
/// [`FactStore::detached_clone`] instead and own every relation they read.
#[derive(Debug, Clone, Default)]
pub struct FactStore {
    rels: HashMap<Sym, Arc<Relation>, WordState>,
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fact; returns `true` if new.
    pub fn insert(&mut self, pred: Sym, tuple: Tuple) -> bool {
        Arc::make_mut(self.rels.entry(pred).or_default()).insert(tuple)
    }

    /// Removes a fact; returns `true` if it was present.
    pub fn remove(&mut self, pred: Sym, tuple: &[Term]) -> bool {
        match self.rels.get_mut(&pred) {
            Some(rel) if rel.contains(tuple) => Arc::make_mut(rel).remove(tuple),
            _ => false,
        }
    }

    /// The relation for `pred`, if any facts exist.
    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.rels.get(&pred).map(Arc::as_ref)
    }

    /// The relation for `pred` as a shareable handle.
    pub fn relation_arc(&self, pred: Sym) -> Option<Arc<Relation>> {
        self.rels.get(&pred).map(Arc::clone)
    }

    /// Installs `rel` as the relation for `pred`, sharing the handle.
    pub fn set_relation(&mut self, pred: Sym, rel: Arc<Relation>) {
        self.rels.insert(pred, rel);
    }

    /// Whether `pred`'s relation is the very same allocation as in
    /// `other`. While both stores hold the handle neither can have changed
    /// it ([`Arc::make_mut`] copies first), so identity implies equal
    /// content: the index counters use it to tell a borrowed relation from
    /// an owned one, and tests to pin the structural-sharing contract.
    pub fn shares_relation(&self, pred: Sym, other: &FactStore) -> bool {
        match (self.rels.get(&pred), other.rels.get(&pred)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// A deep clone with per-relation index state dropped: every relation
    /// is freshly allocated with no built indexes. A cold evaluation starts
    /// from this, so it builds — and counts — every index it probes,
    /// whatever an earlier run left on the relations it was handed.
    pub fn detached_clone(&self) -> FactStore {
        FactStore {
            rels: self
                .rels
                .iter()
                .map(|(&p, r)| (p, Arc::new((**r).clone())))
                .collect(),
        }
    }

    /// Membership test.
    pub fn contains(&self, pred: Sym, tuple: &[Term]) -> bool {
        self.rels.get(&pred).is_some_and(|r| r.contains(tuple))
    }

    /// Iterates `(pred, tuple)` over every fact.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &Tuple)> {
        self.rels
            .iter()
            .flat_map(|(&p, r)| r.iter().map(move |t| (p, t)))
    }

    /// Predicates that currently have at least one fact.
    pub fn predicates(&self) -> impl Iterator<Item = Sym> + '_ {
        self.rels.keys().copied()
    }

    /// Total number of facts across all relations.
    pub fn len(&self) -> usize {
        self.rels.values().map(|r| r.len()).sum()
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(|r| r.is_empty())
    }

    /// Merges every fact of `other` into `self`, relation by relation
    /// (one predicate lookup per relation, with capacity reserved up
    /// front); returns how many facts were new. A relation new to `self`
    /// is deep-copied, not shared: it starts with no index state and is
    /// never mutated out from under another holder. Explicit sharing goes
    /// through [`Self::set_relation`].
    pub fn absorb(&mut self, other: &FactStore) -> usize {
        let mut added = 0;
        for (&p, rel) in &other.rels {
            if rel.is_empty() {
                continue;
            }
            added += match self.rels.entry(p) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(Arc::new((**rel).clone()));
                    rel.len()
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    Arc::make_mut(o.get_mut()).extend_from(rel)
                }
            };
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn t(args: &[Term]) -> Tuple {
        args.to_vec().into()
    }

    #[test]
    fn insert_dedups() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let mut r = Relation::new();
        assert!(r.insert(t(std::slice::from_ref(&a))));
        assert!(!r.insert(t(std::slice::from_ref(&a))));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn first_column_index() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut r = Relation::new();
        r.insert(t(&[a.clone(), b.clone()]));
        r.insert(t(&[a.clone(), a.clone()]));
        r.insert(t(&[b.clone(), a.clone()]));
        assert_eq!(r.iter_first(&a).count(), 2);
        assert_eq!(r.iter_first(&b).count(), 1);
        let c = Term::Int(99);
        assert_eq!(r.iter_first(&c).count(), 0);
    }

    #[test]
    fn multi_column_index_interleaved_inserts_and_probes() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let c = Term::Const(syms.intern("c"));
        let mut r = Relation::new();
        r.insert(t(&[a.clone(), b.clone(), c.clone()]));
        r.insert(t(&[a.clone(), c.clone(), c.clone()]));
        // First probe on {0,2} builds that index.
        assert!(r.ensure_index(&[0, 2]));
        assert!(!r.ensure_index(&[0, 2]), "second ensure is a no-op");
        assert_eq!(r.iter_bound(&[(0, &a), (2, &c)]).count(), 2);
        // Inserts after the build must be visible to later probes.
        r.insert(t(&[a.clone(), a.clone(), c.clone()]));
        r.insert(t(&[b.clone(), b.clone(), c.clone()]));
        assert_eq!(r.iter_bound(&[(0, &a), (2, &c)]).count(), 3);
        assert_eq!(r.iter_bound(&[(0, &b), (2, &c)]).count(), 1);
        // A different column set is an independent index; binding order
        // does not matter.
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 2);
        assert_eq!(r.iter_bound(&[(2, &c), (1, &a)]).count(), 1);
        r.insert(t(&[c.clone(), b.clone(), a.clone()]));
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 3);
        // Missing keys yield nothing.
        assert_eq!(r.iter_bound(&[(0, &c), (2, &c)]).count(), 0);
        assert_eq!(r.index_count(), 3);
    }

    #[test]
    fn index_skips_short_tuples() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut r = Relation::new();
        r.insert(t(std::slice::from_ref(&a)));
        r.insert(t(&[a.clone(), b.clone()]));
        // Index on column 1: the unary tuple is simply absent.
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 1);
        // Maintenance also skips short tuples.
        r.insert(t(std::slice::from_ref(&b)));
        r.insert(t(&[b.clone(), b.clone()]));
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 2);
    }

    #[test]
    fn extend_from_counts_new() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut r1 = Relation::new();
        r1.insert(t(std::slice::from_ref(&a)));
        let mut r2 = Relation::new();
        r2.insert(t(std::slice::from_ref(&a)));
        r2.insert(t(std::slice::from_ref(&b)));
        assert_eq!(r1.extend_from(&r2), 1);
        assert_eq!(r1.len(), 2);
    }

    #[test]
    fn store_absorb_counts_new() {
        let mut syms = Interner::new();
        let p = syms.intern("p");
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut s1 = FactStore::new();
        s1.insert(p, t(std::slice::from_ref(&a)));
        let mut s2 = FactStore::new();
        s2.insert(p, t(std::slice::from_ref(&a)));
        s2.insert(p, t(std::slice::from_ref(&b)));
        assert_eq!(s1.absorb(&s2), 1);
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn absorb_maintains_existing_indexes() {
        let mut syms = Interner::new();
        let p = syms.intern("p");
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut s1 = FactStore::new();
        s1.insert(p, t(&[a.clone(), a.clone()]));
        // Build an index, then absorb more facts into the same relation.
        assert_eq!(s1.relation(p).unwrap().iter_first(&a).count(), 1);
        let mut s2 = FactStore::new();
        s2.insert(p, t(&[a.clone(), b.clone()]));
        s2.insert(p, t(&[b.clone(), b.clone()]));
        assert_eq!(s1.absorb(&s2), 2);
        assert_eq!(s1.relation(p).unwrap().iter_first(&a).count(), 2);
    }

    #[test]
    fn contains_checks_pred_and_tuple() {
        let mut syms = Interner::new();
        let p = syms.intern("p");
        let q = syms.intern("q");
        let a = Term::Const(syms.intern("a"));
        let mut s = FactStore::new();
        s.insert(p, t(std::slice::from_ref(&a)));
        assert!(s.contains(p, std::slice::from_ref(&a)));
        assert!(!s.contains(q, std::slice::from_ref(&a)));
    }
}
