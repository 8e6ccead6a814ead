//! Ground fact storage: relations as flat, chunked row tables with
//! lazily-built multi-column indexes.
//!
//! Bottom-up evaluation spends nearly all of its time probing relations
//! during joins, and a cold run also builds, copies and frees every
//! relation it reads. So a [`Relation`] has no allocation per fact: its
//! rows are `arity`-strided [`Term`]s, back to back, in chunks of
//! [`CHUNK_ROWS`] rows, each chunk behind an `Arc`. A row is named by its
//! `u32` position, which is its insertion order. The dedup set and every
//! column index hold positions only, hash a row (or the columns an index
//! keys) with the tuple tables' hasher (`hash.rs`), and compare a
//! candidate in place, against the chunk. A clone copies the chunk handles
//! and shares the dedup table; a write after a share copies the table and
//! only the chunk it writes, the last; a drop frees chunks, not facts.
//! Every row goes in through one writer (`Bulk`), a fetched batch, an
//! evaluation's head rows and a single fact alike: it makes those parts
//! unique once per batch rather than once per row, and appends in one
//! place (`Open::push`), so a one-row insert is a batch of one. Whole
//! relations are shared across threads behind an immutable snapshot.
//!
//! The tables are std-only open addressing over `u32` entries (`Table`),
//! not the interner's hash-plus-collision-map pattern: std's `HashMap` has
//! no stable way to look an entry up by a key it does not store, so that
//! pattern keeps a second copy of every colliding key — for rows, a
//! `Vec<Term>` per collision and a second probe per lookup — where an
//! open-addressing slot holds 32 bits of hash and a position, and the row
//! itself is the key.
//!
//! Indexes are built **on first probe** for whatever column set a join
//! actually binds (`Relation::probe`, behind [`crate::Model::query`]) and maintained incrementally
//! on every subsequent insert. A relation that is only ever scanned never
//! pays for an index; a relation probed on columns `{0, 2}` gets exactly
//! that index and no other. The evaluator probes through a `Probe`: one
//! body atom's relation and column set, whose index handle is taken at the
//! atom's first probe and held while the relation is not written, so a
//! probe after it is a hash and a chain walk. A built index is kept for the
//! relation's life: a clone takes a handle on it and a write after the
//! share copies it (one copy of its arrays, no rehash); a removal rebuilds
//! it with the relation. So a stored relation the write plane copies, and
//! the model published over it, answer their first probe with the index
//! their readers built on the epoch before. An evaluation is the exception: the
//! relations it owns start bare ([`FactStore::detached_clone`],
//! [`FactStore::absorb`]), so what it counts is its own work. A position is
//! stable only while the relation is insert-only: [`Relation::remove`]
//! rebuilds the relation.

use crate::hash::WordState;
use crate::interner::Sym;
use crate::term::Term;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// Rows per chunk. A power of two, so a position splits into chunk and
/// row with a shift and a mask; large enough that a store of tens of
/// thousands of facts is a few dozen chunks, small enough that the one
/// chunk a write after a share copies is a few dozen KiB.
pub const CHUNK_ROWS: usize = 1 << 10;

const CHUNK_SHIFT: u32 = CHUNK_ROWS.trailing_zeros();

/// No entry: a free [`Table`] slot, or the end of an index group.
const NONE: u32 = u32::MAX;

/// The hash of `terms` in order — a whole row, or the columns of one that
/// an index keys. A probe's terms hash exactly as the stored row's.
fn hash_terms<T: Hash>(terms: impl IntoIterator<Item = T>) -> u64 {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED_HASH.with(std::cell::Cell::get) {
        return forced;
    }
    let mut h = WordState::default().build_hasher();
    for t in terms {
        t.hash(&mut h);
    }
    h.finish()
}

/// An open-addressing hash table of `u32` entries — row positions, or
/// index groups — found by a 64-bit hash and told apart by the caller's
/// equality test, so it never stores the key it is looked up by. Linear
/// probing, at most three quarters full.
#[derive(Clone, Default)]
struct Table {
    /// Per slot the top 32 bits of the entry's hash and the entry, or
    /// [`NONE`] when free. The length is 0 or a power of two ≥ 8; a hash's
    /// home slot is its top bits, so growing re-places entries from the
    /// stored bits without hashing a row again.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Table {
    fn home(&self, tag: u32) -> usize {
        (tag >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The entry under `hash` that `eq` accepts.
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = (hash >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let (t, entry) = self.slots[i];
            if entry == NONE {
                return None;
            }
            if t == tag && eq(entry) {
                return Some(entry);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `entry` under `hash`; the caller has checked it is absent.
    fn insert(&mut self, hash: u64, entry: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.reserve(self.len + 1);
        }
        self.place((hash >> 32) as u32, entry);
        self.len += 1;
    }

    fn place(&mut self, tag: u32, entry: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        while self.slots[i].1 != NONE {
            i = (i + 1) & mask;
        }
        self.slots[i] = (tag, entry);
    }

    /// Room for `n` entries in all.
    fn reserve(&mut self, n: usize) {
        let want = (n * 4).div_ceil(3).next_power_of_two().max(8);
        if want <= self.slots.len() {
            return;
        }
        assert!(want.trailing_zeros() <= 32, "hash table too large");
        let old = std::mem::replace(&mut self.slots, vec![(0, NONE); want]);
        for (tag, entry) in old {
            if entry != NONE {
                self.place(tag, entry);
            }
        }
    }
}

/// A relation's rows: `arity` terms each, `CHUNK_ROWS` rows to a chunk.
#[derive(Clone)]
struct Chunks {
    arity: usize,
    len: usize,
    data: Vec<Arc<Vec<Term>>>,
}

/// The rows of no relation, for [`Rows`] over a missing one.
static NO_ROWS: Chunks = Chunks {
    arity: 0,
    len: 0,
    data: Vec::new(),
};

impl Chunks {
    fn row(&self, pos: usize) -> &[Term] {
        let start = (pos & (CHUNK_ROWS - 1)) * self.arity;
        &self.data[pos >> CHUNK_SHIFT][start..start + self.arity]
    }
}

/// An index over one column set: the rows of each key value, as a chain
/// of positions in insertion order.
#[derive(Clone)]
pub(crate) struct ColumnIndex {
    /// The indexed columns, ascending.
    cols: Box<[usize]>,
    /// Key hash → group.
    groups: Table,
    /// Per group its first and last row.
    ends: Vec<(u32, u32)>,
    /// Per row the next row of its group, or [`NONE`].
    next: Vec<u32>,
}

impl ColumnIndex {
    fn build(rows: &Chunks, cols: &[usize]) -> Self {
        let mut index = ColumnIndex {
            cols: cols.into(),
            groups: Table::default(),
            ends: Vec::new(),
            next: Vec::with_capacity(rows.len),
        };
        for pos in 0..rows.len {
            index.add(|p| rows.row(p), pos as u32, rows.row(pos));
        }
        index
    }

    /// Appends row `pos`, whose terms are `row`, to its key's group.
    /// `row_at` reads every row before `pos`; `pos` itself need not be
    /// stored yet.
    fn add<'r>(&mut self, row_at: impl Fn(usize) -> &'r [Term], pos: u32, row: &[Term]) {
        let cols = &self.cols;
        let hash = hash_terms(cols.iter().map(|&c| &row[c]));
        let ends = &self.ends;
        let group = self.groups.find(hash, |g| {
            let head = row_at(ends[g as usize].0 as usize);
            cols.iter().all(|&c| head[c] == row[c])
        });
        match group {
            Some(g) => {
                let last = &mut self.ends[g as usize].1;
                self.next[*last as usize] = pos;
                *last = pos;
            }
            None => {
                self.groups.insert(hash, self.ends.len() as u32);
                self.ends.push((pos, pos));
            }
        }
        self.next.push(NONE);
    }

    /// The first row whose indexed columns hold `key`'s terms, or [`NONE`].
    fn first<'k>(&self, rows: &Chunks, key: &impl Fn(usize) -> Cow<'k, Term>) -> u32 {
        let hash = hash_terms(self.cols.iter().map(|&c| key(c)));
        self.groups
            .find(hash, |g| {
                let head = rows.row(self.ends[g as usize].0 as usize);
                self.cols.iter().all(|&c| head[c] == *key(c))
            })
            .map_or(NONE, |g| self.ends[g as usize].0)
    }
}

/// A single relation: a deduplicated, insertion-ordered set of ground rows
/// of one arity, with hash indexes on arbitrary column sets built lazily
/// on first probe. See the module docs for the layout.
pub struct Relation {
    rows: Chunks,
    /// Whole-row hash → position; shared by clones until one writes.
    set: Arc<Table>,
    /// Lazily-built indexes, shared by clones until one writes. Interior
    /// mutability lets a probe during evaluation (`&Relation`) build the
    /// index it needs; `insert` maintains every existing index, copying
    /// one still shared. An `RwLock` (rather than `RefCell`)
    /// keeps `Relation: Sync`, so frozen relations can be probed
    /// concurrently from many query threads; a probe holds the read lock
    /// only to find its index and take a handle on it, never while the
    /// caller walks the matching rows (which may probe this relation
    /// again).
    ///
    /// The lock is never poisoned, a shared snapshot's included. A read
    /// guard's panic poisons nothing, and the one write section
    /// (`ensure_index`) finds, builds and pushes: `ColumnIndex::build`
    /// hashes and compares terms, which do not panic, into a table never
    /// larger than the dedup table `insert` already sized, and the index is
    /// pushed only once built. So even a poisoned lock would guard a whole
    /// list, and every access reads through the poison rather than panic
    /// on it.
    indexes: RwLock<Vec<Arc<ColumnIndex>>>,
}

impl Clone for Relation {
    /// Copies the chunk handles and shares the dedup table and every built
    /// index — all copy-on-write: a write after the share copies the
    /// table, the last chunk and each index it maintains, and rebuilds
    /// none. The read lock is held only while the index handles are
    /// copied.
    fn clone(&self) -> Self {
        Relation {
            indexes: RwLock::new(self.built().clone()),
            ..self.unindexed()
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Relation {
    /// Creates an empty relation of rows of `arity` terms.
    pub fn new(arity: usize) -> Self {
        Relation {
            rows: Chunks {
                arity,
                len: 0,
                data: Vec::new(),
            },
            set: Arc::default(),
            indexes: RwLock::default(),
        }
    }

    /// A clone that takes none of the built indexes: the rows and the
    /// dedup table are shared as by [`Clone`].
    pub(crate) fn unindexed(&self) -> Self {
        Relation {
            rows: self.rows.clone(),
            set: Arc::clone(&self.set),
            indexes: RwLock::default(),
        }
    }

    /// The built indexes, under the read lock (never poisoned: see the
    /// `indexes` field).
    fn built(&self) -> RwLockReadGuard<'_, Vec<Arc<ColumnIndex>>> {
        self.indexes.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The column sets of the built indexes, in build order.
    fn index_cols(&self) -> Vec<Box<[usize]>> {
        self.built().iter().map(|ix| ix.cols.clone()).collect()
    }

    /// Builds every index `other` has built that `self` lacks, so a probe
    /// `other` would have answered from an index is answered from one here
    /// too. Both relations hold rows of one predicate, so of one arity.
    pub(crate) fn index_like(&self, other: &Relation) {
        for cols in other.index_cols() {
            self.ensure_index(&cols);
        }
    }

    /// The number of terms in every row.
    pub fn arity(&self) -> usize {
        self.rows.arity
    }

    /// Inserts a row; returns `true` if it was new. A row whose length is
    /// not the relation's arity is refused: not stored, `false`. A new row
    /// goes in as a one-row bulk write, every built index maintained. For
    /// tests only: every other row enters through [`Bulk`].
    #[cfg(test)]
    pub(crate) fn insert(&mut self, row: &[Term]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        debug_assert!(row.iter().all(Term::is_ground));
        let hash = hash_terms(row);
        if self.find(hash, |r| r == row).is_some() {
            return false;
        }
        Open::new(self, 1).push(hash, row, 0);
        true
    }

    /// A writer of up to `more` rows into `rel` in bulk: see [`Bulk`].
    pub(crate) fn bulk(rel: &mut Arc<Relation>, more: usize) -> Bulk<'_> {
        Bulk {
            arity: rel.arity(),
            more,
            shut: Some(rel),
            open: None,
        }
    }

    /// The position of the row `eq` accepts among those hashing to `hash`.
    fn find(&self, hash: u64, eq: impl Fn(&[Term]) -> bool) -> Option<u32> {
        self.set.find(hash, |p| eq(self.rows.row(p as usize)))
    }

    /// Membership test.
    pub fn contains(&self, row: &[Term]) -> bool {
        row.len() == self.arity() && self.find(hash_terms(row), |r| r == row).is_some()
    }

    /// Membership of the row whose column `c` holds `term(c)`, for a
    /// caller that has the terms but not as a slice.
    pub(crate) fn contains_by<'k>(&self, term: impl Fn(usize) -> Cow<'k, Term>) -> bool {
        let hash = hash_terms((0..self.arity()).map(&term));
        self.find(hash, |r| r.iter().enumerate().all(|(c, t)| *t == *term(c)))
            .is_some()
    }

    /// All rows in insertion order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            rows: &self.rows,
            pos: 0,
            end: self.rows.len,
        }
    }

    /// The index over `cols` (sorted, deduplicated, each below the arity),
    /// built from the current rows if missing, and whether this call built
    /// it.
    ///
    /// Build-once and thread-safe: the hot path (index already present)
    /// takes only the shared read lock, so concurrent probes of a frozen
    /// relation never serialize on the write lock; when the index is
    /// missing, exactly one caller builds it (double-checked under the
    /// write lock) and reports `true` — racing callers wait and reuse it.
    fn ensure_index(&self, cols: &[usize]) -> (bool, Arc<ColumnIndex>) {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be sorted");
        debug_assert!(cols.iter().all(|&c| c < self.arity()));
        let on_cols = |ix: &&Arc<ColumnIndex>| *ix.cols == *cols;
        if let Some(index) = self.built().iter().find(on_cols) {
            return (false, Arc::clone(index));
        }
        let mut indexes = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = indexes.iter().find(on_cols) {
            // Lost the build race: another thread finished it between our
            // read and write acquisitions. Exactly one caller reports the
            // build.
            return (false, Arc::clone(index));
        }
        let index = Arc::new(ColumnIndex::build(&self.rows, cols));
        indexes.push(Arc::clone(&index));
        (true, index)
    }

    /// The rows whose bound columns — those `bound` accepts — hold
    /// `term(c)`, through the index on exactly those columns, and whether
    /// this call had to build it. No key is assembled: the index is found
    /// by its column set, the key hashed and compared column by column.
    /// Once the index exists a probe is one acquisition of the read lock
    /// and a handle on the index, never held while the caller walks the
    /// rows. This is the one-off probe behind `Model::query` (and the
    /// tests' `iter_bound`); the evaluator, which probes one column set many
    /// times, goes through a [`Probe`].
    pub(crate) fn probe<'k>(
        &self,
        bound: impl Fn(usize) -> bool,
        term: impl Fn(usize) -> Cow<'k, Term>,
    ) -> (bool, Matches<'_>) {
        let nbound = (0..self.arity()).filter(|&c| bound(c)).count();
        let found = self
            .built()
            .iter()
            .find(|ix| ix.cols.len() == nbound && ix.cols.iter().all(|&c| bound(c)))
            .cloned();
        let (built, index) = match found {
            Some(index) => (false, index),
            None => {
                let cols: Vec<usize> = (0..self.arity()).filter(|&c| bound(c)).collect();
                self.ensure_index(&cols)
            }
        };
        let pos = index.first(&self.rows, &term);
        let rows = Chain {
            rows: &self.rows,
            index,
            pos,
        };
        (built, Matches(Some(rows)))
    }

    /// Rows matching the given `(column, value)` bindings, in insertion
    /// order, via a hash index on exactly that column set (built on the
    /// first such probe). Columns may be given in any order; duplicates
    /// must agree by construction. A column past the arity matches no row.
    #[cfg(test)]
    pub(crate) fn iter_bound(&self, bound: &[(usize, &Term)]) -> Matches<'_> {
        if bound.iter().any(|&(c, _)| c >= self.arity()) {
            return Matches(None);
        }
        // `probe` asks only for the columns the second closure accepts,
        // each of which `bound` lists.
        let term = |c: usize| {
            let &(_, t) = bound
                .iter()
                .find(|&&(b, _)| b == c)
                .expect("a bound column");
            Cow::Borrowed(t)
        };
        self.probe(|c| bound.iter().any(|&(b, _)| b == c), term).1
    }

    /// Rows whose first column equals `key` (fast path for joins with a
    /// bound first argument).
    #[cfg(test)]
    pub(crate) fn iter_first(&self, key: &Term) -> Matches<'_> {
        self.iter_bound(&[(0, key)])
    }

    /// Number of indexes currently built (diagnostics).
    pub fn index_count(&self) -> usize {
        self.built().len()
    }

    /// Removes a row; returns `true` if it was present. Positions after it
    /// would shift, so the relation is rebuilt from its other rows, in
    /// order, in one bulk write, and every built index with it, on the
    /// same column sets.
    pub fn remove(&mut self, row: &[Term]) -> bool {
        if !self.contains(row) {
            return false;
        }
        let mut kept = Relation::new(self.arity());
        kept.index_like(self);
        let mut more = self.len() - 1;
        let mut open = Open::new(&mut kept, more);
        for r in self.iter().filter(|&r| r != row) {
            more -= 1;
            open.push(hash_terms(r), r, more);
        }
        drop(open);
        *self = kept;
        true
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The chunk handles, for tests of what a clone shares.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Arc<Vec<Term>>] {
        &self.rows.data
    }
}

/// The position of a relation's next row, `len`.
fn position(len: usize) -> u32 {
    // Never `None`: the dedup table stops a relation first. It holds at
    // most 2³² slots at three quarters full (`Table::reserve`), so its
    // insert refuses the row after about 3.2·10⁹ rows, short of position
    // `NONE`.
    u32::try_from(len)
        .ok()
        .filter(|&p| p != NONE)
        .expect("relation too large")
}

/// Rows going into one relation in bulk ([`Relation::bulk`]): a fetched
/// batch, a rule's head rows, the facts an evaluation absorbs, or one
/// fact. Each row is hashed and deduplicated and a new one appended by
/// [`Open::push`], built indexes maintained and none built; what a write
/// must own is made so once per batch, not once per row. At the first
/// row the relation lacks, a shared relation is copied as
/// [`Arc::make_mut`] copies it (chunk and index handles, no rows), and
/// the dedup table and each built index are made unique (each copied if
/// still shared) and borrowed for the rest of the batch, and the unfilled
/// last chunk is taken out of its `Arc`, each with room reserved for the
/// batch. The chunk goes back when the writer
/// drops. A batch of rows the relation already holds writes nothing, so
/// copies nothing.
pub(crate) struct Bulk<'a> {
    arity: usize,
    /// Rows still to come, this one included: the reserve at opening.
    more: usize,
    /// The relation, until the first row it lacks opens it.
    shut: Option<&'a mut Arc<Relation>>,
    open: Option<Open<'a>>,
}

/// A relation open for a bulk write ([`Bulk`], a test's `Relation::insert`,
/// [`Relation::remove`]): its parts borrowed, made unique, and its
/// unfilled last chunk owned.
struct Open<'a> {
    rows: &'a mut Chunks,
    set: &'a mut Table,
    indexes: Vec<&'a mut ColumnIndex>,
    /// The rows of chunk `tail_chunk`, the unfilled last one, whose `Arc`
    /// holds nothing while the relation is open; rows before it stay in
    /// `rows`.
    tail: Vec<Term>,
    tail_chunk: usize,
}

/// Row `pos` of a relation open for a bulk write: in its chunks `rows`
/// before chunk `tail_chunk`, from there on in `tail`.
fn open_row<'r>(rows: &'r Chunks, tail: &'r [Term], tail_chunk: usize, pos: usize) -> &'r [Term] {
    if pos >> CHUNK_SHIFT < tail_chunk {
        rows.row(pos)
    } else {
        let start = (pos & (CHUNK_ROWS - 1)) * rows.arity;
        &tail[start..start + rows.arity]
    }
}

impl Bulk<'_> {
    /// Inserts a row; returns `true` if it was new. A row whose length is
    /// not the relation's arity is refused: not stored, `false`.
    pub(crate) fn insert(&mut self, row: &[Term]) -> bool {
        let more = self.more.max(1);
        self.more = more - 1;
        if row.len() != self.arity {
            return false;
        }
        debug_assert!(row.iter().all(Term::is_ground));
        let hash = hash_terms(row);
        let open = match &mut self.open {
            Some(open) => {
                let (rows, tail, k) = (&*open.rows, &open.tail, open.tail_chunk);
                if open
                    .set
                    .find(hash, |p| open_row(rows, tail, k, p as usize) == row)
                    .is_some()
                {
                    return false;
                }
                open
            }
            None => {
                // Shut until here, and opened only for a row it lacks.
                let lacks = |rel: &mut &mut Arc<Relation>| rel.find(hash, |r| r == row).is_none();
                let Some(rel) = self.shut.take_if(lacks) else {
                    return false;
                };
                self.open.insert(Open::new(Arc::make_mut(rel), more))
            }
        };
        open.push(hash, row, more - 1);
        true
    }
}

impl<'a> Open<'a> {
    /// Opens `rel` for `more` rows.
    fn new(rel: &'a mut Relation, more: usize) -> Self {
        let Relation { rows, set, indexes } = rel;
        let set = Arc::make_mut(set);
        set.reserve(rows.len + more);
        let indexes = indexes.get_mut().unwrap_or_else(PoisonError::into_inner);
        let indexes: Vec<&mut ColumnIndex> = indexes
            .iter_mut()
            .map(|index| {
                let index = Arc::make_mut(index);
                index.next.reserve(more);
                index
            })
            .collect();
        let tail_chunk = rows.len >> CHUNK_SHIFT;
        let mut tail = (rows.data.get_mut(tail_chunk))
            .map(|last| std::mem::take(Arc::make_mut(last)))
            .unwrap_or_default();
        let in_tail = rows.len & (CHUNK_ROWS - 1);
        // Past its first chunk a relation is known to be large: a chunk it
        // starts is taken whole.
        let room = if in_tail == 0 && tail_chunk > 0 {
            CHUNK_ROWS
        } else {
            (in_tail + more).min(CHUNK_ROWS)
        };
        tail.reserve(room * rows.arity - tail.len());
        Open {
            rows,
            set,
            indexes,
            tail,
            tail_chunk,
        }
    }

    /// Appends `row`, new to the relation, whose hash is `hash`, with
    /// `more` rows still to come: the one place a row enters a relation —
    /// its dedup-table entry, its place in each built index, and a chunk
    /// rolled over when full.
    fn push(&mut self, hash: u64, row: &[Term], more: usize) {
        let pos = position(self.rows.len);
        self.set.insert(hash, pos);
        let (rows, tail, k) = (&*self.rows, &self.tail, self.tail_chunk);
        for index in &mut self.indexes {
            index.add(|p| open_row(rows, tail, k, p), pos, row);
        }
        self.tail.extend_from_slice(row);
        self.rows.len += 1;
        if self.rows.len.is_multiple_of(CHUNK_ROWS) {
            // A full tail joins the chunks, and the next has room for the
            // rest of the batch.
            let room = more.min(CHUNK_ROWS) * self.rows.arity;
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(room));
            self.put_tail(full);
            self.tail_chunk += 1;
        }
    }

    /// Stores `terms` as chunk `tail_chunk`: into its emptied `Arc`, or as
    /// a new last chunk.
    fn put_tail(&mut self, terms: Vec<Term>) {
        match self.rows.data.get_mut(self.tail_chunk) {
            Some(chunk) => *Arc::make_mut(chunk) = terms,
            None => self.rows.data.push(Arc::new(terms)),
        }
    }
}

impl Drop for Open<'_> {
    /// Hands the tail back to the relation's chunks.
    fn drop(&mut self) {
        if self.rows.len > self.tail_chunk << CHUNK_SHIFT {
            let tail = std::mem::take(&mut self.tail);
            self.put_tail(tail);
        }
    }
}

/// The rows of a relation in insertion order ([`Relation::iter`]).
pub struct Rows<'a> {
    rows: &'a Chunks,
    pos: usize,
    end: usize,
}

impl Rows<'_> {
    /// No rows.
    pub fn empty() -> Self {
        Rows {
            rows: &NO_ROWS,
            pos: 0,
            end: 0,
        }
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Term];

    fn next(&mut self) -> Option<&'a [Term]> {
        if self.pos == self.end {
            return None;
        }
        self.pos += 1;
        Some(self.rows.row(self.pos - 1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// The rows of one index group, in insertion order: a walk down the
/// index's chain from the group's first row. `I` holds the index: a borrow
/// for a [`Probe`], which keeps its handle, and a handle for
/// [`Relation::probe`], whose read lock is released before the walk.
pub(crate) struct Chain<'a, I> {
    rows: &'a Chunks,
    index: I,
    pos: u32,
}

impl<'a, I: Deref<Target = ColumnIndex>> Iterator for Chain<'a, I> {
    type Item = &'a [Term];

    fn next(&mut self) -> Option<&'a [Term]> {
        if self.pos == NONE {
            return None;
        }
        let row = self.rows.row(self.pos as usize);
        self.pos = self.index.next[self.pos as usize];
        Some(row)
    }
}

/// The rows of one index group, in insertion order (`Relation::probe`);
/// no rows for a column past the arity.
pub(crate) struct Matches<'a>(Option<Chain<'a, Arc<ColumnIndex>>>);

impl<'a> Iterator for Matches<'a> {
    type Item = &'a [Term];

    fn next(&mut self) -> Option<&'a [Term]> {
        self.0.as_mut()?.next()
    }
}

/// One relation probed on one fixed set of bound columns, for as long as
/// the relation is not written — an evaluator's body atom for one pass of
/// a round. The index on those columns is taken at the first probe (built
/// then, if missing) and held, so every later probe hashes its key and
/// walks the chain: no lock, no handle, no search of the index list.
pub(crate) struct Probe<'a> {
    rel: &'a Relation,
    /// Sorted, each below the arity, and not all of them: a fully bound
    /// atom is a membership test ([`Relation::contains_by`]).
    cols: &'a [usize],
    index: OnceCell<Arc<ColumnIndex>>,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(rel: &'a Relation, cols: &'a [usize]) -> Self {
        Probe {
            rel,
            cols,
            index: OnceCell::new(),
        }
    }

    /// The rows whose bound columns hold `key(c)`, in insertion order.
    /// `built` runs when this probe had to build the index (the evaluator
    /// counts builds), which only the first probe can.
    pub(crate) fn rows<'k>(
        &self,
        key: impl Fn(usize) -> Cow<'k, Term>,
        built: impl FnOnce(),
    ) -> Chain<'_, &ColumnIndex> {
        let index = self.index.get_or_init(|| {
            let (fresh, index) = self.rel.ensure_index(self.cols);
            if fresh {
                built();
            }
            index
        });
        Chain {
            rows: &self.rel.rows,
            index,
            pos: index.first(&self.rel.rows, &key),
        }
    }
}

/// A set of relations keyed by predicate symbol.
///
/// Relations sit behind `Arc`s, so a `clone` of the store is O(relations)
/// pointer bumps and the clone *shares* every relation — including any
/// indexes its rows have already earned — until one side mutates it
/// (copy-on-write via [`Arc::make_mut`]; the copy shares the chunks and
/// the built indexes, see [`Relation`]'s `Clone`). This is what makes
/// snapshot republish cost proportional to the delta — strata untouched by
/// a change keep the previous model's relations by reference — and a warm
/// answer cost proportional to its rule: an evaluation seeded from a base
/// model *borrows* the model's relations and probes the indexes they
/// already have. What an evaluation writes it owns, and owns bare: the
/// cold entry points start from [`FactStore::detached_clone`], and
/// [`FactStore::absorb`] copies a shared relation without its indexes.
#[derive(Debug, Clone, Default)]
pub struct FactStore {
    rels: HashMap<Sym, Arc<Relation>, WordState>,
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fact; returns `true` if new. The first fact of a
    /// predicate fixes its relation's arity; a row of another length is
    /// refused. A one-row bulk write.
    pub fn insert(&mut self, pred: Sym, row: &[Term]) -> bool {
        let [mut rel] = self.bulk([(pred, row.len(), 1)]);
        rel.insert(row)
    }

    /// A bulk writer ([`Relation::bulk`]) per `(pred, arity, rows)` of
    /// `into`, the relation made empty at `arity` if missing, for up to
    /// `rows` rows. The predicates must be distinct.
    pub(crate) fn bulk<const N: usize>(&mut self, into: [(Sym, usize, usize); N]) -> [Bulk<'_>; N] {
        for (pred, arity, _) in into {
            self.rels
                .entry(pred)
                .or_insert_with(|| Arc::new(Relation::new(arity)));
        }
        let mut rows = into.map(|(.., rows)| rows).into_iter();
        self.rels
            .get_disjoint_mut(into.each_ref().map(|(pred, ..)| pred))
            .map(|rel| {
                // Never `None`: each was made above if missing.
                let rel = rel.expect("a relation per predicate");
                Relation::bulk(rel, rows.next().unwrap_or(0))
            })
    }

    /// Removes a fact; returns `true` if it was present.
    pub fn remove(&mut self, pred: Sym, row: &[Term]) -> bool {
        match self.rels.get_mut(&pred) {
            Some(rel) if rel.contains(row) => Arc::make_mut(rel).remove(row),
            _ => false,
        }
    }

    /// The relation for `pred`, if any facts exist.
    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.rels.get(&pred).map(Arc::as_ref)
    }

    /// Forgets `pred`'s relation if it holds no row, so the store reads as
    /// though [`Self::bulk`] had never been asked for it.
    pub(crate) fn drop_if_empty(&mut self, pred: Sym) {
        if self.rels.get(&pred).is_some_and(|r| r.is_empty()) {
            self.rels.remove(&pred);
        }
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

    /// A copy with per-relation index state dropped: every relation is a
    /// fresh allocation (sharing its chunks and dedup table) with no built
    /// indexes, so the copy allocates nothing per fact. A cold
    /// evaluation starts from this, so it builds — and counts — every index
    /// it probes, whatever an earlier run left on the relations it was
    /// handed.
    pub fn detached_clone(&self) -> FactStore {
        FactStore {
            rels: self
                .rels
                .iter()
                .map(|(&p, r)| (p, Arc::new(r.unindexed())))
                .collect(),
        }
    }

    /// Builds on each relation of `self` that is not `old`'s own
    /// allocation the indexes `old`'s relation of the same predicate has
    /// built ([`Relation::index_like`]): a model published in place of
    /// `old` answers the probes `old`'s readers made from an index.
    pub(crate) fn index_like(&self, old: &FactStore) {
        for (p, rel) in &self.rels {
            if let Some(prev) = old.rels.get(p).filter(|prev| !Arc::ptr_eq(rel, prev)) {
                rel.index_like(prev);
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, pred: Sym, row: &[Term]) -> bool {
        self.rels.get(&pred).is_some_and(|r| r.contains(row))
    }

    /// Iterates `(pred, row)` over every fact.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &[Term])> {
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
    /// (one predicate lookup per relation, with the dedup table reserved
    /// up front); returns how many facts were new. This is how an
    /// evaluation writes, so what it writes starts bare: a relation new to
    /// `self` is a clone of `other`'s without its indexes (never shared
    /// as a whole, so never mutated out from under another holder), and a
    /// relation `self` still shares is copied the same way before it
    /// grows. Each index a probe then needs is the evaluation's own build,
    /// whatever indexes others left on the relations it came from.
    /// Explicit sharing goes through [`Self::set_relation`].
    pub fn absorb(&mut self, other: &FactStore) -> usize {
        let mut added = 0;
        for (&p, rel) in &other.rels {
            if rel.is_empty() {
                continue;
            }
            added += match self.rels.entry(p) {
                Entry::Vacant(v) => {
                    v.insert(Arc::new(rel.unindexed()));
                    rel.len()
                }
                Entry::Occupied(mut o) => {
                    let mine = o.get_mut();
                    if Arc::get_mut(mine).is_none() {
                        *mine = Arc::new(mine.unindexed());
                    }
                    // Unshared now: the bulk writer copies nothing.
                    let mut bulk = Relation::bulk(mine, rel.len());
                    rel.iter().filter(|row| bulk.insert(row)).count()
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
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// When set, every row and key on this thread hashes to this value
        /// — the only way to send every lookup down one probe run.
        pub(super) static FORCED_HASH: Cell<Option<u64>> = const { Cell::new(None) };
    }

    #[test]
    fn insert_dedups() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let mut r = Relation::new(1);
        assert!(r.insert(std::slice::from_ref(&a)));
        assert!(!r.insert(std::slice::from_ref(&a)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn first_column_index() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut r = Relation::new(2);
        r.insert(&[a.clone(), b.clone()]);
        r.insert(&[a.clone(), a.clone()]);
        r.insert(&[b.clone(), a.clone()]);
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
        let mut r = Relation::new(3);
        r.insert(&[a.clone(), b.clone(), c.clone()]);
        r.insert(&[a.clone(), c.clone(), c.clone()]);
        // First probe on {0,2} builds that index.
        assert!(r.ensure_index(&[0, 2]).0);
        assert!(!r.ensure_index(&[0, 2]).0, "second ensure is a no-op");
        assert_eq!(r.iter_bound(&[(0, &a), (2, &c)]).count(), 2);
        // Inserts after the build must be visible to later probes.
        r.insert(&[a.clone(), a.clone(), c.clone()]);
        r.insert(&[b.clone(), b.clone(), c.clone()]);
        assert_eq!(r.iter_bound(&[(0, &a), (2, &c)]).count(), 3);
        assert_eq!(r.iter_bound(&[(0, &b), (2, &c)]).count(), 1);
        // A different column set is an independent index; binding order
        // does not matter.
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 2);
        assert_eq!(r.iter_bound(&[(2, &c), (1, &a)]).count(), 1);
        r.insert(&[c.clone(), b.clone(), a.clone()]);
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
        let mut r = Relation::new(2);
        // A row of the wrong length is refused, before and after an index
        // exists: not stored, no panic, the stride intact.
        assert!(!r.insert(std::slice::from_ref(&a)));
        assert!(r.insert(&[a.clone(), b.clone()]));
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 1);
        assert!(!r.insert(std::slice::from_ref(&b)));
        assert!(!r.insert(&[b.clone(), b.clone(), b.clone()]));
        assert!(r.insert(&[b.clone(), b.clone()]));
        assert_eq!(r.iter_bound(&[(1, &b)]).count(), 2);
        assert!(!r.contains(std::slice::from_ref(&b)));
        assert!(!r.remove(std::slice::from_ref(&b)));
        let rows: Vec<&[Term]> = r.iter().collect();
        assert_eq!(
            rows,
            [&[a.clone(), b.clone()][..], &[b.clone(), b.clone()][..]]
        );
        // A probe past the arity matches nothing.
        assert_eq!(r.iter_bound(&[(2, &b)]).count(), 0);
        // A store refuses the same way: the first fact fixed the arity.
        let mut s = FactStore::new();
        let p = syms.intern("p");
        assert!(s.insert(p, &[a.clone(), b.clone()]));
        assert!(!s.insert(p, std::slice::from_ref(&a)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn a_bulk_insert_counts_new() {
        let mut syms = Interner::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut r1 = Arc::new(Relation::new(1));
        let mut bulk = Relation::bulk(&mut r1, 3);
        assert!(bulk.insert(std::slice::from_ref(&a)));
        assert!(!bulk.insert(std::slice::from_ref(&a)));
        assert!(!bulk.insert(&[a.clone(), b.clone()]), "a wrong arity");
        assert!(bulk.insert(std::slice::from_ref(&b)));
        drop(bulk);
        assert_eq!(r1.len(), 2);
    }

    #[test]
    fn store_absorb_counts_new() {
        let mut syms = Interner::new();
        let p = syms.intern("p");
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        let mut s1 = FactStore::new();
        s1.insert(p, std::slice::from_ref(&a));
        let mut s2 = FactStore::new();
        s2.insert(p, std::slice::from_ref(&a));
        s2.insert(p, std::slice::from_ref(&b));
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
        s1.insert(p, &[a.clone(), a.clone()]);
        // Build an index, then absorb more facts into the same relation.
        assert_eq!(s1.relation(p).unwrap().iter_first(&a).count(), 1);
        let mut s2 = FactStore::new();
        s2.insert(p, &[a.clone(), b.clone()]);
        s2.insert(p, &[b.clone(), b.clone()]);
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
        s.insert(p, std::slice::from_ref(&a));
        assert!(s.contains(p, std::slice::from_ref(&a)));
        assert!(!s.contains(q, std::slice::from_ref(&a)));
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value from a domain wide enough to fill a few chunks at arity 1:
    /// symbols, the integer extremes, small integers and function terms
    /// (which compare and hash through their argument list).
    fn value(state: &mut u64) -> Term {
        let r = splitmix(state);
        match r % 8 {
            0 => Term::Int(i64::MIN),
            1 => Term::Int(i64::MAX),
            2 => Term::func(Sym(3), vec![Term::Int((r >> 8) as i64 % 64)]),
            3 | 4 => Term::Const(Sym((r >> 8) as u32 % 2048)),
            _ => Term::Int((r >> 8) as i64 % 2048 - 1024),
        }
    }

    /// What a relation is held to: its rows in insertion order, and as a
    /// set.
    #[derive(Default)]
    struct Model {
        order: Vec<Vec<Term>>,
        set: BTreeSet<Vec<Term>>,
    }

    impl Model {
        fn insert(&mut self, row: &[Term]) -> bool {
            let new = self.set.insert(row.to_vec());
            if new {
                self.order.push(row.to_vec());
            }
            new
        }
        fn remove(&mut self, row: &[Term]) -> bool {
            let gone = self.set.remove(row);
            self.order.retain(|r| r != row);
            gone
        }
    }

    /// Probes `r` on the columns of `mask` with the key of `like`, and
    /// checks the rows (and their order) against the model's.
    fn assert_probe(r: &Relation, model: &Model, mask: usize, like: &[Term]) {
        let bound: Vec<(usize, &Term)> = (0..like.len())
            .filter(|c| mask & (1 << c) != 0)
            .map(|c| (c, &like[c]))
            .collect();
        let got: Vec<&[Term]> = r.iter_bound(&bound).collect();
        let want: Vec<&[Term]> = model
            .order
            .iter()
            .filter(|row| bound.iter().all(|&(c, t)| row[c] == *t))
            .map(Vec::as_slice)
            .collect();
        assert_eq!(got, want, "probe {bound:?}");
    }

    fn assert_same(r: &Relation, model: &Model) {
        assert_eq!(r.len(), model.order.len());
        assert!(r.iter().eq(model.order.iter().map(Vec::as_slice)));
        for row in &model.order {
            assert!(r.contains(row));
        }
    }

    /// Inserts, removes, membership tests and probes at arity 0–4, against
    /// the model, up to one row short of a chunk, a chunk, and one row past
    /// it; probes run before and after the inserts they must see.
    #[test]
    fn seeded_operations_agree_with_a_set_model() {
        for arity in 0..=4usize {
            for (case, target) in [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
                .into_iter()
                .enumerate()
            {
                let target = if arity == 0 { 1 } else { target };
                let mut state = (arity * 10 + case) as u64;
                let (mut r, mut model) = (Relation::new(arity), Model::default());
                let row =
                    |state: &mut u64| -> Vec<Term> { (0..arity).map(|_| value(state)).collect() };
                let mut step = 0usize;
                while model.order.len() < target {
                    step += 1;
                    let fresh = row(&mut state);
                    assert_eq!(r.insert(&fresh), model.insert(&fresh), "insert {fresh:?}");
                    // Again: a duplicate, now.
                    assert!(!r.insert(&fresh));
                    let other = row(&mut state);
                    assert_eq!(r.contains(&other), model.set.contains(&other));
                    if step.is_multiple_of(97) && arity > 0 {
                        let mask = (splitmix(&mut state) as usize) % (1 << arity);
                        let like =
                            model.order[splitmix(&mut state) as usize % model.order.len()].clone();
                        assert_probe(&r, &model, mask, &like);
                        assert_probe(&r, &model, mask, &other);
                    }
                    if step.is_multiple_of(331) {
                        let gone =
                            model.order[splitmix(&mut state) as usize % model.order.len()].clone();
                        let indexes = r.index_cols();
                        assert_eq!(r.remove(&gone), model.remove(&gone));
                        assert_eq!(r.index_cols(), indexes, "a removal keeps the column sets");
                        assert!(!r.remove(&gone));
                    }
                }
                assert_same(&r, &model);
                for mask in 0..(1usize << arity) {
                    for like in model.order.iter().step_by(model.order.len() / 7 + 1) {
                        assert_probe(&r, &model, mask, like);
                    }
                }
                // Every index built above is maintained across the chunk
                // boundary.
                for _ in 0..3 {
                    let fresh = row(&mut state);
                    assert_eq!(r.insert(&fresh), model.insert(&fresh));
                }
                for mask in 0..(1usize << arity) {
                    let like = model.order.last().expect("rows").clone();
                    assert_probe(&r, &model, mask, &like);
                }
                assert_same(&r, &model);
                assert_eq!(r.chunks().len(), model.order.len().div_ceil(CHUNK_ROWS));
            }
        }
    }

    #[test]
    fn arity_zero_holds_one_row_at_most() {
        let mut r = Relation::new(0);
        assert!(!r.contains(&[]));
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert!(r.contains(&[]));
        assert_eq!(r.iter().collect::<Vec<_>>(), [&[] as &[Term]]);
        assert!(r.remove(&[]));
        assert!(r.is_empty());
    }

    /// Every row and every key hashes alike: each lookup walks one probe
    /// run and must still tell rows and keys apart by comparing them.
    #[test]
    fn a_forced_collision_keeps_every_row_apart() {
        FORCED_HASH.with(|h| h.set(Some(7)));
        let mut state = 5u64;
        let (mut r, mut model) = (Relation::new(3), Model::default());
        // Probe (so build) one index before the inserts, to maintain it.
        let some = [Term::Int(0), Term::Int(0), Term::Int(0)];
        assert_eq!(r.iter_bound(&[(0, &some[0])]).count(), 0);
        for _ in 0..300 {
            let row: Vec<Term> = (0..3)
                .map(|_| Term::Int((splitmix(&mut state) % 6) as i64))
                .collect();
            assert_eq!(r.insert(&row), model.insert(&row));
        }
        assert_eq!(r.set.len, model.order.len());
        assert_same(&r, &model);
        for like in model.order.iter().take(20) {
            for mask in [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111] {
                assert_probe(&r, &model, mask, like);
            }
            assert!(r.contains_by(|c| Cow::Borrowed(&like[c])));
        }
        assert!(!r.contains(&[Term::Int(9), Term::Int(0), Term::Int(0)]));
        let gone = model.order[17].clone();
        assert!(r.remove(&gone) && model.remove(&gone));
        assert_same(&r, &model);
        assert_probe(&r, &model, 0b011, &model.order[3].clone());
        FORCED_HASH.with(|h| h.set(None));
    }

    /// A clone takes a handle on every built index and a write after the
    /// share copies each one — no rebuild, the original as it was. The
    /// copies an evaluation makes (`detached_clone`, `absorb`) start bare.
    #[test]
    fn a_clone_keeps_the_built_indexes_and_an_evaluation_copy_does_not() {
        let handles = |r: &Relation| r.indexes.read().expect("index lock").clone();
        let same = |a: &Relation, b: &Relation| {
            let (a, b) = (handles(a), handles(b));
            a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y))
        };
        let mut r = Relation::new(2);
        for i in 0..100i64 {
            r.insert(&[Term::Int(i % 10), Term::Int(i)]);
        }
        assert!(r.ensure_index(&[0]).0 && r.ensure_index(&[1]).0);
        let mut copy = r.clone();
        assert!(same(&r, &copy), "a clone shares the built indexes");
        assert!(
            !copy.ensure_index(&[0]).0,
            "and probes them without a build"
        );
        assert!(copy.insert(&[Term::Int(3), Term::Int(-1)]));
        assert_eq!(copy.index_cols(), r.index_cols());
        let (old, new) = (handles(&r), handles(&copy));
        assert!(old.iter().zip(&new).all(|(a, b)| !Arc::ptr_eq(a, b)));
        assert_eq!(copy.iter_first(&Term::Int(3)).count(), 11);
        assert_eq!(r.iter_first(&Term::Int(3)).count(), 10);
        assert_eq!(copy.iter_bound(&[(1, &Term::Int(-1))]).count(), 1);
        assert_eq!(r.iter_bound(&[(1, &Term::Int(-1))]).count(), 0);
        assert!(same(&r, &r.clone()) && r.index_count() == 2);

        let p = Interner::new().intern("p");
        let mut store = FactStore::new();
        store.set_relation(p, Arc::new(r));
        let published = store.clone();
        // The write plane's copy keeps them ...
        assert!(store.insert(p, &[Term::Int(0), Term::Int(-2)]));
        assert!(!store.shares_relation(p, &published));
        assert_eq!(store.relation(p).unwrap().index_count(), 2);
        // ... an evaluation's does not, and leaves the original's alone.
        let detached = published.detached_clone();
        assert_eq!(detached.relation(p).unwrap().index_count(), 0);
        let mut grown = published.clone();
        let mut more = FactStore::new();
        more.insert(p, &[Term::Int(0), Term::Int(-3)]);
        assert_eq!(grown.absorb(&more), 1);
        assert_eq!(grown.relation(p).unwrap().index_count(), 0);
        assert_eq!(published.relation(p).unwrap().index_count(), 2);
        let mut fresh = FactStore::new();
        fresh.absorb(&published);
        assert_eq!(fresh.relation(p).unwrap().index_count(), 0);
    }

    /// A clone shares every chunk; a write to it copies the last one only,
    /// and the original reads as before.
    #[test]
    fn a_write_after_a_clone_copies_only_the_last_chunk() {
        let mut r = Relation::new(2);
        for i in 0..(2 * CHUNK_ROWS + 10) as i64 {
            r.insert(&[Term::Int(i), Term::Int(-i)]);
        }
        assert_eq!(r.iter_first(&Term::Int(3)).count(), 1);
        let before: Vec<Vec<Term>> = r.iter().map(<[Term]>::to_vec).collect();
        let mut copy = r.clone();
        assert!(
            Arc::ptr_eq(&r.set, &copy.set),
            "a clone shares the dedup table"
        );
        assert!(!copy.insert(&[Term::Int(3), Term::Int(-3)]));
        assert!(Arc::ptr_eq(&r.set, &copy.set), "a duplicate writes nothing");
        assert!(copy.insert(&[Term::Int(-1), Term::Int(1)]));
        assert!(!Arc::ptr_eq(&r.set, &copy.set));
        let (old, new) = (r.chunks(), copy.chunks());
        assert_eq!(old.len(), new.len());
        let last = old.len() - 1;
        for (i, (a, b)) in old.iter().zip(new).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), i != last, "chunk {i}");
        }
        assert!(r.iter().eq(before.iter().map(Vec::as_slice)));
        assert!(!r.contains(&[Term::Int(-1), Term::Int(1)]));
        assert_eq!(copy.len(), r.len() + 1);
        assert_eq!(copy.iter_first(&Term::Int(-1)).count(), 1);
        assert_eq!(r.iter_first(&Term::Int(-1)).count(), 0);
    }
}
