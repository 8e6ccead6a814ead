//! Bottom-up evaluation: the one stratum walker every rule set goes
//! through.
//!
//! Each stratum (an SCC of the predicate dependency graph, see
//! [`crate::program`]) is evaluated in order over the completed strata
//! below it, in one of three modes: a **single pass** (non-recursive),
//! the **semi-naive** delta iteration (recursive; the naive full
//! re-derivation when [`EvalOptions::semi_naive`] is off — kept as an
//! ablation baseline, see DESIGN.md), or — when the stratum's cycle goes
//! through negation — a stratum-local **alternating fixpoint** (the
//! well-founded semantics, `wfs` module). Only a stratum whose local
//! fixpoint leaves atoms undefined ends the walk: it and everything above
//! it are then evaluated together, three-valued. A walk over a recorded
//! delta (`ivm` module) goes through the same loop and reuses the strata
//! the delta does not reach instead of running them.
//!
//! Three further performance layers sit on top, each with its own
//! [`EvalOptions`] knob so the ablation benches can decompose the speedup:
//!
//! * **join planning** ([`EvalOptions::join_reorder`]): before a stratum
//!   runs, each rule body is greedily reordered by bound-variable count and
//!   current relation cardinality (`Rule::reorder`, the rule module's one
//!   scheduler with that rank); the chosen order is
//!   recorded in the model's [`EvalProfile`] for `explain`-style dumps;
//! * **indexing** ([`EvalOptions::use_index`]): joins with any bound
//!   argument probe a lazily-built hash index on exactly the bound column
//!   set; build/hit/miss counts land in [`EvalStats`]. Which columns of an
//!   atom are bound is fixed by the join plan, so a rule is *prepared*
//!   once per stratum with each atom's column sets, and each
//!   `(rule, delta-variant)` unit of a round resolves its atoms' relations
//!   once and takes each index at that atom's first probe: a probe is a
//!   hash and a chain walk;
//! * **cross-query caching** ([`EvalOptions::base_cache`], driven by the
//!   `since` argument of [`crate::Engine::run_for_query`]): a warm answer
//!   is the delta walk of [`crate::Engine::apply_delta`] restricted to the
//!   goal's subprogram — the base model's relations are read in place and
//!   strata the delta cannot reach are reused, not run.
//!
//! Function terms (skolem placeholders from domain-map assertions, paper
//! §4) can generate unboundedly deep terms; derivations whose head exceeds
//! [`EvalOptions::max_term_depth`] are clipped and counted in
//! [`EvalStats::depth_clipped`].

use crate::atom::{AggFunc, Aggregate, Atom, BodyItem, CmpOp, Expr};
use crate::error::{DatalogError, Result};
use crate::fact::{FactStore, Probe, Relation, Rows};
use crate::interner::Sym;
use crate::program::{Stratification, Stratum};
use crate::rule::{term_bound, Rule};
use crate::term::{Subst, Term, Var};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared, clonable cancellation flag for cooperative interruption of
/// long-running fixpoints (and, in `kind-core`, of one operation's fetch
/// jobs). Every clone observes the same flag, and setting it is for
/// good: a token belongs to one operation and is never reused, so the
/// next operation gets a fresh one. A token made by [`CancelToken::until`]
/// also carries a wall-clock deadline and reads as cancelled from that
/// instant on, so a per-request budget needs no thread to fire it.
///
/// The evaluators check the token **at round boundaries** (never inside
/// a join), so a cancelled evaluation stops after the current round and
/// returns [`DatalogError::Interrupted`] instead of a half-built model.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that cancels itself at `deadline`: from then on
    /// [`Self::is_cancelled`] is true on every clone, whether or not
    /// anybody called [`Self::cancel`].
    pub fn until(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::default(),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation; every holder of a clone observes it at its
    /// next check point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl std::fmt::Debug for CancelToken {
    /// Renders only the flag's value: never the `Arc`'s address, which
    /// differs between two otherwise equal tokens, and never the deadline,
    /// whose state only a clock read could tell. So formatting an
    /// [`EvalOptions`] reads no clock, and two equal option sets print
    /// alike.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CancelToken({})",
            if self.flag.load(Ordering::SeqCst) {
                "cancelled"
            } else {
                "live"
            }
        )
    }
}

/// Evaluation knobs.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Use semi-naive (delta) iteration for recursive strata. Turning this
    /// off re-derives everything each round (ablation baseline).
    pub semi_naive: bool,
    /// Maximum nesting depth of function terms in derived facts; deeper
    /// derivations are dropped (and counted). Bounds skolem chains.
    pub max_term_depth: usize,
    /// Hard cap on the rounds of any one fixpoint (a stratum's, or one
    /// reduct's inside an alternating fixpoint) and on alternating
    /// fixpoint sweeps; exceeding it is an error.
    pub max_iterations: usize,
    /// Use hash indexes for joins with bound arguments (any column set,
    /// built on first probe). Turning this off forces full scans
    /// (ablation baseline).
    pub use_index: bool,
    /// Greedily reorder rule bodies per stratum by bound-variable count
    /// and relation cardinality before evaluating. Turning this off keeps
    /// the compiled source order (ablation baseline).
    pub join_reorder: bool,
    /// Allow evaluation on top of a cached base model (the `since`
    /// argument of [`crate::Engine::run_for_query`]): strata untouched by
    /// the delta are reused from the cache. Turning this off re-derives
    /// everything from the EDB (ablation baseline).
    pub base_cache: bool,
    /// Apply the magic-sets demand rewrite on the goal-directed query
    /// path ([`crate::Engine::run_for_query`]): adorn the goal's cone's rules
    /// from the goal's bound/free pattern, guard them with magic (demand)
    /// predicates seeded from the query constants, and evaluate only what
    /// some demand reaches. Answers are identical with the rewrite on or
    /// off; only the amount of derived intermediate facts (and wall
    /// clock) changes. Full-program evaluation ([`crate::Engine::run`],
    /// `materialize_all`) never applies the rewrite regardless of this
    /// knob — there is no goal to demand from.
    pub magic_sets: bool,
    /// Cooperative cancellation: when set, every fixpoint loop
    /// (stratified, semi-naive, and the alternating fixpoint) checks the
    /// token at round boundaries and returns
    /// [`DatalogError::Interrupted`] once it is cancelled. `None` (the
    /// default) evaluates to completion. The token is one operation's (in
    /// `kind-core`, a mediator operation's or a served request's), never
    /// a setting that outlives it, and it does not participate in model
    /// identity: two runs differing only in `cancel` produce the same
    /// model (when neither is actually cancelled).
    pub cancel: Option<CancelToken>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            semi_naive: true,
            max_term_depth: 8,
            max_iterations: 100_000,
            use_index: true,
            join_reorder: true,
            base_cache: true,
            magic_sets: true,
            cancel: None,
        }
    }
}

/// The round-boundary cancellation check shared by every fixpoint loop:
/// returns [`DatalogError::Interrupted`] iff the options carry a
/// cancelled token.
pub(crate) fn check_cancelled(opts: &EvalOptions, stats: &EvalStats) -> Result<()> {
    match &opts.cancel {
        Some(token) if token.is_cancelled() => Err(DatalogError::Interrupted {
            after_iterations: stats.iterations,
        }),
        _ => Ok(()),
    }
}

/// Opens one more round of the fixpoint that started when
/// `stats.iterations` read `since`: the cancellation check, the round
/// counter, and the per-fixpoint [`EvalOptions::max_iterations`] cap.
pub(crate) fn begin_round(opts: &EvalOptions, stats: &mut EvalStats, since: usize) -> Result<()> {
    check_cancelled(opts, stats)?;
    stats.iterations += 1;
    if stats.iterations - since > opts.max_iterations {
        return Err(DatalogError::IterationLimit {
            limit: opts.max_iterations,
        });
    }
    Ok(())
}

/// Counters reported by an evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Total fixpoint rounds executed.
    pub iterations: usize,
    /// Facts derived (beyond the EDB).
    pub derived: usize,
    /// Derivations dropped by the term-depth limit.
    pub depth_clipped: usize,
    /// Rule applications (body solutions found).
    pub applications: usize,
    /// Column-set indexes built, on first probe, over relations the
    /// evaluation **owns**: its derived heads, its deltas, its
    /// copy-on-write clones — and, on a cold run, everything, since a cold
    /// run reads a detached copy of the stored facts. A probe of a relation
    /// *borrowed* from a base model ([`crate::Engine::run_for_query`]) is a
    /// hit and never a build, whether this call, an earlier one or another
    /// thread physically built the index — so the count is a function of
    /// program, facts and options, never of who warmed a shared relation.
    pub index_builds: usize,
    /// Join probes answered through an index (including fully-ground
    /// membership tests).
    pub index_hits: usize,
    /// Join probes that fell back to a full relation scan.
    pub index_misses: usize,
}

/// Index probe counters, threaded through matching by shared reference
/// (matching only ever holds `&self`).
#[derive(Debug, Default)]
pub(crate) struct IndexCounters<'a> {
    builds: Cell<usize>,
    hits: Cell<usize>,
    misses: Cell<usize>,
    /// The working store of a delta walk, which reads a base model's
    /// relations in place. A relation still shared with it is borrowed: an
    /// index built there is not this evaluation's (see
    /// [`EvalStats::index_builds`]). `None` on the cold paths, which own
    /// every relation.
    borrowed: Option<&'a FactStore>,
}

impl<'a> IndexCounters<'a> {
    pub(crate) fn new(borrowed: Option<&'a FactStore>) -> Self {
        IndexCounters {
            borrowed,
            ..Default::default()
        }
    }
    /// An index over `pred`'s relation in `store` was just built.
    fn build(&self, store: &FactStore, pred: Sym) {
        if !self
            .borrowed
            .is_some_and(|b| store.shares_relation(pred, b))
        {
            self.builds.set(self.builds.get() + 1);
        }
    }
    fn hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }
    fn miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }
    pub(crate) fn fold_into(&self, stats: &mut EvalStats) {
        stats.index_builds += self.builds.get();
        stats.index_hits += self.hits.get();
        stats.index_misses += self.misses.get();
    }
}

/// The join order chosen for one rule within one stratum evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlan {
    /// Head predicate of the rule.
    pub head: Sym,
    /// For each executed body position, the index of that item in the
    /// rule's compiled body order.
    pub join_order: Vec<usize>,
    /// Whether the greedy reorder changed the compiled order.
    pub reordered: bool,
}

/// What happened while evaluating one stratum.
#[derive(Debug, Clone, Default)]
pub struct StratumProfile {
    /// Predicates defined in this stratum.
    pub preds: Vec<Sym>,
    /// Whether the stratum required fixpoint iteration.
    pub recursive: bool,
    /// Stratum not run: a delta walk found nothing beneath it changed and
    /// reused the base model's relations (a publish, or a warm answer).
    pub skipped: bool,
    /// The stratum's cycle goes through negation: it ran the alternating
    /// fixpoint (well-founded semantics). Also set on the single entry
    /// that stands for a three-valued tail — the first stratum whose
    /// fixpoint left atoms undefined and every stratum above it.
    pub well_founded: bool,
    /// Fixpoint rounds spent on this stratum.
    pub iterations: usize,
    /// Reducts (`Γ` passes) the alternating fixpoint computed: 1 when it
    /// certified the first one as the model, 2 or more when it had to
    /// alternate. `0` for a stratum that did not run it.
    pub gamma_passes: usize,
    /// Facts derived in this stratum.
    pub derived: usize,
    /// Indexes built while evaluating this stratum.
    pub index_builds: usize,
    /// Index-answered join probes in this stratum.
    pub index_hits: usize,
    /// Full-scan join probes in this stratum.
    pub index_misses: usize,
    /// Adorned (binding-specialized) rules evaluated in this stratum;
    /// `0` unless the magic-sets rewrite fired.
    pub adorned_rules: usize,
    /// Magic (demand) predicates defined in this stratum; `0` unless the
    /// magic-sets rewrite fired.
    pub magic_preds: usize,
    /// The join order used for each rule of the stratum.
    pub plans: Vec<RulePlan>,
}

/// A record of how a model was computed: per-stratum join plans and
/// counters, inspectable via [`crate::Engine::render_profile`].
#[derive(Debug, Clone, Default)]
pub struct EvalProfile {
    /// Strata in evaluation order.
    pub strata: Vec<StratumProfile>,
    /// Some stratum ran the alternating fixpoint (well-founded
    /// semantics); [`StratumProfile::well_founded`] says which.
    pub well_founded: bool,
    /// Facts of a cached base model the evaluation reused beyond the
    /// stored ones (shared with the model by handle, not copied).
    pub seeded: usize,
    /// Whether the magic-sets demand rewrite produced the evaluated
    /// program (goal-directed query paths only; see
    /// [`EvalOptions::magic_sets`]).
    pub magic_fired: bool,
    /// Total adorned (binding-specialized) rules in the rewritten
    /// program; `0` when the rewrite did not fire.
    pub adorned_rules: usize,
    /// Total magic (demand) predicates generated by the rewrite; `0`
    /// when the rewrite did not fire.
    pub magic_preds: usize,
    /// The magic rewrite applied but was *declined* by the cost model:
    /// the estimated demand cone was too large a fraction of the full
    /// closure for demand filtering to win (see
    /// `kind_datalog::magic`), so plain bottom-up ran instead.
    pub magic_declined: bool,
    /// The cost model's estimated demanded fraction of the reachable EDB
    /// (`None` when no estimate was made — rewrite off, declined for
    /// structural reasons, or below the size floor).
    pub magic_demand_ratio: Option<f64>,
    /// The model was produced by walking a recorded delta over a base
    /// model — [`crate::Engine::apply_delta`], or
    /// [`crate::Engine::run_for_query`] given one — rather than by a cold
    /// evaluation.
    pub delta_applied: bool,
    /// Strata whose relations the delta walk reused wholesale from the
    /// base model (nothing the delta changed reaches them).
    pub delta_reused_strata: usize,
    /// Strata the delta walk re-evaluated from their stored facts and the
    /// strata below (something the delta changed reaches them).
    pub delta_rebuilt_strata: usize,
    /// The delta walk fell back to a cold evaluation of its rule set (a
    /// three-valued base model, or a rebuilt stratum whose alternating
    /// fixpoint left atoms undefined).
    pub delta_fallback: bool,
}

/// The result of evaluating a program: a (possibly three-valued) model.
#[derive(Debug, Clone)]
pub struct Model {
    /// True facts: EDB plus everything derived.
    pub facts: FactStore,
    /// Atoms with undefined truth value under the well-founded semantics
    /// (always empty for stratified programs).
    pub undefined: FactStore,
    /// Evaluation counters.
    pub stats: EvalStats,
    /// How the model was computed (join plans, per-stratum counters).
    pub profile: EvalProfile,
}

impl Model {
    /// Whether `pred(args)` is true in the model.
    pub fn holds(&self, pred: crate::interner::Sym, args: &[Term]) -> bool {
        self.facts.contains(pred, args)
    }

    /// Whether `pred(args)` is undefined (neither true nor false).
    pub fn is_undefined(&self, pred: crate::interner::Sym, args: &[Term]) -> bool {
        self.undefined.contains(pred, args)
    }

    /// The true rows of `pred`, in place, in insertion order.
    pub fn tuples(&self, pred: crate::interner::Sym) -> Rows<'_> {
        self.facts
            .relation(pred)
            .map_or_else(Rows::empty, |r| r.iter())
    }

    /// Matches a query atom (which may contain variables) against the true
    /// facts, returning one substituted argument vector per solution.
    /// Ground argument positions are answered through the relation index
    /// instead of a full scan.
    pub fn query(&self, pattern: &Atom) -> Vec<Vec<Term>> {
        let mut out = Vec::new();
        let args = &pattern.args;
        let Some(rel) = self
            .facts
            .relation(pattern.pred)
            .filter(|r| r.arity() == args.len())
        else {
            return out;
        };
        let mut vars = Vec::new();
        pattern.collect_vars(&mut vars);
        let nvars = vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut subst = Subst::with_capacity(nvars);
        let mut scan = |row: &[Term], out: &mut Vec<Vec<Term>>| {
            let m = subst.mark();
            if args.iter().zip(row).all(|(p, v)| subst.match_term(p, v)) {
                out.push(args.iter().map(|t| t.apply(&subst)).collect());
            }
            subst.undo_to(m);
        };
        if args.iter().any(Term::is_ground) {
            let (_, rows) = rel.probe(|c| args[c].is_ground(), |c| Cow::Borrowed(&args[c]));
            for row in rows {
                scan(row, &mut out);
            }
        } else {
            for row in rel.iter() {
                scan(row, &mut out);
            }
        }
        out
    }
}

/// How negated atoms are decided during matching.
#[derive(Clone, Copy)]
pub(crate) enum NegView<'a> {
    /// Stratified: `not p(t)` holds iff `p(t)` is absent from the total
    /// store (lower strata are complete by construction).
    Closed,
    /// Reduct: `not p(t)` holds iff `p(t)` is absent from a frozen
    /// interpretation (the alternating-fixpoint argument).
    Frozen(&'a FactStore),
}

/// How one item of a planned body reads the store. In plan order the
/// variables bound when an item runs are exactly those the items before it
/// bind — a positive atom all of its own, an assignment its left side, an
/// aggregate its grouping variables and result — so which columns of an
/// atom are ground is known before the first row is read.
#[derive(Debug)]
enum Path {
    /// A positive atom: its columns ground when it runs (constants, and
    /// variables bound before it), ascending, and the others.
    Pos {
        bound: Box<[usize]>,
        free: Box<[usize]>,
    },
    /// An aggregate: the paths of its body start at this index.
    Agg(usize),
    /// A negated atom, a comparison or an assignment: nothing to fix.
    Other,
}

/// Appends the paths of `items`, run with the variables of `bound` bound,
/// to `out`: one per item, in item order, then each aggregate's body's.
fn plan_paths(items: &[BodyItem], mut bound: Vec<Var>, out: &mut Vec<Path>) {
    let base = out.len();
    out.extend(items.iter().map(|_| Path::Other));
    for (i, item) in items.iter().enumerate() {
        let path = match item {
            BodyItem::Pos(atom) => {
                let (ground, free): (Vec<usize>, Vec<usize>) =
                    (0..atom.args.len()).partition(|&c| term_bound(&atom.args[c], &bound));
                Path::Pos {
                    bound: ground.into(),
                    free: free.into(),
                }
            }
            BodyItem::Agg(agg) => {
                let start = out.len();
                plan_paths(&agg.body, bound.clone(), out);
                Path::Agg(start)
            }
            BodyItem::Neg(_) | BodyItem::Cmp(..) | BodyItem::Assign(..) => Path::Other,
        };
        out[base + i] = path;
        for v in item.provided_vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
}

/// A rule as the rounds run it: its body in join order, the plan that
/// ordered it, and the access path of every atom in it. Made once per
/// stratum evaluation (once per rule-set revision for the memoized
/// negation-cyclic strata) and read by every round.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) rule: Rule,
    pub(crate) plan: RulePlan,
    paths: Box<[Path]>,
}

impl Prepared {
    pub(crate) fn new(rule: Rule, plan: RulePlan) -> Self {
        let mut paths = Vec::new();
        plan_paths(&rule.body, Vec::new(), &mut paths);
        Prepared {
            rule,
            plan,
            paths: paths.into(),
        }
    }
}

/// What one round reads: the store built so far, the facts the round
/// before added (read by a delta-variant unit at its delta position), and
/// how negation is decided.
struct Reads<'a> {
    total: &'a FactStore,
    delta: Option<&'a FactStore>,
    neg: NegView<'a>,
    use_index: bool,
}

/// A body item's path resolved against one round's stores: the relation
/// an atom reads, looked up once per unit. A slot lives no longer than its
/// unit's pass — the stores are written between rounds — and neither does
/// the index handle its probe takes.
enum Slot<'a> {
    /// A positive atom over no relation of its predicate and arity: it
    /// matches nothing, and counts as no probe.
    Nothing,
    /// A positive atom read by a scan: none of it is bound, or indexing is
    /// off.
    Scan {
        atom: &'a Atom,
        rel: &'a Relation,
    },
    /// A positive atom bound in every column: one membership test.
    Member {
        atom: &'a Atom,
        rel: &'a Relation,
    },
    /// A positive atom bound in some columns: a probe of the index on
    /// them, then a match of the `free` ones. `store` holds `rows`'
    /// relation, to tell an owned index build from a borrowed one.
    Probe {
        atom: &'a Atom,
        rows: Probe<'a>,
        free: &'a [usize],
        store: &'a FactStore,
    },
    /// A negated atom and the relation its absence is tested in, if one of
    /// its arity exists.
    Absent {
        atom: &'a Atom,
        rel: Option<&'a Relation>,
    },
    Cmp(CmpOp, &'a Expr, &'a Expr),
    Assign(&'a Term, &'a Expr),
    /// An aggregate; the slots of its body start at `start`.
    Agg {
        agg: &'a Aggregate,
        start: usize,
    },
}

/// `atom`'s relation in `store`, if it has one of the atom's arity: a
/// pattern of another arity matches no row.
fn relation_of<'a>(store: &'a FactStore, atom: &Atom) -> Option<&'a Relation> {
    store
        .relation(atom.pred)
        .filter(|r| r.arity() == atom.args.len())
}

/// Resolves a body's `paths` against `reads` into `slots`, one per path;
/// the positive atom at body position `delta_at` reads the delta.
fn resolve<'a>(
    body: &'a [BodyItem],
    paths: &'a [Path],
    reads: &Reads<'a>,
    delta_at: Option<usize>,
    slots: &mut Vec<Slot<'a>>,
) {
    slots.clear();
    slots.resize_with(paths.len(), || Slot::Nothing);
    fill(body, 0, paths, reads, delta_at, slots);
}

/// [`resolve`] for the items whose paths start at `paths[base]`.
fn fill<'a>(
    items: &'a [BodyItem],
    base: usize,
    paths: &'a [Path],
    reads: &Reads<'a>,
    delta_at: Option<usize>,
    slots: &mut [Slot<'a>],
) {
    for (i, item) in items.iter().enumerate() {
        slots[base + i] = match (item, &paths[base + i]) {
            (BodyItem::Pos(atom), Path::Pos { bound, free }) => {
                let store = match reads.delta {
                    Some(delta) if delta_at == Some(i) => delta,
                    _ => reads.total,
                };
                match relation_of(store, atom) {
                    None => Slot::Nothing,
                    Some(rel) if !reads.use_index || bound.is_empty() => Slot::Scan { atom, rel },
                    Some(rel) if free.is_empty() => Slot::Member { atom, rel },
                    Some(rel) => Slot::Probe {
                        atom,
                        rows: Probe::new(rel, bound),
                        free,
                        store,
                    },
                }
            }
            (BodyItem::Neg(atom), _) => {
                let decides = match reads.neg {
                    NegView::Closed => reads.total,
                    NegView::Frozen(j) => j,
                };
                Slot::Absent {
                    atom,
                    rel: relation_of(decides, atom),
                }
            }
            (BodyItem::Cmp(op, l, r), _) => Slot::Cmp(*op, l, r),
            (BodyItem::Assign(lhs, expr), _) => Slot::Assign(lhs, expr),
            (BodyItem::Agg(agg), &Path::Agg(start)) => {
                fill(&agg.body, start, paths, reads, None, slots);
                Slot::Agg { agg, start }
            }
            // `plan_paths` made `paths` from these very items: a positive
            // atom's path is `Pos`, an aggregate's `Agg`.
            (BodyItem::Pos(_) | BodyItem::Agg(_), _) => {
                unreachable!("paths planned from another body")
            }
        };
    }
}

/// What matching reads: every slot of the unit (an aggregate's body finds
/// its own through [`Slot::Agg`]) and the scope's index counters.
struct MatchCtx<'a> {
    slots: &'a [Slot<'a>],
    counters: &'a IndexCounters<'a>,
}

/// Enumerates all solutions of the body whose slots are `body`, from
/// position `idx` on, under `subst`, invoking `cb` for each complete
/// solution. Returns the number of solutions found.
fn solve(
    body: &[Slot<'_>],
    idx: usize,
    subst: &mut Subst,
    ctx: &MatchCtx<'_>,
    cb: &mut dyn FnMut(&Subst),
) -> usize {
    let Some(slot) = body.get(idx) else {
        cb(subst);
        return 1;
    };
    let mut found = 0;
    match slot {
        Slot::Nothing => {}
        Slot::Scan { atom, rel } => {
            ctx.counters.miss();
            for row in rel.iter() {
                let m = subst.mark();
                if atom
                    .args
                    .iter()
                    .zip(row)
                    .all(|(p, v)| subst.match_term(p, v))
                {
                    found += solve(body, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        Slot::Member { atom, rel } => {
            ctx.counters.hit();
            if rel.contains_by(|c| atom.args[c].resolve(subst)) {
                found += solve(body, idx + 1, subst, ctx, cb);
            }
        }
        Slot::Probe {
            atom,
            rows,
            free,
            store,
        } => {
            let args = &atom.args;
            let group = rows.rows(
                |c| args[c].resolve(subst),
                || ctx.counters.build(store, atom.pred),
            );
            ctx.counters.hit();
            // The index matched the bound columns: only the others bind.
            for row in group {
                let m = subst.mark();
                if free.iter().all(|&c| subst.match_term(&args[c], &row[c])) {
                    found += solve(body, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        Slot::Absent { atom, rel } => {
            debug_assert!(
                atom.args.iter().all(|t| t.is_ground_under(subst)),
                "negation not ground at runtime"
            );
            if !rel.is_some_and(|r| r.contains_by(|c| atom.args[c].resolve(subst))) {
                found += solve(body, idx + 1, subst, ctx, cb);
            }
        }
        Slot::Cmp(op, l, r) => {
            if let (Some(lv), Some(rv)) = (l.eval(subst), r.eval(subst)) {
                if cmp_holds(*op, &lv, &rv) {
                    found += solve(body, idx + 1, subst, ctx, cb);
                }
            }
        }
        Slot::Assign(lhs, expr) => {
            if let Some(val) = expr.eval(subst) {
                let m = subst.mark();
                if subst.match_term(lhs, &val) {
                    found += solve(body, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        Slot::Agg { agg, start } => {
            let inner = &ctx.slots[*start..*start + agg.body.len()];
            found += solve_aggregate(body, idx, agg, inner, subst, ctx, cb);
        }
    }
    found
}

/// Every solution of `rule`'s body over `facts` — negation decided against
/// `facts` too — extending `subst`, which binds the variables of `rule`'s
/// head: how `explain` finds a rule instance behind a fact.
pub(crate) fn body_solutions(
    rule: &Rule,
    facts: &FactStore,
    subst: &mut Subst,
    cb: &mut dyn FnMut(&Subst),
) {
    let mut head = Vec::new();
    rule.head.collect_vars(&mut head);
    let mut paths = Vec::new();
    plan_paths(&rule.body, head, &mut paths);
    let reads = Reads {
        total: facts,
        delta: None,
        neg: NegView::Closed,
        use_index: true,
    };
    let mut slots = Vec::new();
    resolve(&rule.body, &paths, &reads, None, &mut slots);
    let counters = IndexCounters::default();
    let ctx = MatchCtx {
        slots: &slots,
        counters: &counters,
    };
    solve(&slots[..rule.body.len()], 0, subst, &ctx, cb);
}

fn cmp_holds(op: CmpOp, l: &Term, r: &Term) -> bool {
    // Integers compare numerically; other terms use the structural order.
    let ord = l.cmp(r);
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// Evaluates an aggregate subgoal: runs the subquery (against the total
/// store — aggregates are stratified), groups solutions by the group-by
/// variables, folds the distinct collected values, and continues with each
/// group's bindings. `inner` are the subquery's slots.
fn solve_aggregate(
    body: &[Slot<'_>],
    idx: usize,
    agg: &Aggregate,
    inner: &[Slot<'_>],
    subst: &mut Subst,
    ctx: &MatchCtx<'_>,
    cb: &mut dyn FnMut(&Subst),
) -> usize {
    // The subquery reads the total store, never the delta (its slots were
    // resolved so), and inherits the outer bindings (correlation).
    let mut groups: HashMap<Vec<Term>, HashSet<Term>> = HashMap::new();
    {
        let groups = &mut groups;
        let value = &agg.value;
        let group_by = &agg.group_by;
        let m = subst.mark();
        solve(inner, 0, subst, ctx, &mut |s: &Subst| {
            let key: Vec<Term> = group_by.iter().map(|v| Term::Var(*v).apply(s)).collect();
            let val = value.apply(s);
            if key.iter().all(Term::is_ground) && val.is_ground() {
                groups.entry(key).or_default().insert(val);
            }
        });
        subst.undo_to(m);
    }
    // `count`/`sum` of an empty solution set (no grouping) is 0 — needed to
    // detect cardinality violations of the form "exactly one" (Example 3).
    if groups.is_empty() && agg.group_by.is_empty() {
        if let Some(zero) = fold_empty(agg.func) {
            groups.insert(Vec::new(), HashSet::new());
            let _ = zero; // marker: empty group handled by fold()
        }
    }
    let mut found = 0;
    for (key, values) in groups {
        let Some(result) = fold(agg.func, &values) else {
            continue;
        };
        let m = subst.mark();
        let mut ok = true;
        for (v, k) in agg.group_by.iter().zip(key.iter()) {
            if !subst.match_term(&Term::Var(*v), k) {
                ok = false;
                break;
            }
        }
        if ok && subst.match_term(&Term::Var(agg.result), &result) {
            found += solve(body, idx + 1, subst, ctx, cb);
        }
        subst.undo_to(m);
    }
    found
}

fn fold_empty(func: AggFunc) -> Option<Term> {
    match func {
        AggFunc::Count | AggFunc::Sum => Some(Term::Int(0)),
        AggFunc::Min | AggFunc::Max => None,
    }
}

fn fold(func: AggFunc, values: &HashSet<Term>) -> Option<Term> {
    match func {
        AggFunc::Count => Some(Term::Int(values.len() as i64)),
        AggFunc::Sum => {
            let mut acc: i64 = 0;
            for v in values {
                match v {
                    Term::Int(i) => acc = acc.checked_add(*i)?,
                    _ => return None,
                }
            }
            Some(Term::Int(acc))
        }
        AggFunc::Min => values.iter().min().cloned(),
        AggFunc::Max => values.iter().max().cloned(),
    }
}

/// A round's reusable buffers, one of each per round rather than per unit.
#[derive(Default)]
struct Scratch {
    subst: Subst,
    head: Vec<Term>,
}

/// Applies one unit — `prep`'s rule, its slots resolved in `ctx` —
/// inserting the head facts new to `total` into `out`.
fn apply_rule(
    prep: &Prepared,
    ctx: &MatchCtx<'_>,
    total: &FactStore,
    out: &mut FactStore,
    scratch: &mut Scratch,
    stats: &mut EvalStats,
    max_depth: usize,
) {
    let head = &prep.rule.head;
    // The head's relations, resolved once: the one it must be new to, and
    // the bulk writer of the one it goes into, opened at the first new row
    // (forgotten again if nothing went in, so a delta store never holds an
    // empty relation a later probe would count).
    let known = total.relation(head.pred);
    let [mut into] = out.bulk([(head.pred, head.args.len(), 0)]);
    let Scratch { subst, head: row } = scratch;
    let mut clipped = 0usize;
    let mut apps = 0usize;
    solve(
        &ctx.slots[..prep.rule.body.len()],
        0,
        subst,
        ctx,
        &mut |s: &Subst| {
            apps += 1;
            row.clear();
            row.extend(head.args.iter().map(|t| t.apply(s)));
            debug_assert!(row.iter().all(Term::is_ground), "non-ground head");
            if row.iter().any(|t| t.depth() > max_depth) {
                clipped += 1;
                return;
            }
            if !known.is_some_and(|r| r.contains(row)) {
                into.insert(row);
            }
        },
    );
    drop(into);
    out.drop_if_empty(head.pred);
    stats.applications += apps;
    stats.depth_clipped += clipped;
}

/// Join planning: reorders `rule` for evaluation (when enabled), recording
/// the chosen plan, and prepares it. Same-stratum predicates are costed as
/// unbounded since their relations grow during iteration.
pub(crate) fn plan_rule(
    rule: &Rule,
    total: &FactStore,
    stratum_preds: &HashSet<Sym>,
    opts: &EvalOptions,
) -> Prepared {
    if !opts.join_reorder {
        let plan = RulePlan {
            head: rule.head.pred,
            join_order: (0..rule.body.len()).collect(),
            reordered: false,
        };
        return Prepared::new(rule.clone(), plan);
    }
    let (planned, join_order) = rule.reorder(|p| {
        if stratum_preds.contains(&p) {
            usize::MAX
        } else {
            total.relation(p).map_or(0, |r| r.len())
        }
    });
    let reordered = join_order.iter().enumerate().any(|(i, &o)| i != o);
    let plan = RulePlan {
        head: rule.head.pred,
        join_order,
        reordered,
    };
    Prepared::new(planned, plan)
}

/// Executes one full application pass (one fixpoint round): every
/// `(rule, delta-variant)` unit once, in (rule-index, variant-index)
/// order, into one shared store of new facts. A unit resolves its slots
/// once and probes through them; the slot vector, the substitution and
/// the head row are allocated once for the round.
pub(crate) fn execute_round(
    units: &[(&Prepared, Option<usize>)],
    total: &FactStore,
    delta: Option<&FactStore>,
    neg: NegView<'_>,
    opts: &EvalOptions,
    counters: &IndexCounters,
    stats: &mut EvalStats,
) -> FactStore {
    let reads = Reads {
        total,
        delta,
        neg,
        use_index: opts.use_index,
    };
    let mut out = FactStore::new();
    let mut slots = Vec::new();
    let mut scratch = Scratch::default();
    for &(prep, delta_at) in units {
        debug_assert!(
            delta_at.is_none() || delta.is_some(),
            "a delta unit without a delta"
        );
        resolve(&prep.rule.body, &prep.paths, &reads, delta_at, &mut slots);
        let ctx = MatchCtx {
            slots: &slots,
            counters,
        };
        apply_rule(
            prep,
            &ctx,
            total,
            &mut out,
            &mut scratch,
            stats,
            opts.max_term_depth,
        );
    }
    out
}

/// Join plans for the rules `ids` of one evaluation unit (a stratum, or a
/// three-valued tail), with every predicate of the unit costed as
/// unbounded: those relations grow while the unit runs.
pub(crate) fn plan_rules(
    rules: &[Rule],
    ids: &[usize],
    preds: &[Sym],
    total: &FactStore,
    opts: &EvalOptions,
) -> Vec<Prepared> {
    let preds: HashSet<Sym> = preds.iter().copied().collect();
    ids.iter()
        .map(|&ri| plan_rule(&rules[ri], total, &preds, opts))
        .collect()
}

/// The counters one stratum's evaluation runs against; closing the scope
/// turns them into the stratum's profile entry and folds the index
/// counters into the run totals.
pub(crate) struct StratumScope<'a> {
    pub(crate) counters: IndexCounters<'a>,
    before: EvalStats,
}

impl<'a> StratumScope<'a> {
    /// `borrowed` is the delta walk's working store whose relations the
    /// evaluation reads in place, if any (see [`IndexCounters`]).
    pub(crate) fn open(stats: &EvalStats, borrowed: Option<&'a FactStore>) -> Self {
        StratumScope {
            counters: IndexCounters::new(borrowed),
            before: *stats,
        }
    }

    /// Completes `sp` (which names the stratum and how it ran) with what
    /// the scope measured.
    pub(crate) fn close(
        self,
        stats: &mut EvalStats,
        prepared: &[Prepared],
        sp: StratumProfile,
    ) -> StratumProfile {
        self.counters.fold_into(stats);
        StratumProfile {
            iterations: stats.iterations - self.before.iterations,
            derived: stats.derived - self.before.derived,
            index_builds: self.counters.builds.get(),
            index_hits: self.counters.hits.get(),
            index_misses: self.counters.misses.get(),
            plans: prepared.iter().map(|p| p.plan.clone()).collect(),
            ..sp
        }
    }
}

/// Evaluates one stratum over the completed lower layers in `total`, in
/// the one mode its shape calls for: a single pass (non-recursive), the
/// semi-naive or naive fixpoint (recursive), or — when its cycle goes
/// through negation — the alternating fixpoint over *its own rules only*
/// (the well-founded model restricted to an SCC equals that SCC's
/// well-founded model relative to the two-valued strata below it). `memo`
/// supplies join plans made earlier (a publish memoizes them per rule-set
/// revision); without it the stratum is planned here.
/// `borrowed` is the working store `total` started as a share of, when
/// the walk reads a base model in place.
///
/// Returns the stratum's profile, or `None` when the local alternating
/// fixpoint left atoms undefined: `total` is then untouched, and the
/// caller has to evaluate this stratum and everything above it
/// three-valued. With `keep_undefined` (the walk's last stratum, where
/// that tail is this stratum alone) such a result is the tail's: `total`
/// becomes its true facts, `keep_undefined` its undefined ones, and the
/// profile is returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_stratum(
    rules: &[Rule],
    stratum: &Stratum,
    memo: Option<&[Prepared]>,
    total: &mut FactStore,
    keep_undefined: Option<&mut FactStore>,
    borrowed: Option<&FactStore>,
    stats: &mut EvalStats,
    opts: &EvalOptions,
) -> Result<Option<StratumProfile>> {
    let planned;
    let prepared = match memo {
        Some(plans) => plans,
        None => {
            planned = plan_rules(rules, &stratum.rules, &stratum.preds, total, opts);
            &planned
        }
    };
    let stratum_rules: Vec<&Prepared> = prepared.iter().collect();
    let scope = StratumScope::open(stats, borrowed);
    let mut two_valued = true;
    let mut gamma_passes = 0;
    if stratum.wfs {
        let wf =
            crate::wfs::eval_well_founded(&stratum_rules, total, stats, &scope.counters, opts)?;
        gamma_passes = wf.passes;
        if wf.undefined.is_empty() {
            stats.derived += wf.facts.len() - total.len();
            for &p in &stratum.preds {
                if let Some(rel) = wf.facts.relation_arc(p) {
                    total.set_relation(p, rel);
                }
            }
        } else if let Some(undefined) = keep_undefined {
            stats.derived += wf.facts.len() - total.len();
            (*total, *undefined) = (wf.facts, wf.undefined);
        } else {
            two_valued = false;
        }
    } else if !stratum.recursive {
        let units: Vec<(&Prepared, Option<usize>)> = prepared.iter().map(|p| (p, None)).collect();
        let out = execute_round(
            &units,
            total,
            None,
            NegView::Closed,
            opts,
            &scope.counters,
            stats,
        );
        stats.derived += total.absorb(&out);
        stats.iterations += 1;
    } else if opts.semi_naive {
        let stratum_preds: HashSet<Sym> = stratum.preds.iter().copied().collect();
        seminaive_stratum(
            &stratum_rules,
            &stratum_preds,
            total,
            NegView::Closed,
            stats,
            &scope.counters,
            opts,
        )?;
    } else {
        naive_stratum(
            &stratum_rules,
            total,
            NegView::Closed,
            stats,
            &scope.counters,
            opts,
        )?;
    }
    let sp = scope.close(
        stats,
        prepared,
        StratumProfile {
            preds: stratum.preds.clone(),
            recursive: stratum.recursive,
            well_founded: stratum.wfs,
            gamma_passes,
            ..Default::default()
        },
    );
    Ok(two_valued.then_some(sp))
}

/// What a delta walk (`ivm::Since::walk`) adds to [`eval_strata`]: which
/// strata to take from the base model instead of running them, where to
/// start over, and whose memoized join plans to use.
pub(crate) struct Reuse<'a> {
    /// Per stratum, whether it is the base model's as it stands: nothing
    /// the delta reaches is in it, and its relations are shared into the
    /// working store already.
    pub(crate) reused: &'a [bool],
    /// The engine's stored facts, for the cold re-run a three-valued state
    /// forces.
    pub(crate) stored: &'a FactStore,
    /// The engine whose memoized join plans a rebuilt negation-cyclic
    /// stratum of its *whole* program uses ([`crate::Engine::apply_delta`]).
    pub(crate) plans: Option<&'a crate::Engine>,
}

impl Reuse<'_> {
    /// Evaluates `rules` cold from the stored facts, flagged as a delta
    /// fallback in the profile.
    pub(crate) fn start_over(
        &self,
        rules: &[Rule],
        strat: &Stratification,
        opts: &EvalOptions,
    ) -> Result<Model> {
        let mut model = eval_strata(rules, strat, self.stored, opts, false, None)?;
        model.profile.delta_applied = true;
        model.profile.delta_fallback = true;
        Ok(model)
    }
}

/// Evaluates `rules` over `edb` stratum by stratum — the one walk every
/// evaluation takes. `strat` is the rule set's stratification
/// ([`crate::program::stratify`]).
///
/// The run works on a detached copy of `edb` and owns every relation it
/// reads, unless `borrow` is set: `edb` is then a delta walk's working
/// store, and its relations — the base model's own allocations — are read
/// in place with the indexes they already carry, copied only where a
/// stratum writes. With `reuse` the run *is* that delta walk: a stratum
/// `reuse` accepts keeps the base's relations and is marked skipped, and
/// every other one is rebuilt.
///
/// The model is two-valued unless some stratum's alternating fixpoint
/// leaves atoms undefined. That stratum and every later one are then
/// evaluated *together* under the alternating fixpoint over the two-valued
/// store built so far: closed-world strata cannot read three-valued inputs.
/// A delta walk starts over cold instead, because that tail would read
/// relations it reused.
pub(crate) fn eval_strata(
    rules: &[Rule],
    strat: &Stratification,
    edb: &FactStore,
    opts: &EvalOptions,
    borrow: bool,
    reuse: Option<&Reuse<'_>>,
) -> Result<Model> {
    let borrowed = borrow.then_some(edb);
    let mut total = if borrow {
        edb.clone()
    } else {
        edb.detached_clone()
    };
    let mut undefined = FactStore::new();
    let mut stats = EvalStats::default();
    let mut profile = EvalProfile {
        delta_applied: reuse.is_some(),
        ..Default::default()
    };
    for (i, stratum) in strat.strata.iter().enumerate() {
        if let Some(reuse) = reuse {
            if reuse.reused[i] {
                profile.delta_reused_strata += 1;
                profile.strata.push(StratumProfile {
                    preds: stratum.preds.clone(),
                    recursive: stratum.recursive,
                    skipped: true,
                    ..Default::default()
                });
                continue;
            }
            profile.delta_rebuilt_strata += 1;
        }
        let plan = || plan_rules(rules, &stratum.rules, &stratum.preds, &total, opts);
        let memo = match reuse.and_then(|r| r.plans) {
            Some(engine) if stratum.wfs => Some(engine.wfs_stratum_plan(i, plan)),
            _ => None,
        };
        let memo = memo.as_ref().map(|plans| plans.as_slice());
        // On the last stratum a three-valued result is the tail's own: keep
        // it rather than run the same fixpoint again. A delta walk keeps
        // none, since it starts over cold.
        let last = i + 1 == strat.strata.len() && reuse.is_none();
        let keep = last.then_some(&mut undefined);
        if let Some(sp) = eval_stratum(
            rules, stratum, memo, &mut total, keep, borrowed, &mut stats, opts,
        )? {
            profile.strata.push(sp);
            continue;
        }
        if let Some(reuse) = reuse {
            return reuse.start_over(rules, strat, opts);
        }
        // The three-valued tail, in rule order. It runs the stratum whose
        // attempt left atoms undefined once more, with everything above it.
        let tail = &strat.strata[i..];
        let preds: Vec<Sym> = tail.iter().flat_map(|s| s.preds.iter().copied()).collect();
        let mut ids: Vec<usize> = tail.iter().flat_map(|s| s.rules.iter().copied()).collect();
        ids.sort_unstable();
        let prepared = plan_rules(rules, &ids, &preds, &total, opts);
        let tail_rules: Vec<&Prepared> = prepared.iter().collect();
        let scope = StratumScope::open(&stats, borrowed);
        let wf =
            crate::wfs::eval_well_founded(&tail_rules, &total, &mut stats, &scope.counters, opts)?;
        stats.derived += wf.facts.len() - total.len();
        (total, undefined) = (wf.facts, wf.undefined);
        profile.strata.push(scope.close(
            &mut stats,
            &prepared,
            StratumProfile {
                preds,
                recursive: true,
                well_founded: true,
                gamma_passes: wf.passes,
                ..Default::default()
            },
        ));
        break;
    }
    profile.well_founded = profile.strata.iter().any(|s| s.well_founded);
    Ok(Model {
        facts: total,
        undefined,
        stats,
        profile,
    })
}

/// Rounds of full rule application over `total` until nothing is new.
pub(crate) fn naive_stratum(
    rules: &[&Prepared],
    total: &mut FactStore,
    neg: NegView<'_>,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    let units: Vec<(&Prepared, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
    let since = stats.iterations;
    loop {
        begin_round(opts, stats, since)?;
        let out = execute_round(&units, total, None, neg, opts, counters, stats);
        let added = total.absorb(&out);
        stats.derived += added;
        if added == 0 {
            return Ok(());
        }
    }
}

/// One full pass, then delta rounds: a rule fires again only through a
/// body atom over `stratum_preds` matched in the previous round's new
/// facts.
pub(crate) fn seminaive_stratum(
    rules: &[&Prepared],
    stratum_preds: &HashSet<crate::interner::Sym>,
    total: &mut FactStore,
    neg: NegView<'_>,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    // Round 0: naive pass to seed the delta.
    let since = stats.iterations;
    begin_round(opts, stats, since)?;
    let seed_units: Vec<(&Prepared, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
    let mut delta = execute_round(&seed_units, total, None, neg, opts, counters, stats);
    stats.derived += total.absorb(&delta);
    // One delta-variant unit per positive body atom over a stratum
    // predicate, in fixed (rule-index, variant-index) order; the delta
    // store itself changes per round but the unit list does not.
    let mut delta_units: Vec<(&Prepared, Option<usize>)> = Vec::new();
    for &prep in rules {
        for (di, item) in prep.rule.body.iter().enumerate() {
            if matches!(item, BodyItem::Pos(atom) if stratum_preds.contains(&atom.pred)) {
                delta_units.push((prep, Some(di)));
            }
        }
    }
    while !delta.is_empty() {
        begin_round(opts, stats, since)?;
        let next = execute_round(
            &delta_units,
            total,
            Some(&delta),
            neg,
            opts,
            counters,
            stats,
        );
        stats.derived += total.absorb(&next);
        delta = next;
    }
    Ok(())
}

/// Computes the least model of the *positive reduct* of `rules` wrt the
/// frozen interpretation `j`: `not p(t)` holds iff `p(t) ∉ j`. Used by the
/// alternating fixpoint (well-founded semantics). Its rounds and
/// applications are counted, its facts are not: a reduct is not the
/// model, and `derived` counts the model's facts.
///
/// The layers below are read in place: the result starts as a share of
/// `edb`'s relation handles and copies one only where a head grows, so an
/// index a reduct builds on a lower relation serves the next reduct too
/// (and is nobody's build where a delta walk borrowed the relation).
pub(crate) fn gamma(
    rules: &[&Prepared],
    edb: &FactStore,
    j: &FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<FactStore> {
    let mut total = edb.clone();
    let derived = stats.derived;
    // With negation frozen the program is positive, so one fixpoint over
    // all its rules is sound, and so are delta rounds — unless a rule
    // aggregates: an aggregate reads the whole of a relation that is still
    // growing, which only full re-application re-reads.
    let aggregates = |p: &&Prepared| p.rule.body.iter().any(|b| matches!(b, BodyItem::Agg(_)));
    let neg = NegView::Frozen(j);
    if opts.semi_naive && !rules.iter().any(aggregates) {
        let heads: HashSet<Sym> = rules.iter().map(|p| p.rule.head.pred).collect();
        seminaive_stratum(rules, &heads, &mut total, neg, stats, counters, opts)?;
    } else {
        naive_stratum(rules, &mut total, neg, stats, counters, opts)?;
    }
    stats.derived = derived;
    Ok(total)
}

/// Whether some instance of `rules` that fires in the reduct wrt `lower`
/// with its positive body in `upper` — `upper` being that reduct's least
/// model, `Γ(lower)` — negates an atom of `own` that `upper` holds. Only
/// those atoms are checked, so only rules negating one are enumerated:
/// every other predicate reads the same relation in `lower` and `upper`. `false` certifies `Γ(upper) ⊇ upper` (module
/// doc of `wfs`). The instances are enumerated like a round's, through the
/// scope's index counters, but apply nothing and count no application.
pub(crate) fn negates_into_upper(
    rules: &[&Prepared],
    own: &HashSet<Sym>,
    lower: &FactStore,
    upper: &FactStore,
    opts: &EvalOptions,
    counters: &IndexCounters,
) -> bool {
    let reads = Reads {
        total: upper,
        delta: None,
        neg: NegView::Frozen(lower),
        use_index: opts.use_index,
    };
    let mut slots = Vec::new();
    let mut subst = Subst::default();
    let mut found = false;
    for prep in rules {
        let body = &prep.rule.body;
        let negated: Vec<(&Atom, &Relation)> = body
            .iter()
            .filter_map(|item| match item {
                BodyItem::Neg(atom) if own.contains(&atom.pred) => {
                    Some((atom, relation_of(upper, atom)?))
                }
                _ => None,
            })
            .collect();
        if negated.is_empty() {
            continue;
        }
        resolve(body, &prep.paths, &reads, None, &mut slots);
        let ctx = MatchCtx {
            slots: &slots,
            counters,
        };
        solve(
            &slots[..body.len()],
            0,
            &mut subst,
            &ctx,
            &mut |s: &Subst| {
                found = found
                    || negated
                        .iter()
                        .any(|(atom, rel)| rel.contains_by(|c| atom.args[c].resolve(s)));
            },
        );
        if found {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::program::stratify;
    use crate::term::Var;

    struct Fixture {
        syms: Interner,
        edb: FactStore,
        rules: Vec<Rule>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                syms: Interner::new(),
                edb: FactStore::new(),
                rules: Vec::new(),
            }
        }
        fn c(&mut self, name: &str) -> Term {
            Term::Const(self.syms.intern(name))
        }
        fn fact(&mut self, pred: &str, args: &[Term]) {
            let p = self.syms.intern(pred);
            self.edb.insert(p, args);
        }
        fn run(&self) -> Model {
            let strat = stratify(&self.rules, |s| format!("{s}")).unwrap();
            assert!(!strat.needs_wfs);
            eval_strata(
                &self.rules,
                &strat,
                &self.edb,
                &EvalOptions::default(),
                false,
                None,
            )
            .unwrap()
        }
    }

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    #[test]
    fn transitive_closure() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        let c = f.c("c");
        let d = f.c("d");
        f.fact("e", &[a.clone(), b.clone()]);
        f.fact("e", &[b.clone(), c.clone()]);
        f.fact("e", &[c.clone(), d.clone()]);
        let e = f.syms.intern("e");
        let tc = f.syms.intern("tc");
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![BodyItem::Pos(Atom::new(e, vec![v(0), v(1)]))],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(tc, vec![v(0), v(2)])),
                    BodyItem::Pos(Atom::new(e, vec![v(2), v(1)])),
                ],
                3,
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(tc, &[a.clone(), d.clone()]));
        assert!(m.holds(tc, &[b.clone(), d.clone()]));
        assert!(!m.holds(tc, &[d.clone(), a.clone()]));
        assert_eq!(m.tuples(tc).len(), 6);
    }

    #[test]
    fn seminaive_and_naive_agree() {
        let mut f = Fixture::new();
        // Chain of 30 nodes.
        let nodes: Vec<Term> = (0..30).map(|i| f.c(&format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            f.fact("e", &[w[0].clone(), w[1].clone()]);
        }
        let e = f.syms.intern("e");
        let tc = f.syms.intern("tc");
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![BodyItem::Pos(Atom::new(e, vec![v(0), v(1)]))],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(tc, vec![v(0), v(2)])),
                    BodyItem::Pos(Atom::new(tc, vec![v(2), v(1)])),
                ],
                3,
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let strat = stratify(&f.rules, |s| format!("{s}")).unwrap();
        let semi = eval_strata(
            &f.rules,
            &strat,
            &f.edb,
            &EvalOptions::default(),
            false,
            None,
        )
        .unwrap();
        let naive = eval_strata(
            &f.rules,
            &strat,
            &f.edb,
            &EvalOptions {
                semi_naive: false,
                ..Default::default()
            },
            false,
            None,
        )
        .unwrap();
        assert_eq!(semi.tuples(tc).len(), naive.tuples(tc).len());
        assert_eq!(semi.tuples(tc).len(), 29 * 30 / 2);
    }

    #[test]
    fn stratified_negation_complement() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        f.fact("node", std::slice::from_ref(&a));
        f.fact("node", std::slice::from_ref(&b));
        f.fact("marked", std::slice::from_ref(&a));
        let node = f.syms.intern("node");
        let marked = f.syms.intern("marked");
        let un = f.syms.intern("unmarked");
        f.rules.push(
            Rule::compile(
                Atom::new(un, vec![v(0)]),
                vec![
                    BodyItem::Pos(Atom::new(node, vec![v(0)])),
                    BodyItem::Neg(Atom::new(marked, vec![v(0)])),
                ],
                1,
                vec!["X".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(!m.holds(un, &[a]));
        assert!(m.holds(un, &[b]));
    }

    #[test]
    fn aggregate_count_groups() {
        let mut f = Fixture::new();
        let n1 = f.c("n1");
        let n2 = f.c("n2");
        let a1 = f.c("a1");
        let a2 = f.c("a2");
        let a3 = f.c("a3");
        f.fact("has", &[n1.clone(), a1]);
        f.fact("has", &[n1.clone(), a2]);
        f.fact("has", &[n2.clone(), a3]);
        let has = f.syms.intern("has");
        let cnt = f.syms.intern("cnt");
        // cnt(N, C) :- C = count{ A [N] : has(N, A) }.
        f.rules.push(
            Rule::compile(
                Atom::new(cnt, vec![v(0), v(1)]),
                vec![BodyItem::Agg(Aggregate {
                    func: AggFunc::Count,
                    value: v(2),
                    group_by: vec![Var(0)],
                    body: vec![BodyItem::Pos(Atom::new(has, vec![v(0), v(2)]))],
                    result: Var(1),
                })],
                3,
                vec!["N".into(), "C".into(), "A".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(cnt, &[n1, Term::Int(2)]));
        assert!(m.holds(cnt, &[n2, Term::Int(1)]));
    }

    #[test]
    fn aggregate_count_empty_is_zero() {
        let mut f = Fixture::new();
        let x = f.c("x");
        f.fact("probe", std::slice::from_ref(&x));
        let probe = f.syms.intern("probe");
        let none = f.syms.intern("nothing");
        let res = f.syms.intern("res");
        // res(P, C) :- probe(P), C = count{ Y : nothing(Y) }.
        f.rules.push(
            Rule::compile(
                Atom::new(res, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(probe, vec![v(0)])),
                    BodyItem::Agg(Aggregate {
                        func: AggFunc::Count,
                        value: v(2),
                        group_by: vec![],
                        body: vec![BodyItem::Pos(Atom::new(none, vec![v(2)]))],
                        result: Var(1),
                    }),
                ],
                3,
                vec!["P".into(), "C".into(), "Y".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(res, &[x, Term::Int(0)]));
    }

    #[test]
    fn aggregate_sum_min_max() {
        let mut f = Fixture::new();
        let g = f.c("g");
        f.fact("m", &[g.clone(), Term::Int(3)]);
        f.fact("m", &[g.clone(), Term::Int(5)]);
        f.fact("m", &[g.clone(), Term::Int(5)]); // duplicate value: set semantics
        let mp = f.syms.intern("m");
        for (name, func, expect) in [
            ("s", AggFunc::Sum, 8),
            ("mn", AggFunc::Min, 3),
            ("mx", AggFunc::Max, 5),
        ] {
            let p = f.syms.intern(name);
            f.rules.push(
                Rule::compile(
                    Atom::new(p, vec![v(0), v(1)]),
                    vec![BodyItem::Agg(Aggregate {
                        func,
                        value: v(2),
                        group_by: vec![Var(0)],
                        body: vec![BodyItem::Pos(Atom::new(mp, vec![v(0), v(2)]))],
                        result: Var(1),
                    })],
                    3,
                    vec!["G".into(), "R".into(), "V".into()],
                )
                .unwrap(),
            );
            let m = f.run();
            assert!(
                m.holds(p, &[g.clone(), Term::Int(expect)]),
                "{name} expected {expect}"
            );
            f.rules.clear();
        }
    }

    #[test]
    fn depth_limit_clips_skolem_chains() {
        let mut f = Fixture::new();
        let a = f.c("a");
        f.fact("p", &[a]);
        let p = f.syms.intern("p");
        let fsym = f.syms.intern("f");
        // p(f(X)) :- p(X).  — infinite without the depth limit.
        f.rules.push(
            Rule::compile(
                Atom::new(p, vec![Term::func(fsym, vec![v(0)])]),
                vec![BodyItem::Pos(Atom::new(p, vec![v(0)]))],
                1,
                vec!["X".into()],
            )
            .unwrap(),
        );
        let strat = stratify(&f.rules, |s| format!("{s}")).unwrap();
        let opts = EvalOptions {
            max_term_depth: 4,
            ..Default::default()
        };
        let m = eval_strata(&f.rules, &strat, &f.edb, &opts, false, None).unwrap();
        // a, f(a), f(f(a)), f3(a), f4(a): 5 facts.
        assert_eq!(m.tuples(p).len(), 5);
        assert!(m.stats.depth_clipped > 0);
    }

    #[test]
    fn arithmetic_assignment() {
        let mut f = Fixture::new();
        f.fact("n", &[Term::Int(4)]);
        let n = f.syms.intern("n");
        let d = f.syms.intern("double");
        f.rules.push(
            Rule::compile(
                Atom::new(d, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(n, vec![v(0)])),
                    BodyItem::Assign(
                        v(1),
                        crate::atom::Expr::Mul(
                            Box::new(crate::atom::Expr::Term(v(0))),
                            Box::new(crate::atom::Expr::Term(Term::Int(2))),
                        ),
                    ),
                ],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(d, &[Term::Int(4), Term::Int(8)]));
    }

    #[test]
    fn profile_records_plans_and_index_counters() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        f.fact("e", &[a.clone(), b.clone()]);
        f.fact("e", &[b.clone(), a.clone()]);
        let e = f.syms.intern("e");
        let tc = f.syms.intern("tc");
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![BodyItem::Pos(Atom::new(e, vec![v(0), v(1)]))],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(tc, vec![v(0), v(2)])),
                    BodyItem::Pos(Atom::new(e, vec![v(2), v(1)])),
                ],
                3,
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert_eq!(m.profile.strata.len(), 1);
        let sp = &m.profile.strata[0];
        assert!(sp.recursive);
        assert!(!sp.skipped);
        assert_eq!(sp.plans.len(), 2);
        assert!(sp.plans.iter().all(|p| p.head == tc));
        assert!(sp.iterations >= 2);
        // The recursive rule joins with a bound variable, so some probes
        // must have gone through the index.
        assert!(sp.index_hits > 0);
        assert_eq!(m.stats.index_hits, sp.index_hits);
        // With indexing off the same program reports only misses.
        let strat = stratify(&f.rules, |s| format!("{s}")).unwrap();
        let noidx = eval_strata(
            &f.rules,
            &strat,
            &f.edb,
            &EvalOptions {
                use_index: false,
                ..Default::default()
            },
            false,
            None,
        )
        .unwrap();
        assert_eq!(noidx.stats.index_hits, 0);
        assert_eq!(noidx.stats.index_builds, 0);
        assert!(noidx.stats.index_misses > 0);
        assert_eq!(noidx.tuples(tc).len(), m.tuples(tc).len());
    }

    #[test]
    fn model_query_uses_index_for_ground_positions() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        let c = f.c("c");
        f.fact("e", &[a.clone(), b.clone()]);
        f.fact("e", &[a.clone(), c.clone()]);
        f.fact("e", &[b.clone(), c.clone()]);
        let e = f.syms.intern("e");
        let m = f.run();
        // Ground first argument: index probe.
        let sols = m.query(&Atom::new(e, vec![a.clone(), v(0)]));
        assert_eq!(sols.len(), 2);
        // Ground second argument only.
        let sols = m.query(&Atom::new(e, vec![v(0), c.clone()]));
        assert_eq!(sols.len(), 2);
        // Fully ground.
        let sols = m.query(&Atom::new(e, vec![a.clone(), b.clone()]));
        assert_eq!(sols.len(), 1);
        // All variables: full scan.
        let sols = m.query(&Atom::new(e, vec![v(0), v(1)]));
        assert_eq!(sols.len(), 3);
        let rel = m.facts.relation(e).unwrap();
        assert!(rel.index_count() >= 2);
    }
}
