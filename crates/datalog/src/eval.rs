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
//! it are then evaluated together, three-valued.
//!
//! Three further performance layers sit on top, each with its own
//! [`EvalOptions`] knob so the ablation benches can decompose the speedup:
//!
//! * **join planning** ([`EvalOptions::join_reorder`]): before a stratum
//!   runs, each rule body is greedily reordered by bound-variable count and
//!   current relation cardinality ([`Rule::reorder`]); the chosen order is
//!   recorded in the model's [`EvalProfile`] for `explain`-style dumps;
//! * **indexing** ([`EvalOptions::use_index`]): joins with any bound
//!   argument probe a lazily-built hash index on exactly the bound column
//!   set ([`crate::fact::Relation::probe`]); build/hit/miss counts
//!   land in [`EvalStats`];
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

use crate::atom::{AggFunc, Aggregate, Atom, BodyItem, CmpOp};
use crate::error::{DatalogError, Result};
use crate::fact::{FactStore, Tuple};
use crate::interner::Sym;
use crate::program::{Stratification, Stratum};
use crate::rule::Rule;
use crate::term::{Subst, Term};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared, clonable cancellation flag for cooperative interruption of
/// long-running fixpoints (and, in `kind-core`, of in-flight fetch
/// plans). Every clone observes the same flag; setting it is sticky
/// until [`CancelToken::reset`]. A token made by [`CancelToken::until`]
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
    /// anybody called [`Self::cancel`]. [`Self::reset`] clears the flag,
    /// not the deadline.
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

    /// Clears the flag so the token can be reused for the next
    /// operation.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for CancelToken {
    /// Renders only the flag's value — never the allocation identity or
    /// the deadline — so two structurally equal option sets format
    /// identically (the mediator's base-model fingerprint hashes a
    /// `Debug` rendering) and formatting never reads the clock.
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
    /// path ([`crate::Engine::run_for_query`]): adorn the relevant rules
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
    /// default) evaluates to completion. The token does not participate
    /// in model identity: two runs differing only in `cancel` produce
    /// the same model (when neither is actually cancelled).
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
    /// base model (untouched by the delta).
    pub delta_reused_strata: usize,
    /// Strata the delta walk re-evaluated incrementally (semi-naive
    /// additions on the previous extension, or DRed overdelete/rederive).
    pub delta_incremental_strata: usize,
    /// Strata the delta walk rebuilt cold (non-monotone residues: changed
    /// rules, mixed grow/shrink inputs).
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

    /// All tuples of `pred` that are true.
    pub fn tuples(&self, pred: crate::interner::Sym) -> Vec<Tuple> {
        self.facts
            .relation(pred)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Matches a query atom (which may contain variables) against the true
    /// facts, returning one substituted argument vector per solution.
    /// Ground argument positions are answered through the relation index
    /// instead of a full scan.
    pub fn query(&self, pattern: &Atom) -> Vec<Vec<Term>> {
        let mut out = Vec::new();
        let Some(rel) = self.facts.relation(pattern.pred) else {
            return out;
        };
        let mut vars = Vec::new();
        pattern.collect_vars(&mut vars);
        let nvars = vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut subst = Subst::with_capacity(nvars);
        let bound: Vec<(usize, &Term)> = pattern
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ground())
            .collect();
        let mut scan = |tuple: &Tuple, out: &mut Vec<Vec<Term>>| {
            if tuple.len() != pattern.args.len() {
                return;
            }
            let m = subst.mark();
            if pattern
                .args
                .iter()
                .zip(tuple.iter())
                .all(|(p, v)| subst.match_term(p, v))
            {
                out.push(pattern.args.iter().map(|t| t.apply(&subst)).collect());
            }
            subst.undo_to(m);
        };
        if bound.is_empty() {
            for tuple in rel.iter() {
                scan(tuple, &mut out);
            }
        } else {
            for tuple in rel.iter_bound(&bound) {
                scan(tuple, &mut out);
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

pub(crate) struct MatchCtx<'a> {
    /// The accumulated store (EDB + everything derived so far).
    pub total: &'a FactStore,
    /// When `Some((store, idx))`, the positive atom at plan position `idx`
    /// must match inside `store` (the delta) instead of `total`.
    pub delta: Option<(&'a FactStore, usize)>,
    /// Negation policy.
    pub neg: NegView<'a>,
    /// Whether index lookups are enabled.
    pub use_index: bool,
    /// Index build/hit/miss counters for this evaluation scope.
    pub counters: &'a IndexCounters<'a>,
}

impl MatchCtx<'_> {
    fn neg_holds(&self, pred: crate::interner::Sym, args: &[Term]) -> bool {
        match self.neg {
            NegView::Closed => !self.total.contains(pred, args),
            NegView::Frozen(j) => !j.contains(pred, args),
        }
    }
}

/// Enumerates all solutions of `items[idx..]` under `subst`, invoking `cb`
/// for each complete solution. Returns the number of solutions found.
pub(crate) fn solve(
    items: &[BodyItem],
    idx: usize,
    subst: &mut Subst,
    ctx: &MatchCtx<'_>,
    cb: &mut dyn FnMut(&Subst),
) -> usize {
    let Some(item) = items.get(idx) else {
        cb(subst);
        return 1;
    };
    let mut found = 0;
    match item {
        BodyItem::Pos(atom) => {
            let use_delta = matches!(ctx.delta, Some((_, di)) if di == idx);
            let store: &FactStore = if use_delta {
                ctx.delta.expect("delta set").0
            } else {
                ctx.total
            };
            let Some(rel) = store.relation(atom.pred) else {
                return 0;
            };
            if ctx.use_index {
                // Which argument positions are ground under the current
                // bindings?
                let applied: Vec<Term> = atom.args.iter().map(|t| t.apply(subst)).collect();
                if !applied.is_empty() && applied.iter().all(Term::is_ground) {
                    // Fully ground: a membership probe replaces the scan.
                    ctx.counters.hit();
                    if applied.len() == atom.args.len() && rel.contains(&applied) {
                        found += solve(items, idx + 1, subst, ctx, cb);
                    }
                    return found;
                }
                let bound: Vec<(usize, &Term)> = applied
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.is_ground())
                    .collect();
                if !bound.is_empty() {
                    let (built, tuples) = rel.probe(&bound);
                    if built {
                        ctx.counters.build(store, atom.pred);
                    }
                    ctx.counters.hit();
                    for tuple in tuples {
                        if tuple.len() != atom.args.len() {
                            continue;
                        }
                        let m = subst.mark();
                        if atom
                            .args
                            .iter()
                            .zip(tuple.iter())
                            .all(|(p, v)| subst.match_term(p, v))
                        {
                            found += solve(items, idx + 1, subst, ctx, cb);
                        }
                        subst.undo_to(m);
                    }
                    return found;
                }
            }
            ctx.counters.miss();
            for tuple in rel.iter() {
                if tuple.len() != atom.args.len() {
                    continue;
                }
                let m = subst.mark();
                if atom
                    .args
                    .iter()
                    .zip(tuple.iter())
                    .all(|(p, v)| subst.match_term(p, v))
                {
                    found += solve(items, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        BodyItem::Neg(atom) => {
            let ground = atom.apply(subst);
            debug_assert!(ground.is_ground(), "negation not ground at runtime");
            if ctx.neg_holds(ground.pred, &ground.args) {
                found += solve(items, idx + 1, subst, ctx, cb);
            }
        }
        BodyItem::Cmp(op, l, r) => {
            if let (Some(lv), Some(rv)) = (l.eval(subst), r.eval(subst)) {
                if cmp_holds(*op, &lv, &rv) {
                    found += solve(items, idx + 1, subst, ctx, cb);
                }
            }
        }
        BodyItem::Assign(lhs, expr) => {
            if let Some(val) = expr.eval(subst) {
                let m = subst.mark();
                if subst.match_term(lhs, &val) {
                    found += solve(items, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        BodyItem::Agg(agg) => {
            found += solve_aggregate(items, idx, agg, subst, ctx, cb);
        }
    }
    found
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
/// group's bindings.
fn solve_aggregate(
    items: &[BodyItem],
    idx: usize,
    agg: &Aggregate,
    subst: &mut Subst,
    ctx: &MatchCtx<'_>,
    cb: &mut dyn FnMut(&Subst),
) -> usize {
    // Subquery sees the total store, never the delta, and inherits the
    // outer bindings (correlation).
    let sub_ctx = MatchCtx {
        total: ctx.total,
        delta: None,
        neg: ctx.neg,
        use_index: ctx.use_index,
        counters: ctx.counters,
    };
    let mut groups: HashMap<Vec<Term>, HashSet<Term>> = HashMap::new();
    {
        let groups = &mut groups;
        let value = &agg.value;
        let group_by = &agg.group_by;
        let m = subst.mark();
        solve(&agg.body, 0, subst, &sub_ctx, &mut |s: &Subst| {
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
            found += solve(items, idx + 1, subst, ctx, cb);
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

/// Applies `rule` under `ctx`, inserting new head facts into `out`.
/// Returns the number of new facts.
pub(crate) fn apply_rule(
    rule: &Rule,
    ctx: &MatchCtx<'_>,
    out: &mut FactStore,
    stats: &mut EvalStats,
    opts: &EvalOptions,
) -> usize {
    let mut subst = Subst::with_capacity(rule.nvars as usize);
    let mut new = 0;
    let head = &rule.head;
    let total = ctx.total;
    let max_depth = opts.max_term_depth;
    let mut clipped = 0usize;
    let mut apps = 0usize;
    solve(&rule.body, 0, &mut subst, ctx, &mut |s: &Subst| {
        apps += 1;
        let args: Vec<Term> = head.args.iter().map(|t| t.apply(s)).collect();
        debug_assert!(args.iter().all(Term::is_ground), "non-ground head");
        if args.iter().any(|t| t.depth() > max_depth) {
            clipped += 1;
            return;
        }
        if !total.contains(head.pred, &args) && out.insert(head.pred, args.into()) {
            new += 1;
        }
    });
    stats.applications += apps;
    stats.depth_clipped += clipped;
    new
}

/// Join planning: reorders `rule` for evaluation (when enabled), recording
/// the chosen plan. Same-stratum predicates are costed as unbounded since
/// their relations grow during iteration.
pub(crate) fn plan_rule(
    rule: &Rule,
    total: &FactStore,
    stratum_preds: &HashSet<Sym>,
    opts: &EvalOptions,
) -> (Rule, RulePlan) {
    if !opts.join_reorder {
        return (
            rule.clone(),
            RulePlan {
                head: rule.head.pred,
                join_order: (0..rule.body.len()).collect(),
                reordered: false,
            },
        );
    }
    let (planned, join_order) = rule.reorder(|p| {
        if stratum_preds.contains(&p) {
            usize::MAX
        } else {
            total.relation(p).map_or(0, |r| r.len())
        }
    });
    let reordered = join_order.iter().enumerate().any(|(i, &o)| i != o);
    (
        planned,
        RulePlan {
            head: rule.head.pred,
            join_order,
            reordered,
        },
    )
}

/// Executes one full application pass (one fixpoint round): every
/// `(rule, delta-variant)` unit once, in (rule-index, variant-index)
/// order, into one shared store of new facts.
pub(crate) fn execute_round(
    units: &[(&Rule, Option<usize>)],
    total: &FactStore,
    delta: Option<&FactStore>,
    neg: NegView<'_>,
    opts: &EvalOptions,
    counters: &IndexCounters,
    stats: &mut EvalStats,
) -> FactStore {
    let mut out = FactStore::new();
    for &(rule, di) in units {
        let ctx = MatchCtx {
            total,
            delta: di.map(|d| (delta.expect("delta store"), d)),
            neg,
            use_index: opts.use_index,
            counters,
        };
        apply_rule(rule, &ctx, &mut out, stats, opts);
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
) -> Vec<(Rule, RulePlan)> {
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
        prepared: &[(Rule, RulePlan)],
        sp: StratumProfile,
    ) -> StratumProfile {
        self.counters.fold_into(stats);
        StratumProfile {
            iterations: stats.iterations - self.before.iterations,
            derived: stats.derived - self.before.derived,
            index_builds: self.counters.builds.get(),
            index_hits: self.counters.hits.get(),
            index_misses: self.counters.misses.get(),
            plans: prepared.iter().map(|(_, p)| p.clone()).collect(),
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
/// supplies join plans made earlier (the incremental path memoizes them
/// per rule-set revision); without it the stratum is planned here.
/// `borrowed` is the working store `total` started as a share of, when
/// the walk reads a base model in place.
///
/// Returns the stratum's profile, or `None` when the local alternating
/// fixpoint left atoms undefined: `total` is then untouched, and the
/// caller has to evaluate this stratum and everything above it
/// three-valued.
pub(crate) fn eval_stratum(
    rules: &[Rule],
    stratum: &Stratum,
    memo: Option<&[(Rule, RulePlan)]>,
    total: &mut FactStore,
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
    let stratum_rules: Vec<&Rule> = prepared.iter().map(|(r, _)| r).collect();
    let scope = StratumScope::open(stats, borrowed);
    let mut two_valued = true;
    if stratum.wfs {
        let (facts, undefined) =
            crate::wfs::eval_well_founded(&stratum_rules, total, stats, &scope.counters, opts)?;
        two_valued = undefined.is_empty();
        if two_valued {
            for &p in &stratum.preds {
                if let Some(rel) = facts.relation_arc(p) {
                    total.set_relation(p, rel);
                }
            }
        }
    } else if !stratum.recursive {
        let units: Vec<(&Rule, Option<usize>)> = stratum_rules.iter().map(|&r| (r, None)).collect();
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
            ..Default::default()
        },
    );
    Ok(two_valued.then_some(sp))
}

/// Evaluates `rules` over `edb` stratum by stratum, from nothing — the
/// cold walk (`ivm` walks a recorded delta over a base model instead).
/// `strat` is the rule set's stratification ([`crate::program::stratify`]).
///
/// The run works on a detached copy of `edb` and owns every relation it
/// reads, unless `borrow` is set: `edb` is then a delta walk's working
/// store under a magic-rewritten program, and its relations — the base
/// model's own allocations — are read in place with the indexes they
/// already carry, copied only where a stratum writes.
///
/// The model is two-valued unless some stratum's alternating fixpoint
/// leaves atoms undefined. That stratum and every later one are then
/// evaluated *together* under the alternating fixpoint over the two-valued
/// store built so far: closed-world strata cannot read three-valued inputs.
pub(crate) fn eval_strata(
    rules: &[Rule],
    strat: &Stratification,
    edb: &FactStore,
    opts: &EvalOptions,
    borrow: bool,
) -> Result<Model> {
    let borrowed = borrow.then_some(edb);
    let mut total = if borrow {
        edb.clone()
    } else {
        edb.detached_clone()
    };
    let mut undefined = FactStore::new();
    let mut stats = EvalStats::default();
    let mut profile = EvalProfile::default();
    for (i, stratum) in strat.strata.iter().enumerate() {
        if let Some(sp) =
            eval_stratum(rules, stratum, None, &mut total, borrowed, &mut stats, opts)?
        {
            profile.strata.push(sp);
            continue;
        }
        // The three-valued tail, in rule order.
        let tail = &strat.strata[i..];
        let preds: Vec<Sym> = tail.iter().flat_map(|s| s.preds.iter().copied()).collect();
        let mut ids: Vec<usize> = tail.iter().flat_map(|s| s.rules.iter().copied()).collect();
        ids.sort_unstable();
        let prepared = plan_rules(rules, &ids, &preds, &total, opts);
        let tail_rules: Vec<&Rule> = prepared.iter().map(|(r, _)| r).collect();
        let scope = StratumScope::open(&stats, borrowed);
        (total, undefined) =
            crate::wfs::eval_well_founded(&tail_rules, &total, &mut stats, &scope.counters, opts)?;
        profile.strata.push(scope.close(
            &mut stats,
            &prepared,
            StratumProfile {
                preds,
                recursive: true,
                well_founded: true,
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
    rules: &[&Rule],
    total: &mut FactStore,
    neg: NegView<'_>,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    let units: Vec<(&Rule, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
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
    rules: &[&Rule],
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
    let seed_units: Vec<(&Rule, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
    let mut delta = execute_round(&seed_units, total, None, neg, opts, counters, stats);
    stats.derived += total.absorb(&delta);
    // One delta-variant unit per positive body atom over a stratum
    // predicate, in fixed (rule-index, variant-index) order; the delta
    // store itself changes per round but the unit list does not.
    let mut delta_units: Vec<(&Rule, Option<usize>)> = Vec::new();
    for &rule in rules {
        for di in rule.positive_atom_indices() {
            let BodyItem::Pos(atom) = &rule.body[di] else {
                unreachable!()
            };
            if stratum_preds.contains(&atom.pred) {
                delta_units.push((rule, Some(di)));
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
/// alternating fixpoint (well-founded semantics).
///
/// The layers below are read in place: the result starts as a share of
/// `edb`'s relation handles and copies one only where a head grows, so an
/// index a reduct builds on a lower relation serves the next reduct too
/// (and is nobody's build where a delta walk borrowed the relation).
pub(crate) fn gamma(
    rules: &[&Rule],
    edb: &FactStore,
    j: &FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<FactStore> {
    let mut total = edb.clone();
    // With negation frozen the program is positive, so one fixpoint over
    // all its rules is sound, and so are delta rounds — unless a rule
    // aggregates: an aggregate reads the whole of a relation that is still
    // growing, which only full re-application re-reads.
    let aggregates = |r: &&Rule| r.body.iter().any(|b| matches!(b, BodyItem::Agg(_)));
    let neg = NegView::Frozen(j);
    if opts.semi_naive && !rules.iter().any(aggregates) {
        let heads: HashSet<Sym> = rules.iter().map(|r| r.head.pred).collect();
        seminaive_stratum(rules, &heads, &mut total, neg, stats, counters, opts)?;
    } else {
        naive_stratum(rules, &mut total, neg, stats, counters, opts)?;
    }
    Ok(total)
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
            self.edb.insert(p, args.to_vec().into());
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
        let semi = eval_strata(&f.rules, &strat, &f.edb, &EvalOptions::default(), false).unwrap();
        let naive = eval_strata(
            &f.rules,
            &strat,
            &f.edb,
            &EvalOptions {
                semi_naive: false,
                ..Default::default()
            },
            false,
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
        let m = eval_strata(&f.rules, &strat, &f.edb, &opts, false).unwrap();
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
