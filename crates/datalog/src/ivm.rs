//! Incremental view maintenance: applying a recorded [`EngineDelta`] to a
//! cached model instead of re-deriving it from scratch.
//!
//! One walk serves both callers: [`crate::Engine::apply_delta`] (a
//! publish) runs it over the engine's whole rule set,
//! [`crate::Engine::run_for_query`] (a warm answer) over the goal's
//! subprogram. It follows the stratification of the *current* rules and
//! picks, per stratum, one of three modes for what changed beneath it:
//!
//! * **reuse** — no predicate in the stratum grew, shrank, or changed
//!   rules: the previous model's relations are `Arc`-shared wholesale
//!   (zero derivation work, zero copying);
//! * **additions** — inputs only grew (monotone): the stratum is seeded
//!   with its previous extension and the novel facts ride semi-naive
//!   delta rounds, with the delta matched at *every* positive body
//!   position (new facts can arrive through any input predicate, not
//!   just same-stratum ones);
//! * **rebuild** — anything that can take a fact away (an input shrank, a
//!   rule changed, or a change reached the stratum through
//!   negation/aggregation): the stratum alone is re-evaluated cold — by
//!   the cold walker's own `eval_stratum`, so in whichever of its modes
//!   the stratum's shape calls for — from its stored facts and the
//!   maintained strata below, and diffed against the base to keep the
//!   novel frontier exact for downstream strata.
//!
//! So a model relation only ever gains facts inside a walk: a tuple
//! leaves the model only by being absent from a rebuilt stratum, and
//! stored facts leave only through the engine and its changelog.
//!
//! A stratum whose cycle goes through negation is always rebuilt when
//! touched: the alternating fixpoint over *its own rules only*, against
//! the already-maintained lower layers. Only genuinely three-valued
//! states — a base model with undefined atoms, or a local fixpoint that
//! leaves atoms undefined — fall back to a cold evaluation of the same
//! rule set with [`crate::EvalProfile::delta_fallback`] set, because the
//! closed-world modes cannot represent three-valued inputs downstream.
//!
//! What a change invalidates is decided in one place, `classify`: the
//! delta's predicates seed a *grown* and a *shrunk* set (a predicate with
//! a new rule is in both), a positive edge propagates grow→grow and
//! shrink→shrink, and any non-monotone edge (negation, aggregation) from
//! a changed predicate marks the head as both. Only a stratum that grew
//! and did not shrink rides the additions mode, so a new rule never does:
//! a delta round only fires rule instantiations that touch a novel
//! *fact*, and a new rule over unchanged inputs would never fire at all.
//! A predicate in neither set keeps its base extension exactly — the
//! magic rewrite drops its rules.
//!
//! Statistics measure the *delta work*, not a cold evaluation's: they are
//! a function of the mutation history alone, and intentionally smaller
//! than a cold rebuild's.

use crate::error::Result;
use crate::eval::{
    begin_round, eval_strata, eval_stratum, execute_round, plan_rules, EvalOptions, EvalProfile,
    EvalStats, IndexCounters, Model, NegView, RulePlan, StratumProfile, StratumScope,
};
use crate::fact::FactStore;
use crate::interner::Sym;
use crate::program::Stratum;
use crate::rule::Rule;
use crate::term::Term;
use crate::{Engine, ProgramShape};
use std::collections::{HashMap, HashSet};

/// A typed changelog of engine mutations since the last model was
/// published: asserted facts, retracted facts, and predicates whose
/// defining rules changed (a rule was added; rules are never removed).
///
/// Produced by [`Engine::take_delta`] once recording has been switched on
/// with [`Engine::begin_delta`]; consumed by [`Engine::apply_delta`].
/// Assert/retract pairs cancel: retracting a fact that was asserted since
/// the last publish erases it from the log instead of recording both.
#[derive(Debug, Default, Clone)]
pub struct EngineDelta {
    /// Facts asserted since the last publish (net of cancellations).
    pub(crate) added: FactStore,
    /// Facts retracted since the last publish (net of cancellations).
    pub(crate) removed: FactStore,
    /// Head predicates of rules added since the last publish.
    pub(crate) changed_rule_preds: HashSet<Sym>,
}

impl EngineDelta {
    /// Whether nothing was mutated since the last publish.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed_rule_preds.is_empty()
    }

    /// Number of predicates whose rule set changed.
    pub fn changed_rules(&self) -> usize {
        self.changed_rule_preds.len()
    }

    /// Records an asserted fact, cancelling a pending retraction of the
    /// same fact if one exists.
    pub(crate) fn log_add(&mut self, pred: Sym, row: &[Term]) {
        if !self.removed.remove(pred, row) {
            self.added.insert(pred, row);
        }
    }

    /// Records a retracted fact, cancelling a pending assertion of the
    /// same fact if one exists.
    pub(crate) fn log_remove(&mut self, pred: Sym, row: &[Term]) {
        if !self.added.remove(pred, row) {
            self.removed.insert(pred, row);
        }
    }

    /// Records a rule-set change for `pred` (a rule was added).
    pub(crate) fn log_rule(&mut self, pred: Sym) {
        self.changed_rule_preds.insert(pred);
    }
}

/// Per-stratum maintenance mode (see module docs).
enum Mode {
    Reuse,
    Additions,
    Rebuild,
}

fn has_facts(store: &FactStore, pred: Sym) -> bool {
    store.relation(pred).is_some_and(|r| !r.is_empty())
}

/// Which way a predicate's extension may have moved since the base model.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Moved {
    grown: bool,
    shrunk: bool,
}

impl Moved {
    const BOTH: Moved = Moved {
        grown: true,
        shrunk: true,
    };

    fn or(self, other: Moved) -> Moved {
        Moved {
            grown: self.grown || other.grown,
            shrunk: self.shrunk || other.shrunk,
        }
    }
}

/// Classifies the predicates a delta reaches as grown and/or shrunk by
/// propagating its seed sets through the dependency edges to a fixpoint.
/// A predicate not in the result has not moved.
fn classify(deps: &[(Sym, Sym, bool)], delta: &EngineDelta) -> HashMap<Sym, Moved> {
    let mut moved: HashMap<Sym, Moved> = HashMap::new();
    for p in delta
        .added
        .predicates()
        .filter(|&p| has_facts(&delta.added, p))
    {
        moved.entry(p).or_default().grown = true;
    }
    for p in delta
        .removed
        .predicates()
        .filter(|&p| has_facts(&delta.removed, p))
    {
        moved.entry(p).or_default().shrunk = true;
    }
    // A changed rule set can both add and remove derived facts.
    for &p in &delta.changed_rule_preds {
        moved.insert(p, Moved::BOTH);
    }
    loop {
        let mut changed = false;
        for &(h, b, nonmono) in deps {
            let Some(&body) = moved.get(&b) else {
                continue;
            };
            let head = moved.entry(h).or_default();
            let next = head.or(if nonmono { Moved::BOTH } else { body });
            changed |= next != *head;
            *head = next;
        }
        if !changed {
            break;
        }
    }
    moved
}

/// A base model and the delta recorded since it, classified over one
/// program — the engine's whole rule set for [`Engine::apply_delta`], a
/// goal's subprogram for [`Engine::run_for_query`] — with the working
/// store both evaluate over.
pub(crate) struct Since<'a> {
    rules: &'a [Rule],
    shape: &'a ProgramShape,
    /// The engine's stored facts, delta applied.
    edb: &'a FactStore,
    base: &'a Model,
    delta: &'a EngineDelta,
    moved: HashMap<Sym, Moved>,
    /// `edb`, with the base model's relation shared in for every predicate
    /// in scope whose old extension still holds: all that did not shrink.
    /// One that grew through its rules also takes its asserted facts
    /// (copy-on-write); one that only has stored facts keeps the engine's
    /// relation, which is the base's plus those already.
    pub(crate) store: FactStore,
}

impl<'a> Since<'a> {
    /// `scope` limits the predicates read from `base` (a subprogram's);
    /// `None` takes them all.
    pub(crate) fn new(
        rules: &'a [Rule],
        shape: &'a ProgramShape,
        scope: Option<&HashSet<Sym>>,
        edb: &'a FactStore,
        base: &'a Model,
        delta: &'a EngineDelta,
    ) -> Self {
        let moved = classify(&shape.deps, delta);
        let has_rules = |p| shape.strat.strata.iter().any(|s| s.preds.contains(&p));
        let mut store = edb.clone();
        for p in base.facts.predicates() {
            let m = moved.get(&p).copied().unwrap_or_default();
            if scope.is_some_and(|s| !s.contains(&p)) || m.shrunk || (m.grown && !has_rules(p)) {
                continue;
            }
            if let Some(old) = base.facts.relation_arc(p) {
                store.set_relation(p, old);
            }
            if let Some(added) = delta.added.relation(p).filter(|_| m.grown) {
                for row in added.iter() {
                    store.insert(p, row);
                }
            }
        }
        Since {
            rules,
            shape,
            edb,
            base,
            delta,
            moved,
            store,
        }
    }

    /// Whether `pred` has exactly its base extension: neither grown nor
    /// shrunk.
    pub(crate) fn frozen(&self, pred: Sym) -> bool {
        !self.moved.contains_key(&pred)
    }

    /// Full cold evaluation of the same rule set, flagged as a delta
    /// fallback in the profile.
    fn cold_fallback(&self, opts: &EvalOptions) -> Result<Model> {
        let mut model = eval_strata(self.rules, &self.shape.strat, self.edb, opts, false)?;
        model.profile.delta_applied = true;
        model.profile.delta_fallback = true;
        Ok(model)
    }

    /// Walks the program's strata over the working store, each in the
    /// mode its classification allows (module docs), and returns the model
    /// of the current state. `memo` is the engine whose memoized join plans
    /// a negation-cyclic stratum of its *whole* program reuses.
    pub(crate) fn walk(self, opts: &EvalOptions, memo: Option<&Engine>) -> Result<Model> {
        let (rules, base) = (self.rules, self.base);
        if !base.undefined.is_empty() {
            // A three-valued base gives reuse and additions nothing sound to
            // seed from (an undefined atom is neither in nor out of the old
            // extension); re-evaluate cold and say so in the profile.
            return self.cold_fallback(opts);
        }
        let mut total = self.store.clone();
        // Relations still shared with the working store are read in place:
        // an index built there is not this walk's.
        let borrowed = &self.store;
        // The frontier threaded through the strata in evaluation order:
        // facts that are new relative to the base model.
        let mut novel = self.delta.added.clone();
        let mut stats = EvalStats::default();
        let mut profile = EvalProfile {
            delta_applied: true,
            ..Default::default()
        };
        for (i, stratum) in self.shape.strat.strata.iter().enumerate() {
            let moved = stratum
                .preds
                .iter()
                .filter_map(|p| self.moved.get(p))
                .fold(Moved::default(), |all, &m| all.or(m));
            // A changed rule, and every predicate of a touched negation
            // cycle, is marked both ways by `classify`. Whatever may have
            // lost a fact is rebuilt.
            let mode = match (moved.grown, moved.shrunk) {
                (false, false) => Mode::Reuse,
                (true, false) => Mode::Additions,
                (_, true) => Mode::Rebuild,
            };
            let named = || StratumProfile {
                preds: stratum.preds.clone(),
                recursive: stratum.recursive,
                ..Default::default()
            };
            let sp = match mode {
                Mode::Reuse => {
                    profile.delta_reused_strata += 1;
                    StratumProfile {
                        skipped: true,
                        ..named()
                    }
                }
                Mode::Rebuild => {
                    let plan = || plan_rules(rules, &stratum.rules, &stratum.preds, &total, opts);
                    let memo = match memo {
                        Some(engine) if stratum.wfs => Some(engine.wfs_stratum_plan(i, plan)),
                        _ => None,
                    };
                    let memo = memo.as_ref().map(|plans| plans.as_slice());
                    let Some(sp) = eval_stratum(
                        rules,
                        stratum,
                        memo,
                        &mut total,
                        Some(borrowed),
                        &mut stats,
                        opts,
                    )?
                    else {
                        // Three-valued residue: downstream strata would need
                        // three-valued inputs the closed-world modes cannot
                        // represent.
                        return self.cold_fallback(opts);
                    };
                    // The last stratum (a warm answer's own) has nothing
                    // downstream to keep a frontier for.
                    if i + 1 < self.shape.strat.strata.len() {
                        diff_against_base(stratum, &total, base, &mut novel);
                    }
                    profile.delta_rebuilt_strata += 1;
                    sp
                }
                Mode::Additions => {
                    let prepared = plan_rules(rules, &stratum.rules, &stratum.preds, &total, opts);
                    let scope = StratumScope::open(&stats, Some(borrowed));
                    maintain_additions(
                        &prepared,
                        &mut total,
                        &mut novel,
                        &mut stats,
                        &scope.counters,
                        opts,
                    )?;
                    profile.delta_incremental_strata += 1;
                    scope.close(&mut stats, &prepared, named())
                }
            };
            profile.well_founded |= sp.well_founded;
            profile.strata.push(sp);
        }
        Ok(Model {
            facts: total,
            undefined: FactStore::new(),
            stats,
            profile,
        })
    }
}

/// What a rebuilt stratum holds that the base model did not, into the
/// frontier: it keeps what downstream strata see as new tight.
fn diff_against_base(stratum: &Stratum, total: &FactStore, base: &Model, novel: &mut FactStore) {
    for &p in &stratum.preds {
        let old_rel = base.facts.relation(p);
        for row in total.relation(p).into_iter().flat_map(|r| r.iter()) {
            if !old_rel.is_some_and(|o| o.contains(row)) {
                novel.insert(p, row);
            }
        }
    }
}

/// Monotone maintenance: novel facts ride semi-naive delta rounds on top
/// of the previous extension and the stratum's own asserted facts, both in
/// the working store already. The delta is matched at every
/// positive body position; duplicate firings (an instantiation touching
/// two novel facts) collapse on the `total`-membership check exactly as
/// in the cold semi-naive engine.
fn maintain_additions(
    prepared: &[(Rule, RulePlan)],
    total: &mut FactStore,
    novel: &mut FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    let mut units: Vec<(&Rule, Option<usize>)> = Vec::new();
    for (r, _) in prepared {
        for di in r.positive_atom_indices() {
            units.push((r, Some(di)));
        }
    }
    let mut frontier = novel.clone();
    let mut stratum_new = FactStore::new();
    let since = stats.iterations;
    loop {
        begin_round(opts, stats, since)?;
        let out = execute_round(
            &units,
            total,
            Some(&frontier),
            NegView::Closed,
            opts,
            counters,
            stats,
        );
        let added = total.absorb(&out);
        stats.derived += added;
        if added == 0 {
            break;
        }
        stratum_new.absorb(&out);
        frontier = out;
    }
    novel.absorb(&stratum_new);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::collections::HashSet as Set;

    fn facts_of<'m>(m: &'m Model, e: &Engine, pred: &str) -> Set<&'m [Term]> {
        e.lookup(pred)
            .map(|p| m.tuples(p).collect())
            .unwrap_or_default()
    }

    fn assert_models_agree(inc: &Model, cold: &Model, e: &Engine) {
        let preds: Set<Sym> = inc
            .facts
            .predicates()
            .chain(cold.facts.predicates())
            .collect();
        for p in preds {
            let a: Set<&[Term]> = inc.tuples(p).collect();
            let b: Set<&[Term]> = cold.tuples(p).collect();
            assert_eq!(a, b, "extension mismatch for {}", e.name(p));
        }
    }

    #[test]
    fn additions_ride_delta_rounds_and_reuse_untouched_strata() {
        let mut e = Engine::new();
        e.load(
            "e(a,b). e(b,c). other(x).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).
             big(X) :- other(X).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        e.add_fact_strs("e", &["c", "d"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert_eq!(facts_of(&inc, &e, "tc").len(), 6);
        assert!(inc.profile.delta_applied);
        assert!(inc.profile.delta_incremental_strata >= 1);
        // `big`'s stratum never saw the delta: its relation is the very
        // same allocation as the base model's.
        let big = e.lookup("big").unwrap();
        assert!(inc.facts.shares_relation(big, &base.facts));
        assert!(inc.profile.delta_reused_strata >= 1);
        // Far less work than the cold run.
        assert!(inc.stats.derived < cold.stats.derived);
    }

    #[test]
    fn retractions_overdelete_and_rederive() {
        let mut e = Engine::new();
        // Diamond: a→b→d and a→c→d, so tc(a,d) has two derivations.
        e.load(
            "e(a,b). e(b,d). e(a,c). e(c,d).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let ep = e.lookup("e").unwrap();
        let b = e.constant("b");
        let a = e.constant("a");
        let d = e.constant("d");
        assert!(e.remove_fact(ep, &[a.clone(), b.clone()]));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        let tc = e.lookup("tc").unwrap();
        // tc(a,d) survives through the a→c→d path; tc(a,b) is gone. The
        // diamond's stratum only lost inputs, so it is rebuilt.
        assert!(inc.holds(tc, &[a.clone(), d.clone()]));
        assert!(!inc.holds(tc, &[a.clone(), b.clone()]));
        assert!(inc.profile.delta_rebuilt_strata >= 1);
    }

    #[test]
    fn retraction_through_negation_rebuilds_dependent_stratum() {
        let mut e = Engine::new();
        e.load(
            "n(a). n(b). bad(a).
             good(X) :- n(X), not bad(X).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let bad = e.lookup("bad").unwrap();
        let a = e.constant("a");
        assert!(e.remove_fact(bad, std::slice::from_ref(&a)));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        let good = e.lookup("good").unwrap();
        assert!(inc.holds(good, &[a]));
        assert_eq!(facts_of(&inc, &e, "good").len(), 2);
        assert!(inc.profile.delta_rebuilt_strata >= 1);
    }

    #[test]
    fn new_rule_forces_stratum_rebuild_not_delta_rounds() {
        let mut e = Engine::new();
        e.load(
            "e(a,b). e(b,c).
             tc(X,Y) :- e(X,Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        // A new rule over *unchanged* inputs: a pure delta round would
        // never fire it.
        e.load("tc(X,Y) :- tc(X,Z), e(Z,Y).").unwrap();
        let delta = e.take_delta().unwrap();
        assert_eq!(delta.changed_rules(), 1);
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert_eq!(facts_of(&inc, &e, "tc").len(), 3);
        assert!(inc.profile.delta_rebuilt_strata >= 1);
    }

    #[test]
    fn assert_retract_pairs_cancel_in_the_log() {
        let mut e = Engine::new();
        e.load("p(a).").unwrap();
        e.begin_delta();
        e.add_fact_strs("p", &["b"]).unwrap();
        let p = e.lookup("p").unwrap();
        let b = e.constant("b");
        assert!(e.remove_fact(p, std::slice::from_ref(&b)));
        let delta = e.take_delta().unwrap();
        assert!(delta.is_empty(), "add+remove must cancel: {delta:?}");
        // And the reverse order: removing an old fact then re-adding it.
        e.begin_delta();
        let a = e.constant("a");
        assert!(e.remove_fact(p, std::slice::from_ref(&a)));
        e.add_fact(p, vec![a.clone()]).unwrap();
        let delta = e.take_delta().unwrap();
        assert!(delta.is_empty(), "remove+add must cancel: {delta:?}");
    }

    #[test]
    fn wfs_stratum_rebuilds_locally_without_fallback() {
        let mut e = Engine::new();
        e.load(
            "move(p0,p1). move(p1,p2). color(p0,red).
             win(X) :- move(X,Y), not win(Y).
             hue(C) :- color(X,C).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        assert!(base.undefined.is_empty());
        e.begin_delta();
        e.add_fact_strs("move", &["p2", "p3"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        // The negation cycle is confined to `win`'s stratum: it re-runs
        // its alternating fixpoint locally instead of dragging the whole
        // program through a cold rebuild.
        assert!(!inc.profile.delta_fallback);
        assert!(inc.profile.delta_rebuilt_strata >= 1);
        assert!(inc.profile.well_founded);
        // The untouched `hue` stratum is reused wholesale.
        assert!(inc.profile.delta_reused_strata >= 1);
        let hue = e.lookup("hue").unwrap();
        assert!(inc.facts.shares_relation(hue, &base.facts));
    }

    #[test]
    fn delta_that_introduces_undefined_falls_back_to_cold() {
        let mut e = Engine::new();
        e.load(
            "move(p0,p1).
             win(X) :- move(X,Y), not win(Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        assert!(base.undefined.is_empty());
        e.begin_delta();
        // A self-loop makes win(p1) — and hence win(p0) — undefined: the
        // local fixpoint's residue forces the cold path.
        e.add_fact_strs("move", &["p1", "p1"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.profile.delta_fallback);
        let win = e.lookup("win").unwrap();
        let p1 = e.constant("p1");
        assert!(inc.is_undefined(win, &[p1]));
    }

    #[test]
    fn three_valued_base_model_falls_back_to_cold() {
        let mut e = Engine::new();
        e.load(
            "move(p0,p0).
             win(X) :- move(X,Y), not win(Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        assert!(!base.undefined.is_empty());
        e.begin_delta();
        e.add_fact_strs("move", &["p1", "p2"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.profile.delta_fallback);
    }

    #[test]
    fn aggregate_downstream_of_change_is_rebuilt() {
        let mut e = Engine::new();
        e.load(
            "n(a). n(b). m(a).
             un(X) :- n(X), not m(X).
             cnt(C) :- C = count{ X : un(X) }.",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        let cnt = e.lookup("cnt").unwrap();
        assert!(base.holds(cnt, &[Term::Int(1)]));
        e.begin_delta();
        e.add_fact_strs("n", &["c"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.holds(cnt, &[Term::Int(2)]));
        assert!(!inc.holds(cnt, &[Term::Int(1)]));
    }

    #[test]
    fn mixed_interleaving_matches_cold_at_every_step() {
        let mut e = Engine::new();
        e.load(
            "e(n0,n1). e(n1,n2). e(n2,n3).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let mut model = e.run(&opts).unwrap();
        e.begin_delta();
        let ep = e.lookup("e").unwrap();
        let script: Vec<(bool, &str, &str)> = vec![
            (true, "n3", "n4"),
            (true, "n4", "n0"), // closes a cycle
            (false, "n1", "n2"),
            (true, "n1", "n2"), // cancels the retraction
            (false, "n4", "n0"),
            (false, "n0", "n1"),
        ];
        for (add, x, y) in script {
            let tx = e.constant(x);
            let ty = e.constant(y);
            if add {
                e.add_fact(ep, vec![tx, ty]).unwrap();
            } else {
                assert!(e.remove_fact(ep, &[tx, ty]));
            }
            let delta = e.take_delta().unwrap();
            model = e.apply_delta(&model, &delta, &opts).unwrap();
            let cold = e.run(&opts).unwrap();
            assert_models_agree(&model, &cold, &e);
        }
    }

    #[test]
    fn empty_delta_reuses_every_stratum() {
        let mut e = Engine::new();
        e.load("e(a,b). tc(X,Y) :- e(X,Y).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let delta = e.take_delta().unwrap();
        assert!(delta.is_empty());
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        assert_models_agree(&inc, &base, &e);
        let tc = e.lookup("tc").unwrap();
        let ep = e.lookup("e").unwrap();
        assert!(inc.facts.shares_relation(tc, &base.facts));
        assert!(inc.facts.shares_relation(ep, &base.facts));
        assert_eq!(inc.stats.derived, 0);
    }

    #[test]
    fn edb_only_unchanged_relations_share_base_allocations() {
        let mut e = Engine::new();
        e.load("p(a). q(b). r(c). tc(X) :- p(X).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        e.add_fact_strs("q", &["b2"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        // r never changed: shares the base allocation. q changed: doesn't.
        let r = e.lookup("r").unwrap();
        let q = e.lookup("q").unwrap();
        assert!(inc.facts.shares_relation(r, &base.facts));
        assert!(!inc.facts.shares_relation(q, &base.facts));
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
    }

    #[test]
    fn stored_fact_survives_losing_its_derivation() {
        let mut e = Engine::new();
        // p(b) is both stored and derived; retracting the derivation's
        // support must not take the stored fact (or what hangs off it)
        // along. Found by the reference oracle.
        e.load("p(b). q(b). p(X) :- q(X). r(X) :- p(X).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let q = e.lookup("q").unwrap();
        let b = e.constant("b");
        assert!(e.remove_fact(q, std::slice::from_ref(&b)));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.holds(e.lookup("p").unwrap(), std::slice::from_ref(&b)));
        assert!(inc.holds(e.lookup("r").unwrap(), &[b]));
        assert!(inc.profile.delta_rebuilt_strata >= 1);
    }

    #[test]
    fn removed_edb_fact_still_derivable_by_rule_survives() {
        let mut e = Engine::new();
        // p has both stored facts and a rule; removing the stored p(b)
        // must keep p(b) when the rule still derives it.
        e.load("p(b). q(b). p(X) :- q(X).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let p = e.lookup("p").unwrap();
        let b = e.constant("b");
        assert!(e.remove_fact(p, std::slice::from_ref(&b)));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.holds(p, &[b]));
    }
}
