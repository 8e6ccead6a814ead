//! Incremental view maintenance: evaluating the engine's current state
//! from a cached model and the [`EngineDelta`] recorded since it, instead
//! of from scratch.
//!
//! A delta walk serves two callers: [`crate::Engine::apply_delta`] (a
//! publish) runs it over the engine's whole rule set,
//! [`crate::Engine::run_for_query`] (a warm answer) over the goal's
//! dependency cone. Either way it is the one stratum walker every evaluation
//! takes, `eval::eval_strata`, told which strata to reuse. A stratum has
//! two outcomes:
//!
//! * **reuse** — nothing the delta changed reaches any of its predicates:
//!   the base model's relations are `Arc`-shared wholesale (zero
//!   derivation work, zero copying) and the profile marks it skipped;
//! * **rebuild** — anything else: the stratum alone is re-evaluated by
//!   `eval_stratum`, in whichever of its modes its shape calls for, from
//!   its stored facts and the strata below it.
//!
//! What a change reaches is decided in one place, `reached`: the
//! predicates the delta asserted or retracted facts of, or added rules
//! for, and everything that depends on them through any body atom —
//! positive, negated or aggregated. A predicate outside that set keeps its
//! base extension exactly; the magic rewrite is never handed its rules.
//!
//! A stratum whose cycle goes through negation is rebuilt by the
//! alternating fixpoint over *its own rules only*, against the strata
//! below. Only genuinely three-valued states — a base model with undefined
//! atoms, or a rebuilt stratum that leaves atoms undefined — fall back to a
//! cold evaluation of the same rule set with
//! [`crate::EvalProfile::delta_fallback`] set: the walk cannot carry
//! three-valued inputs into strata it reuses.
//!
//! Statistics measure the *delta work*, not a cold evaluation's: they are
//! a function of the mutation history alone, and smaller than a cold
//! run's wherever a stratum is reused.

use crate::error::Result;
use crate::eval::{eval_strata, EvalOptions, Model, Reuse};
use crate::fact::{Bulk, FactStore};
use crate::interner::Sym;
use crate::program::Stratification;
use crate::rule::Rule;
use crate::term::Term;
use crate::Engine;
use std::collections::HashSet;

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
    #[cfg(test)]
    pub(crate) fn changed_rules(&self) -> usize {
        self.changed_rule_preds.len()
    }

    /// The log of one recording [`Engine::write_rows`] batch into the
    /// relations `into` names (as that call's `into`): one bulk writer per
    /// relation into `added`, opened once for the batch.
    pub(crate) fn row_log<const N: usize>(
        &mut self,
        into: [(Sym, usize, usize); N],
    ) -> RowLog<'_, N> {
        let removed = &mut self.removed;
        let pending = into.map(|(pred, ..)| removed.relation(pred).is_some_and(|r| !r.is_empty()));
        RowLog {
            added: self.added.bulk(into),
            pending,
            removed,
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

/// Rows a recording [`Engine::write_rows`] stores, logged in row order
/// ([`EngineDelta::row_log`]).
pub(crate) struct RowLog<'a, const N: usize> {
    added: [Bulk<'a>; N],
    /// Per relation, whether the log holds a retraction of it that a
    /// stored row may cancel: without one, a row goes straight to `added`.
    pending: [bool; N],
    removed: &'a mut FactStore,
}

impl<const N: usize> RowLog<'_, N> {
    /// Records a row stored into the `rel`-th relation, whose predicate is
    /// `pred`, cancelling a pending retraction of the same fact if one
    /// exists.
    pub(crate) fn add(&mut self, rel: usize, pred: Sym, row: &[Term]) {
        if !(self.pending[rel] && self.removed.remove(pred, row)) {
            self.added[rel].insert(row);
        }
    }
}

/// The predicates `delta` reaches — those it asserted or retracted facts
/// of or added rules for, and every predicate whose rules read one of
/// them, transitively — and, per stratum of `strat`, whether it holds
/// none of them. A predicate not in the set has not moved.
///
/// Strata are the program's strongly connected components in dependency
/// order, so one forward pass over them and their memoized
/// [`crate::Stratum::reads`] decides it: a stratum has moved when it
/// defines a changed predicate or one of its rules reads a moved one.
fn reached(strat: &Stratification, delta: &EngineDelta) -> (HashSet<Sym>, Vec<bool>) {
    let has_facts = |store: &FactStore, p| store.relation(p).is_some_and(|r| !r.is_empty());
    let mut moved: HashSet<Sym> = delta.changed_rule_preds.clone();
    for store in [&delta.added, &delta.removed] {
        moved.extend(store.predicates().filter(|&p| has_facts(store, p)));
    }
    let unmoved = strat
        .strata
        .iter()
        .map(|s| {
            let hit = s.preds.iter().chain(&s.reads).any(|p| moved.contains(p));
            if hit {
                moved.extend(&s.preds);
            }
            !hit
        })
        .collect();
    (moved, unmoved)
}

/// A base model and the delta recorded since it, classified over one
/// program — the engine's whole rule set for [`Engine::apply_delta`], a
/// goal's cone for [`Engine::run_for_query`] — with the working
/// store both evaluate over.
pub(crate) struct Since<'a> {
    rules: &'a [Rule],
    strat: &'a Stratification,
    /// The engine's stored facts, delta applied.
    edb: &'a FactStore,
    base: &'a Model,
    /// Per stratum of `strat`: nothing in it has moved.
    unmoved: Vec<bool>,
    /// `edb`, with the base model's relation shared in for every predicate
    /// in scope that has not moved.
    pub(crate) store: FactStore,
}

impl<'a> Since<'a> {
    /// `scope` limits the predicates read from `base` (a goal's cone's);
    /// `None` takes them all.
    pub(crate) fn new(
        rules: &'a [Rule],
        strat: &'a Stratification,
        scope: Option<&HashSet<Sym>>,
        edb: &'a FactStore,
        base: &'a Model,
        delta: &EngineDelta,
    ) -> Self {
        let (moved, unmoved) = reached(strat, delta);
        let mut store = edb.clone();
        let mut share = |p: Sym| {
            if let Some(old) = base.facts.relation_arc(p).filter(|_| !moved.contains(&p)) {
                store.set_relation(p, old);
            }
        };
        match scope {
            Some(scope) => scope.iter().copied().for_each(&mut share),
            None => base.facts.predicates().for_each(&mut share),
        }
        Since {
            rules,
            strat,
            edb,
            base,
            unmoved,
            store,
        }
    }

    /// Whether stratum `i` is the base model's as it stands: nothing the
    /// delta reaches is in it, so the walk reuses it and the magic
    /// rewrite treats its predicates as extensional.
    pub(crate) fn reused(&self, i: usize) -> bool {
        self.unmoved[i]
    }

    /// Walks the program's strata over the working store, reusing each
    /// one the delta does not reach and rebuilding the rest (module docs),
    /// and returns the model of the current state. `plans` is the engine
    /// whose memoized join plans a negation-cyclic stratum of its *whole*
    /// program reuses.
    pub(crate) fn walk(&self, opts: &EvalOptions, plans: Option<&Engine>) -> Result<Model> {
        let reuse = Reuse {
            reused: &self.unmoved,
            stored: self.edb,
            plans,
        };
        if !self.base.undefined.is_empty() {
            // An undefined atom is neither in nor out of the old extension:
            // nothing sound to reuse.
            return reuse.start_over(self.rules, self.strat, opts);
        }
        eval_strata(
            self.rules,
            self.strat,
            &self.store,
            opts,
            true,
            Some(&reuse),
        )
    }
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
    fn a_grown_input_rebuilds_its_stratum_and_reuses_untouched_ones() {
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
        // The closure's input grew: its stratum is rebuilt from the stored
        // facts.
        assert_eq!(inc.profile.delta_rebuilt_strata, 1);
        assert!(!inc
            .facts
            .shares_relation(e.lookup("tc").unwrap(), &base.facts));
        // `big`'s stratum never saw the delta: its relation is the very
        // same allocation as the base model's.
        let big = e.lookup("big").unwrap();
        assert!(inc.facts.shares_relation(big, &base.facts));
        assert_eq!(inc.profile.delta_reused_strata, 1);
        // Less work than the cold run: `big` is not derived again.
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
