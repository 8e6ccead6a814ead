//! Well-founded semantics via the alternating fixpoint, cut short by a
//! certificate when the first reduct is already the model.
//!
//! The GCM requires Datalog with well-founded negation (§3: "a declarative
//! rule language with an intuitive semantics that expresses precisely
//! FO(LFP)"), and the paper's nonmonotonic inheritance ("if we want to
//! specify that it *only* projects to the latter, a nonmonotonic
//! inheritance, e.g. using FL with well-founded semantics, can be
//! employed", §4) needs the three-valued reading.
//!
//! We compute the standard alternating fixpoint: with `Γ(J)` the least
//! model of the positive reduct wrt `J` (`not a` holds iff `a ∉ J`), the
//! sequence `L₀ = EDB, Uᵢ = Γ(Lᵢ), Lᵢ₊₁ = Γ(Uᵢ)` converges; the final `L`
//! holds the well-founded *true* atoms and `U \ L` the *undefined* ones.
//! `Γ` is antitone, and `Lᵢ ⊆ Lᵢ₊₁ ⊆ Uᵢ₊₁ ⊆ Uᵢ` throughout.
//!
//! **The certificate.** After each upper pass `Uᵢ = Γ(Lᵢ)` we enumerate
//! the instances of the unit's rules that fire in the reduct wrt `Lᵢ` with
//! their positive body in `Uᵢ`, and look at the atoms they negate over the
//! unit's own predicates (an atom of a lower stratum reads the same in
//! `Lᵢ` and `Uᵢ`). If none of those atoms is in `Uᵢ`, every instance that
//! derives `Uᵢ` also fires in the reduct wrt `Uᵢ`, so `Γ(Uᵢ) ⊇ Uᵢ`; with
//! `Γ` antitone and `Lᵢ ⊆ Uᵢ`, `Γ(Uᵢ) ⊆ Γ(Lᵢ) = Uᵢ`. Hence `Lᵢ₊₁ = Uᵢ` is
//! a fixpoint of `Γ`, the model is total, and `Uᵢ` is returned without
//! the lower pass that would only re-derive it. `Uᵢ = Lᵢ` is the trivial
//! case (no atom is in `Uᵢ \ Lᵢ`), checked first by size. Otherwise the
//! alternating fixpoint goes on from `(Lᵢ, Uᵢ)` as usual. A unit with an
//! aggregate is never certified: an aggregate is not monotone in the
//! relation it reads, so `Γ` is not the least model of a positive program
//! there (and [`gamma`] keeps naive rounds for it).
//!
//! This is the bottom-up shadow of XSB's delay-and-simplify: Brass, Dix,
//! Freitag and Zukowski, "Transformation-based bottom-up computation of
//! the well-founded model" (TPLP 2001), compute the model from a residual
//! program whose negative literals are resolved once their atoms are
//! known; a certified first reduct is the case where no negative literal
//! of a fired instance is left unresolved. Reading negation against the
//! *running* state instead, stratified-style, would reach *a* fixpoint of
//! `Γ` — a stable model, not necessarily the well-founded one
//! (`p :- not q. q :- not p.`); the certificate is taken on a reduct
//! `Γ(Lᵢ)` of the alternating sequence.

use crate::atom::BodyItem;
use crate::error::{DatalogError, Result};
use crate::eval::{
    check_cancelled, gamma, negates_into_upper, EvalOptions, EvalStats, IndexCounters, Prepared,
};
use crate::fact::FactStore;
use crate::interner::Sym;
use std::collections::HashSet;

/// What the alternating fixpoint of one unit returns.
pub(crate) struct WellFounded {
    /// The true facts, the unit's inputs included.
    pub(crate) facts: FactStore,
    /// The undefined atoms; empty when the model is total.
    pub(crate) undefined: FactStore,
    /// The `Γ` passes run: 1 when the first reduct was certified.
    pub(crate) passes: usize,
}

/// Evaluates `rules` (already join-planned) over `edb` under the
/// well-founded semantics. The stratum walker calls this for one
/// negation-cyclic stratum over the completed strata below it, and for a
/// three-valued tail; counters land in the caller's stratum scope.
/// `iterations` and `applications` count the work of every pass; no
/// reduct counts `derived` (see [`gamma`]): the caller counts the true
/// facts beyond `edb` once, if it keeps them.
pub(crate) fn eval_well_founded(
    rules: &[&Prepared],
    edb: &FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<WellFounded> {
    let own: HashSet<Sym> = rules.iter().map(|p| p.rule.head.pred).collect();
    let aggregates = rules
        .iter()
        .any(|p| p.rule.body.iter().any(|b| matches!(b, BodyItem::Agg(_))));
    let total = |facts, passes| {
        Ok(WellFounded {
            facts,
            undefined: FactStore::new(),
            passes,
        })
    };
    let mut lower = edb.clone();
    let mut passes = 0usize;
    let mut sweeps = 0usize;
    loop {
        // Sweep boundary: the same cooperative cancellation check the
        // stratified loops run at round boundaries (each `gamma` below
        // also checks per round).
        check_cancelled(opts, stats)?;
        sweeps += 1;
        if sweeps > opts.max_iterations {
            return Err(DatalogError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let upper = gamma(rules, edb, &lower, stats, counters, opts)?;
        passes += 1;
        // The lower sequence stays below every upper, so size equality is
        // set equality: `Γ(Lᵢ) = Lᵢ`, the certificate's trivial case.
        let certified = upper.len() == lower.len()
            || (!aggregates && !negates_into_upper(rules, &own, &lower, &upper, opts, counters));
        if certified {
            return total(upper, passes);
        }
        let new_lower = gamma(rules, edb, &upper, stats, counters, opts)?;
        passes += 1;
        // `Lᵢ₊₁ = Γ(Uᵢ) ⊆ Γ(Lᵢ) = Uᵢ`, so size equality here means
        // `Lᵢ₊₁ = Uᵢ` — a fixpoint of Γ: the total two-valued model.
        if new_lower.len() == upper.len() {
            return total(new_lower, passes);
        }
        if new_lower.len() == lower.len() {
            let mut undefined = FactStore::new();
            for (p, t) in upper.iter() {
                if !new_lower.contains(p, t) {
                    undefined.insert(p, t);
                }
            }
            return Ok(WellFounded {
                facts: new_lower,
                undefined,
                passes,
            });
        }
        lower = new_lower;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, BodyItem};
    use crate::eval::{plan_rule, Model};
    use crate::interner::Interner;
    use crate::rule::Rule;
    use crate::term::{Term, Var};
    use std::collections::HashSet;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// The alternating fixpoint over `rules` as written (no join
    /// planning), wrapped into a model.
    fn well_founded(rules: &[Rule], edb: &FactStore, opts: &EvalOptions) -> Model {
        let as_written = EvalOptions {
            join_reorder: false,
            ..opts.clone()
        };
        let prepared: Vec<Prepared> = rules
            .iter()
            .map(|r| plan_rule(r, edb, &HashSet::new(), &as_written))
            .collect();
        let rules: Vec<&Prepared> = prepared.iter().collect();
        let mut stats = EvalStats::default();
        let counters = IndexCounters::default();
        let wf = eval_well_founded(&rules, edb, &mut stats, &counters, opts).unwrap();
        counters.fold_into(&mut stats);
        Model {
            facts: wf.facts,
            undefined: wf.undefined,
            stats,
            profile: Default::default(),
        }
    }

    /// The classic "win" example: a position is winning iff some move
    /// leads to a non-winning position. On a cycle, positions come out
    /// undefined; on a finite path, they alternate.
    #[test]
    fn win_move_game() {
        let mut syms = Interner::new();
        let mv = syms.intern("move");
        let win = syms.intern("win");
        let mut edb = FactStore::new();
        let n: Vec<Term> = (0..4)
            .map(|i| Term::Const(syms.intern(&format!("p{i}"))))
            .collect();
        // Path: p0 -> p1 -> p2 (p2 terminal: lost). Cycle: p3 -> p3.
        edb.insert(mv, &[n[0].clone(), n[1].clone()]);
        edb.insert(mv, &[n[1].clone(), n[2].clone()]);
        edb.insert(mv, &[n[3].clone(), n[3].clone()]);
        let rules = vec![Rule::compile(
            Atom::new(win, vec![v(0)]),
            vec![
                BodyItem::Pos(Atom::new(mv, vec![v(0), v(1)])),
                BodyItem::Neg(Atom::new(win, vec![v(1)])),
            ],
            2,
            vec!["X".into(), "Y".into()],
        )
        .unwrap()];
        let m = well_founded(&rules, &edb, &EvalOptions::default());
        // p2 has no moves: lost => p1 wins => p0 loses.
        assert!(m.holds(win, &[n[1].clone()]));
        assert!(!m.holds(win, &[n[0].clone()]));
        assert!(!m.is_undefined(win, &[n[0].clone()]));
        assert!(!m.holds(win, &[n[2].clone()]));
        // The self-loop position is undefined.
        assert!(m.is_undefined(win, &[n[3].clone()]));
    }

    /// A stratified program evaluated through the WFS path must agree with
    /// the stratified evaluator (no undefined atoms).
    #[test]
    fn wfs_agrees_with_stratified_on_stratified_programs() {
        let mut syms = Interner::new();
        let node = syms.intern("node");
        let marked = syms.intern("marked");
        let un = syms.intern("unmarked");
        let mut edb = FactStore::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        edb.insert(node, std::slice::from_ref(&a));
        edb.insert(node, std::slice::from_ref(&b));
        edb.insert(marked, std::slice::from_ref(&a));
        let rules = vec![Rule::compile(
            Atom::new(un, vec![v(0)]),
            vec![
                BodyItem::Pos(Atom::new(node, vec![v(0)])),
                BodyItem::Neg(Atom::new(marked, vec![v(0)])),
            ],
            1,
            vec!["X".into()],
        )
        .unwrap()];
        let m = well_founded(&rules, &edb, &EvalOptions::default());
        assert!(m.holds(un, &[b]));
        assert!(!m.holds(un, &[a]));
        assert!(m.undefined.is_empty());
    }

    /// Mutual negation with no base facts: both atoms undefined.
    #[test]
    fn mutual_negation_undefined() {
        let mut syms = Interner::new();
        let item = syms.intern("item");
        let p = syms.intern("p");
        let q = syms.intern("q");
        let mut edb = FactStore::new();
        let a = Term::Const(syms.intern("a"));
        edb.insert(item, std::slice::from_ref(&a));
        let rules = vec![
            Rule::compile(
                Atom::new(p, vec![v(0)]),
                vec![
                    BodyItem::Pos(Atom::new(item, vec![v(0)])),
                    BodyItem::Neg(Atom::new(q, vec![v(0)])),
                ],
                1,
                vec!["X".into()],
            )
            .unwrap(),
            Rule::compile(
                Atom::new(q, vec![v(0)]),
                vec![
                    BodyItem::Pos(Atom::new(item, vec![v(0)])),
                    BodyItem::Neg(Atom::new(p, vec![v(0)])),
                ],
                1,
                vec!["X".into()],
            )
            .unwrap(),
        ];
        let m = well_founded(&rules, &edb, &EvalOptions::default());
        assert!(m.is_undefined(p, std::slice::from_ref(&a)));
        assert!(m.is_undefined(q, std::slice::from_ref(&a)));
        assert!(!m.holds(p, std::slice::from_ref(&a)));
        assert!(!m.holds(q, &[a]));
    }
}
