//! Well-founded semantics via the alternating fixpoint.
//!
//! The GCM requires Datalog with well-founded negation (§3: "a declarative
//! rule language with an intuitive semantics that expresses precisely
//! FO(LFP)"), and the paper's nonmonotonic inheritance ("if we want to
//! specify that it *only* projects to the latter, a nonmonotonic
//! inheritance, e.g. using FL with well-founded semantics, can be
//! employed", §4) needs the three-valued reading.
//!
//! We compute the standard alternating fixpoint: with `Γ(J)` the least
//! model of the positive reduct wrt `J`, the sequence
//! `L₀ = EDB, U₀ = Γ(L₀), Lᵢ₊₁ = Γ(Uᵢ), Uᵢ₊₁ = Γ(Lᵢ₊₁)` converges; the
//! final `L` holds the well-founded *true* atoms and `U \ L` the
//! *undefined* ones.

use crate::error::{DatalogError, Result};
use crate::eval::{check_cancelled, gamma, EvalOptions, EvalStats, IndexCounters};
use crate::fact::FactStore;
use crate::rule::Rule;

/// Evaluates `rules` (already join-planned) over `edb` under the
/// well-founded semantics, returning `(true facts, undefined atoms)`; the
/// true facts include `edb`. The stratum walker calls this for one
/// negation-cyclic stratum over the completed strata below it, and for a
/// three-valued tail; counters land in the caller's stratum scope.
pub(crate) fn eval_well_founded(
    rules: &[&Rule],
    edb: &FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<(FactStore, FactStore)> {
    let mut lower = edb.clone();
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
        // The lower sequence stays below every upper (both monotone toward
        // the fixpoint), so size equality implies set equality throughout.
        // `Γ(lower) == lower` means the fixpoint is *total* — the
        // two-valued well-founded model, nothing undefined — and the
        // second gamma of this sweep would only reconfirm it.
        if upper.len() == lower.len() {
            return Ok((upper, FactStore::new()));
        }
        let new_lower = gamma(rules, edb, &upper, stats, counters, opts)?;
        // `Lᵢ₊₁ = Γ(Uᵢ) ⊆ Γ(Lᵢ) = Uᵢ` (Γ antitone, `Lᵢ ⊆ Uᵢ`), so size
        // equality here means `Lᵢ₊₁ = Uᵢ` — making `Lᵢ₊₁` a fixpoint of Γ
        // (`Γ(Lᵢ₊₁) = Γ(Uᵢ) = Lᵢ₊₁`): the total two-valued model. The next
        // sweep's first gamma would only reconfirm it.
        if new_lower.len() == upper.len() {
            return Ok((new_lower, FactStore::new()));
        }
        if new_lower.len() == lower.len() {
            let mut undefined = FactStore::new();
            for (p, t) in upper.iter() {
                if !new_lower.contains(p, t) {
                    undefined.insert(p, t.clone());
                }
            }
            return Ok((new_lower, undefined));
        }
        lower = new_lower;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, BodyItem};
    use crate::eval::Model;
    use crate::interner::Interner;
    use crate::term::{Term, Var};

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// The alternating fixpoint over `rules` as written (no join
    /// planning), wrapped into a model.
    fn well_founded(rules: &[Rule], edb: &FactStore, opts: &EvalOptions) -> Model {
        let rules: Vec<&Rule> = rules.iter().collect();
        let mut stats = EvalStats::default();
        let counters = IndexCounters::default();
        let (facts, undefined) =
            eval_well_founded(&rules, edb, &mut stats, &counters, opts).unwrap();
        counters.fold_into(&mut stats);
        Model {
            facts,
            undefined,
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
        edb.insert(mv, vec![n[0].clone(), n[1].clone()].into());
        edb.insert(mv, vec![n[1].clone(), n[2].clone()].into());
        edb.insert(mv, vec![n[3].clone(), n[3].clone()].into());
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
        edb.insert(node, vec![a.clone()].into());
        edb.insert(node, vec![b.clone()].into());
        edb.insert(marked, vec![a.clone()].into());
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
        edb.insert(item, vec![a.clone()].into());
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
