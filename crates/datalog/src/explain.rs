//! Derivation explanations: *why* is a fact in the model?
//!
//! A mediator's integrated views stack rules from many places (source
//! CMs, domain-map edges, IVDs); when an answer looks wrong, the first
//! question is which rule chain produced it. [`crate::Engine::explain`]
//! reconstructs one derivation tree for a fact, post hoc: it finds a rule
//! whose head matches the fact and whose body is satisfied *in the final
//! model*, then recurses into the positive premises down to EDB facts.
//!
//! Reconstruction against the final model is sound for stratified
//! programs (every derived fact has such a supporting rule instance) and
//! for the true atoms of well-founded models. Cycles and depth overruns
//! are truncated explicitly rather than looped on.

use crate::atom::BodyItem;
use crate::eval::{body_solutions, Model};
use crate::interner::Sym;
use crate::term::{Subst, Term};
use std::collections::HashSet;
use std::fmt::Write;

/// A ground atom as `(predicate, arguments)`.
pub type GroundAtom = (Sym, Vec<Term>);

/// One node of a derivation tree.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The derived predicate.
    pub pred: Sym,
    /// Its ground arguments.
    pub args: Vec<Term>,
    /// How it was derived.
    pub via: DerivationStep,
}

/// How a fact entered the model.
#[derive(Debug, Clone)]
pub enum DerivationStep {
    /// Asserted in the extensional database.
    Edb,
    /// Derived by the rule at `rule_index` (into [`crate::Engine::rules`])
    /// from the given positive premises; `negatives` lists the ground
    /// negated atoms the rule instance relied on being absent.
    Rule {
        /// Index of the applied rule.
        rule_index: usize,
        /// Sub-derivations of the positive body atoms.
        premises: Vec<Derivation>,
        /// Ground negated atoms (verified absent in the model).
        negatives: Vec<GroundAtom>,
    },
    /// Cut off by the depth bound or a cycle.
    Truncated,
    /// Present in the model but no rule instance re-derives it (can
    /// happen for the undefined-adjacent frontier of well-founded models).
    Unexplained,
}

impl crate::Engine {
    /// Builds a derivation tree for `pred(args)` in `model`, up to
    /// `max_depth` rule applications deep. Returns `None` if the fact is
    /// not in the model at all.
    pub fn explain(
        &self,
        model: &Model,
        pred: Sym,
        args: &[Term],
        max_depth: usize,
    ) -> Option<Derivation> {
        if !model.holds(pred, args) {
            return None;
        }
        let mut in_progress = HashSet::new();
        Some(self.explain_rec(model, pred, args, max_depth, &mut in_progress))
    }

    fn explain_rec(
        &self,
        model: &Model,
        pred: Sym,
        args: &[Term],
        depth: usize,
        in_progress: &mut HashSet<(Sym, Vec<Term>)>,
    ) -> Derivation {
        let key = (pred, args.to_vec());
        if self.edb().contains(pred, args) {
            return Derivation {
                pred,
                args: args.to_vec(),
                via: DerivationStep::Edb,
            };
        }
        if depth == 0 || !in_progress.insert(key.clone()) {
            return Derivation {
                pred,
                args: args.to_vec(),
                via: DerivationStep::Truncated,
            };
        }
        let mut via = DerivationStep::Unexplained;
        'rules: for (ri, rule) in self.rules().iter().enumerate() {
            if rule.head.pred != pred || rule.head.arity() != args.len() {
                continue;
            }
            // Bind the head against the fact, then check the body in the
            // final model.
            let mut subst = Subst::with_capacity(rule.nvars as usize);
            let mark = subst.mark();
            let mut ok = true;
            for (pat, val) in rule.head.args.iter().zip(args.iter()) {
                if !subst.match_term(pat, val) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                subst.undo_to(mark);
                continue;
            }
            // Capture the first satisfying body instance that is not
            // *self-supporting* (a premise identical to the conclusion —
            // e.g. the FL upward-propagation axiom instantiated through
            // the reflexive subclass edge derives every fact from
            // itself; such instances explain nothing).
            let mut captured: Option<(Vec<GroundAtom>, Vec<GroundAtom>)> = None;
            {
                let body = &rule.body;
                let captured = &mut captured;
                let key_ref = &key;
                body_solutions(rule, &model.facts, &mut subst, &mut |s: &Subst| {
                    if captured.is_some() {
                        return;
                    }
                    let mut pos = Vec::new();
                    let mut neg = Vec::new();
                    for item in body.iter() {
                        match item {
                            BodyItem::Pos(a) => {
                                let ground = a.apply(s);
                                pos.push((ground.pred, ground.args));
                            }
                            BodyItem::Neg(a) => {
                                let ground = a.apply(s);
                                neg.push((ground.pred, ground.args));
                            }
                            _ => {}
                        }
                    }
                    if pos.iter().any(|p| p == key_ref) {
                        return; // self-supporting: keep searching
                    }
                    *captured = Some((pos, neg));
                });
            }
            if let Some((pos, negatives)) = captured {
                let premises = pos
                    .into_iter()
                    .map(|(p, a)| self.explain_rec(model, p, &a, depth - 1, in_progress))
                    .collect();
                via = DerivationStep::Rule {
                    rule_index: ri,
                    premises,
                    negatives,
                };
                break 'rules;
            }
        }
        in_progress.remove(&key);
        Derivation {
            pred,
            args: args.to_vec(),
            via,
        }
    }

    /// Renders a model's evaluation profile as a diagnostic dump: one
    /// line per stratum naming the mode it ran in (skipped, single pass,
    /// fixpoint, alternating fixpoint) and its predicates, then its
    /// iteration and index counters, the `Γ` passes of an alternating
    /// fixpoint, and the compiled join order of every rule. The join order
    /// lists compiled body positions; a `*` marks rules the greedy planner
    /// actually reordered.
    pub fn render_profile(&self, model: &Model) -> String {
        let prof = &model.profile;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evaluation profile: {} strata{}{}",
            prof.strata.len(),
            if prof.seeded > 0 {
                format!(", {} facts seeded from base cache", prof.seeded)
            } else {
                String::new()
            },
            if prof.magic_fired {
                format!(
                    ", magic-sets rewrite fired ({} adorned rules, {} magic predicates)",
                    prof.adorned_rules, prof.magic_preds
                )
            } else {
                String::new()
            },
        );
        for (i, sp) in prof.strata.iter().enumerate() {
            let preds: Vec<&str> = sp.preds.iter().map(|&p| self.name(p)).collect();
            let kind = match (sp.skipped, sp.well_founded, sp.recursive) {
                (true, ..) => "skipped (cached)",
                (_, true, _) => "alternating fixpoint",
                (_, _, true) => "fixpoint",
                _ => "single pass",
            };
            let _ = writeln!(out, "stratum {i} [{kind}]: {}", preds.join(", "));
            if !sp.skipped {
                let _ = writeln!(
                    out,
                    "  iterations={} derived={} index: builds={} hits={} misses={}",
                    sp.iterations, sp.derived, sp.index_builds, sp.index_hits, sp.index_misses
                );
                if sp.well_founded {
                    let _ = writeln!(
                        out,
                        "  gamma passes={}{}",
                        sp.gamma_passes,
                        if sp.gamma_passes == 1 {
                            " (first reduct certified total)"
                        } else {
                            ""
                        }
                    );
                }
                if sp.adorned_rules > 0 || sp.magic_preds > 0 {
                    let _ = writeln!(
                        out,
                        "  magic: adorned_rules={} magic_preds={}",
                        sp.adorned_rules, sp.magic_preds
                    );
                }
                for plan in &sp.plans {
                    let order: Vec<String> =
                        plan.join_order.iter().map(|p| p.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "  rule {}: join order [{}]{}",
                        self.name(plan.head),
                        order.join(", "),
                        if plan.reordered { " *" } else { "" }
                    );
                }
            }
        }
        out
    }

    /// Renders a derivation tree as indented text.
    pub fn render_derivation(&self, d: &Derivation) -> String {
        let mut out = String::new();
        self.render_rec(d, 0, &mut out);
        out
    }

    fn render_rec(&self, d: &Derivation, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let args: Vec<String> = d.args.iter().map(|t| self.show(t)).collect();
        let head = format!("{}({})", self.name(d.pred), args.join(","));
        match &d.via {
            DerivationStep::Edb => {
                let _ = writeln!(out, "{pad}{head}   [edb]");
            }
            DerivationStep::Truncated => {
                let _ = writeln!(out, "{pad}{head}   [...]");
            }
            DerivationStep::Unexplained => {
                let _ = writeln!(out, "{pad}{head}   [unexplained]");
            }
            DerivationStep::Rule {
                rule_index,
                premises,
                negatives,
            } => {
                let _ = writeln!(out, "{pad}{head}   [rule #{rule_index}]");
                for p in premises {
                    self.render_rec(p, indent + 1, out);
                }
                for (np, na) in negatives {
                    let nargs: Vec<String> = na.iter().map(|t| self.show(t)).collect();
                    let _ = writeln!(
                        out,
                        "{}not {}({})   [absent]",
                        "  ".repeat(indent + 1),
                        self.name(*np),
                        nargs.join(",")
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EvalOptions};

    fn setup() -> (Engine, Model) {
        let mut e = Engine::new();
        e.load(
            "edge(a,b). edge(b,c).
             tc(X,Y) :- edge(X,Y).
             tc(X,Y) :- tc(X,Z), edge(Z,Y).",
        )
        .unwrap();
        let m = e.run(&EvalOptions::default()).unwrap();
        (e, m)
    }

    #[test]
    fn edb_facts_explain_as_edb() {
        let (mut e, m) = setup();
        let edge = e.sym("edge");
        let a = e.constant("a");
        let b = e.constant("b");
        let d = e.explain(&m, edge, &[a, b], 8).unwrap();
        assert!(matches!(d.via, DerivationStep::Edb));
    }

    #[test]
    fn derived_facts_explain_through_rules() {
        let (mut e, m) = setup();
        let tc = e.sym("tc");
        let a = e.constant("a");
        let c = e.constant("c");
        let d = e.explain(&m, tc, &[a, c], 8).unwrap();
        let DerivationStep::Rule { premises, .. } = &d.via else {
            panic!("{d:?}")
        };
        // tc(a,c) via tc(a,b), edge(b,c); premises bottom out at EDB.
        assert_eq!(premises.len(), 2);
        let rendered = e.render_derivation(&d);
        assert!(rendered.contains("tc(a,c)"));
        assert!(rendered.contains("[edb]"));
    }

    #[test]
    fn absent_facts_are_none() {
        let (mut e, m) = setup();
        let tc = e.sym("tc");
        let c = e.constant("c");
        let a = e.constant("a");
        assert!(e.explain(&m, tc, &[c, a], 8).is_none());
    }

    #[test]
    fn negation_recorded_as_absent() {
        let mut e = Engine::new();
        e.load(
            "n(x). n(y). m(x).
             un(A) :- n(A), not m(A).",
        )
        .unwrap();
        let model = e.run(&EvalOptions::default()).unwrap();
        let un = e.sym("un");
        let y = e.constant("y");
        let d = e.explain(&model, un, &[y], 4).unwrap();
        let DerivationStep::Rule { negatives, .. } = &d.via else {
            panic!()
        };
        assert_eq!(negatives.len(), 1);
        let text = e.render_derivation(&d);
        assert!(text.contains("not m(y)"), "{text}");
    }

    #[test]
    fn depth_bound_truncates() {
        let mut e = Engine::new();
        let mut text = String::from("p0(k).\n");
        for i in 0..20 {
            text.push_str(&format!("p{}(X) :- p{}(X).\n", i + 1, i));
        }
        e.load(&text).unwrap();
        let m = e.run(&EvalOptions::default()).unwrap();
        let p20 = e.sym("p20");
        let k = e.constant("k");
        let d = e.explain(&m, p20, &[k], 3).unwrap();
        let rendered = e.render_derivation(&d);
        assert!(rendered.contains("[...]"), "{rendered}");
    }

    #[test]
    fn profile_dump_shows_join_order_and_counters() {
        let (e, m) = setup();
        let dump = e.render_profile(&m);
        assert!(dump.contains("evaluation profile"), "{dump}");
        assert!(dump.contains("tc"), "{dump}");
        assert!(dump.contains("join order ["), "{dump}");
        assert!(dump.contains("index: builds="), "{dump}");
        assert!(dump.contains("[fixpoint]: tc"), "{dump}");
    }

    #[test]
    fn profile_dump_shows_magic_rewrite() {
        use crate::{Atom, Term as T, Var};
        let mut e = Engine::new();
        e.load(
            "edge(a,b). edge(b,c). edge(c,d).
             tc(X,Y) :- edge(X,Y).
             tc(X,Y) :- tc(X,Z), edge(Z,Y).",
        )
        .unwrap();
        let tc = e.sym("tc");
        let a = e.constant("a");
        let goal = Atom::new(tc, vec![a, T::Var(Var(0))]);
        let m = e
            .run_for_query(&goal, None, &EvalOptions::default())
            .unwrap();
        let dump = e.render_profile(&m);
        assert!(dump.contains("magic-sets rewrite fired"), "{dump}");
        assert!(dump.contains("magic: adorned_rules="), "{dump}");
        // A full run reports no rewrite.
        let full = e.run(&EvalOptions::default()).unwrap();
        let dump = e.render_profile(&full);
        assert!(!dump.contains("magic-sets rewrite fired"), "{dump}");
    }

    #[test]
    fn aggregate_rules_explain_without_premises() {
        let mut e = Engine::new();
        e.load(
            "v(g, 1). v(g, 2).
             s(G, N) :- N = count{ X [G] : v(G, X) }.",
        )
        .unwrap();
        let m = e.run(&EvalOptions::default()).unwrap();
        let s = e.sym("s");
        let g = e.constant("g");
        let d = e.explain(&m, s, &[g, Term::Int(2)], 4).unwrap();
        // The aggregate contributes no positive premises but the rule is
        // identified.
        assert!(matches!(d.via, DerivationStep::Rule { .. }));
    }
}
