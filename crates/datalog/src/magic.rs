//! Magic-sets rewrite: demand-driven (goal-directed) evaluation.
//!
//! Bottom-up evaluation computes whole predicates; a selective goal like
//! `calcium_sites("Calbindin", L)` pays for every protein's closure all
//! the same. The classical fix is the *magic-sets* transformation: given
//! the goal's bound/free argument pattern, **adorn** each reachable rule
//! with a sideways-information-passing (SIP) order, introduce a **magic
//! predicate** per adorned predicate holding the *demanded* bindings,
//! guard every adorned rule with its magic predicate, and seed the magic
//! predicate of the goal from the query constants. Bottom-up evaluation
//! of the rewritten program then derives only facts some demand can
//! actually reach — the bottom-up engine emulates top-down relevance
//! while keeping termination and the existing semi-naive / join-reorder /
//! parallel-fixpoint machinery (the rewrite runs *after* parsing and
//! *before* stratification).
//!
//! ## Scope and soundness
//!
//! Demand filtering is only sound for predicates whose facts are consumed
//! *monotonically*. Anything tested under negation, read inside an
//! aggregate body, or feeding either (transitively) must be materialized
//! in full — restricting those predicates to demanded bindings would make
//! `not p(..)` true for never-demanded tuples and would corrupt counts.
//! The rewrite therefore splits the reachable program into a
//! **needs-full** fragment (kept verbatim, evaluated as before) and a
//! **demandable** fragment (adorned + guarded). Negative edges only ever
//! point from the adorned world into the needs-full world, so a
//! stratifiable program stays stratifiable; if stratification of the
//! rewritten program fails anyway (or the program needs the well-founded
//! evaluator), the caller falls back to plain bottom-up — the rewrite is
//! an optimization, never a semantics change.
//!
//! Adorned predicates are interned as `pred@adn` (e.g. `inst@bf`) and
//! magic predicates as `m@pred@adn`; `@` cannot appear in parsed
//! predicate names, so the generated namespace never collides with user
//! programs. Predicates that keep extensional facts (or absorbed
//! base-cache facts) additionally get a *copy rule*
//! `p@adn(..) :- m@p@adn(..), p(..)` so stored tuples flow into the
//! adorned world, and a final *bridge rule* `g(..) :- g@adn(..)` restores
//! the goal predicate under its original name for answer extraction.

use crate::atom::{Atom, BodyItem};
use crate::fact::FactStore;
use crate::interner::{Interner, Sym};
use crate::rule::Rule;
use crate::term::{Term, Var};
use std::collections::{HashMap, HashSet, VecDeque};

/// The output of a successful rewrite: the transformed program plus the
/// demand seeds and enough bookkeeping to annotate the evaluation
/// profile.
#[derive(Debug, Clone)]
pub(crate) struct MagicRewrite {
    /// The rewritten program: needs-full originals, adorned rules, magic
    /// rules, copy rules, and the goal bridge.
    pub rules: Vec<Rule>,
    /// Ground demand facts to insert before evaluation (the goal's magic
    /// seed).
    pub seeds: Vec<(Sym, Vec<Term>)>,
    /// Every adorned predicate symbol generated (`pred@adn`).
    pub adorned_preds: HashSet<Sym>,
    /// Every magic predicate symbol generated (`m@pred@adn`).
    pub magic_preds: HashSet<Sym>,
    /// Number of adorned (binding-specialized) rules, excluding magic,
    /// copy, and bridge rules.
    pub adorned_rules: usize,
    /// The cost model's estimate of the demanded fraction of the
    /// reachable EDB (see [`estimate_demand_ratio`]); `None` when the
    /// reachable EDB is below the estimation floor (tiny programs always
    /// accept the rewrite), and when only the goal itself was adorned (no
    /// demand is passed on, so there is nothing to estimate).
    pub demand_ratio: Option<f64>,
}

/// Decline the rewrite when the estimated demand cone reaches this
/// fraction of the reachable EDB: magic's per-round guard joins and
/// doubled predicate space only pay off when demand actually prunes.
pub(crate) const DECLINE_RATIO: f64 = 0.5;

/// Reachable-EDB size below which no estimate is attempted: on tiny
/// inputs the rewrite's overhead is noise either way, and the estimator
/// itself would dominate.
const ESTIMATE_FLOOR: usize = 64;

/// Connectivity hops explored by the cone estimate. A cone still growing
/// at the horizon under-estimates — erring toward *accepting* the
/// rewrite, the status-quo behavior.
const ESTIMATE_HOPS: usize = 6;

/// Collects the ground atomic constants (symbols and integers) of a
/// term, recursing through function terms.
fn collect_ground_consts(t: &Term, out: &mut HashSet<Term>) {
    match t {
        Term::Var(_) => {}
        Term::Func(_, args) => {
            for a in args.iter() {
                collect_ground_consts(a, out);
            }
        }
        other => {
            out.insert(other.clone());
        }
    }
}

/// First argument position whose term (recursing through function terms)
/// contains a demanded constant, or `None` when the tuple is untouched.
fn first_touched_position(tuple: &[Term], s: &HashSet<Term>) -> Option<usize> {
    fn touch(term: &Term, s: &HashSet<Term>) -> bool {
        match term {
            Term::Func(_, args) => args.iter().any(|a| touch(a, s)),
            other => s.contains(other),
        }
    }
    tuple.iter().position(|a| touch(a, s))
}

/// Estimates what fraction of the reachable EDB the rewrite's demand can
/// touch, from cardinalities and constant connectivity alone — no
/// evaluation. Seeds are the goal's bound constants plus any ground
/// constants compiled into magic-rule heads (body constants propagate
/// demand through those); the cone then grows breadth-first for up to
/// [`ESTIMATE_HOPS`] rounds: a tuple containing a demanded constant
/// anywhere is counted, but propagation is *directional* — only when the
/// first touched position is a non-subject one does the tuple contribute
/// new constants, and then only its subject's (position 0). This mirrors
/// how sideways information passing actually binds in the engine's
/// subject-first relations (`sub(child, parent)`, `inst(obj, class)`,
/// `mi(obj, attr, val)`): demanding a parent/class/value selects
/// subjects, while a tuple matched *through* its subject must not leak
/// its object-side constants — otherwise one hub constant (`thing`, a
/// shared attribute name, a common integer) floods the estimate and every
/// query looks unprunable. Dropping the object-side constants
/// under-estimates the cone, erring toward *accepting* the rewrite (the
/// status-quo behavior); a ratio near 1.0 means demand cannot prune and
/// the rewrite should be declined. Returns `None` below the size floor.
fn estimate_demand_ratio(
    rules: &[Rule],
    edb: &FactStore,
    seeds: &[(Sym, Vec<Term>)],
    rewritten: &[Rule],
    magic_preds: &HashSet<Sym>,
) -> Option<f64> {
    // Referenced relations in deterministic first-mention order (the
    // estimate feeds a profile flag checked by bit-identical tests).
    let mut seen: HashSet<Sym> = HashSet::new();
    let mut preds: Vec<Sym> = Vec::new();
    for r in rules {
        if seen.insert(r.head.pred) {
            preds.push(r.head.pred);
        }
        let mut body = HashSet::new();
        crate::collect_body_preds(&r.body, &mut body);
        let mut body: Vec<Sym> = body.into_iter().collect();
        body.sort_unstable_by_key(|&p| p.index());
        for p in body {
            if seen.insert(p) {
                preds.push(p);
            }
        }
    }
    let rels: Vec<(Sym, &crate::fact::Relation)> = preds
        .into_iter()
        .filter_map(|p| edb.relation(p).filter(|r| !r.is_empty()).map(|r| (p, r)))
        .collect();
    let full: usize = rels.iter().map(|(_, r)| r.len()).sum();
    if full <= ESTIMATE_FLOOR {
        return None;
    }
    let mut demanded: HashSet<Term> = HashSet::new();
    for (_, args) in seeds {
        for a in args {
            collect_ground_consts(a, &mut demanded);
        }
    }
    for r in rewritten {
        if magic_preds.contains(&r.head.pred) {
            for a in &r.head.args {
                collect_ground_consts(a, &mut demanded);
            }
        }
    }
    if demanded.is_empty() {
        // No concrete constant anywhere: demand cannot prune at all.
        return Some(1.0);
    }
    let mut counted: HashSet<(Sym, usize)> = HashSet::new();
    for _ in 0..ESTIMATE_HOPS {
        let mut grew = false;
        for &(p, rel) in &rels {
            for (i, t) in rel.iter().enumerate() {
                if counted.contains(&(p, i)) {
                    continue;
                }
                if let Some(pos) = first_touched_position(t, &demanded) {
                    counted.insert((p, i));
                    if pos > 0 {
                        if let Some(subject) = t.first() {
                            collect_ground_consts(subject, &mut demanded);
                        }
                    }
                    grew = true;
                }
            }
        }
        // The decision threshold can only be crossed upward; stop as
        // soon as it is (the exact ratio past it changes nothing).
        if 2 * counted.len() >= full || !grew {
            break;
        }
    }
    Some(counted.len() as f64 / full as f64)
}

/// An adornment: per argument position, whether the position is bound at
/// call time.
type Adornment = Vec<bool>;

fn adorn_suffix(adn: &[bool]) -> String {
    adn.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// Whether `t` is fully determined given `bound` variables (ground terms
/// count as bound).
fn term_bound(t: &Term, bound: &HashSet<Var>) -> bool {
    let mut vars = Vec::new();
    t.collect_vars(&mut vars);
    vars.iter().all(|v| bound.contains(v))
}

/// Rewrites the (already relevance-pruned) program `rules` for the ground
/// or partially-ground `goal`. Predicates `is_frozen` holds for are
/// treated as purely extensional: their rules are dropped and their facts
/// in `edb` stand in for their extension (a warm answer freezes what its
/// delta cannot have changed). Returns `None` when the rewrite does not apply — the goal
/// predicate is extensional, sits in the needs-full fragment, generated
/// rules fail to compile, or no demand constraint was produced at all (a
/// pure rename would only add overhead) — and the caller falls back to
/// plain bottom-up evaluation.
pub(crate) fn rewrite(
    rules: &[Rule],
    edb: &FactStore,
    goal: &Atom,
    is_frozen: impl Fn(Sym) -> bool,
    syms: &mut Interner,
) -> Option<MagicRewrite> {
    // The intensional predicates the rewrite may touch: rule heads that
    // are not frozen.
    let mut idb: HashSet<Sym> = HashSet::new();
    for r in rules {
        if !is_frozen(r.head.pred) {
            idb.insert(r.head.pred);
        }
    }
    // Needs-full fragment: predicates consumed non-monotonically (under
    // negation or inside an aggregate body), closed transitively over the
    // rules that define them — their whole derivation cone must be
    // materialized in full.
    let mut needs_full: HashSet<Sym> = HashSet::new();
    for r in rules {
        collect_nonmono_preds(&r.body, false, &mut needs_full);
    }
    loop {
        let mut changed = false;
        for r in rules {
            if needs_full.contains(&r.head.pred) && idb.contains(&r.head.pred) {
                let mut body_preds = HashSet::new();
                crate::collect_body_preds(&r.body, &mut body_preds);
                for p in body_preds {
                    if idb.contains(&p) {
                        changed |= needs_full.insert(p);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let demandable = |p: Sym| idb.contains(&p) && !needs_full.contains(&p);
    if !demandable(goal.pred) {
        return None;
    }

    // Group rules by head for deterministic per-predicate iteration.
    let mut rules_of: HashMap<Sym, Vec<&Rule>> = HashMap::new();
    for r in rules {
        rules_of.entry(r.head.pred).or_default().push(r);
    }

    let goal_adn: Adornment = goal.args.iter().map(Term::is_ground).collect();
    let mut queue: VecDeque<(Sym, Adornment)> = VecDeque::new();
    let mut seen: HashSet<(Sym, Adornment)> = HashSet::new();
    let mut order: Vec<(Sym, Adornment)> = Vec::new();
    let mut demand = |p: Sym,
                      adn: Adornment,
                      queue: &mut VecDeque<(Sym, Adornment)>,
                      order: &mut Vec<(Sym, Adornment)>| {
        if seen.insert((p, adn.clone())) {
            order.push((p, adn.clone()));
            queue.push_back((p, adn));
        }
    };
    demand(goal.pred, goal_adn.clone(), &mut queue, &mut order);

    let mut adorned: Vec<Rule> = Vec::new();
    let mut magics: Vec<Rule> = Vec::new();
    let mut adorned_preds: HashSet<Sym> = HashSet::new();
    let mut magic_preds: HashSet<Sym> = HashSet::new();

    while let Some((pred, adn)) = queue.pop_front() {
        let pred_name = syms.resolve(pred).to_string();
        let adorned_sym = syms.intern(&format!("{pred_name}@{}", adorn_suffix(&adn)));
        adorned_preds.insert(adorned_sym);
        let head_magic = adn.contains(&true).then(|| {
            let m = syms.intern(&format!("m@{pred_name}@{}", adorn_suffix(&adn)));
            magic_preds.insert(m);
            m
        });
        for rule in rules_of.get(&pred).map(Vec::as_slice).unwrap_or(&[]) {
            // Variables bound by the demanded head positions.
            let mut bound: HashSet<Var> = HashSet::new();
            for (arg, &b) in rule.head.args.iter().zip(&adn) {
                if b {
                    let mut vs = Vec::new();
                    arg.collect_vars(&mut vs);
                    bound.extend(vs);
                }
            }
            let head_guard = head_magic.map(|m| {
                let args: Vec<Term> = rule
                    .head
                    .args
                    .iter()
                    .zip(&adn)
                    .filter(|(_, &b)| b)
                    .map(|(t, _)| t.clone())
                    .collect();
                BodyItem::Pos(Atom::new(m, args))
            });
            // SIP order the body, renaming demandable positives to their
            // adorned names and emitting one magic rule per demanded
            // (bound) call site.
            let sip = sip_order(&rule.body, &bound);
            let mut new_body: Vec<BodyItem> = Vec::new();
            for item in sip {
                match &item {
                    BodyItem::Pos(a) if demandable(a.pred) => {
                        let sub_adn: Adornment =
                            a.args.iter().map(|t| term_bound(t, &bound)).collect();
                        let a_name = syms.resolve(a.pred).to_string();
                        let sub_sym = syms.intern(&format!("{a_name}@{}", adorn_suffix(&sub_adn)));
                        if sub_adn.contains(&true) {
                            let m_sym =
                                syms.intern(&format!("m@{a_name}@{}", adorn_suffix(&sub_adn)));
                            magic_preds.insert(m_sym);
                            let m_args: Vec<Term> = a
                                .args
                                .iter()
                                .zip(&sub_adn)
                                .filter(|(_, &b)| b)
                                .map(|(t, _)| t.clone())
                                .collect();
                            let mut m_body: Vec<BodyItem> = head_guard.iter().cloned().collect();
                            m_body.extend(new_body.iter().cloned());
                            magics.push(
                                Rule::compile_named(
                                    Atom::new(m_sym, m_args),
                                    m_body,
                                    rule.nvars,
                                    rule.var_names.clone(),
                                    syms,
                                )
                                .ok()?,
                            );
                        }
                        demand(a.pred, sub_adn, &mut queue, &mut order);
                        new_body.push(BodyItem::Pos(Atom::new(sub_sym, a.args.clone())));
                    }
                    _ => new_body.push(item.clone()),
                }
                for v in new_body.last().expect("just pushed").provided_vars() {
                    bound.insert(v);
                }
            }
            let mut full_body: Vec<BodyItem> = head_guard.into_iter().collect();
            full_body.extend(new_body);
            adorned.push(
                Rule::compile_named(
                    Atom::new(adorned_sym, rule.head.args.clone()),
                    full_body,
                    rule.nvars,
                    rule.var_names.clone(),
                    syms,
                )
                .ok()?,
            );
        }
    }
    // No magic predicate anywhere means no demand constraint was derived:
    // the rewrite would be a pure rename. Let the caller run the original
    // program.
    if magic_preds.is_empty() {
        return None;
    }
    let adorned_rule_count = adorned.len();

    let mut out: Vec<Rule> = Vec::new();
    // Needs-full fragment, verbatim, in original rule order (frozen and
    // never-demanded subprograms are dropped: extra pruning).
    for r in rules {
        if needs_full.contains(&r.head.pred) && !is_frozen(r.head.pred) {
            out.push(r.clone());
        }
    }
    out.extend(adorned);
    out.extend(magics);
    // Copy rules: stored tuples (EDB facts or absorbed base-cache facts)
    // of a demanded predicate flow into its adorned relation, restricted
    // to demanded bindings.
    for (pred, adn) in &order {
        if edb.relation(*pred).is_none_or(|r| r.is_empty()) {
            continue;
        }
        let pred_name = syms.resolve(*pred).to_string();
        let suffix = adorn_suffix(adn);
        let adorned_sym = syms.intern(&format!("{pred_name}@{suffix}"));
        let vars: Vec<Term> = (0..adn.len()).map(|i| Term::Var(Var(i as u32))).collect();
        let mut body: Vec<BodyItem> = Vec::new();
        if adn.contains(&true) {
            let m_sym = syms.intern(&format!("m@{pred_name}@{suffix}"));
            let m_args: Vec<Term> = vars
                .iter()
                .zip(adn)
                .filter(|(_, &b)| b)
                .map(|(t, _)| t.clone())
                .collect();
            body.push(BodyItem::Pos(Atom::new(m_sym, m_args)));
        }
        body.push(BodyItem::Pos(Atom::new(*pred, vars.clone())));
        out.push(
            Rule::compile_named(
                Atom::new(adorned_sym, vars),
                body,
                adn.len() as u32,
                (0..adn.len()).map(|i| format!("V{i}")).collect(),
                syms,
            )
            .ok()?,
        );
    }
    // Bridge: restore the goal predicate under its original name.
    {
        let goal_name = syms.resolve(goal.pred).to_string();
        let goal_sym = syms.intern(&format!("{goal_name}@{}", adorn_suffix(&goal_adn)));
        let vars: Vec<Term> = (0..goal.args.len())
            .map(|i| Term::Var(Var(i as u32)))
            .collect();
        out.push(
            Rule::compile_named(
                Atom::new(goal.pred, vars.clone()),
                vec![BodyItem::Pos(Atom::new(goal_sym, vars))],
                goal.args.len() as u32,
                (0..goal.args.len()).map(|i| format!("V{i}")).collect(),
                syms,
            )
            .ok()?,
        );
    }
    // Demand seed: the goal's own bound arguments.
    let mut seeds = Vec::new();
    if goal_adn.contains(&true) {
        let goal_name = syms.resolve(goal.pred).to_string();
        let m_sym = syms.intern(&format!("m@{goal_name}@{}", adorn_suffix(&goal_adn)));
        magic_preds.insert(m_sym);
        let args: Vec<Term> = goal
            .args
            .iter()
            .zip(&goal_adn)
            .filter(|(_, &b)| b)
            .map(|(t, _)| t.clone())
            .collect();
        seeds.push((m_sym, args));
    }
    // With only the goal adorned nothing is passed sideways: the rewrite
    // is the goal's own rules behind the goal's constants, there is no
    // cone to weigh, and the scan below would cost more than the answer.
    let demand_ratio = if order.len() == 1 {
        None
    } else {
        estimate_demand_ratio(rules, edb, &seeds, &out, &magic_preds)
    };
    Some(MagicRewrite {
        rules: out,
        seeds,
        adorned_preds,
        magic_preds,
        adorned_rules: adorned_rule_count,
        demand_ratio,
    })
}

/// Collects predicates consumed non-monotonically: negated atoms
/// anywhere, and *every* atom inside an aggregate body.
fn collect_nonmono_preds(items: &[BodyItem], in_agg: bool, out: &mut HashSet<Sym>) {
    for item in items {
        match item {
            BodyItem::Pos(a) => {
                if in_agg {
                    out.insert(a.pred);
                }
            }
            BodyItem::Neg(a) => {
                out.insert(a.pred);
            }
            BodyItem::Agg(agg) => collect_nonmono_preds(&agg.body, true, out),
            BodyItem::Cmp(..) | BodyItem::Assign(..) => {}
        }
    }
}

/// Greedy sideways-information-passing order for adornment: guards
/// (negation, comparison, assignment) are flushed as soon as their
/// required variables are bound; among remaining positive atoms the one
/// with the most bound arguments goes next (ties to source order);
/// aggregates keep their phase-2 placement like [`Rule::compile`]. The
/// adornment each positive atom receives is computed against exactly this
/// order, so the magic guards mirror the information actually available
/// at that point of the join.
fn sip_order(body: &[BodyItem], head_bound: &HashSet<Var>) -> Vec<BodyItem> {
    let mut bound = head_bound.clone();
    let mut remaining: Vec<usize> = (0..body.len())
        .filter(|&i| !matches!(body[i], BodyItem::Agg(_)))
        .collect();
    let mut out: Vec<BodyItem> = Vec::new();
    let flush = |remaining: &mut Vec<usize>, bound: &mut HashSet<Var>, out: &mut Vec<BodyItem>| {
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < remaining.len() {
                let item = &body[remaining[i]];
                let guard = !matches!(item, BodyItem::Pos(_));
                if guard && item.required_vars().iter().all(|v| bound.contains(v)) {
                    for v in item.provided_vars() {
                        bound.insert(v);
                    }
                    out.push(item.clone());
                    remaining.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }
    };
    loop {
        flush(&mut remaining, &mut bound, &mut out);
        // Pick the positive atom with the most bound argument positions.
        let mut best: Option<(usize, usize)> = None; // (remaining idx, score)
        for (ri, &bi) in remaining.iter().enumerate() {
            if let BodyItem::Pos(a) = &body[bi] {
                let score = a.args.iter().filter(|t| term_bound(t, &bound)).count();
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((ri, score));
                }
            }
        }
        let Some((ri, _)) = best else { break };
        let bi = remaining.remove(ri);
        for v in body[bi].provided_vars() {
            bound.insert(v);
        }
        out.push(body[bi].clone());
    }
    // Phase 2: aggregates in source order, flushing newly-enabled guards.
    for item in body {
        if matches!(item, BodyItem::Agg(_)) {
            for v in item.provided_vars() {
                bound.insert(v);
            }
            out.push(item.clone());
            flush(&mut remaining, &mut bound, &mut out);
        }
    }
    // Anything still unflushed (possible only for rules that would not
    // have compiled) is appended so no body item is lost; compilation of
    // the adorned rule will reject it exactly as the original would be.
    for bi in remaining {
        out.push(body[bi].clone());
    }
    out
}
