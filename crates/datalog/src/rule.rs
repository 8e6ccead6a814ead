//! Rules: safety (range restriction) checking and execution planning.
//!
//! A rule body is ordered by one greedy scheduler (`schedule`), which
//! answers, for each item, which variables are bound when it runs. It is
//! asked three times, and each caller keeps only its rank for the next
//! positive atom:
//!
//! - [`Rule::compile`] ranks nothing, so positive atoms keep their source
//!   order (which the author controls for join-order tuning); nothing is
//!   bound at the start. The plan it stores is the body's *plan order*.
//! - Join planning (`Rule::reorder`, before a stratum runs) ranks by bound
//!   arguments, then by the smaller relation.
//! - The magic-sets rewrite ranks by bound arguments, starting from the
//!   variables its adorned head binds: that sideways order fixes each
//!   body atom's adornment.
//!
//! Ties go to source order. Negated atoms, comparisons and assignments run
//! as soon as their variables are bound, so they prune the search soonest;
//! aggregates run last, in source order. A variable that no order can bind
//! makes the rule unsafe.

use crate::atom::{Atom, BodyItem};
use crate::error::{DatalogError, Result};
use crate::interner::{Interner, Sym};
use crate::term::{Term, Var};
use std::cmp::Reverse;
use std::fmt;
use std::sync::Arc;

/// A compiled rule. It is immutable once compiled, so its body and names
/// are shared: a clone — of an engine's rule set, of the rules a magic
/// rewrite is handed — copies the head and two handles, never the body.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The head atom derived when the body succeeds.
    pub head: Atom,
    /// Body items in *plan order* (see module docs).
    pub body: Arc<[BodyItem]>,
    /// Number of distinct variables (variable ids are `0..nvars`).
    pub nvars: u32,
    /// Variable names, indexed by variable id (for diagnostics).
    pub var_names: Arc<[String]>,
}

impl Rule {
    /// Compiles a rule: checks safety and reorders the body into an
    /// executable plan.
    ///
    /// Safety (range restriction) demands that every variable occurring in
    /// the head, in a negated atom, or in a comparison is bound by a
    /// positive atom, an assignment, or an aggregate. Aggregate bodies are
    /// checked recursively, from the variables bound before the aggregate;
    /// the collected value and the grouping variables must be bound there
    /// or inside the aggregate body.
    pub fn compile(
        head: Atom,
        body: Vec<BodyItem>,
        nvars: u32,
        var_names: Vec<String>,
    ) -> Result<Rule> {
        Rule::compile_inner(head, body, nvars, var_names, &|s| format!("{s}"))
    }

    /// Like [`Rule::compile`], but renders predicate names through `syms`
    /// in error messages instead of the opaque `#{n}` fallback. Prefer
    /// this whenever an interner is in scope — diagnostics like
    /// `unsafe rule` then name the offending predicate.
    pub fn compile_named(
        head: Atom,
        body: Vec<BodyItem>,
        nvars: u32,
        var_names: Vec<String>,
        syms: &Interner,
    ) -> Result<Rule> {
        Rule::compile_inner(head, body, nvars, var_names, &|s| {
            syms.name_of(s)
                .map(str::to_string)
                .unwrap_or_else(|| format!("{s}"))
        })
    }

    fn compile_inner(
        head: Atom,
        body: Vec<BodyItem>,
        nvars: u32,
        var_names: Vec<String>,
        pred_name: &dyn Fn(Sym) -> String,
    ) -> Result<Rule> {
        let unsafe_var = |v| DatalogError::UnsafeRule {
            rule: format!("rule with head predicate {}", pred_name(head.pred)),
            var: var_name(&var_names, v),
        };
        let (order, bound) = schedule(&body, Vec::new(), in_source_order).map_err(unsafe_var)?;
        let mut head_vars = Vec::new();
        head.collect_vars(&mut head_vars);
        if let Some(&v) = head_vars.iter().find(|v| !bound.contains(v)) {
            return Err(unsafe_var(v));
        }
        let mut items: Vec<Option<BodyItem>> = body.into_iter().map(Some).collect();
        let body = order
            .iter()
            .map(|&i| items[i].take().expect("a schedule lists a position once"))
            .collect();
        Ok(Rule {
            head,
            body,
            nvars,
            var_names: var_names.into(),
        })
    }

    /// A ground fact expressed as a body-less rule.
    pub fn fact(head: Atom) -> Result<Rule> {
        Rule::compile(head, Vec::new(), 0, Vec::new())
    }

    /// Greedily reorders the body for evaluation: the positive atom with
    /// the most arguments bound by the items before it goes next, ties to
    /// the smaller estimated relation (`card`), then to compiled order.
    /// Guards and aggregates are placed as [`Rule::compile`] places them.
    ///
    /// Returns the reordered rule plus, for each new body position, the
    /// index of that item in the compiled body (the *join order*, recorded
    /// in the evaluation profile). A rule built without [`Rule::compile`]
    /// that cannot be scheduled keeps its order.
    pub(crate) fn reorder(&self, mut card: impl FnMut(Sym) -> usize) -> (Rule, Vec<usize>) {
        let rank = |atom: &Atom, bound: &[Var]| {
            let bound_args = atom.args.iter().filter(|t| term_bound(t, bound)).count();
            (bound_args, Reverse(card(atom.pred)))
        };
        let Ok((order, _)) = schedule(&self.body, Vec::new(), rank) else {
            return (self.clone(), (0..self.body.len()).collect());
        };
        // The compiled order already: share the body.
        if order.iter().enumerate().all(|(i, &o)| i == o) {
            return (self.clone(), order);
        }
        let body = order.iter().map(|&i| self.body[i].clone()).collect();
        (
            Rule {
                head: self.head.clone(),
                body,
                nvars: self.nvars,
                var_names: Arc::clone(&self.var_names),
            },
            order,
        )
    }

    /// Rendering adapter.
    pub fn display<'a>(&'a self, syms: &'a Interner) -> RuleDisplay<'a> {
        RuleDisplay { rule: self, syms }
    }
}

fn var_name(names: &[String], v: Var) -> String {
    names
        .get(v.index())
        .cloned()
        .unwrap_or_else(|| format!("?{}", v.0))
}

/// Whether every variable of `t` is in `bound` (a ground term is bound).
pub(crate) fn term_bound(t: &Term, bound: &[Var]) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Const(_) | Term::Int(_) => true,
        Term::Func(_, args) => args.iter().all(|a| term_bound(a, bound)),
    }
}

/// Greedily orders `body`, run with the variables of `bound` already bound
/// (a rule's: none; an adorned head's: its bound arguments).
///
/// Positive atoms go one at a time: next, the one `rank` rates highest
/// against the variables bound so far, ties to source order. Before each,
/// and after each, every negated atom, comparison and assignment whose
/// variables are bound goes: scanning left to right, continuing after a
/// move, repeating until nothing moves. Aggregates go last, in source
/// order, each followed by the guards it readies: which correlated
/// variables are bound decides their groups, so the author must be able to
/// predict it. An aggregate is safe when its body schedules from the
/// variables bound before it and binds, with those, its grouping variables
/// and every variable of its collected value.
///
/// Returns the positions of `body` in schedule order and the variables
/// bound after them, or the first variable no order can bind.
pub(crate) fn schedule<K: Ord>(
    body: &[BodyItem],
    mut bound: Vec<Var>,
    mut rank: impl FnMut(&Atom, &[Var]) -> K,
) -> std::result::Result<(Vec<usize>, Vec<Var>), Var> {
    let mut order = Vec::with_capacity(body.len());
    let mut rest: Vec<usize> = (0..body.len())
        .filter(|&i| !matches!(body[i], BodyItem::Agg(_)))
        .collect();
    loop {
        flush(body, &mut rest, &mut bound, &mut order);
        let mut best: Option<(usize, K)> = None;
        for (at, &i) in rest.iter().enumerate() {
            if let BodyItem::Pos(atom) = &body[i] {
                let key = rank(atom, &bound);
                if best.as_ref().is_none_or(|(_, top)| key > *top) {
                    best = Some((at, key));
                }
            }
        }
        let Some((at, _)) = best else { break };
        take(body, rest.remove(at), &mut bound, &mut order);
    }
    for (i, item) in body.iter().enumerate() {
        let BodyItem::Agg(agg) = item else { continue };
        let (_, inner) = schedule(&agg.body, bound.clone(), in_source_order)?;
        let mut needed = agg.group_by.clone();
        agg.value.collect_vars(&mut needed);
        if let Some(&v) = needed.iter().find(|v| !inner.contains(v)) {
            return Err(v);
        }
        take(body, i, &mut bound, &mut order);
        flush(body, &mut rest, &mut bound, &mut order);
    }
    match rest.first() {
        Some(&i) => Err(body[i]
            .required_vars()
            .into_iter()
            .find(|v| !bound.contains(v))
            .unwrap_or(Var(0))),
        None => Ok((order, bound)),
    }
}

/// The rank that leaves positive atoms in source order.
fn in_source_order(_: &Atom, _: &[Var]) {}

/// Schedules `body[i]` next: appends it to `order` and binds what it binds.
fn take(body: &[BodyItem], i: usize, bound: &mut Vec<Var>, order: &mut Vec<usize>) {
    bound.extend(body[i].provided_vars());
    order.push(i);
}

/// Schedules every guard of `rest` whose variables are bound, in the order
/// [`schedule`] describes.
fn flush(body: &[BodyItem], rest: &mut Vec<usize>, bound: &mut Vec<Var>, order: &mut Vec<usize>) {
    let mut moved = true;
    while moved {
        moved = false;
        let mut at = 0;
        while at < rest.len() {
            let item = &body[rest[at]];
            let guard = !matches!(item, BodyItem::Pos(_));
            if guard && item.required_vars().iter().all(|v| bound.contains(v)) {
                take(body, rest.remove(at), bound, order);
                moved = true;
            } else {
                at += 1;
            }
        }
    }
}

/// Pretty-printing adapter for [`Rule`].
pub struct RuleDisplay<'a> {
    rule: &'a Rule,
    syms: &'a Interner,
}

impl fmt::Display for RuleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = &self.rule.var_names;
        write!(f, "{}", atom_str(&self.rule.head, self.syms, names))?;
        if !self.rule.body.is_empty() {
            write!(f, " :- {}", body_str(&self.rule.body, self.syms, names))?;
        }
        write!(f, ".")
    }
}

/// Body items, comma-separated, in the order given.
fn body_str(items: &[BodyItem], syms: &Interner, names: &[String]) -> String {
    let item = |b: &BodyItem| match b {
        BodyItem::Pos(a) => atom_str(a, syms, names),
        BodyItem::Neg(a) => format!("not {}", atom_str(a, syms, names)),
        BodyItem::Cmp(op, l, r) => format!(
            "{} {op} {}",
            expr_str(l, syms, names),
            expr_str(r, syms, names)
        ),
        BodyItem::Assign(t, e) => format!(
            "{} = {}",
            term_str(t, syms, names),
            expr_str(e, syms, names)
        ),
        BodyItem::Agg(a) => {
            let groups: Vec<String> = a.group_by.iter().map(|v| var_str(*v, names)).collect();
            let groups = if groups.is_empty() {
                String::new()
            } else {
                format!(" [{}]", groups.join(", "))
            };
            format!(
                "{} = {}{{{}{groups} : {}}}",
                var_str(a.result, names),
                a.func,
                term_str(&a.value, syms, names),
                body_str(&a.body, syms, names)
            )
        }
    };
    items.iter().map(item).collect::<Vec<_>>().join(", ")
}

/// Variable rendering that survives re-parsing: prefer the recorded name
/// (already uppercase/underscore-led by construction), fall back to a
/// synthetic uppercase name.
fn var_str(v: Var, names: &[String]) -> String {
    match names.get(v.index()) {
        Some(n) if n.starts_with(|c: char| c.is_ascii_uppercase()) => n.clone(),
        _ => format!("V__{}", v.0),
    }
}

fn term_str(t: &Term, syms: &Interner, names: &[String]) -> String {
    match t {
        Term::Var(v) => var_str(*v, names),
        Term::Const(s) => {
            let raw = syms.resolve(*s);
            // Names that would not re-lex as a lowercase identifier are
            // emitted as quoted strings.
            let ident_ok = raw.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && raw.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if ident_ok {
                raw.to_string()
            } else {
                crate::parser::quoted(raw)
            }
        }
        Term::Int(i) => i.to_string(),
        Term::Func(g, args) => {
            let inner: Vec<String> = args.iter().map(|a| term_str(a, syms, names)).collect();
            format!("{}({})", syms.resolve(*g), inner.join(","))
        }
    }
}

fn atom_str(a: &Atom, syms: &Interner, names: &[String]) -> String {
    if a.args.is_empty() {
        return syms.resolve(a.pred).to_string();
    }
    let inner: Vec<String> = a.args.iter().map(|t| term_str(t, syms, names)).collect();
    format!("{}({})", syms.resolve(a.pred), inner.join(","))
}

fn expr_str(e: &crate::atom::Expr, syms: &Interner, names: &[String]) -> String {
    use crate::atom::Expr;
    match e {
        Expr::Term(t) => term_str(t, syms, names),
        Expr::Add(a, b) => format!(
            "({} + {})",
            expr_str(a, syms, names),
            expr_str(b, syms, names)
        ),
        Expr::Sub(a, b) => format!(
            "({} - {})",
            expr_str(a, syms, names),
            expr_str(b, syms, names)
        ),
        Expr::Mul(a, b) => format!(
            "({} * {})",
            expr_str(a, syms, names),
            expr_str(b, syms, names)
        ),
        Expr::Div(a, b) => format!(
            "({} / {})",
            expr_str(a, syms, names),
            expr_str(b, syms, names)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{CmpOp, Expr};
    use crate::interner::Interner;

    fn setup() -> (Interner, crate::interner::Sym, crate::interner::Sym) {
        let mut syms = Interner::new();
        let p = syms.intern("p");
        let q = syms.intern("q");
        (syms, p, q)
    }

    #[test]
    fn safe_rule_compiles() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(0))]);
        let body = vec![BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))]))];
        assert!(Rule::compile(head, body, 1, vec!["X".into()]).is_ok());
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(1))]);
        let body = vec![BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))]))];
        let err = Rule::compile(head, body, 2, vec!["X".into(), "Y".into()]).unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeRule { var, .. } if var == "Y"));
    }

    #[test]
    fn unsafe_negation_rejected() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(0))]);
        let body = vec![
            BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))])),
            BodyItem::Neg(Atom::new(q, vec![Term::Var(Var(1))])),
        ];
        assert!(Rule::compile(head, body, 2, vec!["X".into(), "Y".into()]).is_err());
    }

    #[test]
    fn negation_scheduled_after_binding() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(0))]);
        // Source order puts the negation first; the plan must move it
        // after the positive atom that binds X.
        let body = vec![
            BodyItem::Neg(Atom::new(q, vec![Term::Var(Var(0))])),
            BodyItem::Pos(Atom::new(p, vec![Term::Var(Var(0))])),
        ];
        let r = Rule::compile(head, body, 1, vec!["X".into()]).unwrap();
        assert!(matches!(r.body[0], BodyItem::Pos(_)));
        assert!(matches!(r.body[1], BodyItem::Neg(_)));
    }

    #[test]
    fn comparison_scheduled_eagerly() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        // X bound by first atom; X > 3 should run before the second atom.
        let body = vec![
            BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))])),
            BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(1))])),
            BodyItem::Cmp(
                CmpOp::Gt,
                Expr::Term(Term::Var(Var(0))),
                Expr::Term(Term::Int(3)),
            ),
        ];
        let r = Rule::compile(head, body, 2, vec!["X".into(), "Y".into()]).unwrap();
        assert!(matches!(r.body[1], BodyItem::Cmp(..)), "plan: {:?}", r.body);
    }

    #[test]
    fn reorder_prefers_bound_then_small_relations() {
        let mut syms = Interner::new();
        let big = syms.intern("big");
        let link = syms.intern("link");
        let tiny = syms.intern("tiny");
        let p = syms.intern("p");
        let head = Atom::new(p, vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let body = vec![
            BodyItem::Pos(Atom::new(big, vec![Term::Var(Var(0))])),
            BodyItem::Pos(Atom::new(link, vec![Term::Var(Var(0)), Term::Var(Var(1))])),
            BodyItem::Pos(Atom::new(tiny, vec![Term::Var(Var(1))])),
        ];
        let r = Rule::compile(head, body, 2, vec!["X".into(), "Y".into()]).unwrap();
        // Nothing bound at the start: pick the smallest relation (tiny),
        // which binds Y; link then has a bound argument, big none.
        let (planned, order) = r.reorder(|s| {
            if s == big {
                1000
            } else if s == link {
                10
            } else {
                1
            }
        });
        assert_eq!(order, vec![2, 1, 0]);
        assert!(matches!(&planned.body[0], BodyItem::Pos(a) if a.pred == tiny));
        assert!(matches!(&planned.body[2], BodyItem::Pos(a) if a.pred == big));
    }

    #[test]
    fn reorder_flushes_guards_once_bound() {
        let mut syms = Interner::new();
        let q = syms.intern("q");
        let r_ = syms.intern("r");
        let m = syms.intern("m");
        let p = syms.intern("p");
        let head = Atom::new(p, vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let body = vec![
            BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))])),
            BodyItem::Neg(Atom::new(m, vec![Term::Var(Var(1))])),
            BodyItem::Pos(Atom::new(r_, vec![Term::Var(Var(1))])),
        ];
        let rule = Rule::compile(head, body, 2, vec!["X".into(), "Y".into()]).unwrap();
        // Compiled order: q, r, not m. Reorder with r much smaller than q:
        // r first, the negation flushes right after it, q last.
        let (planned, order) = rule.reorder(|s| if s == q { 100 } else { 1 });
        assert_eq!(order, vec![1, 2, 0]);
        assert!(matches!(planned.body[1], BodyItem::Neg(_)));
    }

    #[test]
    fn reorder_identity_when_order_already_best() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(0))]);
        let body = vec![BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))]))];
        let r = Rule::compile(head, body, 1, vec!["X".into()]).unwrap();
        let (_, order) = r.reorder(|_| 1);
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn assignment_binds_for_head() {
        let (_syms, p, q) = setup();
        let head = Atom::new(p, vec![Term::Var(Var(1))]);
        let body = vec![
            BodyItem::Pos(Atom::new(q, vec![Term::Var(Var(0))])),
            BodyItem::Assign(
                Term::Var(Var(1)),
                Expr::Add(
                    Box::new(Expr::Term(Term::Var(Var(0)))),
                    Box::new(Expr::Term(Term::Int(1))),
                ),
            ),
        ];
        assert!(Rule::compile(head, body, 2, vec!["X".into(), "Y".into()]).is_ok());
    }
}
