//! Rules: safety (range restriction) checking and execution planning.
//!
//! A rule is compiled once into an *execution plan*: an ordering of its
//! body items such that every negated atom, comparison, assignment, and
//! aggregate runs only after the positive subgoals that bind its variables.
//! The planner is a greedy scheduler; positive atoms keep their source
//! order (which the author controls for join-order tuning), and guarded
//! items are placed as early as their bindings allow so they prune the
//! search space soonest.

use crate::atom::{Atom, BodyItem};
use crate::error::{DatalogError, Result};
use crate::interner::Interner;
use crate::term::{Term, Var};
use std::collections::HashSet;
use std::fmt;

/// A compiled rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The head atom derived when the body succeeds.
    pub head: Atom,
    /// Body items in *plan order* (see module docs).
    pub body: Vec<BodyItem>,
    /// Number of distinct variables (variable ids are `0..nvars`).
    pub nvars: u32,
    /// Variable names, indexed by variable id (for diagnostics).
    pub var_names: Vec<String>,
}

impl Rule {
    /// Compiles a rule: checks safety and reorders the body into an
    /// executable plan.
    ///
    /// Safety (range restriction) demands that every variable occurring in
    /// the head, in a negated atom, or in a comparison is bound by a
    /// positive atom, an assignment, or an aggregate. Aggregate bodies are
    /// checked recursively; the collected value and the grouping variables
    /// must be bound inside the aggregate body itself.
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
        pred_name: &dyn Fn(crate::interner::Sym) -> String,
    ) -> Result<Rule> {
        let planned = plan_items(body, &HashSet::new()).map_err(|v| DatalogError::UnsafeRule {
            rule: format!("rule with head predicate {}", pred_name(head.pred)),
            var: var_name(&var_names, v),
        })?;
        // After the plan runs, these variables are bound:
        let mut bound: HashSet<Var> = HashSet::new();
        for item in &planned {
            bound.extend(item.provided_vars());
        }
        let mut head_vars = Vec::new();
        head.collect_vars(&mut head_vars);
        if let Some(&v) = head_vars.iter().find(|v| !bound.contains(v)) {
            return Err(DatalogError::UnsafeRule {
                rule: format!("rule with head predicate {}", pred_name(head.pred)),
                var: var_name(&var_names, v),
            });
        }
        Ok(Rule {
            head,
            body: planned,
            nvars,
            var_names,
        })
    }

    /// A ground fact expressed as a body-less rule.
    pub fn fact(head: Atom) -> Result<Rule> {
        Rule::compile(head, Vec::new(), 0, Vec::new())
    }

    /// Greedily reorders the body for evaluation — a sideways-information-
    /// passing order: repeatedly pick the positive atom with the most
    /// arguments fully bound by the items scheduled so far, breaking ties
    /// toward the smaller estimated relation (`card`) and then source
    /// order. Guards (negation, comparison, assignment) are flushed as soon
    /// as their variables are bound; aggregates keep their phase-2
    /// placement, exactly as in [`Rule::compile`].
    ///
    /// Returns the reordered rule plus, for each new body position, the
    /// index of that item in the compiled body (the *join order*, recorded
    /// in the evaluation profile). Falls back to the compiled order if the
    /// greedy schedule cannot place every item (it always can for rules
    /// that passed [`Rule::compile`]).
    pub fn reorder(
        &self,
        mut card: impl FnMut(crate::interner::Sym) -> usize,
    ) -> (Rule, Vec<usize>) {
        use std::cmp::Reverse;
        fn term_bound(t: &Term, bound: &HashSet<Var>) -> bool {
            let mut vars = Vec::new();
            t.collect_vars(&mut vars);
            vars.iter().all(|v| bound.contains(v))
        }
        fn flush(
            body: &[BodyItem],
            remaining: &mut Vec<usize>,
            bound: &mut HashSet<Var>,
            order: &mut Vec<usize>,
        ) {
            let mut progressed = true;
            while progressed {
                progressed = false;
                let mut i = 0;
                while i < remaining.len() {
                    let item = &body[remaining[i]];
                    let ready = match item {
                        BodyItem::Pos(_) | BodyItem::Agg(_) => false,
                        other => other.required_vars().iter().all(|v| bound.contains(v)),
                    };
                    if ready {
                        let oi = remaining.remove(i);
                        bound.extend(body[oi].provided_vars());
                        order.push(oi);
                        progressed = true;
                    } else {
                        i += 1;
                    }
                }
            }
        }

        let n = self.body.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut bound: HashSet<Var> = HashSet::new();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        // Phase 1: positives by bound-argument count then cardinality,
        // guards flushed eagerly.
        loop {
            flush(&self.body, &mut remaining, &mut bound, &mut order);
            let best = remaining
                .iter()
                .enumerate()
                .filter_map(|(ri, &oi)| match &self.body[oi] {
                    BodyItem::Pos(atom) => {
                        let bound_args = atom.args.iter().filter(|a| term_bound(a, &bound)).count();
                        Some((ri, oi, bound_args, card(atom.pred)))
                    }
                    _ => None,
                })
                .max_by_key(|&(_, oi, bound_args, size)| (bound_args, Reverse(size), Reverse(oi)));
            match best {
                Some((ri, oi, _, _)) => {
                    remaining.remove(ri);
                    bound.extend(self.body[oi].provided_vars());
                    order.push(oi);
                }
                None => break,
            }
        }
        // Phase 2: aggregates in source order, flushing newly-ready guards.
        while let Some(ri) = remaining
            .iter()
            .position(|&oi| matches!(self.body[oi], BodyItem::Agg(_)))
        {
            let oi = remaining.remove(ri);
            bound.extend(self.body[oi].provided_vars());
            order.push(oi);
            flush(&self.body, &mut remaining, &mut bound, &mut order);
        }
        if !remaining.is_empty() {
            debug_assert!(false, "compiled rule failed to reschedule");
            return (self.clone(), (0..n).collect());
        }
        let body = order.iter().map(|&i| self.body[i].clone()).collect();
        (
            Rule {
                head: self.head.clone(),
                body,
                nvars: self.nvars,
                var_names: self.var_names.clone(),
            },
            order,
        )
    }

    /// Indices (into `body`) of the positive atoms, in plan order.
    pub fn positive_atom_indices(&self) -> Vec<usize> {
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, b)| matches!(b, BodyItem::Pos(_)).then_some(i))
            .collect()
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

/// Greedily schedules `items`, given variables already `bound` from an
/// enclosing scope (used for aggregate bodies, which share the rule's
/// variable space). Returns the items in execution order, or the first
/// variable that can never be bound.
///
/// Aggregates are always scheduled *after* every non-aggregate item, in
/// source order: their grouping semantics depend on which correlated
/// variables are bound, so their position must be predictable to the rule
/// author. Guards that mention an aggregate's result run after it.
fn plan_items(
    items: Vec<BodyItem>,
    outer_bound: &HashSet<Var>,
) -> std::result::Result<Vec<BodyItem>, Var> {
    let mut bound = outer_bound.clone();
    let mut planned = Vec::with_capacity(items.len());
    let (mut aggs, mut rest): (Vec<BodyItem>, Vec<BodyItem>) = {
        let mut aggs = Vec::new();
        let mut rest = Vec::new();
        for it in items {
            if matches!(it, BodyItem::Agg(_)) {
                aggs.push(it);
            } else {
                rest.push(it);
            }
        }
        (aggs, rest)
    };
    // Phase 1: positives in source order, guards flushed as soon as bound.
    loop {
        flush_ready(&mut rest, &mut bound, &mut planned);
        match rest.iter().position(|b| matches!(b, BodyItem::Pos(_))) {
            Some(pos) => {
                let item = rest.remove(pos);
                bound.extend(item.provided_vars());
                planned.push(item);
            }
            None => break,
        }
    }
    // Phase 2: aggregates in source order, flushing newly-ready guards.
    while !aggs.is_empty() {
        let item = aggs.remove(0);
        if let BodyItem::Agg(agg) = &item {
            let mut inner_bound = bound.clone();
            inner_bound.extend(agg.group_by.iter().copied());
            // The aggregate body must be plannable on its own.
            plan_items(agg.body.clone(), &inner_bound)?;
        }
        bound.extend(item.provided_vars());
        planned.push(item);
        flush_ready(&mut rest, &mut bound, &mut planned);
    }
    // Anything left is unsatisfiable.
    if let Some(item) = rest.first() {
        let v = item
            .required_vars()
            .into_iter()
            .find(|v| !bound.contains(v))
            .unwrap_or(Var(0));
        return Err(v);
    }
    Ok(planned)
}

/// Moves every guarded item in `rest` whose required variables are all in
/// `bound` to the end of `planned`, repeating until a fixpoint.
fn flush_ready(rest: &mut Vec<BodyItem>, bound: &mut HashSet<Var>, planned: &mut Vec<BodyItem>) {
    let mut progressed = true;
    while progressed {
        progressed = false;
        let mut i = 0;
        while i < rest.len() {
            let ready = match &rest[i] {
                BodyItem::Pos(_) | BodyItem::Agg(_) => false,
                other => other.required_vars().iter().all(|v| bound.contains(v)),
            };
            if ready {
                let item = rest.remove(i);
                bound.extend(item.provided_vars());
                planned.push(item);
                progressed = true;
            } else {
                i += 1;
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
            write!(f, " :- ")?;
            for (i, b) in self.rule.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match b {
                    BodyItem::Pos(a) => write!(f, "{}", atom_str(a, self.syms, names))?,
                    BodyItem::Neg(a) => write!(f, "not {}", atom_str(a, self.syms, names))?,
                    BodyItem::Cmp(op, l, r) => write!(
                        f,
                        "{} {op} {}",
                        expr_str(l, self.syms, names),
                        expr_str(r, self.syms, names)
                    )?,
                    BodyItem::Assign(t, e) => write!(
                        f,
                        "{} = {}",
                        term_str(t, self.syms, names),
                        expr_str(e, self.syms, names)
                    )?,
                    BodyItem::Agg(a) => {
                        write!(f, "{} = {}{{", var_str(a.result, names), a.func)?;
                        write!(f, "{}", term_str(&a.value, self.syms, names))?;
                        if !a.group_by.is_empty() {
                            let gs: Vec<String> =
                                a.group_by.iter().map(|v| var_str(*v, names)).collect();
                            write!(f, " [{}]", gs.join(", "))?;
                        }
                        write!(f, " : ")?;
                        for (j, inner) in a.body.iter().enumerate() {
                            if j > 0 {
                                write!(f, ", ")?;
                            }
                            match inner {
                                BodyItem::Pos(ia) => {
                                    write!(f, "{}", atom_str(ia, self.syms, names))?
                                }
                                BodyItem::Neg(ia) => {
                                    write!(f, "not {}", atom_str(ia, self.syms, names))?
                                }
                                BodyItem::Cmp(op, l, r) => write!(
                                    f,
                                    "{} {op} {}",
                                    expr_str(l, self.syms, names),
                                    expr_str(r, self.syms, names)
                                )?,
                                BodyItem::Assign(t, e) => write!(
                                    f,
                                    "{} = {}",
                                    term_str(t, self.syms, names),
                                    expr_str(e, self.syms, names)
                                )?,
                                BodyItem::Agg(_) => write!(f, "<nested-agg>")?,
                            }
                        }
                        write!(f, "}}")?
                    }
                }
            }
        }
        write!(f, ".")
    }
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
