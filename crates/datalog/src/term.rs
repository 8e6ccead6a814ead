//! Terms of the deductive engine: variables, constants, integers, and
//! function terms.
//!
//! Function terms exist to support the *skolem placeholder objects*
//! `f_{C,r,D}(x)` that domain-map assertions create (paper §4): when the
//! object base does not contain a required role filler, an assertion rule
//! derives a placeholder object built from a function symbol applied to the
//! anchor object. Because function symbols can generate infinitely many
//! terms, evaluation enforces a configurable term-depth limit
//! (see [`crate::eval::EvalOptions`]).

use crate::interner::{Interner, Sym};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A rule-local variable. Variable identities are scoped to a single rule;
/// `Var(0)` in one rule is unrelated to `Var(0)` in another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The raw index of this variable within its rule.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: either a variable or a (possibly nested) ground value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A rule-local variable.
    Var(Var),
    /// A symbolic constant (interned).
    Const(Sym),
    /// An integer constant.
    Int(i64),
    /// A function term `f(t1, ..., tn)`; used for skolem placeholders.
    /// Argument lists are `Arc`-shared so terms stay cheap to clone and
    /// whole models can cross thread boundaries (see `QuerySnapshot` in
    /// `kind-core`).
    Func(Sym, Arc<[Term]>),
}

impl Term {
    /// Builds a function term.
    pub fn func(f: Sym, args: Vec<Term>) -> Term {
        Term::Func(f, args.into())
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Const(_) | Term::Int(_) => true,
            Term::Func(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Nesting depth of function terms: constants have depth 0,
    /// `f(c)` has depth 1, `f(g(c))` has depth 2, and so on.
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Const(_) | Term::Int(_) => 0,
            Term::Func(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }

    /// Collects the variables occurring in this term into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Const(_) | Term::Int(_) => {}
            Term::Func(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Applies a substitution, replacing bound variables by their values.
    /// Unbound variables are left in place.
    pub fn apply(&self, subst: &Subst) -> Term {
        match self {
            Term::Var(v) => subst.get(*v).cloned().unwrap_or_else(|| self.clone()),
            Term::Const(_) | Term::Int(_) => self.clone(),
            Term::Func(f, args) => Term::Func(*f, args.iter().map(|a| a.apply(subst)).collect()),
        }
    }

    /// Whether [`Self::apply`] under `subst` would be ground: every
    /// variable in the term is bound. Builds nothing.
    pub(crate) fn is_ground_under(&self, subst: &Subst) -> bool {
        match self {
            Term::Var(v) => subst.get(*v).is_some(),
            Term::Const(_) | Term::Int(_) => true,
            Term::Func(_, args) => args.iter().all(|a| a.is_ground_under(subst)),
        }
    }

    /// [`Self::apply`] without the copy: borrowed from the term or the
    /// substitution, owned only where a function term with variables has
    /// to be rebuilt.
    pub(crate) fn resolve<'a>(&'a self, subst: &'a Subst) -> Cow<'a, Term> {
        match self {
            Term::Var(v) => Cow::Borrowed(subst.get(*v).unwrap_or(self)),
            Term::Func(..) if !self.is_ground() => Cow::Owned(self.apply(subst)),
            _ => Cow::Borrowed(self),
        }
    }

    /// Renders the term using `syms` for symbol names.
    pub fn display<'a>(&'a self, syms: &'a Interner) -> TermDisplay<'a> {
        TermDisplay { term: self, syms }
    }
}

/// Pretty-printing adapter tying a [`Term`] to an [`Interner`].
pub struct TermDisplay<'a> {
    term: &'a Term,
    syms: &'a Interner,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(s) => f.write_str(self.syms.resolve(*s)),
            Term::Int(i) => write!(f, "{i}"),
            Term::Func(g, args) => {
                write!(f, "{}(", self.syms.resolve(*g))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", a.display(self.syms))?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Sorts rows of ground terms as their rendered cells sort — the order
/// `Vec<Vec<String>>::sort` gives the rows [`Term::display`] renders —
/// rendering only what is not a name: a constant compares by its interned
/// name, an integer by its decimal text (so `10` sorts before `9`, and
/// `-3` before `0`), a function term by its display. Each cell's text is
/// found once — a name in `syms`, anything else written into one buffer —
/// and the rows are ordered by those texts. A reply sorts its rows with
/// it once and writes each cell straight from its term.
pub fn sort_rendered(rows: &mut Vec<Vec<Term>>, syms: &Interner) {
    let mut written = String::new();
    let found: Vec<Result<&str, std::ops::Range<usize>>> = (rows.iter().flatten())
        .map(|t| match t {
            Term::Const(s) => Ok(syms.resolve(*s)),
            other => {
                let start = written.len();
                fmt::write(&mut written, format_args!("{}", other.display(syms)))
                    .expect("writing to a String cannot fail");
                Err(start..written.len())
            }
        })
        .collect();
    let texts: Vec<&[u8]> = (found.into_iter())
        .map(|f| f.map_or_else(|at| &written.as_bytes()[at], str::as_bytes))
        .collect();
    let mut rest = texts.as_slice();
    let mut keyed: Vec<(&[&[u8]], Vec<Term>)> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let (key, tail) = rest.split_at(row.len());
        keyed.push((key, row));
        rest = tail;
    }
    keyed.sort_by_key(|&(key, _)| key);
    rows.extend(keyed.into_iter().map(|(_, row)| row));
}

/// A substitution mapping rule-local variables to ground terms.
///
/// Backed by a dense vector indexed by variable id, with an undo trail so
/// the evaluator can backtrack cheaply during joins.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    slots: Vec<Option<Term>>,
    trail: Vec<Var>,
}

impl Subst {
    /// Creates a substitution with room for `nvars` variables.
    pub fn with_capacity(nvars: usize) -> Self {
        Subst {
            slots: vec![None; nvars],
            trail: Vec::new(),
        }
    }

    /// Current binding of `v`, if any.
    pub fn get(&self, v: Var) -> Option<&Term> {
        self.slots.get(v.index()).and_then(|s| s.as_ref())
    }

    /// Binds `v` to `t`, recording the binding on the trail.
    ///
    /// # Panics
    /// Panics (debug) if `v` is already bound; callers must check first.
    pub fn bind(&mut self, v: Var, t: Term) {
        debug_assert!(self.get(v).is_none(), "rebinding {v}");
        if v.index() >= self.slots.len() {
            self.slots.resize(v.index() + 1, None);
        }
        self.slots[v.index()] = Some(t);
        self.trail.push(v);
    }

    /// A checkpoint for later [`Self::undo_to`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undoes all bindings made after `mark`.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            // Longer than `mark`, so not empty.
            let v = self.trail.pop().expect("trail underflow");
            self.slots[v.index()] = None;
        }
    }

    /// Clears all bindings.
    pub fn clear(&mut self) {
        for v in self.trail.drain(..) {
            self.slots[v.index()] = None;
        }
    }

    /// Matches pattern term `pat` against ground term `val`, extending the
    /// substitution. Returns `false` (leaving any partial bindings for the
    /// caller to undo via the trail) when matching fails.
    ///
    /// This is one-way matching, not full unification: `val` must be
    /// ground, which is an invariant of bottom-up evaluation.
    pub fn match_term(&mut self, pat: &Term, val: &Term) -> bool {
        debug_assert!(val.is_ground(), "match_term against non-ground value");
        match pat {
            Term::Var(v) => match self.get(*v) {
                Some(bound) => bound == val,
                None => {
                    self.bind(*v, val.clone());
                    true
                }
            },
            Term::Const(a) => matches!(val, Term::Const(b) if a == b),
            Term::Int(a) => matches!(val, Term::Int(b) if a == b),
            Term::Func(fa, pargs) => match val {
                Term::Func(fb, vargs) if fa == fb && pargs.len() == vargs.len() => pargs
                    .iter()
                    .zip(vargs.iter())
                    .all(|(p, v)| self.match_term(p, v)),
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> Interner {
        Interner::new()
    }

    #[test]
    fn ground_and_depth() {
        let mut s = syms();
        let f = s.intern("f");
        let c = Term::Const(s.intern("c"));
        assert!(c.is_ground());
        assert_eq!(c.depth(), 0);
        let t = Term::func(f, vec![c.clone()]);
        assert_eq!(t.depth(), 1);
        let t2 = Term::func(f, vec![t]);
        assert_eq!(t2.depth(), 2);
        let open = Term::func(f, vec![Term::Var(Var(0))]);
        assert!(!open.is_ground());
    }

    #[test]
    fn match_binds_and_checks() {
        let mut s = syms();
        let c = Term::Const(s.intern("c"));
        let d = Term::Const(s.intern("d"));
        let mut sub = Subst::with_capacity(2);
        assert!(sub.match_term(&Term::Var(Var(0)), &c));
        assert_eq!(sub.get(Var(0)), Some(&c));
        // Bound variable must match its binding.
        assert!(sub.match_term(&Term::Var(Var(0)), &c));
        assert!(!sub.match_term(&Term::Var(Var(0)), &d));
    }

    #[test]
    fn match_function_terms() {
        let mut s = syms();
        let f = s.intern("f");
        let g = s.intern("g");
        let c = Term::Const(s.intern("c"));
        let pat = Term::func(f, vec![Term::Var(Var(0))]);
        let val = Term::func(f, vec![c.clone()]);
        let mut sub = Subst::with_capacity(1);
        assert!(sub.match_term(&pat, &val));
        assert_eq!(sub.get(Var(0)), Some(&c));
        sub.clear();
        let other = Term::func(g, vec![c.clone()]);
        assert!(!sub.match_term(&pat, &other));
    }

    #[test]
    fn trail_undo() {
        let s = {
            let mut s = syms();
            s.intern("c");
            s
        };
        let c = Term::Const(s.get("c").unwrap());
        let mut sub = Subst::with_capacity(2);
        let m = sub.mark();
        sub.bind(Var(0), c.clone());
        sub.bind(Var(1), c);
        sub.undo_to(m);
        assert!(sub.get(Var(0)).is_none());
        assert!(sub.get(Var(1)).is_none());
    }

    #[test]
    fn apply_substitutes_nested() {
        let mut s = syms();
        let f = s.intern("f");
        let c = Term::Const(s.intern("c"));
        let mut sub = Subst::with_capacity(1);
        sub.bind(Var(0), c.clone());
        let t = Term::func(f, vec![Term::Var(Var(0))]);
        assert_eq!(t.apply(&sub), Term::func(f, vec![c]));
    }

    #[test]
    fn collect_vars_dedups() {
        let mut s = syms();
        let f = s.intern("f");
        let t = Term::func(
            f,
            vec![Term::Var(Var(1)), Term::Var(Var(1)), Term::Var(Var(0))],
        );
        let mut vs = Vec::new();
        t.collect_vars(&mut vs);
        assert_eq!(vs, vec![Var(1), Var(0)]);
    }
}
