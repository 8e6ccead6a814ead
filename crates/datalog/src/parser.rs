//! Text syntax for programs, in the style the paper writes its rules
//! (§3–4):
//!
//! ```text
//! % facts
//! edge(a, b).  edge(b, c).
//! % rules
//! tc(X, Y) :- edge(X, Y).
//! tc(X, Y) :- tc(X, Z), edge(Z, Y).
//! % negation, comparison, arithmetic
//! root(X) :- node(X), not haspred(X), X != sentinel.
//! succ(X, Y) :- node(X), Y = X + 1.
//! % grouping aggregation (Example 3 syntax: count{VA[VB] : R(VA,VB)})
//! card(B, N) :- N = count{ A [B] : r(A, B) }.
//! ```
//!
//! Identifiers starting with a lowercase letter are constants/predicates;
//! identifiers starting with an uppercase letter or `_` are variables
//! (`_` alone is a fresh anonymous variable each time). Strings in double
//! quotes are constants. `%` and `//` start line comments.

use crate::atom::{AggFunc, Aggregate, Atom, BodyItem, CmpOp, Expr};
use crate::error::{DatalogError, Result};
use crate::interner::Interner;
use crate::rule::Rule;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// How deep a clause may nest — function terms, parenthesised
/// sub-expressions and aggregate bodies together — and how many arithmetic
/// operators it may hold, in this parser and in the F-logic one. Everything
/// downstream of a parser (matching, printing, dropping) recurses over
/// what it built, and program text reaches the parsers straight off the
/// wire, so the text must not choose the recursion depth.
/// [`crate::EvalOptions::max_term_depth`] defaults to 8: no term an
/// evaluation can derive is refused here.
pub const MAX_NESTING: usize = 64;

/// A parsed clause: either a ground fact or a rule.
#[derive(Debug, Clone)]
pub enum Clause {
    /// A ground fact.
    Fact(Atom),
    /// A compiled rule.
    Rule(Rule),
}

/// Parses a whole program into clauses, interning symbols into `syms`.
pub fn parse_program(src: &str, syms: &mut Interner) -> Result<Vec<Clause>> {
    let mut p = Parser::new(src, syms);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            return Ok(out);
        }
        out.push(p.clause()?);
    }
}

/// Parses a single atom (e.g. a query pattern `tc(a, X)`), interning
/// symbols into `syms`. Returns the atom and the number of distinct
/// variables.
pub fn parse_atom(src: &str, syms: &mut Interner) -> Result<(Atom, u32)> {
    let mut p = Parser::new(src, syms);
    p.skip_ws();
    let atom = p.atom()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after atom"));
    }
    Ok((atom, p.nvars()))
}

/// Maps a term's symbols from one interner into another without
/// interning; `None` when a symbol is unknown to `to`. This is how a
/// question is asked of a knowledge base behind `&self`: the pattern is
/// parsed into a scratch table and remapped, and a symbol the base has
/// never seen can match nothing.
pub fn remap_term(t: &Term, from: &Interner, to: &Interner) -> Option<Term> {
    match t {
        Term::Const(s) => to.get(from.resolve(*s)).map(Term::Const),
        Term::Func(f, args) => {
            let f = to.get(from.resolve(*f))?;
            let args: Option<Vec<Term>> = args.iter().map(|a| remap_term(a, from, to)).collect();
            Some(Term::func(f, args?))
        }
        other => Some(other.clone()),
    }
}

/// [`remap_term`] lifted over an atom (its predicate included).
pub fn remap_atom(a: &Atom, from: &Interner, to: &Interner) -> Option<Atom> {
    let pred = to.get(from.resolve(a.pred))?;
    let args: Option<Vec<Term>> = a.args.iter().map(|t| remap_term(t, from, to)).collect();
    Some(Atom::new(pred, args?))
}

/// Prints `s` as a string literal: the inverse of the lexer's
/// `string_lit`, which reads the escapes `\"`, `\\`, `\n` and `\t` and
/// takes every other byte as it stands. Rule text that carries a name —
/// a concept, a source, a value — is written with this, never with
/// `{:?}`, whose `\r`, `\0` and `\u{…}` the lexer rejects.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The lexer and the term / expression layer shared by this grammar and
/// the F-logic one (`kind-flogic` builds its molecules, frames and bodies
/// on these methods): whitespace and comments, tokens, identifiers,
/// per-clause variable numbering, string and integer literals, terms,
/// arithmetic expressions, comparison operators, and the [`MAX_NESTING`]
/// caps. Errors carry the byte offset and line of the current position.
pub struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    syms: &'a mut Interner,
    vars: HashMap<String, Var>,
    var_names: Vec<String>,
    /// Open nesting levels at `pos`, and arithmetic operators seen in the
    /// current clause (both capped by [`MAX_NESTING`]).
    depth: usize,
    ops: usize,
}

/// Identifiers starting uppercase or with `_` are variables.
fn is_var_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
}

/// A point to come back to ([`Parser::reset`]) when an attempted reading
/// of the input does not work out.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pos: usize,
    nvars: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `src`, interning into `syms`.
    pub fn new(src: &'a str, syms: &'a mut Interner) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            syms,
            vars: HashMap::new(),
            var_names: Vec::new(),
            depth: 0,
            ops: 0,
        }
    }

    /// Starts a clause: variables are numbered, and arithmetic operators
    /// counted, per clause.
    pub fn begin_clause(&mut self) {
        self.vars.clear();
        self.var_names.clear();
        self.ops = 0;
    }

    /// The current clause's variable names by id, leaving none behind.
    pub fn take_var_names(&mut self) -> Vec<String> {
        std::mem::take(&mut self.var_names)
    }

    /// Parses one nesting level down, refusing level [`MAX_NESTING`] + 1.
    pub fn nested<T>(&mut self, inner: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    /// Counts one arithmetic operator (each deepens the expression tree
    /// by a level), refusing operator [`MAX_NESTING`] + 1 of a clause.
    fn operator(&mut self) -> Result<()> {
        if self.ops == MAX_NESTING {
            return Err(self.err(&format!(
                "more than {MAX_NESTING} arithmetic operators in one clause"
            )));
        }
        self.ops += 1;
        Ok(())
    }

    /// Distinct variables seen in the current clause.
    pub fn nvars(&self) -> u32 {
        self.var_names.len() as u32
    }

    /// The current position and variable count.
    pub fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            nvars: self.var_names.len(),
        }
    }

    /// Back to `mark`, forgetting the variables first seen since.
    pub fn reset(&mut self, mark: Mark) {
        self.pos = mark.pos;
        self.var_names.truncate(mark.nvars);
        self.vars.retain(|_, v| v.index() < mark.nvars);
    }

    /// A parse error at the current position.
    pub fn err(&self, msg: &str) -> DatalogError {
        let line = 1 + self.src[..self.pos.min(self.src.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        DatalogError::Parse {
            offset: self.pos,
            line,
            message: msg.to_string(),
        }
    }

    /// Whether all input is consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// The byte at the current position (`0` at the end).
    pub fn peek(&self) -> u8 {
        self.peek_at(0)
    }

    /// The byte `off` past the current position (`0` beyond the end).
    pub fn peek_at(&self, off: usize) -> u8 {
        self.src.get(self.pos + off).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    /// Skips whitespace and `%` / `//` line comments.
    pub fn skip_ws(&mut self) {
        loop {
            while !self.at_end() && self.peek().is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.peek() == b'%' || (self.peek() == b'/' && self.peek_at(1) == b'/') {
                while !self.at_end() && self.peek() != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    /// Consumes the token `s` if it is next (after whitespace).
    pub fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Consumes the token `s` or fails.
    pub fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    /// An identifier (`[A-Za-z_][A-Za-z0-9_]*`), if one is next.
    pub fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        if !(self.peek().is_ascii_alphabetic() || self.peek() == b'_') {
            return None;
        }
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.pos += 1;
        }
        Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    /// The variable called `name` in the current clause (`_` is fresh
    /// every time).
    pub fn var(&mut self, name: String) -> Var {
        if name == "_" {
            let v = Var(self.nvars());
            self.var_names.push(format!("_{}", v.0));
            return v;
        }
        if let Some(&v) = self.vars.get(&name) {
            return v;
        }
        let v = Var(self.nvars());
        self.vars.insert(name.clone(), v);
        self.var_names.push(name);
        v
    }

    fn string_lit(&mut self) -> Result<String> {
        // Caller consumed the opening quote. The source is a `str` and the
        // bytes between quotes are cut at ASCII only, so they decode.
        let mut s = Vec::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => match self.bump() {
                    b'"' => s.push(b'"'),
                    b'\\' => s.push(b'\\'),
                    b'n' => s.push(b'\n'),
                    b't' => s.push(b'\t'),
                    c => return Err(self.err(&format!("bad escape \\{}", c as char))),
                },
                c => s.push(c),
            }
        }
        String::from_utf8(s).map_err(|_| self.err("string literal is not UTF-8"))
    }

    fn integer(&mut self) -> Result<i64> {
        let start = self.pos;
        if self.peek() == b'-' {
            self.pos += 1;
        }
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("integer out of range"))
    }

    /// term := VAR | INT | STRING | ident [ '(' term, .. ')' ]
    pub fn term(&mut self) -> Result<Term> {
        self.skip_ws();
        if self.peek() == b'"' {
            self.pos += 1;
            let s = self.string_lit()?;
            return Ok(Term::Const(self.syms.intern(&s)));
        }
        if self.peek().is_ascii_digit() || (self.peek() == b'-' && self.peek_at(1).is_ascii_digit())
        {
            return self.integer().map(Term::Int);
        }
        let Some(name) = self.ident() else {
            return Err(self.err("expected term"));
        };
        if is_var_name(&name) {
            return Ok(Term::Var(self.var(name)));
        }
        if self.eat("(") {
            let args = self.nested(|p| {
                let mut args = vec![p.term()?];
                while p.eat(",") {
                    args.push(p.term()?);
                }
                Ok(args)
            })?;
            self.expect(")")?;
            Ok(Term::func(self.syms.intern(&name), args))
        } else {
            Ok(Term::Const(self.syms.intern(&name)))
        }
    }

    /// expr := mul (('+'|'-') mul)*
    pub fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.expr_mul()?;
        loop {
            self.skip_ws();
            if self.eat("+") {
                self.operator()?;
                lhs = Expr::Add(Box::new(lhs), Box::new(self.expr_mul()?));
            } else if self.peek() == b'-' {
                // Also before a digit: `X - 3` is a subtraction, not a
                // negative literal argument.
                self.pos += 1;
                self.operator()?;
                lhs = Expr::Sub(Box::new(lhs), Box::new(self.expr_mul()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    /// mul := prim (('*'|'/') prim)*
    fn expr_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.expr_prim()?;
        loop {
            self.skip_ws();
            if self.eat("*") {
                self.operator()?;
                lhs = Expr::Mul(Box::new(lhs), Box::new(self.expr_prim()?));
            } else if self.peek() == b'/' && self.peek_at(1) != b'/' {
                self.pos += 1;
                self.operator()?;
                lhs = Expr::Div(Box::new(lhs), Box::new(self.expr_prim()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn expr_prim(&mut self) -> Result<Expr> {
        self.skip_ws();
        if self.eat("(") {
            let e = self.nested(Self::expr)?;
            self.expect(")")?;
            return Ok(e);
        }
        self.term().map(Expr::Term)
    }

    /// A comparison operator, if one is next. `=` is taken whatever
    /// follows it.
    pub fn cmp_op(&mut self) -> Option<CmpOp> {
        self.skip_ws();
        for (tok, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
            ("=", CmpOp::Eq),
        ] {
            if self.src[self.pos..].starts_with(tok.as_bytes()) {
                self.pos += tok.len();
                return Some(op);
            }
        }
        None
    }

    /// The aggregate function called `name`.
    pub fn agg_func(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// atom := ident [ '(' term, .. ')' ]
    fn atom(&mut self) -> Result<Atom> {
        self.skip_ws();
        let Some(name) = self.ident() else {
            return Err(self.err("expected predicate name"));
        };
        if is_var_name(&name) {
            return Err(self.err("predicate names must start lowercase"));
        }
        let pred = self.syms.intern(&name);
        let mut args = Vec::new();
        if self.eat("(") {
            args.push(self.term()?);
            while self.eat(",") {
                args.push(self.term()?);
            }
            self.expect(")")?;
        }
        Ok(Atom::new(pred, args))
    }

    /// aggregate := func '{' term [ '[' var,.. ']' ] (':'|';') body '}'
    fn aggregate(&mut self, func: AggFunc, result: Var) -> Result<BodyItem> {
        self.expect("{")?;
        let value = self.term()?;
        let mut group_by = Vec::new();
        if self.eat("[") {
            loop {
                let Some(name) = self.ident() else {
                    return Err(self.err("expected grouping variable"));
                };
                if !is_var_name(&name) {
                    return Err(self.err("grouping names must be variables"));
                }
                group_by.push(self.var(name));
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("]")?;
        }
        self.skip_ws();
        if !self.eat(":") && !self.eat(";") {
            return Err(self.err("expected `:` or `;` in aggregate"));
        }
        let body = self.nested(|p| {
            let mut body = vec![p.body_item()?];
            while p.eat(",") {
                body.push(p.body_item()?);
            }
            Ok(body)
        })?;
        self.expect("}")?;
        Ok(BodyItem::Agg(Aggregate {
            func,
            value,
            group_by,
            body,
            result,
        }))
    }

    fn body_item(&mut self) -> Result<BodyItem> {
        self.skip_ws();
        // `not atom`
        let save = self.pos;
        if self.ident().as_deref() == Some("not") {
            return Ok(BodyItem::Neg(self.atom()?));
        }
        self.pos = save;
        let lhs = self.expr()?;
        if let Some(op) = self.cmp_op() {
            // `V = agg{...}`?
            if op == CmpOp::Eq {
                let save2 = self.pos;
                if let Some(word) = self.ident() {
                    if let Some(func) = Self::agg_func(&word) {
                        self.skip_ws();
                        if self.peek() == b'{' {
                            let Expr::Term(Term::Var(result)) = lhs else {
                                return Err(self.err("aggregate result must be a single variable"));
                            };
                            return self.aggregate(func, result);
                        }
                    }
                    self.pos = save2;
                }
                // `term = expr` is an assignment when lhs is a plain term.
                if let Expr::Term(t) = lhs {
                    let rhs = self.expr()?;
                    return Ok(BodyItem::Assign(t, rhs));
                }
            }
            let rhs = self.expr()?;
            return Ok(BodyItem::Cmp(op, lhs, rhs));
        }
        // Otherwise it must be a positive atom: a constant (0-ary) or a
        // function-shaped call reinterpreted as a predicate.
        match lhs {
            Expr::Term(Term::Const(pred)) => Ok(BodyItem::Pos(Atom::new(pred, Vec::new()))),
            Expr::Term(Term::Func(pred, args)) => Ok(BodyItem::Pos(Atom::new(pred, args.to_vec()))),
            _ => Err(self.err("expected atom, comparison, or assignment")),
        }
    }

    fn clause(&mut self) -> Result<Clause> {
        self.begin_clause();
        let head = self.atom()?;
        self.skip_ws();
        if self.eat(".") {
            if !head.is_ground() {
                return Err(self.err("facts must be ground"));
            }
            return Ok(Clause::Fact(head));
        }
        self.expect(":-")?;
        let mut body = vec![self.body_item()?];
        while self.eat(",") {
            body.push(self.body_item()?);
        }
        self.expect(".")?;
        let rule = Rule::compile_named(head, body, self.nvars(), self.take_var_names(), self.syms)?;
        Ok(Clause::Rule(rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> (Vec<Clause>, Interner) {
        let mut syms = Interner::new();
        let clauses = parse_program(src, &mut syms).unwrap();
        (clauses, syms)
    }

    #[test]
    fn parses_facts_and_rules() {
        let (cs, _) = parse_ok(
            "edge(a,b). edge(b,c).\n\
             tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- tc(X,Z), edge(Z,Y).",
        );
        assert_eq!(cs.len(), 4);
        assert!(matches!(cs[0], Clause::Fact(_)));
        assert!(matches!(cs[2], Clause::Rule(_)));
    }

    #[test]
    fn parses_negation_and_comparison() {
        let (cs, _) = parse_ok("p(X) :- q(X), not r(X), X != a.");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert_eq!(r.body.len(), 3);
    }

    #[test]
    fn parses_strings_and_integers() {
        let (cs, syms) = parse_ok(r#"loc("Purkinje Cell", -3)."#);
        let Clause::Fact(f) = &cs[0] else { panic!() };
        assert_eq!(f.args[0], Term::Const(syms.get("Purkinje Cell").unwrap()));
        assert_eq!(f.args[1], Term::Int(-3));
    }

    #[test]
    fn parses_aggregate_with_grouping() {
        let (cs, _) = parse_ok("card(B,N) :- N = count{ A [B] : r(A,B) }, N != 1.");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert!(r
            .body
            .iter()
            .any(|b| matches!(b, BodyItem::Agg(a) if a.group_by.len() == 1)));
        assert!(r.body.iter().any(|b| matches!(b, BodyItem::Cmp(..))));
    }

    #[test]
    fn parses_paper_semicolon_aggregate() {
        let (cs, _) = parse_ok("w(VB,N) :- N = count{ VA [VB] ; r(VA,VB) }.");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn parses_arithmetic_assignment() {
        let (cs, _) = parse_ok("p(X,Y) :- n(X), Y = X * 2 + 1.");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert!(r.body.iter().any(|b| matches!(b, BodyItem::Assign(..))));
    }

    #[test]
    fn parses_function_terms() {
        let (cs, syms) = parse_ok("p(f(a, g(b))) :- q(a).");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        let Term::Func(f, args) = &r.head.args[0] else {
            panic!()
        };
        assert_eq!(syms.resolve(*f), "f");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let (cs, _) = parse_ok("p(X) :- q(X, _), r(X, _).");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert_eq!(r.nvars, 3); // X plus two distinct anonymous vars
    }

    #[test]
    fn rejects_nonground_fact() {
        let mut syms = Interner::new();
        assert!(parse_program("p(X).", &mut syms).is_err());
    }

    #[test]
    fn rejects_unsafe_rule() {
        let mut syms = Interner::new();
        let err = parse_program("p(Y) :- q(X).", &mut syms).unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeRule { .. }));
    }

    #[test]
    fn comments_are_skipped() {
        let (cs, _) = parse_ok("% header\np(a). // trailing\n% footer");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn zero_ary_atoms() {
        let (cs, _) = parse_ok("flag. p(X) :- q(X), flag.");
        assert_eq!(cs.len(), 2);
        let Clause::Rule(r) = &cs[1] else { panic!() };
        assert!(r
            .body
            .iter()
            .any(|b| matches!(b, BodyItem::Pos(a) if a.args.is_empty())));
    }

    #[test]
    fn parse_atom_pattern() {
        let mut syms = Interner::new();
        let (a, nv) = parse_atom("tc(a, X)", &mut syms).unwrap();
        assert_eq!(a.args.len(), 2);
        assert_eq!(nv, 1);
    }

    #[test]
    fn error_has_line_numbers() {
        let mut syms = Interner::new();
        let err = parse_program("p(a).\nq(", &mut syms).unwrap_err();
        let DatalogError::Parse { line, .. } = err else {
            panic!()
        };
        assert_eq!(line, 2);
    }
}
