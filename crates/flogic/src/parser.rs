//! Parser for the F-logic surface syntax used throughout the paper:
//!
//! ```text
//! % schema level
//! neuron :: cell.
//! neuron[has => compartment].
//! % instance level
//! n1 : neuron.
//! n1[size -> 42; species -> "rat"].
//! % rules mixing molecules, plain atoms, negation, and aggregates
//! big(X) :- X : neuron, X[size -> S], S > 10.
//! w(VB, N) : ic :- N = count{ VA [VB] ; r(VA, VB) }, N != 1.
//! ```
//!
//! The `W : ic` head form (a witness object inserted into the
//! distinguished inconsistency class, paper §3 IC / Example 2) is ordinary
//! `IsA` syntax and needs no special casing.

use crate::ast::{ArrowKind, MethodSpec, Molecule};
use kind_datalog::parser::MAX_NESTING;
use kind_datalog::{AggFunc, Atom, DatalogError, Interner, Term, Var};
use std::collections::HashMap;

/// A body item at the FL level.
#[derive(Debug, Clone)]
pub enum FlBodyItem {
    /// A positive molecule.
    Pos(Molecule),
    /// A negated molecule (must translate to a single atom).
    Neg(Molecule),
    /// Comparison between expressions.
    Cmp(kind_datalog::CmpOp, kind_datalog::Expr, kind_datalog::Expr),
    /// Assignment `T = expr`.
    Assign(Term, kind_datalog::Expr),
    /// Aggregate `R = func{ value [groups] : body }` with an FL body.
    Agg {
        /// Fold function.
        func: AggFunc,
        /// Collected term.
        value: Term,
        /// Grouping variables.
        group_by: Vec<Var>,
        /// FL subquery.
        body: Vec<FlBodyItem>,
        /// Result variable.
        result: Var,
    },
}

/// A parsed FL clause: a head molecule (frames may carry several specs and
/// expand to several Datalog rules) and a body (empty for facts).
#[derive(Debug, Clone)]
pub struct FlClause {
    /// Head molecule.
    pub head: Molecule,
    /// Body items (empty = fact).
    pub body: Vec<FlBodyItem>,
    /// Number of variables in the clause.
    pub nvars: u32,
    /// Variable names by id.
    pub var_names: Vec<String>,
}

/// Parses an FL program.
pub fn parse_fl_program(src: &str, syms: &mut Interner) -> Result<Vec<FlClause>, DatalogError> {
    let mut p = FlParser::new(src, syms);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            return Ok(out);
        }
        out.push(p.clause()?);
    }
}

/// Parses a single FL molecule (for queries), returning the molecule and
/// the variable-name table.
pub fn parse_fl_molecule(
    src: &str,
    syms: &mut Interner,
) -> Result<(Molecule, Vec<String>), DatalogError> {
    let mut p = FlParser::new(src, syms);
    p.skip_ws();
    let m = p.molecule()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after molecule"));
    }
    Ok((m, p.var_names))
}

struct FlParser<'a> {
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

impl<'a> FlParser<'a> {
    fn new(src: &'a str, syms: &'a mut Interner) -> Self {
        FlParser {
            src: src.as_bytes(),
            pos: 0,
            syms,
            vars: HashMap::new(),
            var_names: Vec::new(),
            depth: 0,
            ops: 0,
        }
    }

    /// Parses one nesting level down, refusing level [`MAX_NESTING`] + 1.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, DatalogError>,
    ) -> Result<T, DatalogError> {
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
    fn operator(&mut self) -> Result<(), DatalogError> {
        if self.ops == MAX_NESTING {
            return Err(self.err(&format!(
                "more than {MAX_NESTING} arithmetic operators in one clause"
            )));
        }
        self.ops += 1;
        Ok(())
    }

    fn err(&self, msg: &str) -> DatalogError {
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

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_at(&self, off: usize) -> u8 {
        self.src.get(self.pos + off).copied().unwrap_or(0)
    }

    fn skip_ws(&mut self) {
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

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Eats `s` only if it is not followed by any byte in `not_followed`.
    fn eat_unless(&mut self, s: &str, not_followed: &[u8]) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes())
            && !not_followed.contains(&self.src.get(self.pos + s.len()).copied().unwrap_or(0))
        {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), DatalogError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Option<String> {
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

    fn var(&mut self, name: String) -> Var {
        if name == "_" {
            let v = Var(self.var_names.len() as u32);
            self.var_names.push(format!("_{}", v.0));
            return v;
        }
        if let Some(&v) = self.vars.get(&name) {
            return v;
        }
        let v = Var(self.var_names.len() as u32);
        self.vars.insert(name.clone(), v);
        self.var_names.push(name);
        v
    }

    fn string_lit(&mut self) -> Result<String, DatalogError> {
        let mut s = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated string"));
            }
            let b = self.src[self.pos];
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let e = self.src.get(self.pos).copied().unwrap_or(0);
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c => s.push(c as char),
            }
        }
    }

    fn term(&mut self) -> Result<Term, DatalogError> {
        self.skip_ws();
        if self.peek() == b'"' {
            self.pos += 1;
            let s = self.string_lit()?;
            return Ok(Term::Const(self.syms.intern(&s)));
        }
        if self.peek().is_ascii_digit() || (self.peek() == b'-' && self.peek_at(1).is_ascii_digit())
        {
            let start = self.pos;
            if self.peek() == b'-' {
                self.pos += 1;
            }
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
            let n: i64 = std::str::from_utf8(&self.src[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| self.err("integer out of range"))?;
            return Ok(Term::Int(n));
        }
        let Some(name) = self.ident() else {
            return Err(self.err("expected term"));
        };
        if name.starts_with(|c: char| c.is_ascii_uppercase()) || name.starts_with('_') {
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

    /// molecule := term ( ':' term | '::' term | '[' specs ']' )?
    fn molecule(&mut self) -> Result<Molecule, DatalogError> {
        let t = self.term()?;
        self.skip_ws();
        if self.eat("::") {
            let sup = self.term()?;
            return Ok(Molecule::SubClass { sub: t, sup });
        }
        // `:` but not `:-` or `::`.
        if self.eat_unless(":", b"-:") {
            let class = self.term()?;
            return Ok(Molecule::IsA { obj: t, class });
        }
        if self.eat("[") {
            let mut specs = vec![self.method_spec()?];
            while self.eat(";") {
                specs.push(self.method_spec()?);
            }
            self.expect("]")?;
            return Ok(Molecule::Frame { obj: t, specs });
        }
        // A plain atom: constant (0-ary) or function-shaped call.
        match t {
            Term::Const(p) => Ok(Molecule::Plain(Atom::new(p, Vec::new()))),
            Term::Func(p, args) => Ok(Molecule::Plain(Atom::new(p, args.to_vec()))),
            _ => Err(self.err("expected molecule")),
        }
    }

    /// spec := term ('->' | '->>' | '!!'-free '=>' ) term
    fn method_spec(&mut self) -> Result<MethodSpec, DatalogError> {
        let method = self.term()?;
        self.skip_ws();
        let arrow = if self.eat("->>") || self.eat("!!") || self.eat("->") {
            ArrowKind::Value
        } else if self.eat("=>") || self.eat("))") {
            ArrowKind::Signature
        } else if self.eat("!") {
            // paper alternative notation `M!V`
            ArrowKind::Value
        } else {
            return Err(self.err("expected `->`, `->>`, or `=>` in frame"));
        };
        let value = self.term()?;
        Ok(MethodSpec {
            method,
            arrow,
            value,
        })
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    fn cmp_op(&mut self) -> Option<kind_datalog::CmpOp> {
        use kind_datalog::CmpOp;
        self.skip_ws();
        for (tok, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
            ("=", CmpOp::Eq),
        ] {
            if tok == "=" {
                // `=` but not `=>`.
                if self.src[self.pos..].starts_with(b"=")
                    && self.src.get(self.pos + 1).copied() != Some(b'>')
                {
                    self.pos += 1;
                    return Some(op);
                }
                continue;
            }
            if self.src[self.pos..].starts_with(tok.as_bytes()) {
                self.pos += tok.len();
                return Some(op);
            }
        }
        None
    }

    fn expr(&mut self) -> Result<kind_datalog::Expr, DatalogError> {
        use kind_datalog::Expr;
        let mut lhs = self.expr_mul()?;
        loop {
            self.skip_ws();
            if self.eat("+") {
                self.operator()?;
                lhs = Expr::Add(Box::new(lhs), Box::new(self.expr_mul()?));
            } else if self.peek() == b'-' {
                self.pos += 1;
                self.operator()?;
                lhs = Expr::Sub(Box::new(lhs), Box::new(self.expr_mul()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn expr_mul(&mut self) -> Result<kind_datalog::Expr, DatalogError> {
        use kind_datalog::Expr;
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

    fn expr_prim(&mut self) -> Result<kind_datalog::Expr, DatalogError> {
        use kind_datalog::Expr;
        self.skip_ws();
        if self.eat("(") {
            let e = self.nested(Self::expr)?;
            self.expect(")")?;
            return Ok(e);
        }
        self.term().map(Expr::Term)
    }

    fn body_item(&mut self) -> Result<FlBodyItem, DatalogError> {
        self.skip_ws();
        let save = self.pos;
        if let Some(word) = self.ident() {
            if word == "not" {
                return Ok(FlBodyItem::Neg(self.molecule()?));
            }
            self.pos = save;
        }
        // Try: Var = aggregate / assignment / comparison — these start
        // with a term followed by an operator that a molecule can't have.
        let save = self.pos;
        let saved_varcount = self.var_names.len();
        if let Ok(t) = self.term() {
            if let Some(op) = self.cmp_op() {
                if op == kind_datalog::CmpOp::Eq {
                    // Aggregate?
                    let save2 = self.pos;
                    if let Some(word) = self.ident() {
                        if let Some(func) = Self::agg_func(&word) {
                            self.skip_ws();
                            if self.peek() == b'{' {
                                let Term::Var(result) = t else {
                                    return Err(self.err("aggregate result must be a variable"));
                                };
                                return self.aggregate(func, result);
                            }
                        }
                        self.pos = save2;
                    }
                    let rhs = self.expr()?;
                    return Ok(FlBodyItem::Assign(t, rhs));
                }
                let rhs = self.expr()?;
                return Ok(FlBodyItem::Cmp(op, kind_datalog::Expr::Term(t), rhs));
            }
            // Arithmetic comparison with compound lhs, e.g. `X + 1 < Y`?
            self.skip_ws();
            if matches!(self.peek(), b'+' | b'*')
                || (self.peek() == b'-' && self.peek_at(1) != b'>')
                || (self.peek() == b'/' && self.peek_at(1) != b'/')
            {
                self.pos = save;
                self.var_names.truncate(saved_varcount);
                self.vars.retain(|_, v| v.index() < saved_varcount);
                let lhs = self.expr()?;
                let Some(op) = self.cmp_op() else {
                    return Err(self.err("expected comparison after expression"));
                };
                let rhs = self.expr()?;
                return Ok(FlBodyItem::Cmp(op, lhs, rhs));
            }
        }
        self.pos = save;
        self.var_names.truncate(saved_varcount);
        self.vars.retain(|_, v| v.index() < saved_varcount);
        Ok(FlBodyItem::Pos(self.molecule()?))
    }

    fn aggregate(&mut self, func: AggFunc, result: Var) -> Result<FlBodyItem, DatalogError> {
        self.expect("{")?;
        let value = self.term()?;
        let mut group_by = Vec::new();
        if self.eat("[") {
            loop {
                let Some(name) = self.ident() else {
                    return Err(self.err("expected grouping variable"));
                };
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
        Ok(FlBodyItem::Agg {
            func,
            value,
            group_by,
            body,
            result,
        })
    }

    fn clause(&mut self) -> Result<FlClause, DatalogError> {
        self.vars.clear();
        self.var_names.clear();
        self.ops = 0;
        let head = self.molecule()?;
        self.skip_ws();
        if self.eat(".") {
            return Ok(FlClause {
                head,
                body: Vec::new(),
                nvars: self.var_names.len() as u32,
                var_names: std::mem::take(&mut self.var_names),
            });
        }
        self.expect(":-")?;
        let mut body = vec![self.body_item()?];
        while self.eat(",") {
            body.push(self.body_item()?);
        }
        self.expect(".")?;
        Ok(FlClause {
            head,
            body,
            nvars: self.var_names.len() as u32,
            var_names: std::mem::take(&mut self.var_names),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> (Vec<FlClause>, Interner) {
        let mut syms = Interner::new();
        let cs = parse_fl_program(src, &mut syms).unwrap();
        (cs, syms)
    }

    #[test]
    fn parses_isa_and_subclass_facts() {
        let (cs, _) = parse_ok("n1 : neuron. neuron :: cell.");
        assert_eq!(cs.len(), 2);
        assert!(matches!(cs[0].head, Molecule::IsA { .. }));
        assert!(matches!(cs[1].head, Molecule::SubClass { .. }));
    }

    #[test]
    fn parses_frames_with_multiple_specs() {
        let (cs, _) = parse_ok(r#"n1[size -> 42; species -> "rat"]."#);
        let Molecule::Frame { specs, .. } = &cs[0].head else {
            panic!()
        };
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.arrow == ArrowKind::Value));
    }

    #[test]
    fn parses_signatures() {
        let (cs, _) = parse_ok("neuron[has => compartment].");
        let Molecule::Frame { specs, .. } = &cs[0].head else {
            panic!()
        };
        assert_eq!(specs[0].arrow, ArrowKind::Signature);
    }

    #[test]
    fn parses_rule_with_molecule_body() {
        let (cs, _) = parse_ok("big(X) :- X : neuron, X[size -> S], S > 10.");
        assert_eq!(cs[0].body.len(), 3);
        assert!(matches!(
            cs[0].body[0],
            FlBodyItem::Pos(Molecule::IsA { .. })
        ));
        assert!(matches!(
            cs[0].body[1],
            FlBodyItem::Pos(Molecule::Frame { .. })
        ));
        assert!(matches!(cs[0].body[2], FlBodyItem::Cmp(..)));
    }

    #[test]
    fn parses_ic_witness_head() {
        // Example 2's first denial: wrc(C,R,X) : ic :- ...
        let (cs, _) = parse_ok("wrc(C, R, X) : ic :- X : C, not r(X, X), rel(R).");
        let Molecule::IsA { obj, .. } = &cs[0].head else {
            panic!("head was {:?}", cs[0].head)
        };
        assert!(matches!(obj, Term::Func(..)));
        assert!(matches!(cs[0].body[1], FlBodyItem::Neg(_)));
    }

    #[test]
    fn parses_paper_cardinality_rule() {
        // Example 3 (adapted): w(R,VB,N) : ic :- N = count{VA[VB]; r(VA,VB)}, N != 1.
        let (cs, _) =
            parse_ok("w(R, VB, N) : ic :- rel(R), N = count{ VA [VB] ; r(VA, VB) }, N != 1.");
        assert!(cs[0]
            .body
            .iter()
            .any(|b| matches!(b, FlBodyItem::Agg { .. })));
    }

    #[test]
    fn parses_negated_molecule() {
        let (cs, _) = parse_ok("lonely(X) :- X : neuron, not X[has -> _].");
        assert!(matches!(
            cs[0].body[1],
            FlBodyItem::Neg(Molecule::Frame { .. })
        ));
    }

    #[test]
    fn parses_variable_class_positions() {
        // Schema reasoning: class and method positions may be variables
        // ("the power of schema reasoning in FL", Example 2).
        let (cs, _) = parse_ok("r(X, C) :- X : C, C :: spiny_neuron.");
        assert!(matches!(
            &cs[0].body[0],
            FlBodyItem::Pos(Molecule::IsA {
                obj: Term::Var(_),
                class: Term::Var(_)
            })
        ));
    }

    #[test]
    fn parses_assignment_and_arith() {
        let (cs, _) = parse_ok("p(X, Y) :- n(X), Y = X * 2 + 1.");
        assert!(matches!(cs[0].body[1], FlBodyItem::Assign(..)));
    }

    #[test]
    fn molecule_helper_parses_queries() {
        let mut syms = Interner::new();
        let (m, names) = parse_fl_molecule("X : purkinje_cell", &mut syms).unwrap();
        assert!(matches!(m, Molecule::IsA { .. }));
        assert_eq!(names, vec!["X"]);
    }

    #[test]
    fn strings_as_classes() {
        let (cs, syms) = parse_ok(r#"c1[location -> "Purkinje Cell"]."#);
        let Molecule::Frame { specs, .. } = &cs[0].head else {
            panic!()
        };
        assert_eq!(
            specs[0].value,
            Term::Const(syms.get("Purkinje Cell").unwrap())
        );
    }
}
