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
use kind_datalog::parser::Parser;
use kind_datalog::{AggFunc, Atom, CmpOp, DatalogError, Expr, Interner, Term, Var};

/// A body item at the FL level.
#[derive(Debug, Clone)]
pub enum FlBodyItem {
    /// A positive molecule.
    Pos(Molecule),
    /// A negated molecule (must translate to a single atom).
    Neg(Molecule),
    /// Comparison between expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Assignment `T = expr`.
    Assign(Term, Expr),
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
    let mut p = Parser::new(src, syms);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            return Ok(out);
        }
        out.push(clause(&mut p)?);
    }
}

/// Parses a single FL molecule (for queries), returning the molecule and
/// the variable-name table.
pub fn parse_fl_molecule(
    src: &str,
    syms: &mut Interner,
) -> Result<(Molecule, Vec<String>), DatalogError> {
    let mut p = Parser::new(src, syms);
    p.skip_ws();
    let m = molecule(&mut p)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after molecule"));
    }
    Ok((m, p.take_var_names()))
}

// What F-logic adds to the Datalog parser's lexer, terms and expressions
// (`kind_datalog::parser::Parser`): molecules, frames, and bodies over them.

/// molecule := term ( ':' term | '::' term | '[' specs ']' )?
fn molecule(p: &mut Parser) -> Result<Molecule, DatalogError> {
    let t = p.term()?;
    p.skip_ws();
    if p.eat("::") {
        let sup = p.term()?;
        return Ok(Molecule::SubClass { sub: t, sup });
    }
    // `:` but not `:-` (`::` went above).
    if p.peek() == b':' && p.peek_at(1) != b'-' {
        p.eat(":");
        let class = p.term()?;
        return Ok(Molecule::IsA { obj: t, class });
    }
    if p.eat("[") {
        let mut specs = vec![method_spec(p)?];
        while p.eat(";") {
            specs.push(method_spec(p)?);
        }
        p.expect("]")?;
        return Ok(Molecule::Frame { obj: t, specs });
    }
    // A plain atom: constant (0-ary) or function-shaped call.
    match t {
        Term::Const(pred) => Ok(Molecule::Plain(Atom::new(pred, Vec::new()))),
        Term::Func(pred, args) => Ok(Molecule::Plain(Atom::new(pred, args.to_vec()))),
        _ => Err(p.err("expected molecule")),
    }
}

/// spec := term ('->' | '->>' | '!!'-free '=>' ) term
fn method_spec(p: &mut Parser) -> Result<MethodSpec, DatalogError> {
    let method = p.term()?;
    p.skip_ws();
    let arrow = if p.eat("->>") || p.eat("!!") || p.eat("->") {
        ArrowKind::Value
    } else if p.eat("=>") || p.eat("))") {
        ArrowKind::Signature
    } else if p.eat("!") {
        // paper alternative notation `M!V`
        ArrowKind::Value
    } else {
        return Err(p.err("expected `->`, `->>`, or `=>` in frame"));
    };
    let value = p.term()?;
    Ok(MethodSpec {
        method,
        arrow,
        value,
    })
}

/// A comparison operator — `=>` is a signature arrow, not `=`.
fn cmp_op(p: &mut Parser) -> Option<CmpOp> {
    p.skip_ws();
    if p.peek() == b'=' && p.peek_at(1) == b'>' {
        return None;
    }
    p.cmp_op()
}

fn body_item(p: &mut Parser) -> Result<FlBodyItem, DatalogError> {
    p.skip_ws();
    let start = p.mark();
    if p.ident().as_deref() == Some("not") {
        return Ok(FlBodyItem::Neg(molecule(p)?));
    }
    p.reset(start);
    // Try: Var = aggregate / assignment / comparison — these start
    // with a term followed by an operator that a molecule can't have.
    if let Ok(t) = p.term() {
        if let Some(op) = cmp_op(p) {
            if op == CmpOp::Eq {
                // Aggregate?
                let after_eq = p.mark();
                if let Some(func) = p.ident().as_deref().and_then(Parser::agg_func) {
                    p.skip_ws();
                    if p.peek() == b'{' {
                        let Term::Var(result) = t else {
                            return Err(p.err("aggregate result must be a variable"));
                        };
                        return aggregate(p, func, result);
                    }
                }
                p.reset(after_eq);
                let rhs = p.expr()?;
                return Ok(FlBodyItem::Assign(t, rhs));
            }
            let rhs = p.expr()?;
            return Ok(FlBodyItem::Cmp(op, Expr::Term(t), rhs));
        }
        // Arithmetic comparison with compound lhs, e.g. `X + 1 < Y`?
        p.skip_ws();
        if matches!(p.peek(), b'+' | b'*')
            || (p.peek() == b'-' && p.peek_at(1) != b'>')
            || (p.peek() == b'/' && p.peek_at(1) != b'/')
        {
            p.reset(start);
            let lhs = p.expr()?;
            let Some(op) = cmp_op(p) else {
                return Err(p.err("expected comparison after expression"));
            };
            let rhs = p.expr()?;
            return Ok(FlBodyItem::Cmp(op, lhs, rhs));
        }
    }
    p.reset(start);
    Ok(FlBodyItem::Pos(molecule(p)?))
}

fn aggregate(p: &mut Parser, func: AggFunc, result: Var) -> Result<FlBodyItem, DatalogError> {
    p.expect("{")?;
    let value = p.term()?;
    let mut group_by = Vec::new();
    if p.eat("[") {
        loop {
            let Some(name) = p.ident() else {
                return Err(p.err("expected grouping variable"));
            };
            group_by.push(p.var(name));
            if !p.eat(",") {
                break;
            }
        }
        p.expect("]")?;
    }
    p.skip_ws();
    if !p.eat(":") && !p.eat(";") {
        return Err(p.err("expected `:` or `;` in aggregate"));
    }
    let body = p.nested(|p| {
        let mut body = vec![body_item(p)?];
        while p.eat(",") {
            body.push(body_item(p)?);
        }
        Ok(body)
    })?;
    p.expect("}")?;
    Ok(FlBodyItem::Agg {
        func,
        value,
        group_by,
        body,
        result,
    })
}

fn clause(p: &mut Parser) -> Result<FlClause, DatalogError> {
    p.begin_clause();
    let head = molecule(p)?;
    p.skip_ws();
    let mut body = Vec::new();
    if !p.eat(".") {
        p.expect(":-")?;
        body.push(body_item(p)?);
        while p.eat(",") {
            body.push(body_item(p)?);
        }
        p.expect(".")?;
    }
    Ok(FlClause {
        head,
        body,
        nvars: p.nvars(),
        var_names: p.take_var_names(),
    })
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
