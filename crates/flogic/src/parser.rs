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
//!
//! An FL body is a Datalog body whose literals are molecules: it is read
//! by the one rule-body grammar, `kind_datalog::parser::Parser::body`,
//! and each molecule is lowered to its atoms (Table 1) as it is read. A
//! negated molecule must lower to exactly one atom.

use crate::ast::{ArrowKind, MethodSpec, Molecule};
use crate::translate::{molecule_atoms, Preds};
use kind_datalog::parser::Parser;
use kind_datalog::{Atom, BodyItem, DatalogError, Interner, Term};

/// A parsed FL clause: a head molecule (frames may carry several specs and
/// expand to several Datalog rules) and a body, already lowered to
/// Datalog (empty for facts).
#[derive(Debug, Clone)]
pub struct FlClause {
    /// Head molecule.
    pub head: Molecule,
    /// Body items over the reserved predicates (empty = fact).
    pub body: Vec<BodyItem>,
    /// Number of variables in the clause.
    pub nvars: u32,
    /// Variable names by id.
    pub var_names: Vec<String>,
}

/// Parses an FL program. The reserved predicates ([`Preds`]) are interned
/// into `syms`, since bodies are lowered as they are read.
pub fn parse_fl_program(src: &str, syms: &mut Interner) -> Result<Vec<FlClause>, DatalogError> {
    let preds = Preds::intern(syms);
    let mut p = Parser::new(src, syms);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            return Ok(out);
        }
        out.push(clause(&mut p, &preds)?);
    }
}

/// Parses a single FL molecule (for queries), returning the molecule and
/// the variable-name table.
pub fn parse_fl_molecule(
    src: &str,
    syms: &mut Interner,
) -> Result<(Molecule, Vec<String>), DatalogError> {
    let mut p = Parser::new(src, syms);
    let m = whole_molecule(&mut p)?;
    Ok((m, p.take_var_names()))
}

/// The one atom the molecule `src` asks about, parsed against the frozen
/// table `syms` ([`Parser::asking`]): the grammar and errors of
/// [`parse_fl_molecule`], and nothing interned. A molecule that lowers to
/// more or fewer than one atom is refused at its first token, whatever
/// names it mentions; `None` when it names a symbol `syms` lacks — such a
/// molecule can match nothing.
pub(crate) fn ask_molecule(
    src: &str,
    syms: &Interner,
    preds: &Preds,
) -> Result<Option<Atom>, DatalogError> {
    let mut p = Parser::asking(src, syms);
    p.skip_ws();
    let start = p.offset();
    let atoms = molecule_atoms(&whole_molecule(&mut p)?, preds);
    let [atom] = <[Atom; 1]>::try_from(atoms).map_err(|_| {
        p.err_at(
            start,
            "a molecule to ask about must translate to a single atom",
        )
    })?;
    Ok(p.known(atom))
}

/// A molecule that is all of the input, whitespace aside.
fn whole_molecule(p: &mut Parser) -> Result<Molecule, DatalogError> {
    p.skip_ws();
    let m = molecule(p)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after molecule"));
    }
    Ok(m)
}

// What F-logic adds to the Datalog parser (`kind_datalog::parser::Parser`:
// lexer, terms, expressions and the rule-body grammar): molecules and
// frames. A body is a Datalog body whose literals are molecules.

/// molecule := term ( ':' term | '::' term | '[' specs ']' )?
fn molecule(p: &mut Parser) -> Result<Molecule, DatalogError> {
    let t = p.term()?;
    molecule_rest(p, t)
}

/// The rest of a molecule whose first term `t` has been read.
fn molecule_rest(p: &mut Parser, t: Term) -> Result<Molecule, DatalogError> {
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
    p.plain_atom(t).map(Molecule::Plain)
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

fn clause(p: &mut Parser, preds: &Preds) -> Result<FlClause, DatalogError> {
    p.begin_clause();
    let head = molecule(p)?;
    p.skip_ws();
    let mut body = Vec::new();
    if !p.eat(".") {
        p.expect(":-")?;
        body = p.body(&mut |p, t| Ok(molecule_atoms(&molecule_rest(p, t)?, preds)))?;
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

    /// Each lowered body item: its predicate (`not` before a negated
    /// one), or what kind of item it is.
    fn shapes(clause: &FlClause, syms: &Interner) -> Vec<String> {
        let shape = |b: &BodyItem| match b {
            BodyItem::Pos(a) => syms.resolve(a.pred).to_string(),
            BodyItem::Neg(a) => format!("not {}", syms.resolve(a.pred)),
            BodyItem::Cmp(..) => "cmp".to_string(),
            BodyItem::Assign(..) => "assign".to_string(),
            BodyItem::Agg(_) => "agg".to_string(),
        };
        clause.body.iter().map(shape).collect()
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
        let (cs, syms) = parse_ok("big(X) :- X : neuron, X[size -> S], S > 10.");
        assert_eq!(shapes(&cs[0], &syms), ["inst", "mi", "cmp"]);
    }

    #[test]
    fn parses_ic_witness_head() {
        // Example 2's first denial: wrc(C,R,X) : ic :- ...
        let (cs, syms) = parse_ok("wrc(C, R, X) : ic :- X : C, not r(X, X), rel(R).");
        let Molecule::IsA { obj, .. } = &cs[0].head else {
            panic!("head was {:?}", cs[0].head)
        };
        assert!(matches!(obj, Term::Func(..)));
        assert_eq!(shapes(&cs[0], &syms), ["inst", "not r", "rel"]);
    }

    #[test]
    fn parses_paper_cardinality_rule() {
        // Example 3 (adapted): w(R,VB,N) : ic :- N = count{VA[VB]; r(VA,VB)}, N != 1.
        let (cs, syms) =
            parse_ok("w(R, VB, N) : ic :- rel(R), N = count{ VA [VB] ; r(VA, VB) }, N != 1.");
        assert_eq!(shapes(&cs[0], &syms), ["rel", "agg", "cmp"]);
    }

    #[test]
    fn parses_negated_molecule() {
        let (cs, syms) = parse_ok("lonely(X) :- X : neuron, not X[has -> _].");
        assert_eq!(shapes(&cs[0], &syms), ["inst", "not mi"]);
    }

    #[test]
    fn parses_variable_class_positions() {
        // Schema reasoning: class and method positions may be variables
        // ("the power of schema reasoning in FL", Example 2).
        let (cs, syms) = parse_ok("r(X, C) :- X : C, C :: spiny_neuron.");
        assert_eq!(shapes(&cs[0], &syms), ["inst", "sub"]);
        let BodyItem::Pos(inst) = &cs[0].body[0] else {
            panic!()
        };
        assert!(matches!(inst.args[..], [Term::Var(_), Term::Var(_)]));
    }

    #[test]
    fn parses_assignment_and_arith() {
        let (cs, syms) = parse_ok("p(X, Y) :- n(X), Y = X * 2 + 1.");
        assert_eq!(shapes(&cs[0], &syms), ["n", "assign"]);
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
