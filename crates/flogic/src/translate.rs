//! Lowering of F-logic molecules to Datalog atoms — the left-to-middle
//! column move of Table 1.
//!
//! Reserved predicates (documented; user programs must not redefine them
//! with different meanings):
//!
//! | FL form        | Datalog predicate |
//! |----------------|-------------------|
//! | `X : C`        | `inst(X, C)`      |
//! | `C1 :: C2`     | `sub(C1, C2)`     |
//! | `X[M -> Y]`    | `mi(X, M, Y)`     |
//! | `C[M => CM]`   | `meth(C, M, CM)`  |
//! | classes        | `class(C)`        |

use crate::ast::{ArrowKind, MethodSpec, Molecule};
use crate::parser::FlClause;
use kind_datalog::{Atom, DatalogError, Interner, Rule, Sym, Term};

/// The interned reserved predicate symbols.
#[derive(Debug, Clone, Copy)]
pub struct Preds {
    /// `inst/2` — instance-of.
    pub inst: Sym,
    /// `sub/2` — subclass-of.
    pub sub: Sym,
    /// `mi/3` — method instance (object, method, value).
    pub mi: Sym,
    /// `meth/3` — method signature (class, method, result class).
    pub meth: Sym,
    /// `class/1` — class registry.
    pub class: Sym,
    /// `ic` — the distinguished inconsistency class (§3 IC).
    pub ic: Sym,
    /// `icw/1` — the internal predicate holding `ic`'s members.
    ///
    /// `W : ic` is translated to `icw(W)` rather than `inst(W, ic)`:
    /// witness objects must not enter the ordinary class lattice, or the
    /// constraint rules (which aggregate over reified relations derived
    /// from that lattice) would recurse through their own aggregates.
    pub icw: Sym,
}

impl Preds {
    /// Interns the reserved names.
    pub fn intern(syms: &mut Interner) -> Self {
        Preds {
            inst: syms.intern("inst"),
            sub: syms.intern("sub"),
            mi: syms.intern("mi"),
            meth: syms.intern("meth"),
            class: syms.intern("class"),
            ic: syms.intern("ic"),
            icw: syms.intern("icw"),
        }
    }
}

/// Translates a molecule into its Datalog atoms (a frame with `n` specs
/// yields `n` atoms), each made as it is asked for.
pub fn molecule_atoms<'a>(mol: &'a Molecule, preds: &Preds) -> Atoms<'a> {
    let one = |pred, args| Atoms::One(Some(Atom::new(pred, args)));
    match mol {
        Molecule::IsA { obj, class } => {
            if *class == Term::Const(preds.ic) {
                one(preds.icw, vec![obj.clone()])
            } else {
                one(preds.inst, vec![obj.clone(), class.clone()])
            }
        }
        Molecule::SubClass { sub, sup } => one(preds.sub, vec![sub.clone(), sup.clone()]),
        Molecule::Frame { obj, specs } => Atoms::Frame {
            obj,
            specs: specs.iter(),
            preds: *preds,
        },
        Molecule::Plain(a) => Atoms::One(Some(a.clone())),
    }
}

/// The atoms of one molecule, in spec order ([`molecule_atoms`]).
#[derive(Debug)]
pub enum Atoms<'a> {
    /// A molecule of one atom, until it is taken.
    One(Option<Atom>),
    /// A frame: one `mi` or `meth` atom per spec not yet lowered.
    Frame {
        /// The frame's object.
        obj: &'a Term,
        /// The specs not yet lowered.
        specs: std::slice::Iter<'a, MethodSpec>,
        /// The reserved predicates.
        preds: Preds,
    },
}

impl Iterator for Atoms<'_> {
    type Item = Atom;

    fn next(&mut self) -> Option<Atom> {
        match self {
            Atoms::One(atom) => atom.take(),
            Atoms::Frame { obj, specs, preds } => specs.next().map(|s| {
                let pred = match s.arrow {
                    ArrowKind::Value => preds.mi,
                    ArrowKind::Signature => preds.meth,
                };
                Atom::new(
                    pred,
                    vec![(*obj).clone(), s.method.clone(), s.value.clone()],
                )
            }),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match self {
            Atoms::One(atom) => usize::from(atom.is_some()),
            Atoms::Frame { specs, .. } => specs.len(),
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for Atoms<'_> {}

/// A molecule that lowers to exactly one atom is that atom; any other
/// lowering is handed back, unread.
impl<'a> TryFrom<Atoms<'a>> for [Atom; 1] {
    type Error = Atoms<'a>;

    fn try_from(mut atoms: Atoms<'a>) -> Result<Self, Atoms<'a>> {
        match atoms.len() {
            1 => Ok([atoms.next().expect("one atom left")]),
            _ => Err(atoms),
        }
    }
}

/// Lowers an FL clause to Datalog: its body was lowered as it was read,
/// so this expands the head. A fact whose head frame has several specs
/// yields several facts; a rule likewise yields one rule per head atom
/// (same body). Errors name predicates and variables through `syms`.
/// Returns `(facts, rules)`.
pub fn lower_clause(
    clause: &FlClause,
    preds: &Preds,
    syms: &Interner,
) -> Result<(Vec<Atom>, Vec<Rule>), DatalogError> {
    let heads: Vec<Atom> = molecule_atoms(&clause.head, preds).collect();
    if clause.body.is_empty() {
        if let Some(h) = heads.iter().find(|h| !h.is_ground()) {
            let name = syms
                .name_of(h.pred)
                .map_or_else(|| h.pred.to_string(), str::to_string);
            return Err(DatalogError::Parse {
                offset: 0,
                line: 0,
                message: format!("FL fact with variables (predicate {name})"),
            });
        }
        return Ok((heads, Vec::new()));
    }
    let rules = heads
        .into_iter()
        .map(|h| {
            Rule::compile_named(
                h,
                clause.body.clone(),
                clause.nvars,
                clause.var_names.clone(),
                syms,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((Vec::new(), rules))
}

/// Derives class-registration facts implied by a ground molecule: the
/// classes mentioned in `X : C`, `C1 :: C2`, and `C[M => CM]` positions.
pub fn implied_classes(mol: &Molecule) -> Vec<Term> {
    match mol {
        Molecule::IsA { class, .. } => vec![class.clone()],
        Molecule::SubClass { sub, sup } => vec![sub.clone(), sup.clone()],
        Molecule::Frame { obj, specs } => {
            let mut out = Vec::new();
            for s in specs {
                if s.arrow == ArrowKind::Signature {
                    out.push(obj.clone());
                    out.push(s.value.clone());
                }
            }
            out
        }
        Molecule::Plain(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_fl_program;
    use kind_datalog::Interner;

    #[test]
    fn isa_lowers_to_inst() {
        let mut syms = Interner::new();
        let preds = Preds::intern(&mut syms);
        let cs = parse_fl_program("n1 : neuron.", &mut syms).unwrap();
        let (facts, rules) = lower_clause(&cs[0], &preds, &syms).unwrap();
        assert_eq!(facts.len(), 1);
        assert!(rules.is_empty());
        assert_eq!(facts[0].pred, preds.inst);
    }

    #[test]
    fn frame_fact_expands() {
        let mut syms = Interner::new();
        let preds = Preds::intern(&mut syms);
        let cs = parse_fl_program("n1[a -> 1; b -> 2].", &mut syms).unwrap();
        let (facts, _) = lower_clause(&cs[0], &preds, &syms).unwrap();
        assert_eq!(facts.len(), 2);
        assert!(facts.iter().all(|f| f.pred == preds.mi));
    }

    #[test]
    fn rule_head_frame_expands_to_rules() {
        let mut syms = Interner::new();
        let preds = Preds::intern(&mut syms);
        let cs = parse_fl_program("X[a -> 1; b -> 2] :- X : neuron.", &mut syms).unwrap();
        let (_, rules) = lower_clause(&cs[0], &preds, &syms).unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn signature_lowers_to_meth() {
        let mut syms = Interner::new();
        let preds = Preds::intern(&mut syms);
        let cs = parse_fl_program("neuron[has => compartment].", &mut syms).unwrap();
        let (facts, _) = lower_clause(&cs[0], &preds, &syms).unwrap();
        assert_eq!(facts[0].pred, preds.meth);
    }

    #[test]
    fn nonground_fl_fact_rejected() {
        let mut syms = Interner::new();
        let preds = Preds::intern(&mut syms);
        let cs = parse_fl_program("X : neuron :- q(X).", &mut syms).unwrap();
        // That's a rule, fine. A genuine non-ground fact:
        let cs2 = crate::parser::parse_fl_program("n1[a -> 1].", &mut syms).unwrap();
        assert!(lower_clause(&cs[0], &preds, &syms).is_ok());
        assert!(lower_clause(&cs2[0], &preds, &syms).is_ok());
    }

    #[test]
    fn negated_multi_spec_frame_rejected() {
        let mut syms = Interner::new();
        let err = parse_fl_program("p(X) :- q(X), not X[a -> 1; b -> 2].", &mut syms).unwrap_err();
        let DatalogError::Parse { offset, line, .. } = err else {
            panic!("{err:?}")
        };
        assert_eq!((offset, line), (35, 1));
    }

    #[test]
    fn implied_classes_from_molecules() {
        let mut syms = Interner::new();
        let cs = parse_fl_program("neuron :: cell. n1 : neuron.", &mut syms).unwrap();
        assert_eq!(implied_classes(&cs[0].head).len(), 2);
        assert_eq!(implied_classes(&cs[1].head).len(), 1);
    }
}
