//! Asking in place: a pattern is parsed against the knowledge base's own
//! symbol table, interning nothing (`FLogic::query`, `FLogic::explain`,
//! `kind_datalog::parser::ask_atom`, `Engine::query_model`). The oracle
//! here is the route that came before it: parse into a scratch table
//! (`parse_fl_molecule`, `parse_atom`), count the molecule's atoms, then
//! rename every symbol into the base's table, where a name the base lacks
//! makes the pattern match nothing.

use kind_datalog::parser::{ask_atom, parse_atom, Parser};
use kind_datalog::{Atom, DatalogError, Interner, Model, Term};
use kind_flogic::{molecule_atoms, parse_fl_molecule, FLogic, MethodSpec, Molecule};

const REFUSED: &str = "a molecule to ask about must translate to a single atom";

/// The knowledge base every pattern asks: classes, frames with escaped
/// strings, and plain facts over function terms.
fn knowledge() -> (FLogic, Model) {
    let mut fl = FLogic::new();
    fl.load(
        r#"n1 : neuron. n2 : neuron. s1 : spine. neuron :: cell. spine :: cell.
           n1[size -> 42; species -> "rat"].
           n2[size -> 5; label -> "a \"q\" b"; label -> "tab\tnew\nline"].
           link(n1, n2). link(n2, f(n1)). link(f(n2), f(f(n1))).
           tag("with space", n1). tag(n2, n2). flag.
           big(X) :- X : neuron, X[size -> S], S > 10."#,
    )
    .unwrap();
    let m = fl.run().unwrap();
    (fl, m)
}

/// `t` with every symbol renamed from `from` into `to`; `None` when `to`
/// lacks one.
fn remap_term(t: &Term, from: &Interner, to: &Interner) -> Option<Term> {
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

fn remap_atom(a: &Atom, from: &Interner, to: &Interner) -> Option<Atom> {
    let pred = to.get(from.resolve(a.pred))?;
    let args: Option<Vec<Term>> = a.args.iter().map(|t| remap_term(t, from, to)).collect();
    Some(Atom::new(pred, args?))
}

fn remap_molecule(mol: &Molecule, from: &Interner, to: &Interner) -> Option<Molecule> {
    let term = |t: &Term| remap_term(t, from, to);
    Some(match mol {
        Molecule::IsA { obj, class } => Molecule::IsA {
            obj: term(obj)?,
            class: term(class)?,
        },
        Molecule::SubClass { sub, sup } => Molecule::SubClass {
            sub: term(sub)?,
            sup: term(sup)?,
        },
        Molecule::Frame { obj, specs } => Molecule::Frame {
            obj: term(obj)?,
            specs: specs
                .iter()
                .map(|s| {
                    Some(MethodSpec {
                        method: term(&s.method)?,
                        arrow: s.arrow,
                        value: term(&s.value)?,
                    })
                })
                .collect::<Option<_>>()?,
        },
        Molecule::Plain(a) => Molecule::Plain(remap_atom(a, from, to)?),
    })
}

/// The oracle's refusal of a molecule that is not one atom: at its first
/// token, as the parser positions every error.
fn refusal(src: &str) -> DatalogError {
    let mut scratch = Interner::new();
    let mut p = Parser::new(src, &mut scratch);
    p.skip_ws();
    p.err(REFUSED)
}

/// What asking `src` of `fl` gives, by parse-then-remap.
fn oracle_fl(fl: &FLogic, src: &str) -> Result<Option<Atom>, DatalogError> {
    let mut scratch = Interner::new();
    let (mol, _) = parse_fl_molecule(src, &mut scratch)?;
    let atoms = match &mol {
        Molecule::Frame { specs, .. } => specs.len(),
        _ => 1,
    };
    if atoms != 1 {
        return Err(refusal(src));
    }
    let syms = fl.engine().symbols();
    Ok(remap_molecule(&mol, &scratch, syms).map(|m| {
        let [atom] = <[Atom; 1]>::try_from(molecule_atoms(&m, fl.preds())).unwrap();
        atom
    }))
}

fn oracle_datalog(syms: &Interner, src: &str) -> Result<Option<Atom>, DatalogError> {
    let mut scratch = Interner::new();
    let (atom, _) = parse_atom(src, &mut scratch)?;
    Ok(remap_atom(&atom, &scratch, syms))
}

/// A small seeded generator of patterns, known and unknown names mixed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// A term: a variable, an integer, a constant the base knows or not
    /// (plain or quoted, escapes included), or a function term.
    fn term(&mut self, depth: usize) -> String {
        match self.below(if depth > 2 { 5 } else { 7 }) {
            0 => self.pick(&["X", "Y", "X", "_", "Value"]).to_string(),
            1 => self.pick(&["42", "5", "-3", "7"]).to_string(),
            2 => self
                .pick(&["n1", "n2", "s1", "neuron", "cell", "size", "label", "rat"])
                .to_string(),
            3 => self
                .pick(&[
                    r#""rat""#,
                    r#""with space""#,
                    r#""a \"q\" b""#,
                    r#""tab\tnew\nline""#,
                    r#""n1""#,
                ])
                .to_string(),
            4 => self
                .pick(&["zzz", "no_such", r#""not \\ here""#, r#""unknown""#])
                .to_string(),
            _ => {
                let f = self.pick(&["f", "f", "g"]);
                format!("{f}({})", self.term(depth + 1))
            }
        }
    }

    fn args(&mut self) -> String {
        let n = 1 + self.below(3);
        let args: Vec<String> = (0..n).map(|_| self.term(0)).collect();
        args.join(", ")
    }

    /// A Datalog atom over known and unknown predicates.
    fn atom(&mut self) -> String {
        let pred = self.pick(&["link", "tag", "inst", "mi", "sub", "big", "nope", "flag"]);
        match pred {
            "flag" => "flag".to_string(),
            _ => format!("{pred}({})", self.args()),
        }
    }

    /// An F-logic molecule: `:`, `::`, a frame of one or more specs, or
    /// a plain atom.
    fn molecule(&mut self) -> String {
        match self.below(5) {
            0 => format!("{} : {}", self.term(0), self.term(0)),
            1 => format!("{} :: {}", self.term(0), self.term(0)),
            2 | 3 => {
                let specs = if self.below(3) == 0 { 2 } else { 1 };
                let specs: Vec<String> = (0..specs)
                    .map(|_| {
                        let arrow = self.pick(&["->", "=>", "->>"]);
                        let method = self.pick(&["size", "species", "label", "no_such", "M"]);
                        format!("{method} {arrow} {}", self.term(0))
                    })
                    .collect();
                format!("{}[{}]", self.term(0), specs.join("; "))
            }
            _ => self.atom(),
        }
    }

    /// `text` spoiled, now and then: cut short, given trailing input, or
    /// a bad escape or stray token spliced in.
    fn spoil(&mut self, text: String) -> String {
        match self.below(8) {
            0 => {
                let mut cut = self.below(text.len().max(1));
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text[..cut].to_string()
            }
            1 => format!("{text} {}", self.pick(&["p(X)", "extra", ".", "]"])),
            2 => {
                let at = self.below(text.len() + 1);
                let junk = self.pick(&[r#""bad \x""#, "(", ",", ")", "\"open"]);
                if text.is_char_boundary(at) {
                    format!("{}{junk}{}", &text[..at], &text[at..])
                } else {
                    format!("{text}{junk}")
                }
            }
            3 => format!("  \n {text}\n"),
            _ => text,
        }
    }
}

/// Rows `atom` matches in `model`, or none for a missing atom.
fn rows(model: &Model, atom: &Option<Atom>) -> Vec<Vec<Term>> {
    atom.as_ref().map(|a| model.query(a)).unwrap_or_default()
}

/// 512 seeded patterns, half F-logic molecules and half Datalog atoms:
/// each asked in place gives the rows (a molecule, also whether it holds)
/// or the error that parse-then-remap gives, a Datalog atom the very atom,
/// and the symbol table is left as it was.
#[test]
fn asking_in_place_equals_parse_then_remap() {
    let (fl, model) = knowledge();
    let syms = fl.engine().symbols();
    let (len, table) = (syms.len(), format!("{syms:?}"));
    let mut gen = Gen(0x9e37_79b9_7f4a_7c15);
    // Patterns that asked, that named something unknown, that failed to
    // parse, that matched rows, and multi-atom frames refused.
    let mut seen = [0usize; 5];
    for case in 0..512 {
        let fl_side = case % 2 == 0;
        let text = if fl_side { gen.molecule() } else { gen.atom() };
        let pattern = gen.spoil(text);
        let oracle = if fl_side {
            oracle_fl(&fl, &pattern)
        } else {
            let oracle = oracle_datalog(syms, &pattern);
            assert_eq!(ask_atom(&pattern, syms), oracle, "case {case}: {pattern:?}");
            oracle
        };
        let queried = if fl_side {
            fl.query(&model, &pattern)
        } else {
            fl.engine().query_model(&model, &pattern)
        };
        let expected = oracle.clone().map(|atom| rows(&model, &atom));
        assert_eq!(queried, expected, "case {case}: {pattern:?}");
        if fl_side {
            let explained = fl.explain(&model, &pattern, 4).map(|d| d.is_some());
            let holds = oracle
                .clone()
                .map(|atom| atom.is_some_and(|a| model.holds(a.pred, &a.args)));
            assert_eq!(explained, holds, "case {case}: {pattern:?}");
        }
        let syms = fl.engine().symbols();
        assert_eq!(syms.len(), len, "case {case}: {pattern:?} interned");
        assert!(format!("{syms:?}") == table, "case {case}: the table moved");
        let refused =
            matches!(&oracle, Err(DatalogError::Parse { message, .. }) if message == REFUSED);
        let hits = [
            matches!(oracle, Ok(Some(_))),
            matches!(oracle, Ok(None)),
            oracle.is_err() && !refused,
            expected.is_ok_and(|r| !r.is_empty()),
            refused,
        ];
        for (seen, hit) in seen.iter_mut().zip(hits) {
            *seen += usize::from(hit);
        }
    }
    assert!(seen.iter().all(|&n| n >= 16), "cases seen: {seen:?}");
}

/// A frame of two specs is refused whether or not the base knows its
/// names, at the molecule's first token (1-based line), and before any
/// name is looked up.
#[test]
fn a_multi_atom_ask_is_refused_whatever_names_it_mentions() {
    let (fl, model) = knowledge();
    let refused = |offset, line| DatalogError::Parse {
        offset,
        line,
        message: REFUSED.to_string(),
    };
    for pattern in [
        "X[size -> 1; size -> V]",
        "X[no_such -> 1; size -> V]",
        "zzz[no_such -> 1; nor_this -> V]",
    ] {
        assert_eq!(fl.query(&model, pattern), Err(refused(0, 1)), "{pattern}");
        assert_eq!(
            fl.explain(&model, pattern, 4),
            Err(refused(0, 1)),
            "{pattern}"
        );
    }
    assert_eq!(
        fl.query(&model, "\n  n1[size -> 42;\n size -> V]"),
        Err(refused(3, 2))
    );
}

/// A name the base lacks makes a one-atom pattern match nothing, wherever
/// it stands: predicate, class, method, value, function symbol.
#[test]
fn an_unknown_name_anywhere_matches_nothing() {
    let (fl, model) = knowledge();
    for pattern in [
        "X : no_such",
        "no_such : neuron",
        "X[no_such -> V]",
        r#"X[label -> "not here"]"#,
        "link(X, g(Y))",
        "nope(X)",
    ] {
        assert_eq!(fl.query(&model, pattern), Ok(Vec::new()), "{pattern}");
        assert_eq!(fl.explain(&model, pattern, 4), Ok(None), "{pattern}");
    }
    assert_eq!(fl.query(&model, "link(X, f(Y))").unwrap().len(), 2);
    assert_eq!(
        fl.query(&model, r#"X[label -> "a \"q\" b"]"#)
            .unwrap()
            .len(),
        1
    );
}
