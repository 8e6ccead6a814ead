//! The two rule parsers against text nobody wrote on purpose (ROADMAP
//! hardening (a)): program text reaches `parse_program` and
//! `parse_fl_program` straight off the wire, so whatever the bytes, the
//! answer is `Ok` or a positioned parse error — never a panic. Both share
//! one lexer (`kind_datalog::parser::Parser`), so both see every input.
//! Seeded: case `i` always draws the same bytes.

use kind_datalog::parser::{parse_atom, parse_program};
use kind_datalog::{quoted, Engine, EvalOptions, Interner, Term};
use kind_flogic::{parse_fl_program, FLogic};
use proptest::prelude::*;

/// The rule texts of `fl_language.rs`, and the Datalog parser's own
/// syntax tour.
const TEXTS: &[&str] = &[
    "o[m1 -> a; m2 ->> b]. c[m3 => d].",
    "bottom :: left. bottom :: right.
     left :: top. right :: top.
     left[m => from_left]. right[m => from_right].
     o : bottom.",
    "o1 : neuron. o2 : neuron.
     o2[kind -> special].
     X : plain_neuron :- X : neuron, not X[kind -> special].",
    "default(left, color, red).
     default(right, color, blue).",
    "p(Y) :- q(X).",
    "q(X) :- p(X), X + (1 * 2) > 2.",
    "w(VB, N) : ic :- N = count{ VA [VB] ; r(VA, VB) }, N != 1.",
    r#"n1[size -> 42; species -> "rat \"x\"\n"]. % comment"#,
    "root(X) :- node(X), not haspred(X), X != sentinel. // comment
     succ(X, Y) :- node(X), Y = X - 1.
     card(B, N) :- N = count{ A [B] : r(A, f(B, _)) }.",
];

/// What a name that reaches rule text may be made of: the four characters
/// the lexer escapes, ones `{:?}` escapes and the lexer does not (`\r`,
/// NUL, U+200B), two-byte letters, and characters that mean something
/// outside a literal.
const NAME_CHARS: &[char] = &[
    '"', '\\', '\n', '\t', '\r', '\0', '\u{200b}', 'ü', 'è', 'Z', 'a', ' ', '%', '/', '\'', '.',
    ')', ',',
];

/// Neither entry point may panic; what they return is not our business.
fn parse_both(text: &str) {
    let _ = parse_program(text, &mut Interner::new());
    let _ = parse_fl_program(text, &mut Interner::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_a_parser(
        bytes in prop::collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn one_byte_mutations_of_real_rules_never_panic_a_parser(
        which in 0usize..TEXTS.len(),
        at in 0usize..4096,
        byte in 0u16..256,
    ) {
        let mut bytes = TEXTS[which].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        parse_both(&String::from_utf8_lossy(&bytes));
        // And the text cut off there.
        parse_both(&String::from_utf8_lossy(&bytes[..at]));
    }

    /// `quoted` is the inverse of the lexer's string literal, in both
    /// grammars: whatever the name, the literal reads back as the name.
    #[test]
    fn a_quoted_name_reads_back_as_itself(
        picks in prop::collection::vec(0usize..NAME_CHARS.len(), 0..24),
    ) {
        let name: String = picks.iter().map(|&i| NAME_CHARS[i]).collect();
        let mut syms = Interner::new();
        let (atom, _) = parse_atom(&format!("p({}, 1)", quoted(&name)), &mut syms).unwrap();
        let Term::Const(read) = atom.args[0] else { panic!("{atom:?}") };
        prop_assert_eq!(syms.resolve(read), name.as_str());
        let mut fl = FLogic::new();
        fl.load(&format!("o[m -> {}].", quoted(&name))).unwrap();
        let model = fl.run().unwrap();
        prop_assert_eq!(fl.method_values(&model, "o"), vec![("m".to_string(), name)]);
    }
}

#[test]
fn the_corpus_itself_parses() {
    for text in TEXTS {
        parse_fl_program(text, &mut Interner::new()).unwrap();
    }
}

/// A string literal is the text between its quotes, whatever the script:
/// it interns under its own spelling and joins with the same value
/// arriving by another road (a wrapper row, a programmatic fact).
#[test]
fn non_ascii_string_literal_round_trips_and_joins_in_fl() {
    let mut fl = FLogic::new();
    fl.load(r#"c1[city -> "Zürich"]. c2[city -> "Genève"]."#)
        .unwrap();
    assert!(fl.engine().lookup("Zürich").is_some() && fl.engine().lookup("ZÃ¼rich").is_none());
    let zurich = fl.engine_mut().constant("Zürich");
    let c3 = fl.engine_mut().constant("c3");
    fl.assert_method(c3, "city", zurich).unwrap();
    fl.load(r#"swiss_german(X) :- X[city -> "Zürich"]."#)
        .unwrap();
    let m = fl.run().unwrap();
    let mut rows = fl.query(&m, "swiss_german(X)").unwrap();
    rows.sort();
    let shown: Vec<String> = rows.iter().map(|r| fl.engine().show(&r[0])).collect();
    assert_eq!(shown, ["c1", "c3"]);
}

#[test]
fn non_ascii_string_literal_round_trips_and_joins_in_datalog() {
    let mut e = Engine::new();
    e.load(r#"city(c1, "Zürich"). city(c2, "Genève"). in(X) :- city(X, "Zürich")."#)
        .unwrap();
    assert!(e.lookup("Zürich").is_some() && e.lookup("ZÃ¼rich").is_none());
    e.add_fact_strs("city", &["c3", "Zürich"]).unwrap();
    let m = e.run(&EvalOptions::default()).unwrap();
    assert_eq!(e.query_model(&m, "in(X)").unwrap().len(), 2);
    assert_eq!(e.query_model(&m, r#"city(X, "Genève")"#).unwrap().len(), 1);
}
