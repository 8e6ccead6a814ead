//! The two rule parsers against text nobody wrote on purpose (ROADMAP
//! hardening (a)): program text reaches `parse_program` and
//! `parse_fl_program` straight off the wire, so whatever the bytes, the
//! answer is `Ok` or a positioned parse error — never a panic. Both share
//! one lexer and one rule-body grammar (`kind_datalog::parser::Parser`),
//! so both see every input, and a rule in Datalog syntax reads the same
//! through either. Seeded: case `i` always draws the same bytes.

use kind_datalog::parser::{parse_atom, parse_program};
use kind_datalog::{quoted, DatalogError, Engine, EvalOptions, Interner, Term};
use kind_flogic::{lower_clause, parse_fl_program, FLogic, Preds};
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

/// A rule in Datalog syntax drawn from a stream of random choices: 0-ary
/// and function-term atoms, `not`, comparisons with parenthesized
/// arithmetic on either side, assignments, aggregates with grouping
/// (nested too), and strings with escapes and non-ASCII characters. Some
/// draws are unsafe or refused; both front ends must agree on those too.
struct RuleGen<'a> {
    choices: std::slice::Iter<'a, u32>,
}

impl RuleGen<'_> {
    /// A choice in `0..n` (0 once the stream runs out).
    fn pick(&mut self, n: usize) -> usize {
        self.choices.next().map_or(0, |&c| c as usize % n)
    }

    fn one<'s>(&mut self, of: &[&'s str]) -> &'s str {
        of[self.pick(of.len())]
    }

    fn var(&mut self) -> &'static str {
        self.one(&["X", "Y", "Z", "W", "_"])
    }

    fn string(&mut self) -> String {
        let pieces = [
            "a", "\\\"", "\\\\", "\\n", "\\t", "ü", "Zürich", " ", "%", "//", ":-",
        ];
        let body: String = (0..self.pick(4)).map(|_| self.one(&pieces)).collect();
        format!("\"{body}\"")
    }

    fn term(&mut self, depth: usize) -> String {
        match self.pick(if depth < 2 { 7 } else { 5 }) {
            0 | 1 => self.var().to_string(),
            2 => self.one(&["a", "b", "l"]).to_string(),
            3 => (self.pick(20) as i64 - 5).to_string(),
            4 => self.string(),
            5 => format!("f({}, {})", self.term(depth + 1), self.term(depth + 1)),
            _ => format!("g({})", self.term(depth + 1)),
        }
    }

    fn atom(&mut self) -> String {
        match self.pick(4) {
            0 => format!("r({}, {})", self.term(0), self.term(0)),
            1 => format!("s({})", self.term(0)),
            2 => "t".to_string(),
            _ => format!("u({})", self.term(1)),
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        match self.pick(if depth < 2 { 5 } else { 2 }) {
            0 => self.var().to_string(),
            1 => (self.pick(10) as i64 - 2).to_string(),
            2 => format!("({} + {})", self.expr(depth + 1), self.expr(depth + 1)),
            3 => format!("{} * {}", self.expr(depth + 1), self.expr(depth + 1)),
            _ => format!("({} - {})", self.expr(depth + 1), self.expr(depth + 1)),
        }
    }

    fn item(&mut self, depth: usize) -> String {
        match self.pick(if depth < 2 { 8 } else { 7 }) {
            0..=2 => self.atom(),
            3 => format!("not {}", self.one(&["t", "s(X)", "r(X, Y)", "X"])),
            4 => {
                let op = self.one(&["<", "<=", ">", ">=", "!=", "="]);
                format!("{} {op} {}", self.expr(0), self.expr(0))
            }
            5 => format!("{} = {}", self.var(), self.expr(0)),
            6 => format!("{} = {}", self.term(0), self.expr(1)),
            _ => {
                let func = self.one(&["count", "sum", "min", "max"]);
                let groups = self.one(&["", " [X]", " [X, Y]", " [Y]", " [l]"]);
                let sep = self.one(&[":", ";"]);
                format!(
                    "{} = {func}{{ {}{groups} {sep} {} }}",
                    self.one(&["N", "N", "M", "l"]),
                    self.var(),
                    self.body(depth + 1)
                )
            }
        }
    }

    fn body(&mut self, depth: usize) -> String {
        let first = match self.pick(2) {
            0 => "r(X, Y)".to_string(),
            _ => self.atom(),
        };
        let mut items = vec![first];
        for _ in 0..self.pick(3) {
            items.push(self.item(depth));
        }
        items.join(", ")
    }

    fn rule(&mut self) -> String {
        let args: Vec<String> = (0..self.pick(3))
            .map(|_| match self.pick(4) {
                0 => self.term(1),
                _ => self.one(&["X", "Y", "N"]).to_string(),
            })
            .collect();
        let head = if args.is_empty() {
            "h".to_string()
        } else {
            format!("h({})", args.join(", "))
        };
        format!("{head} :- {}.", self.body(0))
    }
}

/// The rules `engine` holds past the first `before`, printed, or the
/// error the load returned.
fn printed(
    engine: &Engine,
    before: usize,
    loaded: Result<(), DatalogError>,
) -> Result<Vec<String>, DatalogError> {
    loaded.map(|()| {
        engine.rules()[before..]
            .iter()
            .map(|r| r.display(engine.symbols()).to_string())
            .collect()
    })
}

/// One body grammar: a rule in Datalog syntax loads through `FLogic::load`
/// and `Engine::load` to the same printed rules, or fails on both with
/// the same error kind (and, for a parse error, at the same offset).
#[test]
fn datalog_rules_read_the_same_through_both_front_ends() {
    let (mut loaded, mut parse_errors, mut other_errors) = (0, 0, 0);
    for case in 0..512 {
        let choices =
            prop::collection::vec(0u32..u32::MAX, 64).generate(&mut TestRng::for_case(case));
        let rule = RuleGen {
            choices: choices.iter(),
        }
        .rule();
        let mut fl = FLogic::new();
        let before = fl.engine().rules().len();
        let via_fl = fl.load(&rule);
        let via_fl = printed(fl.engine(), before, via_fl);
        let mut engine = Engine::new();
        let via_datalog = engine.load(&rule);
        let via_datalog = printed(&engine, 0, via_datalog);
        match (&via_fl, &via_datalog) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{rule}");
                loaded += 1;
            }
            (
                Err(DatalogError::Parse { offset: a, .. }),
                Err(DatalogError::Parse { offset: b, .. }),
            ) => {
                assert_eq!(a, b, "{rule}\n{via_fl:?}\n{via_datalog:?}");
                parse_errors += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{rule}");
                other_errors += 1;
            }
            _ => panic!("{rule}\nF-logic: {via_fl:?}\nDatalog: {via_datalog:?}"),
        }
    }
    assert!(
        loaded > 128 && parse_errors > 32 && other_errors > 32,
        "{loaded} loaded, {parse_errors} parse errors, {other_errors} other errors"
    );
}

/// The F-logic half of the round trip: every rule the corpus lowers to
/// prints as Datalog text that `Engine::load` reads back to the same rule.
#[test]
fn lowered_fl_rules_print_as_datalog_that_reads_back() {
    let mut checked = 0;
    for text in TEXTS {
        let mut syms = Interner::new();
        let clauses = parse_fl_program(text, &mut syms).unwrap();
        let preds = Preds::intern(&mut syms);
        for clause in &clauses {
            let Ok((_, rules)) = lower_clause(clause, &preds, &syms) else {
                continue;
            };
            for rule in rules {
                let text = rule.display(&syms).to_string();
                let mut engine = Engine::new();
                engine.load(&text).unwrap();
                let [read] = engine.rules() else {
                    panic!("{text}")
                };
                assert_eq!(read.display(engine.symbols()).to_string(), text);
                checked += 1;
            }
        }
    }
    assert!(checked >= 6, "{checked}");
}
