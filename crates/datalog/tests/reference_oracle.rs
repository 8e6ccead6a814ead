//! An independent oracle for the evaluator (ROADMAP hardening (f)).
//!
//! Every other equivalence suite compares the engine to itself with a
//! toggle flipped. Here the reference is a deliberately naive evaluator
//! that shares none of the engine's code: it keeps its own rule
//! representation, grounds every rule over the six-constant domain by
//! brute force, computes least models by naive iteration and the
//! well-founded model by the textbook alternating fixpoint. No indexes, no
//! planner, no strata. `Engine::run`, `Engine::run_for_query` (magic on/off
//! x `since` none/some, after growth and again after retraction) and
//! `Engine::apply_delta` must each reproduce its true and undefined sets
//! on generated programs mixing positive recursion, stratified negation,
//! `!=`, and negation cycles — two-valued and three-valued alike. A second
//! family of programs has rule heads that derive nothing and feed a
//! negation cycle; one rule is added on top of their evaluated base and
//! the warm `run_for_query` held to the oracle, and the base model to what
//! it was before it was borrowed.

use kind_datalog::{stratify, Atom, Engine, EngineDelta, EvalOptions, FactStore, Model, Term, Var};
use proptest::prelude::*;
use std::collections::BTreeSet;

const CONSTS: u8 = 6;
/// Predicate names and arities; `v` is only ever defined by the view rule
/// a [`Change`] adds. The last four belong to [`scaffold`].
const PREDS: [(&str, usize); 12] = [
    ("e", 2),
    ("n", 1),
    ("p", 1),
    ("q", 1),
    ("r", 2),
    ("s", 1),
    ("t", 2),
    ("v", 1),
    ("z", 1),
    ("w", 1),
    ("g", 1),
    ("m", 2),
];
const VIEW: usize = 7;
/// A head whose only base rule reads `w`, which has neither facts nor
/// rules: evaluated, and empty.
const EMPTY: usize = 8;
const NOTHING: usize = 9;
/// The game over the acyclic `m`, so two-valued; every position also
/// negates the empty head.
const CYCLE: usize = 10;
const MOVE: usize = 11;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Arg {
    Var(u8),
    Const(u8),
}

#[derive(Clone, Debug)]
struct Lit {
    pred: usize,
    args: Vec<Arg>,
}

#[derive(Clone, Debug)]
struct PRule {
    head: Lit,
    pos: Vec<Lit>,
    neg: Vec<Lit>,
    ne: Option<(Arg, Arg)>,
}

/// A ground atom: predicate index and constant indices.
type Ground = (usize, Vec<u8>);

#[derive(Clone, Debug, Default)]
struct Program {
    facts: BTreeSet<Ground>,
    rules: Vec<PRule>,
}

// ---------------------------------------------------------------------
// The oracle.

impl Arg {
    fn value(self, env: [u8; 3]) -> u8 {
        match self {
            Arg::Var(v) => env[v as usize],
            Arg::Const(c) => c,
        }
    }
}

impl Lit {
    fn ground(&self, env: [u8; 3]) -> Ground {
        (self.pred, self.args.iter().map(|a| a.value(env)).collect())
    }

    /// Whether `fact` is an instance of this literal read as a goal
    /// pattern (variables are distinct, so only constants constrain).
    fn matches(&self, fact: &Ground) -> bool {
        self.pred == fact.0
            && self
                .args
                .iter()
                .zip(&fact.1)
                .all(|(a, c)| matches!(a, Arg::Var(_)) || *a == Arg::Const(*c))
    }
}

/// A ground rule instance `head :- pos, not neg`; a fact has empty bodies.
struct GroundRule {
    head: Ground,
    pos: Vec<Ground>,
    neg: Vec<Ground>,
}

/// Every instance of every rule over the whole domain (6^3 environments
/// per rule, whether or not it uses all three variables).
fn ground(prog: &Program) -> Vec<GroundRule> {
    let mut out: Vec<GroundRule> = prog
        .facts
        .iter()
        .map(|f| GroundRule {
            head: f.clone(),
            pos: Vec::new(),
            neg: Vec::new(),
        })
        .collect();
    for r in &prog.rules {
        for code in 0..u32::from(CONSTS).pow(3) {
            let env = [code % 6, code / 6 % 6, code / 36].map(|c| c as u8);
            if r.ne.is_some_and(|(a, b)| a.value(env) == b.value(env)) {
                continue;
            }
            out.push(GroundRule {
                head: r.head.ground(env),
                pos: r.pos.iter().map(|l| l.ground(env)).collect(),
                neg: r.neg.iter().map(|l| l.ground(env)).collect(),
            });
        }
    }
    out
}

/// Γ(J): the least model of the reduct in which `not a` holds iff `a ∉ J`.
fn gamma(rules: &[GroundRule], j: &BTreeSet<Ground>) -> BTreeSet<Ground> {
    let mut i = BTreeSet::new();
    loop {
        let before = i.len();
        for r in rules {
            if r.pos.iter().all(|a| i.contains(a)) && r.neg.iter().all(|a| !j.contains(a)) {
                i.insert(r.head.clone());
            }
        }
        if i.len() == before {
            return i;
        }
    }
}

/// The well-founded model as `(true, undefined)`.
fn well_founded(prog: &Program) -> (BTreeSet<Ground>, BTreeSet<Ground>) {
    let rules = ground(prog);
    let mut lower = BTreeSet::new();
    loop {
        let upper = gamma(&rules, &lower);
        let next = gamma(&rules, &upper);
        if next == lower {
            let undefined = upper.difference(&lower).cloned().collect();
            return (lower, undefined);
        }
        lower = next;
    }
}

// ---------------------------------------------------------------------
// Program text for the engine.

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let args: Vec<String> = self.args.iter().map(|a| a.to_string()).collect();
        write!(f, "{}({})", PREDS[self.pred].0, args.join(","))
    }
}

impl std::fmt::Display for Arg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arg::Var(v) => write!(f, "{}", ["X", "Y", "Z"][*v as usize]),
            Arg::Const(c) => write!(f, "c{c}"),
        }
    }
}

impl Program {
    fn text(&self) -> String {
        let mut out = String::new();
        for (p, args) in &self.facts {
            let args = args.iter().map(|&c| Arg::Const(c)).collect();
            out.push_str(&format!("{}.\n", Lit { pred: *p, args }));
        }
        for r in &self.rules {
            let mut body: Vec<String> = r.pos.iter().map(|l| l.to_string()).collect();
            body.extend(r.neg.iter().map(|l| format!("not {l}")));
            body.extend(r.ne.map(|(a, b)| format!("{a} != {b}")));
            out.push_str(&format!("{} :- {}.\n", r.head, body.join(", ")));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Generators: numeric genes decoded into safe rules.

/// `(predicate, sign, argument, argument)`: sign 0 negates the literal,
/// sign 1 negates it and swaps in the rule's own head predicate (the
/// `win(X) :- move(X,Y), not win(Y)` shape, so negation cycles are common
/// and come out two- or three-valued with the stored facts).
type LitGene = (u8, u8, u8, u8);
/// `((head predicate, argument, argument), body, 0 adds a disequality)`.
type RuleGene = ((u8, u8, u8), Vec<LitGene>, u8);

fn lit(pred: usize, a: u8, b: u8) -> Lit {
    // Argument genes 0..3 are the variables X, Y, Z; 3 and 4 the constants
    // c0 and c1.
    let arg = |g: u8| {
        if g < 3 {
            Arg::Var(g)
        } else {
            Arg::Const(g - 3)
        }
    };
    Lit {
        pred,
        args: [arg(a), arg(b)][..PREDS[pred].1].to_vec(),
    }
}

/// Decodes a rule gene. The first body literal is always positive, and
/// every variable the positive literals leave unbound is replaced by one
/// they bind (or by `c0`), so the rule is safe for the engine.
fn rule(((head, ha, hb), body, ne): &RuleGene) -> PRule {
    let (mut pos, mut neg) = (Vec::new(), Vec::new());
    for (i, &(p, sign, a, b)) in body.iter().enumerate() {
        match (i, sign) {
            (1.., 0) => neg.push(lit(usize::from(p), a, b)),
            (1.., 1) => neg.push(lit(usize::from(*head), a, b)),
            _ => pos.push(lit(usize::from(p), a, b)),
        }
    }
    let mut bound: Vec<u8> = Vec::new();
    for a in pos.iter().flat_map(|l| &l.args) {
        if let Arg::Var(v) = a {
            if !bound.contains(v) {
                bound.push(*v);
            }
        }
    }
    let fix = |l: &mut Lit| {
        for a in &mut l.args {
            if matches!(a, Arg::Var(v) if !bound.contains(v)) {
                *a = bound.first().map_or(Arg::Const(0), |&b| Arg::Var(b));
            }
        }
    };
    let mut head = lit(usize::from(*head), *ha, *hb);
    fix(&mut head);
    neg.iter_mut().for_each(fix);
    let ne = (*ne == 0 && bound.len() >= 2).then(|| (Arg::Var(bound[0]), Arg::Var(bound[1])));
    PRule { head, pos, neg, ne }
}

fn lit_gene() -> impl Strategy<Value = LitGene> {
    // Body literals range over every predicate but the view.
    (0u8..VIEW as u8, 0u8..4, 0u8..5, 0u8..5)
}

fn facts() -> impl Strategy<Value = Vec<Ground>> {
    // Stored facts for e, n and (an IDB predicate with stored facts) p.
    prop::collection::vec((0u8..3, 0u8..CONSTS, 0u8..CONSTS), 4..14).prop_map(|genes| {
        genes
            .into_iter()
            .map(|(p, a, b)| (usize::from(p), [a, b][..PREDS[usize::from(p)].1].to_vec()))
            .collect()
    })
}

fn program() -> impl Strategy<Value = Program> {
    let rule_gene = (
        (2u8..VIEW as u8, 0u8..5, 0u8..5),
        prop::collection::vec(lit_gene(), 1..4),
        0u8..3,
    );
    (facts(), prop::collection::vec(rule_gene, 1..7)).prop_map(|(facts, genes)| Program {
        facts: facts.into_iter().collect(),
        rules: genes.iter().map(rule).collect(),
    })
}

/// What happens to a program after its base model was computed: facts
/// asserted and a view rule over a fresh predicate installed (growth),
/// then stored facts retracted — each step recorded as a delta — and a
/// goal to ask after either.
#[derive(Debug)]
struct Change {
    add: Vec<Ground>,
    view: PRule,
    goal: Lit,
    retract: Vec<usize>,
}

fn change() -> impl Strategy<Value = Change> {
    (
        facts(),
        prop::collection::vec(lit_gene(), 1..3),
        (2u8..VIEW as u8 + 1, 0u8..5, 0u8..5),
        prop::collection::vec(0usize..16, 0..3),
    )
        .prop_map(|(mut add, body, (gp, ga, gb), retract)| {
            add.truncate(3);
            let mut goal = lit(usize::from(gp), ga, gb);
            // Distinct goal variables: only the constants constrain.
            for (i, a) in goal.args.iter_mut().enumerate() {
                if let Arg::Var(v) = a {
                    *v = i as u8;
                }
            }
            Change {
                add,
                view: rule(&((VIEW as u8, 0, 0), body, 1)),
                goal,
                retract,
            }
        })
}

/// `z(X) :- n(X), w(X).` and `g(X) :- m(X,Y), not g(Y), not z(X).`
fn scaffold() -> [PRule; 2] {
    let rule = |head, pos, neg| PRule {
        head,
        pos,
        neg,
        ne: None,
    };
    [
        rule(
            lit(EMPTY, 0, 0),
            vec![lit(1, 0, 0), lit(NOTHING, 0, 0)],
            vec![],
        ),
        rule(
            lit(CYCLE, 0, 0),
            vec![lit(MOVE, 0, 1)],
            vec![lit(CYCLE, 1, 1), lit(EMPTY, 0, 0)],
        ),
    ]
}

/// A generated program plus the [`scaffold`] and moves `m(ci, cj)`, i < j.
fn program_over_empty_heads() -> impl Strategy<Value = Program> {
    let moves = prop::collection::vec((0u8..CONSTS, 0u8..CONSTS), 2..8);
    (program(), moves).prop_map(|(mut prog, moves)| {
        prog.rules.extend(scaffold());
        for (a, b) in moves {
            if a != b {
                prog.facts.insert((MOVE, vec![a.min(b), a.max(b)]));
            }
        }
        prog
    })
}

/// One rule added after the base was evaluated, with or without stored
/// facts beside it, and a goal to ask besides the rule's own head.
#[derive(Debug)]
struct Addition {
    add: Vec<Ground>,
    rule: PRule,
    goal: Lit,
}

fn addition() -> impl Strategy<Value = Addition> {
    (change(), 0u8..3, 0u8..2).prop_map(|(change, kind, bare)| {
        let mut rule = change.view;
        match kind {
            // A fresh head, as generated.
            0 => {}
            // A second rule for the head the base evaluated to nothing.
            1 => rule.head.pred = EMPTY,
            // A fresh head over a body that reads the empty head.
            _ => rule.neg.push(Lit {
                pred: EMPTY,
                args: rule.head.args.clone(),
            }),
        }
        Addition {
            add: if bare == 0 { Vec::new() } else { change.add },
            rule,
            goal: change.goal,
        }
    })
}

// ---------------------------------------------------------------------
// Engine side.

fn grounds(e: &Engine, store: &FactStore) -> BTreeSet<Ground> {
    store
        .iter()
        .filter_map(|(p, t)| {
            // Magic and adorned predicates are not part of the answer.
            let pred = PREDS.iter().position(|(n, _)| *n == e.name(p))?;
            let args = t
                .iter()
                .map(|c| e.show(c)[1..].parse().expect("constant cN"));
            Some((pred, args.collect()))
        })
        .collect()
}

fn assert_model(e: &Engine, m: &Model, prog: &Program, what: &str) {
    let (truths, undefined) = well_founded(prog);
    let text = prog.text();
    assert_eq!(
        grounds(e, &m.facts),
        truths,
        "{what}: true atoms of\n{text}"
    );
    assert_eq!(
        grounds(e, &m.undefined),
        undefined,
        "{what}: undefined atoms of\n{text}"
    );
}

/// Asks `goal` with the rewrite on and off, with and without `since` (a
/// base model and the delta recorded from it to `prog`), and compares the
/// goal's true and undefined instances with the oracle's.
fn assert_goal(e: &mut Engine, goal: &Lit, since: (&Model, &EngineDelta), prog: &Program) {
    let (truths, undefined) = well_founded(prog);
    let pred = e.sym(PREDS[goal.pred].0);
    let args = goal
        .args
        .iter()
        .map(|a| match a {
            Arg::Var(v) => Term::Var(Var(u32::from(*v))),
            Arg::Const(_) => e.constant(&a.to_string()),
        })
        .collect();
    let atom = Atom::new(pred, args);
    for magic_sets in [true, false] {
        for base in [None, Some(since)] {
            let opts = EvalOptions {
                magic_sets,
                ..Default::default()
            };
            let m = e.run_for_query(&atom, base, &opts).unwrap();
            let what = format!(
                "{goal} (magic_sets={magic_sets}, base={}) over\n{}",
                base.is_some(),
                prog.text()
            );
            let mut answers = FactStore::new();
            for row in m.query(&atom) {
                answers.insert(pred, row.into());
            }
            let want = |set: &BTreeSet<Ground>| -> BTreeSet<Ground> {
                set.iter().filter(|f| goal.matches(f)).cloned().collect()
            };
            assert_eq!(
                grounds(e, &answers),
                want(&truths),
                "true answers to {what}"
            );
            assert_eq!(
                want(&grounds(e, &m.undefined)),
                want(&undefined),
                "undefined answers to {what}"
            );
        }
    }
}

/// Runs one generated history through every evaluation entry point.
fn check(prog: &Program, change: &Change) {
    let opts = EvalOptions::default();
    let mut e = Engine::new();
    e.load(&prog.text()).unwrap();
    let base = e.run(&opts).unwrap();
    assert_model(&e, &base, prog, "run");
    // A reduct runs delta rounds or, with them off, full re-application.
    let naive = EvalOptions {
        semi_naive: false,
        ..Default::default()
    };
    assert_model(&e, &e.run(&naive).unwrap(), prog, "run, semi_naive off");

    // Growth: new facts and the view rule, recorded as a delta.
    let growth = Program {
        facts: change.add.iter().cloned().collect(),
        rules: vec![change.view.clone()],
    };
    let mut grown = prog.clone();
    grown.facts.extend(growth.facts.iter().cloned());
    grown.rules.push(change.view.clone());
    e.begin_delta();
    e.load(&growth.text()).unwrap();
    let delta = e.take_delta().unwrap();
    let inc = e.apply_delta(&base, &delta, &opts).unwrap();
    assert_model(&e, &inc, &grown, "apply_delta after growth");
    let inc_naive = e.apply_delta(&base, &delta, &naive).unwrap();
    assert_model(&e, &inc_naive, &grown, "apply_delta, semi_naive off");
    assert_goal(&mut e, &change.goal, (&base, &delta), &grown);
    assert_goal(&mut e, &lit(VIEW, 0, 0), (&base, &delta), &grown);

    // Retraction of stored facts, maintained from the grown model.
    let mut shrunk = grown.clone();
    let stored: Vec<Ground> = grown.facts.iter().cloned().collect();
    for &i in &change.retract {
        let (p, args) = &stored[i % stored.len()];
        if shrunk.facts.remove(&(*p, args.clone())) {
            let pred = e.sym(PREDS[*p].0);
            let terms: Vec<Term> = args.iter().map(|c| e.constant(&format!("c{c}"))).collect();
            assert!(e.remove_fact(pred, &terms));
        }
    }
    let delta = e.take_delta().unwrap();
    let dec = e.apply_delta(&inc, &delta, &opts).unwrap();
    assert_model(&e, &dec, &shrunk, "apply_delta after retraction");
    assert_goal(&mut e, &change.goal, (&inc, &delta), &shrunk);
    assert_goal(&mut e, &lit(VIEW, 0, 0), (&inc, &delta), &shrunk);
}

/// Every tuple of every relation, in stored order.
fn frozen(m: &Model) -> Vec<(usize, Vec<kind_datalog::Tuple>)> {
    let mut preds: Vec<_> = m.facts.predicates().collect();
    preds.sort_by_key(|p| p.index());
    preds
        .into_iter()
        .map(|p| (p.index(), m.tuples(p)))
        .collect()
}

/// Evaluates the base, adds one rule (and maybe facts), and asks the
/// warm path for the rule's head, the cycle, the empty head and one
/// more goal.
fn check_addition(prog: &Program, addition: &Addition) {
    let mut e = Engine::new();
    e.load(&prog.text()).unwrap();
    let base = e.run(&EvalOptions::default()).unwrap();
    assert_model(&e, &base, prog, "run");
    assert!(base.tuples(e.sym("z")).is_empty());
    let before = frozen(&base);
    let growth = Program {
        facts: addition.add.iter().cloned().collect(),
        rules: vec![addition.rule.clone()],
    };
    e.begin_delta();
    e.load(&growth.text()).unwrap();
    let delta = e.take_delta().unwrap();
    let mut grown = prog.clone();
    grown.facts.extend(growth.facts);
    grown.rules.extend(growth.rules);
    for goal in [
        &lit(addition.rule.head.pred, 0, 0),
        &lit(CYCLE, 0, 0),
        &lit(EMPTY, 0, 0),
        &addition.goal,
    ] {
        assert_goal(&mut e, goal, (&base, &delta), &grown);
    }
    // Nothing was written through a relation the answers borrowed.
    assert_eq!(frozen(&base), before, "base model of\n{}", prog.text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_the_naive_oracle(prog in program(), change in change()) {
        check(&prog, &change);
    }

    #[test]
    fn seeded_answers_over_empty_heads_match_the_naive_oracle(
        prog in program_over_empty_heads(),
        addition in addition(),
    ) {
        check_addition(&prog, &addition);
    }
}

/// Seeding only happens over a two-valued base: enough of the second
/// family must be.
#[test]
fn programs_over_empty_heads_are_mostly_two_valued() {
    let two_valued = (0..256)
        .filter(|&case| {
            let prog = program_over_empty_heads().generate(&mut TestRng::for_case(case));
            well_founded(&prog).1.is_empty()
        })
        .count();
    assert!(two_valued >= 128, "{two_valued} of 256");
}

/// The generator must actually reach the cases the oracle is there for:
/// negation cycles that stay two-valued, negation cycles that leave atoms
/// undefined, and positive recursion.
#[test]
fn generated_programs_cover_both_kinds_of_negation_cycle() {
    let (mut two_valued, mut three_valued, mut recursive) = (0, 0, 0);
    for case in 0..256 {
        let prog = program().generate(&mut TestRng::for_case(case));
        let mut e = Engine::new();
        e.load(&prog.text()).unwrap();
        let strat = stratify(e.rules(), |s| e.name(s).to_string()).unwrap();
        recursive += usize::from(strat.strata.iter().any(|s| s.recursive && !s.wfs));
        if strat.needs_wfs {
            if well_founded(&prog).1.is_empty() {
                two_valued += 1;
            } else {
                three_valued += 1;
            }
        }
    }
    assert!(
        two_valued >= 16 && three_valued >= 16 && recursive >= 16,
        "two-valued cycles {two_valued}, three-valued {three_valued}, positive recursion {recursive}"
    );
}

/// The oracle itself, on the textbook game: `c0 → c1 → c2` alternates,
/// the self-loop at `c3` is undefined.
#[test]
fn oracle_solves_the_win_move_game() {
    let prog = Program {
        facts: [(0, vec![0, 1]), (0, vec![1, 2]), (0, vec![3, 3])].into(),
        rules: vec![PRule {
            head: lit(2, 0, 0),
            pos: vec![lit(0, 0, 1)],
            neg: vec![lit(2, 1, 1)],
            ne: None,
        }],
    };
    let (truths, undefined) = well_founded(&prog);
    assert!(truths.contains(&(2, vec![1])) && !truths.contains(&(2, vec![0])));
    assert_eq!(undefined, [(2, vec![3])].into());
}
