//! The end-to-end oracle for `Mediator::answer`: generated federations ×
//! generated one-off rules (`kind_sources::fed_gen`), each answered three
//! ways that must give the same rows.
//!
//! 1. `Mediator::answer` on a fresh mediator, under every combination of
//!    `semi_naive` / `join_reorder` / `base_cache` / `magic_sets`: the
//!    rows, as the answer hands them over (sorted as their rendered cells
//!    sort), are the same under all sixteen.
//! 2. `QuerySnapshot::answer_with` on a snapshot taken after
//!    `materialize_all`: the same rows.
//! 3. A nested-loop evaluation of the rule over that snapshot's model —
//!    the `inst` / `mi` / `has_a_star` / `dc` relations `materialize_all`
//!    and `run` produce, `not` read as absence: the same rows.
//!
//! A failure names the case's seed; `KIND_ORACLE_CASE=<seed> cargo test
//! --test answer_oracle` replays that case alone. Each entry of
//! `KIND_ORACLE_SEEDS` (comma-separated, default `0`) is a sweep of 256
//! cases.

use kind::core::{AnswerSet, QuerySnapshot};
use kind::datalog::{EvalOptions, Term};
use kind::sources::fed_gen::{self, Arg, Cmp, FedParams, GeneratedRule, Literal};

const CASES: u64 = 256;

/// Every route evaluates with this term depth: an assertion-mode map
/// with a cycle of `ex` edges chases placeholders of placeholders, and at
/// the default depth of 8 a few dozen objects below such a cycle take
/// minutes. The bound is the same for all three answers.
const MAX_TERM_DEPTH: usize = 1;

fn env_seeds(var: &str) -> Option<Vec<u64>> {
    std::env::var(var)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
}

/// splitmix64: every case of every sweep gets a seed of its own.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The rows of `ans`, rendered, in the order the answer gives them.
fn rendered(ans: &AnswerSet) -> Vec<Vec<String>> {
    let show = |r: &Vec<Term>| r.iter().map(|t| ans.show(t)).collect();
    ans.rows.iter().map(show).collect()
}

/// One argument of a literal, resolved against the model's symbols: a
/// variable, or the term a constant must be (`None`: a name the model
/// never interned, which matches nothing).
enum Pat {
    Var(usize),
    Is(Option<Term>),
}

/// The relations of a snapshot's model the nested loops scan.
struct Relations<'a> {
    snap: &'a QuerySnapshot,
    inst: Vec<Vec<Term>>,
    mi: Vec<Vec<Term>>,
    has_a_star: Vec<Vec<Term>>,
    dc: Vec<Vec<Term>>,
}

impl<'a> Relations<'a> {
    fn of(snap: &'a QuerySnapshot) -> Self {
        let relation = |pred: &str| -> Vec<Vec<Term>> {
            let engine = snap.base().flogic().engine();
            let tuples = engine.lookup(pred).map(|p| snap.model().tuples(p));
            tuples.into_iter().flatten().map(<[Term]>::to_vec).collect()
        };
        Relations {
            snap,
            inst: relation("inst"),
            mi: relation("mi"),
            has_a_star: relation("has_a_star"),
            dc: relation("dc"),
        }
    }

    fn name(&self, s: &str) -> Option<Term> {
        self.snap
            .base()
            .flogic()
            .engine()
            .lookup(s)
            .map(Term::Const)
    }

    fn pat(&self, a: &Arg) -> Pat {
        match a {
            Arg::Var(v) => Pat::Var(*v),
            Arg::Name(s) => Pat::Is(self.name(s)),
            Arg::Int(i) => Pat::Is(Some(Term::Int(*i))),
        }
    }

    /// Every binding of `body`'s variables that satisfies it, extending
    /// `env`, handed to `emit`.
    fn solve(
        &self,
        body: &[Literal],
        env: &mut [Option<Term>],
        emit: &mut dyn FnMut(&[Option<Term>]),
    ) {
        let Some((lit, rest)) = body.split_first() else {
            return emit(env);
        };
        let (relation, pats) = match lit {
            Literal::Class { var, class, .. } => {
                (&self.inst, vec![Pat::Var(*var), Pat::Is(self.name(class))])
            }
            Literal::Attr { var, attr, value } => (
                &self.mi,
                vec![Pat::Var(*var), Pat::Is(self.name(attr)), self.pat(value)],
            ),
            Literal::HasAStar(a, b) => (&self.has_a_star, vec![self.pat(a), self.pat(b)]),
            Literal::Dc(r, a, b) => (
                &self.dc,
                vec![Pat::Is(self.name(r)), self.pat(a), self.pat(b)],
            ),
            Literal::Cmp(v, op, n) => {
                let holds = match env[*v] {
                    Some(Term::Int(i)) => match op {
                        Cmp::Lt => i < *n,
                        Cmp::Ge => i >= *n,
                        Cmp::Ne => i != *n,
                    },
                    _ => false,
                };
                if holds {
                    self.solve(rest, env, emit);
                }
                return;
            }
            Literal::Not(v, class) => {
                let fact = [env[*v].clone(), self.name(class)];
                let present = (self.inst.iter())
                    .any(|t| fact.iter().zip(t).all(|(f, t)| f.as_ref() == Some(t)));
                if !present {
                    self.solve(rest, env, emit);
                }
                return;
            }
        };
        for tuple in relation {
            let mut bound = Vec::new();
            let fits = pats.iter().zip(tuple).all(|(p, t)| match p {
                Pat::Is(c) => c.as_ref() == Some(t),
                Pat::Var(v) => match &env[*v] {
                    Some(b) => b == t,
                    None => {
                        env[*v] = Some(t.clone());
                        bound.push(*v);
                        true
                    }
                },
            });
            if fits {
                self.solve(rest, env, emit);
            }
            for v in bound {
                env[v] = None;
            }
        }
    }
}

/// The nested-loop answer of `rule` over the snapshot's model: its
/// distinct head rows, rendered and sorted.
fn nested_loops(rule: &GeneratedRule, snap: &QuerySnapshot) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut env = vec![None; 64];
    Relations::of(snap).solve(&rule.body, &mut env, &mut |env| {
        let row = rule
            .head
            .iter()
            .map(|&v| snap.show(env[v].as_ref().unwrap()));
        rows.push(row.collect());
    });
    rows.sort();
    rows.dedup();
    rows
}

/// Checks one case; `Ok(true)` when its answer has rows.
fn check_case(seed: u64) -> Result<bool, String> {
    let bits = mix(seed);
    let size = FedParams {
        sources: 1 + (bits % 3) as usize,
        rows: 2 + (bits >> 8) as usize % 5,
        concepts: 5 + (bits >> 16) as usize % 6,
    };
    let fed = fed_gen::generate(seed, &size);
    let rule = fed.rule(seed);
    let fail = |what: String| {
        format!(
            "case seed {seed} (replay: KIND_ORACLE_CASE={seed}), {:?} mode: {what}\n  rule: {}",
            fed.mode, rule.text
        )
    };
    let mut first: Option<Vec<Vec<String>>> = None;
    for combo in 0..16u32 {
        let mut m = fed.mediator();
        m.set_eval_options(EvalOptions {
            semi_naive: combo & 1 != 0,
            join_reorder: combo & 2 != 0,
            base_cache: combo & 4 != 0,
            magic_sets: combo & 8 != 0,
            max_term_depth: MAX_TERM_DEPTH,
            ..m.eval_options().clone()
        });
        let ans = m
            .answer(&rule.text)
            .map_err(|e| fail(format!("answer under options {combo:04b}: {e}")))?;
        let rows = rendered(&ans);
        match &first {
            None => first = Some(rows),
            Some(f) if *f != rows => {
                return Err(fail(format!(
                    "options {combo:04b} answered {rows:?}, options 0000 {f:?}"
                )))
            }
            Some(_) => {}
        }
    }
    let rows = first.expect("sixteen answers");
    let mut m = fed.mediator();
    m.set_eval_options(EvalOptions {
        max_term_depth: MAX_TERM_DEPTH,
        ..m.eval_options().clone()
    });
    m.materialize_all()
        .map_err(|e| fail(format!("materialize_all: {e}")))?;
    let snap = m.snapshot().map_err(|e| fail(format!("snapshot: {e}")))?;
    let snapped = snap
        .answer_with(&rule.text, snap.eval_options())
        .map_err(|e| fail(format!("snapshot answer: {e}")))?
        .rows;
    if snapped != rows {
        return Err(fail(format!(
            "the snapshot answered {snapped:?}, the mediator {rows:?}"
        )));
    }
    let oracle = nested_loops(&rule, &snap);
    if oracle != rows {
        return Err(fail(format!(
            "nested loops give {oracle:?}, the mediator {rows:?}"
        )));
    }
    Ok(!rows.is_empty())
}

#[test]
fn generated_answers_agree_across_routes_options_and_nested_loops() {
    if let Some(cases) = env_seeds("KIND_ORACLE_CASE") {
        for seed in cases {
            check_case(seed).unwrap_or_else(|e| panic!("{e}"));
        }
        return;
    }
    // Cases are independent: a few threads share them round-robin, and
    // the first failing case in sweep order is the one reported.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    for sweep in env_seeds("KIND_ORACLE_SEEDS").unwrap_or_else(|| vec![0]) {
        let seeds: Vec<u64> = (0..CASES)
            .map(|i| mix(sweep.wrapping_mul(CASES).wrapping_add(i)))
            .collect();
        let mut results: Vec<(usize, Result<bool, String>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let seeds = &seeds;
                    scope.spawn(move || {
                        (t..seeds.len())
                            .step_by(threads)
                            .map(|i| (i, check_case(seeds[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            (workers.into_iter())
                .flat_map(|w| w.join().expect("an oracle worker panicked"))
                .collect()
        });
        results.sort_by_key(|&(i, _)| i);
        let mut answered = 0;
        for (_, result) in results {
            answered += usize::from(result.unwrap_or_else(|e| panic!("sweep {sweep}, {e}")));
        }
        assert!(
            answered >= CASES as usize / 4,
            "sweep {sweep}: only {answered} of {CASES} answers have rows"
        );
    }
}
