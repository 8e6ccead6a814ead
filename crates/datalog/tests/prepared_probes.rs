//! The evaluator's access paths. A rule is prepared once per stratum with
//! the columns each atom has bound when it runs; a round resolves each
//! atom's relation once and takes an atom's index at its first probe. These
//! programs sit on the edges of that: an index no probe asks for, a bound
//! column holding a function term, one predicate read on two column sets,
//! a negation over a function term. Each is evaluated with indexing on and
//! off; the model and the work counters that do not count probes must not
//! move.

use kind_datalog::{Engine, EvalOptions, EvalStats, Model, Term};
use std::collections::BTreeSet;

fn run(src: &str, use_index: bool) -> (Engine, Model) {
    let mut e = Engine::new();
    e.load(src).unwrap();
    let opts = EvalOptions {
        use_index,
        ..Default::default()
    };
    let m = e.run(&opts).unwrap();
    (e, m)
}

/// Every fact of `m`, rendered, so two engines' models compare.
fn facts(e: &Engine, m: &Model) -> BTreeSet<String> {
    m.facts
        .iter()
        .map(|(p, row)| {
            let args: Vec<String> = row.iter().map(|t| e.show(t)).collect();
            format!("{}({})", e.name(p), args.join(","))
        })
        .collect()
}

/// `src` evaluated with indexing on and off: the same model, the same
/// rounds, derivations and applications, and no probe answered by an
/// index when indexing is off. Returns the indexed run's counters.
fn on_and_off(src: &str) -> (Engine, Model, EvalStats) {
    let (e, on) = run(src, true);
    let (e_off, off) = run(src, false);
    assert_eq!(facts(&e, &on), facts(&e_off, &off), "{src}");
    let work = |s: &EvalStats| (s.iterations, s.derived, s.depth_clipped, s.applications);
    assert_eq!(work(&on.stats), work(&off.stats), "{src}");
    assert_eq!((off.stats.index_builds, off.stats.index_hits), (0, 0));
    let stats = on.stats;
    (e, on, stats)
}

fn holds(e: &Engine, m: &Model, pattern: &str) -> usize {
    e.query_model(m, pattern).unwrap().len()
}

/// An index is built at the first probe of its column set, not when the
/// rule's paths are prepared: `big`'s atom is bound in its first column,
/// but nothing reaches it while the membership test before it fails.
#[test]
fn an_atom_no_row_reaches_builds_no_index() {
    let big: String = (0..20).map(|i| format!("big(on, v{i}). ")).collect();
    let (e, m, stats) = on_and_off(&format!("flag(on). {big} out(Y) :- flag(off), big(on, Y)."));
    assert_eq!(holds(&e, &m, "out(Y)"), 0);
    assert_eq!(stats.index_builds, 0);
    // The membership test is a probe answered without an index build.
    assert_eq!((stats.index_hits, stats.index_misses), (1, 0));
    // Once the test passes, the first probe of `big` builds its index.
    let (e, m, stats) = on_and_off(&format!("flag(on). {big} out(Y) :- flag(on), big(on, Y)."));
    assert_eq!(holds(&e, &m, "out(Y)"), 20);
    assert_eq!((stats.index_builds, stats.index_hits), (1, 2));
}

/// A bound column that holds `f(X)`, `X` bound by the atom before it: the
/// key is built from the substitution (an owned term), hashed, and
/// compared in place.
#[test]
fn a_skolem_key_bound_by_an_earlier_atom_probes_the_index() {
    let (e, m, stats) = on_and_off(
        "obj(o1). obj(o2).
         boxed(f(o1), v1). boxed(f(o2), v2). boxed(f(o3), v3). boxed(g(o1), v4).
         out(X, V) :- obj(X), boxed(f(X), V).",
    );
    assert_eq!(holds(&e, &m, "out(X, V)"), 2);
    assert_eq!(holds(&e, &m, "out(o1, v1)"), 1);
    assert_eq!(holds(&e, &m, "out(o1, v4)"), 0);
    // `obj` scanned once, `boxed` probed once per object through one index.
    assert_eq!(
        (stats.index_builds, stats.index_hits, stats.index_misses),
        (1, 2, 1)
    );
}

/// One predicate at three body positions: scanned at the first, probed on
/// its first column at the second, tested for membership at the third.
/// Each position keeps its own path, and the second position's index is
/// not the third's.
#[test]
fn one_predicate_at_positions_with_different_bound_columns() {
    let (e, m, stats) = on_and_off(
        "e(a,b). e(b,c). e(c,d). e(a,c). e(b,d).
         two(X, Z) :- e(X, Y), e(Y, Z).
         tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).",
    );
    assert_eq!(holds(&e, &m, "two(X, Z)"), 3);
    assert_eq!(holds(&e, &m, "tri(X, Y, Z)"), 2);
    // One index on `e`'s first column; a scan per rule; a probe per row of
    // each scan; a membership test per path of two edges (four).
    assert_eq!(stats.index_builds, 1);
    assert_eq!(stats.index_misses, 2);
    assert_eq!(stats.index_hits, 5 + 5 + 4);
}

/// A negated atom over a function term of a bound variable: its absence is
/// tested on the resolved relation, with the term built from the binding.
#[test]
fn a_negated_function_term_tests_absence() {
    let (e, m, stats) = on_and_off(
        "obj(o1). obj(o2). obj(o3). tagged(f(o1)). tagged(g(o2)). pair(f(o3), x).
         untagged(X) :- obj(X), not tagged(f(X)).
         unpaired(X) :- obj(X), not pair(f(X), x).",
    );
    assert_eq!(holds(&e, &m, "untagged(X)"), 2);
    assert_eq!(holds(&e, &m, "untagged(o1)"), 0);
    assert_eq!(holds(&e, &m, "unpaired(X)"), 2);
    assert_eq!(holds(&e, &m, "unpaired(o3)"), 0);
    // A negation is no probe: two scans of `obj`, nothing else counted.
    assert_eq!(
        (stats.index_builds, stats.index_hits, stats.index_misses),
        (0, 0, 2)
    );
    let ground = Term::func(
        e.lookup("f").unwrap(),
        vec![Term::Const(e.lookup("o1").unwrap())],
    );
    assert!(m.holds(e.lookup("tagged").unwrap(), &[ground]));
}
