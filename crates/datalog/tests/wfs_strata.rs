//! Negation cycles inside the stratum walker.
//!
//! The `recorded_*` expectations are the output of the evaluator *before*
//! negation-cyclic strata were evaluated locally (it ran any program with
//! such a stratum whole under the alternating fixpoint); the walker has to
//! keep producing them. The rest pins what stratum-local evaluation adds:
//! a goal over such a program is seeded from a base model and skips the
//! strata nothing touched.

use kind_datalog::{Atom, Engine, EvalOptions, FactStore, Model, Term, Var};

/// `a ⇄ b` is a draw (undefined), `c` wins by moving to the dead end `d`.
const GAME: &str = "move(a,b). move(b,a). move(b,c). move(c,d).
     pos(a). pos(b). pos(c). pos(d).
     win(X) :- move(X,Y), not win(Y).";

fn rendered(e: &Engine, store: &FactStore, preds: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = store
        .iter()
        .filter(|(p, _)| preds.contains(&e.name(*p)))
        .map(|(p, t)| {
            let args: Vec<String> = t.iter().map(|a| e.show(a)).collect();
            format!("{}({})", e.name(p), args.join(","))
        })
        .collect();
    out.sort();
    out
}

/// Runs `src` and compares the true and undefined atoms of `preds` — with
/// delta rounds and with full re-application: a reduct runs either, and
/// the recorded atoms are the same. Returns the default run.
fn assert_run(src: &str, preds: &[&str], facts: &[&str], undefined: &[&str]) -> (Engine, Model) {
    let mut e = Engine::new();
    e.load(src).unwrap();
    let [m, _] = [true, false].map(|semi_naive| {
        let opts = EvalOptions {
            semi_naive,
            ..Default::default()
        };
        let m = e.run(&opts).unwrap();
        let what = format!("semi_naive={semi_naive}");
        assert_eq!(rendered(&e, &m.facts, preds), facts, "true atoms, {what}");
        assert_eq!(
            rendered(&e, &m.undefined, preds),
            undefined,
            "undefined, {what}"
        );
        m
    });
    (e, m)
}

#[test]
fn recorded_undefined_win_feeds_a_negated_reader() {
    assert_run(
        &format!("{GAME} safe(X) :- pos(X), not win(X)."),
        &["win", "safe"],
        &["safe(d)", "win(c)"],
        &["safe(a)", "safe(b)", "win(a)", "win(b)"],
    );
}

#[test]
fn recorded_undefined_win_feeds_a_recursive_positive_reader() {
    let (_, m) = assert_run(
        &format!("{GAME} reach(X) :- win(X). reach(Y) :- reach(X), move(X,Y)."),
        &["win", "reach"],
        &["reach(c)", "reach(d)", "win(c)"],
        &["reach(a)", "reach(b)", "win(a)", "win(b)"],
    );
    // One entry for `win`'s stratum and everything above it.
    assert_eq!(m.profile.strata.len(), 1);
    assert!(m.profile.strata[0].well_founded && m.profile.well_founded);
}

/// Under the alternating fixpoint an aggregate reads its relation while
/// the reduct's naive rounds are still filling it, so the counts of the
/// earlier rounds (`0`) stay in the model beside the final ones. Recorded,
/// not endorsed; see `count_above_a_two_valued_cycle_reads_the_finished_relation`
/// for the two-valued case, where the walker no longer does this.
#[test]
fn recorded_count_over_an_undefined_win() {
    assert_run(
        &format!("{GAME} wins(N) :- N = count{{ X : win(X) }}."),
        &["win", "wins"],
        &["win(c)", "wins(0)", "wins(1)"],
        &["win(a)", "win(b)", "wins(3)"],
    );
    assert_run(
        &format!(
            "{GAME} lost(X) :- pos(X), not win(X).
             losers(N) :- N = count{{ X : lost(X) }}."
        ),
        &["lost", "losers"],
        &["losers(0)", "losers(1)", "lost(d)"],
        &["losers(3)", "lost(a)", "lost(b)"],
    );
}

const TWO_VALUED: &str = "move(a,b). move(b,c). move(c,d). step(d,e). step(e,f).
     win(X) :- move(X,Y), not win(Y).
     from_win(X,Y) :- win(X), move(X,Y).
     from_win(X,Y) :- from_win(X,Z), move(Z,Y).
     from_win(X,Y) :- from_win(X,Z), step(Z,Y).
     quiet(X) :- move(X,_), not win(X).";

#[test]
fn recorded_two_valued_cycle_below_a_recursive_stratum() {
    let (e, m) = assert_run(
        TWO_VALUED,
        &["win", "from_win", "quiet"],
        &[
            "from_win(a,b)",
            "from_win(a,c)",
            "from_win(a,d)",
            "from_win(a,e)",
            "from_win(a,f)",
            "from_win(c,d)",
            "from_win(c,e)",
            "from_win(c,f)",
            "quiet(b)",
            "win(a)",
            "win(c)",
        ],
        &[],
    );
    // Only `win`'s stratum ran the alternating fixpoint; `from_win` ran
    // the ordinary fixpoint above it, `quiet` a single pass.
    let mode = |pred: &str| {
        let sp = m
            .profile
            .strata
            .iter()
            .find(|s| s.preds.iter().any(|&p| e.name(p) == pred));
        let sp = sp.expect("a stratum per predicate");
        (sp.well_founded, sp.recursive)
    };
    assert_eq!(mode("win"), (true, true));
    assert_eq!(mode("from_win"), (false, true));
    assert_eq!(mode("quiet"), (false, false));
    let dump = e.render_profile(&m);
    assert!(dump.contains("[alternating fixpoint]: win"), "{dump}");
    assert!(dump.contains("[fixpoint]: from_win"), "{dump}");
    assert!(dump.contains("[single pass]: quiet"), "{dump}");
}

#[test]
fn count_above_a_two_valued_cycle_reads_the_finished_relation() {
    assert_run(
        "move(a,b). move(b,c). move(c,d).
         win(X) :- move(X,Y), not win(Y).
         wins(N) :- N = count{ X : win(X) }.",
        &["win", "wins"],
        &["win(a)", "win(c)", "wins(2)"],
        &[],
    );
}

fn goal(e: &mut Engine, pred: &str) -> Atom {
    Atom::new(e.sym(pred), vec![Term::Var(Var(0))])
}

#[test]
fn seeded_goal_skips_an_untouched_negation_cycle() {
    let mut e = Engine::new();
    e.load(TWO_VALUED).unwrap();
    let opts = EvalOptions::default();
    let base = e.run(&opts).unwrap();
    // A view over the cycle's result and one new fact that feeds only the
    // stratified `from_win` stratum above it.
    e.begin_delta();
    e.load("step(f,g). far(Y) :- win(X), from_win(X,Y), not win(Y).")
        .unwrap();
    let delta = e.take_delta().unwrap();
    let far = goal(&mut e, "far");
    let rows = |m: &Model| {
        let mut rows = m.query(&far);
        rows.sort();
        rows
    };
    let plain = EvalOptions {
        magic_sets: false,
        ..Default::default()
    };
    let warm = e
        .run_for_query(&far, Some((&base, &delta)), &plain)
        .unwrap();
    let cold = e.run_for_query(&far, None, &plain).unwrap();
    assert_eq!(rows(&warm), rows(&cold));
    assert_eq!(rows(&warm).len(), 5); // b, d, e, f, g
    assert!(warm.profile.seeded > 0 && cold.profile.seeded == 0);
    let win = e.sym("win");
    let stratum = |m: &Model| {
        let sp = m.profile.strata.iter().find(|s| s.preds.contains(&win));
        sp.cloned().expect("win's stratum")
    };
    assert!(stratum(&warm).skipped && !stratum(&warm).well_founded);
    assert!(!stratum(&cold).skipped && stratum(&cold).well_founded);
    assert!(!warm.profile.well_founded && cold.profile.well_founded);
    assert!(warm.stats.derived < cold.stats.derived);
    assert!(e.render_profile(&warm).contains("[skipped (cached)]: win"));

    // With the rewrite on, the frozen cycle no longer makes it decline:
    // demand reaches only the grown `from_win` closure.
    let magic = e.run_for_query(&far, Some((&base, &delta)), &opts).unwrap();
    assert!(magic.profile.magic_fired && magic.profile.seeded > 0);
    assert_eq!(rows(&magic), rows(&cold));
    let unseeded = e.run_for_query(&far, None, &opts).unwrap();
    assert!(!unseeded.profile.magic_fired && unseeded.profile.well_founded);
    assert_eq!(rows(&unseeded), rows(&cold));

    // With the cache layer off the base is ignored.
    let off = EvalOptions {
        base_cache: false,
        ..Default::default()
    };
    let nocache = e.run_for_query(&far, Some((&base, &delta)), &off).unwrap();
    assert_eq!(nocache.profile.seeded, 0);
    assert_eq!(rows(&nocache), rows(&cold));
}

#[test]
fn three_valued_base_is_ignored() {
    let mut e = Engine::new();
    e.load(GAME).unwrap();
    let opts = EvalOptions::default();
    let base = e.run(&opts).unwrap();
    assert!(!base.undefined.is_empty());
    e.begin_delta();
    e.load("safe(X) :- pos(X), not win(X).").unwrap();
    let delta = e.take_delta().unwrap();
    let safe = goal(&mut e, "safe");
    let m = e
        .run_for_query(&safe, Some((&base, &delta)), &opts)
        .unwrap();
    assert_eq!(m.profile.seeded, 0);
    assert_eq!(rendered(&e, &m.facts, &["safe"]), ["safe(d)"]);
    assert_eq!(
        rendered(&e, &m.undefined, &["safe"]),
        ["safe(a)", "safe(b)"]
    );
}
