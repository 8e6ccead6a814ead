//! Which compiled domain maps close a cycle through negation.
//!
//! In assertion mode an existential edge `C ⊑ ∃r.D` compiles to a filler
//! test `dm_filler_i(X) :- relinst(r, X, Y), dm_t_i(Y)`, with
//! `dm_t_i(Y) :- Y : D`, and to placeholders guarded by its absence —
//! `sk(..) : D :- X : C, not dm_filler_i(X)`. Membership (`inst`) then
//! depends negatively on itself through `dm_t_i`, and the evaluator runs
//! that stratum under the well-founded semantics. Constraint mode guards
//! only `ic` witnesses (`W : ic` is `icw(W)`, which nothing reads back),
//! so it stays stratified. The test below records it over generated maps:
//! a change to the DM compiler that moves a map across says so here.

use kind_dm::{rules, ExecMode, Resolved, DM_OPS_RULES};
use kind_flogic::FLogic;
use kind_sources::dm_gen;

/// The generated maps covered: `dm_gen::generate(0..SEEDS)`.
const SEEDS: u64 = 32;

/// Whether `seed`'s map, compiled in `mode` beside the closure rules and
/// run over no data, has a negation-cyclic stratum: `None` if not, else
/// whether `inst` is in it.
fn negation_cycle(seed: u64, mode: ExecMode) -> Option<bool> {
    let map = dm_gen::generate(seed);
    let mut fl = FLogic::new();
    fl.load_datalog(DM_OPS_RULES).unwrap();
    fl.load(&rules::compile(&map.dm, &Resolved::new(&map.dm), mode).text)
        .unwrap();
    let model = fl.run().unwrap();
    let mut units = model.profile.strata.iter().filter(|s| s.well_founded);
    let unit = units.next()?;
    assert!(units.next().is_none(), "seed {seed}, {mode:?}: two cycles");
    let e = fl.engine();
    Some(unit.preds.iter().any(|&p| e.name(p) == "inst"))
}

/// Every generated map has an existential edge, and so every one of them
/// compiles, in assertion mode, to a program with one negation-cyclic
/// stratum around `inst`; in constraint mode none does.
#[test]
fn assertion_mode_maps_cycle_through_inst_and_constraint_mode_maps_do_not() {
    for seed in 0..SEEDS {
        let map = dm_gen::generate(seed);
        let text = rules::compile(&map.dm, &Resolved::new(&map.dm), ExecMode::Assertion).text;
        assert!(text.contains("not dm_filler_"), "seed {seed}: no guard");
        assert_eq!(
            negation_cycle(seed, ExecMode::Assertion),
            Some(true),
            "seed {seed}"
        );
        assert_eq!(
            negation_cycle(seed, ExecMode::Constraint),
            None,
            "seed {seed}"
        );
    }
}
