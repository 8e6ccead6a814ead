//! On-demand integrated queries: the push-down discipline of §5,
//! generalized from the hand-planned protein query to arbitrary one-off
//! conjunctive queries over source classes and the domain map.
//!
//! A one-off query is a single FL rule like
//!
//! ```text
//! ans(P, L) :- X : protein_amount, X[protein_name -> P],
//!              X[location -> L], L : relevant_location.
//! ```
//!
//! whose head predicate names the answer relation. Every route answers it
//! in the same three steps:
//!
//! 1. **read** — the rule is parsed and lowered once, straight into a
//!    clone of the frozen base (its symbol table, then its program), so a
//!    refused rule reaches no base and no source: exactly one clause with
//!    a plain-predicate head;
//! 2. **fetch** — [`crate::Mediator::answer`] scans the sources exporting
//!    the classes whose instances the body reads: a constant class in an
//!    `inst(X, class)` atom of the lowered body, written `X : class` or
//!    `inst(X, class)` (and only those: the mediator never contacts an
//!    unrelated source);
//!    [`crate::QuerySnapshot::answer_with`] fetches nothing — rows loaded
//!    before the snapshot was taken are what there is to query;
//! 3. **evaluate** — one crate-private function, `evaluate`, finishes
//!    every answer: the fetched rows go into the clone the rule was read
//!    into, and **only the answer predicate's dependency cone** is
//!    evaluated there, on top of the published model where that is sound.
//!    The rule is one entry stratum above the base program's memoized
//!    strata, so nothing is stratified per answer, unless its head could
//!    sit on a cycle with them (the base defines or reads the head, or the
//!    rule reads it): then the clone's program is stratified whole. The
//!    clone is thrown away: a read leaves the base, its rules, its symbols
//!    and the published model as they were. What it returns is the one
//!    answer value, [`AnswerSet`]: rows sorted as their rendered cells
//!    sort, the clone's symbol table, the run's counters, both magic-sets
//!    flags and the fetch's classes, sources and report.

use crate::error::{MediatorError, Result};
use crate::fault::AnswerReport;
use crate::federation::{Federation, FetchRequest, FetchSet};
use crate::mediator::{fetch_batches, load_batches};
use kind_datalog::term::sort_rendered;
use kind_datalog::{
    Atom, BodyItem, DatalogError, EvalOptions, EvalStats, Interner, Model, Sym, Term,
};
use kind_flogic::{lower_clause, parse_fl_program, Molecule};
use kind_gcm::GcmBase;
use std::collections::BTreeSet;

/// The outcome of an on-demand query, from whichever route asked it:
/// [`crate::Mediator::answer`], [`crate::QuerySnapshot::answer_terms`]
/// (which fetches nothing, so `classes`, `sources` and `report` are
/// empty) or a server's `answer`.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// The answer tuples (bindings of the head variables, in head order),
    /// sorted as their rendered cells sort
    /// ([`kind_datalog::term::sort_rendered`]).
    pub rows: Vec<Vec<Term>>,
    /// The symbol table `rows` resolve in: that of the clone the rule was
    /// read into (the rule's own names and the object ids fetched for the
    /// answer exist only there), so an answer interns nothing into the
    /// mediator or the snapshot. Render through [`Self::show`].
    pub syms: Interner,
    /// The classes the body reads that some source exports, in name order.
    pub classes: Vec<String>,
    /// Sources actually contacted, in name order.
    pub sources: Vec<String>,
    /// Per-source outcomes and quarantine diagnostics: a failed or
    /// breaker-skipped source contributes no rows, and
    /// [`AnswerReport::is_complete`] is the answer's completeness flag.
    pub report: AnswerReport,
    /// Evaluation statistics for the answering run (derivation counts
    /// etc.) — how much work the goal-directed plan actually did.
    pub stats: EvalStats,
    /// Whether the magic-sets demand transformation rewrote the query's
    /// rule subprogram (false when disabled or when the rewrite declined,
    /// e.g. for well-founded residues).
    pub magic_fired: bool,
    /// Whether the cost model declined an otherwise applicable rewrite.
    pub magic_declined: bool,
}

impl AnswerSet {
    /// Renders a term of [`Self::rows`].
    pub fn show(&self, t: &Term) -> String {
        t.display(&self.syms).to_string()
    }
}

/// A one-off rule read into the clone of a base that answers it: exactly
/// one clause with a plain-predicate head, parsed and lowered into the
/// clone's symbol table and added to its program, with the clone's
/// changelog open from before the rule, so the evaluation walks the rule
/// and the fetched rows as one delta over the base's published model.
pub(crate) struct OneOffRule {
    /// The base's clone, holding the rule.
    work: GcmBase,
    /// The rule's head atom: the goal the answer's rows match.
    goal: Atom,
    /// Whether the base already defines the head, by a rule or a stored
    /// fact.
    defined: bool,
    /// The constant classes of the lowered body's `inst(X, class)` atoms.
    classes: BTreeSet<String>,
}

impl OneOffRule {
    /// Reads `text` into a clone of `base`; `base` is not written to.
    pub(crate) fn read(text: &str, base: &GcmBase) -> Result<Self> {
        let shape_error = |message: String| {
            MediatorError::Datalog(DatalogError::Parse {
                offset: 0,
                line: 0,
                message,
            })
        };
        let mut work = base.clone();
        let fl = work.flogic_mut();
        let preds = *fl.preds();
        let engine = fl.engine_mut();
        engine.begin_delta();
        let clauses = parse_fl_program(text, engine.symbols_mut())?;
        let [clause] = clauses.as_slice() else {
            return Err(shape_error(format!(
                "answer() takes exactly one rule, got {}",
                clauses.len()
            )));
        };
        let Molecule::Plain(head) = &clause.head else {
            return Err(shape_error(
                "answer() rule head must be a plain predicate".to_string(),
            ));
        };
        let defined = engine.defines(engine.symbols().resolve(head.pred));
        let mut classes = BTreeSet::new();
        collect_classes(&clause.body, preds.inst, engine.symbols(), &mut classes);
        // A plain head lowers to exactly one atom: one fact or one rule.
        let goal = match lower_clause(clause, &preds, engine.symbols())? {
            (mut facts, _) if !facts.is_empty() => {
                let fact = facts.remove(0);
                engine.add_fact(fact.pred, &fact.args)?;
                fact
            }
            (_, mut rules) => {
                let rule = rules.remove(0);
                let head = rule.head.clone();
                engine.add_rule(rule)?;
                head
            }
        };
        Ok(OneOffRule {
            work,
            goal,
            defined,
            classes,
        })
    }

    /// The fetch that answers the rule: one scan per source exporting a
    /// class the body reads, class by class.
    pub(crate) fn scans(&self, federation: &Federation) -> Vec<FetchRequest> {
        let mut scans = Vec::new();
        for class in &self.classes {
            for src in federation.sources_exporting(class) {
                scans.push(FetchRequest::scan(src, class.as_str()));
            }
        }
        scans
    }
}

/// The **evaluate phase** of every one-off query, and its one finish:
/// adds the `fetched` rows to the clone `rule` was read into and
/// evaluates towards the rule's head there — goal-directed
/// (`Engine::run_for_query`: the head's dependency cone, the rule placed
/// as one entry stratum above the base program's memoized strata where
/// that is sound, plus, when enabled, the magic-sets rewrite), as the
/// delta the rule and those loads recorded, walked over `model`: strata
/// the rule and the rows do not touch are read in place instead of
/// recomputed. `model` is never written to.
///
/// `model` is the published model of the base `rule` was read from —
/// every mutation of that base is in it, so the clone's changelog starts
/// empty — or `None` to evaluate from the stored facts alone (a mediator
/// with [`EvalOptions::base_cache`] off keeps none current).
///
/// The answer carries the goal's rows, sorted; the clone's symbol table
/// they resolve in (fetched object ids and the rule's own constants exist
/// only there); the run's counters and magic-sets flags; and `fetched`'s
/// classes, sources and report.
pub(crate) fn evaluate(
    rule: OneOffRule,
    model: Option<&Model>,
    fetched: FetchSet,
    opts: &EvalOptions,
) -> Result<AnswerSet> {
    let OneOffRule {
        mut work,
        goal,
        defined,
        ..
    } = rule;
    load_batches(&mut work, &fetch_batches(&fetched.batches))?;
    // A head the base program already defines — by a rule or a stored
    // fact, whether or not it derived anything — is not a one-off view
    // over the model: evaluate the clone from its stored facts.
    let delta = work.flogic_mut().engine_mut().take_delta();
    let since = model.filter(|_| !defined).zip(delta.as_ref());
    let model = work.flogic_mut().run_for_query(&goal, since, opts)?;
    let mut rows = model.query(&goal);
    let syms = std::mem::take(work.flogic_mut().engine_mut().symbols_mut());
    sort_rendered(&mut rows, &syms);
    // The scans ran class by class, so a class's batches are adjacent.
    let mut classes: Vec<String> = fetched
        .batches
        .iter()
        .map(|b| b.query.class.clone())
        .collect();
    classes.dedup();
    let sources: BTreeSet<&str> = fetched.batches.iter().map(|b| b.source.as_str()).collect();
    Ok(AnswerSet {
        rows,
        syms,
        classes,
        sources: sources.into_iter().map(str::to_string).collect(),
        report: fetched.report,
        stats: model.stats,
        magic_fired: model.profile.magic_fired,
        magic_declined: model.profile.magic_declined,
    })
}

/// The classes of the body's `inst(X, class)` atoms (`X : class` in FL),
/// aggregate bodies included.
fn collect_classes(items: &[BodyItem], inst: Sym, syms: &Interner, out: &mut BTreeSet<String>) {
    for item in items {
        match item {
            BodyItem::Pos(a) | BodyItem::Neg(a) if a.pred == inst => {
                if let [_, Term::Const(c)] = a.args.as_slice() {
                    out.insert(syms.resolve(*c).to_string());
                }
            }
            BodyItem::Agg(agg) => collect_classes(&agg.body, inst, syms, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::AnswerSet;
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, Capability, MemoryWrapper};
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;
    use std::sync::Arc;

    fn mediator_with_two_sources() -> Mediator {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let mut a = MemoryWrapper::new("A");
        a.caps.push(Capability {
            class: "spines".into(),
            pushable: vec![],
        });
        a.anchor_decls.push(Anchor::Fixed {
            class: "spines".into(),
            concept: "Spine".into(),
        });
        for i in 0..4 {
            a.add_row(
                "spines",
                &format!("s{i}"),
                vec![("len", GcmValue::Int(i * 10))],
            );
        }
        m.register(Arc::new(a)).unwrap();
        let mut b = MemoryWrapper::new("B");
        b.caps.push(Capability {
            class: "proteins".into(),
            pushable: vec![],
        });
        b.anchor_decls.push(Anchor::Fixed {
            class: "proteins".into(),
            concept: "Protein".into(),
        });
        b.add_row(
            "proteins",
            "p0",
            vec![("name", GcmValue::Id("calb".into()))],
        );
        m.register(Arc::new(b)).unwrap();
        m
    }

    #[test]
    fn answer_fetches_only_mentioned_classes() {
        let mut m = mediator_with_two_sources();
        let ans = m
            .answer("long_spines(X, L) :- X : spines, X[len -> L], L >= 20.")
            .unwrap();
        assert_eq!(ans.rows.len(), 2);
        assert_eq!(ans.classes, vec!["spines".to_string()]);
        // Only source A was contacted.
        assert_eq!(ans.sources, vec!["A".to_string()]);
    }

    /// `X : spines` lowers to `inst(X, spines)` (Table 1), so a rule that
    /// writes the atom asks for the same class and fetches the same rows.
    #[test]
    fn answer_fetches_for_an_inst_atom_as_for_an_isa_molecule() {
        for rule in ["p(X) :- X : spines.", "p(X) :- inst(X, spines)."] {
            let mut m = mediator_with_two_sources();
            let ans = m.answer(rule).unwrap();
            assert_eq!(ans.rows.len(), 4, "{rule}");
            assert_eq!(ans.classes, vec!["spines".to_string()], "{rule}");
            assert_eq!(ans.sources, vec!["A".to_string()], "{rule}");
        }
    }

    #[test]
    fn answer_view_is_temporary() {
        let mut m = mediator_with_two_sources();
        m.answer("q(X) :- X : spines.").unwrap();
        // The view never reached the base: a fresh materialized query
        // does not know `q`.
        m.materialize_all().unwrap();
        let rows = m.query_fl("q(X)").unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn answer_can_join_sources_and_domain_map() {
        let mut m = mediator_with_two_sources();
        let ans = m
            .answer(
                r#"link(X, P) :- X : spines, P : proteins,
                               dm_role("contains", "Spine", "Ion_Binding_Protein")."#,
            )
            .unwrap();
        // Cross product gated on domain knowledge: 4 spines × 1 protein.
        assert_eq!(ans.rows.len(), 4);
        assert_eq!(ans.sources, vec!["A".to_string(), "B".to_string()]);
    }

    fn rendered(ans: &AnswerSet) -> Vec<String> {
        let mut v: Vec<String> = ans
            .rows
            .iter()
            .map(|r| r.iter().map(|t| ans.show(t)).collect::<Vec<_>>().join(","))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn answer_warm_path_matches_cold_path() {
        let mut warm = mediator_with_two_sources();
        let mut cold = mediator_with_two_sources();
        let mut o = cold.eval_options().clone();
        o.base_cache = false;
        cold.set_eval_options(o);
        let q = "long_spines(X, L) :- X : spines, X[len -> L], L >= 20.";
        let w1 = warm.answer(q).unwrap();
        let w2 = warm.answer(q).unwrap(); // second call reuses the cached base
        let c = cold.answer(q).unwrap();
        assert_eq!(rendered(&w1), rendered(&c));
        assert_eq!(rendered(&w1), rendered(&w2));
        assert_eq!(w1.rows.len(), 2);
        assert_eq!(w1.sources, c.sources);
        assert_eq!(w1.classes, c.classes);
    }

    #[test]
    fn answer_head_colliding_with_base_falls_back() {
        let mut m = mediator_with_two_sources();
        // `anchored` already has facts in the base model, so the
        // evaluation refuses the seed and derives from the stored facts.
        let ans = m.answer("anchored(S, C) :- anchored(S, C).").unwrap();
        assert_eq!(ans.rows.len(), 2);
    }

    /// A head the base program already defines is never evaluated on top
    /// of the published model — also when it derived nothing (a view over
    /// a class no source exports) or holds only stored facts: rows and
    /// work are those of a mediator with the base cache off, and, like
    /// every answer, it stages nothing.
    #[test]
    fn answer_head_defined_by_base_falls_back_even_when_empty() {
        let build = |base_cache: bool| {
            let mut m = mediator_with_two_sources();
            m.define_view("tagged(X) :- X : no_such_class.").unwrap();
            let mut o = m.eval_options().clone();
            o.base_cache = base_cache;
            m.set_eval_options(o);
            m.materialize_all().unwrap();
            m.publish().unwrap();
            assert!(m.query_fl("tagged(X)").unwrap().is_empty());
            m
        };
        let (mut warm, mut cold) = (build(true), build(false));
        for (q, rows) in [
            // `tagged` has a rule and an empty extension.
            ("tagged(X) :- X : spines.", 4),
            // `anchored` has stored facts and no rule; one matches the goal.
            (r#"anchored(X, "Spine") :- X : spines."#, 5),
        ] {
            let w = warm.answer(q).unwrap();
            assert!(!warm.publish_pending(), "{q} wrote to the base");
            let c = cold.answer(q).unwrap();
            assert_eq!(rendered(&w), rendered(&c), "{q}");
            assert_eq!(w.rows.len(), rows, "{q}");
            assert_eq!(w.stats, c.stats, "{q} was seeded");
        }
        // The control: a fresh head is seeded, and does less for it.
        let q = "fresh(X) :- X : spines.";
        let (w, c) = (warm.answer(q).unwrap(), cold.answer(q).unwrap());
        assert_eq!(rendered(&w), rendered(&c));
        assert!(w.stats.derived < c.stats.derived, "{q} was not seeded");
    }

    /// A one-off head that a base rule reads and none defines: the rule
    /// and that reader close a cycle through `r`, so neither route may
    /// place the rule in a stratum of its own above the base program's
    /// (it would read `r` = {a} from the model and answer `b` alone).
    /// Both routes give the whole program's rows, base cache and magic
    /// rewrite on and off (the rewritten program is stratified whole, so
    /// only the plain walk would show the misplacement).
    #[test]
    fn a_head_the_base_reads_is_answered_with_its_reader() {
        let rule = "p(Y) :- e(X, Y), r(X).";
        for bits in 0..4 {
            let (base_cache, magic_sets) = (bits & 1 != 0, bits & 2 != 0);
            let mut m = mediator_with_two_sources();
            m.define_view("start(a). e(a, b). e(b, c). r(X) :- p(X). r(X) :- start(X).")
                .unwrap();
            m.set_eval_options(kind_datalog::EvalOptions {
                base_cache,
                magic_sets,
                ..m.eval_options().clone()
            });
            let snap = m.snapshot().unwrap();
            let rows = snap.answer_with(rule, snap.eval_options()).unwrap().rows;
            assert_eq!(rows, [["b"], ["c"]], "snapshot, options {bits:02b}");
            let ans = m.answer(rule).unwrap();
            assert_eq!(rendered(&ans), ["b", "c"], "options {bits:02b}");
        }
    }

    /// A warm answer walks the delta of its own loads over the published
    /// model, so whatever was staged before it has to be in that model:
    /// `answer` publishes first, the scratch clone's changelog then holds
    /// the rule and the fetch and nothing older, and the rows are those of
    /// a mediator that keeps no model at all.
    #[test]
    fn answer_sees_rows_staged_and_not_yet_published() {
        let build = |base_cache: bool| {
            let mut m = mediator_with_two_sources();
            let mut o = m.eval_options().clone();
            o.base_cache = base_cache;
            m.set_eval_options(o);
            m.publish().unwrap();
            // Not in source A: only the staged write knows this row.
            let row = crate::ObjectRow {
                id: "staged".into(),
                attrs: vec![("len".into(), GcmValue::Int(50))],
            };
            m.load_row("A", "spines", &row).unwrap();
            assert!(m.publish_pending());
            m
        };
        let (mut warm, mut cold) = (build(true), build(false));
        let q = "long_spines(X, L) :- X : spines, X[len -> L], L >= 20.";
        let (w, c) = (warm.answer(q).unwrap(), cold.answer(q).unwrap());
        assert_eq!(rendered(&w), rendered(&c));
        assert_eq!(rendered(&w), ["A.s2,20", "A.s3,30", "A.staged,50"]);
        assert!(
            w.stats.derived < c.stats.derived,
            "the answer was not seeded"
        );
        // The staged row went out with the publish `answer` began with.
        assert!(!warm.publish_pending() && cold.publish_pending());
    }

    /// Reads do not write: whatever the optimization toggles and whatever
    /// the base program says about the head, an answer leaves no staged
    /// write, no rule, no symbol, and the published model where it was.
    #[test]
    fn answer_never_writes() {
        let queries = [
            "fresh(X) :- X : spines.",
            // A head with a base rule (and an empty extension)...
            "tagged(X) :- X : spines.",
            // ...and one with stored facts and no rule.
            r#"anchored(X, "Spine") :- X : spines."#,
        ];
        for bits in 0..16u32 {
            let mut m = mediator_with_two_sources();
            m.define_view("tagged(X) :- X : no_such_class.").unwrap();
            m.set_eval_options(kind_datalog::EvalOptions {
                semi_naive: bits & 1 != 0,
                join_reorder: bits & 2 != 0,
                base_cache: bits & 4 != 0,
                magic_sets: bits & 8 != 0,
                ..m.eval_options().clone()
            });
            m.publish().unwrap();
            let model = Arc::clone(m.cached_model().expect("publish caches the model"));
            let rules = m.base().flogic().engine().rules().len();
            let symbols = m.base().flogic().engine().symbols().len();
            for q in queries {
                let ans = m.answer(q).unwrap();
                assert!(!ans.rows.is_empty(), "{q} ({bits:04b})");
                assert!(!m.publish_pending(), "{q} ({bits:04b}) staged a write");
                assert_eq!(m.base().flogic().engine().rules().len(), rules, "{q}");
                assert_eq!(
                    m.base().flogic().engine().symbols().len(),
                    symbols,
                    "{q} ({bits:04b}) interned a name"
                );
                assert!(Arc::ptr_eq(m.cached_model().unwrap(), &model), "{q}");
                m.publish().unwrap();
                assert!(
                    Arc::ptr_eq(m.cached_model().unwrap(), &model),
                    "{q} ({bits:04b}): the publish after it was not quiet"
                );
            }
        }
    }

    /// The knob-setter audit (write-plane invariant): latency,
    /// parallelism, and query-planning knobs tune *how* an answer is
    /// computed, never *what* the base model is — so toggling every one
    /// of them must leave the published model untouched (same `Arc`, no
    /// pending publish) and keep `answer()` seeded from it. An option the
    /// model does depend on drops the model, and only the model.
    #[test]
    fn knob_toggles_keep_warm_answer_warm() {
        use crate::fault::SourcePolicy;
        use kind_datalog::{CancelToken, EvalOptions};
        let mut m = mediator_with_two_sources();
        let q = "long_spines(X, L) :- X : spines, X[len -> L], L >= 20.";
        let first = m.answer(q).unwrap();
        let before = m.snapshot().unwrap();
        let warm_ptr = Arc::as_ptr(m.cached_model().expect("publish caches the model"));
        m.federation_mut().set_query_budget_ms(250);
        m.federation_mut().set_fetch_threads(2);
        m.federation_mut()
            .set_default_policy(SourcePolicy::with_hedge_after_ms(50));
        for magic_sets in [false, true] {
            m.set_eval_options(EvalOptions {
                magic_sets,
                cancel: Some(CancelToken::new()),
                ..m.eval_options().clone()
            });
        }
        assert!(
            !m.publish_pending(),
            "knob setters must not stage writes or force a rebuild"
        );
        let again = m.answer(q).unwrap();
        assert_eq!(
            Arc::as_ptr(m.cached_model().expect("model still cached")),
            warm_ptr,
            "knob setters invalidated the published model"
        );
        assert_eq!(rendered(&first), rendered(&again));
        assert_eq!(again.rows.len(), 2);
        // The model is a function of `max_term_depth`; the program is not.
        m.set_eval_options(EvalOptions {
            max_term_depth: m.eval_options().max_term_depth + 1,
            ..m.eval_options().clone()
        });
        assert!(!m.publish_pending());
        let after = m.snapshot().unwrap();
        assert!(!std::ptr::eq(before.model(), after.model()));
        assert!(
            std::ptr::eq(before.base(), after.base()),
            "an option change rebuilt the program"
        );
    }

    /// The hub side of the audit: subscribing to the hub and publishing
    /// through it are pointer-copying operations on a quiet mediator —
    /// the cached model `Arc` survives untouched, no write is staged,
    /// and only the hub epoch moves. (The server's own serving knobs —
    /// worker count, queue depth, default budget — live in
    /// `kind-server::ServerConfig` and are audited there: they never
    /// reach the mediator at all.)
    #[test]
    fn hub_publication_keeps_warm_model_warm() {
        let mut m = mediator_with_two_sources();
        m.publish().unwrap();
        let warm_ptr = Arc::as_ptr(m.cached_model().expect("publish caches the model"));
        // Subscribing alone changes nothing.
        let hub = m.hub();
        assert_eq!(hub.epoch(), 0);
        assert!(!m.publish_pending());
        // A subscribed publish installs (epoch 1) but reuses the cached
        // model and stages nothing.
        m.publish().unwrap();
        assert_eq!(hub.epoch(), 1);
        let pinned = hub.load().expect("installed");
        assert_eq!(
            Arc::as_ptr(m.cached_model().expect("model still cached")),
            warm_ptr,
            "hub publication invalidated the published model"
        );
        assert_eq!(
            pinned.model() as *const _,
            warm_ptr,
            "the hub serves the very model the mediator cached"
        );
        // Explicit publish_snapshot: same contract, next epoch.
        let p2 = m.publish_snapshot().unwrap();
        assert_eq!(p2.epoch(), 2);
        assert_eq!(
            Arc::as_ptr(m.cached_model().expect("model still cached")),
            warm_ptr
        );
        assert!(!m.publish_pending());
    }

    /// A rule that is not one clause with a plain head — two clauses, a
    /// molecule head, text that does not parse — is refused when it is
    /// read, before the fetch: the mediator contacts no source and keeps
    /// the last operation's report, and a snapshot's base gains no name
    /// (the refused text was read into a clone).
    #[test]
    fn a_refused_rule_contacts_nothing() {
        let refused = [
            "a(X) :- X : spines. b(X) :- X : proteins.",
            "X : big :- X : spines.",
            "unheard(X) :- X : spines, also_unheard(X",
        ];
        let mut m = mediator_with_two_sources();
        m.answer("p(X) :- X : spines.").unwrap();
        let (queries, report) = (m.stats().source_queries, m.report().clone());
        assert!(queries > 0 && !report.sources.is_empty());
        for text in refused {
            assert!(m.answer(text).is_err(), "{text}");
            assert_eq!(
                m.stats().source_queries,
                queries,
                "{text} contacted a source"
            );
            assert_eq!(m.report(), &report, "{text} replaced the report");
        }
        let snap = m.snapshot().unwrap();
        let symbols = snap.base().flogic().engine().symbols().len();
        for text in refused {
            let opts = snap.eval_options();
            assert!(snap.answer_terms(text, opts).is_err(), "{text}");
            assert_eq!(
                snap.base().flogic().engine().symbols().len(),
                symbols,
                "{text} interned a name into the snapshot"
            );
        }
    }

    #[test]
    fn answer_rejects_multi_clause_input() {
        let mut m = mediator_with_two_sources();
        assert!(m.answer("a(X) :- X : spines. b(X) :- X : spines.").is_err());
    }

    #[test]
    fn answer_rejects_molecule_head() {
        let mut m = mediator_with_two_sources();
        assert!(m.answer("X : big :- X : spines.").is_err());
    }
}
