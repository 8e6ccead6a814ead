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
//! in the same two phases:
//!
//! 1. **fetch** — [`crate::Mediator::answer`] scans the sources exporting
//!    the classes the rule mentions as `X : class` (and only those: the
//!    mediator never contacts an unrelated source);
//!    [`crate::QuerySnapshot::answer_with`] fetches nothing — rows loaded
//!    before the snapshot was taken are what there is to query;
//! 2. **evaluate** — one crate-private function, `evaluate`: the rule and
//!    the fetched rows go into a scratch clone of the frozen base, and
//!    **only the rule subprogram relevant to the answer predicate** is
//!    evaluated there, on top of the published model where that is sound.
//!    The clone is thrown away: a read leaves the base, its rules and the
//!    published model as they were.

use crate::error::{MediatorError, Result};
use crate::fault::AnswerReport;
use crate::federation::FetchBatch;
use crate::mediator::{load_batch, reintern_term};
use kind_datalog::{Atom, DatalogError, EvalOptions, EvalStats, Interner, Model, Term};
use kind_flogic::{parse_fl_program, FlBodyItem, Molecule};
use kind_gcm::GcmBase;
use std::collections::BTreeSet;

/// The outcome of an on-demand query.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// The answer tuples (bindings of the head variables, in head order).
    pub rows: Vec<Vec<Term>>,
    /// Source classes the query mentioned.
    pub classes: Vec<String>,
    /// Sources actually contacted.
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
}

/// A validated one-off rule: exactly one clause with a plain-predicate
/// head, parsed into a scratch symbol table so nothing is committed to
/// any base before the rule's shape is known.
pub(crate) struct OneOffRule<'a> {
    text: &'a str,
    /// The symbol table `head_args` live in.
    syms: Interner,
    head_pred: String,
    head_args: Vec<Term>,
    /// The classes the body mentions as `X : class`.
    pub(crate) classes: BTreeSet<String>,
}

impl<'a> OneOffRule<'a> {
    pub(crate) fn parse(text: &'a str) -> Result<Self> {
        let shape_error = |message: String| {
            MediatorError::Datalog(DatalogError::Parse {
                offset: 0,
                line: 0,
                message,
            })
        };
        let mut syms = Interner::new();
        let clauses = parse_fl_program(text, &mut syms).map_err(MediatorError::from)?;
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
        let mut classes = BTreeSet::new();
        collect_classes(&clause.body, &syms, &mut classes);
        Ok(OneOffRule {
            text,
            head_pred: syms.resolve(head.pred).to_string(),
            head_args: head.args.clone(),
            classes,
            syms,
        })
    }
}

/// What [`evaluate`] produced.
pub(crate) struct Evaluated {
    /// The scratch clone: its symbol table is the one `rows` resolve in
    /// (fetched object ids and the rule's own constants exist only there).
    pub(crate) work: GcmBase,
    /// The goal's answer tuples.
    pub(crate) rows: Vec<Vec<Term>>,
    /// The per-call model: statistics and profile of the answering run.
    pub(crate) model: Model,
}

/// The **evaluate phase** of every one-off query: loads `rule` and the
/// `fetched` rows into a scratch clone of `base` and evaluates towards
/// the rule's head there — goal-directed (`Engine::run_for_query`: the
/// relevance prune plus, when enabled, the magic-sets rewrite), as the
/// delta those loads recorded, walked over `model`: strata the rule and
/// the rows do not touch are read in place instead of recomputed. `base`
/// and `model` are never written to.
///
/// `model` is the published model of `base` — every mutation of `base`
/// is in it, so the clone's changelog starts empty — or `None` to
/// evaluate from the stored facts alone (a mediator with
/// [`EvalOptions::base_cache`] off keeps none current).
pub(crate) fn evaluate(
    rule: &OneOffRule,
    base: &GcmBase,
    model: Option<&Model>,
    fetched: &[FetchBatch],
    opts: &EvalOptions,
) -> Result<Evaluated> {
    let mut work = base.clone();
    work.flogic_mut().engine_mut().begin_delta();
    work.flogic_mut().load(rule.text)?;
    for batch in fetched {
        load_batch(&mut work, &batch.source, &batch.query.class, &batch.rows)?;
    }
    // The goal's constant arguments were interned by the scratch parse;
    // map them into the clone so the pattern (and the magic-sets demand
    // seeds derived from it) bind correctly.
    let goal_args = rule
        .head_args
        .iter()
        .map(|t| reintern_term(&rule.syms, work.flogic_mut().engine_mut(), t))
        .collect();
    let goal = Atom::new(
        work.flogic()
            .engine()
            .lookup(&rule.head_pred)
            .expect("head predicate interned by rule load"),
        goal_args,
    );
    // A head the base program already defines — by a rule or a stored
    // fact, whether or not it derived anything — is not a one-off view
    // over the model: evaluate the clone from its stored facts.
    let delta = work.flogic_mut().engine_mut().take_delta();
    let since = model
        .filter(|_| !base.flogic().engine().defines(&rule.head_pred))
        .zip(delta.as_ref());
    let model = work.flogic_mut().run_for_query(&goal, since, opts)?;
    Ok(Evaluated {
        rows: model.query(&goal),
        work,
        model,
    })
}

fn collect_classes(items: &[FlBodyItem], syms: &Interner, out: &mut BTreeSet<String>) {
    for item in items {
        match item {
            FlBodyItem::Pos(Molecule::IsA {
                class: Term::Const(c),
                ..
            })
            | FlBodyItem::Neg(Molecule::IsA {
                class: Term::Const(c),
                ..
            }) => {
                out.insert(syms.resolve(*c).to_string());
            }
            FlBodyItem::Agg { body, .. } => collect_classes(body, syms, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
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

    fn rendered(m: &Mediator, rows: &[Vec<kind_datalog::Term>]) -> Vec<String> {
        let mut v: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(|t| m.show(t)).collect::<Vec<_>>().join(","))
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
        assert_eq!(rendered(&warm, &w1.rows), rendered(&cold, &c.rows));
        assert_eq!(rendered(&warm, &w1.rows), rendered(&warm, &w2.rows));
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
            assert_eq!(rendered(&warm, &w.rows), rendered(&cold, &c.rows), "{q}");
            assert_eq!(w.rows.len(), rows, "{q}");
            assert_eq!(w.stats, c.stats, "{q} was seeded");
        }
        // The control: a fresh head is seeded, and does less for it.
        let q = "fresh(X) :- X : spines.";
        let (w, c) = (warm.answer(q).unwrap(), cold.answer(q).unwrap());
        assert_eq!(rendered(&warm, &w.rows), rendered(&cold, &c.rows));
        assert!(w.stats.derived < c.stats.derived, "{q} was not seeded");
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
        assert_eq!(rendered(&warm, &w.rows), rendered(&cold, &c.rows));
        assert_eq!(
            rendered(&warm, &w.rows),
            ["A.s2,20", "A.s3,30", "A.staged,50"]
        );
        assert!(
            w.stats.derived < c.stats.derived,
            "the answer was not seeded"
        );
        // The staged row went out with the publish `answer` began with.
        assert!(!warm.publish_pending() && cold.publish_pending());
    }

    /// Reads do not write: whatever the optimization toggles and whatever
    /// the base program says about the head, an answer leaves no staged
    /// write, no rule, and the published model where it was.
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
            for q in queries {
                let ans = m.answer(q).unwrap();
                assert!(!ans.rows.is_empty(), "{q} ({bits:04b})");
                assert!(!m.publish_pending(), "{q} ({bits:04b}) staged a write");
                assert_eq!(m.base().flogic().engine().rules().len(), rules, "{q}");
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
        assert_eq!(rendered(&m, &first.rows), rendered(&m, &again.rows));
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
