//! # kind-flogic — the F-logic fragment hosting the GCM
//!
//! The paper picks F-logic (FL) as the concrete Generic Conceptual Model:
//! *"with FL we get a GCM formalism 'for free' … FL natively contains all
//! of the above-mentioned GCM concepts"* (§3). This crate implements the
//! FL fragment of **Table 1**: molecules `X : C`, `C1 :: C2`,
//! `X[M -> Y]`, `C[M => CM]`, a parser for the FL surface syntax the paper
//! writes its rules in, lowering to `kind-datalog`, and the core FL
//! axioms:
//!
//! ```text
//! C :: C            :- C : class.          (reflexivity of ::)
//! C1 :: C2          :- C1 :: C3, C3 :: C2. (transitivity of ::)
//! X : C2            :- X : C1, C1 :: C2.   (upward propagation of :)
//! C1[M => R]        :- C1 :: C2, C2[M => R]. (signature inheritance)
//! ```
//!
//! plus an optional **nonmonotonic value inheritance** module (defaults
//! overridden by more specific classes or explicit values — the paper's
//! "nonmonotonic inheritance, e.g. using FL with well-founded semantics",
//! §4).
//!
//! ```
//! use kind_flogic::FLogic;
//!
//! let mut fl = FLogic::new();
//! fl.load(
//!     "spiny_neuron :: neuron.
//!      purkinje_cell :: spiny_neuron.
//!      p1 : purkinje_cell.
//!      p1[size -> 42].
//!      big(X) :- X : neuron, X[size -> S], S > 10.",
//! ).unwrap();
//! let m = fl.run().unwrap();
//! // p1 is a neuron by upward propagation along ::
//! assert!(fl.instances_of(&m, "neuron").contains(&"p1".to_string()));
//! assert_eq!(fl.query(&m, "big(X)").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod parser;
pub mod translate;

pub use ast::{ArrowKind, MethodSpec, Molecule};
pub use parser::{parse_fl_molecule, parse_fl_program, FlBodyItem, FlClause};
pub use translate::{implied_classes, lower_clause, lower_clause_named, molecule_atoms, Preds};

use kind_datalog::parser::{remap_atom, remap_term};
use kind_datalog::{Atom, DatalogError, Engine, EngineDelta, EvalOptions, Interner, Model, Term};

/// Core FL axioms of Table 1 (right column), in Datalog syntax over the
/// reserved predicates.
///
/// The `class/1` registry is **extensional**: every entry point that can
/// mention a class — molecule lowering ([`translate::implied_classes`],
/// applied to facts *and* ground rule-head classes), [`FLogic::declare_subclass`],
/// [`FLogic::assert_instance`] — registers it eagerly, so no axiom
/// derives `class` from `sub`/`inst`. This keeps `class`, `sub`, and
/// `inst` in *separate strata* (class ≺ sub ≺ inst) instead of one big
/// mutually recursive component, which matters for goal-directed
/// evaluation: the magic-sets rewrite can then propagate demand
/// directionally (e.g. downward through `sub` for an anchored instance
/// query) instead of having a bound `class` subgoal drag in the reversed
/// closure of the whole hierarchy.
pub const CORE_AXIOMS: &str = "
    % reflexivity of :: over registered classes
    sub(C, C) :- class(C).
    % transitivity of ::
    sub(C1, C2) :- sub(C1, C3), sub(C3, C2).
    % upward propagation of : along ::
    inst(X, C2) :- inst(X, C1), sub(C1, C2).
    % structural (signature) inheritance down the hierarchy
    meth(C1, M, R) :- sub(C1, C2), meth(C2, M, R).
";

/// Nonmonotonic value-inheritance axioms: `val(X, M, V)` is the effective
/// method value — explicit `mi` if present, otherwise the default of the
/// most specific class carrying one.
pub const INHERITANCE_AXIOMS: &str = "
    val(X, M, V) :- mi(X, M, V).
    val(X, M, V) :- inst(X, C), default(C, M, V),
                    not has_mi(X, M), not shadowed(X, C, M).
    has_mi(X, M) :- mi(X, M, _).
    % a default at C is shadowed for X if a strictly more specific class
    % of X also declares a default for M
    shadowed(X, C, M) :- inst(X, C1), default(C1, M, _),
                         strict_sub(C1, C), inst(X, C).
    strict_sub(C1, C2) :- sub(C1, C2), C1 != C2, not sub(C2, C1).
";

/// An F-logic knowledge base: an [`Engine`] plus the reserved-predicate
/// table and the core axioms.
#[derive(Debug, Clone)]
pub struct FLogic {
    engine: Engine,
    preds: Preds,
}

impl Default for FLogic {
    fn default() -> Self {
        Self::new()
    }
}

impl FLogic {
    /// Creates a knowledge base with the core axioms installed.
    pub fn new() -> Self {
        let mut engine = Engine::new();
        let preds = Preds::intern(engine.symbols_mut());
        engine
            .load(CORE_AXIOMS)
            .expect("core axioms are well-formed");
        FLogic { engine, preds }
    }

    /// Additionally installs the nonmonotonic value-inheritance module.
    pub fn with_inheritance() -> Self {
        let mut fl = Self::new();
        fl.engine
            .load(INHERITANCE_AXIOMS)
            .expect("inheritance axioms are well-formed");
        fl
    }

    /// The reserved predicate symbols.
    pub fn preds(&self) -> &Preds {
        &self.preds
    }

    /// Escape hatch to the underlying Datalog engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable escape hatch.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Loads FL program text (facts and rules in FL syntax).
    pub fn load(&mut self, src: &str) -> Result<(), DatalogError> {
        let clauses = parser::parse_fl_program(src, self.engine.symbols_mut())?;
        for clause in clauses {
            self.add_clause(&clause)?;
        }
        Ok(())
    }

    /// Adds one parsed FL clause.
    pub fn add_clause(&mut self, clause: &FlClause) -> Result<(), DatalogError> {
        let (facts, rules) =
            translate::lower_clause_named(clause, &self.preds, self.engine.symbols())?;
        for f in facts {
            self.engine.add_fact(f.pred, f.args)?;
        }
        for r in rules {
            self.engine.add_rule(r)?;
        }
        // Register implied classes so `::` reflexivity covers them. Rule
        // heads count too: a rule `sk(X) : c :- ...` mentions `c` as a
        // class even though the fact is derived (the registry is
        // extensional — see [`CORE_AXIOMS`]). Only ground class terms
        // register; a variable class position contributes nothing here.
        for c in translate::implied_classes(&clause.head) {
            if c.is_ground() {
                self.engine.add_fact(self.preds.class, vec![c])?;
            }
        }
        Ok(())
    }

    /// Loads plain Datalog text (for constraint rules written directly
    /// against the reserved predicates).
    pub fn load_datalog(&mut self, src: &str) -> Result<(), DatalogError> {
        self.engine.load(src)
    }

    /// Declares a class.
    pub fn declare_class(&mut self, name: &str) -> Result<(), DatalogError> {
        let c = self.engine.constant(name);
        self.engine.add_fact(self.preds.class, vec![c]).map(|_| ())
    }

    /// Declares `sub :: sup` (both sides register as classes).
    pub fn declare_subclass(&mut self, sub: &str, sup: &str) -> Result<(), DatalogError> {
        let s = self.engine.constant(sub);
        let p = self.engine.constant(sup);
        self.engine.add_fact(self.preds.class, vec![s.clone()])?;
        self.engine.add_fact(self.preds.class, vec![p.clone()])?;
        self.engine.add_fact(self.preds.sub, vec![s, p]).map(|_| ())
    }

    /// Asserts `obj : class` (the class registers as a class) and returns
    /// the object's term, so a caller with method values to assert for it
    /// interns the id once.
    pub fn assert_instance(&mut self, obj: &str, class: &str) -> Result<Term, DatalogError> {
        let o = self.engine.constant(obj);
        let c = self.engine.constant(class);
        self.engine.add_fact(self.preds.class, vec![c.clone()])?;
        self.engine.add_fact(self.preds.inst, vec![o.clone(), c])?;
        Ok(o)
    }

    /// Asserts a ground method value `obj[m -> v]`.
    pub fn assert_method(
        &mut self,
        obj: Term,
        method: &str,
        value: Term,
    ) -> Result<(), DatalogError> {
        let m = self.engine.constant(method);
        self.engine
            .add_fact(self.preds.mi, vec![obj, m, value])
            .map(|_| ())
    }

    /// Retracts `obj : class`, returning the object's term and whether
    /// the fact was present. The class's own declaration stays — other
    /// instances may use it.
    pub fn retract_instance(&mut self, obj: &str, class: &str) -> (Term, bool) {
        let o = self.engine.constant(obj);
        let c = self.engine.constant(class);
        let removed = self.engine.remove_fact(self.preds.inst, &[o.clone(), c]);
        (o, removed)
    }

    /// Retracts a ground method value `obj[m -> v]`, returning whether
    /// the fact was present.
    pub fn retract_method(&mut self, obj: Term, method: &str, value: Term) -> bool {
        let m = self.engine.constant(method);
        self.engine.remove_fact(self.preds.mi, &[obj, m, value])
    }

    /// Evaluates the knowledge base with default options.
    pub fn run(&self) -> Result<Model, DatalogError> {
        self.engine.run(&EvalOptions::default())
    }

    /// Evaluates with explicit options.
    pub fn run_with(&self, opts: &EvalOptions) -> Result<Model, DatalogError> {
        self.engine.run(opts)
    }

    /// Evaluates a single goal atom demand-driven (see
    /// `kind_datalog::Engine::run_for_query`): the rule set is pruned to
    /// the goal's reachable subprogram, the magic-sets rewrite specializes
    /// it to the goal's constant bindings, and with `since` — a cached
    /// model and the delta the engine recorded from it to now — only the
    /// strata that delta reaches are evaluated. Takes `&mut self` because
    /// the rewrite interns adorned predicate names.
    pub fn run_for_query(
        &mut self,
        goal: &Atom,
        since: Option<(&Model, &EngineDelta)>,
        opts: &EvalOptions,
    ) -> Result<Model, DatalogError> {
        self.engine.run_for_query(goal, since, opts)
    }

    /// Names of all instances of `class` in the model.
    pub fn instances_of(&self, model: &Model, class: &str) -> Vec<String> {
        let Some(c) = self.engine.lookup(class) else {
            return Vec::new();
        };
        let c = Term::Const(c);
        let mut out = Vec::new();
        for tuple in model.tuples(self.preds.inst) {
            if tuple.len() == 2 && tuple[1] == c {
                out.push(self.engine.show(&tuple[0]));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Whether `obj : class` holds in the model.
    pub fn is_instance(&self, model: &Model, obj: &str, class: &str) -> bool {
        let (Some(o), Some(c)) = (self.engine.lookup(obj), self.engine.lookup(class)) else {
            return false;
        };
        model.holds(self.preds.inst, &[Term::Const(o), Term::Const(c)])
    }

    /// Whether `sub :: sup` holds in the model.
    pub fn is_subclass(&self, model: &Model, sub: &str, sup: &str) -> bool {
        let (Some(s), Some(p)) = (self.engine.lookup(sub), self.engine.lookup(sup)) else {
            return false;
        };
        model.holds(self.preds.sub, &[Term::Const(s), Term::Const(p)])
    }

    /// All `(method, value)` pairs of `obj` in the model.
    pub fn method_values(&self, model: &Model, obj: &str) -> Vec<(String, String)> {
        let Some(o) = self.engine.lookup(obj) else {
            return Vec::new();
        };
        let o = Term::Const(o);
        let mut out = Vec::new();
        for tuple in model.tuples(self.preds.mi) {
            if tuple.len() == 3 && tuple[0] == o {
                out.push((self.engine.show(&tuple[1]), self.engine.show(&tuple[2])));
            }
        }
        out.sort();
        out
    }

    /// The witnesses currently in the inconsistency class `ic` — the
    /// paper's integrity-constraint mechanism (§3 IC). Empty means the
    /// model satisfies every denial.
    pub fn inconsistency_witnesses(&self, model: &Model) -> Vec<String> {
        let mut out = Vec::new();
        for tuple in model.tuples(self.preds.icw) {
            if tuple.len() == 1 {
                out.push(self.engine.show(&tuple[0]));
            }
        }
        out.sort();
        out
    }

    /// Parses an FL molecule for asking: into a scratch symbol table,
    /// then remapped onto this knowledge base's own without interning
    /// (`kind_datalog::parser::remap_term`). `None` when it mentions a
    /// constant or predicate this base has never seen — such a molecule
    /// can match nothing. It must translate to a single atom.
    fn ask(&self, molecule: &str) -> Result<Option<Atom>, DatalogError> {
        let mut scratch = Interner::new();
        let (mol, _) = parser::parse_fl_molecule(molecule, &mut scratch)?;
        let Some(mol) = remap_molecule(&mol, &scratch, self.engine.symbols()) else {
            return Ok(None);
        };
        let mut atoms = translate::molecule_atoms(&mol, &self.preds);
        if atoms.len() != 1 {
            return Err(DatalogError::Parse {
                offset: 0,
                line: 0,
                message: "a molecule to ask about must translate to a single atom".to_string(),
            });
        }
        Ok(atoms.pop())
    }

    /// Explains why an FL molecule fact holds in a model: returns the
    /// rendered derivation tree, or `None` when it does not hold. The
    /// molecule must be ground and translate to a single atom.
    pub fn explain(
        &self,
        model: &Model,
        fact: &str,
        max_depth: usize,
    ) -> Result<Option<String>, DatalogError> {
        Ok(self.ask(fact)?.and_then(|atom| {
            self.engine
                .explain(model, atom.pred, &atom.args, max_depth)
                .map(|d| self.engine.render_derivation(&d))
        }))
    }

    /// Runs an FL molecule query (e.g. `"X : neuron"`) against a model,
    /// returning one substituted argument vector per solution. Asking
    /// never interns: a constant or predicate this base has never seen
    /// yields no rows. Because it takes `&self`, many threads can query
    /// one shared `FLogic` + [`Model`] concurrently — the hot path of
    /// `kind-core`'s `QuerySnapshot`.
    pub fn query(&self, model: &Model, pattern: &str) -> Result<Vec<Vec<Term>>, DatalogError> {
        Ok(self
            .ask(pattern)?
            .map(|atom| model.query(&atom))
            .unwrap_or_default())
    }
}

/// [`remap_term`] lifted over molecules.
fn remap_molecule(mol: &Molecule, from: &Interner, to: &Interner) -> Option<Molecule> {
    match mol {
        Molecule::IsA { obj, class } => Some(Molecule::IsA {
            obj: remap_term(obj, from, to)?,
            class: remap_term(class, from, to)?,
        }),
        Molecule::SubClass { sub, sup } => Some(Molecule::SubClass {
            sub: remap_term(sub, from, to)?,
            sup: remap_term(sup, from, to)?,
        }),
        Molecule::Frame { obj, specs } => {
            let obj = remap_term(obj, from, to)?;
            let specs = specs
                .iter()
                .map(|s| {
                    Some(MethodSpec {
                        method: remap_term(&s.method, from, to)?,
                        arrow: s.arrow,
                        value: remap_term(&s.value, from, to)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Molecule::Frame { obj, specs })
        }
        Molecule::Plain(a) => remap_atom(a, from, to).map(Molecule::Plain),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_axioms_reflexive_transitive_subclass() {
        let mut fl = FLogic::new();
        fl.load(
            "purkinje_cell :: spiny_neuron.
             spiny_neuron :: neuron.
             neuron :: cell.",
        )
        .unwrap();
        let m = fl.run().unwrap();
        // Transitivity.
        assert!(fl.is_subclass(&m, "purkinje_cell", "cell"));
        // Reflexivity (C :: C for every class).
        assert!(fl.is_subclass(&m, "neuron", "neuron"));
        assert!(fl.is_subclass(&m, "purkinje_cell", "purkinje_cell"));
        // No downward edges invented.
        assert!(!fl.is_subclass(&m, "cell", "purkinje_cell"));
    }

    #[test]
    fn table1_axioms_instance_propagation() {
        let mut fl = FLogic::new();
        fl.load(
            "purkinje_cell :: spiny_neuron. spiny_neuron :: neuron.
             p1 : purkinje_cell.",
        )
        .unwrap();
        let m = fl.run().unwrap();
        assert!(fl.is_instance(&m, "p1", "purkinje_cell"));
        assert!(fl.is_instance(&m, "p1", "spiny_neuron"));
        assert!(fl.is_instance(&m, "p1", "neuron"));
    }

    #[test]
    fn signature_inheritance() {
        let mut fl = FLogic::new();
        fl.load(
            "neuron[has => compartment].
             spiny_neuron :: neuron.",
        )
        .unwrap();
        let m = fl.run().unwrap();
        let e = fl.engine();
        let sols = e
            .query_model(&m, "meth(spiny_neuron, has, compartment)")
            .unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn rules_over_molecules() {
        let mut fl = FLogic::new();
        fl.load(
            "n1 : neuron. n2 : neuron.
             n1[size -> 42]. n2[size -> 5].
             big(X) :- X : neuron, X[size -> S], S > 10.",
        )
        .unwrap();
        let m = fl.run().unwrap();
        let sols = fl.query(&m, "big(X)").unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn ic_witnesses_surface() {
        let mut fl = FLogic::new();
        // A denial in the paper's style: every neuron must have a soma.
        fl.load(
            "n1 : neuron. n2 : neuron.
             n1[has -> soma1]. soma1 : soma.
             w_nosoma(X) : ic :- X : neuron, not has_soma(X).
             has_soma(X) :- X[has -> S], S : soma.",
        )
        .unwrap();
        let m = fl.run().unwrap();
        let wit = fl.inconsistency_witnesses(&m);
        assert_eq!(wit, vec!["w_nosoma(n2)"]);
    }

    #[test]
    fn nonmonotonic_default_inheritance() {
        let mut fl = FLogic::with_inheritance();
        fl.load(
            "medium_spiny_neuron :: neuron.
             m1 : medium_spiny_neuron.
             m2 : medium_spiny_neuron.
             m2[spine_density -> 99].",
        )
        .unwrap();
        // Defaults: neurons have density 10; medium spiny neurons 50.
        fl.load_datalog(
            "default(neuron, spine_density, 10).
             default(medium_spiny_neuron, spine_density, 50).",
        )
        .unwrap();
        let m = fl.run().unwrap();
        let e = fl.engine();
        // m1: most specific default wins (50 shadows 10).
        let v1 = e.query_model(&m, "val(m1, spine_density, V)").unwrap();
        assert_eq!(v1.len(), 1);
        assert_eq!(v1[0][2], Term::Int(50));
        // m2: explicit value wins over any default.
        let v2 = e.query_model(&m, "val(m2, spine_density, V)").unwrap();
        assert_eq!(v2.len(), 1);
        assert_eq!(v2[0][2], Term::Int(99));
    }

    #[test]
    fn asking_interns_nothing_and_unknown_symbols_match_nothing() {
        let mut fl = FLogic::new();
        fl.load(
            "n1 : neuron. n2 : neuron.
             n1[size -> 42].",
        )
        .unwrap();
        let m = fl.run().unwrap();
        let before = fl.engine().symbols().len();
        assert_eq!(fl.query(&m, "X : neuron").unwrap().len(), 2);
        assert_eq!(fl.query(&m, "X[size -> V]").unwrap().len(), 1);
        assert!(fl.query(&m, "X : no_such_class").unwrap().is_empty());
        assert!(fl.query(&m, "no_such_pred(X)").unwrap().is_empty());
        assert!(fl.explain(&m, "n1 : neuron", 4).unwrap().is_some());
        assert!(fl.explain(&m, "n1 : no_such_class", 4).unwrap().is_none());
        assert!(fl.engine().query_model(&m, "nope(X)").unwrap().is_empty());
        assert_eq!(fl.engine().symbols().len(), before);
    }

    #[test]
    fn schema_level_queries() {
        // "This example also shows the power of schema reasoning in FL"
        // (Example 2): variables may range over classes and relations.
        let mut fl = FLogic::new();
        fl.load(
            "purkinje_cell :: spiny_neuron. pyramidal_cell :: spiny_neuron.
             spiny_neuron :: neuron.
             spiny(C) :- C :: spiny_neuron, C != spiny_neuron.",
        )
        .unwrap();
        let m = fl.run().unwrap();
        let sols = fl.query(&m, "spiny(C)").unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn method_values_accessor() {
        let mut fl = FLogic::new();
        fl.load(r#"n1[species -> "rat"; size -> 42]."#).unwrap();
        let m = fl.run().unwrap();
        let vals = fl.method_values(&m, "n1");
        assert_eq!(vals.len(), 2);
        assert!(vals.contains(&("species".to_string(), "rat".to_string())));
    }

    #[test]
    fn builder_api_matches_text_api() {
        let mut fl1 = FLogic::new();
        fl1.load("n1 : neuron. neuron :: cell.").unwrap();
        let mut fl2 = FLogic::new();
        fl2.assert_instance("n1", "neuron").unwrap();
        fl2.declare_subclass("neuron", "cell").unwrap();
        fl2.declare_class("neuron").unwrap();
        fl2.declare_class("cell").unwrap();
        let m1 = fl1.run().unwrap();
        let m2 = fl2.run().unwrap();
        assert_eq!(
            fl1.is_instance(&m1, "n1", "cell"),
            fl2.is_instance(&m2, "n1", "cell")
        );
        assert!(fl1.is_instance(&m1, "n1", "cell"));
    }
}
