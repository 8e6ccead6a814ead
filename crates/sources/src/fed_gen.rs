//! A seeded **federation generator** and a **rule generator** over it,
//! for the end-to-end answer oracle (`tests/answer_oracle.rs`): a
//! generated domain map ([`crate::dm_gen`]) with `k` sources registered
//! against it, and one-off rules that read their classes, select and
//! join on their attributes, reach into the map and negate.
//!
//! * Each source exports its CM in one of the four plug-in formalisms
//!   (ER, UXF/UML, RDFS, native GCM), with 1–3 classes of 2–4
//!   attributes. The first attribute of every class is its anchor
//!   (`Anchor::ByAttr`), whose values are concepts of the map; the others
//!   hold skewed integers or skewed names.
//! * A source's first two classes share some objects (the same row ids),
//!   so that `not X : c` can bite. A class that shares none may sit below
//!   a map concept in its CM (`sub :: concept`), so the map's instance
//!   rules reach its objects.
//! * Attribute names are unique to their class, and a shared object's
//!   classes sit below no concept: every fact about an object the rule
//!   can read comes from the classes the rule names, so an answer that
//!   fetches only those classes sees what a materialized federation sees.
//!
//! Deterministic per seed (`compat/rand`'s SplitMix64); nothing here
//! reads a clock or the environment.

use crate::dm_gen::{generate_sized, GeneratedMap};
use kind_core::{Anchor, Capability, Mediator, MemoryWrapper, Wrapper};
use kind_dm::ExecMode;
use kind_gcm::GcmValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::sync::Arc;

/// The size parameter: how many sources, rows and concepts.
#[derive(Debug, Clone, Copy)]
pub struct FedParams {
    /// Sources registered (at least 1).
    pub sources: usize,
    /// The most rows a class holds; each holds between half that and it.
    pub rows: usize,
    /// Named concepts of the map.
    pub concepts: usize,
}

impl Default for FedParams {
    fn default() -> Self {
        FedParams {
            sources: 3,
            rows: 6,
            concepts: 10,
        }
    }
}

/// One exported class of a generated source.
#[derive(Debug, Clone)]
pub struct GenClass {
    /// The exporting source.
    pub source: String,
    /// The class name (unique in the federation).
    pub name: String,
    /// `(attribute, holds integers)`; the first is the anchor attribute,
    /// whose values are map concepts.
    pub attrs: Vec<(String, bool)>,
    /// The map concept the CM puts the class below, if any.
    pub concept: Option<String>,
    /// The values its rows hold per attribute, in `attrs` order (for
    /// selections that hit).
    pub values: Vec<Vec<GcmValue>>,
}

/// A generated federation: the map, the execution mode and the sources'
/// wrappers. [`Self::mediator`] registers them on a fresh mediator.
#[derive(Debug, Clone)]
pub struct GeneratedFederation {
    /// The domain map the sources anchor in.
    pub map: GeneratedMap,
    /// How the map's edges are executed.
    pub mode: ExecMode,
    /// Every class of every source, sources in registration order.
    pub classes: Vec<GenClass>,
    wrappers: Vec<MemoryWrapper>,
}

/// Generates the federation for `seed` at `size`.
pub fn generate(seed: u64, size: &FedParams) -> GeneratedFederation {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0066_6564_5f67_656e);
    let map = generate_sized(seed, size.concepts);
    let mode = if rng.gen_bool(0.5) {
        ExecMode::Assertion
    } else {
        ExecMode::Constraint
    };
    let concept = |i: usize| format!("c{i}");
    let n = map.concepts.len();
    let (mut classes, mut wrappers) = (Vec::new(), Vec::new());
    for s in 0..size.sources.max(1) {
        let name = format!("S{s}");
        let formalism = ["er", "uxf", "rdfs", "gcm"][rng.gen_range(0..4)];
        let mut w = MemoryWrapper::new(name.as_str());
        w.formalism = formalism.into();
        let class_count = rng.gen_range(1usize..4);
        let shared = class_count >= 2 && rng.gen_bool(0.7);
        let mut own = Vec::new();
        for k in 0..class_count {
            let class = format!("s{s}k{k}");
            let mut attrs = vec![(format!("{class}_loc"), false)];
            for a in 1..rng.gen_range(2usize..5) {
                attrs.push((format!("{class}_a{a}"), rng.gen_bool(0.6)));
            }
            let sharing = shared && k < 2;
            let below = (!sharing && rng.gen_bool(0.6)).then(|| concept(rng.gen_range(0..n)));
            let rows = rng.gen_range(size.rows / 2..size.rows + 1).max(1);
            // The second shared class numbers its objects from a random
            // offset into the first's, so the two overlap in part; every
            // other class's ids are its own.
            let offset = if sharing && k == 1 {
                rng.gen_range(0..rows)
            } else {
                0
            };
            let mut values = vec![Vec::new(); attrs.len()];
            for r in 0..rows {
                let id = if sharing {
                    format!("o{}", r + offset)
                } else {
                    format!("k{k}o{r}")
                };
                let row: Vec<(&str, GcmValue)> = attrs
                    .iter()
                    .enumerate()
                    .map(|(a, (attr, int))| {
                        let v = match (a, int) {
                            (0, _) => GcmValue::Id(concept(skewed(&mut rng, n))),
                            (_, true) => GcmValue::Int(skewed(&mut rng, 6) as i64),
                            (_, false) => GcmValue::Id(format!("v{}", skewed(&mut rng, 4))),
                        };
                        values[a].push(v.clone());
                        (attr.as_str(), v)
                    })
                    .collect();
                w.add_row(&class, &id, row);
            }
            w.caps.push(Capability {
                class: class.clone(),
                pushable: Vec::new(),
            });
            w.anchor_decls.push(Anchor::ByAttr {
                class: class.clone(),
                attr: attrs[0].0.clone(),
            });
            own.push(GenClass {
                source: name.clone(),
                name: class,
                attrs,
                concept: below,
                values,
            });
        }
        w.cm = Some(
            kind_xml::parse(&cm_export(&name, formalism, &own))
                .expect("generated CM parses")
                .root,
        );
        classes.extend(own);
        wrappers.push(w);
    }
    GeneratedFederation {
        map,
        mode,
        classes,
        wrappers,
    }
}

/// A draw from `0..n` skewed towards 0 (the smaller of two uniform
/// draws: value `i` comes up with weight `2(n − i) − 1`).
fn skewed(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n).min(rng.gen_range(0..n))
}

/// The CM export of one source's classes in `formalism`.
fn cm_export(source: &str, formalism: &str, classes: &[GenClass]) -> String {
    let mut x = String::new();
    let ty = |int: bool| if int { "int" } else { "string" };
    let root = match formalism {
        "er" => "er",
        "uxf" => "uxf",
        "rdfs" => "rdf",
        _ => "gcm",
    };
    let _ = write!(x, "<{root} name=\"{source}\">");
    for c in classes {
        let name = &c.name;
        match formalism {
            "er" => {
                let _ = write!(x, "<entity name=\"{name}\">");
                for (a, int) in &c.attrs {
                    let _ = write!(x, "<attribute name=\"{a}\" domain=\"{}\"/>", ty(*int));
                }
                x.push_str("</entity>");
                if let Some(sup) = &c.concept {
                    let _ = write!(x, "<isa sub=\"{name}\" sup=\"{sup}\"/>");
                }
            }
            "uxf" => {
                let _ = write!(x, "<class name=\"{name}\">");
                if let Some(sup) = &c.concept {
                    let _ = write!(x, "<inherits from=\"{sup}\"/>");
                }
                for (a, int) in &c.attrs {
                    let _ = write!(x, "<attribute name=\"{a}\" type=\"{}\"/>", ty(*int));
                }
                x.push_str("</class>");
            }
            "rdfs" => {
                let _ = write!(x, "<rdfs:Class rdf:ID=\"{name}\">");
                if let Some(sup) = &c.concept {
                    let _ = write!(x, "<rdfs:subClassOf rdf:resource=\"{sup}\"/>");
                }
                x.push_str("</rdfs:Class>");
                for (a, _) in &c.attrs {
                    let _ = write!(
                        x,
                        "<rdf:Property rdf:ID=\"{a}\"><rdfs:domain rdf:resource=\"{name}\"/>\
                         <rdfs:range rdf:resource=\"literal\"/></rdf:Property>"
                    );
                }
            }
            _ => {
                let _ = write!(x, "<class name=\"{name}\"/>");
                if let Some(sup) = &c.concept {
                    let _ = write!(x, "<subclass sub=\"{name}\" sup=\"{sup}\"/>");
                }
                for (a, int) in &c.attrs {
                    let _ = write!(
                        x,
                        "<method class=\"{name}\" name=\"{a}\" result=\"{}\"/>",
                        ty(*int)
                    );
                }
            }
        }
    }
    let _ = write!(x, "</{root}>");
    x
}

impl GeneratedFederation {
    /// A fresh mediator over the map with every source registered, in
    /// order.
    pub fn mediator(&self) -> Mediator {
        let mut m = Mediator::new(self.map.dm.clone(), self.mode);
        for w in &self.wrappers {
            m.register(Arc::new(w.clone()) as Arc<dyn Wrapper>)
                .unwrap_or_else(|e| panic!("{} registers: {e}", w.name));
        }
        m
    }

    /// Generates a one-off rule over this federation for `seed`.
    pub fn rule(&self, seed: u64) -> GeneratedRule {
        RuleGen {
            fed: self,
            rng: StdRng::seed_from_u64(seed ^ 0x7275_6c65),
            body: Vec::new(),
            vars: Vec::new(),
        }
        .generate()
    }
}

/// An argument of a generated literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// The variable `V<i>`.
    Var(usize),
    /// A name constant.
    Name(String),
    /// An integer constant.
    Int(i64),
}

/// A comparison of a generated rule: `V op n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `!=`
    Ne,
}

/// One body literal of a generated rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `V : class`, or `inst(V, class)` when `as_inst`.
    Class {
        /// The object variable.
        var: usize,
        /// The class (a source class or a map concept).
        class: String,
        /// Written as an `inst` atom.
        as_inst: bool,
    },
    /// `V[attr -> value]`.
    Attr {
        /// The object variable.
        var: usize,
        /// The attribute.
        attr: String,
        /// What it holds.
        value: Arg,
    },
    /// `has_a_star(a, b)`.
    HasAStar(Arg, Arg),
    /// `dc("role", a, b)`.
    Dc(String, Arg, Arg),
    /// `V op n`.
    Cmp(usize, Cmp, i64),
    /// `not V : class`, `V` bound by a positive literal.
    Not(usize, String),
}

/// A generated one-off rule: `ans(head) :- body.` as data and as text.
#[derive(Debug, Clone)]
pub struct GeneratedRule {
    /// The head's variables, in order.
    pub head: Vec<usize>,
    /// The body, in order: every variable is bound by a positive literal
    /// before a comparison or a negation reads it.
    pub body: Vec<Literal>,
    /// The rule text.
    pub text: String,
}

/// What a variable of a rule being generated stands for.
#[derive(Clone)]
enum VarKind {
    /// An object of this class (an index into the federation's classes).
    Object(usize),
    /// A value of an attribute: an integer, a name, or a map concept.
    Int,
    Name,
    Concept,
}

struct RuleGen<'a> {
    fed: &'a GeneratedFederation,
    rng: StdRng,
    body: Vec<Literal>,
    vars: Vec<VarKind>,
}

impl RuleGen<'_> {
    fn var(&mut self, kind: VarKind) -> usize {
        self.vars.push(kind);
        self.vars.len() - 1
    }

    fn generate(mut self) -> GeneratedRule {
        let classes = &self.fed.classes;
        // 1–3 class atoms; a second atom on a class of the same source
        // sometimes reuses the object variable (shared objects).
        let mut objects: Vec<usize> = Vec::new();
        for _ in 0..self.rng.gen_range(1usize..4) {
            let c = self.rng.gen_range(0..classes.len());
            let same_source = objects.iter().copied().find(|&o| {
                matches!(self.vars[o], VarKind::Object(oc) if oc != c
                    && classes[oc].source == classes[c].source)
            });
            let var = match same_source {
                Some(o) if self.rng.gen_bool(0.6) => o,
                _ => {
                    let v = self.var(VarKind::Object(c));
                    objects.push(v);
                    v
                }
            };
            let as_inst = self.rng.gen_bool(0.5);
            self.body.push(Literal::Class {
                var,
                class: classes[c].name.clone(),
                as_inst,
            });
            self.attrs(var, c);
        }
        // A map region: membership in a concept, or a closure over the
        // anchors' concepts.
        if self.rng.gen_bool(0.7) {
            self.region(&objects);
        }
        let ints: Vec<usize> = (0..self.vars.len())
            .filter(|&v| matches!(self.vars[v], VarKind::Int))
            .collect();
        if !ints.is_empty() && self.rng.gen_bool(0.5) {
            let v = ints[self.rng.gen_range(0..ints.len())];
            let op = [Cmp::Lt, Cmp::Ge, Cmp::Ne][self.rng.gen_range(0..3)];
            let n = self.rng.gen_range(0..5);
            self.body.push(Literal::Cmp(v, op, n));
        }
        if self.rng.gen_bool(0.4) {
            let o = objects[self.rng.gen_range(0..objects.len())];
            let class = self.negated_class(o);
            self.body.push(Literal::Not(o, class));
        }
        let mut head: Vec<usize> = (0..self.vars.len())
            .filter(|_| self.rng.gen_bool(0.5))
            .collect();
        if head.is_empty() {
            head.push(self.rng.gen_range(0..self.vars.len()));
        }
        head.truncate(3);
        let text = render(&head, &self.body);
        GeneratedRule {
            head,
            body: self.body,
            text,
        }
    }

    /// 0–2 attribute atoms on `var`, an object of class `c`: a fresh
    /// variable, a constant selection, or a join on a variable of the same
    /// kind.
    fn attrs(&mut self, var: usize, c: usize) {
        let class = &self.fed.classes[c];
        for _ in 0..self.rng.gen_range(0usize..3) {
            let a = self.rng.gen_range(0..class.attrs.len());
            let (attr, int) = class.attrs[a].clone();
            let kind = match (a, int) {
                (0, _) => VarKind::Concept,
                (_, true) => VarKind::Int,
                (_, false) => VarKind::Name,
            };
            let same: Vec<usize> = (0..self.vars.len())
                .filter(|&v| std::mem::discriminant(&self.vars[v]) == std::mem::discriminant(&kind))
                .collect();
            let value = match self.rng.gen_range(0u32..10) {
                0..=2 => match &class.values[a][self.rng.gen_range(0..class.values[a].len())] {
                    GcmValue::Int(i) => Arg::Int(*i),
                    GcmValue::Id(s) | GcmValue::Str(s) => Arg::Name(s.clone()),
                },
                3..=4 if !same.is_empty() => Arg::Var(same[self.rng.gen_range(0..same.len())]),
                _ => Arg::Var(self.var(kind)),
            };
            self.body.push(Literal::Attr { var, attr, value });
        }
    }

    fn concept(&mut self) -> Arg {
        Arg::Name(format!(
            "c{}",
            self.rng.gen_range(0..self.fed.map.concepts.len())
        ))
    }

    /// One region literal: `V : concept` on an object variable, or a
    /// `has_a_star` / `dc` pair over anchor concepts and constants.
    fn region(&mut self, objects: &[usize]) {
        let anchors: Vec<usize> = (0..self.vars.len())
            .filter(|&v| matches!(self.vars[v], VarKind::Concept))
            .collect();
        let end = |g: &mut Self| {
            if anchors.is_empty() || g.rng.gen_bool(0.3) {
                g.concept()
            } else {
                Arg::Var(anchors[g.rng.gen_range(0..anchors.len())])
            }
        };
        let lit = match self.rng.gen_range(0u32..3) {
            0 => Literal::Class {
                var: objects[self.rng.gen_range(0..objects.len())],
                class: match self.concept() {
                    Arg::Name(c) => c,
                    _ => unreachable!("a concept is a name"),
                },
                as_inst: self.rng.gen_bool(0.5),
            },
            1 => Literal::HasAStar(end(self), end(self)),
            _ => {
                let roles = &self.fed.map.roles;
                let role = roles[self.rng.gen_range(0..roles.len())].clone();
                Literal::Dc(role, end(self), end(self))
            }
        };
        self.body.push(lit);
    }

    /// A class to negate on object variable `o`: another class of its
    /// source (a shared object may be in it), or a map concept.
    fn negated_class(&mut self, o: usize) -> String {
        let VarKind::Object(c) = self.vars[o] else {
            unreachable!("negation is generated on object variables");
        };
        let classes = &self.fed.classes;
        let siblings: Vec<&GenClass> = classes
            .iter()
            .filter(|k| k.source == classes[c].source && k.name != classes[c].name)
            .collect();
        if !siblings.is_empty() && self.rng.gen_bool(0.7) {
            siblings[self.rng.gen_range(0..siblings.len())].name.clone()
        } else {
            format!("c{}", self.rng.gen_range(0..self.fed.map.concepts.len()))
        }
    }
}

/// The FL text of `ans(head) :- body.`
fn render(head: &[usize], body: &[Literal]) -> String {
    let arg = |a: &Arg| match a {
        Arg::Var(v) => format!("V{v}"),
        Arg::Name(s) => format!("\"{s}\""),
        Arg::Int(i) => i.to_string(),
    };
    let lits: Vec<String> = body
        .iter()
        .map(|l| match l {
            Literal::Class {
                var,
                class,
                as_inst: true,
            } => format!("inst(V{var}, {class})"),
            Literal::Class { var, class, .. } => format!("V{var} : {class}"),
            Literal::Attr { var, attr, value } => format!("V{var}[{attr} -> {}]", arg(value)),
            Literal::HasAStar(a, b) => format!("has_a_star({}, {})", arg(a), arg(b)),
            Literal::Dc(r, a, b) => format!("dc(\"{r}\", {}, {})", arg(a), arg(b)),
            Literal::Cmp(v, op, n) => {
                let op = match op {
                    Cmp::Lt => "<",
                    Cmp::Ge => ">=",
                    Cmp::Ne => "!=",
                };
                format!("V{v} {op} {n}")
            }
            Literal::Not(v, class) => format!("not V{v} : {class}"),
        })
        .collect();
    let head: Vec<String> = head.iter().map(|v| format!("V{v}")).collect();
    format!("ans({}) :- {}.", head.join(", "), lits.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_covers_every_shape() {
        let size = FedParams::default();
        let (mut formalisms, mut shared, mut below, mut negated, mut regions) =
            (std::collections::BTreeSet::new(), 0, 0, 0, 0);
        for seed in 0..64 {
            let fed = generate(seed, &size);
            let again = generate(seed, &size);
            assert_eq!(fed.classes.len(), again.classes.len());
            for w in &fed.wrappers {
                formalisms.insert(w.formalism.clone());
                let mut ids: Vec<&str> = w
                    .rows
                    .values()
                    .flat_map(|r| r.iter())
                    .map(|r| r.id.as_str())
                    .collect();
                let n = ids.len();
                ids.sort_unstable();
                ids.dedup();
                shared += usize::from(ids.len() < n);
            }
            below += fed.classes.iter().filter(|c| c.concept.is_some()).count();
            for c in &fed.classes {
                assert!((2..=4).contains(&c.attrs.len()), "{}", c.name);
            }
            let rule = fed.rule(seed);
            assert_eq!(rule.text, fed.rule(seed).text);
            for l in &rule.body {
                match l {
                    Literal::Not(..) => negated += 1,
                    Literal::HasAStar(..) | Literal::Dc(..) => regions += 1,
                    _ => {}
                }
            }
            // Every source registers, through its own formalism.
            fed.mediator();
        }
        assert_eq!(formalisms.len(), 4, "{formalisms:?}");
        assert!(shared > 0 && below > 0 && negated > 0 && regions > 0);
    }
}
