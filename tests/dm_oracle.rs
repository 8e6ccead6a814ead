//! The domain-map oracle: the §4 operations, three ways.
//!
//! Over 512 generated maps (`kind_sources::dm_gen`) the pure-graph
//! operations of [`Resolved`] must agree with
//!
//! 1. the **model** of the paper's rules — [`DM_OPS_RULES`] over the
//!    concept-level export of [`rules::compile`], evaluated by the engine
//!    in both [`ExecMode`]s — for `tc_isa`, `dc` and `has_a_star`, and
//! 2. a **from-Definition-1 evaluator** ([`Naive`], below) that reads
//!    `dm.edges()` and `node_kind` only and shares no code with `ops.rs`
//!    or `rules.rs`: boolean matrices and Warshall's closure;
//!
//! and source selection ([`SemanticIndex`](kind::dm::SemanticIndex)'s
//! cones, `Knowledge::sources_in_region`) must agree with asking the
//! mediator's own model (`anchored` ⋈ `tc_isa` / `dm_role`).
//!
//! Where the graph side and the rules differ *on purpose* the difference
//! is pinned by a named test at the bottom of this file (and listed in
//! DESIGN.md, "§4 operations: who computes what").

use kind::core::{Anchor, Mediator, MemoryWrapper};
use kind::dm::{
    figures, load_axioms, rules, DomainMap, EdgeKind, ExecMode, NodeId, NodeKind, Resolved,
    DM_OPS_RULES,
};
use kind::flogic::FLogic;
use kind::sources::dm_gen::{self, PARTONOMY_ROLE};
use kind::sources::scenario_domain_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Generated maps per test (seeds `0..MAPS`).
const MAPS: u64 = 512;
const MODES: [ExecMode; 2] = [ExecMode::Constraint, ExecMode::Assertion];

/// A binary relation over at most 64 concepts: row `i` is the bit set of
/// the `j` with `i R j`.
type Matrix = Vec<u64>;
type Pairs = BTreeSet<(usize, usize)>;

fn has(m: &Matrix, i: usize, j: usize) -> bool {
    m[i] >> j & 1 == 1
}

fn bits(row: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |&j| row >> j & 1 == 1)
}

// ---------------------------------------------------------------------
// The from-Definition-1 evaluator.
// ---------------------------------------------------------------------

/// Reflexive-transitive closure (Warshall, a row at a time).
fn star(step: &Matrix) -> Matrix {
    let mut m = step.clone();
    for (i, row) in m.iter_mut().enumerate() {
        *row |= 1 << i;
    }
    for k in 0..m.len() {
        let via = m[k];
        for row in m.iter_mut() {
            if *row >> k & 1 == 1 {
                *row |= via;
            }
        }
    }
    m
}

/// `a ; b` — relational composition.
fn compose(a: &Matrix, b: &Matrix) -> Matrix {
    a.iter()
        .map(|&row| {
            bits(row)
                .filter(|&k| k < b.len())
                .fold(0, |acc, k| acc | b[k])
        })
        .collect()
}

fn pairs(m: &Matrix) -> Pairs {
    m.iter()
        .enumerate()
        .flat_map(|(i, &row)| bits(row).map(move |j| (i, j)))
        .collect()
}

/// The concept-level links Definition 1's DL reading licenses, over the
/// named concepts only (position `i` is the `i`-th concept in node-id
/// order):
///
/// * `C → D`, `C =→ D` (both ways) between named concepts are `isa`;
/// * `C —r→ D` is a role link;
/// * an AND node reached by `→` / `=→` gives `C` its conjuncts — atomic
///   members as `isa`, its `—r→ D` edges as role links; reached by `—r→`
///   it gives a link to each atomic member (the filler is in all of them);
/// * an OR node licenses nothing definite, neither does `ALL: r`.
struct Naive {
    ids: Vec<NodeId>,
    pos: HashMap<NodeId, usize>,
    isa: Matrix,
    /// `isa*`: `has(le, a, b)` iff `a ⊑ b`.
    le: Matrix,
    role: BTreeMap<String, Matrix>,
}

impl Naive {
    fn new(dm: &DomainMap) -> Self {
        let ids: Vec<NodeId> = dm.concepts().map(|(id, _)| id).collect();
        let pos: HashMap<NodeId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let n = ids.len();
        assert!(n <= 64, "a row is one u64");
        let mut isa = vec![0u64; n];
        let mut role: BTreeMap<String, Matrix> = BTreeMap::new();
        let mut link = |r: &str, c: usize, d: usize| {
            role.entry(r.to_string()).or_insert_with(|| vec![0; n])[c] |= 1 << d;
        };
        let named = |id: NodeId| pos.get(&id).copied();
        let conjuncts = |and: NodeId| dm.edges().iter().filter(move |e| e.from == and);
        for e in dm.edges() {
            let Some(c) = named(e.from) else { continue };
            match (&e.kind, dm.node_kind(e.to)) {
                (EdgeKind::Isa, NodeKind::Concept(_)) => isa[c] |= 1 << pos[&e.to],
                (EdgeKind::Eqv, NodeKind::Concept(_)) => {
                    isa[c] |= 1 << pos[&e.to];
                    isa[pos[&e.to]] |= 1 << c;
                }
                (EdgeKind::Ex(r), NodeKind::Concept(_)) => link(r, c, pos[&e.to]),
                (EdgeKind::Isa | EdgeKind::Eqv, NodeKind::And) => {
                    for inner in conjuncts(e.to) {
                        let Some(d) = named(inner.to) else { continue };
                        match &inner.kind {
                            EdgeKind::Member => isa[c] |= 1 << d,
                            EdgeKind::Ex(r) => link(r, c, d),
                            _ => {}
                        }
                    }
                }
                (EdgeKind::Ex(r), NodeKind::And) => {
                    for inner in conjuncts(e.to) {
                        if let (EdgeKind::Member, Some(d)) = (&inner.kind, named(inner.to)) {
                            link(r, c, d);
                        }
                    }
                }
                _ => {}
            }
        }
        let le = star(&isa);
        Naive {
            ids,
            pos,
            isa,
            le,
            role,
        }
    }

    fn n(&self) -> usize {
        self.ids.len()
    }

    fn links(&self, role: &str) -> Matrix {
        self.role
            .get(role)
            .cloned()
            .unwrap_or_else(|| vec![0; self.n()])
    }

    /// `tc(isa)`: irreflexive unless the concept lies on an isa cycle.
    fn tc_isa(&self) -> Matrix {
        compose(&self.isa, &self.le)
    }

    /// `dc(R)`: `isa* ; R ; isa*` — the paper's four `dc` rules at once.
    fn dc(&self, role: &str) -> Matrix {
        compose(&compose(&self.le, &self.links(role)), &self.le)
    }

    /// `tc(dc(R))`.
    fn tc_of_dc(&self, role: &str) -> Matrix {
        let dc = self.dc(role);
        compose(&dc, &star(&dc))
    }

    /// `has(down, p, x)`: `x` lies in the region under `p` — reachable by
    /// *inherited* role links (`isa* ; R`) and isa-children, reflexively.
    fn down(&self, role: &str) -> Matrix {
        let mut step = compose(&self.le, &self.links(role));
        for (sub, &row) in self.isa.iter().enumerate() {
            for sup in bits(row) {
                step[sup] |= 1 << sub;
            }
        }
        star(&step)
    }

    /// The least element of the `below`-minimal members of `common`, by
    /// position (= node id); `below(o, m)` reads "`o` lies at or below
    /// `m`".
    fn least_minimal(common: &[usize], below: impl Fn(usize, usize) -> bool) -> Option<usize> {
        common
            .iter()
            .copied()
            .filter(|&m| {
                !common
                    .iter()
                    .any(|&o| o != m && below(o, m) && !below(m, o))
            })
            .min()
    }

    fn lub(&self, nodes: &[usize]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        let common: Vec<usize> = (0..self.n())
            .filter(|&m| nodes.iter().all(|&x| has(&self.le, x, m)))
            .collect();
        Self::least_minimal(&common, |o, m| has(&self.le, o, m))
    }

    fn glb(&self, nodes: &[usize]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        let common: Vec<usize> = (0..self.n())
            .filter(|&m| nodes.iter().all(|&x| has(&self.le, m, x)))
            .collect();
        Self::least_minimal(&common, |o, m| has(&self.le, m, o))
    }

    /// The least region (a row of [`Self::down`]) holding all of `nodes`.
    fn partonomy_lub(&self, down: &Matrix, nodes: &[usize]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        let common: Vec<usize> = (0..self.n())
            .filter(|&p| nodes.iter().all(|&x| has(down, p, x)))
            .collect();
        Self::least_minimal(&common, |o, m| has(down, m, o))
    }

    /// Example 4's `aggregate`: per concept of the region under `root`,
    /// the sum of `values` over the region under that concept (each
    /// concept once).
    fn rollup(&self, down: &Matrix, root: usize, values: &[i64]) -> BTreeMap<usize, i64> {
        bits(down[root])
            .map(|x| (x, bits(down[x]).map(|y| values[y]).sum()))
            .collect()
    }
}

// ---------------------------------------------------------------------
// The model of the paper's rules.
// ---------------------------------------------------------------------

/// What the engine derives from a map's compiled program.
struct RuleModel {
    tc_isa: Pairs,
    has_a_star: Pairs,
    dc: BTreeMap<String, Pairs>,
}

fn rule_model(dm: &DomainMap, mode: ExecMode, naive: &Naive) -> RuleModel {
    let mut fl = FLogic::new();
    fl.load_datalog(DM_OPS_RULES).unwrap();
    fl.load(&rules::compile(dm, &Resolved::new(dm), mode).text)
        .unwrap();
    let model = fl.run().unwrap();
    let rows = |pattern: &str| -> Vec<Vec<String>> {
        let found = fl.query(&model, pattern).unwrap();
        found
            .iter()
            .map(|row| row.iter().map(|t| fl.engine().show(t)).collect())
            .collect()
    };
    let at = |name: &str| naive.pos[&dm.lookup(name).expect("a concept name")];
    let binary = |rows: Vec<Vec<String>>| rows.iter().map(|r| (at(&r[0]), at(&r[1]))).collect();
    let by_role = |rows: Vec<Vec<String>>| {
        let mut out: BTreeMap<String, Pairs> = BTreeMap::new();
        for r in rows {
            out.entry(r[0].clone())
                .or_default()
                .insert((at(&r[1]), at(&r[2])));
        }
        out
    };
    RuleModel {
        tc_isa: binary(rows("tc_isa(X, Y)")),
        has_a_star: binary(rows("has_a_star(X, Y)")),
        dc: by_role(rows("dc(R, X, Y)")),
    }
}

// ---------------------------------------------------------------------
// The differential tests.
// ---------------------------------------------------------------------

fn fnv(digest: &mut u64, x: u64) {
    *digest = (*digest ^ x).wrapping_mul(0x0000_0100_0000_01b3);
}

/// The exact `downward_closure` orders (breadth-first: inherited links
/// by node id, then isa-children in edge order) over every root and role
/// of every generated map, folded into one number. Recorded at the commit
/// that added this file; the §5 plan's `PlanTrace` order rides on it.
const DOWNWARD_ORDER_DIGEST: u64 = 15_561_520_703_734_027_988;

#[test]
fn graph_operations_agree_with_the_rules_and_with_definition_1() {
    let mut order_digest = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..MAPS {
        let g = dm_gen::generate(seed);
        let dm = &g.dm;
        let r = Resolved::new(dm);
        let naive = Naive::new(dm);
        let n = naive.n();
        let at = |id: NodeId| naive.pos[&id];
        let set = |ids: &[NodeId]| -> BTreeSet<usize> { ids.iter().map(|&x| at(x)).collect() };
        let pair_set = |ps: &[(NodeId, NodeId)]| -> Pairs {
            ps.iter().map(|&(a, b)| (at(a), at(b))).collect()
        };

        // --- Resolved against Definition 1 (mode-independent). ---------
        let tc = pairs(&naive.tc_isa());
        for (i, &id) in naive.ids.iter().enumerate() {
            let anc: BTreeSet<usize> = r.ancestors(id).iter().map(|&x| at(x)).collect();
            let expect: BTreeSet<usize> = bits(naive.le[i]).collect();
            assert_eq!(anc, expect, "seed {seed}: ancestors(c{i})");
            // Reflexive `ancestors` = {n} ∪ tc_isa(n, ·).
            let via_tc: BTreeSet<usize> = std::iter::once(i)
                .chain(tc.iter().filter(|p| p.0 == i).map(|p| p.1))
                .collect();
            assert_eq!(anc, via_tc, "seed {seed}: ancestors(c{i}) vs tc_isa");
        }
        let mut regions: BTreeMap<&str, Matrix> = BTreeMap::new();
        for role in &g.roles {
            assert_eq!(
                pair_set(&r.dc_pairs(role)),
                pairs(&naive.dc(role)),
                "seed {seed}: dc({role})"
            );
            assert_eq!(
                pair_set(&r.tc_of_dc(role)),
                pairs(&naive.tc_of_dc(role)),
                "seed {seed}: tc(dc({role}))"
            );
            let down = naive.down(role);
            for (i, &id) in naive.ids.iter().enumerate() {
                let region = r.downward_closure(role, id);
                assert_eq!(region[0], id, "seed {seed}: region starts at its root");
                assert_eq!(
                    set(&region).len(),
                    region.len(),
                    "seed {seed}: region(c{i}) repeats a concept"
                );
                let expect: BTreeSet<usize> = bits(down[i]).collect();
                assert_eq!(set(&region), expect, "seed {seed}: region({role}, c{i})");
                for x in region {
                    fnv(&mut order_digest, at(x) as u64);
                }
                fnv(&mut order_digest, u64::MAX);
            }
            regions.insert(role, down);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let picked: Vec<usize> = (0..rng.gen_range(1usize..4))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let nodes: Vec<NodeId> = picked.iter().map(|&i| naive.ids[i]).collect();
            assert_eq!(
                r.lub(&nodes).map(at),
                naive.lub(&picked),
                "seed {seed}: lub{picked:?}"
            );
            assert_eq!(
                r.glb(&nodes).map(at),
                naive.glb(&picked),
                "seed {seed}: glb{picked:?}"
            );
            for role in &g.roles {
                assert_eq!(
                    r.partonomy_lub(role, &nodes).map(at),
                    naive.partonomy_lub(&regions[role.as_str()], &picked),
                    "seed {seed}: partonomy_lub({role}){picked:?}"
                );
            }
        }
        assert_eq!(r.lub(&[]), None);
        assert_eq!(r.glb(&[]), None);
        assert_eq!(r.partonomy_lub(PARTONOMY_ROLE, &[]), None);
        for _ in 0..3 {
            let root = rng.gen_range(0..n);
            let values: Vec<i64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range(-5i64..50)
                    } else {
                        0
                    }
                })
                .collect();
            let sparse: HashMap<NodeId, i64> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(|(i, &v)| (naive.ids[i], v))
                .collect();
            let got: BTreeMap<usize, i64> = r
                .rollup_sum(PARTONOMY_ROLE, naive.ids[root], &sparse)
                .into_iter()
                .map(|(id, v)| (at(id), v))
                .collect();
            assert_eq!(
                got,
                naive.rollup(&regions[PARTONOMY_ROLE], root, &values),
                "seed {seed}: rollup_sum from c{root}"
            );
        }

        // --- Both against the model of the rules, in both modes. -------
        for mode in MODES {
            let model = rule_model(dm, mode, &naive);
            assert_eq!(model.tc_isa, tc, "seed {seed} {mode:?}: tc_isa");
            for role in &g.roles {
                let graph = pair_set(&r.dc_pairs(role));
                let derived = model.dc.get(role).cloned().unwrap_or_default();
                assert_eq!(derived, graph, "seed {seed} {mode:?}: dc({role})");
            }
            assert_eq!(
                model.has_a_star,
                pair_set(&r.dc_pairs(PARTONOMY_ROLE)),
                "seed {seed} {mode:?}: has_a_star"
            );
            let roles: BTreeSet<&String> = g.roles.iter().collect();
            assert!(
                model.dc.keys().all(|k| roles.contains(k)),
                "seed {seed} {mode:?}: the model has a role the map has not"
            );
        }
    }
    assert_eq!(
        order_digest, DOWNWARD_ORDER_DIGEST,
        "downward_closure changed the order it visits regions in"
    );
}

/// `anchored` ⋈ the model's closures, computed here from the relations
/// the mediator's own model holds.
#[test]
fn source_selection_agrees_with_asking_the_model() {
    for seed in 0..MAPS {
        let g = dm_gen::generate(seed);
        let pos: HashMap<NodeId, usize> = g
            .concepts
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let n = g.concepts.len();
        for mode in MODES {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
            let mut m = Mediator::new(g.dm.clone(), mode);
            for s in 0..3 {
                let mut w = MemoryWrapper::new(format!("s{s}"));
                for a in 0..rng.gen_range(1usize..4) {
                    let concept = g.dm.name(g.concepts[rng.gen_range(0..n)]).unwrap();
                    w.anchor_decls.push(Anchor::Fixed {
                        class: format!("k{s}_{a}"),
                        concept: concept.to_string(),
                    });
                }
                m.register(Arc::new(w)).unwrap();
            }
            let mut rows = |pattern: &str| -> Vec<Vec<String>> {
                let found = m.query_fl(pattern).unwrap();
                found
                    .iter()
                    .map(|row| row.iter().map(|t| m.show(t)).collect())
                    .collect()
            };
            let at = |name: &str| pos[&g.dm.lookup(name).expect("a concept name")];
            let anchored: BTreeSet<(String, usize)> = rows("anchored(S, C)")
                .into_iter()
                .map(|r| (r[0].clone(), at(&r[1])))
                .collect();
            let tc_isa: Pairs = rows("tc_isa(X, Y)")
                .iter()
                .map(|r| (at(&r[0]), at(&r[1])))
                .collect();
            let links: Pairs = rows(&format!("dm_role(\"{PARTONOMY_ROLE}\", X, Y)"))
                .iter()
                .map(|r| (at(&r[1]), at(&r[2])))
                .collect();
            let le = |a: usize, b: usize| a == b || tc_isa.contains(&(a, b));
            let names = |ids: Vec<kind::dm::SourceId>| -> BTreeSet<String> {
                m.federation()
                    .sources()
                    .iter()
                    .filter(|s| ids.contains(&s.id))
                    .map(|s| s.name.clone())
                    .collect()
            };
            let below = |c: usize| -> BTreeSet<String> {
                anchored
                    .iter()
                    .filter(|(_, d)| le(*d, c))
                    .map(|(s, _)| s.clone())
                    .collect()
            };
            for c in 0..n {
                assert_eq!(
                    names(
                        m.knowledge()
                            .index()
                            .sources_below(m.knowledge().resolved(), g.concepts[c])
                    ),
                    below(c),
                    "seed {seed} {mode:?}: sources_below(c{c})"
                );
            }
            for _ in 0..6 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let expect: BTreeSet<String> = below(a).intersection(&below(b)).cloned().collect();
                assert_eq!(
                    names(m.knowledge().index().sources_for_all(
                        m.knowledge().resolved(),
                        &[g.concepts[a], g.concepts[b]]
                    )),
                    expect,
                    "seed {seed} {mode:?}: sources_for_all(c{a}, c{b})"
                );
                // The region under a: least set with a, closed under
                // inherited partonomy links and isa-children.
                let mut region = BTreeSet::from([a]);
                loop {
                    let grown: BTreeSet<usize> = (0..n)
                        .filter(|&y| {
                            region.iter().any(|&x| {
                                tc_isa.contains(&(y, x))
                                    || links.iter().any(|&(z, t)| t == y && le(x, z))
                            })
                        })
                        .collect();
                    let before = region.len();
                    region.extend(grown);
                    if region.len() == before {
                        break;
                    }
                }
                let expect: BTreeSet<String> = anchored
                    .iter()
                    .filter(|(_, d)| region.contains(d))
                    .map(|(s, _)| s.clone())
                    .collect();
                let root = g.dm.name(g.concepts[a]).unwrap();
                assert_eq!(
                    names(
                        m.knowledge()
                            .sources_in_region(PARTONOMY_ROLE, root)
                            .unwrap()
                    ),
                    expect,
                    "seed {seed} {mode:?}: sources_in_region(c{a})"
                );
            }
        }
    }
}

/// `(map, mode, bytes, FNV-1a)` of `rules::compile(..).text`, recorded
/// before the compiler took the caller's resolved view and before names
/// went through `kind_datalog::quoted`: the emitted program is the same
/// text, byte for byte.
const COMPILED_TEXT: [(&str, ExecMode, usize, u64); 6] = [
    ("figure1", ExecMode::Constraint, 3156, 3998491547970975607),
    ("figure1", ExecMode::Assertion, 4140, 11832688705406767481),
    ("figure3", ExecMode::Constraint, 2993, 2451681392175960559),
    ("figure3", ExecMode::Assertion, 3451, 6746291018290555055),
    ("scenario", ExecMode::Constraint, 7693, 15582913561782379924),
    ("scenario", ExecMode::Assertion, 10513, 2151431417041459545),
];

#[test]
fn the_compiled_program_is_the_recorded_text() {
    for (name, mode, bytes, digest) in COMPILED_TEXT {
        let dm = match name {
            "figure1" => figures::figure1(),
            "figure3" => figures::figure3(),
            _ => scenario_domain_map(),
        };
        let text = rules::compile(&dm, &Resolved::new(&dm), mode).text;
        let mut got = 0xcbf2_9ce4_8422_2325u64;
        text.bytes().for_each(|b| fnv(&mut got, u64::from(b)));
        assert_eq!((text.len(), got), (bytes, digest), "{name} {mode:?}");
    }
}

// ---------------------------------------------------------------------
// Pinned divergences: where the three differ on purpose.
// ---------------------------------------------------------------------

fn axioms(text: &str) -> DomainMap {
    let mut dm = DomainMap::new();
    load_axioms(&mut dm, text).unwrap();
    dm
}

/// `ancestors` is reflexive (a concept is its own upper bound, which is
/// what `lub` of one concept needs); the paper's `tc_isa` is the plain
/// transitive closure, reflexive only on an isa cycle.
#[test]
fn ancestors_are_reflexive_where_tc_isa_is_not() {
    let dm = axioms("B < A. C = D.");
    let naive = Naive::new(&dm);
    let r = Resolved::new(&dm);
    let at = |name: &str| naive.pos[&dm.lookup(name).unwrap()];
    for mode in MODES {
        let model = rule_model(&dm, mode, &naive);
        assert!(r
            .ancestors(dm.lookup("B").unwrap())
            .contains(&dm.lookup("B").unwrap()));
        assert!(!model.tc_isa.contains(&(at("B"), at("B"))));
        assert!(model.tc_isa.contains(&(at("B"), at("A"))));
        // `C ≡ D` is a two-cycle: there the closure is reflexive too.
        assert!(model.tc_isa.contains(&(at("C"), at("C"))));
    }
}

/// An OR target licenses no definite concept-level link, in any of the
/// three — although `C ⊑ A ⊔ B`, `A ⊑ Z`, `B ⊑ Z` entails `C ⊑ Z` in
/// DL. The disjunction is acted on at the instance level only
/// (constraint mode demands membership in some disjunct).
#[test]
fn an_or_target_licenses_no_definite_link() {
    let dm = axioms("C < A or B. A < Z. B < Z. N < exists has_a.(A or B).");
    let naive = Naive::new(&dm);
    let r = Resolved::new(&dm);
    let id = |name: &str| dm.lookup(name).unwrap();
    assert!(!r.is_subconcept(id("C"), id("Z")));
    assert!(!has(&naive.le, naive.pos[&id("C")], naive.pos[&id("Z")]));
    assert!(r.dc_pairs(PARTONOMY_ROLE).is_empty());
    assert!(pairs(&naive.dc(PARTONOMY_ROLE)).is_empty());
    assert_eq!(r.downward_closure(PARTONOMY_ROLE, id("N")), vec![id("N")]);
    for mode in MODES {
        let model = rule_model(&dm, mode, &naive);
        assert!(!model
            .tc_isa
            .contains(&(naive.pos[&id("C")], naive.pos[&id("Z")])));
        assert!(model.has_a_star.is_empty());
    }
    // The instance level does read the disjunction.
    let mut fl = FLogic::new();
    fl.load_datalog(DM_OPS_RULES).unwrap();
    fl.load(&rules::compile(&dm, &r, ExecMode::Constraint).text)
        .unwrap();
    fl.load(r#"c1 : "C". c2 : "C". c2 : "A"."#).unwrap();
    let model = fl.run().unwrap();
    assert_eq!(
        fl.inconsistency_witnesses(&model),
        vec![r#"wor(C,c1)"#.to_string()]
    );
}

/// The region under a concept follows the links it *inherits* (`dc`'s
/// "down the isa chain" rule) and isa-children, but not the links `dc`
/// *lifts* to a target's superconcepts: `has_a_star(Neuron, Thing)`
/// holds, yet a region that stepped up to `Thing` and then took its
/// isa-children would swallow every sibling of every part.
#[test]
fn a_region_follows_inherited_links_not_lifted_ones() {
    let dm = axioms(
        "Neuron < exists has_a.Compartment. Compartment < Thing. Rock < Thing.
         Purkinje_Cell < Neuron. Dendrite < Compartment.",
    );
    let naive = Naive::new(&dm);
    let r = Resolved::new(&dm);
    let id = |name: &str| dm.lookup(name).unwrap();
    let at = |name: &str| naive.pos[&id(name)];
    for mode in MODES {
        let model = rule_model(&dm, mode, &naive);
        assert!(model.has_a_star.contains(&(at("Neuron"), at("Thing"))));
        assert!(model
            .has_a_star
            .contains(&(at("Purkinje_Cell"), at("Thing"))));
    }
    assert!(r
        .dc_pairs(PARTONOMY_ROLE)
        .contains(&(id("Neuron"), id("Thing"))));
    let region = r.downward_closure(PARTONOMY_ROLE, id("Purkinje_Cell"));
    assert_eq!(
        region,
        vec![id("Purkinje_Cell"), id("Compartment"), id("Dendrite")]
    );
    let down = naive.down(PARTONOMY_ROLE);
    assert!(!has(&down, at("Purkinje_Cell"), at("Thing")));
    assert!(!has(&down, at("Purkinje_Cell"), at("Rock")));
}
