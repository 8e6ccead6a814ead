//! A seeded **domain-map generator** for differential tests of the §4
//! operations (`tests/dm_oracle.rs`): small maps that use every edge kind
//! of Definition 1 in the shapes axiom lowering produces, plus the ones
//! that stress the closures — isa diamonds, `eqv` between named concepts
//! (so the isa order has cycles), links inlined from anonymous AND nodes,
//! and OR targets that must license nothing.
//!
//! Deterministic per seed (`compat/rand`'s SplitMix64); nothing here
//! reads a clock or the environment.

use kind_dm::{DomainMap, EdgeKind, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The partonomy role every generated map uses (the paper's `has_a`).
pub const PARTONOMY_ROLE: &str = "has_a";

/// A generated map: 8–40 concepts named `c0`, `c1`, … (node ids in that
/// order; anonymous nodes come after them) and 2–3 roles, the first
/// being [`PARTONOMY_ROLE`].
#[derive(Debug, Clone)]
pub struct GeneratedMap {
    /// The map.
    pub dm: DomainMap,
    /// Its named concepts, in node-id order.
    pub concepts: Vec<NodeId>,
    /// Its role names.
    pub roles: Vec<String>,
}

/// Generates the map for `seed`.
pub fn generate(seed: u64) -> GeneratedMap {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x646d_5f67_656e);
    let mut dm = DomainMap::new();
    let n = rng.gen_range(8usize..41);
    let concepts: Vec<NodeId> = (0..n).map(|i| dm.concept(&format!("c{i}"))).collect();
    let mut roles = vec![PARTONOMY_ROLE.to_string(), "r1".to_string()];
    if rng.gen_bool(0.5) {
        roles.push("r2".to_string());
    }

    // isa: a DAG (parents have smaller indices); a second parent makes
    // diamonds.
    for i in 1..n {
        if rng.gen_bool(0.8) {
            let p = rng.gen_range(0..i);
            dm.add_edge(concepts[i], concepts[p], EdgeKind::Isa);
            if i > 1 && rng.gen_bool(0.3) {
                let p2 = rng.gen_range(0..i);
                dm.add_edge(concepts[i], concepts[p2], EdgeKind::Isa);
            }
        }
    }
    // eqv between named concepts, in any direction: an eqv from an
    // ancestor to one of its descendants closes a cycle in the isa order.
    for _ in 0..rng.gen_range(0usize..4) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            dm.add_edge(concepts[a], concepts[b], EdgeKind::Eqv);
        }
    }
    // ex / all edges between named concepts; the partonomy role is the
    // commonest so regions have some depth.
    for _ in 0..rng.gen_range(n / 2..n + 1) {
        let role = pick_role(&mut rng, &roles);
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        dm.add_edge(concepts[a], concepts[b], EdgeKind::Ex(role));
    }
    for _ in 0..rng.gen_range(0usize..4) {
        let role = pick_role(&mut rng, &roles);
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        dm.add_edge(concepts[a], concepts[b], EdgeKind::All(role));
    }
    // Anonymous nodes, hung off a named concept by isa, eqv, ex or all.
    for _ in 0..rng.gen_range(1usize..6) {
        let from = concepts[rng.gen_range(0..n)];
        let node = if rng.gen_bool(0.6) {
            and_node(&mut rng, &mut dm, &concepts, &roles)
        } else {
            let members: Vec<NodeId> = (0..rng.gen_range(2usize..4))
                .map(|_| concepts[rng.gen_range(0..n)])
                .collect();
            dm.or_node(&members)
        };
        let kind = match rng.gen_range(0u32..8) {
            0..=1 => EdgeKind::Isa,
            2..=3 => EdgeKind::Eqv,
            4..=6 => EdgeKind::Ex(pick_role(&mut rng, &roles)),
            _ => EdgeKind::All(pick_role(&mut rng, &roles)),
        };
        dm.add_edge(from, node, kind);
    }
    GeneratedMap {
        dm,
        concepts,
        roles,
    }
}

fn pick_role(rng: &mut StdRng, roles: &[String]) -> String {
    if rng.gen_bool(0.6) {
        roles[0].clone()
    } else {
        roles[rng.gen_range(0..roles.len())].clone()
    }
}

/// An AND node with at least two conjuncts: atomic members, role edges
/// to named concepts, now and then an `all` edge or an opaque conjunct
/// (a role edge to an OR node — no definite link).
fn and_node(rng: &mut StdRng, dm: &mut DomainMap, concepts: &[NodeId], roles: &[String]) -> NodeId {
    let n = concepts.len();
    let node = dm.and_node(&[]);
    for _ in 0..rng.gen_range(1usize..3) {
        dm.add_edge(node, concepts[rng.gen_range(0..n)], EdgeKind::Member);
    }
    for _ in 0..rng.gen_range(1usize..3) {
        let role = pick_role(rng, roles);
        let target = concepts[rng.gen_range(0..n)];
        let kind = if rng.gen_bool(0.85) {
            EdgeKind::Ex(role)
        } else {
            EdgeKind::All(role)
        };
        dm.add_edge(node, target, kind);
    }
    if rng.gen_bool(0.15) {
        let or = dm.or_node(&[concepts[rng.gen_range(0..n)], concepts[rng.gen_range(0..n)]]);
        dm.add_edge(node, or, EdgeKind::Ex(pick_role(rng, roles)));
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use kind_dm::NodeKind;

    #[test]
    fn generation_is_deterministic_and_covers_every_shape() {
        let (mut and, mut or, mut eqv, mut all, mut three_roles) = (0, 0, 0, 0, 0);
        for seed in 0..64 {
            let g = generate(seed);
            assert_eq!(g.dm.edges(), generate(seed).dm.edges());
            assert!((8..=40).contains(&g.concepts.len()));
            assert_eq!(g.roles[0], PARTONOMY_ROLE);
            three_roles += usize::from(g.roles.len() == 3);
            for id in g.dm.node_ids() {
                match g.dm.node_kind(id) {
                    NodeKind::And => and += 1,
                    NodeKind::Or => or += 1,
                    NodeKind::Concept(_) => {}
                }
            }
            for e in g.dm.edges() {
                match e.kind {
                    EdgeKind::Eqv if g.dm.name(e.to).is_some() => eqv += 1,
                    EdgeKind::All(_) => all += 1,
                    _ => {}
                }
            }
        }
        assert!(and > 0 && or > 0 && eqv > 0 && all > 0 && three_roles > 0);
    }
}
