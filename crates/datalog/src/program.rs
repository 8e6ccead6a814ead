//! Predicate dependency analysis: strongly connected components and
//! stratification.
//!
//! The GCM requires expressiveness up to FO(LFP) (§3 EXPR), realized as
//! Datalog with well-founded negation. Programs whose negation is
//! stratified get the cheap per-stratum semi-naive path; programs with
//! recursion through negation are detected here and routed to the
//! alternating-fixpoint evaluator (`wfs` module). Recursion through an
//! *aggregate* has no well-founded reading in this engine and is rejected.

use crate::atom::{Aggregate, BodyItem};
use crate::error::{DatalogError, Result};
use crate::interner::Sym;
use crate::rule::Rule;
use std::collections::HashMap;

/// A group of mutually recursive rules, evaluated together.
#[derive(Debug, Clone)]
pub struct Stratum {
    /// Indices into the program's rule list.
    pub rules: Vec<usize>,
    /// Head predicates defined in this stratum.
    pub preds: Vec<Sym>,
    /// Whether any predicate in this stratum is recursive (needed to decide
    /// between one-shot and fixpoint evaluation).
    pub recursive: bool,
    /// Whether this stratum's cycle goes through negation: its rules need
    /// the alternating-fixpoint (well-founded) evaluator. The global
    /// [`Stratification::needs_wfs`] is the disjunction of these flags.
    pub wfs: bool,
    /// The predicates this stratum's rules read — in positive, negated
    /// and aggregated body atoms — once each, in first-mention order. A
    /// backward pass over the strata and these sets finds a goal's
    /// dependency cone without looking at a rule.
    pub reads: Vec<Sym>,
}

/// The result of dependency analysis.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Strata in evaluation order (dependencies first).
    pub strata: Vec<Stratum>,
    /// `true` when some cycle goes through negation, requiring the
    /// well-founded (alternating fixpoint) evaluator.
    pub needs_wfs: bool,
}

/// A dependency of a rule head on a body predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepKind {
    Positive,
    Negative,
    Aggregate,
}

fn rule_dependencies(rule: &Rule, out: &mut Vec<(Sym, DepKind)>) {
    for item in rule.body.iter() {
        collect_item_deps(item, out);
    }
}

/// The predicates `rules` read, once each, in first-mention order: a
/// stratum's [`Stratum::reads`].
pub(crate) fn reads<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> Vec<Sym> {
    let mut deps = Vec::new();
    for rule in rules {
        rule_dependencies(rule, &mut deps);
    }
    let mut out: Vec<Sym> = Vec::new();
    for (p, _) in deps {
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

fn collect_item_deps(item: &BodyItem, out: &mut Vec<(Sym, DepKind)>) {
    match item {
        BodyItem::Pos(a) => out.push((a.pred, DepKind::Positive)),
        BodyItem::Neg(a) => out.push((a.pred, DepKind::Negative)),
        BodyItem::Cmp(..) | BodyItem::Assign(..) => {}
        BodyItem::Agg(Aggregate { body, .. }) => {
            let mut inner = Vec::new();
            for b in body {
                collect_item_deps(b, &mut inner);
            }
            // Everything an aggregate reads must be fully computed before
            // the aggregate runs: treat as aggregate (stratified) edges.
            for (p, _) in inner {
                out.push((p, DepKind::Aggregate));
            }
        }
    }
}

/// Computes the stratification of `rules`.
///
/// # Errors
/// [`DatalogError::AggregateInRecursion`] when an aggregate edge lies on a
/// dependency cycle.
pub fn stratify(rules: &[Rule], resolve: impl Fn(Sym) -> String) -> Result<Stratification> {
    // Node set: every predicate appearing as a head or in a body.
    let mut nodes: Vec<Sym> = Vec::new();
    let mut node_id: HashMap<Sym, usize> = HashMap::new();
    let add_node = |s: Sym, nodes: &mut Vec<Sym>, node_id: &mut HashMap<Sym, usize>| {
        *node_id.entry(s).or_insert_with(|| {
            nodes.push(s);
            nodes.len() - 1
        })
    };
    let mut edges: Vec<Vec<(usize, DepKind)>> = Vec::new();
    let mut deps_scratch = Vec::new();
    for rule in rules {
        let h = add_node(rule.head.pred, &mut nodes, &mut node_id);
        if edges.len() <= h {
            edges.resize(nodes.len(), Vec::new());
        }
        deps_scratch.clear();
        rule_dependencies(rule, &mut deps_scratch);
        for &(p, kind) in &deps_scratch {
            let b = add_node(p, &mut nodes, &mut node_id);
            if edges.len() < nodes.len() {
                edges.resize(nodes.len(), Vec::new());
            }
            edges[h].push((b, kind));
        }
    }
    edges.resize(nodes.len(), Vec::new());

    // Tarjan's SCC. With edges head -> body ("head depends on body"),
    // components are emitted dependencies-first, which is exactly the
    // evaluation order we need.
    let sccs = tarjan(&edges);
    let mut scc_of = vec![usize::MAX; nodes.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &n in comp {
            scc_of[n] = ci;
        }
    }

    // Classify intra-SCC edges.
    let mut needs_wfs = false;
    let mut scc_recursive = vec![false; sccs.len()];
    let mut scc_wfs = vec![false; sccs.len()];
    for (h, outs) in edges.iter().enumerate() {
        for &(b, kind) in outs {
            if scc_of[h] == scc_of[b] {
                scc_recursive[scc_of[h]] = true;
                match kind {
                    DepKind::Positive => {}
                    DepKind::Negative => {
                        needs_wfs = true;
                        scc_wfs[scc_of[h]] = true;
                    }
                    DepKind::Aggregate => {
                        return Err(DatalogError::AggregateInRecursion {
                            pred: resolve(nodes[h]),
                        })
                    }
                }
            }
        }
    }
    // Self-loop-free single-node SCCs are non-recursive unless a rule for
    // the predicate mentions it in its own body (covered above since a
    // self-edge is intra-SCC).

    // Group rules into strata by the SCC of their head predicate.
    let mut strata: Vec<Stratum> = sccs
        .iter()
        .enumerate()
        .map(|(ci, comp)| Stratum {
            rules: Vec::new(),
            preds: comp.iter().map(|&n| nodes[n]).collect(),
            recursive: false,
            wfs: scc_wfs[ci],
            reads: Vec::new(),
        })
        .collect();
    for (ci, comp) in sccs.iter().enumerate() {
        strata[ci].recursive = scc_recursive[ci] && {
            // A component of >1 node is always recursive; a single node is
            // recursive only if it has a self-edge (already recorded).
            comp.len() > 1 || scc_recursive[ci]
        };
    }
    for (ri, rule) in rules.iter().enumerate() {
        let n = node_id[&rule.head.pred];
        strata[scc_of[n]].rules.push(ri);
    }
    // Drop strata with no rules (pure EDB predicates).
    strata.retain(|s| !s.rules.is_empty());
    for s in &mut strata {
        s.reads = reads(s.rules.iter().map(|&r| &rules[r]));
    }
    Ok(Stratification { strata, needs_wfs })
}

/// Iterative Tarjan SCC; returns components in reverse topological order of
/// the dependency graph (i.e. dependencies first).
fn tarjan(edges: &[Vec<(usize, DepKind)>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: u32,
        lowlink: u32,
        on_stack: bool,
        visited: bool,
    }
    let n = edges.len();
    let mut st = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS stack: (node, next-edge-position).
    let mut dfs: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if st[start].visited {
            continue;
        }
        dfs.push((start, 0));
        st[start].visited = true;
        st[start].index = next_index;
        st[start].lowlink = next_index;
        next_index += 1;
        stack.push(start);
        st[start].on_stack = true;
        while let Some(&mut (v, ref mut ei)) = dfs.last_mut() {
            if *ei < edges[v].len() {
                let (w, _) = edges[v][*ei];
                *ei += 1;
                if !st[w].visited {
                    st[w].visited = true;
                    st[w].index = next_index;
                    st[w].lowlink = next_index;
                    next_index += 1;
                    stack.push(w);
                    st[w].on_stack = true;
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let low = st[v].lowlink;
                    st[parent].lowlink = st[parent].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    let mut comp = Vec::new();
                    // `v` is on the stack — pushed when first visited, and
                    // popped only by its own component — so the pops reach it.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        st[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{AggFunc, Atom};
    use crate::interner::Interner;
    use crate::term::{Term, Var};

    struct Ctx {
        syms: Interner,
    }

    impl Ctx {
        fn new() -> Self {
            Ctx {
                syms: Interner::new(),
            }
        }
        fn pred(&mut self, name: &str) -> Sym {
            self.syms.intern(name)
        }
        fn rule(&mut self, head: (&str, u32), body: Vec<BodyItem>) -> Rule {
            let p = self.pred(head.0);
            let args = (0..head.1).map(|i| Term::Var(Var(i))).collect();
            let nvars = 8;
            Rule::compile(
                Atom::new(p, args),
                body,
                nvars,
                (0..nvars).map(|i| format!("V{i}")).collect(),
            )
            .unwrap()
        }
        fn pos(&mut self, name: &str, arity: u32) -> BodyItem {
            let p = self.pred(name);
            BodyItem::Pos(Atom::new(
                p,
                (0..arity).map(|i| Term::Var(Var(i))).collect(),
            ))
        }
        fn neg(&mut self, name: &str, arity: u32) -> BodyItem {
            let p = self.pred(name);
            BodyItem::Neg(Atom::new(
                p,
                (0..arity).map(|i| Term::Var(Var(i))).collect(),
            ))
        }
    }

    #[test]
    fn nonrecursive_program_single_strata() {
        let mut c = Ctx::new();
        let b1 = c.pos("e", 2);
        let r1 = c.rule(("p", 2), vec![b1]);
        let s = stratify(&[r1], |s| format!("{s}")).unwrap();
        assert_eq!(s.strata.len(), 1);
        assert!(!s.needs_wfs);
        assert!(!s.strata[0].recursive);
    }

    #[test]
    fn transitive_closure_is_recursive_not_wfs() {
        let mut c = Ctx::new();
        let b1 = c.pos("e", 2);
        let r1 = c.rule(("tc", 2), vec![b1]);
        let b2a = c.pos("tc", 2);
        let b2b = c.pos("e", 2);
        let r2 = c.rule(("tc", 2), vec![b2a, b2b]);
        let s = stratify(&[r1, r2], |s| format!("{s}")).unwrap();
        assert!(!s.needs_wfs);
        let tc_stratum = s
            .strata
            .iter()
            .find(|st| !st.rules.is_empty())
            .expect("stratum");
        assert!(tc_stratum.recursive);
    }

    #[test]
    fn stratified_negation_not_wfs() {
        let mut c = Ctx::new();
        let b1 = c.pos("e", 2);
        let r1 = c.rule(("p", 2), vec![b1]);
        let b2a = c.pos("e", 2);
        let b2b = c.neg("p", 2);
        let r2 = c.rule(("q", 2), vec![b2a, b2b]);
        let s = stratify(&[r1, r2], |s| format!("{s}")).unwrap();
        assert!(!s.needs_wfs);
        assert_eq!(s.strata.len(), 2);
        // p's stratum must come before q's.
        let p = c.pred("p");
        let q = c.pred("q");
        let pi = s
            .strata
            .iter()
            .position(|st| st.preds.contains(&p))
            .unwrap();
        let qi = s
            .strata
            .iter()
            .position(|st| st.preds.contains(&q))
            .unwrap();
        assert!(pi < qi);
    }

    #[test]
    fn negation_cycle_needs_wfs() {
        let mut c = Ctx::new();
        let e1 = c.pos("e", 1);
        let nq = c.neg("q", 1);
        let r1 = c.rule(("p", 1), vec![e1, nq]);
        let e2 = c.pos("e", 1);
        let np = c.neg("p", 1);
        let r2 = c.rule(("q", 1), vec![e2, np]);
        let s = stratify(&[r1, r2], |s| format!("{s}")).unwrap();
        assert!(s.needs_wfs);
    }

    #[test]
    fn aggregate_in_cycle_rejected() {
        let mut c = Ctx::new();
        // p(X,N) :- e(X), N = count{ Y : p(Y,_) }  — aggregate over p,
        // and p defined in terms of it: a cycle through the aggregate.
        let e = c.pos("e", 1);
        let p = c.pred("p");
        let agg = BodyItem::Agg(Aggregate {
            func: AggFunc::Count,
            value: Term::Var(Var(2)),
            group_by: vec![],
            body: vec![BodyItem::Pos(Atom::new(
                p,
                vec![Term::Var(Var(2)), Term::Var(Var(3))],
            ))],
            result: Var(1),
        });
        let r = c.rule(("p", 2), vec![e, agg]);
        let err = stratify(&[r], |s| format!("{s}")).unwrap_err();
        assert!(matches!(err, DatalogError::AggregateInRecursion { .. }));
    }

    #[test]
    fn tarjan_orders_dependencies_first() {
        let mut c = Ctx::new();
        let b = c.pos("b", 1);
        let r1 = c.rule(("a", 1), vec![b]);
        let cc = c.pos("c", 1);
        let r2 = c.rule(("b", 1), vec![cc]);
        let s = stratify(&[r1, r2], |s| format!("{s}")).unwrap();
        let a = c.pred("a");
        let bb = c.pred("b");
        let ai = s
            .strata
            .iter()
            .position(|st| st.preds.contains(&a))
            .unwrap();
        let bi = s
            .strata
            .iter()
            .position(|st| st.preds.contains(&bb))
            .unwrap();
        assert!(bi < ai);
    }
}
