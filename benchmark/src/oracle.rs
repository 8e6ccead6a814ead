//! The in-process reference: a mediator built from the same seed as the
//! server's, published through its own hub. It supplies the expected reply
//! of every distinct request, and is what the traced replay and the layer
//! probes call into.

use crate::loadgen::{Expect, OpKind, Request};
use kind_core::{
    section5_fetch, Mediator, NeuroSchema, ObjectRow, PinnedSnapshot, Section5Fetch, Section5Query,
    SnapshotHub,
};
use kind_gcm::GcmValue;
use kind_sources::{build_scenario, ScenarioParams};
use std::collections::HashSet;
use std::sync::Arc;

/// The six `served_answer` rules: a wide join, a constant-bound lookup, a
/// builtin comparison, a second class, a one-object rule (where the
/// magic-sets rewrite fires) and a negated body.
pub const ANSWER_RULES: [&str; 6] = [
    "calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P], X[location -> L], X[ion_bound -> \"calcium\"].",
    "at(X, A) :- X : protein_amount, X[location -> \"Purkinje_Spine\"], X[amount -> A].",
    "hot(P) :- X : protein_amount, X[protein_name -> P], X[amount -> A], A > 90.",
    "rat_nt(X) :- X : neurotransmission, X[organism -> \"rat\"].",
    "one(\"NCMIR.pa17\", A) :- \"NCMIR.pa17\"[amount -> A].",
    "quiet(X) :- X : protein_amount, X[ion_bound -> \"calcium\"], not X[location -> \"Purkinje_Cell\"].",
];

/// Index of the one-object rule in [`ANSWER_RULES`].
pub const SELECTIVE_RULE: usize = 4;

/// The class scan of `served_answer`: every protein row of every source.
pub const SCAN_PATTERN: &str = "X : protein_amount";

/// NCMIR rows in the served scenario; the point workloads look these up.
pub const NCMIR_ROWS: usize = 600;

/// The scenario the three served workloads run on (about 2 900 objects).
pub fn served_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        seed,
        senselab_rows: 400,
        ncmir_rows: NCMIR_ROWS,
        synapse_rows: 400,
        noise_sources: 4,
        noise_rows: 300,
        ..Default::default()
    }
}

/// The same data behind 16 sources, for `cold_federation`.
pub fn cold_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        noise_sources: 12,
        ..served_params(seed)
    }
}

/// Rows per publish, on the wire and in the replay.
pub const PUBLISH_ROWS: usize = 5;

/// Fresh NCMIR `protein_amount` rows for the replayed write: object ids
/// `bench<batch>_<i>`, which no scenario row and no server batch uses.
pub fn update_rows(batch: usize) -> Vec<ObjectRow> {
    let id = |text: &str| GcmValue::Id(text.into());
    (0..PUBLISH_ROWS)
        .map(|i| ObjectRow {
            id: format!("bench{batch}_{i}"),
            attrs: vec![
                ("protein_name".into(), id("Calbindin")),
                ("amount".into(), GcmValue::Int((10 + i) as i64)),
                ("location".into(), id("Purkinje_Spine")),
                ("ion_bound".into(), id("calcium")),
                ("organism".into(), id("rat")),
            ],
        })
        .collect()
}

/// The §5 query the server pre-fetches for its `plan` op.
pub fn section5_query() -> Section5Query {
    Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    }
}

pub struct Oracle {
    pub mediator: Mediator,
    pub hub: Arc<SnapshotHub>,
    pub schema: NeuroSchema,
    pub fetched: Section5Fetch,
}

impl Oracle {
    /// Builds, materializes and publishes the scenario exactly as
    /// `spawn_server` does, so both sides hold the same snapshot.
    pub fn build(params: &ScenarioParams) -> Oracle {
        let mut mediator = build_scenario(params);
        let schema = NeuroSchema::default();
        mediator.materialize_all().expect("scenario materializes");
        // `section5_fetch` takes the two planes at once, and only this
        // split borrow hands them out (`run_section5` and `spawn_server`
        // go through it too).
        let fetched = {
            let (federation, knowledge) = mediator.fetch_eval_planes();
            section5_fetch(federation, knowledge, &schema, &section5_query(), true)
                .expect("section-5 fetch")
        };
        let hub = mediator.hub();
        mediator.publish_snapshot().expect("first publish");
        Oracle {
            mediator,
            hub,
            schema,
            fetched,
        }
    }

    pub fn snapshot(&self) -> PinnedSnapshot {
        self.hub.load().expect("published at build")
    }

    /// Every `protein_amount` object of the scenario, as the class scan
    /// names them.
    pub fn scan_ids(&self) -> HashSet<String> {
        self.snapshot()
            .query_fl_rendered(SCAN_PATTERN)
            .expect("oracle scan")
            .into_iter()
            .filter_map(|row| row.into_iter().next())
            .collect()
    }

    fn rows(&self, pattern: &str) -> Expect {
        Expect::Rows(
            self.snapshot()
                .query_fl_rendered(pattern)
                .unwrap_or_else(|e| panic!("oracle query {pattern:?}: {e}")),
        )
    }

    /// Three lookups per NCMIR object — location, amount, classes — then
    /// one `ping`: the layout `loadgen::point_sequence` indexes into.
    pub fn point_catalog(&self) -> Vec<Request> {
        let mut catalog = Vec::with_capacity(NCMIR_ROWS * 3 + 1);
        for i in 0..NCMIR_ROWS {
            for pattern in [
                format!("\"NCMIR.pa{i}\"[location -> L]"),
                format!("\"NCMIR.pa{i}\"[amount -> A]"),
                format!("\"NCMIR.pa{i}\" : C"),
            ] {
                catalog.push(Request::new(OpKind::Point, &pattern, self.rows(&pattern)));
            }
        }
        catalog.push(Request::new(OpKind::Ping, "", Expect::Ping));
        catalog
    }

    /// The `served_answer` cycle of eight: the six rules, a warm `plan`,
    /// the class scan.
    pub fn answer_catalog(&self) -> Vec<Request> {
        let snapshot = self.snapshot();
        let mut catalog: Vec<Request> = ANSWER_RULES
            .iter()
            .map(|rule| {
                let answer = snapshot
                    .answer_with(rule, snapshot.eval_options())
                    .unwrap_or_else(|e| panic!("oracle answer {rule:?}: {e}"));
                Request::new(OpKind::Answer, rule, Expect::Rows(answer.rows))
            })
            .collect();
        let trace = snapshot
            .run_section5(&self.schema, &self.fetched)
            .expect("oracle plan");
        catalog.push(Request::new(
            OpKind::Plan,
            "",
            Expect::Plan {
                root: trace.root,
                distribution_rows: trace.distribution.len() as u64,
                selected_sources: trace.selected_sources.len() as u64,
            },
        ));
        catalog.push(Request::new(
            OpKind::Scan,
            SCAN_PATTERN,
            self.rows(SCAN_PATTERN),
        ));
        catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every catalog entry's expectation is what a fresh snapshot of an
    /// independently built mediator answers, for every op kind.
    #[test]
    fn oracle_agrees_with_an_independent_snapshot() {
        let params = ScenarioParams {
            seed: 11,
            ..Default::default()
        };
        let oracle = Oracle::build(&params);
        let mut other = build_scenario(&params);
        other.materialize_all().unwrap();
        let hub = other.hub();
        other.publish_snapshot().unwrap();
        let snapshot = hub.load().unwrap();
        let mut kinds = Vec::new();
        let point = oracle.point_catalog();
        // The default scenario has 60 NCMIR rows; later objects are absent
        // and must expect no rows.
        for request in point.iter().chain(&oracle.answer_catalog()) {
            kinds.push(request.kind);
            match (&request.expect, request.kind) {
                (Expect::Rows(rows), OpKind::Point | OpKind::Scan) => {
                    assert_eq!(rows, &snapshot.query_fl_rendered(&request.text).unwrap());
                }
                (Expect::Rows(rows), OpKind::Answer) => {
                    let answer = snapshot.answer_with(&request.text, snapshot.eval_options());
                    assert_eq!(rows, &answer.unwrap().rows);
                }
                (Expect::Plan { root, .. }, OpKind::Plan) => {
                    assert_eq!(root.as_deref(), Some("Purkinje_Cell"));
                }
                (Expect::Ping, OpKind::Ping) => {}
                other => panic!("mismatched expectation {other:?}"),
            }
        }
        for kind in [
            OpKind::Ping,
            OpKind::Point,
            OpKind::Scan,
            OpKind::Answer,
            OpKind::Plan,
        ] {
            assert!(kinds.contains(&kind), "{kind:?} not covered");
        }
        let Expect::Rows(first) = &point[0].expect else {
            panic!("point lookups expect rows");
        };
        assert_eq!(first.len(), 1, "NCMIR.pa0 has one location");
        let Expect::Rows(absent) = &point[3 * 100].expect else {
            panic!("point lookups expect rows");
        };
        assert!(absent.is_empty(), "NCMIR.pa100 is not in a 60-row scenario");
    }
}
