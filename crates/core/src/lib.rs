//! # kind-core — the KIND model-based mediator
//!
//! The paper's primary contribution (Figure 2): a mediator where views
//! are defined and executed at the level of **conceptual models** rather
//! than raw semistructured data, and where **domain maps** correlate
//! sources from multiple worlds.
//!
//! The mediator itself is a thin facade over three layers (see
//! DESIGN.md):
//!
//! * [`wrapper`] — the source interface: CM export (in any plugged-in
//!   formalism), query capabilities (binding patterns for push-down),
//!   anchor declarations, and optional DM contributions;
//! * [`federation`] — the source-facing layer: registered wrappers,
//!   per-source policies, circuit breakers, the shared clock, and the
//!   single guarded-fetch path;
//! * [`knowledge`] — the semantic layer: domain map + resolved view,
//!   retained DL axioms, plug-in registry, semantic index, CMs, views;
//! * [`mediator`] — the facade composing the two with the eval/cache
//!   pipeline: registration, integrated views, model evaluation, source
//!   selection, lub computation;
//! * [`snapshot`] — immutable `Send + Sync` [`QuerySnapshot`]s for
//!   serving reads from many threads with no exclusive lock on the hot
//!   path;
//! * [`hub`] — the publication plane: an epoch-counted
//!   [`SnapshotHub`] slot that [`Mediator::publish`] installs into and
//!   readers load under a shared read lock, pinning each request to one
//!   epoch;
//! * [`plan`] — the §5 four-step query plan with a full execution trace,
//!   and the Example 4 `protein_distribution` view.
//!
//! ```
//! use kind_core::{Mediator, MemoryWrapper, Capability, Anchor};
//! use kind_dm::{figures, ExecMode};
//! use kind_gcm::GcmValue;
//! use std::sync::Arc;
//!
//! let mut med = Mediator::new(figures::figure1(), ExecMode::Assertion);
//! let mut w = MemoryWrapper::new("SYNAPSE");
//! w.caps.push(Capability { class: "spines".into(), pushable: vec![] });
//! w.anchor_decls.push(Anchor::Fixed {
//!     class: "spines".into(),
//!     concept: "Spine".into(),
//! });
//! w.add_row("spines", "s1", vec![("volume", GcmValue::Int(7))]);
//! med.register(Arc::new(w)).unwrap();
//! // Source selection through the domain map: spines regulate ions.
//! assert_eq!(
//!     med.sources_below("Ion_Regulating_Component").unwrap(),
//!     vec!["SYNAPSE".to_string()]
//! );
//! ```
#![warn(missing_docs)]

pub mod error;
mod executor;
pub mod fault;
pub mod federation;
pub mod hub;
pub mod knowledge;
pub mod mediator;
pub mod plan;
pub mod query;
pub mod snapshot;
pub mod wrapper;

pub use error::{MediatorError, Result};
pub use fault::{
    AnswerReport, BreakerConfig, BreakerState, CircuitBreaker, Fault, FaultInjector,
    QuarantinedRow, RetryPolicy, SourceError, SourceOutcome, SourcePolicy, SourceReport,
    VirtualClock,
};
pub use federation::{
    Federation, FetchBatch, FetchRequest, FetchSet, MediatorStats, RegisteredSource,
};
pub use hub::{PinnedSnapshot, SnapshotHub};
pub use knowledge::{DomainView, Knowledge};
pub use mediator::Mediator;
pub use plan::{
    distribution_eval, distribution_fetch, protein_distribution, run_section5, section5_eval,
    section5_fetch, DistributionFetch, DistributionRow, NeuroSchema, PlanTrace, Section5Fetch,
    Section5Query,
};
pub use query::AnswerSet;
pub use snapshot::{QuerySnapshot, SnapshotAnswer};
pub use wrapper::{
    Anchor, Capability, MemoryWrapper, ObjectRow, QueryTemplate, Selection, SourceQuery,
    StallAware, Submission, Wrapper,
};
