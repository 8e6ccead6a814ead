//! # kind-sources — the simulated Neuroscience multiple-worlds scenario
//!
//! The paper's evaluation scenario federates real laboratory databases we
//! do not have; this crate provides seeded synthetic stand-ins with the
//! same schemas, anchor structure, and query capabilities (see DESIGN.md,
//! "Substitutions"):
//!
//! * [`synapse`] — hippocampal spine morphometry (CM exported as **ER**);
//! * [`ncmir`] — cerebellar protein localization (CM exported as
//!   **UXF/UML**);
//! * [`senselab`] — neurotransmission records (CM exported as **RDFS**);
//! * [`anatomy`] — ANATOM: the anatomical knowledge contributed to the
//!   domain map;
//! * [`scenario`] — one-call construction of the fully registered
//!   mediator, with configurable noise sources for the source-selection
//!   ablation;
//! * [`dm_gen`] — seeded random domain maps for the §4 differential
//!   oracle;
//! * [`fed_gen`] — seeded random federations over those maps, and
//!   one-off rules over them, for the end-to-end answer oracle.
#![warn(missing_docs)]

pub mod anatomy;
pub mod dm_gen;
pub mod fed_gen;
pub mod ncmir;
pub mod scenario;
pub mod senselab;
pub mod synapse;

pub use anatomy::{anatom_wrapper, scenario_domain_map, NEURO_ANATOMY_AXIOMS};
pub use ncmir::{ncmir_wrapper, CALCIUM_BINDING, NCMIR_LOCATIONS};
pub use scenario::{
    build_scenario, build_scenario_with_faults, ncmir_update_rows, noise_protein_wrapper,
    ScenarioParams,
};
pub use senselab::senselab_wrapper;
pub use synapse::{synapse_wrapper, SYNAPSE_LOCATIONS};
