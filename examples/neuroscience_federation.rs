//! The paper's headline scenario end to end: federate SYNAPSE, NCMIR,
//! SENSELAB, and ANATOM across "multiple worlds" and run the §5 query —
//!
//! > "What is the distribution of those calcium-binding proteins that are
//! > found in neurons that receive signals from parallel fibers in rat
//! > brains?"
//!
//! ```sh
//! cargo run --example neuroscience_federation
//! ```

use kind::core::{protein_distribution, run_section5, NeuroSchema, Section5Query};
use kind::sources::{build_scenario, ScenarioParams};

fn main() {
    let params = ScenarioParams::default();
    let mut med = build_scenario(&params);
    println!("registered sources:");
    for s in med.federation().sources() {
        println!("  {} (classes: {:?})", s.name, s.classes);
    }

    let schema = NeuroSchema::default();
    let query = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };

    println!("\n== §5 query plan (semantic index ON) ==");
    let trace = run_section5(&mut med, &schema, &query, true).expect("plan runs");
    println!("step 1  receiving pairs: {:?}", trace.step1_pairs);
    println!(
        "step 2  sources: {} candidates -> selected {:?}",
        trace.candidate_sources, trace.selected_sources
    );
    println!(
        "step 3  protein rows: {} ({} proteins: {:?})",
        trace.step3_rows,
        trace.proteins.len(),
        trace.proteins
    );
    println!("step 4  distribution root (lub): {:?}", trace.root);
    println!("        distribution:");
    for d in &trace.distribution {
        println!(
            "          {:<20} {:<20} {:>6}",
            d.protein, d.concept, d.total
        );
    }
    println!(
        "traffic: {} wrapper queries, {} rows shipped",
        trace.stats.source_queries, trace.stats.rows_shipped
    );

    println!("\n== ablation: semantic index OFF ==");
    let mut med2 = build_scenario(&params);
    let blind = run_section5(&mut med2, &schema, &query, false).expect("plan runs");
    println!(
        "contacted {} sources, {} wrapper queries, {} rows shipped",
        blind.selected_sources.len(),
        blind.stats.source_queries,
        blind.stats.rows_shipped
    );
    assert_eq!(trace.distribution, blind.distribution, "same answers");
    assert!(trace.stats.source_queries < blind.stats.source_queries);

    println!("\n== Example 4: protein_distribution(Ryanodine_Receptor, Cerebellum) ==");
    let dist = protein_distribution(&mut med, &schema, "Ryanodine_Receptor", "Cerebellum")
        .expect("view evaluates");
    for (concept, total) in &dist {
        println!("  {concept:<20} {total:>6}");
    }
    println!("ok");
}
