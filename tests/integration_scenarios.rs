//! Oracle-checked integration: one quick-tier cell of every workload-zoo
//! family through the engine under all four protocols.
//!
//! Each run must be serializable (the oracle replays the trace against
//! the final content chains) and must meet the scenario's own declared
//! success criteria — the same bounds the `scenarios` bench matrix
//! enforces, checked here in the plain test suite so a regression fails
//! `cargo test` before it fails a bench gate.

use lotec_core::engine::Engine;
use lotec_core::{oracle, ProtocolKind};
use lotec_workload::zoo::{self, Tier};

#[test]
fn quick_cells_are_serializable_and_meet_criteria() {
    for scenario in zoo::all(Tier::Quick) {
        let (registry, families) = scenario
            .generate()
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", scenario.name()));
        assert!(
            families.len() as u32 >= scenario.config.num_families * 3 / 4,
            "{}: too many skipped draws ({}/{})",
            scenario.name(),
            families.len(),
            scenario.config.num_families
        );
        for protocol in ProtocolKind::ALL {
            let config = scenario.cell_config(protocol, false);
            let report = Engine::new(&config, &registry, &families)
                .and_then(Engine::run)
                .unwrap_or_else(|e| panic!("{} {protocol}: {e}", scenario.name()));
            oracle::verify(&report)
                .unwrap_or_else(|e| panic!("{} {protocol}: oracle: {e}", scenario.name()));
            let failures = scenario.criteria.evaluate(families.len(), &report.stats);
            assert!(
                failures.is_empty(),
                "{} {protocol}: success criteria violated: {failures:?}",
                scenario.name()
            );
            // The memory-flat cell config must really drop the per-family
            // rows — the one per-transaction buffer the stats can shed.
            assert!(report.stats.phases.per_family.is_empty());
        }
    }
}
