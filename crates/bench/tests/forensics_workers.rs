//! Forensics dumps are sweep-stable: a cell's dump renders byte-identical
//! whether the sweep runs on one worker or many. The runner only
//! parallelizes wall-clock — nothing about worker count may leak into a
//! dump, or post-mortem triage would depend on the machine that caught
//! the failure.

use lotec_bench::runner;
use lotec_core::protocol::ProtocolKind;
use lotec_core::{Engine, SystemConfig};
use lotec_obs::FlightRecorder;
use lotec_workload::presets;

/// Seeds at which quick-fig3/LOTEC breaks at least one deadlock, so every
/// cell produces a non-empty dump set.
const SEEDS: [u64; 3] = [11, 13, 17];

fn cell_dumps(seed: u64) -> Vec<String> {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    let config = SystemConfig {
        protocol: ProtocolKind::Lotec,
        seed,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        ..SystemConfig::default()
    };
    let mut recorder = FlightRecorder::new(config.flight_recorder.slots as usize);
    let report = Engine::with_probe(&config, &registry, &families, &mut recorder)
        .and_then(Engine::run)
        .expect("recorded run");
    assert!(
        !report.forensics.is_empty(),
        "seed {seed}: scenario must capture at least one dump"
    );
    report.forensics.iter().map(|d| d.to_jsonl()).collect()
}

#[test]
fn dumps_are_byte_identical_across_worker_counts() {
    let serial = runner::run_indexed_on(1, SEEDS.len(), |i| cell_dumps(SEEDS[i]));
    for workers in [2usize, runner::threads().max(2)] {
        let parallel = runner::run_indexed_on(workers, SEEDS.len(), |i| cell_dumps(SEEDS[i]));
        assert_eq!(
            serial, parallel,
            "forensics dumps changed between 1 and {workers} workers"
        );
    }
}
