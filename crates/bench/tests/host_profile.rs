//! Host-plane determinism gates.
//!
//! Wall-clock *magnitudes* vary run to run by nature; everything else
//! about the host plane must be a deterministic function of the simulated
//! workload. These tests pin that boundary:
//!
//! * attaching a [`WallProfiler`] must not perturb simulated outputs;
//! * the profile *structure* (which regions fire, how many times) must be
//!   identical whether a sweep runs on 1 worker or 8;
//! * the sim-state gauge series ([`ObsEventKind::StateSample`]) must be
//!   byte-identical across worker counts and must not perturb the run
//!   that emits it.

use lotec_bench::runner;
use lotec_core::config::SystemConfig;
use lotec_core::engine::{Engine, RunReport};
use lotec_core::protocol::ProtocolKind;
use lotec_obs::{jsonl_encode, HostProfile, NoopSink, ObsEventKind, RecordingSink, WallProfiler};
use lotec_sim::SimDuration;
use lotec_workload::presets;

fn cell_inputs(
    seed: u64,
) -> (
    SystemConfig,
    lotec_object::ObjectRegistry,
    Vec<lotec_core::spec::FamilySpec>,
) {
    let mut scenario = presets::quick(presets::fig3());
    scenario.config.seed = seed;
    let (registry, families) = scenario.generate().expect("workload generates");
    let config = SystemConfig {
        protocol: ProtocolKind::Lotec,
        seed,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        ..SystemConfig::default()
    };
    (config, registry, families)
}

fn sim_outputs(report: &RunReport) -> (u64, u64, u64, u64) {
    (
        report.stats.sim_events,
        report.stats.committed_families,
        report.traffic.total().messages,
        report.traffic.total().bytes,
    )
}

#[test]
fn wall_profiler_does_not_perturb_the_simulation() {
    let (config, registry, families) = cell_inputs(7);
    let plain = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("plain run");
    let mut prof = WallProfiler::new();
    let profiled = Engine::with_instruments(&config, &registry, &families, NoopSink, &mut prof)
        .and_then(Engine::run)
        .expect("profiled run");
    assert_eq!(sim_outputs(&plain), sim_outputs(&profiled));
    assert_eq!(plain.final_chains, profiled.final_chains);

    let profile = prof.into_profile();
    // The run loop's accounting identities: one Setup, one Report and
    // one Teardown scope per run, one Dispatch per delivered event, and
    // one EventPop per delivery plus the final empty pop.
    use lotec_obs::HostRegion;
    assert_eq!(profile.region(HostRegion::Setup).count, 1);
    assert_eq!(profile.region(HostRegion::Report).count, 1);
    assert_eq!(profile.region(HostRegion::Teardown).count, 1);
    assert_eq!(
        profile.region(HostRegion::Dispatch).count,
        plain.stats.sim_events
    );
    assert_eq!(
        profile.region(HostRegion::EventPop).count,
        plain.stats.sim_events + 1
    );
    assert!(
        profile.region(HostRegion::StateSample).count == 0,
        "sampling must stay off by default"
    );
}

#[test]
fn profile_structure_is_identical_at_1_and_8_workers() {
    // One WallProfiler per cell per sweep; merged in index order after
    // the join, exactly as the perf harness does. `LOTEC_BENCH_THREADS`
    // maps onto the explicit worker counts used here (the env var itself
    // is process-global, so the test passes the counts directly).
    let sweep = |workers: usize| -> HostProfile {
        let profiles = runner::run_indexed_profiled_on(workers, 6, |i| {
            let (config, registry, families) = cell_inputs(i as u64);
            let mut prof = WallProfiler::new();
            Engine::with_instruments(&config, &registry, &families, NoopSink, &mut prof)
                .and_then(Engine::run)
                .expect("cell runs");
            prof.into_profile()
        })
        .0;
        let mut merged = HostProfile::new();
        for p in &profiles {
            merged.merge(p);
        }
        merged
    };
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(
        serial.structure(),
        parallel.structure(),
        "region set and scope counts must not depend on the worker count"
    );
    assert!(serial.total_count() > 0, "a real sweep fires regions");
}

#[test]
fn state_sample_series_is_identical_across_worker_counts() {
    // Gauge series of every cell in the sweep, JSONL-encoded: the
    // deterministic sim-time sampler must produce byte-identical series
    // regardless of how the sweep was scheduled onto workers.
    let series = |workers: usize| -> Vec<String> {
        runner::run_indexed_profiled_on(workers, 4, |i| {
            let (config, registry, families) = cell_inputs(i as u64);
            let mut sink = RecordingSink::new();
            Engine::with_probe(&config, &registry, &families, &mut sink)
                .map(|engine| engine.sample_state_every(SimDuration::from_micros(50)))
                .and_then(Engine::run)
                .expect("sampled run");
            let samples: Vec<_> = sink
                .events()
                .iter()
                .filter(|e| matches!(e.kind, ObsEventKind::StateSample { .. }))
                .cloned()
                .collect();
            assert!(!samples.is_empty(), "a run this long crosses sample ticks");
            jsonl_encode(&samples)
        })
        .0
    };
    assert_eq!(series(1), series(8));
}

#[test]
fn state_sampling_does_not_perturb_the_simulation() {
    let (config, registry, families) = cell_inputs(3);
    let plain = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("plain run");
    let mut sink = RecordingSink::new();
    let sampled = Engine::with_probe(&config, &registry, &families, &mut sink)
        .map(|engine| engine.sample_state_every(SimDuration::from_micros(20)))
        .and_then(Engine::run)
        .expect("sampled run");
    assert_eq!(sim_outputs(&plain), sim_outputs(&sampled));
    assert_eq!(plain.final_chains, sampled.final_chains);
    let n_samples = sink
        .events()
        .iter()
        .filter(|e| matches!(e.kind, ObsEventKind::StateSample { .. }))
        .count();
    assert!(n_samples > 0, "sampling was enabled but emitted nothing");
}
