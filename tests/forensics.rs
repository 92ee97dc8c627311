//! End-to-end failure forensics: the seeded deadlock-victim scenario
//! must leave a deterministic dump behind, the dump must reconstruct the
//! cycle the engine actually broke, and the flight recorder must be
//! invisible to the simulation it rides along with.
//!
//! The scenario is the quick fig3 preset under LOTEC at a pinned seed —
//! a configuration verified to break exactly one deadlock — so every
//! assertion here is exact, not probabilistic.

use lotec_core::engine::{Engine, MAX_FORENSICS_DUMPS};
use lotec_core::protocol::ProtocolKind;
use lotec_core::{oracle, FamilySpec, FlightRecorderConfig, SystemConfig};
use lotec_object::ObjectRegistry;
use lotec_obs::{
    find_cycle, Anomaly, CompactRecord, EventSink, FlightRecorder, ForensicsDump, NoopSink,
    ProfiledSink, RecordingSink, WallProfiler,
};
use lotec_workload::presets;

/// Seed at which quick-fig3/LOTEC breaks exactly one deadlock.
const DEADLOCK_SEED: u64 = 11;

fn deadlock_config(slots: u32) -> (SystemConfig, lotec_workload::Scenario) {
    let scenario = presets::quick(presets::fig3());
    let config = SystemConfig {
        protocol: ProtocolKind::Lotec,
        seed: DEADLOCK_SEED,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        flight_recorder: FlightRecorderConfig { slots },
        ..SystemConfig::default()
    };
    (config, scenario)
}

/// Every engine here runs with validation armed, so the dumped waits-for
/// edges, read from the incremental graph, are checked against the
/// from-scratch rebuild after every lock-table mutation.
fn validated<'a, S: EventSink>(
    config: &'a SystemConfig,
    registry: &'a ObjectRegistry,
    families: &'a [FamilySpec],
    sink: S,
) -> Engine<'a, S> {
    Engine::with_probe(config, registry, families, sink)
        .expect("workload validates")
        .validate_lock_graph()
}

fn run_recorded(slots: u32) -> (lotec_core::RunReport, FlightRecorder) {
    let (config, scenario) = deadlock_config(slots);
    let (registry, families) = scenario.generate().expect("workload generates");
    let mut recorder = FlightRecorder::new(config.flight_recorder.slots as usize);
    let report = validated(&config, &registry, &families, &mut recorder)
        .run()
        .expect("recorded run");
    (report, recorder)
}

/// The pinned scenario produces a deadlock-victim dump whose anomaly,
/// dumped waits-for edges, and triage report all agree: the cycle
/// reconstructed from the edges is the cycle the engine broke.
#[test]
fn deadlock_victim_dump_reconstructs_the_cycle() {
    let (report, _recorder) = run_recorded(4096);
    assert_eq!(
        report.stats.deadlocks, 1,
        "scenario must break one deadlock"
    );
    assert!(
        !report.forensics.is_empty() && report.forensics.len() <= MAX_FORENSICS_DUMPS,
        "deadlock break must capture a bounded number of dumps"
    );
    oracle::verify(&report).expect("serializable despite the deadlock");

    let dump = report
        .forensics
        .iter()
        .find(|d| matches!(d.anomaly, Anomaly::DeadlockVictim { .. }))
        .expect("a deadlock-victim dump");
    let Anomaly::DeadlockVictim {
        ref cycle, victim, ..
    } = dump.anomaly
    else {
        unreachable!()
    };
    assert!(cycle.contains(&victim), "victim is a cycle member");

    // The cycle rebuilt from the dumped edges must cover the same roots
    // the engine's detector reported at the moment of the break.
    let rebuilt = find_cycle(&dump.waits_for).expect("dumped edges contain the cycle");
    let set = |c: &[u64]| {
        let mut v = c.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    assert_eq!(
        set(&rebuilt),
        set(cycle),
        "reconstructed cycle diverged from the anomaly's"
    );

    let triage = dump.render_triage();
    assert!(
        triage.contains("matches anomaly: yes"),
        "triage must confirm the reconstruction:\n{triage}"
    );
    assert!(
        triage.contains("victim family") && triage.contains("waits-for cycle"),
        "triage names the victim and the cycle:\n{triage}"
    );
}

/// The dump is deterministic: rerunning the identical scenario renders a
/// byte-identical JSONL, and parsing it back reproduces the same bytes.
#[test]
fn deadlock_victim_dump_is_byte_deterministic() {
    let (a, _) = run_recorded(4096);
    let (b, _) = run_recorded(4096);
    assert_eq!(a.forensics.len(), b.forensics.len());
    for (da, db) in a.forensics.iter().zip(&b.forensics) {
        let ja = da.to_jsonl();
        assert_eq!(ja, db.to_jsonl(), "dump not deterministic across reruns");
        let parsed = ForensicsDump::parse(&ja).expect("dump parses");
        assert_eq!(parsed.to_jsonl(), ja, "parse/render round trip drifted");
    }
}

/// The flight recorder is an observer: with it attached, the simulated
/// outputs are identical to the plain run, so every golden fingerprint
/// pinned elsewhere is untouched by recording.
#[test]
fn recorder_does_not_perturb_the_simulation() {
    let (config, scenario) = deadlock_config(4096);
    let (registry, families) = scenario.generate().expect("workload generates");
    let plain = validated(&config, &registry, &families, NoopSink)
        .run()
        .expect("plain run");
    let (recorded, recorder) = run_recorded(4096);
    assert_eq!(plain.trace, recorded.trace);
    assert_eq!(plain.final_chains, recorded.final_chains);
    assert_eq!(plain.traffic.total(), recorded.traffic.total());
    assert_eq!(plain.stats.makespan, recorded.stats.makespan);
    assert!(recorder.recorded() > 0, "the probe plane was live");
}

/// Timing the recorder does not hide it: an engine whose flight recorder
/// is wrapped in a `ProfiledSink` captures exactly the dumps of the bare
/// recorder.
#[test]
fn profiled_recorder_captures_the_same_dumps() {
    let (config, scenario) = deadlock_config(4096);
    let (registry, families) = scenario.generate().expect("workload generates");
    let (bare, _) = run_recorded(4096);
    assert!(!bare.forensics.is_empty(), "the pinned cell dumps");

    let mut recorder = FlightRecorder::new(config.flight_recorder.slots as usize);
    let mut prof = WallProfiler::new();
    let sink = ProfiledSink::new(&mut recorder, &mut prof);
    let wrapped = validated(&config, &registry, &families, sink)
        .run()
        .expect("wrapped run");
    assert_eq!(wrapped.forensics, bare.forensics);
}

/// Ring wraparound at tiny capacities: the recorder's snapshot is
/// exactly the tail of the unbounded event stream, and the drop counter
/// accounts for everything that fell off the front.
#[test]
fn tiny_ring_keeps_exactly_the_tail() {
    let (config, scenario) = deadlock_config(4096);
    let (registry, families) = scenario.generate().expect("workload generates");
    let mut full = RecordingSink::new();
    validated(&config, &registry, &families, &mut full)
        .run()
        .expect("full-capture run");
    let all = full.into_events();
    assert!(
        all.len() > 8,
        "scenario emits enough events to wrap a tiny ring"
    );

    for slots in [1usize, 2, 7, 8] {
        let (_, recorder) = run_recorded(slots as u32);
        assert_eq!(recorder.recorded() as usize, all.len(), "slots={slots}");
        assert_eq!(
            recorder.dropped() as usize,
            all.len() - slots,
            "slots={slots}"
        );
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.len(), slots, "slots={slots}");
        // The ring stores fixed-width records, so variable-length page
        // lists truncate greedily on entry — compare against the
        // unbounded capture pushed through the same compaction.
        let expected: Vec<_> = all[all.len() - slots..]
            .iter()
            .map(|e| CompactRecord::encode(e).decode())
            .collect();
        assert_eq!(
            snapshot, expected,
            "slots={slots}: ring tail diverged from the unbounded capture"
        );
    }
}
