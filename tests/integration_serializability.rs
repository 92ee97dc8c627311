//! End-to-end correctness: every execution the engine produces must be
//! serializable (equivalent to serial execution in root-commit order),
//! under contention, faults, deadlocks and every protocol.

use lotec::prelude::*;
use lotec::workload::presets;
use lotec_core::SystemConfig as Cfg;

fn engine_report(scenario: &lotec::workload::Scenario, protocol: ProtocolKind) -> RunReport {
    let (registry, families) = scenario.generate().expect("generates");
    let config = Cfg {
        protocol,
        ..scenario.system_config()
    };
    Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("engine runs")
}

#[test]
fn every_protocol_is_serializable_on_contended_workloads() {
    for scenario in [
        presets::quick(presets::fig2()),
        presets::quick(presets::fig3()),
    ] {
        for protocol in ProtocolKind::ALL {
            let report = engine_report(&scenario, protocol);
            oracle::verify(&report)
                .unwrap_or_else(|e| panic!("{} under {protocol}: {e}", scenario.name));
            assert!(report.stats.committed_families > 0);
        }
    }
}

#[test]
fn fault_injected_workloads_stay_serializable() {
    let scenario = presets::quick(presets::ablation_faults());
    for protocol in ProtocolKind::ALL {
        let report = engine_report(&scenario, protocol);
        oracle::verify(&report).unwrap_or_else(|e| panic!("{protocol}: {e}"));
        assert!(
            report.stats.subtxn_aborts > 0,
            "{protocol}: the fault workload must actually abort sub-transactions"
        );
    }
}

#[test]
fn deadlock_heavy_workload_recovers_and_stays_serializable() {
    // Few objects, write-heavy, many families from many nodes: cross-family
    // deadlocks are likely. The engine must break them, restart victims and
    // still commit everything serializably.
    let mut scenario = presets::quick(presets::fig3());
    scenario.config.num_objects = 4;
    scenario.config.zipf_theta = 1.2;
    scenario.config.num_families = 60;
    scenario.config.mean_arrival_gap = SimDuration::from_micros(5);
    let report = engine_report(&scenario, ProtocolKind::Lotec);
    oracle::verify(&report).expect("serializable despite deadlocks");
    assert_eq!(
        report.stats.committed_families, 60,
        "every family must eventually commit (restarts: {})",
        report.stats.restarts
    );
}

#[test]
fn engine_runs_are_bit_deterministic() {
    let scenario = presets::quick(presets::fig2());
    let a = engine_report(&scenario, ProtocolKind::Lotec);
    let b = engine_report(&scenario, ProtocolKind::Lotec);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_chains, b.final_chains);
    assert_eq!(a.traffic.total(), b.traffic.total());
    assert_eq!(a.committed, b.committed);
}

#[test]
fn protocols_agree_on_final_state_for_the_same_workload() {
    // Different protocols move different bytes, but all must converge to
    // byte-identical final object state when the schedules coincide, and
    // to *serially-explainable* state regardless.
    let scenario = presets::quick(presets::fig4());
    for protocol in ProtocolKind::ALL {
        let report = engine_report(&scenario, protocol);
        oracle::verify(&report).unwrap_or_else(|e| panic!("{protocol}: {e}"));
    }
}

#[test]
fn prediction_misses_force_demand_fetches_but_not_corruption() {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("generates");
    let config = Cfg {
        protocol: ProtocolKind::Lotec,
        prediction_miss_rate: 0.4,
        ..scenario.system_config()
    };
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    assert!(
        report.stats.demand_fetches > 0,
        "40% misses must cause demand fetches"
    );
    oracle::verify(&report).expect("demand fetching preserves correctness");
}

#[test]
fn recovery_mechanisms_are_interchangeable() {
    use lotec_core::config::RecoveryKind;
    let scenario = presets::quick(presets::ablation_faults());
    let (registry, families) = scenario.generate().expect("generates");
    let base = scenario.system_config();
    let undo = Engine::new(
        &Cfg {
            recovery: RecoveryKind::UndoLog,
            ..base.clone()
        },
        &registry,
        &families,
    )
    .and_then(Engine::run)
    .expect("undo run");
    let shadow = Engine::new(
        &Cfg {
            recovery: RecoveryKind::ShadowPages,
            ..base
        },
        &registry,
        &families,
    )
    .and_then(Engine::run)
    .expect("shadow run");
    assert_eq!(undo.trace, shadow.trace);
    assert_eq!(undo.final_chains, shadow.final_chains);
    assert_eq!(undo.traffic.total(), shadow.traffic.total());
}

#[test]
fn read_only_families_observe_committed_state() {
    // A workload with read-only methods mixed in: the oracle validates
    // every read, so a pass proves readers saw exactly the serial-order
    // state (entry consistency delivered the right pages).
    let mut scenario = presets::quick(presets::fig5());
    scenario.config.schema.read_only_method_prob = 0.5;
    let report = engine_report(&scenario, ProtocolKind::Lotec);
    oracle::verify(&report).expect("reads are consistent");
    let reads = report
        .committed
        .iter()
        .flat_map(|f| &f.ops)
        .filter(|op| matches!(op, lotec_core::engine::FamilyOp::Read { .. }))
        .count();
    assert!(reads > 0, "workload must actually read");
}
